"""Property tests: the dip scan, whose overlap-weighted branch components
come from one mixture build, against the coherent per-point builds in
tests/oracles.py; the guards of the conditions under which the components
are exact; and the dark-count calibration's root search against scipy's
brentq on the same bracket."""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import add_beamsplitter, mandel_per_point  # noqa: E402
from qrelay import cli, scenarios  # noqa: E402
from qrelay.errors import QRelayError  # noqa: E402
from qrelay.fock import ModeKey  # noqa: E402
from qrelay.scenarios import (  # noqa: E402
    MANDEL_MODES,
    ExperimentConfig,
    TeleportEngine,
    calibrate_dark_counts,
    mismatch_grid,
    run_mandel_scan,
)

PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EFFICIENCY = hs.one_of(hs.just(1.0), hs.floats(0.01, 1.0))
DARK = hs.one_of(hs.just(0.0), hs.floats(0.0, 0.01))


@hs.composite
def dip_cases(draw):
    """(pair truncation K, config, mismatches) over both modes, per-source
    means, equal or not, forced single pairs, losses, efficiencies and dark
    counts."""
    mean_alice = draw(hs.floats(0.0, 0.3))
    cfg = ExperimentConfig(
        mandel_mode=draw(hs.sampled_from(MANDEL_MODES)),
        ideal_single_pairs=draw(hs.booleans()),
        pair_mean_alice=mean_alice,
        pair_mean_epr=draw(hs.one_of(hs.just(mean_alice), hs.floats(0.0, 0.3))),
        mandel_phase=draw(hs.floats(0.0, 2.0 * math.pi)),
        phase_pump=draw(hs.floats(0.0, 2.0 * math.pi)),
        loss_alice_db=draw(hs.floats(0.0, 6.0)),
        loss_epr_db=draw(hs.floats(0.0, 6.0)),
        eta_ge=draw(EFFICIENCY),
        eta_ingaas_bsa=draw(EFFICIENCY),
        dark_ge=draw(DARK),
        dark_ingaas_bsa=draw(DARK),
        dip_fwhm_um=draw(hs.floats(50.0, 300.0)),
        tail_tol=0.5,
    )
    xs = mismatch_grid(draw(hs.integers(5, 9)), draw(hs.floats(20.0, 400.0))) + draw(
        hs.floats(-50.0, 50.0))
    return draw(hs.sampled_from((2, 3, 4))), cfg, xs


@PROPERTY_SETTINGS
@given(dip_cases())
def test_dip_scan_matches_per_point_builds(case):
    k, cfg, xs = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "MAX_PAIRS_EACH", k)
        short, long_ = run_mandel_scan(cfg, xs)
        expected = mandel_per_point(cfg, xs)
    got = np.column_stack([short.probability, long_.probability])
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("points", [5, 41])
@pytest.mark.parametrize(
    "k, overrides",
    [(2, {}), (4, {}), (3, {"ideal_single_pairs": True}), (2, {"pair_mean_alice": 0.0})],
    ids=["K2", "K4", "single-pairs", "alice-dark"],
)
def test_dip_scan_makes_one_circuit_pass(monkeypatch, points, k, overrides):
    # one circuit pass and one detection pass, reading both bins, whatever
    # the degree and the point count
    real_apply = scenarios.apply
    real_detect = scenarios.coincidence_clicks
    calls, detections = [], []

    def counting_apply(t, state):
        calls.append(len(state))
        return real_apply(t, state)

    def counting_detect(registry, occupations, det_a, det_b):
        detections.append(len(occupations))
        return real_detect(registry, occupations, det_a, det_b)

    monkeypatch.setattr(scenarios, "apply", counting_apply)
    monkeypatch.setattr(scenarios, "coincidence_clicks", counting_detect)
    monkeypatch.setattr(scenarios, "MAX_PAIRS_EACH", k)
    run_mandel_scan(ExperimentConfig(tail_tol=0.5, **overrides), mismatch_grid(points, 300.0))
    assert len(calls) == 1
    assert len(detections) == 1


def test_unnormalized_dip_branch_raises(monkeypatch):
    real_mixture = scenarios._branch_mixture

    def short_mixture(*args):
        st = real_mixture(*args)
        st.amplitudes[-1] *= 0.5
        return st

    monkeypatch.setattr(scenarios, "_branch_mixture", short_mixture)
    with pytest.raises(QRelayError, match=r"mixture branch \d+ has norm\^2 harmonics"):
        run_mandel_scan(ExperimentConfig(), mismatch_grid(5, 300.0))


def test_label_mixing_circuit_raises(monkeypatch, capsys):
    real_mixer = scenarios._add_bell_mixer

    def mixing_mixer(circ):
        real_mixer(circ)
        add_beamsplitter(circ, ModeKey(scenarios.ALICE_QUBIT, 0, 0),
                         ModeKey(scenarios.ALICE_QUBIT, 0, 1))

    monkeypatch.setattr(scenarios, "_add_bell_mixer", mixing_mixer)
    with pytest.raises(QRelayError, match="^the circuit couples "):
        run_mandel_scan(ExperimentConfig(), mismatch_grid(5, 300.0))
    assert cli.main(["mandel", "--points", "5"]) == 3
    assert "couples" in capsys.readouterr().err


# brentq's rtol, which the calibration's search keeps
CALIBRATION_RTOL = 1e-6


@hs.composite
def calibrations(draw):
    """(config, target): relays whose background ratio at zero dark counts
    lies below a target of 2.2-4, so the calibration searches."""
    cfg = ExperimentConfig(
        pair_mean_alice=draw(hs.floats(0.14, 0.19)),
        pair_mean_epr=draw(hs.floats(0.03, 0.06)),
        loss_bob_db=draw(hs.floats(1.0, 3.0)),
        phase_alice=draw(hs.floats(0.0, 2.0 * math.pi)),
        delta_x_um=draw(hs.floats(5.0, 60.0)),
        eta_bob=draw(hs.floats(0.08, 0.15)),
        heralded=draw(hs.booleans()),
    )
    return cfg, draw(hs.floats(2.2, 4.0))


@settings(PROPERTY_SETTINGS, max_examples=15)
@given(calibrations())
def test_calibration_matches_brentq(case):
    from scipy.optimize import brentq

    cfg, target = case
    with mock.patch.object(scenarios, "_background_ratio", wraps=scenarios._background_ratio) as ratio:
        _, report = calibrate_dark_counts(cfg, target)
    assert not report.clamped

    # the search as brentq ran it: the fourfold bracket from [0, 1], the
    # root, then the ratio there once more
    engine = TeleportEngine(cfg)
    hi, calls = 1.0, 2
    while scenarios._background_ratio(hi, engine) < target:
        hi, calls = 4.0 * hi, calls + 1
    scale, result = brentq(
        lambda s: scenarios._background_ratio(s, engine) - target,
        0.0, hi, rtol=CALIBRATION_RTOL, full_output=True,
    )
    assert abs(report.dark_scale / scale - 1.0) <= CALIBRATION_RTOL
    assert abs(report.achieved_ratio / target - 1.0) <= CALIBRATION_RTOL
    assert ratio.call_count <= calls + result.function_calls + 1
