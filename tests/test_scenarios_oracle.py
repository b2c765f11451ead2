"""Property tests: the dip scan's polynomial interpolation in xi^2 against
the per-point branch-mixture builds in tests/oracles.py."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import mandel_per_point  # noqa: E402
from qrelay import cli, scenarios  # noqa: E402
from qrelay.errors import LabelMixingError  # noqa: E402
from qrelay.fock import ModeKey  # noqa: E402
from qrelay.scenarios import (  # noqa: E402
    MANDEL_MODES,
    ExperimentConfig,
    mismatch_grid,
    run_mandel_scan,
)
from qrelay.sources import STATISTICS  # noqa: E402

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
    """(pair truncation K, config, mismatches) over both modes, both
    statistics, forced single pairs, losses, efficiencies and dark counts."""
    cfg = ExperimentConfig(
        mandel_mode=draw(hs.sampled_from(MANDEL_MODES)),
        statistics=draw(hs.sampled_from(STATISTICS)),
        ideal_single_pairs=draw(hs.booleans()),
        pair_mean_alice=draw(hs.floats(0.0, 0.3)),
        pair_mean_epr=draw(hs.floats(0.0, 0.3)),
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
    xs = mismatch_grid(draw(hs.integers(5, 9)), draw(hs.floats(20.0, 400.0)),
                       draw(hs.floats(-50.0, 50.0)))
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
    "k, overrides, builds",
    [
        (2, {}, 3),
        (4, {}, 5),
        (3, {"ideal_single_pairs": True}, 2),
        (2, {"pair_mean_alice": 0.0}, 1),
    ],
    ids=["K2", "K4", "single-pairs", "alice-dark"],
)
def test_dip_scan_builds_d_plus_one_states(monkeypatch, points, k, overrides, builds):
    # one circuit pass and one detection pass, reading both bins, per node
    real_apply = scenarios.apply
    real_detect = scenarios.coincidence_probability
    calls, detections = [], []

    def counting_apply(circuit, state):
        calls.append(len(state))
        return real_apply(circuit, state)

    def counting_detect(state, det_a, det_b):
        detections.append(len(state))
        return real_detect(state, det_a, det_b)

    monkeypatch.setattr(scenarios, "apply", counting_apply)
    monkeypatch.setattr(scenarios, "coincidence_probability", counting_detect)
    monkeypatch.setattr(scenarios, "MAX_PAIRS_EACH", k)
    run_mandel_scan(ExperimentConfig(tail_tol=0.5, **overrides), mismatch_grid(points))
    assert len(calls) == builds
    assert len(detections) == builds


def test_label_mixing_circuit_raises(monkeypatch, capsys):
    real_mixer = scenarios._add_bell_mixer

    def mixing_mixer(circ):
        real_mixer(circ)
        circ.add_beamsplitter(ModeKey(scenarios.ALICE_QUBIT, 0, 0),
                              ModeKey(scenarios.ALICE_QUBIT, 0, 1))

    monkeypatch.setattr(scenarios, "_add_bell_mixer", mixing_mixer)
    with pytest.raises(LabelMixingError):
        run_mandel_scan(ExperimentConfig(), mismatch_grid(5))
    assert cli.main(["mandel", "--points", "5"]) == 3
    assert "couples" in capsys.readouterr().err
