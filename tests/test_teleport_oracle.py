"""Property tests: the teleport engine's phase harmonics, from one analyzer
pass, against the analyzer built at each phase in tests/oracles.py."""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import blocking_weights, teleport_mean_per_phase, teleport_per_phase  # noqa: E402
from qrelay import scenarios  # noqa: E402
from qrelay.scenarios import (  # noqa: E402
    BLOCK_CHOICES,
    ENCODERS,
    ExperimentConfig,
    TeleportEngine,
    build_ideal_config,
)

PROPERTY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# relative agreement, with an absolute floor for values at fringe zeros
RTOL = 1e-12
ATOL = 1e-18

PHASE = hs.floats(-2.0 * math.pi, 4.0 * math.pi)
DARK = hs.one_of(hs.just(0.0), hs.floats(0.0, 0.01))


@hs.composite
def teleport_cases(draw):
    """(pair truncation K, config, phases, a receiver phase phi_b, dark
    scale) over the ideal setup
    and configs mixing heralding, the symmetric Bell-state stage, both
    encoders, per-source means, equal or not, losses and dark counts."""
    if draw(hs.booleans()):
        cfg = build_ideal_config()
    else:
        mean_alice = draw(hs.floats(0.0, 0.3))
        cfg = ExperimentConfig(
            symmetric_bsa=draw(hs.booleans()),
            alice_encoder=draw(hs.sampled_from(ENCODERS)),
            pair_mean_alice=mean_alice,
            pair_mean_epr=draw(hs.one_of(hs.just(mean_alice), hs.floats(0.0, 0.3))),
            phase_alice=draw(PHASE),
            phase_pump=draw(PHASE),
            delta_x_um=draw(hs.floats(0.0, 200.0)),
            loss_alice_db=draw(hs.floats(0.0, 6.0)),
            loss_bob_db=draw(hs.floats(0.0, 6.0)),
            eta_bob=draw(hs.one_of(hs.just(1.0), hs.floats(0.01, 1.0))),
            dark_ge=draw(DARK),
            dark_ingaas_bsa=draw(DARK),
            dark_herald=draw(DARK),
            dark_bob=draw(DARK),
            tail_tol=0.5,
        )
    cfg = replace(cfg, heralded=draw(hs.booleans()))
    phases = draw(hs.lists(PHASE, min_size=1, max_size=4))
    return draw(hs.sampled_from((2, 3))), cfg, phases, draw(PHASE), draw(hs.floats(0.0, 50.0))


def _rescaled_mean_and_blockings(engine, detectors, blocked):
    """Bob's click averaged over the phase under the config's weights, then
    under each of `blocked`, for `detectors`' dark counts: harmonic 0 of
    one harmonics contraction of their dark vector, as _background_ratio
    reads it."""
    h0 = engine.harmonics([det.dark_prob for det in detectors])[0, 1].real
    return (h0[0], *h0[[BLOCK_CHOICES.index(b) for b in blocked]])


def assert_close(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert np.all(np.abs(got - expected) <= np.maximum(RTOL * np.abs(expected), ATOL))


@PROPERTY_SETTINGS
@given(teleport_cases())
def test_harmonic_engine_matches_per_phase_analyzer(case):
    k, cfg, phases, phi_b, dark_scale = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "MAX_PAIRS_EACH", k)
        engine = TeleportEngine(cfg)
        cfg = engine.config
        assert_close(engine.scan(phases), [teleport_per_phase(engine, p).bob for p in phases])
        # Bob cannot signal to the relay, so the acceptance is the same at
        # any phase, and the blocked runs and their background, with Bob's
        # photons in definite bins, too: harmonic 0 at phi_b
        accept = scenarios._synthesize(engine.harmonics()[:, 0], phases)[:, 0]
        assert_close(accept, [teleport_per_phase(engine, p).accept for p in phases])
        assert_close(engine.acceptance(), teleport_per_phase(engine, phi_b).accept)
        assert_close(engine.harmonics()[0, 1, 0].real, teleport_mean_per_phase(engine))
        blocked = {b: teleport_per_phase(engine, phi_b, blocking_weights(cfg, b)).bob
                   for b in BLOCK_CHOICES[1:]}
        # the unblocked run is the fringe's first point, at phi_b = 0
        assert_close(engine.blocking(), [teleport_per_phase(engine, 0.0).bob, *blocked.values()])
        assert_close(engine.background(), blocked["alice"] + blocked["epr"] - blocked["both"])
        # a calibration's detector set, as _background_ratio passes it
        dets = scenarios._detectors(scenarios._with_dark_scale(cfg, dark_scale))
        mean, epr = _rescaled_mean_and_blockings(engine, dets, ("epr",))
        assert_close(mean, teleport_mean_per_phase(engine, dets))
        assert_close(epr, teleport_per_phase(engine, phi_b, blocking_weights(cfg, "epr"),
                                             dets).bob)


@PROPERTY_SETTINGS
@given(teleport_cases())
def test_dark_rescale_reweights_like_a_fresh_engine(case):
    # a rescaled detector set reweights the engine's photon tables; an
    # engine built on the rescaled config detects its own
    k, cfg, _, _, dark_scale = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "MAX_PAIRS_EACH", k)
        real_tables, passes = scenarios.teleport_tables, []
        mp.setattr(scenarios, "teleport_tables",
                   lambda *args, **kwargs: passes.append(args) or real_tables(*args, **kwargs))
        engine = TeleportEngine(cfg)
        rescaled = scenarios._with_dark_scale(engine.config, dark_scale)
        got = _rescaled_mean_and_blockings(engine, scenarios._detectors(rescaled),
                                           BLOCK_CHOICES[1:])
        assert len(passes) == 1
        fresh = TeleportEngine(rescaled)
        assert_close(got[0], fresh.harmonics()[0, 1, 0].real)
        assert_close(got[1:], fresh.blocking()[1:])


@PROPERTY_SETTINGS
@given(teleport_cases())
def test_phase_free_reads_have_no_harmonic_past_0(case):
    # what licenses reading harmonic 0: with a source blocked, Bob's photons
    # sit in definite time bins, so his click under "alice", "epr" and "both"
    # has no harmonic past 0 at all; and the relay accepts after Bob's photon
    # has left, so the acceptance's harmonics past 0 are rounding.  Both at
    # the config's dark counts and at a calibration's
    k, cfg, _, _, dark_scale = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "MAX_PAIRS_EACH", k)
        engine = TeleportEngine(cfg)
        for darks in (engine.darks,
                      scenarios._scaled_darks(engine.config, dark_scale)[:len(engine.darks)]):
            h = engine.harmonics(darks)
            assert np.all(h[1:, 1, 1:] == 0.0)
            assert np.all(np.abs(h[1:, 0]) <= 64 * np.finfo(float).eps * h[0, 0].real)
