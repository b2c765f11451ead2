import math
from dataclasses import fields, replace

import numpy as np
import pytest

from qrelay import scenarios
from qrelay.analysis import fit_dip, fit_fringe
from qrelay.errors import ConfigError, HarmonicSynthesisError, UnnormalizedStateError
from qrelay.scenarios import (
    ExperimentConfig,
    TeleportEngine,
    branch_weights,
    build_ideal_config,
    calibrate_dark_counts,
    mismatch_grid,
    phase_grid,
    run_mandel_scan,
    run_teleport_scan,
)

IDEAL_DETECTORS = dict(
    eta_ge=1.0,
    eta_ingaas_bsa=1.0,
    dark_ge=0.0,
    dark_ingaas_bsa=0.0,
    dark_herald=0.0,
    dark_bob=0.0,
    loss_alice_db=0.0,
    loss_epr_db=0.0,
)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(statistics="chaotic")
    with pytest.raises(ConfigError):
        ExperimentConfig(eta_bob=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(pair_mean=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(mandel_mode="sideways")
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="exact")


def test_pair_mean_override():
    cfg = ExperimentConfig(pair_mean=0.13).materialized()
    assert cfg.pair_mean is None
    assert cfg.alice_mean() == 0.13
    assert cfg.epr_mean() == 0.13
    assert "pair_mean" in {f.name for f in fields(ExperimentConfig)}


def test_branch_weights_normalized():
    w = branch_weights(ExperimentConfig())
    assert abs(sum(w.values()) - 1.0) < 1e-12
    assert set(w) == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2)}
    # forced single-pair mode collapses the enumeration
    wi = branch_weights(build_ideal_config())
    assert wi == {(1, 1): 1.0}


def test_branch_weights_thermal_identity():
    # for one thermal source, P0 * P2 equals P1 squared, so the double-pair
    # branches together weigh exactly as much as the coincidence branch
    w = branch_weights(ExperimentConfig(pair_mean=0.09))
    assert abs(w[(2, 0)] - w[(1, 1)]) < 1e-15
    assert abs(w[(0, 2)] - w[(1, 1)]) < 1e-15


def test_ideal_acceptance_is_one_quarter():
    cfg = build_ideal_config()
    assert abs(TeleportEngine(cfg).outcome(cfg.phase_bob).accept - 0.25) < 1e-12


def test_ideal_fringe_unit_visibility():
    cfg = replace(build_ideal_config(), phase_alice=0.4, phase_pump=1.3)
    engine = TeleportEngine(cfg)
    scan = run_teleport_scan(engine, phase_grid(16, 1.0))
    fit = fit_fringe(scan.control, scan.counts)
    assert fit.visibility > 0.999999
    # destructive point sits where the analyzer undoes the preparation phases
    probe = run_teleport_scan(engine, [cfg.phase_pump - cfg.phase_alice])
    assert probe.probability[0] < 1e-12


def test_ideal_mandel_null():
    short, long_ = run_mandel_scan(build_ideal_config(), [0.0])
    assert short.probability[0] < 1e-12
    assert long_.probability[0] < 1e-12


def test_thermal_dip_depth_one_third():
    cfg = ExperimentConfig(pair_mean=1e-3, **IDEAL_DETECTORS)
    xs = mismatch_grid(21, 300.0)
    short, long_ = run_mandel_scan(cfg, xs)
    fs = fit_dip(xs, short.counts)
    fl = fit_dip(xs, long_.counts)
    assert abs(fs.depth - 1.0 / 3.0) < 1e-9
    assert abs(fl.depth - 1.0 / 3.0) < 1e-9
    assert abs(fs.fwhm - 144.0) < 1e-6
    assert abs(fs.center) < 1e-9
    assert abs(fl.center) < 1e-9


def test_poissonian_dip_depth_one_half():
    # poissonian pair numbers double-weight the single-source double pairs
    # relative to thermal, pushing the dip to one half
    cfg = ExperimentConfig(pair_mean=1e-3, statistics="poissonian", **IDEAL_DETECTORS)
    xs = mismatch_grid(21, 300.0)
    short, _ = run_mandel_scan(cfg, xs)
    assert abs(fit_dip(xs, short.counts).depth - 0.5) < 1e-6


def test_entangled_mode_dip_depth():
    # two-bin relay emission dilutes which-path erasure; at equal means the
    # depth lands exactly at 6/25
    cfg = ExperimentConfig(pair_mean=0.07, mandel_mode="entangled", **IDEAL_DETECTORS)
    xs = mismatch_grid(21, 300.0)
    short, long_ = run_mandel_scan(cfg, xs)
    assert abs(fit_dip(xs, short.counts).depth - 0.24) < 1e-9
    assert abs(fit_dip(xs, long_.counts).depth - 0.24) < 1e-9


def test_dip_depth_independent_of_pair_mean():
    # within the two-pair truncation the background-to-signal ratio is set
    # by the statistics alone, so thermal dips agree across pump powers
    xs = mismatch_grid(9, 200.0)
    depths = []
    for mu in (1e-3, 0.05):
        cfg = ExperimentConfig(pair_mean=mu, **IDEAL_DETECTORS)
        short, _ = run_mandel_scan(cfg, xs)
        depths.append(fit_dip(xs, short.counts).depth)
    assert abs(depths[0] - depths[1]) < 1e-9


def test_analytic_counts_are_probability_times_pulses():
    cfg = replace(build_ideal_config(), pulses_per_point=12345)
    scan = run_teleport_scan(TeleportEngine(cfg), phase_grid(8, 1.0))
    assert np.array_equal(scan.counts, scan.probability * 12345.0)
    assert scan.pulses == 12345


def test_fringe_mean_independent_of_phases():
    base = ExperimentConfig(**IDEAL_DETECTORS)
    m0 = TeleportEngine(base).mean()
    m1 = TeleportEngine(replace(base, phase_alice=0.9)).mean()
    m2 = TeleportEngine(replace(base, phase_pump=2.1)).mean()
    assert abs(m1 - m0) < 1e-9 * m0
    assert abs(m2 - m0) < 1e-9 * m0


def test_heralding_never_lowers_visibility():
    cal, _ = calibrate_dark_counts(ExperimentConfig())
    phis = phase_grid(12, 1.0)
    v = {}
    for heralded in (False, True):
        cfg = replace(cal, heralded=heralded, pair_mean=0.13)
        v[heralded] = fit_fringe(phis, run_teleport_scan(TeleportEngine(cfg), phis).counts).visibility
    assert v[True] >= v[False] - 1e-12


def test_lower_pump_never_lowers_visibility():
    cal, _ = calibrate_dark_counts(ExperimentConfig())
    phis = phase_grid(12, 1.0)
    v = {}
    for mu in (0.13, 0.13 / 4.0):
        cfg = replace(cal, pair_mean=mu)
        v[mu] = fit_fringe(phis, run_teleport_scan(TeleportEngine(cfg), phis).counts).visibility
    assert v[0.13 / 4.0] >= v[0.13] - 1e-12


def test_blocking_behaviour():
    base = ExperimentConfig()
    engine = TeleportEngine(base)
    # placeholder dark counts keep every blocked configuration clicking
    assert engine.blocking("epr") > 0.0
    assert engine.blocking("both") > 0.0
    cal, _ = calibrate_dark_counts(base)
    calibrated = TeleportEngine(cal)
    if cal.dark_bob == 0.0:
        # with dark-free calibrated detectors the receiver cannot click
        # unless the relay source fired
        assert calibrated.blocking("epr") == 0.0
        assert calibrated.blocking("both") == 0.0
    assert calibrated.blocking("alice") > 0.0
    assert calibrated.background() > 0.0
    with pytest.raises(ConfigError):
        engine.blocking("charlie")


def test_calibration_clamps_when_multipair_background_dominates():
    cal, report = calibrate_dark_counts(ExperimentConfig())
    assert report.clamped
    assert report.achieved_ratio >= report.target_ratio
    assert cal.dark_ge == 0.0 and cal.dark_bob == 0.0
    assert cal.detectors_calibrated


def test_calibration_reaches_feasible_target():
    cfg = ExperimentConfig(pair_mean_epr=0.005)
    cal, report = calibrate_dark_counts(cfg)
    assert not report.clamped
    assert abs(report.achieved_ratio - 1.0) < 1e-4
    assert cal.dark_bob > 0.0
    # the calibrated configuration reproduces the target ratio end to end
    engine = TeleportEngine(cal)
    b = engine.background()
    s = engine.mean() - b
    assert abs(b / s - 1.0) < 1e-4


def test_montecarlo_reruns_byte_identical():
    cfg = replace(build_ideal_config(), mode="montecarlo", trials=10**5, seed=42)
    phis = phase_grid(8, 1.0)
    a = run_teleport_scan(TeleportEngine(cfg), phis)
    b = run_teleport_scan(TeleportEngine(cfg), phis)
    assert np.array_equal(a.counts, b.counts)
    c = run_teleport_scan(TeleportEngine(replace(cfg, seed=43)), phis)
    assert not np.array_equal(a.counts, c.counts)


def test_montecarlo_matches_analytic_within_three_se():
    cfg = replace(build_ideal_config(), mode="montecarlo", trials=10**6, seed=7)
    phis = phase_grid(12, 1.0)
    scan = run_teleport_scan(TeleportEngine(cfg), phis)
    lam = scan.probability * scan.pulses
    assert abs(scan.counts.sum() - lam.sum()) <= 3.0 * math.sqrt(lam.sum())


def test_grid_validation():
    with pytest.raises(ConfigError):
        phase_grid(3)
    for periods in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            phase_grid(8, periods)
    # a negative period count scans the analyzer backwards
    assert np.all(np.diff(phase_grid(8, -1.0)) < 0)
    with pytest.raises(ConfigError):
        mismatch_grid(4)
    # the point cap is inclusive
    assert len(phase_grid(scenarios.MAX_POINTS)) == scenarios.MAX_POINTS
    with pytest.raises(ConfigError):
        phase_grid(scenarios.MAX_POINTS + 1)
    with pytest.raises(ConfigError):
        mismatch_grid(scenarios.MAX_POINTS + 1)


def test_mismatch_span_must_be_finite_and_positive():
    for span in (0.0, -300.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            mismatch_grid(21, span)


@pytest.mark.parametrize("heralded", [False, True])
def test_harmonic_scan_matches_per_phase_outcome(heralded):
    cfg = ExperimentConfig(heralded=heralded, phase_bob=0.4)
    phis = phase_grid(13, 1.7, start=0.25)
    engine = TeleportEngine(cfg)
    scan = run_teleport_scan(engine, phis)
    direct = np.array([engine.outcome(p).bob[1] for p in phis])
    assert np.all(np.abs(scan.probability - direct) <= 1e-12 * direct)
    # the acceptance and blocking runs reuse the sample at phase_bob, the
    # first of the 2D+1
    assert engine.degree == 2
    assert len(engine._analyzed) == 5 + len(phis)
    engine.outcome(cfg.phase_bob)
    engine.background()
    assert len(engine._analyzed) == 5 + len(phis)


@pytest.mark.parametrize("symmetric_bsa", [False, True])
def test_vacuum_acceptance_is_dark_counts_in_the_clock_window(symmetric_bsa):
    # with no photons only dark counts click, and the "only this gate
    # clicks" veto spans the three clock-window gates of each detector
    d_ge, d_in = 0.1, 0.2
    cfg = ExperimentConfig(
        dark_ge=d_ge, dark_ingaas_bsa=d_in, symmetric_bsa=symmetric_bsa
    )
    accept = TeleportEngine(cfg).outcome(cfg.phase_bob, {(0, 0): 1.0}).accept
    if symmetric_bsa:
        expected = 4 * d_ge * (1 - d_ge) ** 2 * d_in * (1 - d_in) ** 2
    else:
        expected = 2 * d_ge * (1 - d_ge) ** 2 * d_in
    assert abs(accept - expected) <= 1e-12 * expected


@pytest.mark.parametrize(
    "weights",
    [{(3, 0): 1.0}, {(0, 0): 1.0, (3, 0): 0.5}, {(0, 0): 0.5}],
    ids=["all-off-engine", "some-off-engine", "short"],
)
def test_outcome_needs_unit_weight_on_the_engine_branches(weights):
    # at K = 2 the engine holds no (3, 0) branch
    with pytest.raises(UnnormalizedStateError):
        TeleportEngine(ExperimentConfig()).outcome(0.0, weights)


def test_more_receiver_photons_raise_the_sample_count(monkeypatch):
    # three pairs put up to three photons at the receiver: degree 3, so
    # 2D+1 = 7 analyzer passes give the scan and D+1 = 4 the mean
    monkeypatch.setattr(scenarios, "MAX_PAIRS_EACH", 3)
    cfg = ExperimentConfig(pair_mean=0.1)
    engine = TeleportEngine(cfg)
    assert engine.degree == 3
    phis = phase_grid(6, 1.3, start=0.1)
    scan = run_teleport_scan(engine, phis)
    assert sorted(engine._analyzed) == pytest.approx(2 * math.pi * np.arange(7) / 7)
    direct = np.array([engine.outcome(p).bob[1] for p in phis])
    assert np.all(np.abs(scan.probability - direct) <= 1e-12 * direct)
    dense = engine.scan(phase_grid(16, 1.0)).mean()
    assert abs(engine.mean() - dense) <= 1e-12 * dense
    # the mean shares its first phase, phase_bob, with the scan samples
    assert len(engine._analyzed) == 7 + len(phis) + 3


def test_harmonic_scan_clamps_only_rounding(monkeypatch):
    engine = TeleportEngine(build_ideal_config())
    phis = [0.0, 1.0]
    monkeypatch.setattr(engine, "_received", lambda *a: np.array([-1e-18, 0.1, 0.1, 0.1, 0.1]))
    assert 0.0 <= engine.scan(phis)[0] < 1e-15
    monkeypatch.setattr(engine, "_received", lambda *a: np.array([-1e-6, 0.1, 0.1, 0.1, 0.1]))
    with pytest.raises(HarmonicSynthesisError):
        engine.scan(phis)


def test_seed_range():
    ExperimentConfig(seed=2**64 - 1)
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=2**64)


def test_montecarlo_seeds_above_2_63_draw_distinct_counts():
    # seeds differing only in low bits, and seeds near 2**64, once shared
    # keys through a float64 cast
    seeds = (0, 2**63, 2**63 + 1, 2**63 + 5, 2**64 - 2, 2**64 - 1)
    probs = np.full(4, 0.5)
    draws = {
        seed: tuple(scenarios._counts(
            ExperimentConfig(mode="montecarlo", trials=10**6, seed=seed), probs, stream=0
        )[0])
        for seed in seeds
    }
    assert len(set(draws.values())) == len(seeds)
