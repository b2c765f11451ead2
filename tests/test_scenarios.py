import math
from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import (
    add_beamsplitter,
    add_delay,
    add_phase,
    background_ratio_per_config,
    teleport_per_phase,
    with_dark_scale_per_field,
)
from qrelay import cli, scenarios
from qrelay.analysis import fit_dip, fit_fringe
from qrelay.errors import ConfigError, QRelayError
from qrelay.fock import BRANCH_RECORD, ModeKey
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
from test_reference_outputs import CALIBRATION_CASES

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


def _fringe_mean(engine):
    """Phase average of Bob's click under the config's weights: harmonic 0."""
    return engine.harmonics()[0, 1, 0].real


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(eta_bob=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(pair_mean_alice=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(pair_mean_epr=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(mandel_mode="sideways")
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="exact")


@pytest.mark.parametrize("name", ["phase_alice", "phase_pump", "mandel_phase"])
def test_config_phases_stop_at_2_52_rad(name):
    for phase in (2.0**52, -(2.0**52)):
        assert getattr(ExperimentConfig(**{name: phase}), name) == phase
    for phase in (np.nextafter(2.0**52, math.inf), -1e308):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(**{name: float(phase)})


def test_phase_scan_stops_at_2_52_rad():
    for periods in (1e308, 7.2e14, -7.2e14):
        with pytest.raises(ConfigError, match="2\\*\\*52"):
            phase_grid(4, periods)


def test_each_source_mean_is_its_own_field():
    # equal means are set as both fields: no common key folds into them
    with pytest.raises(TypeError):
        ExperimentConfig(pair_mean=0.1)
    assert "pair_mean" not in {f.name for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig(pair_mean_alice=0.13, pair_mean_epr=0.2)
    assert (cfg.pair_mean_alice, cfg.pair_mean_epr) == (0.13, 0.2)


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
    w = branch_weights(ExperimentConfig(pair_mean_alice=0.09, pair_mean_epr=0.09))
    assert abs(w[(2, 0)] - w[(1, 1)]) < 1e-15
    assert abs(w[(0, 2)] - w[(1, 1)]) < 1e-15


def test_ideal_acceptance_is_one_quarter():
    cfg = build_ideal_config()
    assert abs(TeleportEngine(cfg).acceptance() - 0.25) < 1e-12


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
    cfg = ExperimentConfig(pair_mean_alice=1e-3, pair_mean_epr=1e-3, **IDEAL_DETECTORS)
    xs = mismatch_grid(21, 300.0)
    short, long_ = run_mandel_scan(cfg, xs)
    fs = fit_dip(xs, short.counts)
    fl = fit_dip(xs, long_.counts)
    assert abs(fs.depth - 1.0 / 3.0) < 1e-9
    assert abs(fl.depth - 1.0 / 3.0) < 1e-9
    assert abs(fs.fwhm - 144.0) < 1e-6
    assert abs(fs.center) < 1e-9
    assert abs(fl.center) < 1e-9


def test_entangled_mode_dip_depth():
    # two-bin relay emission dilutes which-path erasure; at equal means the
    # depth lands exactly at 6/25
    cfg = ExperimentConfig(pair_mean_alice=0.07, pair_mean_epr=0.07, mandel_mode="entangled",
                           **IDEAL_DETECTORS)
    xs = mismatch_grid(21, 300.0)
    short, long_ = run_mandel_scan(cfg, xs)
    assert abs(fit_dip(xs, short.counts).depth - 0.24) < 1e-9
    assert abs(fit_dip(xs, long_.counts).depth - 0.24) < 1e-9


def test_dip_depth_independent_of_pair_mean():
    # within the two-pair truncation the background-to-signal ratio is set
    # by the thermal pair numbers alone, so dips agree across pump powers
    xs = mismatch_grid(9, 200.0)
    depths = []
    for mu in (1e-3, 0.05):
        cfg = ExperimentConfig(pair_mean_alice=mu, pair_mean_epr=mu, **IDEAL_DETECTORS)
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
    m0 = _fringe_mean(TeleportEngine(base))
    m1 = _fringe_mean(TeleportEngine(replace(base, phase_alice=0.9)))
    m2 = _fringe_mean(TeleportEngine(replace(base, phase_pump=2.1)))
    assert abs(m1 - m0) < 1e-9 * m0
    assert abs(m2 - m0) < 1e-9 * m0


def test_heralding_never_lowers_visibility():
    cal, _ = calibrate_dark_counts(ExperimentConfig())
    phis = phase_grid(12, 1.0)
    v = {}
    for heralded in (False, True):
        cfg = replace(cal, heralded=heralded, pair_mean_alice=0.13, pair_mean_epr=0.13)
        v[heralded] = fit_fringe(phis, run_teleport_scan(TeleportEngine(cfg), phis).counts).visibility
    assert v[True] >= v[False] - 1e-12


def test_lower_pump_never_lowers_visibility():
    cal, _ = calibrate_dark_counts(ExperimentConfig())
    phis = phase_grid(12, 1.0)
    v = {}
    for mu in (0.13, 0.13 / 4.0):
        cfg = replace(cal, pair_mean_alice=mu, pair_mean_epr=mu)
        v[mu] = fit_fringe(phis, run_teleport_scan(TeleportEngine(cfg), phis).counts).visibility
    assert v[0.13 / 4.0] >= v[0.13] - 1e-12


def test_blocking_behaviour():
    base = ExperimentConfig()
    engine = TeleportEngine(base)
    # placeholder dark counts keep every blocked configuration clicking
    assert np.all(engine.blocking()[2:] > 0.0)
    cal, _ = calibrate_dark_counts(base)
    calibrated = TeleportEngine(cal)
    alice, epr, both = calibrated.blocking()[1:]
    if cal.dark_bob == 0.0:
        # with dark-free calibrated detectors the receiver cannot click
        # unless the relay source fired
        assert epr == 0.0
        assert both == 0.0
    assert alice > 0.0
    assert calibrated.background() > 0.0


def test_calibration_clamps_when_multipair_background_dominates():
    cal, report = calibrate_dark_counts(ExperimentConfig())
    assert report.clamped
    assert type(report.achieved_ratio) is float
    assert report.achieved_ratio >= report.target_ratio
    assert cal.dark_ge == 0.0 and cal.dark_bob == 0.0
    assert cal.detectors_calibrated


def test_calibration_reaches_feasible_target():
    cfg = ExperimentConfig(pair_mean_epr=0.005)
    cal, report = calibrate_dark_counts(cfg)
    assert not report.clamped
    assert type(report.achieved_ratio) is float
    assert abs(report.achieved_ratio - 1.0) < 1e-4
    assert cal.dark_bob > 0.0
    # the calibrated configuration reproduces the target ratio end to end
    engine = TeleportEngine(cal)
    b = engine.background()
    s = _fringe_mean(engine) - b
    assert abs(b / s - 1.0) < 1e-4


@pytest.mark.parametrize("target", [math.nan, math.inf])
def test_calibration_rejects_a_target_that_is_not_finite(target):
    # a NaN target would otherwise run the root search to its iteration cap,
    # and an infinite one grow the bracket to its end
    with pytest.raises(ConfigError, match="finite"):
        calibrate_dark_counts(ExperimentConfig(), target)


NO_DARKS = {"dark_ge": 0.0, "dark_ingaas_bsa": 0.0, "dark_herald": 0.0, "dark_bob": 0.0}
# configs whose trial ratios the rebuilt-config oracle checks: the herald's
# dark count in and out of the vector, the scaling reference of a dark-free
# config, and one whose only nonzero dark count is the unused herald's
TRIAL_CONFIGS = {
    "heralded": {"heralded": True},
    "symmetric-bsa": {"symmetric_bsa": True},
    "mismatch-40": {"delta_x_um": 40.0},
    "dark-free-heralded": dict(NO_DARKS, heralded=True),
    "herald-dark-only": dict(NO_DARKS, dark_herald=1e-4),
    "four-losses": {"loss_alice_db": 1.0, "loss_epr_db": 0.5, "loss_herald_db": 0.7,
                    "loss_bob_db": 2.5},
}
# the last scale caps every dark probability, the least 1e-5, at 0.9
TRIAL_SCALES = [0.0, 1e-3, 1.0, 4.0, 4.0**5, 1e6]


@pytest.mark.parametrize("scale", TRIAL_SCALES)
@pytest.mark.parametrize("name", sorted(TRIAL_CONFIGS))
def test_trial_ratio_equals_the_rebuilt_config_path(name, scale):
    engine = TeleportEngine(ExperimentConfig(**TRIAL_CONFIGS[name]))
    assert scenarios._background_ratio(scale, engine) == background_ratio_per_config(scale, engine)


@pytest.mark.parametrize("case", sorted(CALIBRATION_CASES))
def test_recorded_calibrations_equal_the_rebuilt_config_path(monkeypatch, case):
    fields_, target = CALIBRATION_CASES[case]
    cfg = ExperimentConfig(**fields_)
    calibrated, report = calibrate_dark_counts(cfg, target)
    monkeypatch.setattr(scenarios, "_background_ratio", background_ratio_per_config)
    assert calibrate_dark_counts(cfg, target)[1] == report
    expected = with_dark_scale_per_field(replace(cfg, ideal_single_pairs=False), report.dark_scale)
    assert calibrated == replace(expected, detectors_calibrated=True)


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
        phase_grid(3, 2.0)
    for periods in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            phase_grid(8, periods)
    # a negative period count scans the analyzer backwards
    assert np.all(np.diff(phase_grid(8, -1.0)) < 0)
    with pytest.raises(ConfigError):
        mismatch_grid(4, 300.0)
    # the point cap is inclusive
    assert len(phase_grid(scenarios.MAX_POINTS, 2.0)) == scenarios.MAX_POINTS
    with pytest.raises(ConfigError):
        phase_grid(scenarios.MAX_POINTS + 1, 2.0)
    with pytest.raises(ConfigError):
        mismatch_grid(scenarios.MAX_POINTS + 1, 300.0)


def test_mismatch_span_must_be_finite_and_positive():
    for span in (0.0, -300.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            mismatch_grid(21, span)


def _count_detection_passes(monkeypatch):
    """The args of every teleport_tables call the scenarios make from now on."""
    real_tables = scenarios.teleport_tables
    passes = []

    def counting_tables(*args, **kwargs):
        passes.append(args)
        return real_tables(*args, **kwargs)

    monkeypatch.setattr(scenarios, "teleport_tables", counting_tables)
    return passes


@pytest.mark.parametrize("heralded", [False, True])
def test_harmonic_scan_matches_per_phase_outcome(monkeypatch, heralded):
    passes = _count_detection_passes(monkeypatch)
    cfg = ExperimentConfig(heralded=heralded)
    phis = 0.25 + phase_grid(13, 1.7)
    engine = TeleportEngine(cfg)
    scan = run_teleport_scan(engine, phis)
    direct = np.array([teleport_per_phase(engine, p).bob for p in phis])
    assert np.all(np.abs(scan.probability - direct) <= 1e-12 * direct)
    # the scan, the acceptance and every blocking run share one detection pass
    assert engine.degree == 2
    assert len(passes) == 1
    engine.acceptance()
    engine.blocking()
    engine.background()
    assert len(passes) == 1


@pytest.mark.parametrize("heralded", [False, True])
def test_one_detection_pass_per_engine(monkeypatch, heralded):
    # the photon tables are built with the engine, for the config's
    # detectors (the herald only in a heralded run), and every read and a
    # whole calibration search reuse them
    passes = _count_detection_passes(monkeypatch)
    cfg = ExperimentConfig(heralded=heralded, pair_mean_alice=0.16, pair_mean_epr=0.04)
    engine = TeleportEngine(cfg)
    assert len(passes) == 1
    assert [det.spatial for det in passes[0][2]] == [det.spatial for det in engine.detectors]
    assert len(engine.detectors) == (4 if heralded else 3)
    engine.scan(phase_grid(24, 2.0))
    engine.acceptance()
    engine.blocking()
    engine.background()
    assert len(passes) == 1
    _, report = calibrate_dark_counts(cfg, target_ratio=3.0)
    assert not report.clamped
    assert len(passes) == 2


@pytest.mark.parametrize("symmetric_bsa", [False, True])
def test_vacuum_acceptance_is_dark_counts_in_the_clock_window(symmetric_bsa):
    # with no photons only dark counts click, and the "only this gate
    # clicks" veto spans the three clock-window gates of each detector
    d_ge, d_in = 0.1, 0.2
    cfg = ExperimentConfig(
        dark_ge=d_ge, dark_ingaas_bsa=d_in, symmetric_bsa=symmetric_bsa,
        pair_mean_alice=0.0, pair_mean_epr=0.0,
    )
    accept = TeleportEngine(cfg).acceptance()
    if symmetric_bsa:
        expected = 4 * d_ge * (1 - d_ge) ** 2 * d_in * (1 - d_in) ** 2
    else:
        expected = 2 * d_ge * (1 - d_ge) ** 2 * d_in
    assert abs(accept - expected) <= 1e-12 * expected


NO_SIGNALLING_CONFIGS = {
    "default": ExperimentConfig(),
    "heralded": ExperimentConfig(heralded=True),
    "symmetric-dark-bob": ExperimentConfig(symmetric_bsa=True, dark_bob=3e-4),
    "mean-0.13-heralded": ExperimentConfig(pair_mean_alice=0.13, pair_mean_epr=0.13,
                                           heralded=True),
    "mismatch-pump-lossless": ExperimentConfig(delta_x_um=60.0, phase_pump=0.7,
                                               alice_encoder="lossless"),
    "ideal": build_ideal_config(),
}


@pytest.mark.parametrize(
    "k, name", [(2, name) for name in NO_SIGNALLING_CONFIGS] + [(3, "default")],
)
def test_receiver_phase_cannot_signal_to_the_acceptance(monkeypatch, k, name):
    # no-signalling: Bob's analyzer phase leaves the Bell-state acceptance
    # alone, so its harmonics past 0 are rounding and acceptance() reads
    # harmonic 0
    monkeypatch.setattr(scenarios, "MAX_PAIRS_EACH", k)
    accept = TeleportEngine(NO_SIGNALLING_CONFIGS[name]).harmonics()[:, 0, 0]
    assert accept[0].real > 0.0
    assert np.all(np.abs(accept[1:]) <= 1e-12 * accept[0].real)


@pytest.mark.parametrize("name", NO_SIGNALLING_CONFIGS)
def test_unblocked_run_is_the_config_own(name):
    # "none" is the config's own weighting, forced single pairs included, and
    # the fringe's first point; the blocked runs do not depend on phi_b, and
    # are harmonic 0 to the bit
    engine = TeleportEngine(NO_SIGNALLING_CONFIGS[name])
    blocking, scanned = engine.blocking(), engine.scan([0.0])[0]
    assert abs(blocking[0] - scanned) <= 1e-12 * scanned
    assert blocking[1:].tolist() == engine.harmonics()[0, 1, 1:].real.tolist()


@pytest.mark.parametrize(
    "weights",
    [{(3, 0): 1.0}, {(0, 0): 1.0, (3, 0): 0.5}, {(0, 0): 0.5}],
    ids=["all-off-engine", "some-off-engine", "short"],
)
def test_outcome_needs_unit_weight_on_the_engine_branches(weights):
    # every read-out's weights pass this check; at K = 2 the engine holds no
    # (3, 0) branch
    with pytest.raises(QRelayError, match="do not sum to 1 on"):
        TeleportEngine(ExperimentConfig())._weight_vector(weights)


@pytest.mark.parametrize("k", [3, 4])
def test_more_receiver_photons_raise_the_harmonic_count(monkeypatch, k):
    # k pairs put up to k photons at the receiver: degree k, so harmonics
    # 0 to k of every probability, still from one detection pass
    monkeypatch.setattr(scenarios, "MAX_PAIRS_EACH", k)
    passes = _count_detection_passes(monkeypatch)
    cfg = ExperimentConfig(pair_mean_alice=0.1, pair_mean_epr=0.1)
    engine = TeleportEngine(cfg)
    assert engine.degree == k
    phis = 0.1 + phase_grid(6, 1.3)
    scan = run_teleport_scan(engine, phis)
    direct = np.array([teleport_per_phase(engine, p).bob for p in phis])
    assert np.all(np.abs(scan.probability - direct) <= 1e-12 * direct)
    dense = engine.scan(phase_grid(16, 1.0)).mean()
    assert abs(_fringe_mean(engine) - dense) <= 1e-12 * dense
    assert len(passes) == 1
    assert engine.harmonics().shape == (k + 1, 2, len(scenarios.BLOCK_CHOICES))


def test_emptied_receiver_channel_leaves_only_harmonic_0():
    # a Bob loss whose transmittance underflows to 0 sends every receiver
    # photon to the loss sink undelayed: the degree is still the photons Bob
    # holds at emission, and every higher harmonic is exactly 0
    engine = TeleportEngine(ExperimentConfig(loss_bob_db=4000.0))
    assert engine.degree == 2
    harmonics = engine.harmonics()
    assert np.all(harmonics[1:] == 0.0)
    assert np.all(harmonics[0, 0].real > 0.0)


def test_harmonic_scan_clamps_only_rounding(monkeypatch):
    engine = TeleportEngine(build_ideal_config())
    phis = [0.0, 1.0]

    def harmonics(offset):
        # Bob's click at phase 0 under every weighting: 0.05 + 2 * (-0.025) - offset
        h = np.zeros((engine.degree + 1, 2, len(scenarios.BLOCK_CHOICES)))
        h[0], h[1] = 0.05, -0.025 - offset / 2
        return h

    monkeypatch.setattr(engine, "_harmonics", harmonics(1e-18))
    assert 0.0 <= engine.scan(phis)[0] < 1e-15
    monkeypatch.setattr(engine, "_harmonics", harmonics(1e-6))
    with pytest.raises(QRelayError, match="below its rounding floor"):
        engine.scan(phis)


@pytest.mark.parametrize("k", [2, 3])
def test_analyzer_applied_once_per_engine(monkeypatch, k):
    # one pass through the teleport circuit with the analyzer at phase 0,
    # whatever is read afterwards
    real_apply = scenarios.apply
    calls = []

    def counting_apply(t, state):
        calls.append(len(state))
        return real_apply(t, state)

    monkeypatch.setattr(scenarios, "apply", counting_apply)
    monkeypatch.setattr(scenarios, "MAX_PAIRS_EACH", k)
    cfg = ExperimentConfig(heralded=True, tail_tol=0.5)
    engine = TeleportEngine(cfg)
    engine.scan(phase_grid(24, 2.0))
    engine.acceptance()
    engine.background()
    engine.harmonics(scenarios._scaled_darks(cfg, 2.0))
    assert len(calls) == 1


@pytest.mark.parametrize("overrides", [{}, {"heralded": True, "loss_alice_db": 1.0},
                                       {"mandel_mode": "entangled"}])
def test_each_engine_composes_its_transfer_matrix_once(monkeypatch, overrides):
    # the teleport engine's checks and its apply, and the dip engine's,
    # read one T, composed once all modes are registered
    real_transfer = scenarios.Circuit.transfer
    calls = []

    def counting_transfer(circ):
        calls.append((circ.registry, len(circ.registry)))
        return real_transfer(circ)

    monkeypatch.setattr(scenarios.Circuit, "transfer", counting_transfer)
    cfg = ExperimentConfig(**overrides)
    engine = TeleportEngine(cfg)
    engine.scan(phase_grid(8, 2.0))
    engine.background()
    assert len(calls) == 1
    reg, size = calls[0]
    # composed with the delay record registered, and nothing after it
    assert reg.index(scenarios.DELAY_RECORD) < size == len(reg)
    calls.clear()
    run_mandel_scan(cfg, mismatch_grid(5, 300.0))
    assert len(calls) == 1


def test_one_detection_pass_per_calibration(monkeypatch):
    # dark counts only reweight the engine's photon tables, so a whole
    # search, and a clamp, run one detection pass, and the engine's build
    # and each trial scale one contraction of dark-count weights
    passes = _count_detection_passes(monkeypatch)
    real_ratio, real_weights = scenarios._background_ratio, scenarios.teleport_weights
    scales, contractions = [], []

    def recording_ratio(scale, engine):
        scales.append(scale)
        return real_ratio(scale, engine)

    def counting_weights(*args):
        contractions.append(args)
        return real_weights(*args)

    monkeypatch.setattr(scenarios, "_background_ratio", recording_ratio)
    monkeypatch.setattr(scenarios, "teleport_weights", counting_weights)
    cfg = ExperimentConfig(pair_mean_alice=0.16, pair_mean_epr=0.04)
    _, report = calibrate_dark_counts(cfg, target_ratio=3.0)
    assert not report.clamped
    # the root search starts from the expansion's last two scales and takes
    # its answer from an evaluated point, so no scale is evaluated twice
    assert len(set(scales)) == len(scales) > 2
    assert len(passes) == 1
    assert len(contractions) == len(scales) + 1
    _, report = calibrate_dark_counts(cfg, target_ratio=0.1)
    assert report.clamped
    assert len(passes) == 2
    assert len(contractions) == len(scales) + 2


def test_weights_computed_once_per_engine(monkeypatch):
    real = scenarios.branch_weights
    calls = []

    def counting(config, blocked="none"):
        calls.append(blocked)
        return real(config, blocked)

    monkeypatch.setattr(scenarios, "branch_weights", counting)
    engine = TeleportEngine(ExperimentConfig())
    for _ in range(2):
        engine.scan([0.0, 1.0])
        engine.acceptance()
        engine.background()
        engine.blocking()
    # one set per blocking choice, "none" being the config's own, at build
    assert calls == list(scenarios.BLOCK_CHOICES)


def test_delay_grouping_forms_the_harmonics():
    occ = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
    amps = np.array([0.6, 0.8j, 0.5])
    groups, c = scenarios._delay_harmonics(occ, np.array([0, 1, 1]), amps, 1)
    assert groups.tolist() == [[0, 1], [1, 0]]
    np.testing.assert_allclose(c, [[0.25, 1.0], [0.0, 0.8j * 0.6]])


@pytest.mark.parametrize(
    "delays, message",
    [([0, 2, 0], r"2 delayed photons, outside \[0, 1\]"),
     ([-1, 0, 0], r"-1 delayed photons, outside \[0, 1\]"),
     ([1, 1, 0], "same delay count")],
    ids=["beyond-degree", "negative", "repeated"],
)
def test_delay_grouping_rejects_inexact_rows(delays, message):
    occ = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
    with pytest.raises(QRelayError, match=message):
        scenarios._delay_harmonics(occ, np.array(delays), np.ones(3, dtype=complex), 1)


def test_engine_rejects_an_unnormalized_branch(monkeypatch):
    # every branch must keep norm 1 at every analyzer phase: harmonic 0 of
    # its norm is 1 and the others 0
    real = scenarios._branch_mixture

    def scaled(*args):
        mixture = real(*args)
        record = mixture.registry.index(BRANCH_RECORD)
        mixture.amplitudes[mixture.occupations[:, record] == 4] *= 1.001
        return mixture

    monkeypatch.setattr(scenarios, "_branch_mixture", scaled)
    with pytest.raises(QRelayError, match=r"^mixture branch 4 has norm\^2 harmonics"):
        TeleportEngine(ExperimentConfig())


@pytest.mark.parametrize("fault, message", [
    ("delayed-loss-port", "the analyzer phase enters other than through its delay arm"),
    ("phase-off-the-delay", "the analyzer phase enters other than through its delay arm"),
    ("bob-meets-alice", "the analyzer's circuit couples"),
], ids=["delayed-loss-port", "phase-off-the-delay", "bob-meets-alice"])
def test_analyzer_outside_the_exactness_conditions_raises(monkeypatch, capsys, fault, message):
    real = scenarios._analyzer

    def faulty(registry, phi_b):
        circ = real(registry, phi_b)
        if fault == "delayed-loss-port":
            add_delay(circ, f"{scenarios.EPR_BOB}-mich-loss", 2)
        elif fault == "phase-off-the-delay":
            add_phase(circ, ModeKey(scenarios.EPR_BOB, 1), 2.0 * phi_b)
        else:
            # a phase-free coupling that leaves Bob's side of T open
            add_beamsplitter(circ, ModeKey(scenarios.EPR_BOB, 0),
                             ModeKey(scenarios.ALICE_QUBIT, 0))
        return circ

    monkeypatch.setattr(scenarios, "_analyzer", faulty)
    with pytest.raises(QRelayError, match=message):
        TeleportEngine(ExperimentConfig())
    assert cli.main(["teleport", "--points", "8"]) == 3
    assert "analyzer" in capsys.readouterr().err


@pytest.mark.parametrize("loss_db", [0.0, 1.3])
def test_circuits_hold_one_element_per_device(loss_db):
    losses = {name: loss_db for name in ("loss_alice_db", "loss_epr_db", "loss_herald_db",
                                         "loss_bob_db")}
    # the encoder, one loss per lossy channel, the mixer; the analyzer is one more
    for encoder in scenarios.ENCODERS:
        circ = scenarios._teleport_circuit(ExperimentConfig(alice_encoder=encoder, **losses))
        assert len(circ.elements) == (6 if loss_db else 2)
        assert len(scenarios._analyzer(circ.registry, 0.0).elements) == 1
    # only Bob's channel is lossy by default
    assert len(scenarios._teleport_circuit(ExperimentConfig()).elements) == 3
    # one or two analyzers, the two qubit channels' losses, the mixer
    for mode, analyzers in (("symmetric", 2), ("entangled", 1)):
        circ, _ = scenarios._dip_circuit(ExperimentConfig(mandel_mode=mode, **losses))
        assert len(circ.elements) == analyzers + (2 if loss_db else 0) + 1


def test_label_mixing_teleport_circuit_raises(monkeypatch, capsys):
    # the overlap weights hold only while the circuit keeps the internal
    # labels apart
    real_mixer = scenarios._add_bell_mixer

    def mixing_mixer(circ):
        real_mixer(circ)
        add_beamsplitter(circ, ModeKey(scenarios.ALICE_QUBIT, 0, 0),
                         ModeKey(scenarios.ALICE_QUBIT, 0, 1))

    monkeypatch.setattr(scenarios, "_add_bell_mixer", mixing_mixer)
    with pytest.raises(QRelayError, match="^the circuit couples "):
        TeleportEngine(ExperimentConfig())
    assert cli.main(["teleport", "--points", "8"]) == 3
    assert "couples" in capsys.readouterr().err


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
