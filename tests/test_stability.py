import math

import numpy as np
import pytest

from qrelay import stability
from qrelay.analysis import fit_dip
from qrelay.errors import ConfigError
from qrelay.scenarios import ExperimentConfig, mismatch_grid, run_mandel_scan
from qrelay.stability import (
    DRIFT_KINDS,
    Controller,
    DriftModel,
    pulse_spacing,
    simulate,
)


def test_pulse_spacing_values():
    # c / (n_g f): 299792458 / (1.47 * 75e6)
    assert abs(pulse_spacing(75e6, 1.47) - 2.719205968253968) < 1e-12
    assert abs(pulse_spacing(75e6, 1.0) - 3.9972327733333333) < 1e-12
    assert abs(pulse_spacing(75e6, 1.47) - 2.72) / 2.72 < 0.01
    # spacing * df / f, in micrometers, for a 400 Hz shift at the default
    # fiber group index
    assert abs(DriftModel().rate_length_um_per_hz() * 400.0 - 14.52218991220103) < 1e-9


@pytest.mark.parametrize("group_index", [0.5, 0.0, -1.0, math.inf, math.nan])
def test_group_index_must_be_finite_and_at_least_one(group_index):
    with pytest.raises(ConfigError, match="group_index"):
        pulse_spacing(75e6, group_index)
    with pytest.raises(ConfigError, match="group_index"):
        DriftModel(group_index=group_index)


def test_pulse_spacing_validation():
    with pytest.raises(ConfigError):
        pulse_spacing(0.0, 1.47)
    with pytest.raises(ConfigError):
        DriftModel(rep_rate_hz=0.0)


def test_default_gain_cancels_combined_drift():
    # without jitter, an unrounded motor updated every step holds the
    # mismatch at zero to rounding, while the free-running arm drifts by
    # more than 10 um over two days
    exact = Controller(motor_resolution_um=0.0, update_interval_s=60.0)
    for kind in DRIFT_KINDS:
        quiet = DriftModel(kind=kind, jitter_sigma_um=0.0)
        held = simulate(quiet, exact, 48 * 3600.0, 60.0, seed=3)
        free = simulate(quiet, None, 48 * 3600.0, 60.0, seed=3)
        assert np.abs(held.delta_x_um).max() <= 1e-9, kind
        assert np.abs(free.delta_x_um).max() > 10.0, kind
    d = DriftModel()
    # both drift channels contribute: pure thermal 100 um/K plus the
    # rate-tracking term
    assert d.rate_length_um_per_hz() * d.rate_coupling_hz_per_k() > 0
    # the sinusoid's worst-case rate wander respects the hourly bound
    worst = (
        d.rate_coupling_hz_per_k() * d.amplitude_k * 2.0 * math.pi / d.period_h
    )
    assert worst <= d.rep_wander_bound_hz_per_h


def test_drift_model_validation():
    with pytest.raises(ConfigError):
        DriftModel(kind="linear")
    with pytest.raises(ConfigError):
        DriftModel(period_h=0.0)
    with pytest.raises(ConfigError):
        Controller(update_interval_s=0.0)
    # the jitter's sigma and tau must be finite; an infinite bound only turns
    # the clip off
    for bad in ({"jitter_sigma_um": math.inf},
                {"jitter_sigma_um": math.inf, "jitter_tau_s": 1e300},
                {"jitter_sigma_um": math.nan},
                {"jitter_tau_s": math.inf},
                {"jitter_tau_s": math.nan},
                {"jitter_bound_um": -1.0}):
        with pytest.raises(ConfigError, match="jitter"):
            DriftModel(**bad)
    assert np.isfinite(simulate(DriftModel(jitter_bound_um=math.inf), None, 600.0, 60.0).delta_x_um).all()
    # an infinite coupling or wander bound is refused by name, not blamed on
    # another field when the drift it drives overflows
    for name in ("thermal_um_per_k", "temp_to_rate_hz_per_k", "rep_wander_bound_hz_per_h"):
        for kind in DRIFT_KINDS:
            with pytest.raises(ConfigError, match=name):
                DriftModel(kind=kind, **{name: math.inf})
    # a finite thermal coefficient whose derived coupling overflows names both
    for kind in DRIFT_KINDS:
        with pytest.raises(ConfigError, match="thermal_um_per_k.*temp_to_rate_hz_per_k"):
            DriftModel(kind=kind, thermal_um_per_k=1e307)


def _mandel_floor():
    """One minus the dip depth `qrelay mandel` fits on the default relay."""
    xs = mismatch_grid()
    short, _ = run_mandel_scan(ExperimentConfig(), xs)
    return 1.0 - fit_dip(xs, short.counts).depth


def test_quiet_plant_sits_at_dip_floor():
    # the floor is the default relay's own dip, not a fixed depth
    d = DriftModel(amplitude_k=0.0, jitter_sigma_um=0.0)
    tr = simulate(d, None, 3600.0, 60.0)
    floor = _mandel_floor()
    assert abs(floor - 0.748679448179) < 1e-12
    assert np.all(np.abs(tr.norm_coincidences - floor) <= 1e-12)
    assert np.all(tr.motor_um == 0.0)
    assert np.allclose(tr.rep_rate_hz, 75e6)


def test_uncontrolled_drift_erases_bunching_within_six_hours():
    tr = simulate(DriftModel(), None, 6 * 3600.0, 60.0, seed=3)
    assert abs(tr.norm_coincidences[0] - _mandel_floor()) < 1e-9
    assert tr.norm_coincidences.max() >= 0.95
    # monotone temperature ramp on this quarter period: no dip revisits
    assert tr.norm_coincidences[-1] >= 0.95


def test_controlled_drift_stays_at_dip_floor_for_a_day():
    tr = simulate(DriftModel(), Controller(), 24 * 3600.0, 60.0, seed=3)
    floor = tr.norm_coincidences.min()
    assert tr.norm_coincidences.max() <= floor + 0.1
    # motor positions honour the step resolution
    steps = tr.motor_um / 0.2
    assert np.allclose(steps, np.round(steps), atol=1e-9)
    # and actually move: the drift they cancel spans hundreds of steps
    assert tr.motor_um.max() > 10.0


def test_simulation_reruns_bit_exact():
    d = DriftModel(kind="random-walk")
    a = simulate(d, Controller(), 7200.0, 60.0, seed=11)
    b = simulate(d, Controller(), 7200.0, 60.0, seed=11)
    assert np.array_equal(a.delta_x_um, b.delta_x_um)
    assert np.array_equal(a.norm_coincidences, b.norm_coincidences)
    c = simulate(d, Controller(), 7200.0, 60.0, seed=12)
    assert not np.array_equal(a.delta_x_um, c.delta_x_um)


def test_random_walk_respects_wander_bound():
    d = DriftModel(kind="random-walk")
    tr = simulate(d, None, 6 * 3600.0, 60.0, seed=5)
    rates = np.abs(np.diff(tr.rep_rate_hz)) / (60.0 / 3600.0)
    assert rates.max() <= d.rep_wander_bound_hz_per_h + 1e-9


def test_jitter_stays_clipped():
    d = DriftModel(amplitude_k=0.0, jitter_sigma_um=8.0, jitter_bound_um=10.0)
    tr = simulate(d, None, 24 * 3600.0, 60.0, seed=2)
    assert np.abs(tr.delta_x_um).max() <= 10.0 + 1e-12


def test_trace_shapes_consistent():
    tr = simulate(DriftModel(), Controller(), 3600.0, 30.0, seed=1)
    n = len(tr.time_s)
    assert n == 121
    for arr in (tr.delta_x_um, tr.rep_rate_hz, tr.motor_um, tr.norm_coincidences):
        assert len(arr) == n


def test_step_count_and_seed_limits(monkeypatch):
    monkeypatch.setattr(stability, "MAX_STEPS", 10)
    assert len(simulate(DriftModel(), None, 600.0, 60.0).time_s) == 11
    with pytest.raises(ConfigError):
        simulate(DriftModel(), None, 660.0, 60.0)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError):
            simulate(DriftModel(), None, 600.0, 60.0, seed=seed)


def test_seeds_above_2_63_draw_distinct_walks():
    seeds = (0, 2**63, 2**63 + 1, 2**63 + 5, 2**64 - 2, 2**64 - 1)
    walks = {
        tuple(simulate(DriftModel(kind="random-walk"), None, 600.0, 60.0, seed=s).delta_x_um)
        for s in seeds
    }
    assert len(walks) == len(seeds)


def test_random_walk_needs_a_positive_rate_coupling():
    for kwargs in ({"temp_to_rate_hz_per_k": 0.0}, {"thermal_um_per_k": 0.0}):
        with pytest.raises(ConfigError):
            DriftModel(kind="random-walk", **kwargs)
    # the sinusoid simulation never divides by the coupling
    tr = simulate(DriftModel(temp_to_rate_hz_per_k=0.0), None, 600.0, 60.0)
    assert np.all(tr.rep_rate_hz == 75e6)
    # a coupling so weak that the walk's step bound overflows
    with pytest.raises(ConfigError):
        simulate(DriftModel(kind="random-walk", temp_to_rate_hz_per_k=1e-310), None, 600.0, 60.0)


def test_non_finite_motor_command_raises():
    for resolution in (0.2, 0.0):
        controller = Controller(gain_um_per_hz=1e308, motor_resolution_um=resolution)
        with pytest.raises(ConfigError):
            simulate(DriftModel(), controller, 3600.0, 60.0)
    with pytest.raises(ConfigError):
        Controller(motor_resolution_um=math.inf)
    with pytest.raises(ConfigError):
        Controller(update_interval_s=math.inf)


def test_overflowing_drift_raises_naming_its_size():
    # the rate shift kappa * theta overflows before any controller runs
    for controller in (None, Controller()):
        with pytest.raises(ConfigError, match="amplitude_k"):
            simulate(DriftModel(amplitude_k=1e306), controller, 3600.0, 60.0)


def test_update_interval_beyond_the_run_holds_the_first_command():
    tr = simulate(DriftModel(), Controller(update_interval_s=1e300), 3600.0, 60.0)
    assert len(tr.motor_um) == 61
    assert np.all(tr.motor_um == tr.motor_um[0])
