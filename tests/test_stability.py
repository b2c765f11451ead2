import math

import numpy as np
import pytest

from qrelay import stability
from qrelay.analysis import fit_dip
from qrelay.detection import TimingBudget
from qrelay.errors import ConfigError
from qrelay.scenarios import ExperimentConfig, mismatch_grid, run_mandel_scan
from qrelay.stability import (
    DEFAULT_GAIN_UM_PER_HZ,
    DRIFT_KINDS,
    RATE_COUPLING_HZ_PER_K,
    RATE_LENGTH_UM_PER_HZ,
    REP_WANDER_BOUND_HZ_PER_H,
    THERMAL_UM_PER_K,
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
    assert abs(RATE_LENGTH_UM_PER_HZ * 400.0 - 14.52218991220103) < 1e-9


@pytest.mark.parametrize("group_index", [0.5, 0.0, -1.0, math.inf, math.nan])
def test_group_index_must_be_finite_and_at_least_one(group_index):
    with pytest.raises(ConfigError, match="group_index"):
        TimingBudget(group_index=group_index)


def test_rate_coupling_makes_the_default_gain_cancel_the_drift():
    # gain * kappa = thermal + rate_length * kappa, to a few ulps
    lhs = DEFAULT_GAIN_UM_PER_HZ * RATE_COUPLING_HZ_PER_K
    rhs = THERMAL_UM_PER_K + RATE_LENGTH_UM_PER_HZ * RATE_COUPLING_HZ_PER_K
    assert abs(lhs - rhs) <= 4 * math.ulp(lhs)
    # both drift channels contribute: pure thermal 100 um/K plus the
    # rate-tracking term
    assert RATE_LENGTH_UM_PER_HZ * RATE_COUPLING_HZ_PER_K > 0
    # the default sinusoid's worst-case rate wander respects the hourly bound
    d = DriftModel()
    worst = RATE_COUPLING_HZ_PER_K * d.amplitude_k * 2.0 * math.pi / d.period_h
    assert worst <= REP_WANDER_BOUND_HZ_PER_H


def test_default_gain_cancels_combined_drift(monkeypatch):
    # without jitter, the 0.2 um motor updated every 60 s step holds the
    # mismatch to half a motor step, while the free-running arm drifts by
    # more than 10 um over two days
    monkeypatch.setattr(stability, "JITTER_SIGMA_UM", 0.0)
    for kind in DRIFT_KINDS:
        held = simulate(DriftModel(kind=kind), DEFAULT_GAIN_UM_PER_HZ, 48 * 3600.0, 60.0, seed=3)
        free = simulate(DriftModel(kind=kind), None, 48 * 3600.0, 60.0, seed=3)
        assert np.abs(held.delta_x_um).max() <= 0.1 + 1e-9, kind
        assert np.abs(free.delta_x_um).max() > 10.0, kind


def test_drift_model_validation():
    with pytest.raises(ConfigError):
        DriftModel(kind="linear")
    with pytest.raises(ConfigError):
        DriftModel(period_h=0.0)
    for gain in (-0.1, math.inf, math.nan):
        with pytest.raises(ConfigError, match="gain_um_per_hz"):
            simulate(DriftModel(), gain, 600.0, 60.0, seed=0)


def _mandel_floor():
    """One minus the dip depth `qrelay mandel` fits on the default relay."""
    xs = mismatch_grid(41, 300.0)
    short, _ = run_mandel_scan(ExperimentConfig(), xs)
    return 1.0 - fit_dip(xs, short.counts).depth


def test_quiet_plant_sits_at_dip_floor(monkeypatch):
    # the floor is the default relay's own dip, not a fixed depth
    monkeypatch.setattr(stability, "JITTER_SIGMA_UM", 0.0)
    tr = simulate(DriftModel(amplitude_k=0.0), None, 3600.0, 60.0, seed=0)
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
    tr = simulate(DriftModel(), DEFAULT_GAIN_UM_PER_HZ, 24 * 3600.0, 60.0, seed=3)
    floor = tr.norm_coincidences.min()
    assert tr.norm_coincidences.max() <= floor + 0.1
    # motor positions honour the step resolution
    steps = tr.motor_um / 0.2
    assert np.allclose(steps, np.round(steps), atol=1e-9)
    # and actually move: the drift they cancel spans hundreds of steps
    assert tr.motor_um.max() > 10.0


def test_simulation_reruns_bit_exact():
    d = DriftModel(kind="random-walk")
    a = simulate(d, DEFAULT_GAIN_UM_PER_HZ, 7200.0, 60.0, seed=11)
    b = simulate(d, DEFAULT_GAIN_UM_PER_HZ, 7200.0, 60.0, seed=11)
    assert np.array_equal(a.delta_x_um, b.delta_x_um)
    assert np.array_equal(a.norm_coincidences, b.norm_coincidences)
    c = simulate(d, DEFAULT_GAIN_UM_PER_HZ, 7200.0, 60.0, seed=12)
    assert not np.array_equal(a.delta_x_um, c.delta_x_um)


def test_random_walk_respects_wander_bound():
    tr = simulate(DriftModel(kind="random-walk"), None, 6 * 3600.0, 60.0, seed=5)
    rates = np.abs(np.diff(tr.rep_rate_hz)) / (60.0 / 3600.0)
    assert rates.max() <= REP_WANDER_BOUND_HZ_PER_H + 1e-9


def test_jitter_stays_clipped(monkeypatch):
    # a sigma near the 10 um bound, so that the clip acts
    monkeypatch.setattr(stability, "JITTER_SIGMA_UM", 8.0)
    tr = simulate(DriftModel(amplitude_k=0.0), None, 24 * 3600.0, 60.0, seed=2)
    assert np.abs(tr.delta_x_um).max() <= 10.0 + 1e-12


def test_trace_shapes_consistent():
    tr = simulate(DriftModel(), DEFAULT_GAIN_UM_PER_HZ, 3600.0, 30.0, seed=1)
    n = len(tr.time_s)
    assert n == 121
    for arr in (tr.delta_x_um, tr.rep_rate_hz, tr.motor_um, tr.norm_coincidences):
        assert len(arr) == n


def test_step_count_and_seed_limits(monkeypatch):
    monkeypatch.setattr(stability, "MAX_STEPS", 10)
    assert len(simulate(DriftModel(), None, 600.0, 60.0, seed=0).time_s) == 11
    with pytest.raises(ConfigError):
        simulate(DriftModel(), None, 660.0, 60.0, seed=0)
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


def test_non_finite_motor_command_raises():
    with pytest.raises(ConfigError, match="gain_um_per_hz"):
        simulate(DriftModel(), 1e308, 3600.0, 60.0, seed=0)


def test_overflowing_drift_raises_naming_its_size():
    # the rate shift kappa * theta overflows before any controller runs
    for gain in (None, DEFAULT_GAIN_UM_PER_HZ):
        with pytest.raises(ConfigError, match="amplitude_k"):
            simulate(DriftModel(amplitude_k=1e306), gain, 3600.0, 60.0, seed=0)


def test_update_interval_beyond_the_run_holds_the_first_command():
    # a 30 s run at 1 s steps ends before the motor's first 60 s update
    tr = simulate(DriftModel(), DEFAULT_GAIN_UM_PER_HZ, 30.0, 1.0, seed=0)
    assert len(tr.motor_um) == 31
    assert np.all(tr.motor_um == tr.motor_um[0])
    # a step so small that 60 s over it is infinite still runs
    tr = simulate(DriftModel(), DEFAULT_GAIN_UM_PER_HZ, 3.6e-317, 1e-320, seed=0)
    assert len(tr.motor_um) == 3601
    assert np.all(tr.motor_um == tr.motor_um[0])
