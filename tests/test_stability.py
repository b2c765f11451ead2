import math

import numpy as np
import pytest

from qrelay import stability
from qrelay.errors import ConfigError
from qrelay.stability import (
    Controller,
    DriftModel,
    pid_alternative_analysis,
    pulse_spacing,
    rep_rate_length_shift,
    simulate,
)


def test_pulse_spacing_values():
    # c / (n_g f): 299792458 / (1.47 * 75e6)
    assert abs(pulse_spacing(75e6, 1.47) - 2.719205968253968) < 1e-12
    assert abs(pulse_spacing(75e6, 1.0) - 3.9972327733333333) < 1e-12
    assert abs(pulse_spacing(75e6, 1.47) - 2.72) / 2.72 < 0.01


def test_pulse_spacing_validation():
    with pytest.raises(ConfigError):
        pulse_spacing(0.0)
    with pytest.raises(ConfigError):
        pulse_spacing(75e6, 0.5)


def test_rep_rate_length_shift():
    # spacing * df / f with the default fiber group index
    shift = rep_rate_length_shift(400.0)
    assert abs(shift - 1.452218991220103e-05) < 1e-15
    assert abs(shift * 1e6 - 15.0) / 15.0 < 0.05
    # linear in the frequency offset
    assert abs(rep_rate_length_shift(-400.0) + shift) < 1e-18
    assert rep_rate_length_shift(800.0) == pytest.approx(2 * shift, rel=1e-12)


def test_default_gain_cancels_combined_drift():
    d = DriftModel()
    assert abs(d.ideal_gain_um_per_hz() - 0.07) < 1e-12
    # both drift channels contribute: pure thermal 100 um/K plus the
    # rate-tracking term
    assert d.mismatch_um_per_k() > d.thermal_um_per_k
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


def test_quiet_plant_sits_at_dip_floor():
    d = DriftModel(amplitude_k=0.0, jitter_sigma_um=0.0)
    tr = simulate(d, None, 3600.0, 60.0)
    assert np.allclose(tr.norm_coincidences, 2.0 / 3.0, atol=1e-12)
    assert np.all(tr.motor_um == 0.0)
    assert np.allclose(tr.rep_rate_hz, 75e6)


def test_uncontrolled_drift_erases_bunching_within_six_hours():
    tr = simulate(DriftModel(), None, 6 * 3600.0, 60.0, seed=3)
    assert abs(tr.norm_coincidences[0] - 2.0 / 3.0) < 1e-9
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


def test_pid_alternative_feasibility():
    d = DriftModel()
    # the experiment's few-per-minute coincidence rate cannot feed a loop
    weak = pid_alternative_analysis(d, 0.13)
    assert not weak.feasible
    assert weak.integration_time_s > weak.drift_time_s
    # a bright source could
    bright = pid_alternative_analysis(d, 1e6)
    assert bright.feasible
    # and a drift-free plant always can
    still = pid_alternative_analysis(DriftModel(amplitude_k=0.0), 0.13)
    assert still.feasible
    assert math.isinf(still.drift_time_s)
    with pytest.raises(ConfigError):
        pid_alternative_analysis(d, 0.0)


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


@pytest.mark.parametrize(
    "kwargs",
    [{"temp_to_rate_hz_per_k": 0.0}, {"thermal_um_per_k": 0.0}, {"temp_to_rate_hz_per_k": 1e-310}],
    ids=["zero-coupling", "derived-zero-coupling", "gain-overflow"],
)
def test_ideal_gain_needs_a_rate_coupling(kwargs):
    with pytest.raises(ConfigError, match="coupling"):
        DriftModel(**kwargs).ideal_gain_um_per_hz()


def test_non_finite_motor_command_raises():
    for resolution in (0.2, 0.0):
        controller = Controller(gain_um_per_hz=1e308, motor_resolution_um=resolution)
        with pytest.raises(ConfigError):
            simulate(DriftModel(), controller, 3600.0, 60.0)
    with pytest.raises(ConfigError):
        Controller(motor_resolution_um=math.inf)
    with pytest.raises(ConfigError):
        Controller(update_interval_s=math.inf)


def test_update_interval_beyond_the_run_holds_the_first_command():
    tr = simulate(DriftModel(), Controller(update_interval_s=1e300), 3600.0, 60.0)
    assert len(tr.motor_um) == 61
    assert np.all(tr.motor_um == tr.motor_um[0])
