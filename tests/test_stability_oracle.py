"""Property test: qrelay.stability.simulate's array code against the
per-step loops in tests/oracles.py, byte for byte, and its coincidence
level against the default relay's dip built per point."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import norm_coincidences_per_point, simulate_per_step  # noqa: E402
from qrelay.stability import DRIFT_KINDS, Controller, DriftModel, simulate  # noqa: E402

FIELDS = ("time_s", "delta_x_um", "rep_rate_hz", "motor_um")


@hs.composite
def drift_cases(draw):
    """(drift, controller or None, duration_s, dt_s, seed); non-integer dt,
    update intervals shorter than dt, zero jitter and zero resolution."""
    drift = DriftModel(
        kind=draw(hs.sampled_from(DRIFT_KINDS)),
        amplitude_k=draw(hs.floats(0.0, 3.0)),
        period_h=draw(hs.floats(1.0, 96.0)),
        jitter_sigma_um=draw(hs.one_of(hs.just(0.0), hs.floats(0.0, 10.0))),
        jitter_tau_s=draw(hs.floats(1.0, 3600.0)),
        jitter_bound_um=draw(hs.one_of(hs.just(0.0), hs.floats(0.0, 20.0))),
    )
    controller = None
    if draw(hs.booleans()):
        controller = Controller(
            gain_um_per_hz=draw(hs.floats(0.0, 0.2)),
            motor_resolution_um=draw(hs.one_of(hs.just(0.0), hs.floats(0.01, 1.0))),
            update_interval_s=draw(hs.floats(0.1, 600.0)),
        )
    dt_s = draw(hs.floats(0.3, 120.0))
    steps = draw(hs.integers(1, 3000))
    return drift, controller, steps * dt_s, dt_s, draw(hs.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drift_cases())
# more steps than one jitter chunk holds, both kinds, controlled
@example((DriftModel(kind="random-walk"), Controller(), 9000 * 7.3, 7.3, 5))
@example((DriftModel(jitter_sigma_um=8.0), Controller(update_interval_s=30.0), 9000 * 61.7, 61.7, 9))
# the step-size table: 16 distinct steps of arange(n) * 0.3, and one at dt = 5
@example((DriftModel(), Controller(), 20000 * 0.3, 0.3, 3))
@example((DriftModel(), None, 9000 * 5.0, 5.0, 4))
# clipping: a bound below sigma, and a bound of zero (clips to signed zeros)
@example((DriftModel(jitter_sigma_um=6.0, jitter_bound_um=2.0), None, 9000 * 60.0, 60.0, 6))
@example((DriftModel(jitter_bound_um=0.0), None, 5000 * 60.0, 60.0, 7))
# decays of exactly 0 (tau far below dt) and exactly 1 with a zero scale
@example((DriftModel(jitter_tau_s=1e-3), None, 5000 * 60.0, 60.0, 8))
@example((DriftModel(jitter_tau_s=1e300), None, 5000 * 60.0, 60.0, 10))
# a random walk over more than three chunks
@example((DriftModel(kind="random-walk"), None, 13000 * 11.9, 11.9, 11))
def test_simulate_matches_per_step_loops(case):
    drift, controller, duration_s, dt_s, seed = case
    got = simulate(drift, controller, duration_s, dt_s, seed)
    want = simulate_per_step(drift, controller, duration_s, dt_s, seed)
    for name, expected in zip(FIELDS, want):
        assert getattr(got, name).tobytes() == expected.tobytes(), name
    # the coincidence level at a few steps spread over the run
    steps = np.unique(np.linspace(0, len(got.time_s) - 1, 5).astype(int))
    np.testing.assert_allclose(got.norm_coincidences[steps],
                               norm_coincidences_per_point(got.delta_x_um[steps]),
                               rtol=1e-12, atol=0)
