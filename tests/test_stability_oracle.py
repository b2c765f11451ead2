"""Property test: qrelay.stability.simulate's array code against the
per-step loops in tests/oracles.py, byte for byte, and its coincidence
level against the default relay's dip built per point."""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import norm_coincidences_per_point, simulate_per_step  # noqa: E402
from qrelay import stability  # noqa: E402
from qrelay.stability import DEFAULT_GAIN_UM_PER_HZ, DRIFT_KINDS, DriftModel, simulate  # noqa: E402

FIELDS = ("time_s", "delta_x_um", "rep_rate_hz", "motor_um")
GAIN = DEFAULT_GAIN_UM_PER_HZ


@hs.composite
def drift_cases(draw):
    """(drift, gain or None, duration_s, dt_s, seed, patched constants);
    non-integer dt, steps both shorter and longer than the motor's update
    interval, and a zero gain.  Drawn cases patch no constant."""
    drift = DriftModel(
        kind=draw(hs.sampled_from(DRIFT_KINDS)),
        amplitude_k=draw(hs.floats(0.0, 3.0)),
        period_h=draw(hs.floats(1.0, 96.0)),
    )
    gain = draw(hs.one_of(hs.none(), hs.just(0.0), hs.floats(0.0, 0.2)))
    dt_s = draw(hs.floats(0.3, 120.0))
    steps = draw(hs.integers(1, 3000))
    return drift, gain, steps * dt_s, dt_s, draw(hs.integers(0, 2**64 - 1)), {}


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drift_cases())
# more steps than one jitter chunk holds, both kinds, controlled
@example((DriftModel(kind="random-walk"), GAIN, 9000 * 7.3, 7.3, 5, {}))
@example((DriftModel(), GAIN, 9000 * 61.7, 61.7, 9, {"JITTER_SIGMA_UM": 8.0}))
# the step-size table: 16 distinct steps of arange(n) * 0.3, and one at dt = 5
@example((DriftModel(), GAIN, 20000 * 0.3, 0.3, 3, {}))
@example((DriftModel(), None, 9000 * 5.0, 5.0, 4, {}))
# clipping: a bound below sigma, and a bound of zero (clips to signed zeros)
@example((DriftModel(), None, 9000 * 60.0, 60.0, 6,
          {"JITTER_SIGMA_UM": 6.0, "JITTER_BOUND_UM": 2.0}))
@example((DriftModel(), None, 5000 * 60.0, 60.0, 7, {"JITTER_BOUND_UM": 0.0}))
# decays of exactly 0 (dt far above tau) and exactly 1 with a zero scale
# (math.exp(-1e-14 / 600) rounds to 1.0; at 1e-13 it does not), the latter
# with an update interval beyond the run
@example((DriftModel(kind="random-walk"), GAIN, 3e300, 1e300, 8, {}))
@example((DriftModel(), GAIN, 3.6e-10, 1e-14, 10, {}))
# a random walk over more than three chunks
@example((DriftModel(kind="random-walk"), None, 13000 * 11.9, 11.9, 11, {}))
def test_simulate_matches_per_step_loops(case):
    drift, gain, duration_s, dt_s, seed, constants = case
    # the monkeypatch fixture cannot go under @given; each patch is undone
    # when the example ends
    with ExitStack() as patches:
        for name, value in constants.items():
            patches.enter_context(mock.patch.object(stability, name, value))
        got = simulate(drift, gain, duration_s, dt_s, seed)
        want = simulate_per_step(drift, gain, duration_s, dt_s, seed)
    for name, expected in zip(FIELDS, want):
        assert getattr(got, name).tobytes() == expected.tobytes(), name
    # the coincidence level at a few steps spread over the run
    steps = np.unique(np.linspace(0, len(got.time_s) - 1, 5).astype(int))
    np.testing.assert_allclose(got.norm_coincidences[steps],
                               norm_coincidences_per_point(got.delta_x_um[steps]),
                               rtol=1e-12, atol=0)
