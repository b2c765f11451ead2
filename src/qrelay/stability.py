"""Interferometer path-length drift and the pulse-rate-tracking stabilizer.

The split-delay analyzers only erase which-path information while their
arm imbalance matches the laser pulse spacing, so two slow processes
erode the dip: thermal expansion of the imbalance fiber and wander of the
laser repetition rate (which moves the spacing itself).  In the lab both
ride the same temperature, which is why a single feedforward from the
measured repetition rate, at an empirically fitted micrometers-per-hertz
gain, can cancel the sum.  The model here makes that explicit: the
temperature-to-rate coupling is derived so the quoted gain is exactly the
right one for the simulated plant.

The plant and its motor are module constants (THERMAL_UM_PER_K,
REP_RATE_HZ, REP_WANDER_BOUND_HZ_PER_H, JITTER_*, MOTOR_RESOLUTION_UM,
UPDATE_INTERVAL_S); a run sets only the drift's kind, the sinusoid's
amplitude and period (DriftModel), and the feedforward gain.

simulate() produces the time series needed to reproduce both behaviours
on the default relay's dip, the one `qrelay mandel` scans without a config:
free-running drift walking off the dip within hours and the stabilized
trace pinned at the dip floor for a day.  It is array code that takes the
same random streams, in the same order, as one draw and one controller
step per time step, and gives the same traces byte for byte.  Per time step
only the clipped jitter recurrence runs, x = clip(decay * x + z), as a
Python loop on plain floats: each step rounds and clips the one before it,
so no array expression gives its bits, and the loop does nothing else (the
decays come from one table of the run's distinct step sizes, the draws
from array calls).
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .detection import _SPEED_OF_LIGHT, FIBER_GROUP_INDEX
from .errors import ConfigError
from .scenarios import ExperimentConfig, _MandelEngine, keyed_generator

DRIFT_KINDS = ("sinusoid", "random-walk")

# empirical feedforward gain, micrometers of delay per hertz of rate shift
DEFAULT_GAIN_UM_PER_HZ = 0.07

# thermal expansion of the imbalance fiber, micrometers per kelvin
THERMAL_UM_PER_K = 100.0
# the laser repetition rate, and the random walk's bound on its wander
REP_RATE_HZ = 75e6
REP_WANDER_BOUND_HZ_PER_H = 400.0
# clipped Ornstein-Uhlenbeck spool jitter: sigma, correlation time, clip
JITTER_SIGMA_UM = 3.0
JITTER_TAU_S = 600.0
JITTER_BOUND_UM = 10.0
# the feedforward motor's step and the interval between its commands
MOTOR_RESOLUTION_UM = 0.2
UPDATE_INTERVAL_S = 60.0

# largest step count simulate() accepts: at 1M steps tracemalloc counts a
# peak of 42 bytes per step in simulate() and 44 in a whole `qrelay
# stability --out` run (whose writer holds one block of rows), next to the
# 40 of the five returned arrays, so the cap keeps a run under about 0.5 GB
MAX_STEPS = 10**7


def pulse_spacing(rep_rate_hz: float, group_index: float) -> float:
    """In-fiber distance between successive pulses, in meters."""
    return _SPEED_OF_LIGHT / (group_index * rep_rate_hz)


# micrometers of arm mismatch per hertz of repetition-rate shift
RATE_LENGTH_UM_PER_HZ = pulse_spacing(REP_RATE_HZ, FIBER_GROUP_INDEX) * 1e6 / REP_RATE_HZ
# chosen so the default gain cancels thermal and rate drift together:
# gain * kappa = thermal + (spacing/f0) * kappa
RATE_COUPLING_HZ_PER_K = THERMAL_UM_PER_K / (DEFAULT_GAIN_UM_PER_HZ - RATE_LENGTH_UM_PER_HZ)


@dataclass(frozen=True)
class DriftModel:
    """Slow environmental drift acting on one analyzer's arm imbalance.

    The lab temperature process (sinusoid or bounded random walk) drives
    both the fiber length directly (THERMAL_UM_PER_K) and the laser
    repetition rate (RATE_COUPLING_HZ_PER_K); a fast clipped
    Ornstein-Uhlenbeck term models uncorrelated spool jitter.  Only the
    sinusoid reads amplitude_k and period_h: the random walk's size is set
    by REP_WANDER_BOUND_HZ_PER_H.
    """

    kind: str = "sinusoid"
    amplitude_k: float = 1.0
    period_h: float = 48.0

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ConfigError(f"kind must be one of {DRIFT_KINDS}")
        if not 0 <= self.amplitude_k < math.inf:
            raise ConfigError("amplitude_k must be finite and >= 0")
        if not 0 < self.period_h < math.inf:
            raise ConfigError("period_h must be finite and > 0")


@dataclass(frozen=True)
class StabilityTrace:
    """Time series from one drift run; all arrays share one length."""

    time_s: np.ndarray
    delta_x_um: np.ndarray
    rep_rate_hz: np.ndarray
    motor_um: np.ndarray
    norm_coincidences: np.ndarray


@functools.lru_cache(maxsize=None)
def _relay_dip() -> Tuple[_MandelEngine, float]:
    """The default relay's dip engine and its short-bin level at s = 0."""
    engine = _MandelEngine(ExperimentConfig())
    return engine, engine.scan([math.inf], bins=1)[0, 0]


def _norm_coincidences(delta_x_um: np.ndarray) -> np.ndarray:
    """The default relay's short-bin coincidences at each mismatch over
    their level far from overlap: P(s) / P(0) at s = xi^2; the long bin is
    not scanned."""
    engine, far = _relay_dip()
    norm = engine.scan(delta_x_um, bins=1)[0]
    norm /= far
    return norm


# steps per chunk of the jitter recurrence, whose noise and decay buffers
# then stay small next to the trace arrays
_JITTER_CHUNK = 4096


def _temperature_series(drift: DriftModel, times: np.ndarray, rng) -> np.ndarray:
    if drift.kind == "sinusoid":
        # a period near the float range's bottom overflows the phase; the
        # operations of amplitude * sin(2 pi t / period), in place
        with np.errstate(over="ignore", invalid="ignore"):
            theta = (2.0 * math.pi) * times
            theta /= drift.period_h * 3600.0
            np.sin(theta, out=theta)
            theta *= drift.amplitude_k
        if not np.isfinite(theta).all():
            raise ConfigError("the sinusoid's phase is not finite; raise period_h")
        return theta
    # bounded random walk: per-step temperature increments are capped so the
    # implied rate wander never exceeds the hourly bound; one uniform draw per
    # step, summed in order (cumsum adds sequentially)
    max_step = np.diff(times)
    max_step /= 3600.0
    max_step *= REP_WANDER_BOUND_HZ_PER_H
    max_step /= RATE_COUPLING_HZ_PER_K
    theta = np.empty(len(times))
    theta[0] = 0.0
    # uniform(-m, m) is -m + 2m U on the stream random() reads U from
    steps = theta[1:]
    rng.random(out=steps)
    steps *= 2.0 * max_step
    steps -= max_step
    return np.cumsum(theta, out=theta)


def _jitter_series(times: np.ndarray, rng) -> np.ndarray:
    """Clipped Ornstein-Uhlenbeck jitter, one normal draw per step.

    The run's distinct step sizes form one table of math.exp decays (whose
    last bit np.exp need not match) and noise scales; the draws come in
    chunks of standard normals scaled as normal() scales them, which take
    the same stream as one call per step.  Only the clipped recurrence runs
    per step, on plain floats read from a chunk's array.array buffers.
    """
    out = np.zeros(len(times))
    dts = np.unique(np.diff(times))
    decays = np.array([math.exp(-dt / JITTER_TAU_S) for dt in dts.tolist()])
    scales = JITTER_SIGMA_UM * np.sqrt(1.0 - decays * decays)
    bound = JITTER_BOUND_UM
    lo = -bound
    x = 0.0
    for start in range(1, len(times), _JITTER_CHUNK):
        stop = min(start + _JITTER_CHUNK, len(times))
        which = np.searchsorted(dts, np.diff(times[start - 1:stop]))
        # normal(0, scale) draws 0 + scale * z
        noise = rng.standard_normal(stop - start)
        noise *= scales[which]
        noise += 0.0
        # iterating an array.array makes each float as the loop takes it;
        # chunk.append, not a bound append, is the interpreter's fast path
        chunk = []
        for decay, z in zip(array("d", decays[which].tobytes()), array("d", noise.tobytes())):
            x = x * decay + z
            # min(max(x, -bound), bound), signs of zero included
            if x > bound:
                x = bound
            elif x < lo:
                x = lo
            chunk.append(x)
        out[start:stop] = chunk
    return out


def simulate(
    drift: DriftModel,
    gain_um_per_hz: Optional[float],
    duration_s: float,
    dt_s: float,
    seed: int,
) -> StabilityTrace:
    """Drift, optional stabilization, and the normalized coincidence level.

    Coincidences are the default relay's dip (_norm_coincidences),
    normalized to the far-from-overlap level, so the trace sits at the
    dip's floor while the mismatch is held at zero and climbs toward one as
    drift pulls the analyzers apart.  With a gain (None runs free) the
    motor takes gain * (rate shift) every UPDATE_INTERVAL_S, rounded to
    MOTOR_RESOLUTION_UM, and holds it in between; `seed` keys the random
    streams.  A time axis, drift or command that overflows raises ConfigError.
    """
    if gain_um_per_hz is not None and not 0 <= gain_um_per_hz < math.inf:
        raise ConfigError("gain_um_per_hz must be finite and >= 0")
    # the step count and the time axis need both finite
    if not (0 < duration_s < math.inf and 0 < dt_s < math.inf):
        raise ConfigError("duration_s and dt_s must be finite and > 0")
    steps = duration_s / dt_s
    if not steps <= MAX_STEPS:
        raise ConfigError(f"duration_s / dt_s = {steps:.3g} steps, above the cap of {MAX_STEPS}")
    rng_walk, rng_jitter = keyed_generator(seed, 0), keyed_generator(seed, 1)
    n = int(round(steps)) + 1
    # rounding the step count up can carry the last time past the float range
    if not (n - 1) * dt_s < math.inf:
        raise ConfigError("the time axis overflows; lower duration_s")
    times = np.arange(n) * dt_s

    # thermal * theta + rate_length * delta_f + jitter, built in theta's
    # array once the jitter is drawn, and then the mismatch and the rate in
    # the drift's and the shift's: at most five step arrays are alive at once
    drift_um = _temperature_series(drift, times, rng_walk)
    jitter = _jitter_series(times, rng_jitter)
    with np.errstate(over="ignore", invalid="ignore"):
        delta_f = RATE_COUPLING_HZ_PER_K * drift_um
        drift_um *= THERMAL_UM_PER_K
        drift_um += RATE_LENGTH_UM_PER_HZ * delta_f
        drift_um += jitter
    del jitter
    # only a sinusoid's amplitude can overflow the rate shift, and so the drift
    if not np.isfinite(drift_um).all():
        raise ConfigError("the drift is not finite; lower amplitude_k")

    if gain_um_per_hz is None:
        motor = np.zeros(n)
    else:
        # capped at the run before rounding, as a tiny step makes it infinite
        steps_per_update = max(1, round(min(UPDATE_INTERVAL_S / dt_s, n)))
        with np.errstate(over="ignore"):
            target = gain_um_per_hz * delta_f[::steps_per_update]
            # + 0.0 turns np.round's -0.0 into the 0.0 of an integer round
            target = MOTOR_RESOLUTION_UM * (np.round(target / MOTOR_RESOLUTION_UM) + 0.0)
        if not np.isfinite(target).all():
            raise ConfigError("the motor command is not finite; lower gain_um_per_hz")
        motor = np.repeat(target, steps_per_update)[:n]

    delta_x = drift_um
    delta_x -= motor
    rep_rate_hz = delta_f
    rep_rate_hz += REP_RATE_HZ
    return StabilityTrace(times, delta_x, rep_rate_hz, motor, _norm_coincidences(delta_x))
