"""Interferometer path-length drift and the pulse-rate-tracking stabilizer.

The split-delay analyzers only erase which-path information while their
arm imbalance matches the laser pulse spacing, so two slow processes
erode the dip: thermal expansion of the imbalance fiber and wander of the
laser repetition rate (which moves the spacing itself).  In the lab both
ride the same temperature, which is why a single feedforward from the
measured repetition rate, at an empirically fitted micrometers-per-hertz
gain, can cancel the sum.  The model here makes that explicit: the
default temperature-to-rate coupling is chosen so the quoted gain is
exactly the right one for the simulated plant.

simulate() produces the time series needed to reproduce both behaviours:
free-running drift walking off the dip within hours and the stabilized
trace pinned at the dip floor for a day.  It is array code that takes the
same random streams, in the same order, as one draw and one controller
step per time step, and gives the same traces byte for byte; only the
clipped jitter recurrence still steps through time, on plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.constants import c as _SPEED_OF_LIGHT

from .errors import ConfigError

DRIFT_KINDS = ("sinusoid", "random-walk")

# empirical feedforward gain, micrometers of delay per hertz of rate shift
DEFAULT_GAIN_UM_PER_HZ = 0.07

# largest step count simulate() accepts: each step costs about 80 bytes of
# trace arrays, so the cap keeps a run under about 1 GB
MAX_STEPS = 10**7


def pulse_spacing(rep_rate_hz: float, group_index: float = 1.468) -> float:
    """In-fiber distance between successive pulses, in meters."""
    if not rep_rate_hz > 0:
        raise ConfigError("rep_rate_hz must be > 0")
    if not group_index >= 1.0:
        raise ConfigError("group_index must be >= 1")
    return _SPEED_OF_LIGHT / (group_index * rep_rate_hz)


def rep_rate_length_shift(
    delta_f_hz: float,
    rep_rate_hz: float = 75e6,
    spacing_m: Optional[float] = None,
) -> float:
    """Arm-length correction (meters) that keeps one pulse spacing of
    imbalance when the repetition rate moves by delta_f_hz."""
    if spacing_m is None:
        spacing_m = pulse_spacing(rep_rate_hz)
    return spacing_m * delta_f_hz / rep_rate_hz


@dataclass(frozen=True)
class DriftModel:
    """Slow environmental drift acting on one analyzer's arm imbalance.

    The lab temperature process (sinusoid or bounded random walk) drives
    both the fiber length directly (thermal_um_per_k) and the laser
    repetition rate (temp_to_rate_hz_per_k); a fast clipped
    Ornstein-Uhlenbeck term models uncorrelated spool jitter.  When the
    rate coupling is left unset it is derived so that the default
    feedforward gain cancels the combined drift exactly.
    """

    kind: str = "sinusoid"
    amplitude_k: float = 1.0
    period_h: float = 48.0
    thermal_um_per_k: float = 100.0
    temp_to_rate_hz_per_k: Optional[float] = None
    rep_wander_bound_hz_per_h: float = 400.0
    jitter_sigma_um: float = 3.0
    jitter_tau_s: float = 600.0
    jitter_bound_um: float = 10.0
    rep_rate_hz: float = 75e6
    group_index: float = 1.468

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ConfigError(f"kind must be one of {DRIFT_KINDS}")
        if not 0 <= self.amplitude_k < math.inf:
            raise ConfigError("amplitude_k must be finite and >= 0")
        if not self.period_h > 0:
            raise ConfigError("period_h must be > 0")
        if not self.thermal_um_per_k >= 0:
            raise ConfigError("thermal_um_per_k must be >= 0")
        if not self.rep_wander_bound_hz_per_h >= 0:
            raise ConfigError("rep_wander_bound_hz_per_h must be >= 0")
        if not (self.jitter_sigma_um >= 0 and self.jitter_bound_um >= 0):
            raise ConfigError("jitter parameters must be >= 0")
        if not self.jitter_tau_s > 0:
            raise ConfigError("jitter_tau_s must be > 0")
        if not self.rep_rate_hz > 0:
            raise ConfigError("rep_rate_hz must be > 0")
        if self.temp_to_rate_hz_per_k is not None and not self.temp_to_rate_hz_per_k >= 0:
            raise ConfigError("temp_to_rate_hz_per_k must be >= 0")
        # the walk bounds its temperature steps by the rate wander over this
        if self.kind == "random-walk" and not self.rate_coupling_hz_per_k() > 0:
            raise ConfigError("the random walk needs a temperature-to-rate coupling > 0")

    def spacing_m(self) -> float:
        return pulse_spacing(self.rep_rate_hz, self.group_index)

    def rate_length_um_per_hz(self) -> float:
        """Micrometers of arm mismatch per hertz of repetition-rate shift."""
        return self.spacing_m() * 1e6 / self.rep_rate_hz

    def rate_coupling_hz_per_k(self) -> float:
        if self.temp_to_rate_hz_per_k is not None:
            return self.temp_to_rate_hz_per_k
        # chosen so the default gain cancels thermal and rate drift together:
        # gain * kappa = thermal + (spacing/f0) * kappa
        denom = DEFAULT_GAIN_UM_PER_HZ - self.rate_length_um_per_hz()
        if denom <= 0:
            raise ConfigError(
                "default gain does not exceed the rate-length coefficient; "
                "set temp_to_rate_hz_per_k explicitly"
            )
        return self.thermal_um_per_k / denom

    def mismatch_um_per_k(self) -> float:
        """Total arm-mismatch response to temperature, both channels."""
        return (
            self.thermal_um_per_k
            + self.rate_length_um_per_hz() * self.rate_coupling_hz_per_k()
        )

    def ideal_gain_um_per_hz(self) -> float:
        """Feedforward gain that exactly cancels the temperature drift.

        A rate that does not follow temperature carries no information about
        the drift, so a zero coupling (or one so weak that the gain
        overflows) raises ConfigError.
        """
        kappa = self.rate_coupling_hz_per_k()
        gain = self.mismatch_um_per_k() / kappa if kappa > 0 else math.inf
        if not math.isfinite(gain):
            raise ConfigError(
                f"no finite feedforward gain: the temperature-to-rate coupling is {kappa} Hz/K"
            )
        return gain


@dataclass(frozen=True)
class Controller:
    """Feedforward motor driven by the measured repetition-rate shift."""

    gain_um_per_hz: float = DEFAULT_GAIN_UM_PER_HZ
    motor_resolution_um: float = 0.2
    update_interval_s: float = 60.0

    def __post_init__(self):
        if not 0 <= self.gain_um_per_hz < math.inf:
            raise ConfigError("gain_um_per_hz must be finite and >= 0")
        if not 0 <= self.motor_resolution_um < math.inf:
            raise ConfigError("motor_resolution_um must be finite and >= 0")
        if not 0 < self.update_interval_s < math.inf:
            raise ConfigError("update_interval_s must be finite and > 0")


@dataclass(frozen=True)
class StabilityTrace:
    """Time series from one drift run; all arrays share one length."""

    time_s: np.ndarray
    delta_x_um: np.ndarray
    rep_rate_hz: np.ndarray
    motor_um: np.ndarray
    norm_coincidences: np.ndarray


# steps per chunk of the jitter recurrence, whose noise and decay arrays
# then stay small next to the trace arrays
_JITTER_CHUNK = 4096


def _temperature_series(drift: DriftModel, times: np.ndarray, rng) -> np.ndarray:
    if drift.kind == "sinusoid":
        period_s = drift.period_h * 3600.0
        return drift.amplitude_k * np.sin(2.0 * math.pi * times / period_s)
    # bounded random walk: per-step temperature increments are capped so the
    # implied rate wander never exceeds the hourly bound; one uniform draw per
    # step, summed in order (cumsum adds sequentially)
    dt_h = np.diff(times) / 3600.0
    with np.errstate(over="ignore"):
        max_step = drift.rep_wander_bound_hz_per_h * dt_h / drift.rate_coupling_hz_per_k()
    # uniform() needs the width 2 * max_step finite
    if not (max_step <= np.finfo(float).max / 2.0).all():
        raise ConfigError("the random walk's step bound overflows; raise temp_to_rate_hz_per_k")
    theta = np.empty(len(times))
    theta[0] = 0.0
    theta[1:] = rng.uniform(-max_step, max_step)
    return np.cumsum(theta, out=theta)


def _jitter_series(drift: DriftModel, times: np.ndarray, rng) -> np.ndarray:
    """Clipped Ornstein-Uhlenbeck jitter, one normal draw per step.

    The draws come in chunks of array calls, which take the same stream as
    one call per step; decays use math.exp, whose last bit np.exp need not
    match, and the clipped recurrence runs on plain floats.
    """
    out = np.zeros(len(times))
    if drift.jitter_sigma_um == 0.0:
        return out
    bound = drift.jitter_bound_um
    x = 0.0
    for start in range(1, len(times), _JITTER_CHUNK):
        stop = min(start + _JITTER_CHUNK, len(times))
        dts, which = np.unique(np.diff(times[start - 1:stop]), return_inverse=True)
        decays = np.array([math.exp(-dt / drift.jitter_tau_s) for dt in dts.tolist()])
        noise = rng.normal(0.0, drift.jitter_sigma_um * np.sqrt(1.0 - decays * decays)[which])
        chunk = []
        for decay, z in zip(decays[which].tolist(), noise.tolist()):
            x = x * decay + z
            # min(max(x, -bound), bound), signs of zero included
            if x > bound:
                x = bound
            elif x < -bound:
                x = -bound
            chunk.append(x)
        out[start:stop] = chunk
    return out


def simulate(
    drift: DriftModel,
    controller: Optional[Controller] = None,
    duration_s: float = 24 * 3600.0,
    dt_s: float = 60.0,
    seed: int = 0,
    dip_visibility: float = 1.0 / 3.0,
    fwhm_um: float = 144.0,
) -> StabilityTrace:
    """Drift, optional stabilization, and the normalized coincidence level.

    Coincidences are normalized to the far-from-overlap level, so the trace
    sits at 1 - dip_visibility while the mismatch is held at zero and climbs
    toward one as drift pulls the analyzers apart.  The controller's motor
    takes gain * (rate shift) every update interval, rounded to its
    resolution, and holds it in between; a command that overflows raises
    ConfigError.
    """
    # the step count and the time axis need both finite
    if not (0 < duration_s < math.inf and 0 < dt_s < math.inf):
        raise ConfigError("duration_s and dt_s must be finite and > 0")
    if not 0.0 <= dip_visibility <= 1.0:
        raise ConfigError("dip_visibility must be in [0, 1]")
    if not fwhm_um > 0:
        raise ConfigError("fwhm_um must be > 0")
    steps = duration_s / dt_s
    if not steps <= MAX_STEPS:
        raise ConfigError(f"duration_s / dt_s = {steps:.3g} steps, above the cap of {MAX_STEPS}")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must be in [0, 2**64)")
    n = int(round(steps)) + 1
    times = np.arange(n) * dt_s
    # uint64 keys, because a plain list goes through float64 at seed >= 2**63
    rng_walk = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    rng_jitter = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))

    theta = _temperature_series(drift, times, rng_walk)
    delta_f = drift.rate_coupling_hz_per_k() * theta
    jitter = _jitter_series(drift, times, rng_jitter)
    drift_um = (
        drift.thermal_um_per_k * theta
        + drift.rate_length_um_per_hz() * delta_f
        + jitter
    )

    motor = np.zeros(n)
    if controller is not None:
        steps_per_update = min(max(1, int(round(controller.update_interval_s / dt_s))), n)
        res = controller.motor_resolution_um
        with np.errstate(over="ignore"):
            target = controller.gain_um_per_hz * delta_f[::steps_per_update]
            if res > 0:
                # + 0.0 turns np.round's -0.0 into the 0.0 of an integer round
                target = res * (np.round(target / res) + 0.0)
        if not np.isfinite(target).all():
            raise ConfigError("the motor command is not finite; lower gain_um_per_hz")
        motor = np.repeat(target, steps_per_update)[:n]

    delta_x = drift_um - motor
    ell = fwhm_um / math.sqrt(2.0 * math.log(2.0))
    # a mismatch far past the dip overflows the square: exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        xi_sq = np.exp(-2.0 * (delta_x / ell) ** 2)
    norm = 1.0 - dip_visibility * xi_sq
    return StabilityTrace(times, delta_x, drift.rep_rate_hz + delta_f, motor, norm)


@dataclass(frozen=True)
class FeasibilityReport:
    """Whether stabilizing on the coincidence rate itself could work."""

    integration_time_s: float
    drift_time_s: float
    feasible: bool
    resolve_um: float
    count_rate_per_s: float
    sigmas: float


def pid_alternative_analysis(
    drift: DriftModel,
    count_rate_per_s: float,
    resolve_um: Optional[float] = None,
    sigmas: float = 3.0,
    dip_visibility: float = 1.0 / 3.0,
    fwhm_um: float = 144.0,
) -> FeasibilityReport:
    """Compare the integration time needed to see a mismatch step against
    how fast the drift moves by that step.

    A counting feedback loop must resolve the rate change produced by a
    mismatch of resolve_um at the dip bottom before the drift has moved
    that far; otherwise the error signal is stale and the loop hunts.
    """
    if not count_rate_per_s > 0:
        raise ConfigError("count_rate_per_s must be > 0")
    if resolve_um is None:
        resolve_um = min(10.0, fwhm_um / 4.0)
    ell = fwhm_um / math.sqrt(2.0 * math.log(2.0))
    delta_n = dip_visibility * (1.0 - math.exp(-2.0 * (resolve_um / ell) ** 2))
    floor = 1.0 - dip_visibility
    integration = sigmas**2 * floor / (count_rate_per_s * delta_n**2)

    if drift.kind == "sinusoid":
        rate_k_per_s = (
            drift.amplitude_k * 2.0 * math.pi / (drift.period_h * 3600.0)
        )
    else:
        rate_k_per_s = (
            drift.rep_wander_bound_hz_per_h
            / drift.rate_coupling_hz_per_k()
            / 3600.0
        )
    speed_um_per_s = drift.mismatch_um_per_k() * rate_k_per_s
    drift_time = math.inf if speed_um_per_s == 0 else resolve_um / speed_um_per_s
    return FeasibilityReport(
        integration, drift_time, integration <= drift_time, resolve_um,
        count_rate_per_s, sigmas,
    )
