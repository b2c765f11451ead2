"""Curve fits and figure-of-merit arithmetic for scan outputs.

Fringes are fit by weighted linear least squares in the basis
(1, cos x, sin x), which is exact and has closed-form covariance; a
constrained refit through a sigmoid reparametrization runs only when the
linear estimate leaves the physical range [0, 1].  Dips are fit as an
inverted Gaussian parametrized directly by its full width at half maximum.
Count uncertainties are taken as sqrt(max(count, 1)).

The two nonlinear fits, the dip and the constrained fringe refit, run
scipy.optimize.least_squares and import it where they call it: scipy
costs a cold start several times numpy's import, and an in-range fringe
never needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitConvergenceError, InsufficientPointsError

# fringe visibility thresholds; boundaries count as the upper class
CLASSICAL_VISIBILITY_LIMIT = 1.0 / 3.0
CLONING_VISIBILITY_LIMIT = 2.0 / 3.0


def fidelity_from_visibility(visibility: float) -> float:
    """Mean qubit-state fidelity for an observed fringe visibility."""
    return (1.0 + visibility) / 2.0


def classify_visibility(visibility: float) -> str:
    """Place a visibility against the 1/3 and 2/3 limits; boundaries round up."""
    if visibility >= CLONING_VISIBILITY_LIMIT:
        return "above_cloning"
    if visibility >= CLASSICAL_VISIBILITY_LIMIT:
        return "quantum"
    return "below_classical"


@dataclass(frozen=True)
class NetVisibility:
    value: float
    capped: bool


def net_visibility(raw_visibility: float, mean_count: float, background: float) -> NetVisibility:
    """Background-corrected visibility V * mean / (mean - background), capped at 1."""
    if background < 0 or mean_count <= 0:
        raise ConfigError("mean_count must be > 0 and background >= 0")
    if background >= mean_count:
        raise ConfigError(
            f"background {background} >= mean count {mean_count}; correction diverges"
        )
    value = raw_visibility * mean_count / (mean_count - background)
    if value > 1.0:
        return NetVisibility(1.0, True)
    return NetVisibility(value, False)


@dataclass(frozen=True)
class FringeFit:
    visibility: float
    visibility_sigma: float
    phase0: float
    offset: float
    constrained: bool
    # raw linear estimate, kept for diagnostics even when the constrained
    # refit replaces it as the reported value
    unconstrained_visibility: float = 0.0


def _phase(sine: float, cosine: float) -> float:
    """The angle of (cosine, sine) in [-pi, pi).

    atan2 answers in (-pi, pi], and at pi the sign of a zero or
    rounding-level sine picks +pi or -pi; folding +pi onto -pi reports a
    fringe at pi the same way whatever that sign.
    """
    angle = math.atan2(sine, cosine)
    return -math.pi if angle == math.pi else angle


def _sigmas(counts: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(counts, 1.0))


def fit_fringe(phases, counts) -> FringeFit:
    """Fit counts = offset * (1 + V cos(phase - phase0)), phase0 in [-pi, pi)."""
    x = np.asarray(phases, dtype=float)
    y = np.asarray(counts, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("phases and counts must be equal-length 1-d arrays")
    if x.size < 4 or np.unique(np.mod(x, 2 * math.pi)).size < 3:
        raise InsufficientPointsError(
            f"need >= 4 points at >= 3 distinct phases, got {x.size}"
        )
    w = 1.0 / _sigmas(y)
    basis = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    coef, *_ = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)
    c0, c1, c2 = coef
    if c0 <= 0:
        raise FitConvergenceError(f"non-positive fringe offset {c0:.3g}")
    r = math.hypot(c1, c2)
    visibility = r / c0
    phase0 = _phase(c2, c1)

    cov = np.linalg.inv((basis * w[:, None]).T @ (basis * w[:, None]))
    if r == 0.0:
        grad = np.array([0.0, 1.0 / c0, 1.0 / c0])
    else:
        grad = np.array([-r / c0**2, c1 / (r * c0), c2 / (r * c0)])
    sigma = math.sqrt(max(0.0, grad @ cov @ grad))

    if 0.0 <= visibility <= 1.0:
        return FringeFit(visibility, sigma, phase0, c0, False, visibility)

    # out of range: refit with V = sigmoid(u) so the estimate stays physical
    from scipy.optimize import least_squares

    def residuals(p):
        off, u, ph = p
        v = 1.0 / (1.0 + math.exp(-u))
        return (y - off * (1.0 + v * np.cos(x - ph))) * w

    u0 = 6.0 if visibility > 1.0 else -6.0
    sol = least_squares(residuals, [c0, u0, phase0], method="lm", max_nfev=2000)
    if not sol.success:
        raise FitConvergenceError(f"constrained fringe fit failed: {sol.message}")
    off, u, ph = sol.x
    if off <= 0:
        raise FitConvergenceError(f"non-positive fringe offset {off:.3g}")
    v = 1.0 / (1.0 + math.exp(-u))
    return FringeFit(
        v, sigma, _phase(math.sin(ph), math.cos(ph)), off, True, visibility
    )


@dataclass(frozen=True)
class DipFit:
    amplitude: float
    depth: float
    depth_sigma: float
    center: float
    center_sigma: float
    fwhm: float
    fwhm_sigma: float


def fit_dip(positions, counts) -> DipFit:
    """Fit counts = A (1 - D exp(-4 ln2 (x - x0)^2 / w^2)); w is the FWHM."""
    x = np.asarray(positions, dtype=float)
    y = np.asarray(counts, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("positions and counts must be equal-length 1-d arrays")
    if x.size < 5:
        raise InsufficientPointsError(f"need >= 5 points for a dip fit, got {x.size}")
    w = 1.0 / _sigmas(y)

    a0 = float(np.median(np.sort(y)[-max(3, x.size // 4):]))
    a0 = max(a0, 1e-9)
    i_min = int(np.argmin(y))
    x0 = float(x[i_min])
    d0 = min(0.95, max(0.05, 1.0 - float(y[i_min]) / a0))
    span = float(x.max() - x.min())
    w0 = max(span / 8.0, 1e-6)

    ln2x4 = 4.0 * math.log(2.0)

    def model(p):
        a, d, c, fw = p
        return a * (1.0 - d * np.exp(-ln2x4 * (x - c) ** 2 / fw**2))

    def residuals(p):
        return (y - model(p)) * w

    p0 = np.array([a0, d0, x0, w0])
    # spans near the float range overflow the model before the fit starts
    with np.errstate(over="ignore", invalid="ignore"):
        start_finite = np.all(np.isfinite(residuals(p0)))
    if not start_finite:
        raise FitConvergenceError("dip fit residuals are not finite at the starting point")
    from scipy.optimize import least_squares

    sol = least_squares(
        residuals,
        p0,
        bounds=([1e-12, 0.0, x.min() - span, 1e-9], [np.inf, 1.0, x.max() + span, 10 * span + 1.0]),
        max_nfev=5000,
        # the 1e-8 defaults leave fitted values moving at 1e-8 under rounding noise
        xtol=1e-12,
        ftol=1e-12,
        gtol=1e-12,
    )
    if not sol.success:
        raise FitConvergenceError(f"dip fit failed: {sol.message}")
    a, d, c, fw = sol.x

    jtj = sol.jac.T @ sol.jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.full((4, 4), np.nan)
    sd = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return DipFit(a, d, sd[1], c, sd[2], abs(fw), sd[3])
