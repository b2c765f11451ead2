"""Curve fits and figure-of-merit arithmetic for scan outputs.

Fringes are fit by weighted linear least squares in the basis
(1, cos x, sin x), which is exact and has closed-form covariance; a
constrained refit with the visibility held in [0, 1] runs only when the
linear estimate leaves that range.  Dips are fit as an inverted Gaussian
parametrized directly by its full width at half maximum.  Count
uncertainties are taken as sqrt(max(count, 1)).

The dip fit and the constrained fringe refit are one bounded
Levenberg-Marquardt iteration in numpy on each model's analytic Jacobian.
It stops once a step would lower the weighted cost by at most 1e-12 of it,
move the parameters by at most 1e-12 of their norm, or fails at the data's
rounding floor; a non-finite cost or 5000 trials raise QRelayError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QRelayError

_EPS = np.finfo(float).eps

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
    """Background-corrected visibility V * mean / (mean - background), capped at 1.

    A mean above the background by at most 64 eps of it is a signal that
    rounding made up, and its correction diverges as one below it does."""
    if background < 0 or mean_count <= 0:
        raise ConfigError("mean_count must be > 0 and background >= 0")
    if background >= mean_count:
        raise ConfigError(
            f"background {background} >= mean count {mean_count}; correction diverges"
        )
    if mean_count - background <= 64 * _EPS * mean_count:
        raise ConfigError(f"mean count {mean_count} exceeds background {background} "
                          "only by rounding; correction diverges")
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
    distinct = np.unique(np.mod(x, 2 * math.pi)).size
    if x.size < 4 or distinct < 3:
        raise QRelayError(f"need >= 4 points at >= 3 distinct phases, got {x.size} "
                          f"points at {distinct} distinct phases")
    w = 1.0 / _sigmas(y)
    basis = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    # each basis row has norm sqrt(2): this is the weighted design's condition
    # number with its rows equilibrated, set by the phases, not the counts
    if not np.linalg.cond(basis) <= 1.0 / math.sqrt(_EPS):
        raise QRelayError("the phases are too close together to fit a fringe")
    coef, *_ = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)
    c0, c1, c2 = coef
    if c0 <= 0:
        raise QRelayError(f"non-positive fringe offset {c0:.3g}")
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

    # V = r / c0 >= 0, so out of range is above 1: refit from the bound V = 1
    def residuals(p):
        off, v, ph = p.tolist()
        cos = np.cos(x - ph)
        return (y - off * (1.0 + v * cos)) * w, cos

    def jacobian(p, cos):
        off, v, ph = p.tolist()
        return (np.array([-(1.0 + v * cos), -off * cos, -off * v * np.sin(x - ph)]) * w).T

    box = np.array([[1e-12, 0.0, -np.inf], [np.inf, 1.0, np.inf]])
    off, v, ph = _fit_box(residuals, jacobian, np.array([c0, 1.0, phase0]), *box, y * w).tolist()
    return FringeFit(v, sigma, _phase(math.sin(ph), math.cos(ph)), off, True, visibility)


@dataclass(frozen=True)
class DipFit:
    amplitude: float
    depth: float
    depth_sigma: float
    center: float
    center_sigma: float
    fwhm: float
    fwhm_sigma: float


_FTOL = 1e-12
_XTOL = 1e-12
_MAX_TRIALS = 5000
_LN2X4 = 4.0 * math.log(2.0)


def _dip_residuals(x, y, w, p):
    """Weighted residuals of the dip model at p, and its Gaussian factor."""
    a, d, c, fw = p.tolist()
    # fw * fw, not fw**2: a float power raises OverflowError where numpy's is inf
    gauss = np.exp(-_LN2X4 * (x - c) ** 2 / (fw * fw))
    return (y - a * (1.0 - d * gauss)) * w, gauss


def _dip_jacobian(x, w, p, gauss):
    """d(residuals)/d(a, d, c, fw) at p, given the Gaussian factor there."""
    a, d, c, fw = p.tolist()
    u = (x - c) / fw
    slope = a * d * gauss * (2.0 * _LN2X4 / fw)
    return (np.array([d * gauss - 1.0, a * gauss, slope * u, slope * u * u]) * w).T


def _fit_box(residuals, jacobian, p, lo, hi, data):
    """Least-squares parameters inside the box [lo, hi], from p.

    residuals(p) gives the weighted residuals r and a by-product that
    jacobian(p, by-product) reuses for dr/dp.  A bounded Levenberg-Marquardt
    iteration (More, LNM 630, 1978): each trial solves the damped normal
    equations (J'J + lam D) s = -J'r, D = diag(J'J) (Marquardt's scaling),
    over the free parameters and projects p + s onto the box; a parameter
    on a bound that the gradient pushes outward is not free.  A trial is
    accepted only if it lowers the cost, and lam falls by 5 after an
    accepted trial and grows by 4 after a rejected one.  The fit stops once
    a trial's projected step is predicted to lower the cost by at most
    _FTOL of it, or has norm at most _XTOL (_XTOL + |p|), or fails to lower
    a cost at most the rounding floor of the weighted counts `data`: eps times
    the zero model's cost, residuals within sqrt(eps) of the data, all that
    normal equations, which square the residuals, resolve.  A non-finite
    cost or _MAX_TRIALS trials raise QRelayError.  Growing lam
    shrinks the step, but lam has no ceiling that stops the fit.
    """
    r, aux = residuals(p)
    cost = 0.5 * (r @ r)
    floor = 0.5 * _EPS * (data @ data)
    lam = 1.0
    moved = True
    for _ in range(_MAX_TRIALS):
        if moved:
            jac = jacobian(p, aux)
            grad = jac.T @ r
            jtj = jac.T @ jac
            free = ~(((p <= lo) & (grad > 0.0)) | ((p >= hi) & (grad < 0.0)))
            if not free.any():
                return p
            # each parameter in units of its column's norm, where D is the identity
            norms = np.sqrt(jtj.diagonal())
            norms[norms == 0.0] = 1.0
            scaled = jtj / np.multiply.outer(norms, norms)
            rhs = -grad / norms
            if not free.all():
                scaled, rhs, norms = scaled[np.ix_(free, free)], rhs[free], norms[free]
            moved = False
        damped = scaled.copy()
        damped.flat[:: norms.size + 1] += lam
        try:
            z = np.linalg.solve(damped, rhs)
        except np.linalg.LinAlgError:
            lam *= 4.0
            continue
        step = np.zeros(p.size)
        step[free] = z / norms
        trial = np.minimum(np.maximum(p + step, lo), hi)
        step = trial - p
        predicted = -(grad @ step) - 0.5 * (step @ jtj @ step)
        r_trial, aux_trial = residuals(trial)
        cost_trial = 0.5 * (r_trial @ r_trial)
        if not math.isfinite(cost_trial):
            raise QRelayError("fit cost is not finite")
        converged = (
            0.0 <= predicted <= _FTOL * cost
            or math.sqrt(step @ step) <= _XTOL * (_XTOL + math.sqrt(trial @ trial))
            or (cost_trial >= cost and cost <= floor)
        )
        if cost_trial < cost:
            p, r, aux, cost = trial, r_trial, aux_trial, cost_trial
            lam /= 5.0
            moved = True
        else:
            lam *= 4.0
        if converged:
            return p
    raise QRelayError(f"fit did not converge in {_MAX_TRIALS} trials")


def fit_dip(positions, counts) -> DipFit:
    """Fit counts = A (1 - D exp(-4 ln2 (x - x0)^2 / w^2)); w is the FWHM."""
    x = np.asarray(positions, dtype=float)
    y = np.asarray(counts, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("positions and counts must be equal-length 1-d arrays")
    if x.size < 5:
        raise QRelayError(f"need >= 5 points for a dip fit, got {x.size}")
    w = 1.0 / _sigmas(y)

    a0 = max(float(np.median(np.sort(y)[-max(3, x.size // 4):])), 1e-9)
    i_min = int(np.argmin(y))
    x0 = float(x[i_min])
    d0 = min(0.95, max(0.05, 1.0 - float(y[i_min]) / a0))
    span = float(x.max() - x.min())
    w0 = max(span / 8.0, 1e-6)

    p0 = np.array([a0, d0, x0, w0])
    # spans near the float range overflow the box or the model, before the
    # fit starts or at a trial, whose non-finite cost the fit then reports
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.array([1e-12, 0.0, x.min() - span, 1e-9])
        hi = np.array([np.inf, 1.0, x.max() + span, 10 * span + 1.0])
        start_finite = np.all(np.isfinite(_dip_residuals(x, y, w, p0)[0]))
        if not start_finite:
            raise QRelayError("dip fit residuals are not finite at the starting point")
        p = _fit_box(lambda p: _dip_residuals(x, y, w, p),
                     lambda p, gauss: _dip_jacobian(x, w, p, gauss), p0, lo, hi, y * w)
        jac = _dip_jacobian(x, w, p, _dip_residuals(x, y, w, p)[1])
    a, d, c, fw = p

    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.full((4, 4), np.nan)
    # a variance that is not > 0 is rounding, not certainty: NaN prints null
    var = np.diag(cov)
    sd = np.sqrt(np.where(var > 0, var, np.nan))
    return DipFit(a, d, sd[1], c, sd[2], abs(fw), sd[3])
