"""Property tests: the dip fit's bounded Levenberg-Marquardt iteration
against scipy's trf fit of the same model in tests/oracles.py, and its
analytic Jacobian against central differences."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import fit_dip_scipy  # noqa: E402
from qrelay.analysis import _dip_jacobian, _dip_residuals, fit_dip  # noqa: E402
from qrelay.scenarios import MANDEL_MODES, ExperimentConfig, mismatch_grid, run_mandel_scan  # noqa: E402

PROPERTY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# relative cost excess, parameter and sigma agreement, center agreement in um
COST_RTOL = 1e-12
EPS = np.finfo(float).eps
RTOL = 1e-6
CENTER_ATOL = 1e-4
# the two fits stop up to sqrt(2e-12 cost) sigmas apart, so agreement to
# RTOL needs every parameter pinned to this relative sigma
PINNED = 0.02


@hs.composite
def dips(draw):
    """(kind, positions, counts): analytic and Monte-Carlo dip scans of
    either mandel mode, and exact Gaussians of depth 1 and 0.25.

    The grid spans at least one FWHM each side and spaces its 5-60 points
    at most half a FWHM apart: a coarser grid leaves the four parameters
    undetermined, so two fits may stop anywhere along a valley of equal
    cost.
    """
    kind = draw(hs.sampled_from(("analytic", "montecarlo", "gauss-1", "gauss-0.25")))
    fwhm = draw(hs.floats(50.0, 300.0))
    points = draw(hs.integers(5, 60))
    span = draw(hs.floats(max(50.0, fwhm), max(fwhm, min(3000.0, fwhm * (points - 1) / 4))))
    xs = mismatch_grid(points, span)
    if kind.startswith("gauss"):
        depth = float(kind.split("-")[1])
        center = draw(hs.floats(-span / 4, span / 4))
        amplitude = draw(hs.floats(10.0, 1e7))
        return kind, xs, amplitude * (1.0 - depth * np.exp(-4.0 * math.log(2.0) * (xs - center) ** 2 / fwhm**2))
    cfg = ExperimentConfig(
        mode=kind,
        mandel_mode=draw(hs.sampled_from(MANDEL_MODES)),
        mandel_phase=draw(hs.floats(0.0, 2.0 * math.pi)),
        pair_mean_alice=draw(hs.floats(0.02, 0.3)),
        pair_mean_epr=draw(hs.floats(0.02, 0.3)),
        loss_alice_db=draw(hs.floats(0.0, 6.0)),
        loss_epr_db=draw(hs.floats(0.0, 6.0)),
        dip_fwhm_um=fwhm,
        trials=draw(hs.integers(10**10, 10**12)),
        seed=draw(hs.integers(0, 2**32)),
        tail_tol=0.5,
    )
    short, long_ = run_mandel_scan(cfg, xs)
    return kind, xs, draw(hs.sampled_from((short.counts, long_.counts)))


def _cost(fit, xs, counts):
    p = np.array([fit.amplitude, fit.depth, fit.center, fit.fwhm])
    r = _dip_residuals(xs, counts, _weights(counts), p)[0]
    return 0.5 * (r @ r)


def _weights(counts):
    return 1.0 / np.sqrt(np.maximum(counts, 1.0))


@PROPERTY_SETTINGS
@given(dips())
def test_dip_fit_matches_the_trf_oracle(case):
    kind, xs, counts = case
    fit = fit_dip(xs, counts)
    p = np.array([fit.amplitude, fit.depth, fit.center, fit.fwhm])
    span = xs[-1] - xs[0]
    assert 0.0 < fit.amplitude and 0.0 <= fit.depth <= 1.0
    assert xs[0] - span <= fit.center <= xs[-1] + span and 0.0 < fit.fwhm <= 10 * span + 1
    if np.any(counts < 1.0) and np.any(counts > 1.0):
        # a count below 1 weighs 1 against 1/sqrt(count) elsewhere, and on an
        # exact depth-1 dip through a grid point both fits can stop in a
        # spike of zero width or short of the minimum, each where the other
        # does not: there is no common fit to compare
        return
    oracle = fit_dip_scipy(xs, counts)
    values = np.array([oracle.amplitude, oracle.depth, oracle.fwhm])
    sigmas = np.array([oracle.depth_sigma, oracle.center_sigma, oracle.fwhm_sigma])
    if kind == "montecarlo":
        # counts that do not pin the dip down leave no unique fit to agree on
        assume(np.all(sigmas[[0, 2]] <= PINNED * values[1:]))

    # each residual r carries rounding of a few eps of y / sigma, so a cost
    # carries about eps |r| |y / sigma|, and an exact dip's cost is rounding
    scale = np.sum((counts * _weights(counts)) ** 2)
    oracle_cost = _cost(oracle, xs, counts)
    rounding = 64 * EPS * math.sqrt(2.0 * oracle_cost * scale) + (64 * EPS) ** 2 * scale
    assert _cost(fit, xs, counts) <= oracle_cost * (1.0 + COST_RTOL) + rounding
    assert np.all(np.abs(p[[0, 1, 3]] - values) <= RTOL * values)
    assert abs(fit.center - oracle.center) <= CENTER_ATOL
    got_sigmas = np.array([fit.depth_sigma, fit.center_sigma, fit.fwhm_sigma])
    assert np.all(np.abs(got_sigmas - sigmas) <= RTOL * sigmas)


@hs.composite
def box_points(draw):
    """(positions, counts, p): a dip inside the fit's box whose FWHM spans
    at least one grid step, so some point sits on its slope, and counts on
    the scale of its amplitude."""
    points = draw(hs.integers(5, 60))
    span = draw(hs.floats(50.0, 3000.0))
    xs = mismatch_grid(points, span)
    a = draw(hs.floats(1e-3, 1e7))
    p = np.array([
        a,
        draw(hs.floats(0.01, 1.0)),
        draw(hs.floats(-span, span)),
        draw(hs.floats(xs[1] - xs[0], 2.0 * span)),
    ])
    return xs, a * draw(hs.floats(0.0, 2.0)) * np.ones(points), p


@PROPERTY_SETTINGS
@given(box_points())
def test_dip_jacobian_matches_central_differences(case):
    xs, counts, p = case
    w = _weights(counts)
    jac = _dip_jacobian(xs, w, p, _dip_residuals(xs, counts, w, p)[1])
    central = np.empty_like(jac)
    for i, h in enumerate(1e-5 * np.array([p[0], 1.0, p[3], p[3]])):
        step = np.zeros(4)
        step[i] = h
        up = _dip_residuals(xs, counts, w, p + step)[0]
        down = _dip_residuals(xs, counts, w, p - step)[0]
        central[:, i] = (up - down) / (2.0 * h)
    scale = np.abs(jac).max(axis=0)
    assert np.all(np.abs(jac - central).max(axis=0) <= 1e-6 * scale)


def test_dip_fit_holds_the_depth_on_its_bound():
    # counts clipped at 0 under a dip 1.1 deep: the best unbounded depth
    # passes 1, so the bounded fit must stop on the bound, as trf does
    xs = np.linspace(-300.0, 300.0, 41)
    counts = np.maximum(0.0, 1e4 * (1.0 - 1.1 * np.exp(-4.0 * math.log(2.0) * xs**2 / 144.0**2)))
    fit, oracle = fit_dip(xs, counts), fit_dip_scipy(xs, counts)
    assert fit.depth == 1.0
    assert _cost(fit, xs, counts) <= _cost(oracle, xs, counts)
    assert abs(fit.fwhm / oracle.fwhm - 1.0) <= RTOL
    assert abs(fit.amplitude / oracle.amplitude - 1.0) <= RTOL
