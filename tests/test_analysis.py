import math

import numpy as np
import pytest

from qrelay import analysis
from qrelay.analysis import (
    classify_visibility,
    fidelity_from_visibility,
    fit_dip,
    fit_fringe,
    net_visibility,
)
from qrelay.errors import ConfigError, QRelayError


def test_fidelity_arithmetic():
    assert abs(fidelity_from_visibility(0.46) - 0.73) < 1e-12
    assert abs(fidelity_from_visibility(0.87) - 0.935) < 1e-12
    assert fidelity_from_visibility(1.0) == 1.0
    assert fidelity_from_visibility(0.0) == 0.5


def test_classification_boundaries():
    assert classify_visibility(0.2) == "below_classical"
    assert classify_visibility(1.0 / 3.0) == "quantum"
    assert classify_visibility(0.5) == "quantum"
    assert classify_visibility(2.0 / 3.0) == "above_cloning"
    assert classify_visibility(0.9) == "above_cloning"
    assert classify_visibility(0.87) == "above_cloning"


def test_net_visibility():
    nv = net_visibility(0.46, 1000.0, 500.0)
    assert abs(nv.value - 0.92) < 1e-12
    assert not nv.capped
    capped = net_visibility(0.6, 1000.0, 500.0)
    assert capped.value == 1.0
    assert capped.capped
    with pytest.raises(ConfigError):
        net_visibility(0.5, 100.0, 100.0)
    with pytest.raises(ConfigError):
        net_visibility(0.5, 100.0, -1.0)
    # a mean above the background by rounding alone is no signal
    eps = np.finfo(float).eps
    with pytest.raises(ConfigError, match="only by rounding"):
        net_visibility(0.5, 100.0, 100.0 * (1.0 - 32 * eps))
    assert net_visibility(0.5, 100.0, 100.0 * (1.0 - 128 * eps)).capped


def test_fringe_fit_recovers_exact_data():
    x = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    y = 80.0 * (1.0 + 0.73 * np.cos(x - 1.1))
    fit = fit_fringe(x, y)
    assert abs(fit.visibility - 0.73) < 1e-9
    assert abs(fit.phase0 - 1.1) < 1e-9
    assert abs(fit.offset - 80.0) < 1e-7
    assert not fit.constrained


def test_fringe_fit_flat_data():
    x = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    fit = fit_fringe(x, np.full_like(x, 50.0))
    assert fit.visibility < 1e-9


def test_fringe_fit_coverage_under_poisson_noise():
    rng = np.random.default_rng(42)
    x = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    truth = 0.6
    hits = 0
    n = 1000
    for _ in range(n):
        y = rng.poisson(200.0 * (1.0 + truth * np.cos(x - 0.4)))
        fit = fit_fringe(x, y)
        if abs(fit.visibility - truth) <= 3.0 * fit.visibility_sigma:
            hits += 1
    assert hits >= 0.99 * n


def test_fringe_fit_phase_relabeling_invariance():
    # shifting every phase label moves phase0 by the same amount and
    # leaves the visibility untouched
    x = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    y = 80.0 * (1.0 + 0.73 * np.cos(x - 1.1))
    shift = 0.77
    fit0 = fit_fringe(x, y)
    fit1 = fit_fringe(x + shift, y)
    assert abs(fit1.visibility - fit0.visibility) < 1e-9
    delta = (fit1.phase0 - fit0.phase0 - shift) % (2 * math.pi)
    assert min(delta, 2 * math.pi - delta) < 1e-9


def test_fringe_fit_constrains_unphysical_visibility():
    x = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    y = np.maximum(10.0 * (1.0 + 1.5 * np.cos(x)), 0.0)
    fit = fit_fringe(x, y)
    assert fit.constrained
    assert 0.9 <= fit.visibility <= 1.0
    # the raw linear estimate is preserved for diagnostics
    assert fit.unconstrained_visibility > 1.0


@pytest.mark.parametrize("c2", [0.0, -0.0, 1e-300, -1e-300])
def test_fringe_at_pi_reports_minus_pi(monkeypatch, c2):
    # atan2 reads a fringe at pi as +pi or -pi by the sign of the sine
    # coefficient; phase0 lies in [-pi, pi) whatever that sign
    x = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    y = 80.0 * (1.0 - 0.5 * np.cos(x))
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: (np.array([80.0, -40.0, c2]),) * 4)
    assert fit_fringe(x, y).phase0 == -math.pi


@pytest.mark.parametrize("ph", [math.pi, -math.pi])
def test_constrained_fringe_at_pi_reports_minus_pi(monkeypatch, ph):
    x = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    y = np.maximum(10.0 * (1.0 - 1.5 * np.cos(x)), 0.0)
    monkeypatch.setattr(analysis, "_fit_box", lambda *a, **k: np.array([10.0, 1.0, ph]))
    fit = fit_fringe(x, y)
    assert fit.constrained
    assert fit.phase0 == -math.pi


def test_fringe_fit_rejects_too_few_points():
    with pytest.raises(QRelayError, match=r"need >= 4 points at >= 3 distinct phases, got 3 "):
        fit_fringe([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])
    # many samples at only two distinct phases cannot pin three parameters
    with pytest.raises(QRelayError, match=r"got 4 points at 2 distinct phases"):
        fit_fringe([0.0, math.pi, 0.0, math.pi], [1.0, 2.0, 1.0, 2.0])


def test_dip_fit_recovers_exact_data():
    x = np.linspace(-300, 300, 41)
    a, d, c, fw = 120.0, 1.0 / 3.0, 12.0, 144.0
    y = a * (1.0 - d * np.exp(-4 * math.log(2) * (x - c) ** 2 / fw**2))
    fit = fit_dip(x, y)
    assert abs(fit.amplitude - a) < 1e-6
    assert abs(fit.depth - d) < 1e-9
    assert abs(fit.center - c) < 1e-6
    assert abs(fit.fwhm - fw) < 1e-5


def test_undersampled_exact_dip_fit_ends_at_the_rounding_floor():
    # 7 points 300 um apart under a 129 um dip: the exact counts fit to a
    # vanishing cost along a valley of depths and widths, which the fit
    # once crawled down for 5000 trials; below the data's rounding floor a
    # trial that fails to lower the cost ends it
    x = np.linspace(-901.0, 901.0, 7)
    y = 3.75e5 * (1.0 - 0.409 * np.exp(-4 * math.log(2) * (x - 82.5) ** 2 / 128.9**2))
    fit = fit_dip(x, y)
    u = (x - fit.center) / fit.fwhm
    model = fit.amplitude * (1.0 - fit.depth * np.exp(-4 * math.log(2) * u * u))
    # weighted residuals within sqrt(eps) of the weighted counts
    r = (y - model) / np.sqrt(y)
    assert r @ r <= np.finfo(float).eps * y.sum()


def test_dip_fit_under_poisson_noise():
    rng = np.random.default_rng(7)
    x = np.linspace(-300, 300, 61)
    y = rng.poisson(400.0 * (1.0 - 0.33 * np.exp(-4 * math.log(2) * x**2 / 144.0**2)))
    fit = fit_dip(x, y)
    assert abs(fit.center) < 3 * fit.center_sigma + 5.0
    assert abs(fit.fwhm - 144.0) < 25.0
    assert abs(fit.depth - 0.33) < 0.05


def test_dip_fit_rejects_too_few_points():
    with pytest.raises(QRelayError, match=r"need >= 5 points for a dip fit, got 4"):
        fit_dip([0, 1, 2, 3], [1, 0.5, 0.4, 1])


def test_dip_fit_rejects_non_finite_start():
    # a starting width of span / 8 squares past the float range
    x = np.linspace(-1e155, 1e155, 5)
    with pytest.raises(QRelayError, match="dip fit residuals are not finite at the starting point"):
        fit_dip(x, [10.0, 10.0, 5.0, 10.0, 10.0])


@pytest.mark.parametrize("depth, rtol", [(1.0, 2e-11), (0.25, 1e-13)])
def test_dip_fit_holds_under_rounding_noise(depth, rtol):
    # exact dip data, then the same data with 2e-16 relative noise: the fit
    # converges far enough that the noise barely moves it; a full-depth dip
    # sits on the depth bound, where convergence is slowest
    x = np.linspace(-300.0, 300.0, 41)
    y = 1e7 * (1.0 - depth * np.exp(-4.0 * math.log(2.0) * x**2 / 144.0**2))
    base = fit_dip(x, y)
    assert abs(base.depth - depth) < 1e-10
    assert abs(base.fwhm - 144.0) < 1e-8
    assert abs(base.center) < 1e-9
    rng = np.random.default_rng(7)
    for _ in range(5):
        fit = fit_dip(x, y * (1.0 + 2e-16 * rng.standard_normal(x.size)))
        for name in ("amplitude", "depth", "fwhm"):
            assert abs(getattr(fit, name) / getattr(base, name) - 1.0) < rtol, name
        assert abs(fit.center - base.center) < 1e-9
