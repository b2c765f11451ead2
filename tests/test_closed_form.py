"""The teleport events and the dip's coincidences in closed form
(oracles.weighted, oracles.dip_coincidences) against the Fock engines and
against themselves.

Both sources are squeezers, so the probability that a set of detector
gates stays dark is one determinant at any pair number, and the accepted
events and coincidences follow by inclusion-exclusion over the click
gates.  The engines keep the pair branches up to MAX_PAIRS_EACH pairs in
total; under squeezer weights they miss exactly the dropped branches'
share, each a probability in [0, 1], so the closed form lies above them by
at most the dropped weight.

That bound is loose, so each pair-number branch is also checked on its
own: the closed form continued to complex squeezer parameters gives every
branch's normalized outcome from one contour (oracles.branch_outcomes),
and the Fock engine at K = 3 with all weight on that branch must match it
to rounding.  Plain parametrize, numpy alone.
"""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    branch_outcomes,
    closed_form_vacuum,
    dip_coincidences,
    dip_events,
    teleport_events,
    teleport_patterns,
    weighted,
)

from qrelay import scenarios
from qrelay.detection import CLOCK_WINDOW
from qrelay.scenarios import MANDEL_MODES, ExperimentConfig, TeleportEngine, build_ideal_config
from qrelay.sources import OverlapModel

CONFIGS = {
    "default": {},
    "mean-0.13-heralded": {"pair_mean_alice": 0.13, "pair_mean_epr": 0.13, "heralded": True},
    "symmetric-dark-bob": {"symmetric_bsa": True, "dark_bob": 3e-4},
    "mismatch-60-pump-0.7-lossless": {"delta_x_um": 60.0, "phase_pump": 0.7,
                                      "alice_encoder": "lossless"},
}

# (config, model): the closed-form acceptance at phi_b = 0, as first
# recorded; the alternating sums round at up to about 1e-8 relative
# between summation orders, and this one agrees within 1e-10
RECORDED_ACCEPTANCE = {
    ("default", "total"): 2.4138624923818387e-05,
    ("default", "two"): 2.315844227407382e-05,
    ("mean-0.13-heralded", "total"): 2.634078997333691e-06,
    ("mean-0.13-heralded", "two"): 2.595706939723108e-06,
}
RECORDED_RTOL = 1e-9


def _darks(cfg):
    return [det.dark_prob for det in scenarios._detectors(cfg)]


def _squeezer_parameters(cfg, relay_bins=2):
    """(xa, y): Alice's thermal parameter, and that of each of the relay's
    `relay_bins` squeezers, which share its mean."""
    return (cfg.pair_mean_alice / (1.0 + cfg.pair_mean_alice),
            cfg.pair_mean_epr / (relay_bins + cfg.pair_mean_epr))


def _squeezer_weights(cfg, blocked="none", relay_bins=2):
    """(weights over the kept branches, normalized; their kept sum): Alice
    thermal, the relay C(n + m - 1, n)(1 - y)^m y^n on its total n over
    m = relay_bins squeezers, a blocked source's parameter 0."""
    xa, y = _squeezer_parameters(cfg, relay_bins)
    xa = 0.0 if blocked in ("alice", "both") else xa
    y = 0.0 if blocked in ("epr", "both") else y
    raw = {(na, nc): (1.0 - xa) * xa**na
           * math.comb(nc + relay_bins - 1, nc) * (1.0 - y) ** relay_bins * y**nc
           for na, nc in scenarios.pair_branches()}
    kept = sum(raw.values())
    return {branch: w / kept for branch, w in raw.items()}, kept


@pytest.mark.parametrize("case, model", sorted(RECORDED_ACCEPTANCE))
def test_closed_form_acceptance_matches_the_recorded_values(case, model):
    cfg = ExperimentConfig(**CONFIGS[case])
    got = weighted(cfg, 0.0, _darks(cfg), model)[0]
    assert got == pytest.approx(RECORDED_ACCEPTANCE[(case, model)], rel=RECORDED_RTOL)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_fock_engine_lies_below_the_closed_form_by_at_most_the_dropped_weight(
        monkeypatch, case, k):
    cfg = ExperimentConfig(**CONFIGS[case])
    monkeypatch.setattr(scenarios, "MAX_PAIRS_EACH", k)
    monkeypatch.setattr(scenarios, "branch_weights",
                        lambda config, blocked="none": _squeezer_weights(config, blocked)[0])
    kept = _squeezer_weights(cfg)[1]
    engine = TeleportEngine(cfg)
    for phi_b in (0.3, math.pi):
        exact = weighted(cfg, phi_b, engine.darks, "two")
        fock = kept * np.array([engine.acceptance(), engine.scan([phi_b])[0]])
        assert np.all(exact - fock >= 0.0), (phi_b, exact, fock)
        assert np.all(exact - fock <= 1.0 - kept), (phi_b, exact, fock, kept)


@pytest.mark.parametrize("case", ["default", "mean-0.13-heralded", "symmetric-dark-bob"])
def test_closed_form_acceptance_does_not_depend_on_the_analyzer_phase(case):
    # its gate sets hold no gate of Bob's, and the analyzer leaves every
    # other column of T as it is
    cfg = ExperimentConfig(**CONFIGS[case])
    darks = _darks(cfg)
    assert len({weighted(cfg, phi_b, darks, "total")[0] for phi_b in (0.0, 0.3, 1.7, math.pi)}) == 1


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_vacuum_probabilities_shrink_as_gates_are_added(case):
    cfg = ExperimentConfig(**CONFIGS[case])
    q = closed_form_vacuum(cfg, 0.3, *_squeezer_parameters(cfg))
    assert abs(q(()) - 1.0) <= 1e-15
    gates = [(c, b) for c in range(len(_darks(cfg))) for b in CLOCK_WINDOW]
    for r in range(3):
        for smaller in itertools.combinations(gates, r):
            q_smaller = q(smaller)
            for g in set(gates) - set(smaller):
                # a rounding allowance of a few units in the last place
                assert q(smaller + (g,)) <= q_smaller + 1e-15, (smaller, g)


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_pattern_probabilities_lie_in_the_unit_interval(case):
    cfg = ExperimentConfig(**CONFIGS[case])
    for phi_b in (0.0, 0.3, math.pi):
        p = teleport_patterns(cfg, phi_b, *_squeezer_parameters(cfg), _darks(cfg))
        assert np.all((p >= 0.0) & (p <= 1.0)), (phi_b, p)


DIP_CONFIGS = {
    "default": {},
    "loss-1-mandel-0.4-pump-0.3": {"loss_alice_db": 1.0, "mandel_phase": 0.4, "phase_pump": 0.3},
    "means-0.05-0.15-dark-ge": {"pair_mean_alice": 0.05, "pair_mean_epr": 0.15, "dark_ge": 3e-4},
}

# the exact depth 1 - P(xi = 1)/P(xi = 0) of the short bin's coincidences
# at the defaults, under the package's source, as first recorded; 8 and 16
# quadrature nodes give the same digits (the K = 2 engine: 0.251321 and
# 0.294560)
RECORDED_DIP_DEPTH = {"symmetric": 0.240062, "entangled": 0.294604}


@pytest.mark.parametrize("mode", MANDEL_MODES)
def test_closed_form_dip_depth_matches_the_recorded_value(mode):
    cfg = ExperimentConfig(mandel_mode=mode)
    matched, unmatched = (dip_coincidences(cfg, xi, "total")[0] for xi in (1.0, 0.0))
    assert abs(1.0 - matched / unmatched - RECORDED_DIP_DEPTH[mode]) <= 1e-6


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(DIP_CONFIGS))
@pytest.mark.parametrize("mode", MANDEL_MODES)
def test_dip_engine_lies_below_the_closed_form_by_at_most_the_dropped_weight(
        monkeypatch, mode, case, k):
    # the relay is one squeezer in symmetric mode, two in entangled mode
    cfg = ExperimentConfig(mandel_mode=mode, **DIP_CONFIGS[case])
    relay_bins = len(scenarios._dip_circuit(cfg)[1])
    monkeypatch.setattr(scenarios, "MAX_PAIRS_EACH", k)
    weights, kept = _squeezer_weights(cfg, relay_bins=relay_bins)
    monkeypatch.setattr(scenarios, "branch_weights", lambda config, blocked="none": weights)
    # xi^2 = 1, 1/2 and 0
    mismatches = [0.0, cfg.dip_fwhm_um / 2.0, math.inf]
    fock = kept * scenarios._MandelEngine(cfg).scan(mismatches)
    overlap = OverlapModel(cfg.dip_fwhm_um)
    for x, bins in zip(mismatches, fock.T):
        exact = dip_coincidences(cfg, float(overlap.xi(x)), "two")
        assert np.all(exact - bins >= 0.0), (x, exact, bins)
        assert np.all(exact - bins <= 1.0 - kept), (x, exact, bins, kept)


# the per-branch contour: aliasing leaves radius^points, 2e-17, and the
# FFT's rounding, about eps at radius 1, grows as radius^-(na + nc)
BRANCH_RADIUS = 0.3
BRANCH_POINTS = 32
BRANCH_K = 3
BRANCHES = [(na, nc) for na in range(BRANCH_K + 1) for nc in range(BRANCH_K + 1 - na)]
BRANCH_IDS = [f"na{na}-nc{nc}" for na, nc in BRANCHES]
DIP_MISMATCHES = (0.0, 72.0)
TELEPORT_PHASE = 0.3


def _branch_atol(branch):
    """The per-branch tolerance: 64 eps at radius 1 (the largest gap seen
    over these cases is 2.6e-16), scaled by radius^-(na + nc)."""
    return 64 * np.finfo(float).eps / BRANCH_RADIUS ** sum(branch)


def _on_one_branch(monkeypatch, branch):
    monkeypatch.setattr(scenarios, "MAX_PAIRS_EACH", BRANCH_K)
    monkeypatch.setattr(scenarios, "branch_weights", lambda config, blocked="none": {branch: 1.0})


@functools.lru_cache(maxsize=None)
def _dip_branches(mode, case, mismatch, xi_scale=1.0):
    cfg = ExperimentConfig(mandel_mode=mode, **DIP_CONFIGS[case])
    xi = float(OverlapModel(cfg.dip_fwhm_um).xi(mismatch)) * xi_scale
    return branch_outcomes(*dip_events(cfg, xi), BRANCH_K, BRANCH_RADIUS, BRANCH_POINTS)


@functools.lru_cache(maxsize=None)
def _teleport_branches(case):
    cfg = ExperimentConfig(**CONFIGS[case])
    return branch_outcomes(lambda xa, y: teleport_events(cfg, TELEPORT_PHASE, xa, y, _darks(cfg)),
                           2, BRANCH_K, BRANCH_RADIUS, BRANCH_POINTS)


@pytest.mark.parametrize("branch", BRANCHES, ids=BRANCH_IDS)
@pytest.mark.parametrize("case", ["default", "loss-1-mandel-0.4-pump-0.3"])
@pytest.mark.parametrize("mode", MANDEL_MODES)
def test_dip_branch_matches_the_closed_form(monkeypatch, mode, case, branch):
    _on_one_branch(monkeypatch, branch)
    cfg = ExperimentConfig(mandel_mode=mode, **DIP_CONFIGS[case])
    fock = scenarios._MandelEngine(cfg).scan(DIP_MISMATCHES)
    for x, bins in zip(DIP_MISMATCHES, fock.T):
        exact = _dip_branches(mode, case, x)[branch]
        assert np.all(np.abs(exact - bins) <= _branch_atol(branch)), (x, exact, bins)


@pytest.mark.parametrize("branch", BRANCHES, ids=BRANCH_IDS)
@pytest.mark.parametrize("case", ["default", "mean-0.13-heralded"])
def test_teleport_branch_matches_the_closed_form(monkeypatch, case, branch):
    _on_one_branch(monkeypatch, branch)
    engine = TeleportEngine(ExperimentConfig(**CONFIGS[case]))
    fock = np.array([engine.acceptance(), engine.scan([TELEPORT_PHASE])[0]])
    exact = _teleport_branches(case)[branch]
    assert np.all(np.abs(exact - fock) <= _branch_atol(branch)), (exact, fock)


@pytest.mark.parametrize("mode", MANDEL_MODES)
def test_branch_comparison_catches_an_overlap_one_percent_low(monkeypatch, mode):
    # the dip sandwich above still holds with xi 1 % low in the closed form
    cfg = ExperimentConfig(mandel_mode=mode)
    low = _dip_branches(mode, "default", 0.0, 0.99)
    missed = []
    for branch in BRANCHES:
        _on_one_branch(monkeypatch, branch)
        bins = scenarios._MandelEngine(cfg).scan([0.0])[:, 0]
        missed.append(np.all(np.abs(low[branch] - bins) <= _branch_atol(branch)))
    assert not all(missed)


@pytest.mark.parametrize("mode", MANDEL_MODES)
def test_ideal_single_pair_dip_null_in_closed_form(mode):
    # criterion 01's null on build_ideal_config, whose weight sits on
    # branch (1, 1), from the contour instead of the Fock engine
    cfg = replace(build_ideal_config(), mandel_mode=mode)
    null = branch_outcomes(*dip_events(cfg, 1.0), BRANCH_K, BRANCH_RADIUS, BRANCH_POINTS)[(1, 1)]
    assert np.all(np.abs(null) < 1e-12), null
