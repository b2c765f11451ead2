import math
import warnings

import numpy as np
import pytest

from oracles import amplitude
from qrelay import scenarios
from qrelay.errors import QRelayError
from qrelay.fock import ModeKey
from qrelay.sources import OverlapModel, entangled_pairs, pair_count_distribution


def test_thermal_distribution_values():
    p = pair_count_distribution(0.07, 3, tail_tol=1e-4)
    assert abs(p[0] - 0.9345794392523364) < 1e-12
    assert abs(p[1] - 0.06114071097912482) < 1e-12
    assert abs(p[2] - 0.003999859596765175) < 1e-12
    # geometric law: P1^2 = P0 P2, which pins coincidence backgrounds
    assert abs(p[1] ** 2 - p[0] * p[2]) < 1e-15


def test_tail_mass_guard():
    with pytest.raises(QRelayError, match="discarded pair-number tail .* exceeds 1.0e-04"):
        pair_count_distribution(0.19, 2, tail_tol=1e-4)
    p = pair_count_distribution(0.19, 2, tail_tol=5e-3)
    assert p.sum() < 1.0


def test_tail_check_holds_where_the_terms_overflow():
    # mu**n overflows: the check must neither pass on a NaN tail nor warn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(QRelayError, match=r"tail 1\.000e\+00 exceeds"):
            pair_count_distribution(1e300, 2, tail_tol=5e-3)
    assert [str(w.message) for w in caught] == []


def test_overlap_width():
    m = OverlapModel(fwhm_um=144.0)
    assert m.xi(0.0) == 1.0
    # dip runs on xi^2, so half depth sits at +-fwhm/2
    assert abs(m.xi(72.0) ** 2 - 0.5) < 1e-12
    assert abs(m.xi(-72.0) ** 2 - 0.5) < 1e-12


def test_single_bin_pair_emission():
    # Alice's one-pair component: one signal photon in label 0 and one
    # herald photon, both in bin 0, with amplitude 1
    reg = scenarios._relay_registry()
    st = scenarios._branch_mixture(reg, [(1, 1, 0)], (0, 1), 0.0)
    occ = [0] * len(reg)
    occ[reg.index(ModeKey(scenarios.ALICE_QUBIT, 0, 0))] = 1
    occ[reg.index(ModeKey(scenarios.ALICE_HERALD, 0))] = 1
    assert len(st) == 1
    assert abs(amplitude(st, occ) - 1.0) < 1e-12


def test_single_bin_internal_split_is_binomial():
    xi = 0.8
    dist = scenarios._overlap_weights([(2, j, 0) for j in range(3)], xi**2)
    assert abs(dist[2] - xi**4) < 1e-12
    assert abs(dist[1] - 2 * xi**2 * (1 - xi**2)) < 1e-12
    assert abs(dist[0] - (1 - xi**2) ** 2) < 1e-12
    # every branch's weights sum to 1 over the matched photons
    components = scenarios._components([(na, 1) for na in range(5)])
    na = np.array([c[0] for c in components])
    for s in (0.0, 0.3, 0.5, 1.0):
        weights = scenarios._overlap_weights(components, s)
        for n in range(5):
            assert abs(weights[na == n].sum() - 1.0) <= 1e-15


def test_entangled_emission_single_pair():
    phase = 0.6
    pairs, amps = entangled_pairs(1, 2, phase)
    assert pairs.tolist() == [[1, 0], [0, 1]]
    assert abs(amps[0] - 1 / math.sqrt(2)) < 1e-12
    assert abs(amps[1] - np.exp(1j * phase) / math.sqrt(2)) < 1e-12


def test_entangled_emission_two_pairs_is_flat():
    # (sum_t s_t i_t)^2 |0> has equal weight on its three occupation patterns
    pairs, amps = entangled_pairs(2, 2, 0.0)
    assert sorted(pairs[:, 0].tolist()) == [0, 1, 2]
    np.testing.assert_allclose(np.abs(amps) ** 2, 1.0 / 3.0, rtol=0, atol=1e-12)


def test_zero_pairs_is_identity():
    for n_bins in (1, 2):
        pairs, amps = entangled_pairs(0, n_bins, 0.9)
        assert pairs.tolist() == [[0] * n_bins]
        assert amps.tolist() == [1.0]
