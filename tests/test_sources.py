import math
import warnings

import numpy as np
import pytest

from oracles import amplitude, occupation_distribution
from qrelay.errors import TailMassError
from qrelay.fock import ModeKey, ModeRegistry, vacuum
from qrelay.sources import (
    OverlapModel,
    emit_pairs_entangled,
    emit_pairs_single_bin,
    pair_count_distribution,
)


def _pair_registry(internals=(0,)):
    reg = ModeRegistry(max_bins=2)
    reg.add_channel("sig", internals=internals)
    reg.add_channel("idl")
    return reg


def test_thermal_distribution_values():
    p = pair_count_distribution(0.07, "thermal", 3)
    assert abs(p[0] - 0.9345794392523364) < 1e-12
    assert abs(p[1] - 0.06114071097912482) < 1e-12
    assert abs(p[2] - 0.003999859596765175) < 1e-12
    # geometric law: P1^2 = P0 P2, which pins coincidence backgrounds
    assert abs(p[1] ** 2 - p[0] * p[2]) < 1e-15


def test_poissonian_distribution_values():
    p = pair_count_distribution(0.07, "poissonian", 3)
    assert abs(p[1] / p[0] - 0.07) < 1e-12
    assert abs(p[2] / p[1] - 0.035) < 1e-12


def test_tail_mass_guard():
    with pytest.raises(TailMassError):
        pair_count_distribution(0.19, "thermal", 2)
    p = pair_count_distribution(0.19, "thermal", 2, tail_tol=5e-3)
    assert p.sum() < 1.0


@pytest.mark.parametrize("statistics, mean", [("poissonian", 1e200), ("thermal", 1e300)])
def test_tail_check_holds_where_the_terms_overflow(statistics, mean):
    # mu**n overflows: the check must neither pass on a NaN tail nor warn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TailMassError, match=r"tail 1\.000e\+00 exceeds"):
            pair_count_distribution(mean, statistics, 2, tail_tol=5e-3)
    assert [str(w.message) for w in caught] == []


def test_overlap_width():
    m = OverlapModel(fwhm_um=144.0)
    assert m.xi(0.0) == 1.0
    # dip runs on xi^2, so half depth sits at +-fwhm/2
    assert abs(m.xi(72.0) ** 2 - 0.5) < 1e-12
    assert abs(m.xi(-72.0) ** 2 - 0.5) < 1e-12


def test_single_bin_pair_emission():
    reg = _pair_registry()
    st = emit_pairs_single_bin(vacuum(reg), "sig", "idl", 1)
    occ = [0] * len(reg)
    occ[reg.index(ModeKey("sig", 0, 0))] = 1
    occ[reg.index(ModeKey("idl", 0, 0))] = 1
    assert abs(amplitude(st, occ) - 1.0) < 1e-12


def test_single_bin_internal_split_is_binomial():
    xi = 0.8
    reg = _pair_registry(internals=(0, 1))
    st = emit_pairs_single_bin(vacuum(reg), "sig", "idl", 2, xi=xi)
    i0 = reg.index(ModeKey("sig", 0, 0))
    dist = {}
    for occ, p in occupation_distribution(st).items():
        dist[occ[i0]] = dist.get(occ[i0], 0.0) + p
    assert abs(dist[2] - xi**4) < 1e-12
    assert abs(dist[1] - 2 * xi**2 * (1 - xi**2)) < 1e-12
    assert abs(dist[0] - (1 - xi**2) ** 2) < 1e-12


def test_entangled_emission_single_pair():
    phase = 0.6
    reg = _pair_registry()
    st = emit_pairs_entangled(vacuum(reg), "sig", "idl", 1, phase=phase)

    def amp(t):
        occ = [0] * len(reg)
        occ[reg.index(ModeKey("sig", t, 0))] = 1
        occ[reg.index(ModeKey("idl", t, 0))] = 1
        return amplitude(st, occ)

    assert abs(amp(0) - 1 / math.sqrt(2)) < 1e-12
    assert abs(amp(1) - np.exp(1j * phase) / math.sqrt(2)) < 1e-12


def test_entangled_emission_two_pairs_is_flat():
    # (sum_t s_t i_t)^2 |0> has equal weight on its three occupation patterns
    reg = _pair_registry()
    st = emit_pairs_entangled(vacuum(reg), "sig", "idl", 2)
    i_sig0 = reg.index(ModeKey("sig", 0, 0))
    marg = {}
    for occ, p in occupation_distribution(st).items():
        marg[occ[i_sig0]] = marg.get(occ[i_sig0], 0.0) + p
    for k in (0, 1, 2):
        assert abs(marg[k] - 1.0 / 3.0) < 1e-12


def test_zero_pairs_is_identity():
    reg = _pair_registry()
    st = vacuum(reg)
    assert emit_pairs_single_bin(st, "sig", "idl", 0) is st
    assert emit_pairs_entangled(st, "sig", "idl", 0) is st
