import math

import numpy as np
import pytest

from oracles import occupation_distribution
from qrelay.errors import RegistryMismatchError, UnnormalizedStateError
from qrelay.fock import (
    FockState,
    ModeKey,
    ModeRegistry,
    apply_creation,
    occupation_matrix,
    vacuum,
)
from qrelay.optics import Circuit, apply


def _transform(state, modes, u):
    circ = Circuit(state.registry)
    circ.add_unitary(modes, u)
    return apply(circ, state)


def _random_unitary(rng, k):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _two_mode_registry():
    reg = ModeRegistry(max_bins=1)
    a = ModeKey("a", 0)
    b = ModeKey("b", 0)
    reg.add(a)
    reg.add(b)
    return reg, a, b


def _random_state(reg, rng, n_terms=6, max_occ=2):
    terms = {}
    for _ in range(n_terms):
        occ = bytes(int(rng.integers(0, max_occ + 1)) for _ in range(len(reg)))
        terms[occ] = complex(rng.normal(), rng.normal())
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return FockState(reg, {k: v / norm for k, v in terms.items()})


def test_registry_add_is_idempotent():
    reg, a, b = _two_mode_registry()
    assert reg.add(a) == 0
    assert reg.index(b) == 1
    assert len(reg) == 2


def test_registry_rejects_unknown_mode():
    reg, a, _ = _two_mode_registry()
    with pytest.raises(RegistryMismatchError):
        reg.index(ModeKey("c", 0))
    with pytest.raises(RegistryMismatchError):
        reg.add(ModeKey("a", 5))  # past max_bins


def test_creation_operator_weights():
    reg, a, _ = _two_mode_registry()
    st = apply_creation(vacuum(reg), a)
    st = apply_creation(st, a)
    # (a+)^2 |0> = sqrt(2) |2>
    assert abs(st.amplitude([2, 0]) - math.sqrt(2.0)) < 1e-12
    assert abs(st.normalize().norm_sq() - 1.0) < 1e-12


def test_two_photon_interference_matches_permanent_oracle():
    # Independent oracle for |1,1> through any 2x2 unitary:
    #   amp(2,0) = sqrt(2) u00 u10
    #   amp(1,1) = u00 u11 + u01 u10
    #   amp(0,2) = sqrt(2) u01 u11
    rng = np.random.default_rng(7)
    reg, a, b = _two_mode_registry()
    st0 = apply_creation(apply_creation(vacuum(reg), a), b)
    for _ in range(20):
        u = _random_unitary(rng, 2)
        st = _transform(st0, [a, b], u)
        assert abs(st.amplitude([2, 0]) - math.sqrt(2) * u[0, 0] * u[1, 0]) < 1e-12
        assert abs(st.amplitude([1, 1]) - (u[0, 0] * u[1, 1] + u[0, 1] * u[1, 0])) < 1e-12
        assert abs(st.amplitude([0, 2]) - math.sqrt(2) * u[0, 1] * u[1, 1]) < 1e-12


def test_balanced_splitter_cancels_coincidences():
    reg, a, b = _two_mode_registry()
    st = apply_creation(apply_creation(vacuum(reg), a), b)
    u = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    dist = occupation_distribution(_transform(st, [a, b], u))
    assert dist.get((1, 1), 0.0) < 1e-24
    assert abs(dist[(2, 0)] - 0.5) < 1e-12
    assert abs(dist[(0, 2)] - 0.5) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
def test_unitaries_preserve_norm(k):
    rng = np.random.default_rng(100 + k)
    reg = ModeRegistry(max_bins=2)
    modes = []
    for s in ("a", "b", "c", "d")[:k]:
        m = ModeKey(s, 0)
        reg.add(m)
        reg.add(ModeKey(s, 1))  # spectator bins stay untouched
        modes.append(m)
    for _ in range(5):
        st = _random_state(reg, rng)
        u = _random_unitary(rng, k)
        out = _transform(st, modes, u)
        assert abs(out.norm_sq() - 1.0) < 1e-10


def test_transform_composition_law():
    rng = np.random.default_rng(11)
    reg, a, b = _two_mode_registry()
    st = _random_state(reg, rng)
    u = _random_unitary(rng, 2)
    v = _random_unitary(rng, 2)
    seq = _transform(_transform(st, [a, b], u), [a, b], v)
    # row-is-input convention: applying u then v composes as u @ v
    combined = _transform(st, [a, b], u @ v)
    diff = 0.0
    for occ, amp in seq.terms.items():
        diff = max(diff, abs(amp - combined.terms.get(occ, 0.0)))
    for occ, amp in combined.terms.items():
        diff = max(diff, abs(amp - seq.terms.get(occ, 0.0)))
    assert diff < 1e-9


def test_transform_conserves_photon_number():
    rng = np.random.default_rng(13)
    reg, a, b = _two_mode_registry()
    st = apply_creation(apply_creation(vacuum(reg), a), a)
    out = _transform(st, [a, b], _random_unitary(rng, 2))
    for occ in out.terms:
        assert sum(occ) == 2


def test_transform_checks_matrix_shape():
    reg, a, b = _two_mode_registry()
    st = vacuum(reg)
    with pytest.raises(Exception):
        _transform(st, [a, b], np.eye(3))
    with pytest.raises(Exception):
        _transform(st, [a, a], np.eye(2))


def test_occupation_distribution_requires_normalization():
    reg, a, _ = _two_mode_registry()
    st = FockState(reg, {bytes([1, 0]): 0.5 + 0j})
    with pytest.raises(UnnormalizedStateError):
        occupation_distribution(st)
    dist = occupation_distribution(st.normalize())
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_prune_drops_negligible_terms():
    reg, a, _ = _two_mode_registry()
    st = FockState(reg, {bytes([1, 0]): 1.0 + 0j, bytes([0, 1]): 1e-17 + 0j})
    assert len(st.prune()) == 1


def test_occupation_matrix_and_bin_indicator():
    reg = ModeRegistry(max_bins=2)
    reg.add_channel("a", (0, 1))
    st = apply_creation(vacuum(reg), ModeKey("a", 1, 1))
    assert occupation_matrix(st).tolist() == [[0, 0, 0, 1]]
    # internal labels sum into one gate per (channel, bin)
    assert (occupation_matrix(st) @ reg.bin_indicator(("a",))).tolist() == [[0, 1]]
    # a mode registered later resizes the indicator but leaves old keys short
    reg.add_channel("b")
    assert reg.bin_indicator(("b", "a")).shape == (6, 4)
    with pytest.raises(RegistryMismatchError):
        occupation_matrix(st)
