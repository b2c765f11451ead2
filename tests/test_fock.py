import math

import numpy as np
import pytest

from oracles import (
    amplitude,
    apply_creation,
    from_terms,
    norm_sq,
    normalized,
    occupation_distribution,
    terms,
    vacuum,
)
from qrelay.errors import QRelayError
from qrelay.fock import FockState, ModeKey, ModeRegistry, multisets
from qrelay.optics import Circuit, apply


def _transform(state, modes, u):
    circ = Circuit(state.registry)
    circ.add_unitary(modes, u)
    return apply(circ.transfer(), state)


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
    start = {}
    for _ in range(n_terms):
        occ = bytes(int(rng.integers(0, max_occ + 1)) for _ in range(len(reg)))
        start[occ] = complex(rng.normal(), rng.normal())
    return normalized(from_terms(reg, start))


def test_registry_add_is_idempotent():
    reg, a, b = _two_mode_registry()
    assert reg.add(a) == 0
    assert reg.index(b) == 1
    assert len(reg) == 2


def test_registry_rejects_unknown_mode():
    reg, a, _ = _two_mode_registry()
    with pytest.raises(QRelayError, match="is not registered"):
        reg.index(ModeKey("c", 0))
    with pytest.raises(QRelayError, match=r"time_bin 5 outside \[0, "):
        reg.add(ModeKey("a", 5))  # past max_bins


def test_creation_operator_weights():
    reg, a, _ = _two_mode_registry()
    st = apply_creation(vacuum(reg), a)
    st = apply_creation(st, a)
    # (a+)^2 |0> = sqrt(2) |2>
    assert abs(amplitude(st, [2, 0]) - math.sqrt(2.0)) < 1e-12
    assert abs(norm_sq(normalized(st)) - 1.0) < 1e-12


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
        assert abs(amplitude(st, [2, 0]) - math.sqrt(2) * u[0, 0] * u[1, 0]) < 1e-12
        assert abs(amplitude(st, [1, 1]) - (u[0, 0] * u[1, 1] + u[0, 1] * u[1, 0])) < 1e-12
        assert abs(amplitude(st, [0, 2]) - math.sqrt(2) * u[0, 1] * u[1, 1]) < 1e-12


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
        assert abs(norm_sq(out) - 1.0) < 1e-10


def test_transform_composition_law():
    rng = np.random.default_rng(11)
    reg, a, b = _two_mode_registry()
    st = _random_state(reg, rng)
    u = _random_unitary(rng, 2)
    v = _random_unitary(rng, 2)
    seq = _transform(_transform(st, [a, b], u), [a, b], v)
    # row-is-input convention: applying u then v composes as u @ v
    combined = _transform(st, [a, b], u @ v)
    seq, combined = terms(seq), terms(combined)
    diff = max(abs(seq.get(k, 0.0) - combined.get(k, 0.0)) for k in set(seq) | set(combined))
    assert diff < 1e-9


def test_transform_conserves_photon_number():
    rng = np.random.default_rng(13)
    reg, a, b = _two_mode_registry()
    st = apply_creation(apply_creation(vacuum(reg), a), a)
    out = _transform(st, [a, b], _random_unitary(rng, 2))
    assert (out.occupations.sum(axis=1) == 2).all()


def test_transform_checks_matrix_shape():
    reg, a, b = _two_mode_registry()
    st = vacuum(reg)
    with pytest.raises(Exception):
        _transform(st, [a, b], np.eye(3))
    with pytest.raises(Exception):
        _transform(st, [a, a], np.eye(2))


def test_occupation_distribution_requires_normalization():
    reg, a, _ = _two_mode_registry()
    st = FockState(reg, [[1, 0]], [0.5])
    with pytest.raises(QRelayError, match="state norm.2 = 0.25, expected 1"):
        occupation_distribution(st)
    dist = occupation_distribution(normalized(st))
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_prune_drops_negligible_terms():
    reg, a, _ = _two_mode_registry()
    st = FockState(reg, [[1, 0], [0, 1]], [1.0, 1e-17])
    assert len(st.prune()) == 1
    assert st.occupations.tolist() == [[1, 0]]


def test_occupation_matrix_and_bin_indicator():
    reg = ModeRegistry(max_bins=2)
    reg.add_channel("a", (0, 1))
    st = apply_creation(vacuum(reg), ModeKey("a", 1, 1))
    assert st.occupations.tolist() == [[0, 0, 0, 1]]
    # internal labels sum into one gate per (channel, bin)
    assert (st.occupations @ reg.bin_indicator(("a",))).tolist() == [[0, 1]]
    # a mode registered later resizes the indicator
    reg.add_channel("b")
    assert reg.bin_indicator(("b", "a")).shape == (6, 4)


def test_multisets_count_every_split_once():
    for n in range(5):
        for parts in range(1, 4):
            counts = multisets(n, parts)
            assert (counts.sum(axis=1) == n).all()
            assert len({tuple(c) for c in counts}) == len(counts) == math.comb(n + parts - 1, n)
