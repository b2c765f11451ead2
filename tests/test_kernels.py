import math

import numpy as np

from oracles import general_transform
from qrelay.kernels import scale_mode_transform, two_mode_transform


def _random_unitary(rng, k=2):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_terms(rng, n_modes=3, n_terms=8, max_occ=3):
    terms = {}
    for _ in range(n_terms):
        occ = bytes(int(rng.integers(0, max_occ + 1)) for _ in range(n_modes))
        terms[occ] = complex(rng.normal(), rng.normal())
    return terms


def _max_diff(a, b):
    d = 0.0
    for k in set(a) | set(b):
        d = max(d, abs(a.get(k, 0.0) - b.get(k, 0.0)))
    return d


def test_two_mode_kernel_matches_general_transform():
    rng = np.random.default_rng(21)
    for _ in range(10):
        terms = _random_terms(rng)
        u = _random_unitary(rng)
        fast = two_mode_transform(terms, 0, 2, u[0, 0], u[0, 1], u[1, 0], u[1, 1], 1e-15)
        slow = general_transform(terms, [0, 2], u, 1e-15)
        assert _max_diff(fast, slow) < 1e-12


def test_scale_kernel_applies_phase_per_photon():
    ph = np.exp(0.7j)
    out = scale_mode_transform({bytes([3, 1]): 1.0 + 0j}, 0, ph, 1e-15)
    assert abs(out[bytes([3, 1])] - ph**3) < 1e-14


def test_kernel_prunes_small_amplitudes():
    u = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    out = two_mode_transform(
        {bytes([1, 1]): 1.0 + 0j}, 0, 1, u[0, 0], u[0, 1], u[1, 0], u[1, 1], 1e-15
    )
    assert bytes([1, 1]) not in out
