"""Thermal photon-pair sources and the relay's pair table.

A source is a single filtered down-conversion mode, a single-mode squeezer,
so its pair number per gate is thermal and is set by its mean alone.  (A
many-mode down-converter would have no dip at all, and Poisson weights on
the same n-pair states give the dip of 1/2 of phase-randomized weak
coherent sources; the relay models neither.)  The n-pair state of the
relay's time-bin entangled source is the n-th power of its two-photon
emission operator on empty modes, normalized; entangled_pairs writes it in
closed form, as a table of pairs per bin and amplitudes.

Spectral or temporal mismatch between independently generated photons is
modeled with a single overlap amplitude xi: the mismatched photon is created
in internal mode 0 with amplitude xi and in the orthogonal internal mode 1
with amplitude sqrt(1 - xi^2).  Of n such photons, j land in mode 0 with
probability C(n, j) s^j (1 - s)^(n - j), s = xi^2, and coincidence dips
scale as s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import QRelayError
from .fock import multisets


def pair_count_distribution(mu: float, n_cut: int, tail_tol: float) -> np.ndarray:
    """Thermal P(0..n_cut) pairs per gate for mean pair number mu >= 0, as
    ExperimentConfig checks it; raises if the discarded tail exceeds
    tail_tol.

    Nothing overflows on the way to the check: the tail is checked before
    mu**n is formed.
    """
    tail = (mu / (1.0 + mu)) ** (n_cut + 1)
    # written so that NaN fails too
    if not tail <= tail_tol:
        raise QRelayError(
            f"discarded pair-number tail {tail:.3e} exceeds {tail_tol:.1e} "
            f"(mean_pairs={mu}, n_cut={n_cut}); lower the pair mean or raise tail_tol"
        )
    n = np.arange(n_cut + 1)
    return mu**n / (1.0 + mu) ** (n + 1)


@dataclass(frozen=True)
class OverlapModel:
    """Gaussian mode overlap versus path-length mismatch.

    The coincidence dip A(1 - V xi^2) built from this overlap has FWHM
    fwhm_um, which fixes the 1/e width to fwhm / sqrt(2 ln 2).
    """

    fwhm_um: float

    def xi(self, delta_x_um):
        """The overlap amplitude at each mismatch, in the shape given."""
        ell = self.fwhm_um / math.sqrt(2.0 * math.log(2.0))
        # a mismatch far past the dip overflows the square: exp(-inf) = 0 is right
        with np.errstate(over="ignore"):
            u = np.asarray(delta_x_um, dtype=float) / ell
            return np.exp(-(u * u))


def entangled_pairs(n_pairs: int, n_bins: int, phase: float) -> Tuple[np.ndarray, np.ndarray]:
    """(pairs per bin, amplitudes) of n_pairs coherent emissions over n_bins
    time bins, one row per split of the pairs over the bins.

    Each emission creates signal and idler in the same bin, with relative
    phase e^{i phase t} between bins (the pump's interferometer phase).
    (sum_t e^{i phase t} s_t^dag i_t^dag)^n |0>, normalized, gives every
    split (k_t) the same weight and the phase e^{i phase sum_t t k_t}; the
    signal and idler modes hold k_t photons each.
    """
    counts = multisets(n_pairs, n_bins)
    amps = np.exp(1j * phase * (counts @ np.arange(n_bins))) / math.sqrt(len(counts))
    return counts, amps
