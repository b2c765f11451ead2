"""Photon-pair emission statistics and state preparation.

A source is characterized by its mean pair number per gate and its photon
number statistics (thermal for a single filtered down-conversion mode,
poissonian for the many-mode limit).  The n-pair branch state is the n-th
power of a two-photon emission operator, normalized, applied to the incoming
state, whose norm it keeps; each source writes it in closed form, with its
bosonic weights.  The closed form holds when the emission modes start
empty, which is checked.

Spectral or temporal mismatch between independently generated photons is
modeled with a single overlap amplitude xi: the mismatched photon is created
in internal mode 0 with amplitude xi and in the orthogonal internal mode 1
with amplitude sqrt(1 - xi^2).  Coincidence dips then scale as xi^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, OccupiedModeError, TailMassError
from .fock import PRUNE_TOL, FockState, ModeKey, multisets

STATISTICS = ("thermal", "poissonian")


def pair_count_distribution(
    mu: float, statistics: str, n_cut: int, tail_tol: float = 1e-4
) -> np.ndarray:
    """P(0..n_cut) pairs per gate for mean pair number mu >= 0 and
    `statistics` in STATISTICS, both as ExperimentConfig checks them;
    raises if the discarded tail exceeds tail_tol.

    Nothing overflows on the way to the check: a thermal tail is checked
    before mu**n is formed, and a poissonian mean whose mu**n would
    overflow has exp(-mu) = 0, so every kept term is 0 and the tail is 1.
    """
    n = np.arange(n_cut + 1)
    thermal = statistics == "thermal"
    if thermal:
        tail = (mu / (1.0 + mu)) ** (n_cut + 1)
    else:
        scale = np.exp(-mu)
        fact = np.asarray([math.factorial(int(k)) for k in n], dtype=float)
        probs = scale * mu**n / fact if scale > 0.0 else np.zeros(n_cut + 1)
        tail = 1.0 - probs.sum()
    # written so that NaN fails too
    if not tail <= tail_tol:
        raise TailMassError(
            f"discarded pair-number tail {tail:.3e} exceeds {tail_tol:.1e} "
            f"(mean_pairs={mu}, n_cut={n_cut}); raise n_cut or tail_tol"
        )
    return mu**n / (1.0 + mu) ** (n + 1) if thermal else probs


@dataclass(frozen=True)
class OverlapModel:
    """Gaussian mode overlap versus path-length mismatch.

    The coincidence dip A(1 - V xi^2) built from this overlap has FWHM
    fwhm_um, which fixes the 1/e width to fwhm / sqrt(2 ln 2).
    """

    fwhm_um: float = 144.0

    def xi(self, delta_x_um: float) -> float:
        ell = self.fwhm_um / math.sqrt(2.0 * math.log(2.0))
        # a float product overflows to inf silently, and exp(-inf) is 0
        u = float(delta_x_um) / ell
        return math.exp(-u * u)


def _emit(state: FockState, modes: Sequence[ModeKey], counts, coeffs) -> FockState:
    """Add counts[w][m] photons to modes[m] on every term, times coeffs[w].

    This closed form of an emission operator's power holds only when the
    modes are empty, so an occupied one raises OccupiedModeError.  A mode
    that gets no photon need not be registered; sum_w |coeffs[w]|^2 = 1
    keeps the norm.
    """
    reg, occ = state.registry, state.occupations
    counts = np.asarray(counts)
    used = counts.any(axis=0)
    idxs = [reg.index(m) for m, u in zip(modes, used) if u]
    for i in idxs:
        if occ[:, i].any():
            raise OccupiedModeError(f"emission into occupied mode {reg.key_at(i)}")
    out = np.repeat(occ[:, None, :], len(coeffs), axis=1)
    out[:, :, idxs] = counts[:, used]
    amps = state.amplitudes[:, None] * np.asarray(coeffs)
    return FockState(reg, out.reshape(-1, len(reg)), amps.ravel())


def emit_pairs_single_bin(state: FockState, signal_spatial: str, idler_spatial: str,
                          n_pairs: int, time_bin: int = 0, xi: float = 1.0) -> FockState:
    """n_pairs emissions into one bin; xi, with |xi| <= 1, splits the signal
    photon between internal modes 0 and 1.

    (xi a_0^dag + sqrt(1 - xi^2) a_1^dag)^n (b^dag)^n |0>, normalized, puts
    amplitude sqrt(C(n, j)) xi^j (1 - xi^2)^((n - j)/2) on j signal photons
    in label 0, n - j in label 1 and n idler photons.  Terms below
    PRUNE_TOL are left out.
    """
    if n_pairs == 0:
        return state
    if not abs(xi) <= 1.0:
        raise ConfigError(f"overlap xi must be in [-1, 1], got {xi}")
    ortho = math.sqrt(1.0 - xi * xi)
    ways = [(j, math.sqrt(math.comb(n_pairs, j)) * xi**j * ortho ** (n_pairs - j))
            for j in range(n_pairs + 1)]
    ways = [(j, c) for j, c in ways if abs(c) >= PRUNE_TOL]
    modes = [ModeKey(signal_spatial, time_bin, 0), ModeKey(idler_spatial, time_bin),
             ModeKey(signal_spatial, time_bin, 1)]
    return _emit(state, modes, [[j, n_pairs, n_pairs - j] for j, _ in ways], [c for _, c in ways])


def emit_pairs_entangled(state: FockState, signal_spatial: str, idler_spatial: str,
                         n_pairs: int, bins: Sequence[int] = (0, 1),
                         phase: float = 0.0) -> FockState:
    """n_pairs coherent emissions spread over the given distinct bins.

    Each emission creates signal and idler in the same bin, with relative
    phase e^{i phase t} between bins (the pump's interferometer phase).
    (sum_t e^{i phase t} s_t^dag i_t^dag)^n |0>, normalized, gives every
    split (k_t) of the n pairs over the bins the same weight and the phase
    e^{i phase sum_t t k_t}.
    """
    if n_pairs == 0:
        return state
    if len(set(bins)) != len(bins):
        raise ConfigError(f"emission bins must be distinct, got {tuple(bins)}")
    counts = multisets(n_pairs, len(bins))
    coeffs = np.exp(1j * phase * (counts @ np.arange(len(bins)))) / math.sqrt(len(counts))
    modes = [ModeKey(spatial, b, 0) for spatial in (signal_spatial, idler_spatial) for b in bins]
    return _emit(state, modes, np.hstack([counts, counts]), coeffs)
