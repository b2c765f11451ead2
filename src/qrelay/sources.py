"""Photon-pair emission statistics and state preparation.

A source is characterized by its mean pair number per gate and its photon
number statistics (thermal for a single filtered down-conversion mode,
poissonian for the many-mode limit).  State preparation works by repeated
application of a two-photon emission operator, so multi-pair terms carry the
correct bosonic weights automatically.

Spectral or temporal mismatch between independently generated photons is
modeled with a single overlap amplitude xi: the mismatched photon is created
in internal mode 0 with amplitude xi and in the orthogonal internal mode 1
with amplitude sqrt(1 - xi^2).  Coincidence dips then scale as xi^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, TailMassError
from .fock import FockState, ModeKey, apply_creation

STATISTICS = ("thermal", "poissonian")


@dataclass(frozen=True)
class SpdcSource:
    mean_pairs: float
    statistics: str = "thermal"
    pump_phase: float = 0.0

    def __post_init__(self):
        if self.mean_pairs < 0:
            raise ConfigError(f"mean_pairs must be >= 0, got {self.mean_pairs}")
        if self.statistics not in STATISTICS:
            raise ConfigError(
                f"statistics must be one of {STATISTICS}, got {self.statistics!r}"
            )


def pair_count_distribution(
    source: SpdcSource, n_cut: int, tail_tol: float = 1e-4
) -> np.ndarray:
    """P(0..n_cut) pairs per gate; raises if the discarded tail exceeds tail_tol."""
    mu = source.mean_pairs
    n = np.arange(n_cut + 1)
    if source.statistics == "thermal":
        probs = mu**n / (1.0 + mu) ** (n + 1)
        tail = (mu / (1.0 + mu)) ** (n_cut + 1)
    else:
        probs = np.exp(-mu) * mu**n / np.asarray(
            [math.factorial(int(k)) for k in n], dtype=float
        )
        tail = 1.0 - probs.sum()
    if tail > tail_tol:
        raise TailMassError(
            f"discarded pair-number tail {tail:.3e} exceeds {tail_tol:.1e} "
            f"(mean_pairs={mu}, n_cut={n_cut}); raise n_cut or tail_tol"
        )
    return probs


@dataclass(frozen=True)
class OverlapModel:
    """Gaussian mode overlap versus path-length mismatch.

    The coincidence dip A(1 - V xi^2) built from this overlap has FWHM
    fwhm_um, which fixes the 1/e width to fwhm / sqrt(2 ln 2).
    """

    fwhm_um: float = 144.0

    def xi(self, delta_x_um: float) -> float:
        ell = self.fwhm_um / math.sqrt(2.0 * math.log(2.0))
        return math.exp(-((delta_x_um / ell) ** 2))


EmissionTerm = Tuple[complex, Sequence[ModeKey]]


def _apply_emission(state: FockState, terms: Sequence[EmissionTerm]) -> FockState:
    """Apply sum_i c_i (prod_j a_dag(mode_ij)) to the state."""
    acc = {}
    for coeff, modes in terms:
        st = state
        for m in modes:
            st = apply_creation(st, m)
        for occ, amp in st.terms.items():
            acc[occ] = acc.get(occ, 0.0) + coeff * amp
    return FockState(state.registry, state.n_max, acc).prune()


def emit_pairs_single_bin(
    state: FockState,
    signal_spatial: str,
    idler_spatial: str,
    n_pairs: int,
    time_bin: int = 0,
    xi: float = 1.0,
) -> FockState:
    """n_pairs emissions into one bin, normalized; xi splits the signal photon
    between internal modes 0 and 1."""
    if n_pairs == 0:
        return state
    idler = ModeKey(idler_spatial, time_bin)
    terms: List[EmissionTerm] = [(xi, (ModeKey(signal_spatial, time_bin, 0), idler))]
    ortho = math.sqrt(max(0.0, 1.0 - xi * xi))
    if ortho > 0.0:
        terms.append((ortho, (ModeKey(signal_spatial, time_bin, 1), idler)))
    for _ in range(n_pairs):
        state = _apply_emission(state, terms)
    return state.normalize()


def emit_pairs_entangled(
    state: FockState,
    signal_spatial: str,
    idler_spatial: str,
    n_pairs: int,
    bins: Sequence[int] = (0, 1),
    phase: float = 0.0,
) -> FockState:
    """n_pairs coherent emissions spread over the given bins, normalized.

    Each emission creates signal and idler in the same bin, with relative
    phase e^{i phase t} between bins (the pump's interferometer phase).
    """
    if n_pairs == 0:
        return state
    terms: List[EmissionTerm] = [
        (
            np.exp(1j * phase * t),
            (ModeKey(signal_spatial, b, 0), ModeKey(idler_spatial, b, 0)),
        )
        for t, b in enumerate(bins)
    ]
    for _ in range(n_pairs):
        state = _apply_emission(state, terms)
    return state.normalize()
