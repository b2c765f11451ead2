"""Sparse truncated Fock-space engine.

A mode is identified by (spatial channel, time bin, internal label).  The
internal label tags which member of an orthonormal wavepacket basis the
photon occupies; it is used to model partial distinguishability and is
invisible to detectors.  States are sparse maps from occupation vectors to
complex amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import RegistryMismatchError, UnnormalizedStateError

PRUNE_TOL = 1e-15
NORM_ATOL = 1e-9


@dataclass(frozen=True, order=True)
class ModeKey:
    """Identity of one optical mode: (spatial, time_bin, internal)."""

    spatial: str
    time_bin: int
    internal: int = 0


class ModeRegistry:
    """Append-only mapping from ModeKey to a stable dense index."""

    def __init__(self, max_bins: int):
        if max_bins < 1:
            raise ValueError("max_bins must be >= 1")
        self.max_bins = max_bins
        self._keys: List[ModeKey] = []
        self._index: Dict[ModeKey, int] = {}
        self._indicators: Dict[Tuple[str, ...], np.ndarray] = {}

    def add(self, key: ModeKey) -> int:
        if key in self._index:
            return self._index[key]
        if not 0 <= key.time_bin < self.max_bins:
            raise RegistryMismatchError(
                f"time_bin {key.time_bin} outside [0, {self.max_bins}) for {key}"
            )
        if key.internal not in (0, 1):
            raise RegistryMismatchError(
                f"internal label must be 0 or 1, got {key.internal}"
            )
        idx = len(self._keys)
        self._keys.append(key)
        self._index[key] = idx
        self._indicators.clear()
        return idx

    def add_channel(self, spatial: str, internals: Sequence[int] = (0,)) -> List[int]:
        """Register every (bin, internal) mode of one spatial channel."""
        return [
            self.add(ModeKey(spatial, t, i))
            for t in range(self.max_bins)
            for i in internals
        ]

    def index(self, key: ModeKey) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise RegistryMismatchError(f"mode {key} is not registered") from None

    def __contains__(self, key: ModeKey) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._keys)

    def key_at(self, idx: int) -> ModeKey:
        return self._keys[idx]

    def indices_for(self, spatial: str) -> List[int]:
        return [i for i, k in enumerate(self._keys) if k.spatial == spatial]

    def bin_indicator(self, spatials: Sequence[str]) -> np.ndarray:
        """0/1 matrix of shape (modes, len(spatials) * max_bins).

        Column c * max_bins + t marks the modes of channel spatials[c] in bin
        t, so an occupation matrix times it gives photons per detector gate,
        summed over internal labels.  Cached until the next mode is added.
        """
        key = tuple(spatials)
        cached = self._indicators.get(key)
        if cached is None:
            cached = np.zeros((len(self._keys), len(key) * self.max_bins))
            for idx, mode in enumerate(self._keys):
                for c, spatial in enumerate(key):
                    if mode.spatial == spatial:
                        cached[idx, c * self.max_bins + mode.time_bin] = 1.0
            cached.flags.writeable = False
            self._indicators[key] = cached
        return cached


class FockState:
    """Sparse ket: dict from occupation bytes to complex amplitude.

    The byte string has one entry per registered mode, in registry order.
    Mutating methods return self to allow chaining.
    """

    __slots__ = ("registry", "terms")

    def __init__(self, registry: ModeRegistry, terms=None):
        self.registry = registry
        self.terms: Dict[bytes, complex] = dict(terms) if terms else {}

    def norm_sq(self) -> float:
        return sum((a * a.conjugate()).real for a in self.terms.values())

    def normalize(self) -> "FockState":
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise UnnormalizedStateError("cannot normalize the zero vector")
        self.terms = {k: v / n for k, v in self.terms.items()}
        return self

    def prune(self, tol: float = PRUNE_TOL) -> "FockState":
        self.terms = {k: v for k, v in self.terms.items() if abs(v) >= tol}
        return self

    def amplitude(self, occupation: Sequence[int]) -> complex:
        return self.terms.get(bytes(occupation), 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self.terms)


def vacuum(registry: ModeRegistry) -> FockState:
    """The vacuum ket |0...0> with amplitude 1."""
    zero = bytes(len(registry))
    return FockState(registry, {zero: 1.0 + 0.0j})


def create(terms: Dict[bytes, complex], row: Sequence[Tuple[int, complex]]) -> Dict[bytes, complex]:
    """Apply sum_k c_k a^dag_k for each (k, c_k) in row: occupation n_k ->
    n_k + 1 with amplitude factor c_k sqrt(n_k + 1)."""
    out: Dict[bytes, complex] = {}
    for occ, amp in terms.items():
        new = bytearray(occ)
        for k, c in row:
            n = occ[k]
            new[k] = n + 1
            key = bytes(new)
            out[key] = out.get(key, 0.0) + amp * c * math.sqrt(n + 1)
            new[k] = n
    return out


def apply_creation(state: FockState, mode: ModeKey) -> FockState:
    """Apply a^dag_mode: occupation n -> n+1 with amplitude factor sqrt(n+1)."""
    idx = state.registry.index(mode)
    return FockState(state.registry, create(state.terms, [(idx, 1.0)]))


def occupation_matrix(state: FockState) -> np.ndarray:
    """Occupation vectors as a (terms, modes) uint8 matrix, in `terms` order."""
    packed = b"".join(state.terms)
    rows, modes = len(state.terms), len(state.registry)
    if len(packed) != rows * modes:
        raise RegistryMismatchError(
            f"state terms do not all span the {modes} registered modes"
        )
    return np.frombuffer(packed, dtype=np.uint8).reshape(rows, modes)
