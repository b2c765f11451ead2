"""Truncated Fock-space states as arrays.

A mode is identified by (spatial channel, time bin, internal label).  The
internal label tags which member of an orthonormal wavepacket basis the
photon occupies; it is used to model partial distinguishability and is
invisible to detectors.  A state is a (terms x modes) occupation matrix
plus one complex amplitude per term.  Sources write their states in closed
form and optics re-expands them through a circuit's transfer matrix, both
with array operations.

A mixture of pair-number branches is one state whose rows carry their
branch index as photons in the unobserved BRANCH_RECORD mode, so branches
never merge in a circuit; each branch is a normalized ket of its own, and
a state with no record column is one branch.  Detection answers per branch.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import RegistryMismatchError

PRUNE_TOL = 1e-15
NORM_ATOL = 1e-9


@dataclass(frozen=True, order=True)
class ModeKey:
    """Identity of one optical mode: (spatial, time_bin, internal)."""

    spatial: str
    time_bin: int
    internal: int = 0


# unobserved mode whose photon number tags a row's pair-number branch
BRANCH_RECORD = ModeKey("branch-record", 0)


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
    """Ket as arrays: row r of `occupations` holds amplitude `amplitudes[r]`.

    `occupations` is a (terms, modes) uint8 matrix, so at most 255 photons
    per mode, with one column per registered mode, in registry order, and
    distinct rows.  A mode registered after the state was built has no
    column yet and holds no photon.  `prune` returns self to allow chaining.
    """

    __slots__ = ("registry", "occupations", "amplitudes")

    def __init__(self, registry: ModeRegistry, occupations, amplitudes):
        self.registry = registry
        self.occupations = np.asarray(occupations, dtype=np.uint8)
        self.amplitudes = np.asarray(amplitudes, dtype=complex)

    def prune(self, tol: float = PRUNE_TOL) -> "FockState":
        keep = np.abs(self.amplitudes) >= tol
        self.occupations, self.amplitudes = self.occupations[keep], self.amplitudes[keep]
        return self

    def __len__(self) -> int:
        return len(self.amplitudes)

    def branches(self) -> np.ndarray:
        """Each row's branch index: its photons in the BRANCH_RECORD mode, 0
        when the state has no column for that mode."""
        cols = [i for i in self.registry.indices_for(BRANCH_RECORD.spatial)
                if i < self.occupations.shape[1]]
        return self.occupations[:, cols].sum(axis=1, dtype=np.intp)


def vacuum(registry: ModeRegistry) -> FockState:
    """The vacuum ket |0...0> with amplitude 1."""
    return FockState(registry, np.zeros((1, len(registry)), dtype=np.uint8), [1.0])


@functools.lru_cache(maxsize=None)
def multisets(n: int, parts: int) -> np.ndarray:
    """Every way to put n identical quanta into `parts` slots, as a read-only
    (ways, parts) matrix of counts."""
    combos = list(itertools.combinations_with_replacement(range(parts), n))
    counts = np.array([[c.count(k) for k in range(parts)] for c in combos], dtype=np.intp)
    counts = counts.reshape(len(combos), parts)
    counts.flags.writeable = False
    return counts
