"""Passive linear-optical circuits on registered modes, one element per device.

Every element is a small matrix on a few listed modes.  A device is one
element over all the modes it acts on: an unbalanced Michelson (two passes
through COUPLER, the 50/50 coupler, with a one-bin delay and a phase in
between, exactly unitary including its non-detected output port), a
channel's fiber loss, the lossless bin encoder, the Bell-state mixer.

The elements compose into one transfer matrix T over the registry
(`Circuit.transfer`), and `apply(t, state)` runs a state through the whole
circuit at once by substituting creation operators,

    a^dag_j  ->  sum_k T[j, k] a^dag_k,

and re-expanding the resulting polynomial on the occupation basis.  For a
unitary T this preserves the norm exactly (up to float rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import QRelayError
from .fock import NORM_ATOL, FockState, ModeKey, ModeRegistry, multisets

# (mode indices, matrix): matrix[j, k] is the coefficient of listed mode k in
# the substitution of listed mode j
Element = Tuple[Tuple[int, ...], np.ndarray]

# n! and sqrt(n!) for every photon number a mode can hold
_FACTORIAL = np.array([float(math.factorial(n)) for n in range(171)])
_SQRT_FACTORIAL = np.sqrt(_FACTORIAL)


def loss_from_db(db: float) -> float:
    """Power transmittance for a fiber attenuation given in dB."""
    return 10.0 ** (-db / 10.0)


# the 50/50 fiber coupler, read-only, from sqrt(0.5): 1 / sqrt(2) is one ulp lower
COUPLER = np.array([[math.sqrt(0.5), 1j * math.sqrt(0.5)],
                    [1j * math.sqrt(0.5), math.sqrt(0.5)]], dtype=complex)
COUPLER.flags.writeable = False


def identity_blocks(matrix, n: int) -> np.ndarray:
    """np.kron(matrix, np.eye(n)), written by one broadcast assignment."""
    m = np.asarray(matrix, dtype=complex)
    out = np.zeros((len(m), n, len(m), n), dtype=complex)
    out[:, np.arange(n), :, np.arange(n)] = m
    return out.reshape(len(m) * n, len(m) * n)


def compose(elements: Sequence[Element], modes: Sequence[int]) -> np.ndarray:
    """The transfer matrix of `elements` over the listed registry indices,
    which hold every mode the elements touch."""
    column = {mode: c for c, mode in enumerate(modes)}
    t = np.eye(len(column), dtype=complex)
    for idxs, m in elements:
        cols = [column[i] for i in idxs]
        t[:, cols] = t[:, cols] @ m
    return t


@dataclass
class Circuit:
    registry: ModeRegistry
    elements: List[Element] = field(default_factory=list)

    def add_unitary(self, modes: Sequence[ModeKey], matrix) -> None:
        """Substitute a_j -> sum_k matrix[j, k] a_k on the listed modes.

        The matrix must be unitary but for a delay's zero rows: `apply`
        reads a row of T that lost norm as a delay overflow.
        """
        m = np.array(matrix, dtype=complex)
        if m.shape != (len(modes), len(modes)):
            raise QRelayError(
                f"matrix shape {m.shape} does not match {len(modes)} modes"
            )
        idxs = tuple(self.registry.index(k) for k in modes)
        if len(set(idxs)) != len(idxs):
            raise QRelayError("duplicate modes in transform list")
        self.elements.append((idxs, m))

    def _channel(self, spatial: str) -> Tuple[List[int], List[ModeKey]]:
        """(labels, modes): the internal labels of a channel's registered
        modes, and its modes of those labels in every bin, bin by bin;
        QRelayError if the channel has no registered mode."""
        reg = self.registry
        labels = sorted({reg.key_at(i).internal for i in reg.indices_for(spatial)})
        if not labels:
            raise QRelayError(f"channel {spatial!r} has no registered mode")
        return labels, [ModeKey(spatial, t, i) for t in range(reg.max_bins) for i in labels]

    def add_channel_loss(self, spatial: str, transmittance: float):
        """Same transmittance on every mode of a channel, each against its
        own mode of the channel's sink, `<spatial>-loss`."""
        labels, modes = self._channel(spatial)
        if transmittance == 1.0:
            return
        self.registry.add_channel(f"{spatial}-loss", labels)
        sinks = [ModeKey(f"{spatial}-loss", m.time_bin, m.internal) for m in modes]
        t = math.sqrt(transmittance)
        r = math.sqrt(1.0 - transmittance)
        self.add_unitary(modes + sinks, identity_blocks([[t, r], [-r, t]], len(modes)))

    def add_michelson(self, spatial: str, phase: float, loss_spatial: Optional[str] = None):
        """Unbalanced Michelson on a channel: bin t -> {t, t+1} plus a loss port.

        One element over the channel's modes and its port's, coupler @ delay
        @ coupler: the 50/50 coupler joins each mode to its port mode, and
        the delay shifts the port one bin and multiplies it by e^{i (phase +
        pi)}.

        Output port map (single photon in bin t):
            a(s,t) -> 1/2 a(s,t) + 1/2 e^{i phase} a(s,t+1) + loss-port terms
        so P(bin t) = P(bin t+1) = 1/4 and P(lost) = 1/2.  Occupied modes in
        the last bin have zero rows and would overflow; callers must leave
        one bin of headroom.
        """
        ls = loss_spatial or f"{spatial}-mich-loss"
        labels, arm = self._channel(spatial)
        self.registry.add_channel(ls, labels)
        port = [ModeKey(ls, m.time_bin, m.internal) for m in arm]
        n = len(arm)
        coupler = identity_blocks(COUPLER, n)
        delay = np.eye(2 * n, dtype=complex)
        # the +pi makes the output-port relative amplitude exactly e^{i phase}
        delay[n:, n:] = np.exp(1j * (phase + math.pi)) * np.eye(n, k=len(labels))
        self.add_unitary(arm + port, coupler @ delay @ coupler)

    def add_bin_encoder(self, spatial: str, phase: float):
        """Lossless two-bin superposition on every label of a channel:
        a(s,0) -> (a(s,0) + e^{i phase} a(s,1))/sqrt(2).

        This is the idealized, unit-efficiency stand-in for a Michelson qubit
        encoder; used by the perfect-components scenario.
        """
        labels, _ = self._channel(spatial)
        e = np.exp(1j * phase)
        u = np.array([[1.0, e], [1.0, -e]]) / math.sqrt(2.0)
        modes = [ModeKey(spatial, t, i) for t in (0, 1) for i in labels]
        self.add_unitary(modes, identity_blocks(u, len(labels)))

    def transfer(self) -> np.ndarray:
        """T over every registered mode, composed afresh on each call: a_j ->
        sum_k T[j, k] a_k, the elements applied in order."""
        return compose(self.elements, range(len(self.registry)))


def apply(t: np.ndarray, state: FockState) -> FockState:
    """Run a state, one column per mode of its registry, through a transfer
    matrix T over that registry (`Circuit.transfer`); QRelayError
    for a state of any other width or a T of any other shape.

    The n photons of each mode j whose row of T moves become the expansion
    of (sum_k T[j, k] a^dag_k)^n, mode after mode for all terms at once,
    from one table of the expansions for every n, gathered per term;
    photons on identity rows stay.  With the bosonic factors sqrt(prod n!)
    divided out of the input and put back on the output, the expansions
    multiply as plain polynomials, and output rows with equal occupations
    merge."""
    reg = state.registry
    size = len(reg)
    occ = state.occupations
    if occ.shape[1] != size or t.shape != (size, size):
        raise QRelayError(f"a state of {occ.shape[1]} modes and a transfer matrix of "
                          f"shape {t.shape} on a registry of {size}")
    moves = (t != np.eye(size)).any(axis=1)
    lost = (t.real**2 + t.imag**2).sum(axis=1) < 1.0 - NORM_ATOL
    occupied = occ.any(axis=0)
    overflow = np.flatnonzero(occupied & lost)
    if len(overflow):
        raise QRelayError(
            f"a delay pushes occupied mode {reg.key_at(int(overflow[0]))} past the last bin"
        )
    moved = np.flatnonzero(occupied & moves)
    out = occ.copy()
    out[:, moved] = 0
    amps = state.amplitudes / _SQRT_FACTORIAL[occ].prod(axis=1)
    src = np.arange(len(occ))  # the input term of each output row
    for j in moved.tolist():
        # (sum_k T[j, k] a^dag_k)^n, n = 0..max, as rows (photons added, coefficient)
        nz = np.flatnonzero(t[j])
        powers = [multisets(n, len(nz)) for n in range(int(occ[:, j].max()) + 1)]
        counts = np.concatenate(powers)
        created = np.zeros((len(counts), size), dtype=np.uint8)
        created[:, nz] = counts
        coeffs = (_FACTORIAL[counts.sum(axis=1)] / _FACTORIAL[counts].prod(axis=1)
                  * (t[j, nz] ** counts).prod(axis=1))
        sizes = np.array([len(c) for c in powers])
        # each row repeats once per multiset of its n and picks their rows
        n_in = occ[src, j]
        reps = sizes[n_in]
        rows = np.repeat(np.arange(len(src)), reps)
        pick = np.arange(len(rows)) + (np.cumsum(sizes)[n_in] - np.cumsum(reps))[rows]
        src, out, amps = src[rows], out[rows] + created[pick], amps[rows] * coeffs[pick]
    keys = out.view(np.dtype((np.void, size))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    amps = np.bincount(inverse, amps.real) + 1j * np.bincount(inverse, amps.imag)
    return FockState(reg, out[first], amps * _SQRT_FACTORIAL[out[first]].prod(axis=1)).prune()
