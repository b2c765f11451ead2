"""Passive linear-optical circuits on registered modes.

Every element is a small matrix on a few listed modes: a beamsplitter is a
2x2 unitary on a mode pair, a phase shift a 1x1 phase, a loss a beamsplitter
against a registered sink mode, and a bin delay a shift of time bins within
one spatial channel.  An unbalanced Michelson interferometer is built from
two passes through a 50/50 coupler with a one-bin delay and a phase in
between, which keeps it exactly unitary including its non-detected output
port.

The elements compose into one transfer matrix T over the registry, and a
state goes through the whole circuit at once by substituting creation
operators,

    a^dag_j  ->  sum_k T[j, k] a^dag_k,

and re-expanding the resulting polynomial on the occupation basis.  For a
unitary T this preserves the norm exactly (up to float rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BinOverflowError, ConfigError, DimensionMismatchError
from .fock import NORM_ATOL, FockState, ModeKey, ModeRegistry, create

# (mode indices, matrix): matrix[j, k] is the coefficient of listed mode k in
# the substitution of listed mode j
Element = Tuple[Tuple[int, ...], np.ndarray]


def loss_from_db(db: float) -> float:
    """Power transmittance for a fiber attenuation given in dB."""
    if db < 0:
        raise ConfigError(f"attenuation must be >= 0 dB, got {db}")
    return 10.0 ** (-db / 10.0)


def beamsplitter_matrix(transmittance: float = 0.5, phase: float = 0.0) -> np.ndarray:
    """[[sqrt(t), i sqrt(1-t)], [i sqrt(1-t), sqrt(t)]] with phase on arm b."""
    if not 0.0 <= transmittance <= 1.0:
        raise ConfigError(f"transmittance must be in [0, 1], got {transmittance}")
    t = math.sqrt(transmittance)
    r = 1j * math.sqrt(1.0 - transmittance)
    ph = np.exp(1j * phase)
    return np.array([[t, r * ph], [r, t * ph]], dtype=complex)


@dataclass
class Circuit:
    registry: ModeRegistry
    elements: List[Element] = field(default_factory=list)
    # (registry size, element count, T, the nonzero entries of each row of T
    # or None for an identity row, the rows that lost norm)
    _composed: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def add_unitary(self, modes: Sequence[ModeKey], matrix) -> None:
        """Substitute a_j -> sum_k matrix[j, k] a_k on the listed modes.

        The matrix must be unitary: `apply` reads a row of T that lost norm
        as a delay overflow.
        """
        m = np.array(matrix, dtype=complex)
        if m.shape != (len(modes), len(modes)):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match {len(modes)} modes"
            )
        idxs = tuple(self.registry.index(k) for k in modes)
        if len(set(idxs)) != len(idxs):
            raise DimensionMismatchError("duplicate modes in transform list")
        self.elements.append((idxs, m))

    def add_beamsplitter(self, mode_a, mode_b, transmittance=0.5, phase=0.0):
        self.add_unitary((mode_a, mode_b), beamsplitter_matrix(transmittance, phase))

    def add_phase(self, mode: ModeKey, phase: float):
        self.add_unitary((mode,), [[np.exp(1j * phase)]])

    def add_loss(self, mode: ModeKey, transmittance: float, sink_spatial: str):
        """Partial transmission of one mode; the lost part goes to a sink mode."""
        sink = ModeKey(sink_spatial, mode.time_bin, mode.internal)
        self.registry.add(sink)
        t = math.sqrt(transmittance)
        r = math.sqrt(1.0 - transmittance)
        self.add_unitary((mode, sink), [[t, r], [-r, t]])

    def add_channel_loss(self, spatial: str, transmittance: float, sink_spatial: Optional[str] = None):
        """Same transmittance on every (bin, internal) mode of a channel."""
        if transmittance == 1.0:
            return
        sink_spatial = sink_spatial or f"{spatial}-loss"
        for idx in self.registry.indices_for(spatial):
            mode = self.registry.key_at(idx)
            self.add_loss(mode, transmittance, sink_spatial)

    def add_delay(self, spatial: str, shift: int = 1) -> None:
        """Shift every time bin of one spatial channel by `shift` bins.

        A mode pushed past the last registered bin gets a zero row, so a state
        that occupies it makes `apply` raise BinOverflowError.
        """
        reg = self.registry
        idxs = reg.indices_for(spatial)
        pos = {reg.key_at(i): p for p, i in enumerate(idxs)}
        m = np.zeros((len(idxs), len(idxs)), dtype=complex)
        for p, i in enumerate(idxs):
            key = reg.key_at(i)
            q = pos.get(ModeKey(spatial, key.time_bin + shift, key.internal))
            if q is not None:
                m[p, q] = 1.0
        self.elements.append((tuple(idxs), m))

    def add_michelson(self, spatial: str, phase: float, internals: Sequence[int] = (0,),
                      loss_spatial: Optional[str] = None) -> str:
        """Unbalanced Michelson on a channel: bin t -> {t, t+1} plus a loss port.

        Output port map (single photon in bin t):
            a(s,t) -> 1/2 a(s,t) + 1/2 e^{i phase} a(s,t+1) + loss-port terms
        so P(bin t) = P(bin t+1) = 1/4 and P(lost) = 1/2.  Occupied modes in
        the last registered bin of the loss channel would overflow; callers
        must leave one bin of headroom.
        """
        ls = loss_spatial or f"{spatial}-mich-loss"
        reg = self.registry
        reg.add_channel(ls, internals=internals)
        pairs = [
            (ModeKey(spatial, t, i), ModeKey(ls, t, i))
            for t in range(reg.max_bins)
            for i in internals
        ]
        for a, b in pairs:
            self.add_beamsplitter(a, b)
        self.add_delay(ls, 1)
        # the +pi makes the output-port relative amplitude exactly e^{i phase}
        for t in range(reg.max_bins):
            for i in internals:
                self.add_phase(ModeKey(ls, t, i), phase + math.pi)
        for a, b in pairs:
            self.add_beamsplitter(a, b)
        return ls

    def add_bin_encoder(self, spatial: str, phase: float, internals: Sequence[int] = (0,)):
        """Lossless two-bin superposition: a(s,0) -> (a(s,0) + e^{i phase} a(s,1))/sqrt(2).

        This is the idealized, unit-efficiency stand-in for a Michelson qubit
        encoder; used by the perfect-components scenario.
        """
        u = np.array(
            [[1.0, np.exp(1j * phase)], [1.0, -np.exp(1j * phase)]], dtype=complex
        ) / math.sqrt(2.0)
        for i in internals:
            self.add_unitary((ModeKey(spatial, 0, i), ModeKey(spatial, 1, i)), u)

    def _compose(self) -> tuple:
        size = len(self.registry)
        cached = self._composed
        if cached is None or cached[:2] != (size, len(self.elements)):
            t = np.eye(size, dtype=complex)
            for idxs, m in self.elements:
                cols = list(idxs)
                t[:, cols] = t[:, cols] @ m
            rows: List[Optional[List[Tuple[int, complex]]]] = []
            lost = set()
            for j, row in enumerate(t):
                nz = np.flatnonzero(row)
                if float(np.vdot(row, row).real) < 1.0 - NORM_ATOL:
                    lost.add(j)
                moves = len(nz) != 1 or nz[0] != j or row[j] != 1.0
                rows.append([(int(k), complex(row[k])) for k in nz] if moves else None)
            t.flags.writeable = False
            cached = self._composed = (size, len(self.elements), t, rows, lost)
        return cached

    def transfer(self) -> np.ndarray:
        """The circuit's transfer matrix over every registered mode:
        a_j -> sum_k T[j, k] a_k, the elements applied in order."""
        return self._compose()[2]


def apply(circuit: Circuit, state: FockState) -> FockState:
    """Run a state through the circuit: each creation operator of each term
    becomes its row of the transfer matrix, re-expanded on the occupation
    basis at the registry's full width."""
    reg = circuit.registry
    _, _, _, rows, lost = circuit._compose()
    out: Dict[bytes, complex] = {}
    for occ, amp in state.terms.items():
        # photons on identity rows stay where they are; the rest are re-created
        start = bytearray(len(reg))
        moved = []
        for j, n in enumerate(occ):
            if not n:
                continue
            if j in lost:
                raise BinOverflowError(
                    f"a delay pushes occupied mode {reg.key_at(j)} past the last bin"
                )
            if rows[j] is None:
                start[j] = n
            else:
                moved.append((rows[j], n))
        norm = math.sqrt(math.prod(math.factorial(n) for _, n in moved))
        partial = {bytes(start): amp / norm}
        for row, n in moved:
            for _ in range(n):
                partial = create(partial, row)
        for k, v in partial.items():
            out[k] = out.get(k, 0.0) + v
    return FockState(reg, out).prune()
