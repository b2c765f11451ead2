"""Brute-force reference implementations, used only by the tests.

click_distribution enumerates every click pattern of a detector layout,
term by term and gate by gate; the Bell-state and herald filters then pick
the accepted patterns out of it.  The fast array paths in qrelay.detection
are checked against these.  occupation_distribution lists a state's
outcome probabilities term by term, and general_transform re-expands a
linear-optical substitution on any number of modes; folded over a circuit's
elements one at a time, it is the reference for qrelay.optics.apply.

The oracles work on a state's terms as a dict from occupation bytes to
amplitude (`terms`, `from_terms`).  `create` applies one creation operator
(or a sum of them) term by term, and the emission oracles repeat the
two-photon emission operator with it: the references for the closed-form
sources in qrelay.sources.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from qrelay.detection import DetectorChannel, Ensemble, _check_ensemble
from qrelay.errors import ConfigError, UnnormalizedStateError
from qrelay.fock import NORM_ATOL, PRUNE_TOL, FockState, ModeKey, ModeRegistry

OccupationVector = Tuple[int, ...]
Terms = Dict[bytes, complex]
# (coefficient, modes): the product of the modes' creation operators
EmissionTerm = Tuple[complex, Sequence[ModeKey]]

# a click pattern maps (detector label, time bin) -> clicked; absent = no click
ClickPattern = FrozenSet[Tuple[str, int]]


def norm_sq(state: FockState) -> float:
    return float(np.vdot(state.amplitudes, state.amplitudes).real)


def normalized(state: FockState) -> FockState:
    n = math.sqrt(norm_sq(state))
    if n == 0.0:
        raise UnnormalizedStateError("cannot normalize the zero vector")
    return FockState(state.registry, state.occupations, state.amplitudes / n)


def terms(state: FockState) -> Terms:
    """A state's terms at the registry's width; absent columns are empty modes."""
    width = len(state.registry)
    out: Terms = {}
    for occ, amp in zip(state.occupations, state.amplitudes):
        key = bytes(occ) + bytes(width - len(occ))
        out[key] = out.get(key, 0.0) + complex(amp)
    return out


def from_terms(registry: ModeRegistry, start: Terms) -> FockState:
    """The state with these terms; every key spans the registry."""
    occ = [list(k) for k in start]
    return FockState(
        registry,
        np.array(occ, dtype=np.uint8).reshape(len(occ), len(registry)),
        np.array(list(start.values()), dtype=complex),
    )


def amplitude(state: FockState, occupation: Sequence[int]) -> complex:
    return terms(state).get(bytes(occupation), 0.0 + 0.0j)


def create(current: Terms, row: Sequence[Tuple[int, complex]]) -> Terms:
    """Apply sum_k c_k a^dag_k for each (k, c_k) in row: occupation n_k ->
    n_k + 1 with amplitude factor c_k sqrt(n_k + 1)."""
    out: Terms = {}
    for occ, amp in current.items():
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
    return from_terms(state.registry, create(terms(state), [(idx, 1.0)]))


def emit(state: FockState, emission: Sequence[EmissionTerm], n_pairs: int) -> FockState:
    """Apply sum_i c_i (prod_j a^dag(mode_ij)) n_pairs times, then normalize."""
    reg = state.registry
    current = terms(state)
    for _ in range(n_pairs):
        acc: Terms = {}
        for coeff, modes in emission:
            st = current
            for m in modes:
                st = create(st, [(reg.index(m), 1.0)])
            for occ, amp in st.items():
                acc[occ] = acc.get(occ, 0.0) + coeff * amp
        current = {k: v for k, v in acc.items() if abs(v) >= PRUNE_TOL}
    return normalized(from_terms(reg, current))


def emit_pairs_single_bin(state, signal_spatial, idler_spatial, n_pairs, time_bin=0, xi=1.0):
    """(xi a_0^dag + sqrt(1 - xi^2) a_1^dag) b^dag on one bin, n_pairs times."""
    idler = ModeKey(idler_spatial, time_bin)
    emission: List[EmissionTerm] = [(xi, (ModeKey(signal_spatial, time_bin, 0), idler))]
    ortho = math.sqrt(max(0.0, 1.0 - xi * xi))
    if ortho > 0.0:
        emission.append((ortho, (ModeKey(signal_spatial, time_bin, 1), idler)))
    return emit(state, emission, n_pairs)


def emit_pairs_entangled(state, signal_spatial, idler_spatial, n_pairs, bins=(0, 1), phase=0.0):
    """sum_t e^{i phase t} s_t^dag i_t^dag over the bins, n_pairs times."""
    emission = [
        (np.exp(1j * phase * t), (ModeKey(signal_spatial, b, 0), ModeKey(idler_spatial, b, 0)))
        for t, b in enumerate(bins)
    ]
    return emit(state, emission, n_pairs)


def occupation_distribution(state: FockState) -> Dict[OccupationVector, float]:
    """Probabilities over occupation outcomes; input must be normalized."""
    total = norm_sq(state)
    if abs(total - 1.0) > NORM_ATOL:
        raise UnnormalizedStateError(f"state norm^2 = {total}, expected 1")
    return {tuple(k): abs(v) ** 2 for k, v in terms(state).items()}


def general_transform(terms, idxs, u, prune):
    """K-mode substitution via multinomial re-expansion, for any K."""
    k_modes = len(idxs)
    sqrt_fact = [math.sqrt(math.factorial(n)) for n in range(17)]

    def compositions(n, k):
        if k == 1:
            yield (n,)
            return
        for first in range(n + 1):
            for rest in compositions(n - first, k - 1):
                yield (first,) + rest

    out: Dict[bytes, complex] = {}
    for occ, amp in terms.items():
        ns = [occ[i] for i in idxs]
        # expansion of prod_j (sum_k U[j,k] a_k)^(n_j); options[j] lists
        # (counts over outputs, coefficient) for input mode j
        options = []
        for j, nj in enumerate(ns):
            opts = []
            for comp in compositions(nj, k_modes):
                coeff = math.factorial(nj)
                for m in comp:
                    coeff /= math.factorial(m)
                val = complex(coeff)
                for k, m in enumerate(comp):
                    if m:
                        val *= u[j][k] ** m
                if val != 0.0:
                    opts.append((comp, val))
            options.append(opts)

        base = amp
        for nj in ns:
            base /= sqrt_fact[nj]

        stack = [((0,) * k_modes, base)]
        for opts in options:
            nxt = []
            for acc_counts, acc_val in stack:
                for comp, val in opts:
                    nxt.append(
                        (
                            tuple(a + b for a, b in zip(acc_counts, comp)),
                            acc_val * val,
                        )
                    )
            stack = nxt

        occ_b = bytearray(occ)
        for counts, val in stack:
            for pos, idx in enumerate(idxs):
                occ_b[idx] = counts[pos]
                val *= sqrt_fact[counts[pos]]
            key = bytes(occ_b)
            out[key] = out.get(key, 0.0) + val
    if prune > 0.0:
        out = {k: v for k, v in out.items() if abs(v) >= prune}
    return out


@dataclass
class DetectionLayout:
    channels: List[DetectorChannel]

    def __post_init__(self):
        labels = [ch.model.label for ch in self.channels]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate detector labels: {labels}")
        for ch in self.channels:
            if ch.follows is not None and ch.follows not in labels:
                raise ConfigError(f"{ch.model.label} follows unknown {ch.follows}")


def _gate_counts(state: FockState, occ, spatial: str) -> List[int]:
    """Photons per time bin on one channel, summed over internal labels."""
    reg = state.registry
    counts = [0] * reg.max_bins
    for idx in reg.indices_for(spatial):
        counts[reg.key_at(idx).time_bin] += occ[idx]
    return counts


def _subset_probs(gates: List[Tuple[str, int, float]]):
    """All (clicked-set, probability) pairs for independent gates.

    Zero-probability options are skipped, so the expansion stays small when
    dark counts are off.
    """
    options = []
    for label, t, pc in gates:
        opts = []
        if pc > 0.0:
            opts.append(((label, t), pc))
        if pc < 1.0:
            opts.append((None, 1.0 - pc))
        options.append(opts)
    for combo in itertools.product(*options):
        clicked = frozenset(g for g, _ in combo if g is not None)
        prob = 1.0
        for _, q in combo:
            prob *= q
        yield clicked, prob


def click_distribution(ensemble: Ensemble, layout: DetectionLayout) -> Dict[ClickPattern, float]:
    """Full distribution over click patterns for a weighted state ensemble."""
    _check_ensemble(ensemble)
    free = [ch for ch in layout.channels if ch.follows is None]
    followers = [ch for ch in layout.channels if ch.follows is not None]
    out: Dict[ClickPattern, float] = {}
    for weight, state in ensemble:
        if weight == 0.0:
            continue
        n_bins = state.registry.max_bins
        for occ, p_occ in occupation_distribution(state).items():
            free_gates = []
            counts = {}
            for ch in free + followers:
                counts[ch.model.label] = _gate_counts(state, occ, ch.spatial)
            for ch in free:
                for t in range(n_bins):
                    free_gates.append(
                        (ch.model.label, t, ch.model.click_prob(counts[ch.model.label][t]))
                    )
            for free_clicks, p_free in _subset_probs(free_gates):
                armed = []
                for ch in followers:
                    for (label, t) in free_clicks:
                        if label == ch.follows and t + 1 < n_bins:
                            armed.append(
                                (
                                    ch.model.label,
                                    t + 1,
                                    ch.model.click_prob(counts[ch.model.label][t + 1]),
                                )
                            )
                for sub_clicks, p_sub in _subset_probs(armed):
                    pattern = free_clicks | sub_clicks
                    out[pattern] = out.get(pattern, 0.0) + weight * p_occ * p_free * p_sub
    return out


def psi_minus_filter(
    pattern: ClickPattern,
    labels: Tuple[str, str] = ("bsa-ge", "bsa-ingaas"),
    window: Sequence[int] = (0, 1, 2),
) -> bool:
    """Exactly two clicks, different detectors, adjacent bins, inside the window."""
    clicks = [(lab, t) for lab, t in pattern if lab in labels]
    if len(clicks) != 2:
        return False
    (la, ta), (lb, tb) = clicks
    if la == lb:
        return False
    return abs(ta - tb) == 1 and ta in window and tb in window


def herald_filter(
    pattern: ClickPattern,
    label: str = "herald",
    time_bin: int = 0,
    enabled: bool = True,
) -> bool:
    if not enabled:
        return True
    return (label, time_bin) in pattern
