"""Brute-force reference implementations, used only by the tests.

click_distribution enumerates every click pattern of a detector layout,
term by term and gate by gate; the Bell-state and herald filters then pick
the accepted patterns out of it.  The fast array paths in qrelay.detection
are checked against these.  occupation_distribution lists a state's
outcome probabilities term by term, and general_transform re-expands a
linear-optical substitution on any number of modes, the reference for the
one- and two-mode kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from qrelay.detection import DetectorChannel, Ensemble, _check_ensemble
from qrelay.errors import ConfigError, UnnormalizedStateError
from qrelay.fock import NORM_ATOL, FockState

OccupationVector = Tuple[int, ...]

# a click pattern maps (detector label, time bin) -> clicked; absent = no click
ClickPattern = FrozenSet[Tuple[str, int]]


def occupation_distribution(state: FockState) -> Dict[OccupationVector, float]:
    """Probabilities over occupation outcomes; input must be normalized."""
    total = state.norm_sq()
    if abs(total - 1.0) > NORM_ATOL:
        raise UnnormalizedStateError(f"state norm^2 = {total}, expected 1")
    return {tuple(k): (v * v.conjugate()).real for k, v in state.terms.items()}


def general_transform(terms, idxs, u, prune):
    """K-mode substitution via multinomial re-expansion, for any K.

    The reference for qrelay.kernels and for transforms on more modes than
    qrelay.fock.mode_transform accepts.
    """
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
