"""Threshold detection, Bell-state acceptance, and the trigger timing budget.

Detectors are threshold devices: efficiency eta is applied analytically as
P(no click | n photons) = (1 - eta)^n, which is identical to folding a loss
of transmittance eta into the mode and thresholding with a perfect detector.
Dark counts are independent Bernoulli events OR'd into every open gate.

The measurement station pairs a free-running detector with one that is
armed only for the bin right after the free-running detector fired; that
asymmetry halves the accepted time orderings, and a partner that runs free
too accepts both (free_partner, the config's symmetric_bsa).  Acceptance
of a projection onto the antisymmetric Bell state requires exactly two
clicks, on different detectors, in adjacent time bins inside the clock
window; bell_patterns declares those events once, as (gates that must
click, gates that must stay dark) pairs.

Detection answers per row.  A state's (terms x modes) occupation matrix
times the registry's mode-to-gate indicator gives the photons n in every
detector gate, _misses each gate's miss probability (1 - eta)^n, and from
those teleport_tables and coincidence_clicks give each row's
probabilities with array operations.  They take no amplitudes: the caller
weighs the rows, by |amplitude|^2 summed per pair-number branch and per
overlap component for the bunching dip, or by the teleport engine's phase
harmonics, and dots the branch weights in last.  A gate clicks with
probability d + (1 - d)(1 - m), for dark probability d and miss m, so a
click without photons is exactly d.

The teleport detection computes the two events the relay reports: the
Bell-state acceptance, and the acceptance with Bob's click in BOB_BIN,
where the fringe is read.  It keeps the dark counts out of the rows.  A
gate that must click does so by a dark count (factor d) or, without one,
by a photon (factor (1 - d) u), so every accepted event is a sum of
dark-count monomials prod d^a (1 - d)^b times dark-independent photon
factors; teleport_tables expands the accepted patterns one by one and
sums the photon factors per monomial, and teleport_weights gives the
monomials' values for a vector of dark probabilities, one per detector.
Every term is >= 0, and rescaling the dark counts reweights the tables
without a new pass or a new Detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, QRelayError
from .fock import ModeRegistry

# speed of light in vacuum, m/s; exact in the SI
_SPEED_OF_LIGHT = 299_792_458.0

# time bins of the clock window in which Bell-state clicks are accepted
CLOCK_WINDOW = (0, 1, 2)
# the herald gate opens in the bin the prepared photon is emitted in
HERALD_BIN = 0
# the receiver bin whose clicks teleport_tables reports: the central one,
# where the analyzer's short and long paths meet
BOB_BIN = 1
# channel index of a gate (channel, bin): teleport_tables' detector order
_GE, _INGAAS, _BOB, _HERALD = range(4)


@dataclass(frozen=True)
class Detector:
    """A threshold detector watching one spatial channel."""

    spatial: str
    efficiency: float = 1.0
    dark_prob: float = 0.0


def _misses(registry: ModeRegistry, occupations: np.ndarray,
            detectors: Sequence[Detector]) -> np.ndarray:
    """Per gate and row, the probability (1 - eta)^n that the detector
    misses the gate's n photons: shape (len(detectors), max_bins, rows)."""
    spatials = [det.spatial for det in detectors]
    counts = occupations @ registry.bin_indicator(spatials)
    counts = counts.astype(np.intp).T.reshape(len(detectors), registry.max_bins, len(occupations))
    top = int(counts.max(initial=0)) + 1
    miss = np.array([[(1.0 - det.efficiency) ** n for n in range(top)] for det in detectors])
    return miss[np.arange(len(detectors))[:, None, None], counts]


def bell_patterns(free_partner: bool, n_bins: int, heralded: bool) -> List[Tuple[tuple, tuple]]:
    """The accepted Bell-state events as (gates that must click, gates that
    must stay dark); a gate is (channel, bin) over (ge, ingaas, bob, herald).

    A free-running detector clicks at bin t and the other one at t + 1,
    both in CLOCK_WINDOW; every other gate of a free-running detector stays
    dark.  ge runs free, and so does its partner when `free_partner` is
    set; otherwise ge arms the partner, which opens only the gate after
    ge's click.  A heralded run adds the herald gate to every click set.
    """
    free = (_GE, _INGAAS) if free_partner else (_GE,)
    clicks = [((first, t), (_INGAAS if first == _GE else _GE, t + 1))
              for t in CLOCK_WINDOW if t + 1 in CLOCK_WINDOW for first in free]
    vetoed = [(ch, s) for ch in free for s in range(n_bins)]
    herald = ((_HERALD, HERALD_BIN),) if heralded else ()
    return [(click + herald, tuple(g for g in vetoed if g not in click)) for click in clicks]


def teleport_tables(
    registry: ModeRegistry,
    occupations: np.ndarray,
    detectors: Sequence[Detector],
    *,
    free_partner: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """The teleport detection probabilities without the dark counts:
    (exponents, tables), one table per dark-count monomial.

    `detectors` are ge, ingaas, bob and, for a heralded run, the herald;
    their dark probabilities are not read.  `free_partner`, which has no
    default, is True when ingaas runs free and False when ge arms it.  A
    gate with n photons misses them with probability m = (1 - eta)^n and
    clicks on them with u = 1 - m, exactly 0 for n = 0.  A gate of
    bell_patterns that must stay dark contributes (1 - d) m; one that must
    click contributes d (a dark click) or (1 - d) u (a photon click).
    Each pattern's terms, its dark gates' misses doubled over its click
    gates (term s takes click gate j by dark count where bit j of s is
    set), go into the table of their monomial prod_c d_c^a (1 - d_c)^b,
    exponents[m, c] = (a, b), shape (monomials, detectors, 2): at most 2^3
    monomials, in the order they first appear.  tables[m], shape
    (rows, 2), holds per occupation row the photon factor of monomial m's
    terms, summed (the acceptance), then that times Bob's photon click u in
    BOB_BIN.  Bob's click is one more click gate, d_bob or (1 - d_bob) u,
    which teleport_weights applies, so bob's exponents are 0.  Every entry
    is >= 0; tests/oracles.py holds the full click-pattern enumeration the
    tables, weighted, agree with.  Raises QRelayError when the
    registry's bins do not cover CLOCK_WINDOW and BOB_BIN.
    """
    if registry.max_bins <= max(CLOCK_WINDOW + (BOB_BIN,)):
        raise QRelayError(f"{registry.max_bins} registry bins do not hold bins "
                          f"{sorted(set(CLOCK_WINDOW + (BOB_BIN,)))}")
    miss = _misses(registry, occupations, detectors)
    # the herald is the fourth detector, there only in a heralded run
    patterns = bell_patterns(free_partner, registry.max_bins, len(detectors) > _HERALD)
    accept: Dict[tuple, np.ndarray] = {}
    for click, dark in patterns:
        # per term, its dark factors, 2c for d_c and 2c + 1 for 1 - d_c,
        # and its photon factor
        terms = [([2 * c + 1 for c, _ in dark], np.prod([miss[gate] for gate in dark], axis=0))]
        for c, t in click:
            terms = ([(e + [2 * c + 1], f * (1.0 - miss[c, t])) for e, f in terms]
                     + [(e + [2 * c], f) for e, f in terms])
        for e, f in terms:
            key = tuple(map(e.count, range(2 * len(detectors))))
            accept[key] = accept[key] + f if key in accept else f
    exponents = np.array(list(accept), dtype=np.intp).reshape(len(accept), len(detectors), 2)
    tables = np.array(list(accept.values()))
    return exponents, np.stack([tables, tables * (1.0 - miss[_BOB, BOB_BIN])], axis=2)


def teleport_weights(exponents: np.ndarray, darks) -> np.ndarray:
    """Weights W, shape (monomials, 2, 2), that turn teleport_tables'
    tables into the probabilities of (acceptance, acceptance and Bob's
    click in BOB_BIN), sum_m tables[m] @ W[m], for the dark probabilities
    `darks`, one per detector in the tables' order, so that rescaled dark
    counts need no Detector.  W[m] is monomial m's value times Bob's click:
    column 0 keeps the acceptance, and column 1 adds d_bob times it to
    (1 - d_bob) times the photon column.  Every entry is >= 0."""
    d = np.asarray(darks, dtype=float)
    monomials = np.prod(d ** exponents[..., 0] * (1.0 - d) ** exponents[..., 1], axis=1)
    bob = np.array([[1.0, d[_BOB]], [0.0, 1.0 - d[_BOB]]])
    return np.multiply.outer(monomials, bob)


def coincidence_clicks(
    registry: ModeRegistry, occupations: np.ndarray,
    det_a: Detector, det_b: Detector,
) -> np.ndarray:
    """Per occupation row: P(det_a and det_b both click in bin t), shape
    (terms, max_bins).

    Marginal per gate; extra clicks elsewhere are not vetoed, as in a plain
    coincidence counter.
    """
    d = np.array([det_a.dark_prob, det_b.dark_prob])[:, None, None]
    clicks = d + (1.0 - d) * (1.0 - _misses(registry, occupations, (det_a, det_b)))
    return (clicks[0] * clicks[1]).T


# group index of the relay's fiber: a pulse covers one meter of it in
# FIBER_GROUP_INDEX / c, which sets the timing budget and the pulse spacing
FIBER_GROUP_INDEX = 1.468


@dataclass(frozen=True)
class TimingBudget:
    """Fiber lengths and electronics latency that set Bob's gate margin."""

    # no sender-side spool: it delays only the arrival synchronization at
    # the measurement station, not Bob's gate, so it stays out of the slack
    charlie_spool_m: float = 179.72
    quantum_fiber_m: float = 800.0
    classical_fiber_m: float = 800.0
    bob_spool_m: float = 250.0
    group_index: float = FIBER_GROUP_INDEX
    decision_latency_s: float = 220e-9

    def __post_init__(self):
        for name in (
            "charlie_spool_m",
            "quantum_fiber_m",
            "classical_fiber_m",
            "bob_spool_m",
            "decision_latency_s",
        ):
            # written so that NaN fails too
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        if not 1.0 <= self.group_index < math.inf:
            raise ConfigError(f"group_index must be finite and >= 1, got {self.group_index}")


def validate_timing(budget: TimingBudget) -> float:
    """Photon arrival at Bob minus classical-trigger arrival, in seconds.

    Positive slack means the trigger information reaches Bob's gate before
    his photon does.  The photon rides quantum fiber plus Bob's spool; the
    trigger waits for the delayed pump-side photon, the decision
    electronics, and the classical fiber.  Raises ConfigError when the
    slack is not a finite number of ns.
    """
    per_m = budget.group_index / _SPEED_OF_LIGHT
    photon = (budget.quantum_fiber_m + budget.bob_spool_m) * per_m
    classical = (
        budget.charlie_spool_m * per_m
        + budget.decision_latency_s
        + budget.classical_fiber_m * per_m
    )
    slack = photon - classical
    # finite lengths can still overflow the sums and products, or the ns
    # the CLI prints: inf - inf is NaN, and neither has a gate order
    if not math.isfinite(slack * 1e9):
        raise ConfigError(f"the timing budget overflows: a slack of {slack} s")
    return slack
