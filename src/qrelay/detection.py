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
times the registry's mode-to-gate indicator gives the photons in every
detector gate, and from those teleport_clicks and coincidence_clicks give
each row's click probabilities with array operations.  They take no
amplitudes: the caller weighs the rows, by |amplitude|^2 summed per
pair-number branch and per overlap component for the bunching dip, or by
the teleport engine's phase harmonics, and dots the branch weights in last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, RegistryMismatchError
from .fock import ModeRegistry

# speed of light in vacuum, m/s; exact in the SI
_SPEED_OF_LIGHT = 299_792_458.0

# time bins of the clock window in which Bell-state clicks are accepted
CLOCK_WINDOW = (0, 1, 2)
# the herald gate opens in the bin the prepared photon is emitted in
HERALD_BIN = 0
# receiver bins whose clicks teleport_clicks reports
BOB_BINS = (0, 1, 2)
# channel index of a gate (channel, bin): teleport_clicks' channel order
_GE, _INGAAS, _BOB, _HERALD = range(4)


@dataclass(frozen=True)
class Detector:
    """A threshold detector watching one spatial channel."""

    spatial: str
    efficiency: float = 1.0
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ConfigError(f"dark_prob must be in [0, 1), got {self.dark_prob}")

    def click_prob(self, n_photons: int) -> float:
        miss = (1.0 - self.efficiency) ** n_photons
        return 1.0 - (1.0 - self.dark_prob) * miss

    def click_probs(self, counts: np.ndarray) -> np.ndarray:
        """click_prob of every entry of an integer photon-count array."""
        table = np.array([self.click_prob(n) for n in range(int(counts.max(initial=0)) + 1)])
        return table[counts]


def _gate_counts(registry: ModeRegistry, occupations: np.ndarray,
                 spatials: Sequence[str]) -> np.ndarray:
    """Integer photon counts per (term, channel, bin) gate, shape
    (terms, len(spatials), max_bins)."""
    # modes registered after the state was built hold no photons
    counts = occupations @ registry.bin_indicator(spatials)[: occupations.shape[1]]
    return counts.astype(np.intp).reshape(len(occupations), len(spatials), registry.max_bins)


@dataclass(frozen=True)
class TeleportOutcome:
    """Joint acceptance probabilities for one scan point; a leading axis,
    where there is one, runs over pair-number branches."""

    accept: np.ndarray    # P(Bell acceptance and herald)
    bob: np.ndarray       # [..., i]: P(acceptance and herald and Bob click in BOB_BINS[i])


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


def teleport_clicks(
    registry: ModeRegistry,
    occupations: np.ndarray,
    ge: Detector,
    ingaas: Detector,
    bob: Detector,
    herald: Optional[Detector] = None,
    *,
    free_partner: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per occupation row: P(accepted Bell pattern [and herald]), shape
    (terms,), and P(that and Bob click in bin b) for b in BOB_BINS, shape
    (terms, len(BOB_BINS)).

    `free_partner`, which has no default, is True when ingaas runs free
    and False when ge arms it.  The acceptance is the sum over
    bell_patterns of each pattern's click probabilities times its miss
    probabilities, and Bob's click a marginal factor on top.
    tests/oracles.py holds the full click-pattern enumeration this agrees
    with.  Raises RegistryMismatchError when the registry's bins do not
    cover CLOCK_WINDOW and BOB_BINS.
    """
    patterns = bell_patterns(free_partner, registry.max_bins, herald is not None)
    if registry.max_bins <= max(CLOCK_WINDOW + BOB_BINS):
        raise RegistryMismatchError(f"{registry.max_bins} registry bins do not hold bins "
                                    f"{sorted(set(CLOCK_WINDOW + BOB_BINS))}")
    channels = (ge, ingaas, bob) + ((herald,) if herald is not None else ())
    counts = _gate_counts(registry, occupations, [ch.spatial for ch in channels])
    top = int(counts.max(initial=0)) + 1
    pc = np.array([[ch.click_prob(n) for n in range(top)] for ch in channels])
    # pc[channel, photons] and clicks[channel, bin, term] are P(click); table[0] P(miss)
    gates = np.ascontiguousarray(counts.transpose(1, 2, 0))
    clicks = pc.ravel()[gates + top * np.arange(len(channels))[:, None, None]]
    table = np.stack([1.0 - clicks, clicks])
    # [pattern, slot]: each pattern's dark gates, then its click gates
    kind, channel, t = np.array([[(0, *g) for g in dark] + [(1, *g) for g in click]
                                 for click, dark in patterns]).transpose(2, 0, 1)
    p_accept = table[kind, channel, t].prod(axis=1).sum(axis=0)
    return p_accept, p_accept[:, None] * clicks[_BOB, list(BOB_BINS)].T


def coincidence_clicks(
    registry: ModeRegistry, occupations: np.ndarray,
    det_a: Detector, det_b: Detector,
) -> np.ndarray:
    """Per occupation row: P(det_a and det_b both click in bin t), shape
    (terms, max_bins).

    Marginal per gate; extra clicks elsewhere are not vetoed, as in a plain
    coincidence counter.
    """
    counts = _gate_counts(registry, occupations, (det_a.spatial, det_b.spatial))
    return det_a.click_probs(counts[:, 0]) * det_b.click_probs(counts[:, 1])


@dataclass(frozen=True)
class TimingBudget:
    """Fiber lengths and electronics latency that set Bob's gate margin.

    The sender-side spool delays only the arrival synchronization at the
    measurement station, not Bob's gate, so it stays out of the slack.
    """

    alice_spool_m: float = 177.0
    charlie_spool_m: float = 179.72
    quantum_fiber_m: float = 800.0
    classical_fiber_m: float = 800.0
    bob_spool_m: float = 250.0
    group_index: float = 1.468
    decision_latency_s: float = 220e-9

    def __post_init__(self):
        for name in (
            "alice_spool_m",
            "charlie_spool_m",
            "quantum_fiber_m",
            "classical_fiber_m",
            "bob_spool_m",
            "decision_latency_s",
        ):
            # written so that NaN fails too
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        if not 0 < self.group_index < math.inf:
            raise ConfigError("group_index must be finite and > 0")


def validate_timing(budget: TimingBudget) -> float:
    """Photon arrival at Bob minus classical-trigger arrival, in seconds.

    Positive slack means the trigger information reaches Bob's gate before
    his photon does.  The photon rides quantum fiber plus Bob's spool; the
    trigger waits for the delayed pump-side photon, the decision
    electronics, and the classical fiber.
    """
    per_m = budget.group_index / _SPEED_OF_LIGHT
    photon = (budget.quantum_fiber_m + budget.bob_spool_m) * per_m
    classical = (
        budget.charlie_spool_m * per_m
        + budget.decision_latency_s
        + budget.classical_fiber_m * per_m
    )
    return photon - classical
