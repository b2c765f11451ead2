"""Threshold detection, Bell-state acceptance, and the trigger timing budget.

Detectors are threshold devices: efficiency eta is applied analytically as
P(no click | n photons) = (1 - eta)^n, which is identical to folding a loss
of transmittance eta into the mode and thresholding with a perfect detector.
Dark counts are independent Bernoulli events OR'd into every open gate.

The measurement station pairs a free-running detector with one that is
armed only for the bin right after the free-running detector fired; that
asymmetry halves the accepted time orderings, and a partner that runs free
too accepts both.  Acceptance of a projection onto the antisymmetric Bell
state requires exactly two clicks, on different detectors, in adjacent
time bins inside the clock window.

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
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .fock import ModeRegistry

# speed of light in vacuum, m/s; exact in the SI
_SPEED_OF_LIGHT = 299_792_458.0

# time bins of the clock window in which Bell-state clicks are accepted
CLOCK_WINDOW = (0, 1, 2)
# the herald gate opens in the bin the prepared photon is emitted in
HERALD_BIN = 0
# receiver bins whose clicks teleport_clicks reports
BOB_BINS = (0, 1, 2)


@dataclass(frozen=True)
class DetectorModel:
    label: str
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


@dataclass(frozen=True)
class DetectorChannel:
    """One detector watching one spatial channel.

    follows: label of the detector whose click at bin t arms this one at
    bin t+1; None means free-running (all bins open).
    """

    model: DetectorModel
    spatial: str
    follows: Optional[str] = None


def _gate_counts(registry: ModeRegistry, occupations: np.ndarray,
                 spatials: Sequence[str]) -> np.ndarray:
    """Integer photon counts per (term, channel, bin) gate, shape
    (terms, len(spatials), max_bins)."""
    # modes registered after the state was built hold no photons
    counts = occupations @ registry.bin_indicator(spatials)[: occupations.shape[1]]
    return counts.astype(np.intp).reshape(len(occupations), len(spatials), registry.max_bins)


def _alone(pc: np.ndarray) -> np.ndarray:
    """P(gate t clicks and no other gate of the detector does), per term and bin.

    Leave-one-out products of the miss probabilities, so a gate that is
    certain to click (pc = 1) needs no division by 1 - pc.
    """
    miss = 1.0 - pc
    before = np.ones_like(miss)
    before[:, 1:] = np.cumprod(miss[:, :-1], axis=1)
    after = np.ones_like(miss)
    after[:, :-1] = np.cumprod(miss[:, :0:-1], axis=1)[:, ::-1]
    return pc * before * after


@dataclass(frozen=True)
class TeleportOutcome:
    """Joint acceptance probabilities for one scan point; a leading axis,
    where there is one, runs over pair-number branches."""

    accept: np.ndarray    # P(Bell acceptance and herald)
    bob: np.ndarray       # [..., i]: P(acceptance and herald and Bob click in BOB_BINS[i])


def _partner_runs_free(ge: DetectorChannel, ingaas: DetectorChannel) -> bool:
    """True when the Bell-state partner is free-running, False when ge arms it."""
    if ge.follows is not None:
        raise ConfigError(f"{ge.model.label} must run free, not follow {ge.follows}")
    if ingaas.follows is None:
        return True
    if ingaas.follows != ge.model.label:
        raise ConfigError(
            f"{ingaas.model.label} can only follow {ge.model.label}, not {ingaas.follows}"
        )
    return False


def teleport_clicks(
    registry: ModeRegistry,
    occupations: np.ndarray,
    ge: DetectorChannel,
    ingaas: DetectorChannel,
    bob: DetectorChannel,
    herald: Optional[DetectorChannel] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per occupation row: P(accepted Bell pattern [and herald]), shape
    (terms,), and P(that and Bob click in bin b) for b in BOB_BINS, shape
    (terms, len(BOB_BINS)).

    Sums over the accepted patterns only, with array operations.  ge runs
    free.  Accepted patterns with ge alone at bin t and its partner at t+1
    always count; the reversed ordering counts only when the partner runs
    free too (ingaas.follows is None) rather than being armed by ge
    (ingaas.follows == ge's label).  tests/oracles.py holds the full
    click-pattern enumeration this agrees with.
    """
    symmetric = _partner_runs_free(ge, ingaas)
    spatials = (ge.spatial, ingaas.spatial, bob.spatial)
    if herald is not None:
        spatials += (herald.spatial,)
    n_bins = registry.max_bins
    counts = _gate_counts(registry, occupations, spatials)
    pc_ge = ge.model.click_probs(counts[:, 0])
    pc_in = ingaas.model.click_probs(counts[:, 1])
    alone_ge = _alone(pc_ge)
    alone_in = _alone(pc_in) if symmetric else None
    p_accept = np.zeros(len(counts))
    for t in CLOCK_WINDOW:
        if t + 1 >= n_bins or (t + 1) not in CLOCK_WINDOW:
            continue
        if symmetric:
            # both detectors free-running: exactly one click on each,
            # either time ordering
            p_accept += alone_ge[:, t] * alone_in[:, t + 1]
            p_accept += alone_in[:, t] * alone_ge[:, t + 1]
        else:
            # free-running detector fires at t alone; its partner is
            # armed only at t+1, so no other partner gates exist
            p_accept += alone_ge[:, t] * pc_in[:, t + 1]
    if herald is not None:
        p_accept *= herald.model.click_probs(counts[:, 3, HERALD_BIN])
    pc_bob = bob.model.click_probs(counts[:, 2, list(BOB_BINS)])
    return p_accept, p_accept[:, None] * pc_bob


def coincidence_clicks(
    registry: ModeRegistry, occupations: np.ndarray,
    det_a: DetectorChannel, det_b: DetectorChannel,
) -> np.ndarray:
    """Per occupation row: P(det_a and det_b both click in bin t), shape
    (terms, max_bins).

    Marginal per gate; extra clicks elsewhere are not vetoed, as in a plain
    coincidence counter.
    """
    counts = _gate_counts(registry, occupations, (det_a.spatial, det_b.spatial))
    return det_a.model.click_probs(counts[:, 0]) * det_b.model.click_probs(counts[:, 1])


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
