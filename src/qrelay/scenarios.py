"""Full measurement campaigns assembled from the lower layers.

One configuration object drives three runs: the photon-bunching dip scan
(two sources onto the joint measurement station, coincidences versus path
mismatch), the teleportation fringe scan (qubit preparation, entangled
relay pair, Bell-state acceptance, receiver analyzer phase scan), and
source-blocking runs that isolate the phase-independent background.

Every run first enumerates the joint pair-number branches of the two
sources, builds them exactly in the truncated Fock space as one branch
mixture, and pushes it through the optical circuit; detector response is
applied analytically at the end, branch by branch, and the branch weights
come in last, as a dot product.  Neither scan builds a state per point:
the fringe is a trigonometric polynomial in the analyzer phase whose
harmonics come from one analyzer pass and one detection pass, and the dip
a polynomial in the squared overlap xi^2, fixed by D+1 state builds.
Counts are either probability times pulses (analytic mode) or Poisson
draws around that expectation (montecarlo mode) with a counter-based
generator keyed by (seed, scan point), so reruns are reproducible bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .detection import (
    CLOCK_WINDOW,
    DetectorChannel,
    DetectorModel,
    TeleportOutcome,
    coincidence_probability,
    teleport_clicks,
)
from .errors import (
    ConfigError,
    FitConvergenceError,
    HarmonicSynthesisError,
    LabelMixingError,
    UnnormalizedStateError,
)
from .fock import BRANCH_RECORD, NORM_ATOL, FockState, ModeKey, ModeRegistry, vacuum
from .optics import Circuit, apply, loss_from_db
from .sources import (
    STATISTICS,
    OverlapModel,
    SpdcSource,
    emit_pairs_entangled,
    emit_pairs_single_bin,
    pair_count_distribution,
)

ALICE_QUBIT = "alice-1310"
ALICE_HERALD = "alice-1555"
EPR_QUBIT = "charlie-1310"
EPR_BOB = "bob-1555"

MANDEL_MODES = ("symmetric", "entangled")
ENCODERS = ("michelson", "lossless")
RUN_MODES = ("analytic", "montecarlo")
BLOCK_CHOICES = ("none", "alice", "epr", "both")

# at most two pairs in total per gate; states are truncated at the
# 2 * MAX_PAIRS_EACH photons those pairs carry, read when an engine is built
MAX_PAIRS_EACH = 2

# largest point count a scan accepts: at the default pair truncation a dip
# point costs about 400 bytes (a fringe point 200) across the interpolation,
# the fit and the CSV row, so the cap keeps a scan under about 0.5 GB
MAX_POINTS = 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat bag of physical and run parameters; field names are config keys.

    pair_mean, when set, overrides both per-source means.  Detector
    efficiencies and dark probabilities default to placeholders; the dark
    probabilities can be rescaled against measured backgrounds with
    calibrate_dark_counts, which flips detectors_calibrated.
    """

    pair_mean_alice: float = 0.19
    pair_mean_epr: float = 0.07
    pair_mean: Optional[float] = None
    statistics: str = "thermal"
    heralded: bool = False
    phase_pump: float = 0.0
    phase_alice: float = 0.0
    phase_bob: float = 0.0
    delta_x_um: float = 0.0
    dip_fwhm_um: float = 144.0
    mandel_mode: str = "symmetric"
    mandel_phase: float = 0.0
    alice_encoder: str = "michelson"
    symmetric_bsa: bool = False
    ideal_single_pairs: bool = False
    loss_alice_db: float = 0.0
    loss_epr_db: float = 0.0
    loss_herald_db: float = 0.0
    loss_bob_db: float = 2.0
    eta_ge: float = 0.1
    eta_ingaas_bsa: float = 0.1
    eta_herald: float = 0.1
    eta_bob: float = 0.1
    dark_ge: float = 1e-5
    dark_ingaas_bsa: float = 1e-4
    dark_herald: float = 1e-4
    dark_bob: float = 1e-4
    detectors_calibrated: bool = False
    tail_tol: float = 5e-3
    pulses_per_point: int = 10_000_000
    mode: str = "analytic"
    trials: int = 1_000_000
    seed: int = 12345

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name, choices in (("statistics", STATISTICS), ("mandel_mode", MANDEL_MODES),
                              ("alice_encoder", ENCODERS), ("mode", RUN_MODES)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}")
        for name in ("pair_mean_alice", "pair_mean_epr", "pair_mean", "loss_alice_db",
                     "loss_epr_db", "loss_herald_db", "loss_bob_db"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("eta_ge", "eta_ingaas_bsa", "eta_herald", "eta_bob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        for name in ("dark_ge", "dark_ingaas_bsa", "dark_herald", "dark_bob"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if not 0.0 < self.tail_tol < 1.0:
            raise ConfigError("tail_tol must be in (0, 1)")
        if self.dip_fwhm_um <= 0:
            raise ConfigError("dip_fwhm_um must be > 0")
        # keeps Poisson means below numpy's limit (about 9.2e18), counts finite
        for name in ("pulses_per_point", "trials"):
            if not 1 <= getattr(self, name) <= 10**18:
                raise ConfigError(f"{name} must be in [1, 10**18]")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be in [0, 2**64)")

    def alice_mean(self) -> float:
        return self.pair_mean if self.pair_mean is not None else self.pair_mean_alice

    def epr_mean(self) -> float:
        return self.pair_mean if self.pair_mean is not None else self.pair_mean_epr

    def materialized(self) -> "ExperimentConfig":
        """Fold the common pair_mean override into the per-source fields."""
        if self.pair_mean is None:
            return self
        return replace(
            self,
            pair_mean=None,
            pair_mean_alice=self.pair_mean,
            pair_mean_epr=self.pair_mean,
        )


def build_ideal_config() -> ExperimentConfig:
    """Lossless, unit-efficiency, dark-free setup with one pair per source.

    The qubit is prepared by a lossless bin encoder and the Bell-state
    stage gates both detectors symmetrically, so acceptance reaches the
    full 1/4 and the fringe visibility is limited only by arithmetic.
    """
    return ExperimentConfig(
        ideal_single_pairs=True,
        alice_encoder="lossless",
        symmetric_bsa=True,
        delta_x_um=0.0,
        loss_alice_db=0.0,
        loss_epr_db=0.0,
        loss_herald_db=0.0,
        loss_bob_db=0.0,
        eta_ge=1.0,
        eta_ingaas_bsa=1.0,
        eta_herald=1.0,
        eta_bob=1.0,
        dark_ge=0.0,
        dark_ingaas_bsa=0.0,
        dark_herald=0.0,
        dark_bob=0.0,
        detectors_calibrated=True,
    )


def pair_branches() -> List[Tuple[int, int]]:
    """Every (alice pairs, relay pairs) branch kept by the pair truncation."""
    return [
        (na, nc)
        for na in range(MAX_PAIRS_EACH + 1)
        for nc in range(MAX_PAIRS_EACH + 1 - na)
    ]


def branch_weights(config: ExperimentConfig) -> Dict[Tuple[int, int], float]:
    """Joint (alice pairs, relay pairs) weights, truncated and renormalized.

    Branches with more than MAX_PAIRS_EACH total pairs are dropped and the
    rest rescaled to sum to one.  The per-source tail check bounds only what
    each source's own cut at MAX_PAIRS_EACH pairs discards; the joint cut on
    the total discards more (6.3e-3 of the probability at the defaults,
    above tail_tol) and nothing checks it yet.
    """
    cfg = config.materialized()
    if cfg.ideal_single_pairs:
        return {(1, 1): 1.0}
    pa = pair_count_distribution(
        SpdcSource(cfg.alice_mean(), cfg.statistics), MAX_PAIRS_EACH, cfg.tail_tol
    )
    pc = pair_count_distribution(
        SpdcSource(cfg.epr_mean(), cfg.statistics), MAX_PAIRS_EACH, cfg.tail_tol
    )
    raw = {(na, nc): float(pa[na] * pc[nc]) for na, nc in pair_branches()}
    total = sum(raw.values())
    return {k: v / total for k, v in raw.items()}


@dataclass(frozen=True)
class ScanResult:
    """One scanned observable; analytic counts are exactly prob * pulses."""

    control_name: str
    control: np.ndarray
    probability: np.ndarray
    counts: np.ndarray
    pulses: int


def phase_grid(points: int = 24, periods: float = 2.0, start: float = 0.0) -> np.ndarray:
    """`points` equally spaced analyzer phases over `periods` periods from
    `start`; a negative period count scans backwards."""
    if not 4 <= points <= MAX_POINTS:
        raise ConfigError(f"a phase scan needs 4 to {MAX_POINTS} points, got {points}")
    if not math.isfinite(periods) or periods == 0:
        raise ConfigError(f"the period count must be finite and nonzero, got {periods}")
    return start + np.linspace(0.0, periods * 2.0 * math.pi, points, endpoint=False)


def mismatch_grid(
    points: int = 41, span_um: float = 300.0, center_um: float = 0.0
) -> np.ndarray:
    if not 5 <= points <= MAX_POINTS:
        raise ConfigError(f"a mismatch scan needs 5 to {MAX_POINTS} points, got {points}")
    if not (math.isfinite(span_um) and span_um > 0):
        raise ConfigError(f"the mismatch span must be finite and > 0, got {span_um}")
    return center_um + np.linspace(-span_um, span_um, points)


def _counts(config: ExperimentConfig, probs: np.ndarray, stream: int) -> Tuple[np.ndarray, int]:
    if config.mode == "analytic":
        return probs * float(config.pulses_per_point), config.pulses_per_point
    counts = np.empty(len(probs))
    for i, p in enumerate(probs):
        # one counter-based generator per scan point, independent of order;
        # a uint64 key, because a plain list goes through float64 at seed >= 2**63
        key = np.array([config.seed, (stream << 32) + i], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        counts[i] = gen.poisson(p * config.trials)
    return counts, config.trials


def _detectors(
    config: ExperimentConfig, darks: Optional[Dict[str, float]] = None
) -> Tuple[DetectorChannel, DetectorChannel, DetectorChannel, DetectorChannel]:
    """The four detector channels of a config; `darks`, keyed by the config's
    dark-probability field names, replaces its dark counts."""
    if darks is None:
        darks = {k: getattr(config, k) for k in _REFERENCE_DARKS}
    ge = DetectorChannel(
        DetectorModel("bsa-ge", config.eta_ge, darks["dark_ge"]), ALICE_QUBIT
    )
    follows = None if config.symmetric_bsa else "bsa-ge"
    ingaas = DetectorChannel(
        DetectorModel("bsa-ingaas", config.eta_ingaas_bsa, darks["dark_ingaas_bsa"]),
        EPR_QUBIT,
        follows=follows,
    )
    herald = DetectorChannel(
        DetectorModel("herald", config.eta_herald, darks["dark_herald"]), ALICE_HERALD
    )
    bob = DetectorChannel(
        DetectorModel("bob", config.eta_bob, darks["dark_bob"]), EPR_BOB
    )
    return ge, ingaas, herald, bob


def _relay_registry() -> ModeRegistry:
    """The four relay channels over the clock window's time bins, and the
    branch record mode; the two qubit channels carry internal labels 0, 1.

    Sources emit into bins 0 and 1 and one analyzer delay reaches bin 2, so
    the window holds every occupied mode, and the Bell-state veto ("only
    this gate clicks") spans exactly the gates the detectors open.  A delay
    that pushes an occupied mode further raises BinOverflowError.
    """
    reg = ModeRegistry(len(CLOCK_WINDOW))
    reg.add_channel(ALICE_QUBIT, (0, 1))
    reg.add_channel(EPR_QUBIT, (0, 1))
    reg.add_channel(ALICE_HERALD)
    reg.add_channel(EPR_BOB)
    reg.add(BRANCH_RECORD)
    return reg


def _branch_mixture(reg: ModeRegistry, branches: Sequence[Tuple[int, int]], xi: float,
                    relay_bins: Sequence[int], phase_pump: float) -> FockState:
    """The (alice pairs, relay pairs) branches as one mixture.

    Branch b, the b-th entry of `branches`, starts as the vacuum with b
    photons in the BRANCH_RECORD mode, so rows of different branches never
    merge, one pass through a circuit carries every branch, and detection
    answers per branch.
    """
    occupations, amps = [], []
    for b, (na, nc) in enumerate(branches):
        st = vacuum(reg)
        st.occupations[0, reg.index(BRANCH_RECORD)] = b
        st = emit_pairs_single_bin(st, ALICE_QUBIT, ALICE_HERALD, na, 0, xi)
        st = emit_pairs_entangled(st, EPR_QUBIT, EPR_BOB, nc, relay_bins, phase_pump)
        occupations.append(st.occupations)
        amps.append(st.amplitudes)
    return FockState(reg, np.concatenate(occupations), np.concatenate(amps))


def _add_bell_mixer(circ: Circuit) -> None:
    """50/50 beamsplitters between the two qubit channels, bin by bin and
    label by label: the Bell-state measurement's mixer."""
    for t in range(circ.registry.max_bins):
        for i in (0, 1):
            circ.add_beamsplitter(ModeKey(ALICE_QUBIT, t, i), ModeKey(EPR_QUBIT, t, i))


# largest synthesis rounding error accepted, relative to a bound on the
# synthesized magnitude; a more negative synthesized probability is an error
_SYNTHESIS_RTOL = 64 * np.finfo(float).eps

# unobserved mode whose photon number is a row's summed time-bin index
# before the receiver analyzer
DELAY_RECORD = ModeKey("delay-record", 0)


def _clamp_rounding(values: np.ndarray, bound) -> np.ndarray:
    """Probabilities synthesized exactly, with rounding-level negatives at
    zeros clamped to 0; anything more negative raises.  `bound`, a bound on
    |values| that broadcasts against them, scales the rounding floor."""
    floor = -_SYNTHESIS_RTOL * np.asarray(bound)
    if np.any(values < floor):
        raise HarmonicSynthesisError(
            f"a synthesized probability is {np.max(floor - values):.3e} below its rounding floor"
        )
    return np.maximum(values, 0.0)


def _analyzer(registry: ModeRegistry, phi_b: float) -> Circuit:
    """The receiver analyzer: an unbalanced Michelson on Bob's channel."""
    circ = Circuit(registry)
    circ.add_michelson(EPR_BOB, phi_b)
    return circ


def _check_phase_rides_the_delay(analyzer: Circuit, bins: np.ndarray) -> None:
    """Raise HarmonicSynthesisError unless phi_b enters the analyzer, built
    at phi_b = 0, only as a factor e^{i phi_b} per bin that an entry of its
    transfer matrix moves a photon later; `bins` holds each mode's time bin.
    The matrices are compared at one probe phase away from multiples of pi/2."""
    probe = 1.0
    shift = bins[None, :] - bins[:, None]
    expected = analyzer.transfer() * np.exp(1j * probe * shift)
    off = np.abs(_analyzer(analyzer.registry, probe).transfer() - expected).max(initial=0.0)
    if off > _SYNTHESIS_RTOL:
        raise HarmonicSynthesisError(
            f"the analyzer phase enters other than through its delay arm ({off:.3e} off)"
        )


def _delay_harmonics(occupations: np.ndarray, delays: np.ndarray, amplitudes: np.ndarray,
                     degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows grouped by occupation: (distinct occupations, harmonics c).

    Row r holds amplitudes[r] e^{i delays[r] phi} at analyzer phase phi, so
    a group's amplitudes A_k, k in [0, degree], give |amplitude|^2 =
    Re(c_0 + 2 sum_{m>=1} c_m e^{i m phi}) with c_m = sum_k A_{k+m} conj(A_k);
    c has shape (degree + 1, groups).  Raises HarmonicSynthesisError if a
    delay count lies outside [0, degree] or repeats within one occupation.
    """
    outside = (delays < 0) | (delays > degree)
    if np.any(outside):
        raise HarmonicSynthesisError(
            f"a row has {delays[outside][0]} delayed photons, outside [0, {degree}]"
        )
    occupations = np.ascontiguousarray(occupations)
    keys = occupations.view(np.dtype((np.void, occupations.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    slots = delays * len(first) + inverse.ravel()
    if np.bincount(slots).max(initial=0) > 1:
        raise HarmonicSynthesisError("two rows of one occupation have the same delay count")
    coeffs = np.zeros((degree + 1, len(first)), dtype=complex)
    coeffs.flat[slots] = amplitudes
    conj = coeffs.conj()
    harmonics = np.stack(
        [(coeffs[m:] * conj[: degree + 1 - m]).sum(axis=0) for m in range(degree + 1)]
    )
    return occupations[first], harmonics


def _synthesize(harmonics: np.ndarray, phases) -> np.ndarray:
    """Re(H_0 + 2 sum_{m>=1} H_m e^{i m phi}) at each phase, from harmonics
    H_m in the rows of a (D+1, columns) array: shape (len(phases), columns).
    |H_0| + 2 sum |H_m| bounds the magnitude, and sets the rounding floor."""
    factors = np.full(len(harmonics), 2.0)
    factors[0] = 1.0
    m = np.arange(len(harmonics))
    rotations = factors * np.exp(1j * np.multiply.outer(np.asarray(phases, dtype=float), m))
    return _clamp_rounding((rotations @ harmonics).real, factors @ np.abs(harmonics))


def _analyzed_harmonics(prepared: FockState, degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """The prepared mixture through the receiver analyzer, applied once at
    phi_b = 0: (distinct output occupations, their phase harmonics), as
    _delay_harmonics returns them; see TeleportEngine."""
    reg = prepared.registry
    analyzer = _analyzer(reg, 0.0)
    record = reg.add(DELAY_RECORD)
    bins = np.array([reg.key_at(i).time_bin for i in range(len(reg))])
    _check_phase_rides_the_delay(analyzer, bins)
    tagged = np.zeros((len(prepared), len(reg)), dtype=np.uint8)
    tagged[:, : prepared.occupations.shape[1]] = prepared.occupations
    tagged[:, record] = tagged @ bins
    analyzed = apply(analyzer, FockState(reg, tagged, prepared.amplitudes))
    occupations = analyzed.occupations
    delays = occupations @ bins - occupations[:, record]
    occupations[:, record] = 0
    return _delay_harmonics(occupations, delays, analyzed.amplitudes, degree)


class TeleportEngine:
    """Branch states through preparation, losses, the Bell-state mixer and
    the receiver analyzer, each applied once.

    Branch states do not depend on the pair means or the detectors, so the
    engine holds every branch of the pair truncation, in one branch
    mixture, and blocking runs, dark-count scans and forced single-pair mode
    only reweight them (branches they leave out get weight 0).  Detection
    answers per branch, once per detector set and cached, and an outcome is
    the branch weights dotted into it; the default and blocking weights are
    computed once per engine.

    The analyzer is the only element that depends on phi_b, and it is
    applied once, at phi_b = 0.  A photon that takes its delay arm moves one
    bin later and picks up e^{i phi_b}, so an output row reached with k
    delayed photons has amplitude A_k e^{i k phi_b}, where k is the row's
    summed time-bin index after the analyzer minus the sum before it.  The
    prepared rows carry the latter as photons in the unobserved
    DELAY_RECORD mode, so rows with different k never merge.  Grouped by
    occupation without the record, each output occupation has amplitudes
    A_0..A_D, D (`degree`) being the most photons at the analyzer input,
    and its probability is a degree-D trigonometric polynomial in phi_b
    with harmonics c_m = sum_k A_{k+m} conj(A_k) (`_delay_harmonics`).  One
    detection pass per detector set, and a matmul with the c_m per branch,
    give the per-branch harmonics H_m of every detection probability; the
    probability at phi_b is Re(H_0 + 2 sum_{m>=1} H_m e^{i m phi_b}) and
    its phase average is H_0.  This is exact when
    - phi_b enters the analyzer's transfer matrix only as a factor
      e^{i phi_b} per bin that an entry moves a photon later, so that a row's
      phase is e^{i k phi_b} whichever paths reach it, and
    - every delay count k lies in [0, D], which holds when each photon is
      delayed by at most one bin, and is unique within its output
      occupation.
    Both are checked when the engine is built, and HarmonicSynthesisError
    raised otherwise; each branch must also come out normalized at every
    phase (norm harmonic 0 equal to 1, the others 0).
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config.materialized()
        cfg = self.config
        reg = _relay_registry()
        self.registry = reg

        pre = Circuit(reg)
        if cfg.alice_encoder == "michelson":
            pre.add_michelson(ALICE_QUBIT, cfg.phase_alice, internals=(0, 1))
        else:
            pre.add_bin_encoder(ALICE_QUBIT, cfg.phase_alice, internals=(0, 1))
        pre.add_channel_loss(ALICE_QUBIT, loss_from_db(cfg.loss_alice_db))
        pre.add_channel_loss(EPR_QUBIT, loss_from_db(cfg.loss_epr_db))
        pre.add_channel_loss(ALICE_HERALD, loss_from_db(cfg.loss_herald_db))
        pre.add_channel_loss(EPR_BOB, loss_from_db(cfg.loss_bob_db))
        _add_bell_mixer(pre)

        xi = OverlapModel(cfg.dip_fwhm_um).xi(cfg.delta_x_um)
        self.branches = pair_branches()
        mixture = _branch_mixture(reg, self.branches, xi, (0, 1), cfg.phase_pump)
        self.prepared = apply(pre, mixture)
        bob = reg.indices_for(EPR_BOB)
        self.degree = int(self.prepared.occupations[:, bob].sum(axis=1).max(initial=0))

        occupations, harmonics = _analyzed_harmonics(self.prepared, self.degree)
        # groups sorted by branch, each branch's slice of them, and the real
        # and imaginary parts of their harmonics stacked
        branch = occupations[:, reg.index(BRANCH_RECORD)]
        order = np.argsort(branch, kind="stable")
        self._occupations = occupations[order]
        self._parts = np.concatenate([harmonics.real[:, order], harmonics.imag[:, order]])
        bounds = np.searchsorted(branch[order], np.arange(len(self.branches) + 1))
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        norms = self._per_branch(np.ones((len(occupations), 1)))[:, 0]
        off = np.abs(norms - (np.arange(self.degree + 1) == 0)[:, None])
        if np.any(off > NORM_ATOL):
            b = int(np.argmax(off.max(axis=0)))
            raise UnnormalizedStateError(
                f"branch {b} has norm^2 harmonics {norms[:, b]}, expected 1, 0, ..."
            )
        self._weights: Dict[Optional[str], np.ndarray] = {}
        self._harmonics: Dict[tuple, np.ndarray] = {}

    def _per_branch(self, values: np.ndarray) -> np.ndarray:
        """Per-branch harmonics of per-group values (groups, columns): shape
        (degree + 1, columns, branches), complex; a real matmul per branch
        over its slice of the groups."""
        real = np.stack([self._parts[:, s] @ values[s] for s in self._slices], axis=-1)
        real = real.reshape(2, self.degree + 1, values.shape[1], len(self.branches))
        return real[0] + 1j * real[1]

    def _detected(self, detectors) -> np.ndarray:
        """Per-branch harmonics of (acceptance, Bob's click in each of
        BOB_BINS) for a detector set: shape (degree + 1, 4, branches)."""
        cfg = self.config
        detectors = tuple(detectors) if detectors is not None else _detectors(cfg)
        cached = self._harmonics.get(detectors)
        if cached is None:
            ge, ingaas, herald, bob = detectors
            accept, bob_clicks = teleport_clicks(
                self.registry, self._occupations, ge, ingaas, bob,
                herald if cfg.heralded else None,
            )
            cached = self._harmonics[detectors] = self._per_branch(
                np.column_stack([accept, bob_clicks])
            )
        return cached

    def _weight_vector(self, weights: Dict[Tuple[int, int], float]) -> np.ndarray:
        w = np.array([weights.get(k, 0.0) for k in self.branches])
        if abs(sum(weights.values()) - 1.0) > 1e-9 or abs(w.sum() - 1.0) > 1e-9:
            raise UnnormalizedStateError(f"weights {weights} do not sum to 1 on {self.branches}")
        return w

    def _cached_weights(self, blocked: Optional[str] = None) -> np.ndarray:
        """The config's branch weights, or with a source blocked: blocking
        zeroes the chosen source's pair mean, and releases forced
        single-pair mode since a blocked source cannot emit."""
        if blocked is not None and blocked not in BLOCK_CHOICES:
            raise ConfigError(f"blocked must be one of {BLOCK_CHOICES}")
        cached = self._weights.get(blocked)
        if cached is None:
            cfg = self.config
            if blocked is not None:
                cfg = replace(
                    cfg,
                    ideal_single_pairs=False,
                    pair_mean_alice=0.0 if blocked in ("alice", "both") else cfg.pair_mean_alice,
                    pair_mean_epr=0.0 if blocked in ("epr", "both") else cfg.pair_mean_epr,
                )
            cached = self._weights[blocked] = self._weight_vector(branch_weights(cfg))
        return cached

    def _probabilities(self, phases, weights: np.ndarray, detectors=None) -> np.ndarray:
        """(acceptance, Bob's click in each of BOB_BINS) at each phase, shape
        (len(phases), 4), for branch weights dotted into the harmonics."""
        return _synthesize(self._detected(detectors) @ weights, phases)

    def outcome(
        self,
        phi_b: float,
        weights: Optional[Dict[Tuple[int, int], float]] = None,
        detectors=None,
    ) -> TeleportOutcome:
        """Outcome of the branch mixture at one analyzer phase: the weights,
        which must put all their mass on the engine's branches, dotted into
        the per-branch harmonics."""
        w = self._cached_weights() if weights is None else self._weight_vector(weights)
        values = self._probabilities([phi_b], w, detectors)[0]
        return TeleportOutcome(values[0], values[1:])

    def scan(self, phases: Sequence[float]) -> np.ndarray:
        """Central-bin receiver probability at each phase, synthesized from
        the harmonics; rounding-level negatives at fringe zeros are clamped
        to 0, and anything more negative raises."""
        return self._probabilities(phases, self._cached_weights())[:, 2]

    def mean(self, detectors=None) -> float:
        """Phase average of the central-bin receiver probability: harmonic 0."""
        return float(self._detected(detectors)[0, 2].real @ self._cached_weights())

    def blocking(self, blocked: str, detectors=None) -> float:
        """Central-bin receiver probability at phase_bob with sources blocked
        (see _cached_weights)."""
        w = self._cached_weights(blocked)
        return self._probabilities([self.config.phase_bob], w, detectors)[0, 2]

    def background(self, detectors=None) -> float:
        """Phase-independent background estimated from blocking runs.

        Single-source backgrounds add; the both-blocked (dark only) term is
        counted in each single-blocking run, so it is subtracted once.
        """
        return (
            self.blocking("alice", detectors)
            + self.blocking("epr", detectors)
            - self.blocking("both", detectors)
        )


def run_teleport_scan(engine: TeleportEngine, phases: Sequence[float]) -> ScanResult:
    """Accepted-and-received coincidences in the central bin versus the
    receiver analyzer phase."""
    xs = np.asarray(list(phases), dtype=float)
    probs = engine.scan(xs)
    counts, pulses = _counts(engine.config, probs, stream=2)
    return ScanResult("phi_b_rad", xs, probs, counts, pulses)


def _check_labels_separate(circuit: Circuit) -> None:
    """Raise LabelMixingError if the circuit's transfer matrix has an entry
    between modes of different internal labels."""
    reg = circuit.registry
    t = circuit.transfer()
    labels = np.array([reg.key_at(i).internal for i in range(len(reg))])
    mixed = np.argwhere((t != 0) & (labels[:, None] != labels))
    if len(mixed):
        j, k = mixed[0]
        raise LabelMixingError(
            f"the dip circuit couples {reg.key_at(int(j))} to {reg.key_at(int(k))}"
        )


class _MandelEngine:
    """Two sources onto the Bell-state mixer for the bunching-dip scan.

    symmetric mode sends both sources through identical split-delay
    analyzers so first and second pulses overlap at the mixer; entangled
    mode keeps the relay source's two-bin emission and analyzes only the
    prepared qubit.  The overlap parameter enters the qubit photon's
    internal-mode split, so only coincidence rates near zero mismatch
    change.

    Each coincidence probability is a polynomial of degree D in s = xi^2,
    where D (`degree`, at most MAX_PAIRS_EACH) is the largest Alice pair
    number with nonzero branch weight.  Alice's n-pair branch puts amplitude
    sqrt(C(n, j)) xi^j (1 - s)^((n - j)/2) on j label-0 and n - j label-1
    signal photons, and the relay emits into label 0 only.  This is exact
    when
    - the circuit's transfer matrix has no entry between two internal labels
      (checked when the engine is built: LabelMixingError otherwise), so
      every output term keeps the n - j label-1 photons it started with and
      components with different j never interfere, and
    - detection reads only photon numbers summed over labels, as every
      detector model here does.
    A bin's probability is then sum_b w_b sum_j C(n_b, j) s^j (1 - s)^(n_b - j)
    P_bj, and D+1 state builds at the Chebyshev-Lobatto nodes
    s_k = (1 - cos(k pi / D)) / 2 fix it at every mismatch.  s = 1 is a
    node, so the ideal Hong-Ou-Mandel null is reproduced exactly.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config.materialized()
        cfg = self.config
        self.registry = _relay_registry()
        circ = Circuit(self.registry)
        circ.add_michelson(ALICE_QUBIT, cfg.mandel_phase, internals=(0, 1))
        if cfg.mandel_mode == "symmetric":
            circ.add_michelson(EPR_QUBIT, cfg.mandel_phase, internals=(0, 1))
        circ.add_channel_loss(ALICE_QUBIT, loss_from_db(cfg.loss_alice_db))
        circ.add_channel_loss(EPR_QUBIT, loss_from_db(cfg.loss_epr_db))
        _add_bell_mixer(circ)
        _check_labels_separate(circ)
        self.circuit = circ
        held = {k: w for k, w in branch_weights(cfg).items() if w > 0}
        self.branches, self.weights = list(held), np.array(list(held.values()))
        self.degree = max((na for na, _ in self.branches), default=0)
        # the symmetric mode's relay emits into the first bin only
        self.relay_bins = (0,) if cfg.mandel_mode == "symmetric" else (0, 1)
        self.ge, self.ingaas, _, _ = _detectors(cfg)
        self.overlap = OverlapModel(cfg.dip_fwhm_um)

    def coincidences(self, xi: float) -> np.ndarray:
        """(short, long) coincidences at overlap xi: the branch weights dotted
        into one detection pass of the positive-weight branches' mixture."""
        mixture = _branch_mixture(self.registry, self.branches, xi, self.relay_bins,
                                  self.config.phase_pump)
        per_branch = coincidence_probability(apply(self.circuit, mixture), self.ge, self.ingaas)
        return self.weights @ per_branch[:, :2]

    def scan(self, mismatches_um: np.ndarray) -> np.ndarray:
        """(short, long) coincidences at each mismatch, one row per point:
        the degree-D Lagrange interpolant in s of the D+1 node samples."""
        d = self.degree
        nodes = (1.0 - np.cos(math.pi * np.arange(d + 1) / max(d, 1))) / 2.0
        samples = np.array([self.coincidences(math.sqrt(s)) for s in nodes])
        s = np.array([self.overlap.xi(x) ** 2 for x in mismatches_um])
        # the product form gives exactly 1 and 0 at the nodes
        basis = np.ones((len(s), d + 1))
        for k in range(d + 1):
            for m in range(d + 1):
                if m != k:
                    basis[:, k] *= (s - nodes[m]) / (nodes[k] - nodes[m])
        return _clamp_rounding(basis @ samples, np.abs(samples).max(initial=0.0))


def run_mandel_scan(
    config: ExperimentConfig, mismatches_um: Sequence[float]
) -> Tuple[ScanResult, ScanResult]:
    """Same-bin coincidences versus path mismatch for the first (short-short)
    and second (long-long) arrival bins; returns (short, long) scans."""
    xs = np.asarray(list(mismatches_um), dtype=float)
    probs = _MandelEngine(config).scan(xs)
    p_short, p_long = probs[:, 0], probs[:, 1]
    c_short, pulses = _counts(config, p_short, stream=0)
    c_long, _ = _counts(config, p_long, stream=1)
    return (
        ScanResult("delta_x_um", xs, p_short, c_short, pulses),
        ScanResult("delta_x_um", xs, p_long, c_long, pulses),
    )


@dataclass(frozen=True)
class CalibrationReport:
    target_ratio: float
    achieved_ratio: float
    dark_scale: float
    clamped: bool


# scaling reference when the incoming config has all dark counts at zero
_REFERENCE_DARKS = {
    "dark_ge": 1e-5,
    "dark_ingaas_bsa": 1e-4,
    "dark_herald": 1e-4,
    "dark_bob": 1e-4,
}
_DARK_CAP = 0.9


def _scaled_darks(config: ExperimentConfig, scale: float) -> Dict[str, float]:
    base = {k: getattr(config, k) for k in _REFERENCE_DARKS}
    if all(v == 0.0 for v in base.values()):
        base = dict(_REFERENCE_DARKS)
    return {k: min(v * scale, _DARK_CAP) for k, v in base.items()}


def _with_dark_scale(config: ExperimentConfig, scale: float) -> ExperimentConfig:
    return replace(config, **_scaled_darks(config, scale))


def _background_ratio(scale: float, engine: TeleportEngine) -> float:
    """Background over signal with every dark probability scaled by `scale`."""
    dets = _detectors(engine.config, _scaled_darks(engine.config, scale))
    background = engine.background(dets)
    signal = engine.mean(dets) - background
    if signal <= 0.0:
        return 1e9
    return background / signal


def calibrate_dark_counts(
    config: ExperimentConfig, target_ratio: float = 1.0
) -> Tuple[ExperimentConfig, CalibrationReport]:
    """Rescale dark-count probabilities until background/signal hits a target.

    The multi-pair background is set by the sources and cannot be removed
    by calibration, so when it already exceeds the target the dark counts
    clamp to zero and the report says so.  Branch states are independent
    of detector parameters, which keeps the search to one engine build.
    The root search is scipy.optimize.brentq, imported only once a search
    is needed, so the rest of this module runs without scipy.
    """
    if target_ratio <= 0:
        raise ConfigError("target_ratio must be > 0")
    cfg = config.materialized()
    if cfg.ideal_single_pairs:
        cfg = replace(cfg, ideal_single_pairs=False)

    engine = TeleportEngine(cfg)
    r0 = _background_ratio(0.0, engine)
    if r0 >= target_ratio:
        calibrated = replace(_with_dark_scale(cfg, 0.0), detectors_calibrated=True)
        return calibrated, CalibrationReport(target_ratio, r0, 0.0, True)

    hi = 1.0
    while _background_ratio(hi, engine) < target_ratio:
        hi *= 4.0
        if hi > 1e7:
            raise FitConvergenceError(
                "dark-count calibration cannot reach the target background ratio"
            )
    from scipy.optimize import brentq

    # the engine travels in args, not in a closure: brentq's function wrapper
    # sits in a reference cycle, which would keep a captured engine and its
    # caches alive until the next full garbage collection
    scale = brentq(
        lambda s, eng: _background_ratio(s, eng) - target_ratio,
        0.0,
        hi,
        args=(engine,),
        rtol=1e-6,
    )
    calibrated = replace(_with_dark_scale(cfg, scale), detectors_calibrated=True)
    achieved = _background_ratio(scale, engine)
    return calibrated, CalibrationReport(target_ratio, achieved, float(scale), False)
