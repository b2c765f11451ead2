"""Full measurement campaigns assembled from the lower layers.

One configuration object drives three runs: the photon-bunching dip scan
(two sources onto the joint measurement station, coincidences versus path
mismatch), the teleportation fringe scan (qubit preparation, entangled
relay pair, Bell-state acceptance, receiver analyzer phase scan), and
source-blocking runs that isolate the phase-independent background.

Every run first enumerates the joint pair-number branches of the two
sources, builds each branch state exactly in the truncated Fock space,
and pushes it through the optical circuit; detector response is applied
analytically at the end.  Counts are either probability times pulses
(analytic mode) or Poisson draws around that expectation (montecarlo
mode) with a counter-based generator keyed by (seed, scan point), so
reruns are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .detection import (
    CLOCK_WINDOW,
    DetectorChannel,
    DetectorModel,
    TeleportOutcome,
    coincidence_probability,
    teleport_outcome_distribution,
)
from .errors import (
    ConfigError,
    FitConvergenceError,
    HarmonicSynthesisError,
    UnnormalizedStateError,
)
from .fock import FockState, ModeKey, ModeRegistry, occupation_matrix, vacuum
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
        if self.statistics not in STATISTICS:
            raise ConfigError(f"statistics must be one of {STATISTICS}")
        if self.mandel_mode not in MANDEL_MODES:
            raise ConfigError(f"mandel_mode must be one of {MANDEL_MODES}")
        if self.alice_encoder not in ENCODERS:
            raise ConfigError(f"alice_encoder must be one of {ENCODERS}")
        if self.mode not in RUN_MODES:
            raise ConfigError(f"mode must be one of {RUN_MODES}")
        for name in ("pair_mean_alice", "pair_mean_epr"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.pair_mean is not None and self.pair_mean < 0:
            raise ConfigError("pair_mean must be >= 0")
        for name in ("loss_alice_db", "loss_epr_db", "loss_herald_db", "loss_bob_db"):
            if getattr(self, name) < 0:
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
        if self.pulses_per_point < 1:
            raise ConfigError("pulses_per_point must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
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
    if points < 4:
        raise ConfigError("a phase scan needs at least 4 points")
    if not math.isfinite(periods) or periods == 0:
        raise ConfigError(f"the period count must be finite and nonzero, got {periods}")
    return start + np.linspace(0.0, periods * 2.0 * math.pi, points, endpoint=False)


def mismatch_grid(
    points: int = 41, span_um: float = 300.0, center_um: float = 0.0
) -> np.ndarray:
    if points < 5:
        raise ConfigError("a mismatch scan needs at least 5 points")
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
    config: ExperimentConfig,
) -> Tuple[DetectorChannel, DetectorChannel, DetectorChannel, DetectorChannel]:
    ge = DetectorChannel(
        DetectorModel("bsa-ge", config.eta_ge, config.dark_ge), ALICE_QUBIT
    )
    follows = None if config.symmetric_bsa else "bsa-ge"
    ingaas = DetectorChannel(
        DetectorModel("bsa-ingaas", config.eta_ingaas_bsa, config.dark_ingaas_bsa),
        EPR_QUBIT,
        follows=follows,
    )
    herald = DetectorChannel(
        DetectorModel("herald", config.eta_herald, config.dark_herald), ALICE_HERALD
    )
    bob = DetectorChannel(
        DetectorModel("bob", config.eta_bob, config.dark_bob), EPR_BOB
    )
    return ge, ingaas, herald, bob


def _relay_registry() -> ModeRegistry:
    """The four relay channels over the clock window's time bins; the two
    qubit channels carry internal labels 0, 1.

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
    return reg


def _add_bell_mixer(circ: Circuit) -> None:
    """50/50 beamsplitters between the two qubit channels, bin by bin and
    label by label: the Bell-state measurement's mixer."""
    for t in range(circ.registry.max_bins):
        for i in (0, 1):
            circ.add_beamsplitter(ModeKey(ALICE_QUBIT, t, i), ModeKey(EPR_QUBIT, t, i))


# largest harmonic-synthesis rounding error accepted, relative to the
# largest sample; a more negative synthesized probability is an error
_SYNTHESIS_RTOL = 64 * np.finfo(float).eps


class TeleportEngine:
    """Branch states through preparation, losses, and the Bell-state mixer.

    Everything before the receiver analyzer is computed once per
    configuration.  Branch states do not depend on the pair means or the
    detectors, so the engine holds every branch of the pair truncation and
    blocking runs, dark-count scans and forced single-pair mode only
    reweight them (branches they leave out get weight 0).  Detection is
    cached per branch, analyzer phase and detector set.

    The analyzer is the only element that depends on phi_b: each photon it
    delays picks up e^{i phi_b}.  Every detection probability is therefore
    a trigonometric polynomial in phi_b of degree D (`degree`), the largest
    photon number at the analyzer input over the branch states, and 2D+1
    equally spaced samples fix it at every phase.
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
        # register the analyzer's loss channel before any state is built so
        # later per-phase circuits reuse the same mode slots
        analyzer_loss = Circuit(reg).add_michelson(EPR_BOB, 0.0)

        xi = OverlapModel(cfg.dip_fwhm_um).xi(cfg.delta_x_um)
        self.states: Dict[Tuple[int, int], FockState] = {}
        for na, nc in pair_branches():
            st = vacuum(reg)
            st = emit_pairs_single_bin(st, ALICE_QUBIT, ALICE_HERALD, na, 0, xi)
            st = emit_pairs_entangled(st, EPR_QUBIT, EPR_BOB, nc, (0, 1), cfg.phase_pump)
            self.states[(na, nc)] = apply(pre, st)
        analyzer_in = reg.indices_for(EPR_BOB) + reg.indices_for(analyzer_loss)
        self.degree = max(
            int(occupation_matrix(st)[:, analyzer_in].sum(axis=1).max(initial=0))
            for st in self.states.values()
        )
        self._analyzed: Dict[float, Dict[Tuple[int, int], FockState]] = {}
        self._detected: Dict[tuple, Dict[Tuple[int, int], TeleportOutcome]] = {}

    def _through_analyzer(self, phi_b: float) -> Dict[Tuple[int, int], FockState]:
        cached = self._analyzed.get(phi_b)
        if cached is None:
            circ = Circuit(self.registry)
            circ.add_michelson(EPR_BOB, phi_b)
            cached = {k: apply(circ, st) for k, st in self.states.items()}
            self._analyzed[phi_b] = cached
        return cached

    def _branch_outcomes(self, phi_b: float, detectors):
        key = (phi_b, detectors)
        cached = self._detected.get(key)
        if cached is None:
            ge, ingaas, herald, bob = detectors
            cached = {
                k: teleport_outcome_distribution(
                    [(1.0, st)],
                    ge,
                    ingaas,
                    bob,
                    herald=herald if self.config.heralded else None,
                )
                for k, st in self._through_analyzer(phi_b).items()
            }
            self._detected[key] = cached
        return cached

    def outcome(
        self,
        phi_b: float,
        weights: Optional[Dict[Tuple[int, int], float]] = None,
        detectors=None,
    ) -> TeleportOutcome:
        """Outcome of the branch ensemble at one analyzer phase."""
        cfg = self.config
        if weights is None:
            weights = branch_weights(cfg)
        total = sum(weights.values())
        if abs(total - 1.0) > 1e-9:
            raise UnnormalizedStateError(f"branch weights sum to {total}, not 1")
        detectors = tuple(detectors) if detectors is not None else _detectors(cfg)
        per_branch = self._branch_outcomes(phi_b, detectors)
        accept = 0.0
        bob = {b: 0.0 for b in next(iter(per_branch.values())).bob}
        for k, w in weights.items():
            if w == 0.0:
                continue
            accept += w * per_branch[k].accept
            for b, p in per_branch[k].bob.items():
                bob[b] += w * p
        return TeleportOutcome(accept, bob)

    def _received(self, offsets: np.ndarray, detectors=None) -> np.ndarray:
        """Central-bin receiver probability at phase_bob + each offset."""
        phi0 = self.config.phase_bob
        return np.array([self.outcome(phi0 + o, detectors=detectors).bob[1] for o in offsets])

    def scan(self, phases: Sequence[float]) -> np.ndarray:
        """Central-bin receiver probability at each phase, from 2D+1 samples.

        The samples sit at equal spacing from phase_bob, so the acceptance
        and blocking runs at phase_bob reuse the first.  Each phase is the
        degree-D trigonometric interpolant of the samples (a Dirichlet-kernel
        sum), which is exact.  Rounding-level negatives at fringe zeros are
        clamped to 0; anything more negative raises.
        """
        n = 2 * self.degree + 1
        offsets = 2.0 * math.pi * np.arange(n) / n
        samples = self._received(offsets)
        x = np.asarray(phases, dtype=float) - self.config.phase_bob
        harmonics = np.arange(1, self.degree + 1)
        angles = np.subtract.outer(x, offsets)[..., None] * harmonics
        kernel = (1.0 + 2.0 * np.cos(angles).sum(axis=-1)) / n
        values = kernel @ samples
        floor = -_SYNTHESIS_RTOL * float(np.abs(samples).max(initial=0.0))
        if np.any(values < floor):
            raise HarmonicSynthesisError(
                f"synthesized probability {values.min():.3e} is below the rounding "
                f"floor {floor:.3e}"
            )
        return np.maximum(values, 0.0)

    def mean(self, detectors=None) -> float:
        """Phase average of the central-bin receiver probability.

        D+1 equally spaced phases average every harmonic up to D to zero,
        so the mean is exact.
        """
        n = self.degree + 1
        offsets = 2.0 * math.pi * np.arange(n) / n
        return float(np.mean(self._received(offsets, detectors)))

    def blocking(self, blocked: str, detectors=None) -> float:
        """Central-bin receiver probability at phase_bob with sources blocked.

        Blocking zeroes the chosen source's pair mean, which reweights the
        branches; forced single-pair mode is released since a blocked source
        cannot emit.
        """
        if blocked not in BLOCK_CHOICES:
            raise ConfigError(f"blocked must be one of {BLOCK_CHOICES}")
        cfg = replace(self.config, ideal_single_pairs=False)
        if blocked in ("alice", "both"):
            cfg = replace(cfg, pair_mean_alice=0.0)
        if blocked in ("epr", "both"):
            cfg = replace(cfg, pair_mean_epr=0.0)
        return self.outcome(cfg.phase_bob, branch_weights(cfg), detectors).bob[1]

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


class _MandelEngine:
    """Two sources onto the Bell-state mixer for the bunching-dip scan.

    symmetric mode sends both sources through identical split-delay
    analyzers so first and second pulses overlap at the mixer; entangled
    mode keeps the relay source's two-bin emission and analyzes only the
    prepared qubit.  The overlap parameter enters the qubit photon's
    internal-mode split, so only coincidence rates near zero mismatch
    change.
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
        self.circuit = circ
        self.weights = branch_weights(cfg)
        ge, ingaas, _, _ = _detectors(cfg)
        self.ge = ge
        self.ingaas = ingaas
        self.overlap = OverlapModel(cfg.dip_fwhm_um)

    def coincidences(self, delta_x_um: float) -> Tuple[float, float]:
        cfg = self.config
        xi = self.overlap.xi(delta_x_um)
        ensemble = []
        for (na, nc), w in self.weights.items():
            st = vacuum(self.registry)
            st = emit_pairs_single_bin(st, ALICE_QUBIT, ALICE_HERALD, na, 0, xi)
            if cfg.mandel_mode == "symmetric":
                st = emit_pairs_single_bin(st, EPR_QUBIT, EPR_BOB, nc, 0, 1.0)
            else:
                st = emit_pairs_entangled(st, EPR_QUBIT, EPR_BOB, nc, (0, 1), cfg.phase_pump)
            ensemble.append((w, apply(self.circuit, st)))
        short = coincidence_probability(ensemble, self.ge, self.ingaas, bins=(0,))
        long = coincidence_probability(ensemble, self.ge, self.ingaas, bins=(1,))
        return short, long


def run_mandel_scan(
    config: ExperimentConfig, mismatches_um: Sequence[float]
) -> Tuple[ScanResult, ScanResult]:
    """Same-bin coincidences versus path mismatch for the first (short-short)
    and second (long-long) arrival bins; returns (short, long) scans."""
    engine = _MandelEngine(config)
    xs = np.asarray(list(mismatches_um), dtype=float)
    pairs = [engine.coincidences(x) for x in xs]
    p_short = np.array([p[0] for p in pairs])
    p_long = np.array([p[1] for p in pairs])
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


def _with_dark_scale(config: ExperimentConfig, scale: float) -> ExperimentConfig:
    base = {k: getattr(config, k) for k in _REFERENCE_DARKS}
    if all(v == 0.0 for v in base.values()):
        base = dict(_REFERENCE_DARKS)
    return replace(config, **{k: min(v * scale, _DARK_CAP) for k, v in base.items()})


def _background_ratio(scale: float, engine: TeleportEngine) -> float:
    """Background over signal with every dark probability scaled by `scale`."""
    dets = _detectors(_with_dark_scale(engine.config, scale))
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
