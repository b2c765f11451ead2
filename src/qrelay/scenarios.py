"""Full measurement campaigns assembled from the lower layers.

One configuration object drives three runs: the photon-bunching dip scan
(two sources onto the joint measurement station, coincidences versus path
mismatch), the teleportation fringe scan (qubit preparation, entangled
relay pair, Bell-state acceptance, receiver analyzer phase scan), and
source-blocking runs that isolate the phase-independent background.

Every run first enumerates the joint pair-number branches of the two
sources and splits each into components by how many of Alice's signal
photons match the relay's mode (see sources): each component is written
exactly in the truncated Fock space, all of them as one mixture, which
goes through the optical circuit once.  Detector response is applied
analytically at the end, row by row, _branch_sums adds the rows up per
component, and the weights come in last, as a dot product: each
component's branch weight times its overlap weight in xi^2.
Neither scan builds a state per point: the fringe is a trigonometric
polynomial in the analyzer phase whose harmonics come from one circuit
pass and one detection pass, and the dip a polynomial in s = xi^2 and
1 - s whose coefficients sum the components' weighted coincidences.
The teleport engine detects only the acceptance and Bob's central-bin
click, weighs the four source blockings (the unblocked run among them) once,
and contracts them with the detectors' dark counts in one product; what the
runs print, the fringe scan, the acceptance, the blocking runs and the
background they give, are slices of it.
Counts are either probability times pulses (analytic mode) or Poisson
draws around that expectation (montecarlo mode) with a counter-based
generator keyed by (seed, scan point), so reruns are reproducible bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .detection import (
    CLOCK_WINDOW,
    Detector,
    coincidence_clicks,
    teleport_tables,
    teleport_weights,
)
from .errors import ConfigError, QRelayError
from .fock import BRANCH_RECORD, NORM_ATOL, FockState, ModeKey, ModeRegistry
from .optics import COUPLER, Circuit, apply, compose, identity_blocks, loss_from_db
from .sources import OverlapModel, entangled_pairs, pair_count_distribution

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
# point peaks at about 190 bytes (a fringe point 115) across the scan's
# arrays, the fit and the CSV row, as tracemalloc counts them at 200k
# points, so the cap keeps a scan under about 0.2 GB
MAX_POINTS = 10**6

# largest |phase| in rad a config or a phase scan accepts: past 2**52
# adjacent doubles are 1 rad apart or more, so a value no longer names a
# phase, and every phase times a harmonic order stays finite
MAX_PHASE = 2.0**52


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat bag of physical and run parameters; field names are config keys.

    Each source has its own mean pair number: pair_mean_alice for Alice's
    heralded source, pair_mean_epr for the relay's pair source; equal means
    are set as both fields.  Detector efficiencies and dark probabilities
    default to placeholders; the dark probabilities can be rescaled against
    measured backgrounds with calibrate_dark_counts, which flips
    detectors_calibrated.  Bob's analyzer phase is no key: a scan sets it.
    """

    pair_mean_alice: float = 0.19
    pair_mean_epr: float = 0.07
    heralded: bool = False
    phase_pump: float = 0.0
    phase_alice: float = 0.0
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
        for name, choices in (("mandel_mode", MANDEL_MODES), ("alice_encoder", ENCODERS),
                              ("mode", RUN_MODES)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}")
        for name in ("pair_mean_alice", "pair_mean_epr", "loss_alice_db", "loss_epr_db",
                     "loss_herald_db", "loss_bob_db"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("eta_ge", "eta_ingaas_bsa", "eta_herald", "eta_bob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        for name in ("dark_ge", "dark_ingaas_bsa", "dark_herald", "dark_bob"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        for name in ("phase_alice", "phase_pump", "mandel_phase"):
            if not abs(getattr(self, name)) <= MAX_PHASE:
                raise ConfigError(f"|{name}| must be <= 2**52 rad, got {getattr(self, name)}")
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


def branch_weights(config: ExperimentConfig, blocked: str = "none") -> Dict[Tuple[int, int], float]:
    """Joint (alice pairs, relay pairs) weights, truncated and renormalized,
    with the sources that `blocked` (one of BLOCK_CHOICES) names blocked.

    A blocked source's pair mean is 0, so it emits no pair, and any
    blocking but "none" releases forced single-pair mode, since a blocked
    source cannot emit; "none" is the config's own weighting.  Branches
    with more than MAX_PAIRS_EACH total pairs are dropped and the rest
    rescaled to sum to one.  The per-source tail check bounds only what
    each source's own cut at MAX_PAIRS_EACH pairs discards; the joint cut on
    the total discards more (6.3e-3 of the probability at the defaults,
    above tail_tol) and nothing checks it yet.
    """
    if config.ideal_single_pairs and blocked == "none":
        return {(1, 1): 1.0}
    means = (0.0 if blocked in ("alice", "both") else config.pair_mean_alice,
             0.0 if blocked in ("epr", "both") else config.pair_mean_epr)
    pa, pc = (pair_count_distribution(mean, MAX_PAIRS_EACH, config.tail_tol) for mean in means)
    raw = {(na, nc): float(pa[na] * pc[nc]) for na, nc in pair_branches()}
    total = sum(raw.values())
    return {k: v / total for k, v in raw.items()}


@dataclass(frozen=True)
class ScanResult:
    """One scanned observable; analytic counts are exactly prob * pulses."""

    control: np.ndarray
    probability: np.ndarray
    counts: np.ndarray
    pulses: int


def phase_grid(points: int, periods: float) -> np.ndarray:
    """`points` equally spaced analyzer phases over `periods` periods from
    0; a negative period count scans backwards."""
    if not 4 <= points <= MAX_POINTS:
        raise ConfigError(f"a phase scan needs 4 to {MAX_POINTS} points, got {points}")
    if not math.isfinite(periods) or periods == 0:
        raise ConfigError(f"the period count must be finite and nonzero, got {periods}")
    end = periods * 2.0 * math.pi
    if not abs(end) <= MAX_PHASE:
        raise ConfigError(f"a phase scan to {end} rad passes 2**52 rad")
    return np.linspace(0.0, end, points, endpoint=False)


def mismatch_grid(points: int, span_um: float) -> np.ndarray:
    """`points` equally spaced path mismatches from -span_um to span_um."""
    if not 5 <= points <= MAX_POINTS:
        raise ConfigError(f"a mismatch scan needs 5 to {MAX_POINTS} points, got {points}")
    # linspace forms the width 2 span
    if not (span_um > 0 and math.isfinite(2.0 * span_um)):
        raise ConfigError(f"the mismatch span must be finite and > 0, and so must the scan's "
                          f"width, got {span_um}")
    return np.linspace(-span_um, span_um, points)


def keyed_generator(seed: int, stream: int) -> np.random.Generator:
    """The counter-based generator of `stream` under `seed`, both in
    [0, 2**64): Philox keyed by the two words, so each stream is
    independent of the order streams are drawn in.  ConfigError for a seed
    out of range."""
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must be in [0, 2**64)")
    # a uint64 key, because a plain list goes through float64 at seed >= 2**63
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _counts(config: ExperimentConfig, probs: np.ndarray, stream: int) -> Tuple[np.ndarray, int]:
    if config.mode == "analytic":
        return probs * float(config.pulses_per_point), config.pulses_per_point
    counts = np.empty(len(probs))
    for i, p in enumerate(probs):
        counts[i] = keyed_generator(config.seed, (stream << 32) + i).poisson(p * config.trials)
    return counts, config.trials


# (channel, efficiency field, dark-probability field) of each of the relay's
# detectors, in teleport_tables' order: ge, ingaas, bob, and the herald last
_DETECTOR_FIELDS = ((ALICE_QUBIT, "eta_ge", "dark_ge"),
                    (EPR_QUBIT, "eta_ingaas_bsa", "dark_ingaas_bsa"),
                    (EPR_BOB, "eta_bob", "dark_bob"), (ALICE_HERALD, "eta_herald", "dark_herald"))


def _detectors(config: ExperimentConfig) -> Tuple[Detector, ...]:
    """The detectors of _DETECTOR_FIELDS, the herald only when the run is heralded."""
    return tuple(Detector(spatial, getattr(config, eta), getattr(config, dark))
                 for spatial, eta, dark in _DETECTOR_FIELDS[:4 if config.heralded else 3])


def _relay_registry() -> ModeRegistry:
    """The four relay channels over the clock window's time bins, and the
    branch record mode; the two qubit channels carry internal labels 0, 1.

    Sources emit into bins 0 and 1 and one analyzer delay reaches bin 2, so
    the window holds every occupied mode, and the Bell-state veto ("only
    this gate clicks") spans exactly the gates the detectors open.  A delay
    that pushes an occupied mode further raises QRelayError.
    """
    reg = ModeRegistry(len(CLOCK_WINDOW))
    reg.add_channel(ALICE_QUBIT, (0, 1))
    reg.add_channel(EPR_QUBIT, (0, 1))
    reg.add_channel(ALICE_HERALD)
    reg.add_channel(EPR_BOB)
    reg.add(BRANCH_RECORD)
    return reg


def _components(branches: Sequence[Tuple[int, int]]) -> List[Tuple[int, int, int]]:
    """(alice pairs, matched photons, relay pairs) for every j in [0, n_a]
    of each (n_a, n_c) branch: j of Alice's n_a signal photons in internal
    label 0, the others in label 1."""
    return [(na, j, nc) for na, nc in branches for j in range(na + 1)]


def _overlap_weights(components: Sequence[Tuple[int, int, int]], s: float) -> np.ndarray:
    """Each component's weight C(n_a, j) s^j (1 - s)^(n_a - j) at squared
    overlap s: within a branch they sum to 1 over j."""
    return np.array([math.comb(na, j) * s**j * (1.0 - s) ** (na - j) for na, j, _ in components])


def _branch_mixture(reg: ModeRegistry, components: Sequence[Tuple[int, int, int]],
                    relay_bins: Sequence[int], phase_pump: float) -> FockState:
    """The (alice pairs, matched photons, relay pairs) components as one
    mixture of unit-norm kets.

    Component b, the b-th entry of `components`, holds b photons in the
    BRANCH_RECORD mode, so rows of different components never merge, one
    pass through a circuit carries every component, and each output row's
    record names its component.  Alice's n_a pairs put j signal photons in
    label 0 and n_a - j in label 1, and n_a herald photons, all in bin 0;
    the relay's rows are entangled_pairs over relay_bins.
    """
    alice = [reg.index(key) for key in (BRANCH_RECORD, ModeKey(ALICE_QUBIT, 0, 0),
                                        ModeKey(ALICE_QUBIT, 0, 1), ModeKey(ALICE_HERALD, 0))]
    relay = [reg.index(ModeKey(spatial, t)) for spatial in (EPR_QUBIT, EPR_BOB) for t in relay_bins]
    tables = {nc: entangled_pairs(nc, len(relay_bins), phase_pump)
              for nc in {nc for _, _, nc in components}}
    occupations, amps = [], []
    for b, (na, j, nc) in enumerate(components):
        pairs, amp = tables[nc]
        occ = np.zeros((len(amp), len(reg)), dtype=np.uint8)
        occ[:, alice] = b, j, na - j, na
        occ[:, relay] = np.hstack([pairs, pairs])
        occupations.append(occ)
        amps.append(amp)
    return FockState(reg, np.concatenate(occupations), np.concatenate(amps))


def _add_bell_mixer(circ: Circuit) -> None:
    """The Bell-state measurement's mixer: one 50/50 coupler between each
    mode of Alice's qubit channel and the relay qubit's mode of the same bin
    and label."""
    alice = [circ.registry.key_at(i) for i in circ.registry.indices_for(ALICE_QUBIT)]
    relay = [ModeKey(EPR_QUBIT, mode.time_bin, mode.internal) for mode in alice]
    circ.add_unitary(alice + relay, identity_blocks(COUPLER, len(alice)))


def _teleport_circuit(config: ExperimentConfig) -> Circuit:
    """The teleport preparation on a fresh relay registry: Alice's encoder,
    the four channel losses and the Bell-state mixer."""
    circ = Circuit(_relay_registry())
    encode = circ.add_michelson if config.alice_encoder == "michelson" else circ.add_bin_encoder
    encode(ALICE_QUBIT, config.phase_alice)
    for spatial, loss_db in ((ALICE_QUBIT, config.loss_alice_db), (EPR_QUBIT, config.loss_epr_db),
                             (ALICE_HERALD, config.loss_herald_db), (EPR_BOB, config.loss_bob_db)):
        circ.add_channel_loss(spatial, loss_from_db(loss_db))
    _add_bell_mixer(circ)
    return circ


def _dip_circuit(config: ExperimentConfig) -> Tuple[Circuit, Tuple[int, ...]]:
    """The bunching-dip circuit on a fresh relay registry, and the bins the
    relay source emits into: the first only in symmetric mode."""
    circ = Circuit(_relay_registry())
    circ.add_michelson(ALICE_QUBIT, config.mandel_phase)
    if config.mandel_mode == "symmetric":
        circ.add_michelson(EPR_QUBIT, config.mandel_phase)
    circ.add_channel_loss(ALICE_QUBIT, loss_from_db(config.loss_alice_db))
    circ.add_channel_loss(EPR_QUBIT, loss_from_db(config.loss_epr_db))
    _add_bell_mixer(circ)
    return circ, ((0,) if config.mandel_mode == "symmetric" else (0, 1))


# largest synthesis rounding error accepted, relative to a bound on the
# synthesized magnitude; a more negative synthesized probability is an error
_SYNTHESIS_RTOL = 64 * np.finfo(float).eps

# unobserved mode whose photon number is a mixture row's summed time-bin
# index on Bob's side of the teleport circuit
DELAY_RECORD = ModeKey("delay-record", 0)


def _analyzer(registry: ModeRegistry, phi_b: float) -> Circuit:
    """The receiver analyzer: an unbalanced Michelson on Bob's channel."""
    circ = Circuit(registry)
    circ.add_michelson(EPR_BOB, phi_b)
    return circ


def _check_phase_rides_the_delay(analyzer: Circuit, bins: np.ndarray) -> None:
    """Raise QRelayError unless phi_b enters the analyzer, built at
    phi_b = 0, only as a factor e^{i phi_b} per bin that an entry of its
    transfer matrix moves a photon later; `bins` holds each mode's time bin.
    The matrices are compared at one probe phase away from multiples of pi/2,
    over the modes either build's elements touch, the identity elsewhere."""
    probe = 1.0
    at_probe = _analyzer(analyzer.registry, probe).elements
    modes = sorted({i for idxs, _ in analyzer.elements + at_probe for i in idxs})
    shift = bins[modes][None, :] - bins[modes][:, None]
    expected = compose(analyzer.elements, modes) * np.exp(1j * probe * shift)
    off = np.abs(compose(at_probe, modes) - expected).max(initial=0.0)
    if off > _SYNTHESIS_RTOL:
        raise QRelayError(
            f"the analyzer phase enters other than through its delay arm ({off:.3e} off)"
        )


def _delay_harmonics(occupations: np.ndarray, delays: np.ndarray, amplitudes: np.ndarray,
                     degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows grouped by occupation: (distinct occupations, harmonics c).

    Row r holds amplitudes[r] e^{i delays[r] phi} at analyzer phase phi, so
    a group's amplitudes A_k, k in [0, degree], give |amplitude|^2 =
    Re(c_0 + 2 sum_{m>=1} c_m e^{i m phi}) with c_m = sum_k A_{k+m} conj(A_k);
    c has shape (degree + 1, groups).  Raises QRelayError if a
    delay count lies outside [0, degree] or repeats within one occupation.
    """
    outside = (delays < 0) | (delays > degree)
    if np.any(outside):
        raise QRelayError(
            f"a row has {delays[outside][0]} delayed photons, outside [0, {degree}]"
        )
    occupations = np.ascontiguousarray(occupations)
    keys = occupations.view(np.dtype((np.void, occupations.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    slots = delays * len(first) + inverse.ravel()
    if np.bincount(slots).max(initial=0) > 1:
        raise QRelayError("two rows of one occupation have the same delay count")
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
    |H_0| + 2 sum |H_m| bounds the magnitude and scales the rounding floor:
    rounding-level negatives at zeros are clamped to 0, and anything more
    negative raises QRelayError."""
    factors = np.full(len(harmonics), 2.0)
    factors[0] = 1.0
    m = np.arange(len(harmonics))
    rotations = factors * np.exp(1j * np.multiply.outer(np.asarray(phases, dtype=float), m))
    values = (rotations @ harmonics).real
    floor = -_SYNTHESIS_RTOL * (factors @ np.abs(harmonics))
    if np.any(values < floor):
        raise QRelayError(
            f"a synthesized probability is {np.max(floor - values):.3e} below its rounding floor"
        )
    return np.maximum(values, 0.0)


def _coupled_pair(registry: ModeRegistry, t: np.ndarray, groups: np.ndarray):
    """The first modes (j, k) that an entry T[j, k] of `t` joins across
    `groups`, one per registered mode, or None if T keeps them apart."""
    pairs = np.argwhere((t != 0) & (groups[:, None] != groups))
    return tuple(map(registry.key_at, pairs[0].tolist())) if len(pairs) else None


def _check_labels_separate(registry: ModeRegistry, t: np.ndarray) -> None:
    """Raise QRelayError if T joins modes of different internal labels."""
    labels = np.array([registry.key_at(i).internal for i in range(len(registry))])
    if pair := _coupled_pair(registry, t, labels):
        raise QRelayError("the circuit couples {} to {}".format(*pair))


def _branch_sums(group: np.ndarray, count: int, harmonics: np.ndarray,
                 per_row: np.ndarray) -> np.ndarray:
    """(degree + 1, rows) harmonics times each column of (rows, columns)
    per_row, summed per mixture branch (row r in branch group[r] < count) by
    a 0/1 indicator matmul: shape (degree + 1, count, columns).  Raises
    QRelayError unless each branch's norm harmonics are 1, 0, ..."""
    in_branch = group == np.arange(count)[:, None]
    columns = np.column_stack([np.ones(len(group)), per_row])
    sums = in_branch @ (harmonics[:, :, None] * columns)
    norms = sums[:, :, 0]
    off = np.abs(norms - (np.arange(len(harmonics)) == 0)[:, None])
    if np.any(off > NORM_ATOL):
        b = int(np.argmax(off.max(axis=0)))
        raise QRelayError(f"mixture branch {b} has norm^2 harmonics {norms[:, b]}, "
                          "expected 1, 0, ...")
    return sums[:, :, 1:]


def _background(h0: np.ndarray) -> float:
    """Phase-independent background from harmonic 0 of Bob's click under
    the four weightings, in BLOCK_CHOICES order: alice + epr - both, since
    with a source blocked his click has no harmonic past 0.  Single-source
    backgrounds add; the both-blocked (dark only) term is counted in each
    single-blocking run, so it is subtracted once."""
    alice, epr, both = h0[1:].real
    return alice + epr - both


class TeleportEngine:
    """Branch components through the teleport circuit (_teleport_circuit)
    with the receiver analyzer appended, in one pass.

    A component's state depends on neither the pair means, the detectors
    nor the overlap, so the engine holds, in one mixture, the components of
    every branch of the pair truncation that weigh anything at the config's
    overlap, and blocking runs, dark-count scans and forced single-pair mode
    only reweight them: a component weighs its branch's pair weight times
    its overlap weight (branches a weighting leaves out get 0).  The engine
    weighs the four BLOCK_CHOICES once, when it is built (branch_weights;
    "none" is the config's own weighting), into one (components, 4) matrix.
    Detection runs once too, for the config's detectors (_detectors), and
    for two events only: the Bell-state acceptance, and that with Bob's
    click in the central bin (teleport_tables, one photon table per
    dark-count monomial), whose harmonics _branch_sums sums per component.
    `harmonics` contracts the monomials' weights for the detectors' dark
    probabilities (teleport_weights) and the four weightings into them, in
    one product, so rescaled dark counts cost no pass.  The engine keeps
    that product for its own detectors, and its read-outs slice it: `scan`
    and `blocking` synthesize phases, and `acceptance` and `background`,
    which Bob's analyzer phase cannot change, read harmonic 0.

    The analyzer, the only element that depends on phi_b, joins the circuit
    (transfer matrix T) at phi_b = 0.  A photon that takes its delay arm
    moves one bin later and picks up e^{i phi_b}, so an output row reached
    with k delayed photons has amplitude A_k e^{i k phi_b}: k is its summed
    time-bin index on Bob's side of T, the modes an element chain links to
    EPR_BOB, minus its mixture row's, which the row carries in the
    unobserved DELAY_RECORD mode so that rows of different k never merge.
    Grouped by occupation without the record, an output occupation has
    amplitudes A_0..A_D, D (`degree`) being the most photons Bob's channel
    holds at emission, and a probability that is a degree-D trigonometric
    polynomial in phi_b with harmonics c_m = sum_k A_{k+m} conj(A_k)
    (`_delay_harmonics`).  The c_m summed per branch with the photon tables
    give the per-branch harmonics of the tables, and the dark-count weights
    the harmonics H_m of every detection probability: Re(H_0 + 2 sum_{m>=1}
    H_m e^{i m phi_b}) at phi_b, H_0 on average.  T is composed once, with
    DELAY_RECORD registered, and both the checks and `apply` read it.  This
    is exact when
    - no entry of T joins Bob's side to another mode, so that Alice's
      encoder delays stay out of k,
    - phi_b enters the analyzer's transfer matrix only as a factor
      e^{i phi_b} per bin that an entry moves a photon later, so that a row's
      phase is e^{i k phi_b} whichever paths reach it, and
    - every delay count k lies in [0, D], which holds when each photon is
      delayed by at most one bin, and is unique within its output occupation,
    and the overlap weights are exact when T keeps the internal labels
    apart (_coupled_pair tests both separations), so that components never
    interfere.  QRelayError is raised otherwise, and unless each component
    has norm harmonics 1, 0, ..., 0.
    """

    def __init__(self, config: ExperimentConfig):
        cfg = self.config = config
        circ = _teleport_circuit(cfg)
        reg = circ.registry
        analyzer = _analyzer(reg, 0.0)
        circ.elements += analyzer.elements
        record = reg.add(DELAY_RECORD)
        bins = np.array(reg.time_bins)
        _check_phase_rides_the_delay(analyzer, bins)
        # Bob's side from the element chains, since an entry of T can underflow
        side = set(reg.indices_for(EPR_BOB))
        for idxs, _ in circ.elements:
            if side.intersection(idxs):
                side.update(idxs)
        bob = np.isin(np.arange(len(reg)), list(side))
        t = circ.transfer()
        if pair := _coupled_pair(reg, t, bob):
            raise QRelayError("the analyzer's circuit couples {} to {}".format(*pair))
        _check_labels_separate(reg, t)
        components = _components(pair_branches())
        s = OverlapModel(cfg.dip_fwhm_um).xi(cfg.delta_x_um) ** 2
        overlap = _overlap_weights(components, s)
        self.branches = [c for c, w in zip(components, overlap) if w > 0]
        self._overlap = overlap[overlap > 0]
        mixture = _branch_mixture(reg, self.branches, (0, 1), cfg.phase_pump)
        self.degree = int(mixture.occupations[:, reg.indices_for(EPR_BOB)].sum(axis=1).max())
        mixture.occupations[:, record] = mixture.occupations[:, bob] @ bins[bob]
        out = apply(t, mixture)
        occupations = out.occupations
        delays = occupations[:, bob] @ bins[bob] - occupations[:, record]
        occupations[:, record] = 0
        occupations, harmonics = _delay_harmonics(occupations, delays, out.amplitudes, self.degree)

        self.detectors = _detectors(cfg)
        self.darks = np.array([det.dark_prob for det in self.detectors])
        self._exponents, tables = teleport_tables(reg, occupations, self.detectors,
                                                  free_partner=cfg.symmetric_bsa)
        # per-component harmonics of the photon tables, (degree + 1, components,
        # monomials * 2), so that one matmul contracts the dark weights in
        per_row = tables.transpose(1, 0, 2).reshape(len(occupations), -1)
        self._tables = _branch_sums(occupations[:, reg.index(BRANCH_RECORD)], len(self.branches),
                                    harmonics, per_row)
        self._weights = np.column_stack([self._weight_vector(branch_weights(cfg, b))
                                         for b in BLOCK_CHOICES])
        self._harmonics = self.harmonics()

    def _weight_vector(self, weights: Dict[Tuple[int, int], float]) -> np.ndarray:
        """Each component's pair weight times its overlap weight."""
        w = np.array([weights.get((na, nc), 0.0) for na, _, nc in self.branches]) * self._overlap
        if abs(sum(weights.values()) - 1.0) > 1e-9 or abs(w.sum() - 1.0) > 1e-9:
            raise QRelayError(f"weights {weights} do not sum to 1 on {self.branches}")
        return w

    def harmonics(self, darks=None) -> np.ndarray:
        """Harmonics H_m of (acceptance, acceptance and Bob's click in
        BOB_BIN) under each weighting of BLOCK_CHOICES, shape (degree + 1,
        2, 4), from one contraction.  Dark probabilities other than the
        engine's (`darks`, one per detector in the engine's order) reweight
        its photon tables."""
        dark = teleport_weights(self._exponents, self.darks if darks is None else darks)
        return (self._tables @ dark.reshape(-1, 2)).transpose(0, 2, 1) @ self._weights

    def scan(self, phases: Sequence[float]) -> np.ndarray:
        """P(acceptance and Bob's click in BOB_BIN) at each analyzer phase,
        synthesized from the harmonics of the "none" weighting; rounding-level
        negatives at fringe zeros are clamped to 0, and anything more
        negative raises."""
        return _synthesize(self._harmonics[:, 1, :1], phases)[:, 0]

    def acceptance(self) -> float:
        """The Bell-state acceptance (and herald), its harmonic 0: Bob's
        analyzer cannot signal to the relay, so the rest are rounding."""
        return self._harmonics[0, 0, 0].real

    def blocking(self) -> np.ndarray:
        """P(acceptance and Bob's click in BOB_BIN) at phi_b = 0 under each
        weighting of BLOCK_CHOICES (see branch_weights): "none" is the
        fringe's first point, and the blocked runs have no harmonic past 0."""
        return _synthesize(self._harmonics[:, 1], [0.0])[0]

    def background(self) -> float:
        """Phase-independent background estimated from blocking runs
        (_background)."""
        return _background(self._harmonics[0, 1])


def run_teleport_scan(engine: TeleportEngine, phases: Sequence[float]) -> ScanResult:
    """Accepted-and-received coincidences in the central bin versus the
    receiver analyzer phase."""
    xs = np.array(phases, dtype=float)
    probs = engine.scan(xs)
    counts, pulses = _counts(engine.config, probs, stream=2)
    return ScanResult(xs, probs, counts, pulses)


# points per chunk of a dip scan, whose temporaries then stay in cache
_SCAN_CHUNK = 16384


class _MandelEngine:
    """Two sources onto the Bell-state mixer for the bunching-dip scan.

    symmetric mode sends both sources through identical split-delay
    analyzers so first and second pulses overlap at the mixer; entangled
    mode keeps the relay source's two-bin emission and analyzes only the
    prepared qubit.  The overlap enters the split of Alice's signal photons
    between the internal labels, so only coincidence rates near zero
    mismatch change.

    The components of the branches with positive weight go through one
    circuit pass and one detection pass, and _branch_sums gives each
    component's coincidences P_c.  At squared overlap s a bin's probability
    is sum_c w_c B_c(s) P_c, w_c being the component's pair weight and
    B_c(s) = C(n_a, j) s^j t^(n_a - j), t = 1 - s, its overlap weight, so
    the engine holds per bin the coefficients c_kj >= 0 of t^k s^j, each
    the sum of C(n_a, j) w_c P_c over the components with n_a - j = k.
    This is exact when the circuit keeps the internal labels apart
    (QRelayError otherwise), so that components never interfere, and
    detection reads only photon numbers summed over labels, as every
    detector model here does.  At s = 1, where t is exactly 0, only j = n_a
    is left, so the ideal Hong-Ou-Mandel null is exactly 0.  A component
    whose |amplitude|^2 does not sum to 1 raises QRelayError.
    """

    def __init__(self, config: ExperimentConfig):
        circ, relay_bins = _dip_circuit(config)
        reg, t = circ.registry, circ.transfer()
        _check_labels_separate(reg, t)
        held = {k: w for k, w in branch_weights(config).items() if w > 0}
        components = _components(held)
        self.overlap = OverlapModel(config.dip_fwhm_um)
        out = apply(t, _branch_mixture(reg, components, relay_bins, config.phase_pump))
        amps = out.amplitudes
        ge, ingaas = _detectors(config)[:2]
        clicks = coincidence_clicks(reg, out.occupations, ge, ingaas)[:, :2]
        # per component, (short, long) coincidences
        coincidences = _branch_sums(out.occupations[:, reg.index(BRANCH_RECORD)], len(components),
                                    (amps.real**2 + amps.imag**2)[None], clicks)[0]
        # c_kj for the (short, long) bins
        c = self._coefficients = np.zeros((MAX_PAIRS_EACH + 1,) * 2 + (2, 1))
        for (na, j, nc), p in zip(components, coincidences):
            c[na - j, j, :, 0] += math.comb(na, j) * held[(na, nc)] * p

    def scan(self, mismatches_um, bins: int = 2) -> np.ndarray:
        """Coincidences in the first `bins` arrival bins (short, then long),
        one row per bin and one column per mismatch: sum_kj c_kj t^k s^j at
        s = xi^2 by Horner's rule in t over Horner's rule in s, in place,
        _SCAN_CHUNK points at a time.  A row does not depend on the bins
        scanned with it, so bins=1 gives the short row alone at about half
        the cost."""
        x = np.asarray(mismatches_um, dtype=float)
        c = self._coefficients[:, :, :bins]
        k_max = len(c) - 1
        out = np.empty((len(c[0, 0]), len(x)))
        for start in range(0, len(x), _SCAN_CHUNK):
            s = self.overlap.xi(x[start:start + _SCAN_CHUNK]) ** 2
            t = 1.0 - s
            total = out[:, start:start + _SCAN_CHUNK]
            total[:] = c[k_max, 0]
            for k in range(k_max - 1, -1, -1):
                poly = c[k, k_max - k] * s
                for j in range(k_max - k - 1, 0, -1):
                    poly += c[k, j]
                    poly *= s
                poly += c[k, 0]
                total *= t
                total += poly
        return out


def run_mandel_scan(
    config: ExperimentConfig, mismatches_um: Sequence[float]
) -> Tuple[ScanResult, ScanResult]:
    """Same-bin coincidences versus path mismatch for the first (short-short)
    and second (long-long) arrival bins; returns (short, long) scans."""
    xs = np.array(mismatches_um, dtype=float)
    scans = []
    for stream, probs in enumerate(_MandelEngine(config).scan(xs)):
        counts, pulses = _counts(config, probs, stream)
        scans.append(ScanResult(xs, probs, counts, pulses))
    return tuple(scans)


@dataclass(frozen=True)
class CalibrationReport:
    target_ratio: float
    achieved_ratio: float
    dark_scale: float
    clamped: bool


_DARK_FIELDS = tuple(dark for _, _, dark in _DETECTOR_FIELDS)
# the scaling reference when a config's dark probabilities are all zero
_REFERENCE_DARKS = np.array([getattr(ExperimentConfig, k) for k in _DARK_FIELDS])
_DARK_CAP = 0.9


def _scaled_darks(config: ExperimentConfig, scale: float) -> np.ndarray:
    """The config's _DARK_FIELDS, or _REFERENCE_DARKS when those are all
    zero, scaled by `scale` and capped at _DARK_CAP."""
    base = np.array([getattr(config, k) for k in _DARK_FIELDS])
    return np.minimum((base if base.any() else _REFERENCE_DARKS) * scale, _DARK_CAP)


def _with_dark_scale(config: ExperimentConfig, scale: float) -> ExperimentConfig:
    """The config with the dark probabilities of _scaled_darks, calibrated."""
    return replace(config, detectors_calibrated=True,
                   **dict(zip(_DARK_FIELDS, _scaled_darks(config, scale).tolist())))


def _background_ratio(scale: float, engine: TeleportEngine) -> float:
    """Background over signal with every dark probability scaled by `scale`
    (_scaled_darks, one vector): harmonic 0 of Bob's click under the four
    weightings from one contraction, which gives the background
    (_background) and the signal's mean, that of "none"."""
    h0 = engine.harmonics(_scaled_darks(engine.config, scale)[:len(engine.darks)])[0, 1]
    background = _background(h0)
    signal = h0[0].real - background
    if signal <= 0.0:
        return 1e9
    return float(background / signal)


def _regula_falsi(f, a, fa, b, fb, rtol=1e-6, xtol=2e-12):
    """(s, f(s)) for the evaluated s of least |f| once the bracket [a, b] on
    which f changes sign (fa = f(a), fb = f(b)) is narrower than brentq's
    xtol + rtol |b|.  Anderson-Bjorck regula falsi (BIT 13, 253 (1973)): a
    secant point with the sign of the newest end b scales the far end's
    value by 1 - f(new)/f(b), or by 1/2 if that is not positive; a step
    under half the tolerance is lengthened to it, as in Brent's method."""
    best = (abs(fb), b, fb)
    for _ in range(100):
        tol = xtol + rtol * abs(b)
        if fb == 0.0 or abs(b - a) < tol:
            return best[1:]
        c = b - fb * (b - a) / (fb - fa)
        c = c if abs(c - b) >= 0.5 * tol else b + math.copysign(0.5 * tol, a - b)
        fc = f(c)
        best = min(best, (abs(fc), c, fc))
        if (fc > 0.0) != (fb > 0.0):
            a, fa = b, fb
        else:
            fa *= 1.0 - fc / fb if fc / fb < 1.0 else 0.5
        b, fb = c, fc
    raise QRelayError("dark-count calibration root search did not converge")


def calibrate_dark_counts(
    config: ExperimentConfig, target_ratio: float = 1.0
) -> Tuple[ExperimentConfig, CalibrationReport]:
    """Rescale dark-count probabilities until background/signal hits a target.

    The multi-pair background is set by the sources and cannot be removed
    by calibration, so when it already exceeds the target the dark counts
    clamp to zero and the report says so.  Branch states are independent
    of detector parameters, and the engine's photon tables of the dark
    probabilities, so the whole search costs one engine build and one
    detection pass, and each trial scale contracts one dark vector into
    them and reads harmonic 0 (_background_ratio).  The scale is bracketed
    by growing it fourfold from 1 until the ratio reaches the target, then
    found by _regula_falsi to 1e-6 relative; a target must be finite, > 0."""
    if not 0 < target_ratio < math.inf:
        raise ConfigError(f"target_ratio must be finite and > 0, got {target_ratio}")
    cfg = replace(config, ideal_single_pairs=False)

    engine = TeleportEngine(cfg)
    r0 = _background_ratio(0.0, engine)
    if r0 >= target_ratio:
        return _with_dark_scale(cfg, 0.0), CalibrationReport(target_ratio, r0, 0.0, True)

    lo, r_lo, hi, r_hi = 0.0, r0, 1.0, _background_ratio(1.0, engine)
    while r_hi < target_ratio:
        if 4.0 * hi > 1e7:
            raise QRelayError("dark-count calibration cannot reach the target ratio")
        lo, r_lo, hi, r_hi = hi, r_hi, 4.0 * hi, _background_ratio(4.0 * hi, engine)
    scale, miss = _regula_falsi(lambda s: _background_ratio(s, engine) - target_ratio,
                                lo, r_lo - target_ratio, hi, r_hi - target_ratio)
    report = CalibrationReport(target_ratio, target_ratio + miss, scale, False)
    return _with_dark_scale(cfg, scale), report
