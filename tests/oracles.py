"""Brute-force reference implementations, used only by the tests.

click_distribution enumerates every click pattern of a detector layout,
term by term and gate by gate, for a weighted ensemble of separate states;
the Bell-state and herald filters then pick the accepted patterns out of
it.  A layout's detectors are Labeled: the patterns are keyed by label,
and any detector may follow (be armed by) any other.  teleport_clicks
dots the dark-count weights of qrelay.detection.teleport_weights into the
photon tables of teleport_tables, per occupation row: the acceptance, and
the acceptance with Bob's click in BOB_BIN, as a TeleportOutcome.
teleport_outcome_distribution and coincidence_probability answer per
branch of one record-tagged mixture: each branch's |amplitude|^2 dotted
into teleport_clicks or qrelay.detection.coincidence_clicks, after a check
that every branch is normalized.  They are checked against the enumeration
branch by branch and with the branch weights dotted in.
occupation_distribution lists a state's outcome probabilities term by
term, and general_transform re-expands a linear-optical substitution on
any number of modes; folded over a circuit's elements one at a time, it is
the reference for qrelay.optics.apply.  The circuit primitives, a
beamsplitter of any transmittance and phase on a mode pair
(beamsplitter_matrix, add_beamsplitter; at 50/50 it is
qrelay.optics.COUPLER), a phase on one mode
(add_phase), a loss against one sink mode (add_loss) and a bin delay
within one channel (add_delay), append one element each to a
qrelay.optics.Circuit: the reference each device is tested against, built
pair by pair.  vacuum is the empty ket the state-level tests start from.

The oracles work on a state's terms as a dict from occupation bytes to
amplitude (`terms`, `from_terms`).  `create` applies one creation operator
(or a sum of them) term by term, and the emission oracles repeat the
two-photon emission operator with it: the references for the closed-form
pair table in qrelay.sources.  overlap_mixture builds the branch mixture
with them at overlap xi, each of Alice's pairs split coherently between
the internal labels: the reference for the unit-norm components of
qrelay.scenarios._branch_mixture and their overlap weights.

mandel_per_point builds the dip's mixture with overlap_mixture at every
mismatch point, pushes it through the circuit and detects it: the
reference for the overlap-weighted components that
qrelay.scenarios.run_mandel_scan evaluates from one build.
simulate_per_step is the stability simulation with one random draw and one
controller step per Python loop iteration: the reference for
qrelay.stability.simulate's array code, which must match its drift fields
byte for byte.  norm_coincidences_per_point is the trace's coincidence
level from mandel_per_point on the default relay, normalized far from
overlap.

teleport_per_phase builds the pair branches' mixture with overlap_mixture
on qrelay.scenarios._teleport_circuit's registry, runs it through the
receiver analyzer built at one phase and detects the result: the
acceptance and Bob's click in BOB_BIN at that phase, the reference for
the phase harmonics qrelay.scenarios.TeleportEngine.harmonics forms from
one analyzer pass and its scan, acceptance and blocking read-outs
synthesize.  blocking_weights and teleport_mean_per_phase give the
blocking runs and the phase average, harmonic 0, the same way.
background_ratio_per_config is a dark-count calibration's trial ratio from
a config rebuilt with the scaled dark probabilities, field by field
(with_dark_scale_per_field), and its detectors: the reference for the one
dark vector each trial scale of qrelay.scenarios.calibrate_dark_counts
forms.

teleport_events gives the acceptance and Bob's click in BOB_BIN in
closed form, at any pair number: both sources are squeezers, so the
probability that a set of detector gates stays dark is one determinant
(closed_form_vacuum), and each accepted pattern's probability follows by
inclusion-exclusion over its click gates (teleport_patterns).  weighted
takes the relay as two squeezers, or as the package's thermal source on
the total pair number by quadrature over the squeezer parameter: the
converged reference the Fock engine's pair cut approaches.
dip_events and dip_coincidences give the dip's same-bin coincidences the
same way, from the vacuum probabilities of the ge and ingaas gates on the
dip circuit.  branch_outcomes continues either closed form to complex
squeezer parameters, the pair amplitudes on the ket side only, and reads
each pair-number branch's normalized outcome O(na, nc) off one 2-D FFT on
a circle: the per-branch reference for the Fock engines.

csv_text formats a table cell by cell, a float as .9g and any other value
as str: the reference for the column-wise writer in qrelay.cli.

fit_fringe_scipy is the fringe fit whose out-of-range refit runs
scipy.optimize.least_squares (lm) through V = 1 / (1 + exp(-u)): the
reference for the constrained refit in qrelay.analysis.fit_fringe, which
holds V in [0, 1] by the box of the package's own Levenberg-Marquardt
iteration instead.

fit_dip_scipy is the dip fit as scipy.optimize.least_squares runs it
(trf, with fit_dip's start point, weights, bounds and 1e-12 tolerances):
the reference for the bounded Levenberg-Marquardt iteration in
qrelay.analysis.fit_dip.  Its sigmas come from inv(J'J) at the solution,
J by central differences of its own residuals; scipy's forward-difference
Jacobian is off by up to about 1e-5 relative on shallow exact dips.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from qrelay import scenarios, stability
from qrelay.analysis import DipFit, FringeFit, _phase, fit_fringe
from qrelay.detection import (
    _BOB,
    BOB_BIN,
    CLOCK_WINDOW,
    Detector,
    bell_patterns,
    coincidence_clicks,
    teleport_tables,
    teleport_weights,
)
from qrelay.errors import ConfigError, QRelayError
from qrelay.fock import BRANCH_RECORD, NORM_ATOL, PRUNE_TOL, FockState, ModeKey, ModeRegistry
from qrelay.optics import Circuit, apply
from qrelay.sources import OverlapModel

OccupationVector = Tuple[int, ...]
# (weight, state) pairs; the weights must sum to 1
Ensemble = Sequence[Tuple[float, FockState]]
Terms = Dict[bytes, complex]
# (coefficient, modes): the product of the modes' creation operators
EmissionTerm = Tuple[complex, Sequence[ModeKey]]

# a click pattern maps (detector label, time bin) -> clicked; absent = no click
ClickPattern = FrozenSet[Tuple[str, int]]


def vacuum(registry: ModeRegistry) -> FockState:
    """The vacuum ket |0...0> with amplitude 1."""
    return FockState(registry, np.zeros((1, len(registry)), dtype=np.uint8), [1.0])


def norm_sq(state: FockState) -> float:
    return float(np.vdot(state.amplitudes, state.amplitudes).real)


def normalized(state: FockState) -> FockState:
    n = math.sqrt(norm_sq(state))
    if n == 0.0:
        raise QRelayError("cannot normalize the zero vector")
    return FockState(state.registry, state.occupations, state.amplitudes / n)


def terms(state: FockState) -> Terms:
    """A state's terms, keyed by their occupations' bytes."""
    out: Terms = {}
    for occ, amp in zip(state.occupations, state.amplitudes):
        key = bytes(occ)
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


def overlap_mixture(registry: ModeRegistry, branches: Sequence[Tuple[int, int]], xi: float,
                    relay_bins: Sequence[int], phase_pump: float) -> FockState:
    """The (alice pairs, relay pairs) branches at overlap xi as one mixture,
    branch b tagged by b photons in BRANCH_RECORD: Alice's pairs from
    emit_pairs_single_bin, one coherent state over the split of her signal
    photons between the internal labels, then the relay's from
    emit_pairs_entangled."""
    record = registry.index(BRANCH_RECORD)
    occupations, amplitudes = [], []
    for b, (na, nc) in enumerate(branches):
        start = np.zeros(len(registry), dtype=np.uint8)
        start[record] = b
        state = from_terms(registry, {bytes(start): 1.0 + 0.0j})
        state = emit_pairs_single_bin(state, scenarios.ALICE_QUBIT, scenarios.ALICE_HERALD, na,
                                      0, xi)
        state = emit_pairs_entangled(state, scenarios.EPR_QUBIT, scenarios.EPR_BOB, nc,
                                     relay_bins, phase_pump)
        occupations.append(state.occupations)
        amplitudes.append(state.amplitudes)
    return FockState(registry, np.concatenate(occupations), np.concatenate(amplitudes))


def occupation_distribution(state: FockState) -> Dict[OccupationVector, float]:
    """Probabilities over occupation outcomes; input must be normalized."""
    total = norm_sq(state)
    if abs(total - 1.0) > NORM_ATOL:
        raise QRelayError(f"state norm^2 = {total}, expected 1")
    return {tuple(k): abs(v) ** 2 for k, v in terms(state).items()}


def beamsplitter_matrix(transmittance: float, phase: float) -> np.ndarray:
    """[[sqrt(t), i sqrt(1-t)], [i sqrt(1-t), sqrt(t)]] with phase on arm b;
    at (0.5, 0.0) it is qrelay.optics.COUPLER, byte for byte."""
    if not 0.0 <= transmittance <= 1.0:
        raise ConfigError(f"transmittance must be in [0, 1], got {transmittance}")
    t = math.sqrt(transmittance)
    r = 1j * math.sqrt(1.0 - transmittance)
    ph = np.exp(1j * phase)
    return np.array([[t, r * ph], [r, t * ph]], dtype=complex)


def add_beamsplitter(circ: Circuit, mode_a, mode_b, transmittance=0.5, phase=0.0):
    circ.add_unitary((mode_a, mode_b), beamsplitter_matrix(transmittance, phase))


def add_phase(circ: Circuit, mode: ModeKey, phase: float):
    circ.add_unitary((mode,), [[np.exp(1j * phase)]])


def add_loss(circ: Circuit, mode: ModeKey, transmittance: float, sink_spatial: str):
    """Partial transmission of one mode; the lost part goes to a sink mode."""
    sink = ModeKey(sink_spatial, mode.time_bin, mode.internal)
    circ.registry.add(sink)
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    circ.add_unitary((mode, sink), [[t, r], [-r, t]])


def add_delay(circ: Circuit, spatial: str, shift: int = 1) -> None:
    """Shift every time bin of one spatial channel by `shift` bins.

    A mode pushed past the last registered bin gets a zero row, so a state
    that occupies it makes `apply` raise QRelayError.
    """
    reg = circ.registry
    idxs = reg.indices_for(spatial)
    pos = {reg.key_at(i): p for p, i in enumerate(idxs)}
    m = np.zeros((len(idxs), len(idxs)), dtype=complex)
    for p, i in enumerate(idxs):
        key = reg.key_at(i)
        q = pos.get(ModeKey(spatial, key.time_bin + shift, key.internal))
        if q is not None:
            m[p, q] = 1.0
    circ.elements.append((tuple(idxs), m))


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


@dataclass(frozen=True)
class Labeled:
    """A detector under a label for the click enumeration.

    follows: label of the detector whose click at bin t arms this one at
    bin t+1; None means free-running (all bins open).
    """

    label: str
    detector: Detector
    follows: Optional[str] = None


@dataclass
class DetectionLayout:
    channels: List[Labeled]

    def __post_init__(self):
        labels = [ch.label for ch in self.channels]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate detector labels: {labels}")
        for ch in self.channels:
            if ch.follows is not None and ch.follows not in labels:
                raise ConfigError(f"{ch.label} follows unknown {ch.follows}")


def _click_prob(detector: Detector, n_photons: int) -> float:
    """P(click) of one gate holding n photons: 1 - (1 - d)(1 - eta)^n."""
    return 1.0 - (1.0 - detector.dark_prob) * (1.0 - detector.efficiency) ** n_photons


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


def _check_ensemble(ensemble: Ensemble) -> None:
    total = sum(w for w, _ in ensemble)
    if abs(total - 1.0) > 1e-9:
        raise QRelayError(f"ensemble weights sum to {total}, not 1")


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
                counts[ch.label] = _gate_counts(state, occ, ch.detector.spatial)
            for ch in free:
                for t in range(n_bins):
                    free_gates.append((ch.label, t, _click_prob(ch.detector, counts[ch.label][t])))
            for free_clicks, p_free in _subset_probs(free_gates):
                armed = []
                for ch in followers:
                    for (label, t) in free_clicks:
                        if label == ch.follows and t + 1 < n_bins:
                            armed.append(
                                (ch.label, t + 1, _click_prob(ch.detector, counts[ch.label][t + 1]))
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


def _branch_probs(state: FockState) -> np.ndarray:
    """Term probabilities per branch, shape (branches, terms): each term's
    |amplitude|^2 in its branch's row and 0 in the others; every branch must
    be normalized.  A row's branch is its photons in BRANCH_RECORD, and a
    state on a registry without that mode is one branch."""
    amps = state.amplitudes
    record = state.registry.indices_for(BRANCH_RECORD.spatial)
    branch = state.occupations[:, record].sum(axis=1, dtype=np.intp)
    probs = np.zeros((int(branch.max(initial=0)) + 1, len(amps)))
    probs[branch, np.arange(len(amps))] = amps.real**2 + amps.imag**2
    norms = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_ATOL)
    if len(bad):
        raise QRelayError(f"branch {bad[0]} has norm^2 = {norms[bad[0]]}, expected 1")
    return probs


@dataclass(frozen=True)
class TeleportOutcome:
    """P(accepted Bell pattern [and herald]) and P(that and Bob's click in
    BOB_BIN); a leading axis, where there is one, runs over rows or
    pair-number branches."""

    accept: np.ndarray
    bob: np.ndarray


def teleport_clicks(registry: ModeRegistry, occupations: np.ndarray, ge: Detector,
                    ingaas: Detector, bob: Detector, herald: Optional[Detector] = None, *,
                    free_partner: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Per occupation row: P(accepted Bell pattern [and herald]) and P(that
    and Bob's click in BOB_BIN), each of shape (terms,); the detectors'
    dark-count weights dotted into the photon tables of their
    efficiencies."""
    detectors = (ge, ingaas, bob) + ((herald,) if herald is not None else ())
    exponents, tables = teleport_tables(registry, occupations, detectors,
                                        free_partner=free_partner)
    darks = [det.dark_prob for det in detectors]
    probs = np.einsum("mrj,mjk->rk", tables, teleport_weights(exponents, darks))
    return probs[:, 0], probs[:, 1]


def teleport_outcome_distribution(state: FockState, ge: Detector, ingaas: Detector,
                                  bob: Detector, herald=None, *,
                                  free_partner: bool) -> TeleportOutcome:
    """P(accepted Bell pattern [and herald] [and Bob's click in BOB_BIN])
    per branch, each of shape (branches,): the branch's term probabilities
    dotted into teleport_clicks."""
    probs = _branch_probs(state)
    accept, bob_clicks = teleport_clicks(state.registry, state.occupations, ge, ingaas, bob,
                                         herald, free_partner=free_partner)
    return TeleportOutcome(probs @ accept, probs @ bob_clicks)


def coincidence_probability(state: FockState, det_a: Detector, det_b: Detector) -> np.ndarray:
    """Same-bin two-detector coincidence probability per branch and bin,
    shape (branches, max_bins): the branch's term probabilities dotted into
    coincidence_clicks."""
    return _branch_probs(state) @ coincidence_clicks(state.registry, state.occupations,
                                                     det_a, det_b)


def mandel_per_point(cfg: "scenarios.ExperimentConfig", mismatches_um) -> np.ndarray:
    """(short, long) dip coincidences: at every point the positive-weight
    branches' mixture built at that overlap (overlap_mixture), one circuit
    pass, one detection pass, and the branch weights dotted in."""
    circ, relay_bins = scenarios._dip_circuit(cfg)
    held = {k: w for k, w in scenarios.branch_weights(cfg).items() if w > 0}
    weights = np.array(list(held.values()))
    ge, ingaas = scenarios._detectors(cfg)[:2]
    overlap = OverlapModel(cfg.dip_fwhm_um)
    rows = []
    for x in mismatches_um:
        mixture = overlap_mixture(circ.registry, list(held), overlap.xi(x), relay_bins,
                                  cfg.phase_pump)
        per_branch = coincidence_probability(apply(circ.transfer(), mixture), ge, ingaas)
        rows.append(weights @ per_branch[:, :2])
    return np.array(rows)


def norm_coincidences_per_point(delta_x_um) -> np.ndarray:
    """The stability trace's coincidence level at each mismatch: the default
    relay's short-bin coincidences from mandel_per_point over their value
    far from overlap, where xi = 0."""
    short = mandel_per_point(scenarios.ExperimentConfig(), [*delta_x_um, math.inf])[:, 0]
    return short[:-1] / short[-1]


def simulate_per_step(drift, gain=None, duration_s=24 * 3600.0, dt_s=60.0, seed=0):
    """qrelay.stability.simulate on valid input, one step per loop iteration:
    (time_s, delta_x_um, rep_rate_hz, motor_um), the trace's drift fields.
    The plant and motor constants are read from qrelay.stability per call,
    so a test may patch them."""
    n = int(round(duration_s / dt_s)) + 1
    times = np.arange(n) * dt_s
    rng_walk = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    rng_jitter = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))

    if drift.kind == "sinusoid":
        theta = drift.amplitude_k * np.sin(2.0 * math.pi * times / (drift.period_h * 3600.0))
    else:
        kappa = stability.RATE_COUPLING_HZ_PER_K
        theta = np.empty(n)
        theta[0] = 0.0
        for i in range(1, n):
            dt_h = (times[i] - times[i - 1]) / 3600.0
            max_step = stability.REP_WANDER_BOUND_HZ_PER_H * dt_h / kappa
            theta[i] = theta[i - 1] + rng_walk.uniform(-max_step, max_step)
    delta_f = stability.RATE_COUPLING_HZ_PER_K * theta

    jitter = np.zeros(n)
    bound = stability.JITTER_BOUND_UM
    x = 0.0
    for i in range(1, n):
        dt = times[i] - times[i - 1]
        decay = math.exp(-dt / stability.JITTER_TAU_S)
        sigma = stability.JITTER_SIGMA_UM * math.sqrt(1.0 - decay * decay)
        x = x * decay + rng_jitter.normal(0.0, sigma)
        x = min(max(x, -bound), bound)
        jitter[i] = x
    drift_um = (stability.THERMAL_UM_PER_K * theta
                + stability.RATE_LENGTH_UM_PER_HZ * delta_f + jitter)

    motor = np.zeros(n)
    if gain is not None:
        steps_per_update = max(1, int(round(stability.UPDATE_INTERVAL_S / dt_s)))
        resolution = stability.MOTOR_RESOLUTION_UM
        held = 0.0
        for i in range(n):
            if i % steps_per_update == 0:
                held = resolution * round(gain * delta_f[i] / resolution)
            motor[i] = held

    return times, drift_um - motor, stability.REP_RATE_HZ + delta_f, motor


def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def csv_text(header: Sequence[str], rows) -> str:
    lines = [",".join(header)] + [",".join(format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def teleport_per_phase(engine: "scenarios.TeleportEngine", phi_b: float, weights=None,
                       detectors=None) -> TeleportOutcome:
    """The acceptance and Bob's click in BOB_BIN with the analyzer built at
    phi_b: the teleport circuit with the analyzer added before the pair
    branches are built at the config's overlap (overlap_mixture), one
    apply, one detection pass, the weights dotted in.  The reference for
    the engine's phase harmonics and overlap weights."""
    cfg = engine.config
    circ = scenarios._teleport_circuit(cfg)
    circ.add_michelson(scenarios.EPR_BOB, phi_b)
    xi = OverlapModel(cfg.dip_fwhm_um).xi(cfg.delta_x_um)
    branches = scenarios.pair_branches()
    mixture = overlap_mixture(circ.registry, branches, xi, (0, 1), cfg.phase_pump)
    detectors = scenarios._detectors(cfg) if detectors is None else detectors
    per_branch = teleport_outcome_distribution(apply(circ.transfer(), mixture), *detectors,
                                               free_partner=cfg.symmetric_bsa)
    weights = scenarios.branch_weights(cfg) if weights is None else weights
    w = np.array([weights.get(k, 0.0) for k in branches])
    return TeleportOutcome(w @ per_branch.accept, w @ per_branch.bob)


def blocking_weights(config: "scenarios.ExperimentConfig", blocked: str):
    """Branch weights with the blocked sources' pair means at zero and forced
    single pairs released; "none" blocks nothing and keeps the config's."""
    if blocked == "none":
        return scenarios.branch_weights(config)
    cfg = replace(config, ideal_single_pairs=False)
    if blocked in ("alice", "both"):
        cfg = replace(cfg, pair_mean_alice=0.0)
    if blocked in ("epr", "both"):
        cfg = replace(cfg, pair_mean_epr=0.0)
    return scenarios.branch_weights(cfg)


def teleport_mean_per_phase(engine: "scenarios.TeleportEngine", detectors=None) -> float:
    """Central-bin receiver probability averaged over 2D+1 equally spaced
    analyzer phases, which is exact for a degree-D fringe."""
    n = 2 * engine.degree + 1
    phases = 2.0 * math.pi * np.arange(n) / n
    return float(np.mean([teleport_per_phase(engine, p, detectors=detectors).bob
                          for p in phases]))


def with_dark_scale_per_field(config: "scenarios.ExperimentConfig", scale: float):
    """The config with each dark probability field scaled by `scale` and
    capped at _DARK_CAP, one field at a time, from the fields' defaults when
    the config's are all zero: the reference for the dark vector of
    qrelay.scenarios._scaled_darks."""
    darks = [f for f in fields(config) if f.name.startswith("dark_")]
    base = {f.name: getattr(config, f.name) for f in darks}
    if all(v == 0.0 for v in base.values()):
        base = {f.name: f.default for f in darks}
    return replace(config, **{k: min(v * scale, scenarios._DARK_CAP) for k, v in base.items()})


def background_ratio_per_config(scale: float, engine: "scenarios.TeleportEngine") -> float:
    """qrelay.scenarios._background_ratio by way of a rebuilt config: the
    scaled config (with_dark_scale_per_field), its detectors
    (qrelay.scenarios._detectors), and their dark probabilities contracted
    into the engine's photon tables."""
    detectors = scenarios._detectors(with_dark_scale_per_field(engine.config, scale))
    h0 = engine.harmonics([det.dark_prob for det in detectors])[0, 1]
    background = scenarios._background(h0)
    signal = h0[0].real - background
    if signal <= 0.0:
        return 1e9
    return float(background / signal)


# the closed form's source modes, the rows and columns of its matrix B:
# Alice's signal in both internal labels, her herald, and the relay's pair
# in both bins
CLOSED_FORM_SOURCE = (
    ModeKey(scenarios.ALICE_QUBIT, 0, 0), ModeKey(scenarios.ALICE_QUBIT, 0, 1),
    ModeKey(scenarios.ALICE_HERALD, 0), ModeKey(scenarios.EPR_QUBIT, 0),
    ModeKey(scenarios.EPR_QUBIT, 1), ModeKey(scenarios.EPR_BOB, 0), ModeKey(scenarios.EPR_BOB, 1),
)


def _gaussian_vacuum(circ: Circuit, detectors, relay_bins: Sequence[int], phase_pump: float,
                     xi: float, xa, y):
    """Q(gates) on `circ`'s transfer matrix: the probability that none of
    the detector gates (channel, bin), channels indexing `detectors`, holds
    a photon, at any pair number.  Alice's source is a squeezer of
    parameter xa whose signal matches the relay's mode with amplitude xi,
    the relay's one of parameter y in each of `relay_bins`, so the state
    before detection is Gaussian: with T_s the source rows of T, Pi_g =
    eta_g T_{s,g} T_{s,g}^H over a gate's modes of every label, and
    G = I - sum_g Pi_g,

        Q = (1 - xa)(1 - y)^(len(relay_bins)) det(I - conj(B_1) conj(G) B G)^(-1/2),

    where B holds pair amplitude xa for Alice and y for the relay (the ket
    side) and B_1 holds 1 for both (the bra side).  Each branch's ket and
    bra hold the same pairs, so Q depends on the two sides' products
    only: at real (xa, y) in [0, 1) it is the probability, and at complex
    ones, arrays of one shape, its analytic continuation, which the
    principal square root gives while |xa|, |y| < 1/2 (the at most six
    nonzero eigenvalues of the matrix under I have modulus below 1/2).
    """
    reg = circ.registry
    t = circ.transfer()[[reg.index(k) for k in CLOSED_FORM_SOURCE]]
    proj = {}
    for c, det in enumerate(detectors):
        for b in CLOCK_WINDOW:
            cols = [i for i in reg.indices_for(det.spatial) if reg.key_at(i).time_bin == b]
            proj[(c, b)] = det.efficiency * t[:, cols] @ t[:, cols].conj().T
    alice = np.zeros((7, 7))
    alice[0, 2] = alice[2, 0] = xi
    alice[1, 2] = alice[2, 1] = math.sqrt(1.0 - xi * xi)
    relay = np.zeros((7, 7), complex)
    for k in relay_bins:
        relay[3 + k, 5 + k] = relay[5 + k, 3 + k] = np.exp(1j * phase_pump * k)
    bra = (alice + relay).conj()
    ket = np.multiply.outer(xa, alice) + np.multiply.outer(y, relay)
    norm = (1.0 - xa) * (1.0 - y) ** len(relay_bins)
    real = not np.iscomplexobj(norm)

    def vacuum_probability(gates):
        g = np.eye(7) - sum((proj[x] for x in gates), np.zeros((7, 7)))
        det = np.linalg.det(np.eye(7) - bra @ g.conj() @ ket @ g)
        return norm / np.sqrt(det.real if real else det)

    return vacuum_probability


def closed_form_vacuum(cfg: "scenarios.ExperimentConfig", phi_b: float, xa, y):
    """_gaussian_vacuum on the teleport circuit with the analyzer at phi_b,
    the detectors of _detectors, the relay in both bins and the overlap at
    the config's mismatch."""
    circ = scenarios._teleport_circuit(cfg)
    circ.elements += scenarios._analyzer(circ.registry, phi_b).elements
    xi = float(OverlapModel(cfg.dip_fwhm_um).xi(cfg.delta_x_um))
    return _gaussian_vacuum(circ, scenarios._detectors(cfg), (0, 1), cfg.phase_pump, xi, xa, y)


def teleport_patterns(cfg: "scenarios.ExperimentConfig", phi_b: float, xa, y,
                      darks) -> np.ndarray:
    """Each accepted Bell-state pattern's probability, and that with Bob's
    click in BOB_BIN, shape (patterns of bell_patterns, 2) + the shape of
    xa and y, from the vacuum probabilities of closed_form_vacuum by
    inclusion-exclusion: a pattern with click gates C and dark gates V has
    probability

        prod_{g in V} (1 - d_g) sum_{S subset of C} (-1)^|S| prod_{g in S} (1 - d_g) Q(V + S),

    darks d in _detectors' order; Bob's click is one more click gate."""
    vacuum_probability = closed_form_vacuum(cfg, phi_b, xa, y)
    out = []
    for click, dark in bell_patterns(cfg.symmetric_bsa, len(CLOCK_WINDOW), cfg.heralded):
        keep = np.prod([1.0 - darks[c] for c, _ in dark])
        events = []
        for gates in (click, click + ((_BOB, BOB_BIN),)):
            total = 0.0
            for r in range(len(gates) + 1):
                for s in itertools.combinations(gates, r):
                    sign = (-1) ** r * np.prod([1.0 - darks[c] for c, _ in s])
                    total += keep * sign * vacuum_probability(dark + s)
            events.append(total)
        out.append(events)
    return np.array(out)


def teleport_events(cfg: "scenarios.ExperimentConfig", phi_b: float, xa, y,
                    darks) -> np.ndarray:
    """[P(accept), P(accept and Bob clicks in BOB_BIN)] at analyzer phase
    phi_b in closed form (teleport_patterns summed over the patterns)."""
    return teleport_patterns(cfg, phi_b, xa, y, darks).sum(axis=0)


def _over_relay_pairs(mu: float, model: str, events, nodes: int):
    """events(y), a function of the relay's per-bin squeezer parameter y
    over its two bins, under the relay's pair-number weighting `model`:
    "two", two squeezers, one per bin, y = mu/(2 + mu), exact with no
    truncation; or "total", the package's source, thermal (1 - x) x^n on
    the total pair number n, x = mu/(1 + mu), which integrates the
    two-squeezer form over y in [0, x] with weight (1 - x)/x (1 - y)^-2,
    by `nodes`-point Gauss-Legendre."""
    if model == "two" or mu == 0.0:
        return events(mu / (2.0 + mu))
    x = mu / (1.0 + mu)
    u, w = np.polynomial.legendre.leggauss(nodes)
    return sum(wi * (1.0 - x) / 2.0 * events(t) / (1.0 - t) ** 2
               for t, wi in zip(x * (u + 1.0) / 2.0, w))


def weighted(cfg: "scenarios.ExperimentConfig", phi_b: float, darks, model: str,
             nodes: int = 8) -> np.ndarray:
    """teleport_events under the relay's pair-number weighting `model`
    (_over_relay_pairs).  Alice's source is thermal either way,
    xa = mu_a/(1 + mu_a)."""
    xa = cfg.pair_mean_alice / (1.0 + cfg.pair_mean_alice)
    return _over_relay_pairs(cfg.pair_mean_epr, model,
                             lambda y: teleport_events(cfg, phi_b, xa, y, darks), nodes)


def dip_events(cfg: "scenarios.ExperimentConfig", xi: float):
    """(events, m): events(xa, y) is the dip's same-bin coincidences of the
    ge and ingaas detectors in the short and the long bin, shape (2,) + the
    shape of xa and y, at overlap amplitude xi, Alice's source a squeezer
    of parameter xa and the relay one of parameter y in each of the m bins
    it emits into.

    _gaussian_vacuum runs on _dip_circuit, and a bin's coincidence is the
    marginal coincidence_clicks computes,

        1 - (1 - d_ge) Q(ge) - (1 - d_in) Q(in) + (1 - d_ge)(1 - d_in) Q(ge, in)."""
    circ, relay_bins = scenarios._dip_circuit(cfg)
    detectors = scenarios._detectors(cfg)[:2]
    keep = [1.0 - det.dark_prob for det in detectors]

    def events(xa, y) -> np.ndarray:
        q = _gaussian_vacuum(circ, detectors, relay_bins, cfg.phase_pump, xi, xa, y)
        return np.array([1.0 - keep[0] * q(((0, b),)) - keep[1] * q(((1, b),))
                         + keep[0] * keep[1] * q(((0, b), (1, b))) for b in (0, 1)])

    return events, len(relay_bins)


def dip_coincidences(cfg: "scenarios.ExperimentConfig", xi: float, model: str,
                     nodes: int = 8) -> np.ndarray:
    """The dip's same-bin coincidences in the short and the long bin at
    overlap amplitude xi, in closed form (dip_events).  Alice's source is
    thermal, xa = mu_a/(1 + mu_a).  In symmetric mode the relay emits into
    one bin, one squeezer of parameter mu/(1 + mu), whose pair number is
    thermal, so both source models agree; in entangled mode it emits into
    two, under `model` (_over_relay_pairs)."""
    events, relay_bins = dip_events(cfg, xi)
    xa = cfg.pair_mean_alice / (1.0 + cfg.pair_mean_alice)
    mu = cfg.pair_mean_epr
    if relay_bins == 1:
        return events(xa, mu / (1.0 + mu))
    return _over_relay_pairs(mu, model, lambda y: events(xa, y), nodes)


def branch_outcomes(events, relay_bins: int, max_pairs: int, radius: float = 0.3,
                    points: int = 32) -> Dict[Tuple[int, int], np.ndarray]:
    """Every branch's normalized outcome O(na, nc), na + nc <= max_pairs,
    from events(xa, y), a closed form of the two squeezer parameters that
    takes complex arrays (dip_events, teleport_events).  With m =
    relay_bins squeezers on the relay, each holding y,

        events(xa, y) / ((1 - xa)(1 - y)^m) = sum xa^na y^nc C(nc + m - 1, nc) O(na, nc),

    so one 2-D FFT of its values on |xa| = |y| = radius, `points` equally
    spaced angles each, gives every coefficient at once.  Aliasing adds
    the coefficients `points` orders up, times radius^points; rounding
    errors grow as radius^-(na + nc)."""
    t = radius * np.exp(2j * math.pi * np.arange(points) / points)
    xa, y = np.meshgrid(t, t, indexing="ij")
    coefficients = np.fft.fft2(events(xa, y) / ((1.0 - xa) * (1.0 - y) ** relay_bins))
    return {(na, nc): coefficients[..., na, nc].real
            / (points**2 * radius ** (na + nc) * math.comb(nc + relay_bins - 1, nc))
            for na in range(max_pairs + 1) for nc in range(max_pairs + 1 - na)}


def fit_fringe_scipy(phases, counts) -> FringeFit:
    """qrelay.analysis.fit_fringe, its constrained refit through a sigmoid
    run by least_squares' lm."""
    from scipy.optimize import least_squares

    fit = fit_fringe(phases, counts)
    if not fit.constrained:
        return fit
    x = np.asarray(phases, dtype=float)
    y = np.asarray(counts, dtype=float)
    w = 1.0 / np.sqrt(np.maximum(y, 1.0))
    basis = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    (c0, c1, c2), *_ = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)
    visibility, phase0 = fit.unconstrained_visibility, _phase(c2, c1)

    # out of range: refit with V = sigmoid(u) so the estimate stays physical
    def residuals(p):
        off, u, ph = p
        v = 1.0 / (1.0 + math.exp(-u))
        return (y - off * (1.0 + v * np.cos(x - ph))) * w

    u0 = 6.0 if visibility > 1.0 else -6.0
    sol = least_squares(residuals, [c0, u0, phase0], method="lm", max_nfev=2000)
    if not sol.success:
        raise QRelayError(f"constrained fringe fit failed: {sol.message}")
    off, u, ph = sol.x
    if off <= 0:
        raise QRelayError(f"non-positive fringe offset {off:.3g}")
    v = 1.0 / (1.0 + math.exp(-u))
    return FringeFit(
        v, fit.visibility_sigma, _phase(math.sin(ph), math.cos(ph)), off, True, visibility
    )


def fit_dip_scipy(positions, counts) -> DipFit:
    """The dip fit of qrelay.analysis.fit_dip, run by least_squares' trf."""
    from scipy.optimize import least_squares

    x = np.asarray(positions, dtype=float)
    y = np.asarray(counts, dtype=float)
    w = 1.0 / np.sqrt(np.maximum(y, 1.0))
    a0 = max(float(np.median(np.sort(y)[-max(3, x.size // 4):])), 1e-9)
    i_min = int(np.argmin(y))
    d0 = min(0.95, max(0.05, 1.0 - float(y[i_min]) / a0))
    span = float(x.max() - x.min())
    p0 = np.array([a0, d0, float(x[i_min]), max(span / 8.0, 1e-6)])
    ln2x4 = 4.0 * math.log(2.0)

    def residuals(p):
        a, d, c, fw = p
        return (y - a * (1.0 - d * np.exp(-ln2x4 * (x - c) ** 2 / fw**2))) * w

    sol = least_squares(
        residuals,
        p0,
        bounds=([1e-12, 0.0, x.min() - span, 1e-9], [np.inf, 1.0, x.max() + span, 10 * span + 1.0]),
        max_nfev=5000,
        xtol=1e-12,
        ftol=1e-12,
        gtol=1e-12,
    )
    if not sol.success:
        raise QRelayError(f"dip fit failed: {sol.message}")
    a, d, c, fw = sol.x
    jac = np.empty((x.size, 4))
    for i in range(4):
        step = np.zeros(4)
        step[i] = 1e-5 * (abs(fw) if i >= 2 else max(abs(sol.x[i]), 1.0))
        jac[:, i] = (residuals(sol.x + step) - residuals(sol.x - step)) / (2.0 * step[i])
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.full((4, 4), np.nan)
    sd = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return DipFit(a, d, sd[1], c, sd[2], abs(fw), sd[3])
