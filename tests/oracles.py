"""Brute-force reference implementations, used only by the tests.

click_distribution enumerates every click pattern of a detector layout,
term by term and gate by gate, for a weighted ensemble of separate states;
the Bell-state and herald filters then pick the accepted patterns out of
it.  The fast array paths in qrelay.detection, which answer per branch of
one record-tagged mixture, are checked against it branch by branch and
with the branch weights dotted in.  occupation_distribution lists a state's
outcome probabilities term by term, and general_transform re-expands a
linear-optical substitution on any number of modes; folded over a circuit's
elements one at a time, it is the reference for qrelay.optics.apply.

The oracles work on a state's terms as a dict from occupation bytes to
amplitude (`terms`, `from_terms`).  `create` applies one creation operator
(or a sum of them) term by term, and the emission oracles repeat the
two-photon emission operator with it: the references for the closed-form
sources in qrelay.sources.

mandel_per_point builds, pushes through the circuit and detects the dip
branch mixture at every mismatch point: the reference for the polynomial
interpolation in qrelay.scenarios.run_mandel_scan.  simulate_per_step is
the stability simulation with one random draw and one controller step per
Python loop iteration: the reference for qrelay.stability.simulate's array
code, which must match it byte for byte.

teleport_per_phase builds the receiver analyzer at one phase, runs a
teleport engine's prepared mixture through it and detects the result: the
reference for the phase harmonics qrelay.scenarios.TeleportEngine forms
from one analyzer pass.  blocking_weights and teleport_mean_per_phase give
the blocking runs and the phase average the same way.

csv_text formats a table cell by cell, a float as .9g and any other value
as str: the reference for the column-wise writer in qrelay.cli.

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
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from qrelay import scenarios
from qrelay.analysis import DipFit
from qrelay.detection import DetectorChannel, TeleportOutcome, teleport_outcome_distribution
from qrelay.errors import ConfigError, FitConvergenceError, UnnormalizedStateError
from qrelay.fock import NORM_ATOL, PRUNE_TOL, FockState, ModeKey, ModeRegistry
from qrelay.optics import Circuit, apply
from qrelay.stability import StabilityTrace

OccupationVector = Tuple[int, ...]
# (weight, state) pairs; the weights must sum to 1
Ensemble = Sequence[Tuple[float, FockState]]
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


def _check_ensemble(ensemble: Ensemble) -> None:
    total = sum(w for w, _ in ensemble)
    if abs(total - 1.0) > 1e-9:
        raise UnnormalizedStateError(f"ensemble weights sum to {total}, not 1")


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


def mandel_per_point(config: "scenarios.ExperimentConfig", mismatches_um) -> np.ndarray:
    """(short, long) dip coincidences, one branch-mixture build per point."""
    engine = scenarios._MandelEngine(config)
    return np.array([engine.coincidences(engine.overlap.xi(x)) for x in mismatches_um])


def simulate_per_step(drift, controller=None, duration_s=24 * 3600.0, dt_s=60.0, seed=0,
                      dip_visibility=1.0 / 3.0, fwhm_um=144.0) -> StabilityTrace:
    """qrelay.stability.simulate on valid input, one step per loop iteration."""
    n = int(round(duration_s / dt_s)) + 1
    times = np.arange(n) * dt_s
    rng_walk = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    rng_jitter = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))

    if drift.kind == "sinusoid":
        theta = drift.amplitude_k * np.sin(2.0 * math.pi * times / (drift.period_h * 3600.0))
    else:
        kappa = drift.rate_coupling_hz_per_k()
        theta = np.empty(n)
        theta[0] = 0.0
        for i in range(1, n):
            dt_h = (times[i] - times[i - 1]) / 3600.0
            max_step = drift.rep_wander_bound_hz_per_h * dt_h / kappa
            theta[i] = theta[i - 1] + rng_walk.uniform(-max_step, max_step)
    delta_f = drift.rate_coupling_hz_per_k() * theta

    jitter = np.zeros(n)
    if drift.jitter_sigma_um != 0.0:
        x = 0.0
        for i in range(1, n):
            dt = times[i] - times[i - 1]
            decay = math.exp(-dt / drift.jitter_tau_s)
            sigma = drift.jitter_sigma_um * math.sqrt(1.0 - decay * decay)
            x = x * decay + rng_jitter.normal(0.0, sigma)
            x = min(max(x, -drift.jitter_bound_um), drift.jitter_bound_um)
            jitter[i] = x
    drift_um = drift.thermal_um_per_k * theta + drift.rate_length_um_per_hz() * delta_f + jitter

    motor = np.zeros(n)
    if controller is not None:
        steps_per_update = max(1, int(round(controller.update_interval_s / dt_s)))
        held = 0.0
        for i in range(n):
            if i % steps_per_update == 0:
                held = controller.gain_um_per_hz * delta_f[i]
                if controller.motor_resolution_um > 0:
                    held = controller.motor_resolution_um * round(
                        held / controller.motor_resolution_um
                    )
            motor[i] = held

    delta_x = drift_um - motor
    ell = fwhm_um / math.sqrt(2.0 * math.log(2.0))
    norm = 1.0 - dip_visibility * np.exp(-2.0 * (delta_x / ell) ** 2)
    return StabilityTrace(times, delta_x, drift.rep_rate_hz + delta_f, motor, norm)


def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def csv_text(header: Sequence[str], rows) -> str:
    lines = [",".join(header)] + [",".join(format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def teleport_per_phase(engine: "scenarios.TeleportEngine", phi_b: float, weights=None,
                       detectors=None) -> TeleportOutcome:
    """TeleportEngine.outcome with the analyzer built at phi_b: the engine's
    prepared mixture through it, one detection pass, the weights dotted in.
    The reference for the engine's phase harmonics."""
    cfg = engine.config
    circ = Circuit(engine.registry)
    circ.add_michelson(scenarios.EPR_BOB, phi_b)
    ge, ingaas, herald, bob = scenarios._detectors(cfg) if detectors is None else detectors
    per_branch = teleport_outcome_distribution(
        apply(circ, engine.prepared), ge, ingaas, bob, herald if cfg.heralded else None
    )
    weights = scenarios.branch_weights(cfg) if weights is None else weights
    w = np.array([weights.get(k, 0.0) for k in engine.branches])
    return TeleportOutcome(w @ per_branch.accept, w @ per_branch.bob)


def blocking_weights(config: "scenarios.ExperimentConfig", blocked: str):
    """Branch weights with the blocked sources' pair means at zero and forced
    single pairs released."""
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
    return float(np.mean([teleport_per_phase(engine, p, detectors=detectors).bob[1]
                          for p in phases]))


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
        raise FitConvergenceError(f"dip fit failed: {sol.message}")
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
