"""Command-line front end for the simulator.

Subcommands map one-to-one onto the measurement campaigns: mandel (dip
scan), teleport (fringe scan), noise (source-blocking backgrounds),
stability (drift and feedforward traces), validate-timing (gate slack
arithmetic), and limits (the classical and cloning benchmark table).

Scan commands read a flat key=value configuration file whose keys are
exactly the ExperimentConfig field names, print a JSON summary with the
resolved configuration embedded, and optionally write a CSV table.  A
value that is not a finite number, such as the sigma of a singular fit,
prints as null.  All output is deterministic for a given seed, byte for
byte.

Exit codes: 0 on success, 2 for configuration problems (unknown keys,
malformed values, bad flag combinations), 3 for numeric failures
(fits that do not converge, truncation overflows, discarded tails).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, get_type_hints

import numpy as np

from .analysis import (
    CLASSICAL_VISIBILITY_LIMIT,
    CLONING_VISIBILITY_LIMIT,
    classify_visibility,
    fidelity_from_visibility,
    fit_dip,
    fit_fringe,
    net_visibility,
)
from .detection import TimingBudget, validate_timing
from .errors import ConfigError, QRelayError
from .scenarios import (
    BLOCK_CHOICES,
    ExperimentConfig,
    RUN_MODES,
    TeleportEngine,
    mismatch_grid,
    phase_grid,
    run_mandel_scan,
    run_teleport_scan,
)
from .stability import DEFAULT_GAIN_UM_PER_HZ, DRIFT_KINDS, DriftModel, simulate


# the config keys and the types their values convert to
_FIELD_TYPES = get_type_hints(ExperimentConfig)

_BOOL_WORDS = {
    "true": True,
    "1": True,
    "yes": True,
    "on": True,
    "false": False,
    "0": False,
    "no": False,
    "off": False,
}


def _convert(name: str, hint: type, raw: str):
    if hint is bool:
        try:
            return _BOOL_WORDS[raw.lower()]
        except KeyError:
            raise ConfigError(f"config key {name!r} expects a boolean, got {raw!r}")
    if hint is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {name!r} expects an integer, got {raw!r}")
    if hint is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {name!r} expects a number, got {raw!r}")
    return raw


def parse_config_text(text: str) -> Dict[str, object]:
    """key = value lines into typed values; unknown keys are rejected."""
    values: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if key in values:
            raise ConfigError(f"duplicate config key {key!r} (line {lineno})")
        values[key] = _convert(key, _FIELD_TYPES[key], raw)
    return values


def load_config(path: Optional[str], overrides: Dict[str, object]) -> ExperimentConfig:
    values: Dict[str, object] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8-sig") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        values = parse_config_text(text)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


# rows per block of _write_csv: only one block's cells are Python objects at
# a time, so writing a long trace takes little memory beyond its arrays
_CSV_BLOCK = 4096


def _write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """The header line, then one line per row, written _CSV_BLOCK rows at a
    time from columns (numpy arrays or sequences) of one length.  Each column
    takes one cell format, from its first cell: .9g for a float (np.float64
    included), str otherwise; a table with no rows is its header alone."""
    rows = len(columns[0])
    line = ",".join("%.9g" if rows and isinstance(column[0], float) else "%s"
                    for column in columns) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(header) + "\n")
            for start in range(0, rows, _CSV_BLOCK):
                cells = [column[start:start + _CSV_BLOCK] for column in columns]
                cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in cells]
                handle.writelines(map(line.__mod__, zip(*cells)))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def _finite(value):
    """`value` with every non-finite float in it, at any depth of dicts,
    made None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit_json(document: Dict[str, object]) -> None:
    # JSON has no NaN or infinity: a sigma that a singular fit cannot give is null
    print(json.dumps(_finite(document), indent=2, sort_keys=True, allow_nan=False))


def _common_overrides(args) -> Dict[str, object]:
    return {
        "seed": getattr(args, "seed", None),
        "mode": getattr(args, "mode", None),
        "trials": getattr(args, "trials", None),
    }


def _fit_to_dict(fit) -> Dict[str, object]:
    return {
        "visibility": fit.visibility,
        "visibility_sigma": fit.visibility_sigma,
        "phase0_rad": fit.phase0,
        "offset": fit.offset,
        "constrained": fit.constrained,
        "unconstrained_visibility": fit.unconstrained_visibility,
    }


def _cmd_mandel(args) -> int:
    cfg = load_config(args.config, _common_overrides(args))
    xs = mismatch_grid(args.points, args.span_um)
    short, long_ = run_mandel_scan(cfg, xs)
    fit_short = fit_dip(xs, short.counts)
    fit_long = fit_dip(xs, long_.counts)
    if args.out:
        _write_csv(
            args.out,
            ("delta_x_um", "coinc_short", "coinc_long"),
            (xs, short.counts, long_.counts),
        )
    _emit_json(
        {
            "scenario": "mandel",
            "visibility": fit_short.depth,
            "visibility_sigma": fit_short.depth_sigma,
            "fwhm_um": fit_short.fwhm,
            "fwhm_sigma_um": fit_short.fwhm_sigma,
            "center_short_um": fit_short.center,
            "center_long_um": fit_long.center,
            "depth_long": fit_long.depth,
            "pulses_per_point": short.pulses,
            "csv": args.out,
            "config": asdict(cfg),
        }
    )
    return 0


def _teleport_net_section(fit, pulses, engine) -> Dict[str, object]:
    background = engine.background() * pulses
    section: Dict[str, object] = {"background_counts": background}
    try:
        nv = net_visibility(fit.visibility, fit.offset, background)
    except ConfigError as exc:
        section.update({"visibility_net": None, "note": str(exc)})
        return section
    section.update(
        {
            "visibility_net": nv.value,
            "capped": nv.capped,
            "fidelity_net": fidelity_from_visibility(nv.value),
            "classification_net": classify_visibility(nv.value),
        }
    )
    return section


def _cmd_teleport(args) -> int:
    overrides = _common_overrides(args)
    if args.heralded:
        overrides["heralded"] = True
    cfg = load_config(args.config, overrides)
    phases = phase_grid(args.points, args.periods)
    # one engine serves the scan, the acceptance and the blocking runs
    engine = TeleportEngine(cfg)
    scan = run_teleport_scan(engine, phases)
    fit = fit_fringe(scan.control, scan.counts)
    if args.out:
        _write_csv(
            args.out,
            ("phi_b_rad", "counts", "expected_prob"),
            (scan.control, scan.counts, scan.probability),
        )
    _emit_json(
        {
            "scenario": "teleport",
            "visibility_raw": fit.visibility,
            "visibility_sigma": fit.visibility_sigma,
            "fidelity_raw": fidelity_from_visibility(fit.visibility),
            "classification_raw": classify_visibility(fit.visibility),
            "fringe": _fit_to_dict(fit),
            "acceptance_probability": engine.acceptance(),
            "net": _teleport_net_section(fit, scan.pulses, engine),
            "pulses_per_point": scan.pulses,
            "csv": args.out,
            "config": asdict(cfg),
        }
    )
    return 0


def _cmd_noise(args) -> int:
    cfg = load_config(args.config, _common_overrides(args))
    engine = TeleportEngine(cfg)
    probs = dict(zip(BLOCK_CHOICES, engine.blocking()))
    if args.out:
        _write_csv(
            args.out,
            ("blocked", "probability"),
            (BLOCK_CHOICES, [probs[mode] for mode in BLOCK_CHOICES]),
        )
    _emit_json(
        {
            "scenario": "noise",
            "blocking_probabilities": probs,
            # the blocking runs above reweighted, from the same detection pass
            "background_probability": engine.background(),
            "csv": args.out,
            "config": asdict(cfg),
        }
    )
    return 0


def _cmd_stability(args) -> int:
    drift = DriftModel(kind=args.kind, amplitude_k=args.amplitude_k, period_h=args.period_h)
    gain = None if args.no_controller else args.gain
    trace = simulate(drift, gain, duration_s=args.duration_h * 3600.0, dt_s=args.dt_s,
                     seed=args.seed)
    if args.out:
        _write_csv(
            args.out,
            ("t", "delta_x_um", "rep_rate_hz", "motor_um", "norm_coincidences"),
            (trace.time_s, trace.delta_x_um, trace.rep_rate_hz, trace.motor_um,
             trace.norm_coincidences),
        )
    floor = float(trace.norm_coincidences.min())
    peak = float(trace.norm_coincidences.max())
    # max |delta_x| with no array of magnitudes; + 0.0 prints an all-zero trace as 0.0
    max_mismatch = float(max(trace.delta_x_um.max(), -trace.delta_x_um.min()) + 0.0)
    _emit_json(
        {
            "scenario": "stability",
            "controlled": gain is not None,
            "kind": args.kind,
            "duration_h": args.duration_h,
            "floor": floor,
            "peak": peak,
            "held_within_tenth": bool(peak <= floor + 0.1),
            "max_mismatch_um": max_mismatch,
            "csv": args.out,
        }
    )
    return 0


def _cmd_validate_timing(args) -> int:
    budget = TimingBudget(
        charlie_spool_m=args.charlie_spool_m,
        quantum_fiber_m=args.quantum_fiber_m,
        classical_fiber_m=args.classical_fiber_m,
        bob_spool_m=args.bob_spool_m,
        group_index=args.group_index,
        decision_latency_s=args.latency_ns * 1e-9,
    )
    slack = validate_timing(budget)
    print(f"slack_ns {slack * 1e9:.9g}")
    print("gate_order " + ("trigger-first" if slack > 0 else "photon-first"))
    return 0


def _cmd_limits(_args) -> int:
    rows = [
        ("classical_visibility_limit", "1/3", CLASSICAL_VISIBILITY_LIMIT),
        ("cloning_visibility_limit", "2/3", CLONING_VISIBILITY_LIMIT),
        ("classical_fidelity_limit", "2/3", fidelity_from_visibility(CLASSICAL_VISIBILITY_LIMIT)),
        ("cloning_fidelity_limit", "5/6", fidelity_from_visibility(CLONING_VISIBILITY_LIMIT)),
    ]
    for name, fraction, value in rows:
        print(f"{name:<28} {fraction:>4} {value:.9f}")
    return 0


# a value argparse takes for a negative number rather than an option: its
# own pattern has no exponent, so "--periods -1e1" would read "-1e1" as a flag
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


# built once per process: each parse_args call fills a fresh namespace
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrelay",
        description="time-bin teleportation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scan_flags(p, points_default):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=RUN_MODES, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", help="write the scan table to this CSV path")
        p.add_argument("--points", type=int, default=points_default)

    p_mandel = sub.add_parser("mandel", help="coincidence dip versus path mismatch")
    add_scan_flags(p_mandel, 41)
    p_mandel.add_argument("--span-um", type=float, default=300.0)
    p_mandel.set_defaults(func=_cmd_mandel)

    p_tel = sub.add_parser("teleport", help="fringe versus receiver analyzer phase")
    add_scan_flags(p_tel, 24)
    p_tel.add_argument("--periods", type=float, default=2.0)
    p_tel.add_argument("--heralded", action="store_true")
    p_tel.set_defaults(func=_cmd_teleport)

    p_noise = sub.add_parser("noise", help="source-blocking background probabilities")
    p_noise.add_argument("--config")
    p_noise.add_argument("--out")
    p_noise.set_defaults(func=_cmd_noise)

    p_stab = sub.add_parser("stability", help="drift and feedforward time series")
    p_stab.add_argument("--kind", choices=DRIFT_KINDS, default=DriftModel.kind)
    # the rest of the plant and the motor are constants of qrelay.stability
    p_stab.add_argument("--amplitude-k", type=float, default=DriftModel.amplitude_k, help=(
        "sinusoid amplitude in K, driving THERMAL_UM_PER_K and RATE_COUPLING_HZ_PER_K; "
        "the random walk, bounded by REP_WANDER_BOUND_HZ_PER_H, ignores it"))
    p_stab.add_argument("--period-h", type=float, default=DriftModel.period_h,
                        help="sinusoid period in hours; the random walk ignores it")
    p_stab.add_argument("--duration-h", type=float, default=24.0)
    p_stab.add_argument("--dt-s", type=float, default=60.0)
    p_stab.add_argument("--seed", type=int, default=0)
    p_stab.add_argument("--gain", type=float, default=DEFAULT_GAIN_UM_PER_HZ)
    p_stab.add_argument("--no-controller", action="store_true")
    p_stab.add_argument("--out")
    p_stab.set_defaults(func=_cmd_stability)

    p_time = sub.add_parser("validate-timing", help="receiver gate slack in ns")
    p_time.add_argument("--charlie-spool-m", type=float, default=TimingBudget.charlie_spool_m)
    p_time.add_argument("--quantum-fiber-m", type=float, default=TimingBudget.quantum_fiber_m)
    p_time.add_argument("--classical-fiber-m", type=float, default=TimingBudget.classical_fiber_m)
    p_time.add_argument("--bob-spool-m", type=float, default=TimingBudget.bob_spool_m)
    p_time.add_argument("--group-index", type=float, default=TimingBudget.group_index)
    p_time.add_argument("--latency-ns", type=float, default=TimingBudget.decision_latency_s * 1e9)
    p_time.set_defaults(func=_cmd_validate_timing)

    p_lim = sub.add_parser("limits", help="classical and cloning benchmarks")
    p_lim.set_defaults(func=_cmd_limits)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QRelayError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
