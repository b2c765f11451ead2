"""Seeded operations for the benchmark workloads, and the checks on their outputs.

An operation is one in-process `qrelay` command (`kind == "cli"`) or one
`scenarios.calibrate_dark_counts` call (`kind == "calibrate"`).  Every
workload is generated in rounds.  A round has a fixed structure (which
subcommand, how many scan points or time steps, which flags), and the seed
only permutes that structure and draws the continuous physical parameters.
So the cost mix of a round is the same on every seed, while no two
operations of a run share a configuration.

Continuous parameters stay away from values where the sparse states lose
terms (zero loss, zero mismatch, exact phases), so the work per operation
does not depend on the seed either.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("fringe", "dip", "calibrate", "drift")

TWO_PI = 2.0 * math.pi

# Acceptance tolerances of the anchor checks.
EXACT_TOL = 1e-9          # closed-form ideal teleportation: V = 1, acceptance = 1/4
FIT_TOL = 1e-6            # least-squares dip fit on exact ideal data
BRENTQ_RTOL = 1e-6        # rtol that calibrate_dark_counts passes to brentq

# One round of each workload: what varies structurally, fixed per round.
# Point counts span a narrow band: when every op of a workload costs about
# the same, a slow spell of the shared machine that covers less than half
# the run barely moves the median op time.
FRINGE_POINTS = (14, 15, 16, 17, 18, 19, 20, 21)
# an entangled-mode dip point costs about 4/5 of a symmetric one
DIP_POINTS = {"symmetric": (19, 20, 21, 22), "entangled": (24, 25, 26, 27)}
# a third of the ops are cheap (clamp, noise), so the median sits inside
# the cluster of searches, not at its edge
CALIBRATE_SEARCHES = 4    # calibrations whose target forces the brentq search
CALIBRATE_CLAMPED = 1     # calibrations whose target sits below the multi-pair floor
CALIBRATE_NOISE = 1       # `qrelay noise` runs
NOISE_BLOCKINGS = 4       # blocked-source configurations one noise run reports
# time steps per drift op, scaled per drift kind so that each kind costs
# about the same per op at the seed
DRIFT_STEPS = {
    ("sinusoid", True): 130_000,
    ("sinusoid", False): 130_000,
    ("random-walk", True): 55_000,
    ("random-walk", False): 70_000,
}

PROBABILITY_KEYS = {
    "teleport": (
        "visibility_raw",
        "fidelity_raw",
        "acceptance_probability",
        "fringe.visibility",
        "net.visibility_net",
        "net.fidelity_net",
    ),
    "mandel": ("visibility", "depth_long"),
    "noise": (
        "background_probability",
        "blocking_probabilities.none",
        "blocking_probabilities.alice",
        "blocking_probabilities.epr",
        "blocking_probabilities.both",
    ),
    "stability": ("floor", "peak"),
}

CSV_HEADERS = {
    "teleport": "phi_b_rad,counts,expected_prob",
    "mandel": "delta_x_um,coinc_short,coinc_long",
    "noise": "blocked,probability",
}


@dataclass
class Op:
    """One operation; `units` is the input work it completes (see README)."""

    name: str
    kind: str
    units: int
    argv: List[str] = field(default_factory=list)
    config: Dict[str, object] = field(default_factory=dict)
    target: float = 0.0
    out: bool = False
    csv_rows: Optional[int] = None
    expect_held: bool = False
    ideal: Optional[str] = None
    rerun: bool = False

    def identity(self) -> Tuple:
        return (self.kind, tuple(self.argv), tuple(sorted(self.config.items())), self.target)


def config_text(config: Dict[str, object]) -> str:
    """ExperimentConfig fields as the flat `key = value` file the CLI reads."""
    lines = []
    for key, value in sorted(config.items()):
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _num(value: float) -> str:
    return repr(float(value))


def _fringe_round(rng: random.Random, tag: str) -> List[Op]:
    ops = []
    for i, points in enumerate(rng.sample(FRINGE_POINTS, len(FRINGE_POINTS))):
        heralded = i % 2 == 1
        montecarlo = i == 2
        argv = ["teleport", "--points", str(points), "--periods", _num(rng.uniform(1.0, 2.5))]
        if heralded:
            argv.append("--heralded")
        if montecarlo:
            argv += [
                "--mode", "montecarlo",
                "--trials", str(rng.randrange(10**10, 10**11)),
                "--seed", str(rng.randrange(2**31)),
            ]
        config = {
            "pair_mean_alice": rng.uniform(0.06, 0.19),
            "pair_mean_epr": rng.uniform(0.03, 0.15),
            "phase_alice": rng.uniform(0.0, TWO_PI),
            "delta_x_um": rng.uniform(5.0, 120.0),
            "loss_bob_db": rng.uniform(0.5, 4.0),
        }
        ops.append(Op(f"{tag}.{i}", "cli", points, argv, config, out=True, csv_rows=points))
    return ops


def _dip_round(rng: random.Random, tag: str) -> List[Op]:
    plan = [(mode, points) for mode, counts in DIP_POINTS.items() for points in counts]
    rng.shuffle(plan)
    ops = []
    for i, (mode, points) in enumerate(plan):
        argv = ["mandel", "--points", str(points), "--span-um", _num(rng.uniform(150.0, 400.0))]
        config = {
            "mandel_mode": mode,
            "mandel_phase": rng.uniform(0.0, TWO_PI),
            "loss_alice_db": rng.uniform(0.2, 3.0),
            "loss_epr_db": rng.uniform(0.2, 3.0),
            "pair_mean_alice": rng.uniform(0.05, 0.19),
            "pair_mean_epr": rng.uniform(0.03, 0.15),
        }
        ops.append(Op(f"{tag}.{i}", "cli", points, argv, config, out=True, csv_rows=points))
    return ops


def _calibration_config(rng: random.Random) -> Dict[str, object]:
    # a relay pair mean well below Alice's keeps the multi-pair floor (the
    # ratio at zero dark counts) between 0.6 and 1.6, under every search
    # target and over every clamp target
    return {
        "pair_mean_alice": rng.uniform(0.14, 0.19),
        "pair_mean_epr": rng.uniform(0.03, 0.06),
        "loss_bob_db": rng.uniform(1.0, 3.0),
        "phase_alice": rng.uniform(0.0, TWO_PI),
        "delta_x_um": rng.uniform(5.0, 60.0),
        "eta_bob": rng.uniform(0.08, 0.15),
    }


def _calibrate_round(rng: random.Random, tag: str) -> List[Op]:
    ops = []
    for k in range(CALIBRATE_SEARCHES):
        # one target per stratum of [2.2, 4.0], so every round has the same spread
        target = 2.2 + 1.8 * (k + rng.random()) / CALIBRATE_SEARCHES
        ops.append(Op("", "calibrate", 1, config=_calibration_config(rng), target=target))
    for _ in range(CALIBRATE_CLAMPED):
        ops.append(
            Op("", "calibrate", 1, config=_calibration_config(rng), target=rng.uniform(0.1, 0.5))
        )
    for _ in range(CALIBRATE_NOISE):
        config = {
            "pair_mean_alice": rng.uniform(0.05, 0.19),
            "pair_mean_epr": rng.uniform(0.03, 0.15),
            "loss_bob_db": rng.uniform(0.5, 4.0),
            "loss_herald_db": rng.uniform(0.2, 2.0),
            "dark_bob": rng.uniform(2e-5, 3e-4),
            "dark_herald": rng.uniform(2e-5, 3e-4),
            "eta_bob": rng.uniform(0.05, 0.2),
        }
        ops.append(Op("", "cli", NOISE_BLOCKINGS, ["noise"], config, out=True, csv_rows=NOISE_BLOCKINGS))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op.name = f"{tag}.{i}"
    return ops


def _stability_op(name: str, kind: str, controlled: bool, steps: int, rng: random.Random) -> Op:
    dt_s = rng.uniform(5.0, 15.0)
    duration_h = steps * dt_s / 3600.0
    argv = [
        "stability", "--kind", kind,
        "--amplitude-k", _num(rng.uniform(0.5, 2.0)),
        "--period-h", _num(rng.uniform(24.0, 96.0)),
        "--duration-h", _num(duration_h),
        "--dt-s", _num(dt_s),
        "--seed", str(rng.randrange(2**31)),
    ]
    if not controlled:
        argv.append("--no-controller")
    # the step count stability.simulate derives from the two flags (repr
    # round-trips, so the CLI parses back exactly these floats)
    n_steps = int(round(duration_h * 3600.0 / dt_s)) + 1
    return Op(name, "cli", n_steps, argv, expect_held=controlled and kind == "sinusoid")


def _drift_round(rng: random.Random, tag: str) -> List[Op]:
    plan = []
    for (kind, controlled), steps in DRIFT_STEPS.items():
        # one shorter and one longer run of each kind per round
        plan.append((kind, controlled, int(steps * rng.uniform(0.85, 1.0))))
        plan.append((kind, controlled, int(steps * rng.uniform(1.0, 1.15))))
    rng.shuffle(plan)
    return [_stability_op(f"{tag}.{i}", *p, rng) for i, p in enumerate(plan)]


_ROUNDS = {
    "fringe": _fringe_round,
    "dip": _dip_round,
    "calibrate": _calibrate_round,
    "drift": _drift_round,
}


def rounds(workload: str, seed: int) -> Iterator[List[Op]]:
    """Endless rounds of distinct operations; the same seed gives the same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    n = 0
    while True:
        ops = _ROUNDS[workload](rng, f"{workload}.r{n}")
        for op in ops:
            key = op.identity()
            if key in seen:
                raise RuntimeError(f"duplicate operation config in {op.name}")
            seen.add(key)
        yield ops
        n += 1


def anchor_ops(seed: int, ideal_config: Dict[str, object]) -> List[Op]:
    """Fixed reference checks run once per process, outside the timed loop.

    The two ideal anchors use the fields of `scenarios.build_ideal_config`
    that differ from the defaults; the last pair is one Monte-Carlo
    teleport run, executed twice with identical arguments.
    """
    rng = random.Random(f"anchors:{seed}")
    mc = next(op for op in _fringe_round(rng, "anchor") if "montecarlo" in op.argv)
    mc.name = "anchor.montecarlo-rerun"
    mc.rerun = True
    return [
        Op("anchor.teleport-ideal", "cli", 12, ["teleport", "--points", "12", "--periods", "1"],
           dict(ideal_config), out=True, csv_rows=12, ideal="teleport"),
        Op("anchor.mandel-ideal", "cli", 21, ["mandel", "--points", "21", "--span-um", "300"],
           dict(ideal_config), out=True, csv_rows=21, ideal="mandel"),
        Op("anchor.calibrate", "calibrate", 1, target=2.5),
        Op("anchor.drift-controlled", "cli", 2881,
           ["stability", "--kind", "sinusoid", "--duration-h", "48", "--dt-s", "60"],
           expect_held=True),
        mc,
    ]


# ---------------------------------------------------------------- checks


def _walk_numbers(value, path=""):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        yield path, value
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _walk_numbers(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _walk_numbers(v, f"{path}[{i}]")


def _lookup(doc, dotted):
    for part in dotted.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return None
        doc = doc[part]
    return doc


def _in_unit_interval(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def check_cli(op: Op, code: int, stdout: str, stderr: str, csv_text: Optional[str]) -> List[str]:
    """Names of the checks this CLI operation failed; empty when correct."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-200:]}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    problems = [f"non-finite {p}" for p, x in _walk_numbers(doc) if not math.isfinite(x)]
    scenario = doc.get("scenario")
    if scenario not in PROBABILITY_KEYS:
        return problems + [f"unexpected scenario {scenario!r}"]
    for key in PROBABILITY_KEYS[scenario]:
        x = _lookup(doc, key)
        if x is not None and not _in_unit_interval(x):
            problems.append(f"{key} = {x} outside [0, 1]")
    if op.out:
        problems += _check_csv(scenario, csv_text, op.csv_rows)
    if op.expect_held and doc.get("held_within_tenth") is not True:
        problems.append("controlled sinusoid drift not held within 0.1")
    if op.ideal == "teleport":
        if abs(doc["visibility_raw"] - 1.0) > EXACT_TOL:
            problems.append(f"ideal visibility_raw {doc['visibility_raw']!r} != 1")
        if abs(doc["acceptance_probability"] - 0.25) > EXACT_TOL:
            problems.append(f"ideal acceptance {doc['acceptance_probability']!r} != 0.25")
    elif op.ideal == "mandel":
        if abs(doc["visibility"] - 1.0) > FIT_TOL:
            problems.append(f"ideal dip depth {doc['visibility']!r} != 1")
        if abs(doc["fwhm_um"] - 144.0) > FIT_TOL * 144.0:
            problems.append(f"ideal dip fwhm {doc['fwhm_um']!r} != 144 um")
    return problems


def _check_csv(scenario: str, text: Optional[str], rows: Optional[int]) -> List[str]:
    if text is None:
        return ["csv not written"]
    table = list(csv.reader(io.StringIO(text)))
    if not table or ",".join(table[0]) != CSV_HEADERS[scenario]:
        return ["csv header"]
    body = table[1:]
    problems = []
    if rows is not None and len(body) != rows:
        problems.append(f"csv has {len(body)} rows, expected {rows}")
    for row in body:
        values = row[1:] if scenario == "noise" else row
        try:
            numbers = [float(v) for v in values]
        except ValueError:
            return problems + ["csv value is not a number"]
        if not all(math.isfinite(v) for v in numbers):
            return problems + ["csv value is not finite"]
        prob = numbers[-1]
        if scenario in ("teleport", "noise") and not 0.0 <= prob <= 1.0:
            return problems + [f"csv probability {prob} outside [0, 1]"]
    return problems


def check_calibration(op: Op, calibrated, report) -> List[str]:
    """A search must hit its target within brentq's rtol; a clamp must be real."""
    problems = []
    achieved = float(report.achieved_ratio)
    if not math.isfinite(achieved):
        return ["achieved_ratio not finite"]
    if not calibrated.detectors_calibrated:
        problems.append("detectors_calibrated not set")
    if report.clamped:
        if report.dark_scale != 0.0 or achieved < op.target:
            problems.append(f"clamped at ratio {achieved} below target {op.target}")
    elif abs(achieved / op.target - 1.0) > BRENTQ_RTOL:
        problems.append(f"achieved_ratio {achieved!r} misses target {op.target!r}")
    return problems
