#!/usr/bin/env python3
"""qrelay benchmark: seeded workloads, closed loop, one operation at a time.

Run from the root of a qrelay checkout:

    python3 perfbench/run.py --workload fringe --seed 1 --seconds 16 --trace 0

The program is imported from `src/` of the checkout this file sits in.  With
`--trace 0` the run measures end-to-end metrics; with `--trace 1` it runs one
round untraced and one traced and reports per-layer metrics.  The last line
of stdout is the result object; the line before it holds the details (run
environment, sample counts, failed checks).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# One process, one thread: keep numpy's BLAS from starting worker threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is sampled between rounds, spread over the timed loop, so that one
# slow spell of a shared machine does not set the whole median.
SETUP_SAMPLES = 5
# The tail is p75: the highest of p50/p75/p90/p99 with at least 10 samples
# beyond it at every workload's sample count (40-100 ops per 16 s run).  It is
# fixed so that a faster program, with more samples, is compared at the same
# percentile.  A run takes at least MIN_OPS ops, so that p75 keeps 10 samples
# beyond it when the machine is slow.
TAIL_PERCENTILE = 75
MIN_OPS = 40


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def import_time():
    """Wall time of one fresh interpreter importing qrelay.cli."""
    start = time.perf_counter()
    # no timeout: with one, Popen.wait polls and rounds times up to 50 ms
    subprocess.run([sys.executable, "-c", "import qrelay.cli"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(qrelay, scenarios):
    import numpy
    import scipy

    fields = getattr(scenarios.ExperimentConfig, "__dataclass_fields__", {})
    n_max = fields["n_max"].default if "n_max" in fields else None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": qrelay.backend_name() if hasattr(qrelay, "backend_name") else None,
        "QRELAY_KERNEL": os.environ.get("QRELAY_KERNEL"),
        "n_max": n_max,
        "MAX_PAIRS_EACH": getattr(scenarios, "MAX_PAIRS_EACH", None),
    }


class Runner:
    """Executes operations in this process and checks their outputs."""

    def __init__(self, cli, scenarios, workloads, workdir: Path):
        self.cli = cli
        self.scenarios = scenarios
        self.wl = workloads
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _call_cli(self, op):
        cfg = self.workdir / "op.cfg"
        csv_path = self.workdir / "op.csv"
        argv = list(op.argv)
        if op.config:
            cfg.write_text(self.wl.config_text(op.config), encoding="utf-8")
            argv += ["--config", str(cfg)]
        if op.out:
            csv_path.unlink(missing_ok=True)
            argv += ["--out", str(csv_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code if isinstance(exc.code, int) else 2
        csv_text = csv_path.read_text(encoding="utf-8") if op.out and csv_path.exists() else None
        return code, stdout.getvalue(), stderr.getvalue(), csv_text

    def _call_calibrate(self, op):
        config = self.scenarios.ExperimentConfig(**op.config)
        return self.scenarios.calibrate_dark_counts(config, op.target)

    def run(self, op):
        """(seconds, ok, output); every failure is recorded by name.

        The time covers writing the config file and reading the CSV back,
        well under a millisecond, so that a failing op is timed too.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            if op.kind == "cli":
                output = self._call_cli(op)
                elapsed = time.perf_counter() - start
                problems = self.wl.check_cli(op, *output)
            else:
                output = self._call_calibrate(op)
                elapsed = time.perf_counter() - start
                problems = self.wl.check_calibration(op, *output)
        except Exception as exc:  # a crash in the program is a failed operation
            elapsed = time.perf_counter() - start
            tb = traceback.extract_tb(exc.__traceback__)[-1]
            problems = [f"{type(exc).__name__}: {exc} ({Path(tb.filename).name}:{tb.lineno})"]
            output = None
        self.fail(op, problems)
        return elapsed, not problems, output

    def fail(self, op, problems):
        if problems:
            self.failed += 1
            self.failures += [f"{op.name}: {problem}" for problem in problems]

    def run_anchors(self, ops):
        """Reference checks; the Monte-Carlo anchor runs twice and must repeat byte for byte."""
        for op in ops:
            _, ok, first = self.run(op)
            if op.rerun and ok:
                _, ok, second = self.run(op)
                if ok and first != second:
                    self.fail(op, ["rerun output differs"])


def timed_loop(runner, workload_rounds, seconds, min_ops, between_rounds):
    """Whole rounds until `seconds` of busy time and `min_ops` ops; a round keeps its cost mix intact.

    Returns the op times, the rounds run, the input units of successful ops
    and the busy seconds.  `between_rounds(busy_s)` runs after each round,
    outside the busy time.
    """
    times, n_rounds, units, busy = [], 0, 0, 0.0
    for ops in workload_rounds:
        start = time.perf_counter()
        for op in ops:
            elapsed, ok, _ = runner.run(op)
            times.append(elapsed)
            if ok:
                units += op.units
        busy += time.perf_counter() - start
        n_rounds += 1
        between_rounds(busy)
        if busy >= seconds and len(times) >= min_ops:
            break
    return times, n_rounds, units, busy


def run_untraced(runner, wl, args, details):
    import_time()  # unmeasured: the first import may still write bytecode caches
    setup_samples = []

    def sample_setup(busy):
        n = len(setup_samples)
        if n < SETUP_SAMPLES and busy >= n * args.seconds / SETUP_SAMPLES:
            setup_samples.append(import_time())

    times, n_rounds, units, busy = timed_loop(
        runner, wl.rounds(args.workload, args.seed), args.seconds, MIN_OPS, sample_setup
    )
    tail = percentile(times, TAIL_PERCENTILE)
    details["setup_samples_s"] = setup_samples
    details["timed"] = {
        "ops": len(times),
        "rounds": n_rounds,
        "units": units,
        "busy_s": busy,
        "tail_percentile": TAIL_PERCENTILE,
        "samples_beyond_tail": sum(1 for t in times if t > tail),
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "points_per_s": (units / busy, "1/s"),
        "success_ratio": (1.0 - runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(runner, wl, tracing, args, details, anchors):
    """Anchors traced, then rounds 0 and 1 op by op, round 0 untraced and round 1 traced.

    Counts come from the traced part, a fixed set of ops for a given seed.
    The two rounds have the same structure and run interleaved, so their
    time per input unit compares like with like: that ratio is the overhead.
    """
    tracer = tracing.Tracer()
    rounds = wl.rounds(args.workload, args.seed)
    plain, traced = next(rounds), next(rounds)
    with tracer.active():
        runner.run_anchors(anchors)
    plain_s = traced_s = 0.0
    for plain_op, traced_op in zip(plain, traced):
        plain_s += runner.run(plain_op)[0]
        with tracer.active():
            traced_s += runner.run(traced_op)[0]
    overhead = (traced_s / sum(op.units for op in traced)) / (plain_s / sum(op.units for op in plain))
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans_file)
    details["trace"] = {
        "absent_layers": tracer.absent_layers(),
        "missing_targets": tracer.missing,
        "counter_errors": dict(tracer.counter_errors),
        "terms_per_state": tracer.terms_per_state(),
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "round_untraced_s": plain_s,
        "round_traced_s": traced_s,
    }
    metrics = {}
    for name, value in tracer.layer_metrics().items():
        unit = "ms" if name.endswith("_ms") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qrelay" / "__init__.py").is_file():
        print(f"error: no qrelay sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    import workloads as wl
    import tracing

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    import qrelay
    import qrelay.cli as cli
    from qrelay import scenarios
    import_s = time.perf_counter() - start
    if Path(qrelay.__file__).resolve().parent != SRC / "qrelay":
        print(f"error: imported qrelay from {qrelay.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ideal = scenarios.build_ideal_config()
    default = scenarios.ExperimentConfig()
    ideal_fields = {
        k: getattr(ideal, k) for k in default.__dataclass_fields__ if getattr(ideal, k) != getattr(default, k)
    }
    anchors = wl.anchor_ops(args.seed, ideal_fields)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(qrelay, scenarios),
        "import_in_process_s": import_s,
    }
    try:
        runner = Runner(cli, scenarios, wl, workdir)
        if args.trace:
            metrics = run_traced(runner, wl, tracing, args, details, anchors)
        else:
            runner.run_anchors(anchors)
            metrics = run_untraced(runner, wl, args, details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details["failures"] = runner.failures[:50]
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
