#!/usr/bin/env python3
"""Check that per-layer counts repeat exactly between traced runs.

For each workload, runs `run.py --trace 1` twice on one seed and once on a
second seed.  The two runs on the first seed must report identical counts
(every per-layer metric that is not a time or the tracing overhead); the
second seed's counts are printed beside them to show the workloads are not
tuned to one seed.  Exits 1 if a count differs or a run fails.

    python3 perfbench/repeat_check.py [--seed 1] [--other-seed 2] [--workload fringe ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    counts = {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] != "ms" and name != "trace.overhead_ratio"
    }
    return result["correct"], counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()

    ok = True
    for workload in args.workload:
        correct_a, first = traced_counts(workload, args.seed)
        correct_b, second = traced_counts(workload, args.seed)
        correct_c, other = traced_counts(workload, args.other_seed)
        differing = sorted(k for k in first if first[k] != second.get(k))
        ok &= correct_a and correct_b and correct_c and not differing
        print(f"{workload}: seed {args.seed} twice -> "
              f"{'identical' if not differing else 'DIFFERENT: ' + ', '.join(differing)}; "
              f"all outputs correct: {correct_a and correct_b and correct_c}")
        for name in first:
            print(f"  {name:30s} {first[name]:>12g}  seed {args.other_seed}: {other.get(name, float('nan')):>12g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
