"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads aw_sweep strong_rate exact_trees \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 --trace 0 --label set1

Runs are sequential, one process each.  Every run's result line is appended
to ``perfbench/out/spread-<label>.jsonl``; the summary gives, per workload and
metric, the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread ``(q3 - q1) / median``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(lines: list[dict]) -> list[str]:
    rows = []
    for workload in dict.fromkeys(line["workload"] for line in lines):
        runs = [line for line in lines if line["workload"] == workload]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        rows.append(f"{workload}: {len(runs)} runs, correct={correct}, "
                    f"failed {failed} of {attempted}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            rows.append(f"  {metric:48s} median {median:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                        f"spread {spread:.3f}")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    log = HERE / "out" / f"spread-{args.label}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for workload in args.workloads:
        for seed in args.seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            line = json.loads(done.stdout.strip().splitlines()[-1])
            line.update(workload=workload, seed=seed)
            lines.append(line)
            with open(log, "a") as handle:
                handle.write(json.dumps(line) + "\n")
    print("\n".join(summarise(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
