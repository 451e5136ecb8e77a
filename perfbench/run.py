"""End-to-end and per-layer benchmark of awsde.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload aw_sweep --seed 1 --seconds 30 --trace 0

One process runs one workload.  Set-up (importing awsde, building the
workload's specs, stepper configs and inputs) is timed once, cold, from the
start of the process.  The workload's job then runs in whole rounds, the same
job each round, until the next round would end after ``--seconds``; a round
always runs at least once.  While the rounds run, ``calibration.Gauge`` times
a short fixed job every 50 ms; ``run_s`` and ``cpu_s`` are the median over
rounds of each round's wall and CPU time, less the gauge's jobs, scaled to
the reference speed by the mean time of the jobs that ran inside the round.
On a shared machine whose speed swings by half within a run, that ratio
varies far less from run to run than any raw time (see README.md).
Outputs are checked after the timed rounds, and each check is then fed a
deliberately wrong output that it must reject.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record,
with the SHA-256 of every artifact the run wrote, goes to
``perfbench/out/runs/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def process_age() -> float:
    """Seconds since this process started (the kernel's start time, 10 ms ticks)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def workloads() -> dict:
    from aw_sweep import AwSweep
    from exact_trees import ExactTrees
    from strong_rate import StrongRate

    return {"aw_sweep": AwSweep, "strong_rate": StrongRate, "exact_trees": ExactTrees}


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("aw_sweep", "strong_rate", "exact_trees"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def self_test(workload, outputs: dict, refs: dict) -> dict[str, bool]:
    """Feed each check a wrong output; True where the check rejects it."""
    rejected = {}
    for name, mutate in workload.mutations(outputs, refs):
        wrong = copy.deepcopy(outputs)
        mutate(wrong)
        rejected[name] = bool(workload.check(wrong, refs)[name])
    return rejected


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "awsde" / "__init__.py").is_file():
        print(f"no awsde sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # -- set-up, timed from the start of the process ----------------------------
    import awsde  # noqa: F401

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    artifacts = OUT / args.workload / "artifacts"
    shutil.rmtree(artifacts, ignore_errors=True)
    artifacts.mkdir(parents=True)
    workload = workloads()[args.workload](args.seed, artifacts)
    setup_s = process_age()

    # -- timed rounds -----------------------------------------------------------
    from awsde import AwsdeError
    from calibration import Gauge

    if tracer:
        tracer.phase = "run"
    # (start, wall, cpu) of each round
    rounds: list[tuple[float, float, float]] = []
    errors: list[str] = []
    outputs = None
    # the gauge's handler would land inside the spans, so traced runs go without it
    gauge = Gauge()
    with gauge if not tracer else contextlib.nullcontext():
        started = time.perf_counter()
        while True:
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                result = workload.round()
            except AwsdeError as exc:
                result = None
                errors.append(f"{type(exc).__name__}: {exc}")
            rounds.append((wall, time.perf_counter() - wall, time.process_time() - cpu))
            if outputs is None:
                outputs = result
            if time.perf_counter() - started + rounds[-1][1] > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.phase = None

    # -- checks, outside the timed span -----------------------------------------
    attempted = workload.ops_per_round * len(rounds)
    failed = workload.ops_per_round * len(errors)
    failures: dict[str, list[str]] = {}
    rejected: dict[str, bool] = {}
    if outputs is not None:
        if hasattr(workload, "write_artifacts"):
            workload.write_artifacts(outputs)
        refs = workload.references(outputs)
        failures = workload.check(outputs, refs)
        rejected = self_test(workload, outputs, refs)
    correct = not any(failures.values())

    # each round's times at the reference speed, gauged inside the round
    scaled = [gauge.scaled(*r) for r in rounds]
    run_s = statistics.median(w for w, _ in scaled)
    cpu_s = statistics.median(c for _, c in scaled)
    end_to_end = {"run_s": run_s, "cpu_s": cpu_s, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
    if tracer:
        from spans import PER_LAYER_UNITS

        values = tracer.per_layer(len(rounds))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": [{"start_s": t - started, "wall_s": w, "cpu_s": c,
                    "scaled_wall_s": sw, "scaled_cpu_s": sc}
                   for (t, w, c), (sw, sc) in zip(rounds, scaled)],
        "gauge": [{"start_s": t - started, "wall_s": w, "cpu_s": c}
                  for t, w, c in gauge.samples],
        "end_to_end": end_to_end,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "check_failures": failures,
        "self_test_rejected": rejected,
        "artifacts": {str(p.relative_to(artifacts)): sha256(p)
                      for p in sorted(artifacts.rglob("*")) if p.is_file()},
    }
    if hasattr(workload, "model_seconds"):
        record["model_seconds"] = workload.model_seconds
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record_path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for name, messages in failures.items():
        for message in messages:
            print(f"check {name} failed: {message}", file=sys.stderr)
    missed = sorted(name for name, ok in rejected.items() if not ok)
    if missed:
        print(f"self-test: checks {missed} accepted a wrong output", file=sys.stderr)
        return 1
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
