"""Workload ``aw_sweep``: the ``fig_disc`` experiment on one block of paths.

Brownian motion against ``perturbed_sign`` for k = 0..10 under the
synchronous coupling, explicit Euler-Maruyama, p = 2, 512 steps on [0, 1],
256 paths (one block; a round takes about 0.5 s).
The outputs are checked against a closed-form bound and against an
independent numpy simulation of the same pairs.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

PATHS = 256
STEPS = 512
P = 2.0
KS = tuple(range(11))
# The independent simulation uses more paths, so its own error stays small.
REFERENCE_PATHS = 4096
# Agreement with the independent simulation, in combined standard errors.
REFERENCE_SIGMAS = 5.0


class AwSweep:
    ops_per_round = len(KS)

    def __init__(self, seed: int, out: Path) -> None:
        from awsde.cli import ExperimentConfig

        self.seed = seed
        self.out = out
        self.config = ExperimentConfig(
            "fig_disc", seed=seed, out=str(out), steps=STEPS, paths=PATHS, p=P,
            scheme="em", workers=1,
        )

    def round(self) -> dict:
        import awsde.cli

        awsde.cli.run_experiment(self.config)
        with open(self.out / "aw_estimates.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        return {
            "k": [int(float(r["k_or_delta"])) for r in rows],
            "estimate": [float(r["estimate"]) for r in rows],
            "stderr": [float(r["stderr"]) for r in rows],
        }

    def references(self, outputs: dict) -> dict:
        estimate, stderr = em_reference(self.seed, REFERENCE_PATHS, STEPS, P, KS)
        return {"bound": [closed_form_bound(k, STEPS) for k in KS],
                "estimate": estimate, "stderr": stderr}

    @staticmethod
    def check(outputs: dict, refs: dict) -> dict[str, list[str]]:
        est, se = outputs["estimate"], outputs["stderr"]
        failures: dict[str, list[str]] = {
            "layout": [], "zero_at_k0": [], "closed_form_bound": [],
            "nondecreasing_in_k": [], "independent_simulation": [],
        }
        if outputs["k"] != list(KS):
            failures["layout"].append(f"rows are k={outputs['k']}, expected {list(KS)}")
            return failures
        if est[0] != 0.0 or se[0] != 0.0:
            failures["zero_at_k0"].append(f"k=0 gives {est[0]!r} +- {se[0]!r}, expected exactly 0")
        for k in KS:
            if not est[k] <= refs["bound"][k] * (1.0 + 1e-12):
                failures["closed_form_bound"].append(
                    f"k={k}: estimate {est[k]!r} exceeds the bound {refs['bound'][k]!r}")
        for k in KS[:-1]:
            slack = math.hypot(se[k], se[k + 1])
            if est[k + 1] < est[k] - slack:
                failures["nondecreasing_in_k"].append(
                    f"k={k + 1}: {est[k + 1]!r} < {est[k]!r} - {slack!r}")
        h = 1.0 / STEPS
        for k in KS:
            # the last term admits the O(h) change of quadrature convention
            allowed = (REFERENCE_SIGMAS * math.hypot(se[k], refs["stderr"][k])
                       + h * (k / 10.0) ** P)
            if not abs(est[k] - refs["estimate"][k]) <= allowed:
                failures["independent_simulation"].append(
                    f"k={k}: {est[k]!r} vs reference {refs['estimate'][k]!r}, allowed {allowed!r}")
        return failures

    @staticmethod
    def mutations(outputs: dict, refs: dict) -> list:
        def missing_row(o):
            o["k"].pop()

        def nonzero_k0(o):
            o["estimate"][0] = 1e-6

        def above_bound(o):
            o["estimate"][10] = refs["bound"][10] * 1.01

        def swapped(o):
            o["estimate"][5], o["estimate"][6] = o["estimate"][6], o["estimate"][5]

        def shifted(o):
            o["estimate"][5] += 10.0 * math.hypot(o["stderr"][5], refs["stderr"][5]) + 1.0 / STEPS

        return [("layout", missing_row), ("zero_at_k0", nonzero_k0), ("closed_form_bound", above_bound),
                ("nondecreasing_in_k", swapped), ("independent_simulation", shifted)]


def closed_form_bound(k: int, steps: int) -> float:
    """``h * sum_{n=0..N} ((k/10) t_n)^2`` in closed form.

    Under the synchronous coupling the two EM legs differ only by the drift
    ``+-k/10``, so ``|X_n - Y_n| <= (k/10) t_n``.  Dropping the last node or
    halving the end nodes (left-point or trapezoid sums) only lowers the sum.
    """
    h = 1.0 / steps
    n = steps
    return (k / 10.0) ** 2 * h**3 * n * (n + 1) * (2 * n + 1) / 6.0


def em_reference(seed: int, paths: int, steps: int, p: float, ks) -> tuple[list, list]:
    """The same estimator from numpy alone, on a PCG64 stream unrelated to awsde's Philox."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5EED])))
    h = 1.0 / steps
    dw = rng.standard_normal((paths, steps)) * math.sqrt(h)
    x = np.concatenate([np.zeros((paths, 1)), np.cumsum(dw, axis=1)], axis=1)
    estimates, stderrs = [], []
    for k in ks:
        y = np.zeros(paths)
        total = np.abs(x[:, 0] - y) ** p
        for n in range(steps):
            y = y + (k / 10.0) * np.where(y >= 0.0, 1.0, -1.0) * h + dw[:, n]
            total += np.abs(x[:, n + 1] - y) ** p
        per_path = h * total
        estimates.append(float(per_path.mean()))
        stderrs.append(float(per_path.std(ddof=1) / math.sqrt(paths)))
    return estimates, stderrs
