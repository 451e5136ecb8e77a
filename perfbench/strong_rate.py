"""Workload ``strong_rate``: the ``rates`` experiment with ``tiem-mono``.

The transformed semi-implicit scheme with truncated increments on
``sign_drift`` (discontinuous drift, so the bump transform does work) and on
``cubic`` (``G`` is the identity, so the implicit solve does the work), at a
reference grid of 2^-10 and 128 paths: criterion 05 in miniature.  A few
reference-grid paths are recomputed step by step with a scalar bisection
built from the models' closed-form coefficients.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

MODELS = ("sign_drift", "cubic")
STEPS = 1024
PATHS = 128
P = 2.0
SLOPE_BAND = (0.35, 0.75)
ORACLE_PATHS = 3
# Admits the x-space step (paths moved by at most 1.7e-10); a path off by
# 1e-6 anywhere is rejected.
PATH_TOLERANCE = 1e-8


class StrongRate:
    ops_per_round = len(MODELS)

    def __init__(self, seed: int, out: Path) -> None:
        from awsde import builtin_model, config_from_alias
        from awsde.cli import ExperimentConfig

        self.seed = seed
        self.out = out
        self.configs = {
            model: ExperimentConfig(
                "rates", seed=seed, out=str(out / model), model=model, scheme="tiem-mono",
                steps=STEPS, paths=PATHS, p=P, workers=1,
            )
            for model in MODELS
        }
        # Built here, with the probe of transformed_coefficients, for the path check.
        self.steppers = {
            model: config_from_alias("tiem-mono", builtin_model(model), guard_policy="warn")
            for model in MODELS
        }
        self.model_seconds: dict[str, list[float]] = {model: [] for model in MODELS}

    def round(self) -> dict:
        import awsde.cli

        outputs = {}
        for model in MODELS:
            started = time.perf_counter()
            awsde.cli.run_experiment(self.configs[model])
            self.model_seconds[model].append(time.perf_counter() - started)
            folder = self.out / model
            with open(folder / "rate_curve.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
            report = json.loads((folder / "manifest.json").read_text())["report"]
            outputs[model] = {
                "h": [float(r["h"]) for r in rows],
                "err_sup": [float(r["err_sup"]) for r in rows],
                "err_int": [float(r["err_int"]) for r in rows],
                "slope": report["fit"]["slope"] if report["fit"] else float("nan"),
            }
        return outputs

    def references(self, outputs: dict) -> dict:
        from awsde import TimeGrid, simulate_path_block

        grid = TimeGrid(1.0, STEPS)
        refs = {}
        for model in MODELS:
            # program outputs too, but simulated here, outside the timed rounds
            simulated = simulate_path_block(self.steppers[model], grid, self.seed, 0, ORACLE_PATHS)
            outputs[model]["paths"] = simulated.tolist()
            refs[model] = [oracle_path(model, self.seed, i) for i in range(ORACLE_PATHS)]
        return refs

    @staticmethod
    def check(outputs: dict, refs: dict) -> dict[str, list[str]]:
        failures: dict[str, list[str]] = {
            "finite": [], "decreasing_in_h": [], "slope_band": [], "oracle_paths": [],
        }
        for model in MODELS:
            out = outputs[model]
            errors = out["err_sup"] + out["err_int"]
            if not all(math.isfinite(e) for e in errors):
                failures["finite"].append(f"{model}: non-finite error in {errors}")
            if out["h"] != sorted(out["h"], reverse=True):
                failures["decreasing_in_h"].append(f"{model}: h values {out['h']} not decreasing")
            # the headline errors, the pointwise larger norm that the slope is fitted to
            headline = [max(s, i) for s, i in zip(out["err_sup"], out["err_int"])]
            if not all(a > b for a, b in zip(headline, headline[1:])):
                failures["decreasing_in_h"].append(f"{model}: errors {headline} do not decrease")
            lo, hi = SLOPE_BAND
            if not lo <= out["slope"] <= hi:
                failures["slope_band"].append(f"{model}: slope {out['slope']!r} outside {SLOPE_BAND}")
            got, want = np.asarray(out["paths"]), np.asarray(refs[model])
            gap = np.abs(got - want) / (1.0 + np.abs(want))
            if not gap.max() <= PATH_TOLERANCE:
                i, n = np.unravel_index(int(np.argmax(gap)), gap.shape)
                failures["oracle_paths"].append(
                    f"{model}: path {i} step {n}: {got[i, n]!r} vs oracle {want[i, n]!r}")
        return failures

    @staticmethod
    def mutations(outputs: dict, refs: dict) -> list:
        def non_finite(o):
            o["cubic"]["err_int"][0] = float("nan")

        def rising(o):
            out = o["sign_drift"]
            out["err_sup"][2] = out["err_int"][2] = 1.01 * max(out["err_sup"][1], out["err_int"][1])

        def steep(o):
            o["cubic"]["slope"] = 0.9

        def shifted_path(o):
            o["sign_drift"]["paths"][1][STEPS // 2] += 1e-6

        return [("finite", non_finite), ("decreasing_in_h", rising),
                ("slope_band", steep), ("oracle_paths", shifted_path)]


# ---------------------------------------------------------------------------
# scalar oracle
# ---------------------------------------------------------------------------

# sign_drift: b = 2.5 below 1, -1.5 at and above 1, sigma = |x|.  The jump
# coefficient is alpha = (b(1-) - b(1+)) / (2 sigma(1)^2) = 2 and the bump
# radius c0 = 1 / (12 alpha) = 1/24.
XI, ALPHA, C0 = 1.0, 2.0, 1.0 / 24.0


def _bump(x: float) -> tuple[float, float, float]:
    """``G``, ``G'``, ``G''`` of the sign_drift transform, right limit at the jump."""
    s = x - XI
    if abs(s) >= C0:
        return x, 1.0, 0.0
    u = abs(s) / C0
    w = 1.0 - u * u
    sign = 1.0 if s >= 0.0 else -1.0
    g = x + ALPHA * sign * C0 * C0 * u * u * w**3
    g1 = 1.0 + ALPHA * C0 * 2.0 * u * w * w * (1.0 - 4.0 * u * u)
    g2 = ALPHA * sign * 2.0 * w * (1.0 - 17.0 * u * u + 28.0 * u**4)
    return g, g1, g2


def _model(model: str):
    """``(x0, x -> (G, G', G''), drift, diffusion)`` from the closed forms."""
    if model == "sign_drift":
        return 0.5, _bump, (lambda x: -1.5 if x >= 1.0 else 2.5), abs
    return 1.0, (lambda x: (x, 1.0, 0.0)), (lambda x: -x**3), (lambda x: 1.0)


def _bisect(f, guess: float) -> float:
    """Root of an increasing ``f`` by bracket doubling and bisection to adjacent floats."""
    width = 1.0
    lo, hi = guess - width, guess + width
    while f(lo) > 0.0:
        width *= 2.0
        lo = guess - width
    while f(hi) < 0.0:
        width *= 2.0
        hi = guess + width
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo if -f(lo) < f(hi) else hi
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def oracle_path(model: str, seed: int, index: int) -> list[float]:
    """One tiem-mono path in x-space, with no awsde root-finder or inverse.

    Each step solves ``G(x') - h (b G' + sigma^2 G'' / 2)(x') = G(x) +
    sigma(x) G'(x) dW`` for ``x'``, which is the transformed step written
    without ``G^{-1}``.  The increments are the package's documented stream:
    Philox keyed by ``(seed, path_index)``, scaled by ``sqrt(h)``, clipped at
    ``a_h = 4 sqrt(h log(1/h))``.
    """
    x, transform, drift, diffusion = _model(model)
    h = 1.0 / STEPS
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    a_h = 4.0 * math.sqrt(h * math.log(1.0 / h))
    increments = np.clip(gen.standard_normal(STEPS) * math.sqrt(h), -a_h, a_h)
    path = [x]
    for dw in increments.tolist():
        g, g1, _ = transform(x)
        rhs = g + diffusion(x) * g1 * dw

        def residual(z: float) -> float:
            gz, gz1, gz2 = transform(z)
            sz = diffusion(z)
            return gz - h * (drift(z) * gz1 + 0.5 * sz * sz * gz2) - rhs

        x = _bisect(residual, x + diffusion(x) * dw)
        path.append(x)
    return path
