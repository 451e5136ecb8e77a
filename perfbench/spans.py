"""Spans around awsde's public functions, recorded from outside the package.

Each traced boundary is installed by replacing the attribute through which
its caller reaches it (``awsde.schemes.implicit_solve``, or
``PiecewiseTransform.inverse`` on the class), so the package itself is not
edited.  A span holds a name, a start, an end, a parent and one work count;
spans stay in memory until the run ends and are then reduced to the
per-layer metrics.  Calls are single-threaded here (the benchmark runs with
``workers=1``), so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# metric name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER_UNITS = {
    "randomness.sample_increment_block.self_s": "s",
    "randomness.sample_increment_block.calls": "count",
    "randomness.sample_increment_block.rows": "count",
    "randomness.draws_per_path": "rows/path",
    "schemes.simulate_path_block.self_s": "s",
    "schemes.simulate_coupled_block.self_s": "s",
    "schemes.path_steps": "count",
    "schemes.transformed_step.self_s": "s",
    "schemes.implicit_solve.self_s": "s",
    "schemes.implicit_solve.calls": "count",
    "schemes.implicit_solve.elements": "count",
    "transform.inverse.self_s": "s",
    "transform.inverse.calls": "count",
    "transform.inverse.elements": "count",
    "transform.g.self_s": "s",
    "transform.g.calls": "count",
    "transform.g_prime.self_s": "s",
    "transform.g_second.self_s": "s",
    "transform.inverse_per_solve": "calls/solve",
    "transform.transformed_coefficients.self_s": "s",
    "estimator.estimate_aw.self_s": "s",
    "estimator.strong_error_curve.self_s": "s",
    "discrete_bicausal.exact_bicausal_value.self_s": "s",
    "discrete_bicausal.exact_bicausal_value.calls": "count",
    "stopping.snell_value.self_s": "s",
    "stopping.stopping_stability_gap.self_s": "s",
    "cli.run_experiment.self_s": "s",
}


class Tracer:
    """In-memory span recorder with set-up and run phases.

    ``phase`` is ``"setup"``, ``"run"`` or ``None`` (recording off, as while
    the output checks run).  A span is ``[name, start, end, parent, count,
    phase]``; ``count`` is the work measure of the call (rows, elements or
    path-steps), ``parent`` the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase: "str | None" = "setup"
        self.draws: set[tuple[int, int]] = set()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            work = count(*args, **kwargs) if count is not None else 0
            span = [name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, work, self.phase]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return traced

    def install(self) -> None:
        """Replace each traced attribute with its wrapper."""
        import awsde.cli as cli
        import awsde.discrete_bicausal as discrete_bicausal
        import awsde.estimator as estimator
        import awsde.schemes as schemes
        import awsde.stopping as stopping
        from awsde.transform import PiecewiseTransform

        def increment_rows(grid, seed, start, count):
            if self.phase == "run":
                self.draws.update((seed, start + i) for i in range(count))
            return count

        def block_steps(config, grid, seed, start, count):
            return count * grid.steps

        def coupled_steps(config, fine_grid, factors, seed, start, count):
            return count * sum(fine_grid.steps // f for f in dict.fromkeys(factors))

        def solve_elements(y, *args, **kwargs):
            return int(np.size(y))

        def inverse_elements(transform, y):
            return int(np.size(y))

        patches = [
            (schemes, "sample_increment_block", "randomness.sample_increment_block",
             increment_rows),
            (estimator, "simulate_path_block", "schemes.simulate_path_block", block_steps),
            (estimator, "simulate_coupled_block", "schemes.simulate_coupled_block",
             coupled_steps),
            (schemes, "transformed_step", "schemes.transformed_step", None),
            (schemes, "implicit_solve", "schemes.implicit_solve", solve_elements),
            (PiecewiseTransform, "inverse", "transform.inverse", inverse_elements),
            (PiecewiseTransform, "g", "transform.g", None),
            (PiecewiseTransform, "g_prime", "transform.g_prime", None),
            (PiecewiseTransform, "g_second", "transform.g_second", None),
            (schemes, "transformed_coefficients", "transform.transformed_coefficients", None),
            (cli, "estimate_aw", "estimator.estimate_aw", None),
            (cli, "strong_error_curve", "estimator.strong_error_curve", None),
            (discrete_bicausal, "exact_bicausal_value",
             "discrete_bicausal.exact_bicausal_value", None),
            (stopping, "exact_bicausal_value", "discrete_bicausal.exact_bicausal_value", None),
            (stopping, "snell_value", "stopping.snell_value", None),
            (stopping, "stopping_stability_gap", "stopping.stopping_stability_gap", None),
            (cli, "run_experiment", "cli.run_experiment", None),
        ]
        for owner, attr, name, count in patches:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics for one cold execution: set-up plus one average round."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_s: dict[str, float] = {}
        calls: dict[str, float] = {}
        work: dict[str, float] = {}
        inverse_in_solve = 0.0
        for i, (name, start, end, parent, count, phase) in enumerate(self.spans):
            weight = 1.0 if phase == "setup" else 1.0 / rounds
            self_s[name] = self_s.get(name, 0.0) + weight * (end - start - child[i])
            calls[name] = calls.get(name, 0.0) + weight
            work[name] = work.get(name, 0.0) + weight * count
            if name == "transform.inverse" and self._inside(parent, "schemes.implicit_solve"):
                inverse_in_solve += weight

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {}
        for metric in PER_LAYER_UNITS:
            layer, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            elif field == "calls":
                out[metric] = calls.get(layer, 0.0)
            elif field in ("rows", "elements"):
                out[metric] = work.get(layer, 0.0)
        out["randomness.draws_per_path"] = ratio(
            work.get("randomness.sample_increment_block", 0.0), len(self.draws))
        out["schemes.path_steps"] = (work.get("schemes.simulate_path_block", 0.0)
                                     + work.get("schemes.simulate_coupled_block", 0.0))
        out["transform.inverse_per_solve"] = ratio(
            inverse_in_solve, calls.get("schemes.implicit_solve", 0.0))
        return out

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False
