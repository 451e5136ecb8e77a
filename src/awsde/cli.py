"""Command-line front end: ``awsde run <experiment> [options]``.

Each run writes its artifacts plus a ``manifest.json`` (config echo, library
versions, wall time, output list, captured warnings, and a short report) into
the output directory.  Failures are reported as a single JSON object on
stderr with a nonzero exit code so callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from ._instances import random_stopping_instance
from .discrete_bicausal import (
    antitone_first_plan,
    exact_bicausal_value,
    knothe_rosenblatt,
    kr_suboptimal_pair,
    perturbed_start_pair,
    plan_cost,
    power_cost,
)
from .errors import AwsdeError, ConfigurationError
from .estimator import (
    _write_csv,
    estimate_aw,  # noqa: F401  not called here; perfbench/spans.py wraps cli.estimate_aw
    estimate_aw_sweep,
    strong_error_curve,
    write_aw_estimates_csv,
    write_rate_curve_csv,
)
from .models import builtin_model
from .randomness import TimeGrid
from .schemes import SCHEMES, config_from_alias, simulate_path_block
from .stopping import coordinate_payoff, snell_value, stopping_stability_gap
from .transform import build_transform

__all__ = [
    "EXPERIMENTS",
    "MANIFEST_SCHEMA",
    "ExperimentConfig",
    "validate_manifest",
    "run_experiment",
    "main",
]

EXPERIMENTS = (
    "fig_disc",
    "fig_cir",
    "rates",
    "counterexamples",
    "stopping",
    "transform_dump",
)

PRESETS = ("desk", "paper")

_SEED_LIMIT = 2**64


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one run; ``None`` means the experiment's default."""

    experiment: str
    preset: str = "desk"
    seed: int = 7
    out: str = "."
    steps: "int | None" = None
    paths: "int | None" = None
    model: "str | None" = None
    p: "float | None" = None
    scheme: "str | None" = None
    workers: int = 1
    dump_transform: bool = False
    dump_paths: int = 0

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if self.preset not in PRESETS:
            raise ConfigurationError(f"preset must be one of {PRESETS}, got {self.preset!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < _SEED_LIMIT:
            raise ConfigurationError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        for name in ("steps", "paths"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value <= 0):
                raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
        if self.scheme is not None and self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; expected one of {sorted(SCHEMES)}"
            )
        if self.p is not None and not 1.0 <= float(self.p) < math.inf:
            raise ConfigurationError(f"p must be finite and at least 1, got {self.p!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigurationError(f"workers must be a positive integer, got {self.workers!r}")
        if not isinstance(self.dump_paths, int) or self.dump_paths < 0:
            raise ConfigurationError(
                f"dump_paths must be a nonnegative integer, got {self.dump_paths!r}"
            )


# -- manifest ----------------------------------------------------------------

MANIFEST_SCHEMA = {
    "type": "object",
    "required": [
        "experiment",
        "config",
        "versions",
        "wall_time_seconds",
        "outputs",
        "warnings",
        "report",
    ],
    "properties": {
        "experiment": {"type": "string", "enum": list(EXPERIMENTS)},
        "config": {"type": "object"},
        "versions": {
            "type": "object",
            "required": ["awsde", "python", "numpy"],
            "properties": {
                "awsde": {"type": "string"},
                "python": {"type": "string"},
                "numpy": {"type": "string"},
            },
        },
        "wall_time_seconds": {"type": "number"},
        "outputs": {"type": "array", "items": {"type": "string"}},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "report": {"type": "object"},
    },
}

_TYPE_CHECKS: dict[str, Callable[[object], bool]] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def _check_schema(value: object, schema: dict, where: str) -> None:
    expected = schema.get("type")
    if expected is not None and not _TYPE_CHECKS[expected](value):
        raise ConfigurationError(f"manifest{where}: expected {expected}, got {type(value).__name__}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigurationError(f"manifest{where}: {value!r} not in {schema['enum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigurationError(f"manifest{where}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check_schema(value[key], sub, f"{where}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check_schema(item, schema["items"], f"{where}[{i}]")


def validate_manifest(manifest: dict) -> None:
    """Check ``manifest`` against :data:`MANIFEST_SCHEMA`."""
    _check_schema(manifest, MANIFEST_SCHEMA, "")


# -- shared helpers ------------------------------------------------------------

def _fig_scale(config: ExperimentConfig) -> tuple[int, int]:
    if config.preset == "paper":
        steps, paths = 4096, 4096
    else:
        steps, paths = 512, 1024
    if config.steps is not None:
        steps = config.steps
    if config.paths is not None:
        paths = config.paths
    return steps, paths


def _exact(value: Fraction) -> dict:
    return {"fraction": str(Fraction(value)), "float": float(value)}


def _perturbed_start_snell_values() -> list[dict]:
    """Exact sup-payoff Snell values of the perturbed-start pair at eps = 1/10, 3/10."""
    payoff = coordinate_payoff(objective="sup")
    values = []
    for eps in (Fraction(1, 10), Fraction(3, 10)):
        pm, pn = perturbed_start_pair(eps)
        values.append(
            {
                "eps": str(eps),
                "value_perturbed": _exact(snell_value(pm, payoff)),
                "value_unperturbed": _exact(snell_value(pn, payoff)),
                "expected_perturbed": _exact((1 - eps) / 2),
            }
        )
    return values


def _estimate_rows(config, grid, paths, base_spec, perturbed, alias, p):
    """AW estimates of ``base_spec`` against every ``(label, spec)`` in ``perturbed``.

    One sweep: each path is drawn once and its base leg stepped once, and
    every perturbed leg is stepped from the same increments.  Each row is
    what a separate :func:`estimate_aw` call on its pair would give.
    """
    results = estimate_aw_sweep(
        config_from_alias(alias, base_spec),
        [config_from_alias(alias, spec) for _, spec in perturbed],
        p,
        grid,
        paths,
        config.seed,
        workers=config.workers,
    )
    rows, points = [], []
    for (label, _), result in zip(perturbed, results):
        rows.append((label, result.estimate, result.stderr, paths, grid.step, config.seed))
        points.append({"label": label, "estimate": result.estimate, "stderr": result.stderr})
    return rows, points


# -- experiment runners --------------------------------------------------------

def _run_fig_disc(config: ExperimentConfig, out: Path) -> tuple[list[str], dict]:
    steps, paths = _fig_scale(config)
    grid = TimeGrid(1.0, steps)
    p = float(config.p) if config.p is not None else 2.0
    alias = config.scheme or "em"
    base = builtin_model("brownian")
    perturbed = [(k, builtin_model("perturbed_sign", k=float(k))) for k in range(11)]
    rows, points = _estimate_rows(config, grid, paths, base, perturbed, alias, p)
    write_aw_estimates_csv(out / "aw_estimates.csv", rows)
    report = {"p": p, "scheme": alias, "h": grid.step, "paths": paths, "estimates": points}
    return ["aw_estimates.csv"], report


_CIR_PARAMS = (("speed", "kappa"), ("level", "eta"), ("diffusion", "gamma"))
_CIR_DELTAS = (0.1, 0.2, 0.3, 0.4, 0.5)


def _run_fig_cir(config: ExperimentConfig, out: Path) -> tuple[list[str], dict]:
    steps, paths = _fig_scale(config)
    grid = TimeGrid(1.0, steps)
    p = float(config.p) if config.p is not None else 2.0
    alias = config.scheme or "sym-em"
    base = builtin_model("cir")
    perturbed = [
        (d, builtin_model("cir", **{param: 1.0 + d}))
        for _, param in _CIR_PARAMS
        for d in _CIR_DELTAS
    ]
    rows, points = _estimate_rows(config, grid, paths, base, perturbed, alias, p)
    outputs: list[str] = []
    report = {"p": p, "scheme": alias, "h": grid.step, "paths": paths, "curves": {}}
    n = len(_CIR_DELTAS)
    for i, (label, _) in enumerate(_CIR_PARAMS):
        name = f"aw_estimates_{label}.csv"
        write_aw_estimates_csv(out / name, rows[i * n:(i + 1) * n])
        outputs.append(name)
        report["curves"][label] = points[i * n:(i + 1) * n]
    return outputs, report


def _fit_report(fit) -> "dict | None":
    if fit is None:
        return None
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual_rms": fit.residual_rms,
        "full_slope": fit.full_slope,
        "dropped_largest_h": fit.dropped_largest_h,
    }


def _run_rates(config: ExperimentConfig, out: Path) -> tuple[list[str], dict]:
    model = config.model or "cubic"
    alias = config.scheme or "tiem-mono"
    p = float(config.p) if config.p is not None else 2.0
    if config.preset == "paper":
        h_ref, exponents = 2.0**-14, range(6, 12)
    else:
        h_ref, exponents = 2.0**-12, range(5, 10)
    if config.steps is not None:
        h_ref = 1.0 / config.steps
    # Only the preset step sizes coarser than the reference can be measured.
    h_values = [h for h in (2.0**-e for e in exponents) if h > h_ref]
    if len(h_values) < 2:
        raise ConfigurationError(
            f"--steps {config.steps} leaves {len(h_values)} of the preset step sizes "
            f"{[2.0**-e for e in exponents]} coarser than h_ref={h_ref}; a rate needs two"
        )
    paths = config.paths if config.paths is not None else 1024
    curve = strong_error_curve(
        config_from_alias(alias, builtin_model(model), guard_policy="warn"),
        p,
        h_values,
        h_ref,
        paths,
        config.seed,
        workers=config.workers,
    )
    write_rate_curve_csv(out / "rate_curve.csv", curve)
    report = {
        "model": model,
        "scheme": alias,
        "p": p,
        "h_ref": h_ref,
        "paths": paths,
        "fit": _fit_report(curve.fit),
        "fit_sup": _fit_report(curve.fit_sup),
        "fit_int": _fit_report(curve.fit_int),
        "guard_warnings": list(curve.guard_warnings),
    }
    return ["rate_curve.csv"], report


def _run_counterexamples(config: ExperimentConfig, out: Path) -> tuple[list[str], dict]:
    mu, nu = kr_suboptimal_pair()
    quadratic = power_cost(2)
    kr_cost = plan_cost(knothe_rosenblatt(mu, nu), quadratic)
    alt_cost = plan_cost(antitone_first_plan(mu, nu), quadratic)
    optimal, plan = exact_bicausal_value(mu, nu, quadratic)
    two_stage = {
        "cost_power": 2,
        "kr_cost": _exact(kr_cost),
        "alt_cost": _exact(alt_cost),
        "optimal": _exact(optimal),
        "kr_strictly_suboptimal": bool(optimal < kr_cost),
        "marginals_certified": all(plan.certify_marginals(mu, nu).values()),
    }

    perturbed = []
    for eps in (Fraction(1, 10), Fraction(1, 2)):
        for p in (1, 2):
            pm, pn = perturbed_start_pair(eps)
            value, _ = exact_bicausal_value(pm, pn, power_cost(p))
            expected = eps**p + Fraction(2) ** (p - 1)
            perturbed.append(
                {
                    "eps": str(eps),
                    "p": p,
                    "value": _exact(value),
                    "expected": _exact(expected),
                    "match": bool(value == expected),
                }
            )

    report = {
        "two_stage": two_stage,
        "perturbed_start": perturbed,
        "stopping_values": _perturbed_start_snell_values(),
    }
    (out / "counterexamples.json").write_text(json.dumps(report, indent=2) + "\n")
    return ["counterexamples.json"], report


def _run_stopping(config: ExperimentConfig, out: Path) -> tuple[list[str], dict]:
    count = config.paths if config.paths is not None else (
        400 if config.preset == "paper" else 100
    )
    rng = random.Random(config.seed)
    rows = []
    all_hold = True
    for index in range(count):
        mu, nu, payoff, p = random_stopping_instance(rng)
        lhs, rhs = stopping_stability_gap(mu, nu, payoff, p)
        holds = bool(lhs <= rhs + 1e-9)
        all_hold = all_hold and holds
        rows.append(
            {
                "instance": index,
                "p": p,
                "objective": payoff.objective,
                "lhs": lhs,
                "rhs": rhs,
                "holds": holds,
            }
        )
    exact = _perturbed_start_snell_values()
    report = {"instances": count, "all_hold": all_hold, "exact_examples": exact, "sweep": rows}
    (out / "stopping.json").write_text(json.dumps(report, indent=2) + "\n")
    return ["stopping.json"], report


def _transform_csv(config: ExperimentConfig) -> tuple[Callable[[Path], str], dict]:
    """Build ``G`` for ``--model``; return a call that writes ``transform.csv`` and the report."""
    model = config.model or "sign_drift"
    transform = build_transform(builtin_model(model))
    if transform.breakpoints:
        lo = min(transform.breakpoints) - 2.0
        hi = max(transform.breakpoints) + 2.0
    else:
        lo, hi = -2.0, 2.0
    xs = np.linspace(lo, hi, 2001)
    info = {
        "model": model,
        "breakpoints": [float(b) for b in transform.breakpoints],
        "alphas": [float(a) for a in transform.alphas],
        "c0": float(transform.c0),
        "lipschitz_bound": float(transform.lipschitz_bound),
        "rows": int(xs.size),
    }

    def write(out: Path) -> str:
        rows = zip(xs, np.asarray(transform.g(xs)), np.asarray(transform.g_prime(xs)),
                   np.asarray(transform.g_second(xs)), np.asarray(transform.inverse(xs)))
        _write_csv(out / "transform.csv", ["x", "g", "g_prime", "g_second", "g_inverse"], rows)
        return "transform.csv"

    return write, info


def _run_transform_dump(config: ExperimentConfig, out: Path) -> tuple[list[str], dict]:
    write, info = _transform_csv(config)
    return [write(out)], info


def _paths_csv(config: ExperimentConfig) -> Callable[[Path], str]:
    """Build the ``--dump-paths`` stepper; return a call that writes ``paths.csv``."""
    model = config.model or "brownian"
    alias = config.scheme or "em"
    steps, _ = _fig_scale(config)
    grid = TimeGrid(1.0, steps)
    stepper = config_from_alias(alias, builtin_model(model), guard_policy="warn")

    def write(out: Path) -> str:
        block = simulate_path_block(stepper, grid, config.seed, 0, config.dump_paths)
        h = grid.step
        rows = [
            (index, k, k * h, block[index, k])
            for index in range(block.shape[0])
            for k in range(block.shape[1])
        ]
        _write_csv(out / "paths.csv", ["path_index", "k", "t", "value"], rows)
        return "paths.csv"

    return write


_RUNNERS = {
    "fig_disc": _run_fig_disc,
    "fig_cir": _run_fig_cir,
    "rates": _run_rates,
    "counterexamples": _run_counterexamples,
    "stopping": _run_stopping,
    "transform_dump": _run_transform_dump,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one experiment, write its artifacts and manifest, return the manifest."""
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # The extras are built before anything is written, so a combination
        # that they refuse fails without leaving a directory behind.
        extras: list[Callable[[Path], str]] = []
        if config.dump_transform and config.experiment != "transform_dump":
            extras.append(_transform_csv(config)[0])
        if config.dump_paths:
            extras.append(_paths_csv(config))
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        outputs, report = _RUNNERS[config.experiment](config, out)
        outputs.extend(write(out) for write in extras)
    manifest = {
        "experiment": config.experiment,
        "config": asdict(config),
        "versions": {
            "awsde": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_seconds": time.perf_counter() - started,
        "outputs": outputs,
        "warnings": sorted({str(w.message) for w in caught}),
        "report": report,
    }
    validate_manifest(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


# -- argument handling ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awsde",
        description="Adapted-distance experiments for one-dimensional diffusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment and write its artifacts")
    run.add_argument("experiment", nargs="?", choices=EXPERIMENTS,
                     help="experiment to run (may instead come from --config)")
    run.add_argument("--preset", choices=PRESETS, default=None,
                     help="resolution preset (default desk)")
    run.add_argument("--seed", type=int, default=None, help="root seed (default 7)")
    run.add_argument("--out", default=None, help="output directory (default .)")
    run.add_argument("--steps", type=int, default=None,
                     help="time steps on [0, 1]; for rates this sets the reference grid")
    run.add_argument("--paths", type=int, default=None,
                     help="Monte Carlo paths (for stopping: instance count)")
    run.add_argument("--model", default=None, help="builtin model name where applicable")
    run.add_argument("--p", type=float, default=None, help="cost exponent")
    run.add_argument("--scheme", choices=sorted(SCHEMES), default=None,
                     help="discretisation scheme where applicable")
    run.add_argument("--workers", type=int, default=None,
                     help="worker threads (results are identical for any count)")
    run.add_argument("--config", default=None, metavar="PATH",
                     help="JSON file with the same fields; explicit flags override it")
    run.add_argument("--dump-transform", action="store_true", default=None,
                     help="also write the state-space transform as transform.csv")
    run.add_argument("--dump-paths", type=int, default=None, metavar="N",
                     help="also write the first N simulated paths as paths.csv")
    return parser


_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    merged: dict = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(_CONFIG_FIELDS))
        if unknown:
            raise ConfigurationError(f"unknown config fields: {unknown}")
        merged.update(loaded)
    for name in _CONFIG_FIELDS:
        value = getattr(args, name.replace("-", "_"))
        if value is not None:
            merged[name] = value
    if merged.get("experiment") is None:
        raise ConfigurationError("no experiment given (positional argument or config file)")
    if merged.get("dump_transform") is None:
        merged["dump_transform"] = False
    try:
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigurationError(f"invalid configuration: {exc}") from exc


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        manifest = run_experiment(config)
    except AwsdeError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    summary = {
        "experiment": config.experiment,
        "out": str(Path(config.out)),
        "outputs": manifest["outputs"],
        "warnings": manifest["warnings"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
