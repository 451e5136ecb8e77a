"""Monte Carlo estimation of adapted distances between scalar SDE laws.

The adapted (bicausal) transport value between two SDE laws is attained by the
synchronous coupling: drive both equations with the same Brownian motion and
integrate the stage cost along the pair.  The estimator averages the
h-weighted Riemann sum ``h * sum_{k=0..N} c(t_k, X_k, Y_k)`` over paths; for
the power cost this estimates the p-th power of the adapted distance.

One draw per block, every leg stepped from it: a sweep of one base law
against several others (:func:`estimate_aw_sweep`) draws each 256-path
block's increments once, steps the base leg once, then steps, reduces and
drops each other leg in turn from the same increments.  A single pair
(:func:`estimate_vc`, :func:`estimate_aw`) is the one-leg case of that loop,
so a pair's estimate is the same whether it is computed alone or in a sweep.

Also here: the strong-error convergence harness (coupled coarse/fine grids
against a fine-step reference), empirical sup-moment tables, and the search
for a one-step monotonicity counterexample of the truncated scheme when the
diffusion is not Lipschitz.

All estimates are deterministic functions of ``(seed, path count)``: each
Monte Carlo estimate maps one function over fixed 256-path blocks, each block
returns its own reductions, and they are joined in block order after the map,
so the worker count never changes a single bit of the output.
"""

from __future__ import annotations

import csv
import math
import warnings as _warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import AssumptionError, ConfigurationError
from .models import CoefficientSpec
from .randomness import TimeGrid, truncation_level
from .schemes import (
    StepperConfig,
    _check_guards,
    simulate_coupled_block,
    simulate_path_block,
    simulate_synchronous_block,
)

__all__ = [
    "BLOCK_PATHS",
    "EstimateResult",
    "RateCurve",
    "SlopeFit",
    "MomentRow",
    "MonotonicityWitness",
    "power_time_cost",
    "estimate_vc",
    "estimate_aw",
    "estimate_aw_sweep",
    "strong_error_curve",
    "moment_diagnostic",
    "one_step_cdf",
    "monotonicity_witness",
    "write_aw_estimates_csv",
    "write_rate_curve_csv",
]

Array = np.ndarray
T = TypeVar("T")

#: paths per work unit; estimates never depend on how blocks are scheduled
BLOCK_PATHS = 256

#: errors below this are rounding noise of the coupled simulation, not signal
FIT_FLOOR = 1e-13


def power_time_cost(p: float) -> Callable[[Array, Array, Array], Array]:
    """Vectorised stage cost ``c(t, x, y) = |x - y|^p``."""
    if not 1 <= p < math.inf:
        raise ConfigurationError(f"power cost needs a finite p >= 1, got {p}")

    def cost(t: Array, x: Array, y: Array) -> Array:
        return np.abs(x - y) ** p

    return cost


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """A Monte Carlo estimate with its sampling error.

    ``stderr`` is the sample standard deviation over per-path integrals
    divided by ``sqrt(paths)`` (``nan`` for a single path).  ``extra`` carries
    the seed, the two legs' scheme names (``extra["schemes"]``, such as
    ``("em", "em")``), any optimality caveats and the guard violations.
    """

    estimate: float
    stderr: float
    paths: int
    grid: TimeGrid
    extra: Mapping[str, object] = field(default_factory=dict)


def _map_blocks(paths: int, workers: int, work: Callable[[int, int], T]) -> list[T]:
    """``work(start, count)`` for each 256-path block, the results in block order."""
    if not isinstance(workers, int) or workers < 1:
        raise ConfigurationError(f"workers must be a positive integer, got {workers!r}")
    starts = range(0, paths, BLOCK_PATHS)
    counts = [min(BLOCK_PATHS, paths - start) for start in starts]
    if workers == 1 or len(starts) == 1:
        return list(map(work, starts, counts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, starts, counts))


def _coverage_notes(*specs: CoefficientSpec) -> list[str]:
    notes = [f"model {spec.name!r}: {message}; optimality not certified"
             for spec in specs for message in spec.warnings]
    for message in notes:
        # attributed to the caller of the public entry above _synchronous_estimates
        _warnings.warn(message, RuntimeWarning, stacklevel=4)
    return notes


def _synchronous_estimates(
    base: StepperConfig,
    others: Sequence[StepperConfig],
    cost: Callable[[Array, Array, Array], Array],
    grid: TimeGrid,
    paths: int,
    seed: int,
    workers: int,
) -> tuple[EstimateResult, ...]:
    """Transport estimates of ``base`` against each of ``others``, from one draw per block.

    Each block's increments are drawn once and the base leg is stepped once;
    every other leg is then stepped from the same increments, reduced to its
    per-path sums and dropped before the next one is stepped.  Result ``i`` is
    bit for bit what a block loop over the pair ``(base, others[i])`` alone
    gives.
    """
    if not isinstance(paths, int) or paths < 1:
        raise ConfigurationError(f"paths must be a positive integer, got {paths!r}")
    others = tuple(others)
    notes = []
    for other in others:
        # a loop, not a comprehension, so the warnings' stacklevel holds
        notes.append(_coverage_notes(base.spec, other.spec))
    t_row = grid.times()[None, :]
    h = grid.step

    def work(start: int, count: int) -> Array:
        sums = np.empty((len(others), count), dtype=np.float64)
        legs = simulate_synchronous_block((base, *others), grid, seed, start, count)
        x = next(legs)
        for row, y in zip(sums, legs):
            c = np.asarray(cost(t_row, x, y), dtype=np.float64)
            row[:] = h * c.sum(axis=1)
            # release this leg before the generator steps the next one
            del y, c
        return sums

    per_path = np.concatenate(_map_blocks(paths, workers, work), axis=1)
    results = []
    for other, sums, other_notes in zip(others, per_path, notes):
        estimate = float(np.mean(sums))
        stderr = float(np.std(sums, ddof=1) / math.sqrt(paths)) if paths > 1 else float("nan")
        extra = {
            "seed": seed,
            "schemes": (base.scheme, other.scheme),
            "warnings": tuple(other_notes),
            "guard_warnings": _check_guards((base, other), (grid,)),
        }
        results.append(
            EstimateResult(estimate=estimate, stderr=stderr, paths=paths, grid=grid, extra=extra)
        )
    return tuple(results)


def _pair(schemes: Sequence[StepperConfig]) -> tuple[StepperConfig, StepperConfig]:
    legs = tuple(schemes)
    if len(legs) != 2:
        raise ConfigurationError(f"schemes must be the two legs (mu, nu), got {len(legs)} configs")
    return legs


def _with_aw(results: tuple[EstimateResult, ...], p: float) -> tuple[EstimateResult, ...]:
    """``results`` with ``p`` and the p-th root of each estimate added to ``extra``."""
    return tuple(
        replace(r, extra={
            **r.extra,
            "p": float(p),
            "aw": r.estimate ** (1.0 / float(p)) if r.estimate > 0.0 else 0.0,
        })
        for r in results
    )


def estimate_vc(
    schemes: "tuple[StepperConfig, StepperConfig]",
    cost: Callable[[Array, Array, Array], Array],
    grid: TimeGrid,
    paths: int,
    seed: int,
    workers: int = 1,
) -> EstimateResult:
    """Estimate the synchronous-coupling transport value between two SDE laws.

    ``schemes`` holds the two legs ``(mu, nu)``, each a
    :class:`~awsde.schemes.StepperConfig` with its own coefficient spec.  Both
    legs of every sample are driven by the same increment stream (the
    synchronous coupling); each path contributes ``h * sum_{k=0}^{N} c(t_k,
    X_k, Y_k)``: all ``N + 1`` grid nodes, ``t_0 = 0`` and ``t_N = T``
    included, are weighted by ``h``.  When both legs start at one point and
    the cost vanishes on the diagonal (the power cost does), the ``t_0`` term
    is 0 and this is the right-point rule for the time integral of the stage
    cost.

    ``cost`` must be vectorised over ``(t, x, y)`` arrays.  Identical specs
    with identical schemes give exactly zero with zero variance.
    """
    config_mu, config_nu = _pair(schemes)
    return _synchronous_estimates(config_mu, (config_nu,), cost, grid, paths, seed, workers)[0]


def estimate_aw_sweep(
    base: StepperConfig,
    others: Sequence[StepperConfig],
    p: float,
    grid: TimeGrid,
    paths: int,
    seed: int,
    workers: int = 1,
) -> tuple[EstimateResult, ...]:
    """Adapted distance estimates of one base law against several others.

    Result ``i`` equals ``estimate_aw((base, others[i]), p, grid, paths,
    seed, workers)`` bit for bit, ``extra`` included.  Every path is drawn
    once and its base leg stepped once for the whole sweep, rather than once
    per pair.
    """
    cost = power_time_cost(p)
    return _with_aw(_synchronous_estimates(base, others, cost, grid, paths, seed, workers), p)


def estimate_aw(
    schemes: "tuple[StepperConfig, StepperConfig]",
    p: float,
    grid: TimeGrid,
    paths: int,
    seed: int,
    workers: int = 1,
) -> EstimateResult:
    """Adapted distance estimate under the stagewise power cost.

    ``schemes`` holds the two legs ``(mu, nu)``, as for :func:`estimate_vc`.
    ``estimate`` (and ``stderr``) refer to the p-th power of the distance,
    which is what the Monte Carlo sum targets; ``extra["aw"]`` holds the p-th
    root of the point estimate.  This is the one-leg case of
    :func:`estimate_aw_sweep`.
    """
    config_mu, config_nu = _pair(schemes)
    cost = power_time_cost(p)
    results = _synchronous_estimates(config_mu, (config_nu,), cost, grid, paths, seed, workers)
    return _with_aw(results, p)[0]


# ---------------------------------------------------------------------------
# strong-error convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of ``log error`` against ``log h``.

    The full fit uses every point.  If the largest-h residual exceeds three
    times the full fit's RMS, that point is treated as pre-asymptotic and the
    headline ``slope`` comes from the refit without it; both fits are kept.
    A residual can only clear that bar on curves of ten or more points (it is
    capped at sqrt(n) RMS), so short diagnostic curves always keep every
    point.
    """

    slope: float
    intercept: float
    residual_rms: float
    full_slope: float
    full_intercept: float
    full_residual_rms: float
    dropped_largest_h: bool


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Strong errors against a fine-step reference, per step size.

    ``err_sup[i]`` is ``max_k E[|X^ref_{t_k} - X^h_{t_k}|^p]^(1/p)`` over the
    coarse grid nodes; ``err_int[i]`` is the time-integrated counterpart
    ``E[int_0^T |X^ref_t - X^h_{floor(t)}|^p dt]^(1/p)`` with the coarse path
    held constant between its nodes and the reference read at its own
    resolution.  ``stderr[i]`` is the sampling error of the integrated p-th
    power mean (before the root).

    ``fit`` is the headline slope, fitted to the larger of the two norms at
    each step size (the quantity the rate guarantee bounds); ``fit_sup`` and
    ``fit_int`` fit each norm separately.  A norm can decay faster than the
    guarantee (additive noise shows first order at the nodes), so only the
    combined fit tracks the guaranteed rate.
    """

    h_values: tuple[float, ...]
    err_sup: tuple[float, ...]
    err_int: tuple[float, ...]
    stderr: tuple[float, ...]
    p: float
    paths: int
    fit: "SlopeFit | None"
    fit_sup: "SlopeFit | None"
    fit_int: "SlopeFit | None"
    guard_warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if list(self.h_values) != sorted(set(self.h_values), reverse=True):
            raise ConfigurationError("h_values must be strictly decreasing")


def _fit_loglog(h_values: Sequence[float], errors: Sequence[float]) -> "SlopeFit | None":
    if len(errors) < 2 or any(not (e > FIT_FLOOR) or not math.isfinite(e) for e in errors):
        return None
    lx = np.log(np.asarray(h_values, dtype=np.float64))
    ly = np.log(np.asarray(errors, dtype=np.float64))
    full_slope, full_intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (full_slope * lx + full_intercept)
    full_rms = float(np.sqrt(np.mean(residuals**2)))
    slope, intercept, rms = full_slope, full_intercept, full_rms
    dropped = False
    # h_values are decreasing, so index 0 is the largest step.
    if len(errors) >= 3 and full_rms > 0.0 and abs(residuals[0]) > 3.0 * full_rms:
        dropped = True
        slope, intercept = np.polyfit(lx[1:], ly[1:], 1)
        trimmed = ly[1:] - (slope * lx[1:] + intercept)
        rms = float(np.sqrt(np.mean(trimmed**2)))
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(rms),
        full_slope=float(full_slope),
        full_intercept=float(full_intercept),
        full_residual_rms=full_rms,
        dropped_largest_h=dropped,
    )


def _grid_for(h: float) -> TimeGrid:
    """The grid of step ``h`` on the unit horizon ``[0, 1]``."""
    if not (math.isfinite(h) and h > 0.0):
        raise ConfigurationError(f"step size must be positive and finite, got {h!r}")
    steps = 1.0 / h
    rounded = round(steps) if math.isfinite(steps) else 0
    if rounded < 1 or abs(steps - rounded) > 1e-9 * max(1.0, rounded):
        raise ConfigurationError(f"step size {h!r} does not divide the horizon 1.0")
    return TimeGrid(horizon=1.0, steps=int(rounded))


def strong_error_curve(
    config: StepperConfig,
    p: float,
    h_values: Sequence[float],
    h_ref: float,
    paths: int,
    seed: int,
    *,
    workers: int = 1,
) -> RateCurve:
    """Strong errors of one leg against its own fine-step reference on ``[0, 1]``.

    For every requested ``h`` the leg ``config`` runs on the coarsened grid
    driven by block sums of the reference increments, so each coarse path is
    coupled to the ``h_ref`` reference path; ``h_ref`` must divide every
    ``h``.  Errors are reported in the sup-over-nodes and time-integrated
    p-norms, with log-log slope fits for their pointwise maximum and for each
    norm alone (skipped when an error sits at the rounding floor).

    The guards are checked on the reference grid and on every coarse grid
    before any path is drawn: a strict config raises one
    :class:`~awsde.errors.StepSizeError` naming every violation, and a
    ``"warn"`` config records them in ``RateCurve.guard_warnings``.
    """
    if not 1 <= p < math.inf:
        raise ConfigurationError(f"p must be finite and >= 1, got {p}")
    if not isinstance(paths, int) or paths < 2:
        raise ConfigurationError(f"paths must be an integer >= 2, got {paths!r}")
    hs = tuple(sorted({float(h) for h in h_values}, reverse=True))
    if len(hs) != len(tuple(h_values)):
        raise ConfigurationError("h_values must not contain duplicates")

    fine = _grid_for(h_ref)
    factors: list[int] = []
    for h in hs:
        ratio = h / h_ref
        factor = round(ratio) if math.isfinite(ratio) else 0
        if factor < 1 or abs(ratio - factor) > 1e-9 * factor:
            raise ConfigurationError(f"h_ref={h_ref!r} does not divide h={h!r}")
        factors.append(int(factor))

    guard_notes = _check_guards((config,), [fine.coarsen(f) for f in [1] + factors])

    def work(start: int, count: int) -> tuple[list[Array], Array]:
        out = simulate_coupled_block(config, fine, [1] + factors, seed, start, count)
        ref = out[1]
        node_sums = []
        int_sums = np.empty((len(factors), count), dtype=np.float64)
        for row, f in zip(int_sums, factors):
            coarse = out[f]
            node_sums.append((np.abs(ref[:, ::f] - coarse) ** p).sum(axis=0))
            held = np.repeat(coarse[:, :-1], f, axis=1)
            row[:] = h_ref * (np.abs(ref[:, :-1] - held) ** p).sum(axis=1)
        return node_sums, int_sums

    blocks = _map_blocks(paths, workers, work)
    int_scalars = np.concatenate([int_sums for _, int_sums in blocks], axis=1)
    err_sup: list[float] = []
    err_int: list[float] = []
    stderr: list[float] = []
    for i, scalars in enumerate(int_scalars):
        node_means = np.stack([node_sums[i] for node_sums, _ in blocks]).sum(axis=0) / paths
        err_sup.append(float(np.max(node_means) ** (1.0 / p)))
        err_int.append(float(np.mean(scalars) ** (1.0 / p)))
        stderr.append(float(np.std(scalars, ddof=1) / math.sqrt(paths)))

    err_max = [max(s, t) for s, t in zip(err_sup, err_int)]
    return RateCurve(
        h_values=hs,
        err_sup=tuple(err_sup),
        err_int=tuple(err_int),
        stderr=tuple(stderr),
        p=float(p),
        paths=paths,
        fit=_fit_loglog(hs, err_max),
        fit_sup=_fit_loglog(hs, err_sup),
        fit_int=_fit_loglog(hs, err_int),
        guard_warnings=guard_notes,
    )


# ---------------------------------------------------------------------------
# moment diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentRow:
    """Empirical ``E[max_k |X^h_{t_k}|^p]`` for one step size."""

    h: float
    p: float
    sup_moment: float


def moment_diagnostic(
    config: StepperConfig,
    p: float,
    h_values: Sequence[float],
    paths: int,
    seed: int,
    *,
    workers: int = 1,
) -> tuple[MomentRow, ...]:
    """Empirical sup-moments of one leg ``config`` on ``[0, 1]`` across step sizes.

    The guards are checked on every step size's grid before any path is
    drawn: a strict config raises one :class:`~awsde.errors.StepSizeError`
    naming every violation.  Divergent paths (overflow to nan or inf) count as
    infinite, so a blowing-up scheme reports an infinite sup-moment rather
    than hiding behind nan.
    """
    if not 1 <= p < math.inf:
        raise ConfigurationError(f"p must be finite and >= 1, got {p}")
    if not isinstance(paths, int) or paths < 1:
        raise ConfigurationError(f"paths must be a positive integer, got {paths!r}")
    hs = [float(h) for h in h_values]
    grids = [_grid_for(h) for h in hs]
    _check_guards((config,), grids)

    def work(start: int, count: int) -> Array:
        moments = np.empty((len(grids), count), dtype=np.float64)
        for row, grid in zip(moments, grids):
            x = simulate_path_block(config, grid, seed, start, count)
            with np.errstate(over="ignore", invalid="ignore"):
                m = np.max(np.abs(x), axis=1) ** p
            row[:] = np.where(np.isnan(m), np.inf, m)
        return moments

    per_path = np.concatenate(_map_blocks(paths, workers, work), axis=1)
    return tuple(MomentRow(h=h, p=float(p), sup_moment=float(np.mean(m)))
                 for h, m in zip(hs, per_path))


# ---------------------------------------------------------------------------
# one-step monotonicity counterexample
# ---------------------------------------------------------------------------


def one_step_cdf(sigma: Callable[[float], float], h: float, z: float, a: float) -> float:
    """CDF at ``a`` of one truncated step ``z + sigma(z) * clip(dW, a_h)``.

    Zero below ``z - a_h sigma(z)``, one at and above ``z + a_h sigma(z)``,
    and the Gaussian CDF ``Phi((a - z) / (sigma(z) sqrt(h)))`` in between
    (the clipped mass sits exactly on the band edges).
    """
    s = float(sigma(z))
    if not s > 0.0:
        raise AssumptionError(f"diffusion must be positive, got sigma({z}) = {s}")
    a_h = truncation_level(float(h))
    if a < z - a_h * s:
        return 0.0
    if a >= z + a_h * s:
        return 1.0
    u = (a - z) / (s * math.sqrt(h))
    return 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))


@dataclass(frozen=True)
class MonotonicityWitness:
    """Two starting points whose one-step kernels are not stochastically ordered.

    ``cdf_at_lower`` and ``cdf_at_upper`` hold ``(F_z, F_z_bar)`` evaluated at
    ``a_lower`` and ``a_upper``; the two pairs are strictly ordered in
    opposite directions, so neither kernel dominates the other.
    """

    z: float
    z_bar: float
    a_lower: float
    a_upper: float
    cdf_at_lower: tuple[float, float]
    cdf_at_upper: tuple[float, float]
    step: float
    truncation: float


def monotonicity_witness(
    sigma: Callable[[float], float],
    h: float,
    interval: tuple[float, float] = (0.0, 1.0),
    points: int = 201,
) -> "MonotonicityWitness | None":
    """Search for a one-step monotonicity failure of the truncated scheme.

    A pair ``z < z_bar`` with ``|sigma(z_bar) - sigma(z)| * a_h > z_bar - z``
    makes the two truncation bands overhang each other, so the one-step
    kernels cross in both directions; the grid search maximises that margin
    and the returned thresholds are verified against :func:`one_step_cdf`.
    Returns ``None`` when no grid pair violates the bound (as for any
    diffusion that is ``1/a_h``-Lipschitz on the interval).
    """
    if points < 2:
        raise ConfigurationError(f"points must be >= 2, got {points}")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ConfigurationError(f"interval must be increasing, got {interval!r}")
    a_h = truncation_level(float(h))
    zs = np.linspace(lo, hi, points)
    sigmas = np.empty(points, dtype=np.float64)
    for i, z in enumerate(zs):
        sigmas[i] = float(sigma(float(z)))
        if not sigmas[i] > 0.0:
            raise AssumptionError(f"diffusion must be positive, got sigma({z}) = {sigmas[i]}")

    best: "tuple[int, int] | None" = None
    best_margin = 0.0
    for i in range(points):
        for j in range(i + 1, points):
            margin = abs(sigmas[j] - sigmas[i]) * a_h - (zs[j] - zs[i])
            if margin > best_margin:
                best_margin = margin
                best = (i, j)
    if best is None:
        return None

    i, j = best
    z, z_bar = float(zs[i]), float(zs[j])
    s_low, s_high = float(sigmas[i]), float(sigmas[j])
    if s_high > s_low:
        # Wider band above: its lower edge undercuts the lower state's band.
        a_lower = 0.5 * ((z_bar - a_h * s_high) + (z - a_h * s_low))
        a_upper = z + a_h * s_low
    else:
        # Narrower band above: its upper edge stops short of the lower state's.
        a_lower = 0.5 * ((z - a_h * s_low) + (z_bar - a_h * s_high))
        a_upper = z_bar + a_h * s_high

    cdf_at_lower = (one_step_cdf(sigma, h, z, a_lower), one_step_cdf(sigma, h, z_bar, a_lower))
    cdf_at_upper = (one_step_cdf(sigma, h, z, a_upper), one_step_cdf(sigma, h, z_bar, a_upper))
    crossed = (
        (cdf_at_lower[0] < cdf_at_lower[1] and cdf_at_upper[0] > cdf_at_upper[1])
        or (cdf_at_lower[0] > cdf_at_lower[1] and cdf_at_upper[0] < cdf_at_upper[1])
    )
    if not crossed:
        raise AssumptionError(
            "violating pair found but CDF crossings failed verification; "
            f"z={z}, z_bar={z_bar}, a_lower={a_lower}, a_upper={a_upper}"
        )
    return MonotonicityWitness(
        z=z,
        z_bar=z_bar,
        a_lower=a_lower,
        a_upper=a_upper,
        cdf_at_lower=cdf_at_lower,
        cdf_at_upper=cdf_at_upper,
        step=float(h),
        truncation=a_h,
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"unexpected boolean cell {value!r}")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_aw_estimates_csv(path, rows: Sequence[Sequence]) -> None:
    """Rows ``(k_or_delta, estimate, stderr, paths, h, seed)``."""
    _write_csv(path, ["k_or_delta", "estimate", "stderr", "paths", "h", "seed"], rows)


def write_rate_curve_csv(path, curve: RateCurve) -> None:
    _write_csv(
        path,
        ["h", "err_sup", "err_int", "stderr"],
        [
            (h, es, ei, se)
            for h, es, ei, se in zip(curve.h_values, curve.err_sup, curve.err_int, curve.stderr)
        ],
    )
