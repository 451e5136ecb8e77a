"""Time-stepping schemes for scalar SDEs.

Each scheme has one single-step kernel:

- :func:`em_step`, explicit Euler-Maruyama: ``x + b(t, x) h + sigma(t, x) dW``.
- :func:`semi_implicit_em_step`, drift implicit and diffusion explicit; the
  step solves ``z - h b(t, z) = x + sigma(t, x) dW``.  Under a one-sided
  Lipschitz drift with ``h < 1/L`` the map ``z -> z - h b(t, z)`` is strictly
  increasing, so the root is unique.
- :func:`transformed_step`, the semi-implicit step of the transformed SDE
  written in x-space: it solves ``G(x') - h beta(x') = G(x) + sigma(x) G'(x)
  dW`` with ``beta = b G' + sigma^2 G'' / 2`` for the new state ``x'``, from
  the closed forms of ``G``, ``G'`` and ``G''`` alone.  This is ``z' - h
  btilde(z') = G(x) + sigmatilde(G(x)) dW`` with ``z' = G(x')``, so no
  ``G^{-1}`` is evaluated.  Under ``tiem-mono`` the block loop truncates
  the increments at ``a_h``, and whenever additionally ``1 -
  L_sigmatilde a_h > 0`` the whole step is nondecreasing in the state,
  uniformly over increments.
- :func:`symmetrised_em_step`, ``|x + kappa (eta - x) h + gamma sqrt(x) dW|``
  for the square-root diffusion family; keeps paths nonnegative.

Paths are simulated in blocks, one draw per block, by one simulator:
:func:`simulate_synchronous_block` steps several configs (the legs of a
synchronous coupling) on a grid and on coarsenings of it, all from one draw
of the fine increments; a coarse grid takes consecutive block sums of them.
:func:`simulate_path_block` is its one-leg, one-grid case and
:func:`simulate_coupled_block` its one-leg case.  Each leg is stepped by a
loop that applies the kernel to a whole column of increments at a time.  Row
``i`` of a block depends only on ``(seed, start + i)``, so a single path is a
width-1 block.

Step-size guards (``h < 1/L`` for the implicit drift solve and
``1 - L_sigmatilde a_h > 0`` for ``tiem-mono``) are checked against the
declared constants on every grid a config meets, before any increment is
drawn.  A config with ``guard_policy="strict"`` raises one
:class:`StepSizeError` that names every violation on every grid; with
``guard_policy="warn"`` it proceeds and callers record the messages of
:func:`guard_report`.
The implicit solve itself is a bracketed regula falsi and returns a
deterministic root even when the guard fails and the map is not monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BracketError, ConfigurationError, StepSizeError
from .models import CoefficientSpec
from .randomness import TimeGrid, sample_increment_block, truncation_level
from .transform import TransformedCoefficients, transformed_coefficients

__all__ = [
    "SCHEMES",
    "StepperConfig",
    "config_from_alias",
    "guard_report",
    "em_step",
    "implicit_solve",
    "semi_implicit_em_step",
    "transformed_step",
    "symmetrised_em_step",
    "simulate_synchronous_block",
    "simulate_path_block",
    "simulate_coupled_block",
]

Array = np.ndarray

#: explicit Euler-Maruyama, drift-implicit Euler, the transformed
#: semi-implicit step without and with increment truncation, and the
#: symmetrised Euler step of the square-root diffusion
SCHEMES = ("em", "iem", "tiem", "tiem-mono", "sym-em")

_RESIDUAL_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class StepperConfig:
    """One leg: a scheme from :data:`SCHEMES`, its coefficient spec and a guard policy.

    ``guard_policy`` is ``"strict"`` (a violated step-size guard raises) or
    ``"warn"``.  For ``tiem`` and ``tiem-mono`` the transformed coefficients
    are built eagerly, with their declared-constant probe cross-check, into
    ``transformed``.  ``monotone`` is true for ``tiem-mono``, whose block loop
    truncates the increments at ``a_h``.
    """

    scheme: str
    spec: CoefficientSpec
    guard_policy: str = "strict"
    transformed: TransformedCoefficients | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; expected one of {sorted(SCHEMES)}"
            )
        if self.guard_policy not in ("strict", "warn"):
            raise ConfigurationError(
                f"guard_policy must be 'strict' or 'warn', got {self.guard_policy!r}"
            )
        if self.scheme in ("tiem", "tiem-mono"):
            object.__setattr__(self, "transformed", transformed_coefficients(self.spec))
        if self.scheme == "iem" and self.spec.one_sided_lipschitz_bound is None:
            raise ConfigurationError("iem requires one_sided_lipschitz_bound on the spec")
        if self.scheme == "sym-em":
            missing = {"kappa", "eta", "gamma"} - set(self.spec.params)
            if missing:
                raise ConfigurationError(
                    f"sym-em requires params kappa, eta, gamma; missing {sorted(missing)}"
                )

    @property
    def monotone(self) -> bool:
        return self.scheme == "tiem-mono"


def config_from_alias(alias: str, spec: CoefficientSpec,
                      guard_policy: str = "strict") -> StepperConfig:
    """The leg ``StepperConfig(alias, spec, guard_policy)``, ``alias`` one of :data:`SCHEMES`."""
    return StepperConfig(alias, spec, guard_policy)


def guard_report(config: StepperConfig, grid: TimeGrid) -> tuple[str, ...]:
    """Step-size guard violations of ``config`` on ``grid`` (empty if none)."""
    h = grid.step
    messages: list[str] = []
    if config.scheme == "iem":
        bound = config.spec.one_sided_lipschitz_bound
        if bound is not None and bound > 0.0 and h >= 1.0 / bound:
            messages.append(
                f"step size h={h!r} violates h < 1/L with one-sided drift bound L={bound}"
            )
    elif config.transformed is not None:
        l_drift = config.transformed.one_sided_bound
        if l_drift > 0.0 and h >= 1.0 / l_drift:
            messages.append(
                f"step size h={h!r} violates h < 1/L with transformed drift bound L={l_drift}"
            )
        if config.monotone:
            l_diff = config.transformed.lipschitz_bound
            a_h = truncation_level(grid)
            if l_diff > 0.0 and 1.0 - l_diff * a_h <= 0.0:
                messages.append(
                    f"monotone guard 1 - L*a_h > 0 fails: L={l_diff}, a_h={a_h!r} at h={h!r}"
                )
    return tuple(messages)


def _check_guards(configs: Sequence[StepperConfig], grids: Sequence[TimeGrid]) -> tuple[str, ...]:
    """Every config's :func:`guard_report` on every grid, repeats dropped.

    Raises one :class:`StepSizeError` joining the messages of every strict
    config, if any.
    """
    messages: list[str] = []
    strict: list[str] = []
    for config in configs:
        for grid in grids:
            found = guard_report(config, grid)
            messages.extend(found)
            if config.guard_policy == "strict":
                strict.extend(found)
    if strict:
        raise StepSizeError("; ".join(dict.fromkeys(strict)))
    return tuple(dict.fromkeys(messages))


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def em_step(spec: CoefficientSpec, t: float, x: "Array | float", h: float,
            dw: "Array | float") -> "Array | float":
    """Explicit Euler-Maruyama step."""
    xs = np.asarray(x, dtype=float)
    out = xs + np.asarray(spec.drift(t, xs)) * h + np.asarray(spec.diffusion(t, xs)) * dw
    return out if np.ndim(x) else float(out)


def _witness(unresolved: Array, **values: Array) -> str:
    """Message tail naming how many elements are ``unresolved`` and the first one's values."""
    first = int(np.flatnonzero(unresolved)[0])
    named = ", ".join(f"{name}={float(np.ravel(v)[first])!r}" for name, v in values.items())
    return (f"; {np.count_nonzero(unresolved)} of {unresolved.size} elements unresolved, "
            f"first at index {first}: {named}")


def _expand_bracket(which: str, direction: float, end: Array, res: Array,
                    g: Callable[[Array], Array], ys: Array) -> tuple[Array, Array]:
    """Step the ends whose residual ``g(end) - ys`` has the wrong sign outward.

    ``direction`` is -1 for the lower end and +1 for the upper end; a failing
    end moves by ``direction`` times 1, 2, 4, ... and keeps the residual of
    the test that accepted it (a NaN residual is accepted).
    """
    width = np.ones_like(ys)
    need = direction * res < 0.0
    for _ in range(64):
        if not need.any():
            break
        end = np.where(need, end + direction * width, end)
        width = np.where(need, 2.0 * width, width)
        res = np.where(need, g(end) - ys, res)
        need = need & (direction * res < 0.0)
    if need.any():
        raise BracketError(
            f"{which} bracket expansion failed; drift may not be one-sided Lipschitz"
            + _witness(need, y=ys, end=end, res=res)
        )
    return end, res


def implicit_solve(
    y: "Array | float",
    drift: Callable[["Array | float"], "Array | float"],
    h: float,
    one_sided_bound: "float | None" = None,
) -> "Array | float":
    """Solve ``z - h * drift(z) = y`` by a bracketed secant iteration.

    The initial bracket is ``[y - |h drift(y)| - 1, y + |h drift(y)| + 1]``,
    expanded geometrically until it straddles the target.  Inside the bracket
    an Illinois-damped regula falsi runs until
    ``|z - h drift(z) - y| <= 1e-12 (1 + |y|)``; the bracket never opens, so
    convergence is global.  Each element of a vector call is solved
    independently of the others, so batching does not change results.

    Every drift evaluation covers the whole batch.  A solve evaluates the
    drift once at ``y``, and stops there if every element is already a root.
    Otherwise it evaluates once at each initial bracket end, once per
    expansion of either end, once at the bracket midpoint and once per
    regula-falsi iteration.  Each bracket end keeps the residual computed
    when it was tested, so a solve without expansions makes ``4 +
    iterations`` drift calls.

    If ``one_sided_bound`` is given and positive, ``h >= 1/one_sided_bound``
    raises :class:`StepSizeError`; pass ``None`` when a caller enforces the
    guard itself.  Without monotonicity the iteration still converges to a
    deterministic root.  When an expansion or the iteration fails, the
    :class:`BracketError` message names how many elements are unresolved and,
    for the first of them, ``y``, the bracket end or ends and their residuals.
    """
    ys = np.asarray(y, dtype=float)
    if one_sided_bound is not None and one_sided_bound > 0.0 and h >= 1.0 / one_sided_bound:
        raise StepSizeError(
            f"implicit drift solve requires h < 1/L; got h={h!r}, L={one_sided_bound}"
        )

    def g(z: Array) -> Array:
        return z - h * np.asarray(drift(z))

    push = h * np.asarray(drift(ys))
    tol = _RESIDUAL_RTOL * (1.0 + np.abs(ys))
    if np.all(np.abs(push) <= tol):
        # already a root at the explicit value; in particular a zero drift
        # returns y bit-exactly
        return ys if np.ndim(y) else float(ys)

    pad = np.abs(push) + 1.0
    lo = ys - pad
    hi = ys + pad

    lo, flo = _expand_bracket("lower", -1.0, lo, g(lo) - ys, g, ys)
    hi, fhi = _expand_bracket("upper", 1.0, hi, g(hi) - ys, g, ys)

    # elements already converged at the explicit value keep it bit-exactly,
    # matching what a scalar call on them alone would return
    z = np.where(np.abs(push) <= tol, ys, 0.5 * (lo + hi))
    res = g(z) - ys
    active = np.abs(res) > tol
    # side tracks which endpoint the last accepted point replaced; replacing
    # the same endpoint twice in a row halves the opposite residual (Illinois
    # damping), which prevents regula falsi from stalling on one side.
    side = np.zeros(ys.shape, dtype=np.int8)
    for _ in range(300):
        if not active.any():
            break
        neg = res < 0.0
        below = active & neg
        above = active & ~neg
        fhi = np.where(below & (side == -1), 0.5 * fhi, fhi)
        flo = np.where(above & (side == 1), 0.5 * flo, flo)
        lo = np.where(below, z, lo)
        flo = np.where(below, res, flo)
        hi = np.where(above, z, hi)
        fhi = np.where(above, res, fhi)
        side = np.where(active, np.where(neg, -1, 1).astype(np.int8), side)
        denom = fhi - flo
        secant = (lo * fhi - hi * flo) / np.where(denom == 0.0, 1.0, denom)
        cand = np.where(denom == 0.0, 0.5 * (lo + hi), secant)
        cand = np.minimum(np.maximum(cand, np.minimum(lo, hi)), np.maximum(lo, hi))
        z = np.where(active, cand, z)
        res = np.where(active, g(z) - ys, res)
        active = np.abs(res) > tol
    if active.any():
        raise BracketError(
            "implicit drift solve did not reach the residual tolerance"
            + _witness(active, y=ys, z=z, res=res, lo=lo, hi=hi, res_lo=flo, res_hi=fhi, tol=tol)
        )

    return z if np.ndim(y) else float(z)


def semi_implicit_em_step(spec: CoefficientSpec, t: float, x: "Array | float", h: float,
                          dw: "Array | float",
                          enforce_guard: bool = True) -> "Array | float":
    """Drift-implicit Euler step: diffusion at ``x``, drift at the new state."""
    xs = np.asarray(x, dtype=float)
    y = xs + np.asarray(spec.diffusion(t, xs)) * dw
    bound = spec.one_sided_lipschitz_bound if enforce_guard else None
    z = implicit_solve(y, lambda v: spec.drift(t, v), h, one_sided_bound=bound)
    return z if np.ndim(x) else float(z)


def transformed_step(tc: TransformedCoefficients, x: "Array | float", h: float,
                     dw: "Array | float",
                     enforce_guard: bool = True) -> "Array | float":
    """One transformed semi-implicit step, solved in x-space for the new state ``x'``.

    The step solves

        G(x') - h beta(x') = G(x) + sigma(x) G'(x) dW,

    with ``beta = b G' + sigma^2 G'' / 2`` (:meth:`TransformedCoefficients.beta`),
    from the closed forms of ``G``, ``G'`` and ``G''``.  In ``z = G(x)`` this
    is the semi-implicit step of the transformed SDE, ``z' - h btilde(z') = z
    + sigmatilde(z) dW``.  :func:`implicit_solve` solves it with the
    effective drift ``beta(v) - (G(v) - v) / h``.  Each evaluation of that
    drift, and the right-hand side, takes ``G`` and its derivatives from one
    :meth:`~awsde.transform.PiecewiseTransform.jets` pass.  Off the bumps
    ``G(v) - v`` is exactly 0, so there the step is
    :func:`semi_implicit_em_step` bit for bit; with an identity transform it
    is that step everywhere.  Truncating ``dw`` is the caller's
    responsibility (the block loop truncates for ``tiem-mono``).
    """
    spec, tr = tc.base, tc.transform
    if tr.is_identity:
        return semi_implicit_em_step(spec, 0.0, x, h, dw, enforce_guard=enforce_guard)

    def drift(v: Array) -> Array:
        g_v, beta_v = tc.g_and_beta(v)
        return beta_v - (g_v - v) / h

    xs = np.asarray(x, dtype=float)
    g0, g1, _ = tr.jets(xs)
    y = g0 + np.asarray(spec.diffusion(0.0, xs)) * g1 * dw
    bound = tc.one_sided_bound if enforce_guard else None
    out = implicit_solve(y, drift, h, one_sided_bound=bound)
    return out if np.ndim(x) else float(out)


def symmetrised_em_step(kappa: float, eta: float, gamma: float, x: "Array | float",
                        h: float, dw: "Array | float") -> "Array | float":
    """Reflected Euler step for ``dX = kappa (eta - X) dt + gamma sqrt(X) dW``."""
    xs = np.asarray(x, dtype=float)
    out = np.abs(xs + kappa * (eta - xs) * h + gamma * np.sqrt(np.maximum(xs, 0.0)) * dw)
    return out if np.ndim(x) else float(out)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------


def _kernel(config: StepperConfig, h: float) -> Callable[[float, Array, Array], Array]:
    """The scheme's single-step kernel as ``step(t, x, dw)`` at step size ``h``.

    Each kernel is looked up by its module-level name on every step, so a
    wrapper that replaces that name also sees every step of a block.  The
    kernel checks no guard: :func:`simulate_synchronous_block` checks them once
    per config and grid, before it draws.
    """
    spec, tc = config.spec, config.transformed
    if config.scheme == "em":
        return lambda t, x, dw: em_step(spec, t, x, h, dw)
    if config.scheme == "iem":
        return lambda t, x, dw: semi_implicit_em_step(spec, t, x, h, dw, enforce_guard=False)
    if tc is not None:
        return lambda t, x, dw: transformed_step(tc, x, h, dw, enforce_guard=False)
    kappa, eta, gamma = (spec.params[name] for name in ("kappa", "eta", "gamma"))
    return lambda t, x, dw: symmetrised_em_step(kappa, eta, gamma, x, h, dw)


def _step_matrix(config: StepperConfig, grid: TimeGrid, raw_dw: Array) -> Array:
    """Step a ``(paths, steps)`` increment matrix to a ``(paths, steps+1)`` state matrix.

    ``raw_dw`` holds untruncated increments; the monotone variant clips them
    at the truncation level of ``grid`` here, so coupled coarse grids truncate
    at their own level.
    """
    h = grid.step
    dw = raw_dw
    if config.monotone:
        a_h = truncation_level(grid)
        dw = np.clip(raw_dw, -a_h, a_h)

    step = _kernel(config, h)
    values = np.empty((raw_dw.shape[0], grid.steps + 1), dtype=np.float64)
    values[:, 0] = config.spec.initial_value
    x = values[:, 0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.steps):
            x = step(k * h, x, dw[:, k])
            values[:, k + 1] = x
    return values


def _coarse_sums(raw_fine: Array, factor: int) -> Array:
    # differences of the fine prefix sums rather than blockwise sums: the
    # coarse increments then retrace the fine path's own left-to-right
    # accumulation, so a driftless unit-diffusion path agrees bitwise at
    # shared nodes
    if factor == 1:
        return raw_fine
    nodes = np.cumsum(raw_fine, axis=1)[:, factor - 1 :: factor]
    out = np.empty_like(nodes)
    out[:, 0] = nodes[:, 0]
    np.subtract(nodes[:, 1:], nodes[:, :-1], out=out[:, 1:])
    return out


def simulate_synchronous_block(configs: Sequence[StepperConfig], grid: TimeGrid, seed: int,
                               start: int, count: int,
                               factors: Sequence[int] = (1,)) -> Iterator[Array]:
    """Every config on ``grid`` and on its coarsenings, for paths ``start .. start+count-1``.

    Before it returns, this checks each config's guards on ``grid`` and on
    ``grid.coarsen(f)`` for every ``f`` in ``factors`` (one
    :class:`StepSizeError` naming every violation of every strict config),
    then draws ``sample_increment_block(grid, seed, start, count)``
    once.  The iterator yields one ``(count, steps // f + 1)`` state matrix
    per ``(config, f)``, configs in the outer loop, each stepped only when it
    is asked for, so a caller that reduces and drops each leg holds one at a
    time.  A coarse grid's increments are sums of the fine ones over its
    steps (:func:`_coarse_sums`), clipped at its own ``a_h`` for the monotone
    variant.  Row ``i`` of every leg depends only on ``(seed, start + i)``.
    """
    configs = tuple(configs)
    grids = {f: grid.coarsen(f) for f in factors}
    _check_guards(configs, (grid, *grids.values()))
    raw = sample_increment_block(grid, seed, start, count)
    return (_step_matrix(config, grids[f], _coarse_sums(raw, f))
            for config in configs for f in factors)


def simulate_path_block(config: StepperConfig, grid: TimeGrid, seed: int,
                        start: int, count: int) -> Array:
    """States for paths ``start .. start+count-1`` as a ``(count, steps+1)`` array.

    Row ``i`` is the scheme's kernel applied step by step to row ``i`` of
    ``sample_increment_block(grid, seed, start, count)`` (clipped at ``a_h``
    for the monotone variant), starting from the spec's initial value.  It
    equals ``simulate_path_block(config, grid, seed, start + i, 1)[0]`` bit
    for bit.  This is the one-leg, one-grid case of
    :func:`simulate_synchronous_block`.
    """
    return next(simulate_synchronous_block((config,), grid, seed, start, count))


def simulate_coupled_block(config: StepperConfig, fine_grid: TimeGrid,
                           factors: Sequence[int], seed: int, start: int,
                           count: int) -> dict[int, Array]:
    """One config on nested grids driven by one Brownian stream: factor -> (count, N/factor + 1).

    The one-leg case of :func:`simulate_synchronous_block`, with repeated
    factors dropped.  Factor 1 returns the fine paths themselves.
    """
    factors = tuple(dict.fromkeys(factors))
    legs = simulate_synchronous_block((config,), fine_grid, seed, start, count, factors)
    return dict(zip(factors, legs))
