"""Optimal stopping on finite adapted processes and its transport stability.

The value ``inf_tau E[L(tau, X)]`` (or ``sup``) of a stopping problem is
Lipschitz in the law of ``X`` with respect to the bicausal transport distance:
if ``|L(k, g) - L(k, g')| <= C_L ||g - g'||_p`` for the stagewise l^p norm on
paths, then the values under two laws differ by at most ``C_L`` times the
p-distance.  :func:`stopping_stability_gap` evaluates both sides of that
bound exactly on finite trees.

Values are computed by backward induction (the Snell envelope); arithmetic
stays exact whenever node values, masses and the payoff are rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .discrete_bicausal import FiniteAdaptedProcess, TreeNode, exact_bicausal_value, power_cost
from .errors import AssumptionError, ConfigurationError

__all__ = [
    "PathPayoff",
    "coordinate_payoff",
    "snell_value",
    "verify_payoff_lipschitz",
    "stopping_stability_gap",
]

OBJECTIVES = ("inf", "sup")


@dataclass(frozen=True)
class PathPayoff:
    """An adapted payoff ``L(k, prefix)`` with a declared Lipschitz constant.

    ``evaluate`` receives the 1-based stage index ``k`` and the path prefix
    ``(g_1, ..., g_k)``; adaptedness is enforced by the interface, since the
    evaluator never sees values beyond stage ``k``.  ``lipschitz_constant``
    is the declared ``C_L`` with respect to the stagewise l^p norm on full
    paths; it is trusted, not estimated, but
    :func:`verify_payoff_lipschitz` can falsify a wrong declaration.
    """

    evaluate: Callable[[int, tuple], "Fraction | float"] = field(repr=False)
    lipschitz_constant: float
    objective: str = "inf"
    name: str = ""

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ConfigurationError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
        if not float(self.lipschitz_constant) > 0:
            raise ConfigurationError(
                f"lipschitz_constant must be positive, got {self.lipschitz_constant}"
            )


def coordinate_payoff(objective: str = "inf") -> PathPayoff:
    """``L(k, g) = g_k``: stop to collect the current value.  ``C_L = 1``."""
    return PathPayoff(
        evaluate=lambda k, prefix: prefix[-1],
        lipschitz_constant=1.0,
        objective=objective,
        name="coordinate",
    )


def snell_value(proc: FiniteAdaptedProcess, payoff: PathPayoff) -> "Fraction | float":
    """Optimal stopping value by backward induction.

    At a leaf stopping is forced; at an inner node the value is the better of
    the immediate payoff and the expected child value.  Exact for rational
    inputs.
    """
    opt = max if payoff.objective == "sup" else min

    def best(n: TreeNode, prefix: tuple, stage: int):
        here = payoff.evaluate(stage, prefix)
        if not n.children:
            return here
        cont = sum(c.mass * best(c, prefix + (c.value,), stage + 1) for c in n.children)
        return opt(here, cont)

    return sum(r.mass * best(r, (r.value,), 1) for r in proc.roots)


def _leaf_paths(proc: FiniteAdaptedProcess) -> list[tuple]:
    out: list[tuple] = []

    def rec(n: TreeNode, prefix: tuple) -> None:
        prefix = prefix + (n.value,)
        if n.children:
            for c in n.children:
                rec(c, prefix)
        else:
            out.append(prefix)

    for r in proc.roots:
        rec(r, ())
    return out


def verify_payoff_lipschitz(
    payoff: PathPayoff,
    processes: Sequence[FiniteAdaptedProcess],
    p: float,
    tolerance: float = 0.01,
) -> None:
    """Falsify a wrong Lipschitz declaration by probing tree path pairs.

    Checks ``|L(k, g[:k]) - L(k, g'[:k])| <= C_L ||g - g'||_p`` over all pairs
    of full paths of the given processes and all stages, allowing the declared
    constant a relative slack of ``tolerance``.  Passing is not a proof;
    a failure raises :class:`~awsde.errors.AssumptionError` with a witness.
    """
    paths: list[tuple] = []
    for proc in processes:
        paths.extend(_leaf_paths(proc))
    stage_counts = {len(g) for g in paths}
    if len(stage_counts) > 1:
        raise ConfigurationError(
            f"processes disagree on stage count: {sorted(stage_counts)}"
        )
    c_l = float(payoff.lipschitz_constant)
    # Each path's float coordinates and stage payoffs, computed once.
    coords = [tuple(float(x) for x in g) for g in paths]
    payoffs = [tuple(float(payoff.evaluate(k, g[:k])) for k in range(1, len(g) + 1))
               for g in paths]
    for a in range(len(paths)):
        for b in range(a + 1, len(paths)):
            norm = sum(abs(x - y) ** p for x, y in zip(coords[a], coords[b])) ** (1.0 / p)
            for k, (la, lb) in enumerate(zip(payoffs[a], payoffs[b]), start=1):
                gap = abs(la - lb)
                if gap > c_l * norm * (1.0 + tolerance) + 1e-12:
                    raise AssumptionError(
                        f"declared Lipschitz constant {c_l} violated at stage {k}: "
                        f"|L(g) - L(g')| = {gap} > {c_l} * {norm} "
                        f"for paths {paths[a]} and {paths[b]}"
                    )


def stopping_stability_gap(
    mu: FiniteAdaptedProcess,
    nu: FiniteAdaptedProcess,
    payoff: PathPayoff,
    p: float,
) -> tuple[float, float]:
    """Both sides of the stability bound: value gap and scaled p-distance.

    Returns ``(lhs, rhs)`` with ``lhs = |snell(mu) - snell(nu)|`` and ``rhs =
    C_L * (exact bicausal value under the stagewise power cost)^(1/p)``; the
    bound asserts ``lhs <= rhs``.  The declared constant is probed with
    :func:`verify_payoff_lipschitz` first, so a bad declaration fails loudly
    instead of producing a vacuous bound.
    """
    if mu.stages != nu.stages:
        raise ConfigurationError("processes must have the same number of stages")
    verify_payoff_lipschitz(payoff, (mu, nu), p)
    lhs = abs(snell_value(mu, payoff) - snell_value(nu, payoff))
    value, _ = exact_bicausal_value(mu, nu, power_cost(p))
    rhs = float(payoff.lipschitz_constant) * float(value) ** (1.0 / float(p))
    return float(lhs), rhs
