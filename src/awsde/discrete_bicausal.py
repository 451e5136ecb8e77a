"""Exact bicausal optimal transport between finitely supported adapted processes.

Processes live on finite trees: a node at depth ``k`` carries the value of the
process at stage ``k`` and its conditional probability given the parent
history.  All masses are ``fractions.Fraction`` and every computation in this
module is exact rational arithmetic; no tolerance appears anywhere.

A bicausal coupling of two such trees factorises stagewise: it couples the two
root distributions, then for every matched pair of histories couples the two
conditional kernels, and so on.  The value function therefore satisfies the
backward recursion

    V_n = 0,
    V_k(x-node, y-node) = min over couplings pi of the two child kernels of
        sum_{i,j} pi_{ij} ( c_{k+1}(x_i, y_j) + V_{k+1}(x_i, y_j) ),

and the minimum over all bicausal couplings of the total cost
``sum_k c_k(X_k, Y_k)`` is the root value (Pflug & Pichler, SIAM J. Optim.
2012).  Each inner minimisation is a small transport problem, solved exactly
by a transportation simplex on the masses as given: a north-west-corner start,
then MODI pivots under Bland's rule, all in ``Fraction``s, so no denominator
or size cap applies.

The Knothe-Rosenblatt rearrangement couples every pair of kernels by the
quantile (monotone) coupling instead of optimising.  For stochastically
co-monotone processes and quasi-monotone stagewise costs it attains the
bicausal optimum; :func:`kr_suboptimal_pair` returns a two-stage pair where it
is strictly suboptimal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite
from typing import Callable, Iterable, Sequence

from .errors import ConfigurationError

__all__ = [
    "TreeNode",
    "FiniteAdaptedProcess",
    "CostFunctional",
    "power_cost",
    "PlanNode",
    "BicausalPlan",
    "node",
    "process",
    "knothe_rosenblatt",
    "antitone_first_plan",
    "plan_cost",
    "exact_bicausal_value",
    "MonotonicityReport",
    "check_stochastic_monotone",
    "QuasiMonotoneReport",
    "check_quasi_monotone",
    "kr_suboptimal_pair",
    "perturbed_start_pair",
]

def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise ConfigurationError(
        f"values and masses must be Fraction, int or fraction string, got {type(v).__name__}; "
        "floats are refused to keep the arithmetic exact"
    )


@dataclass(frozen=True)
class TreeNode:
    """A history node: stage value, conditional mass given the parent, children."""

    value: Fraction
    mass: Fraction
    children: tuple["TreeNode", ...] = ()


def node(value, mass, children: Iterable[TreeNode] = ()) -> TreeNode:
    """Build a :class:`TreeNode`, coercing value and mass to ``Fraction``."""
    m = _as_fraction(mass)
    if not 0 < m <= 1:
        raise ConfigurationError(f"node mass must lie in (0, 1], got {m}")
    return TreeNode(value=_as_fraction(value), mass=m, children=tuple(children))


@dataclass(frozen=True)
class FiniteAdaptedProcess:
    """A finitely supported adapted process of fixed depth ``stages``."""

    stages: int
    roots: tuple[TreeNode, ...]

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise ConfigurationError("a process needs at least one stage")
        _validate_level(self.roots, depth=1, stages=self.stages)


def _validate_level(siblings: Sequence[TreeNode], depth: int, stages: int) -> None:
    if not siblings:
        raise ConfigurationError("every kernel needs at least one outcome")
    total = sum((n.mass for n in siblings), Fraction(0))
    if total != 1:
        raise ConfigurationError(f"masses at depth {depth} sum to {total}, not 1")
    values = [n.value for n in siblings]
    if len(set(values)) != len(values):
        raise ConfigurationError(f"sibling values at depth {depth} are not distinct: {values}")
    for n in siblings:
        if depth == stages:
            if n.children:
                raise ConfigurationError(f"node at final stage {depth} has children")
        else:
            _validate_level(n.children, depth + 1, stages)


def process(stages: int, roots: Iterable[TreeNode]) -> FiniteAdaptedProcess:
    return FiniteAdaptedProcess(stages=stages, roots=tuple(roots))


def _canon(nodes: Sequence[TreeNode]) -> tuple[TreeNode, ...]:
    return tuple(
        TreeNode(value=n.value, mass=n.mass, children=_canon(n.children))
        for n in sorted(nodes, key=lambda n: n.value)
    )


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostFunctional:
    """Stagewise cost ``sum_k evaluate(k, x_k, y_k)``.

    ``evaluate`` receives the 1-based stage index and returns a ``Fraction``
    (kept exact) or a float.  ``p`` labels the cost's power, as
    :func:`power_cost` sets it; the solvers do not read it.
    """

    evaluate: Callable[[int, Fraction, Fraction], "Fraction | float"]
    p: float


def power_cost(p: "int | float") -> CostFunctional:
    """The cost ``|x - y|^p``, exact (rational) for integer ``p >= 1``."""
    if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
        q = int(p)
        if q < 1:
            raise ConfigurationError(f"power cost needs p >= 1, got {p}")
        return CostFunctional(evaluate=lambda k, x, y: abs(x - y) ** q, p=float(q))
    if not 1 <= p < inf:
        raise ConfigurationError(f"power cost needs a finite p >= 1, got {p}")
    return CostFunctional(evaluate=lambda k, x, y: float(abs(x - y)) ** p, p=float(p))


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanNode:
    x: Fraction
    y: Fraction
    mass: Fraction
    children: tuple["PlanNode", ...] = ()


@dataclass(frozen=True)
class BicausalPlan:
    """A coupling that factorises stagewise by construction.

    The tree lives over pairs of histories; each level's masses are a coupling
    of the two conditional kernels, which is exactly the bicausality property.
    """

    stages: int
    roots: tuple[PlanNode, ...]

    def certify_marginals(
        self, mu: FiniteAdaptedProcess, nu: FiniteAdaptedProcess
    ) -> dict[str, bool]:
        """Exact marginal certificates: does the plan transport ``mu`` to ``nu``?

        The projections are compared unvalidated, so a plan whose masses do
        not sum to one certifies ``False`` instead of raising.
        """

        def transports(axis: str, target: FiniteAdaptedProcess) -> bool:
            return (self.stages == target.stages
                    and _canon(_merge_projection(self.roots, axis)) == _canon(target.roots))

        return {"x_marginal": transports("x", mu), "y_marginal": transports("y", nu)}


def _merge_projection(nodes: Sequence[PlanNode], axis: str) -> tuple[TreeNode, ...]:
    groups: dict[Fraction, list[PlanNode]] = {}
    for n in nodes:
        key = n.x if axis == "x" else n.y
        groups.setdefault(key, []).append(n)
    out = []
    for value in sorted(groups):
        members = groups[value]
        mass = sum((m.mass for m in members), Fraction(0))
        # Children of the merged node: mixture of member kernels, weighted by
        # the member's share of the merged mass.
        weighted: list[PlanNode] = []
        for m in members:
            share = m.mass / mass
            weighted.extend(
                PlanNode(x=c.x, y=c.y, mass=c.mass * share, children=c.children)
                for c in m.children
            )
        out.append(TreeNode(value=value, mass=mass,
                            children=_merge_projection(weighted, axis) if weighted else ()))
    return tuple(out)


def plan_cost(plan: BicausalPlan, cost: CostFunctional) -> "Fraction | float":
    """Expected total cost of a plan, exact when the cost is rational."""

    def rec(nodes: Sequence[PlanNode], stage: int, weight: Fraction):
        total = Fraction(0)
        for n in nodes:
            w = weight * n.mass
            total = total + w * cost.evaluate(stage, n.x, n.y)
            if n.children:
                total = total + rec(n.children, stage + 1, w)
        return total

    return rec(plan.roots, 1, Fraction(1))


# ---------------------------------------------------------------------------
# Knothe-Rosenblatt rearrangement
# ---------------------------------------------------------------------------


def _mass_walk(
    xs: Sequence[TreeNode], ys: Sequence[TreeNode]
) -> list[tuple[TreeNode, TreeNode, Fraction]]:
    """Couple two sibling distributions by walking them in the given order.

    Matches cumulative mass pairwise; with both lists sorted increasingly this
    realises the right-continuous generalized inverse coupling
    ``(F_x^{-1}(U), F_y^{-1}(U))``.
    """
    out: list[tuple[TreeNode, TreeNode, Fraction]] = []
    i = j = 0
    rx, ry = xs[0].mass, ys[0].mass
    while True:
        m = min(rx, ry)
        out.append((xs[i], ys[j], m))
        rx -= m
        ry -= m
        if rx == 0:
            i += 1
            if i == len(xs):
                break
            rx = xs[i].mass
        if ry == 0:
            j += 1
            if j == len(ys):
                break
            ry = ys[j].mass
    return out


def _quantile_pairs(
    xs: Sequence[TreeNode], ys: Sequence[TreeNode]
) -> list[tuple[TreeNode, TreeNode, Fraction]]:
    """Monotone (quantile) coupling of two sibling distributions."""
    return _mass_walk(
        sorted(xs, key=lambda n: n.value),
        sorted(ys, key=lambda n: n.value),
    )


def _quantile_plan(xs: Sequence[TreeNode], ys: Sequence[TreeNode]) -> tuple[PlanNode, ...]:
    out = []
    for xn, yn, m in _quantile_pairs(xs, ys):
        children = _quantile_plan(xn.children, yn.children) if xn.children else ()
        out.append(PlanNode(x=xn.value, y=yn.value, mass=m, children=children))
    return tuple(out)


def knothe_rosenblatt(mu: FiniteAdaptedProcess, nu: FiniteAdaptedProcess) -> BicausalPlan:
    """Stagewise monotone rearrangement of ``mu`` onto ``nu``."""
    if mu.stages != nu.stages:
        raise ConfigurationError("processes must have the same number of stages")
    return BicausalPlan(stages=mu.stages, roots=_quantile_plan(mu.roots, nu.roots))


def antitone_first_plan(mu: FiniteAdaptedProcess, nu: FiniteAdaptedProcess) -> BicausalPlan:
    """Reverse-quantile coupling at stage one, quantile at every later stage.

    Matching the first marginals antitonically is deliberately greedy-wrong
    for the first stage cost; when the kernels reached that way fit together
    better than the monotone pairing's, the plan beats the monotone
    rearrangement (see :func:`kr_suboptimal_pair`), which shows stagewise
    monotone matching is not always optimal without co-monotonicity.
    """
    if mu.stages != nu.stages:
        raise ConfigurationError("processes must have the same number of stages")
    roots = []
    for xn, yn, m in _mass_walk(
        sorted(mu.roots, key=lambda n: n.value),
        sorted(nu.roots, key=lambda n: n.value, reverse=True),
    ):
        children = _quantile_plan(xn.children, yn.children) if xn.children else ()
        roots.append(PlanNode(x=xn.value, y=yn.value, mass=m, children=children))
    return BicausalPlan(stages=mu.stages, roots=tuple(roots))


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------


def _exact_coupling(
    px: Sequence[Fraction], py: Sequence[Fraction], cost_matrix
) -> tuple["Fraction | float", dict[tuple[int, int], Fraction]]:
    """Exact optimal transport between two rational distributions.

    A transportation simplex on the masses as given, in ``Fraction``s:

    - **Start.** The north-west corner: allocate ``min`` of the remaining row
      and column mass, then step down a row if that row is spent and is not
      the last one, otherwise step right.  That gives ``m + n - 1`` basic
      cells forming a spanning tree of the rows and columns; where a row and
      a column run out together the basis keeps a zero-flow cell.
    - **Pivots.** MODI potentials on the basis tree (``u_0 = 0``, ``u_i + v_j
      = c_ij`` on basic cells) price every non-basic cell.  Bland's rule
      keeps degenerate pivots from cycling: the entering cell is the first
      non-basic cell in row-major order with ``c_ij - u_i - v_j < 0``, and
      the leaving cell is the first, in row-major order, of the cycle's
      "minus" cells with the least flow.
    - **Stop** when no reduced cost is negative.

    Float cost entries are pivoted on as ``Fraction(entry)``, which is exact,
    so every comparison stays exact; the value is then returned as a
    ``float``.  Returns the value and the coupling on the cells with positive
    flow.
    """
    m, n = len(px), len(py)
    floats = any(isinstance(c, float) for row in cost_matrix for c in row)
    cost = [[Fraction(c) for c in row] for row in cost_matrix] if floats else cost_matrix

    flow: dict[tuple[int, int], Fraction] = {}
    rx, ry = list(px), list(py)
    i = j = 0
    while True:
        f = min(rx[i], ry[j])
        flow[i, j] = f
        rx[i] -= f
        ry[j] -= f
        if i == m - 1 and j == n - 1:
            break
        if rx[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

    while True:
        entering = _entering_cell(flow, cost, m, n)
        if entering is None:
            break
        cycle = _pivot_cycle(flow, entering, m)
        minus = cycle[0::2]
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if flow[c] == theta)
        for c in minus:
            flow[c] -= theta
        for c in cycle[1::2]:
            flow[c] += theta
        del flow[leaving]
        flow[entering] = theta

    value = sum(f * cost[i][j] for (i, j), f in flow.items())
    coupling = {c: f for c, f in flow.items() if f > 0}
    return (float(value) if floats else value), coupling


def _entering_cell(flow, cost, m: int, n: int) -> "tuple[int, int] | None":
    """First non-basic cell, row-major, whose reduced cost under MODI potentials is negative."""
    u: list = [None] * m
    v: list = [None] * n
    u[0] = 0
    pending = list(flow)
    while pending:
        rest = []
        for i, j in pending:
            if u[i] is not None:
                v[j] = cost[i][j] - u[i]
            elif v[j] is not None:
                u[i] = cost[i][j] - v[j]
            else:
                rest.append((i, j))
        pending = rest
    for i in range(m):
        for j in range(n):
            if (i, j) not in flow and cost[i][j] - u[i] - v[j] < 0:
                return i, j
    return None


def _pivot_cycle(flow, entering: tuple[int, int], m: int) -> list[tuple[int, int]]:
    """The basis path closing the cycle of ``entering``, as cells minus, plus, minus, ...

    The basis is a spanning tree on row nodes ``0..m-1`` and column nodes
    ``m..m+n-1``; the path runs from the entering cell's row to its column,
    so its first and last cells lose flow.
    """
    adjacent: dict[int, list[int]] = {}
    for i, j in flow:
        adjacent.setdefault(i, []).append(m + j)
        adjacent.setdefault(m + j, []).append(i)
    start, goal = entering[0], m + entering[1]
    parent = {start: start}
    stack = [start]
    while goal not in parent:
        here = stack.pop()
        for there in adjacent[here]:
            if there not in parent:
                parent[there] = here
                stack.append(there)
    cells = []
    here = goal
    while here != start:
        prev = parent[here]
        cells.append((prev, here - m) if prev < m else (here, prev - m))
        here = prev
    cells.reverse()
    return cells


def exact_bicausal_value(
    mu: FiniteAdaptedProcess, nu: FiniteAdaptedProcess, cost: CostFunctional
) -> tuple["Fraction | float", BicausalPlan]:
    """Optimal bicausal transport value and an optimal plan, by backward recursion.

    A NaN or infinite stage cost raises :class:`ConfigurationError`.
    """
    if mu.stages != nu.stages:
        raise ConfigurationError("processes must have the same number of stages")

    memo: dict = {}

    def stage_cost(stage: int, x: Fraction, y: Fraction) -> "Fraction | float":
        c = cost.evaluate(stage, x, y)
        if isinstance(c, float) and not isfinite(c):
            raise ConfigurationError(
                f"cost at stage {stage} for x={x}, y={y} is {c}; the exact solver needs finite costs"
            )
        return c

    def couple_levels(
        xs: Sequence[TreeNode], ys: Sequence[TreeNode], stage: int
    ) -> tuple["Fraction | float", tuple[PlanNode, ...]]:
        sub = [[subtree_value(xn, yn, stage) for yn in ys] for xn in xs]
        cost_matrix = [
            [stage_cost(stage, xn.value, yn.value) + sub[i][j][0]
             for j, yn in enumerate(ys)]
            for i, xn in enumerate(xs)
        ]
        value, coupling = _exact_coupling(
            [n.mass for n in xs], [n.mass for n in ys], cost_matrix
        )
        plan_children = tuple(
            PlanNode(x=xs[i].value, y=ys[j].value, mass=m, children=sub[i][j][1])
            for (i, j), m in sorted(coupling.items())
        )
        return value, plan_children

    def subtree_value(
        xn: TreeNode, yn: TreeNode, stage: int
    ) -> tuple["Fraction | float", tuple[PlanNode, ...]]:
        if not xn.children:
            return Fraction(0), ()
        key = (xn, yn, stage)
        if key not in memo:
            memo[key] = couple_levels(xn.children, yn.children, stage + 1)
        return memo[key]

    value, roots = couple_levels(mu.roots, nu.roots, 1)
    return value, BicausalPlan(stages=mu.stages, roots=roots)


# ---------------------------------------------------------------------------
# order and cost structure checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a stochastic monotonicity check.

    ``increasing``/``decreasing`` state whether every ordered pair of
    same-stage histories has kernels ordered accordingly (first or second
    order).  A witness is ``(stage, lower_parent, upper_parent, point)`` where
    the required CDF (or integrated CDF) comparison fails.
    """

    order: str
    increasing: bool
    decreasing: bool
    witness_increasing: "tuple | None" = None
    witness_decreasing: "tuple | None" = None

    @property
    def verdict(self) -> str:
        if self.increasing and self.decreasing:
            return "both"
        if self.increasing:
            return "increasing"
        if self.decreasing:
            return "decreasing"
        return "neither"


def _kernel_cdf_gaps(u_children: Sequence[TreeNode], v_children: Sequence[TreeNode],
                     order: str) -> list[tuple[Fraction, Fraction]]:
    """``(point, F_u - F_v)`` at all support points, integrated once for second order."""
    support = sorted({c.value for c in u_children} | {c.value for c in v_children})
    mass_u = {c.value: c.mass for c in u_children}
    mass_v = {c.value: c.mass for c in v_children}
    gaps: list[tuple[Fraction, Fraction]] = []
    fu = fv = Fraction(0)
    for t in support:
        fu += mass_u.get(t, Fraction(0))
        fv += mass_v.get(t, Fraction(0))
        gaps.append((t, fu - fv))
    if order == "first":
        return gaps
    # Integrate the piecewise-constant gap: values of int_{-inf}^x at the kinks.
    # Both CDFs reach 1 at the last support point, so the gap integrand is 0
    # beyond it and the last kink value is also the limit at +infinity; the
    # integrated gap is piecewise linear, so kink values determine its sign
    # everywhere.
    out: list[tuple[Fraction, Fraction]] = []
    acc = Fraction(0)
    for idx in range(len(gaps)):
        t, _ = gaps[idx]
        if idx > 0:
            acc += gaps[idx - 1][1] * (t - gaps[idx - 1][0])
        out.append((t, acc))
    return out


def check_stochastic_monotone(proc: FiniteAdaptedProcess, order: str = "first") -> MonotonicityReport:
    """Check first- or second-order stochastic monotonicity of the kernels.

    For every stage and every pair of same-stage histories ordered by their
    last coordinate, the conditional kernels must be comparable in the chosen
    order (upper history yields stochastically larger kernel for
    ``increasing``).  Pairs with equal last coordinate are skipped.
    """
    if order not in ("first", "second"):
        raise ConfigurationError(f"order must be 'first' or 'second', got {order!r}")

    inc = dec = True
    wit_inc = wit_dec = None

    level: list[TreeNode] = list(proc.roots)
    stage = 1
    while level and level[0].children:
        parents = sorted(level, key=lambda n: n.value)
        for a in range(len(parents)):
            for b in range(a + 1, len(parents)):
                u, v = parents[a], parents[b]
                if u.value == v.value:
                    continue
                for point, gap in _kernel_cdf_gaps(u.children, v.children, order):
                    # increasing: higher parent dominates, F_u >= F_v everywhere
                    if gap < 0 and inc:
                        inc = False
                        wit_inc = (stage, u.value, v.value, point)
                    if gap > 0 and dec:
                        dec = False
                        wit_dec = (stage, u.value, v.value, point)
            if not inc and not dec:
                break
        level = [c for n in level for c in n.children]
        stage += 1

    return MonotonicityReport(order=order, increasing=inc, decreasing=dec,
                              witness_increasing=wit_inc, witness_decreasing=wit_dec)


@dataclass(frozen=True)
class QuasiMonotoneReport:
    holds: bool
    witness: "tuple | None" = None


def check_quasi_monotone(cost: CostFunctional, xs: Sequence, ys: Sequence,
                         stages: int = 1) -> QuasiMonotoneReport:
    """Probe the rectangle inequality defining quasi-monotone stage costs.

    For every stage ``k`` and all ``x <= x'``, ``y <= y'`` from the probe
    grids, checks ``c(x, y) + c(x', y') <= c(x, y') + c(x', y)``.  A witness is
    ``(stage, x, x', y, y')``.
    """
    xv = sorted(_as_fraction(v) for v in xs)
    yv = sorted(_as_fraction(v) for v in ys)
    for k in range(1, stages + 1):
        for i, j in itertools.combinations(range(len(xv)), 2):
            for a, b in itertools.combinations(range(len(yv)), 2):
                lhs = cost.evaluate(k, xv[i], yv[a]) + cost.evaluate(k, xv[j], yv[b])
                rhs = cost.evaluate(k, xv[i], yv[b]) + cost.evaluate(k, xv[j], yv[a])
                if lhs > rhs:
                    return QuasiMonotoneReport(False, (k, xv[i], xv[j], yv[a], yv[b]))
    return QuasiMonotoneReport(True, None)


# ---------------------------------------------------------------------------
# named instances
# ---------------------------------------------------------------------------


def kr_suboptimal_pair() -> tuple[FiniteAdaptedProcess, FiniteAdaptedProcess]:
    """A two-stage pair where the monotone rearrangement is strictly suboptimal.

    Both processes start in ``{-1/2, +1/2}`` with equal mass.  The first
    process spreads to ``{-2, 2}`` from the low state and sits at ``0`` from
    the high state; the second spreads to ``{-2, 0}`` from the low state and
    to ``{-2, 2}`` from the high state.  Under the squared stagewise cost
    ``sum_k |x_k - y_k|^2`` the monotone rearrangement pays ``0 + (4 + 2)/2 =
    3``, while matching the first stage antitonically enables a perfect
    second-stage match of the spread-out kernels and pays ``1 + (2 + 0)/2 =
    2``, the exact optimum.  The first process is second-order but not
    first-order stochastically increasing (its kernel CDFs cross), while the
    second is first-order increasing, so the pair separates first- from
    second-order co-monotonicity as an optimality hypothesis.
    """
    half = Fraction(1, 2)
    mu = process(2, [
        node(-half, half, [node(-2, half), node(2, half)]),
        node(half, half, [node(0, 1)]),
    ])
    nu = process(2, [
        node(-half, half, [node(-2, half), node(0, half)]),
        node(half, half, [node(-2, half), node(2, half)]),
    ])
    return mu, nu


def perturbed_start_pair(eps) -> tuple[FiniteAdaptedProcess, FiniteAdaptedProcess]:
    """A pair whose bicausal couplings are forced to the stage-one product.

    The first process starts at ``+-eps`` with equal mass and then moves
    deterministically to ``+-1`` (same sign as its start); the second starts
    at ``0`` and moves to ``+-1`` with equal mass.  Any bicausal coupling must
    couple the stage-one marginals independently of the future, and the
    stage-two kernels are then maximally mismatched: under ``sum_k |x_k -
    y_k|^p`` the optimal value is exactly ``eps^p + 2^{p-1}``.
    """
    e = _as_fraction(eps)
    if not 0 < e < 1:
        raise ConfigurationError(f"eps must lie in (0, 1), got {e}")
    half = Fraction(1, 2)
    mu = process(2, [
        node(-e, half, [node(-1, 1)]),
        node(e, half, [node(1, 1)]),
    ])
    nu = process(2, [
        node(0, 1, [node(-1, half), node(1, half)]),
    ])
    return mu, nu
