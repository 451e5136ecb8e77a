"""Exact stagewise transport on finite trees: values, plans, order checks."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsde import (
    ConfigurationError,
    CostFunctional,
    antitone_first_plan,
    check_quasi_monotone,
    check_stochastic_monotone,
    exact_bicausal_value,
    knothe_rosenblatt,
    kr_suboptimal_pair,
    node,
    perturbed_start_pair,
    plan_cost,
    power_cost,
    process,
)
from awsde._instances import random_comonotone_pair, random_tree_process
from awsde.discrete_bicausal import _exact_coupling

SQ = power_cost(2)

# independently recomputed with a Hungarian-assignment recursion on equal atoms
FROZEN = {
    ("comonotone", 0, 1): 2.25, ("comonotone", 0, 2): 3.75,
    ("comonotone", 1, 1): 5.0, ("comonotone", 1, 2): 14.0,
    ("comonotone", 2, 1): 4.9375, ("comonotone", 2, 2): 14.3125,
    ("comonotone", 3, 1): 4.0, ("comonotone", 3, 2): 11.0,
    ("comonotone", 4, 1): 1.0, ("comonotone", 4, 2): 1.5,
    ("comonotone", 5, 1): 5.9375, ("comonotone", 5, 2): 25.8125,
    ("tree", 0, 1): 4.0625, ("tree", 0, 2): 14.4375,
    ("tree", 1, 1): 4.5, ("tree", 1, 2): 16.5,
    ("tree", 2, 1): 2.875, ("tree", 2, 2): 7.5,
    ("tree", 3, 1): 5.0, ("tree", 3, 2): 17.375,
    ("tree", 4, 1): 1.125, ("tree", 4, 2): 1.375,
    ("tree", 5, 1): 3.6875, ("tree", 5, 2): 9.6875,
}


def test_monotone_rearrangement_strictly_suboptimal():
    mu, nu = kr_suboptimal_pair()
    kr = plan_cost(knothe_rosenblatt(mu, nu), SQ)
    assert kr == Fraction(3)
    alt = plan_cost(antitone_first_plan(mu, nu), SQ)
    assert alt == Fraction(2)
    value, plan = exact_bicausal_value(mu, nu, SQ)
    assert value == Fraction(2)
    assert value < kr
    assert plan.certify_marginals(mu, nu) == {"x_marginal": True, "y_marginal": True}


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2)])
@pytest.mark.parametrize("p", [1, 2])
def test_forced_product_value(eps, p):
    mu, nu = perturbed_start_pair(eps)
    value, plan = exact_bicausal_value(mu, nu, power_cost(p))
    assert value == eps ** p + Fraction(2) ** (p - 1)
    assert plan.certify_marginals(mu, nu) == {"x_marginal": True, "y_marginal": True}


def test_forced_product_headline_number():
    mu, nu = perturbed_start_pair("1/10")
    value, _ = exact_bicausal_value(mu, nu, SQ)
    assert value == Fraction(201, 100)
    assert float(value) == 2.01


def test_identical_processes_cost_zero():
    rng = random.Random(4)
    mu = random_tree_process(rng, 2)
    assert plan_cost(knothe_rosenblatt(mu, mu), SQ) == 0
    value, _ = exact_bicausal_value(mu, mu, SQ)
    assert value == 0


def test_plan_cost_matches_path_enumeration():
    mu, nu = random_comonotone_pair(random.Random(7))
    plan = knothe_rosenblatt(mu, nu)

    def leaves(nodes, weight, prefix):
        for n in nodes:
            w = weight * n.mass
            path = prefix + [(n.x, n.y)]
            if n.children:
                yield from leaves(n.children, w, path)
            else:
                yield w, path

    total = Fraction(0)
    for w, path in leaves(plan.roots, Fraction(1), []):
        total += w * sum(abs(x - y) ** 2 for x, y in path)
    assert plan_cost(plan, SQ) == total


@pytest.mark.parametrize("p", [1, 2])
def test_comonotone_kr_is_optimal_frozen(p):
    for seed in range(6):
        mu, nu = random_comonotone_pair(random.Random(seed))
        cost = power_cost(p)
        value, _ = exact_bicausal_value(mu, nu, cost)
        kr = plan_cost(knothe_rosenblatt(mu, nu), cost)
        assert kr == value
        assert value == Fraction(FROZEN[("comonotone", seed, p)])


@pytest.mark.parametrize("p", [1, 2])
def test_exact_value_frozen_trees(p):
    for seed in range(6):
        rng = random.Random(1000 + seed)
        mu = random_tree_process(rng, 2)
        nu = random_tree_process(rng, 2)
        value, _ = exact_bicausal_value(mu, nu, power_cost(p))
        assert value == Fraction(FROZEN[("tree", seed, p)])


def _vertex_couplings(p, q):
    # extreme points of the transport polytope between <= 2-atom marginals
    if len(p) == 1:
        return [{(0, j): q[j] for j in range(len(q)) if q[j] > 0}]
    if len(q) == 1:
        return [{(i, 0): p[i] for i in range(len(p)) if p[i] > 0}]
    out = []
    for t in {min(p[0], q[0]), max(Fraction(0), p[0] - q[1])}:
        cells = {(0, 0): t, (0, 1): p[0] - t, (1, 0): q[0] - t, (1, 1): q[1] - p[0] + t}
        out.append({k: v for k, v in cells.items() if v > 0})
    return out


def _flat_plans(xs, ys, cost, stage):
    """Every stagewise vertex-product plan as (value,) -- no inner minimisation."""
    options = []
    for coup in _vertex_couplings([n.mass for n in xs], [n.mass for n in ys]):
        parts = []
        for (i, j), m in sorted(coup.items()):
            c = cost.evaluate(stage, xs[i].value, ys[j].value)
            if xs[i].children:
                subs = _flat_plans(xs[i].children, ys[j].children, cost, stage + 1)
            else:
                subs = [Fraction(0)]
            parts.append([m * (c + s) for s in subs])
        for combo in itertools.product(*parts):
            options.append(sum(combo, Fraction(0)))
    return options


def _random_binary_pair(rng):
    def grow(depth, stages):
        size = rng.randint(1, 2)
        values = sorted(rng.sample(range(-3, 4), size))
        masses = [Fraction(1)] if size == 1 else [Fraction(1, 2), Fraction(1, 2)]
        return [node(Fraction(v), m, grow(depth + 1, stages) if depth < stages else ())
                for v, m in zip(values, masses)]

    stages = rng.randint(1, 2)
    return process(stages, grow(1, stages)), process(stages, grow(1, stages))


def test_dp_agrees_with_flat_vertex_enumeration():
    # stagewise couplings optimise a linear objective, so some vertex-product
    # plan attains the optimum; enumerating all of them flat must match the
    # backward recursion exactly
    rng = random.Random(123)
    for _ in range(40):
        mu, nu = _random_binary_pair(rng)
        cost = power_cost(rng.choice((1, 2)))
        value, _ = exact_bicausal_value(mu, nu, cost)
        flat = min(_flat_plans(mu.roots, nu.roots, cost, 1))
        assert value == flat


def test_value_symmetric_in_arguments():
    for seed in range(4):
        rng = random.Random(50 + seed)
        mu = random_tree_process(rng, 2)
        nu = random_tree_process(rng, 2)
        a, _ = exact_bicausal_value(mu, nu, SQ)
        b, _ = exact_bicausal_value(nu, mu, SQ)
        assert a == b


def test_kr_marginals_certified_on_random_pairs():
    for seed in range(5):
        rng = random.Random(200 + seed)
        mu = random_tree_process(rng, 2)
        nu = random_tree_process(rng, 2)
        plan = knothe_rosenblatt(mu, nu)
        assert plan.certify_marginals(mu, nu) == {"x_marginal": True, "y_marginal": True}


def test_first_order_check_finds_crossing():
    mu, nu = kr_suboptimal_pair()
    report = check_stochastic_monotone(mu, order="first")
    assert report.verdict == "neither"
    half = Fraction(1, 2)
    assert report.witness_increasing == (1, -half, half, Fraction(0))
    assert report.witness_decreasing == (1, -half, half, Fraction(-2))
    # the kernels really do cross there: P(<= point) flips order
    assert check_stochastic_monotone(nu, order="first").verdict == "increasing"


def test_second_order_check_accepts_mean_preserving_spread():
    mu, _ = kr_suboptimal_pair()
    report = check_stochastic_monotone(mu, order="second")
    assert report.verdict == "increasing"
    assert report.witness_increasing is None


def test_identical_kernels_are_monotone_both_ways():
    half = Fraction(1, 2)
    kids = lambda: [node(0, half), node(1, half)]  # noqa: E731
    proc = process(2, [node(0, half, kids()), node(1, half, kids())])
    for order in ("first", "second"):
        assert check_stochastic_monotone(proc, order).verdict == "both"


def test_quasi_monotone_probe():
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    assert check_quasi_monotone(SQ, grid, grid).holds
    flipped = power_cost(2)
    negated = flipped.__class__(evaluate=lambda k, x, y: -flipped.evaluate(k, x, y), p=2.0)
    report = check_quasi_monotone(negated, grid, grid)
    assert not report.holds
    k, x, xp, y, yp = report.witness
    assert x < xp and y < yp
    lhs = negated.evaluate(k, x, y) + negated.evaluate(k, xp, yp)
    rhs = negated.evaluate(k, x, yp) + negated.evaluate(k, xp, y)
    assert lhs > rhs


def test_quasi_monotone_fractional_power():
    rng = random.Random(9)
    cost = power_cost(1.5)
    for _ in range(20):
        xs = sorted(rng.uniform(-3, 3) for _ in range(4))
        ys = sorted(rng.uniform(-3, 3) for _ in range(4))
        xs = [Fraction(round(v * 16), 16) for v in xs]
        ys = [Fraction(round(v * 16), 16) for v in ys]
        assert check_quasi_monotone(cost, xs, ys).holds


def test_float_inputs_refused_at_construction():
    with pytest.raises(ConfigurationError):
        node(0.5, Fraction(1))


def test_solves_beyond_the_old_atom_cap():
    # D = 15 equal atoms: an enumeration of atom bijections refused this pair
    mu = process(1, [node(0, Fraction(1, 3)), node(1, Fraction(2, 3))])
    nu = process(1, [node(0, Fraction(1, 5)), node(1, Fraction(4, 5))])
    value, plan = exact_bicausal_value(mu, nu, SQ)
    assert value == Fraction(2, 15)
    assert value == plan_cost(knothe_rosenblatt(mu, nu), SQ)
    assert plan.certify_marginals(mu, nu) == {"x_marginal": True, "y_marginal": True}


def test_one_stage_pair_in_97ths_equals_its_kr_cost():
    # on the line the quantile coupling is optimal for a convex cost of x - y
    mu = process(1, [node(0, Fraction(10, 97)), node(1, Fraction(40, 97)),
                     node(3, Fraction(47, 97))])
    nu = process(1, [node(-1, Fraction(50, 97)), node(2, Fraction(20, 97)),
                     node(4, Fraction(27, 97))])
    value, plan = exact_bicausal_value(mu, nu, SQ)
    assert value == plan_cost(knothe_rosenblatt(mu, nu), SQ)
    assert value == plan_cost(plan, SQ)
    assert plan.certify_marginals(mu, nu) == {"x_marginal": True, "y_marginal": True}


def _enumerated_coupling(px, py, cost_matrix):
    """The atom-bijection enumeration the simplex replaced, kept as an oracle."""
    if len(px) == 1:
        return (
            sum(py[j] * cost_matrix[0][j] for j in range(len(py))),
            {(0, j): py[j] for j in range(len(py)) if py[j] > 0},
        )
    if len(py) == 1:
        return (
            sum(px[i] * cost_matrix[i][0] for i in range(len(px))),
            {(i, 0): px[i] for i in range(len(px)) if px[i] > 0},
        )
    d = lcm(*(f.denominator for f in itertools.chain(px, py)))
    x_atoms = [i for i, m in enumerate(px) for _ in range(int(m * d))]
    y_atoms = [j for j, m in enumerate(py) for _ in range(int(m * d))]
    nonneg = all(cost_matrix[i][j] >= 0 for i in range(len(px)) for j in range(len(py)))
    best = None
    best_perm = None
    for perm in itertools.permutations(range(d)):
        total = cost_matrix[x_atoms[0]][y_atoms[perm[0]]]
        for t in range(1, d):
            total = total + cost_matrix[x_atoms[t]][y_atoms[perm[t]]]
            if nonneg and best is not None and total >= best:
                break
        else:
            if best is None or total < best:
                best = total
                best_perm = perm
    coupling = {}
    unit = Fraction(1, d)
    for t in range(d):
        key = (x_atoms[t], y_atoms[best_perm[t]])
        coupling[key] = coupling.get(key, Fraction(0)) + unit
    return best * unit, coupling


@st.composite
def _transport_instances(draw):
    """Masses in ``1/D`` for ``D <= 6``, 1-4 atoms a side, signed and tied costs."""
    d = draw(st.integers(min_value=1, max_value=6))

    def masses():
        count = draw(st.integers(min_value=1, max_value=min(4, d)))
        cuts = sorted(draw(st.lists(st.integers(min_value=1, max_value=d - 1), min_size=count - 1,
                                    max_size=count - 1, unique=True))) if count > 1 else []
        edges = [0, *cuts, d]
        return [Fraction(edges[i + 1] - edges[i], d) for i in range(count)]

    px, py = masses(), masses()
    entry = st.builds(Fraction, st.integers(min_value=-2, max_value=2), st.sampled_from((1, 2)))
    cost_matrix = [[draw(entry) for _ in py] for _ in px]
    return px, py, cost_matrix


@given(_transport_instances())
@settings(max_examples=300, deadline=None)
def test_simplex_agrees_with_the_enumeration(instance):
    px, py, cost_matrix = instance
    value, coupling = _exact_coupling(px, py, cost_matrix)
    assert value == _enumerated_coupling(px, py, cost_matrix)[0]
    assert all(m > 0 for m in coupling.values())
    for i, m in enumerate(px):
        assert sum(f for (a, _), f in coupling.items() if a == i) == m
    for j, m in enumerate(py):
        assert sum(f for (_, b), f in coupling.items() if b == j) == m
    assert sum(f * cost_matrix[i][j] for (i, j), f in coupling.items()) == value


def test_float_costs_agree_with_the_enumeration():
    cost = power_cost(1.5)
    xs = [(Fraction(-1), Fraction(1, 6)), (Fraction(1, 2), Fraction(1, 2)),
          (Fraction(2), Fraction(1, 3))]
    ys = [(Fraction(0), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 3)),
          (Fraction(3), Fraction(1, 6))]
    mu = process(1, [node(v, m) for v, m in xs])
    nu = process(1, [node(v, m) for v, m in ys])
    value, plan = exact_bicausal_value(mu, nu, cost)
    matrix = [[cost.evaluate(1, x, y) for y, _ in ys] for x, _ in xs]
    expected, _ = _enumerated_coupling([m for _, m in xs], [m for _, m in ys], matrix)
    assert isinstance(value, float)
    assert value == pytest.approx(expected, rel=1e-12, abs=0)
    assert plan.certify_marginals(mu, nu) == {"x_marginal": True, "y_marginal": True}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_cost_refused(bad):
    mu = process(2, [node(0, Fraction(1, 2), [node(0, 1)]),
                     node(1, Fraction(1, 2), [node(1, 1)])])
    nu = process(2, [node(0, 1, [node(-1, Fraction(1, 2)), node(2, Fraction(1, 2))])])
    cost = CostFunctional(
        evaluate=lambda k, x, y: bad if (k, x, y) == (2, 1, 2) else float(abs(x - y)), p=1.0)
    with pytest.raises(ConfigurationError, match=f"stage 2 for x=1, y=2 is {bad}"):
        exact_bicausal_value(mu, nu, cost)


@st.composite
def _tiny_processes(draw):
    stages = draw(st.integers(min_value=1, max_value=2))
    values = st.integers(min_value=-3, max_value=3)

    def grow(depth):
        size = draw(st.integers(min_value=1, max_value=2))
        vals = sorted(draw(st.lists(values, min_size=size, max_size=size, unique=True)))
        mass = Fraction(1, size)
        return [node(Fraction(v), mass, grow(depth + 1) if depth < stages else ())
                for v in vals]

    return process(stages, grow(1))


@given(_tiny_processes(), _tiny_processes())
@settings(max_examples=40, deadline=None)
def test_value_nonnegative_and_diagonal_zero(mu, nu):
    if mu.stages != nu.stages:
        return
    value, plan = exact_bicausal_value(mu, nu, SQ)
    assert value >= 0
    assert plan.certify_marginals(mu, nu) == {"x_marginal": True, "y_marginal": True}
    diag, _ = exact_bicausal_value(mu, mu, SQ)
    assert diag == 0


def test_certify_marginals_rejects_unnormalised_plan():
    # halving one root mass leaves masses that sum to less than one: the plan
    # certifies neither marginal, and no validation error escapes
    mu, nu = kr_suboptimal_pair()
    _, plan = exact_bicausal_value(mu, nu, SQ)
    root = plan.roots[0]
    broken = replace(plan, roots=(replace(root, mass=root.mass / 2),) + plan.roots[1:])
    assert broken.certify_marginals(mu, nu) == {"x_marginal": False, "y_marginal": False}


def test_power_cost_refuses_infinite_and_nan_p():
    for p in (float("inf"), float("nan"), 0.5, 0):
        with pytest.raises(ConfigurationError, match="power cost needs"):
            power_cost(p)
