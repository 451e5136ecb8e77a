"""Workload ``exact_trees``: exact bicausal transport and stopping on seeded trees.

Pure-Python ``Fraction`` arithmetic with numpy idle.  Each round solves:

- four tree pairs with ``exact_bicausal_value`` under ``|x - y|^p``: a
  co-monotone and an arbitrary pair with 2 stages and p = 1, and with 3
  stages and p = 2.  Root masses are in sevenths, so each root coupling
  enumerates 7! atom bijections; kernels below the root are in quarters.
  (Eighths would take about 1.2 s per root coupling, too long a round to
  repeat often enough for a steady median.)  The second process sits 8
  above the first: the cost entries are then close relative to their size,
  so the pruned enumeration runs near its full length on every seed;
- six stopping instances with ``stopping_stability_gap`` (payoffs separable
  and 1-Lipschitz, built like those of ``random_stopping_instance``);

Every tree has the same shape on every seed (three roots, three children
per inner node, child masses a seeded order of 1/4, 1/4, 1/2), and the
stopping instances' stages, exponents and objectives follow their index:
the seed draws values, root-mass splits and payoff kinks, so the work of a
round stays the same from seed to seed.
- ``snell_value`` of ``perturbed_start_pair(eps)`` for three values of eps.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path

# (kind, stages, p)
PAIRS = (("comonotone", 2, 1), ("comonotone", 3, 2), ("arbitrary", 2, 1), ("arbitrary", 3, 2))
STOPPING_INSTANCES = 6
EPS_COUNT = 3
SHIFT = 8
ROOT_UNITS = 7
KERNEL_UNITS = 4
# Child masses below the root, one order per rank of the parent: the CDFs
# (1/2, 3/4, 1), (1/4, 3/4, 1), (1/4, 1/2, 1) decrease pointwise.  Every
# inner coupling then splits into 4 atoms.
CHILD_MASSES = tuple(tuple(Fraction(m, KERNEL_UNITS) for m in masses)
                     for masses in ((2, 1, 1), (1, 2, 1), (1, 1, 2)))
FLOAT_RTOL = 1e-9


class ExactTrees:
    ops_per_round = len(PAIRS) + STOPPING_INSTANCES + EPS_COUNT

    def __init__(self, seed: int, out: Path) -> None:
        rng = random.Random(seed)
        self.out = out
        self.pairs = []
        for kind, stages, p in PAIRS:
            make = increasing_process if kind == "comonotone" else arbitrary_process
            mu = make(rng, stages, ROOT_UNITS, 0)
            nu = make(rng, stages, ROOT_UNITS, SHIFT)
            self.pairs.append((kind, stages, p, mu, nu))
        self.stopping = [stopping_instance(rng, i) for i in range(STOPPING_INSTANCES)]
        self.eps = [Fraction(rng.randint(1, 19), 20) for _ in range(EPS_COUNT)]

    def round(self) -> dict:
        import awsde.discrete_bicausal as discrete_bicausal
        import awsde.stopping as stopping
        from awsde import coordinate_payoff, perturbed_start_pair, power_cost

        solved = []
        for kind, stages, p, mu, nu in self.pairs:
            value, plan = discrete_bicausal.exact_bicausal_value(mu, nu, power_cost(p))
            solved.append({"kind": kind, "stages": stages, "p": p, "value": value,
                           "plan": plan})
        gaps = [list(stopping.stopping_stability_gap(mu, nu, payoff, p))
                for mu, nu, payoff, p in self.stopping]
        sup = coordinate_payoff(objective="sup")
        snell = [stopping.snell_value(perturbed_start_pair(eps)[0], sup) for eps in self.eps]
        return {"pairs": solved, "gaps": gaps, "snell": snell}

    def write_artifacts(self, outputs: dict) -> None:
        record = {
            "pairs": [{"kind": s["kind"], "stages": s["stages"], "p": s["p"],
                       "value": str(s["value"])} for s in outputs["pairs"]],
            "stability_gaps": outputs["gaps"],
            "snell_perturbed_start": [{"eps": str(e), "value": str(v)}
                                      for e, v in zip(self.eps, outputs["snell"])],
        }
        (self.out / "exact_trees.json").write_text(json.dumps(record, indent=2) + "\n")

    def references(self, outputs: dict) -> dict:
        from awsde import (antitone_first_plan, check_stochastic_monotone, knothe_rosenblatt,
                           plan_cost, power_cost)

        refs = {"processes": [], "kr": [], "antitone": [], "float": [], "comonotone": []}
        for kind, stages, p, mu, nu in self.pairs:
            if kind == "comonotone":
                refs["comonotone"].append(all(check_stochastic_monotone(t).increasing
                                              for t in (mu, nu)))
            cost = power_cost(p)
            refs["processes"].append((mu, nu))
            refs["kr"].append(plan_cost(knothe_rosenblatt(mu, nu), cost))
            refs["antitone"].append(plan_cost(antitone_first_plan(mu, nu), cost))
            refs["float"].append(nested_float_value(mu.roots, nu.roots, p))
        refs["eps"] = list(self.eps)
        return refs

    @staticmethod
    def check(outputs: dict, refs: dict) -> dict[str, list[str]]:
        from awsde import AwsdeError, plan_cost, power_cost

        failures: dict[str, list[str]] = {
            "comonotone_inputs": [], "kr_optimal": [], "plan_upper_bounds": [],
            "plan_certificates": [], "float_crosscheck": [], "stability_bound": [],
            "snell_perturbed_start": [],
        }
        if not all(refs["comonotone"]):
            failures["comonotone_inputs"].append("a co-monotone input is not increasing")
        for i, solved in enumerate(outputs["pairs"]):
            value, plan = solved["value"], solved["plan"]
            mu, nu = refs["processes"][i]
            kr, anti = refs["kr"][i], refs["antitone"][i]
            where = f"pair {i} ({solved['kind']}, {solved['stages']} stages, p={solved['p']})"
            if solved["kind"] == "comonotone" and value != kr:
                failures["kr_optimal"].append(f"{where}: value {value} != KR cost {kr}")
            if not (value <= kr and value <= anti):
                failures["plan_upper_bounds"].append(
                    f"{where}: value {value} above KR {kr} or antitone {anti}")
            try:
                certified = all(plan.certify_marginals(mu, nu).values())
            except AwsdeError:  # a projection whose masses do not sum to one
                certified = False
            cost = plan_cost(plan, power_cost(solved["p"]))
            if not certified or cost != value:
                failures["plan_certificates"].append(
                    f"{where}: marginals certified {certified}, plan cost {cost} vs value {value}")
            ref = refs["float"][i]
            if not abs(float(value) - ref) <= FLOAT_RTOL * max(1.0, abs(ref)):
                failures["float_crosscheck"].append(f"{where}: {float(value)!r} vs {ref!r}")
        for i, (lhs, rhs) in enumerate(outputs["gaps"]):
            # float rounding of rhs = value^(1/p) may sit one ulp under an exact tie
            if not lhs <= rhs * (1.0 + 1e-12):
                failures["stability_bound"].append(f"instance {i}: lhs {lhs!r} > rhs {rhs!r}")
        for eps, value in zip(refs["eps"], outputs["snell"]):
            if value != (1 - eps) / 2:
                failures["snell_perturbed_start"].append(
                    f"eps={eps}: {value} != {(1 - eps) / 2}")
        return failures

    @staticmethod
    def mutations(outputs: dict, refs: dict) -> list:
        first_comonotone = 0
        first_arbitrary = next(i for i, s in enumerate(outputs["pairs"])
                               if s["kind"] == "arbitrary")

        def off_comonotone(o):
            o["pairs"][first_comonotone]["value"] += Fraction(1, 1000)

        def above_kr(o):
            o["pairs"][first_arbitrary]["value"] = refs["kr"][first_arbitrary] + 1

        def broken_plan(o):
            plan = o["pairs"][first_arbitrary]["plan"]
            root = plan.roots[0]
            o["pairs"][first_arbitrary]["plan"] = replace(
                plan, roots=(replace(root, mass=root.mass / 2),) + plan.roots[1:])

        def off_arbitrary(o):
            o["pairs"][first_arbitrary]["value"] += Fraction(1, 1000)

        def gap_above(o):
            o["gaps"][0][0] = o["gaps"][0][1] + 0.1

        def off_snell(o):
            o["snell"][0] += Fraction(1, 1000)

        return [("kr_optimal", off_comonotone), ("plan_upper_bounds", above_kr),
                ("plan_certificates", broken_plan), ("float_crosscheck", off_arbitrary),
                ("stability_bound", gap_above), ("snell_perturbed_start", off_snell)]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _values(rng: random.Random, size: int, shift: int) -> list[int]:
    return sorted(v + shift for v in rng.sample(range(-3, 4), size))


def _root_masses(rng: random.Random, units: int) -> list[Fraction]:
    """Three positive root masses in ``1/units``, with ``units`` their common denominator."""
    while True:
        cuts = sorted(rng.sample(range(1, units), 2))
        masses = [Fraction(hi - lo, units) for lo, hi in zip([0, *cuts], [*cuts, units])]
        if lcm(*(m.denominator for m in masses)) == units:
            return masses


def increasing_process(rng: random.Random, stages: int, root_units: int, shift: int):
    """A Markov process whose kernels increase in first-order dominance.

    Each stage draws a grid of three values; the parent of rank r (lowest
    first) puts ``CHILD_MASSES[r]`` on it.  Those CDFs are pointwise
    decreasing in r, so every kernel dominates those of lower parents.
    """
    from awsde import node, process

    roots = _values(rng, 3, shift)
    kernels = []
    parents = roots
    for _ in range(stages - 1):
        grid = _values(rng, 3, shift)
        kernels.append({parent: list(zip(grid, CHILD_MASSES[r])) for r, parent in enumerate(parents)})
        parents = grid

    def build(value, mass, depth):
        if depth == stages:
            return node(value, mass)
        return node(value, mass, [build(v, m, depth + 1) for v, m in kernels[depth - 1][value]])

    masses = _root_masses(rng, root_units)
    return process(stages, [build(v, m, 1) for v, m in zip(roots, masses)])


def arbitrary_process(rng: random.Random, stages: int, root_units: int, shift: int):
    """A tree with no monotone structure: every node draws its own kernel.

    Every node draws three child values and one of the ``CHILD_MASSES``
    orders, so the tree's shape is the same on every seed.
    """
    from awsde import node, process

    def grow(depth: int, masses) -> list:
        values = _values(rng, 3, shift)
        return [node(v, m, grow(depth + 1, rng.choice(CHILD_MASSES)) if depth < stages else ())
                for v, m in zip(values, masses)]

    return process(stages, grow(1, _root_masses(rng, root_units)))


def stopping_instance(rng: random.Random, index: int):
    """Two quarter-mass trees, a separable 1-Lipschitz kink payoff and an exponent.

    Stages, exponent and objective follow ``index``, so every seed solves
    the same mix; the seed draws the trees and the payoff's kinks.
    """
    from awsde.stopping import PathPayoff

    stages = 2 + index % 2
    mu = arbitrary_process(rng, stages, KERNEL_UNITS, 0)
    nu = arbitrary_process(rng, stages, KERNEL_UNITS, 0)
    slopes = tuple(Fraction(rng.choice((-2, -1, 1, 2)), 2) for _ in range(stages))
    centers = tuple(rng.randint(-2, 2) for _ in range(stages))
    offsets = tuple(rng.randint(-2, 2) for _ in range(stages))

    def evaluate(k: int, prefix: tuple):
        return offsets[k - 1] + slopes[k - 1] * abs(prefix[-1] - centers[k - 1])

    payoff = PathPayoff(evaluate=evaluate, lipschitz_constant=1.0,
                        objective=("inf", "sup")[index // 2 % 2], name="separable-kink")
    return mu, nu, payoff, 1 + index // 4 % 2


# ---------------------------------------------------------------------------
# float cross-check
# ---------------------------------------------------------------------------


def nested_float_value(xs, ys, p: int, stage: int = 1) -> float:
    """The backward recursion in floats, each inner coupling by scipy's assignment solver.

    Both kernels are split into ``D`` equal atoms; for equal atoms an
    optimal transport plan is an assignment.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    sub = [[nested_float_value(x.children, y.children, p, stage + 1) if x.children else 0.0
            for y in ys] for x in xs]
    cost = np.array([[abs(float(x.value) - float(y.value)) ** p + sub[i][j]
                      for j, y in enumerate(ys)] for i, x in enumerate(xs)])
    d = lcm(*(n.mass.denominator for n in (*xs, *ys)))
    rows = [i for i, x in enumerate(xs) for _ in range(int(x.mass * d))]
    cols = [j for j, y in enumerate(ys) for _ in range(int(y.mass * d))]
    matrix = cost[np.ix_(rows, cols)]
    r, c = linear_sum_assignment(matrix)
    return float(matrix[r, c].sum() / d)
