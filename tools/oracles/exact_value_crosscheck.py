"""Oracle: independent stagewise transport values for random tree pairs.

Recomputes the nested (stagewise) optimal transport value with a standalone
recursion that solves every one-stage subproblem as an assignment problem via
scipy's Hungarian algorithm on equal-mass atoms, in floats, instead of the
package's exact transportation simplex.  Instances come from the package's seeded generators
(the generators are deterministic data, the value computation here is
independent).  Printed values are frozen into tests.

Run:  python3 tools/oracles/exact_value_crosscheck.py
"""

import random
from fractions import Fraction
from math import lcm

import numpy as np
from scipy.optimize import linear_sum_assignment

from awsde._instances import random_comonotone_pair, random_tree_process


def assignment_value(px, py, cost):
    """Optimal transport between rational atom lists (cost matrix of floats)."""
    d = lcm(*(m.denominator for m in px + py))
    xa = [i for i, m in enumerate(px) for _ in range(int(m * d))]
    ya = [j for j, m in enumerate(py) for _ in range(int(m * d))]
    matrix = np.array([[cost[i][j] for j in ya] for i in xa])
    rows, cols = linear_sum_assignment(matrix)
    return matrix[rows, cols].sum() / d


def nested_value(xs, ys, stage, p):
    sub = [[nested_value(xn.children, yn.children, stage + 1, p) if xn.children else 0.0
            for yn in ys] for xn in xs]
    cost = [[abs(float(xn.value) - float(yn.value)) ** p + sub[i][j]
             for j, yn in enumerate(ys)] for i, xn in enumerate(xs)]
    return assignment_value([n.mass for n in xs], [n.mass for n in ys], cost)


def main() -> None:
    print("# (kind, seed, p) -> value")
    for seed in range(6):
        rng = random.Random(seed)
        mu, nu = random_comonotone_pair(rng)
        for p in (1, 2):
            v = nested_value(mu.roots, nu.roots, 1, p)
            print(f'("comonotone", {seed}, {p}): {v!r},')
    for seed in range(6):
        rng = random.Random(1000 + seed)
        mu = random_tree_process(rng, 2)
        nu = random_tree_process(rng, 2)
        for p in (1, 2):
            v = nested_value(mu.roots, nu.roots, 1, p)
            print(f'("tree", {seed}, {p}): {v!r},')


if __name__ == "__main__":
    main()
