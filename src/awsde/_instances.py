"""Deterministic random instances for sweeps and property tests.

Every generator draws from a caller-supplied ``random.Random``, so one seed
pins an entire sweep.  All masses keep denominators at or below four, which
keeps the trees small, and all values are small integers so costs stay exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate

from .discrete_bicausal import FiniteAdaptedProcess, node, process
from .stopping import PathPayoff

__all__ = [
    "random_comonotone_pair",
    "random_tree_process",
    "random_stopping_instance",
]


def _support(rng: random.Random, low: int = -3, high: int = 3) -> tuple[Fraction, ...]:
    size = rng.randint(2, 3)
    return tuple(Fraction(v) for v in sorted(rng.sample(range(low, high + 1), size)))


def _positive_masses(rng: random.Random, count: int, units: int = 4) -> list[Fraction]:
    """A random composition of ``units`` equal parts into ``count`` positive masses."""
    cuts = sorted(rng.sample(range(1, units), count - 1))
    edges = [0, *cuts, units]
    return [Fraction(edges[i + 1] - edges[i], units) for i in range(count)]


def _mass_vector(rng: random.Random, size: int, units: int = 2) -> list[Fraction]:
    """Possibly-degenerate masses over ``size`` slots with denominator ``units``."""
    slots = [rng.randrange(size) for _ in range(units)]
    return [Fraction(slots.count(i), units) for i in range(size)]


def _dominating(rng: random.Random, base: list[Fraction]) -> list[Fraction]:
    """A mass vector on the same grid that dominates ``base`` in first order.

    Takes the pointwise minimum of a fresh random CDF with the base CDF; the
    result is a valid CDF lying at or below it, hence stochastically larger.
    """
    other = _mass_vector(rng, len(base))
    cdf = [min(a, b) for a, b in zip(accumulate(other), accumulate(base))]
    return [cdf[0], *(cdf[i] - cdf[i - 1] for i in range(1, len(cdf)))]


def _increasing_process(rng: random.Random, stages: int) -> FiniteAdaptedProcess:
    """A Markov process whose kernels increase in first-order dominance.

    Stage kernels are mixtures ``lam * top + (1 - lam) * bottom`` of a fixed
    dominating pair, with the mixing weight nondecreasing in the parent value;
    equal parent values share one kernel, so the law is Markov and
    stochastically increasing by construction.
    """
    root_support = _support(rng)
    root_masses = _positive_masses(rng, len(root_support))
    kernels: list[dict[Fraction, list[tuple[Fraction, Fraction]]]] = []
    prev_support = root_support
    for _ in range(stages - 1):
        grid = _support(rng)
        bottom = _mass_vector(rng, len(grid))
        top = _dominating(rng, bottom)
        lams = sorted(
            rng.choice((Fraction(0), Fraction(1, 2), Fraction(1))) for _ in prev_support
        )
        kernel: dict[Fraction, list[tuple[Fraction, Fraction]]] = {}
        for value, lam in zip(prev_support, lams):
            masses = [lam * t + (1 - lam) * b for t, b in zip(top, bottom)]
            kernel[value] = [(g, m) for g, m in zip(grid, masses) if m > 0]
        kernels.append(kernel)
        prev_support = grid

    def build(value: Fraction, mass: Fraction, depth: int):
        if depth == stages:
            return node(value, mass)
        children = [build(v, m, depth + 1) for v, m in kernels[depth - 1][value]]
        return node(value, mass, children)

    roots = [build(v, m, 1) for v, m in zip(root_support, root_masses)]
    return process(stages, roots)


def random_comonotone_pair(
    rng: random.Random, stages: "int | None" = None
) -> tuple[FiniteAdaptedProcess, FiniteAdaptedProcess]:
    """Two independent stochastically increasing Markov processes."""
    n = stages if stages is not None else rng.randint(2, 3)
    return _increasing_process(rng, n), _increasing_process(rng, n)


def random_tree_process(rng: random.Random, stages: "int | None" = None) -> FiniteAdaptedProcess:
    """An arbitrary small adapted process (no monotonicity structure)."""
    n = stages if stages is not None else rng.randint(2, 3)

    def grow(depth: int) -> list:
        size = rng.randint(1, 3)
        values = sorted(rng.sample(range(-3, 4), size))
        masses = _positive_masses(rng, size)
        return [
            node(Fraction(v), m, grow(depth + 1) if depth < n else ())
            for v, m in zip(values, masses)
        ]

    return process(n, grow(1))


def random_stopping_instance(
    rng: random.Random,
) -> tuple[FiniteAdaptedProcess, FiniteAdaptedProcess, PathPayoff, int]:
    """A tree pair with a random separable 1-Lipschitz payoff and an exponent.

    The payoff reads only the current coordinate through a kink function with
    slope at most one, so its Lipschitz constant is 1 for every stagewise
    l^p norm; all evaluations stay rational.
    """
    n = rng.randint(2, 3)
    mu = random_tree_process(rng, n)
    nu = random_tree_process(rng, n)
    slopes = tuple(Fraction(rng.choice((-2, -1, 1, 2)), 2) for _ in range(n))
    centers = tuple(rng.randint(-2, 2) for _ in range(n))
    offsets = tuple(rng.randint(-2, 2) for _ in range(n))

    def evaluate(k: int, prefix: tuple):
        return offsets[k - 1] + slopes[k - 1] * abs(prefix[-1] - centers[k - 1])

    payoff = PathPayoff(
        evaluate=evaluate,
        lipschitz_constant=1.0,
        objective=rng.choice(("inf", "sup")),
        name="separable-kink",
    )
    return mu, nu, payoff, rng.choice((1, 2))
