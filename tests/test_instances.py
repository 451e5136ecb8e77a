"""Seeded instance generators: determinism and the structure they promise."""

import random
from fractions import Fraction
from math import lcm

from awsde import check_stochastic_monotone, verify_payoff_lipschitz
from awsde._instances import (
    random_comonotone_pair,
    random_stopping_instance,
    random_tree_process,
)


def _canon(nodes):
    return tuple(sorted((n.value, n.mass, _canon(n.children)) for n in nodes))


def processes_equal(a, b):
    """Exact equality of the laws of two trees; sibling order is irrelevant."""
    return a.stages == b.stages and _canon(a.roots) == _canon(b.roots)


def _sibling_groups(proc):
    level = [proc.roots]
    while level:
        nxt = []
        for group in level:
            yield group
            nxt.extend(n.children for n in group if n.children)
        level = nxt


def test_generators_deterministic():
    a1, b1 = random_comonotone_pair(random.Random(12))
    a2, b2 = random_comonotone_pair(random.Random(12))
    assert processes_equal(a1, a2) and processes_equal(b1, b2)
    t1 = random_tree_process(random.Random(12), 2)
    t2 = random_tree_process(random.Random(12), 2)
    assert processes_equal(t1, t2)
    assert not processes_equal(t1, random_tree_process(random.Random(13), 2))


def test_comonotone_pairs_are_stochastically_increasing():
    for seed in range(25):
        mu, nu = random_comonotone_pair(random.Random(seed))
        for proc in (mu, nu):
            report = check_stochastic_monotone(proc, order="first")
            assert report.increasing, (seed, report)


def test_masses_exact_and_small_denominator():
    for seed in range(15):
        mu, nu = random_comonotone_pair(random.Random(seed))
        tree = random_tree_process(random.Random(seed), 2)
        for proc in (mu, nu, tree):
            for group in _sibling_groups(proc):
                masses = [n.mass for n in group]
                assert sum(masses, Fraction(0)) == 1
                assert all(isinstance(m, Fraction) and m > 0 for m in masses)
                assert lcm(*(m.denominator for m in masses)) <= 8


def test_sizes_stay_within_caps():
    for seed in range(15):
        mu, nu = random_comonotone_pair(random.Random(seed))
        tree = random_tree_process(random.Random(seed))
        for proc in (mu, nu, tree):
            assert proc.stages <= 3
            for group in _sibling_groups(proc):
                assert 1 <= len(group) <= 3


def test_stopping_instances_have_honest_constants():
    for seed in range(20):
        mu, nu, payoff, p = random_stopping_instance(random.Random(seed))
        assert mu.stages == nu.stages
        assert p in (1, 2)
        assert payoff.lipschitz_constant == 1.0
        verify_payoff_lipschitz(payoff, (mu, nu), p)
        # payoff evaluations stay rational for exact snell values
        probe = payoff.evaluate(1, (Fraction(1, 2),))
        assert isinstance(probe, Fraction)
