"""Optimal stopping values on finite trees and the robust stability bound."""

import math
import random
from fractions import Fraction

import pytest

from awsde import (
    AssumptionError,
    ConfigurationError,
    PathPayoff,
    coordinate_payoff,
    node,
    perturbed_start_pair,
    process,
    snell_value,
    stopping_stability_gap,
    verify_payoff_lipschitz,
)
from awsde._instances import random_stopping_instance, random_tree_process

SUP = coordinate_payoff("sup")

#: node-count cap for the exhaustive stopping-rule enumeration
ENUMERATION_CAP = 8


class InstanceTooLargeError(Exception):
    """A tree exceeds the enumeration's ``ENUMERATION_CAP`` nodes."""


def enumerate_stopping_value(proc, payoff):
    """Optimum over an exhaustive enumeration of adapted stopping rules.

    A rule picks stop/continue at every inner history (leaves always stop);
    that is exactly an adapted stopping time on the tree.  An oracle for
    :func:`snell_value` on trees with at most ``ENUMERATION_CAP`` nodes;
    larger trees raise :class:`InstanceTooLargeError`.
    """
    total = 0
    inner = {}

    def index(n, path):
        nonlocal total
        total += 1
        if n.children:
            inner[path] = len(inner)
            for i, c in enumerate(n.children):
                index(c, path + (i,))

    for i, r in enumerate(proc.roots):
        index(r, (i,))
    if total > ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"enumeration handles at most {ENUMERATION_CAP} nodes, got {total}"
        )

    def rule_value(mask):
        def walk(n, path, prefix, stage):
            if not n.children or (mask >> inner[path]) & 1:
                return payoff.evaluate(stage, prefix)
            return sum(
                c.mass * walk(c, path + (i,), prefix + (c.value,), stage + 1)
                for i, c in enumerate(n.children)
            )

        return sum(r.mass * walk(r, (i,), (r.value,), 1) for i, r in enumerate(proc.roots))

    opt = max if payoff.objective == "sup" else min
    return opt(rule_value(mask) for mask in range(1 << len(inner)))


def _running_sum_payoff(step: Fraction) -> PathPayoff:
    """``L(k, g) = step * (g_1 + ... + g_k)`` on two-stage trees, to be maximised."""
    return PathPayoff(evaluate=lambda k, prefix: step * sum(prefix),
                      lipschitz_constant=float(step) * math.sqrt(2.0),
                      objective="sup", name="running-sum")


def test_martingale_sup_value_zero():
    _, nu = perturbed_start_pair(Fraction(1, 10))
    assert snell_value(nu, SUP) == 0


@pytest.mark.parametrize("eps, expected", [
    (Fraction(1, 10), Fraction(9, 20)),
    (Fraction(3, 10), Fraction(7, 20)),
])
def test_perturbed_start_sup_value(eps, expected):
    mu, _ = perturbed_start_pair(eps)
    value = snell_value(mu, SUP)
    assert value == expected
    assert value == (1 - eps) / 2


def test_constant_process_value_is_the_constant():
    proc = process(2, [node(3, Fraction(1), [node(3, Fraction(1))])])
    for objective in ("sup", "inf"):
        payoff = coordinate_payoff(objective)
        assert snell_value(proc, payoff) == 3
        assert enumerate_stopping_value(proc, payoff) == 3


def test_sup_is_negated_inf_of_negated_payoff():
    for seed in range(5):
        proc = random_tree_process(random.Random(seed), 2)
        for payoff in (SUP, _running_sum_payoff(Fraction(1, 2))):
            negated = PathPayoff(evaluate=lambda k, prefix, f=payoff.evaluate: -f(k, prefix),
                                 lipschitz_constant=payoff.lipschitz_constant, objective="inf")
            assert snell_value(proc, payoff) == -snell_value(proc, negated)


def test_snell_matches_exhaustive_rule_enumeration():
    for seed in range(6):
        proc = random_tree_process(random.Random(40 + seed), 2)
        try:
            for payoff in (SUP, coordinate_payoff("inf"),
                           _running_sum_payoff(Fraction(1, 4))):
                assert snell_value(proc, payoff) == enumerate_stopping_value(proc, payoff)
        except InstanceTooLargeError:
            continue


def test_snell_dominates_fixed_stage_rules():
    proc = random_tree_process(random.Random(17), 2)
    value = snell_value(proc, SUP)

    def fixed_stage(k):
        def rec(n, prefix, stage):
            prefix = prefix + (n.value,)
            if stage == k or not n.children:
                return SUP.evaluate(stage, prefix)
            return sum(c.mass * rec(c, prefix, stage + 1) for c in n.children)

        return sum(r.mass * rec(r, (), 1) for r in proc.roots)

    for k in (1, 2, 3):
        assert fixed_stage(k) <= value


def test_enumeration_cap():
    kids = [node(v, Fraction(1, 3)) for v in (-1, 0, 1)]
    roots = [node(v, Fraction(1, 3), kids) for v in (-1, 0, 1)]
    with pytest.raises(InstanceTooLargeError):
        enumerate_stopping_value(process(2, roots), SUP)


def test_stability_gap_identical_processes():
    mu = random_tree_process(random.Random(3), 2)
    lhs, rhs = stopping_stability_gap(mu, mu, SUP, 2)
    assert lhs == 0.0
    assert rhs == 0.0


def test_stability_gap_forced_product_pair():
    mu, nu = perturbed_start_pair(Fraction(1, 10))
    lhs, rhs = stopping_stability_gap(mu, nu, SUP, 2)
    assert lhs == pytest.approx(0.45, abs=1e-15)
    assert rhs == pytest.approx(math.sqrt(2.01), rel=1e-12)
    assert lhs <= rhs


def test_stability_bound_on_random_instances():
    for seed in range(20):
        rng = random.Random(500 + seed)
        mu, nu, payoff, p = random_stopping_instance(rng)
        lhs, rhs = stopping_stability_gap(mu, nu, payoff, p)
        assert lhs <= rhs + 1e-12


def test_wrong_lipschitz_declaration_is_falsified():
    cheat = PathPayoff(evaluate=lambda k, prefix: 5 * prefix[-1],
                       lipschitz_constant=1.0, objective="sup", name="cheat")
    mu, nu = perturbed_start_pair(Fraction(1, 2))
    with pytest.raises(AssumptionError):
        verify_payoff_lipschitz(cheat, (mu, nu), 2)
    with pytest.raises(AssumptionError):
        stopping_stability_gap(mu, nu, cheat, 2)


def test_lipschitz_probe_evaluates_each_path_and_stage_once():
    calls = []

    def evaluate(k, prefix):
        calls.append((k, prefix))
        return prefix[-1]

    counting = PathPayoff(evaluate=evaluate, lipschitz_constant=1.0, name="counting")
    mu, nu = perturbed_start_pair(Fraction(1, 2))
    verify_payoff_lipschitz(counting, (mu, nu), 2)
    # four leaf paths of two stages each
    assert len(calls) == 4 * 2


def test_lipschitz_violation_message_is_unchanged():
    cheat = PathPayoff(evaluate=lambda k, prefix: 5 * prefix[-1],
                       lipschitz_constant=1.0, objective="sup", name="cheat")
    mu, nu = perturbed_start_pair(Fraction(1, 2))
    with pytest.raises(AssumptionError) as exc:
        verify_payoff_lipschitz(cheat, (mu, nu), 2)
    assert str(exc.value) == (
        "declared Lipschitz constant 1.0 violated at stage 1: |L(g) - L(g')| = 5.0 > "
        "1.0 * 2.23606797749979 for paths (Fraction(-1, 2), Fraction(-1, 1)) and "
        "(Fraction(1, 2), Fraction(1, 1))"
    )


def test_payoff_validation():
    with pytest.raises(ConfigurationError):
        coordinate_payoff("max")
    with pytest.raises(ConfigurationError):
        PathPayoff(evaluate=lambda k, g: 0, lipschitz_constant=0.0, objective="sup")
