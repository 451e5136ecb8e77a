"""Acceptance gate: every headline guarantee, one test per criterion.

Each test checks its stated tolerances and asserts its wall-clock budget, so
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Shared experiment runs are produced once in module fixtures and
their fixture wall time counts toward the consuming criterion's budget.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from awsde import (
    antitone_first_plan,
    build_transform,
    builtin_model,
    config_from_alias,
    coordinate_payoff,
    exact_bicausal_value,
    knothe_rosenblatt,
    kr_suboptimal_pair,
    moment_diagnostic,
    monotonicity_witness,
    one_step_cdf,
    perturbed_start_pair,
    plan_cost,
    power_cost,
    snell_value,
    stopping_stability_gap,
    strong_error_curve,
    transformed_coefficients,
    transformed_step,
    truncation_level,
)
from awsde._instances import random_comonotone_pair, random_stopping_instance
from awsde.cli import ExperimentConfig, run_experiment


@dataclass(frozen=True)
class _TimedRun:
    out: object
    manifest: dict
    elapsed: float


def _timed_experiment(tmp_path_factory, experiment: str, label: str, workers: int = 1):
    out = tmp_path_factory.mktemp(label)
    started = time.perf_counter()
    manifest = run_experiment(
        ExperimentConfig(experiment=experiment, out=str(out), workers=workers)
    )
    return _TimedRun(out=out, manifest=manifest, elapsed=time.perf_counter() - started)


@pytest.fixture(scope="module")
def fig_disc_run(tmp_path_factory):
    return _timed_experiment(tmp_path_factory, "fig_disc", "fig_disc_w1")


@pytest.fixture(scope="module")
def fig_cir_run(tmp_path_factory):
    return _timed_experiment(tmp_path_factory, "fig_cir", "fig_cir_w1")


def test_criterion_01_two_stage_exact_values():
    started = time.perf_counter()
    mu, nu = kr_suboptimal_pair()
    quadratic = power_cost(2)
    kr_cost = plan_cost(knothe_rosenblatt(mu, nu), quadratic)
    assert kr_cost == Fraction(3)
    value, plan = exact_bicausal_value(mu, nu, quadratic)
    assert value <= 2
    assert value < 3
    assert plan_cost(antitone_first_plan(mu, nu), quadratic) == Fraction(2)
    certified = plan.certify_marginals(mu, nu)
    assert certified["x_marginal"] and certified["y_marginal"]
    assert time.perf_counter() - started < 1.0


def test_criterion_02_perturbed_start_exact_values():
    started = time.perf_counter()
    for eps in (Fraction(1, 10), Fraction(1, 2)):
        for p in (1, 2):
            mu, nu = perturbed_start_pair(eps)
            value, _ = exact_bicausal_value(mu, nu, power_cost(p))
            assert value == eps**p + Fraction(2) ** (p - 1)
    headline, _ = exact_bicausal_value(*perturbed_start_pair(Fraction(1, 10)), power_cost(2))
    assert float(headline) == 2.01
    assert time.perf_counter() - started < 1.0


def test_criterion_03_comonotone_sweep_matches_exact_solver():
    started = time.perf_counter()
    cost = power_cost(2)
    tolerance = Fraction(1, 10**9)
    for seed in range(100):
        mu, nu = random_comonotone_pair(random.Random(seed))
        value, _ = exact_bicausal_value(mu, nu, cost)
        kr_cost = plan_cost(knothe_rosenblatt(mu, nu), cost)
        assert abs(kr_cost - value) <= tolerance
    assert time.perf_counter() - started < 30.0


def test_criterion_04_stopping_values_and_stability():
    started = time.perf_counter()
    payoff = coordinate_payoff(objective="sup")
    for eps in (Fraction(1, 10), Fraction(3, 10)):
        perturbed, unperturbed = perturbed_start_pair(eps)
        assert snell_value(unperturbed, payoff) == 0
        assert snell_value(perturbed, payoff) == (1 - eps) / 2
    rng = random.Random(11)
    for _ in range(100):
        mu, nu, payoff, p = random_stopping_instance(rng)
        lhs, rhs = stopping_stability_gap(mu, nu, payoff, p)
        assert lhs <= rhs + 1e-12
    assert time.perf_counter() - started < 10.0


def test_criterion_05_strong_convergence_rate():
    started = time.perf_counter()
    h_values = [2.0**-e for e in range(6, 12)]
    for name in ("cubic", "sign_drift"):
        curve = strong_error_curve(
            config_from_alias("tiem-mono", builtin_model(name), guard_policy="warn"),
            2.0, h_values, 2.0**-14, 1024, 7,
        )
        # the guarantee bounds the larger of the two error norms, and the
        # headline fit tracks exactly that quantity
        assert 0.35 <= curve.fit.slope <= 0.75, name
    assert time.perf_counter() - started < 300.0


def test_criterion_06_moment_stability_vs_divergence():
    started = time.perf_counter()
    rows = moment_diagnostic(
        config_from_alias("tiem", builtin_model("cubic")), 4.0,
        [2.0**-e for e in range(4, 11)], 10_000, 7,
    )
    moments = [row.sup_moment for row in rows]
    assert all(math.isfinite(m) for m in moments)
    assert max(moments) / min(moments) < 2.0
    exploded = moment_diagnostic(
        config_from_alias("em", builtin_model("cubic", x0=10.0)), 2.0, [0.25], 10_000, 7
    )
    assert exploded[0].sup_moment > 1e6
    assert time.perf_counter() - started < 120.0


def test_criterion_07_one_step_monotonicity():
    started = time.perf_counter()
    tc = transformed_coefficients(builtin_model("sign_drift"))
    h = 2.0**-13
    a_h = truncation_level(h)
    assert h < 1.0 / tc.one_sided_bound
    assert 1.0 - tc.lipschitz_bound * a_h > 0.0
    rng = np.random.default_rng(77)
    n = 10_000
    xs = rng.uniform(0.5, 1.5, size=n)
    gaps = rng.uniform(1e-6, 0.25, size=n)
    dws = rng.uniform(-a_h, a_h, size=n)
    low = transformed_step(tc, xs, h, dws)
    high = transformed_step(tc, xs + gaps, h, dws)
    assert int(np.sum(high <= low)) == 0
    dgaps = rng.uniform(1e-8, 0.01, size=n)
    noise_low = transformed_step(tc, xs, h, np.clip(dws - dgaps, -a_h, a_h))
    noise_high = transformed_step(tc, xs, h, np.clip(dws + dgaps, -a_h, a_h))
    assert int(np.sum(noise_high < noise_low)) == 0
    assert time.perf_counter() - started < 10.0


def test_criterion_08_kernel_crossing_witness():
    started = time.perf_counter()
    sigma = lambda x: 1.0 + min(math.sqrt(abs(x)), 1.0)
    h = 2.0**-4
    witness = monotonicity_witness(sigma, h)
    assert witness is not None
    low_z = one_step_cdf(sigma, h, witness.z, witness.a_lower)
    low_zbar = one_step_cdf(sigma, h, witness.z_bar, witness.a_lower)
    up_z = one_step_cdf(sigma, h, witness.z, witness.a_upper)
    up_zbar = one_step_cdf(sigma, h, witness.z_bar, witness.a_upper)
    assert (low_z < low_zbar and up_z > up_zbar) or (low_z > low_zbar and up_z < up_zbar)
    assert time.perf_counter() - started < 5.0


def test_criterion_09_drift_perturbation_sweep(fig_disc_run):
    points = fig_disc_run.manifest["report"]["estimates"]
    assert [point["label"] for point in points] == list(range(11))
    estimates = [point["estimate"] for point in points]
    errors = [point["stderr"] for point in points]
    assert estimates[0] == 0.0
    for k in range(10):
        assert estimates[k + 1] > estimates[k] - (errors[k] + errors[k + 1])
    assert fig_disc_run.manifest["config"]["steps"] is None  # desk default: 2^-9, 2^10
    assert fig_disc_run.elapsed < 180.0


def test_criterion_10_cir_perturbation_sweep(fig_cir_run):
    curves = fig_cir_run.manifest["report"]["curves"]
    top = {label: curves[label][-1] for label in ("diffusion", "level", "speed")}
    assert all(point["label"] == 0.5 for point in top.values())
    d, l, s = top["diffusion"], top["level"], top["speed"]
    assert d["estimate"] - l["estimate"] > d["stderr"] + l["stderr"]
    assert l["estimate"] - s["estimate"] > l["stderr"] + s["stderr"]
    for label in ("diffusion", "level", "speed"):
        deltas = np.array([point["label"] for point in curves[label]])
        logs = np.log(np.array([point["estimate"] for point in curves[label]]))
        assert deltas.size == 5
        slope, intercept = np.polyfit(deltas, logs, 1)
        residuals = logs - (slope * deltas + intercept)
        r_squared = 1.0 - float(
            np.sum(residuals**2) / np.sum((logs - np.mean(logs)) ** 2)
        )
        assert r_squared >= 0.9, label
    assert fig_cir_run.elapsed < 300.0


def test_criterion_11_transform_invariants(synthetic_spec):
    started = time.perf_counter()
    for spec in (builtin_model("sign_drift"), synthetic_spec):
        transform = build_transform(spec)
        lo = min(transform.breakpoints) - 1.0
        hi = max(transform.breakpoints) + 1.0
        xs = np.linspace(lo, hi, 20001)
        # round trip
        back = np.asarray(transform.inverse(np.asarray(transform.g(xs))))
        assert np.max(np.abs(back - xs)) <= 1e-10
        # locality: identity wherever every bump support is out of reach
        off = xs[
            np.all(
                np.abs(xs[:, None] - np.asarray(transform.breakpoints)[None, :])
                > transform.c0,
                axis=1,
            )
        ]
        assert np.array_equal(np.asarray(transform.g(off)), off)
        # monotonicity
        assert np.min(np.asarray(transform.g_prime(xs))) > 0.0
        # curvature jump of size 4 alpha at each breakpoint
        for xi, alpha in zip(transform.breakpoints, transform.alphas):
            jump = float(transform.g_second(xi)) - float(transform.g_second(xi - 1e-12))
            assert jump == pytest.approx(4.0 * alpha, rel=1e-6)
    assert time.perf_counter() - started < 5.0


def test_criterion_12_worker_count_determinism(
    fig_disc_run, fig_cir_run, tmp_path_factory
):
    rerun_disc = _timed_experiment(tmp_path_factory, "fig_disc", "fig_disc_w3", workers=3)
    rerun_cir = _timed_experiment(tmp_path_factory, "fig_cir", "fig_cir_w3", workers=3)
    assert (
        (rerun_disc.out / "aw_estimates.csv").read_bytes()
        == (fig_disc_run.out / "aw_estimates.csv").read_bytes()
    )
    for name in (
        "aw_estimates_diffusion.csv",
        "aw_estimates_level.csv",
        "aw_estimates_speed.csv",
    ):
        assert (rerun_cir.out / name).read_bytes() == (fig_cir_run.out / name).read_bytes()
