"""Monte Carlo distance estimates, rate curves, moments, and CSV output."""

import math
import os
import re
import warnings

import numpy as np
import pytest

from awsde import (
    AssumptionError,
    BracketError,
    CoefficientSpec,
    ConfigurationError,
    RateCurve,
    StepSizeError,
    TimeGrid,
    builtin_model,
    config_from_alias,
    estimate_aw,
    estimate_aw_sweep,
    estimate_vc,
    guard_report,
    moment_diagnostic,
    monotonicity_witness,
    one_step_cdf,
    power_time_cost,
    simulate_path_block,
    strong_error_curve,
    truncation_level,
    write_aw_estimates_csv,
    write_rate_curve_csv,
)
from awsde.estimator import FIT_FLOOR, _fit_loglog, _synchronous_estimates

GRID = TimeGrid(horizon=1.0, steps=64)


def _em_pair(spec_a, spec_b):
    return (config_from_alias("em", spec_a), config_from_alias("em", spec_b))


def test_power_time_cost_values_and_validation():
    cost = power_time_cost(2.0)
    t = np.zeros((2, 3))
    x = np.array([[0.0, 1.0, -2.0], [3.0, 3.0, 3.0]])
    y = np.array([[1.0, 1.0, 2.0], [3.0, 2.0, 5.0]])
    assert np.array_equal(cost(t, x, y), np.array([[1.0, 0.0, 16.0], [0.0, 1.0, 4.0]]))
    assert np.array_equal(power_time_cost(1.0)(t, x, y), np.abs(x - y))
    with pytest.raises(ConfigurationError):
        power_time_cost(0.5)


def test_synchronous_zero_for_identical_legs():
    spec = builtin_model("brownian")
    result = estimate_vc(
        _em_pair(spec, spec), power_time_cost(2.0), GRID, paths=128, seed=3
    )
    assert result.estimate == 0.0
    assert result.stderr == 0.0
    assert result.paths == 128
    assert result.extra["schemes"] == ("em", "em")
    assert result.extra["seed"] == 3


def test_zero_distance_for_equal_laws_different_specs():
    # the zero-perturbation model has the same coefficients as plain
    # Brownian motion, so the synchronous paths coincide pathwise
    brown = builtin_model("brownian")
    flat = builtin_model("perturbed_sign", k=0.0)
    result = estimate_vc(
        _em_pair(brown, flat), power_time_cost(2.0), GRID, paths=128, seed=3
    )
    assert result.estimate == 0.0
    assert result.stderr == 0.0


def test_estimate_grows_with_drift_perturbation():
    brown = builtin_model("brownian")
    results = []
    for k in (0.0, 5.0, 10.0):
        spec = builtin_model("perturbed_sign", k=k)
        results.append(
            estimate_aw(_em_pair(brown, spec), 2.0, GRID, paths=512, seed=11)
        )
    estimates = [r.estimate for r in results]
    assert estimates[0] == 0.0
    # separation well beyond the sampling error
    assert estimates[1] > 5.0 * results[1].stderr
    assert estimates[2] > estimates[1] + 3.0 * (results[1].stderr + results[2].stderr)
    for r in results:
        assert r.extra["p"] == 2.0
        assert r.extra["aw"] == pytest.approx(r.estimate ** 0.5 if r.estimate > 0 else 0.0)


def test_estimate_aw_p1_equals_vc():
    brown = builtin_model("brownian")
    spec = builtin_model("perturbed_sign", k=5.0)
    aw = estimate_aw(_em_pair(brown, spec), 1.0, GRID, paths=256, seed=7)
    vc = estimate_vc(
        _em_pair(brown, spec), power_time_cost(1.0), GRID, paths=256, seed=7
    )
    assert aw.estimate == vc.estimate
    assert aw.stderr == vc.stderr
    assert aw.extra["aw"] == aw.estimate


def test_worker_count_does_not_change_estimates():
    brown = builtin_model("brownian")
    spec = builtin_model("perturbed_sign", k=5.0)
    serial = estimate_vc(
        _em_pair(brown, spec), power_time_cost(2.0), GRID,
        paths=700, seed=5, workers=1,
    )
    threaded = estimate_vc(
        _em_pair(brown, spec), power_time_cost(2.0), GRID,
        paths=700, seed=5, workers=3,
    )
    assert serial.estimate == threaded.estimate
    assert serial.stderr == threaded.stderr


def test_triangle_like_consistency_at_p1():
    brown = builtin_model("brownian")
    mid = builtin_model("perturbed_sign", k=5.0)
    far = builtin_model("perturbed_sign", k=10.0)

    def est(a, b):
        return estimate_vc(
            _em_pair(a, b), power_time_cost(1.0), GRID, paths=512, seed=21
        )

    ab, bc, ac = est(brown, mid), est(mid, far), est(brown, far)
    slack = 3.0 * (ab.stderr + bc.stderr + ac.stderr)
    assert ac.estimate <= ab.estimate + bc.estimate + slack


def test_feller_violation_warns_at_estimate_time():
    brown = builtin_model("brownian")
    cir = builtin_model("cir", gamma=2.5)
    assert any("feller" in w for w in cir.warnings)
    with pytest.warns(RuntimeWarning, match="feller condition violated"):
        result = estimate_vc(
            _em_pair(brown, cir), power_time_cost(1.0), GRID,
            paths=8, seed=1,
        )
    assert any("feller" in w for w in result.extra["warnings"])


def test_coverage_warnings_name_the_caller():
    brown = config_from_alias("em", builtin_model("brownian"))
    cir = config_from_alias("em", builtin_model("cir", gamma=2.5))
    entries = {
        "estimate_vc": lambda: estimate_vc((brown, cir), power_time_cost(1.0), GRID, 4, 1),
        "estimate_aw": lambda: estimate_aw((brown, cir), 2.0, GRID, 4, 1),
        "estimate_aw_sweep": lambda: estimate_aw_sweep(brown, [cir], 2.0, GRID, 4, 1),
    }
    for name, entry in entries.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entry()
        assert [w.message.args[0] for w in caught if "feller" in str(w.message)], name
        assert {w.filename for w in caught} == {__file__}, name


@pytest.mark.parametrize("legs", [1, 3])
def test_pair_entries_refuse_other_than_two_legs(legs):
    pair = (config_from_alias("em", builtin_model("brownian")),) * legs
    with pytest.raises(ConfigurationError, match=f"got {legs} configs"):
        estimate_vc(pair, power_time_cost(2.0), GRID, 4, 1)
    with pytest.raises(ConfigurationError, match=f"got {legs} configs"):
        estimate_aw(pair, 2.0, GRID, 4, 1)


@pytest.mark.parametrize("workers", ["2", None, 0, -1, 2.5])
def test_monte_carlo_entries_refuse_bad_worker_counts(workers):
    brown = config_from_alias("em", builtin_model("brownian"))
    cubic = config_from_alias("iem", builtin_model("cubic"))
    message = re.escape(f"workers must be a positive integer, got {workers!r}")
    with pytest.raises(ConfigurationError, match=message):
        estimate_aw((brown, brown), 2.0, GRID, 4, 1, workers=workers)
    with pytest.raises(ConfigurationError, match=message):
        strong_error_curve(cubic, 2.0, [0.25], 0.125, 4, 1, workers=workers)
    with pytest.raises(ConfigurationError, match=message):
        moment_diagnostic(cubic, 2.0, [0.25], 4, 1, workers=workers)


def test_strict_sweep_error_names_every_leg():
    grid = TimeGrid(1.0, 4)
    base = config_from_alias("em", builtin_model("brownian"))
    others = [config_from_alias("tiem", builtin_model("sign_drift")),
              config_from_alias("tiem-mono", builtin_model("perturbed_sign"))]
    with pytest.raises(StepSizeError) as exc:
        estimate_aw_sweep(base, others, 2.0, grid, 4, 1)
    assert "transformed drift bound L=500.0" in str(exc.value)
    assert "monotone guard 1 - L*a_h > 0 fails: L=0.5" in str(exc.value)


def test_single_path_has_no_stderr():
    spec = builtin_model("brownian")
    result = estimate_vc(
        _em_pair(spec, spec), power_time_cost(1.0), GRID, paths=1, seed=0
    )
    assert math.isnan(result.stderr)


def _assert_same_result(a, b):
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr
    assert a.paths == b.paths
    assert a.grid == b.grid
    assert a.extra == b.extra


def _cir_legs():
    params = ("kappa", "eta", "gamma")
    return [builtin_model("cir", **{name: 1.0 + d}) for name in params
            for d in (0.1, 0.2, 0.3, 0.4, 0.5)]


# (alias, base spec, other specs, grid); tiem-mono on perturbed_sign meets
# both of its guards at h = 1/128 for k <= 2
SWEEP_CASES = {
    "em": ("em", lambda: builtin_model("brownian"),
           lambda: [builtin_model("perturbed_sign", k=float(k)) for k in range(11)], GRID),
    "iem": ("iem", lambda: builtin_model("brownian"),
            lambda: [builtin_model("perturbed_sign", k=float(k)) for k in range(11)], GRID),
    "tiem-mono": ("tiem-mono", lambda: builtin_model("perturbed_sign", k=0.0),
                  lambda: [builtin_model("perturbed_sign", k=float(k)) for k in (1, 2)]
                  + [builtin_model("cubic")],
                  TimeGrid(1.0, 128)),
    "sym-em": ("sym-em", lambda: builtin_model("cir"), _cir_legs, GRID),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_aw_sweep_equals_pairwise_estimates(case, workers):
    # 600 paths: two full 256-path blocks and a partial third
    alias, base_spec, other_specs, grid = SWEEP_CASES[case]
    base = config_from_alias(alias, base_spec())
    others = [config_from_alias(alias, spec) for spec in other_specs()]
    assert not guard_report(base, grid)
    assert not any(guard_report(other, grid) for other in others)
    swept = estimate_aw_sweep(base, others, 2.0, grid, paths=600, seed=19, workers=workers)
    assert len(swept) == len(others)
    for other, result in zip(others, swept):
        alone = estimate_aw((base, other), 2.0, grid, paths=600, seed=19, workers=workers)
        _assert_same_result(result, alone)
    assert any(result.estimate > 0.0 for result in swept)


def test_estimate_vc_is_the_pair_sum_and_its_leg_of_a_sweep():
    # a cost that is not a power of |x - y|, with a time weight, so a leg
    # swap or a shifted time row would show
    def cost(t, x, y):
        return (1.0 + t) * np.abs(np.sin(x) - y) + 0.5 * (x - y) ** 2

    brown = builtin_model("brownian")
    specs = [builtin_model("perturbed_sign", k=k) for k in (2.0, 5.0, 9.0)]
    base = config_from_alias("em", brown)
    others = [config_from_alias("em", spec) for spec in specs]
    paths, seed = 600, 23
    vc = estimate_vc((base, others[1]), cost, GRID, paths, seed)
    _assert_same_result(vc, _synchronous_estimates(base, others, cost, GRID, paths, seed, 1)[1])

    # the same sum from the two legs simulated block by block
    per_path = np.empty(paths)
    t_row = GRID.times()[None, :]
    for start in range(0, paths, 256):
        count = min(256, paths - start)
        x = simulate_path_block(base, GRID, seed, start, count)
        y = simulate_path_block(others[1], GRID, seed, start, count)
        per_path[start:start + count] = GRID.step * cost(t_row, x, y).sum(axis=1)
    assert vc.estimate == float(np.mean(per_path))
    assert vc.stderr == float(np.std(per_path, ddof=1) / math.sqrt(paths))


def _constant_drift(b):
    return CoefficientSpec(
        drift=lambda t, x: np.full_like(np.asarray(x, dtype=float), b),
        diffusion=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        initial_value=0.5,
        one_sided_lipschitz_bound=0.0,
        name=f"constant_{b}",
    )


@pytest.mark.parametrize("alias", ["em", "iem"])
@pytest.mark.parametrize("b1,b2", [(0.0, 0.5), (0.3, -0.7), (1.0, 2.0)])
def test_constant_drift_pairs_give_the_closed_form_riemann_sum(alias, b1, b2):
    # with one start and unit diffusion the synchronous legs differ by the
    # deterministic (b1 - b2) t_k, so every path contributes the same
    # right-point sum h * sum_{k=0..N} ((b1 - b2) t_k)^2
    grid = TimeGrid(1.0, 512)
    legs = (config_from_alias(alias, _constant_drift(b1)),
            config_from_alias(alias, _constant_drift(b2)))
    result = estimate_vc(legs, power_time_cost(2.0), grid, paths=300, seed=4)
    h = grid.step
    exact = h * sum(((b1 - b2) * k * h) ** 2 for k in range(grid.steps + 1))
    assert result.estimate == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert result.stderr <= 1e-12 * result.estimate


# ---------------------------------------------------------------------------
# strong-error curves
# ---------------------------------------------------------------------------


def test_driftless_errors_sit_at_the_rounding_floor():
    # coarse and fine paths share every increment, so the only residue is
    # the re-rounding of the fold near zero crossings, ulps at most
    spec = builtin_model("brownian")
    curve = strong_error_curve(
        config_from_alias("em", spec), 2.0, [2.0**-3, 2.0**-4, 2.0**-5], 2.0**-8, 256, 9
    )
    assert all(e <= 1e-13 for e in curve.err_sup)
    assert curve.fit_sup is None
    assert all(e > 0.0 for e in curve.err_int)
    assert curve.fit is not None
    assert curve.fit.slope == curve.fit_int.slope


def test_cubic_errors_decrease_and_fit_near_half():
    spec = builtin_model("cubic")
    curve = strong_error_curve(
        config_from_alias("tiem-mono", spec), 2.0,
        [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7], 2.0**-10, 256, 9,
    )
    for seq in (curve.err_sup, curve.err_int):
        for small, big in zip(seq[1:], seq[:-1]):
            assert small <= big + 2.0 * max(curve.stderr)
    assert 0.3 <= curve.fit.slope <= 1.1
    # additive noise converges first order at the nodes, faster than the
    # integrated norm the guarantee tracks
    assert curve.fit_sup.slope > curve.fit_int.slope
    assert curve.fit.slope == pytest.approx(curve.fit_int.slope)
    assert curve.p == 2.0
    assert curve.paths == 256


def test_additive_jump_drift_fourth_moment_rate(additive_sign_spec):
    curve = strong_error_curve(
        config_from_alias("tiem-mono", additive_sign_spec, guard_policy="warn"), 4.0,
        [2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8], 2.0**-11, 192, 23,
    )
    assert curve.fit.slope >= 0.35
    assert curve.guard_warnings


def test_multiplicative_jump_drift_fourth_moment_rate():
    spec = builtin_model("sign_drift")
    curve = strong_error_curve(
        config_from_alias("tiem-mono", spec, guard_policy="warn"), 4.0,
        [2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8], 2.0**-11, 192, 29,
    )
    assert curve.fit.slope >= 0.2


def test_rate_curve_worker_invariance():
    spec = builtin_model("cubic")
    args = (config_from_alias("iem", spec), 2.0, [2.0**-3, 2.0**-4], 2.0**-6, 300, 3)
    serial = strong_error_curve(*args, workers=1)
    threaded = strong_error_curve(*args, workers=4)
    assert serial.err_sup == threaded.err_sup
    assert serial.err_int == threaded.err_int
    assert serial.stderr == threaded.stderr


def test_strong_error_curve_validation():
    spec = builtin_model("cubic")
    with pytest.raises(ConfigurationError, match="p must be"):
        strong_error_curve(config_from_alias("iem", spec), 0.5, [0.25], 0.125, 16, 0)
    with pytest.raises(ConfigurationError, match="paths"):
        strong_error_curve(config_from_alias("iem", spec), 2.0, [0.25], 0.125, 1, 0)
    with pytest.raises(ConfigurationError, match="duplicates"):
        strong_error_curve(config_from_alias("iem", spec), 2.0, [0.25, 0.25], 0.125, 16, 0)
    with pytest.raises(ConfigurationError, match="does not divide"):
        strong_error_curve(config_from_alias("iem", spec), 2.0, [0.25], 0.1875, 16, 0)
    with pytest.raises(ConfigurationError, match="does not divide"):
        strong_error_curve(config_from_alias("iem", spec), 2.0, [0.3], 0.0625, 16, 0)


def test_bad_step_sizes_raise_configuration_errors():
    spec = builtin_model("cubic")
    for h in (0.0, math.nan, math.inf, -0.25):
        with pytest.raises(ConfigurationError, match="step size"):
            moment_diagnostic(config_from_alias("iem", spec), 2.0, [h], 16, 3)
    for h_ref in (0.0, math.nan, math.inf, 1e-320):
        with pytest.raises(ConfigurationError, match="step size"):
            strong_error_curve(config_from_alias("iem", spec), 2.0, [0.25], h_ref, 16, 3)
    with pytest.raises(ConfigurationError, match="does not divide"):
        strong_error_curve(config_from_alias("iem", spec), 2.0, [math.nan], 0.125, 16, 3)


def test_power_time_cost_refuses_infinite_p():
    for p in (math.inf, math.nan):
        with pytest.raises(ConfigurationError, match=f"got {p}"):
            power_time_cost(p)
    brown = builtin_model("brownian")
    with pytest.raises(ConfigurationError, match="got inf"):
        estimate_aw(_em_pair(brown, brown), math.inf, GRID, 8, 3)


def test_strong_error_curve_refuses_infinite_p():
    # an infinite p used to report err_sup = err_int = (1.0, 1.0) with stderr 0
    with pytest.raises(ConfigurationError, match="got inf"):
        strong_error_curve(
            config_from_alias("iem", builtin_model("cubic")), math.inf, [0.25, 0.125], 0.0625, 8, 3
        )


def test_moment_diagnostic_refuses_infinite_p():
    with pytest.raises(ConfigurationError, match="got inf"):
        moment_diagnostic(config_from_alias("iem", builtin_model("cubic")), math.inf, [0.25], 8, 3)


def test_iem_bracket_error_names_a_state_in_the_no_root_gap():
    # sign_drift's drift jumps down by 4 at x = 1, so z - h b(z) jumps up from
    # 1 - 2.5h to 1 + 1.5h there and a y in between has no root
    h = 2.0**-4
    with pytest.raises(BracketError, match="did not reach the residual tolerance; ") as exc:
        moment_diagnostic(config_from_alias("iem", builtin_model("sign_drift")), 2.0, [h], 512, 7)
    y = float(re.search(r"first at index \d+: y=([^,]+),", str(exc.value)).group(1))
    assert 1.0 - 2.5 * h < y < 1.0 + 1.5 * h


def test_guards_checked_on_every_coarsened_grid():
    # the finest grid passes the monotone guard but the coarsest does not;
    # strict policy must reject the whole curve
    spec = builtin_model("sign_drift")
    with pytest.raises(StepSizeError):
        strong_error_curve(config_from_alias("tiem-mono", spec), 2.0, [2.0**-4], 2.0**-16, 4, 0)


def test_rate_curve_requires_decreasing_h():
    with pytest.raises(ConfigurationError, match="decreasing"):
        RateCurve(
            h_values=(0.125, 0.25),
            err_sup=(0.0, 0.0),
            err_int=(0.0, 0.0),
            stderr=(0.0, 0.0),
            p=2.0,
            paths=2,
            fit=None,
            fit_sup=None,
            fit_int=None,
        )


def test_loglog_fit_recovers_exact_power_laws():
    hs = [2.0**-k for k in range(3, 8)]
    fit = _fit_loglog(hs, [h**0.5 for h in hs])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert not fit.dropped_largest_h
    assert fit.full_slope == fit.slope
    fit2 = _fit_loglog(hs, [3.0 * h**2 for h in hs])
    assert fit2.slope == pytest.approx(2.0, abs=1e-12)
    assert fit2.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_loglog_fit_skips_floor_and_short_input():
    hs = [0.25, 0.125, 0.0625]
    assert _fit_loglog(hs, [0.0, 0.0, 0.0]) is None
    assert _fit_loglog(hs, [1e-14, 1e-14, 1e-14]) is None
    assert _fit_loglog(hs, [0.5, FIT_FLOOR / 2.0, 0.5]) is None
    assert _fit_loglog([0.25], [0.5]) is None
    assert _fit_loglog(hs, [0.5, float("nan"), 0.5]) is None


def test_loglog_fit_drops_pre_asymptotic_point_on_long_curves():
    # an endpoint residual is capped at sqrt(n (1 - leverage)) times the fit
    # RMS, so the 3x guard stays quiet on short curves and needs a long one
    hs = [2.0**-k for k in range(2, 18)]
    errors = [h**0.5 for h in hs]
    errors[0] *= 1e3
    fit = _fit_loglog(hs, errors)
    assert fit.dropped_largest_h
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.full_slope > 0.6
    assert fit.residual_rms < fit.full_residual_rms

    short = [h**0.5 for h in hs[:6]]
    short[0] *= 50.0
    assert not _fit_loglog(hs[:6], short).dropped_largest_h


# ---------------------------------------------------------------------------
# moment diagnostics
# ---------------------------------------------------------------------------


def test_transformed_scheme_moments_stay_bounded():
    spec = builtin_model("cubic")
    rows = moment_diagnostic(
        config_from_alias("tiem", spec), 4.0, [2.0**-4, 2.0**-6, 2.0**-8, 2.0**-10], 2048, 13
    )
    assert [row.h for row in rows] == [2.0**-4, 2.0**-6, 2.0**-8, 2.0**-10]
    moments = [row.sup_moment for row in rows]
    assert all(math.isfinite(m) for m in moments)
    assert max(moments) / min(moments) < 2.0


def test_explicit_em_diverges_where_implicit_stays_put():
    spec = builtin_model("cubic", x0=10.0)
    exploded = moment_diagnostic(config_from_alias("em", spec), 2.0, [2.0**-2], 256, 13)
    assert exploded[0].sup_moment > 1e6
    tame = moment_diagnostic(config_from_alias("iem", spec), 2.0, [2.0**-2], 256, 13)
    # backward steps only pull toward 0, so the running sup is the start
    assert tame[0].sup_moment == 100.0
    grid = TimeGrid(horizon=1.0, steps=4)
    terminal = simulate_path_block(config_from_alias("iem", spec), grid, 13, 0, 256)[:, -1]
    assert float(np.mean(terminal**2)) < 100.0


def test_brownian_running_sup_second_moment():
    rows = moment_diagnostic(
        config_from_alias("em", builtin_model("brownian")), 2.0, [2.0**-6], 4096, 17
    )
    # E[sup |W|^2] on [0, 1] is between E[W_1^2] = 1 and 4 E[W_1^2] (Doob)
    assert 1.0 < rows[0].sup_moment < 4.0


def test_moment_diagnostic_validates_paths():
    spec = builtin_model("cubic")
    for paths in (0, -3, 2.5, "16"):
        with pytest.raises(ConfigurationError, match="paths"):
            moment_diagnostic(config_from_alias("iem", spec), 2.0, [2.0**-3], paths, 3)


def test_moment_diagnostic_worker_invariance():
    spec = builtin_model("cubic")
    args = (config_from_alias("tiem", spec), 4.0, [2.0**-4, 2.0**-5], 300, 13)
    serial = moment_diagnostic(*args, workers=1)
    threaded = moment_diagnostic(*args, workers=4)
    assert [r.sup_moment for r in serial] == [r.sup_moment for r in threaded]


def test_moment_diagnostic_frozen_values():
    # 300 paths span two blocks, so these pin the block-order reduction
    rows = moment_diagnostic(
        config_from_alias("tiem", builtin_model("cubic")), 4.0, [2.0**-4, 2.0**-5], 300, 13
    )
    assert [row.sup_moment for row in rows] == [
        float.fromhex("0x1.395adaf690aabp+1"), float.fromhex("0x1.7733342ce74e5p+1")
    ]


def test_strict_moment_diagnostic_raises_before_any_draw(monkeypatch):
    import awsde.schemes as schemes

    draws = []
    sample = schemes.sample_increment_block
    monkeypatch.setattr(schemes, "sample_increment_block",
                        lambda *args: draws.append(args) or sample(*args))
    config = config_from_alias("tiem", builtin_model("sign_drift"))
    with pytest.raises(StepSizeError, match=re.escape("h=0.0625 violates")):
        moment_diagnostic(config, 2.0, [2.0**-10, 2.0**-4], 16, 1)
    assert draws == []


# ---------------------------------------------------------------------------
# one-step kernel monotonicity
# ---------------------------------------------------------------------------


def test_one_step_cdf_band_and_centre():
    sigma = lambda x: 2.0
    h = 2.0**-4
    a_h = truncation_level(h)
    assert one_step_cdf(sigma, h, 0.0, -2.0 * a_h - 1e-9) == 0.0
    assert one_step_cdf(sigma, h, 0.0, 2.0 * a_h) == 1.0
    assert one_step_cdf(sigma, h, 0.0, 0.0) == 0.5
    # interior values follow the Gaussian law of the unclipped increment
    expected = 0.5 * (1.0 + math.erf(0.3 / (2.0 * math.sqrt(h)) / math.sqrt(2.0)))
    assert one_step_cdf(sigma, h, 0.0, 0.3) == pytest.approx(expected, rel=1e-15)
    grid = np.linspace(-4.0, 4.0, 101)
    values = [one_step_cdf(sigma, h, 0.5, float(a)) for a in grid]
    assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
    with pytest.raises(AssumptionError):
        one_step_cdf(lambda x: 0.0, h, 0.0, 0.0)


def test_square_root_diffusion_yields_verified_witness():
    sigma = lambda x: 1.0 + min(math.sqrt(abs(x)), 1.0)
    h = 2.0**-4
    witness = monotonicity_witness(sigma, h)
    assert witness is not None
    assert 0.0 <= witness.z < witness.z_bar <= 1.0
    assert witness.step == h
    assert witness.truncation == truncation_level(h)
    # recompute both crossings from the kernel itself
    low_z = one_step_cdf(sigma, h, witness.z, witness.a_lower)
    low_zbar = one_step_cdf(sigma, h, witness.z_bar, witness.a_lower)
    up_z = one_step_cdf(sigma, h, witness.z, witness.a_upper)
    up_zbar = one_step_cdf(sigma, h, witness.z_bar, witness.a_upper)
    assert (low_z, low_zbar) == witness.cdf_at_lower
    assert (up_z, up_zbar) == witness.cdf_at_upper
    crossed = (low_z < low_zbar and up_z > up_zbar) or (low_z > low_zbar and up_z < up_zbar)
    assert crossed


def test_tame_diffusions_yield_no_witness():
    h = 2.0**-4
    assert monotonicity_witness(lambda x: 1.0, h) is None
    a_h = truncation_level(h)
    # Lipschitz constant 1 / (2 a_h) keeps the bands nested
    assert monotonicity_witness(lambda x: 1.0 + abs(x) / (2.0 * a_h), h) is None


def test_monotonicity_witness_validation():
    with pytest.raises(ConfigurationError, match="points"):
        monotonicity_witness(lambda x: 1.0, 0.0625, points=1)
    with pytest.raises(ConfigurationError, match="interval"):
        monotonicity_witness(lambda x: 1.0, 0.0625, interval=(1.0, 0.0))
    with pytest.raises(AssumptionError, match="positive"):
        monotonicity_witness(lambda x: -1.0, 0.0625)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_rate_curve_csv_round_trip(tmp_path):
    spec = builtin_model("cubic")
    curve = strong_error_curve(
        config_from_alias("iem", spec), 2.0, [2.0**-3, 2.0**-4], 2.0**-6, 16, 3
    )
    path = tmp_path / "rate_curve.csv"
    write_rate_curve_csv(os.fspath(path), curve)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "h,err_sup,err_int,stderr"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.125
    # repr round-trip: the parsed floats match the curve exactly
    assert float(first[1]) == curve.err_sup[0]
    assert float(first[2]) == curve.err_int[0]
    assert float(first[3]) == curve.stderr[0]


def test_aw_estimates_csv_columns(tmp_path):
    brown = builtin_model("brownian")
    rows = []
    for k in (0.0, 5.0):
        spec = builtin_model("perturbed_sign", k=k)
        result = estimate_aw(_em_pair(brown, spec), 2.0, GRID, paths=64, seed=2)
        rows.append((k, result.estimate, result.stderr, result.paths, GRID.step, 2))
    path = tmp_path / "aw_estimates.csv"
    write_aw_estimates_csv(os.fspath(path), rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "k_or_delta,estimate,stderr,paths,h,seed"
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert float(cells[0]) == 5.0
    assert float(cells[1]) == rows[1][1]
    assert int(cells[3]) == 64
    assert float(cells[4]) == GRID.step
    assert int(cells[5]) == 2


def test_csv_writer_rejects_boolean_cells(tmp_path):
    path = tmp_path / "aw_estimates.csv"
    for flag in (True, np.True_):
        with pytest.raises(ConfigurationError, match="boolean"):
            write_aw_estimates_csv(os.fspath(path), [(1.0, 0.5, 0.1, 64, 0.25, flag)])
