"""One-step maps, the implicit drift solve, and block simulation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsde import (
    ConfigurationError,
    PiecewiseTransform,
    StepSizeError,
    config_from_alias,
    TimeGrid,
    builtin_model,
    em_step,
    guard_report,
    implicit_solve,
    sample_increment_block,
    semi_implicit_em_step,
    simulate_coupled_block,
    simulate_path_block,
    simulate_synchronous_block,
    symmetrised_em_step,
    transformed_coefficients,
    transformed_step,
    truncation_level,
)
from awsde.errors import BracketError
from awsde.schemes import _RESIDUAL_RTOL, _step_matrix

CUBIC_ROOT_H01_Y1 = 0.921698994204678631812128132491
CUBIC_ROOT_H025_Y15 = 1.13472845336184579170705897882
CUBIC_ROOT_H025_YM2 = -1.36465560765603865473896747942
CUBIC_ROOT_HSMALL = 1.24810132959551342587549278201

# transformed one-step map on the discontinuous-drift builtin, h = 2^-10
TSTEP_DW0 = 1.000482166680259643109944
TSTEP_DW_POS = 1.026774596167418905132927
TSTEP_DW_NEG = 0.95244140625
# h = 2^-8 violates the step guard but the root is still unique
TSTEP_COARSE_DW0 = 1.001700467269929591510433


def _cubic_drift(z):
    return -np.asarray(z) ** 3


def test_em_step_values():
    brown = builtin_model("brownian")
    assert em_step(brown, 0.0, 0.0, 0.25, 0.3) == 0.3
    cir = builtin_model("cir", kappa=1.0, eta=1.0, gamma=1.0)
    assert em_step(cir, 0.0, 1.0, 0.125, 0.0) == 1.0
    cubic = builtin_model("cubic")
    assert em_step(cubic, 0.0, 2.0, 0.1, 0.0) == pytest.approx(1.2, abs=1e-15)


def test_implicit_solve_frozen_roots():
    assert implicit_solve(1.0, _cubic_drift, 0.1) == pytest.approx(CUBIC_ROOT_H01_Y1, rel=1e-11)
    assert implicit_solve(1.5, _cubic_drift, 0.25) == pytest.approx(CUBIC_ROOT_H025_Y15, rel=1e-11)
    assert implicit_solve(-2.0, _cubic_drift, 0.25) == pytest.approx(CUBIC_ROOT_H025_YM2, rel=1e-11)
    assert implicit_solve(1.25, _cubic_drift, 2.0 ** -10) == pytest.approx(CUBIC_ROOT_HSMALL, rel=1e-11)


def test_implicit_solve_fixed_points():
    assert implicit_solve(0.0, _cubic_drift, 0.1) == pytest.approx(0.0, abs=1e-12)
    # linear drift admits the closed form y / (1 + lambda h)
    lam = 3.0
    for y in (-2.0, 0.5, 7.0):
        z = implicit_solve(y, lambda x: -lam * np.asarray(x), 0.2)
        assert z == pytest.approx(y / (1.0 + lam * 0.2), rel=1e-12)


def test_implicit_solve_vectorised_matches_scalar():
    ys = np.array([1.0, 1.5, -2.0, 0.0])
    hs = 0.25
    batch = implicit_solve(ys, _cubic_drift, hs)
    singles = np.array([implicit_solve(float(y), _cubic_drift, hs) for y in ys])
    assert np.array_equal(batch, singles)


def test_semi_implicit_reduces_to_em_without_drift():
    brown = builtin_model("brownian")
    for x, dw in [(0.0, 0.3), (2.0, -1.0), (-4.0, 0.0)]:
        assert semi_implicit_em_step(brown, 0.0, x, 0.25, dw) == em_step(brown, 0.0, x, 0.25, dw)


def test_semi_implicit_cubic_values():
    cubic = builtin_model("cubic")
    assert semi_implicit_em_step(cubic, 0.0, 0.0, 0.1, 0.0) == pytest.approx(0.0, abs=1e-12)
    z = semi_implicit_em_step(cubic, 0.0, 1.0, 0.1, 0.0)
    assert z == pytest.approx(CUBIC_ROOT_H01_Y1, rel=1e-11)


def test_transformed_step_frozen_values():
    tc = transformed_coefficients(builtin_model("sign_drift"))
    h = 2.0 ** -10
    assert transformed_step(tc, 1.0, h, 0.0) == pytest.approx(TSTEP_DW0, rel=1e-10)
    assert transformed_step(tc, 1.0, h, 0.03) == pytest.approx(TSTEP_DW_POS, rel=1e-10)
    assert transformed_step(tc, 1.0, h, -0.05) == pytest.approx(TSTEP_DW_NEG, rel=1e-10)


def test_transformed_step_guard():
    tc = transformed_coefficients(builtin_model("sign_drift"))
    h = 2.0 ** -8  # violates h < 1 / one_sided_bound = 1/500
    with pytest.raises(StepSizeError):
        transformed_step(tc, 1.0, h, 0.0)
    z = transformed_step(tc, 1.0, h, 0.0, enforce_guard=False)
    assert z == pytest.approx(TSTEP_COARSE_DW0, rel=1e-10)


def test_transformed_equals_semi_implicit_for_continuous_drift():
    cubic = builtin_model("cubic")
    tc = transformed_coefficients(cubic)
    assert tc.transform.is_identity
    for x, dw in [(1.0, 0.0), (2.0, -0.5), (-1.5, 0.25)]:
        assert transformed_step(tc, x, 0.1, dw) == semi_implicit_em_step(cubic, 0.0, x, 0.1, dw)


def test_transformed_equals_semi_implicit_off_bump():
    # start and end far from the jump at 1: G = id on both sides of the step
    spec = builtin_model("sign_drift")
    tc = transformed_coefficients(spec)
    h = 2.0 ** -10
    for x, dw in [(3.0, 0.01), (-1.0, -0.02), (2.5, 0.0)]:
        assert transformed_step(tc, x, h, dw) == semi_implicit_em_step(spec, 0.0, x, h, dw)


@given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-1.0, max_value=1.0),
       st.integers(min_value=9, max_value=16))
@settings(max_examples=200, deadline=None)
def test_transformed_step_solves_the_xspace_equation(offset, noise, k):
    # x within two bump radii of the jump at 1, guarded h, truncated noise
    tc = transformed_coefficients(builtin_model("sign_drift"))
    h = 2.0 ** -k
    assert h < 1.0 / tc.one_sided_bound
    spec, tr = tc.base, tc.transform
    x = 1.0 + offset * tr.c0
    dw = noise * truncation_level(h)
    x_new = transformed_step(tc, x, h, dw)
    # G(x') - h beta(x') = G(x) + sigma(x) G'(x) dW from the closed forms alone
    rhs = tr.g(x) + spec.diffusion(0.0, x) * tr.g_prime(x) * dw
    sig = spec.diffusion(0.0, x_new)
    beta = spec.drift(0.0, x_new) * tr.g_prime(x_new) + 0.5 * sig * sig * tr.g_second(x_new)
    residual = tr.g(x_new) - h * beta - rhs
    # the solver's residual tolerance, plus rounding: the solver evaluates the
    # left side as x' - h (beta - (G - x') / h), not as G - h beta
    assert abs(residual) <= (1e-12 + 1e-14) * (1.0 + abs(rhs))


@pytest.mark.parametrize("h", [2.0 ** -10, 2.0 ** -13])
def test_transformed_step_agrees_with_the_zspace_composition(h):
    # the step written in x-space against G^{-1} o (id - h btilde)^{-1} o
    # (id + dW sigmatilde) o G, built from the transformed coefficients
    tc = transformed_coefficients(builtin_model("sign_drift"))
    tr = tc.transform
    rng = np.random.default_rng(5)
    xs = np.concatenate([rng.uniform(1.0 - 2 * tr.c0, 1.0 + 2 * tr.c0, 2000),
                         rng.uniform(0.5, 1.5, 500)])
    a_h = truncation_level(h)
    dws = rng.uniform(-a_h, a_h, xs.size)

    def btilde(z):
        return tc.beta(tr.inverse(z))

    def sigmatilde(z):
        x = np.asarray(tr.inverse(z))
        return np.asarray(tc.base.diffusion(0.0, x)) * np.asarray(tr.g_prime(x))

    zs = np.asarray(tr.g(xs))
    old = np.asarray(tr.inverse(implicit_solve(zs + sigmatilde(zs) * dws, btilde, h)))
    new = transformed_step(tc, xs, h, dws)
    assert new == pytest.approx(old, rel=1e-10)


def test_transformed_block_never_inverts_the_transform(monkeypatch):
    # h = 2^-10 as in the strong-rate reference grid, where only the
    # monotone guard 1 - L a_h > 0 fails
    cfg = config_from_alias("tiem-mono", builtin_model("sign_drift"), guard_policy="warn")
    grid = TimeGrid(1.0, 2 ** 10)
    calls = []
    original = PiecewiseTransform.inverse

    def counting(transform, y):
        calls.append(np.size(y))
        return original(transform, y)

    monkeypatch.setattr(PiecewiseTransform, "inverse", counting)
    cfg.transformed.transform.inverse(1.0)
    assert calls == [1]
    calls.clear()
    block = simulate_path_block(cfg, grid, seed=3, start=0, count=16)
    # the paths do cross the bump, where G is not the identity
    near = np.abs(block - 1.0) < cfg.transformed.transform.c0
    assert near.sum() > 100
    assert calls == []


def test_symmetrised_step_values():
    # the reflected scheme fixes the mean-reversion level when dW = 0
    assert symmetrised_em_step(1.0, 1.0, 1.0, 1.0, 0.25, 0.0) == 1.0
    assert symmetrised_em_step(1.0, 0.8, 1.0, 0.0, 0.125, 0.0) == pytest.approx(0.1, rel=1e-12)
    # reflection: x + kappa(eta - x)h + gamma sqrt(x) dW = 1 + 0 - 1.5 = -0.5 -> 0.5
    assert symmetrised_em_step(1.0, 1.0, 1.0, 1.0, 0.25, -1.5) == pytest.approx(0.5, rel=1e-12)


def test_symmetrised_scheme_requires_cir():
    with pytest.raises(ConfigurationError):
        config_from_alias("sym-em", builtin_model("brownian"))


def test_simulate_path_driftless_is_cumsum():
    grid = TimeGrid(1.0, 64)
    dw = sample_increment_block(grid, seed=11, start=3, count=1)[0]
    cfg = config_from_alias("em", builtin_model("brownian"))
    path = simulate_path_block(cfg, grid, seed=11, start=3, count=1)[0]
    expected = np.concatenate([[0.0], np.cumsum(dw)])
    assert np.array_equal(path, expected)


def test_simulate_path_zero_noise_contracts():
    cubic = builtin_model("cubic")
    path = [cubic.initial_value]
    for k in range(10):
        path.append(semi_implicit_em_step(cubic, k * 0.1, path[-1], 0.1, 0.0))
    path = np.array(path)
    assert path[0] == 1.0
    assert path[1] == pytest.approx(CUBIC_ROOT_H01_Y1, rel=1e-11)
    assert np.all(np.diff(path) < 0.0)
    assert np.all(path > 0.0)


def test_simulate_path_same_stream_identical():
    grid = TimeGrid(1.0, 32)
    cfg = config_from_alias("tiem", builtin_model("cubic"))
    a = simulate_path_block(cfg, grid, seed=5, start=2, count=1)
    b = simulate_path_block(cfg, grid, seed=5, start=2, count=1)
    assert np.array_equal(a, b)


def test_simulate_coupled_factor_one_is_fine_path():
    fine = TimeGrid(1.0, 64)
    cfg = config_from_alias("iem", builtin_model("cubic"))
    out = simulate_coupled_block(cfg, fine, (1,), seed=9, start=4, count=1)
    direct = simulate_path_block(cfg, fine, seed=9, start=4, count=1)
    assert np.array_equal(out[1], direct)


def test_simulate_coupled_driftless_exact_on_shared_nodes():
    # coarse increments are exact sums of fine ones, so the driftless unit
    # diffusion agrees at shared nodes with no discretisation error at all
    fine = TimeGrid(1.0, 128)
    cfg = config_from_alias("em", builtin_model("brownian"))
    out = simulate_coupled_block(cfg, fine, (1, 8), seed=2, start=0, count=1)
    assert np.array_equal(out[8], out[1][:, ::8])


def test_simulate_coupled_errors_shrink_with_refinement():
    fine = TimeGrid(1.0, 256)
    cfg = config_from_alias("iem", builtin_model("cubic"))
    errs = []
    for factor in (64, 16, 4):
        out = simulate_coupled_block(cfg, fine, (1, factor), seed=21, start=0, count=32)
        sup = np.max(np.abs(out[factor] - out[1][:, ::factor]), axis=1)
        errs.append(np.sqrt(np.mean(sup ** 2)))
    assert errs[0] > errs[1] > errs[2]


def test_synchronous_legs_share_one_draw(monkeypatch):
    import awsde.schemes

    grid = TimeGrid(1.0, 64)
    configs = [config_from_alias("em", builtin_model("brownian")),
               config_from_alias("iem", builtin_model("cubic")),
               config_from_alias("tiem-mono", builtin_model("sign_drift"), guard_policy="warn"),
               config_from_alias("sym-em", builtin_model("cir"))]
    draws = []
    original = awsde.schemes.sample_increment_block

    def counting(grid, seed, start, count):
        draws.append((start, count))
        return original(grid, seed, start, count)

    monkeypatch.setattr(awsde.schemes, "sample_increment_block", counting)
    legs = simulate_synchronous_block(configs, grid, seed=9, start=5, count=7)
    # drawn before the first leg is asked for; legs are stepped lazily
    assert draws == [(5, 7)]
    swept = list(legs)
    assert draws == [(5, 7)]
    for config, leg in zip(configs, swept):
        assert np.array_equal(leg, simulate_path_block(config, grid, seed=9, start=5, count=7))


def test_synchronous_block_checks_every_guard_before_drawing(monkeypatch):
    import awsde.schemes

    draws = []
    monkeypatch.setattr(awsde.schemes, "sample_increment_block",
                        lambda *args: draws.append(args))
    grid = TimeGrid(1.0, 64)  # h = 1/64 > 1/500 breaks the transformed guard
    configs = [config_from_alias("em", builtin_model("brownian")),
               config_from_alias("tiem", builtin_model("sign_drift"))]
    with pytest.raises(StepSizeError):
        simulate_synchronous_block(configs, grid, seed=1, start=0, count=4)
    assert draws == []
    # the fine grid h = 1/1024 passes and the coarse grid h = 1/256 breaks
    # the guard; the coarse grid is checked before the fine one is drawn
    tiem = config_from_alias("tiem", builtin_model("sign_drift"))
    with pytest.raises(StepSizeError, match="h=0.00390625"):
        simulate_coupled_block(tiem, TimeGrid(1.0, 1024), (1, 4), seed=1, start=0, count=4)
    assert draws == []


def test_strict_guard_error_names_every_violated_grid():
    # h = 1/64, 1/32 and 1/16 all break tiem's h < 1/500 on sign_drift; the
    # warn-policy leg's monotone-guard messages stay out of the error
    grid = TimeGrid(1.0, 64)
    strict = config_from_alias("tiem", builtin_model("sign_drift"))
    warn = config_from_alias("tiem-mono", builtin_model("sign_drift"), guard_policy="warn")
    factors = (1, 2, 4)
    with pytest.raises(StepSizeError) as exc:
        simulate_synchronous_block((strict, warn), grid, seed=1, start=0, count=4, factors=factors)
    expected = [m for f in factors for m in guard_report(strict, grid.coarsen(f))]
    assert len(expected) == 3
    assert str(exc.value) == "; ".join(expected)
    for f in factors:
        assert f"h={grid.coarsen(f).step!r}" in str(exc.value)
    assert "monotone guard" not in str(exc.value)


def test_legs_by_grids_are_the_coupled_blocks_of_each_config():
    grid = TimeGrid(1.0, 64)
    configs = [config_from_alias("iem", builtin_model("cubic")),
               config_from_alias("tiem-mono", builtin_model("sign_drift"), guard_policy="warn")]
    factors = (1, 4, 16)
    legs = list(simulate_synchronous_block(configs, grid, seed=3, start=2, count=5,
                                           factors=factors))
    assert len(legs) == len(configs) * len(factors)
    for j, config in enumerate(configs):
        coupled = simulate_coupled_block(config, grid, factors, seed=3, start=2, count=5)
        for i, f in enumerate(factors):
            assert legs[j * len(factors) + i].shape == (5, 64 // f + 1)
            assert np.array_equal(legs[j * len(factors) + i], coupled[f])
        assert np.array_equal(coupled[1], simulate_path_block(config, grid, 3, 2, 5))


def test_coupled_block_drops_repeated_factors(monkeypatch):
    import awsde.schemes

    grid = TimeGrid(1.0, 64)
    cfg = config_from_alias("em", builtin_model("cubic"))
    stepped = []
    original = awsde.schemes._step_matrix

    def counting(config, grid, raw_dw):
        stepped.append(grid.steps)
        return original(config, grid, raw_dw)

    monkeypatch.setattr(awsde.schemes, "_step_matrix", counting)
    repeated = simulate_coupled_block(cfg, grid, (4, 1, 4), seed=8, start=0, count=3)
    assert list(repeated) == [4, 1]
    assert stepped == [16, 64]
    once = simulate_coupled_block(cfg, grid, (4, 1), seed=8, start=0, count=3)
    for f in once:
        assert np.array_equal(repeated[f], once[f])


@pytest.mark.parametrize("which,y", [("lower", -10.0), ("upper", 10.0)])
def test_bracket_expansion_failure_names_its_witness(which, y):
    # z - h (z / h + 1) = -h for every z, so no bracket end ever straddles y
    h = 0.5
    with pytest.raises(BracketError) as exc:
        implicit_solve(np.array([0.0, y, y]), lambda z: z / h + 1.0, h)
    message = str(exc.value)
    assert message.startswith(
        f"{which} bracket expansion failed; drift may not be one-sided Lipschitz; "
    )
    assert f"2 of 3 elements unresolved, first at index 1: y={y!r}, end=" in message
    end, res = (float(v) for v in re.search(r"end=(\S+), res=(\S+)$", message).groups())
    # 64 doublings moved the end about 2^64 outward and its residual kept the wrong sign
    assert np.sign(end) == np.sign(y) and abs(end) > 2.0 ** 63
    assert np.sign(res) == -np.sign(y)


def test_guard_policies():
    spec = builtin_model("sign_drift")
    grid = TimeGrid(1.0, 64)  # h = 1/64 > 1/500
    strict = config_from_alias("tiem", spec, guard_policy="strict")
    with pytest.raises(StepSizeError):
        simulate_path_block(strict, grid, seed=1, start=0, count=1)
    warn = config_from_alias("tiem", spec, guard_policy="warn")
    path = simulate_path_block(warn, grid, seed=1, start=0, count=1)
    assert np.all(np.isfinite(path))


# every alias on models it accepts; h = 1/64 breaks the transformed guards on
# sign_drift, so every config warns instead of raising
WIDTH_ONE_CASES = [
    ("em", "brownian"),
    ("em", "perturbed_sign"),
    ("em", "cubic"),
    ("iem", "cubic"),
    ("tiem", "cubic"),
    ("tiem", "sign_drift"),
    ("tiem-mono", "cubic"),
    ("tiem-mono", "sign_drift"),
    ("sym-em", "cir"),
]


@pytest.mark.parametrize("alias,model", WIDTH_ONE_CASES)
def test_block_rows_are_width_one_blocks(alias, model):
    grid = TimeGrid(1.0, 64)
    cfg = config_from_alias(alias, builtin_model(model), guard_policy="warn")
    start, count = 6, 3
    block = simulate_path_block(cfg, grid, seed=13, start=start, count=count)
    coupled = simulate_coupled_block(cfg, grid, (1, 4, 16), seed=13, start=start, count=count)
    for i in range(count):
        alone = simulate_path_block(cfg, grid, seed=13, start=start + i, count=1)
        assert np.array_equal(block[i], alone[0])
        alone_coupled = simulate_coupled_block(cfg, grid, (1, 4, 16), seed=13,
                                               start=start + i, count=1)
        for factor, paths in coupled.items():
            assert np.array_equal(paths[i], alone_coupled[factor][0])


def _kernel_loop(cfg, grid, dw):
    spec, h = cfg.spec, grid.step
    x = spec.initial_value
    path = [x]
    for k, d in enumerate(dw):
        t = k * h
        if cfg.scheme == "em":
            x = em_step(spec, t, x, h, d)
        elif cfg.scheme == "iem":
            x = semi_implicit_em_step(spec, t, x, h, d, enforce_guard=False)
        elif cfg.scheme in ("tiem", "tiem-mono"):
            x = transformed_step(cfg.transformed, x, h, d, enforce_guard=False)
        else:
            params = spec.params
            x = symmetrised_em_step(params["kappa"], params["eta"], params["gamma"], x, h, d)
        path.append(x)
    return np.array(path)


@pytest.mark.parametrize("alias,model", WIDTH_ONE_CASES)
def test_block_rows_follow_the_public_kernel(alias, model):
    grid = TimeGrid(1.0, 64)
    cfg = config_from_alias(alias, builtin_model(model), guard_policy="warn")
    dws = sample_increment_block(grid, seed=17, start=0, count=3)
    if cfg.monotone:
        a_h = truncation_level(grid)
        dws = np.clip(dws, -a_h, a_h)
    block = simulate_path_block(cfg, grid, seed=17, start=0, count=3)
    for row, dw in zip(block, dws):
        assert np.array_equal(row, _kernel_loop(cfg, grid, dw))


def test_implicit_map_strictly_increasing():
    ys = np.linspace(-5.0, 5.0, 401)
    zs = implicit_solve(ys, _cubic_drift, 0.25)
    assert np.all(np.diff(zs) > 0.0)
    tc = transformed_coefficients(builtin_model("sign_drift"))
    ys = np.linspace(0.5, 1.5, 401)
    # the transformed drift in z-space, btilde = beta o G^{-1}
    zs = implicit_solve(ys, lambda z: tc.beta(tc.transform.inverse(z)), 2.0 ** -10)
    assert np.all(np.diff(zs) > 0.0)


def test_one_step_monotone_in_state_and_noise():
    # 10^4 ordered pairs, truncated noise, guarded step size: the transformed
    # semi-implicit map must preserve order in both arguments
    spec = builtin_model("sign_drift")
    tc = transformed_coefficients(spec)
    h = 2.0 ** -13
    assert h < 1.0 / tc.one_sided_bound
    assert 1.0 - tc.lipschitz_bound * truncation_level(h) > 0.0
    rng = np.random.default_rng(77)
    n = 10_000
    xs = rng.uniform(0.5, 1.5, size=n)
    gaps = rng.uniform(1e-6, 0.25, size=n)
    a_h = truncation_level(h)
    dws = rng.uniform(-a_h, a_h, size=n)
    lo = transformed_step(tc, xs, h, dws)
    hi = transformed_step(tc, xs + gaps, h, dws)
    assert int(np.sum(hi <= lo)) == 0
    dgaps = rng.uniform(1e-8, 0.01, size=n)
    dlo = transformed_step(tc, xs, h, np.clip(dws - dgaps, -a_h, a_h))
    dhi = transformed_step(tc, xs, h, np.clip(dws + dgaps, -a_h, a_h))
    assert int(np.sum(dhi < dlo)) == 0


def test_truncated_driver_respects_level():
    # monotone block stepping clips at the level of the grid it steps on; with
    # zero drift and unit diffusion each step moves by the clipped increment
    cfg = config_from_alias("tiem-mono", builtin_model("perturbed_sign", k=0.0))
    grid = TimeGrid(1.0, 4)
    a_h = truncation_level(grid)
    raw = np.array([[3.0, 0.1, -3.0, -0.1]])
    path = _step_matrix(cfg, grid, raw)[0]
    assert np.array_equal(path, np.cumsum([0.0, a_h, 0.1, -a_h, -0.1]))


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.01, max_value=0.45))
@settings(max_examples=50, deadline=None)
def test_implicit_solve_residual_contract(y, h):
    z = implicit_solve(y, _cubic_drift, h)
    assert abs(z - h * float(_cubic_drift(z)) - y) <= 1e-12 * (1.0 + abs(y))


# -- implicit solve against the solve it replaced -----------------------------


def _parent_implicit_solve(y, drift, h):
    """The implicit solve before bracket residuals were kept, verbatim.

    It tested each bracket end, evaluated both ends again for their
    residuals, and formed the regula-falsi masks four times per iteration.
    """
    ys = np.asarray(y, dtype=float)

    def g(z):
        return z - h * np.asarray(drift(z))

    push = h * np.asarray(drift(ys))
    tol = _RESIDUAL_RTOL * (1.0 + np.abs(ys))
    if np.all(np.abs(push) <= tol):
        return ys if np.ndim(y) else float(ys)

    pad = np.abs(push) + 1.0
    lo = ys - pad
    hi = ys + pad

    width = np.ones_like(ys)
    need = g(lo) > ys
    for _ in range(64):
        if not need.any():
            break
        lo = np.where(need, lo - width, lo)
        width = np.where(need, 2.0 * width, width)
        need = need & (g(lo) > ys)
    if need.any():
        raise BracketError("lower bracket expansion failed; drift may not be one-sided Lipschitz")

    width = np.ones_like(ys)
    need = g(hi) < ys
    for _ in range(64):
        if not need.any():
            break
        hi = np.where(need, hi + width, hi)
        width = np.where(need, 2.0 * width, width)
        need = need & (g(hi) < ys)
    if need.any():
        raise BracketError("upper bracket expansion failed; drift may not be one-sided Lipschitz")

    flo = g(lo) - ys
    fhi = g(hi) - ys
    z = np.where(np.abs(push) <= tol, ys, 0.5 * (lo + hi))
    res = g(z) - ys
    active = np.abs(res) > tol
    side = np.zeros(ys.shape, dtype=np.int8)
    for _ in range(300):
        if not active.any():
            break
        neg = res < 0.0
        fhi = np.where(active & neg & (side == -1), 0.5 * fhi, fhi)
        flo = np.where(active & ~neg & (side == 1), 0.5 * flo, flo)
        lo = np.where(active & neg, z, lo)
        flo = np.where(active & neg, res, flo)
        hi = np.where(active & ~neg, z, hi)
        fhi = np.where(active & ~neg, res, fhi)
        side = np.where(active, np.where(neg, -1, 1).astype(np.int8), side)
        denom = fhi - flo
        secant = (lo * fhi - hi * flo) / np.where(denom == 0.0, 1.0, denom)
        cand = np.where(denom == 0.0, 0.5 * (lo + hi), secant)
        cand = np.minimum(np.maximum(cand, np.minimum(lo, hi)), np.maximum(lo, hi))
        z = np.where(active, cand, z)
        res = np.where(active, g(z) - ys, res)
        active = np.abs(res) > tol
    if active.any():
        raise BracketError("implicit drift solve did not reach the residual tolerance")

    return z if np.ndim(y) else float(z)


_SIGN_TC = transformed_coefficients(builtin_model("sign_drift"))


def _solve_inputs(model, width, h, seed, spread):
    """Right-hand sides and drift of one implicit solve, as the block loop forms them.

    For ``sign_drift`` the states sit around the jump at 1, most of them on
    its bump, and the drift is the transformed step's effective drift.  The
    ``steep`` drift ``0.95 z / h`` sits just inside the guard ``h < 1/L``,
    where the initial bracket is too narrow and has to expand.
    """
    rng = np.random.default_rng(seed)
    dw = np.sqrt(h) * rng.standard_normal(width)
    if model == "cubic":
        x = spread * rng.standard_normal(width)
        return x + dw, _cubic_drift
    if model == "steep":
        x = spread * rng.standard_normal(width)
        return x + dw, lambda z: (0.95 / h) * np.asarray(z)
    tc = _SIGN_TC
    tr = tc.transform
    x = 1.0 + tr.c0 * spread * rng.standard_normal(width)
    y = tr.g(x) + np.abs(x) * tr.g_prime(x) * dw
    return y, lambda v: tc.beta(v) - (tr.g(v) - v) / h


@given(st.sampled_from(("cubic", "sign_drift", "steep")), st.integers(1, 300), st.integers(5, 12),
       st.integers(0, 2 ** 32 - 1), st.sampled_from((0.5, 1.0, 3.0)))
@settings(max_examples=120, deadline=None)
def test_implicit_solve_equals_the_parent_solve(model, width, k, seed, spread):
    h = 2.0 ** -k
    y, drift = _solve_inputs(model, width, h, seed, spread)
    try:
        expected = _parent_implicit_solve(y, drift, h)
    except BracketError as exc:
        with pytest.raises(BracketError, match=str(exc)):
            implicit_solve(y, drift, h)
        return
    assert np.array_equal(implicit_solve(y, drift, h), expected)
    assert implicit_solve(y[0], drift, h) == _parent_implicit_solve(y[0], drift, h)


@given(st.integers(1, 300), st.integers(5, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_transformed_step_equals_the_parent_solve(width, k, seed):
    h = 2.0 ** -k
    rng = np.random.default_rng(seed)
    tr = _SIGN_TC.transform
    x = 1.0 + tr.c0 * rng.standard_normal(width)
    dw = np.sqrt(h) * rng.standard_normal(width)
    y = tr.g(x) + np.abs(x) * tr.g_prime(x) * dw
    try:
        expected = _parent_implicit_solve(y, lambda v: _SIGN_TC.beta(v) - (tr.g(v) - v) / h, h)
    except BracketError as exc:
        with pytest.raises(BracketError, match=str(exc)):
            transformed_step(_SIGN_TC, x, h, dw, enforce_guard=False)
        return
    assert np.array_equal(transformed_step(_SIGN_TC, x, h, dw, enforce_guard=False), expected)


@pytest.mark.parametrize("model", ["cubic", "sign_drift"])
def test_implicit_solve_evaluates_each_point_once(model):
    """Without bracket expansion a solve makes ``4 + iterations`` drift calls.

    They are at ``y``, at the two initial bracket ends, at the midpoint and at
    one iterate per regula-falsi iteration; no point is evaluated twice.
    """
    h = 2.0 ** -10
    y, drift = _solve_inputs(model, 128, h, 3, 1.0)
    seen = []

    def counting(v):
        seen.append(np.array(v, copy=True))
        return drift(v)

    z = implicit_solve(y, counting, h)
    pad = np.abs(h * np.asarray(drift(y))) + 1.0
    lo, hi = y - pad, y + pad
    assert np.all(lo - h * np.asarray(drift(lo)) <= y)  # no expansion
    assert np.all(hi - h * np.asarray(drift(hi)) >= y)
    assert np.array_equal(seen[0], y)
    assert np.array_equal(seen[1], lo) and np.array_equal(seen[2], hi)
    assert np.array_equal(seen[3], 0.5 * (lo + hi))
    assert np.array_equal(seen[-1], z)
    for i, a in enumerate(seen):
        assert not any(np.array_equal(a, b) for b in seen[:i])
    if model == "cubic":
        # 4 regula-falsi iterations; the parent's repeated bracket residuals made it 10
        assert len(seen) == 8
