"""The drift-regularising bijection and the coefficients it induces."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsde import (
    ConfigurationError,
    PiecewiseTransform,
    build_transform,
    builtin_model,
    config_from_alias,
    transformed_coefficients,
)


def test_sign_drift_transform_constants():
    tr = build_transform(builtin_model("sign_drift"))
    assert tr.breakpoints == (1.0,)
    # alpha = (b_- - b_+) / (2 sigma(1)^2) = 4 / 2, support radius 1/24
    assert tr.alphas == (2.0,)
    assert tr.c0 == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_cubic_transform_is_identity():
    tr = build_transform(builtin_model("cubic"))
    assert tr.is_identity
    xs = np.linspace(-3.0, 3.0, 7)
    assert np.array_equal(tr.g(xs), xs)
    assert np.array_equal(tr.inverse(xs), xs)


def test_forced_unit_bump_shape():
    tr = PiecewiseTransform(breakpoints=(0.0,), alphas=(1.0,), c0=1.0 / 6.0)
    # G - id is supported on [-1/6, 1/6] only
    outside = np.array([-1.0, -0.2, 0.17, 2.0])
    assert np.array_equal(tr.g(outside), outside)
    inside = np.array([-0.1, 0.05, 0.12])
    assert np.all(tr.g(inside) != inside)
    # G'(0) = 1: the bump has a flat tangent at its centre
    assert tr.g_prime(0.0) == 1.0
    # curvature jumps by 4 alpha across the centre
    left = tr.g_second(-1e-12)
    right = tr.g_second(0.0)
    assert right - left == pytest.approx(4.0, abs=1e-9)
    assert right == pytest.approx(2.0, abs=1e-9)


def test_g_prime_bounds():
    tr = build_transform(builtin_model("sign_drift"))
    xs = np.linspace(1.0 - 2.0 * tr.c0, 1.0 + 2.0 * tr.c0, 4001)
    gp = np.asarray(tr.g_prime(xs))
    assert gp.min() > 0.5 - 1e-12
    assert gp.max() < 1.5 + 1e-12
    assert gp.max() <= tr.lipschitz_bound + 1e-12


def test_inverse_single_point():
    tr = build_transform(builtin_model("sign_drift"))
    y = float(tr.g(1.02))
    assert tr.inverse(y) == pytest.approx(1.02, abs=1e-10)


def test_round_trip_dense(synthetic_spec):
    for spec in (builtin_model("sign_drift"), synthetic_spec):
        tr = build_transform(spec)
        xs = np.linspace(min(tr.breakpoints) - 1.0, max(tr.breakpoints) + 1.0, 20001)
        back = np.asarray(tr.inverse(np.asarray(tr.g(xs))))
        assert np.max(np.abs(back - xs)) <= 1e-10


def test_inverse_identity_off_bumps_bitwise():
    tr = build_transform(builtin_model("sign_drift"))
    ys = np.array([0.0, 0.9, 1.0 + tr.c0, 2.0, -5.0])
    out = np.asarray(tr.inverse(ys))
    assert np.array_equal(out, ys)


def test_synthetic_alphas_signs(synthetic_spec):
    tr = build_transform(synthetic_spec)
    assert tr.breakpoints == (-1.0, 0.0, 2.0)
    signs = [a > 0 for a in tr.alphas]
    # downward jumps give positive bump coefficients, the upward one negative
    assert signs == [True, False, True]
    sig = synthetic_spec.diffusion
    for xi, alpha, (lo, hi) in zip(tr.breakpoints, tr.alphas,
                                   [(2.0, -1.0), (-1.0, 1.5), (1.5, -0.5)]):
        s2 = float(np.asarray(sig(0.0, xi))) ** 2
        assert alpha == pytest.approx((lo - hi) / (2.0 * s2), rel=1e-9)


def test_curvature_jump_at_each_breakpoint(synthetic_spec):
    tr = build_transform(synthetic_spec)
    for xi, alpha in zip(tr.breakpoints, tr.alphas):
        jump = float(tr.g_second(xi)) - float(tr.g_second(xi - 1e-12))
        assert jump == pytest.approx(4.0 * alpha, rel=1e-6)


def test_transform_validation():
    with pytest.raises(ConfigurationError):
        PiecewiseTransform(breakpoints=(0.0, 1.0), alphas=(1.0,), c0=0.1)
    with pytest.raises(ConfigurationError):
        # supports overlap: c0 beyond half the gap
        PiecewiseTransform(breakpoints=(0.0, 1.0), alphas=(1.0, 1.0), c0=0.6)
    with pytest.raises(ConfigurationError):
        # 6 c0 |alpha| > 1 leaves the monotonicity envelope
        PiecewiseTransform(breakpoints=(0.0,), alphas=(4.0,), c0=0.5)
    # the boundary case 6 c0 |alpha| = 1 is admissible
    PiecewiseTransform(breakpoints=(0.0,), alphas=(1.0,), c0=1.0 / 6.0)


def test_transformed_drift_continuous_at_breakpoints(synthetic_spec):
    for spec in (builtin_model("sign_drift"), synthetic_spec):
        tc = transformed_coefficients(spec)
        tr = tc.transform
        for xi in tr.breakpoints:
            lo = tc.beta(xi - 1e-8)
            hi = tc.beta(xi + 1e-8)
            assert abs(hi - lo) <= 1e-6 * (1.0 + abs(lo))


def test_transformed_coefficients_match_raw_outside_bumps():
    spec = builtin_model("sign_drift")
    tc = transformed_coefficients(spec)
    xs = np.array([-2.0, 0.5, 1.0 - 1.5 * tc.transform.c0, 1.0 + 1.5 * tc.transform.c0, 3.0])
    # there G(x) = x, btilde(x) = beta(x) and sigmatilde(x) = sigma(x) G'(x)
    assert np.array_equal(np.asarray(tc.transform.g(xs)), xs)
    assert np.array_equal(np.asarray(tc.beta(xs)), np.asarray(spec.drift(0.0, xs)))
    assert np.array_equal(np.asarray(tc.transform.g_prime(xs)), np.ones_like(xs))


def test_transformed_constants_are_declared_values():
    tc = transformed_coefficients(builtin_model("sign_drift"))
    assert tc.one_sided_bound == 500.0
    assert tc.lipschitz_bound == 6.0


def test_identity_fallback_uses_spec_bounds():
    tc = transformed_coefficients(builtin_model("cubic"))
    assert tc.transform.is_identity
    assert tc.one_sided_bound == 0.0
    assert tc.lipschitz_bound == 0.0


def test_missing_declared_bounds_rejected():
    spec = builtin_model("sign_drift")
    stripped = dataclasses.replace(spec, transformed_drift_bound=None)
    with pytest.raises(ConfigurationError):
        transformed_coefficients(stripped)


def test_wrong_declared_bound_caught_by_probe():
    sign = builtin_model("sign_drift")

    def drift_nan_inside_bump(t, x):
        b = np.asarray(sign.drift(t, x), dtype=float)
        return np.where(np.abs(np.asarray(x) - 1.01) < 0.005, np.nan, b)

    for spec in (
        dataclasses.replace(sign, transformed_drift_bound=50.0),
        # below the probe slope 2.78 at k = 1; two of the probe points map to
        # the same z, and their 0/0 chord must not hide that slope
        dataclasses.replace(builtin_model("perturbed_sign", k=1.0), transformed_drift_bound=2.4),
        # a slope that is not finite bounds nothing
        dataclasses.replace(sign, drift=drift_nan_inside_bump),
    ):
        with pytest.raises(ConfigurationError, match="exceeded by the probe"):
            transformed_coefficients(spec)


def test_perturbed_sign_steps_with_the_transformed_scheme_for_every_k():
    for k in range(1, 11):
        config_from_alias("tiem", builtin_model("perturbed_sign", k=float(k)))


def test_building_transformed_coefficients_never_inverts(monkeypatch):
    calls = []
    original = PiecewiseTransform.inverse

    def counting(transform, y):
        calls.append(np.size(y))
        return original(transform, y)

    monkeypatch.setattr(PiecewiseTransform, "inverse", counting)
    spec = builtin_model("sign_drift")
    transformed_coefficients(spec)
    config_from_alias("tiem-mono", spec)
    assert calls == []


def test_wrong_regularity_class_rejected():
    with pytest.raises(ConfigurationError):
        build_transform(builtin_model("cir"))


@st.composite
def _valid_transforms(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    start = draw(st.floats(min_value=-3.0, max_value=0.0))
    gaps = [draw(st.floats(min_value=0.5, max_value=2.0)) for _ in range(m - 1)]
    bps = [start]
    for g in gaps:
        bps.append(bps[-1] + g)
    alphas = [draw(st.floats(min_value=-3.0, max_value=3.0).filter(lambda a: abs(a) > 1e-3))
              for _ in range(m)]
    worst = max(abs(a) for a in alphas)
    cap = min(1.0 / (12.0 * worst), 0.25 * min(gaps) if gaps else 1.0)
    c0 = draw(st.floats(min_value=cap * 0.2, max_value=cap))
    return PiecewiseTransform(breakpoints=tuple(bps), alphas=tuple(alphas), c0=c0)


@given(_valid_transforms(), st.floats(min_value=-4.0, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_random_transform_round_trip_and_monotone(tr, x):
    y = float(tr.g(x))
    assert tr.inverse(y) == pytest.approx(x, abs=1e-9)
    # strict monotonicity on a local probe around x
    step = 1e-4
    assert float(tr.g(x + step)) > y > float(tr.g(x - step))


# -- one-pass evaluator -------------------------------------------------------
#
# The oracle below is the three-pass evaluation that ``jets`` replaced, kept
# verbatim apart from taking the transform as an argument: one accumulation
# per derivative, each recomputing the offsets, masks and ``u``.


def _three_pass_accumulate(tr, x, term, base=None):
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs) if base is None else base.copy()
    for xi, alpha in zip(tr.breakpoints, tr.alphas):
        if alpha == 0.0:
            continue
        s = xs - xi
        mask = np.abs(s) < tr.c0
        if mask.any():
            out = np.where(mask, out + alpha * term(s, tr.c0), out)
    return out if np.ndim(x) else float(out)


def _three_pass_jets(tr, x):
    from awsde.transform import _f0, _f1, _f2

    def g_term(s, c0):
        u = np.minimum(np.abs(s) / c0, 1.0)
        return np.sign(s) * c0 * c0 * _f0(u)

    def g_prime_term(s, c0):
        u = np.minimum(np.abs(s) / c0, 1.0)
        return c0 * _f1(u)

    def g_second_term(s, c0):
        u = np.minimum(np.abs(s) / c0, 1.0)
        return np.where(s >= 0.0, 1.0, -1.0) * _f2(u)

    xs = np.asarray(x, dtype=float)
    return (_three_pass_accumulate(tr, x, g_term, base=xs),
            _three_pass_accumulate(tr, x, g_prime_term, base=np.ones_like(xs)),
            _three_pass_accumulate(tr, x, g_second_term))


_JET_MODELS = ["sign_drift", *(f"perturbed_sign:{k}" for k in range(1, 11)), "three_jump"]


def _jet_transform(name, synthetic_spec):
    if name == "three_jump":
        return build_transform(synthetic_spec)
    if name.startswith("perturbed_sign:"):
        return build_transform(builtin_model("perturbed_sign", k=float(name.split(":")[1])))
    return build_transform(builtin_model(name))


def _nudge(x, steps):
    """``x`` moved by ``steps`` representable doubles (toward +inf if positive)."""
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        x = np.nextafter(x, toward)
    return float(x)


def _special_points(tr):
    """Each jump point and support edge, with their nearest neighbours on both sides."""
    points = []
    for xi in tr.breakpoints:
        for anchor in (xi, xi + tr.c0, xi - tr.c0):
            points += [_nudge(anchor, steps) for steps in (-2, -1, 0, 1, 2)]
        points.append(float(np.nextafter(xi + tr.c0, 0.0)))
    return np.array(points)


def _assert_same_bits(new, old):
    assert len(new) == len(old) == 3
    for a, b in zip(new, old):
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name", _JET_MODELS)
def test_jets_equal_the_three_pass_evaluators_at_the_edges(name, synthetic_spec):
    tr = _jet_transform(name, synthetic_spec)
    xs = _special_points(tr)
    dense = np.concatenate([xi + tr.c0 * np.linspace(-1.25, 1.25, 40001) for xi in tr.breakpoints])
    _assert_same_bits(tr.jets(dense), _three_pass_jets(tr, dense))
    _assert_same_bits(tr.jets(xs), _three_pass_jets(tr, xs))
    for x in xs:
        new = tr.jets(float(x))
        assert all(type(v) is float for v in new)
        _assert_same_bits(new, _three_pass_jets(tr, float(x)))
    _assert_same_bits((tr.g(xs), tr.g_prime(xs), tr.g_second(xs)), _three_pass_jets(tr, xs))


_offsets = st.one_of(
    st.tuples(st.sampled_from((-1.0, 0.0, 1.0)), st.integers(-3, 3)),  # an edge, nudged
    st.tuples(st.floats(min_value=-1.5, max_value=1.5), st.just(0)),  # inside or near a bump
)


@given(st.sampled_from(_JET_MODELS),
       st.lists(st.tuples(st.integers(0, 2), _offsets), min_size=1, max_size=40),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_jets_equal_the_three_pass_evaluators(synthetic_spec, name, picks, seed):
    tr = _jet_transform(name, synthetic_spec)
    picked = [
        _nudge(tr.breakpoints[i % len(tr.breakpoints)] + rel * tr.c0, steps)
        for i, (rel, steps) in picks
    ]
    # plus uniform points over every bump, where rounding differences would show
    rng = np.random.default_rng(seed)
    near = np.concatenate([xi + tr.c0 * rng.uniform(-1.25, 1.25, 1000) for xi in tr.breakpoints])
    xs = np.concatenate([picked, rng.permutation(near)])
    _assert_same_bits(tr.jets(xs), _three_pass_jets(tr, xs))
    _assert_same_bits(tr.jets(xs[0]), _three_pass_jets(tr, xs[0]))
