"""Builtin coefficient specs and assumption probing."""

import warnings

import numpy as np
import pytest

from awsde import (
    BUILTIN_MODELS,
    CoefficientSpec,
    ConfigurationError,
    builtin_model,
    validate_assumptions,
)


def test_builtin_names():
    assert set(BUILTIN_MODELS) == {
        "cubic", "sign_drift", "brownian", "perturbed_sign", "cir", "sign_sin_holder",
    }
    with pytest.raises(ConfigurationError):
        builtin_model("no_such_model")


def test_every_builtin_passes_its_declared_class():
    points = np.linspace(-10.0, 10.0, 1001)
    for name in BUILTIN_MODELS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = builtin_model(name)
        report = validate_assumptions(spec, points)
        assert report.verdict == "pass", (name, report)


def test_cubic_satisfies_one_sided_condition():
    spec = builtin_model("cubic")
    report = validate_assumptions(spec)
    assert report.check("drift_one_sided").verdict == "pass"
    assert report.verdict == "pass"


def test_sign_drift_passes_and_jump_size():
    spec = builtin_model("sign_drift")
    assert validate_assumptions(spec).verdict == "pass"
    assert spec.breakpoints == (1.0,)
    # drift jump at the breakpoint: 2.5 below, -1.5 at and above
    assert float(np.asarray(spec.drift(0.0, 1.0 - 1e-9))) - float(
        np.asarray(spec.drift(0.0, 1.0))) == 4.0


def test_vanishing_diffusion_at_breakpoint_fails():
    spec = CoefficientSpec(
        drift=lambda t, x: -np.asarray(x, dtype=float) ** 3,
        diffusion=lambda t, x: np.asarray(x, dtype=float),
        initial_value=1.0,
        breakpoints=(0.0,),
        one_sided_lipschitz_bound=0.0,
        diffusion_lipschitz_bound=1.0,
        growth_constants=(3.0, 2.0, 1.0),
        regularity_class="growth_disc",
        name="degenerate",
    )
    report = validate_assumptions(spec)
    check = report.check("diffusion_nonzero_at_breakpoints")
    assert check.verdict == "fail"
    assert check.witness == (0.0,)
    # the witness is replayable: sigma really vanishes there
    assert float(np.asarray(spec.diffusion(0.0, 0.0))) == 0.0
    assert report.verdict == "fail"


def test_synthetic_three_jump_passes(synthetic_spec):
    assert validate_assumptions(synthetic_spec).verdict == "pass"


def test_additive_sign_passes(additive_sign_spec):
    assert validate_assumptions(additive_sign_spec).verdict == "pass"


def test_cir_feller_flag():
    # the flag lives on the spec; estimators turn it into a runtime warning
    ok = builtin_model("cir", kappa=1.0, eta=1.0, gamma=1.0)
    assert ok.warnings == ()
    bad = builtin_model("cir", kappa=1.0, eta=1.0, gamma=2.0)
    assert any("feller" in w.lower() for w in bad.warnings)


def test_cir_rejects_bad_params():
    with pytest.raises(ConfigurationError):
        builtin_model("cir", gamma=-1.0)
    with pytest.raises(ConfigurationError):
        builtin_model("cir", x0=-0.5)


def test_perturbed_sign_zero_is_driftless():
    spec = builtin_model("perturbed_sign", k=0.0)
    ref = builtin_model("brownian")
    xs = np.linspace(-5.0, 5.0, 101)
    assert np.array_equal(np.asarray(spec.drift(0.0, xs)), np.asarray(ref.drift(0.0, xs)))
    assert np.array_equal(np.asarray(spec.diffusion(0.0, xs)), np.asarray(ref.diffusion(0.0, xs)))
    assert spec.breakpoints == ()


def test_perturbed_sign_amplitude_and_range():
    spec = builtin_model("perturbed_sign", k=3.0)
    assert float(np.asarray(spec.drift(0.0, 1.0))) == 0.3
    assert float(np.asarray(spec.drift(0.0, -1.0))) == -0.3
    with pytest.raises(ConfigurationError):
        builtin_model("perturbed_sign", k=11.0)


def test_unknown_param_rejected():
    with pytest.raises(ConfigurationError):
        builtin_model("cubic", nope=1.0)


@pytest.mark.parametrize("name, param, value", [
    ("cir", "kappa", float("nan")),
    ("cir", "eta", float("inf")),
    ("cubic", "x0", -float("inf")),
    ("perturbed_sign", "k", "a"),
    ("perturbed_sign", "k", "3"),
    ("perturbed_sign", "k", None),
    ("sign_drift", "x0", True),
])
def test_builtin_model_refuses_non_numeric_and_non_finite_parameters(name, param, value):
    with pytest.raises(ConfigurationError, match=f"parameter '{param}' of model '{name}'"):
        builtin_model(name, **{param: value})


def test_builtin_model_accepts_numpy_and_integer_parameters():
    spec = builtin_model("perturbed_sign", k=np.int64(3), x0=np.float32(0.5))
    assert spec.params == {"k": 3.0, "x0": 0.5}
    assert all(type(v) is float for v in spec.params.values())
