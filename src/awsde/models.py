"""Coefficient specifications for scalar SDEs ``dX = b(t, X) dt + sigma(t, X) dW``.

A :class:`CoefficientSpec` bundles the coefficient callables with the constants
the schemes and estimators need (one-sided Lipschitz bound for the drift,
Lipschitz bound for the diffusion, growth constants) and a regularity class
tag.  The class tag decides which assumptions :func:`validate_assumptions`
probes and which guarantees downstream consumers may rely on:

- ``lipschitz``: globally Lipschitz drift and diffusion,
- ``growth_disc``: time-homogeneous, drift piecewise one-sided Lipschitz with
  finitely many jump points, locally exponential growth, Lipschitz diffusion
  that does not vanish at any drift jump point,
- ``regular``: continuous coefficients of linear growth (pathwise uniqueness
  is assumed, not probed),
- ``zvonkin``: bounded measurable drift, bounded uniformly non-degenerate
  Holder diffusion.

Probing can refute an assumption (with a witness) but never prove it; verdicts
are ``pass`` (no violation found), ``fail`` (witness found) or ``inconclusive``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Array",
    "Coefficient",
    "CoefficientSpec",
    "ConditionCheck",
    "AssumptionReport",
    "validate_assumptions",
    "builtin_model",
    "BUILTIN_MODELS",
]

Array = np.ndarray
# Coefficients are functions of (t, x); x may be a float or an ndarray and the
# result must broadcast like x.
Coefficient = Callable[[float, "Array | float"], "Array | float"]

REGULARITY_CLASSES = ("lipschitz", "growth_disc", "regular", "zvonkin")


@dataclass(frozen=True, eq=False)
class CoefficientSpec:
    """Scalar SDE coefficients plus the constants the rest of the package consumes.

    Only constants that are actually declared are used; estimating a missing
    bound from samples is never done silently.  ``one_sided_lipschitz_bound``
    refers to the within-interval bound between consecutive breakpoints.
    ``transformed_drift_bound`` and ``transformed_diffusion_bound`` are the
    declared one-sided Lipschitz / Lipschitz constants of the coefficients
    after the drift-regularising transform; they are required only to step the
    transformed scheme.
    """

    drift: Coefficient
    diffusion: Coefficient
    initial_value: float
    breakpoints: tuple[float, ...] = ()
    one_sided_lipschitz_bound: float | None = None
    drift_lipschitz_bound: float | None = None
    diffusion_lipschitz_bound: float | None = None
    growth_constants: tuple[float, float, float] | None = None
    regularity_class: str = "lipschitz"
    name: str = ""
    params: Mapping[str, float] = field(default_factory=dict)
    transformed_drift_bound: float | None = None
    transformed_diffusion_bound: float | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.regularity_class not in REGULARITY_CLASSES:
            raise ConfigurationError(
                f"unknown regularity class {self.regularity_class!r}; "
                f"expected one of {REGULARITY_CLASSES}"
            )
        bps = tuple(float(b) for b in self.breakpoints)
        if any(not np.isfinite(b) for b in bps):
            raise ConfigurationError(f"breakpoints must be finite, got {bps}")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ConfigurationError(f"breakpoints must be strictly increasing, got {bps}")
        object.__setattr__(self, "breakpoints", bps)
        if not np.isfinite(self.initial_value):
            raise ConfigurationError(f"initial_value must be finite, got {self.initial_value!r}")
        if bps and self.regularity_class not in ("growth_disc",):
            raise ConfigurationError(
                "breakpoints are only meaningful for regularity class 'growth_disc'"
            )


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of probing one assumption: verdict plus a re-checkable witness.

    For a ``fail`` verdict the witness is the probe input(s) realising the
    violation, so the check can be replayed by evaluating the coefficients at
    the witness.
    """

    condition: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    witness: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    """All condition checks for one spec, with an aggregate verdict."""

    regularity_class: str
    checks: tuple[ConditionCheck, ...]

    @property
    def verdict(self) -> str:
        if any(c.verdict == "fail" for c in self.checks):
            return "fail"
        if any(c.verdict == "inconclusive" for c in self.checks):
            return "inconclusive"
        return "pass"

    def check(self, condition: str) -> ConditionCheck:
        for c in self.checks:
            if c.condition == condition:
                return c
        raise KeyError(condition)


# ---------------------------------------------------------------------------
# assumption probing
# ---------------------------------------------------------------------------

_PROBE_TOL = 1e-9


def _pairwise(points: Array) -> tuple[Array, Array]:
    x = points[:, None]
    y = points[None, :]
    return x, y


def _check_lipschitz(
    name: str, f: Coefficient, points: Array, bound: float | None, t: float = 0.0
) -> ConditionCheck:
    if bound is None:
        raise ConfigurationError(f"missing Lipschitz bound required for check {name!r}")
    vals = np.asarray(f(t, points), dtype=float)
    x, y = _pairwise(points)
    fx, fy = vals[:, None], vals[None, :]
    gap = np.abs(fx - fy) - bound * np.abs(x - y)
    slack = _PROBE_TOL * (1.0 + np.abs(fx) + np.abs(fy))
    bad = gap > slack
    if bad.any():
        i, j = np.unravel_index(np.argmax(gap - slack), gap.shape)
        return ConditionCheck(
            name, "fail", witness=(float(points[i]), float(points[j])),
            detail=f"|f(x)-f(y)| exceeds {bound}*|x-y| at the witness pair",
        )
    return ConditionCheck(name, "pass")


def _check_one_sided(
    name: str,
    f: Coefficient,
    points: Array,
    bound: float | None,
    groups: Array,
) -> ConditionCheck:
    """One-sided Lipschitz within each group: (x-y)(f(x)-f(y)) <= L (x-y)^2."""
    if bound is None:
        raise ConfigurationError(f"missing one-sided Lipschitz bound required for {name!r}")
    vals = np.asarray(f(0.0, points), dtype=float)
    x, y = _pairwise(points)
    same = groups[:, None] == groups[None, :]
    lhs = (x - y) * (vals[:, None] - vals[None, :])
    rhs = bound * (x - y) ** 2
    bad = same & (lhs > rhs + _PROBE_TOL * (1.0 + np.abs(lhs)))
    if bad.any():
        excess = np.where(bad, lhs - rhs, -np.inf)
        i, j = np.unravel_index(np.argmax(excess), excess.shape)
        return ConditionCheck(
            name, "fail", witness=(float(points[i]), float(points[j])),
            detail=f"(x-y)(f(x)-f(y)) exceeds {bound}(x-y)^2 at the witness pair",
        )
    return ConditionCheck(name, "pass")


def _check_growth(
    name: str,
    f: Coefficient,
    points: Array,
    constants: tuple[float, float, float] | None,
    groups: Array,
) -> ConditionCheck:
    """|f(x)-f(y)| <= K (e^{g|x|^e} + e^{g|y|^e}) |x-y| within each group."""
    if constants is None:
        raise ConfigurationError(f"missing growth constants required for {name!r}")
    k_b, gam, eta = constants
    vals = np.asarray(f(0.0, points), dtype=float)
    x, y = _pairwise(points)
    same = groups[:, None] == groups[None, :]
    weight = np.exp(gam * np.abs(x) ** eta) + np.exp(gam * np.abs(y) ** eta)
    lhs = np.abs(vals[:, None] - vals[None, :])
    rhs = k_b * weight * np.abs(x - y)
    bad = same & (lhs > rhs * (1.0 + _PROBE_TOL) + _PROBE_TOL)
    if bad.any():
        i, j = np.unravel_index(np.argmax(np.where(bad, lhs - rhs, -np.inf)), lhs.shape)
        return ConditionCheck(
            name, "fail", witness=(float(points[i]), float(points[j])),
            detail="local exponential growth bound violated at the witness pair",
        )
    return ConditionCheck(name, "pass")


def _check_continuity(name: str, f: Coefficient, points: Array) -> ConditionCheck:
    # A large two-sided gap at scale delta is evidence of a jump; sampling
    # cannot prove continuity, so the good case stays "pass" by convention.
    delta = 1e-9 * (1.0 + np.abs(points))
    left = np.asarray(f(0.0, points - delta), dtype=float)
    right = np.asarray(f(0.0, points + delta), dtype=float)
    gap = np.abs(right - left)
    tol = 1e-2 * (1.0 + np.abs(left) + np.abs(right))
    bad = gap > tol
    if bad.any():
        i = int(np.argmax(gap - tol))
        return ConditionCheck(
            name, "fail", witness=(float(points[i]),),
            detail="two-sided values differ at scale 1e-9 around the witness point",
        )
    return ConditionCheck(name, "pass")


def _check_time_homogeneous(spec: CoefficientSpec, points: Array) -> ConditionCheck:
    for f, tag in ((spec.drift, "drift"), (spec.diffusion, "diffusion")):
        v0 = np.asarray(f(0.0, points), dtype=float)
        v1 = np.asarray(f(0.73105, points), dtype=float)
        mismatch = v0 != v1
        if mismatch.any():
            i = int(np.argmax(mismatch))
            return ConditionCheck(
                "time_homogeneous", "fail", witness=(tag, float(points[i])),
                detail=f"{tag} differs between t=0 and t=0.73105 at the witness point",
            )
    return ConditionCheck("time_homogeneous", "pass")


def validate_assumptions(spec: CoefficientSpec, points: "Array | None" = None) -> AssumptionReport:
    """Probe the assumptions of ``spec.regularity_class`` on a point set.

    Parameters
    ----------
    points:
        Probe locations; defaults to 1001 equispaced points on ``[-10, 10]``
        together with the breakpoints shifted by ``+-1e-6`` (so one-sided
        behaviour near jumps is exercised).

    Raises
    ------
    ConfigurationError
        If a constant required by the declared class is missing.
    """
    if points is None:
        points = np.linspace(-10.0, 10.0, 1001)
    points = np.asarray(points, dtype=float)
    if spec.breakpoints:
        extra = np.concatenate(
            [np.asarray(spec.breakpoints) - 1e-6, np.asarray(spec.breakpoints) + 1e-6]
        )
        points = np.unique(np.concatenate([points, extra]))

    cls = spec.regularity_class
    checks: list[ConditionCheck] = []

    if cls == "lipschitz":
        checks.append(_check_lipschitz("drift_lipschitz", spec.drift, points,
                                       spec.drift_lipschitz_bound))
        checks.append(_check_lipschitz("diffusion_lipschitz", spec.diffusion, points,
                                       spec.diffusion_lipschitz_bound))
    elif cls == "growth_disc":
        # side="right" puts each breakpoint into the interval to its right,
        # matching the right-continuous convention of the piecewise drifts
        groups = np.searchsorted(np.asarray(spec.breakpoints), points, side="right")
        checks.append(_check_time_homogeneous(spec, points))
        checks.append(_check_one_sided("drift_one_sided", spec.drift, points,
                                       spec.one_sided_lipschitz_bound, groups))
        checks.append(_check_growth("drift_growth", spec.drift, points,
                                    spec.growth_constants, groups))
        checks.append(_check_lipschitz("diffusion_lipschitz", spec.diffusion, points,
                                       spec.diffusion_lipschitz_bound))
        sig = np.asarray(spec.diffusion(0.0, np.asarray(spec.breakpoints, dtype=float)),
                         dtype=float)
        zero = sig == 0.0
        if spec.breakpoints and zero.any():
            k = int(np.argmax(zero))
            checks.append(ConditionCheck(
                "diffusion_nonzero_at_breakpoints", "fail",
                witness=(spec.breakpoints[k],),
                detail="diffusion vanishes at a drift breakpoint",
            ))
        else:
            checks.append(ConditionCheck("diffusion_nonzero_at_breakpoints", "pass"))
    elif cls == "regular":
        checks.append(_check_continuity("drift_continuity", spec.drift, points))
        checks.append(_check_continuity("diffusion_continuity", spec.diffusion, points))
        if spec.growth_constants is not None:
            k_b = spec.growth_constants[0]
            vals = np.abs(np.asarray(spec.drift(0.0, points), dtype=float))
            bad = vals > k_b * (1.0 + np.abs(points)) + _PROBE_TOL
            if bad.any():
                i = int(np.argmax(bad))
                checks.append(ConditionCheck(
                    "drift_linear_growth", "fail", witness=(float(points[i]),),
                    detail=f"|b(x)| exceeds {k_b}(1+|x|) at the witness point",
                ))
            else:
                checks.append(ConditionCheck("drift_linear_growth", "pass"))
        else:
            checks.append(ConditionCheck(
                "drift_linear_growth", "inconclusive",
                detail="no growth constant declared; observed values only",
            ))
    elif cls == "zvonkin":
        if spec.growth_constants is None:
            raise ConfigurationError(
                "class 'zvonkin' requires growth_constants with the drift bound first"
            )
        k_b = spec.growth_constants[0]
        vals = np.abs(np.asarray(spec.drift(0.0, points), dtype=float))
        if (vals > k_b + _PROBE_TOL).any():
            i = int(np.argmax(vals))
            checks.append(ConditionCheck(
                "drift_bounded", "fail", witness=(float(points[i]),),
                detail=f"|b| exceeds the declared bound {k_b} at the witness point",
            ))
        else:
            checks.append(ConditionCheck("drift_bounded", "pass"))
        sig = np.asarray(spec.diffusion(0.0, points), dtype=float)
        if (sig <= 0.0).any():
            i = int(np.argmax(sig <= 0.0))
            checks.append(ConditionCheck(
                "diffusion_nondegenerate", "fail", witness=(float(points[i]),),
                detail="diffusion is not strictly positive at the witness point",
            ))
        else:
            checks.append(ConditionCheck(
                "diffusion_nondegenerate", "pass",
                witness=(float(points[int(np.argmin(sig))]), float(sig.min())),
            ))
        if not np.isfinite(sig).all() or (np.abs(sig) > 1e12).any():
            checks.append(ConditionCheck("diffusion_bounded", "fail"))
        else:
            checks.append(ConditionCheck(
                "diffusion_bounded", "pass", witness=(float(np.abs(sig).max()),)
            ))

    return AssumptionReport(regularity_class=cls, checks=tuple(checks))


# ---------------------------------------------------------------------------
# builtin models
# ---------------------------------------------------------------------------

BUILTIN_MODELS = (
    "cubic",
    "sign_drift",
    "brownian",
    "perturbed_sign",
    "cir",
    "sign_sin_holder",
)


def _const(value: float) -> Coefficient:
    def f(t: float, x):
        return np.full_like(np.asarray(x, dtype=float), value)
    return f


def builtin_model(name: str, /, **params: float) -> CoefficientSpec:
    """Construct a named builtin model.

    Supported names and parameters (all parameters optional, shown with
    defaults):

    - ``cubic``: ``dX = -X^3 dt + dW``, ``x0=1.0``
    - ``sign_drift``: ``dX = (1/2 - 2 sign(X - 1)) dt + |X| dW``, ``x0=0.5``
    - ``brownian``: ``dX = dW``, ``x0=0.0``
    - ``perturbed_sign``: ``dX = (k/10) sign(X) dt + dW``, ``k=1``, ``x0=0.0``
    - ``cir``: ``dX = kappa (eta - X) dt + gamma sqrt(X) dW``,
      ``kappa=1.0, eta=1.0, gamma=1.0, x0=1.0``; violating the Feller
      condition ``2 kappa eta >= gamma^2`` sets a warning flag, not an error
    - ``sign_sin_holder``: ``dX = sign(sin X) dt + sigma(X) dW`` with
      ``sigma(x) = 1 + sqrt(|x|)`` for ``|x| <= 4`` and ``3`` beyond, ``x0=0.0``

    Step functions use the right-continuous convention at their jump points.
    """

    def _take(defaults: dict[str, float]) -> dict[str, float]:
        unknown = set(params) - set(defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {sorted(unknown)} for model {name!r}; "
                f"expected subset of {sorted(defaults)}"
            )
        out = dict(defaults)
        for key, value in params.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value):
                raise ConfigurationError(
                    f"parameter {key!r} of model {name!r} must be a finite real number, "
                    f"got {value!r}"
                )
            out[key] = float(value)
        return out

    if name == "cubic":
        p = _take({"x0": 1.0})
        return CoefficientSpec(
            drift=lambda t, x: -np.asarray(x, dtype=float) ** 3,
            diffusion=_const(1.0),
            initial_value=p["x0"],
            one_sided_lipschitz_bound=0.0,
            diffusion_lipschitz_bound=0.0,
            # |x^3 - y^3| <= 3 max(x,y)^2 |x-y| and x^2 <= e^{2|x|}
            growth_constants=(3.0, 2.0, 1.0),
            regularity_class="growth_disc",
            name="cubic",
            params=p,
            transformed_drift_bound=0.0,
            transformed_diffusion_bound=0.0,
        )

    if name == "sign_drift":
        p = _take({"x0": 0.5})
        return CoefficientSpec(
            drift=lambda t, x: np.where(np.asarray(x, dtype=float) >= 1.0, -1.5, 2.5),
            diffusion=lambda t, x: np.abs(np.asarray(x, dtype=float)),
            initial_value=p["x0"],
            breakpoints=(1.0,),
            one_sided_lipschitz_bound=0.0,
            diffusion_lipschitz_bound=1.0,
            growth_constants=(1.0, 1.0, 1.0),
            regularity_class="growth_disc",
            name="sign_drift",
            params=p,
            # Derived from the bump polynomial extrema with alpha=2, c0=1/24:
            # sup of the transformed drift slope is ~475 and of the transformed
            # diffusion slope ~5.75; declared with a safety margin.
            transformed_drift_bound=500.0,
            transformed_diffusion_bound=6.0,
        )

    if name == "brownian":
        p = _take({"x0": 0.0})
        return CoefficientSpec(
            drift=_const(0.0),
            diffusion=_const(1.0),
            initial_value=p["x0"],
            drift_lipschitz_bound=0.0,
            one_sided_lipschitz_bound=0.0,
            diffusion_lipschitz_bound=0.0,
            regularity_class="lipschitz",
            name="brownian",
            params=p,
            transformed_drift_bound=0.0,
            transformed_diffusion_bound=0.0,
        )

    if name == "perturbed_sign":
        p = _take({"k": 1.0, "x0": 0.0})
        k = p["k"]
        if not 0.0 <= k <= 10.0:
            raise ConfigurationError(f"perturbed_sign expects k in [0, 10], got {k}")
        amp = k / 10.0
        if k == 0.0:
            drift: Coefficient = _const(0.0)
            breakpoints: tuple[float, ...] = ()
        else:
            drift = lambda t, x: amp * np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)
            breakpoints = (0.0,)
        return CoefficientSpec(
            drift=drift,
            diffusion=_const(1.0),
            initial_value=p["x0"],
            breakpoints=breakpoints,
            one_sided_lipschitz_bound=0.0,
            diffusion_lipschitz_bound=0.0,
            growth_constants=(1.0, 1.0, 1.0),
            regularity_class="growth_disc",
            name="perturbed_sign",
            params=p,
            # alpha = -k/10, c0 = 1/(12 |alpha|): on a 2e6-point grid the drift
            # slope reaches ~288 alpha^2 and the diffusion slope ~2.26 alpha
            # (tools/oracles/transformed_bounds_probe.py); declared with margin.
            transformed_drift_bound=300.0 * amp * amp,
            transformed_diffusion_bound=5.0 * amp,
        )

    if name == "cir":
        p = _take({"kappa": 1.0, "eta": 1.0, "gamma": 1.0, "x0": 1.0})
        kappa, eta, gamma = p["kappa"], p["eta"], p["gamma"]
        if min(kappa, eta, gamma) <= 0.0 or p["x0"] < 0.0:
            raise ConfigurationError(
                f"cir requires kappa, eta, gamma > 0 and x0 >= 0, got {p}"
            )
        warnings: tuple[str, ...] = ()
        if 2.0 * kappa * eta < gamma * gamma:
            warnings = (
                "feller condition violated: 2*kappa*eta < gamma^2; the strong "
                "L2 rate 1/2 of the symmetrised scheme is not guaranteed",
            )
        return CoefficientSpec(
            drift=lambda t, x: kappa * (eta - np.asarray(x, dtype=float)),
            diffusion=lambda t, x: gamma * np.sqrt(np.maximum(np.asarray(x, dtype=float), 0.0)),
            initial_value=p["x0"],
            one_sided_lipschitz_bound=0.0,
            drift_lipschitz_bound=kappa,
            growth_constants=(max(kappa * eta, kappa), 1.0, 1.0),
            regularity_class="regular",
            name="cir",
            params=p,
            warnings=warnings,
        )

    if name == "sign_sin_holder":
        p = _take({"x0": 0.0})

        def sigma(t: float, x):
            ax = np.abs(np.asarray(x, dtype=float))
            return np.where(ax <= 4.0, 1.0 + np.sqrt(ax), 3.0)

        return CoefficientSpec(
            drift=lambda t, x: np.where(np.sin(np.asarray(x, dtype=float)) >= 0.0, 1.0, -1.0),
            diffusion=sigma,
            initial_value=p["x0"],
            growth_constants=(1.0, 1.0, 1.0),
            regularity_class="zvonkin",
            name="sign_sin_holder",
            params=p,
        )

    raise ConfigurationError(
        f"unknown builtin model {name!r}; expected one of {BUILTIN_MODELS}"
    )
