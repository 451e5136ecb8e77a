"""Drift-regularising space transform for piecewise one-sided Lipschitz drift.

For a scalar SDE ``dX = b(t, X) dt + sigma(t, X) dW`` whose drift jumps at
finitely many points ``xi_1 < ... < xi_m`` (time-homogeneous, ``sigma(xi_k)
!= 0``), the map

    G(x) = x + sum_k alpha_k * phibar_k(x),
    alpha_k = (b(xi_k-) - b(xi_k+)) / (2 * sigma(xi_k)^2),

with a compactly supported bump ``phibar_k`` around each jump point, is a
monotone C^1 bijection with Lipschitz second derivative such that
``Y = G(X)`` solves an SDE with continuous, one-sided Lipschitz drift and
diffusion given, at ``Y = G(x)``, by

    btilde(G(x)) = beta(x) = b(x) G'(x) + sigma(x)^2 G''(x) / 2,
    sigmatilde(G(x)) = sigma(x) G'(x).

The transformed step and the probe of the declared constants work in
x-space with these closed forms of ``G``, ``G'``, ``G''`` and ``beta``; they
never evaluate ``G^{-1}``.  :meth:`PiecewiseTransform.jets` evaluates ``G``,
``G'`` and ``G''`` together in one pass over the breakpoints; the single
evaluators are its projections.  :meth:`PiecewiseTransform.inverse` serves the
transform dump and the tests.

The curvature jump of ``G`` at ``xi_k`` (``G''(xi_k+-) = +-2 alpha_k``) cancels
the drift jump; the cancellation identity is
``b(xi_k+) - b(xi_k-) + 2 alpha_k sigma(xi_k)^2 = 0``.

The bump is the degree-8 piecewise polynomial

    phibar(xi + s) = sign(s) * c0^2 * F(|s| / c0),    F(u) = u^2 (1 - u^2)^3,

supported on ``|s| <= c0``, with derivatives

    F'(u)   = 2 u (1 - u^2)^2 (1 - 4 u^2),
    F''(u)  = 2 (1 - u^2) (1 - 17 u^2 + 28 u^4),
    F'''(u) = -72 u + 360 u^3 - 336 u^5.

``F''(0) = 2`` produces the required curvature jump, ``F(1) = F'(1) = F''(1)
= 0`` makes ``G`` equal to the identity outside the bumps with two continuous
derivatives, and ``sup |F'| < 6`` keeps ``G'`` inside
``[1 - 6 c0 max|alpha|, 1 + 6 c0 max|alpha|]`` under the support-radius rule

    c0 = 0.5 * min( min_k 1 / (6 |alpha_k|),  min_k (xi_{k+1} - xi_k) / 2 ),

so ``G' >= 1/2 > 0`` always and bumps of neighbouring jump points never
overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, ConfigurationError
from .models import CoefficientSpec

__all__ = [
    "PiecewiseTransform",
    "TransformedCoefficients",
    "build_transform",
    "transformed_coefficients",
]

Array = np.ndarray

_LIMIT_DELTA = 1e-8
_LIMIT_RTOL = 1e-6


# ---------------------------------------------------------------------------
# bump polynomial on the reference interval [0, 1]
# ---------------------------------------------------------------------------


def _f0(u: Array) -> Array:
    w = 1.0 - u * u
    return u * u * w * w * w


def _f1(u: Array) -> Array:
    w = 1.0 - u * u
    return 2.0 * u * w * w * (1.0 - 4.0 * u * u)


def _f2(u: Array) -> Array:
    u2 = u * u
    return 2.0 * (1.0 - u2) * (1.0 - 17.0 * u2 + 28.0 * u2 * u2)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseTransform:
    """The monotone bijection ``G`` and its derivatives.

    All evaluators accept floats or arrays and vectorise elementwise.
    :meth:`jets` computes ``G``, ``G'`` and ``G''`` in one pass over the
    breakpoints; ``g``, ``g_prime`` and ``g_second`` each return one of its
    three values.  At a jump point itself ``G''`` is the right limit ``+2
    alpha_k``.
    """

    breakpoints: tuple[float, ...]
    alphas: tuple[float, ...]
    c0: float

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.alphas):
            raise ConfigurationError("breakpoints and alphas must have equal length")
        if self.breakpoints:
            if not (self.c0 > 0.0 and math.isfinite(self.c0)):
                raise ConfigurationError(f"c0 must be positive and finite, got {self.c0!r}")
            gaps = np.diff(np.asarray(self.breakpoints))
            if gaps.size and self.c0 > 0.5 * float(gaps.min()):
                raise ConfigurationError("bump supports overlap: c0 exceeds half the minimal gap")
            worst = max((abs(a) for a in self.alphas), default=0.0)
            if 6.0 * self.c0 * worst > 1.0 + 1e-12:
                raise ConfigurationError(
                    "support radius too large: 6 * c0 * max|alpha| must not exceed 1"
                )

    @property
    def is_identity(self) -> bool:
        return not self.breakpoints or all(a == 0.0 for a in self.alphas)

    @property
    def lipschitz_bound(self) -> float:
        """Sound upper bound on ``sup G'``."""
        worst = max((abs(a) for a in self.alphas), default=0.0)
        return 1.0 + 6.0 * self.c0 * worst

    # -- evaluation ---------------------------------------------------------

    def jets(self, x: "Array | float") -> "tuple[Array | float, ...]":
        """``(G(x), G'(x), G''(x))`` in one pass over the breakpoints.

        Per breakpoint the offset ``s = x - xi``, the support mask and ``u =
        |s| / c0`` are computed once and update all three values.  Scalar
        input gives a tuple of floats.
        """
        xs = np.asarray(x, dtype=float)
        g0, g1, g2 = xs.copy(), np.ones_like(xs), np.zeros_like(xs)
        c0 = self.c0
        for xi, alpha in zip(self.breakpoints, self.alphas):
            if alpha == 0.0:
                continue
            s = xs - xi
            abs_s = np.abs(s)
            mask = abs_s < c0
            if not mask.any():
                continue
            u = np.minimum(abs_s / c0, 1.0)
            g0 = np.where(mask, g0 + alpha * (np.sign(s) * c0 * c0 * _f0(u)), g0)
            g1 = np.where(mask, g1 + alpha * (c0 * _f1(u)), g1)
            g2 = np.where(mask, g2 + alpha * (np.where(s >= 0.0, 1.0, -1.0) * _f2(u)), g2)
        if np.ndim(x):
            return g0, g1, g2
        return float(g0), float(g1), float(g2)

    def g(self, x: "Array | float") -> "Array | float":
        """``G(x) = x + sum_k alpha_k phibar_k(x)``."""
        return self.jets(x)[0]

    def g_prime(self, x: "Array | float") -> "Array | float":
        """``G'(x)``, equal to 1 outside the bumps and always in ``[1/2, 3/2]``."""
        return self.jets(x)[1]

    def g_second(self, x: "Array | float") -> "Array | float":
        """``G''(x)`` with the right-limit convention at the jump points."""
        return self.jets(x)[2]

    def inverse(self, y: "Array | float") -> "Array | float":
        """Solve ``G(x) = y`` for ``x``.

        This is :func:`awsde.schemes.implicit_solve` applied to ``x - (x -
        G(x)) = y``: it runs until ``|G(x) - y| <= 1e-12 (1 + |y|)`` and
        raises :class:`~awsde.errors.BracketError` if it does not converge.
        Off the bumps ``x - G(x)`` is exactly 0, so there the result is ``y``
        itself, bit for bit.  Each element is solved independently of the
        rest of the batch, so results do not depend on how inputs are grouped
        into calls.
        """
        from .schemes import implicit_solve  # schemes imports this module

        # solve on a copy: implicit_solve hands back its input where nothing moves
        return implicit_solve(np.array(y, dtype=float), lambda v: v - self.g(v), 1.0)


# ---------------------------------------------------------------------------
# construction from a coefficient spec
# ---------------------------------------------------------------------------


def _one_sided_limit(drift, xi: float, side: int) -> float:
    """Numeric one-sided drift limit at a jump point, with a step-halving check."""
    delta = _LIMIT_DELTA * (1.0 + abs(xi))
    v1 = float(np.asarray(drift(0.0, xi + side * delta)))
    v2 = float(np.asarray(drift(0.0, xi + side * 0.5 * delta)))
    if abs(v1 - v2) > _LIMIT_RTOL * (1.0 + abs(v1)):
        raise ConfigurationError(
            f"drift limit at breakpoint {xi} (side {side:+d}) did not stabilise: "
            f"{v1} vs {v2} at half step"
        )
    return v2


def build_transform(spec: CoefficientSpec) -> PiecewiseTransform:
    """Build ``G`` for a ``growth_disc`` spec.

    With no breakpoints the identity transform is returned.  The jump sizes
    are taken from numeric one-sided limits of the drift at each breakpoint.

    Raises
    ------
    ConfigurationError
        If the spec is not of class ``growth_disc`` or a one-sided limit
        fails its step-halving stability check.
    AssumptionError
        If the diffusion vanishes at a breakpoint.
    """
    if spec.regularity_class != "growth_disc":
        raise ConfigurationError(
            f"the transform requires regularity class 'growth_disc', "
            f"got {spec.regularity_class!r}"
        )
    bps = spec.breakpoints
    if not bps:
        return PiecewiseTransform(breakpoints=(), alphas=(), c0=1.0)

    alphas = []
    for xi in bps:
        sig = float(np.asarray(spec.diffusion(0.0, xi)))
        if sig == 0.0:
            raise AssumptionError(f"diffusion vanishes at breakpoint {xi}")
        b_minus = _one_sided_limit(spec.drift, xi, -1)
        b_plus = _one_sided_limit(spec.drift, xi, +1)
        alphas.append(0.5 * (b_minus - b_plus) / (sig * sig))

    candidates = [1.0 / (6.0 * abs(a)) for a in alphas if a != 0.0]
    candidates += [0.5 * (bps[k + 1] - bps[k]) for k in range(len(bps) - 1)]
    c0 = 0.5 * min(candidates) if candidates else 1.0
    return PiecewiseTransform(breakpoints=bps, alphas=tuple(alphas), c0=c0)


# ---------------------------------------------------------------------------
# transformed coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransformedCoefficients:
    """Coefficients of the transformed SDE ``dY = btilde(Y) dt + sigmatilde(Y) dW``, in x-space.

    At ``Y = G(x)`` they are ``btilde(G(x)) = beta(x)`` (see :meth:`beta`)
    and ``sigmatilde(G(x)) = sigma(x) G'(x)``, so no ``G^{-1}`` is needed to
    evaluate them.  ``one_sided_bound`` and ``lipschitz_bound`` are declared
    constants for ``btilde`` and ``sigmatilde`` (cross-checked against a
    probe at construction), never probe estimates.
    """

    one_sided_bound: float
    lipschitz_bound: float
    transform: PiecewiseTransform
    base: CoefficientSpec

    def beta(self, x: "Array | float") -> "Array | float":
        """``beta(x) = b(x) G'(x) + sigma(x)^2 G''(x) / 2``, the transformed drift at ``G(x)``."""
        return self.g_and_beta(x)[1]

    def g_and_beta(self, x: "Array | float") -> "tuple[Array | float, Array | float]":
        """``(G(x), beta(x))`` from one :meth:`PiecewiseTransform.jets` pass."""
        spec = self.base
        xs = np.asarray(x, dtype=float)
        g0, g1, g2 = self.transform.jets(xs)
        sig = np.asarray(spec.diffusion(0.0, xs))
        val = np.asarray(spec.drift(0.0, xs)) * g1 + 0.5 * sig * sig * g2
        return (g0, val) if np.ndim(x) else (float(g0), float(val))


def _probe_points(transform: PiecewiseTransform) -> Array:
    pieces = [np.linspace(-2.0, 2.0, 101)]
    for xi in transform.breakpoints:
        pieces.append(xi + transform.c0 * np.linspace(-1.25, 1.25, 501))
    return np.unique(np.concatenate(pieces))


def transformed_coefficients(
    spec: CoefficientSpec, transform: "PiecewiseTransform | None" = None
) -> TransformedCoefficients:
    """Transformed drift and diffusion with their declared regularity constants.

    For a breakpoint-free spec the constants fall back to the spec's own
    bounds; otherwise ``transformed_drift_bound`` and
    ``transformed_diffusion_bound`` must be declared.  A finite-difference
    probe around the bumps cross-checks the declarations: it takes chord
    slopes of ``beta`` and ``sigma G'`` against ``G`` on probe points ``x``
    and raises ``ConfigurationError`` with a witness pair if a slope is not
    finite or exceeds a declared constant by more than 1 percent.
    """
    if transform is None:
        transform = build_transform(spec)

    if transform.is_identity:
        l_drift = spec.one_sided_lipschitz_bound
        l_diff = spec.diffusion_lipschitz_bound
        if l_drift is None or l_diff is None:
            raise ConfigurationError(
                "identity transform requires one_sided_lipschitz_bound and "
                "diffusion_lipschitz_bound on the spec"
            )
    else:
        l_drift = spec.transformed_drift_bound
        l_diff = spec.transformed_diffusion_bound
        if l_drift is None or l_diff is None:
            raise ConfigurationError(
                "transformed_drift_bound and transformed_diffusion_bound must be "
                "declared to step the transformed scheme; they are never estimated"
            )

    tc = TransformedCoefficients(
        one_sided_bound=float(l_drift),
        lipschitz_bound=float(l_diff),
        transform=transform,
        base=spec,
    )

    # Probe cross-check of the declared constants on a bump-dense grid, in
    # x-space; points whose G values coincide are merged, so every chord in z
    # has positive length.
    xs = _probe_points(transform)
    zs, first = np.unique(np.asarray(transform.g(xs)), return_index=True)
    xs = xs[first]
    st = np.asarray(spec.diffusion(0.0, xs)) * np.asarray(transform.g_prime(xs))
    dz = np.diff(zs)
    probes = (("drift", l_drift, np.diff(np.asarray(tc.beta(xs))) / dz),
              ("diffusion", l_diff, np.abs(np.diff(st)) / dz))
    for what, bound, slopes in probes:
        i = int(np.argmax(slopes))  # the first nan, if there is one
        worst = float(slopes[i])
        if not math.isfinite(worst) or worst > bound * 1.01 + 1e-9:
            raise ConfigurationError(
                f"declared transformed {what} bound {bound} is exceeded by the probe: "
                f"slope {worst:.6g} between z={zs[i]!r} and z={zs[i + 1]!r}"
            )
    return tc
