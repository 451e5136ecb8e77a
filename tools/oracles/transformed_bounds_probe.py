"""Oracle: dense-grid slope extremes of the transformed coefficients.

For the sign_drift model the package declares a ONE-SIDED drift bound 500
(sup of the signed slope of btilde, which is what makes the implicit step
invertible) and a diffusion Lipschitz bound 6 (sup |sigmatilde'|).  For
perturbed_sign (dX = (k/10) sign(X) dt + dW, alpha = -k/10,
c0 = 1/(12 |alpha|)) it declares 300 alpha^2 and 5 |alpha|.  This script
probes these quantities with finite differences on a dense grid over each
bump support, using its own closed forms (no package imports).  The declared
constants must dominate the matching probed quantities.  For sign_drift the
two-sided drift slope is also printed: it is much larger (~1250, from the
bump polynomial's boundary third derivative) and deliberately NOT the
declared quantity.

Run:  python3 tools/oracles/transformed_bounds_probe.py
"""

import numpy as np


def F(u):
    return u**2 * (1 - u**2) ** 3


def slopes(b, sigma, xi, alpha, c0):
    """Chord slopes in z = G(x) of btilde and |sigmatilde| over the bump."""
    x = np.linspace(xi - 1.5 * c0, xi + 1.5 * c0, 2_000_001)
    s = x - xi
    u = np.minimum(np.abs(s) / c0, 1.0)
    g = x + alpha * np.sign(s) * c0**2 * F(u)
    g1 = 1 + alpha * c0 * 2 * u * (1 - u**2) ** 2 * (1 - 4 * u**2)
    g2 = alpha * np.sign(s) * 2 * (1 - u**2) * (1 - 17 * u**2 + 28 * u**4)
    g2 = np.where(s == 0.0, 2 * alpha, g2)
    bt = b(x) * g1 + 0.5 * sigma(x) ** 2 * g2
    st = sigma(x) * g1
    # chord slopes in z (grid is strictly increasing since G' >= 1/2); chord
    # slopes never exceed the one-sided derivative suprema they estimate
    dz = g[2:] - g[:-2]
    return (bt[2:] - bt[:-2]) / dz, np.abs(st[2:] - st[:-2]) / dz


def sign_drift() -> None:
    bt_slope, st_slope = slopes(lambda x: np.where(x >= 1.0, -1.5, 2.5), np.abs,
                                xi=1.0, alpha=2.0, c0=1.0 / 24.0)
    print("sign_drift")
    print(f"  sup btilde' (signed, one-sided bound) ~ {bt_slope.max():.6f}   (declared 500)")
    print(f"  sup |btilde'| (two-sided, informational) ~ {np.abs(bt_slope).max():.6f}")
    print(f"  sup |sigmatilde'| ~ {st_slope.max():.6f}   (declared 6)")
    assert bt_slope.max() < 500.0
    assert st_slope.max() < 6.0


def perturbed_sign(k: int) -> None:
    amp = k / 10
    alpha = -amp
    bt_slope, st_slope = slopes(lambda x: amp * np.where(x >= 0.0, 1.0, -1.0),
                                lambda x: np.ones_like(x),
                                xi=0.0, alpha=alpha, c0=1.0 / (12 * abs(alpha)))
    drift_ratio = bt_slope.max() / alpha**2
    diff_ratio = st_slope.max() / abs(alpha)
    print(f"perturbed_sign k={k:2d}: sup btilde' / alpha^2 ~ {drift_ratio:.4f}   (declared 300),"
          f"  sup |sigmatilde'| / |alpha| ~ {diff_ratio:.4f}   (declared 5)")
    assert bt_slope.max() < 300.0 * alpha**2
    assert st_slope.max() < 5.0 * abs(alpha)


def main() -> None:
    sign_drift()
    for k in range(1, 11):
        perturbed_sign(k)
    print("declared bounds dominate the probe")


if __name__ == "__main__":
    main()
