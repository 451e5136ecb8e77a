"""Oracle: the transformed semi-implicit step on the sign_drift model.

Recomputes everything from first principles with mpmath (no package imports):
the bump transform G around the drift jump at xi = 1, its derivatives, the
transformed coefficients, and the implicit step

    Z1 = Z0 + btilde(Z1) h + sigmatilde(Z0) dW,   X1 = Ginv(Z1)

for x0 = 1.0 at h = 2^-10 (inside the contraction guard, so the root is
unique) and at h = 2^-8 (guard violated; id - h*btilde is then non-monotone,
but its dips sit near z ~ 0.969 and z ~ 1.031 while the step's right-hand
side is ~1.002, so this particular root is still unique and bisection pins
it).  Printed X1 values are frozen into tests.

Substituting Z1 = G(X1), each X1 is also the root of the x-space equation

    G(X1) - h (b G' + sigma^2 G''/2)(X1) = G(x0) + sigma(x0) G'(x0) dW,

which is the form the package's transformed step solves.

Model: drift 2.5 below 1 and -1.5 at or above 1, sigma(x) = |x|.
Jump coefficient alpha = (b(1-) - b(1+)) / (2 sigma(1)^2) = 2.
Support radius c0 = 0.5 * 1/(6 alpha) = 1/24.

Run:  python3 tools/oracles/transformed_step_sign_drift.py
"""

import mpmath as mp

mp.mp.dps = 40

XI = mp.mpf(1)
ALPHA = mp.mpf(2)
C0 = mp.mpf(1) / 24
H = mp.mpf(2) ** -10


def b(x):
    return mp.mpf("-1.5") if x >= XI else mp.mpf("2.5")


def sigma(x):
    return abs(x)


def F(u):
    return u**2 * (1 - u**2) ** 3


def F1(u):
    return 2 * u * (1 - u**2) ** 2 * (1 - 4 * u**2)


def F2(u):
    return 2 * (1 - u**2) * (1 - 17 * u**2 + 28 * u**4)


def G(x):
    s = x - XI
    if abs(s) >= C0:
        return x
    return x + ALPHA * mp.sign(s) * C0**2 * F(abs(s) / C0)


def G1(x):
    s = x - XI
    if abs(s) >= C0:
        return mp.mpf(1)
    return 1 + ALPHA * C0 * F1(abs(s) / C0)


def G2(x):
    s = x - XI
    if abs(s) >= C0:
        return mp.mpf(0)
    return ALPHA * mp.sign(s) * F2(abs(s) / C0) if s != 0 else 2 * ALPHA


def Ginv(z):
    if abs(z - XI) >= C0:  # G is the identity off the bump, and the bump
        return z           # image equals the bump support (G fixes its edges)
    return mp.findroot(lambda x: G(x) - z, (XI - C0, XI + C0),
                       solver="bisect", tol=mp.mpf(10) ** -35)


def btilde(z):
    x = Ginv(z)
    return b(x) * G1(x) + sigma(x) ** 2 * G2(x) / 2


def sigmatilde(z):
    x = Ginv(z)
    return sigma(x) * G1(x)


def step(x0, dw, h=H):
    z0 = G(mp.mpf(x0))
    rhs = z0 + sigmatilde(z0) * mp.mpf(dw)

    def f(z):
        return z - mp.mpf(h) * btilde(z) - rhs

    lo, hi = rhs - 1, rhs + 1
    assert f(lo) < 0 < f(hi)
    # Confirm the bracket holds exactly one sign change: scan a fine grid
    # so a non-monotone f (guard-violating h) cannot hide extra roots.
    crossings = 0
    prev = f(lo)
    for i in range(1, 4001):
        cur = f(lo + (hi - lo) * mp.mpf(i) / 4000)
        if (prev < 0) != (cur < 0):
            crossings += 1
        prev = cur
    assert crossings == 1, f"{crossings} sign changes in bracket"
    z1 = mp.findroot(f, (lo, hi), solver="bisect", tol=mp.mpf(10) ** -35)
    return Ginv(z1)


if __name__ == "__main__":
    print("btilde(1) =", mp.nstr(btilde(mp.mpf(1)), 20), "(continuity check: both one-sided")
    print("   limits of b*G1 + sigma^2 G2/2 at xi must agree; value should be 0.5)")
    for dw in ("0", "0.03", "-0.05"):
        x1 = step("1.0", dw)
        print(f"x0=1.0 h=2^-10 dW={dw} -> X1 = {mp.nstr(x1, 25)}")
    x1 = step("1.0", "0", h=mp.mpf(2) ** -8)
    print(f"x0=1.0 h=2^-8  dW=0 -> X1 = {mp.nstr(x1, 25)}  (guard-violating step size;")
    print("   root verified unique on the bracket by sign-change scan)")
