"""Independent reference values for the benchmark's correctness verdicts.

Nothing here calls into ``driftflight``: the radial CDF is the regularized
incomplete beta form evaluated with ``scipy.special.betainc``, and the
nu = 1 characteristic function and density are the paper's closed forms
evaluated at 60 significant digits with mpmath's own Bessel and gamma
functions, with the falling-factorial coefficients obtained by forward
differences instead of the package's triangular solve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

# A correct sampler exceeds the KS threshold with probability about 1e-6.
KS_ALPHA = 1e-6
MP_DIGITS = 60


def half_order(d: int, n: int, nu: float) -> float:
    return 0.5 * (n + 1) * (2.0 * nu + d - 1.0)


def radial_cdf(d: int, m: int, n: int, nu: float, ct: float, r) -> np.ndarray:
    """CDF of the radius of the first m < d coordinates after n changes."""
    q = half_order(d, n, nu) - 0.5 * (m + 1)
    y = np.clip(np.asarray(r, dtype=float) / ct, 0.0, 1.0) ** 2
    return betainc(0.5 * m, q + 1.0, y)


def ks_threshold(count: int) -> float:
    """Asymptotic Kolmogorov critical value at level KS_ALPHA."""
    return math.sqrt(-0.5 * math.log(0.5 * KS_ALPHA)) / math.sqrt(count)


def ks_distance(samples, cdf) -> float:
    """Sup distance between the empirical CDF of ``samples`` and ``cdf``."""
    x = np.sort(np.asarray(samples, dtype=float))
    F = cdf(x)
    n = len(x)
    i = np.arange(n)
    return float(max(np.max(F - i / n), np.max((i + 1) / n - F)))


def _falling_factorial_coeffs(n: int) -> list[int]:
    # a_j = Delta^j P(0) / j! for P(m) = prod_{i=1..n} (2m + 2i - 1)
    P = [math.prod(2 * m + 2 * i - 1 for i in range(1, n + 1)) for m in range(n + 1)]
    out = []
    for j in range(n + 1):
        diff = sum((-1) ** (j - k) * math.comb(j, k) * P[k] for k in range(j + 1))
        out.append(diff // math.factorial(j))
    return out


def cf_nu1(d: int, n: int, ct: float, alpha) -> float:
    """Characteristic function of the full nu = 1 flight at ``alpha``."""
    import mpmath as mp

    with mp.workdps(MP_DIGITS):
        a = [mp.mpf(float(v)) for v in alpha]
        rho2 = sum(v * v for v in a)
        if rho2 == 0:
            return 1.0
        w = mp.mpf(ct) * mp.sqrt(rho2)
        ratio = a[-1] ** 2 / rho2
        M = (n + 1) * (d + 1)
        pref = mp.sqrt(mp.pi) * mp.gamma(M) / mp.power(2, mp.mpf(M - 1) / 2)
        total = mp.mpf(0)
        for j in range(n + 2):
            nj = n + 1 - j
            mu = mp.mpf((n + 1) * (d + 3) - (2 * j + 1)) / 2
            total += (
                (-1) ** nj
                * mp.binomial(n + 1, j)
                * (ratio * mp.mpf(d + 1) / 2) ** nj
                / mp.gamma(mp.mpf((n + 1) * (d + 3)) / 2 - j)
                * mp.besselj(mu, w)
                / w**mu
                * w ** (2 * nj)
            )
        return float(pref * total)


def density_nu1(d: int, n: int, ct: float, x) -> float:
    """Density of the full nu = 1 flight at the point ``x``."""
    import mpmath as mp

    with mp.workdps(MP_DIGITS):
        v = [mp.mpf(float(c)) for c in x]
        ct = mp.mpf(ct)
        Q = ct * ct - sum(c * c for c in v)
        if Q <= 0:
            return 0.0
        xx = v[-1] ** 2
        M = (n + 1) * (d + 1)
        pref = mp.gamma(M) / (mp.pi ** (mp.mpf(d - 1) / 2) * (2 * ct) ** (M - 1))
        total = mp.mpf(0)
        for j in range(n + 2):
            nj = n + 1 - j
            coeffs = _falling_factorial_coeffs(nj)
            cj = (
                (-1) ** nj
                * mp.binomial(n + 1, j)
                * (mp.mpf(d + 1) / 2) ** nj
                / mp.gamma(mp.mpf((n + 1) * (d + 3)) / 2 - j)
            )
            inner = mp.mpf(0)
            for k in range(nj + 1):
                e = mp.mpf(n * (d + 1)) / 2 - k
                inner += (-1) ** k * coeffs[k] / mp.gamma(e + 1) * xx**k * Q**e
            total += cj * inner
        return float(pref * total)
