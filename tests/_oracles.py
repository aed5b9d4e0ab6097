"""Independent numerical oracles shared by the test modules.

Everything here is deliberately written against the definitions (direct
series summation, brute-force quadrature), not against the library code
paths it is used to check.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_legendre


def bessel_series_oracle(mu: float, x: float, terms: int = 200) -> float:
    """Direct summation of the defining power series."""
    vals = []
    for k in range(terms):
        log_mag = (
            (2 * k + mu) * math.log(0.5 * x)
            - math.lgamma(k + 1.0)
            - math.lgamma(k + mu + 1.0)
        )
        if log_mag < -745.0:
            continue
        vals.append((-1.0) ** k * math.exp(log_mag))
    return math.fsum(vals)


def bessel_j_mp(mp, mu: float, x: float, ratio: bool = False) -> float:
    """J_mu(x) at 40 digits with mpmath's own Bessel function (``mp`` is
    the mpmath module); with ``ratio``, J_mu(x) 2^mu Gamma(mu+1) / x^mu,
    which is 1 at the origin."""
    with mp.workdps(40):
        mu, x = mp.mpf(mu), mp.mpf(x)
        if not ratio:
            return float(mp.besselj(mu, x))
        if x == 0:
            return 1.0
        return float(mp.besselj(mu, x) * mp.power(2, mu) * mp.gamma(mu + 1) / mp.power(x, mu))


def mittag_leffler_oracle(alpha: float, beta: float, x: float, terms: int = 50) -> float:
    """Direct summation of sum_k x^k / (k! Gamma(alpha k + beta))."""
    vals = [
        x**k * math.exp(-math.lgamma(k + 1.0) - math.lgamma(alpha * k + beta))
        for k in range(terms)
    ]
    return math.fsum(vals)


def gl_grid(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = roots_legendre(n)
    half = 0.5 * (b - a)
    return a + (x + 1.0) * half, w * half


def point_with_norm(d: int, r, xd) -> np.ndarray:
    """Points of norm r whose last coordinate is xd (needs |xd| <= r).

    r and xd broadcast; the points lie along a new last axis of length d.
    """
    r, xd = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(xd, dtype=float))
    x = np.zeros(r.shape + (d,))
    x[..., -1] = xd
    x[..., 0] = np.sqrt(np.maximum(r * r - xd * xd, 0.0))
    return x


def radial_cdf_oracle(d: int, m: int, n: int, nu: float, r: float) -> float:
    """CDF of the projected radius at c t = 1 by quadrature of its Beta law.

    R^2 ~ Beta(a, b) with a = m/2 and b = K - (m+1)/2 + 1, where
    K = (n+1)(2 nu + d - 1)/2.  Substituting r^2 = sin^2(u) turns the Beta
    density into 2 sin^(2a-1)(u) cos^(2b-1)(u) / B(a, b), which is smooth
    on [0, pi/2) for every a >= 1/2 and b >= 1.
    """
    a = 0.5 * m
    b = 0.5 * (n + 1) * (2.0 * nu + d - 1.0) - 0.5 * (m + 1) + 1.0
    upper = math.asin(min(max(r, 0.0), 1.0))
    val, _ = quad(
        lambda u: 2.0 * math.sin(u) ** (2.0 * a - 1.0) * math.cos(u) ** (2.0 * b - 1.0),
        0.0,
        upper,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=400,
    )
    return val * math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))


def ball_integral_rho_xd(f_r_xd, d: int, ct: float, nr: int = 300, ng: int = 200) -> float:
    """Integrate a function of (norm, last coordinate) over the d-ball.

    Uses r = ct sin(u) to absorb boundary singularities and the polar
    reduction x_d = r cos(gamma) with surface weight
    2 pi^((d-1)/2) / Gamma((d-1)/2) r^(d-1) sin^(d-2)(gamma).
    """
    surf = 2.0 * math.pi ** (0.5 * (d - 1)) / math.gamma(0.5 * (d - 1))
    u, wu = gl_grid(nr, 0.0, 0.5 * math.pi)
    g, wg = gl_grid(ng, 0.0, math.pi)
    sing = np.sin(g) ** (d - 2)
    cosg = np.cos(g)
    total = 0.0
    for ui, wui in zip(u, wu):
        r = ct * math.sin(ui)
        jac = ct * math.cos(ui)
        vals = f_r_xd(np.full_like(cosg, r), r * cosg)
        total += wui * jac * surf * r ** (d - 1) * float(np.dot(wg, vals * sing))
    return total


def sphere_section_integral(f_r_xd, d: int, r: float, ng: int = 400) -> float:
    """Integrate a function of (norm, last coordinate) over the sphere of
    radius r (the angular part of the polar reduction)."""
    surf = 2.0 * math.pi ** (0.5 * (d - 1)) / math.gamma(0.5 * (d - 1))
    g, wg = gl_grid(ng, 0.0, math.pi)
    vals = f_r_xd(np.full(ng, r), r * np.cos(g))
    return surf * r ** (d - 1) * float(np.dot(wg, vals * np.sin(g) ** (d - 2)))


def _falling_factorial_oracle(n: int) -> list[int]:
    # a_j = Delta^j P(0) / j! for P(m) = prod_{i=1..n} (2m + 2i - 1)
    P = [math.prod(2 * m + 2 * i - 1 for i in range(1, n + 1)) for m in range(n + 1)]
    return [
        sum((-1) ** (j - k) * math.comb(j, k) * P[k] for k in range(j + 1)) // math.factorial(j)
        for j in range(n + 1)
    ]


def cf_nu1_mp(mp, d: int, n: int, ct: float, alpha) -> float:
    """The nu = 1 characteristic function at 60 digits with mpmath's own
    Bessel and gamma functions (``mp`` is the mpmath module)."""
    with mp.workdps(60):
        a = [mp.mpf(float(v)) for v in alpha]
        rho2 = sum(v * v for v in a)
        w = mp.mpf(ct) * mp.sqrt(rho2)
        M = (n + 1) * (d + 1)
        total = mp.mpf(0)
        for j in range(n + 2):
            nj = n + 1 - j
            mu = mp.mpf((n + 1) * (d + 3) - (2 * j + 1)) / 2
            total += (
                (-1) ** nj
                * mp.binomial(n + 1, j)
                * (a[-1] ** 2 / rho2 * mp.mpf(d + 1) / 2) ** nj
                / mp.gamma(mp.mpf((n + 1) * (d + 3)) / 2 - j)
                * mp.besselj(mu, w)
                * w ** (2 * nj - mu)
            )
        return float(mp.sqrt(mp.pi) * mp.gamma(M) / mp.power(2, mp.mpf(M - 1) / 2) * total)


def density_nu1_mp(mp, d: int, n: int, ct: float, x) -> float:
    """The nu = 1 density at 60 digits, summed term by term with mpmath."""
    with mp.workdps(60):
        v = [mp.mpf(float(c)) for c in x]
        ct = mp.mpf(ct)
        Q = ct * ct - sum(c * c for c in v)
        M = (n + 1) * (d + 1)
        total = mp.mpf(0)
        for j in range(n + 2):
            nj = n + 1 - j
            cj = (
                (-1) ** nj
                * mp.binomial(n + 1, j)
                * (mp.mpf(d + 1) / 2) ** nj
                / mp.gamma(mp.mpf((n + 1) * (d + 3)) / 2 - j)
            )
            for k, a_k in enumerate(_falling_factorial_oracle(nj)):
                e = mp.mpf(n * (d + 1)) / 2 - k
                total += cj * (-1) ** k * a_k / mp.gamma(e + 1) * v[-1] ** (2 * k) * Q**e
        pref = mp.gamma(M) / (mp.pi ** (mp.mpf(d - 1) / 2) * (2 * ct) ** (M - 1))
        return float(pref * total)


def gamma_quantile_mp(mp, a: float, u: float) -> float:
    """The Gamma(a) quantile at 50 digits: the root in log x of
    log P(a, x) = log u, or of log Q(a, x) = log(1 - u) above u = 1/2, with
    mpmath's own regularized incomplete gamma (``mp`` is the mpmath
    module).  Values below the smallest double round to 0.0."""
    with mp.workdps(50):
        a, u = mp.mpf(a), mp.mpf(u)
        if u < 0.5:
            # P(a, x) ~ x^a / Gamma(a + 1) as x -> 0
            start = (mp.log(u) + mp.loggamma(a + 1)) / a
            root = mp.findroot(
                lambda lx: mp.log(mp.gammainc(a, 0, mp.exp(lx), regularized=True)) - mp.log(u),
                start,
            )
        else:
            # Q(a, x) ~ x^(a-1) e^-x / Gamma(a) as x -> inf
            tail = -mp.log(1 - u)
            start = mp.log(tail + max(a - 1, 0) * mp.log(1 + tail))
            root = mp.findroot(
                lambda lx: mp.log(mp.gammainc(a, mp.exp(lx), mp.inf, regularized=True))
                - mp.log(1 - u),
                start,
            )
        return float(mp.exp(root))


def log_mittag_leffler_mp(mp, alpha: float, beta: float, x: float, start: int = 0):
    """log of sum_{k >= start} x^k / (k! Gamma(alpha k + beta)) at 50 digits,
    summed term by term until the terms past the largest fall 80 e-folds
    below it (an mpf)."""
    with mp.workdps(50):
        alpha, beta, log_x = mp.mpf(alpha), mp.mpf(beta), mp.log(mp.mpf(x))

        def log_term(k):
            return k * log_x - mp.loggamma(k + 1) - mp.loggamma(alpha * k + beta)

        logs = [log_term(start)]
        top = logs[0]
        while len(logs) < 2 or logs[-1] > top - 80 or logs[-1] > logs[-2]:
            logs.append(log_term(start + len(logs)))
            top = max(top, logs[-1])
        return top + mp.log(mp.fsum(mp.exp(v - top) for v in logs))


def fractional_pmf_mp(mp, lam_t: float, d: int, nu: float, n) -> list[float]:
    """The fractional-Poisson pmf at each n at 50 digits: the Mittag-Leffler
    series term (lam t)^n / (n! Gamma((n+1)(2 nu + d - 1)/2 + 1/2)) over
    the directly summed series."""
    with mp.workdps(50):
        alpha = mp.mpf(nu) + mp.mpf(d - 1) / 2
        beta = mp.mpf(nu) + mp.mpf(d) / 2
        log_x = mp.log(mp.mpf(lam_t))
        log_sum = log_mittag_leffler_mp(mp, alpha, beta, lam_t)
        return [
            float(mp.exp(k * log_x - mp.loggamma(k + 1) - mp.loggamma(alpha * k + beta) - log_sum))
            for k in n
        ]
