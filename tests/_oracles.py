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
