"""Closed-form laws of the drifted random flight.

Projection results (any nu >= 0): characteristic function, density,
radial density/CDF/moments of the first m < d coordinates, all driven by
the half order K = (n+1)(2 nu + d - 1)/2.  The projected radius obeys
(R / c t)^2 ~ Beta(m/2, q + 1) with q = K - (m+1)/2, so its CDF is a
regularized incomplete beta function.

Full-flight results (nu = 1 only): characteristic function and density
in dimension d, as alternating Bessel/polynomial sums indexed by the
falling-factorial coefficient tables, plus the fully explicit n = 1, 2
forms and their radial versions.

Every law takes arrays and broadcasts.  Points and frequency vectors lie
along the last axis, radii are elementwise; one point or radius gives a
numpy scalar.  The densities and the radial CDF return NaN at NaN inputs.

A fractional-Poisson mixture randomizes the number of direction changes.
Without a factorial correction the natural weights do not sum to one
under the Wright-type Mittag-Leffler normalizer used here; the default
evaluation therefore includes an n! in the denominator, which normalizes
the pmf exactly, and ``uncorrected=True`` exposes the raw variant for
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.integrate import quad  # noqa: F401  (wrapped by bench/tracing.py)
from scipy.special import betainc

from .flight import FlightParams
from .specfun import bessel_j_ratio, falling_factorial_coeffs

__all__ = [
    "MixtureParams",
    "cdf_radial_projection",
    "cf_nu1",
    "cf_projection",
    "density_nu1",
    "density_nu1_closed",
    "density_projection",
    "fractional_poisson_pmf",
    "mixture_tail_bound",
    "radial_density_nu1",
    "radial_density_projection",
    "radial_moment",
    "unconditional_density_projection",
]

_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _half_order(p: FlightParams) -> float:
    return 0.5 * (p.n + 1) * (2.0 * p.nu + p.d - 1.0)


def _require_n(p: FlightParams) -> None:
    if p.n < 1:
        raise ValueError("this law requires n >= 1 direction changes")


def _require_projection(p: FlightParams) -> None:
    _require_n(p)
    if p.m >= p.d:
        raise ValueError("this law requires m < d")


def _require_nu1(p: FlightParams) -> None:
    if abs(p.nu - 1.0) > 1e-12:
        raise ValueError("this law is only available for nu = 1")


def _require_closed(p: FlightParams) -> None:
    _require_nu1(p)
    if p.n not in (1, 2):
        raise ValueError("the explicit nu = 1 forms are only available for n in {1, 2}")


@lru_cache(maxsize=None)
def _coeff_row(n: int) -> tuple[int, ...]:
    return falling_factorial_coeffs(n).coeffs


def _vectors(x, dim: int | None = None) -> np.ndarray:
    """Points or frequency vectors along the last axis; a scalar is one
    vector of length 1.  ``dim`` (when given) is the required length."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if dim is not None and x.shape[-1] != dim:
        raise ValueError(f"expected vectors of length {dim} on the last axis, got shape {x.shape}")
    return x


def _sq_norm(x: np.ndarray) -> np.ndarray:
    # x @ x per vector; a stacked matmul sums in the same order as the
    # one-vector dot, so one point and a batch give identical bits
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _supported(outside, values) -> np.ndarray:
    """``values`` with the points ``outside`` the support set to 0.  NaN
    inputs fail every comparison, so their NaN values pass through."""
    return np.where(outside, 0.0, values)[()]


def _bessel_ratios(mu: float, w: np.ndarray) -> np.ndarray:
    return np.array([bessel_j_ratio(mu, wi) for wi in w.ravel()]).reshape(w.shape)


# ----------------------------------------------------------------------
# projected flight, any nu
# ----------------------------------------------------------------------

def cf_projection(p: FlightParams, alpha):
    """Characteristic function of the projected flight at frequencies alpha.

    Depends on each frequency vector only through its norm; the vectors
    (last axis of alpha) may have any length.  Real-valued, equal to 1 at
    alpha = 0.
    """
    _require_n(p)
    w = p.c * p.t * np.sqrt(_sq_norm(_vectors(alpha)))
    K = _half_order(p)
    mu = K - 0.5
    vals = math.exp(mu * _LN_2 + math.lgamma(K + 0.5)) * _bessel_ratios(mu, w)
    return np.where(w == 0.0, 1.0, vals)[()]


def density_projection(p: FlightParams, x):
    """Density of the m-dimensional projection at the points x (m < d).

    Zero outside the open ball of radius c t.
    """
    _require_projection(p)
    r = np.sqrt(_sq_norm(_vectors(x, p.m)))
    ct = p.c * p.t
    K = _half_order(p)
    m = p.m
    q = K - 0.5 * (m + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.exp(
            math.lgamma(K + 0.5)
            - math.lgamma(K - 0.5 * m + 0.5)
            - 0.5 * m * _LN_PI
            - (2.0 * K - 1.0) * math.log(ct)
            + q * np.log(ct * ct - r * r)
        )
    return _supported(r >= ct, vals)


def radial_density_projection(p: FlightParams, r):
    """Density of the radius of the projection, supported on (0, c t)."""
    _require_projection(p)
    r = np.asarray(r, dtype=float)
    ct = p.c * p.t
    K = _half_order(p)
    m = p.m
    q = K - 0.5 * (m + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.exp(
            _LN_2
            + math.lgamma(K + 0.5)
            - math.lgamma(K - 0.5 * m + 0.5)
            - math.lgamma(0.5 * m)
            - (2.0 * K - 1.0) * math.log(ct)
            + (m - 1.0) * np.log(r)
            + q * np.log(ct * ct - r * r)
        )
    return _supported((r <= 0.0) | (r >= ct), vals)


def cdf_radial_projection(p: FlightParams, r):
    """CDF of the projected radius.

    (R / c t)^2 is Beta(m/2, q + 1) distributed with q = K - (m+1)/2, which
    is non-negative whenever m < d, so the CDF is the regularized
    incomplete beta function I_{(r/ct)^2}(m/2, q + 1) for every nu.
    """
    _require_projection(p)
    q = _half_order(p) - 0.5 * (p.m + 1)
    y = np.clip(np.asarray(r, dtype=float) / (p.c * p.t), 0.0, 1.0) ** 2
    return betainc(0.5 * p.m, q + 1.0, y)[()]


def radial_moment(p: FlightParams, order: int) -> float:
    """E[R^order] for the projected radius; strictly below (c t)^order."""
    _require_n(p)
    if order < 1:
        raise ValueError("radial_moment requires order >= 1")
    K = _half_order(p)
    m = p.m
    return math.exp(
        math.lgamma(K + 0.5)
        + math.lgamma(0.5 * (order + m))
        - math.lgamma(K + 0.5 * (order + 1))
        - math.lgamma(0.5 * m)
    ) * (p.c * p.t) ** order


# ----------------------------------------------------------------------
# full flight, nu = 1
# ----------------------------------------------------------------------

def cf_nu1(p: FlightParams, alpha):
    """Characteristic function of the full d-dimensional flight at nu = 1.

    Alternating sum of n+2 Bessel terms; the dependence on the direction
    of alpha enters only through alpha_d^2 / ||alpha||^2.  Equals 1 at
    alpha = 0 (series limit).
    """
    _require_nu1(p)
    _require_n(p)
    alpha = _vectors(alpha, p.d)
    rho2 = _sq_norm(alpha)
    rho = np.sqrt(rho2)
    d, n = p.d, p.n
    with np.errstate(invalid="ignore"):
        ratio = alpha[..., -1] ** 2 / rho**2
    w = p.c * p.t * rho
    M = (n + 1) * (d + 1)
    pref = math.exp(0.5 * _LN_PI + math.lgamma(M) - 0.5 * (M - 1) * _LN_2)
    total = np.zeros(rho.shape)
    for j in range(n + 2):
        nj = n + 1 - j
        mu_j = 0.5 * ((n + 1) * (d + 3) - (2 * j + 1))
        total += (
            (-1.0) ** nj
            * math.comb(n + 1, j)
            * (ratio * 0.5 * (d + 1)) ** nj
            * math.exp(-math.lgamma(0.5 * (n + 1) * (d + 3) - j))
            * _bessel_ratios(mu_j, w)
            * w ** (2 * nj)
        )
    return np.where(rho2 == 0.0, 1.0, pref * total)[()]


def _nu1_point_terms(p: FlightParams, x):
    """Squared norm, squared last coordinate and c^2 t^2 - |x|^2 of points x."""
    x = _vectors(x, p.d)
    rho2 = _sq_norm(x)
    return rho2, x[..., -1] ** 2, (p.c * p.t) ** 2 - rho2


def density_nu1(p: FlightParams, x):
    """Density of the full flight at nu = 1, any n >= 1.

    A double sum over the falling-factorial coefficient tables; even in
    x_d and invariant under rotations fixing the x_d axis.
    """
    _require_nu1(p)
    _require_n(p)
    rho2, xx, Q = _nu1_point_terms(p, x)
    d, n = p.d, p.n
    ct = p.c * p.t
    M = (n + 1) * (d + 1)
    pref = math.exp(
        math.lgamma(M) - 0.5 * (d - 1) * _LN_PI - (M - 1) * math.log(2.0 * ct)
    )
    total = np.zeros(Q.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n + 2):
            nj = n + 1 - j
            a_row = _coeff_row(nj)
            cj = (
                (-1.0) ** nj
                * math.comb(n + 1, j)
                * (0.5 * (d + 1)) ** nj
                * math.exp(-math.lgamma(0.5 * (n + 1) * (d + 3) - j))
            )
            inner = np.zeros(Q.shape)
            for k in range(nj + 1):
                e = 0.5 * n * (d + 1) - k
                inner += (
                    (-1.0) ** k
                    * a_row[k]
                    * math.exp(-math.lgamma(e + 1.0))
                    * xx**k
                    * Q**e
                )
            total += cj * inner
        return _supported(rho2 >= ct * ct, pref * total)


def density_nu1_closed(p: FlightParams, x):
    """Fully explicit nu = 1 density, available for n = 1 and n = 2 only."""
    _require_closed(p)
    rho2, xx, Q = _nu1_point_terms(p, x)
    d = p.d
    ct = p.c * p.t
    with np.errstate(divide="ignore", invalid="ignore"):
        if p.n == 1:
            pref = math.exp(
                math.lgamma(2.0 * (d + 1))
                - 0.5 * (d - 1) * _LN_PI
                - (2 * d + 1) * math.log(2.0 * ct)
                - math.log(d + 2.0)
                - math.lgamma(d + 1.0)
                - math.lgamma(0.5 * (d - 1))
            )
            bracket = (
                3.0 / (d - 1) * Q ** (0.5 * (d + 1))
                - 2.0 * xx * Q ** (0.5 * (d - 1))
                + (d + 1) * xx**2 * Q ** (0.5 * (d - 3))
            )
        else:
            pref = math.exp(
                math.lgamma(3.0 * d + 3.0)
                + math.log(d + 1.0)
                - 0.5 * (d - 1) * _LN_PI
                - (3 * d + 2) * math.log(2.0 * ct)
                - math.lgamma(d - 1.0)
                - math.lgamma(1.5 * (d + 3) - 3.0)
                - math.log((3.0 * d + 7) * (3.0 * d + 5))
            )
            bracket = (
                4.0 * (d + 4) / ((d + 1) * d * (d - 1)) * Q ** (d + 1)
                + 2.0 * (6 * d * d + 6 * d + 8) / ((d + 1) * d * (d - 1)) * xx * Q**d
                - 8.0 * xx**2 * Q ** (d - 1)
                + 8.0 / 3.0 * (d + 1) * xx**3 * Q ** (d - 2)
            )
        return _supported(rho2 >= ct * ct, pref * bracket)


def radial_density_nu1(p: FlightParams, r):
    """Radius density of the full nu = 1 flight for n in {1, 2}."""
    _require_closed(p)
    r = np.asarray(r, dtype=float)
    d = p.d
    ct = p.c * p.t
    Q = ct * ct - r * r
    with np.errstate(divide="ignore", invalid="ignore"):
        if p.n == 1:
            pref = 2.0 * math.exp(
                math.lgamma(2.0 * (d + 1))
                + 0.5 * _LN_PI
                - (2 * d + 1) * math.log(2.0 * ct)
                - math.log(d + 2.0)
                - math.lgamma(d + 1.0)
                - math.lgamma(0.5 * (d - 1))
                - math.lgamma(0.5 * d)
            )
            bracket = (
                3.0 / (d - 1) * r ** (d - 1) * Q ** (0.5 * (d + 1))
                - 2.0 / d * r ** (d + 1) * Q ** (0.5 * (d - 1))
                + 3.0 * (d + 1) / (d * (d + 2)) * r ** (d + 3) * Q ** (0.5 * (d - 3))
            )
        else:
            pref = 2.0 * math.exp(
                math.lgamma(3.0 * d + 3.0)
                + math.log(d + 1.0)
                + 0.5 * _LN_PI
                - (3 * d + 2) * math.log(2.0 * ct)
                - math.lgamma(d - 1.0)
                - math.lgamma(1.5 * (d + 3) - 3.0)
                - math.lgamma(0.5 * d)
                - math.log((3.0 * d + 7) * (3.0 * d + 5))
            )
            bracket = (
                4.0 * (d + 4) / ((d + 1) * d * (d - 1)) * r ** (d - 1) * Q ** (d + 1)
                + 2.0 * (6 * d * d + 6 * d + 8) / ((d + 1) * d * d * (d - 1))
                * r ** (d + 1)
                * Q**d
                - 24.0 / (d * (d + 2)) * r ** (d + 3) * Q ** (d - 1)
                + 40.0 * (d + 1) / (d * (d + 2) * (d + 4)) * r ** (d + 5) * Q ** (d - 2)
            )
        return _supported((r <= 0.0) | (r >= ct), pref * bracket)


# ----------------------------------------------------------------------
# fractional-Poisson mixture over the number of direction changes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureParams:
    """Rate lam of the counting process, base flight parameters (its n is
    ignored) and the truncation index of the mixture sum."""

    lam: float
    base: FlightParams
    n_max: int = 50

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("MixtureParams requires lam > 0")
        if self.n_max < 1:
            raise ValueError("MixtureParams requires n_max >= 1")


def fractional_poisson_pmf(mp: MixtureParams, n, uncorrected: bool = False):
    """Probability of n direction changes on [0, t], elementwise in n.

    The default includes the n! correction that makes the weights sum to
    one exactly under the Wright-type Mittag-Leffler normalizer; the
    uncorrected variant omits it and demonstrably does not normalize.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("fractional_poisson_pmf requires n >= 0")
    from .specfun import mittag_leffler_paper

    d, nu, t = mp.base.d, mp.base.nu, mp.base.t
    lam_t = mp.lam * t
    ml = mittag_leffler_paper(nu + 0.5 * (d - 1), nu + 0.5 * d, lam_t)
    log_den = _lgamma(0.5 * (n + 1) * (2.0 * nu + d - 1.0) + 0.5)
    if not uncorrected:
        log_den = log_den + _lgamma(n + 1.0)
    return (np.exp(n * math.log(lam_t) - log_den) / ml)[()]


def unconditional_density_projection(mp: MixtureParams, x):
    """Projected density with the number of changes mixed over n >= 1.

    The conditional laws need n >= 1, so the weights are renormalized over
    n >= 1; the sum is truncated at n_max (see :func:`mixture_tail_bound`).
    """
    pmf = fractional_poisson_pmf(mp, np.arange(mp.n_max + 1))
    weights = pmf[1:] / (1.0 - pmf[0])
    total = 0.0
    for n, w in enumerate(weights, start=1):
        total += w * density_projection(replace(mp.base, n=n), x)
    return total


def mixture_tail_bound(mp: MixtureParams) -> float:
    """Upper bound on the density mass dropped by truncating at n_max.

    Bounds sum_{n > n_max} w_n * sup_x p_n by a geometric comparison at
    the first omitted term (the terms decay factorially in n).
    """
    base = mp.base
    ns = (mp.n_max + 1, mp.n_max + 2)
    pmf = fractional_poisson_pmf(mp, (0,) + ns)
    terms = []
    for n, pn_weight in zip(ns, pmf[1:]):
        pn = replace(base, n=n)
        if _half_order(pn) - 0.5 * (base.m + 1) <= 0.0:
            raise RuntimeError(
                "n_max too small: omitted conditional densities are unbounded"
            )
        # with a positive boundary exponent the conditional density peaks
        # at the origin, so this is w_n * sup_x p_n
        terms.append(pn_weight / (1.0 - pmf[0]) * density_projection(pn, np.zeros(base.m)))
    b1, b2 = terms
    if b1 == 0.0:
        return 0.0
    r = b2 / b1
    if r >= 0.5:
        raise RuntimeError("mixture truncation index too small for a tail bound")
    return float(2.0 * b1 / (1.0 - r))
