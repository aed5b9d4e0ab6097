"""Closed-form laws of the drifted random flight.

Projection results: characteristic function, density, radial
density/CDF/moments of the first m coordinates, for m < d at any nu >= 0
and for m = d at nu = 0, where the full flight is isotropic; all driven
by the half order K = (n+1)(2 nu + d - 1)/2.  The projected radius obeys
(R / c t)^2 ~ Beta(m/2, q + 1) with q = K - (m+1)/2, so its CDF is a
regularized incomplete beta function.

Full-flight results (nu = 1 only): characteristic function, density and
radial density in dimension d, any n >= 1, as alternating Bessel/polynomial
sums over one table of constants indexed by the falling-factorial
coefficients; the radial law is the density's sum averaged over the
sphere of radius r.  The paper's fully explicit n = 1, 2 density stays as
an independent check of that table.

Every law takes arrays and broadcasts.  Points and frequency vectors lie
along the last axis, radii are elementwise; one point or radius gives a
numpy scalar with the bits of its row in a batch.  The densities and the
radial CDF return NaN at NaN inputs.

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
from functools import lru_cache, reduce

import numpy as np
from scipy.special import betainc

from .flight import FlightParams
from .specfun import bessel_j_ratio, falling_factorial_coeffs, log_mittag_leffler_paper

__all__ = [
    "MIXTURE_MASS_TOL",
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


def __getattr__(name):
    # ``analytic.quad`` exists only because bench/tracing.py wraps it here
    # (ROADMAP item 1 drops that wrap, and this hook with it); resolving it
    # on lookup keeps scipy.integrate out of ``import driftflight``
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)
_EPS = np.finfo(float).eps
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _half_order(p: FlightParams, n):
    """K at n direction changes (a number or an array) in place of p.n."""
    return 0.5 * (n + 1) * (2.0 * p.nu + p.d - 1.0)


def _require_n(p: FlightParams) -> None:
    if p.n < 1:
        raise ValueError("this law requires n >= 1 direction changes")


def _require_beta_law(p: FlightParams) -> None:
    # the domain of every projected law: the Beta law of the radius holds
    # for m < d, and at m = d for the isotropic nu = 0 flight
    _require_n(p)
    if p.m == p.d and p.nu != 0.0:
        raise ValueError("this law at m = d requires nu = 0")


def _require_nu1(p: FlightParams) -> None:
    if abs(p.nu - 1.0) > 1e-12:
        raise ValueError("this law is only available for nu = 1")
    _require_n(p)


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
    # one-vector dot, so one point and a batch give identical bits.  It is
    # inf where it overflows: such a point lies outside every support
    with np.errstate(over="ignore"):
        return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _rescaled(x: np.ndarray):
    """Vectors y and factors s with x = s y.  s is 1 except where x @ x
    overflows with finite entries; there it is the power of 2 at or below
    max |x_i|, an exact scaling.  Every other vector keeps its bits."""
    big = np.isinf(_sq_norm(x)) & np.isfinite(x).all(axis=-1)
    if not big.any():
        return x, 1.0
    s = np.where(big, np.ldexp(1.0, np.frexp(np.abs(x).max(axis=-1))[1] - 1), 1.0)
    return x / s[..., None], s


def _supported(outside, values) -> np.ndarray:
    """``values`` with the points ``outside`` the support set to 0.  NaN
    inputs fail every comparison, so their NaN values pass through."""
    return np.where(outside, 0.0, values)[()]


def _in_support(r, ct: float):
    """Radii with those outside the open support (0, ct) set to 0, where
    every law is finite, and the mask of those radii.  The others keep
    their bits, and NaN passes through."""
    r = np.asarray(r, dtype=float)
    outside = (r <= 0.0) | (r >= ct)
    return np.where(outside, 0.0, r), outside


def _finite_or_nan(w: np.ndarray) -> np.ndarray:
    """Frequency norms with NaN in place of inf: a cf is NaN at a
    non-finite frequency."""
    return np.where(np.isfinite(w), w, np.nan)


def _log_size(pieces) -> float:
    """The magnitude that rounding scales with in exp(sum(pieces))."""
    return sum(abs(v) for v in pieces)


def _checked_sum(terms, sizes, log_pref: float, tol: float, name: str, kind: str):
    """Sum the terms (T, ...) of an alternating series over the first axis.

    Each term is exp of a sum of logs of size ``sizes`` (T, ...) plus the
    common ``log_pref``, so, summed, it carries a relative rounding error
    of about eps (size + T); the common part scales the total and is not
    amplified by cancellation.  Raises ValueError where the error bound
    exceeds ``tol`` (``kind`` is "absolute" or "relative" to the total).
    """
    # term after term: numpy sums one point's 1-D terms pairwise but a
    # batch row by row, which would give one point other bits
    total = reduce(np.add, terms)
    spread = np.where(terms == 0.0, 0.0, np.abs(terms) * (sizes + len(terms)))
    err = _EPS * (spread.sum(axis=0) + np.abs(total) * abs(log_pref))
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = err / np.abs(total) if kind == "relative" else err
        if np.any(loss > tol):
            raise ValueError(
                f"{name}: cancellation in the alternating sum may lose up to "
                f"{np.nanmax(loss):.1e} {kind} (tolerance {tol:g})"
            )
    return total


# ----------------------------------------------------------------------
# projected flight, any nu
# ----------------------------------------------------------------------

def cf_projection(p: FlightParams, alpha):
    """Characteristic function of the projected flight at frequencies alpha.

    Depends on each frequency vector only through its norm; the vectors
    (last axis of alpha) may have any length up to m.  Real, 1 at
    alpha = 0.
    """
    _require_beta_law(p)
    if (alpha := _vectors(alpha)).shape[-1] > p.m:
        raise ValueError(f"expected vectors of length <= m = {p.m}, got shape {alpha.shape}")
    alpha, s = _rescaled(alpha)
    w = _finite_or_nan(p.c * p.t * np.sqrt(_sq_norm(alpha)) * s)
    K = _half_order(p, p.n)
    mu = K - 0.5
    vals = bessel_j_ratio(mu, w, mu * _LN_2 + math.lgamma(K + 0.5))
    return np.where(w == 0.0, 1.0, vals)[()]


def density_projection(p: FlightParams, x):
    """Density of the m-dimensional projection at the points x.

    Zero outside the open ball of radius c t.
    """
    _require_beta_law(p)
    return _projection_densities(p, p.n, np.sqrt(_sq_norm(_vectors(x, p.m))))[0]


def _projection_densities(p: FlightParams, ns, r, log_scale=0.0) -> np.ndarray:
    """Densities (N, ...) of the m-dimensional projection at radii r (...)
    for each number of changes in ns (N,) in place of p.n, times
    exp(log_scale): one array, in which each n keeps the bits it has
    alone."""
    ct, m = p.c * p.t, p.m
    K = _half_order(p, np.atleast_1d(ns))
    log_norm = [
        math.lgamma(k + 0.5)
        - math.lgamma(k - 0.5 * m + 0.5)
        - 0.5 * m * _LN_PI
        - (2.0 * k - 1.0) * math.log(ct)
        for k in K.tolist()
    ]
    per_n = (-1,) + (1,) * np.ndim(r)
    q = K.reshape(per_n) - 0.5 * (m + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.exp(np.reshape(log_norm, per_n) + log_scale + q * np.log(ct * ct - r * r))
    return np.where(r >= ct, 0.0, vals)


def radial_density_projection(p: FlightParams, r):
    """Density of the radius of the projection, supported on (0, c t):
    the density times |S^(m-1)| r^(m-1)."""
    _require_beta_law(p)
    r, outside = _in_support(r, p.c * p.t)
    m = p.m
    with np.errstate(divide="ignore", invalid="ignore"):
        # log |S^(m-1)| r^(m-1), with |S^(m-1)| = 2 pi^(m/2) / Gamma(m/2)
        log_sphere = _LN_2 + 0.5 * m * _LN_PI - math.lgamma(0.5 * m) + (m - 1.0) * np.log(r)
    return _supported(outside, _projection_densities(p, p.n, r, log_sphere)[0])


def cdf_radial_projection(p: FlightParams, r):
    """CDF of the projected radius.

    (R / c t)^2 is Beta(m/2, q + 1) distributed with q = K - (m+1)/2, so
    the CDF is the regularized incomplete beta function
    I_{(r/ct)^2}(m/2, q + 1) for every nu.  q >= 0 for every m < d, and
    q >= -1/2 at m = d, nu = 0.
    """
    _require_beta_law(p)
    q = _half_order(p, p.n) - 0.5 * (p.m + 1)
    y = np.square(np.clip(np.asarray(r, dtype=float) / (p.c * p.t), 0.0, 1.0))
    return betainc(0.5 * p.m, q + 1.0, y)[()]


def radial_moment(p: FlightParams, order: int) -> float:
    """E[R^order] for the projected radius; strictly below (c t)^order."""
    _require_beta_law(p)
    if order < 1:
        raise ValueError("radial_moment requires order >= 1")
    K = _half_order(p, p.n)
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
    alpha = 0 (series limit).  Raises ValueError where the sum may lose
    more than 1e-9 absolute to rounding.
    """
    _require_nu1(p)
    alpha, s = _rescaled(_vectors(alpha, p.d))
    rho2 = _sq_norm(alpha)
    rho = np.sqrt(rho2)
    d, n = p.d, p.n
    with np.errstate(invalid="ignore"):
        # an array, not a numpy scalar: the scalar ** rounds differently
        ratio = np.asarray(alpha[..., -1] ** 2 / np.square(rho))
    w = _finite_or_nan(p.c * p.t * rho * s)
    with np.errstate(divide="ignore"):
        log_w2 = 2.0 * np.log(w)
    M = (n + 1) * (d + 1)
    log_pref = 0.5 * _LN_PI + math.lgamma(M) - 0.5 * (M - 1) * _LN_2
    terms, sizes = [], []
    for j in range(n + 2):
        nj = n + 1 - j
        mu_j = 0.5 * ((n + 1) * (d + 3) - (2 * j + 1))
        pieces = _nu1_logs(d, n, j)
        # the prefactor and w^(2 nj) ride in the Bessel ratio's log scale
        log_w_part = nj * log_w2 if nj else np.zeros(w.shape)
        t = ratio**nj * bessel_j_ratio(mu_j, w, log_pref + sum(pieces) + log_w_part)
        terms.append((-1.0) ** nj * t)
        # the ratio adds -lgamma(mu_j + 1) - mu_j log 2 of its own
        own = math.lgamma(mu_j + 1.0) + mu_j * _LN_2
        sizes.append(_log_size(pieces) + own + np.abs(log_w_part))
    total = _checked_sum(np.array(terms), np.array(sizes), log_pref, 1e-9, "cf_nu1", "absolute")
    return np.where(rho2 == 0.0, 1.0, total)[()]


def _nu1_logs(d: int, n: int, j: int) -> list[float]:
    """Logs of C(n+1, j), ((d+1)/2)^(n+1-j) and 1 / Gamma((n+1)(d+3)/2 - j),
    the constant of term j in the nu = 1 cf and density sums."""
    return [
        math.log(math.comb(n + 1, j)),
        (n + 1 - j) * math.log(0.5 * (d + 1)),
        -math.lgamma(0.5 * (n + 1) * (d + 3) - j),
    ]


def _nu1_sum(p: FlightParams, xx, Q, log_weight, name: str):
    """The nu = 1 density's double sum of terms c_jk x_d^(2k) Q^e at
    x_d^2 = xx and Q = c^2 t^2 - |x|^2, each c_jk scaled by
    exp(log_weight[k]); raises past 1e-9 relative rounding loss."""
    d, n = p.d, p.n
    ct = p.c * p.t
    M = (n + 1) * (d + 1)
    # x_d^(2k) Q^e = (c t)^(n (d+1)) (x_d^2 / c^2 t^2)^k (Q / c^2 t^2)^e
    log_pref = math.lgamma(M) - 0.5 * (d - 1) * _LN_PI - (M - 1) * _LN_2 - d * math.log(ct)
    rows = []  # per term: sign, log of its constant, that log's size, e, k
    for j in range(n + 2):
        nj = n + 1 - j
        for k, a_k in enumerate(_coeff_row(nj)):
            e = 0.5 * n * (d + 1) - k
            pieces = _nu1_logs(d, n, j) + [math.log(a_k), -math.lgamma(e + 1.0), log_weight[k]]
            rows.append(((-1.0) ** (nj + k), sum(pieces), _log_size(pieces), e, k))
    sign, log_c, size, e, k = (np.reshape(v, (-1,) + (1,) * Q.ndim) for v in zip(*rows))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_point = e * np.log(Q / ct**2) + np.where(k > 0, k * np.log(xx / ct**2), 0.0)
        terms = sign * np.exp(log_pref + log_c + log_point)
        return _checked_sum(terms, size + np.abs(log_point), log_pref, 1e-9, name, "relative")


def density_nu1(p: FlightParams, x):
    """Density of the full flight at nu = 1, any n >= 1.

    A double sum over the falling-factorial coefficient tables; even in
    x_d and invariant under rotations fixing the x_d axis.  Raises
    ValueError where the sum may lose more than 1e-9 relative to rounding.
    """
    _require_nu1(p)
    rho2 = _sq_norm(x := _vectors(x, p.d))
    ct = p.c * p.t
    with np.errstate(over="ignore"):  # an overflow lies outside the support
        xx = x[..., -1] ** 2
    total = _nu1_sum(p, xx, ct**2 - rho2, np.zeros(p.n + 2), "density_nu1")
    return _supported(rho2 >= ct * ct, total)


def density_nu1_closed(p: FlightParams, x):
    """Fully explicit nu = 1 density, available for n = 1 and n = 2 only."""
    _require_closed(p)
    rho2 = _sq_norm(x := _vectors(x, p.d))
    d = p.d
    ct = p.c * p.t
    # arrays, not numpy scalars: the scalar ** rounds differently
    with np.errstate(over="ignore"):  # an overflow lies outside the support
        xx, Q = np.asarray(x[..., -1] ** 2), np.asarray(ct * ct - rho2)
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
    """Radius density of the full flight at nu = 1, any n >= 1.

    The density integrated over the sphere of radius r: its sum with
    x_d^(2k) averaged to r^(2k) |S^(d-1)| E[u_d^(2k)], times r^(d-1).
    Raises ValueError where the sum may lose more than 1e-9 relative.
    """
    _require_nu1(p)
    d = p.d
    ct = p.c * p.t
    r, outside = _in_support(r, ct)
    k = np.arange(p.n + 2)
    # |S^(d-1)| E[u_d^(2k)] = 2 pi^((d-1)/2) Gamma(k + 1/2) / Gamma(k + d/2)
    sphere = _LN_2 + 0.5 * (d - 1) * _LN_PI + _lgamma(k + 0.5) - _lgamma(k + 0.5 * d)
    total = _nu1_sum(p, r * r, ct * ct - r * r, sphere, "radial_density_nu1")
    return _supported(outside, r ** (d - 1) * total)


# ----------------------------------------------------------------------
# fractional-Poisson mixture over the number of direction changes
# ----------------------------------------------------------------------

# largest shortfall from 1 of the n >= 1 mixture weight a truncated mixture
# may keep before it raises
MIXTURE_MASS_TOL = 1e-9


@dataclass(frozen=True)
class MixtureParams:
    """Rate lam of the counting process, base flight parameters (its n is
    ignored) and the truncation index of the mixture sum."""

    lam: float
    base: FlightParams
    n_max: int = 50

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError("MixtureParams requires a finite lam > 0")
        if self.n_max < 1:
            raise ValueError("MixtureParams requires n_max >= 1")


def _log_series_terms(mp: MixtureParams, n, uncorrected: bool = False):
    # log of (lam t)^n / (n! Gamma((n+1)(2 nu + d - 1)/2 + 1/2)), the terms
    # of the Mittag-Leffler series that normalizes the pmf
    log_den = _lgamma(_half_order(mp.base, n) + 0.5)
    if not uncorrected:
        log_den = log_den + _lgamma(n + 1.0)
    return n * math.log(mp.lam * mp.base.t) - log_den


def _log_series(mp: MixtureParams, start: int) -> float:
    # log of that series summed from its term k = start
    d, nu = mp.base.d, mp.base.nu
    return log_mittag_leffler_paper(nu + 0.5 * (d - 1), nu + 0.5 * d, mp.lam * mp.base.t, start)


def fractional_poisson_pmf(mp: MixtureParams, n, uncorrected: bool = False):
    """Probability of n direction changes on [0, t], elementwise in n.

    The default includes the n! correction that makes the weights sum to
    one exactly under the Wright-type Mittag-Leffler normalizer; the
    uncorrected variant omits it and demonstrably does not normalize.
    Evaluated in log space, with the normalizer as a log-sum-exp of its
    series, so large lam t gives the pmf's values, not 0 from an inf.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("fractional_poisson_pmf requires n >= 0")
    return np.exp(_log_series_terms(mp, n, uncorrected) - _log_series(mp, 0))[()]


def _mixture_weights(mp: MixtureParams, n):
    # the pmf at n >= 1 renormalized over n >= 1: the series terms over the
    # series from its k = 1 term, with no 1 - pmf(0) cancellation
    return np.exp(_log_series_terms(mp, np.asarray(n)) - _log_series(mp, 1))


def _retained_weights(mp: MixtureParams) -> np.ndarray:
    """The mixture weights of n = 1 .. n_max; raises ValueError outside the
    projected laws' domain and when the weights keep less than
    1 - MIXTURE_MASS_TOL of the n >= 1 mass."""
    _require_beta_law(replace(mp.base, n=1))
    weights = _mixture_weights(mp, np.arange(1, mp.n_max + 1))
    retained = float(weights.sum())
    if not 1.0 - retained <= MIXTURE_MASS_TOL:
        raise ValueError(
            f"the mixture over n = 1..{mp.n_max} retains weight {retained:.3g} "
            f"of the n >= 1 mass (tolerance 1 - {MIXTURE_MASS_TOL:g}); "
            f"raise n_max for lam t = {mp.lam * mp.base.t:g}"
        )
    return weights


def unconditional_density_projection(mp: MixtureParams, x):
    """Projected density with the number of changes mixed over n >= 1.

    The conditional laws need n >= 1, so the weights are renormalized over
    n >= 1; the sum is truncated at n_max (see :func:`mixture_tail_bound`)
    and raises ValueError when the weights it keeps fall short of 1 by
    more than ``MIXTURE_MASS_TOL``.
    """
    weights = _retained_weights(mp)
    r = np.sqrt(_sq_norm(_vectors(x, mp.base.m)))
    ns = np.arange(1, mp.n_max + 1)
    terms = weights.reshape((-1,) + (1,) * r.ndim) * _projection_densities(mp.base, ns, r)
    # term after term, as _checked_sum sums, so one point keeps its bits in a batch
    return reduce(np.add, terms)[()]


def mixture_tail_bound(mp: MixtureParams) -> float:
    """Upper bound on the density mass dropped by truncating at n_max.

    Bounds sum_{n > n_max} w_n * sup_x p_n by a geometric comparison at
    the first omitted term (the terms decay factorially in n).  Raises
    ValueError, like :func:`unconditional_density_projection`, when the
    kept weights fall short of 1 by more than ``MIXTURE_MASS_TOL``.
    """
    _retained_weights(mp)
    ns = np.array([mp.n_max + 1, mp.n_max + 2])
    # for n >= 2 the exponent q = K - (m+1)/2 of c^2 t^2 - r^2 is >= 0 in
    # the whole domain, so each density peaks at the origin: w_n sup_x p_n
    b1, b2 = _mixture_weights(mp, ns) * _projection_densities(mp.base, ns, 0.0)
    if b1 == 0.0:
        return 0.0
    r = b2 / b1
    if r >= 0.5:
        raise RuntimeError("mixture truncation index too small for a tail bound")
    return float(2.0 * b1 / (1.0 - r))
