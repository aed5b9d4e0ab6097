"""Closed-form laws of the drifted random flight.

Projection results: characteristic function, density, radial
density/CDF/moments of the first m coordinates, for m < d at any nu >= 0
and for m = d at nu = 0, where the full flight is isotropic; all driven
by the half order K = (n+1)(2 nu + d - 1)/2.  The projected radius obeys
(R / c t)^2 ~ Beta(m/2, q + 1) with q = K - (m+1)/2, so its CDF is a
regularized incomplete beta function.

Full-flight results (nu = 1 only): characteristic function, density and
radial density in dimension d, any n >= 1, over one table of constants,
built once per (d, n) and kept as read-only arrays.  The cf is an
alternating sum of n + 2 Bessel terms, from one call with an array of
orders.  The density's polynomial in x_d^2 and 1 - |x|^2, with exact
rational constants, is raised in degree until its Bernstein coefficients
are all >= 0.  Then, with W = 1 - |x_perp|^2 at unit scale, x_perp has
the m = d - 1 projected law and u = x_d^2 / W, independent of it, a
mixture of Beta(j + 1/2, b_j) laws with weights >= 0; the squared radius
is a mixture of Beta(j + d/2, b_j) laws.  Those mixtures and the projected
radius, Beta(m/2, q + 1), are one evaluator's sums of positive terms,
which lose no digits to cancellation.  The paper's fully explicit n = 1, 2
density stays as an independent check of that table.

Every law takes arrays and broadcasts.  Points and frequency vectors lie
along the last axis, radii are elementwise; one point or radius gives a
numpy scalar with the bits of its row in a batch.  The densities and the
radial CDF return NaN at NaN inputs.  Each law is evaluated at unit
scale, at x / (c t) (a cf at c t |alpha|), and a density is taken to c t
by (c t)^(-dim) as an exact power of 2 times one rounded factor, so the
laws hold for every 0 < c t < inf that ``FlightParams`` accepts; a
density raises ValueError where its value passes the double range.

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
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np
from scipy.special import betainc

from .flight import FlightParams
from .specfun import _lgamma, bessel_j_ratio, falling_factorial_coeffs, log_mittag_leffler_paper

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
_TINY = np.finfo(float).tiny
# largest absolute rounding loss the cf's alternating sum may carry before it raises
_SUM_TOL = 1e-9
# (d, n) term tables the nu = 1 laws keep, built once each
_NU1_TABLES = 64
# every law's error state, set once a call: each overflow, division by 0 or
# invalid operation in a law falls where a mask sets its value
_MASKED = np.errstate(over="ignore", divide="ignore", invalid="ignore")


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
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _split(y):
    """The high part of y on the grid of 2^-26, for |y| < 2^25."""
    high = y + 100663296.0  # 1.5 2^26
    high -= 100663296.0
    return high


def _ball_gaps(z: np.ndarray, g: float):
    """g^2 - (z_1^2 + ... + z_k^2) for k = 1..dim along the last axis, for
    1/2 < g <= 1, with an absolute error of about dim 2^-26 eps, where a
    rounded sum of squares has one of about eps, which is all of a gap
    next to the sphere of radius g.  Each z_i <= 1 in size splits into a
    high part h_i on the grid of 2^-26 and z_i - h_i, and g into g_h and
    g - g_h, so that h_i^2, g_h^2 and all sums of them below 2 are exact
    multiples of 2^-52: a gap is (g_h^2 - sum h_i^2) - (sum (z_i - h_i)(z_i
    + h_i) - (g - g_h)(g + g_h)), whose terms in g are 1 and 0 at g = 1.
    Also returns the sums of the h_i^2, inf where a z_i is."""
    high = _split(z)
    cross = z + high
    cross *= z - high
    squares = np.add.accumulate(high * high, axis=-1)
    gh = _split(g)
    return (gh * gh - squares) - (np.add.accumulate(cross, axis=-1) - (g - gh) * (g + gh)), squares


def _scaled_gaps(x, dim: int, ct: float):
    """f, the points z = x 2^-e and the gaps f^2 - (z_1^2 + ... + z_k^2),
    k = 1..dim (``_ball_gaps``), with c t = f 2^e, 1/2 < f <= 1.  z is
    exact and the point at unit scale is z / f, so no rounded quotient
    x / c t enters the gaps, which are f^2 times their values at unit
    scale; a gap is -inf where a sum of squares is inf, outside the ball."""
    f, e = math.frexp(ct)
    if f == 0.5:
        f, e = 1.0, e - 1
    z = np.ldexp(_vectors(x, dim), -e)
    gaps, sums = _ball_gaps(z, f)
    return f, z, np.where(sums == math.inf, -math.inf, gaps)  # not NaN, as z_i - h_i is there


def _frequencies(alpha: np.ndarray, ct: float):
    """Frequency vectors y = 2^-k alpha, their norms |y| and the norms
    w = c t |alpha|.  k is 0 but where alpha @ alpha over- or underflows
    while alpha has finite, nonzero entries; there 2^k is the power of 2
    at or below max |alpha_i|, an exact scaling, after which y @ y is near
    1.  w is (g |y|) 2^(e + k) with c t = g 2^e, so it is inf only past the
    double range and never loses bits to an underflowing |alpha|^2; it is
    NaN where alpha is not finite, as a cf is there."""
    g, e = math.frexp(ct)
    rho2 = _sq_norm(alpha)
    normal = (rho2 >= _TINY) & (rho2 < math.inf)  # False at NaN
    if normal.all():
        norm = np.sqrt(rho2)
        return alpha, norm, np.ldexp(g * norm, e)
    top = np.abs(alpha).max(axis=-1)
    k = np.where(~normal & np.isfinite(alpha).all(axis=-1) & (top > 0.0), np.frexp(top)[1] - 1, 0)
    y = np.ldexp(alpha, -k[..., None])
    norm = np.sqrt(_sq_norm(y))
    return y, norm, np.where(np.isfinite(norm), np.ldexp(g * norm, e + k), np.nan)


def _unit(v, ct: float) -> np.ndarray:
    """Points or radii v / (c t), where every law is at unit scale and
    supported on the unit ball; inf where the quotient overflows, which
    lies outside it."""
    return np.asarray(v, dtype=float) / ct


def _times_ct_power(values, ct: float, dim: int):
    """values * (c t)^(-dim), the density of a law at c t from its values
    at unit scale (``values`` taken at the points divided by c t).

    With c t = g 2^e, 1 <= g < 2, the factor is an exact 2^(-dim e) times
    2^L, L = -dim log2 g in (-dim, 0], whose rounding is about dim eps
    relative; at c t = 1 it is 1, and the values are returned as they
    are.  Raises ValueError where a finite value passes the double range,
    as :func:`radial_moment` does.
    """
    if ct == 1.0:
        return values
    g, e = math.frexp(ct)
    L = -dim * math.log2(2.0 * g)
    lo = math.floor(L)
    with np.errstate(over="ignore"):
        out = np.ldexp(values * 2.0 ** (L - lo), lo - dim * (e - 1))
    if np.any(np.isinf(out) & np.isfinite(values)):
        raise ValueError(
            f"the law's value at c t = {ct:g} passes the double range "
            f"((c t)^{-dim} scales it)"
        )
    return out


def _supported(outside, values) -> np.ndarray:
    """``values`` with the points ``outside`` the support set to 0.  NaN
    inputs fail every comparison, so their NaN values pass through."""
    return np.where(outside, 0.0, values)[()]


def _in_order_sum(terms: np.ndarray) -> np.ndarray:
    # the sum over the first axis term after term, as an accumulation adds:
    # numpy sums one point's 1-D terms pairwise but a batch row by row
    return np.add.accumulate(terms)[-1]


def _beta_mixture(mix, s, rest) -> np.ndarray:
    """The density at s (...) of s = sqrt(v), v a mixture of Beta(a_j, b_j)
    laws, given rest = 1 - s^2: sum_j exp(c_j + (2 a_j - 1) log s +
    (b_j - 1) log rest), the rows of ``mix`` (3, J) c_j = log(2 w_j / B(a_j, b_j)),
    w_j the weights, 2 a_j - 1 and b_j - 1, in ascending powers, so only
    the first can be 0.  Summed in order with the points in a row, so one
    point has the bits of its batch row; s^0 = 1 at s = 0."""
    log_c, power, rest_power = np.reshape(mix, (3, -1, 1))
    shape = np.shape(s)
    point = power * np.log(np.reshape(s, -1))
    if power[0, 0] == 0.0:
        point[0] = 0.0
    point += rest_power * np.log(np.reshape(rest, -1))
    return _in_order_sum(np.exp(log_c + point)).reshape(shape)


def _radial_density(mix, r, ct: float):
    """The density at the radii r of R, (R / c t)^2 the Beta mixture ``mix``;
    0 outside (0, c t), where y = r / c t is set to 0.  A radius r > 0 whose
    y underflows to 0 stays inside; NaN passes through."""
    r = np.asarray(r, dtype=float)
    y = _unit(r, ct)
    outside = (r <= 0.0) | (y >= 1.0)
    y = np.where(outside, 0.0, y)
    # 1 - y^2 to about eps relative also near y = 1, where b_j - 1 may be in the hundreds
    vals = _beta_mixture(mix, y, (1.0 - y) * (1.0 + y))
    return _times_ct_power(_supported(outside, vals), ct, 1)


# ----------------------------------------------------------------------
# projected flight, any nu
# ----------------------------------------------------------------------

@_MASKED
def cf_projection(p: FlightParams, alpha):
    """Characteristic function of the projected flight at frequencies alpha.

    Depends on each frequency vector only through its norm; the vectors
    (last axis of alpha) may have any length up to m.  Real, 1 at
    alpha = 0.
    """
    _require_beta_law(p)
    if (alpha := _vectors(alpha)).shape[-1] > p.m:
        raise ValueError(f"expected vectors of length <= m = {p.m}, got shape {alpha.shape}")
    w = _frequencies(alpha, p.c * p.t)[2]
    K = _half_order(p, p.n)
    mu = K - 0.5
    vals = bessel_j_ratio(mu, w, mu * _LN_2 + math.lgamma(K + 0.5))
    return np.where(w == 0.0, 1.0, vals)[()]


@_MASKED
def density_projection(p: FlightParams, x):
    """Density of the m-dimensional projection at the points x.

    Zero outside the open ball of radius c t.  Raises ValueError where a
    value passes the double range (c t near the bottom of it).
    """
    _require_beta_law(p)
    f, _, gaps = _scaled_gaps(x, p.m, p.c * p.t)
    return _projection_densities(p, p.n, gaps[..., -1] / (f * f), p.m, p.c * p.t)[0]


def _projection_densities(p: FlightParams, ns, rest, m: int, ct: float) -> np.ndarray:
    """The m-dimensional densities (N, ...) at rest = 1 - (r / c t)^2 (...)
    for each number of changes in ns (N,) in place of p.n, taken to c t by
    (c t)^(-m).  One array, in which each n keeps the bits it has alone."""
    K = _half_order(p, np.atleast_1d(ns))
    log_norm = [
        math.lgamma(k + 0.5) - math.lgamma(k - 0.5 * m + 0.5) - 0.5 * m * _LN_PI
        for k in K.tolist()
    ]
    per_n = (-1,) + (1,) * np.ndim(rest)
    q = K.reshape(per_n) - 0.5 * (m + 1)
    vals = np.exp(np.reshape(log_norm, per_n) + q * np.log(rest))
    return _times_ct_power(np.where(rest <= 0.0, 0.0, vals), ct, m)


@_MASKED
def radial_density_projection(p: FlightParams, r):
    """Density of the radius of the projection, supported on (0, c t):
    (R / c t)^2 is Beta(m/2, q + 1), one term of :func:`_beta_mixture`."""
    _require_beta_law(p)
    K = _half_order(p, p.n)
    q = K - 0.5 * (p.m + 1)
    # 2 / B(m/2, q + 1), with m/2 + q + 1 = K + 1/2; the two large lgammas first
    log_c = math.lgamma(K + 0.5) - math.lgamma(q + 1.0) + _LN_2 - math.lgamma(0.5 * p.m)
    return _radial_density([log_c, p.m - 1.0, q], r, p.c * p.t)


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
    """E[R^order] for the projected radius; strictly below (c t)^order.

    Raises ValueError where (c t)^order passes the double range.
    """
    _require_beta_law(p)
    if isinstance(order, (bool, np.bool_)) or not math.inf > order >= 1:  # NaN fails
        raise ValueError(f"radial_moment requires a finite order >= 1, got {order!r}")
    K = _half_order(p, p.n)
    m = p.m
    # E[(R / c t)^order] <= 1, so only the scale can overflow
    beta_moment = math.exp(
        math.lgamma(K + 0.5)
        + math.lgamma(0.5 * (order + m))
        - math.lgamma(K + 0.5 * (order + 1))
        - math.lgamma(0.5 * m)
    )
    try:
        return beta_moment * (p.c * p.t) ** order
    except OverflowError:
        raise ValueError(
            f"radial_moment of order {order}: (c t)^{order} passes the double range"
        ) from None


# ----------------------------------------------------------------------
# full flight, nu = 1
# ----------------------------------------------------------------------

@_MASKED
def cf_nu1(p: FlightParams, alpha):
    """Characteristic function of the full d-dimensional flight at nu = 1.

    Alternating sum of n+2 Bessel terms; the dependence on the direction
    of alpha enters only through alpha_d^2 / ||alpha||^2.  Equals 1 at
    alpha = 0 (series limit) and lies in [-1, 1]: near the origin the sum
    rounds to just above 1, and is clipped.  Raises ValueError where the
    sum may lose more than 1e-9 absolute to rounding.
    """
    _require_nu1(p)
    tab = _nu1_table(p.d, p.n)
    alpha = _vectors(alpha, p.d)
    # the vectors in a row, as the table's columns broadcast with them
    y, norm, w = _frequencies(alpha.reshape(-1, p.d), p.c * p.t)
    nj, sign, order, log_j, size = tab.bessel
    ratio = y[:, -1] ** 2 / (norm * norm)
    # the prefactor and w^(2 nj) ride in the Bessel ratio's log scale; the
    # last term has nj = 0 and no w factor, also where log w is -inf
    log_w = nj * (2.0 * np.log(w))
    log_w[-1] = 0.0
    ratios = bessel_j_ratio(order, w, log_j + log_w)
    powers = np.power(ratio, nj)
    # row nj = 2 as numpy's ratio**2 forms it: ratio * ratio, which pow may round apart
    powers[-3] = np.square(ratio)
    terms = sign * (powers * ratios)
    total = _in_order_sum(terms)
    # term j errs by about eps (size_j + |log_w_j| + n + 2) |term j|, cf_pref by
    # eps |cf_pref| |total|; a 0 term of inf size (w = 0 or inf) gives NaN, which passes
    err = _EPS * ((np.abs(terms) * (size + np.abs(log_w) + len(terms))).sum(axis=0)
                  + np.abs(total) * abs(tab.cf_pref))
    if (err > _SUM_TOL).any():
        raise ValueError(
            f"cf_nu1: cancellation in the alternating sum may lose up to "
            f"{np.nanmax(err):.1e} absolute (tolerance {_SUM_TOL:g})"
        )
    return np.where(norm == 0.0, 1.0, np.clip(total, -1.0, 1.0)).reshape(alpha.shape[:-1])[()]


class _Nu1Table:
    """The constants of the nu = 1 sums at one (d, n), built once per
    (d, n) by :func:`_nu1_table`, each part on its first use, as read-only
    arrays.

    ``bessel`` holds columns (n+2, 1), per Bessel term j = 0..n+1 of the
    cf: the exponent nj = n+1-j of the direction ratio, the sign (-1)^nj,
    the order (n+1)(d+3)/2 - j - 1/2, cf_pref plus the log of the term's
    constant C(n+1, j) ((d+1)/2)^nj / Gamma((n+1)(d+3)/2 - j), and that
    log's size plus the Bessel ratio's own lgamma(order + 1) + order log 2.
    ``radius`` and ``u`` hold the :func:`_beta_mixture` rows of the
    radius and of u = x_d^2 / (1 - |x_perp|^2), both from one list
    ``constants`` of the exact R_k of :func:`_nu1_constants`.  ``cf_pref``
    is the log of the cf's common factor, and ``h`` the log constant and
    the power q of the m = d - 1 projected density exp(log constant +
    q log(1 - |y|^2)) at nu = 1, as :func:`_projection_densities` takes them.
    """

    def __init__(self, d: int, n: int):
        self.d, self.n = d, n
        M = (n + 1) * (d + 1)
        self.cf_pref = 0.5 * _LN_PI + math.lgamma(M) - 0.5 * (M - 1) * _LN_2
        K, m = 0.5 * (n + 1) * (d + 1.0), d - 1
        log_norm = math.lgamma(K + 0.5) - math.lgamma(K - 0.5 * m + 0.5) - 0.5 * m * _LN_PI
        self.h = log_norm, K - 0.5 * (m + 1)

    @cached_property
    def bessel(self) -> tuple:
        d, n = self.d, self.n
        rows = []
        for j in range(n + 2):
            nj = n + 1 - j
            pieces = [
                math.log(math.comb(n + 1, j)),
                nj * math.log(0.5 * (d + 1)),
                -math.lgamma(0.5 * (n + 1) * (d + 3) - j),
            ]
            order = 0.5 * ((n + 1) * (d + 3) - (2 * j + 1))
            own = math.lgamma(order + 1.0) + order * _LN_2
            size = sum(map(abs, pieces)) + own
            rows.append((nj, (-1.0) ** nj, order, self.cf_pref + sum(pieces), size))
        return tuple(_read_only(column)[:, None] for column in zip(*rows))

    constants = cached_property(lambda self: _nu1_constants(self.d, self.n))
    radius = cached_property(lambda self: self._mixture(radial=True))
    u = cached_property(lambda self: self._mixture(radial=False))

    def _mixture(self, radial: bool) -> np.ndarray:
        """The :func:`_beta_mixture` rows of r / c t or of sqrt(u): the B_j
        (:func:`_elevated`) of the density's exact c_k = R_k E (E-1) ...
        (E-k+1), E = n(d+1)/2 (:func:`_nu1_constants`), or of the radial
        law's c_k E[u_d^(2k)] over the unit sphere, prod_{i<k} (2i+1)/(2i+d).
        The density is W^E sum_j B_j u^j (1-u)^(b_j - 1) times a prefactor,
        b_j = N - j + E - n: the radius takes a_j = j + d/2 and the sphere
        |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2), u a_j = j + 1/2 and 2 over the
        m = d - 1 projected constant Gamma(E + 3/2) / (pi^(m/2) Gamma(E + 3/2 + m/2)).
        """
        d, n = self.d, self.n
        E = Fraction(n * (d + 1), 2)
        coeffs, scale = [], Fraction(1)
        for k, r in enumerate(self.constants):
            coeffs.append(r * scale)
            scale *= (E - k) * (Fraction(2 * k + 1, 2 * k + d) if radial else 1)
        B = _elevated(coeffs)
        N = len(B) - 1
        # the prefactor Gamma(M) / (pi^((d-1)/2) 2^(M+n) Gamma((n+1)(d+3)/2) Gamma(E+1))
        # of every c_k, times 2 and the sphere or over the projected constant
        M = (n + 1) * (d + 1)
        pref = [math.lgamma(M), -math.lgamma(0.5 * (n + 1) * (d + 3)), -math.lgamma(E + 1.0),
                -(M + n - 1) * _LN_2] + ([0.5 * _LN_PI, -math.lgamma(0.5 * d)] if radial
                                         else [math.lgamma(E + 1.5), -math.lgamma(0.5 * M + 0.5)])
        # one rounding a sum; B_j may pass the double range, and may be 0
        return _read_only([
            [math.fsum(pref + [math.log(b.numerator), -math.log(b.denominator)]) if b
             else -math.inf for b in B],
            [2 * j + (d - 1 if radial else 0) for j in range(N + 1)],
            [float(E) - n - 1 + N - j for j in range(N + 1)],
        ])


def _nu1_constants(d: int, n: int) -> list[int]:
    """The exact integers R_k, k = 0..n+1, of the nu = 1 density: its term
    k is R_k x_d^(2k) Q^e / (2^(n+1) Gamma(X) Gamma(e + 1)), X = (n+1)(d+3)/2,
    e = n(d+1)/2 - k.  The x_d^(2k) parts of the cf's inverted terms j,
    sum_j (-1)^(nj+k) C(n+1, j) ((d+1)/2)^nj a_{k,nj} / Gamma(X - j) over
    nj = n+1-j >= k, gathered over 2^(n+1) Gamma(X): with 2X an integer and
    1 / Gamma(X - j) = prod_{i=1..j} (X - i) / Gamma(X),
    R_k = sum_j (-1)^(nj+k) C(n+1, j) (d+1)^nj a_{k,nj} prod_{i=1..j} (2X - 2i)."""
    two_x = (n + 1) * (d + 3)
    coeffs = [falling_factorial_coeffs(nj) for nj in range(n + 2)]
    return [
        sum((-1) ** (nj + k) * math.comb(n + 1, nj) * (d + 1) ** nj * coeffs[nj][k]
            * math.prod(range(two_x - 2 * (n + 1 - nj), two_x, 2)) for nj in range(k, n + 2))
        for k in range(n + 2)
    ]


def _elevated(coeffs: list) -> list:
    """The B_j, j = 0..N, with sum_j B_j u^j (1-u)^(N-j) equal to
    P(u) = sum_k coeffs[k] u^k (1-u)^(K-k), K = len(coeffs) - 1, at the
    least N >= K where every B_j >= 0: B_j is C(N, j) times P's Bernstein
    coefficient.  Each step multiplies P by u + (1 - u), exactly; it ends
    because the nu = 1 P is a density, > 0 on [0, 1]."""
    while min(coeffs) < 0:
        coeffs = [a + b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.flags.writeable = False
    return array


# the table at (d, n), kept for the last _NU1_TABLES (d, n) used
_nu1_table = lru_cache(maxsize=_NU1_TABLES)(_Nu1Table)


@_MASKED
def density_nu1(p: FlightParams, x):
    """Density of the full flight at nu = 1, any n >= 1.

    At unit scale h(x_perp) g(s) / (2 sqrt(W)), W = 1 - |x_perp|^2: h the
    m = d - 1 projected density, g the density of s = |x_d| / sqrt(W) = sqrt(u)
    (:meth:`_Nu1Table._mixture`).  Even in x_d and invariant under rotations
    fixing the x_d axis.  Raises ValueError where a value passes the double
    range."""
    _require_nu1(p)
    ct = p.c * p.t
    # W and Q below are f^2 times their values at unit scale
    f, z, gaps = _scaled_gaps(x, p.d, ct)
    # 1 - u as Q / W, so never u >= 1 inside the ball; W >= Q also where the gaps round apart
    W = np.maximum(gaps[..., -2], Q := gaps[..., -1])
    root = np.sqrt(W)
    table = _nu1_table(p.d, p.n)
    h = np.exp((table.h[0] - 2.0 * table.h[1] * math.log(f)) + table.h[1] * np.log(W))
    g = _beta_mixture(table.u, np.abs(z[..., -1]) / root, Q / W)
    return _times_ct_power(_supported(Q <= 0.0, h * g / ((2.0 / f) * root)), ct, p.d)


@_MASKED
def density_nu1_closed(p: FlightParams, x):
    """Fully explicit nu = 1 density, available for n = 1 and n = 2 only.

    Raises ValueError where a value passes the double range."""
    _require_nu1(p)
    if p.n not in (1, 2):
        raise ValueError("the explicit nu = 1 forms are only available for n in {1, 2}")
    ct = p.c * p.t
    rho2 = _sq_norm(y := _unit(_vectors(x, p.d), ct))
    d = p.d
    # arrays, not numpy scalars: the scalar ** rounds differently
    xx, Q = np.asarray(y[..., -1] ** 2), np.asarray(1.0 - rho2)
    if p.n == 1:
        pref = math.exp(
            math.lgamma(2.0 * (d + 1))
            - 0.5 * (d - 1) * _LN_PI
            - (2 * d + 1) * _LN_2
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
            - (3 * d + 2) * _LN_2
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
    return _times_ct_power(_supported(rho2 >= 1.0, pref * bracket), ct, d)


@_MASKED
def radial_density_nu1(p: FlightParams, r):
    """Radius density of the full flight at nu = 1, any n >= 1: (R / c t)^2
    is a mixture of Beta(j + d/2, b_j) laws (:meth:`_Nu1Table._mixture`).
    Raises ValueError where a value passes the double range."""
    _require_nu1(p)
    return _radial_density(_nu1_table(p.d, p.n).radius, r, p.c * p.t)


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

    # the retained weights, computed on the first law's call
    _weights = cached_property(lambda self: _retained_weights(self))

    def __post_init__(self):
        if isinstance(self.lam, (bool, np.bool_)) or not 0.0 < self.lam < math.inf:
            raise ValueError(f"MixtureParams requires a finite lam > 0, got {self.lam!r}")
        integral = isinstance(self.n_max, Integral) and not isinstance(self.n_max, bool)
        if not (integral and self.n_max >= 1):
            raise ValueError(f"MixtureParams requires an integer n_max >= 1, got {self.n_max!r}")


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
    if n.dtype == bool or not np.all((n < np.inf) & (n >= 0) & (n == np.floor(n))):
        raise ValueError("fractional_poisson_pmf requires integral n >= 0")
    return np.exp(_log_series_terms(mp, n, uncorrected) - _log_series(mp, 0))[()]


def _mixture_weights(mp: MixtureParams, n):
    # the pmf at n >= 1 renormalized over n >= 1: the series terms over the
    # series from its k = 1 term, with no 1 - pmf(0) cancellation
    return np.exp(_log_series_terms(mp, np.asarray(n)) - _log_series(mp, 1))


def _retained_weights(mp: MixtureParams) -> np.ndarray:
    """The mixture weights of n = 1 .. n_max, read-only; raises ValueError
    outside the projected laws' domain and when the weights keep less than
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
    weights.flags.writeable = False
    return weights


@_MASKED
def unconditional_density_projection(mp: MixtureParams, x):
    """Projected density with the number of changes mixed over n >= 1.

    The conditional laws need n >= 1, so the weights are renormalized over
    n >= 1; the sum is truncated at n_max (see :func:`mixture_tail_bound`)
    and raises ValueError when the weights it keeps fall short of 1 by
    more than ``MIXTURE_MASS_TOL``.
    """
    weights = mp._weights
    p = mp.base
    f, _, gaps = _scaled_gaps(x, p.m, p.c * p.t)
    rest = gaps[..., -1] / (f * f)
    densities = _projection_densities(p, np.arange(1, mp.n_max + 1), rest, p.m, p.c * p.t)
    terms = weights.reshape((-1,) + (1,) * rest.ndim) * densities
    return _in_order_sum(terms)[()]


def mixture_tail_bound(mp: MixtureParams) -> float:
    """Upper bound on the density mass dropped by truncating at n_max.

    Bounds the tail sum_{n > n_max} b_n, b_n = w_n sup_x p_n, by twice the
    geometric series b1 / (1 - r) from the first omitted term b1 and the
    ratio r = b2 / b1 of the first two.  log b_n is concave in n (it is
    linear in n minus lgamma(n + 1) and lgamma of a linear function of n,
    both convex), so the ratios of successive terms never increase and
    the tail is at most b1 / (1 - r) for every r < 1.  Raises ValueError
    at r >= 1 and, like :func:`unconditional_density_projection`, when
    the kept weights fall short of 1 by more than ``MIXTURE_MASS_TOL``.
    """
    mp._weights  # raises where the kept weights fall short
    ns = np.array([mp.n_max + 1, mp.n_max + 2])
    # for n >= 2 the exponent q = K - (m+1)/2 of c^2 t^2 - r^2 is >= 0 in
    # the whole domain, so each density peaks at the origin: w_n sup_x p_n
    p = mp.base
    b1, b2 = _mixture_weights(mp, ns) * _projection_densities(p, ns, 1.0, p.m, p.c * p.t)
    if b1 == 0.0:
        return 0.0
    r = b2 / b1
    if r >= 1.0:
        raise ValueError(
            f"the mixture terms still grow past n_max = {mp.n_max} (ratio {r:.3g}); raise n_max"
        )
    return float(2.0 * b1 / (1.0 - r))
