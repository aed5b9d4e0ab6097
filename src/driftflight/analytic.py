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
are all >= 0, so both densities are sums of positive terms and lose no
digits to cancellation; the radial law is the density averaged over the
sphere of radius r.  The paper's fully explicit n = 1, 2 density stays as
an independent check of that table.

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
from functools import cached_property, lru_cache, reduce
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
    """Vectors y and integers k with x = 2^k y.  k is 0 except where x @ x
    is not a normal double while x has finite, nonzero entries: where it
    overflows or underflows.  There 2^k is the power of 2 at or below
    max |x_i|, an exact scaling, after which y @ y is near 1.  Every other
    vector keeps its bits."""
    rho2 = _sq_norm(x)
    odd = ~((rho2 >= _TINY) & (rho2 < math.inf))  # NaN as well
    if not odd.any():
        return x, 0
    top = np.abs(x).max(axis=-1)
    odd &= np.isfinite(x).all(axis=-1) & (top > 0.0)
    k = np.where(odd, np.frexp(top)[1] - 1, 0)
    return np.ldexp(x, -k[..., None]), k


def _frequencies(alpha: np.ndarray, ct: float):
    """Frequency vectors y (alpha rescaled by :func:`_rescaled`), their
    squared norms and the norms w = c t |alpha|.  w is formed as
    (g |y|) 2^(e + k) with c t = g 2^e, one rounding and an exact power of
    2, so it is inf only past the double range and never loses bits to an
    underflowing |alpha|^2; it is NaN where alpha is not finite (where,
    rescaled or not, |y|^2 is not finite), as a cf is there."""
    y, k = _rescaled(alpha)
    rho2 = _sq_norm(y)
    g, e = math.frexp(ct)
    with np.errstate(over="ignore"):
        w = np.ldexp(g * np.sqrt(rho2), e + k)
    return y, rho2, np.where(np.isfinite(rho2), w, np.nan)


def _unit(v, ct: float) -> np.ndarray:
    """Points or radii v / (c t), where every law is at unit scale and
    supported on the unit ball; inf where the quotient overflows, which
    lies outside it."""
    with np.errstate(over="ignore"):
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


def _in_support(r, ct: float):
    """Unit-scale radii y = r / (c t) with those outside the open support
    (0, 1) set to 0, where every law is finite, and the mask of those
    radii.  A radius r > 0 whose y underflows to 0 stays inside.  The
    others keep their bits, and NaN passes through."""
    r = np.asarray(r, dtype=float)
    y = _unit(r, ct)
    outside = (r <= 0.0) | (y >= 1.0)
    return np.where(outside, 0.0, y), outside


def _checked_sum(terms, sizes, log_pref: float):
    """Sum the terms (T, ...) of an alternating series over the first axis.

    Each term is exp of a sum of logs of size ``sizes`` (T, ...) plus the
    common ``log_pref``, so, summed, it carries a relative rounding error
    of about eps (size + T); the common part scales the total and is not
    amplified by cancellation.  Raises ValueError where the absolute error
    bound exceeds ``_SUM_TOL``.
    """
    # term after term: numpy sums one point's 1-D terms pairwise but a
    # batch row by row, which would give one point other bits
    total = reduce(np.add, terms)
    with np.errstate(invalid="ignore"):
        # a term that is 0 adds no error, also where its size is inf
        spread = np.where(terms == 0.0, 0.0, np.abs(terms) * (sizes + len(terms)))
        err = _EPS * (spread.sum(axis=0) + np.abs(total) * abs(log_pref))
        if np.any(err > _SUM_TOL):
            raise ValueError(
                f"cf_nu1: cancellation in the alternating sum may lose up to "
                f"{np.nanmax(err):.1e} absolute (tolerance {_SUM_TOL:g})"
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
    w = _frequencies(alpha, p.c * p.t)[2]
    K = _half_order(p, p.n)
    mu = K - 0.5
    vals = bessel_j_ratio(mu, w, mu * _LN_2 + math.lgamma(K + 0.5))
    return np.where(w == 0.0, 1.0, vals)[()]


def density_projection(p: FlightParams, x):
    """Density of the m-dimensional projection at the points x.

    Zero outside the open ball of radius c t.  Raises ValueError where a
    value passes the double range (c t near the bottom of it).
    """
    _require_beta_law(p)
    y = np.sqrt(_sq_norm(_unit(_vectors(x, p.m), p.c * p.t)))
    return _projection_densities(p, p.n, y, p.m)[0]


def _projection_densities(p: FlightParams, ns, y, dim: int, log_scale=0.0) -> np.ndarray:
    """Densities (N, ...) at the unit-scale radii y = r / c t (...) for each
    number of changes in ns (N,) in place of p.n, times exp(log_scale),
    taken to c t by (c t)^(-dim): the m-dimensional density (dim = m) or,
    with the sphere in log_scale, the radial one (dim = 1).  One array, in
    which each n keeps the bits it has alone."""
    m = p.m
    K = _half_order(p, np.atleast_1d(ns))
    log_norm = [
        math.lgamma(k + 0.5) - math.lgamma(k - 0.5 * m + 0.5) - 0.5 * m * _LN_PI
        for k in K.tolist()
    ]
    per_n = (-1,) + (1,) * np.ndim(y)
    q = K.reshape(per_n) - 0.5 * (m + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.exp(np.reshape(log_norm, per_n) + log_scale + q * np.log(1.0 - y * y))
    return _times_ct_power(np.where(y >= 1.0, 0.0, vals), p.c * p.t, dim)


def radial_density_projection(p: FlightParams, r):
    """Density of the radius of the projection, supported on (0, c t):
    the density times |S^(m-1)| r^(m-1)."""
    _require_beta_law(p)
    y, outside = _in_support(r, p.c * p.t)
    m = p.m
    with np.errstate(divide="ignore"):
        # log |S^(m-1)| y^(m-1), with |S^(m-1)| = 2 pi^(m/2) / Gamma(m/2);
        # y^0 is 1 also at a y that underflows to 0
        log_y = (m - 1.0) * np.log(y) if m > 1 else 0.0
        log_sphere = _LN_2 + 0.5 * m * _LN_PI - math.lgamma(0.5 * m) + log_y
    return _supported(outside, _projection_densities(p, p.n, y, 1, log_sphere)[0])


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
    alpha, rho2, w = _frequencies(_vectors(alpha, p.d), p.c * p.t)
    per_j = (-1,) + (1,) * np.ndim(w)
    nj, sign, order, log_j, size = (v.reshape(per_j) for v in tab.bessel)
    with np.errstate(divide="ignore", invalid="ignore"):
        # an array, not a numpy scalar: the scalar ** rounds differently
        ratio = np.asarray(alpha[..., -1] ** 2 / np.square(np.sqrt(rho2)))
        # the prefactor and w^(2 nj) ride in the Bessel ratio's log scale
        log_w_part = np.where(nj > 0, nj * (2.0 * np.log(w)), 0.0)
    ratios = bessel_j_ratio(order, w, tab.cf_pref + log_j + log_w_part)
    # ratio^nj with a Python int exponent, as numpy rounds it for one term
    powers = np.array([ratio**v for v in range(p.n + 1, -1, -1)])
    terms = sign * (powers * ratios)
    sizes = size + np.abs(log_w_part)
    total = _checked_sum(terms, sizes, tab.cf_pref)
    return np.where(rho2 == 0.0, 1.0, np.clip(total, -1.0, 1.0))[()]


class _Nu1Table:
    """The constants of the nu = 1 sums at one (d, n), built once per
    (d, n) by :func:`_nu1_table`, each part on its first use, as read-only
    arrays.

    ``bessel`` holds, per Bessel term j = 0..n+1 of the cf: the exponent
    nj = n+1-j of the direction ratio, the sign (-1)^nj, the order
    (n+1)(d+3)/2 - j - 1/2, the log of the term's constant
    C(n+1, j) ((d+1)/2)^nj / Gamma((n+1)(d+3)/2 - j), and that log's size
    plus the Bessel ratio's own lgamma(order + 1) + order log 2.
    ``density`` and ``radial`` hold, per positive term j = 0..N of each
    density (:func:`_positive_sum`), the log of its constant B_j.
    ``cf_pref`` and ``density_pref`` are the logs of each sum's common
    factor, the density's at c t = 1.
    """

    def __init__(self, d: int, n: int):
        self.d, self.n = d, n
        M = (n + 1) * (d + 1)
        self.cf_pref = 0.5 * _LN_PI + math.lgamma(M) - 0.5 * (M - 1) * _LN_2
        # with the 1 / (2^(n+1) Gamma((n+1)(d+3)/2) Gamma(E + 1)) of every c_k
        lg_x = math.lgamma(0.5 * (n + 1) * (d + 3)) + math.lgamma(0.5 * n * (d + 1) + 1.0)
        self.density_pref = math.lgamma(M) - lg_x - 0.5 * (d - 1) * _LN_PI - (M + n) * _LN_2

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
            rows.append((nj, (-1.0) ** nj, order, sum(pieces), sum(map(abs, pieces)) + own))
        return tuple(_read_only(column) for column in zip(*rows))

    @cached_property
    def density(self) -> np.ndarray:
        return self._log_coefficients(radial=False)

    @cached_property
    def radial(self) -> np.ndarray:
        return self._log_coefficients(radial=True)

    def _log_coefficients(self, radial: bool) -> np.ndarray:
        """The logs of the B_j (:func:`_elevated`) of the density's exact
        c_k = R_k E (E-1) ... (E-k+1), E = n(d+1)/2 (:func:`_nu1_constants`),
        or of the radial law's c_k E[u_d^(2k)] over the unit sphere,
        prod_{i<k} (2i+1)/(2i+d), with |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2)."""
        d, n = self.d, self.n
        E = Fraction(n * (d + 1), 2)
        coeffs, scale = [], Fraction(1)
        for k, r in enumerate(_nu1_constants(d, n)):
            coeffs.append(r * scale)
            scale *= (E - k) * (Fraction(2 * k + 1, 2 * k + d) if radial else 1)
        log_sphere = _LN_2 + 0.5 * d * _LN_PI - math.lgamma(0.5 * d) if radial else 0.0
        # B_j may pass the double range, and may be 0
        return _read_only([
            log_sphere + math.log(b.numerator) - math.log(b.denominator) if b else -math.inf
            for b in _elevated(coeffs)
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


@lru_cache(maxsize=_NU1_TABLES)
def _nu1_table(d: int, n: int) -> _Nu1Table:
    """The table at (d, n), kept for the last ``_NU1_TABLES`` (d, n) used."""
    return _Nu1Table(d, n)


def _positive_sum(tab: _Nu1Table, log_c: np.ndarray, yy, Q) -> np.ndarray:
    """The nu = 1 density's sum at unit scale at x_d^2 = yy and
    Q = 1 - |x|^2 (...): sum_k c_k yy^k Q^(E-k) (:meth:`_Nu1Table._log_coefficients`)
    with W = yy + Q is Q^(E-n-1) W^(n+1-N) sum_j B_j yy^j Q^(N-j), summed
    here as N + 1 positive terms with the constants B_j = exp(log_c)."""
    n = tab.n
    N = len(log_c) - 1
    per_term = (-1,) + (1,) * np.ndim(Q)
    j = np.arange(N + 1).reshape(per_term)
    e = 0.5 * n * (tab.d + 1) - n - 1 + N - j
    with np.errstate(divide="ignore", invalid="ignore"):
        point = np.where(j > 0, j * np.log(yy), 0.0) + e * np.log(Q) - (N - n - 1) * np.log(yy + Q)
        # term after term, as _checked_sum sums, so one point keeps its bits in a batch
        return reduce(np.add, np.exp(tab.density_pref + log_c.reshape(per_term) + point))


def density_nu1(p: FlightParams, x):
    """Density of the full flight at nu = 1, any n >= 1.

    A sum of N + 1 positive terms (:func:`_positive_sum`); even in x_d and
    invariant under rotations fixing the x_d axis.  Raises ValueError
    where a value passes the double range.
    """
    _require_nu1(p)
    ct = p.c * p.t
    tab = _nu1_table(p.d, p.n)
    rho2 = _sq_norm(y := _unit(_vectors(x, p.d), ct))
    with np.errstate(over="ignore"):  # an overflow lies outside the support
        yy = y[..., -1] ** 2
    total = _positive_sum(tab, tab.density, yy, 1.0 - rho2)
    return _times_ct_power(_supported(rho2 >= 1.0, total), ct, p.d)


def density_nu1_closed(p: FlightParams, x):
    """Fully explicit nu = 1 density, available for n = 1 and n = 2 only.

    Raises ValueError where a value passes the double range."""
    _require_closed(p)
    ct = p.c * p.t
    rho2 = _sq_norm(y := _unit(_vectors(x, p.d), ct))
    d = p.d
    # arrays, not numpy scalars: the scalar ** rounds differently
    with np.errstate(over="ignore"):  # an overflow lies outside the support
        xx, Q = np.asarray(y[..., -1] ** 2), np.asarray(1.0 - rho2)
    with np.errstate(divide="ignore", invalid="ignore"):
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


def radial_density_nu1(p: FlightParams, r):
    """Radius density of the full flight at nu = 1, any n >= 1.

    The density integrated over the sphere of radius r: its sum with
    x_d^(2k) averaged to r^(2k) |S^(d-1)| E[u_d^(2k)], times r^(d-1), again
    N + 1 positive terms.  Raises ValueError where a value passes the
    double range.
    """
    _require_nu1(p)
    ct = p.c * p.t
    tab = _nu1_table(p.d, p.n)
    y, outside = _in_support(r, ct)
    yy = y * y
    total = _positive_sum(tab, tab.radial, yy, 1.0 - yy)
    return _times_ct_power(_supported(outside, y ** (p.d - 1) * total), ct, 1)


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
    p = mp.base
    y = np.sqrt(_sq_norm(_unit(_vectors(x, p.m), p.c * p.t)))
    ns = np.arange(1, mp.n_max + 1)
    terms = weights.reshape((-1,) + (1,) * y.ndim) * _projection_densities(p, ns, y, p.m)
    # term after term, as _checked_sum sums, so one point keeps its bits in a batch
    return reduce(np.add, terms)[()]


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
    _retained_weights(mp)
    ns = np.array([mp.n_max + 1, mp.n_max + 2])
    # for n >= 2 the exponent q = K - (m+1)/2 of c^2 t^2 - r^2 is >= 0 in
    # the whole domain, so each density peaks at the origin: w_n sup_x p_n
    b1, b2 = _mixture_weights(mp, ns) * _projection_densities(mp.base, ns, 0.0, mp.base.m)
    if b1 == 0.0:
        return 0.0
    r = b2 / b1
    if r >= 1.0:
        raise ValueError(
            f"the mixture terms still grow past n_max = {mp.n_max} (ratio {r:.3g}); raise n_max"
        )
    return float(2.0 * b1 / (1.0 - r))
