"""Special functions for the closed-form laws.

Bessel functions of the first kind with real order mu >= -1/2, a
Wright-type Mittag-Leffler series and its log (note: with an extra k! in
the denominator, see :func:`mittag_leffler_paper`), odd double
factorials, and the exact integer coefficients, in closed form, that
expand the odd product polynomial prod_i (2m + 2i - 1) in the
falling-factorial basis.

Bessel evaluation
-----------------
J comes from ``scipy.special.jv`` below x = 2^50; from there on, where
``jv`` loses its digits (it has none left past x = 1e16), from the first
two Hankel terms sqrt(2 / (pi x)) (cos chi - (4 mu^2 - 1) sin chi / (8 x)),
chi = x - mu pi / 2 - pi / 4, with x reduced exactly by libm's cos and
sin; that raises ValueError where the dropped x^-2 term could pass 1e-12
of the envelope sqrt(2 / (pi x)) (orders above about 56000).
:func:`bessel_j` is that J on an array of x, at one order or an array
of orders, with the domain checks and the values at x = 0 and x = inf.
:func:`bessel_j_ratio`, exp(log_scale) J_mu(x) / x^mu, takes the same
orders and arrays of x: it is formed from log|J| wherever J is a normal
double, and from the log-scaled ascending series, each point at its own
order, where J underflows (large order and small x, e.g. order 236 at
x = 0.5), where the series terms shrink from the first on.  With an
array of orders every element is the one-order call's double.  Against
40-digit mpmath, ``bessel_j`` is tested to 1e-13
absolute for mu <= 60, x <= 60, and the ratio, scaled to 1 at the
origin, to 1e-12 for mu <= 300, x <= 100; past x = 2^50, against
60-digit mpmath, ``bessel_j`` is tested to 1e-14 of the envelope at x up
to 1e300.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import jv

__all__ = [
    "bessel_j",
    "bessel_j_ratio",
    "double_factorial_odd",
    "falling_factorial_coeffs",
    "log_mittag_leffler_paper",
    "mittag_leffler_paper",
]


_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_lgamma = np.vectorize(math.lgamma, otypes=[float])
_SERIES_TOL = 1e-12
# at x >= 2^50 J is sqrt(2 / (pi x)) (cos chi - a_1 sin chi / x), to
# _HANKEL_TOL of that envelope
_HANKEL_X = 2.0**50
_HANKEL_TOL = 1e-12


def _check_order(name: str, mu) -> None:
    # mu is an array of one order or of several; the comparisons are
    # False for NaN as well as for +-inf
    ok = (-0.5 <= mu) & (mu < math.inf)
    if not np.all(ok):
        bad = np.extract(~ok, mu)[0]
        raise ValueError(f"{name} requires a finite order mu >= -1/2, got mu = {bad}")


def _jv(name: str, mu, x: np.ndarray) -> np.ndarray:
    # jv, and at finite x >= 2^50, where jv loses its digits (none are left
    # past x = 1e16), the first two Hankel terms; mu is one order or an
    # array of them that broadcasts with x
    j = jv(mu, x)
    far = (x >= _HANKEL_X) & (x < math.inf)  # False at a NaN x
    if not far.any():
        return j
    mu, xf = np.broadcast_arrays(np.asarray(mu, dtype=float), np.where(far, x, _HANKEL_X))
    far = np.broadcast_to(far, xf.shape)
    # the dropped x^-2 term of P, relative to the envelope sqrt(2 / (pi x));
    # at one order the largest is at the smallest far x
    a1 = (4.0 * mu * mu - 1.0) / 8.0
    a2 = a1 * (4.0 * mu * mu - 9.0) / 16.0
    drop = np.where(far, np.abs(a2) / xf / xf, 0.0)
    at = np.argmax(drop)
    if drop.flat[at] > _HANKEL_TOL:
        raise ValueError(
            f"{name}: the Hankel expansion at mu = {mu.flat[at]}, x = {xf.flat[at]:g} may lose "
            f"{drop.flat[at]:.1e} of its envelope (tolerance {_HANKEL_TOL:g})"
        )
    # chi = x - phi, phi = mu pi / 2 + pi / 4 reduced mod 2 pi (fmod is
    # exact); libm reduces x itself exactly, and gives cos and sin of phi
    # as math.cos and math.sin do
    phi = (0.5 * np.fmod(mu, 4.0) + 0.25) * math.pi
    cos_phi = np.vectorize(math.cos, otypes=[float])(phi)
    sin_phi = np.vectorize(math.sin, otypes=[float])(phi)
    cos_x, sin_x = np.cos(xf), np.sin(xf)
    cos_chi = cos_x * cos_phi + sin_x * sin_phi
    sin_chi = sin_x * cos_phi - cos_x * sin_phi
    hankel = math.sqrt(2.0 / math.pi) / np.sqrt(xf) * (cos_chi - a1 / xf * sin_chi)
    return np.where(far, hankel, j)


def bessel_j(mu, x):
    """Bessel function of the first kind, real order mu >= -1/2, on an
    array of x >= 0 (one x gives one number).  mu is one order, or an
    array of orders that broadcasts with x; each element is the value the
    one-order call gives there, bit for bit, and any invalid order or x
    raises ValueError.

    ``scipy.special.jv``, and two Hankel terms at x >= 2^50 (see the
    module docstring); at x = 0 the limit (1 at mu = 0, 0 above, inf
    below), 0.0 (the limit) at x = inf and NaN at a NaN x.
    """
    mu = np.asarray(mu, dtype=float)
    _check_order("bessel_j", mu)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"bessel_j requires x >= 0, got {x[x < 0.0].flat[0]}")
    origin = np.where(mu == 0.0, 1.0, np.where(mu > 0.0, 0.0, math.inf))
    j = _jv("bessel_j", mu, x)
    return np.where(x == 0.0, origin, np.where(x == math.inf, 0.0, j))[()]


def _ratio_series(mu: np.ndarray, x: np.ndarray, log_t0: np.ndarray) -> np.ndarray:
    # t0 sum_k (-1)^k (x/2)^(2k) / (k! (mu+1)_k) with t0 = exp(log_t0), each
    # point at its own order mu, summed relative to t0 over all points at
    # once; the rounding error is about eps sum_k |t_k| and the truncation
    # error the last term.  A point that has converged adds terms below half
    # an ulp of its sum, which leave it unchanged, while others go on
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = term.copy()
    size = term.copy()
    for k in range(1, 600):
        term *= -q / (k * (k + mu))
        total += term
        size += np.abs(term)
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
    err = _EPS * size + np.abs(term)
    if np.any(err > _SERIES_TOL):
        at = np.argmax(err)
        raise ValueError(
            f"bessel_j_ratio: the series at mu = {mu[at]}, x = {x[at]} may lose "
            f"{err[at]:.1e} of its value at the origin (tolerance {_SERIES_TOL:g})"
        )
    with np.errstate(under="ignore"):
        return total * np.exp(log_t0)


def bessel_j_ratio(mu, x, log_scale=0.0):
    """exp(log_scale) J_mu(x) / x^mu on an array of x >= 0, finite at x = 0
    where J_mu(x) / x^mu equals 1 / (2^mu Gamma(mu+1)).

    This is the combination every characteristic-function formula consumes;
    evaluating it directly avoids the 0/0 at the origin.  A caller that
    multiplies the ratio by a large factor passes its logarithm as
    ``log_scale`` (broadcast with x), so that neither factor overflows or
    underflows alone.  mu is one order, or an array of orders that
    broadcasts with x and ``log_scale``; each element is the value the
    one-order call gives there, bit for bit, and any invalid order or x
    raises ValueError.

    Where J (as :func:`bessel_j`) is a normal double the value is formed
    from log|J|.  Where J underflows (large order and small x, and x = 0)
    it is the ascending series, whose terms there shrink from the first
    on; the series raises ValueError where its error could pass 1e-12 of
    the value at the origin (orders above about 600).  NaN at a NaN x and 0.0 at x = inf.
    """
    mu = np.asarray(mu, dtype=float)
    _check_order("bessel_j_ratio", mu)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"bessel_j_ratio requires x >= 0, got {x[x < 0.0].flat[0]}")
    j = _jv("bessel_j_ratio", mu, x)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        # divide and invalid arise only at x = 0 and where J is 0, NaN or
        # inf; those points are replaced below
        out = np.sign(j) * np.exp(np.log(np.abs(j)) + log_scale - mu * np.log(x))
    normal = (np.abs(j) >= _TINY) & (x > 0.0)
    if not normal.all():
        log_t0 = np.asarray(log_scale) - mu * math.log(2.0) - _lgamma(mu + 1.0)
        with np.errstate(under="ignore"):
            # at x = 0 the series is its first term, exp(log_t0), exactly
            # (taken there alone, so that a large log_scale elsewhere cannot
            # overflow); at x >= mu, J is not small, and is 0 only at
            # x = inf, where the ratio is 0 as well
            origin = np.exp(np.where(x == 0.0, log_t0, -math.inf))
            edge = np.where(x == 0.0, origin, np.where(x >= mu, 0.0, np.nan))
        out = np.where(normal, out, edge)
        series = ~normal & (x > 0.0) & (x < mu)  # underflow; NaN x fails the tests
        if series.any():
            x, mu, log_t0, series = np.broadcast_arrays(x, mu, log_t0, series)
            out[series] = _ratio_series(mu[series], x[series], log_t0[series])
    return out[()]


def log_mittag_leffler_paper(alpha: float, beta: float, x: float, start: int = 0) -> float:
    """log of the :func:`mittag_leffler_paper` series summed from k = start,
    sum_{k >= start} x^k / (k! Gamma(alpha k + beta)), as a log-sum-exp.

    The log terms are concave in k, so the sum is taken over the window
    around the largest term where terms are within e^-50 of it; the
    omitted ones decay at least geometrically and add below 1e-18
    relative.  Finite for every finite x > 0, however large the sum.  The
    terms are formed from lgamma values, so the absolute error of the log
    grows with the size of the log terms: it is below 1e-12 against
    50-digit sums up to x = 1e6 and about 1e-16 for x <= 10.  Returns -inf
    only at x = 0 with start > 0.
    """
    if not (math.inf > alpha > 0.0 and math.inf > beta > 0.0):
        raise ValueError("mittag_leffler_paper requires finite alpha > 0 and beta > 0")
    if not math.inf > x >= 0.0:
        raise ValueError("mittag_leffler_paper requires a finite x >= 0")
    if x == 0.0:
        return -math.lgamma(beta) if start == 0 else -math.inf
    log_x = math.log(x)

    def log_term(k: int) -> float:
        return k * log_x - math.lgamma(k + 1.0) - math.lgamma(alpha * k + beta)

    def rising(k: int) -> bool:
        return log_term(k + 1) > log_term(k)

    # the largest term sits at the first k >= start that is not rising:
    # bracket it by doubling, then bisect
    lo, hi = start, start
    while rising(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if rising(mid) else (lo, mid)
    peak = hi if rising(lo) else lo
    top = log_term(peak)
    logs = [top]
    for step in (-1, 1):
        k = peak + step
        while k >= start and (v := log_term(k)) > top - 50.0:
            logs.append(v)
            k += step
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def mittag_leffler_paper(alpha: float, beta: float, x: float) -> float:
    """Wright-type Mittag-Leffler series sum_k x^k / (k! Gamma(alpha k + beta)).

    Note the extra k! relative to the usual two-parameter Mittag-Leffler
    function; this variant is what the fractional-Poisson weights need.
    The exp of :func:`log_mittag_leffler_paper`, so inf where the sum
    passes the double range (for example x = 1e6 at alpha = 1,
    beta = 1.5); callers that divide by it use the log.
    """
    try:
        return math.exp(log_mittag_leffler_paper(alpha, beta, x))
    except OverflowError:
        return math.inf


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! as an exact integer, with the empty-product convention at n=0."""
    if n < 0:
        raise ValueError(f"double_factorial_odd requires n >= 0, got {n}")
    return math.prod(range(1, 2 * n, 2))


def falling_factorial_coeffs(n: int) -> tuple[int, ...]:
    """The integers a_{j,n}, j = 0..n, with
    prod_{i=1..n} (2m + 2i - 1) = sum_j a_{j,n} m!/(m-j)! for all m >= 0:
    a_{j,n} = C(n, j) 2^j (2n-1)!! / (2j-1)!!.

    The product is 2^n (m + 1/2)(m + 3/2) ... (m + n - 1/2), 2^n times the
    falling factorial of m + n - 1/2 of length n; Vandermonde's identity
    splits that into falling factorials of m and of n - 1/2, and the
    latter, of length n - j, is (2n-1)!! / ((2j-1)!! 2^(n-j)).
    """
    if n < 0:
        raise ValueError(f"falling_factorial_coeffs requires n >= 0, got {n}")
    top = double_factorial_odd(n)
    return tuple(math.comb(n, j) * 2**j * (top // double_factorial_odd(j)) for j in range(n + 1))
