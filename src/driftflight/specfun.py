"""Special functions for the closed-form laws.

The gamma function (positive arguments only), Bessel functions of the
first kind with real order mu >= -1/2, a Wright-type Mittag-Leffler
series and its log (note: with an extra k! in the denominator, see
:func:`mittag_leffler_paper`), odd double factorials, and the exact
integer coefficients that expand the odd product polynomial
prod_i (2m + 2i - 1) in the falling-factorial basis.

Bessel evaluation
-----------------
J comes from ``scipy.special.jv`` below x = 2^50; from there on, where
``jv`` loses its digits (it has none left past x = 1e16), from the first
two Hankel terms sqrt(2 / (pi x)) (cos chi - (4 mu^2 - 1) sin chi / (8 x)),
chi = x - mu pi / 2 - pi / 4, with x reduced exactly by libm's cos and
sin; that raises ValueError where the dropped x^-2 term could pass 1e-12
of the envelope sqrt(2 / (pi x)) (orders above about 56000).
:func:`bessel_j` is that J on an array of x with the domain checks and
the values at x = 0 and x = inf.
:func:`bessel_j_ratio`, exp(log_scale) J_mu(x) / x^mu, takes arrays too:
it is formed from log|J| wherever J is a normal double, and from
the log-scaled ascending series where J underflows (large order and
small x, e.g. order 236 at x = 0.5), where the series terms shrink from
the first on.  Against 40-digit mpmath, ``bessel_j`` is tested to 1e-13
absolute for mu <= 60, x <= 60, and the ratio, scaled to 1 at the
origin, to 1e-12 for mu <= 300, x <= 100; past x = 2^50, against
60-digit mpmath, ``bessel_j`` is tested to 1e-14 of the envelope at x up
to 1e300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

__all__ = [
    "CoeffTable",
    "bessel_j",
    "bessel_j_ratio",
    "double_factorial_odd",
    "falling_factorial_coeffs",
    "gamma",
    "log_mittag_leffler_paper",
    "mittag_leffler_paper",
]


def gamma(x: float) -> float:
    """Gamma function restricted to strictly positive real arguments."""
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_SERIES_TOL = 1e-12
# at x >= 2^50 J is sqrt(2 / (pi x)) (cos chi - a_1 sin chi / x), to
# _HANKEL_TOL of that envelope
_HANKEL_X = 2.0**50
_HANKEL_TOL = 1e-12


def _check_order(name: str, mu: float) -> None:
    # the chained comparison is False for NaN as well as for +-inf
    if not -0.5 <= mu < math.inf:
        raise ValueError(f"{name} requires a finite order mu >= -1/2, got mu = {mu}")


def _jv(name: str, mu: float, x: np.ndarray) -> np.ndarray:
    # jv, and at finite x >= 2^50, where jv loses its digits (none are left
    # past x = 1e16), the first two Hankel terms
    j = jv(mu, x)
    far = (x >= _HANKEL_X) & (x < math.inf)  # False at a NaN x
    if not far.any():
        return j
    xf = np.where(far, x, _HANKEL_X)
    # the dropped x^-2 term of P, relative to the envelope sqrt(2 / (pi x))
    a1 = (4.0 * mu * mu - 1.0) / 8.0
    a2 = a1 * (4.0 * mu * mu - 9.0) / 16.0
    x_min = float(np.min(x[far]))
    drop = abs(a2) / x_min / x_min
    if drop > _HANKEL_TOL:
        raise ValueError(
            f"{name}: the Hankel expansion at mu = {mu}, x = {x_min:g} may lose "
            f"{drop:.1e} of its envelope (tolerance {_HANKEL_TOL:g})"
        )
    # chi = x - phi, phi = mu pi / 2 + pi / 4 reduced mod 2 pi (fmod is
    # exact); libm reduces x itself exactly
    phi = (0.5 * math.fmod(mu, 4.0) + 0.25) * math.pi
    cos_x, sin_x = np.cos(xf), np.sin(xf)
    cos_chi = cos_x * math.cos(phi) + sin_x * math.sin(phi)
    sin_chi = sin_x * math.cos(phi) - cos_x * math.sin(phi)
    hankel = math.sqrt(2.0 / math.pi) / np.sqrt(xf) * (cos_chi - a1 / xf * sin_chi)
    return np.where(far, hankel, j)


def bessel_j(mu: float, x):
    """Bessel function of the first kind, real order mu >= -1/2, on an
    array of x >= 0 (one x gives one number).

    ``scipy.special.jv``, and two Hankel terms at x >= 2^50 (see the
    module docstring); at x = 0 the limit (1 at mu = 0, 0 above, inf
    below), 0.0 (the limit) at x = inf and NaN at a NaN x.
    """
    _check_order("bessel_j", mu)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"bessel_j requires x >= 0, got {x[x < 0.0].flat[0]}")
    origin = 1.0 if mu == 0.0 else (0.0 if mu > 0.0 else math.inf)
    j = _jv("bessel_j", mu, x)
    return np.where(x == 0.0, origin, np.where(x == math.inf, 0.0, j))[()]


def _ratio_series(mu: float, x: np.ndarray, log_t0: np.ndarray) -> np.ndarray:
    # t0 sum_k (-1)^k (x/2)^(2k) / (k! (mu+1)_k) with t0 = exp(log_t0), summed
    # relative to t0 over all points at once; the rounding error is about
    # eps sum_k |t_k| and the truncation error the last term
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
            f"bessel_j_ratio: the series at mu = {mu}, x = {x[at]} may lose "
            f"{err[at]:.1e} of its value at the origin (tolerance {_SERIES_TOL:g})"
        )
    with np.errstate(under="ignore"):
        return total * np.exp(log_t0)


def bessel_j_ratio(mu: float, x, log_scale=0.0):
    """exp(log_scale) J_mu(x) / x^mu on an array of x >= 0, finite at x = 0
    where J_mu(x) / x^mu equals 1 / (2^mu Gamma(mu+1)).

    This is the combination every characteristic-function formula consumes;
    evaluating it directly avoids the 0/0 at the origin.  A caller that
    multiplies the ratio by a large factor passes its logarithm as
    ``log_scale`` (broadcast with x), so that neither factor overflows or
    underflows alone.  The order mu is one number.

    Where J (as :func:`bessel_j`) is a normal double the value is formed
    from log|J|.  Where J underflows (large order and small x, and x = 0)
    it is the ascending series, whose terms there shrink from the first
    on; the series raises ValueError where its error could pass 1e-12 of
    the value at the origin (orders above about 600).  NaN at a NaN x and 0.0 at x = inf.
    """
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
        log_t0 = np.asarray(log_scale) - mu * math.log(2.0) - math.lgamma(mu + 1.0)
        with np.errstate(under="ignore"):
            # at x = 0 the series is its first term, exp(log_t0), exactly;
            # at x >= mu, J is not small, and is 0 only at x = inf, where
            # the ratio is 0 as well
            edge = np.where(x == 0.0, np.exp(log_t0), np.where(x >= mu, 0.0, np.nan))
        out = np.where(normal, out, edge)
        series = ~normal & (x > 0.0) & (x < mu)  # underflow; NaN x fails the tests
        if series.any():
            x, log_t0, series = np.broadcast_arrays(x, log_t0, series)
            out[series] = _ratio_series(mu, x[series], log_t0[series])
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
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("mittag_leffler_paper requires alpha > 0 and beta > 0")
    if x < 0.0:
        raise ValueError("mittag_leffler_paper requires x >= 0")
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
    out = 1
    for i in range(1, n + 1):
        out *= 2 * i - 1
    return out


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients a_{0,n} .. a_{n,n} expanding prod_i (2m + 2i - 1) in
    the falling-factorial basis m (m-1) ... (m-j+1)."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("CoeffTable.n must be >= 0")
        if len(self.coeffs) != self.n + 1:
            raise ValueError("CoeffTable needs exactly n + 1 coefficients")
        if any(c <= 0 for c in self.coeffs):
            raise ValueError("CoeffTable coefficients must be positive")


def _odd_product(n: int, m: int) -> int:
    # (2m + 2n - 1)(2m + 2n - 3) ... (2m + 1), exact integer
    out = 1
    for i in range(1, n + 1):
        out *= 2 * m + 2 * i - 1
    return out


def falling_factorial_coeffs(n: int) -> CoeffTable:
    """Solve exactly for the integers a_{j,n} with
    prod_{i=1..n} (2m + 2i - 1) = sum_j a_{j,n} m!/(m-j)! for all m >= 0.

    The system is triangular when the polynomial is evaluated at
    m = 0..n, so forward substitution over Python integers is exact.
    """
    if n < 0:
        raise ValueError(f"falling_factorial_coeffs requires n >= 0, got {n}")
    coeffs: list[int] = []
    for j in range(n + 1):
        acc = _odd_product(n, j) - sum(
            coeffs[l] * math.perm(j, l) for l in range(j)
        )
        q, r = divmod(acc, math.factorial(j))
        if r != 0:
            raise ArithmeticError(f"non-integer coefficient at n={n}, j={j}")
        coeffs.append(q)
    return CoeffTable(n, tuple(coeffs))
