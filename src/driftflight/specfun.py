"""Self-contained special-function kernel.

Everything here is pure Python + ``math``: the gamma function (positive
arguments only), Bessel functions of the first kind with real order
mu >= -1/2, a Wright-type Mittag-Leffler series and its log (note: with
an extra k! in the denominator, see :func:`mittag_leffler_paper`), odd double
factorials, and the exact integer coefficients that expand the odd
product polynomial prod_i (2m + 2i - 1) in the falling-factorial basis.

Bessel evaluation strategy
--------------------------
``bessel_j(mu, x)`` uses the ascending power series where its terms are
well behaved (x <= 12, or x^2 <= 3.6 (mu+1), where the terms decrease
from the start) and Miller's downward recurrence with Neumann-series
normalization everywhere else.  The switch rule keeps the series'
worst-case cancellation below ~1e4, so double precision retains an
absolute error well under 1e-12 there; the downward recurrence is
stable wherever it is selected.  Accuracy is tested to 1e-10 absolute
for x <= 60, which is the largest argument the validation integrals
produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

_SERIES_CUTOFF = 12.0


def _series_ok(mu: float, x: float) -> bool:
    # series terms scale by x^2/(4 k (k+mu)); the second condition makes
    # them decrease from k = 1 on, so there is no cancellation at all
    return x <= _SERIES_CUTOFF or x * x <= 3.6 * (mu + 1.0)


def gamma(x: float) -> float:
    """Gamma function restricted to strictly positive real arguments."""
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def _ascending_series(mu: float, x: float, log_t0: float) -> float:
    # t0 sum_k (-1)^k (x/2)^(2k) / (k! (mu+1)_k) with t0 = exp(log_t0), the
    # series shared by J_mu(x) and J_mu(x) / x^mu; safe for x <= max(12, mu)
    if log_t0 < -745.0:  # result underflows double precision
        return 0.0
    term = math.exp(log_t0)
    total = term
    q = 0.25 * x * x
    for k in range(1, 600):
        term *= -q / (k * (k + mu))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


def _bessel_series(mu: float, x: float) -> float:
    # sum_k (-1)^k / (k! Gamma(k+mu+1)) (x/2)^(2k+mu)
    return _ascending_series(mu, x, mu * math.log(0.5 * x) - math.lgamma(mu + 1.0))


def _neumann_coeffs(mu0: float, count: int) -> list[float]:
    # c_j = (mu0 + 2j) Gamma(mu0 + j) / j! for the normalization
    # sum_j c_j J_{mu0+2j}(x) = (x/2)^mu0; classical 1 = J_0 + 2 sum J_{2k}
    # is the mu0 = 0 limit.
    if mu0 == 0.0:
        return [1.0] + [2.0] * (count - 1)
    cs = [math.gamma(mu0 + 1.0)]
    for j in range(1, count):
        cs.append(cs[-1] * (mu0 + 2 * j) / (mu0 + 2 * j - 2) * (mu0 + j - 1) / j)
    return cs


def _bessel_miller(mu: float, x: float) -> float:
    # Downward recurrence J_{nu-1} = (2 nu / x) J_nu - J_{nu+1} from a start
    # order well above the turning point, normalized by the Neumann series.
    mu0 = mu - math.floor(mu)
    n_target = int(math.floor(mu))  # -1 is possible for mu in [-1/2, 0)
    start = int(x + abs(mu) + 15.0 * x ** (1.0 / 3.0) + 40.0)
    cs = _neumann_coeffs(mu0, start // 2 + 1)

    fp = 0.0
    f = 1e-305
    s = 0.0
    target = math.nan
    for k in range(start, -1, -1):
        if k % 2 == 0:
            s += cs[k // 2] * f
        if k == n_target:
            target = f
        fp, f = f, (2.0 * (mu0 + k) / x) * f - fp
        if abs(f) > 1e280:
            f *= 1e-280
            fp *= 1e-280
            s *= 1e-280
            target *= 1e-280
    if n_target == -1:
        target = f  # one extra step below mu0 covers mu in [-1/2, 0)
    rhs = 1.0 if mu0 == 0.0 else math.exp(mu0 * math.log(0.5 * x))
    return target * rhs / s


def bessel_j(mu: float, x: float) -> float:
    """Bessel function of the first kind, real order mu >= -1/2, x >= 0."""
    if mu < -0.5:
        raise ValueError(f"bessel_j requires mu >= -1/2, got {mu}")
    if x < 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    if x == 0.0:
        if mu == 0.0:
            return 1.0
        return 0.0 if mu > 0.0 else math.inf
    if _series_ok(mu, x):
        return _bessel_series(mu, x)
    return _bessel_miller(mu, x)


def bessel_j_ratio(mu: float, x: float, log_scale: float = 0.0) -> float:
    """exp(log_scale) J_mu(x) / x^mu, finite at x = 0 where J_mu(x) / x^mu
    equals 1 / (2^mu Gamma(mu+1)).

    This is the combination every characteristic-function formula consumes;
    evaluating it directly avoids the 0/0 at the origin.  A caller that
    multiplies the ratio by a large factor passes its logarithm as
    ``log_scale``, so that neither factor overflows or underflows alone.
    """
    if mu < -0.5:
        raise ValueError(f"bessel_j_ratio requires mu >= -1/2, got {mu}")
    if x < 0.0:
        raise ValueError(f"bessel_j_ratio requires x >= 0, got {x}")
    if _series_ok(mu, x):
        return _ascending_series(mu, x, log_scale - mu * math.log(2.0) - math.lgamma(mu + 1.0))
    j = _bessel_miller(mu, x)
    if j == 0.0:
        return 0.0
    return math.copysign(math.exp(math.log(abs(j)) + log_scale - mu * math.log(x)), j)


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
