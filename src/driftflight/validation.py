"""Numerical cross-verification of the closed forms.

Two families of checks:

* Bessel-integral identities: each closed form used by the analytic
  module is compared against quadrature of its defining integral.  The
  points checked together (the whole suite, or the one point of
  :func:`check_identity`) are integrated in one call of one array
  kernel, :func:`_integrate`: the 21-point Gauss-Kronrod rule applied to
  every piece of every interval of every point in one call of the
  integrand, bisecting only the pieces of intervals whose error estimate
  is still above tolerance.  Each interval carries its integrand's kind
  and parameters and is integrated on its own, so a point's report is
  the same bit for bit whatever else shares the batch.  The suite's 32
  points take 5 passes.  Finite intervals are split into sub-periods
  when the integrand oscillates; the one semi-infinite identity
  (``gr_6575_1``) is truncated where a rigorous envelope bound on the
  tail drops below tolerance, with a mild averaging acceleration of the
  partial sums.  The Bessel values of all right sides come from one
  array-order call of ``bessel_j``.

* Goodness of fit: flights against the analytic radial CDF (KS distance)
  and the nu = 1 characteristic function (standardized deviations), with
  a deliberately mismatched negative control.  A batch row depends only
  on its cell (the parameters without m), the seed and its index, so the
  Monte Carlo checks read prefixes of one batch per cell.

Everything is deterministic given the master seed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .analytic import cdf_radial_projection, cf_nu1
from .flight import FlightParams, simulate_batch
from .specfun import bessel_j, falling_factorial_coeffs

__all__ = [
    "GofReport",
    "IDENTITY_IDS",
    "IdentityReport",
    "SuiteConfig",
    "check_identities",
    "check_identity",
    "gof_cf",
    "gof_radial",
    "ks_distance",
    "run_suite",
]

IDENTITY_IDS = (
    "int0",
    "int_nu1",
    "int_nu2",
    "int_nu3",
    "int_general",
    "gr_6581_3",
    "gr_6533_2",
    "gr_6575_1",
    "gr_6688_2",
)

# largest Bessel argument the kernel is validated for
_BESSEL_X_CAP = 58.0

# absolute error an identity check passes below; gr_6575_1, the one
# semi-infinite identity, is truncated at its tail bound and gets the looser
_IDENTITY_TOL = 1e-7
_FORMULA3_TOL = 1e-5
# absolute error each quadrature of an identity's lhs is taken to
_QUADRATURE_TOL = 1e-10
# standard errors a gof_cf deviation passes below
_SE_MULTIPLE = 3.0


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    params: dict
    lhs: float
    rhs: float
    abs_err: float


@dataclass(frozen=True)
class GofReport:
    params: dict
    sample_count: int
    ks_distance: float
    threshold: float
    passed: bool


def __getattr__(name):
    # ``validation.quad`` exists only because bench/tracing.py wraps it here
    # (ROADMAP item 1 drops that wrap, and this hook with it); nothing in
    # this module calls it
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

# QUADPACK's qk21 rule on [-1, 1]: the positive Kronrod nodes, largest
# first, then the centre, with their weights; the embedded 10-point Gauss
# rule uses the odd-indexed nodes, with weights _WG
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525452242, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the 21 nodes in ascending order, and the Kronrod and Gauss weights at them
_NODES = np.concatenate([-_XGK[:10], _XGK[::-1]])
_KRONROD = np.concatenate([_WGK[:10], _WGK[::-1]])
_GAUSS = np.zeros(11)
_GAUSS[1::2] = _WG
_GAUSS = np.concatenate([_GAUSS[:10], _GAUSS[::-1]])

_EPS = np.finfo(float).eps
# the budget of _integrate: passes, pieces of one interval in one pass, and
# the narrowest piece as a fraction of its interval
_MAX_PASSES = 100
_MAX_PIECES = 1 << 14
_MIN_WIDTH = 2.0**-1000


def _gk21(f, lo: np.ndarray, hi: np.ndarray, args):
    """Kronrod estimate, QUADPACK's error estimate and the rounding level
    of the integral of f over each piece [lo, hi], in one call of f on all
    21 nodes of all pieces.  Each row of nodes is summed on its own (a
    numpy sum along the row, where a BLAS product would block the rows), so
    a piece's numbers do not depend on the other pieces in the call."""
    half = 0.5 * (hi - lo)
    fx = f(0.5 * (lo + hi)[:, None] + half[:, None] * _NODES, *args)
    if not np.isfinite(fx).all():
        raise ValueError("quadrature: the integrand is not finite at a node")
    kronrod = np.sum(fx * _KRONROD, axis=1)
    gauss = np.sum(fx * _GAUSS, axis=1)
    resabs = np.sum(np.abs(fx) * _KRONROD, axis=1) * half
    resasc = np.sum(np.abs(fx - 0.5 * kronrod[:, None]) * _KRONROD, axis=1) * half
    err = np.abs(kronrod - gauss) * half
    # QUADPACK's scaled estimate resasc min(1, (200 err / resasc)^1.5), and
    # the rounding level of the sum, below which splitting cannot take it
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(1.0, 200.0 * err / resasc)
    err = np.where(resasc > 0.0, resasc * ratio**1.5, err)
    return kronrod * half, err, 50.0 * _EPS * resabs


def _integrate(f, starts, ends, tol: float, *args) -> np.ndarray:
    """Integral of f over each interval [starts[i], ends[i]] to absolute
    error tol.

    f maps points x of shape (pieces, 21), and for each array of ``args``
    (one row per interval) the rows of the pieces' intervals, to the
    integrand at x, elementwise.  Each pass applies the 21-point
    Gauss-Kronrod rule to every live piece of every interval in one call
    of f.  Every decision below is taken per interval, from its own pieces,
    so an interval's value does not depend, to the bit, on the other
    intervals of the call.  An interval whose pieces' error estimates sum
    to tol or less is done.  In the others, each piece whose estimate
    exceeds half its share of tol (by width) and its rounding level is
    split, and the rest are kept.  A split is a bisection, except at an
    endpoint singularity: a piece of width w at one end of its interval
    whose estimate fell by less than 1/8 when it was last halved goes like
    a power of the distance to that end.  With k the halvings that take its
    estimate below tol / 4 at that rate, it is cut at once at
    end + w 2^-j for j = k, k - 2, ... > 0: the pieces that k halvings
    towards that end would make, merged in pairs, which the rule resolves
    as well.

    Raises ValueError where f is not finite at a node, and where an
    interval is not done within _MAX_PASSES passes, _MAX_PIECES pieces of
    it in a pass and pieces of 1024 ulps or _MIN_WIDTH of it: it never
    returns an unconverged value.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if not np.all(ends > starts):
        raise ValueError("quadrature: the interval ends must increase strictly")
    n = starts.size
    lo, hi, owner = starts, ends, np.arange(n)
    width = hi - lo
    allowance = 0.5 * tol / width  # per unit of width
    prev = np.full(n, np.inf)  # each piece's estimate before its last halving
    value = np.zeros(n)
    kept_err = np.zeros(n)
    for _ in range(_MAX_PASSES):
        val, err, floor = _gk21(f, lo, hi, [arg[owner] for arg in args])
        split = err > floor
        err = np.maximum(err, floor)
        over = kept_err + np.bincount(owner, err, n) > tol
        split &= over[owner] & (err > allowance[owner] * (hi - lo))
        keep = ~split
        value += np.bincount(owner[keep], val[keep], n)
        kept_err += np.bincount(owner[keep], err[keep], n)
        if not split.any():
            break
        lo, hi, owner, err = lo[split], hi[split], owner[split], err[split]
        rate = err / prev[split]
        at_hi = hi == ends[owner]
        graded = (rate > 0.125) & (rate < 1.0) & ((lo == starts[owner]) != at_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            halvings = np.ceil(np.log(0.25 * tol / err) / np.log(rate))
        k = np.where(graded, np.clip(halvings, 1, 40), 1).astype(int)
        # piece i becomes m_i = 1 + ceil(k_i / 2) pieces (a bisection is
        # k = 1), cut at the fractions near .. far of the way from its end
        m = 1 + (k + 1) // 2
        piece = np.repeat(np.arange(k.size), m)
        j = np.arange(piece.size) - np.repeat(np.cumsum(m) - m, m)
        k = k[piece]
        far = np.ldexp(1.0, np.minimum(2 * j - k, 0))
        near = np.where(j == 0, 0.0, np.ldexp(1.0, 2 * j - 2 - k))
        end = np.where(graded & at_hi, hi, lo)[piece]
        other = np.where(graded & at_hi, lo, hi)[piece]
        a = end + (other - end) * near
        b = np.where(far == 1.0, other, end + (other - end) * far)
        lo, hi, owner = np.minimum(a, b), np.maximum(a, b), owner[piece]
        # a piece of fewer than 1024 ulps could have nodes on its ends
        narrow = np.maximum(1024.0 * _EPS * np.maximum(-lo, hi), _MIN_WIDTH * width[owner])
        if np.any(hi - lo <= narrow) or np.bincount(owner).max() > _MAX_PIECES:
            raise ValueError("quadrature: the pieces cannot be split further")
        # the innermost cut piece, as if halved k times at the same rate
        prev = err[piece] * np.where(j == 0, rate[piece] ** (k - 1.0), 1.0)
    else:
        raise ValueError(f"quadrature: not within {tol:g} after {_MAX_PASSES} passes")
    if np.any(kept_err > tol):
        raise ValueError(f"quadrature: not within {tol:g}")
    return value


# ----------------------------------------------------------------------
# Bessel-integral identities
# ----------------------------------------------------------------------

# The integrands of the identities' left sides, by kind.  Each maps points
# x and the four parameters of their interval, as columns that broadcast
# against x, to the integrand there.
_INTEGRANDS = (
    # int0 .. int_nu3 and int_general: the real and imaginary parts of the
    # circle integral of exp(i z (alpha cos + beta sin)) sin^(2n)
    lambda x, z, alpha, beta, n: (
        np.cos(z * (alpha * np.cos(x) + beta * np.sin(x))) * np.sin(x) ** (2.0 * n)
    ),
    lambda x, z, alpha, beta, n: (
        np.sin(z * (alpha * np.cos(x) + beta * np.sin(x))) * np.sin(x) ** (2.0 * n)
    ),
    # the int_general companion, odd about pi / 2, and gr_6688_2
    lambda x, nu, a, b, _: (
        np.sin(b * np.cos(x)) * np.sin(x) ** (nu + 1.0) * bessel_j(nu, a * np.sin(x))
    ),
    lambda x, nu, a, b, _: (
        np.sin(x) ** (nu + 1.0) * np.cos(b * np.cos(x)) * bessel_j(nu, a * np.sin(x))
    ),
    # gr_6581_3 and gr_6533_2: g(m, x) g(n, a - x) with g(m, x) = x^m J_m(x)
    # and J_m(x) / x
    lambda x, m, n, a, _: x**m * bessel_j(m, x) * ((a - x) ** n * bessel_j(n, a - x)),
    lambda x, m, n, a, _: bessel_j(m, x) / x * (bessel_j(n, a - x) / (a - x)),
    # gr_6575_1
    lambda x, mu, nu, a, b: x ** (mu - nu) * bessel_j(nu + 1.0, a * x) * bessel_j(mu, b * x),
)
_AZ_RE, _AZ_IM, _COMPANION, _GR_6688_2, _POWER_PAIR, _QUOTIENT_PAIR, _GR_6575_1 = range(7)
_AZIMUTHAL = ("int0", "int_nu1", "int_nu2", "int_nu3")


def _lhs_integrand(x, kind, prm):
    # each kind's integrand on the rows of its pieces
    out = np.empty_like(x)
    for k, integrand in enumerate(_INTEGRANDS):
        rows = kind == k
        if rows.any():
            out[rows] = integrand(x[rows], *prm[rows].T[:, :, None])
    return out


class _Plan(NamedTuple):
    """One identity point inside its validity region: the integrals of
    its left side, each a (kind, parameters, sub-interval ends) triple;
    the Bessel orders its right side needs, all at ``arg``; ``lhs``, which
    makes the left side from each integral's sub-interval values (complex
    where the integral is), and ``rhs``, which makes the right side from
    the Bessel values."""

    identity_id: str
    pid: dict
    parts: tuple
    orders: tuple
    arg: float
    lhs: Callable
    rhs: Callable


def _chunks(end: float, cycles: float) -> np.ndarray:
    """The ends of the sub-periods of [0, end] for an integrand that
    oscillates through ``cycles`` cycles there."""
    return np.linspace(0.0, end, max(1, int(math.ceil(2.0 * cycles))) + 1)


def _sum(values) -> float:
    # the left side that is the sum of its integrals
    return sum(float(np.sum(v)) for v in values)


def _averaged_partials(values) -> float:
    # the partial sums over gr_6575_1's sub-intervals, of which the last 17
    # are averaged pairwise twice, which damps the residual oscillation
    s = np.cumsum(values[0])[-17:]
    for _ in range(2):
        s = 0.5 * (s[1:] + s[:-1])
    return float(s[-1])


def _azimuthal_point(pid: dict, n) -> tuple[float, float, float]:
    """z, alpha and beta of an identity with weight sin^(2n), checked
    against its validity region: an integer n >= 0, z >= 0 with
    z hypot(alpha, beta) within the validated Bessel range, and nonzero
    where n >= 1, as the closed form divides by it."""
    z, alpha, beta = pid["z"], pid["alpha"], pid["beta"]
    if not (isinstance(n, Integral) and n >= 0):
        raise ValueError(f"{n!r} is not an integer n >= 0")
    w = z * math.hypot(alpha, beta)
    if not (z >= 0.0 and w <= _BESSEL_X_CAP):
        raise ValueError("z must be >= 0, with z hypot(alpha, beta) in the validated Bessel range")
    if n >= 1 and w == 0.0:
        raise ValueError("n >= 1 requires z hypot(alpha, beta) != 0")
    return z, alpha, beta


def _sine_power_point(identity_id: str, pid: dict) -> tuple[float, float, float]:
    """nu, a and b of an integral of sin^(nu+1) x J_nu(a sin x) against
    the sine or cosine of b cos x, checked against its validity region: a
    finite nu >= -1/2 (the identities hold for nu > -1, the Bessel kernel
    for nu >= -1/2), a >= 0, and a > 0 where nu < 0, as J_nu(0) is
    infinite there, with hypot(a, b) within the validated Bessel range."""
    nu, a, b = pid["nu"], pid["a"], pid["b"]
    if not math.inf > nu >= -0.5:
        raise ValueError(f"{identity_id} requires a finite nu >= -1/2")
    if not ((a > 0.0 or a == 0.0 and nu >= 0.0) and math.hypot(a, b) <= _BESSEL_X_CAP):
        raise ValueError(
            f"{identity_id} requires a >= 0 (a > 0 where nu < 0) and hypot(a, b) "
            "within the validated Bessel range"
        )
    return nu, a, b


def _azimuthal_rhs(identity_id: str, z: float, alpha: float, beta: float, n: int, J) -> float:
    """The closed form of an identity with weight sin^(2n) from
    J[j] = J_{n+j}(z hypot(alpha, beta)), j = 0..n: written out for int0 ..
    int_nu3, and for int_general from the falling-factorial coefficients,
    an independent route to the same values."""
    s = math.hypot(alpha, beta)
    w = z * s
    if identity_id == "int0":
        total = J[0]
    elif identity_id == "int_nu1":
        total = J[0] / w - beta**2 / s**2 * J[1]
    elif identity_id == "int_nu2":
        total = 3.0 / w**2 * J[0] - 6.0 * beta**2 / (z * s**3) * J[1] + beta**4 / s**4 * J[2]
    elif identity_id == "int_nu3":
        total = (
            15.0 / w**3 * J[0]
            - 45.0 * beta**2 / (z**2 * s**4) * J[1]
            + 15.0 * beta**4 / (z * s**5) * J[2]
            - beta**6 / s**6 * J[3]
        )
    else:
        coeffs = falling_factorial_coeffs(n)
        total = 0.0
        for j in range(n + 1):
            total += (
                (-1.0) ** j
                * coeffs[j]
                * beta ** (2 * j)
                / (2.0**j * z ** (n - j) * s ** (n + j))
                * J[j]
            )
    return 2.0 * math.pi * total


def _convolution_parts(kind: int, mu: float, nu: float, a: float) -> tuple:
    """int_0^a g(mu, x) g(nu, a - x) dx as two integrals over [0, a/2], the
    second in y = a - x.  Each factor that is singular at an end of [0, a]
    then takes its argument near 0, where the doubles are dense enough to
    resolve it; near a they are not."""
    edges = _chunks(0.5 * a, 0.5 * a / math.pi)
    return ((kind, (mu, nu, a), edges), (kind, (nu, mu, a), edges))


def _plan(identity_id: str, params: dict) -> _Plan:
    """The plan of one identity point; parameters outside the identity's
    validity region raise ValueError."""
    pid = dict(params)

    if identity_id in _AZIMUTHAL or identity_id == "int_general" and not pid.get("companion"):
        n = pid["n"] if identity_id == "int_general" else _AZIMUTHAL.index(identity_id)
        z, alpha, beta = _azimuthal_point(pid, n)
        w = z * math.hypot(alpha, beta)
        prm, edges = (z, alpha, beta, n), _chunks(2.0 * math.pi, w)
        return _Plan(
            identity_id, pid, ((_AZ_RE, prm, edges), (_AZ_IM, prm, edges)),
            tuple(range(n, 2 * n + 1)), w,
            lambda values: complex(*(float(np.sum(v)) for v in values)),
            lambda J: _azimuthal_rhs(identity_id, z, alpha, beta, n, J),
        )

    if identity_id == "int_general":
        # odd-symmetry companion: the sine analogue integrates to zero
        nu, a, b = _sine_power_point(identity_id, pid)
        parts = ((_COMPANION, (nu, a, b), _chunks(math.pi, max(abs(a), abs(b)))),)
        return _Plan(identity_id, pid, parts, (), 0.0, _sum, lambda J: 0.0)

    if identity_id == "gr_6581_3":
        mu, nu, a = pid["mu"], pid["nu"], pid["a"]
        if not (math.inf > mu > -0.5 and math.inf > nu > -0.5):
            raise ValueError("gr_6581_3 requires finite mu > -1/2 and nu > -1/2")
        if not mu + nu <= 170.0:
            raise ValueError(
                "gr_6581_3 requires mu + nu <= 170, where Gamma(mu + nu + 1) is a double"
            )
        if not 0.0 < a <= _BESSEL_X_CAP:
            raise ValueError("a outside the validated range")
        return _Plan(
            identity_id, pid, _convolution_parts(_POWER_PAIR, mu, nu, a), (mu + nu + 0.5,), a,
            _sum,
            lambda J: (
                math.gamma(mu + 0.5)
                * math.gamma(nu + 0.5)
                / (math.sqrt(2.0 * math.pi) * math.gamma(mu + nu + 1.0))
                * a ** (mu + nu + 0.5)
                * J[0]
            ),
        )

    if identity_id == "gr_6533_2":
        mu, nu, a = pid["mu"], pid["nu"], pid["a"]
        if not (math.inf > mu > 0.0 and math.inf > nu > 0.0):
            raise ValueError("gr_6533_2 requires finite mu > 0 and nu > 0")
        if not 0.0 < a <= _BESSEL_X_CAP:
            raise ValueError("a outside the validated range")
        return _Plan(
            identity_id, pid, _convolution_parts(_QUOTIENT_PAIR, mu, nu, a), (mu + nu,), a, _sum,
            lambda J: (1.0 / mu + 1.0 / nu) * J[0] / a,
        )

    if identity_id == "gr_6575_1":
        mu, nu, a, b = pid["mu"], pid["nu"], pid["a"], pid["b"]
        # the identity holds for nu + 1 > mu > 0; the tail bound below
        # needs nu > mu, and the Bessel arguments a finite a
        if not math.inf > nu > mu > 0.0:
            raise ValueError("gr_6575_1 requires a finite nu > mu > 0")
        if not math.inf > a >= b > 0.0:
            raise ValueError("gr_6575_1 requires a finite a >= b > 0")
        # the semi-infinite integral of x^(mu-nu) J_{nu+1}(ax) J_mu(bx),
        # truncated where every Bessel argument reaches _BESSEL_X_CAP; the
        # tail is bounded through the envelope |J(x)| <= sqrt(2/(pi x)) with
        # a 1.5 safety factor, valid deep in the oscillatory region where
        # the cut happens
        T = _BESSEL_X_CAP / max(a, b)
        edges = np.linspace(0.0, T, max(8, int(T / (math.pi / (a + b)))) + 1)
        pid["tail_bound"] = (
            1.5 * 2.0 / (math.pi * math.sqrt(a * b) * (nu - mu)) * float(edges[-1]) ** (mu - nu)
        )
        return _Plan(
            identity_id, pid, ((_GR_6575_1, (mu, nu, a, b), edges),), (), 0.0, _averaged_partials,
            lambda J: (
                (a * a - b * b) ** (nu - mu)
                * b**mu
                / (2.0 ** (nu - mu) * a ** (nu + 1.0) * math.gamma(nu - mu + 1.0))
            ),
        )

    if identity_id == "gr_6688_2":
        nu, a, b = _sine_power_point(identity_id, pid)
        sab = math.hypot(a, b)
        if sab == 0.0:
            raise ValueError("gr_6688_2 requires hypot(a, b) != 0")
        parts = ((_GR_6688_2, (nu, a, b), _chunks(0.5 * math.pi, 0.5 * max(abs(a), abs(b)))),)
        return _Plan(
            identity_id, pid, parts, (nu + 0.5,), sab, _sum,
            lambda J: math.sqrt(0.5 * math.pi) * a**nu * J[0] / sab ** (nu + 0.5),
        )

    raise ValueError(f"unknown identity id {identity_id!r}")


def check_identities(points) -> list[IdentityReport]:
    """Verify Bessel-integral identities, one at each (identity_id,
    params) pair of ``points``.

    lhs comes from quadrature of the defining integral, rhs from the
    closed form evaluated with the special-function kernel.  Every point
    is checked first: parameters outside the validity region raise
    ValueError before any integrand is evaluated.  Then the left sides of
    all points are integrated in one call of :func:`_integrate`, and every
    Bessel value of the right sides comes from one call of ``bessel_j``.
    Each interval is integrated on its own, so a point's report is the
    same bit for bit in any batch and in any order.
    """
    plans = [_plan(identity_id, params) for identity_id, params in points]
    parts = [part for plan in plans for part in plan.parts]
    if not parts:
        return []
    sizes = [edges.size - 1 for _, _, edges in parts]
    values = _integrate(
        _lhs_integrand,
        np.concatenate([edges[:-1] for _, _, edges in parts]),
        np.concatenate([edges[1:] for _, _, edges in parts]),
        _QUADRATURE_TOL,
        np.repeat([kind for kind, _, _ in parts], sizes),
        np.repeat([prm + (0.0,) * (4 - len(prm)) for _, prm, _ in parts], sizes, axis=0),
    )
    values = iter(np.split(values, np.cumsum(sizes)[:-1]))
    counts = [len(plan.orders) for plan in plans]
    bessel = bessel_j(
        np.array([order for plan in plans for order in plan.orders], dtype=float),
        np.repeat([plan.arg for plan in plans], counts),
    )
    reports = []
    for plan, J in zip(plans, np.split(bessel, np.cumsum(counts)[:-1])):
        lhs = plan.lhs([next(values) for _ in plan.parts])
        rhs = float(plan.rhs(J.tolist()))
        reports.append(IdentityReport(plan.identity_id, plan.pid, lhs.real, rhs, abs(lhs - rhs)))
    return reports


def check_identity(identity_id: str, params: dict) -> IdentityReport:
    """Verify one Bessel-integral identity at one parameter point: the
    one-point batch of :func:`check_identities`."""
    return check_identities([(identity_id, params)])[0]


# ----------------------------------------------------------------------
# goodness of fit
# ----------------------------------------------------------------------

def ks_distance(sorted_values: np.ndarray, cdf_values: np.ndarray) -> float:
    """Exact sup distance between an empirical CDF (samples pre-sorted)
    and analytic CDF values at those samples."""
    n = len(sorted_values)
    grid = np.arange(n + 1) / n
    return float(
        max(np.max(cdf_values - grid[:-1]), np.max(grid[1:] - cdf_values))
    )


def gof_radial(
    p: FlightParams,
    finals: np.ndarray,
    threshold: float = 0.01,
    cdf_params: FlightParams | None = None,
) -> GofReport:
    """KS test of the projected radii of ``finals``, final positions
    (count, d) of flights at ``p``, against the analytic CDF.

    ``cdf_params`` overrides the parameters of the reference CDF, which is
    how negative controls are built.  Raises ValueError outside the CDF's
    domain before any flight is read.
    """
    q = cdf_params if cdf_params is not None else p
    cdf_radial_projection(q, 0.0)
    radii = np.sort(np.linalg.norm(finals[:, : p.m], axis=1))
    ks = ks_distance(radii, cdf_radial_projection(q, radii))
    return GofReport(
        params={
            "d": p.d,
            "m": p.m,
            "n": p.n,
            "nu": p.nu,
            "c": p.c,
            "t": p.t,
            "cdf_nu": q.nu,
        },
        sample_count=len(finals),
        ks_distance=ks,
        threshold=threshold,
        passed=bool(ks < threshold),
    )


def gof_cf(p: FlightParams, alphas, finals: np.ndarray) -> dict:
    """Empirical characteristic function of ``finals``, final positions
    (count, d) of flights at ``p``, versus the nu = 1 closed form.

    At each frequency vector the real part must be within ``_SE_MULTIPLE``
    standard errors of the closed form and the imaginary part within as
    many of zero (the law is even in x_d, and the remaining coordinates
    enter isotropically).
    """
    alphas = np.asarray(alphas, dtype=float)
    targets = cf_nu1(p, alphas).tolist()  # raises outside its domain, before any flight is read
    entries = []
    max_re_dev = 0.0
    max_im_dev = 0.0
    for alpha, target in zip(alphas, targets):
        dot = finals @ alpha
        parts = np.stack([np.cos(dot), np.sin(dot)])
        mean = parts.mean(axis=1)
        se = parts.std(axis=1, ddof=1) / math.sqrt(len(finals))
        # the re and im deviations in standard errors: none where the mean
        # is exact, infinite where it is not and the standard error is 0
        diff = np.abs(mean - (target, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            re_dev, im_dev = np.where(diff == 0.0, 0.0, diff / se).tolist()
        max_re_dev = max(max_re_dev, re_dev)
        max_im_dev = max(max_im_dev, im_dev)
        entries.append(
            {
                "alpha": alpha.tolist(),
                "empirical_re": float(mean[0]),
                "empirical_im": float(mean[1]),
                "cf": target,
                "re_dev_se": re_dev,
                "im_dev_se": im_dev,
            }
        )
    return {
        "params": {"d": p.d, "n": p.n, "nu": p.nu, "c": p.c, "t": p.t},
        "sample_count": len(finals),
        "entries": entries,
        "max_re_dev_se": max_re_dev,
        "max_im_dev_se": max_im_dev,
        "threshold_se": _SE_MULTIPLE,
        "passed": bool(max_re_dev < _SE_MULTIPLE and max_im_dev < _SE_MULTIPLE),
    }


# ----------------------------------------------------------------------
# the aggregated suite
# ----------------------------------------------------------------------

def identity_grid() -> list[tuple[str, dict]]:
    """At least three parameter points per identity, all inside the
    validity regions and the validated Bessel argument range."""
    grid: list[tuple[str, dict]] = []
    az_points = [
        {"z": 1.0, "alpha": 1.0, "beta": 0.5},
        {"z": 2.5, "alpha": 0.7, "beta": -1.1},
        {"z": 4.0, "alpha": -2.0, "beta": 3.0},
    ]
    for ident in ("int0", "int_nu1", "int_nu2", "int_nu3"):
        for pt in az_points:
            grid.append((ident, dict(pt)))
    for n in (0, 1, 2, 3, 4):
        grid.append(("int_general", {**az_points[n % 3], "n": n}))
    for pt in [
        {"companion": True, "nu": 1.0, "a": 2.0, "b": 3.0},
        {"companion": True, "nu": 2.0, "a": 5.0, "b": 1.0},
        {"companion": True, "nu": 0.5, "a": 1.5, "b": 4.0},
    ]:
        grid.append(("int_general", pt))
    for pt in [
        {"mu": 0.5, "nu": 0.5, "a": 3.0},
        {"mu": 1.5, "nu": 2.0, "a": 10.0},
        {"mu": 0.75, "nu": 1.25, "a": 25.0},
    ]:
        grid.append(("gr_6581_3", pt))
    for pt in [
        {"mu": 1.0, "nu": 1.0, "a": 5.0},
        {"mu": 0.6, "nu": 1.7, "a": 12.0},
        {"mu": 2.5, "nu": 3.5, "a": 30.0},
    ]:
        grid.append(("gr_6533_2", pt))
    for pt in [
        {"mu": 0.5, "nu": 3.5, "a": 2.0, "b": 1.0},
        {"mu": 1.0, "nu": 4.0, "a": 2.5, "b": 1.5},
        {"mu": 1.5, "nu": 5.5, "a": 3.0, "b": 2.0},
    ]:
        grid.append(("gr_6575_1", pt))
    for pt in [
        {"nu": 1.0, "a": 2.0, "b": 3.0},
        {"nu": 0.5, "a": 5.0, "b": 0.0},
        {"nu": 2.0, "a": 10.0, "b": 4.0},
    ]:
        grid.append(("gr_6688_2", pt))
    return grid


def _gof_table(profile: str) -> list[tuple]:
    """The suite's Monte Carlo checks in report order, each as (the maker
    of its report entry, the flights' parameters, the number of flights it
    reads, its other arguments): the radial grid, the nu = 1 flights
    against the nu = 0 law, then the cf checks."""
    alphas_d2 = [
        [0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [1.0, 1.0], [2.0, 0.5],
        [0.5, 2.0], [3.0, 0.0], [0.0, 3.0], [2.0, 2.0],
    ]
    alphas_d3 = [
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0],
        [2.0, 0.0, 0.5], [0.5, 1.5, 0.0], [0.0, 2.0, 2.0], [3.0, 1.0, 0.0],
        [1.0, 0.5, 2.5],
    ]
    if profile == "full":
        radial = [
            (d, m, n, nu)
            for d in (2, 3, 4)
            for m in (1, 2)
            for n in (1, 2, 3)
            for nu in (0.0, 1.0)
            if m < d
        ]
        count = 100_000
        threshold = 0.01
        cf = [
            (FlightParams(d=2, n=1, nu=1.0), 1_000_000, alphas_d2),
            (FlightParams(d=3, n=2, nu=1.0), 1_000_000, alphas_d3),
        ]
    else:
        radial = [(2, 1, 1, 0.0), (3, 2, 2, 1.0), (4, 1, 3, 1.0)]
        count = 20_000
        threshold = 0.0215
        cf = [(FlightParams(d=2, n=1, nu=1.0), 100_000, alphas_d2)]
    control = FlightParams(d=3, n=1, nu=1.0, m=1)
    return [
        *((_radial_entry, FlightParams(d=d, n=n, nu=nu, m=m), count, threshold)
          for d, m, n, nu in radial),
        (_radial_entry, control, count, 0.05, replace(control, nu=0.0)),
        *((_cf_entry, *row) for row in cf),
    ]


@dataclass
class SuiteConfig:
    """What to run and under which master seed: every check, or ``only``
    the "identities" or the "gof" ones."""

    master_seed: int = 20260808
    profile: str = "quick"
    only: str | None = None

    def __post_init__(self):
        if self.profile not in ("quick", "full"):
            raise ValueError("profile must be 'quick' or 'full'")
        if self.only not in (None, "identities", "gof"):
            raise ValueError("only must be None, 'identities' or 'gof'")


def _check(check_id: str, kind: str, params: dict, metric: float, threshold: float,
           passed: bool, negative_control: bool = False) -> dict:
    """One entry of the suite report's ``checks`` list."""
    return {
        "check_id": check_id,
        "kind": kind,
        "params": params,
        "metric": metric,
        "threshold": threshold,
        "passed": bool(passed),
        "negative_control": negative_control,
    }


def _radial_entry(p: FlightParams, finals: np.ndarray, threshold: float,
                  control: FlightParams | None = None) -> dict:
    """The report entry of the KS check of ``finals``, or of the negative
    control that checks them against the mismatched law ``control``."""
    rep = gof_radial(p, finals, threshold, control)
    name = "negative_control" if control else f"d{p.d}m{p.m}n{p.n}nu{p.nu:g}"
    # a control passes when the mismatch is detected
    passed = rep.ks_distance > threshold if control else rep.passed
    return _check(f"gof_radial:{name}", "gof_radial", rep.params, rep.ks_distance, threshold,
                  passed, control is not None)


def _cf_entry(p: FlightParams, finals: np.ndarray, alphas: list) -> dict:
    """The report entry of the cf check of ``finals`` at ``alphas``."""
    rep = gof_cf(p, alphas, finals)
    return _check(f"gof_cf:d{p.d}n{p.n}", "gof_cf", rep["params"],
                  max(rep["max_re_dev_se"], rep["max_im_dev_se"]), rep["threshold_se"],
                  rep["passed"])


def run_suite(config: SuiteConfig | None = None) -> dict:
    """Run the configured checks and aggregate a machine-readable report.

    Sub-check failures are recorded, never raised; the overall ``passed``
    flag ignores negative controls (which are expected to fail their
    nominal threshold and pass as controls when they do).
    """
    config = config if config is not None else SuiteConfig()
    checks: list[dict] = []

    if config.only != "gof":
        for rep in check_identities(identity_grid()):
            tol = _FORMULA3_TOL if rep.identity_id == "gr_6575_1" else _IDENTITY_TOL
            checks.append(_check(f"identity:{rep.identity_id}", "identity", rep.params,
                                 rep.abs_err, tol, rep.abs_err < tol))

    if config.only != "identities":
        # each cell drawn once, at the largest count its checks read, and its
        # batch released before the next cell is drawn
        table = _gof_table(config.profile)
        cells: dict[FlightParams, list[int]] = {}
        for i, (_, p, *_) in enumerate(table):
            cells.setdefault(replace(p, m=None), []).append(i)
        entries: list[dict | None] = [None] * len(table)
        for cell, rows in cells.items():
            finals = simulate_batch(cell, max(table[i][2] for i in rows), config.master_seed)
            for i in rows:
                entry, p, count, *args = table[i]
                entries[i] = entry(p, finals[:count], *args)
            del finals
        checks += entries

    return {
        "config": asdict(config),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
