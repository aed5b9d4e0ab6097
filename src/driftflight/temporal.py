"""Waiting times between direction changes: a rescaled Dirichlet law.

Given n changes of direction on [0, t], the n+1 waiting times are
t times a Dirichlet vector with all parameters equal to 2 nu + d - 1.
Sampling goes through the gamma-ratio construction (exact, no rejection).
When the shape 2 nu + d - 1 is an integer of at most 4 (the paper's nu = 0
for d <= 5 and nu = 1 for d <= 3), each Gamma variate is a sum of -log U
over that many uniforms (Devroye 1986, ch. IX); otherwise it is one
inverse-CDF value, :func:`gamma_quantile`, which costs about as much as a
sum of 4 terms.  Either way the draw count per sample is fixed.  That
rule, for any shape, is ``_gamma_draws`` (the uniforms one variate takes)
and ``_gammas`` (the variates), and :mod:`driftflight.angular` draws the
Gamma variate of each direction's drifted coordinate through them too.
:func:`waiting_times` is that transform on arrays of uniforms, and
:func:`intertime_density` the law on arrays of waiting-time vectors
(..., n+1), one point with the bits of its row in a batch.  They take a
:class:`driftflight.flight.FlightParams` first, which checks d, nu and t.

:func:`gamma_quantile` inverts the Gamma CDF from a table built once per
shape (Devroye 1986, ch. IX, inversion on tabulated quantiles): log Q_a
as quintic pieces in z = ndtri(u), and the small-u series in
(u Gamma(a+1))^(1/a) below the table.  ``gammaincinv`` runs only while a
table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import gammainccinv, gammaincinv, ndtr, ndtri

if TYPE_CHECKING:
    from .flight import FlightParams

__all__ = [
    "gamma_quantile",
    "intertime_density",
    "sample_intertimes",
    "time_draws",
    "waiting_times",
]

# floor for raw uniforms, which lie in [0, 1): -log, ndtri and
# gamma_quantile act as on max(u, 1e-300) and never return an infinity
_U_FLOOR = 1e-300
_LOG_FLOOR = math.log(_U_FLOOR)

# the longest sum of -log U terms: a Gamma(k) variate costs about 12 ns a
# term as a sum (Philox and log) and about 60 ns as one gamma_quantile
# value, so sums of 4 terms tie with the table and longer ones lose
_MAX_SUM_DRAWS = 4

# gamma_quantile table: pieces of one uniform grid in z = ndtri(u) and the
# degree of the polynomial on each; 512 quintics reach the rounding floor
# (about 3e-14 relative) at every shape tested, from 0.5 to 1e4
_QT_PIECES = 512
_QT_DEGREE = 5
# below u_tail(a), where w = (u Gamma(a+1))^(1/a) <= 1e-4 (a+1), the
# four-term series leaves a relative error below 1e-19
_QT_W_TAIL = 1e-4


def _interpolation_weights(m: int) -> tuple[np.ndarray, np.ndarray]:
    # the m Chebyshev nodes t_j in [-1, 1] and W[j, p], the coefficient of
    # t^p in the polynomial of degree m-1 through 1 at node j and 0 at the
    # others: from c_k = (2 - [k == 0]) / m sum_j f_j T_k(t_j) and the
    # monomial coefficients of T_k (T_k = 2 t T_{k-1} - T_{k-2})
    theta = np.pi * (np.arange(m) + 0.5) / m
    cheb = np.cos(np.arange(m)[:, None] * theta[None, :]) * (2.0 / m)
    cheb[0] *= 0.5
    mono = np.zeros((m, m))
    mono[0, 0] = 1.0
    mono[1, 1] = 1.0
    for k in range(2, m):
        mono[k, 1:] = 2.0 * mono[k - 1, :-1]
        mono[k] -= mono[k - 2]
    return np.cos(theta), (cheb[:, :, None] * mono[:, None, :]).sum(axis=0)


@dataclass(frozen=True)
class _QuantileTable:
    """log Q_a on [z0, z1] in z = ndtri(u), and the lower-tail series for
    u < u_tail."""

    z0: float
    z1: float  # the largest z a uniform in [0, 1) reaches
    inv_h: float
    coef: np.ndarray  # (_QT_DEGREE + 1, _QT_PIECES), coef[p] multiplies t^p
    u_tail: float
    gamma1: float  # Gamma(a + 1)
    inv_a: float
    series: tuple  # c_1 .. c_4 of Q = w (1 + c_1 w + ... + c_4 w^4)


@lru_cache(maxsize=32)
def _quantile_table(a: float) -> _QuantileTable:
    if not 0.0 < a < math.inf:
        raise ValueError(f"gamma_quantile requires a finite shape a > 0, got {a}")
    log_u_tail = a * math.log(_QT_W_TAIL * (a + 1.0)) - math.lgamma(a + 1.0)
    if log_u_tail > math.log(_U_FLOOR):
        u_tail = math.exp(log_u_tail)
        z0 = float(ndtri(u_tail))
    else:
        u_tail, z0 = 0.0, float(ndtri(_U_FLOOR))
    z1 = float(ndtri(1.0 - 2.0**-53))
    nodes, weights = _interpolation_weights(_QT_DEGREE + 1)
    # the nodes of piece i sit at z0 + h (i + (1 + t_j) / 2); the upper half
    # inverts the complement, so Q keeps its digits as u approaches 1
    h = (z1 - z0) / _QT_PIECES
    z = z0 + h * (np.arange(_QT_PIECES)[:, None] + 0.5 + 0.5 * nodes)
    q = np.empty_like(z)
    lower = z < 0.0
    q[lower] = gammaincinv(a, ndtr(z[lower]))
    q[~lower] = gammainccinv(a, ndtr(-z[~lower]))
    # elementwise products and sums only, so the bits do not depend on BLAS
    coef = (np.log(q)[:, :, None] * weights).sum(axis=1).T
    coef = np.ascontiguousarray(coef)
    coef.flags.writeable = False
    # the small-u inversion of P(a, x) = u in powers of w (Gil, Segura and
    # Temme 2012), checked against 50-digit quantiles
    a1, a2, a3, a4 = a + 1.0, a + 2.0, a + 3.0, a + 4.0
    series = (
        1.0 / a1,
        (3.0 * a + 5.0) / (2.0 * a1**2 * a2),
        (8.0 * a * a + 33.0 * a + 31.0) / (3.0 * a1**3 * a2 * a3),
        (125.0 * a**4 + 1179.0 * a**3 + 3971.0 * a * a + 5661.0 * a + 2888.0)
        / (24.0 * a1**4 * a2**2 * a3 * a4),
    )
    # unused without a tail, and Gamma(a + 1) overflows past a = 170
    gamma1 = math.gamma(a1) if u_tail > 0.0 else 0.0
    return _QuantileTable(z0, z1, 1.0 / h, coef, u_tail, gamma1, 1.0 / a, series)


def _check_uniforms(name: str, u: np.ndarray) -> None:
    # NaN fails both bounds
    if not (np.all(u >= 0.0) and np.all(u < 1.0)):
        raise ValueError(f"{name} requires 0 <= u < 1")


def gamma_quantile(a: float, u) -> np.ndarray:
    """The Gamma(a) quantile Q_a(u), the value ``gammaincinv(a, u)``, for u
    in [0, 1) floored at 1e-300, elementwise and shaped like ``u``; raises
    ValueError for u outside [0, 1).

    The table of shape ``a`` is built on first use and cached (the last 32
    shapes).  Above u_tail(a) the result is exp of a quintic in
    z = ndtri(u) on one of 512 equal pieces; below it (where
    (u Gamma(a+1))^(1/a) <= 1e-4 (a+1)) the small-u series.  Relative
    error against ``gammaincinv`` and against 50-digit quantiles is below
    1e-13 (about 3e-14 measured); where the quantile underflows the result
    is 0.0, as from ``gammaincinv``.
    """
    tab = _quantile_table(float(a))
    u = np.asarray(u, dtype=float)
    _check_uniforms("gamma_quantile", u)
    flat = np.maximum(u.ravel(), _U_FLOOR)
    # t runs over the grid in units of pieces, then over piece i in [-1, 1];
    # in place, so a call holds few arrays of u's size
    t = ndtri(flat)
    np.clip(t, tab.z0, tab.z1, out=t)
    t -= tab.z0
    t *= tab.inv_h
    i = t.astype(np.intp)
    np.minimum(i, _QT_PIECES - 1, out=i)
    t -= i
    t *= 2.0
    t -= 1.0
    # Horner over the piece's coefficients
    log_q = tab.coef[-1].take(i)
    for c in tab.coef[-2::-1]:
        log_q *= t
        log_q += c.take(i)
    q = np.exp(log_q, out=log_q)
    low = flat < tab.u_tail
    if low.any():
        w = (flat[low] * tab.gamma1) ** tab.inv_a
        c1, c2, c3, c4 = tab.series
        q[low] = w * (1.0 + w * (c1 + w * (c2 + w * (c3 + w * c4))))
    return q.reshape(u.shape)


def intertime_density(p: FlightParams, taus):
    """Joint density of the n+1 waiting times of ``p`` (n >= 1) at vectors
    ``taus`` (..., n+1); 0 off the open simplex (a non-positive component
    or a sum off the horizon t by over 1e-9 t)."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if not 1 <= p.n == taus.shape[-1] - 1:
        raise ValueError(f"intertime_density requires n >= 1 and n+1 taus, got {taus.shape}")
    n, t, a = p.n, p.t, 2.0 * p.nu + p.d - 1.0
    log_norm = math.lgamma((n + 1) * a) - (n + 1) * math.lgamma(a)
    log_norm -= ((n + 1) * a - 1.0) * math.log(t)
    # component after component, so one vector and a batch row sum alike
    cols = np.moveaxis(taus, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.exp(log_norm + (a - 1.0) * sum(np.log(cols)))
    outside = (cols <= 0.0).any(axis=0) | (np.abs(sum(cols) - t) > 1e-9 * t)
    return np.where(outside, 0.0, vals)[()]


def _col_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last (non-empty) axis column after column: cheaper than
    a reduction over a short axis, and one row sums like a batch row."""
    total = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        total += a[..., j]
    return total


def _log_sum(u) -> np.ndarray:
    """sum_i log max(U_i, 1e-300) over the last axis of uniforms (..., k)."""
    with np.errstate(divide="ignore"):
        logs = np.log(u)
    # the floor on log's output is the floor on its input, as log increases
    np.maximum(logs, _LOG_FLOOR, out=logs)
    return _col_sum(logs)


def _gamma_draws(shape: float) -> int:
    """Uniforms one Gamma(shape) variate consumes: the shape itself when it
    is an integer up to 4 (a sum of -log U; none at shape 0), else 1 (one
    gamma_quantile value)."""
    return int(shape) if float(shape).is_integer() and shape <= _MAX_SUM_DRAWS else 1


def _gammas(shape: float, u: np.ndarray) -> np.ndarray:
    """Gamma(shape) variates (...) from uniforms (..., _gamma_draws(shape)),
    shape > 0: -sum log U where the variate is a sum, else one
    gamma_quantile value of the first uniform."""
    if _gamma_draws(shape) == shape:
        return -_log_sum(u)
    return gamma_quantile(shape, u[..., 0])


def time_draws(p: FlightParams) -> int:
    """Uniforms one waiting time consumes: those of one Gamma(2 nu + d - 1)
    variate (``_gamma_draws``)."""
    return _gamma_draws(2.0 * p.nu + p.d - 1.0)


def waiting_times(p: FlightParams, u) -> np.ndarray:
    """Transform uniforms (..., (n+1) k), k = time_draws(p), to the n+1 >= 2
    waiting times (..., n+1) summing to t; waiting time j reads uniforms
    j k .. j k + k-1, and the last one is the residual t - sum(rest).
    Raises ValueError for u outside [0, 1)."""
    u = np.asarray(u)
    _check_uniforms("waiting_times", u)
    return _waiting_times(p, u)


def _waiting_times(p: FlightParams, u: np.ndarray) -> np.ndarray:
    # waiting_times without the range check, for the sampler's own uniforms
    a, k = 2.0 * p.nu + p.d - 1.0, time_draws(p)
    if not (p.n >= 1 and u.shape[-1] == (p.n + 1) * k):
        raise ValueError(f"waiting_times requires n >= 1 and (n+1) k uniforms, got {u.shape}")
    g = _gammas(a, u.reshape(u.shape[:-1] + (p.n + 1, k)))
    # g becomes the waiting times in place
    g *= (p.t / _col_sum(g))[..., None]
    g[..., -1] = p.t - _col_sum(g[..., :-1])
    return g


def sample_intertimes(p: FlightParams, rng: np.random.Generator) -> np.ndarray:
    """The n+1 waiting times of ``p`` (n >= 1) from (n+1) time_draws(p) uniforms."""
    if p.n < 1:  # before any draw
        raise ValueError("sample_intertimes requires n >= 1")
    return waiting_times(p, rng.random((p.n + 1) * time_draws(p)))
