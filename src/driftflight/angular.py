"""Directions on the unit sphere under the sin-power drift family.

The angular law in dimension d has density proportional to
sin^(2 nu + d - 2) theta_1 ... sin^(2 nu + 1) theta_{d-2} sin^(2 nu) phi
on [0, pi]^(d-2) x [0, 2 pi].  nu = 0 is the uniform law on the sphere;
increasing nu concentrates the azimuth near pi/2 and 3 pi/2.

The laws take arrays with the angles on the last axis and broadcast; one
point gives the bits of its row in a batch.  :func:`angular_density` is
the m = d-1 case of :func:`marginal_angular_density`, and
:func:`angles_to_direction` inverts :func:`direction_angles`.

On the sphere this density is the uniform surface element times
(sin theta_1 ... sin theta_{d-2} sin phi)^(2 nu) = |x_d|^(2 nu), so a
direction is Y / |Y| with Y_1 .. Y_{d-1} independent standard normals and
Y_d = +-chi_{2 nu + 1} with a fair sign (Marsaglia 1972; Devroye 1986,
ch. V).  Sampling is structural, not rejection, and uses chi^2_{2k+1} =
-2 sum_{i <= k} log U_i + Z^2 (Devroye 1986, ch. IX): at integer nu,
Y_d = copysign(sqrt(Z_d^2 - 2 sum_{i <= nu} log U_i), Z_d), whose sign
is the sign of the normal Z_d (at nu = 0, Y = Z); at half-integer nu,
Y_d^2 = -2 sum log U over nu + 1/2 uniforms with a sign uniform;
otherwise, or past 4 logs, Y_d^2 = 2 G with G one inverse-CDF
Gamma(nu + 1/2) value (:func:`driftflight.temporal.gamma_quantile`) and
a sign uniform.  Every draw consumes a fixed number of uniforms, which
is what makes the batched simulation in :mod:`driftflight.flight`
bit-reproducible replicate by replicate.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from scipy.special import ndtri

from .temporal import _MAX_SUM_DRAWS, _U_FLOOR, _log_sum, gamma_quantile

# unused here, but bench/tracing.py wraps this name on this module
from scipy.special import betaincinv  # noqa: F401

__all__ = [
    "angles_to_direction",
    "angular_density",
    "direction_angles",
    "direction_draws",
    "directions",
    "marginal_angular_density",
    "sample_angles",
]

TWO_PI = 2.0 * math.pi
# the floor of ndtri(u), at the floor of u
_Z_FLOOR = float(ndtri(_U_FLOOR))


def _angles(thetas, phi) -> np.ndarray:
    """Colatitudes (..., d-2) and azimuths (...) broadcast into one array
    (..., d-1) of angles; a scalar ``thetas`` is one colatitude."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phi = np.asarray(phi, dtype=float)
    batch = np.broadcast_shapes(thetas.shape[:-1], phi.shape)
    phi = np.broadcast_to(phi, batch)[..., None]
    return np.concatenate([np.broadcast_to(thetas, batch + thetas.shape[-1:]), phi], axis=-1)


def _check_angles(angles: np.ndarray, full: bool) -> None:
    # colatitudes, then the azimuth if ``full``; NaN fails both bounds
    cols = angles[..., :-1] if full else angles
    if not np.all((cols >= 0.0) & (cols <= math.pi)):
        raise ValueError("colatitudes must lie in [0, pi]")
    if full and not np.all((angles[..., -1] >= 0.0) & (angles[..., -1] <= TWO_PI)):
        raise ValueError("azimuths must lie in [0, 2 pi]")


def marginal_angular_density(angles, d: int, m: int, nu: float):
    """Marginal density of the first m angles of the d-dimensional law at
    ``angles`` (..., m), angle j carrying sin^(2 nu + d - 1 - j).  For
    m = d-1 the last entry is the azimuth in [0, 2 pi], every other entry
    is a colatitude in [0, pi]."""
    if nu < 0.0:
        raise ValueError("marginal_angular_density requires nu >= 0")
    if not 1 <= m < d:
        raise ValueError(f"requires 1 <= m < d, got m={m}, d={d}")
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.shape[-1] != m:
        raise ValueError(f"expected {m} angles on the last axis, got shape {angles.shape}")
    _check_angles(angles, full := m == d - 1)
    # the azimuth spans [0, 2 pi], twice a colatitude's range
    log_norm = math.lgamma(nu + 0.5 * d) - math.lgamma(nu + 0.5 * (d - m))
    log_norm -= 0.5 * m * math.log(math.pi) + full * math.log(2.0)
    # sin^(2 nu) is read as (sin^2)^nu, real on (pi, 2 pi) for any nu; a
    # power, not exp of a log, keeps 0^0 = 1 at nu = 0
    powers = np.abs(np.sin(angles)) ** (2.0 * nu + d - 1.0 - np.arange(1, m + 1))
    # factor after factor, so one point and a batch row multiply alike
    return (math.exp(log_norm) * reduce(np.multiply, np.moveaxis(powers, -1, 0)))[()]


def angular_density(thetas, phi, nu: float):
    """Joint density of the d-1 angles at colatitudes ``thetas`` (..., d-2)
    and azimuths ``phi`` (...), broadcast together; d = 2 takes
    ``thetas = ()``.  The m = d-1 case of :func:`marginal_angular_density`."""
    angles = _angles(thetas, phi)
    d = angles.shape[-1] + 1
    return marginal_angular_density(angles, d, d - 1, nu)


def _chi_logs(nu: float) -> int:
    # the -log U terms k of chi^2_{2 nu + 1} = -2 sum_{i <= k} log U_i, plus
    # Z_d^2 when nu is an integer (Devroye 1986, ch. IX), k = floor(nu + 1/2);
    # -1 for one gamma_quantile value, where 2 nu is not an integer or the
    # sum would pass the cap
    if not (2.0 * nu).is_integer():
        return -1
    k = math.floor(nu + 0.5)
    return k if k <= _MAX_SUM_DRAWS else -1


def direction_draws(d: int, nu: float) -> int:
    """Uniforms one direction consumes: d + nu at integer nu (d normals and
    nu logs), d + nu + 1/2 at half-integer nu (d - 1 normals, nu + 1/2
    logs and a sign), else d + 1 (d - 1 normals, one gamma_quantile value
    and a sign); a sum of more than 4 logs takes the last form."""
    k = _chi_logs(nu)
    return d + (k if k >= 0 else 1)


def _scaled_directions(u, d: int, nu: float, scale) -> np.ndarray:
    # scale (...) times the unit vectors of uniforms u (..., direction_draws)
    u = np.asarray(u)
    k = _chi_logs(nu)
    if odd := k >= 0 and float(nu).is_integer():
        # chi^2 of odd degree: nu logs, then the d normals, Z_d being a
        # term of Y_d^2 and its sign
        m, chi_u = d, u[..., :k]
    else:
        # d - 1 normals, the uniforms of Y_d^2, then its sign
        m, chi_u = d - 1, u[..., d - 1 : -1]
    y = np.empty(u.shape[:-1] + (d,))
    # the normals in one call; the floor on ndtri's output is the floor on
    # its input, as ndtri increases
    ndtri(u[..., -m:] if odd else u[..., :m], out=y[..., :m])
    np.maximum(y[..., :m], _Z_FLOOR, out=y[..., :m])
    if k != 0:  # at nu = 0, Y = Z
        if k > 0:
            chi2 = -2.0 * _log_sum(chi_u)
        else:
            chi2 = 2.0 * gamma_quantile(nu + 0.5, chi_u[..., 0])
        if odd:
            chi2 += y[..., -1] ** 2
            sign = y[..., -1]
        else:
            sign = u[..., -1] - 0.5
        np.copysign(np.sqrt(chi2), sign, out=y[..., -1])
    # column by column, as temporal._col_sum, but squaring as it goes
    r2 = y[..., 0] ** 2
    for j in range(1, d):
        r2 += y[..., j] ** 2
    if not r2.all():
        # a null set (every Y_i exactly 0, as at nu = 0 and d uniforms of
        # 1/2): e_d
        zero = r2 == 0.0
        y[..., -1][zero] = 1.0
        r2[zero] = 1.0
    y *= (scale / np.sqrt(r2))[..., None]
    return y


def directions(u, d: int, nu: float) -> np.ndarray:
    """Structural transform: uniforms (..., direction_draws(d, nu)) to unit
    vectors (..., d), Y / |Y|.  At integer nu the first nu uniforms give
    -2 sum log U and the last d the normals Z_1 .. Z_d, with Y_i = Z_i for
    i < d and Y_d = copysign(sqrt(Z_d^2 - 2 sum log U), Z_d).  Otherwise
    the first d - 1 give Y_1 .. Y_{d-1}, the next ones |Y_d| and the last
    the sign of Y_d.  Where every Y_i is 0 (nu = 0 and d uniforms of
    exactly 1/2) the vector is e_d."""
    return _scaled_directions(u, d, nu, 1.0)


def sample_angles(d: int, nu: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The colatitudes (d-2,) and azimuth of one :func:`directions` vector;
    consumes exactly direction_draws(d, nu) uniforms from ``rng``."""
    if d < 2 or nu < 0.0:
        raise ValueError("sample_angles requires d >= 2 and nu >= 0")
    return direction_angles(directions(rng.random(direction_draws(d, nu)), d, nu))


def direction_angles(x) -> tuple[np.ndarray, np.ndarray]:
    """Hyperspherical angles of unit vectors (..., d), the inverse of
    :func:`angles_to_direction`: colatitudes (..., d-2) in [0, pi] and
    azimuths (...) in [0, 2 pi]."""
    x = np.asarray(x)
    # theta_j = atan2(|(x_{j+1}, ..., x_d)|, x_j), phi = atan2(x_d, x_{d-1})
    tails = np.sqrt(np.cumsum(x[..., ::-1] ** 2, axis=-1)[..., ::-1])
    thetas = np.arctan2(tails[..., 1:-1], x[..., :-2])
    phi = np.arctan2(x[..., -1], x[..., -2]) % TWO_PI
    return thetas, phi


def angles_to_direction(thetas, phi) -> np.ndarray:
    """Unit vectors (..., d) at colatitudes ``thetas`` (..., d-2) and
    azimuths ``phi`` (...), the inverse of :func:`direction_angles`:
    x_1 = cos theta_1, x_i = sin theta_1 ... sin theta_{i-1} cos theta_i,
    and the last two components carry the azimuth, x_{d-1} =
    sin theta_1 ... sin theta_{d-2} cos phi and x_d the same with sin phi."""
    angles = _angles(thetas, phi)
    _check_angles(angles, True)
    # the running products of 1, sin theta_1, ..., sin theta_{d-2}, sin phi
    # times cos theta_1, ..., cos theta_{d-2}, cos phi, 1
    ones = np.ones(angles.shape[:-1] + (1,))
    sins = np.concatenate([ones, np.sin(angles)], axis=-1)
    coss = np.concatenate([np.cos(angles), ones], axis=-1)
    return sins.cumprod(axis=-1) * coss
