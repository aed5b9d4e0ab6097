"""Directions on the unit sphere under the sin-power drift family.

The angular law in dimension d has density proportional to
sin^(2 nu + d - 2) theta_1 ... sin^(2 nu + 1) theta_{d-2} sin^(2 nu) phi
on [0, pi]^(d-2) x [0, 2 pi].  nu = 0 is the uniform law on the sphere;
increasing nu concentrates the azimuth near pi/2 and 3 pi/2.

The laws take arrays with the angles on the last axis and broadcast; one
point gives the bits of its row in a batch.  :func:`angular_density` is
the m = d-1 case of :func:`marginal_angular_density`, and
:func:`angles_to_direction` inverts :func:`direction_angles`.  A law or
sampler takes one :class:`driftflight.flight.FlightParams` first, which
checks d and nu, and ignores its n, c and t (pass n = 0 without a flight).

On the sphere this density is the uniform surface element times
(sin theta_1 ... sin theta_{d-2} sin phi)^(2 nu) = |x_d|^(2 nu), so a
direction is Y / |Y| with Y_1 .. Y_{d-1} independent standard normals and
Y_d = +-chi_{2 nu + 1} with a fair sign (Marsaglia 1972; Devroye 1986,
ch. V).  Sampling is structural, not rejection, and uses
chi^2_{2 nu + 1} = 2 Gamma(nu + 1/2) = Z^2 + 2 Gamma(nu) (Devroye 1986,
ch. IX), with each Gamma variate drawn by the one rule of
:mod:`driftflight.temporal`: a sum of -log U at an integer shape up to
4, else one inverse-CDF value.  Where Gamma(nu) is such a sum (integer
nu <= 4), Y_d = copysign(sqrt(Z_d^2 + 2 Gamma(nu)), Z_d), whose sign is
the sign of the normal Z_d (at nu = 0, Y = Z); otherwise
Y_d^2 = 2 Gamma(nu + 1/2) with a sign uniform.  Every draw consumes a
fixed number of uniforms, which is what makes the batched simulation in
:mod:`driftflight.flight` bit-reproducible replicate by replicate.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import ndtri

from .temporal import _U_FLOOR, _check_uniforms, _gamma_draws, _gammas

if TYPE_CHECKING:
    from .flight import FlightParams

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


def marginal_angular_density(p: FlightParams, angles):
    """Marginal density of the first m angles of the law of ``p`` at
    ``angles`` (..., m), 1 <= m < d read off the last axis, angle j
    carrying sin^(2 nu + d - 1 - j).  For m = d-1 the last entry is the
    azimuth in [0, 2 pi], every other entry is a colatitude in [0, pi]."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    d, m, nu = p.d, angles.shape[-1], p.nu
    if not 1 <= m < d:
        raise ValueError(f"requires 1 <= m < d angles on the last axis, got {m} at d = {d}")
    _check_angles(angles, full := m == d - 1)
    # the azimuth spans [0, 2 pi], twice a colatitude's range
    log_norm = math.lgamma(nu + 0.5 * d) - math.lgamma(nu + 0.5 * (d - m))
    log_norm -= 0.5 * m * math.log(math.pi) + full * math.log(2.0)
    # sin^(2 nu) is read as (sin^2)^nu, real on (pi, 2 pi) for any nu; a
    # power, not exp of a log, keeps 0^0 = 1 at nu = 0
    powers = np.abs(np.sin(angles)) ** (2.0 * nu + d - 1.0 - np.arange(1, m + 1))
    # factor after factor, so one point and a batch row multiply alike
    return (math.exp(log_norm) * reduce(np.multiply, np.moveaxis(powers, -1, 0)))[()]


def angular_density(p: FlightParams, thetas, phi):
    """Joint density of the d-1 angles of ``p`` at colatitudes ``thetas``
    (..., d-2) and azimuths ``phi`` (...), broadcast together; d = 2 takes
    ``thetas = ()``.  The m = d-1 case of :func:`marginal_angular_density`."""
    angles = _angles(thetas, phi)
    if angles.shape[-1] != p.d - 1:
        raise ValueError(f"expected d-2 = {p.d - 2} colatitudes, got {angles.shape[-1] - 1}")
    return marginal_angular_density(p, angles)


def direction_draws(p: FlightParams) -> int:
    """Uniforms one direction consumes: d + nu where Gamma(nu) is a sum of
    -log U, at integer nu up to 4 (nu logs and d normals), else d - 1
    normals, the uniforms of one Gamma(nu + 1/2) variate and a sign: d +
    nu + 1/2 at half-integer nu up to 3.5, d + 1 past it or at any other
    nu (one inverse-CDF value)."""
    k = _gamma_draws(p.nu)
    return p.d + (k if k == p.nu else _gamma_draws(p.nu + 0.5))


def _scaled_directions(u, d: int, nu: float, scale) -> np.ndarray:
    # scale (...) times the unit vectors of uniforms u (..., direction_draws)
    u = np.asarray(u)
    k = _gamma_draws(nu)
    if odd := k == nu:
        # chi^2_{2 nu + 1} = Z_d^2 + 2 Gamma(nu): nu logs, then the d
        # normals, Z_d being a term of Y_d^2 and its sign
        m, shape, gamma_u, normal_u = d, nu, u[..., :k], u[..., k:]
    else:
        # chi^2_{2 nu + 1} = 2 Gamma(nu + 1/2): d - 1 normals, the uniforms
        # of the Gamma variate, then the sign of Y_d
        m, shape, gamma_u, normal_u = d - 1, nu + 0.5, u[..., d - 1 : -1], u[..., : d - 1]
    y = np.empty(u.shape[:-1] + (d,))
    # the normals in one call; the floor on ndtri's output is the floor on
    # its input, as ndtri increases
    ndtri(normal_u, out=y[..., :m])
    np.maximum(y[..., :m], _Z_FLOOR, out=y[..., :m])
    if nu != 0.0:  # at nu = 0, Y = Z
        chi2 = 2.0 * _gammas(shape, gamma_u)
        if odd:
            chi2 += y[..., -1] ** 2
        np.copysign(np.sqrt(chi2), y[..., -1] if odd else u[..., -1] - 0.5, out=y[..., -1])
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


def directions(p: FlightParams, u) -> np.ndarray:
    """Structural transform: uniforms (..., direction_draws(p)) to unit
    vectors (..., d), Y / |Y|.  At integer nu up to 4 the first nu
    uniforms give 2 Gamma(nu) = -2 sum log U and the last d the normals
    Z_1 .. Z_d, with Y_i = Z_i for i < d and
    Y_d = copysign(sqrt(Z_d^2 + 2 Gamma(nu)), Z_d).  Otherwise the first
    d - 1 give Y_1 .. Y_{d-1}, the next ones Y_d^2 = 2 Gamma(nu + 1/2) and
    the last the sign of Y_d.  Where every Y_i is 0 (nu = 0 and d uniforms of
    exactly 1/2) the vector is e_d.  Raises ValueError for u outside [0, 1)."""
    u = np.asarray(u)
    if u.shape[-1] != direction_draws(p):
        raise ValueError(f"expected direction_draws(p) uniforms, got shape {u.shape}")
    _check_uniforms("directions", u)
    return _scaled_directions(u, p.d, p.nu, 1.0)


def sample_angles(p: FlightParams, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The colatitudes (d-2,) and azimuth of one :func:`directions` vector;
    consumes exactly direction_draws(p) uniforms from ``rng``."""
    return direction_angles(directions(p, rng.random(direction_draws(p))))


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
