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
ch. V).  Sampling is structural, not rejection: when 2 nu is an integer
|Y_d| is the root of a sum of 2 nu + 1 squared normals, otherwise
sqrt(2 G) with G one inverse-CDF Gamma(nu + 1/2) value
(:func:`driftflight.temporal.gamma_quantile`).  Every draw
consumes a fixed number of uniforms, which is what makes the batched
simulation in :mod:`driftflight.flight` bit-reproducible replicate by
replicate.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from scipy.special import ndtri

from .temporal import _U_FLOOR, _sum_draws, gamma_quantile

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


def direction_draws(d: int, nu: float) -> int:
    """Uniforms one direction consumes: d-1 normals, |Y_d| (2 nu + 1
    normals, or one uniform for gamma_quantile), then a sign."""
    return d + _sum_draws(2.0 * nu + 1.0)


def directions(u, d: int, nu: float) -> np.ndarray:
    """Structural transform: uniforms (..., direction_draws(d, nu)) to unit
    vectors (..., d).  The first d-1 uniforms give the normals
    Y_1 .. Y_{d-1}, the next ones |Y_d| and the last the sign of Y_d."""
    u = np.maximum(u, _U_FLOOR)
    k = _sum_draws(2.0 * nu + 1.0)
    if k == 2.0 * nu + 1.0:
        z = ndtri(u[..., :-1])
        chi2 = (z[..., d - 1 :] ** 2).sum(axis=-1)
    else:
        z = ndtri(u[..., : d - 1])
        chi2 = 2.0 * gamma_quantile(nu + 0.5, u[..., d - 1])
    y = np.empty(u.shape[:-1] + (d,))
    y[..., :-1] = z[..., : d - 1]
    y[..., -1] = np.where(u[..., -1] < 0.5, -1.0, 1.0) * np.sqrt(chi2)
    return y / np.sqrt((y * y).sum(axis=-1))[..., None]


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
