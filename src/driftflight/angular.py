"""Directions on the unit sphere under the sin-power drift family.

The angular law in dimension d has density proportional to
sin^(2 nu + d - 2) theta_1 ... sin^(2 nu + 1) theta_{d-2} sin^(2 nu) phi
on [0, pi]^(d-2) x [0, 2 pi].  nu = 0 is the uniform law on the sphere;
increasing nu concentrates the azimuth near pi/2 and 3 pi/2.

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
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .temporal import _U_FLOOR, _sum_draws, gamma_quantile

# unused here, but bench/tracing.py wraps this name on this module
from scipy.special import betaincinv  # noqa: F401

__all__ = [
    "AngleVector",
    "angles_to_direction",
    "angular_density",
    "direction_angles",
    "direction_draws",
    "directions",
    "marginal_angular_density",
    "sample_angles",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AngleVector:
    """One spherical direction in hyperspherical angles.

    ``thetas`` holds the d-2 colatitudes in [0, pi] (empty when d = 2) and
    ``phi`` the azimuth in [0, 2 pi].
    """

    thetas: tuple[float, ...]
    phi: float
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("AngleVector requires d >= 2")
        if len(self.thetas) != self.d - 2:
            raise ValueError(
                f"expected {self.d - 2} colatitudes for d={self.d}, "
                f"got {len(self.thetas)}"
            )
        for th in self.thetas:
            if not 0.0 <= th <= math.pi:
                raise ValueError(f"colatitude {th} outside [0, pi]")
        if not 0.0 <= self.phi <= TWO_PI:
            raise ValueError(f"azimuth {self.phi} outside [0, 2 pi]")


def _theta_exponent(d: int, nu: float, j: int) -> float:
    # exponent of sin(theta_j), j = 1 .. d-2
    return 2.0 * nu + d - 1.0 - j


def angular_density(a: AngleVector, nu: float) -> float:
    """Joint density of the d-1 angles of one direction."""
    if nu < 0.0:
        raise ValueError("angular_density requires nu >= 0")
    d = a.d
    log_norm = (
        math.lgamma(nu + 0.5 * d)
        - math.lgamma(nu + 0.5)
        - 0.5 * (d - 1) * math.log(math.pi)
        - math.log(2.0)
    )
    # sin^(2 nu) is read as (sin^2)^nu so non-integer nu stays real and
    # non-negative on (pi, 2 pi); integer nu is unchanged
    prod = abs(math.sin(a.phi)) ** (2.0 * nu)
    for j, th in enumerate(a.thetas, start=1):
        prod *= math.sin(th) ** _theta_exponent(d, nu, j)
    return math.exp(log_norm) * prod


def marginal_angular_density(angles, d: int, m: int, nu: float) -> float:
    """Marginal density of the first m angles of the d-dimensional law.

    For m = d-1 nothing is integrated out and the last entry of ``angles``
    is the azimuth in [0, 2 pi]; for m < d-1 all entries are colatitudes.
    """
    if nu < 0.0:
        raise ValueError("marginal_angular_density requires nu >= 0")
    if not 1 <= m < d:
        raise ValueError(f"requires 1 <= m < d, got m={m}, d={d}")
    angles = [float(v) for v in angles]
    if len(angles) != m:
        raise ValueError(f"expected {m} angles, got {len(angles)}")
    if m == d - 1:
        return angular_density(AngleVector(tuple(angles[:-1]), angles[-1], d), nu)
    for th in angles:
        if not 0.0 <= th <= math.pi:
            raise ValueError(f"colatitude {th} outside [0, pi]")
    log_norm = (
        math.lgamma(nu + 0.5 * d)
        - math.lgamma(nu + 0.5 * (d - m))
        - 0.5 * m * math.log(math.pi)
    )
    prod = 1.0
    for j, th in enumerate(angles, start=1):
        prod *= math.sin(th) ** _theta_exponent(d, nu, j)
    return math.exp(log_norm) * prod


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


def sample_angles(d: int, nu: float, rng: np.random.Generator) -> AngleVector:
    """Draw one AngleVector: the angles of one :func:`directions` vector;
    consumes exactly direction_draws(d, nu) uniforms from ``rng``."""
    if d < 2:
        raise ValueError("sample_angles requires d >= 2")
    if nu < 0.0:
        raise ValueError("sample_angles requires nu >= 0")
    thetas, phi = direction_angles(directions(rng.random(direction_draws(d, nu)), d, nu))
    return AngleVector(tuple(map(float, thetas)), float(phi), d)


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


def angles_to_direction(a: AngleVector) -> np.ndarray:
    """The unit vector of one AngleVector: x_1 = cos theta_1,
    x_i = sin theta_1 ... sin theta_{i-1} cos theta_i, and the last two
    components carry the azimuth, x_{d-1} = sin theta_1 ... sin theta_{d-2}
    cos phi and x_d the same with sin phi."""
    angles = np.array(a.thetas + (a.phi,))
    # the running products of 1, sin theta_1, ..., sin theta_{d-2}, sin phi
    # times cos theta_1, ..., cos theta_{d-2}, cos phi, 1
    sins = np.concatenate([[1.0], np.sin(angles)])
    coss = np.concatenate([np.cos(angles), [1.0]])
    return sins.cumprod() * coss
