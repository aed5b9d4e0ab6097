"""Directions on the unit sphere under the sin-power drift family.

The angular law in dimension d has density proportional to
sin^(2 nu + d - 2) theta_1 ... sin^(2 nu + 1) theta_{d-2} sin^(2 nu) phi
on [0, pi]^(d-2) x [0, 2 pi].  nu = 0 is the uniform law on the sphere;
increasing nu concentrates the azimuth near pi/2 and 3 pi/2.

Sampling is exact inversion, not rejection: each colatitude has
cos theta = 1 - 2 B with B a symmetric Beta variate, and the azimuth is a
[0, pi] variate of the same kind plus a fair reflection coin (the
sin^(2 nu) profile is symmetric about pi).  Every draw consumes a fixed
number of uniforms, which is what makes the batched simulation in
:mod:`driftflight.flight` bit-reproducible replicate by replicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betaincinv

__all__ = [
    "AngleVector",
    "angles_from_uniforms",
    "angles_to_direction",
    "angular_density",
    "marginal_angular_density",
    "sample_angles",
    "unit_vectors",
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


def _theta_beta_param(d: int, nu: float, j: int) -> float:
    # cos(theta_j) = 1 - 2B with B ~ Beta(a, a) gives density prop. to
    # sin^{2a-1}; match 2a - 1 to the sin exponent.
    return 0.5 * (_theta_exponent(d, nu, j) + 1.0)


def _azimuth_beta_param(nu: float) -> float:
    return nu + 0.5


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


@lru_cache(maxsize=256)
def _beta_params(d: int, nu: float) -> np.ndarray:
    # the symmetric Beta parameter of each of the d-1 angles: the d-2
    # colatitudes, then the [0, pi] part of the azimuth
    a = np.array(
        [_theta_beta_param(d, nu, j) for j in range(1, d - 1)] + [_azimuth_beta_param(nu)]
    )
    a.flags.writeable = False
    return a


def angles_from_uniforms(u, d: int, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverse transform: uniforms (..., d) to colatitudes (..., d-2) and
    azimuths (...).  The first d-2 uniforms give the colatitudes, the next
    the azimuth's [0, pi] part and the last its reflection coin."""
    u = np.asarray(u, dtype=float)
    a = _beta_params(d, nu)
    angles = np.arccos(1.0 - 2.0 * betaincinv(a, a, u[..., : d - 1]))
    phi0 = angles[..., -1]
    return angles[..., :-1], np.where(u[..., d - 1] < 0.5, phi0, TWO_PI - phi0)


def unit_vectors(thetas, phi) -> np.ndarray:
    """Map colatitudes (..., d-2) and azimuths (...) to unit vectors
    (..., d): x_1 = cos theta_1, x_i = sin theta_1 ... sin theta_{i-1}
    cos theta_i, and the last two components carry the azimuth,
    x_{d-1} = sin theta_1 ... sin theta_{d-2} cos phi and x_d the same
    with sin phi."""
    angles = np.concatenate(
        [np.asarray(thetas, dtype=float), np.asarray(phi, dtype=float)[..., None]], axis=-1
    )
    # the running products of 1, sin theta_1, ..., sin theta_{d-2}, sin phi
    # times cos theta_1, ..., cos theta_{d-2}, cos phi, 1 (x * 1 is exact);
    # sin and cos fill fresh contiguous arrays, so one row and a batch run
    # the same numpy loop and give the same bits
    shape = angles.shape[:-1] + (angles.shape[-1] + 1,)
    sins, coss = np.empty(shape), np.empty(shape)
    sins[..., 0] = coss[..., -1] = 1.0
    sins[..., 1:] = np.sin(angles)
    coss[..., :-1] = np.cos(angles)
    return sins.cumprod(axis=-1) * coss


def sample_angles(d: int, nu: float, rng: np.random.Generator) -> AngleVector:
    """Draw one AngleVector; consumes exactly d uniforms from ``rng``."""
    if d < 2:
        raise ValueError("sample_angles requires d >= 2")
    if nu < 0.0:
        raise ValueError("sample_angles requires nu >= 0")
    thetas, phi = angles_from_uniforms(rng.random(d), d, nu)
    return AngleVector(tuple(map(float, thetas)), float(phi), d)


def angles_to_direction(a: AngleVector) -> np.ndarray:
    """The unit vector of one AngleVector (see :func:`unit_vectors`)."""
    return unit_vectors(a.thetas, a.phi)
