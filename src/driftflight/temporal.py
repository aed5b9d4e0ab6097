"""Waiting times between direction changes: a rescaled Dirichlet law.

Given n changes of direction on [0, t], the n+1 waiting times are
t times a Dirichlet vector with all parameters equal to 2 nu + d - 1.
Sampling goes through the gamma-ratio construction (exact, no rejection).
When the shape 2 nu + d - 1 is an integer (2 nu an integer, the paper's
nu = 0 and nu = 1 cases among them) of at most 64, each Gamma variate is
a sum of -log U over that many uniforms (Devroye 1986, ch. IX);
otherwise it is one inverse-CDF (``gammaincinv``) value.  Either way the
draw count per sample is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

__all__ = [
    "IntertimeVector",
    "intertime_density",
    "sample_intertimes",
    "time_draws",
    "waiting_times",
]

# floor for raw uniforms, which lie in [0, 1): -log, ndtri and gammaincinv
# then see only (0, 1) and never return an infinity or an exact zero
_U_FLOOR = 1e-300

# a longer sum would cost more than its one gammaincinv value and make the
# stream grow with nu
_MAX_SUM_DRAWS = 64


@dataclass(frozen=True)
class IntertimeVector:
    """The n+1 waiting times; the last one is the residual t - sum(rest)."""

    taus: np.ndarray
    t: float

    def __post_init__(self):
        if self.t <= 0.0:
            raise ValueError("IntertimeVector requires t > 0")
        if len(self.taus) < 1:
            raise ValueError("IntertimeVector requires at least one interval")

    @property
    def n(self) -> int:
        return len(self.taus) - 1


def _shape(d: int, nu: float) -> float:
    return 2.0 * nu + d - 1.0


def intertime_density(v: IntertimeVector, d: int, nu: float) -> float:
    """Joint density of the n free waiting times on the open simplex.

    Returns 0 outside the support (a non-positive component or a vector
    that does not sum to the horizon).
    """
    if d < 2 or nu < 0.0:
        raise ValueError("intertime_density requires d >= 2 and nu >= 0")
    n = v.n
    if n < 1:
        raise ValueError("intertime_density requires n >= 1 free coordinates")
    taus = np.asarray(v.taus, dtype=float)
    if np.any(taus <= 0.0) or abs(float(taus.sum()) - v.t) > 1e-9 * v.t:
        return 0.0
    a = _shape(d, nu)
    log_val = (
        math.lgamma((n + 1) * a)
        - (n + 1) * math.lgamma(a)
        + (a - 1.0) * float(np.log(taus).sum())
        - ((n + 1) * a - 1.0) * math.log(v.t)
    )
    return math.exp(log_val)


def _sum_draws(k: float) -> int:
    # uniforms of a variate that is a sum of k one-uniform terms (-log U
    # here, squared normals in angular), or 1 for one gammaincinv value
    return int(k) if k.is_integer() and k <= _MAX_SUM_DRAWS else 1


def time_draws(d: int, nu: float) -> int:
    """Uniforms one waiting time consumes: the shape 2 nu + d - 1 when it is
    an integer up to 64 (a sum of -log U), else 1 (one gammaincinv)."""
    return _sum_draws(_shape(d, nu))


def waiting_times(u, d: int, nu: float, t: float) -> np.ndarray:
    """Transform uniforms (..., (n+1) k) with k = time_draws(d, nu) to
    waiting times (..., n+1) summing to t; waiting time j reads uniforms
    j k .. j k + k-1, and the last one is the residual t - sum(rest)."""
    a, k = _shape(d, nu), time_draws(d, nu)
    u = np.maximum(u, _U_FLOOR)
    if k == a:
        g = -np.log(u.reshape(u.shape[:-1] + (-1, k))).sum(axis=-1)
    else:
        g = gammaincinv(a, u)
    taus = np.empty_like(g)
    taus[..., :-1] = t * g[..., :-1] / g.sum(axis=-1)[..., None]
    taus[..., -1] = t - taus[..., :-1].sum(axis=-1)
    return taus


def sample_intertimes(
    n: int, d: int, nu: float, t: float, rng: np.random.Generator
) -> IntertimeVector:
    """Draw the n+1 waiting times; consumes exactly
    (n+1) time_draws(d, nu) uniforms."""
    if n < 1:
        raise ValueError("sample_intertimes requires n >= 1")
    if d < 2 or nu < 0.0 or t <= 0.0:
        raise ValueError("sample_intertimes requires d >= 2, nu >= 0, t > 0")
    u = rng.random((n + 1) * time_draws(d, nu))
    return IntertimeVector(waiting_times(u, d, nu, t), t)
