"""Waiting times between direction changes: a rescaled Dirichlet law.

Given n changes of direction on [0, t], the n+1 waiting times are
t times a Dirichlet vector with all parameters equal to 2 nu + d - 1.
Sampling goes through the gamma-ratio construction (exact, branch-free,
valid for non-integer shape), with each gamma variate obtained by
inverse-CDF so the draw count per sample is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

__all__ = ["IntertimeVector", "intertime_density", "sample_intertimes", "waiting_times"]

# floor for raw uniforms so gammaincinv never returns an exact zero
_U_FLOOR = 1e-300


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


def waiting_times(u, d: int, nu: float, t: float) -> np.ndarray:
    """Inverse transform: uniforms (..., n+1) to waiting times (..., n+1)
    summing to t; the last one is the residual t - sum(rest)."""
    g = gammaincinv(_shape(d, nu), np.maximum(u, _U_FLOOR))
    taus = np.empty_like(g)
    taus[..., :-1] = t * g[..., :-1] / g.sum(axis=-1)[..., None]
    taus[..., -1] = t - taus[..., :-1].sum(axis=-1)
    return taus


def sample_intertimes(
    n: int, d: int, nu: float, t: float, rng: np.random.Generator
) -> IntertimeVector:
    """Draw the n+1 waiting times; consumes exactly n+1 uniforms."""
    if n < 1:
        raise ValueError("sample_intertimes requires n >= 1")
    if d < 2 or nu < 0.0 or t <= 0.0:
        raise ValueError("sample_intertimes requires d >= 2, nu >= 0, t > 0")
    return IntertimeVector(waiting_times(rng.random(n + 1), d, nu, t), t)
