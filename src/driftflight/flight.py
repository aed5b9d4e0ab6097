"""Trajectory assembly and reproducible batch simulation.

A flight makes n+1 straight segments: waiting times from
:mod:`driftflight.temporal`, one independent direction per segment from
:mod:`driftflight.angular`, position accumulated at constant speed c.

Reproducibility contract
------------------------
``simulate_batch(p, count, master_seed)`` is bit-deterministic given its
arguments and independent of how the work is chunked or distributed.
Replicate i owns a dedicated counter-offset substream of a Philox stream
keyed by the master seed (see :func:`replicate_stream`), and every
replicate consumes the same fixed number of uniforms, so row i of a batch
is bit-identical to ``simulate_flight(p, replicate_stream(p, seed, i))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.special import betaincinv, gammaincinv

from .angular import TWO_PI, _azimuth_beta_param, _theta_beta_param, angles_to_direction, sample_angles
from .temporal import _U_FLOOR, IntertimeVector, sample_intertimes

__all__ = [
    "FlightParams",
    "Trajectory",
    "draws_per_flight",
    "project",
    "radial",
    "replicate_stream",
    "simulate_batch",
    "simulate_flight",
]

_DEFAULT_CHUNK = 1 << 18


@dataclass(frozen=True)
class FlightParams:
    """Parameter bundle shared by the simulator and every closed-form law.

    d is the ambient dimension, m the projection dimension (defaults to d),
    n the number of direction changes, nu >= 0 the drift exponent, c the
    speed and t the time horizon.
    """

    d: int
    n: int
    nu: float
    c: float = 1.0
    t: float = 1.0
    m: int | None = None

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", self.d)
        if not all(isinstance(v, Integral) for v in (self.d, self.n, self.m)):
            raise ValueError("FlightParams requires integral d, n and m")
        if not all(math.isfinite(v) for v in (self.nu, self.c, self.t)):
            raise ValueError("FlightParams requires finite nu, c and t")
        if self.d < 2:
            raise ValueError("FlightParams requires d >= 2")
        if not 1 <= self.m <= self.d:
            raise ValueError("FlightParams requires 1 <= m <= d")
        if self.n < 0:
            raise ValueError("FlightParams requires n >= 0")
        if self.nu < 0.0:
            raise ValueError("FlightParams requires nu >= 0")
        if self.c <= 0.0 or self.t <= 0.0:
            raise ValueError("FlightParams requires c > 0 and t > 0")


@dataclass(frozen=True)
class Trajectory:
    """Breakpoints (n+2, d) starting at the origin and the n+2 epochs."""

    breakpoints: np.ndarray
    times: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.breakpoints[-1]


def draws_per_flight(p: FlightParams) -> int:
    """Uniform variates one flight consumes: n+1 for the waiting times
    (none when n = 0) plus d per segment for the angles."""
    if p.n == 0:
        return p.d
    return (p.n + 1) * (p.d + 1)


def _padded_draws(p: FlightParams) -> int:
    # Philox advances in blocks of 4 output doubles; pad so replicate
    # substreams start on block boundaries.
    L = draws_per_flight(p)
    return -(-L // 4) * 4


def replicate_stream(p: FlightParams, master_seed: int, index: int) -> np.random.Generator:
    """Generator positioned at replicate ``index`` of a batch keyed by
    ``master_seed``; feeding it to :func:`simulate_flight` reproduces the
    corresponding batch row exactly."""
    if index < 0:
        raise ValueError("replicate index must be >= 0")
    bg = np.random.Philox(key=master_seed)
    bg.advance(index * (_padded_draws(p) // 4))
    return np.random.Generator(bg)


def simulate_flight(p: FlightParams, rng: np.random.Generator) -> Trajectory:
    """Simulate one flight; n = 0 degenerates to a single segment of
    length c t."""
    if p.n >= 1:
        iv = sample_intertimes(p.n, p.d, p.nu, p.t, rng)
    else:
        iv = IntertimeVector(np.array([p.t]), p.t)
    bps = np.zeros((p.n + 2, p.d), dtype=float)
    times = np.zeros(p.n + 2, dtype=float)
    pos = np.zeros(p.d, dtype=float)
    for k, tau in enumerate(iv.taus):
        direction = angles_to_direction(sample_angles(p.d, p.nu, rng))
        pos = pos + (p.c * tau) * direction
        bps[k + 1] = pos
        times[k + 1] = times[k] + tau
    return Trajectory(bps, times)


def project(tr: Trajectory, m: int) -> np.ndarray:
    """First m coordinates of the final position."""
    d = tr.breakpoints.shape[1]
    if not 1 <= m <= d:
        raise ValueError(f"projection dimension must be in [1, {d}], got {m}")
    return np.array(tr.final[:m], dtype=float)


def radial(x) -> float:
    """Euclidean norm."""
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def _finals_from_uniform_rows(p: FlightParams, U: np.ndarray) -> np.ndarray:
    # Vectorized mirror of simulate_flight: identical elementwise
    # operations in identical order, so rows match the scalar path bitwise.
    count = U.shape[0]
    d, n, nu, c, t = p.d, p.n, p.nu, p.c, p.t
    if n >= 1:
        ut = np.maximum(U[:, : n + 1], _U_FLOOR)
        g = gammaincinv(2.0 * nu + d - 1.0, ut)
        s = g.sum(axis=1)
        taus = np.empty((count, n + 1), dtype=float)
        taus[:, :n] = t * g[:, :n] / s[:, None]
        taus[:, n] = t - taus[:, :n].sum(axis=1)
        col = n + 1
    else:
        taus = np.full((count, 1), t)
        col = 0
    final = np.zeros((count, d), dtype=float)
    comps = np.empty((count, d), dtype=float)
    for k in range(n + 1):
        base = col + k * d
        if d > 2:
            th = np.empty((count, d - 2), dtype=float)
            for j in range(1, d - 1):
                aj = _theta_beta_param(d, nu, j)
                th[:, j - 1] = np.arccos(
                    1.0 - 2.0 * betaincinv(aj, aj, U[:, base + j - 1])
                )
            sins = np.sin(th)
            coss = np.cos(th)
            sp = np.cumprod(sins, axis=1)
        ap = _azimuth_beta_param(nu)
        phi0 = np.arccos(1.0 - 2.0 * betaincinv(ap, ap, U[:, base + d - 2]))
        phi = np.where(U[:, base + d - 1] < 0.5, phi0, TWO_PI - phi0)
        if d == 2:
            comps[:, 0] = np.cos(phi)
            comps[:, 1] = np.sin(phi)
        else:
            comps[:, 0] = coss[:, 0]
            for i in range(1, d - 2):
                comps[:, i] = sp[:, i - 1] * coss[:, i]
            comps[:, d - 2] = sp[:, d - 3] * np.cos(phi)
            comps[:, d - 1] = sp[:, d - 3] * np.sin(phi)
        final += (c * taus[:, k])[:, None] * comps
    return final


def simulate_batch(
    p: FlightParams,
    count: int,
    master_seed: int,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Final positions of ``count`` independent flights, shape (count, d).

    Output is bit-deterministic given (p, count, master_seed) and invariant
    under ``chunk_size``, which only bounds working memory.
    """
    if count < 1:
        raise ValueError("simulate_batch requires count >= 1")
    L = draws_per_flight(p)
    Lpad = _padded_draws(p)
    gen = np.random.Generator(np.random.Philox(key=master_seed))
    finals = np.empty((count, p.d), dtype=float)
    step = chunk_size if chunk_size else _DEFAULT_CHUNK
    done = 0
    while done < count:
        k = min(step, count - done)
        U = gen.random((k, Lpad))
        finals[done : done + k] = _finals_from_uniform_rows(p, U[:, :L])
        done += k
    return finals
