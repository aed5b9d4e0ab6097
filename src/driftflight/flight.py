"""Trajectory assembly and reproducible batch simulation.

A flight makes n+1 straight segments: waiting times from
:mod:`driftflight.temporal`, one independent direction per segment from
:mod:`driftflight.angular`, position accumulated at constant speed c.
The sampler is structural: normals normalized onto the sphere for the
directions and sums of -log U for the Gamma variates of the waiting times,
with one inverse-CDF Gamma value per variate only where 2 nu is not an
integer (or a sum would take more than 64 uniforms); that value comes
from a quantile table built once per shape
(:func:`driftflight.temporal.gamma_quantile`).

Reproducibility contract
------------------------
``simulate_batch(p, count, master_seed)`` is bit-deterministic given its
arguments and independent of how the work is chunked or distributed.
Replicate i owns a dedicated counter-offset substream of a Philox stream
keyed by the master seed (see :func:`replicate_stream`), and every
replicate consumes the same fixed number of uniforms.  All entry points
run one sampler kernel on rows of those uniforms: ``simulate_batch`` and
``simulate_trajectories`` on chunks of rows, ``simulate_flight`` on one
row.  The kernel transforms all n+1 segments of a row at once; positions
and epochs are then cumulative sums from zero in segment order.  Row i of
a batch, trajectory i of ``simulate_trajectories`` and
``simulate_flight(p, replicate_stream(p, seed, i))`` are therefore the
same kernel on the same uniforms, and bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .angular import direction_draws, directions
from .temporal import time_draws, waiting_times

# unused here, but bench/tracing.py wraps these five names on this module
from scipy.special import betaincinv, gammaincinv  # noqa: F401
from .angular import angles_to_direction, sample_angles  # noqa: F401
from .temporal import sample_intertimes  # noqa: F401

__all__ = [
    "FlightParams",
    "Trajectory",
    "draws_per_flight",
    "project",
    "radial",
    "replicate_stream",
    "simulate_batch",
    "simulate_flight",
    "simulate_trajectories",
]

# uniforms per simulate_batch chunk (256 KiB): the default chunk holds this
# many over its rows, so working memory stays flat however many uniforms a
# flight consumes; the kernel's temporaries scale with the whole chunk
_CHUNK_DRAWS = 1 << 15


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
    """Breakpoints (..., n+2, d) starting at the origin and the epochs
    (..., n+2); a leading axis, if any, indexes replicates."""

    breakpoints: np.ndarray
    times: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.breakpoints[..., -1, :]


def draws_per_flight(p: FlightParams) -> int:
    """Uniform variates one flight consumes: the n+1 waiting times first,
    ``time_draws(d, nu)`` each (none when n = 0), then the n+1 directions,
    ``direction_draws(d, nu)`` each."""
    times = (p.n + 1) * time_draws(p.d, p.nu) if p.n >= 1 else 0
    return times + (p.n + 1) * direction_draws(p.d, p.nu)


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


def _segments(p: FlightParams, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sampler kernel: uniform rows (count, draws_per_flight(p)) to the
    waiting times (count, n+1) and displacements (count, n+1, d) of every
    segment, all segments in one transform."""
    n, d, nu = p.n, p.d, p.nu
    if n >= 1:
        col = (n + 1) * time_draws(d, nu)
        taus = waiting_times(U[:, :col], d, nu, p.t)
    else:
        col, taus = 0, np.full((len(U), 1), p.t)
    # splitting the row axis is a view, also of a strided chunk
    u = U[:, col:].reshape(len(U), n + 1, direction_draws(d, nu))
    return taus, (p.c * taus)[..., None] * directions(u, d, nu)


def _paths(taus: np.ndarray, steps: np.ndarray) -> Trajectory:
    # positions and epochs accumulate from zero in segment order
    zero = ((0, 0), (1, 0))
    bps = np.pad(steps, zero + ((0, 0),)).cumsum(axis=1)
    return Trajectory(bps, np.pad(taus, zero).cumsum(axis=1))


def simulate_flight(p: FlightParams, rng: np.random.Generator) -> Trajectory:
    """Simulate one flight: the batch kernel on one row of
    ``draws_per_flight(p)`` uniforms.  n = 0 degenerates to a single
    segment of length c t."""
    tr = _paths(*_segments(p, rng.random((1, draws_per_flight(p)))))
    return Trajectory(tr.breakpoints[0], tr.times[0])


def project(tr: Trajectory, m: int) -> np.ndarray:
    """First m coordinates of the final position(s)."""
    d = tr.breakpoints.shape[-1]
    if not 1 <= m <= d:
        raise ValueError(f"projection dimension must be in [1, {d}], got {m}")
    return np.array(tr.final[..., :m], dtype=float)


def radial(x) -> float:
    """Euclidean norm."""
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def _chunks(p: FlightParams, count: int, master_seed: int, chunk_size: int | None = None):
    """``(first row, (taus, steps))`` of the kernel on batch rows
    0..count-1, chunk by chunk; the arguments are checked on the call."""
    L = draws_per_flight(p)
    Lpad = _padded_draws(p)
    step = max(1, _CHUNK_DRAWS // Lpad) if chunk_size is None else chunk_size
    if count < 1 or step < 1:
        raise ValueError("a batch requires count >= 1 and chunk_size >= 1")
    gen = np.random.Generator(np.random.Philox(key=master_seed))
    return (
        (done, _segments(p, gen.random((min(step, count - done), Lpad))[:, :L]))
        for done in range(0, count, step)
    )


def simulate_batch(
    p: FlightParams,
    count: int,
    master_seed: int,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Final positions of ``count`` independent flights, shape (count, d).

    Output is bit-deterministic given (p, count, master_seed) and invariant
    under ``chunk_size``, the rows per chunk, which only bounds working
    memory; by default a chunk holds about 2^15 uniforms.
    """
    chunks = _chunks(p, count, master_seed, chunk_size)
    finals = np.zeros((count, p.d), dtype=float)
    for done, (_, steps) in chunks:
        rows = finals[done : done + len(steps)]
        # segment by segment from zero, the order simulate_flight sums in
        for j in range(p.n + 1):
            rows += steps[:, j]
    return finals


def simulate_trajectories(p: FlightParams, count: int, master_seed: int) -> Trajectory:
    """Breakpoints (count, n+2, d) and epochs (count, n+2) of batch rows
    0..count-1: trajectory i is bit-identical to :func:`simulate_flight` on
    ``replicate_stream(p, master_seed, i)``, its end to batch row i."""
    taus, steps = zip(*(segs for _, segs in _chunks(p, count, master_seed)))
    return _paths(np.concatenate(taus), np.concatenate(steps))
