"""Trajectory assembly and reproducible batch simulation.

A flight makes n+1 straight segments: waiting times from
:mod:`driftflight.temporal`, one independent direction per segment from
:mod:`driftflight.angular`, position accumulated at constant speed c.
The sampler is structural: normals normalized onto the sphere for the
directions, with chi^2_{2 nu + 1} a Gamma variate for the drifted
coordinate (Z^2 plus one where nu is an integer), and Gamma variates for
the waiting times.  :mod:`driftflight.temporal` holds the one rule for
both: a sum of -log U at an integer shape up to 4, else one inverse-CDF
value from a quantile table built once per shape.

Reproducibility contract
------------------------
``simulate_batch(p, count, master_seed)`` is bit-deterministic given its
arguments and independent of how the work is cut into chunks of rows
(about 2^15 uniforms each, to bound working memory) or spread over
threads.  Replicate i owns a dedicated counter-offset substream of a
Philox stream keyed by the master seed (see :func:`replicate_stream`),
and every replicate consumes the same fixed number of uniforms.  All
entry points run one sampler kernel on rows of those uniforms:
``simulate_flight`` on one row, and ``_simulate`` on chunks of rows,
summing each row's final position and keeping the trajectories of rows
below K (``simulate_batch`` at K = 0, ``simulate_trajectories`` at
K = count, ``driftflight simulate`` at its --trajectories).  A call of
``_MIN_THREADED_DRAWS`` uniforms or more cuts its rows into one
contiguous range per worker thread, up to one per CPU of
``os.sched_getaffinity``; each range starts its own Philox at its first
row's substream, so the output does not depend on the worker count.  The
kernel transforms all n+1 segments of a row at once, summing over short
axes column by column, so a row's arithmetic does not depend on how many
rows share the call; positions and epochs are then cumulative sums from
zero in segment order.  Row i of a batch, trajectory i of
``simulate_trajectories`` and
``simulate_flight(p, replicate_stream(p, seed, i))`` are therefore the
same kernel on the same uniforms, and bit-identical.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .angular import _scaled_directions, direction_draws
from .temporal import _waiting_times, time_draws

# unused here, but bench/tracing.py wraps these five names on this module;
# the two draw wrappers sample_angles and sample_intertimes leave with them
# when the benchmark drops those wraps (ROADMAP item 1)
from scipy.special import betaincinv, gammaincinv  # noqa: F401
from .angular import angles_to_direction, sample_angles  # noqa: F401
from .temporal import sample_intertimes  # noqa: F401

__all__ = [
    "FlightParams",
    "Trajectory",
    "draws_per_flight",
    "replicate_stream",
    "simulate_batch",
    "simulate_flight",
    "simulate_trajectories",
]

# uniforms per sampler chunk (256 KiB): a chunk holds this many over its
# rows (at least one row), so working memory stays flat however many
# uniforms a flight consumes; the kernel's temporaries scale with the chunk
_CHUNK_DRAWS = 1 << 15

# calls of fewer uniforms run on the calling thread alone.  On 2 vCPUs,
# alternating 1- and 2-worker calls over the mc_batch cells and d8 n9 nu1,
# a second worker lost 5-16% at 33 000 uniforms in two chunks, gained
# 7-18% at 50 000 and 14-35% at 65 536; the kernel's small numpy calls
# contend for the GIL, and calls cut into eight shorter chunks lost at up
# to 100 000
_MIN_THREADED_DRAWS = 2 * _CHUNK_DRAWS


@dataclass(frozen=True)
class FlightParams:
    """Parameter bundle shared by the simulator and every closed-form law.

    d is the ambient dimension, m the projection dimension (defaults to d),
    n the number of direction changes, nu >= 0 the drift exponent, c the
    speed and t the time horizon, checked here once for the package.
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
        if any(isinstance(v, (bool, np.bool_)) for v in vars(self).values()):
            raise ValueError("FlightParams takes no booleans")
        if not all(isinstance(v, Integral) for v in (self.d, self.n, self.m)):
            raise ValueError("FlightParams requires integral d, n and m")
        # stored as Python ints: numpy's overflow in the exact nu = 1
        # constants, whose cache by (d, n) takes np.int64(8) and 8 as one key
        for name in ("d", "n", "m"):
            object.__setattr__(self, name, int(getattr(self, name)))
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
        if not 0.0 < self.c * self.t < math.inf:
            raise ValueError(f"FlightParams requires 0 < c t < inf, got c t = {self.c * self.t!r}")


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
    ``time_draws(p)`` each (none when n = 0), then the n+1 directions,
    ``direction_draws(p)`` each."""
    times = (p.n + 1) * time_draws(p) if p.n >= 1 else 0
    return times + (p.n + 1) * direction_draws(p)


def _padded_draws(p: FlightParams) -> int:
    # Philox advances in blocks of 4 output doubles; pad so replicate
    # substreams start on block boundaries.
    L = draws_per_flight(p)
    return -(-L // 4) * 4


def _check_seed(master_seed) -> None:
    # Philox keys are 128-bit; numpy would truncate a fractional or boolean
    # key to an integer (1.5 and True both give seed 1's stream) unannounced
    integral = isinstance(master_seed, Integral) and not isinstance(master_seed, bool)
    if not (integral and 0 <= master_seed < 1 << 128):
        raise ValueError(f"master_seed must be an integer in [0, 2**128), got {master_seed!r}")


def _integer(name: str, value) -> int:
    # any integer type, numpy's too, as a Python int, which Philox.advance
    # needs; a boolean or a float would be read as an integer unannounced
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def replicate_stream(p: FlightParams, master_seed: int, index: int) -> np.random.Generator:
    """Generator positioned at replicate ``index`` of a batch keyed by
    ``master_seed``; feeding it to :func:`simulate_flight` reproduces the
    corresponding batch row exactly."""
    _check_seed(master_seed)
    index = _integer("replicate index", index)
    if index < 0:
        raise ValueError("replicate index must be >= 0")
    bg = np.random.Philox(key=master_seed)
    bg.advance(index * (_padded_draws(p) // 4))
    return np.random.Generator(bg)


def _segments(p: FlightParams, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sampler kernel: uniform rows (count, draws_per_flight(p)) to the
    waiting times (count, n+1) and displacements (count, n+1, d) of every
    segment, all segments in one transform."""
    if p.n >= 1:
        col = (p.n + 1) * time_draws(p)
        taus = _waiting_times(p, U[:, :col])
    else:
        col, taus = 0, np.full((len(U), 1), p.t)
    # splitting the row axis is a view, also of a strided chunk
    u = U[:, col:].reshape(len(U), p.n + 1, direction_draws(p))
    return taus, _scaled_directions(u, p.d, p.nu, p.c * taus)


def _paths(taus: np.ndarray, steps: np.ndarray) -> Trajectory:
    # positions and epochs accumulate from zero in segment order, summed in
    # place after a zero first row (so a -0.0 first step lands as 0.0)
    rows, segs = taus.shape
    bps, times = np.zeros((rows, segs + 1, steps.shape[2])), np.zeros((rows, segs + 1))
    bps[:, 1:], times[:, 1:] = steps, taus
    return Trajectory(bps.cumsum(axis=1, out=bps), times.cumsum(axis=1, out=times))


def simulate_flight(p: FlightParams, rng: np.random.Generator) -> Trajectory:
    """Simulate one flight: the batch kernel on one row of
    ``draws_per_flight(p)`` uniforms.  n = 0 degenerates to a single
    segment of length c t."""
    tr = _paths(*_segments(p, rng.random((1, draws_per_flight(p)))))
    return Trajectory(tr.breakpoints[0], tr.times[0])


def _cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rows_per_chunk(p: FlightParams) -> int:
    """Rows of one sampler chunk: those that hold ``_CHUNK_DRAWS`` padded
    uniforms, at least one."""
    return max(1, _CHUNK_DRAWS // _padded_draws(p))


_pool = None


def _worker_pool() -> concurrent.futures.ThreadPoolExecutor:
    """The threads that run every range past the first: started on first
    use and kept, as starting a thread per call took 7% more mc_batch
    wall time than this pool."""
    global _pool
    if _pool is None:
        _pool = concurrent.futures.ThreadPoolExecutor(os.cpu_count() or 1, "driftflight")
    return _pool


def _forget_pool() -> None:
    # a forked child has none of its parent's threads: it starts its own
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def simulate_batch(p: FlightParams, count: int, master_seed: int) -> np.ndarray:
    """Final positions of ``count`` independent flights, shape (count, d).

    Output is bit-deterministic given (p, count, master_seed), with
    ``master_seed`` an integer in [0, 2**128), and invariant under the
    worker count and the rows per chunk; a chunk holds about 2^15
    uniforms, which bounds working memory.
    """
    return _simulate(p, count, master_seed, 0)[0]


def simulate_trajectories(p: FlightParams, count: int, master_seed: int) -> Trajectory:
    """Breakpoints (count, n+2, d) and epochs (count, n+2) of batch rows
    0..count-1: trajectory i is bit-identical to :func:`simulate_flight` on
    ``replicate_stream(p, master_seed, i)``, its end to batch row i."""
    return _simulate(p, count, master_seed, count)[1]


def _simulate(p: FlightParams, count: int, master_seed: int, keep: int):
    """The final positions (count, d) of batch rows 0..count-1 and the
    :class:`Trajectory` of rows 0..keep-1 (None at keep = 0), every row
    sampled once.

    A call of ``_MIN_THREADED_DRAWS`` uniforms or more cuts the rows into
    one contiguous, balanced range per worker, a worker per CPU but no
    more workers than chunks; others run one range.  The calling thread
    walks the first range and the worker pool each other one.  A range
    draws from its own Philox, positioned at its first row as
    :func:`replicate_stream` positions it, and walks its rows a chunk at a
    time, so every row gets the same uniforms, and the same bits, whatever
    the worker count.  Workers write disjoint rows of the outputs.
    """
    count = _integer("count", count)
    if count < 1:
        raise ValueError("a batch requires count >= 1")
    _check_seed(master_seed)
    L, Lpad, step = draws_per_flight(p), _padded_draws(p), _rows_per_chunk(p)
    workers = 1 if count * Lpad < _MIN_THREADED_DRAWS else min(_cpus(), -(-count // step))
    bounds = [count * k // workers for k in range(workers + 1)]
    finals = np.zeros((count, p.d))
    taus = np.empty((keep, p.n + 1))
    steps = np.empty((keep, p.n + 1, p.d))

    def walk(start: int, stop: int) -> None:
        gen = replicate_stream(p, master_seed, start)
        for first in range(start, stop, step):
            size = min(step, stop - first)
            chunk_taus, chunk_steps = _segments(p, gen.random((size, Lpad))[:, :L])
            rows = finals[first : first + size]
            # segment by segment from zero, the order simulate_flight sums in
            for j in range(p.n + 1):
                rows += chunk_steps[:, j]
            if first < keep:
                taus[first : first + size] = chunk_taus[: keep - first]
                steps[first : first + size] = chunk_steps[: keep - first]

    futures = [_worker_pool().submit(walk, *r) for r in zip(bounds[1:-1], bounds[2:])]
    try:
        walk(bounds[0], bounds[1])
    finally:
        concurrent.futures.wait(futures)
    for f in futures:
        f.result()  # raises a worker's exception here
    return finals, _paths(taus, steps) if keep else None
