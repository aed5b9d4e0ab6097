import math
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincinv, ndtri

from driftflight import analytic, flight
from driftflight.analytic import density_nu1, radial_density_nu1, radial_moment
from driftflight.angular import angles_to_direction, sample_angles
from driftflight.flight import (
    _CHUNK_DRAWS,
    FlightParams,
    _cpus,
    _padded_draws,
    _paths,
    _segments,
    draws_per_flight,
    replicate_stream,
    simulate_batch,
    simulate_flight,
    simulate_trajectories,
)
from driftflight.temporal import sample_intertimes


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_paths_are_the_cumulative_sums_from_a_zero_row():
    # bit for bit the sums of the steps and waiting times after a zero
    # first row, also where a first step is -0.0
    p = FlightParams(d=3, n=2, nu=1.0)
    for rows in (1, 7):
        taus, steps = _segments(p, _rng(rows).random((rows, draws_per_flight(p))))
        steps[0, 0, 0] = -0.0
        tr = _paths(taus, steps)
        zero = ((0, 0), (1, 0))
        want = np.pad(steps, zero + ((0, 0),)).cumsum(axis=1)
        assert tr.breakpoints.tobytes() == want.tobytes()
        assert tr.times.tobytes() == np.pad(taus, zero).cumsum(axis=1).tobytes()


def test_params_validation():
    with pytest.raises(ValueError):
        FlightParams(d=1, n=1, nu=0.0)
    with pytest.raises(ValueError):
        FlightParams(d=3, n=-1, nu=0.0)
    with pytest.raises(ValueError):
        FlightParams(d=3, n=1, nu=-0.5)
    with pytest.raises(ValueError):
        FlightParams(d=3, n=1, nu=0.0, c=0.0)
    with pytest.raises(ValueError):
        FlightParams(d=3, n=1, nu=0.0, m=4)
    with pytest.raises(ValueError):
        FlightParams(d=3, n=1, nu=math.nan)
    with pytest.raises(ValueError):
        FlightParams(d=3, n=1, nu=0.0, c=math.inf)
    for scale in (1e200, 1e-200):  # finite c and t whose product leaves the doubles
        with pytest.raises(ValueError, match="0 < c t < inf"):
            FlightParams(d=3, n=1, nu=0.0, c=scale, t=scale)
    with pytest.raises(ValueError):
        FlightParams(d=2.5, n=1, nu=0.0)
    with pytest.raises(ValueError):
        FlightParams(d=3, n=1.5, nu=0.0)
    p = FlightParams(d=3, n=1, nu=0.0)
    assert p.m == 3  # defaults to the ambient dimension


@pytest.mark.parametrize("field", ["d", "n", "nu", "c", "t", "m"])
def test_params_reject_booleans(field):
    # True is an int to Python and 1.0 to math; a boolean is never a number
    # here, as the CLI and the seed check have it
    fields = {"d": 3, "n": 1, "nu": 1.0, "c": 1.0, "t": 1.0, "m": 1}
    FlightParams(**fields)
    with pytest.raises(ValueError, match="booleans"):
        FlightParams(**{**fields, field: True})
    with pytest.raises(ValueError, match="booleans"):
        FlightParams(**{**fields, field: np.True_})


def test_n0_single_segment_has_radius_ct():
    p = FlightParams(d=3, n=0, nu=1.0, c=2.0, t=1.5)
    tr = simulate_flight(p, _rng(5))
    assert tr.breakpoints.shape == (2, 3)
    assert np.linalg.norm(tr.final) == pytest.approx(p.c * p.t, rel=1e-12)


def test_trajectory_segments_match_intertimes():
    p = FlightParams(d=4, n=3, nu=1.0, c=1.3, t=2.0)
    seed = 77
    tr = simulate_flight(p, replicate_stream(p, seed, 0))
    # the same stream replayed through the temporal module and then the
    # angular module gives the exact waiting times and directions the
    # trajectory consumed
    replay = replicate_stream(p, seed, 0)
    taus = sample_intertimes(p, replay)
    np.testing.assert_allclose(np.diff(tr.times), taus, rtol=0, atol=1e-15)
    steps = np.diff(tr.breakpoints, axis=0)
    for k in range(p.n + 1):
        assert np.linalg.norm(steps[k]) == pytest.approx(p.c * taus[k], abs=1e-9)
        direction = angles_to_direction(*sample_angles(p, replay))
        np.testing.assert_allclose(steps[k] / (p.c * taus[k]), direction, rtol=0, atol=1e-12)
    assert tr.times[-1] == pytest.approx(p.t, rel=1e-12)
    assert tr.breakpoints.shape == (p.n + 2, p.d)


def test_speed_bound_over_grid():
    total = 0
    for d, nu, n in ((2, 0.0, 1), (3, 1.0, 2), (4, 1.0, 3), (5, 0.5, 2)):
        p = FlightParams(d=d, n=n, nu=nu, c=1.1, t=0.9)
        finals = simulate_batch(p, 25_000, 1000 + d)
        total += len(finals)
        assert np.linalg.norm(finals, axis=1).max() <= p.c * p.t + 1e-9
    assert total == 100_000


def test_second_moment_planar_uniform_matches_moment_formula():
    # E ||X||^2 for d=2, nu=0, n=1 equals 2/3; independently the norm
    # formula value at m = d = 2 (the law is isotropic at nu = 0)
    p = FlightParams(d=2, n=1, nu=0.0)
    target = radial_moment(p, 2)
    assert target == pytest.approx(2.0 / 3.0, rel=1e-12)
    finals = simulate_batch(p, 100_000, 2024)
    sq = (finals**2).sum(axis=1)
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - target) <= 3.0 * se


def test_batch_is_deterministic():
    p = FlightParams(d=3, n=2, nu=1.0)
    a = simulate_batch(p, 500, 99)
    b = simulate_batch(p, 500, 99)
    assert np.array_equal(a, b)


_CELLS = [(2, 1, 0.0), (3, 2, 1.0), (4, 0, 0.5), (5, 3, 2.0), (2, 0, 0.0), (3, 9, 0.3)]


@pytest.mark.parametrize("d,n,nu", _CELLS)
def test_batch_rows_equal_sequential_flights(d, n, nu):
    p = FlightParams(d=d, n=n, nu=nu, c=0.7, t=1.4)
    seed = 31337
    batch = simulate_batch(p, 40, seed)
    for i in range(40):
        tr = simulate_flight(p, replicate_stream(p, seed, i))
        assert np.array_equal(tr.final, batch[i]), f"replicate {i}"


# the last cell spans two default chunks (630 rows of 52 padded draws)
@pytest.mark.parametrize("d,n,nu,count", [(*cell, 40) for cell in _CELLS] + [(3, 9, 0.3, 700)])
def test_trajectories_equal_sequential_flights(d, n, nu, count):
    p = FlightParams(d=d, n=n, nu=nu, c=0.7, t=1.4)
    seed = 31337
    tr = simulate_trajectories(p, count, seed)
    assert tr.breakpoints.shape == (count, n + 2, d) and tr.times.shape == (count, n + 2)
    if count > 40:
        assert count > _CHUNK_DRAWS // _padded_draws(p)
    for i in range(count):
        one = simulate_flight(p, replicate_stream(p, seed, i))
        # bit for bit, signed zeros included
        assert tr.breakpoints[i].tobytes() == one.breakpoints.tobytes(), f"replicate {i}"
        assert tr.times[i].tobytes() == one.times.tobytes(), f"replicate {i}"
    assert tr.final.tobytes() == simulate_batch(p, count, seed).tobytes()


def _chunk_rows(monkeypatch, p: FlightParams, rows: int) -> None:
    """Cut later sampler calls on ``p`` into chunks of ``rows`` rows."""
    monkeypatch.setattr(flight, "_CHUNK_DRAWS", rows * _padded_draws(p))
    assert flight._rows_per_chunk(p) == rows


def test_batch_chunking_does_not_change_output(monkeypatch):
    p = FlightParams(d=3, n=1, nu=1.0)
    base = simulate_batch(p, 1_000, 7)
    for rows in (1, 7, 64, 999, 1_000, 4_096):
        _chunk_rows(monkeypatch, p, rows)
        assert np.array_equal(base, simulate_batch(p, 1_000, 7))


def test_batch_contract_at_non_integer_two_nu(monkeypatch):
    # 2 nu = 0.6 runs every Gamma variate through gamma_quantile
    p = FlightParams(d=3, n=2, nu=0.3)
    base = simulate_batch(p, 1_000, 7)
    for rows in (1, 7, 999):
        _chunk_rows(monkeypatch, p, rows)
        assert np.array_equal(base, simulate_batch(p, 1_000, 7))
    for i in (0, 1, 500, 999):
        assert np.array_equal(simulate_flight(p, replicate_stream(p, 7, i)).final, base[i])


def _threads_seen(monkeypatch, workers: int) -> set:
    """Give later sampler calls ``workers`` workers from two chunks on;
    returns the set that collects the ids of the threads running the
    kernel."""
    seen = set()
    kernel = flight._segments

    def traced(p, U):
        seen.add(threading.get_ident())
        return kernel(p, U)

    monkeypatch.setattr(flight, "_segments", traced)
    monkeypatch.setattr(flight, "_cpus", lambda: workers)
    monkeypatch.setattr(flight, "_MIN_THREADED_DRAWS", 0)
    return seen


@pytest.mark.parametrize("d,n,nu", _CELLS)
def test_output_does_not_depend_on_worker_count(d, n, nu, monkeypatch):
    p = FlightParams(d=d, n=n, nu=nu, c=0.7, t=1.4)
    chunk = _CHUNK_DRAWS // _padded_draws(p)
    # one chunk, one chunk and a row, and an odd count over three chunks
    for count in (chunk, chunk + 1, 3 * chunk + 1 + chunk % 2):
        runs = []
        for workers in (1, 2):
            seen = _threads_seen(monkeypatch, workers)
            batch = simulate_batch(p, count, 4242)
            tr = simulate_trajectories(p, count, 4242)
            # a call that fits in one chunk stays on the calling thread
            assert len(seen) == (2 if workers == 2 and count > chunk else 1), (workers, count)
            runs.append((batch.tobytes(), tr.breakpoints.tobytes(), tr.times.tobytes()))
        assert runs[0] == runs[1], count


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_rows_beside_kept_trajectories(monkeypatch, workers):
    # the finals of a run that keeps the trajectories of rows 0..keep-1,
    # at any keep, have the batch's bits, and so do the rows keep..count-1
    # that no trajectory covers
    p = FlightParams(d=3, n=2, nu=1.0)
    count = 3 * _CHUNK_DRAWS // _padded_draws(p) + 5
    monkeypatch.setattr(flight, "_cpus", lambda: workers)
    batch = simulate_batch(p, count, 77)
    for start in (0, 1, 1000, count // 2, count - 1, count):
        finals, tr = flight._simulate(p, count, 77, start)
        rows = finals[start:]
        assert rows.shape == (count - start, 3)
        assert rows.tobytes() == batch[start:].tobytes(), start
        assert (tr is None) == (start == 0)
        if tr is not None:
            assert tr.final.tobytes() == batch[:start].tobytes(), start


def test_sampler_falls_back_to_one_worker_on_one_cpu(monkeypatch):
    p = FlightParams(d=3, n=2, nu=1.0)
    count = 4 * _CHUNK_DRAWS // _padded_draws(p)
    seen = _threads_seen(monkeypatch, 2)
    threaded = simulate_batch(p, count, 5)
    assert len(seen) == 2
    seen.clear()
    monkeypatch.setattr(flight, "_cpus", _cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _cpus() == 1
    assert simulate_batch(p, count, 5).tobytes() == threaded.tobytes()
    assert seen == {threading.get_ident()}
    # without an affinity call the machine's CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _cpus() == 1


def test_worker_error_is_raised_on_the_calling_thread(monkeypatch):
    p = FlightParams(d=3, n=2, nu=1.0)
    caller = threading.get_ident()
    _threads_seen(monkeypatch, 2)
    kernel = flight._segments

    def failing(p, U):
        if threading.get_ident() != caller:
            raise FloatingPointError("worker")
        return kernel(p, U)

    monkeypatch.setattr(flight, "_segments", failing)
    with pytest.raises(FloatingPointError, match="worker"):
        simulate_batch(p, 3 * _CHUNK_DRAWS // _padded_draws(p), 5)


def test_concurrent_callers_share_the_pool(monkeypatch):
    # more workers than cores, several callers at once and a short switch
    # interval: a row written twice or not at all changes the bits
    p = FlightParams(d=3, n=2, nu=0.3)
    count = 2_000
    _chunk_rows(monkeypatch, p, 37)
    expected = simulate_batch(p, count, 3).tobytes()
    _threads_seen(monkeypatch, 8)
    results = {}

    def call(k):
        results[k] = simulate_batch(p, count, 3).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        for th in callers:
            th.start()
        for th in callers:
            th.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in callers)
    assert results == {k: expected for k in range(4)}


def _forked_batch(conn, p, count, seed, seen):
    conn.send((simulate_batch(p, count, seed).tobytes(), len(seen)))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_forked_child_runs_threaded_batch(monkeypatch):
    p = FlightParams(d=3, n=2, nu=1.0)
    count = 3 * _CHUNK_DRAWS // _padded_draws(p) + 1
    seen = _threads_seen(monkeypatch, 2)
    parent = simulate_batch(p, count, 11).tobytes()
    assert len(seen) == 2
    seen.clear()
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_forked_batch, args=(sender, p, count, 11, seen))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the forked child did not answer within 60 s"
        rows, threads = receiver.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert rows == parent and threads == 2


def test_batch_prefix_stability():
    # shorter batches are prefixes of longer ones with the same seed
    p = FlightParams(d=2, n=2, nu=0.0)
    long = simulate_batch(p, 300, 5)
    short = simulate_batch(p, 120, 5)
    assert np.array_equal(long[:120], short)


def test_batch_mean_vanishes_under_uniform_law():
    p = FlightParams(d=3, n=2, nu=0.0)
    finals = simulate_batch(p, 100_000, 321)
    n = len(finals)
    for i in range(3):
        col = finals[:, i]
        assert abs(col.mean()) <= 3.0 * col.std(ddof=1) / math.sqrt(n)


def test_draws_per_flight_counts():
    # (n+1) waiting times of 2 nu + d - 1 uniforms each (one when that is
    # not an integer, none when n = 0), then (n+1) directions: at integer
    # nu, nu logs and d normals; at half-integer nu, d - 1 normals,
    # nu + 1/2 logs and a sign; otherwise d - 1 normals, one uniform for
    # gamma_quantile and a sign.  A sum of more than 4 terms (shape or
    # logs) takes one uniform instead.
    assert draws_per_flight(FlightParams(d=3, n=0, nu=0.0)) == 3
    assert draws_per_flight(FlightParams(d=3, n=2, nu=0.0)) == 15
    assert draws_per_flight(FlightParams(d=2, n=1, nu=0.0)) == 6
    assert draws_per_flight(FlightParams(d=3, n=2, nu=1.0)) == 24
    assert draws_per_flight(FlightParams(d=3, n=2, nu=0.3)) == 15
    assert draws_per_flight(FlightParams(d=3, n=2, nu=1.5)) == 18
    assert draws_per_flight(FlightParams(d=3, n=1, nu=4.0)) == 16
    assert draws_per_flight(FlightParams(d=3, n=1, nu=5.0)) == 10
    assert draws_per_flight(FlightParams(d=3, n=1, nu=40.0)) == 10


def _gamma_oracle(shape: float, take) -> float:
    # a Gamma(shape) variate from the next columns: -sum log U over shape
    # of them at an integer shape up to 4, else the quantile of one
    if float(shape).is_integer() and shape <= 4:
        return -np.log(take(int(shape))).sum()
    return gammaincinv(shape, take(1)[0])


@pytest.mark.parametrize(
    "d,n,nu",
    [(2, 1, 1.0), (3, 2, 0.0), (3, 1, 0.5), (3, 2, 0.3), (3, 1, 5.0), (6, 1, 0.0), (3, 0, 1.0)],
)
def test_segments_read_the_documented_columns(d, n, nu):
    # the stream layout from the columns alone: waiting time j reads
    # columns j k .. j k + k-1; at integer nu up to 4 a direction reads nu
    # log uniforms, then d normals; otherwise d - 1 normals, the uniforms of
    # Gamma(nu + 1/2), then a sign uniform
    p = FlightParams(d=d, n=n, nu=nu, c=0.7, t=1.3)
    rows = _rng(29).random((5, draws_per_flight(p)))
    taus, steps = _segments(p, rows)
    for row, got_taus, got_steps in zip(rows, taus, steps):
        cols = iter(row)

        def take(k):
            return np.array([next(cols) for _ in range(k)])

        if n >= 1:
            g = np.array([_gamma_oracle(2.0 * nu + d - 1.0, take) for _ in range(n + 1)])
            want_taus = p.t * g / g.sum()
        else:
            want_taus = np.array([p.t])
        want_steps = []
        for tau in want_taus:
            if nu.is_integer() and nu <= 4:
                logs = -np.log(take(int(nu))).sum()
                y = ndtri(take(d))
                y[-1] = math.copysign(math.sqrt(y[-1] ** 2 + 2.0 * logs), y[-1])
            else:
                y = np.append(ndtri(take(d - 1)), 0.0)
                chi2 = 2.0 * _gamma_oracle(nu + 0.5, take)
                y[-1] = math.copysign(math.sqrt(chi2), take(1)[0] - 0.5)
            want_steps.append(p.c * tau * y / np.linalg.norm(y))
        assert next(cols, None) is None  # every column read
        np.testing.assert_allclose(got_taus, want_taus, rtol=1e-12)
        np.testing.assert_allclose(got_steps, want_steps, rtol=1e-12)


@pytest.mark.parametrize("d,n,nu", [(3, 2, 1.0), (2, 0, 0.0), (4, 3, 0.3), (5, 1, 40.0)])
def test_simulate_flight_draws_exactly_draws_per_flight(d, n, nu):
    p = FlightParams(d=d, n=n, nu=nu)
    rng, ref = _rng(9), _rng(9)
    simulate_flight(p, rng)
    ref.random(draws_per_flight(p))
    assert rng.random(4).tolist() == ref.random(4).tolist()


@pytest.mark.parametrize(
    "d,n,nu", [(2, 1, 0.0), (3, 2, 1.0), (4, 3, 0.5), (3, 2, 0.3), (5, 0, 2.7)]
)
@pytest.mark.parametrize("u", [0.0, 0.5, 1.0 - 2.0**-53])
def test_segments_finite_at_extreme_uniforms(d, n, nu, u):
    # the smallest and largest doubles a Generator's random() returns, and
    # 1/2, where every normal is 0
    p = FlightParams(d=d, n=n, nu=nu, c=1.2, t=0.8)
    rows = np.full((3, draws_per_flight(p)), u)
    taus, steps = _segments(p, rows)
    assert taus.shape == (3, n + 1) and steps.shape == (3, n + 1, d)
    assert np.all(np.isfinite(taus)) and np.all(taus >= 0.0)
    assert np.all(np.isfinite(steps))
    # every direction a unit vector (e_d where all its normals are 0)
    np.testing.assert_allclose(np.linalg.norm(steps, axis=-1), p.c * taus, rtol=1e-14)
    total = steps.sum(axis=1)
    assert np.all(np.linalg.norm(total, axis=1) <= p.c * p.t * (1.0 + 1e-12))


def test_batch_count_validation():
    with pytest.raises(ValueError):
        simulate_batch(FlightParams(d=2, n=1, nu=0.0), 0, 1)
    with pytest.raises(ValueError):
        simulate_trajectories(FlightParams(d=2, n=1, nu=0.0), 0, 1)


def test_flight_params_hold_numpy_integers_as_python_ints():
    # an np.int64 d and n once reached the nu = 1 constants, whose fixed-width
    # integers overflowed (OverflowError at d2 n12 and d8 n20), and the
    # table cached under the equal Python-int key served both kinds
    p = FlightParams(d=np.int64(5), n=np.int32(3), nu=1.0, m=np.int16(4))
    assert [type(v) for v in (p.d, p.n, p.m)] == [int, int, int]
    r = np.array([0.1, 0.4, 0.8])
    for d, n in ((2, 12), (8, 20)):
        values = []
        for kind in (np.int64, int):
            analytic._nu1_table.cache_clear()
            q = FlightParams(d=kind(d), n=kind(n), nu=1.0)
            x = np.full(d, 0.05)
            values.append(density_nu1(q, x).tobytes() + radial_density_nu1(q, r).tobytes())
        assert values[0] == values[1], (d, n)


def test_numpy_integer_count_and_index_give_the_bits_of_python_ints(monkeypatch):
    # Philox.advance refuses numpy integers: an np.int64 count or replicate
    # index once raised OverflowError
    p = FlightParams(d=3, n=1, nu=1.0)
    np.testing.assert_array_equal(simulate_batch(p, np.int64(3), 5), simulate_batch(p, 3, 5))
    got, want = simulate_trajectories(p, np.uint16(2), 1), simulate_trajectories(p, 2, 1)
    np.testing.assert_array_equal(got.breakpoints, want.breakpoints)
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(
        replicate_stream(p, 5, np.int64(2)).random(4), replicate_stream(p, 5, 2).random(4))
    # two workers, each range starting at a row of the count's type
    monkeypatch.setattr(flight, "_cpus", lambda: 2)
    count = flight._MIN_THREADED_DRAWS // _padded_draws(p) + 1
    np.testing.assert_array_equal(
        simulate_batch(p, np.int32(count), 5), simulate_batch(p, count, 5))


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, 1.5])
def test_count_and_index_must_be_integers(value):
    # replicate_stream(p, 1, True) once gave index 1's stream, and a
    # boolean or float count failed deep inside with a TypeError
    p = FlightParams(d=2, n=1, nu=0.0)
    with pytest.raises(ValueError, match="count must be an integer"):
        simulate_batch(p, value, 1)
    with pytest.raises(ValueError, match="count must be an integer"):
        simulate_trajectories(p, value, 1)
    with pytest.raises(ValueError, match="replicate index must be an integer"):
        replicate_stream(p, 1, value)


@pytest.mark.parametrize("seed", [True, 1.5, -1, 2**128])
def test_master_seed_must_be_a_philox_key(seed):
    # numpy keys Philox with int(seed): 1.5 and True once gave seed 1's rows
    p = FlightParams(d=2, n=1, nu=0.0)
    with pytest.raises(ValueError, match="master_seed"):
        simulate_batch(p, 3, seed)
    with pytest.raises(ValueError, match="master_seed"):
        simulate_trajectories(p, 3, seed)
    with pytest.raises(ValueError, match="master_seed"):
        replicate_stream(p, seed, 0)
    assert simulate_batch(p, 3, 2**128 - 1).shape == (3, 2)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_flight_invariants_property(d, n, nu, seed):
    p = FlightParams(d=d, n=n, nu=nu, c=1.2, t=0.8)
    tr = simulate_flight(p, _rng(seed))
    assert tr.breakpoints.shape == (n + 2, d)
    assert np.all(np.diff(tr.times) > 0.0)
    assert np.linalg.norm(tr.breakpoints[0]) == 0.0
    assert np.linalg.norm(tr.final) <= p.c * p.t + 1e-9
