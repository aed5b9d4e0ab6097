import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflight.analytic import radial_moment
from driftflight.angular import angles_to_direction, sample_angles
from driftflight.flight import (
    _CHUNK_DRAWS,
    FlightParams,
    _padded_draws,
    _segments,
    draws_per_flight,
    project,
    radial,
    replicate_stream,
    simulate_batch,
    simulate_flight,
    simulate_trajectories,
)
from driftflight.temporal import sample_intertimes


def _rng(seed=0):
    return np.random.default_rng(seed)


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
    with pytest.raises(ValueError):
        FlightParams(d=2.5, n=1, nu=0.0)
    with pytest.raises(ValueError):
        FlightParams(d=3, n=1.5, nu=0.0)
    p = FlightParams(d=3, n=1, nu=0.0)
    assert p.m == 3  # defaults to the ambient dimension


def test_n0_single_segment_has_radius_ct():
    p = FlightParams(d=3, n=0, nu=1.0, c=2.0, t=1.5)
    tr = simulate_flight(p, _rng(5))
    assert tr.breakpoints.shape == (2, 3)
    assert radial(tr.final) == pytest.approx(p.c * p.t, rel=1e-12)


def test_trajectory_segments_match_intertimes():
    p = FlightParams(d=4, n=3, nu=1.0, c=1.3, t=2.0)
    seed = 77
    tr = simulate_flight(p, replicate_stream(p, seed, 0))
    # the same stream replayed through the temporal module and then the
    # angular module gives the exact waiting times and directions the
    # trajectory consumed
    replay = replicate_stream(p, seed, 0)
    taus = sample_intertimes(p.n, p.d, p.nu, p.t, replay).taus
    np.testing.assert_allclose(np.diff(tr.times), taus, rtol=0, atol=1e-15)
    steps = np.diff(tr.breakpoints, axis=0)
    for k in range(p.n + 1):
        assert np.linalg.norm(steps[k]) == pytest.approx(p.c * taus[k], abs=1e-9)
        direction = angles_to_direction(sample_angles(p.d, p.nu, replay))
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


def test_batch_chunking_does_not_change_output():
    p = FlightParams(d=3, n=1, nu=1.0)
    base = simulate_batch(p, 1_000, 7)
    for chunk in (1, 7, 64, 999, 1_000, 4_096):
        assert np.array_equal(base, simulate_batch(p, 1_000, 7, chunk_size=chunk))


def test_batch_contract_at_non_integer_two_nu():
    # 2 nu = 0.6 runs every Gamma variate through gamma_quantile
    p = FlightParams(d=3, n=2, nu=0.3)
    base = simulate_batch(p, 1_000, 7)
    for chunk in (1, 7, 999):
        assert np.array_equal(base, simulate_batch(p, 1_000, 7, chunk_size=chunk))
    for i in (0, 1, 500, 999):
        assert np.array_equal(simulate_flight(p, replicate_stream(p, 7, i)).final, base[i])


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
    # not an integer, none when n = 0), then (n+1) directions of d - 1
    # normals, 2 nu + 1 uniforms for |Y_d| (one when 2 nu is not an
    # integer) and a sign; sums longer than 64 become one uniform
    assert draws_per_flight(FlightParams(d=3, n=0, nu=0.0)) == 4
    assert draws_per_flight(FlightParams(d=3, n=2, nu=0.0)) == 18
    assert draws_per_flight(FlightParams(d=2, n=1, nu=0.0)) == 8
    assert draws_per_flight(FlightParams(d=3, n=2, nu=1.0)) == 30
    assert draws_per_flight(FlightParams(d=3, n=2, nu=0.3)) == 15
    assert draws_per_flight(FlightParams(d=3, n=1, nu=40.0)) == 10


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
@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
def test_segments_finite_at_extreme_uniforms(d, n, nu, u):
    # the smallest and largest doubles a Generator's random() returns
    p = FlightParams(d=d, n=n, nu=nu, c=1.2, t=0.8)
    rows = np.full((3, draws_per_flight(p)), u)
    taus, steps = _segments(p, rows)
    assert taus.shape == (3, n + 1) and steps.shape == (3, n + 1, d)
    assert np.all(np.isfinite(taus)) and np.all(taus >= 0.0)
    assert np.all(np.isfinite(steps))
    total = steps.sum(axis=1)
    assert np.all(np.linalg.norm(total, axis=1) <= p.c * p.t * (1.0 + 1e-12))


def test_project_and_radial():
    p = FlightParams(d=4, n=1, nu=0.0)
    tr = simulate_flight(p, _rng(2))
    np.testing.assert_array_equal(project(tr, 4), tr.final)
    assert project(tr, 1)[0] == tr.final[0]
    with pytest.raises(ValueError):
        project(tr, 5)
    assert radial([3.0, 4.0]) == pytest.approx(5.0)
    assert radial(np.zeros(3)) == 0.0
    assert radial(tr.final) <= p.c * p.t + 1e-9
    # a leading replicate axis: one projection per trajectory
    many = simulate_trajectories(p, 3, 2)
    np.testing.assert_array_equal(project(many, 2), simulate_batch(p, 3, 2)[:, :2])
    with pytest.raises(ValueError):
        project(many, 5)


def test_batch_count_validation():
    with pytest.raises(ValueError):
        simulate_batch(FlightParams(d=2, n=1, nu=0.0), 0, 1)
    with pytest.raises(ValueError):
        simulate_trajectories(FlightParams(d=2, n=1, nu=0.0), 0, 1)
    for chunk in (0, -1):  # only None picks the default chunk
        with pytest.raises(ValueError):
            simulate_batch(FlightParams(d=2, n=1, nu=0.0), 5, 1, chunk_size=chunk)


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
    assert radial(tr.final) <= p.c * p.t + 1e-9
