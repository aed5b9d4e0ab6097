import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflight.analytic import radial_moment
from driftflight.flight import (
    FlightParams,
    draws_per_flight,
    project,
    radial,
    replicate_stream,
    simulate_batch,
    simulate_flight,
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
    # the same stream replayed through the temporal module gives the
    # exact waiting times the trajectory consumed
    taus = sample_intertimes(p.n, p.d, p.nu, p.t, replicate_stream(p, seed, 0)).taus
    np.testing.assert_allclose(np.diff(tr.times), taus, rtol=0, atol=1e-15)
    steps = np.diff(tr.breakpoints, axis=0)
    for k in range(p.n + 1):
        assert np.linalg.norm(steps[k]) == pytest.approx(p.c * taus[k], abs=1e-9)
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


@pytest.mark.parametrize(
    "d,n,nu", [(2, 1, 0.0), (3, 2, 1.0), (4, 0, 0.5), (5, 3, 2.0)]
)
def test_batch_rows_equal_sequential_flights(d, n, nu):
    p = FlightParams(d=d, n=n, nu=nu, c=0.7, t=1.4)
    seed = 31337
    batch = simulate_batch(p, 40, seed)
    for i in range(40):
        tr = simulate_flight(p, replicate_stream(p, seed, i))
        assert np.array_equal(tr.final, batch[i]), f"replicate {i}"


def test_batch_chunking_does_not_change_output():
    p = FlightParams(d=3, n=1, nu=1.0)
    base = simulate_batch(p, 1_000, 7)
    for chunk in (1, 7, 64, 999, 1_000, 4_096):
        assert np.array_equal(base, simulate_batch(p, 1_000, 7, chunk_size=chunk))


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
    assert draws_per_flight(FlightParams(d=3, n=0, nu=0.0)) == 3
    assert draws_per_flight(FlightParams(d=3, n=2, nu=0.0)) == 12
    assert draws_per_flight(FlightParams(d=2, n=1, nu=0.0)) == 6


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


def test_batch_count_validation():
    with pytest.raises(ValueError):
        simulate_batch(FlightParams(d=2, n=1, nu=0.0), 0, 1)


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
