import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, gammaincinv

from driftflight import temporal
from driftflight.temporal import (
    gamma_quantile,
    intertime_density,
    sample_intertimes,
    time_draws,
    waiting_times,
)
from _oracles import gamma_quantile_mp


def _rng(seed=0):
    return np.random.default_rng(seed)


def _sample_many(n, d, nu, t, count, rng):
    # the waiting times of `count` sample_intertimes calls on rng, in one
    # batch transform: rng.random draws in sequence, so row i is call i
    return waiting_times(rng.random((count, (n + 1) * time_draws(d, nu))), d, nu, t)


def test_density_uniform_case():
    assert intertime_density([0.3, 0.7], 2, 0.0, 1.0) == pytest.approx(1.0, rel=1e-13)


def test_density_constant_on_simplex_for_shape_one():
    # shape parameter 1 gives n! / t^n everywhere on the simplex
    rng = _rng(3)
    n, t = 3, 2.0
    for _ in range(10):
        free = rng.dirichlet(np.ones(n + 1)) * t
        assert intertime_density(free, 2, 0.0, t) == pytest.approx(
            math.factorial(n) / t**n, rel=1e-12
        )


def test_density_outside_support_is_zero():
    assert intertime_density([-0.1, 1.1], 2, 0.0, 1.0) == 0.0
    assert intertime_density([0.2, 0.2], 2, 0.0, 1.0) == 0.0


def test_density_requires_one_free_coordinate():
    with pytest.raises(ValueError):
        intertime_density([1.0], 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        intertime_density(np.empty((3, 0)), 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        intertime_density([0.3, 0.7], 2, -0.5, 1.0)
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            intertime_density([0.3, 0.7], 2, 0.0, t)


def test_intertime_density_point_is_batch_row():
    t = 1.7
    taus = _sample_many(3, 3, 0.3, t, 20, _rng(5)).reshape(4, 5, 4)
    taus[0, 0] = [-0.1, 0.6, 0.6, 0.6]  # outside the support
    batch = intertime_density(taus, 3, 0.3, t)
    assert batch.shape == (4, 5) and batch[0, 0] == 0.0 and np.all(batch.ravel()[1:] > 0.0)
    for i, j in np.ndindex(4, 5):
        point = intertime_density(taus[i, j], 3, 0.3, t)
        assert isinstance(point, np.float64)
        assert point.tobytes() == batch[i, j].tobytes()


def test_density_n1_marginal_normalizes():
    # tau_1 marginal for n=1 is the joint density on (0, t)
    for d, nu in ((2, 0.0), (3, 1.0), (4, 0.5)):
        t = 1.5
        total, _ = quad(
            lambda x: intertime_density([x, t - x], d, nu, t),
            0.0,
            t,
        )
        assert total == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_sample_sums_to_horizon(n, d, nu, t, seed):
    taus = sample_intertimes(n, d, nu, t, _rng(seed))
    assert len(taus) == n + 1
    assert np.all(taus > 0.0)
    assert abs(float(taus.sum()) - t) <= 1e-12 * t


def test_sample_mean_uniform_case():
    t = 1.0
    rng = _rng(7)
    vals = _sample_many(1, 2, 0.0, t, 100_000, rng)[:, 0]
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - t / 2.0) <= 3.0 * se


def test_sample_exchangeable_means():
    t, n = 2.0, 2
    rng = _rng(8)
    taus = _sample_many(n, 3, 1.0, t, 20_000, rng)
    means = taus.mean(axis=0)
    ses = taus.std(axis=0, ddof=1) / math.sqrt(taus.shape[0])
    for mean, se in zip(means, ses):
        assert abs(mean - t / (n + 1)) <= 3.0 * se


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("nu", [0.0, 1.0, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sample_marginal_beta_ks(d, nu, n):
    # tau_1 / t is Beta(a, n a) with a = 2 nu + d - 1; nu = 0.3 takes the
    # gamma_quantile table, the others the sum of -log U
    t = 1.0
    rng = _rng(100 * d + 10 * int(nu) + n)
    vals = np.sort(_sample_many(n, d, nu, t, 100_000, rng)[:, 0])
    a = 2.0 * nu + d - 1.0
    F = betainc(a, n * a, vals / t)
    grid = np.arange(len(vals) + 1) / len(vals)
    ks = max(np.max(F - grid[:-1]), np.max(grid[1:] - F))
    assert ks < 0.01


@pytest.mark.parametrize("d,nu", [(2, 0.0), (3, 1.0), (3, 0.3), (4, 40.0)])
def test_sample_intertimes_is_a_batch_row(d, nu):
    # the batched samples of the tests above are the scalar calls' samples
    n, t = 2, 1.7
    rng = _rng(9)
    calls = np.array([sample_intertimes(n, d, nu, t, rng) for _ in range(50)])
    np.testing.assert_array_equal(calls, _sample_many(n, d, nu, t, 50, _rng(9)))


def test_sample_domain_errors():
    with pytest.raises(ValueError):
        sample_intertimes(0, 2, 0.0, 1.0, _rng())
    with pytest.raises(ValueError):
        sample_intertimes(1, 2, 0.0, -1.0, _rng())


# ------------------------------------------------------- gamma quantile

# chi shapes nu + 1/2 (nu = 0.3, 0.6, 40) and waiting-time shapes
# 2 nu + d - 1 (d3 nu0.3, d4 nu0.3)
QUANTILE_SHAPES = (0.8, 1.1, 2.6, 3.6, 40.5)


@pytest.mark.parametrize("a", QUANTILE_SHAPES)
def test_gamma_quantile_matches_gammaincinv(a):
    edges = [1e-300, 1e-200, 1e-100, 1e-20, 1e-5, 0.5, 1 - 1e-10, 1 - 2.0**-52, 1 - 2.0**-53]
    u = np.concatenate([np.maximum(_rng(60).random(1_000_000), 1e-300), edges])
    q, ref = gamma_quantile(a, u), gammaincinv(a, u)
    # 0.0 exactly where gammaincinv underflows (shape 0.8 at u = 1e-300)
    np.testing.assert_array_equal(q[ref == 0.0], 0.0)
    pos = ref > 0.0
    assert np.max(np.abs(q[pos] / ref[pos] - 1.0)) <= 1e-13


@pytest.mark.parametrize("a", QUANTILE_SHAPES)
def test_gamma_quantile_tails_match_mpmath(a):
    mp = pytest.importorskip("mpmath")
    for u in (1e-300, 1e-100, 1e-10, 1 - 1e-10, 1 - 2.0**-52, 1 - 2.0**-53):
        exact = gamma_quantile_mp(mp, a, u)
        assert float(gamma_quantile(a, u)) == pytest.approx(exact, rel=1e-13, abs=0.0), u


def test_gamma_quantile_table_built_once_per_shape(monkeypatch):
    values = []

    def counted(a, u):
        values.append(np.size(u))
        return gammaincinv(a, u)

    monkeypatch.setattr(temporal, "gammaincinv", counted)
    temporal._quantile_table.cache_clear()
    u = _rng(61).random((100, 3))
    first = gamma_quantile(2.6, u)
    assert first.shape == u.shape and sum(values) > 0
    built, coef = len(values), temporal._quantile_table(2.6).coef
    np.testing.assert_array_equal(gamma_quantile(2.6, u), first)
    assert len(values) == built
    # a rebuilt table has the same bits
    temporal._quantile_table.cache_clear()
    np.testing.assert_array_equal(temporal._quantile_table(2.6).coef, coef)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            gamma_quantile(bad, u)
    for bad in (1.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            gamma_quantile(2.6, [0.5, bad])
    # uniforms are floored at 1e-300, as in the sampler
    assert gamma_quantile(2.6, 0.0) == gamma_quantile(2.6, 1e-300)
