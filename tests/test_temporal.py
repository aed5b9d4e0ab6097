import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc

from driftflight.temporal import IntertimeVector, intertime_density, sample_intertimes


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_density_uniform_case():
    v = IntertimeVector(np.array([0.3, 0.7]), 1.0)
    assert intertime_density(v, 2, 0.0) == pytest.approx(1.0, rel=1e-13)


def test_density_constant_on_simplex_for_shape_one():
    # shape parameter 1 gives n! / t^n everywhere on the simplex
    rng = _rng(3)
    n, t = 3, 2.0
    for _ in range(10):
        free = rng.dirichlet(np.ones(n + 1)) * t
        v = IntertimeVector(free, t)
        assert intertime_density(v, 2, 0.0) == pytest.approx(
            math.factorial(n) / t**n, rel=1e-12
        )


def test_density_outside_support_is_zero():
    assert intertime_density(IntertimeVector(np.array([-0.1, 1.1]), 1.0), 2, 0.0) == 0.0
    assert intertime_density(IntertimeVector(np.array([0.2, 0.2]), 1.0), 2, 0.0) == 0.0


def test_density_requires_one_free_coordinate():
    with pytest.raises(ValueError):
        intertime_density(IntertimeVector(np.array([1.0]), 1.0), 2, 0.0)


def test_density_n1_marginal_normalizes():
    # tau_1 marginal for n=1 is the joint density on (0, t)
    for d, nu in ((2, 0.0), (3, 1.0), (4, 0.5)):
        t = 1.5
        total, _ = quad(
            lambda x: intertime_density(IntertimeVector(np.array([x, t - x]), t), d, nu),
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
    v = sample_intertimes(n, d, nu, t, _rng(seed))
    assert len(v.taus) == n + 1
    assert np.all(v.taus > 0.0)
    assert abs(float(v.taus.sum()) - t) <= 1e-12 * t


def test_sample_mean_uniform_case():
    t = 1.0
    rng = _rng(7)
    vals = np.array([sample_intertimes(1, 2, 0.0, t, rng).taus[0] for _ in range(100_000)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - t / 2.0) <= 3.0 * se


def test_sample_exchangeable_means():
    t, n = 2.0, 2
    rng = _rng(8)
    taus = np.array([sample_intertimes(n, 3, 1.0, t, rng).taus for _ in range(20_000)])
    means = taus.mean(axis=0)
    ses = taus.std(axis=0, ddof=1) / math.sqrt(taus.shape[0])
    for mean, se in zip(means, ses):
        assert abs(mean - t / (n + 1)) <= 3.0 * se


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("nu", [0.0, 1.0, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sample_marginal_beta_ks(d, nu, n):
    # tau_1 / t is Beta(a, n a) with a = 2 nu + d - 1; nu = 0.3 takes the
    # gammaincinv branch, the others the sum of -log U
    t = 1.0
    rng = _rng(100 * d + 10 * int(nu) + n)
    vals = np.sort([sample_intertimes(n, d, nu, t, rng).taus[0] for _ in range(100_000)])
    a = 2.0 * nu + d - 1.0
    F = betainc(a, n * a, vals / t)
    grid = np.arange(len(vals) + 1) / len(vals)
    ks = max(np.max(F - grid[:-1]), np.max(grid[1:] - F))
    assert ks < 0.01


def test_sample_domain_errors():
    with pytest.raises(ValueError):
        sample_intertimes(0, 2, 0.0, 1.0, _rng())
    with pytest.raises(ValueError):
        sample_intertimes(1, 2, 0.0, -1.0, _rng())
