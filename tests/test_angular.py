import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import betainc
from scipy.stats import chi2

from driftflight.angular import (
    angles_to_direction,
    angular_density,
    direction_angles,
    direction_draws,
    directions,
    marginal_angular_density,
    sample_angles,
)
from driftflight.flight import FlightParams
from _oracles import gl_grid

TWO_PI = 2.0 * math.pi


def _rng(seed=0):
    return np.random.default_rng(seed)


def _params(d, nu):
    # the angular laws read d and nu alone
    return FlightParams(d=d, n=0, nu=nu)


# ------------------------------------------------------------- density

def test_density_uniform_circle():
    for phi in (0.0, 1.0, math.pi, 5.0):
        assert angular_density(_params(2, 0.0), (), phi) == pytest.approx(1.0 / TWO_PI, rel=1e-14)


def test_density_drifted_values():
    # nu=1 planar density peaks at 1/pi; three-dimensional peak is 3/(4 pi)
    assert angular_density(_params(2, 1.0), (), math.pi / 2) == pytest.approx(
        1.0 / math.pi, rel=1e-14
    )
    assert angular_density(_params(3, 1.0), [math.pi / 2], math.pi / 2) == pytest.approx(
        3.0 / (4.0 * math.pi), rel=1e-14
    )


def test_angle_vector_validation():
    with pytest.raises(ValueError):
        marginal_angular_density(_params(2, 0.0), [0.5, 1.0])  # too many angles
    # a negative colatitude, an azimuth beyond 2 pi, one bad row of a batch
    for d, thetas, phi in ((3, [-0.1], 1.0), (2, (), 7.0), (3, [[0.5], [4.0]], 1.0)):
        with pytest.raises(ValueError):
            angular_density(_params(d, 0.0), thetas, phi)
        with pytest.raises(ValueError):
            angles_to_direction(thetas, phi)
    with pytest.raises(ValueError):
        angular_density(_params(2, -0.5), (), 1.0)


def test_normalization_d2_d3():
    for nu in (0.0, 0.5, 1.0, 2.0):
        total, _ = quad(lambda phi: angular_density(_params(2, nu), (), phi), 0.0, TWO_PI)
        assert total == pytest.approx(1.0, abs=1e-8)
        total3, _ = dblquad(
            lambda phi, th: angular_density(_params(3, nu), [th], phi),
            0.0,
            math.pi,
            0.0,
            TWO_PI,
        )
        assert total3 == pytest.approx(1.0, abs=1e-8)


def test_normalization_d4_tensor_product():
    t1, w1 = gl_grid(80, 0.0, math.pi)
    t2, w2 = gl_grid(80, 0.0, math.pi)
    ph, wp = gl_grid(160, 0.0, TWO_PI)
    for nu in (0.0, 1.0):
        # integrand factorizes over the angles
        f1 = np.array([math.sin(t) ** (2 * nu + 2) for t in t1])
        f2 = np.array([math.sin(t) ** (2 * nu + 1) for t in t2])
        f3 = np.array([math.sin(p) ** (2 * nu) for p in ph])
        norm = math.exp(
            math.lgamma(nu + 2.0)
            - math.lgamma(nu + 0.5)
            - 1.5 * math.log(math.pi)
            - math.log(2.0)
        )
        total = norm * (w1 @ f1) * (w2 @ f2) * (wp @ f3)
        assert total == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------------ marginals

def test_marginal_d3_m1_value():
    assert marginal_angular_density(_params(3, 0.0), [math.pi / 2]) == pytest.approx(
        0.5, rel=1e-14
    )


def test_marginal_m_equals_d_minus_one_is_full_density():
    rng = _rng(1)
    for _ in range(10):
        th = rng.uniform(0.0, math.pi, size=2)
        phi = rng.uniform(0.0, TWO_PI)
        nu = rng.uniform(0.0, 3.0)
        full = angular_density(_params(4, nu), th, phi)
        marg = marginal_angular_density(_params(4, nu), [*th, phi])
        assert marg == pytest.approx(full, rel=1e-13)


def test_marginal_d5_m2_normalizes():
    total, _ = dblquad(
        lambda t2, t1: marginal_angular_density(_params(5, 1.0), [t1, t2]),
        0.0,
        math.pi,
        0.0,
        math.pi,
    )
    assert total == pytest.approx(1.0, abs=1e-8)


def test_marginal_domain_errors():
    with pytest.raises(ValueError):
        marginal_angular_density(_params(3, 0.0), [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        angular_density(_params(3, 0.0), [0.5, 0.5], 0.5)  # length mismatch
    with pytest.raises(ValueError):
        marginal_angular_density(_params(4, 0.0), [4.0])  # colatitude out of range


# ------------------------------------------------------------ directions

def test_direction_axis_cases():
    np.testing.assert_allclose(angles_to_direction((), 0.0), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        angles_to_direction([math.pi / 2], math.pi / 2), [0.0, 0.0, 1.0], atol=1e-15
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_direction_unit_norm(data):
    d = data.draw(st.integers(min_value=2, max_value=6))
    thetas = tuple(
        data.draw(st.floats(min_value=0.0, max_value=math.pi)) for _ in range(d - 2)
    )
    phi = data.draw(st.floats(min_value=0.0, max_value=TWO_PI))
    vec = angles_to_direction(thetas, phi)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12


def test_angles_to_direction_inverts_direction_angles():
    x = directions(_params(5, 1.0), _rng(16).random((1000, direction_draws(_params(5, 1.0)))))
    back = angles_to_direction(*direction_angles(x))
    assert back.shape == (1000, 5)
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-15)


def test_directions_require_direction_draws_uniforms():
    p = _params(3, 0.3)
    k = direction_draws(p)
    assert directions(p, _rng().random((4, k))).shape == (4, 3)
    for width in (k - 1, k + 1):
        with pytest.raises(ValueError):
            directions(p, _rng().random((4, width)))


@pytest.mark.parametrize("bad", [1.0, 1.5, -0.2, np.nan])
@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 1.0, 5.0])
def test_directions_refuse_uniforms_outside_the_unit_interval(nu, bad):
    # these once gave NaN, and a uniform of exactly 1 the vector (0, 0, nan)
    p = _params(3, nu)
    u = np.full((2, direction_draws(p)), 0.3)
    u[1, -1] = bad
    with pytest.raises(ValueError, match="directions requires 0 <= u < 1"):
        directions(p, u)


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0])
def test_directions_of_one_vector_are_its_batch_row(nu):
    # also at uniforms of exactly 1/2, where every normal is 0 (e_d at
    # nu = 0): one such vector once raised TypeError, and a 0-d input
    # IndexError
    p = _params(3, nu)
    k = direction_draws(p)
    rows = np.vstack([_rng(4).random((3, k)), np.full(k, 0.5)])
    batch = directions(p, rows)
    for row, want in zip(rows, batch):
        assert directions(p, row).tobytes() == want.tobytes()
    if nu == 0.0:
        assert batch[-1].tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ValueError, match="direction_draws"):
        directions(p, 0.5)


def test_angle_laws_point_is_batch_row():
    rng = _rng(17)
    thetas = rng.uniform(0.0, math.pi, size=(4, 5, 3))
    phis = rng.uniform(0.0, TWO_PI, size=(4, 5))
    nu = 0.7
    for law, args in (
        (angular_density, (_params(5, nu), thetas, phis)),
        (marginal_angular_density, (_params(5, nu), thetas)),
        (marginal_angular_density, (_params(5, nu), np.concatenate([thetas, phis[..., None]], -1))),
        (angles_to_direction, (thetas, phis)),
    ):
        batch = law(*args)
        assert batch.shape[:2] == (4, 5), law.__name__
        for i, j in np.ndindex(4, 5):
            point = law(*(a[i, j] if isinstance(a, np.ndarray) else a for a in args))
            assert point.tobytes() == batch[i, j].tobytes(), law.__name__
    p = _params(5, nu)
    assert isinstance(angular_density(p, thetas[0, 0], phis[0, 0]), np.float64)
    # colatitudes broadcast against a batch of azimuths
    np.testing.assert_array_equal(
        angular_density(p, thetas[0, 0], phis[0]),
        [angular_density(p, thetas[0, 0], phi) for phi in phis[0]],
    )


# -------------------------------------------------------------- sampler

def _sample_directions(d, nu, count, seed):
    # the directions of `count` sample_angles calls on _rng(seed), in one
    # batch transform: rng.random draws in sequence, so row i is call i
    p = _params(d, nu)
    return directions(p, _rng(seed).random((count, direction_draws(p))))


def _sample_many(d, nu, count, seed):
    """Colatitudes (count, d-2) and azimuths (count,) of `count`
    sample_angles calls."""
    return direction_angles(_sample_directions(d, nu, count, seed))


@pytest.mark.parametrize("d,nu", [(2, 0.0), (3, 1.0), (4, 0.3), (5, 2.5)])
def test_sample_angles_is_a_batch_row(d, nu):
    # the batched samples of the tests below are the scalar calls' samples
    rng = _rng(9)
    calls = [sample_angles(_params(d, nu), rng) for _ in range(50)]
    thetas, phis = _sample_many(d, nu, 50, 9)
    np.testing.assert_array_equal([th for th, _ in calls], thetas.reshape(50, d - 2))
    np.testing.assert_array_equal([phi for _, phi in calls], phis)


def test_sampler_uniform_circle_chi_square():
    _, phis = _sample_many(2, 0.0, 100_000, 11)
    counts, _ = np.histogram(phis, bins=36, range=(0.0, TWO_PI))
    expected = len(phis) / 36.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(1.0 - 0.001, 35)


def test_sampler_sin2_mean_matches_quadrature():
    # E[sin^2 phi] under the nu=1 planar law, oracle by quadrature
    oracle, _ = quad(lambda p: math.sin(p) ** 4 / math.pi, 0.0, TWO_PI)
    _, phis = _sample_many(2, 1.0, 100_000, 12)
    vals = np.sin(phis) ** 2
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - oracle) <= 3.0 * se
    assert oracle == pytest.approx(0.75, rel=1e-12)


def test_sampler_cos2_colatitude_matches_quadrature():
    # E[cos^2 theta_1] for d=3, nu=1: density prop. to sin^3
    num, _ = quad(lambda t: math.cos(t) ** 2 * math.sin(t) ** 3, 0.0, math.pi)
    den, _ = quad(lambda t: math.sin(t) ** 3, 0.0, math.pi)
    oracle = num / den
    assert oracle == pytest.approx(0.2, rel=1e-12)
    thetas, _ = _sample_many(3, 1.0, 100_000, 13)
    vals = np.cos(thetas[:, 0]) ** 2
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - oracle) <= 3.0 * se


def _theta_cdf(d, nu, j, theta):
    a = 0.5 * (2.0 * nu + d - j)
    return betainc(a, a, 0.5 * (1.0 - np.cos(theta)))


def _phi_cdf(nu, phi):
    a = nu + 0.5
    phi = np.asarray(phi)
    half = 0.5 * betainc(a, a, 0.5 * (1.0 - np.cos(np.minimum(phi, math.pi))))
    upper = 1.0 - 0.5 * betainc(
        a, a, 0.5 * (1.0 - np.cos(np.maximum(TWO_PI - phi, 0.0)))
    )
    return np.where(phi <= math.pi, half, upper)


def _ks(sorted_vals, cdf_vals):
    n = len(sorted_vals)
    grid = np.arange(n + 1) / n
    return max(np.max(cdf_vals - grid[:-1]), np.max(grid[1:] - cdf_vals))


@pytest.mark.parametrize("d,nu", [(2, 0.0), (3, 1.0), (4, 2.0)])
def test_sampler_marginal_ks(d, nu):
    thetas, phis = _sample_many(d, nu, 100_000, 14 + d)
    for j in range(1, d - 1):
        vals = np.sort(thetas[:, j - 1])
        assert _ks(vals, _theta_cdf(d, nu, j, vals)) < 0.01
    phis = np.sort(phis)
    assert _ks(phis, _phi_cdf(nu, phis)) < 0.01


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 5.0])
def test_directions_last_coordinate_beta_ks(d, nu):
    # under density |x_d|^(2 nu) on the sphere, x_d^2 is
    # Beta((2 nu + 1)/2, (d - 1)/2); nu = 5 is past the cap of 4 logs
    u = _rng(40 + 10 * d + int(10 * nu)).random((100_000, direction_draws(_params(d, nu))))
    x = directions(_params(d, nu), u)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-14)
    vals = np.sort(x[:, -1] ** 2)
    assert _ks(vals, betainc(nu + 0.5, 0.5 * (d - 1), vals)) < 0.01
    # the last uniform alone sets the sign of x_d: Z_d's uniform at integer
    # nu up to 4 (the normals come last), the sign uniform otherwise
    np.testing.assert_array_equal(x[:, -1] < 0.0, u[:, -1] < 0.5)


def test_sampler_uniform_sphere_moments():
    dirs = _sample_directions(3, 0.0, 40_000, 15)
    n = len(dirs)
    for i in range(3):
        col = dirs[:, i]
        assert abs(col.mean()) <= 3.0 * col.std(ddof=1) / math.sqrt(n)
        sq = col**2
        assert abs(sq.mean() - 1.0 / 3.0) <= 3.0 * sq.std(ddof=1) / math.sqrt(n)


def test_drift_concentration_increases_with_nu():
    masses = []
    for seed, nu in enumerate((0.0, 1.0, 4.0)):
        _, phis = _sample_many(2, nu, 40_000, 20 + seed)
        near = (np.abs(phis - math.pi / 2) < 0.3) | (
            np.abs(phis - 3 * math.pi / 2) < 0.3
        )
        masses.append(near.mean())
    assert masses[0] < masses[1] < masses[2]


def test_sampler_domain_errors():
    with pytest.raises(ValueError):
        sample_angles(_params(1, 0.0), _rng())
    with pytest.raises(ValueError):
        sample_angles(_params(3, -1.0), _rng())
