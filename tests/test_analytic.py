import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from driftflight import analytic
from driftflight.analytic import (
    MixtureParams,
    cdf_radial_projection,
    cf_nu1,
    cf_projection,
    density_nu1,
    density_nu1_closed,
    density_projection,
    fractional_poisson_pmf,
    mixture_tail_bound,
    radial_density_nu1,
    radial_density_projection,
    radial_moment,
    unconditional_density_projection,
)
from driftflight.flight import FlightParams, simulate_batch
from driftflight.specfun import bessel_j_ratio
from driftflight.validation import _integrate
from _oracles import (
    bessel_j_mp,
    cf_nu1_mp,
    density_nu1_mp,
    fractional_pmf_mp,
    gl_grid,
    point_with_norm,
    radial_cdf_oracle,
    radial_density_nu1_mp,
    sphere_section_integral,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------- projected cf

def test_cf_projection_at_zero_is_one():
    p = FlightParams(d=3, n=2, nu=1.0, m=2)
    assert cf_projection(p, np.zeros(2)) == 1.0


def test_cf_projection_reduces_to_sinc():
    # d=2, nu=0, n=1: the cf is sin(z)/z in the frequency norm z
    p = FlightParams(d=2, n=1, nu=0.0, m=1)
    for z in (0.3, 1.0, 2.0, 7.5, 20.0):
        assert cf_projection(p, [z]) == pytest.approx(math.sin(z) / z, abs=1e-12)


def test_cf_projection_depends_only_on_norm():
    p = FlightParams(d=5, n=2, nu=0.7, m=3)
    for norm in (0.5, 2.0, 11.0):
        one_dim = cf_projection(p, [norm])
        three_dim = cf_projection(p, [norm / math.sqrt(3.0)] * 3)
        assert one_dim == pytest.approx(three_dim, rel=1e-13)


def test_cf_projection_large_half_order_matches_mpmath():
    # K = 514.5: the prefactor 2^(K-1/2) Gamma(K+1/2) overflows a double on
    # its own and rides in the Bessel ratio's log scale instead
    mp = pytest.importorskip("mpmath")
    p = FlightParams(d=40, n=20, nu=5.0, m=2)
    ws = (0.5, 5.0, 40.0, 200.0)
    vals = cf_projection(p, [[w / (p.c * p.t), 0.0] for w in ws])
    mu = 0.5 * (p.n + 1) * (2.0 * p.nu + p.d - 1.0) - 0.5
    for w, v in zip(ws, vals):
        assert abs(v - bessel_j_mp(mp, mu, w, ratio=True)) <= 1e-12, w
    assert math.isfinite(cf_projection(p, [1.0, 2.0]))


def test_cf_projection_requires_changes():
    with pytest.raises(ValueError):
        cf_projection(FlightParams(d=2, n=0, nu=0.0), [1.0])


def test_cf_projection_rejects_vectors_longer_than_m():
    p = FlightParams(d=5, n=2, nu=0.7, m=2)
    with pytest.raises(ValueError, match="length <= m"):
        cf_projection(p, [0.1, 0.2, 0.3, 0.4, 0.5])
    with pytest.raises(ValueError, match="length <= m"):
        cf_projection(p, np.ones((4, 3)))


def test_cf_projection_at_m_d_requires_nu0():
    # a drifted full flight is not isotropic: at this point cf_nu1 gives
    # 0.6074, the isotropic value would be 0.8560
    for nu in (1.0, 0.3):
        with pytest.raises(ValueError, match="m = d"):
            cf_projection(FlightParams(d=3, n=2, nu=nu), [0.0, 0.0, 2.0])


def test_cf_projection_full_flight_at_nu0():
    # d = 3, n = 1, nu = 0: each segment has cf sin(z tau) / (z tau) and
    # the first waiting time is Beta(2, 2), density 6 u (1 - u)
    p = FlightParams(d=3, n=1, nu=0.0)
    for z in (0.5, 2.0, 7.0):
        direct = quad(lambda u: 6.0 * math.sin(z * u) * math.sin(z * (1.0 - u)) / z**2,
                      0.0, 1.0, epsabs=1e-14)[0]
        assert abs(cf_projection(p, [0.0, 0.0, z]) - direct) <= 1e-13, z
        assert abs(cf_projection(p, [z / math.sqrt(3.0)] * 3) - direct) <= 1e-13, z


def test_cf_projection_monte_carlo():
    # d=3, nu=1, n=1, projected to m=2, |alpha| = 2
    p = FlightParams(d=3, n=1, nu=1.0, m=2)
    finals = simulate_batch(p, 200_000, 4242)
    alpha = np.array([2.0, 0.0])
    vals = np.cos(finals[:, :2] @ alpha)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - cf_projection(p, alpha)) <= 3.0 * se


# ------------------------------------------- projected density

def test_density_projection_folded_uniform_value():
    p = FlightParams(d=2, n=1, nu=0.0, m=1)
    assert density_projection(p, [0.0]) == pytest.approx(0.5, rel=1e-13)


def test_density_projection_isotropy():
    p = FlightParams(d=4, n=2, nu=1.0, m=2)
    rng = _rng(5)
    for _ in range(10):
        r = rng.uniform(0.05, 0.95)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        x1 = np.array([r, 0.0])
        x2 = np.array([r * math.cos(ang), r * math.sin(ang)])
        assert density_projection(p, x1) == pytest.approx(
            density_projection(p, x2), rel=1e-12
        )


def test_density_projection_nu0_reduction():
    # at nu = 0 the law depends on K0 = (n+1)(d-1)/2 only; compare against
    # an independent transcription of that special case, which holds at
    # m = d too (the exponent K0 - (m+1)/2 is -1/2 at d2 n1)
    for d, m, n in ((3, 1, 1), (4, 2, 2), (5, 2, 3), (2, 2, 1), (3, 3, 2), (4, 4, 3)):
        p = FlightParams(d=d, n=n, nu=0.0, m=m)
        K0 = 0.5 * (n + 1) * (d - 1)
        for r in np.linspace(0.01, 0.97, 20):
            expected = (
                math.gamma(K0 + 0.5)
                / math.gamma(K0 - 0.5 * m + 0.5)
                * (1.0 - r * r) ** (K0 - 0.5 * (m + 1))
                / math.pi ** (0.5 * m)
            )
            x = point_with_norm(m, float(r), 0.0) if m > 1 else np.array([float(r)])
            assert density_projection(p, x) == pytest.approx(expected, rel=1e-12)


def test_density_projection_support_and_domain():
    p = FlightParams(d=3, n=1, nu=0.0, m=2)
    assert density_projection(p, [1.2, 0.0]) == 0.0
    assert density_projection(p, [1.0, 0.0]) == 0.0  # boundary excluded
    for nu in (1.0, 0.3):  # the full flight with drift is not isotropic
        with pytest.raises(ValueError, match="m = d requires nu = 0"):
            density_projection(FlightParams(d=3, n=1, nu=nu, m=3), [0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        density_projection(p, [0.1])  # wrong point length
    with pytest.raises(ValueError):
        density_projection(FlightParams(d=3, n=0, nu=0.0, m=2), [0.1, 0.1])


# --------------------------------------------- radial density / cdf

def test_radial_density_folded_uniform_is_flat():
    p = FlightParams(d=2, n=1, nu=0.0, m=1)
    for r in (0.1, 0.5, 0.9):
        assert radial_density_projection(p, r) == pytest.approx(1.0, rel=1e-12)


def test_radial_density_polar_factorization():
    # radial pdf = point density * surface area * r^(m-1)
    for d, m, n, nu in ((3, 2, 1, 0.5), (4, 1, 2, 1.0), (5, 2, 3, 0.0)):
        p = FlightParams(d=d, n=n, nu=nu, m=m)
        surf = 2.0 * math.pi ** (0.5 * m) / math.gamma(0.5 * m)
        for r in (0.15, 0.5, 0.85):
            x = point_with_norm(m, r, 0.0) if m > 1 else np.array([r])
            expected = density_projection(p, x) * surf * r ** (m - 1)
            assert radial_density_projection(p, r) == pytest.approx(expected, rel=1e-12)


def test_radial_density_normalizes():
    for d, m, n, nu in ((2, 1, 1, 0.0), (3, 2, 2, 1.0), (4, 2, 1, 0.5)):
        p = FlightParams(d=d, n=n, nu=nu, m=m)
        ct = p.c * p.t
        total, _ = quad(
            lambda u: radial_density_projection(p, ct * math.sin(u))
            * ct
            * math.cos(u),
            0.0,
            0.5 * math.pi,
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-8)


def test_cdf_endpoints():
    p = FlightParams(d=3, n=1, nu=0.0, m=1)
    assert cdf_radial_projection(p, 0.0) == 0.0
    assert cdf_radial_projection(p, -1.0) == 0.0
    assert cdf_radial_projection(p, 1.0) == 1.0
    assert cdf_radial_projection(p, 5.0) == 1.0


def test_cdf_folded_uniform():
    p = FlightParams(d=2, n=1, nu=0.0, m=1)
    assert cdf_radial_projection(p, 0.5) == pytest.approx(0.5, rel=1e-12)


# q = 1, 0.5, 1, 4.5 and 219; at q = 219 a binomial finite sum of the CDF
# cancels catastrophically
_CDF_SETS = ((3, 1, 1, 0.0), (2, 1, 2, 0.0), (3, 2, 1, 0.25), (4, 2, 2, 0.5), (20, 2, 20, 1.0))
_CDF_RADII = np.array([0.05, 0.1, 0.2, 0.4, 0.55, 0.7, 0.8, 0.9, 0.99])


def test_cdf_finite_sum_agrees_with_quadrature():
    # against direct quadrature of the radial density; for m = 2 the CDF is
    # also the finite form 1 - (1 - r^2)^(q+1)
    rs = _CDF_RADII
    for d, m, n, nu in _CDF_SETS:
        p = FlightParams(d=d, n=n, nu=nu, m=m)
        ct = p.c * p.t
        got = cdf_radial_projection(p, rs)
        for r, val in zip(rs, got):
            direct, _ = quad(
                lambda u: radial_density_projection(p, ct * math.sin(u)) * ct * math.cos(u),
                0.0,
                math.asin(r / ct),
                limit=200,
            )
            assert val == pytest.approx(direct, abs=1e-8)
        if m == 2:
            q = 0.5 * (n + 1) * (2 * nu + d - 1) - 1.5
            assert got == pytest.approx(1.0 - (1.0 - rs * rs) ** (q + 1.0), abs=1e-12)


def test_cdf_both_branches_match_incomplete_beta():
    # integer and half-integer q, against quadrature of the Beta law
    for d, m, n, nu in _CDF_SETS:
        p = FlightParams(d=d, n=n, nu=nu, m=m)
        got = cdf_radial_projection(p, _CDF_RADII)
        for r, val in zip(_CDF_RADII, got):
            assert val == pytest.approx(radial_cdf_oracle(d, m, n, nu, r), abs=1e-9)


def test_cdf_monotone():
    p = FlightParams(d=4, n=2, nu=1.0, m=2)
    vals = cdf_radial_projection(p, np.linspace(0.0, 1.0, 25))
    assert np.all(np.diff(vals) >= -1e-12)


# --------------------------------------------------- array inputs

def test_laws_broadcast_and_return_scalars_for_one_point():
    proj = FlightParams(d=4, n=2, nu=0.5, m=2)
    full = FlightParams(d=3, n=2, nu=1.0)
    rng = _rng(31)
    pts_m = rng.uniform(-0.6, 0.6, size=(2, 3, 2))
    pts_d = rng.uniform(-0.5, 0.5, size=(2, 3, 3))
    radii = rng.uniform(0.0, 1.0, size=(2, 3))
    mixture = MixtureParams(lam=1.5, base=proj)
    for law, p, arr in (
        (cf_projection, proj, 4.0 * pts_m),
        (density_projection, proj, pts_m),
        (radial_density_projection, proj, radii),
        (cdf_radial_projection, proj, radii),
        (cf_nu1, full, 4.0 * pts_d),
        (density_nu1, full, pts_d),
        (density_nu1_closed, full, pts_d),
        (radial_density_nu1, full, radii),
        (unconditional_density_projection, mixture, pts_m),
    ):
        batch = law(p, arr)
        assert batch.shape == (2, 3), law.__name__
        one = law(p, arr[1, 2])
        assert isinstance(one, np.float64), law.__name__
        # one point and a batch give the same bits
        assert one == batch[1, 2], law.__name__
    # at every point of a batch: numpy's pairwise 1-D sums and a numpy
    # scalar's ** round differently from a batch
    for d, n in ((2, 1), (3, 2), (3, 4), (5, 3), (8, 6)):
        full = FlightParams(d=d, n=n, nu=1.0)
        proj = FlightParams(d=d, n=n, nu=0.3, m=d - 1)
        v = rng.normal(size=(200, d))
        pts = v / np.linalg.norm(v, axis=1)[:, None] * rng.uniform(0.0, 1.0, (200, 1))
        radii = rng.uniform(0.0, 1.0, 200)
        cases = [
            (cf_nu1, full, 6.0 * v),
            (density_nu1, full, pts),
            (radial_density_nu1, full, radii),
            (cf_projection, proj, 6.0 * v[:, 1:]),
            (density_projection, proj, pts[:, 1:]),
            (radial_density_projection, proj, radii),
            (cdf_radial_projection, proj, radii),
        ]
        if n <= 2:
            cases.append((density_nu1_closed, full, pts))
        for law, p, arr in cases:
            ones = np.array([law(p, a) for a in arr])
            assert ones.tobytes() == law(p, arr).tobytes(), (law.__name__, d, n)


def test_laws_propagate_nan():
    proj = FlightParams(d=3, n=1, nu=0.0, m=2)
    full = FlightParams(d=3, n=1, nu=1.0)
    nan = math.nan
    assert math.isnan(density_projection(proj, [nan, 0.0]))
    for law, p, arr in (
        (density_projection, proj, [[nan, 0.0], [0.3, 0.0]]),
        (radial_density_projection, proj, [nan, 0.3]),
        (cdf_radial_projection, proj, [nan, 0.3]),
        (density_nu1, full, [[nan, 0.0, 0.0], [0.3, 0.0, 0.0]]),
        (density_nu1_closed, full, [[0.0, 0.0, nan], [0.3, 0.0, 0.0]]),
        (radial_density_nu1, full, [nan, 0.3]),
        (cf_projection, proj, [[nan, 0.0], [0.3, 0.0]]),
        (cf_nu1, full, [[0.0, 0.0, nan], [0.3, 0.0, 0.0]]),
    ):
        vals = law(p, arr)
        assert math.isnan(vals[0]) and vals[1] > 0.0, law.__name__


def test_laws_where_the_squared_norm_overflows():
    # |alpha|^2 and |x|^2 overflow a double above about 1.3e154: the cfs are
    # about 0 there (as bessel_j_ratio(3.5, 1e200) is 0.0) and the points lie
    # outside every support; the warning filter fails any overflow warning
    proj = FlightParams(d=3, n=2, nu=1.0, m=2)
    full = FlightParams(d=3, n=2, nu=1.0)
    assert bessel_j_ratio(3.5, 1e200) == 0.0
    for big in ([1e200, 0.0, 0.0], [0.0, 0.0, -1e200], [1e200, 1e200, 1e-300]):
        assert abs(cf_nu1(full, big)) < 1e-100
        assert density_nu1(full, big) == 0.0
        assert density_nu1_closed(full, big) == 0.0
    for big in ([1e200, 0.0], [0.0, -1e200], [1e200, 1e-300]):
        assert abs(cf_projection(proj, big)) < 1e-100
        assert density_projection(proj, big) == 0.0
    # the in-range rows of a batch keep their bits
    pts = np.array([[1e200, 0.0, 0.0], [0.3, -0.2, 0.4]])
    for law, p, arr in (
        (cf_nu1, full, 4.0 * pts),
        (cf_projection, proj, 4.0 * pts[:, :2]),
        (density_nu1, full, pts),
        (density_projection, proj, pts[:, :2]),
    ):
        assert law(p, arr)[1] == law(p, arr[1]), law.__name__
    # a non-finite frequency still gives NaN
    assert math.isnan(cf_nu1(full, [math.inf, 0.0, 0.0]))


# c t at both ends of the double range, where (c t)^(-dim) and |alpha|^2
# leave it for the laws' usual dimensions
_EXTREME_CT = [1e-300, 1e-150, 1e150, 1e300]


def _at_ct(p, ct):
    # the law's parameters with c t = ct (through c, at t = 1)
    if isinstance(p, MixtureParams):
        return replace(p, base=replace(p.base, c=ct))
    return replace(p, c=ct)


@pytest.mark.parametrize("ct", _EXTREME_CT)
def test_densities_follow_the_scaling_law_at_extreme_ct(ct):
    # f_ct(x) = (c t)^(-dim) f_1(x / c t), the scale taken at 40 digits: to
    # 1e-13 where that is a normal double, ValueError where it passes the
    # double range, and no NaN at any finite point
    mp = pytest.importorskip("mpmath")
    full = FlightParams(d=2, n=2, nu=1.0)
    proj = FlightParams(d=3, n=2, nu=0.5, m=2)
    rng = _rng(47)
    v = rng.normal(size=(6, 2))
    unit = v / np.linalg.norm(v, axis=1)[:, None] * rng.uniform(0.0, 0.95, (6, 1))
    points = list(unit) + [np.zeros(2), np.array([0.6, 0.9]), np.array([1e200, 0.0])]
    radii = [0.02, 0.3, 0.7, 0.97, 0.0, 1.5, 1e200]
    cases = [
        (density_nu1, full, points, 2),
        (density_nu1_closed, full, points, 2),
        (density_nu1_closed, replace(full, n=1), points, 2),
        (density_projection, proj, points, 2),
        (unconditional_density_projection, MixtureParams(lam=1.5, base=proj), points, 2),
        (radial_density_nu1, full, radii, 1),
        (radial_density_projection, proj, radii, 1),
    ]
    normal = 0
    for law, p, unit_points, dim in cases:
        for y in unit_points:
            with np.errstate(over="ignore"):
                x = np.multiply(y, ct)
                one = law(p, np.asarray(x) / ct)  # f_1 where the law takes it
            with mp.workdps(40):
                ref = mp.mpf(float(one)) * mp.mpf(ct) ** (-dim)
            if abs(ref) > np.finfo(float).max:
                with pytest.raises(ValueError, match="double range"):
                    law(_at_ct(p, ct), x)
                continue
            got = law(_at_ct(p, ct), x)
            assert not math.isnan(got), (law.__name__, y)
            if abs(ref) >= np.finfo(float).tiny:
                normal += 1
                assert abs(got - ref) <= 1e-13 * abs(ref), (law.__name__, y, got, ref)
            else:
                assert abs(got - ref) <= 1e-13 * abs(ref) + 1e-323, (law.__name__, y, got, ref)
    # at c t = 1e+-300 only the radial laws' values, at 1e+-150 all but
    # the overflowing or underflowing full-flight ones, are normal doubles
    assert normal >= (8 if abs(math.log10(ct)) > 200 else 40)


@pytest.mark.parametrize("ct", _EXTREME_CT)
def test_cfs_follow_the_scaling_law_at_extreme_ct(ct):
    # cf_ct(alpha) = cf_1(c t alpha), to 1e-12, where |alpha|^2 underflows
    # (c t = 1e150, 1e300) or c t |alpha| nears the top of the range
    full = FlightParams(d=3, n=2, nu=1.0)
    proj = FlightParams(d=3, n=2, nu=0.5, m=2)
    rng = _rng(53)
    v = rng.normal(size=(8, 3))
    beta = v / np.linalg.norm(v, axis=1)[:, None] * rng.uniform(0.2, 3.0, (8, 1))
    for law, p, b in ((cf_nu1, full, beta), (cf_projection, proj, beta[:, :2])):
        alpha = b / ct
        got = law(_at_ct(p, ct), alpha)
        np.testing.assert_allclose(got, law(p, ct * alpha), rtol=1e-12, atol=0.0)
        assert np.all(got < 1.0), law.__name__
        # far out the cf is about 0, and near the origin about 1; never NaN
        ends = law(_at_ct(p, ct), np.array([[1e308, 0.0, 0.0], [1e-308, 0.0, 0.0]])[:, : b.shape[1]])
        assert abs(ends[0]) < 1e-6 and 1.0 - 1e-12 <= ends[1] <= 1.0, (law.__name__, ends)


def test_radial_density_where_r_over_ct_underflows():
    # r / c t underflows to 0 at r = 1e-300, c t = 1e30; r is still inside
    # the support, where the m = 1 radial density is about 2 f(0) / c t
    p = FlightParams(d=3, n=2, nu=0.5, m=1, c=1e30)
    want = radial_density_projection(replace(p, c=1.0), 1e-300) / 1e30
    assert radial_density_projection(p, 1e-300) == pytest.approx(want, rel=1e-13)
    assert radial_density_projection(p, [1e-300, 0.0])[1] == 0.0


def test_cf_projection_at_the_top_of_the_double_range():
    # near the top of the double range the cf is about 0, as it is at
    # [1e300, 1e300], and the small-x series of bessel_j_ratio (where
    # x * x overflows) must not run
    p = FlightParams(d=3, n=2, nu=1.0, m=2)
    for big in ([1.7e308, 0.0], [1e308, 0.0], [1e300, 1e300]):
        assert cf_projection(p, big) == 0.0
    assert np.all(bessel_j_ratio(2.5, [1e308, 1.7e308]) == 0.0)


def test_radial_densities_far_outside_the_support():
    # r * r overflows above about 1.3e154: such radii give 0 with no
    # overflow warning, and the in-support entries keep their bits
    proj = FlightParams(d=3, n=2, nu=1.0, m=2)
    full = FlightParams(d=3, n=2, nu=1.0)
    r = np.array([1e200, -1e200, 0.4])
    for law, p in ((radial_density_projection, proj), (radial_density_nu1, full)):
        vals = law(p, r)
        assert vals[0] == 0.0 and vals[1] == 0.0, law.__name__
        assert vals[2] == law(p, 0.4) > 0.0, law.__name__


def test_nu1_table_is_built_once_and_read_only():
    analytic._nu1_table.cache_clear()
    p = FlightParams(d=3, n=4, nu=1.0)
    pts = np.array([[0.1, -0.3, 0.2], [0.5, 0.2, -0.6]])
    radii = np.array([0.2, 0.75])
    laws = ((density_nu1, pts), (cf_nu1, 7.0 * pts), (radial_density_nu1, radii))
    first = [law(p, arr).tobytes() for law, arr in laws]
    table = analytic._nu1_table(3, 4)
    assert analytic._nu1_table.cache_info().maxsize == analytic._NU1_TABLES
    columns = table.bessel + (table.density, table.radial)
    # N + 1 positive terms a density, N the least degree with every
    # Bernstein coefficient >= 0 (test_elevated_coefficients_are_exact_and_least)
    assert len(table.bessel[0]) == 4 + 2 and (len(table.density), len(table.radial)) == (9, 8)
    for column in columns:
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0
    # a second call, from the cache, gives the first call's bits
    assert analytic._nu1_table(3, 4) is table
    assert [law(p, arr).tobytes() for law, arr in laws] == first
    # and so does a table built again
    analytic._nu1_table.cache_clear()
    again = analytic._nu1_table(3, 4)
    assert again is not table
    assert [a.tobytes() for a in again.bessel + (again.density, again.radial)] == [
        a.tobytes() for a in columns]
    assert [law(p, arr).tobytes() for law, arr in laws] == first


# the law_eval benchmark's cells (bench/workloads.py): nu = 1 density and
# cf at d, n <= 8 on 12 points, radial nu = 1, the two CDFs and the mixture
_BENCH_NU1_CELLS = [(d, n) for d in (2, 3, 5, 8) for n in (1, 2, 4, 8)]


@pytest.mark.parametrize("d,n", _BENCH_NU1_CELLS)
def test_one_point_has_its_batch_row_bits_at_the_bench_nu1_cells(d, n):
    p = FlightParams(d=d, n=n, nu=1.0)
    rng = _rng(10 * d + n)
    v = rng.normal(size=(12, d))
    u = v / np.linalg.norm(v, axis=1)[:, None]
    xs = u * rng.uniform(0.0, 1.0, (12, 1)) ** (1.0 / d)
    alphas = u * rng.uniform(0.0, 40.0, (12, 1))
    for law, pts in ((density_nu1, xs), (cf_nu1, alphas)):
        batch = law(p, pts)
        ones = np.array([law(p, a) for a in pts])
        assert ones.tobytes() == batch.tobytes(), law.__name__


def test_one_point_has_its_batch_row_bits_at_the_other_bench_cells():
    rng = _rng(61)
    radii = np.linspace(rng.uniform(0.0, 0.05), rng.uniform(0.95, 1.0), 200)
    proj = FlightParams(d=3, n=2, nu=0.5, m=2)
    pts = rng.uniform(-0.6, 0.6, (40, 2))
    cases = [
        (radial_density_nu1, FlightParams(d=3, n=1, nu=1.0), radii),
        (radial_density_nu1, FlightParams(d=3, n=2, nu=1.0), radii),
        (cdf_radial_projection, FlightParams(d=3, n=1, nu=1.0, m=1), radii),
        (cdf_radial_projection, FlightParams(d=3, n=2, nu=0.3, m=2), radii),
        (unconditional_density_projection, MixtureParams(lam=2.2, base=proj), pts),
    ]
    for law, p, arr in cases:
        ones = np.array([law(p, a) for a in arr])
        assert ones.tobytes() == law(p, arr).tobytes(), law.__name__


# -------------------------------------------------------- moments

def test_radial_moment_known_value():
    p = FlightParams(d=3, n=1, nu=0.0, m=2)
    assert radial_moment(p, 2) == pytest.approx(0.4, rel=1e-12)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 2), (4, 3), (2, 3)])
def test_radial_density_at_m_d_integrates_to_the_cdf(d, n):
    # the full nu = 0 flight: the package's Gauss-Kronrod kernel over
    # [0, r] against the Beta CDF, and CDF(c t) = 1.  r = c t sin(u)
    # absorbs the (c^2 t^2 - r^2)^(-1/2) of d2 n1 at the end of the support
    p = FlightParams(d=d, n=n, nu=0.0, c=1.3, t=0.9)
    ct = p.c * p.t
    edges = np.linspace(0.0, 0.5 * math.pi, 9)
    pieces = _integrate(
        lambda u: radial_density_projection(p, ct * np.sin(u)) * ct * np.cos(u),
        edges[:-1], edges[1:], 1e-13,
    )
    np.testing.assert_allclose(
        np.cumsum(pieces), cdf_radial_projection(p, ct * np.sin(edges[1:])), rtol=0.0, atol=1e-12
    )
    assert cdf_radial_projection(p, p.c * p.t) == 1.0
    for nu in (1.0, 0.3):
        with pytest.raises(ValueError, match="m = d requires nu = 0"):
            radial_density_projection(replace(p, nu=nu), 0.5)
        with pytest.raises(ValueError, match="m = d requires nu = 0"):
            cdf_radial_projection(replace(p, nu=nu), 0.5)


def test_radial_moment_matches_quadrature():
    for d, m, n, nu in ((3, 2, 1, 0.0), (4, 1, 2, 1.0), (5, 2, 3, 0.5)):
        p = FlightParams(d=d, n=n, nu=nu, m=m)
        ct = p.c * p.t
        for order in (1, 2, 4):
            direct, _ = quad(
                lambda u: (ct * math.sin(u)) ** order
                * radial_density_projection(p, ct * math.sin(u))
                * ct
                * math.cos(u),
                0.0,
                0.5 * math.pi,
                limit=200,
            )
            assert radial_moment(p, order) == pytest.approx(direct, abs=1e-8)


def test_radial_moment_decays_relative_to_ct_power():
    p = FlightParams(d=3, n=2, nu=1.0, m=2, c=2.0, t=0.7)
    ct = p.c * p.t
    rel = [radial_moment(p, k) / ct**k for k in (1, 2, 4, 8, 16)]
    assert all(b < a for a, b in zip(rel, rel[1:]))
    assert rel[-1] > 0.0


def test_radial_moment_past_the_double_range_raises():
    # (c t)^order once overflowed as an OverflowError from float **
    p = FlightParams(d=3, n=1, nu=0.0, m=2, c=1e10)
    assert radial_moment(p, 30) == 2.0299467158400729e298
    with pytest.raises(ValueError, match="order 40"):
        radial_moment(p, 40)


def test_radial_moment_requires_a_finite_order():
    p = FlightParams(d=3, n=1, nu=0.0, m=1)
    for order in (math.nan, math.inf):  # once NaN
        with pytest.raises(ValueError, match="finite order"):
            radial_moment(p, order)


@pytest.mark.parametrize("order", [True, np.bool_(True)])
def test_radial_moment_takes_no_boolean_order(order):
    # True once returned the first moment, 0.37500000000000017
    with pytest.raises(ValueError, match="finite order"):
        radial_moment(FlightParams(d=3, n=1, nu=0.0, m=1), order)


def test_radial_moment_validation():
    with pytest.raises(ValueError):
        radial_moment(FlightParams(d=3, n=1, nu=0.0, m=1), 0)
    with pytest.raises(ValueError):
        radial_moment(FlightParams(d=3, n=0, nu=0.0, m=1), 2)
    # at m = d the formula holds only for the isotropic nu = 0 flight
    assert radial_moment(FlightParams(d=3, n=2, nu=0.0), 2) == pytest.approx(3.0 / 7.0)
    for nu in (1.0, 0.3):
        with pytest.raises(ValueError, match="m = d"):
            radial_moment(FlightParams(d=3, n=2, nu=nu), 2)


# ------------------------------------------------------ nu = 1 cf

def test_cf_nu1_at_zero_and_symmetry():
    p = FlightParams(d=3, n=2, nu=1.0)
    assert cf_nu1(p, np.zeros(3)) == 1.0
    a = np.array([0.7, -1.1, 2.0])
    flipped = a.copy()
    flipped[-1] = -flipped[-1]
    assert cf_nu1(p, a) == pytest.approx(cf_nu1(p, flipped), rel=1e-14)


@pytest.mark.parametrize(
    "d,n,alpha",
    [(2, 8, [1e-9, 0.0]), (3, 2, [1e-150, 0.0, 0.0]), (2, 1, [1e-150, 0.0]), (3, 2, [0.0, 0.0, 1e-9])],
)
def test_cf_nu1_never_exceeds_one_near_the_origin(d, n, alpha):
    # the sum once rounded to 1 + 5.7e-14 at d2 n8, alpha = (1e-9, 0)
    assert 1.0 - 1e-12 <= cf_nu1(FlightParams(d=d, n=n, nu=1.0), alpha) <= 1.0


def test_cf_nu1_domain_errors():
    with pytest.raises(ValueError):
        cf_nu1(FlightParams(d=2, n=1, nu=0.0), [1.0, 1.0])
    with pytest.raises(ValueError):
        cf_nu1(FlightParams(d=2, n=0, nu=1.0), [1.0, 1.0])
    with pytest.raises(ValueError):
        cf_nu1(FlightParams(d=3, n=1, nu=1.0), [1.0, 1.0])


def test_cf_nu1_large_d_n_matches_mpmath():
    # the prefactor Gamma(451) at d = 40, n = 10 overflows a double on its
    # own; folded into each term's log scale the sum stays within 1e-9
    mp = pytest.importorskip("mpmath")
    p = FlightParams(d=40, n=10, nu=1.0, c=1.3, t=0.9)
    ct = p.c * p.t
    alphas = []
    for w in (0.5, 5.0, 20.0, 40.0):
        for frac in (0.0, 0.5, 1.0):
            a = np.zeros(p.d)
            a[0], a[-1] = math.sqrt(1.0 - frac), math.sqrt(frac)
            alphas.append(a * w / ct)
    for a, v in zip(alphas, cf_nu1(p, np.array(alphas))):
        assert abs(v - cf_nu1_mp(mp, p.d, p.n, ct, a)) <= 1e-9


def test_cf_nu1_last_component_zero_leaves_single_term():
    # with alpha_d = 0 only the j = n+1 term survives
    for d, n in ((2, 1), (3, 2), (4, 1)):
        p = FlightParams(d=d, n=n, nu=1.0)
        alpha = np.zeros(d)
        alpha[0] = 1.7
        w = p.c * p.t * 1.7
        M = (n + 1) * (d + 1)
        mu = 0.5 * (M - 1)
        single = (
            math.exp(0.5 * math.log(math.pi) + math.lgamma(M) - 0.5 * (M - 1) * math.log(2.0))
            * math.exp(-math.lgamma(0.5 * M))
            * bessel_j_ratio(mu, w)
        )
        assert cf_nu1(p, alpha) == pytest.approx(single, rel=1e-13)


def _cf_step_factor(d, rho, ratio, tau, c):
    # per-segment angular average: the two-Bessel combination the full cf
    # is built from before the waiting times are integrated out
    w = c * tau * rho
    const = 2.0 ** (0.5 * d) * math.gamma(1.0 + 0.5 * d)
    return const * (
        bessel_j_ratio(0.5 * d, w) - ratio * w * w * bessel_j_ratio(0.5 * d + 1.0, w)
    )


def test_cf_nu1_against_n1_quadrature_oracle():
    rng = _rng(11)
    for d in (2, 3, 4):
        p = FlightParams(d=d, n=1, nu=1.0)
        for _ in range(6):
            alpha = rng.normal(size=d) * rng.uniform(0.3, 2.5)
            rho = float(np.linalg.norm(alpha))
            ratio = float(alpha[-1]) ** 2 / rho**2
            dens_const = math.exp(
                math.lgamma(2.0 * (d + 1)) - 2.0 * math.lgamma(d + 1.0)
            )
            val, _ = quad(
                lambda tau: dens_const
                * (tau * (1.0 - tau)) ** d
                * _cf_step_factor(d, rho, ratio, tau, 1.0)
                * _cf_step_factor(d, rho, ratio, 1.0 - tau, 1.0),
                0.0,
                1.0,
                epsabs=1e-13,
                limit=300,
            )
            assert cf_nu1(p, alpha) == pytest.approx(val, abs=1e-9)


def test_cf_nu1_against_n2_quadrature_oracle():
    d = 2
    p = FlightParams(d=d, n=2, nu=1.0)
    alpha = np.array([0.8, 1.3])
    rho = float(np.linalg.norm(alpha))
    ratio = float(alpha[-1]) ** 2 / rho**2
    dens_const = math.exp(math.lgamma(3.0 * (d + 1)) - 3.0 * math.lgamma(d + 1.0))

    def integrand(t2, t1):
        t3 = 1.0 - t1 - t2
        return (
            dens_const
            * (t1 * t2 * t3) ** d
            * _cf_step_factor(d, rho, ratio, t1, 1.0)
            * _cf_step_factor(d, rho, ratio, t2, 1.0)
            * _cf_step_factor(d, rho, ratio, t3, 1.0)
        )

    val, _ = dblquad(integrand, 0.0, 1.0, 0.0, lambda t1: 1.0 - t1, epsabs=1e-11)
    assert cf_nu1(p, alpha) == pytest.approx(val, abs=1e-7)


def test_cf_nu1_monte_carlo():
    p = FlightParams(d=2, n=1, nu=1.0)
    finals = simulate_batch(p, 200_000, 99)
    for alpha in ([1.0, 1.0], [0.5, 2.0], [2.5, 0.0]):
        alpha = np.asarray(alpha)
        dot = finals @ alpha
        re = np.cos(dot)
        se = re.std(ddof=1) / math.sqrt(len(re))
        assert abs(re.mean() - cf_nu1(p, alpha)) <= 3.5 * se
        im = np.sin(dot)
        assert abs(im.mean()) <= 3.5 * im.std(ddof=1) / math.sqrt(len(im))


# ------------------------------------------------- nu = 1 densities

def test_density_nu1_agrees_with_closed_forms():
    rng = _rng(21)
    for d in (2, 3, 4):
        for n in (1, 2):
            p = FlightParams(d=d, n=n, nu=1.0)
            for _ in range(50):
                v = rng.normal(size=d)
                x = v / np.linalg.norm(v) * rng.uniform(0.05, 0.95)
                a = density_nu1(p, x)
                b = density_nu1_closed(p, x)
                assert a == pytest.approx(b, rel=1e-10)


def _closed_brackets(d, n):
    # the coefficients of x_d^(2k) Q^e in the brackets of density_nu1_closed
    if n == 1:
        return [Fraction(3, d - 1), Fraction(-2), Fraction(d + 1)]
    den = (d + 1) * d * (d - 1)
    return [
        Fraction(4 * (d + 4), den),
        Fraction(2 * (6 * d * d + 6 * d + 8), den),
        Fraction(-8),
        Fraction(8 * (d + 1), 3),
    ]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", range(2, 15))
def test_nu1_constants_stand_in_the_ratios_of_the_closed_brackets(d, n):
    # term k is R_k / Gamma(e_0 - k + 1) times a factor common to every k,
    # so term k / term 0 = R_k / R_0 * e_0 (e_0 - 1) ... (e_0 - k + 1), exactly
    consts = analytic._nu1_constants(d, n)
    brackets = _closed_brackets(d, n)
    assert len(consts) == len(brackets) == n + 2
    e0 = Fraction(n * (d + 1), 2)
    for k, (r, b) in enumerate(zip(consts, brackets)):
        falling = math.prod((e0 - i for i in range(k)), start=Fraction(1))
        assert Fraction(r, consts[0]) * falling == b / brackets[0], k
    # and the table's positive terms, at x = (0, ..., 0, 0.5) where
    # x_d^2 = 1/4, Q = 3/4 and W = 1, sum to the closed form's value
    tab = analytic._nu1_table(d, n)
    N = len(tab.density) - 1
    exponents = 0.5 * n * (d + 1) - n - 1 + N - np.arange(N + 1)
    terms = np.exp(tab.density_pref + tab.density) * 0.25 ** np.arange(N + 1) * 0.75**exponents
    assert np.all(terms >= 0.0)
    x = np.zeros(d)
    x[-1] = 0.5
    closed = density_nu1_closed(FlightParams(d=d, n=n, nu=1.0), x)
    assert math.fsum(terms) == pytest.approx(closed, rel=1e-12)


def _density_constants(d, n):
    # c_k = R_k E (E-1) ... (E-k+1), E = n(d+1)/2: the density's constant of
    # x_d^(2k) Q^(E-k), all but a factor common to every k
    E = Fraction(n * (d + 1), 2)
    return [
        r * math.prod((E - i for i in range(k)), start=Fraction(1))
        for k, r in enumerate(analytic._nu1_constants(d, n))
    ]


def _bernstein_form(coeffs, u):
    # sum_j coeffs[j] u^j (1-u)^(K-j), K = len(coeffs) - 1, in the power basis
    K = len(coeffs) - 1
    return sum(c * u**j * (1 - u) ** (K - j) for j, c in enumerate(coeffs))


@pytest.mark.parametrize("d,n", [(2, 1), (3, 2), (8, 8), (10, 30)])
def test_elevated_coefficients_are_exact_and_least(d, n):
    c = _density_constants(d, n)
    B = analytic._elevated(c)
    N = len(B) - 1
    # the same polynomial, exactly
    for u in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(1)):
        assert _bernstein_form(B, u) == _bernstein_form(c, u), u
    assert all(b >= 0 for b in B)
    # and at degree m = N - 1, by the closed form of degree elevation,
    # sum_i C(m - n - 1, j - i) c_i, some coefficient is < 0
    m = N - 1
    lift = m - n - 1
    assert lift >= 0
    below = [
        sum(math.comb(lift, j - i) * c[i] for i in range(max(0, j - lift), min(j, n + 1) + 1))
        for j in range(m + 1)
    ]
    assert _bernstein_form(below, Fraction(1, 3)) == _bernstein_form(c, Fraction(1, 3))
    assert min(below) < 0


def test_density_nu1_reference_point():
    # value at the origin for d=2, n=1: 45/(32 pi)
    p = FlightParams(d=2, n=1, nu=1.0)
    assert density_nu1(p, [0.0, 0.0]) == pytest.approx(
        45.0 / (32.0 * math.pi), rel=1e-12
    )
    assert density_nu1_closed(p, [0.0, 0.0]) == pytest.approx(
        45.0 / (32.0 * math.pi), rel=1e-12
    )


def test_density_nu1_symmetries():
    p = FlightParams(d=3, n=2, nu=1.0)
    rng = _rng(22)
    for _ in range(10):
        v = rng.normal(size=3)
        x = v / np.linalg.norm(v) * rng.uniform(0.05, 0.95)
        flipped = x.copy()
        flipped[-1] = -flipped[-1]
        assert density_nu1(p, x) == pytest.approx(density_nu1(p, flipped), rel=1e-13)
        ang = rng.uniform(0.0, 2 * math.pi)
        rot = x.copy()
        rot[0] = x[0] * math.cos(ang) - x[1] * math.sin(ang)
        rot[1] = x[0] * math.sin(ang) + x[1] * math.cos(ang)
        assert density_nu1(p, x) == pytest.approx(density_nu1(p, rot), rel=1e-12)


def test_density_nu1_support_and_domain():
    p = FlightParams(d=2, n=1, nu=1.0)
    assert density_nu1(p, [1.5, 0.0]) == 0.0
    assert density_nu1_closed(p, [0.0, 1.0]) == 0.0
    with pytest.raises(ValueError):
        density_nu1(FlightParams(d=2, n=1, nu=0.0), [0.1, 0.1])
    with pytest.raises(ValueError):
        density_nu1_closed(FlightParams(d=2, n=3, nu=1.0), [0.1, 0.1])


def _density_nu1_against_mpmath(mp, p):
    # at 12 points, every value is within 1e-9 relative of a 60-digit sum
    ct = p.c * p.t
    for r in (0.0, 0.3, 0.6, 0.9):
        for frac in (0.0, 0.5, 1.0):
            x = point_with_norm(p.d, r * ct, r * ct * math.sqrt(frac))
            v = density_nu1(p, x)
            assert v == pytest.approx(density_nu1_mp(mp, p.d, p.n, ct, x), rel=1e-9, abs=0)


def test_density_nu1_large_d_n_matches_mpmath_or_raises():
    # Gamma(341) at d = 10, n = 30 overflows a double on its own; the
    # alternating sum the positive terms replaced raised for cancellation
    # at 2 of these points, and at more of them at d4 n60 and d10 n60
    mp = pytest.importorskip("mpmath")
    for d, n in ((10, 30), (4, 60), (10, 60)):
        _density_nu1_against_mpmath(mp, FlightParams(d=d, n=n, nu=1.0, c=1.3, t=0.9))


def test_density_nu1_at_d10_n20_matches_mpmath_everywhere():
    mp = pytest.importorskip("mpmath")
    p = FlightParams(d=10, n=20, nu=1.0, c=1.3, t=0.9)
    _density_nu1_against_mpmath(mp, p)


def test_density_nu1_closed_non_negative():
    rng = _rng(23)
    for d in (2, 3, 4):
        for n in (1, 2):
            p = FlightParams(d=d, n=n, nu=1.0)
            for _ in range(2_000):
                v = rng.normal(size=d)
                x = v / np.linalg.norm(v) * rng.uniform(0.0, 0.999)
                assert density_nu1_closed(p, x) >= 0.0


def test_radial_density_nu1_normalizes():
    for d in (2, 3, 4):
        for n in (1, 2, 3, 4, 8) + ((12,) if d == 4 else ()):
            p = FlightParams(d=d, n=n, nu=1.0)
            ct = p.c * p.t
            total, _ = quad(
                lambda u: radial_density_nu1(p, ct * math.sin(u)) * ct * math.cos(u),
                0.0,
                0.5 * math.pi,
                limit=200,
            )
            assert total == pytest.approx(1.0, abs=1e-8)


def test_radial_density_nu1_equals_sphere_integral():
    for d in (2, 3):
        for n in (1, 2):
            p = FlightParams(d=d, n=n, nu=1.0)
            for r in (0.2, 0.55, 0.9):
                direct = sphere_section_integral(
                    lambda rr, xd: density_nu1_closed(p, point_with_norm(d, rr, xd)),
                    d,
                    r,
                )
                assert radial_density_nu1(p, r) == pytest.approx(direct, abs=1e-7)
    # past the explicit forms, the series density is the integrand
    for d in (2, 3, 4):
        p = FlightParams(d=d, n=3, nu=1.0)
        for r in (0.2, 0.55, 0.9):
            direct = sphere_section_integral(
                lambda rr, xd: density_nu1(p, point_with_norm(d, rr, xd)), d, r
            )
            assert radial_density_nu1(p, r) == pytest.approx(direct, abs=1e-7)


def test_radial_density_nu1_shapes():
    # all curves start at 0 and stay positive; the boundary behavior
    # splits by case: d=4 (and d=3, n=2) have one interior mode, while
    # the low-dimensional laws keep rising toward r = ct (for d=2, n=1
    # the (c^2 t^2 - r^2)^(-1/2) term diverges there).  Shapes verified
    # against the sphere-integral of the position density.
    for d in (2, 3, 4):
        for n in (1, 2):
            p = FlightParams(d=d, n=n, nu=1.0)
            grid = np.linspace(1e-4, 1.0 - 1e-4, 600)
            vals = radial_density_nu1(p, grid)
            assert np.all(vals > 0.0)
            assert vals[0] < 1e-2
    for d, n in ((4, 1), (4, 2), (3, 2)):
        p = FlightParams(d=d, n=n, nu=1.0)
        grid = np.linspace(1e-4, 1.0 - 1e-4, 600)
        vals = radial_density_nu1(p, grid)
        k = int(np.argmax(vals))
        assert 0 < k < len(grid) - 1
    p = FlightParams(d=2, n=1, nu=1.0)
    tail = [radial_density_nu1(p, r) for r in (0.999, 0.9999, 0.99999)]
    assert tail[0] < tail[1] < tail[2]


def test_radial_density_nu1_outside_support():
    p = FlightParams(d=3, n=1, nu=1.0)
    assert radial_density_nu1(p, -0.1) == 0.0
    assert radial_density_nu1(p, 1.1) == 0.0


@pytest.mark.parametrize("d,n", [(3, 2), (4, 12), (4, 60), (10, 30)])
def test_radial_density_nu1_matches_mpmath(d, n):
    mp = pytest.importorskip("mpmath")
    p = FlightParams(d=d, n=n, nu=1.0, c=1.3, t=0.9)
    ct = p.c * p.t
    for r in np.linspace(0.05, 0.95, 7) * ct:
        assert radial_density_nu1(p, r) == pytest.approx(
            radial_density_nu1_mp(mp, d, n, ct, r), rel=1e-9, abs=0
        )


def test_radial_density_nu1_raises_on_cancellation():
    # this grid once raised for cancellation in the alternating sum; the
    # positive terms give every value
    mp = pytest.importorskip("mpmath")
    grid = np.linspace(0.0, 1.0, 301)
    vals = radial_density_nu1(FlightParams(d=4, n=60, nu=1.0), grid)
    assert np.all(np.isfinite(vals)) and vals[0] == vals[-1] == 0.0
    want = [radial_density_nu1_mp(mp, 4, 60, 1.0, r) for r in grid[1:-1]]
    np.testing.assert_allclose(vals[1:-1], want, rtol=1e-9, atol=0)


# --------------------------------------------- fractional mixture

@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("nu", [0.0, 1.0])
@pytest.mark.parametrize("lam_t", [0.5, 1.0, 2.0])
def test_pmf_normalizes(d, nu, lam_t):
    mp = MixtureParams(lam=lam_t, base=FlightParams(d=d, n=1, nu=nu, t=1.0))
    total = math.fsum(fractional_poisson_pmf(mp, n) for n in range(61))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pmf_uncorrected_form_fails_normalization():
    mp = MixtureParams(lam=1.0, base=FlightParams(d=2, n=1, nu=1.0, t=1.0))
    total = math.fsum(
        fractional_poisson_pmf(mp, n, uncorrected=True) for n in range(61)
    )
    assert abs(total - 1.0) > 0.01


def test_pmf_small_rate_concentrates_at_zero():
    mp = MixtureParams(lam=1e-12, base=FlightParams(d=3, n=1, nu=1.0, t=1.0))
    assert fractional_poisson_pmf(mp, 0) == pytest.approx(1.0, abs=1e-10)


def test_pmf_requires_integral_n():
    # a fractional, infinite or NaN count once gave a number (0.0687 at 1.5)
    mp = MixtureParams(lam=1.0, base=FlightParams(d=3, n=1, nu=0.5, m=2))
    for n in (1.5, [0, 2.5], math.inf, math.nan, -1):
        with pytest.raises(ValueError, match="integral n >= 0"):
            fractional_poisson_pmf(mp, n)
    assert fractional_poisson_pmf(mp, 2.0) == fractional_poisson_pmf(mp, 2)


@pytest.mark.parametrize("n", [True, np.bool_(True), [False, True]])
def test_pmf_takes_no_boolean_count(n):
    # True once gave the pmf at n = 1, 0.3676274196957108
    mp = MixtureParams(lam=1.0, base=FlightParams(d=3, n=1, nu=0.0, m=1))
    with pytest.raises(ValueError, match="integral n >= 0"):
        fractional_poisson_pmf(mp, n)


def test_mixture_requires_an_integer_n_max():
    base = FlightParams(d=2, n=1, nu=0.0, m=1)
    for n_max in (2.5, True, math.nan, 0):
        with pytest.raises(ValueError, match="n_max"):
            MixtureParams(lam=1.0, base=base, n_max=n_max)
    assert MixtureParams(lam=1.0, base=base, n_max=np.int64(3)).n_max == 3


@pytest.mark.parametrize("lam", [True, np.bool_(True)])
def test_mixture_takes_no_boolean_rate(lam):
    # lam=True was once accepted as rate 1
    with pytest.raises(ValueError, match="finite lam > 0"):
        MixtureParams(lam=lam, base=FlightParams(d=3, n=1, nu=0.0, m=1))


def test_pmf_successive_ratio():
    mp = MixtureParams(lam=1.3, base=FlightParams(d=3, n=1, nu=0.5, t=2.0))
    lam_t = 1.3 * 2.0
    a = 2.0 * 0.5 + 3 - 1
    for n in (0, 1, 5):
        expected = (
            lam_t
            / (n + 1.0)
            * math.exp(
                math.lgamma(0.5 * (n + 1) * a + 0.5) - math.lgamma(0.5 * (n + 2) * a + 0.5)
            )
        )
        ratio = fractional_poisson_pmf(mp, n + 1) / fractional_poisson_pmf(mp, n)
        assert ratio == pytest.approx(expected, rel=1e-12)


def test_mixture_density_normalizes():
    mp = MixtureParams(lam=1.0, base=FlightParams(d=2, n=1, nu=0.0, m=1))
    total, _ = quad(
        lambda u: 2.0 * unconditional_density_projection(mp, [math.sin(u)]) * math.cos(u),
        0.0,
        0.5 * math.pi,
        limit=100,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("d,lam", [(2, 1.5), (3, 0.7)])
def test_mixture_at_m_d_nu0_normalizes(d, lam):
    # the full nu = 0 flight with a random change count: the density
    # integrated over the ball of radius c t = 1 by polar quadrature in
    # r = sin u, which absorbs the (1 - r^2)^(-1/2) of n = 1 at d = 2
    mp = MixtureParams(lam=lam, base=FlightParams(d=d, n=1, nu=0.0))
    sphere = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)

    def shell(u):
        r = math.sin(u)
        return sphere * r ** (d - 1) * unconditional_density_projection(mp, [r] + [0.0] * (d - 1)) * math.cos(u)

    total, _ = quad(shell, 0.0, 0.5 * math.pi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)
    assert 0.0 <= mixture_tail_bound(mp) < 1e-10


@pytest.mark.parametrize("d,m,nu,lam", [(3, 2, 0.5, 1.5), (2, 1, 0.0, 3.0), (5, 3, 1.3, 0.7)])
def test_mixture_equals_sum_of_conditional_densities(d, m, nu, lam):
    # the mixture is one array over n; against the per-n sum of
    # density_projection with the pmf renormalized over n >= 1
    mp = MixtureParams(lam=lam, base=FlightParams(d=d, n=1, nu=nu, m=m))
    x = _rng(8).uniform(-0.7, 0.7, size=(25, m))
    p0 = fractional_poisson_pmf(mp, 0)
    explicit = [
        math.fsum(
            fractional_poisson_pmf(mp, n) / (1.0 - p0) * density_projection(replace(mp.base, n=n), pt)
            for n in range(1, mp.n_max + 1)
        )
        for pt in x
    ]
    np.testing.assert_allclose(unconditional_density_projection(mp, x), explicit, rtol=1e-14, atol=0.0)


def test_mixture_truncation_stability():
    base = FlightParams(d=3, n=1, nu=1.0, m=2)
    x = np.array([0.3, -0.2])
    v25 = unconditional_density_projection(MixtureParams(1.0, base, n_max=25), x)
    v50 = unconditional_density_projection(MixtureParams(1.0, base, n_max=50), x)
    assert abs(v50 - v25) < 1e-8


def test_mixture_tail_bound_small():
    mp = MixtureParams(lam=1.0, base=FlightParams(d=2, n=1, nu=0.0, m=1), n_max=50)
    bound = mixture_tail_bound(mp)
    assert 0.0 <= bound < 1e-10


def _brute_force_tail(mp: MixtureParams) -> float:
    """sum_{n > n_max} w_n sup_x p_n summed until its terms vanish, from
    log b_n = n log(lam t) - lgamma(n + 1) - lgamma(q_n + 1)
    - (m/2) log pi - m log(c t) - log S, with q_n + 1 = K_n + (1 - m)/2 and
    S = sum_{k >= 1} (lam t)^k / (k! Gamma(K_k + 1/2))."""
    b = mp.base
    lt, ct = mp.lam * b.t, b.c * b.t

    def half_order(n):
        return 0.5 * (n + 1) * (2.0 * b.nu + b.d - 1.0)

    log_s = [k * math.log(lt) - math.lgamma(k + 1.0) - math.lgamma(half_order(k) + 0.5)
             for k in range(1, 20 * mp.n_max)]
    top = max(log_s)
    log_norm = top + math.log(math.fsum(math.exp(v - top) for v in log_s))
    terms = []
    for n in range(mp.n_max + 1, 20 * mp.n_max):
        log_b = (n * math.log(lt) - math.lgamma(n + 1.0)
                 - math.lgamma(half_order(n) + 0.5 * (1 - b.m))
                 - 0.5 * b.m * math.log(math.pi) - b.m * math.log(ct) - log_norm)
        terms.append(math.exp(log_b))
        if terms[-1] < 1e-30 * terms[0]:
            return math.fsum(terms)
    raise AssertionError("the tail terms did not vanish")


@pytest.mark.parametrize(
    "d,m,lam,n_max", [(2, 1, 750.0, 157), (3, 2, 17782.8, 185), (2, 1, 1.0, 50), (4, 2, 3.0, 20)]
)
def test_mixture_tail_bound_against_the_brute_force_tail(d, m, lam, n_max):
    # the first two points have a first ratio b2 / b1 above 0.5 (0.530 and
    # 0.510), where the bound once raised RuntimeError
    mp = MixtureParams(lam=lam, base=FlightParams(d=d, n=1, nu=0.0, m=m), n_max=n_max)
    tail, bound = _brute_force_tail(mp), mixture_tail_bound(mp)
    assert 0.0 < tail <= bound <= 4.0 * tail


def test_mixture_tail_bound_raises_where_the_terms_still_grow(monkeypatch):
    # n_max = 2 at lam t = 30 keeps a fraction of the mass, so the kept
    # weight check raises first; without it the ratio check must (b4 / b3
    # is about 5.6)
    monkeypatch.setattr(analytic, "_retained_weights", lambda mp: None)
    mp = MixtureParams(lam=30.0, base=FlightParams(d=2, n=1, nu=0.0, m=1), n_max=2)
    with pytest.raises(ValueError, match="grow past n_max = 2"):
        mixture_tail_bound(mp)


@pytest.mark.parametrize("lam", [1e3, 1e4, 1e5])
def test_pmf_large_rate_matches_mpmath(lam):
    # the normalizer passes the double range at lam t near 1e3 (d2 nu0);
    # the pmf stays finite, sums to one and matches 50-digit sums
    mp = pytest.importorskip("mpmath")
    mixture = MixtureParams(lam=lam, base=FlightParams(d=2, n=1, nu=0.0, m=1))
    pmf = fractional_poisson_pmf(mixture, np.arange(5_000))
    assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-10)
    mode = int(np.argmax(pmf))
    ns = [0, 1, 50] + [mode + k for k in (-150, -50, 0, 50, 150) if mode + k > 50]
    exact = np.array(fractional_pmf_mp(mp, lam, 2, 0.0, ns))
    got = fractional_poisson_pmf(mixture, ns)
    normal = exact > 1e-300
    np.testing.assert_allclose(got[normal], exact[normal], rtol=1e-10, atol=0.0)
    assert np.all(got[~normal] <= 1e-300)


@pytest.mark.parametrize("lam", [1e3, 1e4, 1e5])
def test_mixture_raises_when_truncation_drops_mass(lam):
    # with n_max = 50 the kept weights are about 6e-21 at lam t = 1e3 and
    # underflow beyond: both mixture functions raise and name that weight
    mp = pytest.importorskip("mpmath")
    mixture = MixtureParams(lam=lam, base=FlightParams(d=2, n=1, nu=0.0, m=1))
    pmf = fractional_pmf_mp(mp, lam, 2, 0.0, range(51))
    retained = math.fsum(pmf[1:]) / (1.0 - pmf[0])
    for call in (
        lambda: unconditional_density_projection(mixture, [0.3]),
        lambda: mixture_tail_bound(mixture),
    ):
        with pytest.raises(ValueError, match=f"retains weight {retained:.3g} "):
            call()


def test_mixture_rejects_non_finite_rate():
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError):
            MixtureParams(lam=lam, base=FlightParams(d=2, n=1, nu=0.0, m=1))


def test_mixture_non_negative_and_domain():
    mp = MixtureParams(lam=2.0, base=FlightParams(d=3, n=1, nu=1.0, m=1))
    for x in (-0.9, -0.2, 0.0, 0.4, 0.95):
        assert unconditional_density_projection(mp, [x]) >= 0.0
    with pytest.raises(ValueError):
        MixtureParams(lam=0.0, base=FlightParams(d=2, n=1, nu=0.0, m=1))
    for nu in (1.0, 0.3):  # m = d requires the isotropic nu = 0 flight
        mp = MixtureParams(1.0, FlightParams(d=2, n=1, nu=nu))
        for call in (
            lambda: unconditional_density_projection(mp, [0.1, 0.1]),
            lambda: mixture_tail_bound(mp),
        ):
            with pytest.raises(ValueError, match="m = d requires nu = 0"):
                call()


# --------------------------------------- fourier self-consistency

def test_density_nu1_fourier_matches_cf():
    # 2-D quadrature of the density against plane waves over the disk
    p = FlightParams(d=2, n=1, nu=1.0)
    u, wu = gl_grid(160, 0.0, 0.5 * math.pi)
    g, wg = gl_grid(320, 0.0, 2.0 * math.pi)
    cosg, sing = np.cos(g), np.sin(g)
    for alpha in ([0.5, 0.3], [1.0, 1.0], [2.0, 0.7], [0.0, 1.5], [3.0, 2.0]):
        a1, a2 = alpha
        total = 0.0
        for ui, wui in zip(u, wu):
            r = math.sin(ui)
            jac = math.cos(ui)
            x1, x2 = r * cosg, r * sing
            dens = density_nu1(p, np.stack((x1, x2), axis=-1))
            total += wui * jac * r * float(np.dot(wg, dens * np.cos(a1 * x1 + a2 * x2)))
        assert total == pytest.approx(cf_nu1(p, np.asarray(alpha)), abs=1e-5)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_density_projection_positive_inside_ball(d, n, nu, r):
    m = 1 if d == 2 else 2
    p = FlightParams(d=d, n=n, nu=nu, m=m)
    x = point_with_norm(m, r, 0.0) if m > 1 else np.array([r])
    assert density_projection(p, x) > 0.0
