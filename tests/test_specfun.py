import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from driftflight.specfun import (
    CoeffTable,
    bessel_j,
    bessel_j_ratio,
    double_factorial_odd,
    falling_factorial_coeffs,
    gamma,
    log_mittag_leffler_paper,
    mittag_leffler_paper,
)
from _oracles import (
    bessel_j_mp,
    bessel_series_oracle,
    log_mittag_leffler_mp,
    mittag_leffler_oracle,
)


# ---------------------------------------------------------------- gamma

def test_gamma_classical_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma(5.0) == 24.0
    # recurrence from gamma(0.5): 1.5 * 0.5 * sqrt(pi)
    assert gamma(2.5) == pytest.approx(1.3293403881791370, rel=1e-12)


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        gamma(0.0)
    with pytest.raises(ValueError):
        gamma(-1.5)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.1, max_value=30.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


# -------------------------------------------------------------- bessel_j

def test_bessel_at_origin():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(2.0, 0.0) == 0.0
    assert bessel_j(-0.25, 0.0) == math.inf


def test_bessel_half_integer_at_pi():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x vanishes at pi
    assert abs(bessel_j(0.5, math.pi)) <= 1e-10
    assert bessel_j(0.5, math.pi) == pytest.approx(
        bessel_series_oracle(0.5, math.pi), abs=1e-12
    )


def test_bessel_first_zero_of_j0():
    # bisection on the independent series oracle
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_series_oracle(0.0, lo) * bessel_series_oracle(0.0, mid) <= 0:
            hi = mid
        else:
            lo = mid
    zero = 0.5 * (lo + hi)
    assert zero == pytest.approx(2.4048255577, abs=1e-8)
    assert abs(bessel_j(0.0, zero)) <= 1e-9


def test_bessel_matches_series_oracle_small_x():
    # 5e-12 absorbs the oracle's own cancellation noise near x = 10
    for mu in (0.0, 0.5, 1.0, 2.5, 7.0):
        for x in np.linspace(0.05, 10.0, 40):
            assert bessel_j(mu, float(x)) == pytest.approx(
                bessel_series_oracle(mu, float(x)), abs=5e-12
            )


def test_bessel_recurrence_grid():
    for mu in (0.5, 1.0, 2.5, 7.0):
        for x in np.linspace(0.05, 40.0, 120):
            x = float(x)
            lhs = bessel_j(mu - 1.0, x) + bessel_j(mu + 1.0, x)
            rhs = (2.0 * mu / x) * bessel_j(mu, x)
            assert abs(lhs - rhs) <= 1e-9


def test_bessel_half_integer_closed_forms():
    for x in np.linspace(0.1, 40.0, 200):
        x = float(x)
        j_half = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        j_three_half = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        assert abs(bessel_j(0.5, x) - j_half) <= 1e-9
        assert abs(bessel_j(1.5, x) - j_three_half) <= 1e-9


def test_bessel_matches_mpmath_grid():
    mp = pytest.importorskip("mpmath")
    for mu in np.linspace(-0.5, 60.0, 12):
        for x in np.linspace(0.05, 60.0, 12):
            mu, x = float(mu), float(x)
            assert abs(bessel_j(mu, x) - bessel_j_mp(mp, mu, x)) <= 1e-13, (mu, x)


def _unit_at_origin(mu):
    # log_scale that makes exp(log_scale) J_mu(x) / x^mu equal 1 at x = 0
    return mu * math.log(2.0) + math.lgamma(mu + 1.0)


def test_bessel_ratio_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    x = np.linspace(0.0, 100.0, 41)
    for mu in (-0.5, 0.0, 0.5, 3.0, 17.5, 60.0, 120.0, 236.0, 300.0):
        vals = bessel_j_ratio(mu, x, _unit_at_origin(mu))
        for xi, v in zip(x, vals):
            assert abs(v - bessel_j_mp(mp, mu, xi, ratio=True)) <= 1e-12, (mu, xi)


def test_bessel_ratio_series_where_j_underflows():
    mp = pytest.importorskip("mpmath")
    for mu, x in ((236.0, 0.5), (212.0, 0.12)):
        assert jv(mu, x) == 0.0  # the series branch
        v = bessel_j_ratio(mu, x, _unit_at_origin(mu))
        assert abs(v - bessel_j_mp(mp, mu, x, ratio=True)) <= 1e-12
    # one call that mixes series points (J underflows, and x = 0) with jv points
    mu = 236.0
    x = np.array([0.0, 0.12, 0.5, 5.0, 60.0, 150.0, 300.0])
    j = jv(mu, x)
    assert np.any(j == 0.0) and np.any(np.abs(j) > 1e-300)
    vals = bessel_j_ratio(mu, x, _unit_at_origin(mu))
    assert vals.shape == x.shape
    for xi, v in zip(x, vals):
        assert abs(v - bessel_j_mp(mp, mu, xi, ratio=True)) <= 1e-12, xi
    # log_scale broadcasts against x
    scales = np.array([[0.0], [1.0]]) + _unit_at_origin(mu)
    both = bessel_j_ratio(mu, x, scales)
    assert both.shape == (2, x.size)
    np.testing.assert_allclose(both[1], math.e * vals, rtol=1e-14)


@pytest.mark.parametrize("mu", [0.0, 10.5, 300.0, 1000.0])
def test_bessel_ratio_at_origin_is_the_closed_form(mu):
    log_scale = _unit_at_origin(mu) + 3.0
    exact = np.exp(log_scale - mu * math.log(2.0) - math.lgamma(mu + 1.0))
    assert bessel_j_ratio(mu, 0.0, log_scale) == exact
    # inside one call with jv points and points where J underflows
    x = np.array([0.0, 0.5, 3.0, 0.0, 40.0])
    vals = bessel_j_ratio(mu, x, log_scale)
    assert vals[0] == exact and vals[3] == exact
    np.testing.assert_array_equal(vals[1:3], bessel_j_ratio(mu, x[1:3], log_scale))


def test_bessel_ratio_series_raises_where_it_would_cancel():
    # far past the orders the laws use, J underflows where the series
    # terms first grow; the series then raises instead of losing digits
    with pytest.raises(ValueError, match="series"):
        bessel_j_ratio(1000.0, 380.0, _unit_at_origin(1000.0))


@pytest.mark.parametrize("x", [1e16, 1e17, 1e20, 1e300])
@pytest.mark.parametrize("mu", [-0.5, 0.0, 10.0])
def test_bessel_past_2_to_the_50_matches_mpmath(mu, x):
    # jv has no digits left here (J_0(1e16) came out -5.0e-9 against
    # 8.7e-10); the Hankel terms hold to rounding of the envelope
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        ref = mp.besselj(mu, mp.mpf(x))
        env = mp.sqrt(2 / (mp.pi * x))
        ratio, ratio_env = ref / mp.power(x, mu), env / mp.power(x, mu)
    assert abs(bessel_j(mu, x) - float(ref)) <= 1e-14 * float(env)
    # the ratio goes through log|J| - mu log x, so its rounding grows with
    # log x; where its envelope underflows it must be 0
    assert abs(bessel_j_ratio(mu, x) - float(ratio)) <= 1e-12 * float(ratio_env)


def test_bessel_hankel_raises_where_its_dropped_term_is_large():
    # the dropped term is about mu^4 / (8 x^2): 1e-11 at mu = 1e5, x = 2^50
    with pytest.raises(ValueError, match="Hankel"):
        bessel_j(1e5, 2.0**50)
    with pytest.raises(ValueError, match="Hankel"):
        bessel_j_ratio(1e5, [1.0, 2.0**50])
    assert math.isfinite(bessel_j(1e5, 2.0**60))


def test_bessel_non_finite_inputs():
    nan, inf = math.nan, math.inf
    assert math.isnan(bessel_j(1.0, nan))
    assert math.isnan(bessel_j_ratio(1.0, nan))
    assert bessel_j(1.0, inf) == 0.0
    assert bessel_j(0.0, inf) == 0.0
    assert bessel_j_ratio(1.0, inf) == 0.0
    vals = bessel_j_ratio(2.0, [nan, inf, 0.0, 1.0])
    assert math.isnan(vals[0]) and vals[1] == 0.0
    assert vals[2] == pytest.approx(0.125, rel=1e-15)
    assert vals[3] == pytest.approx(bessel_j(2.0, 1.0), rel=1e-14)
    for mu in (nan, inf, -inf):
        with pytest.raises(ValueError, match="order"):
            bessel_j(mu, 1.0)
        with pytest.raises(ValueError, match="order"):
            bessel_j_ratio(mu, [1.0, 2.0])


def test_bessel_broadcasts_over_x():
    x = np.array([[0.0, 0.5, 3.0], [math.inf, 17.0, math.nan]])
    for mu, origin in ((-0.25, math.inf), (0.0, 1.0), (1.0, 0.0), (2.5, 0.0)):
        vals = bessel_j(mu, x)
        assert vals.shape == x.shape
        assert vals[0, 0] == origin and vals[1, 0] == 0.0 and math.isnan(vals[1, 2])
        assert np.array_equal(vals[[0, 0, 1], [1, 2, 1]], jv(mu, [0.5, 3.0, 17.0]))
    with pytest.raises(ValueError, match="x >= 0"):
        bessel_j(1.0, [1.0, -0.1])


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-0.6, 1.0)
    with pytest.raises(ValueError):
        bessel_j(1.0, -0.1)
    with pytest.raises(ValueError):
        bessel_j_ratio(-0.8, 1.0)


def test_bessel_ratio_limit_and_consistency():
    for mu in (0.0, 0.5, 2.5, 6.0):
        assert bessel_j_ratio(mu, 0.0) == pytest.approx(
            1.0 / (2.0**mu * gamma(mu + 1.0)), rel=1e-14
        )
        for x in (0.3, 3.0, 17.0, 45.0):
            assert bessel_j_ratio(mu, x) == pytest.approx(
                bessel_j(mu, x) / x**mu, rel=1e-10, abs=1e-300
            )
    # high orders: the value is far below 1e-30 and the series must still
    # run until its terms are negligible relative to the sum
    for mu, x in ((49.0, 5.0), (30.0, 2.0)):
        assert bessel_j_ratio(mu, x) == pytest.approx(
            bessel_series_oracle(mu, x) / x**mu, rel=1e-10, abs=1e-300
        )


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=12.0),
    st.floats(min_value=0.5, max_value=50.0),
)
def test_bessel_recurrence_property(mu, x):
    lhs = bessel_j(mu - 1.0, x) + bessel_j(mu + 1.0, x)
    rhs = (2.0 * mu / x) * bessel_j(mu, x)
    assert abs(lhs - rhs) <= 1e-9


# ------------------------------------------------------- mittag-leffler

def test_ml_at_zero_is_one_over_gamma_beta():
    for alpha, beta in ((1.0, 1.0), (0.7, 2.3), (1.5, 0.4)):
        assert mittag_leffler_paper(alpha, beta, 0.0) == pytest.approx(
            1.0 / gamma(beta), rel=1e-14
        )


def test_ml_classic_value():
    # sum 1/(k!)^2; oracle frozen to machine precision
    oracle = mittag_leffler_oracle(1.0, 1.0, 1.0)
    assert oracle == pytest.approx(2.2795853023360673, rel=1e-15)
    assert mittag_leffler_paper(1.0, 1.0, 1.0) == pytest.approx(oracle, rel=1e-13)


def test_ml_against_series_oracle():
    for alpha, beta, x in ((1.5, 2.0, 0.5), (0.8, 1.1, 3.0), (2.5, 0.7, 8.0)):
        assert mittag_leffler_paper(alpha, beta, x) == pytest.approx(
            mittag_leffler_oracle(alpha, beta, x, terms=80), rel=1e-13
        )


def test_ml_truncation_stability():
    # doubling the term count moves the oracle by less than 1e-12
    for alpha, beta, x in ((1.0, 1.0, 2.0), (0.6, 1.4, 5.0)):
        p100 = mittag_leffler_oracle(alpha, beta, x, terms=100)
        p200 = mittag_leffler_oracle(alpha, beta, x, terms=200)
        assert abs(p200 - p100) < 1e-12 * p200
        assert mittag_leffler_paper(alpha, beta, x) == pytest.approx(p200, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.0, max_value=8.0),
)
def test_ml_monotone_in_x(x1, x2):
    lo, hi = sorted((x1, x2))
    assert mittag_leffler_paper(0.9, 1.3, lo) <= mittag_leffler_paper(0.9, 1.3, hi) * (
        1.0 + 1e-14
    )


@pytest.mark.parametrize(
    "alpha,beta,x",
    [(0.5, 1.0, 4.0), (1.5, 2.0, 1e-12), (0.5, 1.0, 1e4), (0.5, 1.0, 1e5), (1.0, 1.5, 1e6)],
)
def test_log_ml_matches_mpmath(alpha, beta, x):
    # the log-sum-exp stays finite where the sum itself passes the double
    # range; its error grows with the size of the log terms
    mp = pytest.importorskip("mpmath")
    for start in (0, 1):
        exact = float(log_mittag_leffler_mp(mp, alpha, beta, x, start))
        assert log_mittag_leffler_paper(alpha, beta, x, start) == pytest.approx(
            exact, rel=0.0, abs=2e-12
        )
    assert mittag_leffler_paper(1.0, 1.5, 1e6) == math.inf
    assert log_mittag_leffler_paper(1.0, 1.0, 0.0, start=1) == -math.inf


def test_ml_domain_errors():
    with pytest.raises(ValueError):
        mittag_leffler_paper(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler_paper(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler_paper(1.0, 1.0, -0.5)


# ------------------------------------------------ coefficient tables

def test_coeff_tables_match_known_scheme():
    assert falling_factorial_coeffs(0).coeffs == (1,)
    assert falling_factorial_coeffs(1).coeffs == (1, 2)
    assert falling_factorial_coeffs(2).coeffs == (3, 12, 4)
    assert falling_factorial_coeffs(3).coeffs == (15, 90, 60, 8)


def test_coeff_n4_endpoints():
    table = falling_factorial_coeffs(4)
    assert table.coeffs[0] == 105
    assert table.coeffs[-1] == 16


def test_coeff_endpoints_general():
    for n in range(13):
        table = falling_factorial_coeffs(n)
        assert table.coeffs[0] == double_factorial_odd(n)
        assert table.coeffs[-1] == 2**n


def test_coeff_defining_identity_exact():
    # (2m+2n-1)(2m+2n-3)...(2m+1) == sum_j a_j m!/(m-j)! in exact ints
    for n in range(9):
        coeffs = falling_factorial_coeffs(n).coeffs
        for m in range(21):
            lhs = 1
            for i in range(1, n + 1):
                lhs *= 2 * m + 2 * i - 1
            rhs = sum(coeffs[j] * math.perm(m, j) for j in range(n + 1))
            assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=20))
def test_coeff_identity_property(n, m):
    coeffs = falling_factorial_coeffs(n).coeffs
    lhs = 1
    for i in range(1, n + 1):
        lhs *= 2 * m + 2 * i - 1
    assert lhs == sum(coeffs[j] * math.perm(m, j) for j in range(n + 1))


def test_coeff_table_validation():
    with pytest.raises(ValueError):
        CoeffTable(1, (1,))
    with pytest.raises(ValueError):
        CoeffTable(1, (1, -2))
    with pytest.raises(ValueError):
        falling_factorial_coeffs(-1)


# -------------------------------------------------- double factorial

def test_double_factorial_values():
    assert double_factorial_odd(0) == 1
    assert double_factorial_odd(3) == 15
    assert double_factorial_odd(5) == 945
    with pytest.raises(ValueError):
        double_factorial_odd(-1)
