import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from driftflight import validation
from driftflight.flight import FlightParams
from driftflight.specfun import bessel_j
from driftflight.validation import (
    IDENTITY_IDS,
    SuiteConfig,
    check_identity,
    gof_cf,
    gof_radial,
    identity_grid,
    ks_distance,
    run_suite,
)
from driftflight.validation import _formula3_lhs, _integrate


def _quadpack(f, edges, tol):
    # the oracle: QUADPACK's adaptive quad on each interval, one point at a
    # time, at the settings the identity checks used with it
    return np.array([
        quad(lambda x: float(f(np.asarray(x))), lo, hi, epsabs=tol, epsrel=1e-11, limit=300)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    ])


def test_identity_lhs_matches_quadpack(monkeypatch):
    # the same integrands on the same sub-period edges, integrated by the
    # array kernel and by scipy.integrate.quad
    grid = identity_grid()
    kernel = [check_identity(ident, params).lhs for ident, params in grid]
    monkeypatch.setattr(validation, "_integrate", _quadpack)
    for (ident, params), lhs in zip(grid, kernel):
        assert abs(lhs - check_identity(ident, params).lhs) < 1e-9, (ident, params)


def test_integrate_each_interval():
    edges = np.array([0.0, 1.0, 2.5, 7.0, 30.0])
    got = _integrate(np.sin, edges, 1e-12)
    assert got.shape == (4,)
    assert np.allclose(got, np.cos(edges[:-1]) - np.cos(edges[1:]), rtol=0.0, atol=1e-12)


def test_integrate_endpoint_singularity():
    # |x|^-0.4 at either end of an interval: the pieces there are cut
    # towards it until the sum is within tol
    assert abs(_integrate(lambda x: x**-0.4, [0.0, 1.0], 1e-10)[0] - 1.0 / 0.6) < 1e-10
    assert abs(_integrate(lambda x: (-x) ** -0.4, [-1.0, 0.0], 1e-10)[0] - 1.0 / 0.6) < 1e-10


def test_integrate_raises_instead_of_returning_unconverged_values():
    with pytest.raises(ValueError, match="not finite"):
        _integrate(lambda x: np.where(x > 0.7, np.nan, x), [0.0, 1.0], 1e-10)
    with pytest.raises(ValueError, match="quadrature"):
        _integrate(lambda x: 1.0 / x, [0.0, 1.0], 1e-10)  # not integrable
    with pytest.raises(ValueError, match="increase"):
        _integrate(np.sin, [0.0, 1.0, 1.0], 1e-10)


def test_int_nu1_classic_point():
    # with beta = 0 the closed form collapses to 2 pi J_1(1)
    rep = check_identity("int_nu1", {"z": 1.0, "alpha": 1.0, "beta": 0.0})
    assert rep.abs_err < 1e-8
    assert rep.lhs == pytest.approx(2.0 * math.pi * bessel_j(1.0, 1.0), abs=1e-8)
    assert rep.rhs == pytest.approx(2.7649193747683365, rel=1e-12)


def test_int0_point():
    rep = check_identity("int0", {"z": 2.0, "alpha": 0.6, "beta": -0.8})
    assert rep.abs_err < 1e-8
    assert rep.rhs == pytest.approx(2.0 * math.pi * bessel_j(0.0, 2.0), rel=1e-12)


def test_int_general_reproduces_explicit_forms():
    # the coefficient-table route and the hard-coded sin^4/sin^6 forms
    # are independent code paths
    for ident, n in (("int_nu2", 2), ("int_nu3", 3)):
        params = {"z": 1.7, "alpha": 0.9, "beta": 1.2}
        explicit = check_identity(ident, params)
        general = check_identity("int_general", {**params, "n": n})
        assert general.rhs == pytest.approx(explicit.rhs, rel=1e-13)
        assert general.abs_err < 1e-8


def test_formula1_points():
    for mu, nu, a in ((0.5, 0.5, 3.0), (1.5, 2.0, 10.0), (0.75, 1.25, 25.0)):
        rep = check_identity("gr_6581_3", {"mu": mu, "nu": nu, "a": a})
        assert rep.abs_err < 1e-7


def test_formula2_points():
    for mu, nu, a in ((1.0, 1.0, 5.0), (0.6, 1.7, 12.0), (2.5, 3.5, 30.0)):
        rep = check_identity("gr_6533_2", {"mu": mu, "nu": nu, "a": a})
        assert rep.abs_err < 1e-7


def test_convolution_identities_with_singular_ends():
    # factors singular at x = a as well as at x = 0 (nu < 1 in gr_6533_2,
    # mu, nu < 0 in gr_6581_3), up to |x|^-0.95
    for ident, params in (
        ("gr_6533_2", {"mu": 0.05, "nu": 0.3, "a": 5.0}),
        ("gr_6533_2", {"mu": 1.0, "nu": 0.05, "a": 5.0}),
        ("gr_6581_3", {"mu": -0.45, "nu": -0.45, "a": 5.0}),
    ):
        assert check_identity(ident, params).abs_err < 1e-9, (ident, params)


def test_formula3_points_and_tail():
    for mu, nu, a, b in ((0.5, 3.5, 2.0, 1.0), (1.0, 4.0, 2.5, 1.5)):
        rep = check_identity("gr_6575_1", {"mu": mu, "nu": nu, "a": a, "b": b})
        assert rep.abs_err < 1e-5
        assert rep.params["tail_bound"] > 0.0


def test_formula3_truncation_bound_honored(monkeypatch):
    # doubling the truncation radius moves the estimate by less than the
    # tail bound reported at the shorter radius
    mu, nu, a, b = 1.0, 4.0, 2.5, 1.5
    monkeypatch.setattr(validation, "_QUADRATURE_TOL", 1e-12)
    monkeypatch.setattr(validation, "_BESSEL_X_CAP", 29.0)
    short, short_tail = _formula3_lhs(mu, nu, a, b)
    monkeypatch.setattr(validation, "_BESSEL_X_CAP", 58.0)
    long, _ = _formula3_lhs(mu, nu, a, b)
    assert abs(long - short) < short_tail


def test_formula4_points_and_b0_reduction():
    rep = check_identity("gr_6688_2", {"nu": 1.0, "a": 2.0, "b": 0.0})
    assert rep.abs_err < 1e-8
    # at b = 0 the right side is the half-range closed form in a alone
    expected = (
        math.sqrt(0.5 * math.pi) * 2.0 * bessel_j(1.5, 2.0) / 2.0**1.5
    )
    assert rep.rhs == pytest.approx(expected, rel=1e-12)
    rep2 = check_identity("gr_6688_2", {"nu": 2.0, "a": 10.0, "b": 4.0})
    assert rep2.abs_err < 1e-8


def test_companion_zero_identity():
    rep = check_identity(
        "int_general", {"companion": True, "nu": 1.0, "a": 2.0, "b": 3.0}
    )
    assert rep.rhs == 0.0
    assert rep.abs_err < 1e-9


def test_identity_domain_errors():
    with pytest.raises(ValueError):
        check_identity("gr_6575_1", {"mu": 0.5, "nu": 3.5, "a": 1.0, "b": 2.0})
    with pytest.raises(ValueError):
        check_identity("gr_6581_3", {"mu": -0.6, "nu": 0.5, "a": 3.0})
    with pytest.raises(ValueError):
        check_identity("gr_6533_2", {"mu": 0.0, "nu": 1.0, "a": 3.0})
    with pytest.raises(ValueError):
        check_identity("no_such_identity", {})


_AZ = {"z": 1.0, "alpha": 1.0, "beta": 0.5}


@pytest.mark.parametrize(
    "ident,params",
    # the closed forms for n >= 1 divide by z, by hypot(alpha, beta) or by
    # hypot(a, b): each point once gave NaN, ZeroDivisionError or TypeError
    [(ident, {**_AZ, "z": 0.0}) for ident in ("int_nu1", "int_nu2", "int_nu3")]
    + [(ident, {**_AZ, "alpha": 0.0, "beta": 0.0}) for ident in ("int_nu1", "int_nu2", "int_nu3")]
    + [
        ("int_general", {**_AZ, "z": 0.0, "n": 1}),
        ("int_general", {**_AZ, "alpha": 0.0, "beta": 0.0, "n": 3}),
        ("int_general", {**_AZ, "n": 1.5}),
        ("int_general", {**_AZ, "n": -1}),
        ("gr_6688_2", {"nu": 1.0, "a": 0.0, "b": 0.0}),
    ],
)
def test_identity_outside_its_validity_region_raises(ident, params):
    with pytest.raises(ValueError):
        check_identity(ident, params)


def test_identity_at_zero_argument_with_n_zero():
    # n = 0 has no division: J_0(0) = 1
    for ident, params in [("int0", {**_AZ, "z": 0.0}), ("int_general", {**_AZ, "z": 0.0, "n": 0})]:
        rep = check_identity(ident, params)
        assert rep.rhs == 2.0 * math.pi and rep.abs_err < 1e-12


def test_identity_grid_covers_every_id_three_times():
    counts = {ident: 0 for ident in IDENTITY_IDS}
    for ident, _ in identity_grid():
        counts[ident] += 1
    assert all(c >= 3 for c in counts.values())


def test_ks_distance_basics():
    vals = np.sort(np.array([0.1, 0.35, 0.7]))
    F = vals.copy()  # uniform cdf
    expected = max(

        abs(0.1 - 0.0), abs(1 / 3 - 0.1),
        abs(0.35 - 1 / 3), abs(2 / 3 - 0.35),
        abs(0.7 - 2 / 3), abs(1.0 - 0.7),
    )
    assert ks_distance(vals, F) == pytest.approx(expected, rel=1e-12)


def test_gof_radial_pass_and_determinism():
    p = FlightParams(d=3, n=2, nu=1.0, m=1)
    rep1 = gof_radial(p, 20_000, 123, threshold=0.0215)
    rep2 = gof_radial(p, 20_000, 123, threshold=0.0215)
    assert rep1.passed
    assert rep1.ks_distance == rep2.ks_distance


def test_gof_radial_negative_control_detected():
    from dataclasses import replace

    p = FlightParams(d=3, n=1, nu=1.0, m=1)
    rep = gof_radial(p, 20_000, 7, threshold=0.05, cdf_params=replace(p, nu=0.0))
    assert rep.ks_distance > 0.05
    assert not rep.passed  # fails the nominal threshold, as intended


def test_gof_radial_domain():
    for nu in (1.0, 0.3):  # at m = d the Beta law needs the isotropic nu = 0 flight
        with pytest.raises(ValueError, match="m = d requires nu = 0"):
            gof_radial(FlightParams(d=3, n=1, nu=nu, m=3), 100, 0)
    with pytest.raises(ValueError):
        gof_radial(FlightParams(d=3, n=0, nu=0.0, m=1), 100, 0)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 2), (4, 3)])
def test_gof_radial_full_flight_at_nu0(d, n):
    # at nu = 0 the flight is isotropic and its radius obeys the Beta law
    # of the projections at m = d; nu = 1 radii fail against that law
    p = FlightParams(d=d, n=n, nu=0.0)
    assert gof_radial(p, 100_000, 11 + d, threshold=0.01).passed
    control = gof_radial(replace(p, nu=1.0), 100_000, 11 + d, threshold=0.05, cdf_params=p)
    assert control.ks_distance > 0.05


def test_gof_domain_is_checked_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("simulate_batch called outside the law's domain")

    monkeypatch.setattr(validation, "simulate_batch", no_sampling)
    with pytest.raises(ValueError):
        gof_cf(FlightParams(d=2, n=1, nu=0.5), [[1.0, 0.0]], 1_000, 0)
    with pytest.raises(ValueError):
        gof_radial(FlightParams(d=3, n=2, nu=1.0), 1_000, 0)


def test_gof_cf_zero_frequency_is_exact():
    p = FlightParams(d=2, n=1, nu=1.0)
    rep = gof_cf(p, [[0.0, 0.0]], 5_000, 77)
    entry = rep["entries"][0]
    assert entry["empirical_re"] == 1.0
    assert entry["re_dev_se"] == 0.0
    assert entry["im_dev_se"] == 0.0
    assert rep["passed"]


def test_gof_cf_passes_at_moderate_size():
    p = FlightParams(d=2, n=1, nu=1.0)
    rep = gof_cf(p, [[1.0, 1.0], [0.5, 2.0], [2.0, 0.0]], 100_000, 2025)
    assert rep["passed"], rep


def test_run_suite_quick_all_pass():
    report = run_suite(SuiteConfig(profile="quick"))
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
    ids = {c["check_id"] for c in report["checks"]}
    assert "gof_radial:negative_control" in ids
    json.dumps(report)  # machine readable


def test_run_suite_empty_grid_succeeds():
    report = run_suite(
        SuiteConfig(include_identities=False, include_gof=False)
    )
    assert report["checks"] == []
    assert report["passed"]


def test_run_suite_identities_deterministic():
    cm = SuiteConfig(include_gof=False)
    a = run_suite(cm)
    b = run_suite(cm)
    assert a == b
