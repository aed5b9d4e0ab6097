import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from driftflight import validation
from driftflight.flight import FlightParams, simulate_batch
from driftflight.specfun import bessel_j
from driftflight.validation import (
    IDENTITY_IDS,
    SuiteConfig,
    check_identities,
    check_identity,
    gof_cf,
    gof_radial,
    identity_grid,
    ks_distance,
    run_suite,
)
from driftflight.validation import _integrate


def _quadpack(f, starts, ends, tol, *args):
    # the oracle: QUADPACK's adaptive quad on each interval, one point at a
    # time with that interval's rows of args, at the settings the identity
    # checks used with it
    return np.array([
        quad(
            lambda x: float(f(np.full((1, 1), x), *(arg[i : i + 1] for arg in args))[0, 0]),
            starts[i], ends[i], epsabs=tol, epsrel=1e-11, limit=300,
        )[0]
        for i in range(len(starts))
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
    got = _integrate(np.sin, edges[:-1], edges[1:], 1e-12)
    assert got.shape == (4,)
    assert np.allclose(got, np.cos(edges[:-1]) - np.cos(edges[1:]), rtol=0.0, atol=1e-12)


def test_integrate_endpoint_singularity():
    # |x|^-0.4 at either end of an interval: the pieces there are cut
    # towards it until the sum is within tol
    assert abs(_integrate(lambda x: x**-0.4, [0.0], [1.0], 1e-10)[0] - 1.0 / 0.6) < 1e-10
    assert abs(_integrate(lambda x: (-x) ** -0.4, [-1.0], [0.0], 1e-10)[0] - 1.0 / 0.6) < 1e-10


def test_integrate_raises_instead_of_returning_unconverged_values():
    with pytest.raises(ValueError, match="not finite"):
        _integrate(lambda x: np.where(x > 0.7, np.nan, x), [0.0], [1.0], 1e-10)
    with pytest.raises(ValueError, match="quadrature"):
        _integrate(lambda x: 1.0 / x, [0.0], [1.0], 1e-10)  # not integrable
    with pytest.raises(ValueError, match="increase"):
        _integrate(np.sin, [0.0, 1.0], [1.0, 1.0], 1e-10)


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
    params = {"mu": 1.0, "nu": 4.0, "a": 2.5, "b": 1.5}
    monkeypatch.setattr(validation, "_QUADRATURE_TOL", 1e-12)
    monkeypatch.setattr(validation, "_BESSEL_X_CAP", 29.0)
    rep = check_identity("gr_6575_1", params)
    short, short_tail = rep.lhs, rep.params["tail_bound"]
    monkeypatch.setattr(validation, "_BESSEL_X_CAP", 58.0)
    long = check_identity("gr_6575_1", params).lhs
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
    # Gamma(mu + nu + 1) of the right side passes the double range
    with pytest.raises(ValueError, match="mu \\+ nu <= 170"):
        check_identity("gr_6581_3", {"mu": 100.0, "nu": 100.0, "a": 3.0})
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
    rep1 = gof_radial(p, simulate_batch(p, 20_000, 123), threshold=0.0215)
    rep2 = gof_radial(p, simulate_batch(p, 20_000, 123), threshold=0.0215)
    assert rep1.passed
    assert rep1.ks_distance == rep2.ks_distance


def test_gof_radial_negative_control_detected():
    from dataclasses import replace

    p = FlightParams(d=3, n=1, nu=1.0, m=1)
    rep = gof_radial(p, simulate_batch(p, 20_000, 7), threshold=0.05, cdf_params=replace(p, nu=0.0))
    assert rep.ks_distance > 0.05
    assert not rep.passed  # fails the nominal threshold, as intended


def test_gof_radial_domain():
    for nu in (1.0, 0.3):  # at m = d the Beta law needs the isotropic nu = 0 flight
        p = FlightParams(d=3, n=1, nu=nu, m=3)
        with pytest.raises(ValueError, match="m = d requires nu = 0"):
            gof_radial(p, simulate_batch(p, 100, 0))
    p = FlightParams(d=3, n=0, nu=0.0, m=1)
    with pytest.raises(ValueError):
        gof_radial(p, simulate_batch(p, 100, 0))


@pytest.mark.parametrize("d,n", [(2, 1), (3, 2), (4, 3)])
def test_gof_radial_full_flight_at_nu0(d, n):
    # at nu = 0 the flight is isotropic and its radius obeys the Beta law
    # of the projections at m = d; nu = 1 radii fail against that law
    p = FlightParams(d=d, n=n, nu=0.0)
    assert gof_radial(p, simulate_batch(p, 100_000, 11 + d), threshold=0.01).passed
    q = replace(p, nu=1.0)
    control = gof_radial(q, simulate_batch(q, 100_000, 11 + d), threshold=0.05, cdf_params=p)
    assert control.ks_distance > 0.05


def test_gof_domain_is_checked_before_sampling():
    # no flight is read outside the law's domain: None in place of the
    # flights would raise a TypeError when read
    with pytest.raises(ValueError):
        gof_cf(FlightParams(d=2, n=1, nu=0.5), [[1.0, 0.0]], None)
    with pytest.raises(ValueError):
        gof_radial(FlightParams(d=3, n=2, nu=1.0), None)


def test_gof_cf_zero_frequency_is_exact():
    p = FlightParams(d=2, n=1, nu=1.0)
    rep = gof_cf(p, [[0.0, 0.0]], simulate_batch(p, 5_000, 77))
    entry = rep["entries"][0]
    assert entry["empirical_re"] == 1.0
    assert entry["re_dev_se"] == 0.0
    assert entry["im_dev_se"] == 0.0
    assert rep["passed"]


def test_gof_cf_passes_at_moderate_size():
    p = FlightParams(d=2, n=1, nu=1.0)
    rep = gof_cf(p, [[1.0, 1.0], [0.5, 2.0], [2.0, 0.0]], simulate_batch(p, 100_000, 2025))
    assert rep["passed"], rep


def test_run_suite_quick_all_pass():
    report = run_suite(SuiteConfig(profile="quick"))
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
    ids = {c["check_id"] for c in report["checks"]}
    assert "gof_radial:negative_control" in ids
    json.dumps(report)  # machine readable


@pytest.mark.parametrize("profile,calls,flights", [("quick", 5, 180_000), ("full", 18, 3_600_000)])
def test_run_suite_draws_each_cell_once(monkeypatch, profile, calls, flights):
    # a cell is the parameters without m: the full profile's checks at
    # m = 1 and m = 2, its negative control and its radial and cf checks at
    # d2 n1 nu1 and d3 n2 nu1 share their cells' batches
    draws = []

    def draw(p, count, master_seed):
        draws.append((p, count))
        return np.zeros((count, p.d))

    monkeypatch.setattr(validation, "simulate_batch", draw)
    report = run_suite(SuiteConfig(profile=profile, only="gof"))
    assert len(draws) == len({p for p, _ in draws}) == calls
    assert all(p.m == p.d for p, _ in draws)
    assert sum(count for _, count in draws) == flights
    assert len(report["checks"]) == len(validation._gof_table(profile))


def test_run_suite_releases_each_batch_before_the_next_draw(monkeypatch):
    # one batch held at a time: at each draw, every earlier batch is dead
    batches, alive = [], []

    def draw(p, count, master_seed):
        alive.extend(ref() is not None for ref in batches)
        finals = np.zeros((count, p.d))
        batches.append(weakref.ref(finals))
        return finals

    monkeypatch.setattr(validation, "simulate_batch", draw)
    run_suite(SuiteConfig(profile="quick", only="gof"))
    assert len(batches) == 5 and not any(alive)


def test_quick_gof_checks_equal_the_checks_on_their_own_batches():
    # each check reads its prefix of its cell's batch, drawn at m = d: the
    # same rows as a batch of its own at its own m and count
    config = SuiteConfig(profile="quick", only="gof")
    checks = run_suite(config)["checks"]
    table = validation._gof_table("quick")
    assert len(checks) == len(table)
    for (entry, p, count, *args), check in zip(table, checks):
        assert check == entry(p, simulate_batch(p, count, config.master_seed), *args)


def test_suite_config_rejects_an_unknown_only():
    # one field for the three choices: no state runs nothing and passes
    with pytest.raises(ValueError, match="only"):
        SuiteConfig(only="bogus")


def test_run_suite_identities_deterministic():
    cm = SuiteConfig(only="identities")
    a = run_suite(cm)
    b = run_suite(cm)
    assert a == b


def _bits(rep):
    return np.array([rep.lhs, rep.rhs, rep.abs_err]).view(np.int64).tolist()


def test_check_identity_is_the_suite_entry_bit_for_bit():
    # each point integrated alone, in the suite's batch and in the batch
    # reversed gives the same lhs, rhs and abs_err to the bit
    grid = identity_grid()
    suite = run_suite(SuiteConfig(only="identities"))["checks"]
    batch = check_identities(grid)
    reverse = check_identities(grid[::-1])[::-1]
    for (ident, params), entry, rep, rev in zip(grid, suite, batch, reverse):
        one = check_identity(ident, params)
        assert _bits(one) == _bits(rep) == _bits(rev), (ident, params)
        assert entry["check_id"] == f"identity:{ident}" and entry["metric"] == one.abs_err
        assert entry["params"] == one.params == rep.params == rev.params


def test_piece_budget_is_per_interval(monkeypatch):
    # a pass of the suite holds hundreds of pieces, none of its intervals
    # more than 16: a budget of 16 per interval leaves every report as it is
    want = [_bits(rep) for rep in check_identities(identity_grid())]
    monkeypatch.setattr(validation, "_MAX_PIECES", 16)
    assert [_bits(rep) for rep in check_identities(identity_grid())] == want


_INVALID = [
    ("gr_6575_1", {"mu": 0.5, "nu": 3.5, "a": 1.0, "b": 2.0}),
    ("gr_6575_1", {"mu": 1.0, "nu": 1.0, "a": 2.0, "b": 1.0}),  # no tail bound at nu = mu
    ("gr_6581_3", {"mu": -0.6, "nu": 0.5, "a": 3.0}),
    ("gr_6581_3", {"mu": 0.5, "nu": 0.5, "a": math.nan}),
    ("gr_6533_2", {"mu": 0.0, "nu": 1.0, "a": 3.0}),
    ("gr_6688_2", {"nu": -0.75, "a": 2.0, "b": 1.0}),  # below the kernel's orders
    ("gr_6688_2", {"nu": 1.0, "a": -2.0, "b": 1.0}),
    ("gr_6688_2", {"nu": -0.25, "a": 0.0, "b": 1.0}),  # J_nu(0) is infinite
    ("int_general", {"companion": True, "nu": -0.75, "a": 2.0, "b": 3.0}),
    ("int0", {"z": -1.0, "alpha": 1.0, "beta": 0.5}),
    ("int_nu1", {"z": math.nan, "alpha": 1.0, "beta": 0.5}),
    ("no_such_identity", {}),
    ("gr_6581_3", {"mu": 100.0, "nu": 100.0, "a": 3.0}),  # Gamma(201) is not a double
]


@pytest.mark.parametrize("at", [0, 16, 32])
@pytest.mark.parametrize("invalid", _INVALID, ids=lambda p: p[0])
def test_invalid_point_anywhere_in_a_batch_raises_before_any_integrand(monkeypatch, invalid, at):
    def no_quadrature(*args):
        raise AssertionError("an integrand ran before every point was checked")

    monkeypatch.setattr(validation, "_integrate", no_quadrature)
    monkeypatch.setattr(validation, "bessel_j", no_quadrature)
    grid = identity_grid()
    with pytest.raises(ValueError):
        check_identities(grid[:at] + [invalid] + grid[at:])
