"""Numerical cross-verification of the closed forms.

Two families of checks:

* Bessel-integral identities: each closed form used by the analytic
  module is compared against adaptive quadrature of its defining
  integral.  Finite intervals are split into sub-periods when the
  integrand oscillates; the one semi-infinite identity (``gr_6575_1``)
  is truncated where a rigorous envelope bound on the tail drops below
  tolerance, with a mild averaging acceleration of the partial sums.

* Goodness of fit: Monte Carlo batches from :mod:`driftflight.flight`
  against the analytic radial CDF (Kolmogorov-Smirnov distance) and the
  nu = 1 characteristic function (standardized deviations), with a
  deliberately mismatched negative control.

Everything is deterministic given the master seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.integrate import quad

from .analytic import cdf_radial_projection, cf_nu1
from .flight import FlightParams, simulate_batch
from .specfun import bessel_j, falling_factorial_coeffs

__all__ = [
    "GofReport",
    "IDENTITY_IDS",
    "IdentityReport",
    "SuiteConfig",
    "check_identity",
    "gof_cf",
    "gof_radial",
    "ks_distance",
    "run_suite",
]

IDENTITY_IDS = (
    "int0",
    "int_nu1",
    "int_nu2",
    "int_nu3",
    "int_general",
    "gr_6581_3",
    "gr_6533_2",
    "gr_6575_1",
    "gr_6688_2",
)

# largest Bessel argument the kernel is validated for
_BESSEL_X_CAP = 58.0


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    params: dict
    lhs: float
    rhs: float
    abs_err: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GofReport:
    params: dict
    sample_count: int
    ks_distance: float
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# quadrature helpers
# ----------------------------------------------------------------------

def _quad_chunked(f, a: float, b: float, cycles: float, tol: float) -> float:
    """Adaptive quadrature on [a, b], split into sub-periods when the
    integrand oscillates through many cycles."""
    n_chunks = max(1, int(math.ceil(2.0 * cycles)))
    edges = np.linspace(a, b, n_chunks + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(f, lo, hi, epsabs=tol, epsrel=1e-11, limit=300)
        total += val
    return total


def _azimuthal_lhs(z: float, alpha: float, beta: float, n: int, tol: float):
    # real and imaginary parts of the oscillatory circle integral with
    # weight sin^(2n)
    omega = abs(z) * math.hypot(alpha, beta)
    cycles = omega  # over a 2 pi interval
    re = _quad_chunked(
        lambda th: math.cos(z * (alpha * math.cos(th) + beta * math.sin(th)))
        * math.sin(th) ** (2 * n),
        0.0,
        2.0 * math.pi,
        cycles,
        tol,
    )
    im = _quad_chunked(
        lambda th: math.sin(z * (alpha * math.cos(th) + beta * math.sin(th)))
        * math.sin(th) ** (2 * n),
        0.0,
        2.0 * math.pi,
        cycles,
        tol,
    )
    return re, im


def _azimuthal_rhs(z: float, alpha: float, beta: float, n: int) -> float:
    s = math.hypot(alpha, beta)
    w = z * s
    if n == 0:
        return 2.0 * math.pi * bessel_j(0.0, w)
    coeffs = falling_factorial_coeffs(n).coeffs
    total = 0.0
    for j in range(n + 1):
        total += (
            (-1.0) ** j
            * coeffs[j]
            * beta ** (2 * j)
            / (2.0**j * z ** (n - j) * s ** (n + j))
            * bessel_j(n + j, w)
        )
    return 2.0 * math.pi * total


def _formula3_lhs(
    mu: float, nu: float, a: float, b: float, tol: float, x_cap: float = _BESSEL_X_CAP
):
    """Truncated semi-infinite integral of x^(mu-nu) J_{nu+1}(ax) J_mu(bx).

    Returns (estimate, tail_bound).  The truncation point keeps every
    Bessel argument below ``x_cap``; the tail is bounded through the
    envelope |J(x)| <= sqrt(2/(pi x)) with a 1.5 safety factor, valid
    deep in the oscillatory region where the cut happens.
    """
    T = x_cap / max(a, b)
    h = math.pi / (a + b)
    n_chunks = max(8, int(T / h))
    edges = np.linspace(0.0, T, n_chunks + 1)
    acc = 0.0
    partials = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(
            lambda x: x ** (mu - nu) * bessel_j(nu + 1.0, a * x) * bessel_j(mu, b * x),
            lo,
            hi,
            epsabs=tol,
            epsrel=1e-11,
            limit=200,
        )
        acc += val
        partials.append(acc)
    s = np.array(partials[-17:], dtype=float)
    for _ in range(2):  # averaging damps the residual oscillation
        if len(s) < 2:
            break
        s = 0.5 * (s[1:] + s[:-1])
    tail = 1.5 * 2.0 / (math.pi * math.sqrt(a * b) * (nu - mu)) * float(edges[-1]) ** (mu - nu)
    return float(s[-1]), tail


def check_identity(
    identity_id: str, params: dict, quadrature_tolerance: float = 1e-10
) -> IdentityReport:
    """Verify one Bessel-integral identity at one parameter point.

    lhs comes from quadrature of the defining integral, rhs from the
    closed form evaluated with the special-function kernel.  Parameters
    outside the validity region raise ValueError.
    """
    tol = quadrature_tolerance
    pid = dict(params)

    if identity_id in ("int0", "int_nu1", "int_nu2", "int_nu3"):
        z, alpha, beta = pid["z"], pid["alpha"], pid["beta"]
        n = ("int0", "int_nu1", "int_nu2", "int_nu3").index(identity_id)
        if abs(z) * math.hypot(alpha, beta) > _BESSEL_X_CAP:
            raise ValueError("parameters exceed the validated Bessel range")
        re, im = _azimuthal_lhs(z, alpha, beta, n, tol)
        s = math.hypot(alpha, beta)
        w = z * s
        if identity_id == "int0":
            rhs = 2.0 * math.pi * bessel_j(0.0, w)
        elif identity_id == "int_nu1":
            rhs = 2.0 * math.pi * (
                bessel_j(1.0, w) / w - beta**2 / s**2 * bessel_j(2.0, w)
            )
        elif identity_id == "int_nu2":
            rhs = 2.0 * math.pi * (
                3.0 / w**2 * bessel_j(2.0, w)
                - 6.0 * beta**2 / (z * s**3) * bessel_j(3.0, w)
                + beta**4 / s**4 * bessel_j(4.0, w)
            )
        else:
            rhs = 2.0 * math.pi * (
                15.0 / w**3 * bessel_j(3.0, w)
                - 45.0 * beta**2 / (z**2 * s**4) * bessel_j(4.0, w)
                + 15.0 * beta**4 / (z * s**5) * bessel_j(5.0, w)
                - beta**6 / s**6 * bessel_j(6.0, w)
            )
        lhs = re
        abs_err = math.hypot(re - rhs, im)
        return IdentityReport(identity_id, pid, lhs, rhs, abs_err)

    if identity_id == "int_general":
        if pid.get("companion"):
            # odd-symmetry companion: the sine analogue integrates to zero
            nu, a, b = pid["nu"], pid["a"], pid["b"]
            lhs = _quad_chunked(
                lambda x: math.sin(b * math.cos(x))
                * math.sin(x) ** (nu + 1.0)
                * bessel_j(nu, a * math.sin(x)),
                0.0,
                math.pi,
                max(abs(a), abs(b)),
                tol,
            )
            return IdentityReport(identity_id, pid, lhs, 0.0, abs(lhs))
        z, alpha, beta, n = pid["z"], pid["alpha"], pid["beta"], pid["n"]
        if n < 0:
            raise ValueError("int_general requires n >= 0")
        if abs(z) * math.hypot(alpha, beta) > _BESSEL_X_CAP:
            raise ValueError("parameters exceed the validated Bessel range")
        re, im = _azimuthal_lhs(z, alpha, beta, n, tol)
        rhs = _azimuthal_rhs(z, alpha, beta, n)
        return IdentityReport(identity_id, pid, re, rhs, math.hypot(re - rhs, im))

    if identity_id == "gr_6581_3":
        mu, nu, a = pid["mu"], pid["nu"], pid["a"]
        if mu <= -0.5 or nu <= -0.5:
            raise ValueError("gr_6581_3 requires mu > -1/2 and nu > -1/2")
        if a <= 0 or a > _BESSEL_X_CAP:
            raise ValueError("a outside the validated range")
        lhs = _quad_chunked(
            lambda x: x**mu * (a - x) ** nu * bessel_j(mu, x) * bessel_j(nu, a - x),
            0.0,
            a,
            a / math.pi,
            tol,
        )
        rhs = (
            math.gamma(mu + 0.5)
            * math.gamma(nu + 0.5)
            / (math.sqrt(2.0 * math.pi) * math.gamma(mu + nu + 1.0))
            * a ** (mu + nu + 0.5)
            * bessel_j(mu + nu + 0.5, a)
        )
        return IdentityReport(identity_id, pid, lhs, rhs, abs(lhs - rhs))

    if identity_id == "gr_6533_2":
        mu, nu, a = pid["mu"], pid["nu"], pid["a"]
        if mu <= 0.0 or nu <= 0.0:
            raise ValueError("gr_6533_2 requires mu > 0 and nu > 0")
        if a <= 0 or a > _BESSEL_X_CAP:
            raise ValueError("a outside the validated range")
        lhs = _quad_chunked(
            lambda x: bessel_j(mu, x) / x * bessel_j(nu, a - x) / (a - x),
            0.0,
            a,
            a / math.pi,
            tol,
        )
        rhs = (1.0 / mu + 1.0 / nu) * bessel_j(mu + nu, a) / a
        return IdentityReport(identity_id, pid, lhs, rhs, abs(lhs - rhs))

    if identity_id == "gr_6575_1":
        mu, nu, a, b = pid["mu"], pid["nu"], pid["a"], pid["b"]
        if not (nu + 1.0 > mu > 0.0):
            raise ValueError("gr_6575_1 requires nu + 1 > mu > 0")
        if not a >= b > 0.0:
            raise ValueError("gr_6575_1 requires a >= b > 0")
        lhs, tail = _formula3_lhs(mu, nu, a, b, tol)
        rhs = (
            (a * a - b * b) ** (nu - mu)
            * b**mu
            / (2.0 ** (nu - mu) * a ** (nu + 1.0) * math.gamma(nu - mu + 1.0))
        )
        pid["tail_bound"] = tail
        return IdentityReport(identity_id, pid, lhs, rhs, abs(lhs - rhs))

    if identity_id == "gr_6688_2":
        nu, a, b = pid["nu"], pid["a"], pid["b"]
        if nu <= -1.0:
            raise ValueError("gr_6688_2 requires nu > -1")
        if math.hypot(a, b) > _BESSEL_X_CAP:
            raise ValueError("parameters exceed the validated Bessel range")
        lhs = _quad_chunked(
            lambda x: math.sin(x) ** (nu + 1.0)
            * math.cos(b * math.cos(x))
            * bessel_j(nu, a * math.sin(x)),
            0.0,
            0.5 * math.pi,
            0.5 * max(abs(a), abs(b)),
            tol,
        )
        sab = math.hypot(a, b)
        rhs = (
            math.sqrt(0.5 * math.pi)
            * a**nu
            * bessel_j(nu + 0.5, sab)
            / sab ** (nu + 0.5)
        )
        return IdentityReport(identity_id, pid, lhs, rhs, abs(lhs - rhs))

    raise ValueError(f"unknown identity id {identity_id!r}")


# ----------------------------------------------------------------------
# goodness of fit
# ----------------------------------------------------------------------

def ks_distance(sorted_values: np.ndarray, cdf_values: np.ndarray) -> float:
    """Exact sup distance between an empirical CDF (samples pre-sorted)
    and analytic CDF values at those samples."""
    n = len(sorted_values)
    grid = np.arange(n + 1) / n
    return float(
        max(np.max(cdf_values - grid[:-1]), np.max(grid[1:] - cdf_values))
    )


def gof_radial(
    p: FlightParams,
    sample_count: int,
    master_seed: int,
    threshold: float = 0.01,
    cdf_params: FlightParams | None = None,
) -> GofReport:
    """KS test of simulated projected radii against the analytic CDF.

    ``cdf_params`` overrides the parameters of the reference CDF, which is
    how negative controls are built.
    """
    if p.m >= p.d or p.n < 1:
        raise ValueError("gof_radial requires m < d and n >= 1")
    finals = simulate_batch(p, sample_count, master_seed)
    radii = np.sort(np.linalg.norm(finals[:, : p.m], axis=1))
    q = cdf_params if cdf_params is not None else p
    ks = ks_distance(radii, cdf_radial_projection(q, radii))
    return GofReport(
        params={
            "d": p.d,
            "m": p.m,
            "n": p.n,
            "nu": p.nu,
            "c": p.c,
            "t": p.t,
            "cdf_nu": q.nu,
        },
        sample_count=sample_count,
        ks_distance=ks,
        threshold=threshold,
        passed=bool(ks < threshold),
    )


def gof_cf(
    p: FlightParams,
    alphas,
    sample_count: int,
    master_seed: int,
    se_multiple: float = 3.0,
) -> dict:
    """Empirical characteristic function versus the nu = 1 closed form.

    The real part is compared at each frequency vector; the imaginary
    part must be within ``se_multiple`` standard errors of zero (the law
    is even in x_d, and the remaining coordinates enter isotropically).
    """
    if abs(p.nu - 1.0) > 1e-12 or p.n < 1:
        raise ValueError("gof_cf requires nu = 1 and n >= 1")
    finals = simulate_batch(p, sample_count, master_seed)
    entries = []
    max_re_dev = 0.0
    max_im_dev = 0.0
    alphas = np.asarray(alphas, dtype=float)
    for alpha, target in zip(alphas, cf_nu1(p, alphas).tolist()):
        dot = finals @ alpha
        re, im = np.cos(dot), np.sin(dot)
        se_re = float(re.std(ddof=1)) / math.sqrt(sample_count)
        se_im = float(im.std(ddof=1)) / math.sqrt(sample_count)
        diff_re = float(re.mean()) - target
        re_dev = abs(diff_re) / se_re if se_re > 0 else (0.0 if diff_re == 0 else math.inf)
        im_mean = float(im.mean())
        im_dev = abs(im_mean) / se_im if se_im > 0 else (0.0 if im_mean == 0 else math.inf)
        max_re_dev = max(max_re_dev, re_dev)
        max_im_dev = max(max_im_dev, im_dev)
        entries.append(
            {
                "alpha": [float(v) for v in alpha],
                "empirical_re": float(re.mean()),
                "empirical_im": im_mean,
                "cf": target,
                "re_dev_se": re_dev,
                "im_dev_se": im_dev,
            }
        )
    return {
        "params": {"d": p.d, "n": p.n, "nu": p.nu, "c": p.c, "t": p.t},
        "sample_count": sample_count,
        "entries": entries,
        "max_re_dev_se": max_re_dev,
        "max_im_dev_se": max_im_dev,
        "threshold_se": se_multiple,
        "passed": bool(max_re_dev < se_multiple and max_im_dev < se_multiple),
    }


# ----------------------------------------------------------------------
# the aggregated suite
# ----------------------------------------------------------------------

def identity_grid() -> list[tuple[str, dict]]:
    """At least three parameter points per identity, all inside the
    validity regions and the validated Bessel argument range."""
    grid: list[tuple[str, dict]] = []
    az_points = [
        {"z": 1.0, "alpha": 1.0, "beta": 0.5},
        {"z": 2.5, "alpha": 0.7, "beta": -1.1},
        {"z": 4.0, "alpha": -2.0, "beta": 3.0},
    ]
    for ident in ("int0", "int_nu1", "int_nu2", "int_nu3"):
        for pt in az_points:
            grid.append((ident, dict(pt)))
    for n in (0, 1, 2, 3, 4):
        grid.append(("int_general", {**az_points[n % 3], "n": n}))
    for pt in [
        {"companion": True, "nu": 1.0, "a": 2.0, "b": 3.0},
        {"companion": True, "nu": 2.0, "a": 5.0, "b": 1.0},
        {"companion": True, "nu": 0.5, "a": 1.5, "b": 4.0},
    ]:
        grid.append(("int_general", pt))
    for pt in [
        {"mu": 0.5, "nu": 0.5, "a": 3.0},
        {"mu": 1.5, "nu": 2.0, "a": 10.0},
        {"mu": 0.75, "nu": 1.25, "a": 25.0},
    ]:
        grid.append(("gr_6581_3", pt))
    for pt in [
        {"mu": 1.0, "nu": 1.0, "a": 5.0},
        {"mu": 0.6, "nu": 1.7, "a": 12.0},
        {"mu": 2.5, "nu": 3.5, "a": 30.0},
    ]:
        grid.append(("gr_6533_2", pt))
    for pt in [
        {"mu": 0.5, "nu": 3.5, "a": 2.0, "b": 1.0},
        {"mu": 1.0, "nu": 4.0, "a": 2.5, "b": 1.5},
        {"mu": 1.5, "nu": 5.5, "a": 3.0, "b": 2.0},
    ]:
        grid.append(("gr_6575_1", pt))
    for pt in [
        {"nu": 1.0, "a": 2.0, "b": 3.0},
        {"nu": 0.5, "a": 5.0, "b": 0.0},
        {"nu": 2.0, "a": 10.0, "b": 4.0},
    ]:
        grid.append(("gr_6688_2", pt))
    return grid


def gof_radial_grid(profile: str) -> list[tuple[FlightParams, int, float]]:
    if profile == "full":
        combos = [
            (d, m, n, nu)
            for d in (2, 3, 4)
            for m in (1, 2)
            for n in (1, 2, 3)
            for nu in (0.0, 1.0)
            if m < d
        ]
        return [
            (FlightParams(d=d, n=n, nu=nu, m=m), 100_000, 0.01)
            for (d, m, n, nu) in combos
        ]
    combos = [(2, 1, 1, 0.0), (3, 2, 2, 1.0), (4, 1, 3, 1.0)]
    return [
        (FlightParams(d=d, n=n, nu=nu, m=m), 20_000, 0.0215)
        for (d, m, n, nu) in combos
    ]


def gof_cf_grid(profile: str) -> list[tuple[FlightParams, list, int]]:
    alphas_d2 = [
        [0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [1.0, 1.0], [2.0, 0.5],
        [0.5, 2.0], [3.0, 0.0], [0.0, 3.0], [2.0, 2.0],
    ]
    alphas_d3 = [
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0],
        [2.0, 0.0, 0.5], [0.5, 1.5, 0.0], [0.0, 2.0, 2.0], [3.0, 1.0, 0.0],
        [1.0, 0.5, 2.5],
    ]
    if profile == "full":
        return [
            (FlightParams(d=2, n=1, nu=1.0), alphas_d2, 1_000_000),
            (FlightParams(d=3, n=2, nu=1.0), alphas_d3, 1_000_000),
        ]
    return [(FlightParams(d=2, n=1, nu=1.0), alphas_d2, 100_000)]


@dataclass
class SuiteConfig:
    """What to run and under which master seed."""

    master_seed: int = 20260808
    profile: str = "quick"
    include_identities: bool = True
    include_gof: bool = True
    include_negative_control: bool = True
    identity_tolerance: float = 1e-7
    formula3_tolerance: float = 1e-5

    def __post_init__(self):
        if self.profile not in ("quick", "full"):
            raise ValueError("profile must be 'quick' or 'full'")


def run_suite(config: SuiteConfig | None = None) -> dict:
    """Run the configured checks and aggregate a machine-readable report.

    Sub-check failures are recorded, never raised; the overall ``passed``
    flag ignores negative controls (which are expected to fail their
    nominal threshold and pass as controls when they do).
    """
    config = config if config is not None else SuiteConfig()
    checks: list[dict] = []

    if config.include_identities:
        for ident, params in identity_grid():
            rep = check_identity(ident, params)
            tol = (
                config.formula3_tolerance
                if ident == "gr_6575_1"
                else config.identity_tolerance
            )
            checks.append(
                {
                    "check_id": f"identity:{ident}",
                    "kind": "identity",
                    "params": rep.params,
                    "metric": rep.abs_err,
                    "threshold": tol,
                    "passed": bool(rep.abs_err < tol),
                    "negative_control": False,
                }
            )

    if config.include_gof:
        for p, count, threshold in gof_radial_grid(config.profile):
            rep = gof_radial(p, count, config.master_seed, threshold)
            checks.append(
                {
                    "check_id": (
                        f"gof_radial:d{p.d}m{p.m}n{p.n}nu{p.nu:g}"
                    ),
                    "kind": "gof_radial",
                    "params": rep.params,
                    "metric": rep.ks_distance,
                    "threshold": rep.threshold,
                    "passed": rep.passed,
                    "negative_control": False,
                }
            )
        if config.include_negative_control:
            p = FlightParams(d=3, n=1, nu=1.0, m=1)
            rep = gof_radial(
                p,
                20_000 if config.profile == "quick" else 100_000,
                config.master_seed,
                threshold=0.05,
                cdf_params=replace(p, nu=0.0),
            )
            checks.append(
                {
                    "check_id": "gof_radial:negative_control",
                    "kind": "gof_radial",
                    "params": rep.params,
                    "metric": rep.ks_distance,
                    "threshold": rep.threshold,
                    # the control passes when the mismatch is detected
                    "passed": bool(rep.ks_distance > rep.threshold),
                    "negative_control": True,
                }
            )
        for p, alphas, count in gof_cf_grid(config.profile):
            rep = gof_cf(p, alphas, count, config.master_seed)
            checks.append(
                {
                    "check_id": f"gof_cf:d{p.d}n{p.n}",
                    "kind": "gof_cf",
                    "params": rep["params"],
                    "metric": max(rep["max_re_dev_se"], rep["max_im_dev_se"]),
                    "threshold": rep["threshold_se"],
                    "passed": rep["passed"],
                    "negative_control": False,
                }
            )

    return {
        "config": {
            "master_seed": config.master_seed,
            "profile": config.profile,
            "include_identities": config.include_identities,
            "include_gof": config.include_gof,
            "include_negative_control": config.include_negative_control,
        },
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
