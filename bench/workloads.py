"""The benchmark workloads: inputs made from a seed, the calls that are
timed, and the verdicts on what those calls produced.

Every call goes through a public entry point of ``driftflight``, looked up
on its module at call time so the traced run's wrappers see it:
``flight.simulate_batch`` for the library workload and ``cli.main`` for the
other two.  The seed decides only the inputs (Philox keys, grid end points
and evaluation points); the amount and kind of work in a round is fixed,
so rounds from different seeds cost the same.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from driftflight import cli, flight
from driftflight.flight import FlightParams

import oracles

# (d, n, nu): the ROADMAP grid; 2 nu is an integer in the first three and
# not in the last, so a sampler that only speeds up integer 2 nu shows it.
MC_GRID = ((2, 1, 1.0), (3, 2, 1.0), (4, 3, 0.0), (3, 2, 0.3))
MC_FLIGHTS = 10_000

EXPORT = (3, 2, 1.0)
EXPORT_ROWS = 20_000
EXPORT_TRAJECTORIES = 1_000

# (d, m, n, nu): q = K - (m+1)/2 is 3 (finite-sum branch) and 2.4 (quadrature)
CDF_INT_Q = (3, 1, 1, 1.0)
CDF_FRAC_Q = (3, 2, 2, 0.3)
CDF_INT_Q_POINTS = 4_000
CDF_FRAC_Q_POINTS = 500
RADIAL_NU1_D = 3
RADIAL_NU1_POINTS = 1_500
# corners and middle of d <= 8, n <= 8 (the regime of ROADMAP item 4)
NU1_CELLS = tuple((d, n) for d in (2, 3, 5, 8) for n in (1, 2, 4, 8))
NU1_POINTS = 12
NU1_MAX_W = 40.0  # largest c t |alpha| for the cf points
# cf_nu1 needs J_mu(w) / w^mu for mu up to ((n+1)(d+3) - 1)/2.  At this
# commit specfun.bessel_j_ratio ends its power series once a term is below
# 1e-17 * (|sum| + 1e-30).  The 1e-30 floor dominates once the value is
# below 1e-30 (mu above about 23); the series then stops early, with a
# relative error near 1e-47 / value, which passes 1e-9 up to mu = 27 and
# makes cf_nu1 miss by up to 0.25 at d8 n8 (mu = 49).  The cf cells past
# this order (d5 n8, d8 n8) are not timed; known_defects() evaluates them
# after the run and reports the misses by name on every run.
CF_MAX_BESSEL_ORDER = 30.0
MIXTURE = (3, 2, 0.5)  # (d, m, nu)
MIXTURE_POINTS = 40

CF_ABS_TOL = 1e-9
DENSITY_REL_TOL = 1e-9
CDF_ABS_TOL = 1e-9


@dataclass
class Op:
    """One timed call. ``call`` returns an array (library) or an exit code
    (command line); ``items`` counts the flights, rows or points it makes."""

    name: str
    call: Callable[[], object]
    items: int
    files: tuple[str, ...] = ()


@dataclass
class Verdict:
    name: str
    ok: bool
    detail: str
    control: bool = False  # a negative control: ok means the mismatch was caught


def _tag(d: int, n: int, nu: float) -> str:
    return f"d{d}n{n}nu{nu:g}".replace(".", "p")


def _fmt(x: float) -> str:
    return "%.17g" % x


def _cli_op(name: str, argv: list[str], items: int, files: tuple[str, ...]) -> Op:
    return Op(name, lambda: cli.main(argv), items, files)


def _params_argv(d: int, n: int, nu: float, m: int | None = None) -> list[str]:
    argv = ["--d", str(d), "--n", str(n), "--nu", _fmt(nu)]
    return argv + (["--m", str(m)] if m is not None else [])


def _load_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _median(xs) -> float:
    return float(np.median(xs))


def _directions(rng, count: int, dim: int) -> np.ndarray:
    u = rng.normal(size=(count, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _unit_ball(rng, count: int, dim: int, radius: float) -> np.ndarray:
    """Points uniform in the ball of the given radius."""
    return _directions(rng, count, dim) * (radius * rng.uniform(size=(count, 1)) ** (1.0 / dim))


def _max_bessel_order(d: int, n: int) -> float:
    return 0.5 * ((n + 1) * (d + 3) - 1)


def _ks_verdicts(name: str, p: FlightParams, finals: np.ndarray) -> list[Verdict]:
    ct = p.c * p.t
    norms = np.linalg.norm(finals, axis=1)
    inside = bool(np.all(np.isfinite(finals)) and np.all(norms <= ct * (1.0 + 1e-12)))
    radii = np.linalg.norm(finals[:, : p.m], axis=1)
    D = oracles.ks_distance(radii, lambda r: oracles.radial_cdf(p.d, p.m, p.n, p.nu, ct, r))
    thr = oracles.ks_threshold(len(radii))
    return [
        Verdict(f"support.{name}", inside, "finite and inside the ball of radius c t"),
        Verdict(f"ks.{name}", D < thr, f"KS {D:.4f} vs threshold {thr:.4f}, m={p.m}, {len(radii)} flights"),
    ]


class McBatch:
    name = "mc_batch"

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        self.cases = []
        self.ops = []
        for d, n, nu in MC_GRID:
            p = FlightParams(d=d, n=n, nu=nu, m=d - 1)
            key = int(rng.integers(2**63))
            self.cases.append((_tag(d, n, nu), p))
            self.ops.append(
                Op(f"simulate_batch.{_tag(d, n, nu)}",
                   lambda p=p, key=key: flight.simulate_batch(p, MC_FLIGHTS, key),
                   MC_FLIGHTS)
            )

    def metrics(self, times: dict[str, list[float]]) -> list[tuple]:
        return [
            (f"flights_per_s.{tag}", op.items / _median(times[op.name]), "1/s", len(times[op.name]))
            for (tag, _), op in zip(self.cases, self.ops)
        ]

    def verdicts(self, outputs: dict[str, object]) -> list[Verdict]:
        out = []
        for (tag, p), op in zip(self.cases, self.ops):
            out += _ks_verdicts(tag, p, outputs[op.name])
        # negative control: a nu = 1 batch against the nu = 0 law must fail
        tag, p = self.cases[1]
        radii = np.linalg.norm(outputs[self.ops[1].name][:, : p.m], axis=1)
        D = oracles.ks_distance(radii, lambda r: oracles.radial_cdf(p.d, p.m, p.n, 0.0, 1.0, r))
        thr = oracles.ks_threshold(len(radii))
        out.append(Verdict(f"negative_control.ks.{tag}_vs_nu0", D > thr,
                           f"KS {D:.4f} vs threshold {thr:.4f}", control=True))
        return out


class CliExport:
    name = "cli_export"

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        d, n, nu = EXPORT
        self.params = FlightParams(d=d, n=n, nu=nu, m=d - 1)
        key = str(int(rng.integers(2**63)))
        self.positions = os.path.join(outdir, "positions.csv")
        self.batch = os.path.join(outdir, "batch.csv")
        self.paths = os.path.join(outdir, "trajectories.csv")
        common = ["simulate"] + _params_argv(d, n, nu) + ["--seed", key]
        k = str(EXPORT_TRAJECTORIES)
        self.ops = [
            _cli_op("simulate.positions",
                    common + ["--count", str(EXPORT_ROWS), "--out", self.positions],
                    EXPORT_ROWS, (self.positions, self.positions + ".meta.json")),
            _cli_op("simulate.trajectories",
                    common + ["--count", k, "--trajectories", k,
                              "--out", self.batch, "--trajectories-out", self.paths],
                    EXPORT_TRAJECTORIES,
                    (self.batch, self.batch + ".meta.json", self.paths, self.paths + ".meta.json")),
        ]

    def metrics(self, times: dict[str, list[float]]) -> list[tuple]:
        rows, traj = self.ops
        return [
            ("rows_per_s", rows.items / _median(times[rows.name]), "1/s", len(times[rows.name])),
            ("traj_per_s", traj.items / _median(times[traj.name]), "1/s", len(times[traj.name])),
        ]

    def verdicts(self, outputs: dict[str, object]) -> list[Verdict]:
        p = self.params
        out = _ks_verdicts(_tag(p.d, p.n, p.nu), p, _load_csv(self.positions)[:, 1:])
        batch = _load_csv(self.batch)
        paths = _load_csv(self.paths)
        finals = paths[paths[:, 1] == p.n + 1]
        out.append(Verdict("trajectories.count", len(finals) == len(batch),
                           f"{len(finals)} final breakpoints for {len(batch)} batch rows"))
        # the reproducibility contract: row i of a batch is bit-identical to
        # replicate i simulated on its own
        for row in finals[: len(batch)]:
            i = int(row[0])
            same = np.array_equal(row[3:], batch[i, 1:])
            out.append(Verdict(f"trajectory_equals_batch_row[{i}]", same,
                               "" if same else f"{row[3:].tolist()} != {batch[i, 1:].tolist()}"))
        return out


class LawEval:
    name = "law_eval"

    def __init__(self, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        self.ops = []
        self.checks = []  # (kind, op, law parameters) for the output oracles
        self.defect_cells = []  # (d, n, alphas) of the cf cells not timed

        def path(name):
            return os.path.join(outdir, name + ".csv")

        def grid_argv():
            lo, hi = rng.uniform(0.0, 0.05), rng.uniform(0.95, 1.0)
            return ["--r-min", _fmt(lo), "--r-max", _fmt(hi)]

        for label, (d, m, n, nu), points in (
            ("int_q", CDF_INT_Q, CDF_INT_Q_POINTS),
            ("frac_q", CDF_FRAC_Q, CDF_FRAC_Q_POINTS),
        ):
            out = path(f"cdf_{label}")
            op = _cli_op(f"cdf.{label}",
                         ["cdf"] + _params_argv(d, n, nu, m) + grid_argv()
                         + ["--r-points", str(points), "--out", out],
                         points, (out, out + ".meta.json"))
            self.ops.append(op)
            self.checks.append(("cdf", op, (d, m, n, nu)))

        for n in (1, 2):
            out = path(f"radial_nu1_n{n}")
            op = _cli_op(f"density.radial_nu1.n{n}",
                         ["density", "--formula", "radial-nu1"]
                         + _params_argv(RADIAL_NU1_D, n, 1.0) + grid_argv()
                         + ["--r-points", str(RADIAL_NU1_POINTS), "--out", out],
                         RADIAL_NU1_POINTS, (out, out + ".meta.json"))
            self.ops.append(op)
            self.checks.append(("finite_nonneg", op, None))

        for d, n in NU1_CELLS:
            xs = _unit_ball(rng, NU1_POINTS, d, 1.0)
            alphas = _directions(rng, NU1_POINTS, d) * rng.uniform(0.0, NU1_MAX_W, size=(NU1_POINTS, 1))
            laws = [("density", "--x=", xs)]
            if _max_bessel_order(d, n) <= CF_MAX_BESSEL_ORDER:
                laws.append(("cf", "--alpha=", alphas))
            else:
                self.defect_cells.append((d, n, alphas))
            for law, flag, pts in laws:
                out = path(f"{law}_nu1_d{d}n{n}")
                op = _cli_op(f"{law}.nu1.d{d}n{n}",
                             [law, "--formula", "nu1"] + _params_argv(d, n, 1.0)
                             + [flag + ",".join(map(_fmt, pt)) for pt in pts] + ["--out", out],
                             NU1_POINTS, (out, out + ".meta.json"))
                self.ops.append(op)
                self.checks.append((law, op, (d, n)))

        d, m, nu = MIXTURE
        out = path("mixture")
        op = _cli_op("mixture",
                     ["mixture"] + _params_argv(d, 1, nu, m) + ["--lam", _fmt(rng.uniform(0.5, 4.0))]
                     + ["--x=" + ",".join(map(_fmt, pt)) for pt in _unit_ball(rng, MIXTURE_POINTS, m, 0.95)]
                     + ["--out", out],
                     MIXTURE_POINTS, (out, out + ".meta.json"))
        self.ops.append(op)
        self.checks.append(("finite_nonneg", op, None))

        self.report = os.path.join(outdir, "identities.json")
        self.identities = _cli_op("validate.identities",
                                  ["validate", "--only", "identities", "--out", self.report],
                                  0, (self.report,))
        self.ops.append(self.identities)

    def metrics(self, times: dict[str, list[float]]) -> list[tuple]:
        evals = [op for op in self.ops if op is not self.identities]
        rounds = len(times[self.identities.name])
        per_round = [sum(times[op.name][r] for op in evals) for r in range(rounds)]
        ident = times[self.identities.name]
        return [
            ("evals_per_s", sum(op.items for op in evals) / _median(per_round), "1/s", rounds),
            ("identity_suite_s", _median(ident), "s", rounds),
        ]

    def verdicts(self, outputs: dict[str, object]) -> list[Verdict]:
        out = []
        for kind, op, params in self.checks:
            data = _load_csv(op.files[0])
            if kind == "cdf":
                d, m, n, nu = params
                ref = oracles.radial_cdf(d, m, n, nu, 1.0, data[:, 0])
                for r, got, want in zip(data[:, 0], data[:, 1], ref):
                    err = abs(got - want)
                    out.append(Verdict(f"{op.name}[r={r:.6f}]", err <= CDF_ABS_TOL,
                                       f"cdf {got:.17g} vs betainc {want:.17g}, error {err:.2e}"))
            elif kind == "finite_nonneg":
                vals = data[:, -1]
                ok = bool(np.all(np.isfinite(vals)) and np.all(vals >= 0.0))
                out.append(Verdict(f"{op.name}.finite_nonneg", ok, f"{len(vals)} values"))
            else:
                d, n = params
                for i, row in enumerate(data):
                    pt, got = row[:-1], row[-1]
                    if kind == "cf":
                        want = oracles.cf_nu1(d, n, 1.0, pt)
                        err, tol = abs(got - want), CF_ABS_TOL
                        where = f"w={np.linalg.norm(pt):.4g}"
                    else:
                        want = oracles.density_nu1(d, n, 1.0, pt)
                        err, tol = abs(got - want), DENSITY_REL_TOL * abs(want)
                        where = f"|x|={np.linalg.norm(pt):.4g}"
                    out.append(Verdict(f"{op.name}[{i}]", err <= tol,
                                       f"{where}: {got:.17g} vs mpmath {want:.17g}, error {err:.2e}"))
        with open(self.report) as fh:
            report = json.load(fh)
        for k, check in enumerate(report["checks"]):
            out.append(Verdict(f"identity.{check['check_id']}#{k}", bool(check["passed"]),
                               f"error {check['metric']:.2e} vs threshold {check['threshold']:.0e}"))
        return out

    def known_defects(self) -> list[Verdict]:
        """The cf cells left out of the rounds, evaluated once, untimed:
        ``ok`` means the known bessel_j_ratio defect no longer shows there."""
        from driftflight import analytic

        out = []
        for d, n, alphas in self.defect_cells:
            p = FlightParams(d=d, n=n, nu=1.0, m=d - 1)
            errs = [abs(analytic.cf_nu1(p, a) - oracles.cf_nu1(d, n, 1.0, a)) for a in alphas]
            misses = sum(e > CF_ABS_TOL for e in errs)
            out.append(Verdict(f"cf.nu1.d{d}n{n}", misses == 0,
                               f"{misses} of {len(errs)} points off mpmath by more than {CF_ABS_TOL:g}, "
                               f"largest error {max(errs):.2e} (Bessel order up to {_max_bessel_order(d, n):g})"))
        return out


WORKLOADS = {w.name: w for w in (McBatch, CliExport, LawEval)}
