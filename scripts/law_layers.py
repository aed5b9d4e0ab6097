#!/usr/bin/env python3
"""Print the closed-form laws' cost per call at the benchmark's sizes.

Usage:
    python scripts/law_layers.py [--repeats 30]

The rows are the library calls behind the ``law_eval`` workload of
``bench/run.py``, at its sizes:

* ``cf_nu1`` and ``density_nu1`` at each (d, n) cell, d in {2, 3, 5, 8}
  and n in {1, 2, 4, 8}, on 12 points each (frequencies up to
  c t |alpha| = 40, points in the unit ball); two rows add them up over
  the cells ``law_eval`` times: all 16 densities and the 14 cfs whose
  Bessel orders stay at or below 30;
* ``radial_density_nu1`` at d3 n1 and d3 n2 on 1 500 radii;
* ``radial_density_projection`` at (d, m, n, nu) = (3, 2, 2, 0.3) on 500
  radii, the same Beta-mixture evaluator with one term (``law_eval`` does
  not time it);
* ``cdf_radial_projection`` at (d, m, n, nu) = (3, 1, 1, 1) on 4 000
  radii and (3, 2, 2, 0.3) on 500;
* ``unconditional_density_projection``, the mixture, at d3 m2 nu0.5,
  lam 2, on 40 points;
* ``check_identities(identity_grid())``, the Bessel identity suite;
* one ``FlightParams`` construction, the check every law's parameters pass;
* one ``driftflight density --formula nu1`` command at d5 n4, through
  ``cli.main``, on the 12 points of the ``density_nu1 d5 n4`` row (as
  ``%.17g`` text, which reads back bit for bit) into a temporary
  directory, and that command minus the law: the glue between argv and
  the bytes of the CSV and its sidecar (parsing, reading the points,
  formatting, writing).

Columns, in microseconds a call: ``call``, the median over ``--repeats``
of the call made after a fixed spell of other work (interpreted Python,
a scipy special function and float formatting, as ``bench/run.py`` times
every call), so caches start as cold as they do there; ``special``, the
calls of scipy's ``jv`` or ``betainc`` that one call of the law made,
recorded and then replayed on the same arguments, timed the same way;
``outside``, call minus special (0 where noise makes that negative);
``hot``, the best call of ``--repeats`` made back to back.  The timings
are in process and wall clock, so they move with the machine's load;
compare runs made one after the other.
"""

import argparse
import os
import statistics
import tempfile
import time
from unittest import mock

import numpy as np
from scipy.special import betaincinv

from driftflight import analytic, cli, specfun
from driftflight.analytic import MixtureParams
from driftflight.flight import FlightParams
from driftflight.validation import check_identities, identity_grid

NU1_CELLS = tuple((d, n) for d in (2, 3, 5, 8) for n in (1, 2, 4, 8))
NU1_POINTS = 12
# the cell of the command row, and the names of its two rows
COMMAND_CELL = (5, 4)
COMMAND = "density --formula nu1 command d5 n4"
GLUE = COMMAND + ", minus its law"
# law_eval times the cf only up to this Bessel order, (n+1)(d+3)/2 - 1/2
CF_MAX_ORDER = 30.0
COLUMNS = ("call", "special", "outside", "hot")

_FILL = np.linspace(0.01, 0.99, 1000)


def _other_work() -> None:
    # what bench/run.py runs between two timed calls
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    betaincinv(2.5, 2.5, _FILL)
    ",".join(["%.17g" % v for v in _FILL])


def _cold(fn, repeats: int) -> float:
    """Median seconds of ``fn()``, each call after :func:`_other_work`."""
    times = []
    for _ in range(repeats):
        _other_work()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _hot(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _recorded(fn, special):
    """The calls ``fn()`` makes of ``special`` (a (module, name) pair), as
    a function that makes them again on the same arguments."""
    module, name = special
    real = getattr(module, name)
    calls = []

    def record(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(module, name, record):
        fn()
    return lambda: [real(*args) for args in calls]


def _directions(rng, count: int, dim: int) -> np.ndarray:
    u = rng.normal(size=(count, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _ball(rng, count: int, dim: int, radius: float = 1.0) -> np.ndarray:
    return _directions(rng, count, dim) * radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)


def _cases(out_dir: str) -> list:
    """(row name, call, special function or None) in the order printed;
    the command row writes into ``out_dir``."""
    rng = np.random.default_rng(1)
    jv, betainc = (specfun, "jv"), (analytic, "betainc")
    cases = []
    for law in ("cf_nu1", "density_nu1"):
        for d, n in NU1_CELLS:
            p = FlightParams(d=d, n=n, nu=1.0)
            if law == "cf_nu1":
                at = _directions(rng, NU1_POINTS, d) * rng.uniform(0.0, 40.0, (NU1_POINTS, 1))
            else:
                at = _ball(rng, NU1_POINTS, d)
            fn = getattr(analytic, law)
            cases.append((f"{law} d{d} n{n}", lambda fn=fn, p=p, at=at: fn(p, at),
                          jv if law == "cf_nu1" else None))
            if law == "density_nu1" and (d, n) == COMMAND_CELL:
                argv = ["density", "--formula", "nu1", "--d", str(d), "--n", str(n), "--nu", "1",
                        *(f"--x={','.join('%.17g' % v for v in row)}" for row in at),
                        "--out", os.path.join(out_dir, "density.csv")]
                cases.append((COMMAND, lambda argv=argv: cli.main(argv), None))
    for n in (1, 2):
        p, r = FlightParams(d=3, n=n, nu=1.0), np.linspace(0.0, 1.0, 1500)
        cases.append((f"radial_density_nu1 d3 n{n}",
                      lambda p=p, r=r: analytic.radial_density_nu1(p, r), None))
    p, r = FlightParams(d=3, n=2, nu=0.3, m=2), np.linspace(0.0, 1.0, 500)
    cases.append(("radial_density_projection d3 m2 n2 nu0.3",
                  lambda p=p, r=r: analytic.radial_density_projection(p, r), None))
    for (d, m, n, nu), points in (((3, 1, 1, 1.0), 4000), ((3, 2, 2, 0.3), 500)):
        p, r = FlightParams(d=d, n=n, nu=nu, m=m), np.linspace(0.0, 1.0, points)
        cases.append((f"cdf_radial_projection d{d} m{m} n{n} nu{nu:g}",
                       lambda p=p, r=r: analytic.cdf_radial_projection(p, r), betainc))
    mp = MixtureParams(lam=2.0, base=FlightParams(d=3, n=1, nu=0.5, m=2))
    x = _ball(rng, 40, 2, 0.95)
    mixture = analytic.unconditional_density_projection
    cases.append(("mixture d3 m2 nu0.5", lambda: mixture(mp, x), None))
    grid = identity_grid()
    cases.append(("check_identities", lambda: check_identities(grid), jv))
    # as the command line builds it, every field given
    params = dict(d=3, n=2, nu=1.0, c=1.0, t=1.0, m=None)
    cases.append(("FlightParams", lambda: FlightParams(**params), None))
    return cases


def layer_times(repeats: int) -> dict[str, dict[str, float]]:
    """Seconds a call of each case in each of ``COLUMNS``, plus the
    command's glue and the two sums over the cells law_eval times."""
    out = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for name, fn, special in _cases(out_dir):
            fn()  # a first call builds what the law keeps, the nu = 1 tables
            row = {"call": _cold(fn, repeats), "hot": _hot(fn, repeats)}
            row["special"] = _cold(_recorded(fn, special), repeats) if special else 0.0
            # clamped at 0 where the noise of the two medians exceeds it
            row["outside"] = max(0.0, row["call"] - row["special"])
            out[name] = row
    law = out["density_nu1 d%d n%d" % COMMAND_CELL]
    out[GLUE] = {k: max(0.0, out[COMMAND][k] - law[k]) for k in COLUMNS}
    cf_cells = [(d, n) for d, n in NU1_CELLS if ((n + 1) * (d + 3) - 1) / 2 <= CF_MAX_ORDER]
    timed = {
        "cf_nu1, the 14 law_eval cells": [f"cf_nu1 d{d} n{n}" for d, n in cf_cells],
        "density_nu1, the 16 law_eval cells": [f"density_nu1 d{d} n{n}" for d, n in NU1_CELLS],
    }
    for total, names in timed.items():
        out[total] = {k: sum(out[name][k] for name in names) for k in COLUMNS}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=30)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    print("| us per call | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for name, row in layer_times(args.repeats).items():
        print(f"| {name} | " + " | ".join(f"{1e6 * row[k]:,.1f}" for k in COLUMNS) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
