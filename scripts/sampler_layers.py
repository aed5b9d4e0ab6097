#!/usr/bin/env python3
"""Print the sampler's cost layer by layer, in ns per flight.

Usage:
    python scripts/sampler_layers.py [--flights 20000] [--repeats 5]

For each (d, n, nu) cell the batch is cut into the chunks of rows the
sampler cuts it into, and every layer is timed over all of them (best of
``--repeats``):

* ``philox``: the Philox uniforms of the chunk rows;
* ``waiting_times``: ``temporal.waiting_times`` on their leading columns;
* ``directions``: ``angular.directions`` on the rest, all n+1 segments;
* ``assembly``: what ``simulate_batch`` on one worker spends beyond
  those three (the chunk loop, the transposition of each chunk into the
  kernel's columns and the in-order sum), a difference of timings,
  clamped at 0 where their noise exceeds it;
* ``one_worker``: the whole ``simulate_batch`` call on the calling thread
  alone;
* ``simulate_batch``: the whole call on the default worker count, up to
  one thread per CPU of the process (the header names that bound), so
  the two columns show the split.  A call of fewer than
  ``flight._MIN_THREADED_DRAWS`` uniforms runs on one thread, so there
  the two columns time the same path.  The repeats run back to back,
  which overstates the second worker against calls that alternate with
  other single-threaded work, as in ``bench/run.py`` and most callers:
  over the ``mc_batch`` cells on 2 vCPUs, back-to-back calls gave two
  workers the lower share of one worker's time at 10 of 13 sizes from
  2^16 to 2^22 uniforms (two alternated sweeps).  What the second
  worker gains also depends on the host's load;
* ``csv``: the CSV text of the cell's final positions with their
  replicate column, ``write_rows(buf, np.arange(flights), finals)``
  into memory, which is the call ``driftflight simulate`` makes: the
  replicate column takes the integer slot, the positions the float path;
* ``write``: those bytes rewritten over the file of the previous repeat
  in a temporary directory through ``csvtext.open_output``, which opens
  every output of ``driftflight`` (open, write, cut, close).

The cells are the benchmark's ``mc_batch`` grid plus d8 n9 nu1 and
d3 n2 nu2.5.  The timings are in process and wall clock, so they move
with the machine's load; compare runs made one after the other.
"""

import argparse
import io
import os
import tempfile
import time
from unittest import mock

import numpy as np

from driftflight import flight
from driftflight.angular import direction_draws, directions
from driftflight.csvtext import open_output, write_rows
from driftflight.flight import FlightParams, draws_per_flight, simulate_batch
from driftflight.temporal import time_draws, waiting_times

CELLS = ((2, 1, 1.0), (3, 2, 1.0), (4, 3, 0.0), (3, 2, 0.3), (8, 9, 1.0), (3, 2, 2.5))
LAYERS = ("philox", "waiting_times", "directions", "assembly", "one_worker", "simulate_batch", "csv", "write")


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def layer_times(p: FlightParams, flights: int, repeats: int, seed: int = 1) -> dict[str, float]:
    """Seconds per flight of each of ``LAYERS`` on ``flights`` flights of ``p``."""
    # the sampler's own padded width and rows per chunk
    L, Lpad = draws_per_flight(p), flight._padded_draws(p)
    rows = flight._rows_per_chunk(p)
    sizes = [min(rows, flights - done) for done in range(0, flights, rows)]
    col = (p.n + 1) * time_draws(p) if p.n >= 1 else 0
    gen = np.random.Generator(np.random.Philox(key=seed))
    # each chunk transposed into columns (draws, rows) as the kernel
    # transposes it; the transform layers read transposed views of those,
    # which the public functions move back to the kernel's layout
    cols = [np.ascontiguousarray(gen.random((size, Lpad))[:, :L].T) for size in sizes]
    leading = [c[:col].T for c in cols]
    segs = [np.moveaxis(c[col:].reshape(p.n + 1, direction_draws(p), -1), 1, -1) for c in cols]

    def philox():
        g = np.random.Generator(np.random.Philox(key=seed))
        for size in sizes:
            g.random((size, Lpad))

    def times():
        if col:
            for u in leading:
                waiting_times(p, u)

    def dirs():
        for u in segs:
            directions(p, u)

    out = {
        "philox": _best(philox, repeats),
        "waiting_times": _best(times, repeats),
        "directions": _best(dirs, repeats),
        "simulate_batch": _best(lambda: simulate_batch(p, flights, seed), repeats),
    }
    with mock.patch.object(flight, "_cpus", return_value=1):
        out["one_worker"] = _best(lambda: simulate_batch(p, flights, seed), repeats)
    columns = (np.arange(flights), simulate_batch(p, flights, seed))
    out["csv"] = _best(lambda: write_rows(io.BytesIO(), *columns), repeats)
    buf = io.BytesIO()
    write_rows(buf, *columns)
    text = buf.getvalue()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "positions.csv")

        def write():
            with open_output(path, "wb") as fh:
                fh.write(text)

        write()  # the timed calls rewrite an existing file
        out["write"] = _best(write, repeats)
    rest = out["philox"] + out["waiting_times"] + out["directions"]
    out["assembly"] = max(0.0, out["one_worker"] - rest)
    return {k: v / flights for k, v in out.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--flights", type=int, default=20_000)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    if args.flights < 1 or args.repeats < 1:
        ap.error("--flights and --repeats must be at least 1")
    names = [f"simulate_batch (up to {flight._cpus()} workers)" if k == "simulate_batch" else k for k in LAYERS]
    print("| ns per flight | " + " | ".join(names) + " | M flights/s |")
    print("|---" * (len(LAYERS) + 2) + "|")
    for d, n, nu in CELLS:
        t = layer_times(FlightParams(d=d, n=n, nu=nu), args.flights, args.repeats)
        cells = " | ".join(f"{1e9 * t[k]:,.0f}" for k in LAYERS)
        print(f"| d{d} n{n} nu{nu:g} | {cells} | {1e-6 / t['simulate_batch']:.3g} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
