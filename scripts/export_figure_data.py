#!/usr/bin/env python3
"""Export plot-ready CSVs: angular density profiles, radial densities of
the drift-level-1 flight, and one sample trajectory with its planar
projection.

Usage:
    python scripts/export_figure_data.py [--out-dir figures_data]

The files are plain CSV with '#' headers, ready for numpy.loadtxt or any
plotting tool.
"""

import argparse
import math
import os
import sys
from itertools import chain

import numpy as np

from driftflight.angular import angular_density
from driftflight.analytic import radial_density_nu1
from driftflight.csvtext import _keep_freed_memory, row_blocks, write_output
from driftflight.flight import FlightParams, simulate_trajectories


def write_csv(path, header, *columns):
    write_output(path, chain([f"# columns: {header}\n".encode()], row_blocks(*columns)))
    print(f"wrote {path}")


def main() -> int:
    _keep_freed_memory()  # as the driftflight command does, for the CSV blocks
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="figures_data")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    # planar angular densities for a few drift levels (n is not read)
    phis = np.linspace(0.0, 2.0 * math.pi, 721)
    dens = [angular_density(FlightParams(d=2, n=0, nu=nu), (), phis) for nu in (0.0, 1.0, 2.0, 4.0)]
    write_csv(os.path.join(args.out_dir, "angular_density_d2.csv"), "phi,nu0,nu1,nu2,nu4", phis, *dens)

    # radial densities of the drift-level-1 flight, one and two turns
    grid = np.linspace(0.0, 1.0, 501)
    for n in (1, 2):
        write_csv(
            os.path.join(args.out_dir, f"radial_density_nu1_n{n}.csv"),
            "r,d2,d3,d4",
            grid,
            *(radial_density_nu1(FlightParams(d=d, n=n, nu=1.0), grid) for d in (2, 3, 4)),
        )

    # a sample three-dimensional trajectory and its planar shadow
    p = FlightParams(d=3, n=8, nu=1.0)
    tr = simulate_trajectories(p, 1, args.seed)
    write_csv(
        os.path.join(args.out_dir, "sample_trajectory_d3.csv"),
        "t,x1,x2,x3,shadow_x1,shadow_x2",
        tr.times[0],
        tr.breakpoints[0],
        tr.breakpoints[0][:, :2],
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
