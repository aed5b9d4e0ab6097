import runpy
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import trapezoid

from driftflight.flight import FlightParams, _cpus, simulate_batch

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_export_figure_data(tmp_path, monkeypatch):
    script = runpy.run_path(str(SCRIPTS / "export_figure_data.py"))
    monkeypatch.setattr(sys, "argv", ["export_figure_data.py", "--out-dir", str(tmp_path)])
    assert script["main"]() == 0
    names = [
        "angular_density_d2.csv",
        "radial_density_nu1_n1.csv",
        "radial_density_nu1_n2.csv",
        "sample_trajectory_d3.csv",
    ]
    assert sorted(f.name for f in tmp_path.iterdir()) == names
    # a second run into the same directory cuts each file to its new
    # length and leaves the same bytes
    first = {name: (tmp_path / name).read_bytes() for name in names}
    for name in names:
        with open(tmp_path / name, "ab") as fh:
            fh.write(b"stale tail\n")
    assert script["main"]() == 0
    assert {name: (tmp_path / name).read_bytes() for name in names} == first
    table = {name: np.loadtxt(tmp_path / name, delimiter=",") for name in names}
    # 17 significant digits read back bit for bit, so %.17g of the values
    # read gives the body's bytes
    body = (tmp_path / "angular_density_d2.csv").read_text().split("\n", 1)[1]
    rows = table["angular_density_d2.csv"].tolist()
    assert body == "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)

    # each angular density integrates to 1 over [0, 2 pi]; the trapezoid
    # rule is spectrally accurate on a periodic integrand
    phi, dens = table["angular_density_d2.csv"][:, 0], table["angular_density_d2.csv"][:, 1:]
    assert phi[0] == 0.0 and phi[-1] == 2.0 * np.pi
    np.testing.assert_allclose(trapezoid(dens, phi, axis=0), 1.0, rtol=0, atol=1e-12)

    # the trajectory is replicate 0 of the seed-42 batch, written with 17
    # significant digits, so its end point round-trips bit for bit
    traj = table["sample_trajectory_d3.csv"]
    assert traj.shape == (10, 6)
    batch_row = simulate_batch(FlightParams(d=3, n=8, nu=1.0), 1, 42)[0]
    np.testing.assert_array_equal(traj[-1, 1:4], batch_row)
    np.testing.assert_array_equal(traj[:, 4:], traj[:, 1:3])


def test_sampler_layers(capsys, monkeypatch):
    script = runpy.run_path(str(SCRIPTS / "sampler_layers.py"))
    monkeypatch.setattr(sys, "argv", ["sampler_layers.py", "--flights", "8", "--repeats", "1"])
    assert script["main"]() == 0
    out = capsys.readouterr().out.splitlines()
    # simulate_batch at one worker and at the default worker count
    header = out[0].strip("| ").split(" | ")
    assert header[1:-1] == [
        f"simulate_batch (up to {_cpus()} workers)" if k == "simulate_batch" else k for k in script["LAYERS"]
    ]
    assert {"one_worker", "simulate_batch"} <= set(script["LAYERS"])
    rows = [line for line in out if line.startswith("| d")]
    assert [row.split(" | ")[0] for row in rows] == [
        f"| d{d} n{n} nu{nu:g}" for d, n, nu in script["CELLS"]
    ]
    # every layer a non-negative ns count, then a positive rate
    for row in rows:
        cells = row.strip("| ").split(" | ")[1:]
        assert len(cells) == len(script["LAYERS"]) + 1
        assert all(float(c.replace(",", "")) >= 0.0 for c in cells)
        assert float(cells[-1]) > 0.0


def test_law_layers(capsys, monkeypatch):
    script = runpy.run_path(str(SCRIPTS / "law_layers.py"))
    monkeypatch.setattr(sys, "argv", ["law_layers.py", "--repeats", "1"])
    assert script["main"]() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].strip("| ").split(" | ")[1:] == list(script["COLUMNS"])
    parsed = [line.strip("| ").split(" | ") for line in out[2:]]
    rows = {row[0]: row[1:] for row in parsed}
    laws = ("cf_nu1", "density_nu1")
    cells = [f"{law} d{d} n{n}" for law in laws for d, n in script["NU1_CELLS"]]
    assert set(cells) <= set(rows)
    assert {"check_identities", "FlightParams", "cf_nu1, the 14 law_eval cells",
            "radial_density_projection d3 m2 n2 nu0.3"} <= set(rows)
    # every column a non-negative microsecond count; the laws without a
    # special function give it none
    for name, values in rows.items():
        assert len(values) == len(script["COLUMNS"]), name
        assert all(float(v.replace(",", "")) >= 0.0 for v in values), name
    assert rows["density_nu1 d3 n2"][1] == "0.0" and float(rows["cf_nu1 d3 n2"][1]) > 0.0
    # the density command at d5 n4 and its glue, the command minus its law
    command, glue = rows[script["COMMAND"]], rows[script["GLUE"]]
    assert float(command[0].replace(",", "")) > 0.0 and command[1] == glue[1] == "0.0"
