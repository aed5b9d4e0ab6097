import argparse
import errno
import json
import math
import os
import stat
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflight import analytic, cli, flight
from driftflight.cli import IO_ERROR, USAGE_ERROR, VALIDATION_FAILURE, main
from driftflight.csvtext import BLOCK_VALUES, write_rows
from driftflight.flight import FlightParams, replicate_stream, simulate_batch, simulate_flight
from _oracles import ArgparseUsageError, argparse_cli_parser
from test_acceptance import CLI_COMMAND_SETS


def _read_rows(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.strip().split(",")])
    return np.array(rows)


def test_simulate_is_deterministic_and_well_formed(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "simulate", "--d", "3", "--nu", "1", "--n", "2", "--c", "1", "--t", "1",
        "--count", "500", "--seed", "7",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = _read_rows(out1)
    assert rows.shape == (500, 4)
    norms = np.linalg.norm(rows[:, 1:], axis=1)
    assert norms.max() <= 1.0 + 1e-9
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 7
    assert meta["config"]["count"] == 500


def test_simulate_rejects_zero_count(tmp_path):
    code = main(
        ["simulate", "--d", "2", "--n", "1", "--count", "0", "--out", str(tmp_path / "x.csv")]
    )
    assert code == USAGE_ERROR


def test_simulate_trajectory_export(tmp_path):
    out = tmp_path / "pos.csv"
    tout = tmp_path / "traj.csv"
    code = main(
        [
            "simulate", "--d", "2", "--nu", "0", "--n", "3", "--count", "10",
            "--seed", "3", "--out", str(out), "--trajectories", "4",
            "--trajectories-out", str(tout),
        ]
    )
    assert code == 0
    rows = _read_rows(tout)
    # 4 replicates x (n+2) breakpoints
    assert rows.shape == (4 * 5, 5)
    finals = _read_rows(out)
    # last breakpoint of each trajectory equals the batch row
    for i in range(4):
        traj_final = rows[rows[:, 0] == i][-1, 3:]
        np.testing.assert_array_equal(traj_final, finals[i, 1:])


# the last case writes both files in several blocks (csvtext.BLOCK_VALUES)
@pytest.mark.parametrize(
    "d,n,nu,count,k",
    [(2, 3, 0.0, 12, 9), (5, 0, 2.5, 12, 9), (3, 2, 1.0, 2100, 1100)],
    ids=["2-3-0.0", "5-0-2.5", "3-2-1.0-blocks"],
)
def test_simulate_trajectory_rows_match_per_replicate_flights(tmp_path, d, n, nu, count, k):
    tout = tmp_path / "traj.csv"
    code = main(
        [
            "simulate", "--d", str(d), "--n", str(n), "--nu", str(nu), "--count", str(count),
            "--seed", "3", "--out", str(tmp_path / "pos.csv"), "--trajectories", str(k),
            "--trajectories-out", str(tout),
        ]
    )
    assert code == 0
    p = FlightParams(d=d, n=n, nu=nu)
    lines = []
    for i in range(k):
        tr = simulate_flight(p, replicate_stream(p, 3, i))
        for s in range(n + 2):
            lines.append(",".join("%.17g" % v for v in [i, s, tr.times[s], *tr.breakpoints[s]]))
    body = [line for line in tout.read_text().splitlines() if not line.startswith("#")]
    assert body == lines
    finals = simulate_batch(p, count, 3)
    lines = [",".join("%.17g" % v for v in [i, *finals[i]]) for i in range(count)]
    body = [line for line in (tmp_path / "pos.csv").read_text().splitlines() if not line.startswith("#")]
    assert body == lines


def test_simulate_positions_do_not_depend_on_the_trajectories(tmp_path, monkeypatch):
    # the finals of replicates 0..K-1 come from their trajectories and the
    # batch kernel runs from row K on, so each row is sampled once, and
    # the positions are byte for byte those of a run without trajectories
    rows = []
    kernel = flight._segments

    def counted(p, U):
        rows.append(len(U))
        return kernel(p, U)

    monkeypatch.setattr(flight, "_segments", counted)
    monkeypatch.setattr(flight, "_cpus", lambda: 2)
    p = FlightParams(d=3, n=2, nu=1.0)
    count = 6000
    # two workers for the batch rows at K = 0 and at K = count / 2
    assert (count // 2) * flight._padded_draws(p) >= flight._MIN_THREADED_DRAWS
    args = ["simulate", "--d", "3", "--n", "2", "--nu", "1", "--count", str(count), "--seed", "11"]
    positions = []
    for k in (0, 1, count // 2, count):
        rows.clear()
        out = tmp_path / f"pos{k}.csv"
        assert main(args + ["--trajectories", str(k), "--out", str(out)]) == 0
        assert sum(rows) == count, k
        positions.append(out.read_bytes())
    assert all(body == positions[0] for body in positions[1:])


@pytest.mark.parametrize("k", ["11", "-1"])
def test_simulate_trajectories_outside_count_is_a_usage_error(tmp_path, k):
    code = main(
        [
            "simulate", "--d", "2", "--n", "1", "--count", "10", "--trajectories", k,
            "--out", str(tmp_path / "pos.csv"),
        ]
    )
    assert code == USAGE_ERROR
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("by_config", [False, True])
def test_trajectories_out_without_trajectories_is_a_usage_error(tmp_path, capsys, by_config):
    # --trajectories-out at --trajectories 0 once wrote the positions and
    # no trajectory file, and exited 0
    traj, out = tmp_path / "t.csv", tmp_path / "s.csv"
    args = ["simulate", "--d", "2", "--n", "1", "--count", "3", "--out", str(out)]
    if by_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trajectories": 0, "trajectories-out": str(traj)}))
        args += ["--config", str(cfg)]
    else:
        args += ["--trajectories-out", str(traj)]
    assert main(args) == USAGE_ERROR
    assert "--trajectories-out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if by_config else [])


def test_density_radial_grid_integrates(tmp_path):
    out = tmp_path / "dens.csv"
    code = main(
        [
            "density", "--formula", "radial-projected", "--d", "3", "--m", "2",
            "--n", "1", "--nu", "0", "--r-points", "100", "--out", str(out),
        ]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows.shape == (100, 2)
    total = np.trapezoid(rows[:, 1], rows[:, 0])
    assert total == pytest.approx(1.0, abs=1e-3)


def test_density_radial_nu1_past_the_explicit_forms(tmp_path):
    out = tmp_path / "dens.csv"
    code = main(
        [
            "density", "--formula", "radial-nu1", "--d", "3", "--n", "3", "--nu", "1",
            "--r-points", "400", "--out", str(out),
        ]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows.shape == (400, 2)
    assert np.trapezoid(rows[:, 1], rows[:, 0]) == pytest.approx(1.0, abs=1e-3)


def test_density_point_formulas(tmp_path):
    out = tmp_path / "pt.csv"
    code = main(
        [
            "density", "--formula", "projected", "--d", "3", "--m", "1",
            "--n", "1", "--nu", "0", "--x", "0.2", "--x", "1.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows.shape == (2, 2)
    assert rows[1, 1] == 0.0  # outside the ball, the value is zero


def test_density_nu1_closed_rejects_bad_n(tmp_path):
    code = main(
        [
            "density", "--formula", "nu1-closed", "--d", "2", "--n", "3",
            "--nu", "1", "--x", "0.1,0.1", "--out", str(tmp_path / "z.csv"),
        ]
    )
    assert code == USAGE_ERROR


def test_density_requires_formula(tmp_path):
    code = main(["density", "--d", "2", "--out", str(tmp_path / "z.csv")])
    assert code == USAGE_ERROR


def test_anorm_reads_comma_separated_text(tmp_path):
    # --anorm 0.5,1.0, a config value "0.5,1.0" and two flags write the
    # same rows, as --x and --alpha read their text
    base = ["cf", "--formula", "projected", "--d", "3", "--m", "2", "--n", "1"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"anorm": "0.5,1.0"}))
    outs = [tmp_path / f"cf{i}.csv" for i in range(3)]
    assert main(base + ["--anorm", "0.5,1.0", "--out", str(outs[0])]) == 0
    assert main(base + ["--config", str(cfg), "--out", str(outs[1])]) == 0
    assert main(base + ["--anorm", "0.5", "--anorm", "1.0", "--out", str(outs[2])]) == 0
    assert _read_rows(outs[0])[:, 0].tolist() == [0.5, 1.0]
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_cf_projected_and_nu1(tmp_path):
    out = tmp_path / "cf.csv"
    code = main(
        [
            "cf", "--formula", "projected", "--d", "2", "--m", "1", "--n", "1",
            "--nu", "0", "--anorm", "2.0", "--out", str(out),
        ]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows[0, 1] == pytest.approx(math.sin(2.0) / 2.0, abs=1e-12)

    out2 = tmp_path / "cf2.csv"
    code = main(
        [
            "cf", "--formula", "nu1", "--d", "2", "--n", "1", "--nu", "1",
            "--alpha", "1.0,1.0", "--out", str(out2),
        ]
    )
    assert code == 0
    rows2 = _read_rows(out2)
    assert rows2.shape == (1, 3)
    assert 0.0 < rows2[0, 2] < 1.0


def test_cdf_grid_monotone(tmp_path):
    out = tmp_path / "cdf.csv"
    code = main(
        [
            "cdf", "--d", "3", "--m", "1", "--n", "1", "--nu", "0",
            "--r-points", "50", "--out", str(out),
        ]
    )
    assert code == 0
    rows = _read_rows(out)
    assert np.all(np.diff(rows[:, 1]) >= -1e-12)
    assert rows[0, 1] >= 0.0 and rows[-1, 1] <= 1.0


def test_cdf_of_the_full_flight_at_nu0(tmp_path, capsys):
    # d3 n2 nu0: (R / c t)^2 ~ Beta(3/2, 2), and I_{1/4}(3/2, 2) = 17/64
    out = tmp_path / "cdf.csv"
    args = ["cdf", "--d", "3", "--m", "3", "--n", "2", "--r-points", "3", "--out", str(out)]
    assert main(args + ["--nu", "0"]) == 0
    rows = _read_rows(out)
    assert rows[1, 0] == 0.5
    assert rows[1, 1] == pytest.approx(17.0 / 64.0, rel=1e-14)
    out.unlink()
    assert main(args + ["--nu", "1"]) == USAGE_ERROR
    assert "m = d requires nu = 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["density", "--formula", "projected", "--x", "0.3,0.2"],
        ["density", "--formula", "radial-projected", "--r-points", "5"],
        ["mixture", "--lam", "1.0", "--x", "0.3,0.2"],
    ],
)
def test_projected_laws_of_the_full_flight_at_nu0(tmp_path, command):
    out = tmp_path / "o.csv"
    args = command + ["--d", "2", "--m", "2", "--n", "1", "--out", str(out)]
    assert main(args + ["--nu", "0"]) == 0
    assert np.all(_read_rows(out)[:, -1] >= 0.0)
    out.unlink()
    assert main(args + ["--nu", "0.3"]) == USAGE_ERROR
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["cdf", "--m", "2"], ["density", "--formula", "radial-nu1", "--nu", "1"]]
)
@pytest.mark.parametrize("bound", ["--r-max=nan", "--r-min=-inf", "--r-max=inf"])
def test_non_finite_radial_grid_is_a_usage_error(tmp_path, capsys, command, bound):
    # --r-max nan once wrote a file of nan rows and exited 0
    out = tmp_path / "o.csv"
    assert main(command + ["--d", "3", "--n", "1", bound, "--out", str(out)]) == USAGE_ERROR
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, point",
    [
        (["density", "--formula", "nu1", "--nu", "1"], ["--x", "nan,0,0"]),
        (["density", "--formula", "projected", "--m", "2"], ["--x", "0.1,inf"]),
        (["cf", "--formula", "nu1", "--nu", "1"], ["--alpha", "inf,0,0"]),
        (["cf", "--formula", "projected", "--m", "2"], ["--anorm", "nan"]),
        (["cf", "--formula", "projected", "--m", "2"], ["--anorm", "0.5,-inf"]),
        (["mixture", "--m", "2", "--lam", "1"], ["--x", "0.1,0.2", "--x", "0.1,-inf"]),
        (["mixture", "--m", "2", "--lam", "1"], {"x": [[0.1, float("nan")]]}),
    ],
)
def test_non_finite_points_are_a_usage_error(tmp_path, capsys, command, point):
    # cf --alpha inf,0,0 once wrote the row inf,0,0,nan and exited 0
    if isinstance(point, dict):  # JSON's NaN and Infinity, read from a config file
        config = tmp_path / "c.json"
        config.write_text(json.dumps(point))
        point = ["--config", str(config)]
    out = tmp_path / "o.csv"
    assert main(command + ["--d", "3", "--n", "1", *point, "--out", str(out)]) == USAGE_ERROR
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_moments_command(tmp_path):
    out = tmp_path / "mom.csv"
    code = main(
        [
            "moments", "--d", "3", "--m", "2", "--n", "1", "--nu", "0",
            "--orders", "1,2,4", "--out", str(out),
        ]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows.shape == (3, 2)
    assert rows[1, 1] == pytest.approx(0.4, rel=1e-12)


def test_mixture_command_reports_tail_bound(tmp_path):
    out = tmp_path / "mix.csv"
    code = main(
        [
            "mixture", "--d", "2", "--m", "1", "--nu", "0", "--lam", "1.0",
            "--x", "0.3", "--out", str(out),
        ]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows[0, 1] > 0.0
    meta = json.loads((out.parent / "mix.csv.meta.json").read_text())
    assert meta["truncation_tail_bound"] < 1e-8


def test_mixture_past_the_former_ratio_cap(tmp_path):
    # the tail bound's first ratio is 0.53 here; it once raised
    # RuntimeError after the CSV was written, leaving it without a sidecar
    out = tmp_path / "mix.csv"
    args = ["mixture", "--d", "2", "--m", "1", "--nu", "0", "--lam", "750", "--n-max", "157"]
    assert main(args + ["--x", "0.1", "--out", str(out)]) == 0
    assert _read_rows(out).shape == (1, 2)
    meta = json.loads((tmp_path / "mix.csv.meta.json").read_text())
    assert 0.0 < meta["truncation_tail_bound"] < 1e-8


def test_mixture_whose_tail_bound_fails_writes_no_file(tmp_path, monkeypatch):
    def fail(mp):
        raise ValueError("no tail bound")

    monkeypatch.setattr(analytic, "mixture_tail_bound", fail)
    out = tmp_path / "mix.csv"
    assert main(_COMMAND_SET["mixture"] + ["--out", str(out)]) == USAGE_ERROR
    assert list(tmp_path.iterdir()) == []


def test_simulate_whose_trajectories_fail_writes_no_file(tmp_path, monkeypatch):
    def fail(p, count, seed, keep):
        raise ValueError("no trajectories")

    monkeypatch.setattr(cli, "_simulate", fail)
    out = tmp_path / "pos.csv"
    assert main(_COMMAND_SET["simulate"] + ["--out", str(out)]) == USAGE_ERROR
    assert list(tmp_path.iterdir()) == []


def test_moments_past_the_double_range_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "m.csv"
    args = ["moments", "--d", "3", "--m", "2", "--n", "1", "--c", "1e10", "--out", str(out)]
    assert main(args + ["--orders", "30"]) == 0
    assert out.read_text().splitlines()[-1] == "30,2.0299467158400729e+298"
    out.unlink()
    (tmp_path / "m.csv.meta.json").unlink()
    assert main(args + ["--orders", "1,40"]) == USAGE_ERROR
    assert "order 40" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# one case per row of cli._LAWS: the flags, the FlightParams, what the law
# is evaluated at and the input columns the CSV shows
_LAW_CASES = {
    ("density", "projected"): (
        ["--d", "3", "--m", "2", "--n", "1", "--nu", "0.5", "--x", "0.2,0.1", "--x", "0.9,0.4"],
        FlightParams(d=3, m=2, n=1, nu=0.5), np.array([[0.2, 0.1], [0.9, 0.4]]), None,
    ),
    ("density", "nu1"): (
        ["--d", "3", "--n", "3", "--nu", "1", "--x", "0.2,0.1,0.3", "--x=-0.4,0.1,0.1"],
        FlightParams(d=3, n=3, nu=1.0), np.array([[0.2, 0.1, 0.3], [-0.4, 0.1, 0.1]]), None,
    ),
    ("density", "nu1-closed"): (
        ["--d", "2", "--n", "2", "--nu", "1", "--t", "2", "--x", "0.3,-0.5"],
        FlightParams(d=2, n=2, nu=1.0, t=2.0), np.array([[0.3, -0.5]]), None,
    ),
    ("density", "radial-projected"): (
        ["--d", "4", "--m", "2", "--n", "2", "--nu", "0.3", "--c", "2", "--r-points", "9"],
        FlightParams(d=4, m=2, n=2, nu=0.3, c=2.0), np.linspace(0.0, 2.0, 9), None,
    ),
    ("density", "radial-nu1"): (
        ["--d", "3", "--n", "2", "--nu", "1", "--r-min", "0.1", "--r-max", "0.9",
         "--r-points", "7"],
        FlightParams(d=3, n=2, nu=1.0), np.linspace(0.1, 0.9, 7), None,
    ),
    ("cf", "projected"): (
        ["--d", "3", "--m", "2", "--n", "1", "--nu", "0.5", "--anorm", "2.0", "--anorm", "0.5"],
        FlightParams(d=3, m=2, n=1, nu=0.5), np.array([[2.0, 0.0], [0.5, 0.0]]), [2.0, 0.5],
    ),
    ("cf", "nu1"): (
        ["--d", "2", "--n", "1", "--nu", "1", "--alpha", "1.0,2.0", "--alpha", "0.5,0.0"],
        FlightParams(d=2, n=1, nu=1.0), np.array([[1.0, 2.0], [0.5, 0.0]]), None,
    ),
    ("cdf", None): (
        ["--d", "3", "--m", "1", "--n", "1", "--nu", "0.37", "--r-points", "11"],
        FlightParams(d=3, m=1, n=1, nu=0.37), np.linspace(0.0, 1.0, 11), None,
    ),
}


def _law_argv(key, out):
    command, formula = key
    argv = [command] + (["--formula", formula] if formula else [])
    return argv + _LAW_CASES[key][0] + ["--out", str(out)]


_LAW_IDS = [f"{command}-{formula}" for command, formula in cli._LAWS]


@pytest.mark.parametrize("key", list(cli._LAWS), ids=_LAW_IDS)
def test_every_law_of_the_table_writes_the_analytic_values(tmp_path, key):
    _, p, at, shown = _LAW_CASES[key]
    out = tmp_path / "law.csv"
    assert main(_law_argv(key, out)) == 0
    rows = _read_rows(out)
    shown = at if shown is None else shown
    np.testing.assert_array_equal(rows[:, :-1], np.reshape(shown, (len(rows), -1)))
    np.testing.assert_array_equal(rows[:, -1], getattr(analytic, cli._LAWS[key][0])(p, at))
    assert out.read_text().splitlines()[1].endswith("," + key[0])


@pytest.mark.parametrize("key", list(cli._LAWS), ids=_LAW_IDS)
def test_every_law_is_looked_up_on_analytic_when_called(tmp_path, monkeypatch, key):
    # a wrapper placed on the module (as the benchmark's tracer places its
    # timers) must see the CLI's call
    name = cli._LAWS[key][0]
    law, calls = getattr(analytic, name), []
    monkeypatch.setattr(analytic, name, lambda p, at: calls.append(p) or law(p, at))
    assert main(_law_argv(key, tmp_path / "law.csv")) == 0
    assert calls == [_LAW_CASES[key][1]]


def test_cdf_ignores_the_formula_of_a_shared_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    # the keys of _COMMAND_SET["cdf"], plus the formula of a cf or density
    settings = {"d": 4, "m": 2, "n": 2, "nu": 1.0, "r-points": 40, "formula": "nu1"}
    cfg.write_text(json.dumps(settings))
    shared, ref = tmp_path / "shared.csv", tmp_path / "ref.csv"
    assert main(["cdf", "--config", str(cfg), "--out", str(shared)]) == 0
    assert main(_COMMAND_SET["cdf"] + ["--out", str(ref)]) == 0
    assert b"formula" not in shared.read_bytes()
    for suffix in ("", ".meta.json"):
        got, want = (tmp_path / f"{name}.csv{suffix}" for name in ("shared", "ref"))
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "argv,flag,values",
    [
        (["density", "--formula", "nu1", "--d", "3", "--n", "3", "--nu", "1"], "--x",
         ["-0.4,0.1,0.1", "0.2,-0.3,0.1"]),
        (["cf", "--formula", "nu1", "--d", "2", "--n", "1", "--nu", "1"], "--alpha",
         ["-1.0,2.0", "-.5,-3e-1"]),
        (["cf", "--formula", "projected", "--d", "3", "--m", "2", "--n", "1", "--nu", "0.5"],
         "--anorm", ["-1e-3", "-2.5"]),
    ],
    ids=["x", "alpha", "anorm"],
)
def test_value_with_a_leading_minus_after_its_flag(tmp_path, argv, flag, values):
    # --x -0.4,0.1,0.1 writes what --x=-0.4,0.1,0.1 writes
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(argv + [a for v in values for a in (flag, v)] + ["--out", str(spaced)]) == 0
    assert main(argv + [f"{flag}={v}" for v in values] + ["--out", str(joined)]) == 0
    for suffix in ("", ".meta.json"):
        got, want = (tmp_path / f"{name}.csv{suffix}" for name in ("spaced", "joined"))
        assert got.read_bytes() == want.read_bytes()


# flag -> (argv before it, its two fields a and b)
_LIST_FLAGS = {
    "x": (["density", "--formula", "projected", "--d", "3", "--m", "2", "--n", "1"], "0.2", "0.1"),
    "alpha": (["cf", "--formula", "nu1", "--d", "2", "--n", "1", "--nu", "1"], "1.0", "2.0"),
    "anorm": (["cf", "--formula", "projected", "--d", "3", "--m", "2", "--n", "1"], "0.5", "1.0"),
    "orders": (["moments", "--d", "3", "--m", "2", "--n", "1"], "1", "2"),
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "shape", ["{a},,{b}", "{a},{b},", "{a}, ,{b}"], ids=["empty", "trailing", "blank"])
@pytest.mark.parametrize("flag", list(_LIST_FLAGS))
def test_empty_field_of_comma_separated_numbers_is_a_usage_error(
        tmp_path, capsys, flag, shape, source):
    # --x 0.2,,0.1 once evaluated the point (0.2, 0.1); so did a config
    # value, and a trailing comma or blank field in --alpha or --anorm
    argv, a, b = _LIST_FLAGS[flag]
    text = shape.format(a=a, b=b)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: text}))
    given = [f"--{flag}", text] if source == "flag" else ["--config", str(cfg)]
    out = tmp_path / "out.csv"
    assert main(argv + given + ["--out", str(out)]) == USAGE_ERROR
    assert f"--{flag} must be " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]
    assert main(argv + [f"--{flag}", f"{a},{b}", "--out", str(out)]) == 0


@pytest.mark.parametrize("flag", list(_LIST_FLAGS))
def test_empty_config_list_is_a_usage_error(tmp_path, capsys, flag):
    # {"orders": []} once exited 0 with a CSV of no data row
    argv, _, _ = _LIST_FLAGS[flag]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: []}))
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == USAGE_ERROR
    assert f"--{flag} takes at least one number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_validate_only_identities(tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", "--only", "identities", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert all(c["kind"] == "identity" for c in report["checks"])
    assert report["config"]["only"] == "identities"


def test_validate_seed_changes_gof_not_identities(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["validate", "--seed", "1", "--out", str(r1)]) == 0
    assert main(["validate", "--seed", "2", "--out", str(r2)]) == 0
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    for ca, cb in zip(a["checks"], b["checks"]):
        if ca["kind"] == "identity":
            assert ca["metric"] == cb["metric"]
    gof_a = [c["metric"] for c in a["checks"] if c["kind"] != "identity"]
    gof_b = [c["metric"] for c in b["checks"] if c["kind"] != "identity"]
    assert gof_a != gof_b


def test_validate_rerun_byte_identical(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["validate", "--only", "identities", "--out", str(r1)]) == 0
    assert main(["validate", "--only", "identities", "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_io_error_exit_code(tmp_path):
    code = main(
        [
            "moments", "--d", "3", "--m", "2", "--n", "1",
            "--out", str(tmp_path / "missing_dir" / "m.csv"),
        ]
    )
    assert code == IO_ERROR


def _argv_and_outputs(cmd, out):
    """``cmd`` writing to ``out``, and every file that run writes."""
    argv, paths = cmd + ["--out", str(out)], [out]
    if cmd[0] == "simulate":
        traj = out.with_name(out.name + ".traj")
        argv += ["--trajectories-out", str(traj)]
        paths.append(traj)
    if cmd[0] != "validate":  # the report has no sidecar
        paths += [p.with_name(p.name + ".meta.json") for p in paths]
    return argv, paths


@pytest.mark.parametrize("cmd", CLI_COMMAND_SETS, ids=lambda cmd: cmd[0])
def test_rerun_over_longer_and_shorter_files_matches_a_fresh_run(tmp_path, cmd):
    argv, fresh = _argv_and_outputs(cmd, tmp_path / "fresh.out")
    assert main(argv) == 0
    expected = [p.read_bytes() for p in fresh]
    argv, reused = _argv_and_outputs(cmd, tmp_path / "reused.out")
    for stale_size in (lambda n: n + 1000, lambda n: n // 2):
        for path, body in zip(reused, expected):
            path.write_bytes(b"\xff" * stale_size(len(body)))
        assert main(argv) == 0
        assert [p.read_bytes() for p in reused] == expected


def test_failed_write_leaves_no_old_bytes(tmp_path, monkeypatch):
    cmd = ["simulate", "--d", "3", "--n", "2", "--nu", "1", "--count", "2000", "--seed", "7"]
    fresh = tmp_path / "fresh.csv"
    assert main(cmd + ["--out", str(fresh)]) == 0
    full = fresh.read_bytes()
    out = tmp_path / "out.csv"
    out.write_bytes(b"\xff" * (2 * len(full)))
    failed_at = []

    def one_block_then_fail(fh, *columns):
        width = sum(np.asarray(c).reshape(len(c), -1).shape[1] for c in columns)
        write_rows(fh, *(c[: BLOCK_VALUES // width] for c in columns))
        failed_at.append(fh.tell())
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "write_rows", one_block_then_fail)
    assert main(cmd + ["--out", str(out)]) == IO_ERROR
    assert 0 < failed_at[0] < len(full)
    assert out.read_bytes() == full[: failed_at[0]]


def test_output_to_a_character_device():
    # /dev/null cannot be cut to length; only regular files are
    assert main(["validate", "--only", "identities", "--out", os.devnull]) == 0


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_outputs_get_the_mode_bits_of_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        assert main(["moments", "--d", "3", "--m", "2", "--n", "1",
                     "--out", str(tmp_path / "m.csv")]) == 0
    finally:
        os.umask(old)
    want = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert want == 0o666 & ~umask
    for name in ("m.csv", "m.csv.meta.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == want


def test_moments_full_flight_with_drift_is_a_usage_error(tmp_path):
    out = tmp_path / "m.csv"
    args = ["moments", "--d", "3", "--m", "3", "--n", "2", "--nu", "1", "--out", str(out)]
    assert main(args) == USAGE_ERROR
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "m": 2, "n": 1, "nu": 0.0, "orders": "2"}))
    out = tmp_path / "m.csv"
    code = main(["moments", "--config", str(cfg), "--nu", "0.0", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert rows[0, 1] == pytest.approx(0.4, rel=1e-12)


_CONFIG_BASE = {
    "mixture": ["mixture", "--d", "2", "--m", "1", "--nu", "0", "--lam", "1.0"],
    "moments": ["moments", "--d", "3", "--m", "2", "--n", "1"],
    "cf": ["cf", "--formula", "projected", "--d", "3", "--m", "2", "--n", "1"],
    "density": ["density", "--formula", "projected", "--d", "3", "--m", "2", "--n", "1"],
}


@pytest.mark.parametrize(
    "command,config,flags",
    [
        ("mixture", {"x": [0.3]}, ["--x", "0.3"]),  # a flat list is one vector
        ("moments", {"orders": 2}, ["--orders", "2"]),  # a scalar is one order
        # a list item may be comma-separated text, in --orders as in --anorm
        ("moments", {"orders": [1, "2,4"]}, ["--orders", "1,2,4"]),
        ("cf", {"anorm": [0.5, "1.0,2.0"]}, ["--anorm", "0.5,1.0,2.0"]),
        ("density", {"x": [["0.2,0.1"], [0.3, "0.1"]]}, ["--x", "0.2,0.1", "--x", "0.3,0.1"]),
        ("mixture", {"x": [0.3, "0.1"]}, None),  # a number beside text
        ("cf", {"anorm": [[1.0]]}, None),  # malformed: a usage error
        ("mixture", {"x": [[0.3], {"x": 0.3}]}, None),
        ("mixture", {"x": {"0.3": 1, "0.1": 2}}, None),  # an object is not read as its keys
        ("moments", {"orders": {"1": 2}}, None),
        ("moments", {"c": [1.0]}, None),
        ("moments", {"c": 10**400}, None),  # once an OverflowError traceback
    ],
)
def test_config_values_of_other_json_types(tmp_path, capsys, command, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "cfg.csv"
    code = main(_CONFIG_BASE[command] + ["--config", str(cfg), "--out", str(out)])
    if flags is None:
        assert code == USAGE_ERROR
        assert capsys.readouterr().err.startswith("error: ")
    else:
        assert code == 0
        ref = tmp_path / "flags.csv"
        assert main(_CONFIG_BASE[command] + flags + ["--out", str(ref)]) == 0
        assert out.read_bytes() == ref.read_bytes()


_INTEGER_SETTINGS = {
    "simulate": {"d": 3, "n": 1, "count": 4, "seed": 7, "trajectories": 2},
    "density": {"formula": "radial-projected", "d": 3, "m": 2, "n": 1, "r-points": 20},
    "mixture": {"d": 2, "m": 1, "nu": 0.0, "lam": 1.0, "n-max": 30, "x": [0.3]},
    "moments": {"d": 3, "m": 2, "n": 1, "orders": 2},
    "validate": {"seed": 5},
}


@pytest.mark.parametrize(
    "command,key",
    [
        ("simulate", "d"), ("simulate", "n"), ("simulate", "count"), ("simulate", "seed"),
        ("simulate", "trajectories"), ("density", "m"), ("density", "r-points"),
        ("mixture", "n-max"), ("moments", "orders"), ("validate", "seed"),
    ],
)
def test_non_integral_config_value_is_a_usage_error(tmp_path, capsys, command, key):
    settings = dict(_INTEGER_SETTINGS[command])
    settings[key] += 0.5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == USAGE_ERROR
    assert f"--{key} must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_config_numbers_are_not_truncated(tmp_path):
    # {"n": 1.5, "count": 4.9, "seed": 7.8} once ran as n 1, count 4, seed 7
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "n": 1.5, "count": 4.9, "seed": 7.8}))
    bad = tmp_path / "a.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(bad)]) == USAGE_ERROR
    cfg.write_text(json.dumps({"d": 3, "n": True, "count": 4}))  # once read as n = 1
    assert main(["simulate", "--config", str(cfg), "--out", str(bad)]) == USAGE_ERROR
    assert not bad.exists()
    cfg.write_text(json.dumps({"d": 3.0, "n": 1.0, "count": 4.0, "seed": 7.0}))
    out, ref = tmp_path / "b.csv", tmp_path / "ref.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    flags = ["simulate", "--d", "3", "--n", "1", "--count", "4", "--seed", "7"]
    assert main(flags + ["--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


_NUMBER_SETTINGS = {
    "cdf": {"d": 3, "m": 2, "n": 1, "nu": 1.0, "r-points": 5},
    "mixture": {"d": 2, "m": 1, "nu": 0.0, "lam": 1.0, "x": [0.3]},
    "cf": {"formula": "projected", "d": 3, "m": 2, "n": 1, "anorm": [1.0]},
}


@pytest.mark.parametrize(
    "command,key,value",
    [("cdf", key, True) for key in ("nu", "c", "t", "r-min", "r-max")]
    + [("mixture", "lam", True), ("mixture", "x", [True]), ("cf", "anorm", [True])],
)
def test_boolean_config_value_for_a_number_is_a_usage_error(tmp_path, capsys, command, key, value):
    # {"nu": true} once wrote the nu = 1 law and {"r-max": true} a grid to 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_NUMBER_SETTINGS[command], key: value}))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == USAGE_ERROR
    assert f"--{key} must be a number, got True" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "command,settings",
    [
        ("validate", {"only": "all"}), ("validate", {"profile": "slow"}),
        ("validate", {"only": None}), ("density", {**_NUMBER_SETTINGS["cdf"], "formula": "cdf"}),
        ("cf", {**_NUMBER_SETTINGS["cf"], "formula": 1}),
    ],
)
def test_config_value_outside_its_choices_is_a_usage_error(tmp_path, capsys, command, settings):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == USAGE_ERROR
    (key,) = set(settings) & {"only", "profile", "formula"}
    assert f"--{key} must be one of" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "command,settings,key",
    [
        ("validate", {"only": "identities", "out": True}, "out"),
        ("cdf", {**_NUMBER_SETTINGS["cdf"], "out": True}, "out"),
        ("cdf", {**_NUMBER_SETTINGS["cdf"], "out": ["r.json"]}, "out"),
        ("cdf", {**_NUMBER_SETTINGS["cdf"], "out": ""}, "out"),
        ("simulate", {"d": 2, "n": 1, "count": 4, "trajectories": 2, "out": "s.csv",
                      "trajectories-out": 7}, "trajectories-out"),
    ],
)
def test_config_path_that_is_no_string_is_a_usage_error(
        tmp_path, monkeypatch, capsys, command, settings, key):
    # {"out": true} once wrote the files True and True.meta.json, and
    # {"trajectories-out": 7} the file 7
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    assert main([command, "--config", str(cfg)]) == USAGE_ERROR
    assert f"--{key} must be a non-empty string" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_key_config_is_a_usage_error(tmp_path, capsys):
    # a config file's own "config" key was once ignored, its file unread
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"nu": 0.5}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_NUMBER_SETTINGS["cdf"], "config": str(other)}))
    out = tmp_path / "out.csv"
    assert main(["cdf", "--config", str(cfg), "--out", str(out)]) == USAGE_ERROR
    assert "key 'config'" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg, other]


_COMMAND_SET = {cmd[0]: cmd for cmd in CLI_COMMAND_SETS}


@pytest.mark.parametrize(
    "command,flag",
    [("simulate", ["--m", "2"])]
    + [
        (command, flag)
        for command in ("density", "cf", "cdf", "moments", "mixture")
        for flag in (["--seed", "3"], ["--count", "10"])
    ],
)
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, command, flag):
    # each once parsed and was ignored; simulate --m put a false m in the header
    out = tmp_path / "out.csv"
    assert main(_COMMAND_SET[command] + flag + ["--out", str(out)]) == USAGE_ERROR
    assert list(tmp_path.iterdir()) == []


def test_config_key_that_no_command_has_is_a_usage_error(tmp_path, capsys):
    # "nu_" once was ignored, and cdf wrote the nu = 0 law
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "m": 2, "n": 2, "nu_": 1.0}))
    out = tmp_path / "out.csv"
    assert main(["cdf", "--config", str(cfg), "--out", str(out)]) == USAGE_ERROR
    assert "'nu_'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--count", "4"],
        ["moments", "--m", "2"],
        ["density", "--formula", "projected", "--m", "2", "--x", "0.1,0.1"],
    ],
)
def test_c_t_outside_the_double_range_is_a_usage_error(tmp_path, capsys, command, scale):
    # c = t = 1e200 once wrote nan and inf rows and exited 0
    out = tmp_path / "out.csv"
    args = command + ["--d", "3", "--n", "1", "--c", scale, "--t", scale, "--out", str(out)]
    assert main(args) == USAGE_ERROR
    assert "0 < c t < inf" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_trajectories_out_naming_the_out_file_is_a_usage_error(tmp_path):
    # the trajectories once overwrote the final positions
    out = tmp_path / "same.csv"
    args = ["simulate", "--d", "2", "--n", "1", "--count", "4", "--trajectories", "2", "--out", str(out)]
    assert main(args + ["--trajectories-out", str(out)]) == USAGE_ERROR
    link = tmp_path / "link.csv"
    link.symlink_to(out)
    assert main(args + ["--trajectories-out", str(link)]) == USAGE_ERROR
    assert list(tmp_path.iterdir()) == [link] and not out.exists()


@pytest.mark.parametrize("out,traj", [("a.csv", "a.csv.meta.json"), ("t.csv.meta.json", "t.csv")])
def test_a_csv_naming_the_other_sidecar_is_a_usage_error(tmp_path, out, traj):
    # each CSV was once written over the other one's sidecar, and exited 0
    args = ["simulate", "--d", "2", "--n", "1", "--nu", "0", "--count", "5", "--seed", "1",
            "--trajectories", "2", "--out", str(tmp_path / out), "--trajectories-out", str(tmp_path / traj)]
    assert main(args) == USAGE_ERROR
    assert list(tmp_path.iterdir()) == []


def test_simulate_echoes_m_equal_to_d(tmp_path):
    # positions are in all d coordinates, whatever m a config file holds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "m": 2, "n": 1, "count": 4}))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((tmp_path / "out.csv.meta.json").read_text())["config"]["m"] == 3
    assert out.read_text().splitlines()[1] == "# columns: replicate,x1,x2,x3"


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("seed", [True, 1.5, -1, 2**128])
def test_seed_outside_the_philox_keys_is_a_usage_error(tmp_path, capsys, command, seed):
    # 1.5 and true once ran as seed 1; -1 and 2**128 died inside numpy
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_INTEGER_SETTINGS[command], "seed": seed}))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == USAGE_ERROR
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_main_reuses_its_parser_without_carrying_state(tmp_path):
    # main parses every call with one parser; each call must see only its argv
    first = ["density", "--formula", "nu1", "--d", "2", "--n", "1", "--nu", "1",
             "--x", "0.1,0.2", "--x", "0.3,-0.1"]
    a, b, mix = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "mix.csv"
    assert main(first + ["--out", str(a)]) == 0
    assert main(["density", "--formula", "bogus", "--out", str(b)]) == USAGE_ERROR
    mixture = ["mixture", "--d", "2", "--m", "1", "--lam", "1", "--x", "0.3", "--x", "0.5"]
    assert main(mixture + ["--out", str(mix)]) == 0
    assert _read_rows(mix).shape == (2, 2)
    assert main(first + ["--out", str(b)]) == 0
    assert _read_rows(b).shape == (2, 3)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()


def test_help_exits_zero_on_repeated_calls(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "validate" in capsys.readouterr().out


_ARGPARSE = argparse_cli_parser()
_SUBPARSERS = next(a for a in _ARGPARSE._actions if isinstance(a, argparse._SubParsersAction))


def _argparse_given(argv):
    """The command of argv and its given flags by name, as argparse reads
    them; the handler is left out, as the command fixes it."""
    args = vars(_ARGPARSE.parse_args(argv))
    given = {name.replace("_", "-"): value for name, value in args.items()
             if value is not None and name not in ("command", "func")}
    return args["command"], given


def _parsed(parse, argv):
    """What a parser makes of argv: ("ok", the repr of its command and
    given values), ("exit", code) for help, or ("error",)."""
    try:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            command, given = parse(argv)
            return "ok", repr((command, sorted(given.items())))  # nan == nan
    except SystemExit as exc:
        return "exit", exc.code
    except (ArgparseUsageError, cli._UsageError):
        return "error",


def _same_as_argparse(argv):
    want = _parsed(_argparse_given, argv)
    assert _parsed(cli._parse, argv) == want, argv
    if want[0] == "error":
        with redirect_stderr(StringIO()):
            assert main(argv) == USAGE_ERROR, argv


# values that each type of flag takes or refuses, and tokens that are no value
_VALUES = {
    int: ["3", "-2", "0", " 4 ", "+7", "1_000", "1.5", "x", "", "-e"],
    float: ["0.5", "-1e-3", "-.5", "inf", "1e400", "nan", "-inf", "abc", "", "1,2"],
    str: ["a.csv", "-1,2", "b c", "-x y", "-", "=", "--", "-q", "--d", "--r", "-h"],
}


def _unique_prefixes(options, flag):
    """``flag`` and each shorter prefix of it that no other option shares."""
    return [flag] + [flag[:k] for k in range(3, len(flag))
                     if [o for o in options if o.startswith(flag[:k])] == [flag]]


@st.composite
def _argvs(draw, command):
    """argvs of ``command`` mixing every form of its flags with the
    tokens argparse refuses: ambiguous prefixes, unknown flags,
    positional arguments, --, missing and bad values, bad choices."""
    sub = _SUBPARSERS.choices[command]
    options = [o for o in sub._option_string_actions if o.startswith("--")]
    ambiguous = ["--="] + sorted({o[:k] for o in options for k in range(3, len(o))
                                  if sum(p.startswith(o[:k]) for p in options) > 1
                                  and o[:k] not in options})
    argv = [command]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["flag"] * 6 + ["bare", "ambiguous", "unknown", "other"]))
        if kind in ("flag", "bare"):
            action = sub._option_string_actions[draw(st.sampled_from(options[1:]))]  # not --help
            flag = action.option_strings[0]
            form = draw(st.sampled_from(_unique_prefixes(options, flag)))
            good = [str(c) for c in action.choices or ()] or _VALUES[action.type or str]
            value = draw(st.sampled_from(good + _VALUES[str] + ["bogus"]))
            if kind == "bare":
                argv.append(form)
            elif draw(st.booleans()):
                argv += [form, value]
            elif value != "--":  # argparse 3.11 turns --flag=-- into --flag=[] (a defect)
                argv.append(f"{form}={value}")
        elif kind == "ambiguous":
            argv.append(draw(st.sampled_from(ambiguous)) + draw(st.sampled_from(["", "=1"])))
        elif kind == "unknown":
            argv.append(draw(st.sampled_from(["--bogus", "-q", "--dd=1", "-x 1", "---d"])))
        else:
            argv.append(draw(st.sampled_from(["3", "pos", "--", "-5", "-h", "--help", "--he"])))
    return argv


@pytest.mark.parametrize("command", list(_SUBPARSERS.choices))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parser_reads_argv_as_argparse_did(command, data):
    _same_as_argparse(data.draw(_argvs(command)))


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus"], ["--help"], ["-h", "bogus"], ["--he"], ["--h=x"], ["--d", "3", "cdf"],
     ["--bogus", "--help"], ["--", "cdf"], ["cdf", "--help", "--r"], ["cdf", "--help", "--", "--r"],
     ["cdf", "--d", "x", "--help"], ["cdf", "--bogus", "--help"], ["cdf", "-h", "--d"],
     ["cdf", "-hx"], ["cdf", "--help="], ["cdf", "--", "--help"], ["cdf", "--d", "--", "3"],
     ["cdf", "--=1"], ["simulate", "--c", "1", "--co=2"], ["mixture", "--n", "1", "--n-", "2"]],
)
def test_parser_reads_edge_argv_as_argparse_did(argv):
    _same_as_argparse(argv)
