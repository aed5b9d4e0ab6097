import errno
import json
import math
import os
import stat

import numpy as np
import pytest

from driftflight import analytic, cli
from driftflight.cli import IO_ERROR, USAGE_ERROR, VALIDATION_FAILURE, build_parser, main
from driftflight.csvtext import BLOCK_VALUES, write_rows
from driftflight.flight import FlightParams, replicate_stream, simulate_batch, simulate_flight
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
    def fail(p, count, seed):
        raise ValueError("no trajectories")

    monkeypatch.setattr(cli, "simulate_trajectories", fail)
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


def test_validate_only_identities(tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", "--only", "identities", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert all(c["kind"] == "identity" for c in report["checks"])


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

    def one_block_then_fail(fh, rows):
        write_rows(fh, rows[: BLOCK_VALUES // rows.shape[1]])
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
}


@pytest.mark.parametrize(
    "command,config,flags",
    [
        ("mixture", {"x": [0.3]}, ["--x", "0.3"]),  # a flat list is one vector
        ("moments", {"orders": 2}, ["--orders", "2"]),  # a scalar is one order
        ("cf", {"anorm": [[1.0]]}, None),  # malformed: a usage error
        ("mixture", {"x": [[0.3], {"x": 0.3}]}, None),
        ("moments", {"c": [1.0]}, None),
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


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()
