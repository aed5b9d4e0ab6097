import json
import math

import numpy as np
import pytest

from driftflight.cli import IO_ERROR, USAGE_ERROR, VALIDATION_FAILURE, main
from driftflight.flight import FlightParams, replicate_stream, simulate_flight


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


@pytest.mark.parametrize("d,n,nu", [(2, 3, 0.0), (5, 0, 2.5)])
def test_simulate_trajectory_rows_match_per_replicate_flights(tmp_path, d, n, nu):
    tout = tmp_path / "traj.csv"
    code = main(
        [
            "simulate", "--d", str(d), "--n", str(n), "--nu", str(nu), "--count", "12",
            "--seed", "3", "--out", str(tmp_path / "pos.csv"), "--trajectories", "9",
            "--trajectories-out", str(tout),
        ]
    )
    assert code == 0
    p = FlightParams(d=d, n=n, nu=nu)
    lines = []
    for i in range(9):
        tr = simulate_flight(p, replicate_stream(p, 3, i))
        for s in range(n + 2):
            lines.append(",".join("%.17g" % v for v in [i, s, tr.times[s], *tr.breakpoints[s]]))
    body = [line for line in tout.read_text().splitlines() if not line.startswith("#")]
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
