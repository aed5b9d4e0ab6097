"""Batch command-line front end.

Commands: simulate | density | cf | cdf | moments | mixture | validate.
density, cf and cdf evaluate the law that one table, ``_LAWS``, names
for the command and its --formula, at the radii, points or frequencies
the table says.  Flags override values from an optional JSON config
file, whose keys are flag names (without the dashes) of any command;
the fully resolved configuration (including the seed) is echoed as a
header comment in every CSV and into a ``<out>.meta.json`` sidecar, so
reruns with the same inputs are byte-identical.  A command opens its
outputs only after it has computed all their values, so one that fails
leaves no file.  An existing output is overwritten in place and then
cut to the written length, never truncated first, so a rerun leaves the
same bytes as a fresh run.  Every CSV value is the text ``"%.17g" % v``
gives, 17 significant digits that read back bit for bit (``csvtext``).
``simulate --trajectories K`` (0 <= K <= --count) also writes the
breakpoints of replicates 0..K-1.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from . import analytic
from .analytic import MixtureParams
from .csvtext import open_output, write_rows
from .flight import FlightParams, _check_seed, simulate_batch, simulate_trajectories
from .flight import simulate_flight  # noqa: F401  (unused; bench/tracing.py wraps it here)

USAGE_ERROR = 1
VALIDATION_FAILURE = 2
IO_ERROR = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _write_outputs(path: str, names: list[str], config: dict, *columns, extra=None) -> None:
    """Write the columns (1-D, or 2-D for several) side by side as the
    rows of the CSV ``path``, then its ``.meta.json`` sidecar: the config
    and the ``extra`` entries."""
    rows = np.column_stack(columns)
    header = json.dumps(config, sort_keys=True, separators=(",", ":"))
    with open_output(path, "wb") as fh:
        fh.write(f"# config: {header}\n# columns: {','.join(names)}\n".encode())
        write_rows(fh, rows)
    with open_output(path + ".meta.json", "w") as fh:
        fh.write(json.dumps({"config": config, **(extra or {})}, sort_keys=True, indent=2) + "\n")


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"cannot parse vector {text!r}") from exc


def _vector_args(cfg: dict, key: str, dim: int) -> np.ndarray:
    """The repeatable ``--<key>`` vectors (flags or config lists) as a
    (count, dim) array."""
    raw = cfg.get(key)
    if not raw:
        raise _UsageError(f"--{key} vectors are required for this command")
    flat = isinstance(raw, list) and all(isinstance(v, (int, float)) for v in raw)
    if isinstance(raw, str) or flat:
        raw = [raw]  # one vector: a comma-separated string or a flat list of numbers
    vecs = [_parse_vector(v) if isinstance(v, str) else list(map(float, v)) for v in raw]
    for vec in vecs:
        if len(vec) != dim:
            raise _UsageError(f"--{key} {vec} must have length {dim}")
    return np.array(vecs, dtype=float)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise _UsageError("config file must hold a JSON object")
    unknown = ", ".join(repr(key) for key in sorted(set(data) - _config_keys()))
    if unknown:
        raise _UsageError(f"config keys that are no command's flag: {unknown}")
    return data


@lru_cache(maxsize=1)
def _config_keys() -> frozenset[str]:
    # the flag names of every command: a shared config file may hold keys
    # that only other commands read
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return frozenset(
        opt[2:]
        for command in commands.choices.values()
        for action in command._actions
        if action.dest != "help"
        for opt in action.option_strings
        if opt.startswith("--")
    )


def _resolved(args) -> dict:
    """Merge config-file values with the command's flags, keyed by flag
    name; flags win when provided."""
    out = _load_config_file(args.config)
    for name, val in vars(args).items():
        if val is not None and name not in ("command", "func", "config"):
            out[name.replace("_", "-")] = val
    return out


_DEFAULTS = {"d": 2, "n": 1, "nu": 0.0, "c": 1.0, "t": 1.0}


def _integer(value, key: str) -> int:
    """An integer setting; a non-integral number or a boolean is a usage error."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise _UsageError(f"--{key} must be an integer, got {value!r}")
    return int(value)


def _seed(cfg: dict, default: int) -> int:
    seed = _integer(cfg.get("seed", default), "seed")
    try:
        _check_seed(seed)
    except ValueError as exc:
        raise _UsageError(f"--seed: {exc}") from exc
    return seed


def _flight_params(cfg: dict, need_m: bool = False) -> FlightParams:
    merged = {**_DEFAULTS, **cfg}
    m = merged.get("m")
    if need_m and m is None:
        raise _UsageError("this command requires --m")
    return FlightParams(
        d=_integer(merged["d"], "d"),
        n=_integer(merged["n"], "n"),
        nu=float(merged["nu"]),
        c=float(merged["c"]),
        t=float(merged["t"]),
        m=_integer(m, "m") if m is not None else None,
    )


def _echo(command: str, p: FlightParams, **extra) -> dict:
    """The resolved configuration written into every output header."""
    return {
        "command": command, "d": p.d, "m": p.m, "n": p.n, "nu": p.nu,
        "c": p.c, "t": p.t, **extra,
    }


def _add_law(sub, *names: str) -> None:
    """Add the integer flags ``names`` (of d, m, n), --nu, --c, --t,
    --out and --config to a command."""
    for name in names:
        sub.add_argument(f"--{name}", type=int, default=None)
    for name in ("nu", "c", "t"):
        sub.add_argument(f"--{name}", type=float, default=None)
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--config", type=str, default=None)


def _require_out(cfg: dict) -> str:
    out = cfg.get("out")
    if not out:
        raise _UsageError("an output path is required (--out)")
    return str(out)


def _r_grid(cfg: dict, p: FlightParams) -> np.ndarray:
    rmin = float(cfg.get("r-min", 0.0))
    rmax = float(cfg.get("r-max", p.c * p.t))
    if not (math.isfinite(rmin) and math.isfinite(rmax)):
        raise _UsageError(f"--r-min {rmin} and --r-max {rmax} must be finite")
    npts = _integer(cfg.get("r-points", 200), "r-points")
    if npts < 2:
        raise _UsageError("--r-points must be >= 2")
    return np.linspace(rmin, rmax, npts)


def _cmd_simulate(args) -> int:
    cfg = _resolved(args)
    cfg.pop("m", None)  # positions are in all d coordinates
    count = _integer(cfg.get("count", 0) or 0, "count")
    if count < 1:
        raise _UsageError("--count must be >= 1")
    n_traj = _integer(cfg.get("trajectories", 0) or 0, "trajectories")
    if not 0 <= n_traj <= count:
        raise _UsageError(f"--trajectories must be in 0..{count}, the --count")
    p = _flight_params(cfg)
    seed = _seed(cfg, 0)
    out = _require_out(cfg)
    traj_out = str(cfg.get("trajectories-out") or (out + ".trajectories.csv"))
    if n_traj > 0 and os.path.realpath(traj_out) == os.path.realpath(out):
        raise _UsageError(f"--trajectories-out {traj_out!r} names the --out file")
    cfg_echo = _echo("simulate", p, seed=seed, count=count)
    finals = simulate_batch(p, count, seed)
    tr = simulate_trajectories(p, n_traj, seed) if n_traj > 0 else None
    cols = ["replicate"] + [f"x{i}" for i in range(1, p.d + 1)]
    _write_outputs(out, cols, cfg_echo, np.arange(count), finals)
    if tr is not None:
        segs = p.n + 2
        _write_outputs(  # one row per breakpoint, replicate by replicate
            traj_out, ["replicate", "segment", "t_k"] + cols[1:], cfg_echo,
            np.repeat(np.arange(n_traj), segs), np.tile(np.arange(segs), n_traj),
            tr.times.ravel(), tr.breakpoints.reshape(-1, p.d),
        )
    return 0


# (command, --formula) -> (the law's name on ``analytic``, its inputs):
# "r" radii on the --r-* grid, "x" the --x points, "alpha" the --alpha
# vectors or "anorm" the --anorm norms, in R^m for a projected law (one
# named *_projection, which needs --m) and in R^d otherwise.  A name,
# looked up at each call, lets a wrapper placed on ``analytic``
# (bench/tracing.py) see the call.
_LAWS = {
    ("density", "projected"): ("density_projection", "x"),
    ("density", "nu1"): ("density_nu1", "x"),
    ("density", "nu1-closed"): ("density_nu1_closed", "x"),
    ("density", "radial-projected"): ("radial_density_projection", "r"),
    ("density", "radial-nu1"): ("radial_density_nu1", "r"),
    ("cf", "projected"): ("cf_projection", "anorm"),
    ("cf", "nu1"): ("cf_nu1", "alpha"),
    ("cdf", None): ("cdf_radial_projection", "r"),
}


def _formulas(command: str) -> tuple:
    return tuple(formula for cmd, formula in _LAWS if cmd == command)


def _anorm_vectors(cfg: dict, dim: int) -> np.ndarray:
    """The --anorm norms as the frequency vectors (norm, 0, ..., 0)."""
    anorms = cfg.get("anorm")
    if not anorms:
        raise _UsageError("--anorm values are required for the projected cf")
    if isinstance(anorms, (int, float, str)):
        anorms = [anorms]
    alphas = np.zeros((len(anorms), dim))
    alphas[:, 0] = [float(a) for a in anorms]
    return alphas


def _cmd_law(args) -> int:
    cfg = _resolved(args)
    command = args.command
    # cdf has one law and no --formula: a formula key in its config is
    # another command's
    formula = None if (command, None) in _LAWS else cfg.get("formula")
    if formula not in _formulas(command):
        raise _UsageError(f"--formula must be one of {_formulas(command)}")
    law, inputs = _LAWS[command, formula]
    projected = law.endswith("projection")
    p = _flight_params(cfg, need_m=projected)
    out = _require_out(cfg)
    dim = p.m if projected else p.d
    if inputs == "r":
        names, at = ["r"], _r_grid(cfg, p)
    elif inputs == "anorm":
        names, at = ["anorm"], _anorm_vectors(cfg, dim)
    else:  # x1..x<dim> or a1..a<dim>
        names, at = [f"{inputs[0]}{i}" for i in range(1, dim + 1)], _vector_args(cfg, inputs, dim)
    values = getattr(analytic, law)(p, at)
    shown = at[:, 0] if inputs == "anorm" else at
    cfg_echo = _echo(command, p, **({"formula": formula} if formula else {}))
    _write_outputs(out, names + [command], cfg_echo, shown, values)
    return 0


def _cmd_moments(args) -> int:
    cfg = _resolved(args)
    p = _flight_params(cfg, need_m=True)
    out = _require_out(cfg)
    orders_raw = cfg.get("orders", "1,2,4")
    if isinstance(orders_raw, str):
        orders_raw = orders_raw.split(",")
    elif isinstance(orders_raw, (int, float)):
        orders_raw = [orders_raw]  # one order
    orders = [_integer(k, "orders") for k in orders_raw]
    cfg_echo = _echo("moments", p, orders=orders)
    moments = [analytic.radial_moment(p, k) for k in orders]
    _write_outputs(out, ["order", "moment"], cfg_echo, orders, moments)
    return 0


def _cmd_mixture(args) -> int:
    cfg = _resolved(args)
    p = _flight_params(cfg, need_m=True)
    lam = cfg.get("lam")
    if lam is None:
        raise _UsageError("--lam is required")
    mp = MixtureParams(lam=float(lam), base=p, n_max=_integer(cfg.get("n-max", 50), "n-max"))
    out = _require_out(cfg)
    points = _vector_args(cfg, "x", p.m)
    cfg_echo = _echo("mixture", p, lam=mp.lam, n_max=mp.n_max)
    del cfg_echo["n"]  # the mixture randomizes n
    density = analytic.unconditional_density_projection(mp, points)
    bound = analytic.mixture_tail_bound(mp)
    cols = [f"x{i}" for i in range(1, p.m + 1)] + ["density"]
    _write_outputs(out, cols, cfg_echo, points, density, extra={"truncation_tail_bound": bound})
    return 0


def _cmd_validate(args) -> int:
    # validation's own import costs about 5 ms (16 ms when it compiles;
    # python -X importtime) and 2 MB; no other command needs it
    from .validation import SuiteConfig, run_suite

    cfg = _resolved(args)
    only = cfg.get("only")
    if only not in (None, "identities", "gof"):
        raise _UsageError("--only must be 'identities' or 'gof'")
    config = SuiteConfig(
        master_seed=_seed(cfg, 20260808),
        profile=str(cfg.get("profile", "quick")),
        include_identities=only in (None, "identities"),
        include_gof=only in (None, "gof"),
    )
    report = run_suite(config)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = cfg.get("out")
    if out:
        with open_output(str(out), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else VALIDATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftflight", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="simulate flights, write final positions")
    _add_law(ps, "d", "n")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--count", type=int, default=None)
    ps.add_argument("--trajectories", type=int, default=None,
                    help="also export breakpoints for replicates 0..K-1, 0 <= K <= --count")
    ps.add_argument("--trajectories-out", type=str, default=None)
    ps.set_defaults(func=_cmd_simulate)

    pd = sub.add_parser("density", help="evaluate a density formula on points or a radial grid")
    _add_law(pd, "d", "m", "n")
    pd.add_argument("--formula", type=str, default=None, choices=_formulas("density"))
    pd.add_argument("--x", action="append", default=None,
                    help="comma-separated point, repeatable")
    pd.add_argument("--r-min", type=float, default=None)
    pd.add_argument("--r-max", type=float, default=None)
    pd.add_argument("--r-points", type=int, default=None)
    pd.set_defaults(func=_cmd_law)

    pc = sub.add_parser("cf", help="evaluate a characteristic function")
    _add_law(pc, "d", "m", "n")
    pc.add_argument("--formula", type=str, default=None, choices=_formulas("cf"))
    pc.add_argument("--alpha", action="append", default=None,
                    help="comma-separated frequency vector, repeatable")
    pc.add_argument("--anorm", action="append", default=None,
                    help="frequency norm for the projected cf, repeatable")
    pc.set_defaults(func=_cmd_law)

    pf = sub.add_parser("cdf", help="radial CDF of the projection on a grid")
    _add_law(pf, "d", "m", "n")
    pf.add_argument("--r-min", type=float, default=None)
    pf.add_argument("--r-max", type=float, default=None)
    pf.add_argument("--r-points", type=int, default=None)
    pf.set_defaults(func=_cmd_law)

    pm = sub.add_parser("moments", help="radial moments of the projection")
    _add_law(pm, "d", "m", "n")
    pm.add_argument("--orders", type=str, default=None)
    pm.set_defaults(func=_cmd_moments)

    px = sub.add_parser("mixture", help="projected density with a random change count")
    _add_law(px, "d", "m", "n")
    px.add_argument("--lam", type=float, default=None)
    px.add_argument("--n-max", type=int, default=None)
    px.add_argument("--x", action="append", default=None)
    px.set_defaults(func=_cmd_mixture)

    pv = sub.add_parser("validate", help="run the verification suite")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--out", type=str, default=None)
    pv.add_argument("--profile", type=str, default=None, choices=("quick", "full"))
    pv.add_argument("--only", type=str, default=None, choices=("identities", "gof"))
    pv.add_argument("--config", type=str, default=None)
    pv.set_defaults(func=_cmd_validate)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Built once per process: construction costs milliseconds, more than a
    # law evaluation.  Reuse is safe because parse_args only reads the
    # parser: every "append" default is None (a fresh list per call), the
    # defaults set_defaults stores are read, and error() raises.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, KeyError, TypeError) as exc:
        # TypeError: a config-file value of the wrong JSON type
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
