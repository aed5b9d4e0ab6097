"""Batch command-line front end.

Commands: simulate | density | cf | cdf | moments | mixture | validate.
One table, ``_COMMANDS``, holds the commands and their flags (``--help``
prints it); a flag may be cut to a prefix that no other flag of its
command shares, and any other argument is a usage error.
density, cf and cdf evaluate the law that one table, ``_LAWS``, names
for the command and its --formula, at the radii, points or frequencies
the table says, and read only the flags of its row: another flag of the
command given in argv is a usage error, a config key of one is dropped.
Flags override values from an optional JSON config file, whose keys are
flag names (without the dashes) of any command but config.  A config
value takes its flag's kind, as the flag's text does (an integral float
is an integer, a boolean is no number, a path is a non-empty string), and
a key of a flag this command lacks is ignored.
The fully resolved configuration (including the seed) is echoed as a
header comment in every CSV and into a ``<out>.meta.json`` sidecar, so
reruns with the same inputs are byte-identical.  A command opens its
outputs only after it has computed all their values, so one that fails
leaves no file.  An existing output is overwritten in place and then
cut to the written length, never truncated first, so a rerun leaves the
same bytes as a fresh run.  Every CSV value is the text ``"%.17g" % v``
gives, 17 significant digits that read back bit for bit (``csvtext``).
``simulate --trajectories K`` (0 <= K <= --count) also writes the
breakpoints of replicates 0..K-1.  --x, --alpha, --anorm and --orders
read argv and config alike: comma-separated text, a number or a JSON list
of those, and an empty field or list, or a nan or inf among the points
and frequencies, is a usage error.

``main`` first raises glibc's heap trim and mmap thresholds, once per
process (``csvtext._keep_freed_memory``): the CSV blocks' temporaries
then stay in the heap from block to block instead of being returned to
the system and faulted in again.  The command sets them, not the
library, so that a program that imports ``driftflight`` keeps its own
allocator policy.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 I/O error.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from itertools import chain

import numpy as np

from . import analytic
from .analytic import MixtureParams
from .csvtext import _keep_freed_memory, row_blocks, write_output
from .flight import FlightParams, _check_seed, _simulate, simulate_batch
from .flight import simulate_flight  # noqa: F401  (unused; bench/tracing.py wraps it here)

USAGE_ERROR = 1
VALIDATION_FAILURE = 2
IO_ERROR = 3
# a CSV header's config, as json.dumps(config, sort_keys=True, separators=(",", ":")) writes it
_HEADER_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _UsageError(Exception):
    pass


def _write_outputs(path: str, names: list[str], config: dict, *columns, extra=None) -> None:
    """Write the columns (1-D, or 2-D for several) side by side as the
    rows of the CSV ``path``, then its ``.meta.json`` sidecar: the config
    and the ``extra`` entries."""
    head = f"# config: {_HEADER_JSON(config)}\n# columns: {','.join(names)}\n".encode()
    write_output(path, chain([head], row_blocks(*columns)))
    sidecar = json.dumps({"config": config, **(extra or {})}, sort_keys=True, indent=2) + "\n"
    write_output(path + ".meta.json", [sidecar.encode()])


def _numbers(key: str, kind, value) -> list:
    """A --<key> value, comma-separated text, a number or a list of those,
    as a non-empty list of numbers of ``kind``; an empty result, a field
    that is empty or no number, or a float that is not finite (a point or
    frequency of --x, --alpha or --anorm) is a usage error."""
    numbers = []
    for item in value if isinstance(value, list) else [value]:
        fields = item.split(",") if isinstance(item, str) else [item]
        if kind is float and isinstance(item, str):
            try:  # float reads each field as _typed does
                numbers += [*map(float, fields)]
                continue
            except ValueError:
                pass  # _typed names the field that failed
        numbers += [_typed(key, kind, field) for field in fields]
    if not numbers:
        raise _UsageError(f"--{key} takes at least one number")
    if kind is float and not all(map(math.isfinite, numbers)):
        raise _UsageError(f"--{key} {numbers} must be finite")
    return numbers


def _vector_args(cfg: dict, key: str, dim: int) -> np.ndarray:
    """The repeatable --<key> vectors, each text or a list, as a (count, dim) array."""
    raw = cfg.get(key, [])
    if not isinstance(raw, list) or all(isinstance(v, (int, float)) for v in raw):
        raw = [raw]  # one vector: comma-separated text or a flat list of numbers
    if not all(isinstance(v, (str, list)) for v in raw):
        raise _UsageError(f"--{key} takes comma-separated text or lists of numbers, got {raw!r}")
    vecs = [_numbers(key, float, v) for v in raw]
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
    unknown = ", ".join(repr(key) for key in sorted(set(data) - _CONFIG_KEYS))
    if unknown:
        raise _UsageError(f"config keys that are no command's flag: {unknown}")
    if "config" in data:
        raise _UsageError("a config file cannot name another config file (key 'config')")
    return data


_DEFAULTS = {"d": 2, "n": 1, "nu": 0.0, "c": 1.0, "t": 1.0}


def _typed(name: str, kind, value):
    """``value``, a flag's text or a config value, as the setting
    ``--name`` of ``kind``: an int (an integral float too), a float or
    one of a tuple's choices, never a boolean; a str setting (a path) a
    non-empty string; a list or object setting's value as it is."""
    if kind in (list, object):
        return value
    if kind is str:
        if isinstance(value, str) and value:
            return value
        raise _UsageError(f"--{name} must be a non-empty string, got {value!r}")
    try:
        fraction = kind is int and isinstance(value, float) and not value.is_integer()
        if fraction or isinstance(value, bool):
            raise ValueError
        return kind[kind.index(value)] if isinstance(kind, tuple) else kind(value)
    except (ValueError, TypeError, OverflowError):
        want = {int: "an integer", float: "a number"}.get(kind, f"one of {kind}")
        raise _UsageError(f"--{name} must be {want}, got {value!r}") from None


def _seed(cfg: dict, default: int) -> int:
    seed = cfg.get("seed", default)
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
        d=merged["d"], n=merged["n"], nu=merged["nu"], c=merged["c"], t=merged["t"], m=m)


def _echo(command: str, p: FlightParams, **extra) -> dict:
    """The resolved configuration written into every output header."""
    return {
        "command": command, "d": p.d, "m": p.m, "n": p.n, "nu": p.nu,
        "c": p.c, "t": p.t, **extra,
    }


def _require_out(cfg: dict) -> str:
    out = cfg.get("out")
    if out is None:
        raise _UsageError("an output path is required (--out)")
    return out


def _r_grid(cfg: dict, p: FlightParams) -> np.ndarray:
    rmin = cfg.get("r-min", 0.0)
    rmax = cfg.get("r-max", p.c * p.t)
    if not (math.isfinite(rmin) and math.isfinite(rmax)):
        raise _UsageError(f"--r-min {rmin} and --r-max {rmax} must be finite")
    npts = cfg.get("r-points", 200)
    if npts < 2:
        raise _UsageError("--r-points must be >= 2")
    return np.linspace(rmin, rmax, npts)


def _cmd_simulate(command: str, cfg: dict) -> int:
    count = cfg.get("count", 0)
    if count < 1:
        raise _UsageError("--count must be >= 1")
    n_traj = cfg.get("trajectories", 0)
    if not 0 <= n_traj <= count:
        raise _UsageError(f"--trajectories must be in 0..{count}, the --count")
    if n_traj == 0 and "trajectories-out" in cfg:
        raise _UsageError("--trajectories-out needs --trajectories >= 1")
    p = _flight_params(cfg)
    seed = _seed(cfg, 0)
    out = _require_out(cfg)
    traj_out = cfg.get("trajectories-out", out + ".trajectories.csv")
    # the files written: each CSV and its sidecar, no two of them one file
    written = [out] + ([traj_out] if n_traj > 0 else [])
    written += [f + ".meta.json" for f in written]
    if len({os.path.realpath(f) for f in written}) < len(written):
        raise _UsageError(f"--out {out!r} and --trajectories-out {traj_out!r} name one file twice")
    cfg_echo = _echo(command, p, seed=seed, count=count)
    if n_traj == 0:  # through the name bench/tracing.py wraps on this module
        tr, finals = None, simulate_batch(p, count, seed)
    else:
        finals, tr = _simulate(p, count, seed, n_traj)
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


# the flags of the --r-* grid of radii
_GRID = {"r-min": float, "r-max": float, "r-points": int}
# (command, --formula) -> (the law's name on ``analytic``, the flags it
# reads besides --formula, --d, --n, --nu, --c, --t and the files): --m for
# a projected law, whose points and frequencies lie in R^m (in R^d
# otherwise), then its inputs, the radii on the --r-* grid, the --x points,
# the --alpha vectors or the --anorm norms.  A name, looked up at each
# call, lets a wrapper placed on ``analytic`` (bench/tracing.py) see the call.
_LAWS = {
    ("density", "projected"): ("density_projection", ("m", "x")),
    ("density", "nu1"): ("density_nu1", ("x",)),
    ("density", "nu1-closed"): ("density_nu1_closed", ("x",)),
    ("density", "radial-projected"): ("radial_density_projection", ("m", *_GRID)),
    ("density", "radial-nu1"): ("radial_density_nu1", (*_GRID,)),
    ("cf", "projected"): ("cf_projection", ("m", "anorm")),
    ("cf", "nu1"): ("cf_nu1", ("alpha",)),
    ("cdf", None): ("cdf_radial_projection", ("m", *_GRID)),
}
_EVERY_LAW_READS = ("formula", "d", "n", "nu", "c", "t", "out", "config")


def _formulas(command: str) -> tuple:
    return tuple(formula for cmd, formula in _LAWS if cmd == command)


def _anorm_vectors(cfg: dict, dim: int) -> np.ndarray:
    """The --anorm norms as the frequency vectors (norm, 0, ..., 0)."""
    norms = _numbers("anorm", float, cfg.get("anorm", []))
    alphas = np.zeros((len(norms), dim))
    alphas[:, 0] = norms
    return alphas


def _cmd_law(command: str, cfg: dict) -> int:
    formula = cfg.get("formula")
    if (command, formula) not in _LAWS:
        raise _UsageError(f"--formula is required: one of {_formulas(command)}")
    law, reads = _LAWS[command, formula]
    p = _flight_params(cfg, need_m="m" in reads)
    out = _require_out(cfg)
    dim, inputs = p.m, reads[-1]  # m is d where the law reads no --m (_reads)
    if inputs == "r-points":
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


def _cmd_moments(command: str, cfg: dict) -> int:
    p = _flight_params(cfg, need_m=True)
    out = _require_out(cfg)
    orders = _numbers("orders", int, cfg.get("orders", "1,2,4"))
    cfg_echo = _echo(command, p, orders=orders)
    moments = [analytic.radial_moment(p, k) for k in orders]
    _write_outputs(out, ["order", "moment"], cfg_echo, orders, moments)
    return 0


def _cmd_mixture(command: str, cfg: dict) -> int:
    p = _flight_params(cfg, need_m=True)
    lam = cfg.get("lam")
    if lam is None:
        raise _UsageError("--lam is required")
    mp = MixtureParams(lam=lam, base=p, n_max=cfg.get("n-max", 50))
    out = _require_out(cfg)
    points = _vector_args(cfg, "x", p.m)
    cfg_echo = _echo(command, p, lam=mp.lam, n_max=mp.n_max)
    del cfg_echo["n"]  # the mixture randomizes n
    density = analytic.unconditional_density_projection(mp, points)
    bound = analytic.mixture_tail_bound(mp)
    cols = [f"x{i}" for i in range(1, p.m + 1)] + ["density"]
    _write_outputs(out, cols, cfg_echo, points, density, extra={"truncation_tail_bound": bound})
    return 0


def _cmd_validate(command: str, cfg: dict) -> int:
    # validation's own import costs about 5 ms (16 ms when it compiles;
    # python -X importtime) and 2 MB; no other command needs it
    from .validation import SuiteConfig, run_suite

    config = SuiteConfig(
        master_seed=_seed(cfg, 20260808),
        profile=cfg.get("profile", "quick"),
        only=cfg.get("only"),
    )
    report = run_suite(config)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = cfg.get("out")
    if out is not None:
        write_output(out, [text.encode()])
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else VALIDATION_FAILURE


# command -> (help line, {flag: kind}, handler(command, settings)).  A
# flag's text and a config value go through its kind (``_typed``); a
# tuple is the flag's choices, a list flag may repeat, each use
# appending its text, and an object flag's handler types its value.
# Config keys are these flags.
_IO = {"out": str, "config": str}
_LAW = {"d": int, "m": int, "n": int, "nu": float, "c": float, "t": float}
_COMMANDS = {
    "simulate": ("simulate flights, write final positions", {
        "d": int, "n": int, "nu": float, "c": float, "t": float, "seed": int, "count": int,
        "trajectories": int, "trajectories-out": str, **_IO}, _cmd_simulate),
    "density": ("evaluate a density formula on points or a radial grid", {
        **_LAW, "formula": _formulas("density"), "x": list, **_GRID, **_IO}, _cmd_law),
    "cf": ("evaluate a characteristic function", {
        **_LAW, "formula": _formulas("cf"), "alpha": list, "anorm": list, **_IO}, _cmd_law),
    "cdf": ("radial CDF of the projection on a grid", {**_LAW, **_GRID, **_IO}, _cmd_law),
    "moments": ("radial moments of the projection", {
        **_LAW, "orders": object, **_IO}, _cmd_moments),
    "mixture": ("projected density with a random change count", {
        **_LAW, "lam": float, "n-max": int, "x": list, **_IO}, _cmd_mixture),
    "validate": ("run the verification suite", {
        "seed": int, "profile": ("quick", "full"), "only": ("identities", "gof"), **_IO},
        _cmd_validate),
}
_CONFIG_KEYS = frozenset(flag for _, flags, _ in _COMMANDS.values() for flag in flags)
# after one minus, a digit makes a value (--x -0.4,0.1): no flag has one
_NEGATIVE = re.compile(r"-\.?\d")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: driftflight {%s}" % ",".join(_COMMANDS)
    flags = " ".join(f"[--{flag} {flag.upper()}]" for flag in _COMMANDS[command][1])
    return f"usage: driftflight {command} {flags}"


def _help(command: str | None) -> str:
    rows = {command: _COMMANDS[command]} if command else _COMMANDS
    return _usage(command) + "\n" + "".join(
        f"\n{name}: {text}\n  --" + " --".join(flags) for name, (text, flags, _) in rows.items())


def _flag(flags: dict, token: str):
    """What argv ``token`` is to a command with ``flags``: (flag, its
    ``=value`` or None) for one of them, or a unique prefix of one or of
    "help"; (None, None) for any other flag; None for a value."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[1] != "-":  # -h; a negative number, or a value with a space
        if token[1] == "h":
            return "help", token[2:] or None
        return None if _NEGATIVE.match(token) or " " in token else (None, None)
    name, eq, text = token[2:].partition("=")
    names = [name] if name in flags or name == "help" else [
        flag for flag in (*flags, "help") if flag.startswith(name)]
    if len(names) > 1:
        raise _UsageError(f"ambiguous option: --{name} could match --{', --'.join(names)}")
    if not names:
        return None if " " in token else (None, None)
    return names[0], text if eq else None


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command of ``argv`` and its given flags' values by name."""
    command, flags, values, extras = None, {}, {}, []
    tokens = iter(argv)
    try:
        for token in tokens:
            if token == "--" and command:
                extras += [token, *tokens]  # no command takes a positional argument
            elif (found := _flag(flags, token)) is None and command is None:
                if token not in _COMMANDS:
                    raise _UsageError(f"unknown command {token!r}")
                command, (_, flags, _) = token, _COMMANDS[token]
            elif found is None or found[0] is None:
                extras.append(token)
            elif found[0] == "help":
                if found[1] is not None:
                    raise _UsageError(f"--help takes no value, got {found[1]!r}")
                for later in tokens:  # an ambiguous flag anywhere is still an error
                    if later == "--":
                        break
                    _flag(flags, later)
                sys.stdout.write(_help(command) + "\n")  # one write: `| head -1` breaks no pipe
                raise SystemExit(0)
            else:
                name, text = found
                if text is None:
                    text = next(tokens, "--")
                    if text == "--" or _flag(flags, text) is not None:
                        raise _UsageError(f"--{name} expects a value")
                if flags[name] is list:
                    values.setdefault(name, []).append(text)
                else:
                    values[name] = _typed(name, flags[name], text)
        if command is None:
            raise _UsageError("a command is required")
        if extras:
            raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    except _UsageError:
        print(_usage(command), file=sys.stderr)
        raise
    return command, values


def _reads(command: str, flags: dict, formula, given: dict) -> dict:
    """The ``flags`` of ``command`` that its law at ``formula`` reads
    (``_LAWS``), all of them where that names no law (_cmd_law says why);
    a flag in argv (``given``) that the law does not read is a usage error."""
    row = _LAWS.get((command, formula if formula in flags.get("formula", ()) else None))
    if row is None:
        return flags
    reads = {*_EVERY_LAW_READS, *row[1]}
    if unread := [f"--{flag}" for flag in given if flag not in reads]:
        raise _UsageError(f"--formula {formula} does not read {', '.join(unread)}")
    return {flag: kind for flag, kind in flags.items() if flag in reads}


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        command, given = _parse(sys.argv[1:] if argv is None else argv)
        _, flags, handler = _COMMANDS[command]
        config = _load_config_file(given.get("config"))
        flags = _reads(command, flags, {**config, **given}.get("formula"), given)
        # a config key of another command's flag, or of one its law does not read, is dropped
        cfg = {key: _typed(key, flags[key], value) for key, value in config.items() if key in flags}
        return handler(command, {**cfg, **given})
    except (_UsageError, ValueError, KeyError, TypeError) as exc:
        # TypeError: a config-file value of the wrong JSON type
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
