"""Benchmark of driftflight: one workload, one seed, one result line.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc_batch --seed 1 --seconds 20 --trace 0

It imports ``driftflight`` from ``src/`` of that checkout (never an
installed copy), repeats the workload's fixed list of calls for
``--seconds`` seconds, checks the outputs against independent oracles and
prints a human-readable report followed by one JSON line with the
metrics named in BENCHMARK.json: the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``.  Run records (environment, output
hashes, every verdict) and the traced run's spans go to ``.bench_out/``.
See bench/README.md for the workloads and what each metric means.
"""

import os

# one thread per BLAS/OpenMP pool: set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_ROUNDS = 3
WORKLOAD_NAMES = ("mc_batch", "cli_export", "law_eval")
# Every call's time is scaled by REF_NOMINAL_S over the duration of the
# reference computation below, run just before and just after the call.
# That removes most of the vCPU speed drift of a shared host, which moves
# raw times by 20-50% between runs (see README.md).  REF_NOMINAL_S is the
# reference's median duration between calls on the 2-vCPU Xeon VM the
# baseline was taken on, so scaled seconds read as seconds on that machine.
REF_NOMINAL_S = 0.0065
# Set-up is timed in a fresh interpreter, before numpy is loaded, so there
# the reference is plain interpreted Python, run in that interpreter just
# before and just after its set-up; SETUP_REF_NOMINAL_S is its median
# duration on the same VM.
SETUP_REF_NOMINAL_S = 0.021


def make_reference():
    """A fixed mix of interpreted Python, a scipy special function and float
    formatting that never touches driftflight; returns a timer for it."""
    import numpy as np
    from scipy.special import betaincinv

    u = np.linspace(0.01, 0.99, 1000)

    def seconds() -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        betaincinv(2.5, 2.5, u)
        ",".join(["%.17g" % v for v in u])
        return perf_counter() - t0

    return seconds


def python_reference() -> float:
    """Seconds taken by a fixed loop and float formatting, no imports."""
    t0 = perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    ",".join(["%.17g" % (i * 0.1) for i in range(3000)])
    return perf_counter() - t0


def load(workload: str, seed: int, outdir: str):
    """Import driftflight from the checkout and build the workload's
    inputs: the set-up a fresh process pays before its first call."""
    pkg = SRC / "driftflight"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no driftflight sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import driftflight

    if Path(driftflight.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: driftflight was imported from {driftflight.__file__}, not {pkg}")
    import workloads

    return workloads.WORKLOADS[workload](seed, outdir)


def _scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Scaled and raw set-up seconds of SETUP_PROBES fresh interpreters, run
    one at a time; each scales its own time by the Python reference it runs
    around its set-up."""
    argv = [sys.executable, __file__, "--probe-setup", "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        seconds, ref_before, ref_after = map(float, proc.stdout.split()[-3:])
        raw.append(seconds)
        scaled.append(seconds * SETUP_REF_NOMINAL_S / (0.5 * (ref_before + ref_after)))
    return scaled, raw


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest(op, result) -> str:
    """sha256 of a call's output: its files, or the array it returned."""
    if op.files:
        return hashlib.sha256("".join(map(_file_sha256, op.files)).encode()).hexdigest()
    return hashlib.sha256(str(result.shape).encode() + result.tobytes()).hexdigest()


class Rounds:
    """Per-op times, output digests and failed calls of repeated rounds.

    ``times`` and ``totals`` are scaled to the reference speed; ``raw_totals``
    are the round times as measured."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference
        self.times = {op.name: [] for op in ops}
        self.digests = {op.name: [] for op in ops}
        self.totals: list[float] = []
        self.raw_totals: list[float] = []
        self.calls = 0
        self.failures: list[str] = []
        self.first: dict[str, object] = {}

    def run(self, seconds: float, min_rounds: int, tracer=None) -> None:
        end = perf_counter() + seconds
        done = 0
        while done < min_rounds or perf_counter() < end:
            total = raw = 0.0
            ref_before = self.reference()
            for op in self.ops:
                with tracer.span("op." + op.name) if tracer else nullcontext():
                    t0 = perf_counter()
                    try:
                        result = op.call()
                    except Exception as exc:  # a failed call is reported, never fatal
                        traceback.print_exc()
                        result = exc
                        self.failures.append(f"call.{op.name}: {traceback.format_exception_only(exc)[-1].strip()}")
                    dt = perf_counter() - t0
                ref_after = self.reference()
                scaled = _scaled(dt, ref_before, ref_after)
                ref_before = ref_after
                total += scaled
                raw += dt
                self.calls += 1
                self.times[op.name].append(scaled)
                self.first.setdefault(op.name, result)
                if isinstance(result, Exception):
                    self.digests[op.name].append("raised")
                elif isinstance(result, int) and result != 0:
                    self.failures.append(f"call.{op.name}: exit code {result}")
                    self.digests[op.name].append(f"exit {result}")
                else:
                    self.digests[op.name].append(_digest(op, result))
                    if tracer and op.files:
                        tracer.counters["cli.bytes_written"] += sum(os.path.getsize(f) for f in op.files)
            self.totals.append(total)
            self.raw_totals.append(raw)
            done += 1


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _verdicts(wl, rounds_list, traced=None) -> list:
    from workloads import Verdict

    try:
        out = list(wl.verdicts(rounds_list[0].first))
    except Exception as exc:  # outputs missing or malformed: one failed verdict
        out = [Verdict(f"{wl.name}.verdicts", False, traceback.format_exception_only(exc)[-1].strip())]
    for op in wl.ops:
        seen = [d for r in rounds_list for d in r.digests[op.name]]
        out.append(Verdict(f"deterministic.{op.name}", len(set(seen)) == 1,
                           f"{len(seen)} rounds, {len(set(seen))} distinct output hashes"))
        if traced is not None:
            plain, tr = set(seen), set(traced.digests[op.name])
            out.append(Verdict(f"trace_transparent.{op.name}", plain == tr,
                               "traced outputs hash the same as untraced ones"))
    return out


def _layer_value(name: str, agg: dict, tracer, rounds: int, overhead: float) -> float:
    if name == "trace.overhead_ratio":
        return overhead
    if name in tracer.counters:
        return tracer.counters[name] / rounds
    span, stat = name.rsplit(".", 1)
    a = agg.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "values": 0})
    if stat == "us_per_call":
        return 1e6 * a["busy_s"] / a["calls"] if a["calls"] else 0.0
    return a[stat] / rounds


def _print_rows(rows) -> None:
    print(f"  {'metric':<34}{'value':>14}  {'unit':<6}{'n':>6}  quartiles")
    for name, value, unit, n, quart in rows:
        q = f"{quart[0]:.4g} .. {quart[1]:.4g}" if quart else ""
        print(f"  {name:<34}{value:>14.6g}  {unit:<6}{n:>6}  {q}")


def _traced_metrics(spec, tracer, traced, untraced_median: float, path: Path) -> dict:
    """Per-layer metrics of the traced rounds; writes the spans to ``path``."""
    agg = tracer.aggregate()
    overhead = statistics.median(traced.totals) / untraced_median
    rounds = len(traced.totals)
    layer = {m["name"]: {"value": _layer_value(m["name"], agg, tracer, rounds, overhead), "unit": m["unit"]}
             for m in spec["per_layer"]}
    print(f"  tracing overhead: traced round {statistics.median(traced.totals):.4g} s "
          f"vs untraced {untraced_median:.4g} s (x{overhead:.3f}), {rounds} traced rounds")
    for name, m in layer.items():
        print(f"  {name:<52}{m['value']:>14.6g}  {m['unit']}")
    names = sorted(agg)
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"names": names, "fields": ["name", "parent", "start", "end", "values"],
                   "spans": [[index[s[0]]] + s[1:] for s in tracer.spans]}, fh)
    return {"rounds": rounds, "overhead_ratio": overhead, "per_layer": layer,
            "spans_by_name": agg, "counters": tracer.counters}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        ref_before = python_reference()
        t0 = perf_counter()
        load(args.workload, args.seed, str(OUT))
        seconds = perf_counter() - t0
        print(seconds, ref_before, python_reference())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = traced = None
    try:
        wl = load(args.workload, args.seed, str(workdir))
        reference = make_reference()
        setup, raw_setup = ([], []) if args.trace else measure_setup(args.workload, args.seed)
        warm = Rounds(wl.ops, reference)
        warm.run(0.0, 1)
        timed = Rounds(wl.ops, reference)
        # a traced run times half its rounds untraced, to report the overhead
        timed.run(args.seconds / 2 if args.trace else args.seconds, MIN_ROUNDS)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = Rounds(wl.ops, reference)
                traced.run(args.seconds / 2, MIN_ROUNDS, tracer)
            finally:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts = _verdicts(wl, [warm, timed], traced)
        known_defects = wl.known_defects() if hasattr(wl, "known_defects") else []
        file_sha256 = {os.path.basename(f): _file_sha256(f) for op in wl.ops for f in op.files
                       if os.path.isfile(f)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [r for r in (warm, timed, traced) if r is not None]
    calls = sum(r.calls for r in runs)
    failures = [f for r in runs for f in r.failures] + [f"{v.name}: {v.detail}" for v in verdicts if not v.ok]
    attempted = calls + len(verdicts)
    failed = len(failures)

    wall = timed.totals
    rows = [("setup_s", statistics.median(setup), "s", len(setup), _quartiles(setup))] if setup else []
    rows += [
        ("wall_s", statistics.median(wall), "s", len(wall), _quartiles(wall)),
        ("raw_wall_s", statistics.median(timed.raw_totals), "s", len(wall), _quartiles(timed.raw_totals)),
        ("peak_rss_mb", peak_rss_mb, "MB", 1, None),
        ("error_rate", failed / attempted, "ratio", attempted, None),
    ]
    rows += [(name, value, unit, n, None) for name, value, unit, n in wl.metrics(timed.times)]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": fingerprint(),
        "rounds": len(wall), "round_s": wall, "raw_round_s": timed.raw_totals,
        "setup_samples_s": setup, "raw_setup_samples_s": raw_setup,
        "metrics": {r[0]: {"value": r[1], "unit": r[2], "n": r[3], "quartiles": r[4]} for r in rows},
        "ops": {
            op.name: {
                "median_s": statistics.median(timed.times[op.name]),
                "quartiles_s": _quartiles(timed.times[op.name]),
                "items": op.items,
                "sha256": warm.digests[op.name][0],
            }
            for op in wl.ops
        },
        "file_sha256": file_sha256,
        "attempted": attempted, "failed": failed, "failures": failures,
        "verdicts": [vars(v) for v in verdicts],
        "known_defects": [vars(v) for v in known_defects],
    }

    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(wall)} (+1 warm-up)")
    _print_rows(rows)
    print(f"  checks: {calls} calls and {len(verdicts)} verdicts, {failed} failed")
    for v in verdicts:
        if v.control:
            print(f"  negative control {v.name}: {'caught' if v.ok else 'NOT CAUGHT'} ({v.detail})")
    for v in known_defects:
        print(f"  known defect, not timed or counted, {v.name}: "
              f"{'not seen on these points' if v.ok else 'shows'} ({v.detail})")

    if traced is not None:
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.json"
        record["traced"] = _traced_metrics(spec, tracer, traced, statistics.median(wall), spans_path)
        metrics = record["traced"]["per_layer"]
    else:
        by_name = {r[0]: r[1] for r in rows}
        metrics = {m["name"]: {"value": by_name[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    for line in failures:
        print(f"  FAILED {line}")
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
