"""Pass-through timers for the traced benchmark run.

The tracer replaces module attributes of ``driftflight`` with wrappers
that record one span per call: name, parent span, start, end and, for the
inverse transforms, the number of values computed.  Each wrapper sits on
the module where the caller looks the name up (``flight.gammaincinv`` for
the batch sampler, ``temporal.gammaincinv`` for the per-replicate path,
and so on), so nothing inside the package changes.  Untraced runs never
call :meth:`Tracer.install`.

Spans stay in memory; :meth:`Tracer.aggregate` derives call counts,
inclusive (busy) and exclusive (self) time from them after the run.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _cdf_branch(args, kwargs) -> str:
    # the two evaluation branches of cdf_radial_projection: a finite sum
    # when q = K - (m+1)/2 is a non-negative integer, quadrature otherwise
    p = args[0] if args else kwargs["p"]
    q = 0.5 * (p.n + 1) * (2.0 * p.nu + p.d - 1.0) - 0.5 * (p.m + 1)
    integral = abs(q - round(q)) <= 1e-9 and round(q) >= 0
    return "analytic.cdf_radial_projection." + ("int_q" if integral else "frac_q")


# (module, attribute, span name or namer, count output values)
WRAPS = (
    ("driftflight.flight", "gammaincinv", "temporal.gammaincinv", True),
    ("driftflight.temporal", "gammaincinv", "temporal.gammaincinv", True),
    ("driftflight.flight", "betaincinv", "angular.betaincinv", True),
    ("driftflight.angular", "betaincinv", "angular.betaincinv", True),
    ("driftflight.flight", "simulate_batch", "flight.simulate_batch", False),
    ("driftflight.cli", "simulate_batch", "flight.simulate_batch", False),
    ("driftflight.cli", "simulate_flight", "flight.simulate_flight", False),
    ("driftflight.flight", "sample_intertimes", "temporal.sample_intertimes", False),
    ("driftflight.flight", "sample_angles", "angular.sample_angles", False),
    ("driftflight.flight", "angles_to_direction", "angular.angles_to_direction", False),
    ("driftflight.cli", "main", "cli.main", False),
    ("driftflight.analytic", "cdf_radial_projection", _cdf_branch, False),
    ("driftflight.analytic", "density_nu1", "analytic.density_nu1", False),
    ("driftflight.analytic", "cf_nu1", "analytic.cf_nu1", False),
    ("driftflight.analytic", "radial_density_nu1", "analytic.radial_density_nu1", False),
    ("driftflight.analytic", "unconditional_density_projection",
     "analytic.unconditional_density_projection", False),
    ("driftflight.analytic", "fractional_poisson_pmf", "analytic.fractional_poisson_pmf", False),
    ("driftflight.analytic", "mixture_tail_bound", "analytic.mixture_tail_bound", False),
    ("driftflight.analytic", "quad", "analytic.quad", False),
    ("driftflight.analytic", "bessel_j_ratio", "specfun.bessel_j_ratio", False),
    ("driftflight.specfun", "mittag_leffler_paper", "specfun.mittag_leffler_paper", False),
    ("driftflight.validation", "bessel_j", "specfun.bessel_j", False),
    ("driftflight.validation", "quad", "validation.quad", False),
    ("driftflight.validation", "check_identity", "validation.check_identity", False),
)

UNIFORMS = "flight.uniforms_drawn"


class _CountingGenerator:
    """numpy Generator stand-in that counts the uniforms it hands out."""

    def __init__(self, gen, counters: dict):
        self._gen = gen
        self._counters = counters

    def random(self, size=None):
        out = self._gen.random(size)
        self._counters[UNIFORMS] += int(np.size(out))
        return out


class _RandomProxy:
    def __init__(self, counters: dict):
        self._counters = counters

    def Generator(self, bit_generator):
        return _CountingGenerator(np.random.Generator(bit_generator), self._counters)

    def __getattr__(self, name):
        return getattr(np.random, name)


class _NumpyProxy:
    """``numpy`` as ``driftflight.flight`` sees it in a traced run: every
    generator it builds counts its draws; all else is numpy itself."""

    def __init__(self, counters: dict):
        self.random = _RandomProxy(counters)

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    def __init__(self):
        # one entry per call: [name, parent index, start, end, values]
        self.spans: list[list] = []
        self.counters = {UNIFORMS: 0, "cli.bytes_written": 0}
        self._stack = [-1]
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self._stack[-1], 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, count_values: bool):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            rec = [label, stack[-1], 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if count_values:
                rec[4] = int(np.size(out))
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, count_values in WRAPS:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, count_values))
        flight = importlib.import_module("driftflight.flight")
        self._saved.append((flight, "np", flight.np))
        flight.np = _NumpyProxy(self.counters)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, busy_s (inclusive), self_s, values."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, _, start, end, values) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "values": 0})
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child[i]
            agg["values"] += values
        return out
