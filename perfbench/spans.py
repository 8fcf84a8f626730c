"""Span tracing from outside the program, and the per-layer metrics.

The traced run replaces, for the duration of one CLI call, the module
attributes that ordist's callers look up (``ordist.cli.run_suite``,
``ordist.jdc.solve_equality_feasibility``, ...) with wrappers that record a
span per call.  Nothing inside ``src/ordist`` changes.  Spans and counters
stay in memory until the run ends; per-layer numbers are derived from them.

A wrapped attribute that no longer exists is skipped, and every metric
that depends on it is reported as absent.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


class Tracer:
    """Spans ``[name, start, end, parent index, operation id]`` plus counters.

    Single-threaded: the open-span stack gives each span its parent.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.op = 0

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps merged)."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[idx]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class TracedMetric:
    """Delegates to a metric and records a span per ``evaluate``."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def evaluate(self, m):
        return self.tracer.call("metrics.evaluate", self.inner.evaluate, m)

    __call__ = evaluate

    def describe(self) -> str:
        return self.inner.describe()


def _den_bits(values) -> int:
    return max((getattr(v, "denominator", 1).bit_length() for v in values or ()), default=0)


def _span(name):
    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
        return wrapper
    return make


def _with_result(name, record):
    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            record(tracer.counts, args, kwargs, result)
            return result
        return wrapper
    return make


def _record_load(counts, args, kwargs, result):
    source = args[0] if args else kwargs.get("source")
    counts["bytes_read"] += os.path.getsize(source)


def _record_msel(counts, args, kwargs, result):
    counts["marginal_classes"] += len(result.classes)


def _record_jdc(counts, args, kwargs, result):
    counts["hidden_vars"] += result.n_vars
    counts["constraints"] += len(result.constraints)


def _record_solve(counts, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    m = len(rows)
    n = len(rows[0]) if m else 0
    counts["pivots"] += result.iterations
    counts["tableau_cells"] += m * (n + m)
    counts["witness_solves" if result.feasible else "certificate_solves"] += 1
    bits = _den_bits(result.x if result.feasible else result.certificate)
    counts["result_den_bits"] = max(counts["result_den_bits"], bits)


def _run_suite(tracer, fn):
    def wrapper(*args, **kwargs):
        metrics = args[2] if len(args) > 2 else kwargs["metrics"]
        before = tracer.counts["sequence_points"]
        result = tracer.call("selectivity.run_suite", fn, *args, **kwargs)
        counts = tracer.counts
        # every sequence of length l looks up l distances per metric
        counts["lookups"] += (counts["sequence_points"] - before) * len(metrics)
        counts["sequences_tested"] += result.sequences_tested
        counts["violations"] += len(result.violations)
        return result
    return wrapper


def _enumerate(tracer, fn):
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        counts = tracer.counts
        clock = tracer.clock
        # time spent inside the generator's next(); one span per sequence
        # would dominate the traced run, so this is a counter
        while True:
            t0 = clock()
            try:
                w = next(inner)
            except StopIteration:
                counts["enumerate_s"] += clock() - t0
                return
            counts["enumerate_s"] += clock() - t0
            counts["sequence_points"] += len(w)
            yield w
    return wrapper


def _count_calls(key):
    # called once per realizable sequence examined; counted, not spanned
    def make(tracer, fn):
        counts = tracer.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    return make


def _metric_factory(tracer, fn):
    def wrapper(*args, **kwargs):
        return TracedMetric(fn(*args, **kwargs), tracer)
    return wrapper


#: (ordist submodule, attribute, wrapper maker)
TARGETS = (
    ("cli", "load_system", _with_result("fileio.load_system", _record_load)),
    ("cli", "validate_system", _span("probspace.validate_system")),
    ("cli", "check_marginal_selectivity",
     _with_result("selectivity.marginal_selectivity", _record_msel)),
    ("cli", "run_suite", _run_suite),
    ("cli", "build_jdc", _with_result("jdc.build_jdc", _record_jdc)),
    ("cli", "jdc_feasible", _span("jdc.jdc_feasible")),
    ("cli", "fine_chain_equivalence", _span("jdc.fine_block")),
    ("cli", "dumps_report", _span("fileio.dumps_report")),
    ("cli", "default_order_metric", _metric_factory),
    ("cli", "load_metric", _metric_factory),
    ("jdc", "solve_equality_feasibility", _with_result("lp.solve", _record_solve)),
    ("jdc", "verify_solution", _span("lp.verify_solution")),
    ("jdc", "verify_certificate", _span("lp.verify_certificate")),
    ("selectivity", "enumerate_irreducible", _enumerate),
    ("selectivity", "is_irreducible", _count_calls("realizable_examined")),
)

_CLI_CHILDREN = tuple(f"cli.{attr}" for mod, attr, _ in TARGETS if mod == "cli")
_LP = ("jdc.solve_equality_feasibility", "jdc.verify_solution", "jdc.verify_certificate")
_METRIC_FACTORIES = ("cli.default_order_metric", "cli.load_metric")

#: per-layer metric -> (unit, attributes it needs)
PER_LAYER = {
    "lp.solve_s": ("s/call", ("jdc.solve_equality_feasibility",)),
    "lp.pivots": ("count/call", ("jdc.solve_equality_feasibility",)),
    "lp.tableau_cells": ("count/call", ("jdc.solve_equality_feasibility",)),
    "lp.verify_solution_s": ("s/call", ("jdc.verify_solution",)),
    "lp.verify_certificate_s": ("s/call", ("jdc.verify_certificate",)),
    "lp.witness_solves": ("count/call", ("jdc.solve_equality_feasibility",)),
    "lp.certificate_solves": ("count/call", ("jdc.solve_equality_feasibility",)),
    "lp.result_den_bits": ("bits", ("jdc.solve_equality_feasibility",)),
    "jdc.build_jdc_s": ("s/call", ("cli.build_jdc",)),
    "jdc.hidden_vars": ("count/call", ("cli.build_jdc",)),
    "jdc.constraints": ("count/call", ("cli.build_jdc",)),
    "jdc.feasible_self_s": ("s/call", ("cli.jdc_feasible", *_LP)),
    "jdc.fine_block_s": ("s/call", ("cli.fine_chain_equivalence",)),
    "selectivity.marginal_selectivity_s": ("s/call", ("cli.check_marginal_selectivity",)),
    "selectivity.marginal_classes": ("count/call", ("cli.check_marginal_selectivity",)),
    "selectivity.run_suite_s": ("s/call", ("cli.run_suite",)),
    "selectivity.enumerate_s": ("s/call", ("selectivity.enumerate_irreducible",)),
    "selectivity.sequences_tested": ("count/call", ("cli.run_suite",)),
    "selectivity.realizable_examined": ("count/call", ("selectivity.is_irreducible",)),
    "selectivity.irreducible_yield": ("ratio", ("cli.run_suite", "selectivity.is_irreducible")),
    "selectivity.violations": ("count/call", ("cli.run_suite",)),
    "metrics.evaluate_calls": ("count/call", _METRIC_FACTORIES),
    "metrics.evaluate_s": ("s/call", _METRIC_FACTORIES),
    "metrics.cache_hit_ratio": (
        "ratio", (*_METRIC_FACTORIES, "cli.run_suite", "selectivity.enumerate_irreducible")),
    "fileio.load_system_s": ("s/call", ("cli.load_system",)),
    "fileio.dumps_report_s": ("s/call", ("cli.dumps_report",)),
    "fileio.bytes_read": ("B/call", ("cli.load_system",)),
    "probspace.validate_system_s": ("s/call", ("cli.validate_system",)),
    "cli.self_s": ("s/call", _CLI_CHILDREN),
    "trace.overhead_s": ("s/call", ()),
}


class Patch:
    """Installs the wrappers of TARGETS on an ordist package and removes
    them again.  ``missing`` names the targets the package lacks."""

    def __init__(self, ordist, tracer: Tracer):
        self.missing: set[str] = set()
        self._plan = []
        for modname, attr, make in TARGETS:
            module = getattr(ordist, modname, None)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{modname}.{attr}")
                continue
            self._plan.append((module, attr, original, make(tracer, original)))

    def __enter__(self):
        for module, attr, _, wrapper in self._plan:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._plan:
            setattr(module, attr, original)

    def absent(self) -> set[str]:
        return {
            name for name, (_, needs) in PER_LAYER.items()
            if any(n in self.missing for n in needs)
        }


def per_layer(tracer: Tracer, calls: int, overhead_s: float, absent=()) -> dict:
    """Per-layer metrics of `calls` traced CLI calls.  The CLI call itself
    must have been recorded as a ``cli.main`` span around each call."""
    total = defaultdict(float)
    for (name, start, end, _, _), own in zip(tracer.spans, self_times(tracer.spans)):
        total[name] += end - start
        total[name + ":self"] += own
    evaluate_calls = sum(1 for s in tracer.spans if s[0] == "metrics.evaluate")
    c = tracer.counts
    per = 1.0 / calls
    values = {
        "lp.solve_s": total["lp.solve"] * per,
        "lp.pivots": c["pivots"] * per,
        "lp.tableau_cells": c["tableau_cells"] * per,
        "lp.verify_solution_s": total["lp.verify_solution"] * per,
        "lp.verify_certificate_s": total["lp.verify_certificate"] * per,
        "lp.witness_solves": c["witness_solves"] * per,
        "lp.certificate_solves": c["certificate_solves"] * per,
        "lp.result_den_bits": c["result_den_bits"],
        "jdc.build_jdc_s": total["jdc.build_jdc"] * per,
        "jdc.hidden_vars": c["hidden_vars"] * per,
        "jdc.constraints": c["constraints"] * per,
        # every child span of jdc_feasible is an lp span
        "jdc.feasible_self_s": total["jdc.jdc_feasible:self"] * per,
        "jdc.fine_block_s": total["jdc.fine_block"] * per,
        "selectivity.marginal_selectivity_s": total["selectivity.marginal_selectivity"] * per,
        "selectivity.marginal_classes": c["marginal_classes"] * per,
        "selectivity.run_suite_s": total["selectivity.run_suite"] * per,
        "selectivity.enumerate_s": c["enumerate_s"] * per,
        "selectivity.sequences_tested": c["sequences_tested"] * per,
        "selectivity.realizable_examined": c["realizable_examined"] * per,
        "selectivity.irreducible_yield": (
            c["sequences_tested"] / c["realizable_examined"] if c["realizable_examined"] else 0.0
        ),
        "selectivity.violations": c["violations"] * per,
        "metrics.evaluate_calls": evaluate_calls * per,
        "metrics.evaluate_s": total["metrics.evaluate"] * per,
        "metrics.cache_hit_ratio": 1 - evaluate_calls / c["lookups"] if c["lookups"] else 0.0,
        "fileio.load_system_s": total["fileio.load_system"] * per,
        "fileio.dumps_report_s": total["fileio.dumps_report"] * per,
        "fileio.bytes_read": c["bytes_read"] * per,
        "probspace.validate_system_s": total["probspace.validate_system"] * per,
        "cli.self_s": total["cli.main:self"] * per,
        "trace.overhead_s": overhead_s,
    }
    return {
        name: {"value": None if name in absent else values[name], "unit": unit}
        for name, (unit, _) in PER_LAYER.items()
    }
