"""Span tracer for the benchmark's traced pass.

The tracer wraps public functions of the ``cursed_auctions`` modules from the
outside: every namespace that binds a traced function (the home module, the
modules that imported it by name, the package, and module-level dicts such as
``verify.CHECKERS``) gets the same wrapper. Each call records one span
``(name, start, end, parent)`` in memory; per-layer metrics are derived from the
spans when the run ends. A traced name that no longer exists in the program is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Span names are "<module>.<function>" for module functions and
# "<module>.<Class>.<method>" for methods; critical_bids is traced per rule
# kind as "mechanisms.critical_bids.<kind>".
FUNCTIONS = {
    "signals": ("sample_profiles",),
    "valuations": ("profile_stats", "make_interim_cache"),
    "mechanisms": ("run_batch", "agent_outcomes_for_bids", "critical_bid"),
    "evaluate": ("estimate", "estimate_many", "write_outcomes_csv"),
    "verify": ("check_cepic", "check_epir", "check_cepir", "check_allocation_monotone"),
    "oracle": ("oracle_payments", "brute_force_best_response", "brute_force_rev_optimal_threshold"),
    "cli": ("main",),
}
METHODS = {"valuations": (("InterimCache", "expected_value"),)}
RULE_KINDS = ("gva", "masked", "revenue_optimal")

PACKAGE = "cursed_auctions"

# (metric name, unit) in the order the traced pass reports them.
LAYER_METRICS = (
    ("valuations.InterimCache.expected_value.calls", "count"),
    ("valuations.InterimCache.expected_value.points", "count"),
    ("valuations.InterimCache.expected_value.self_s", "s"),
    ("mechanisms.critical_bids.masked.rows", "count"),
    ("mechanisms.critical_bids.masked.self_s", "s"),
    ("mechanisms.critical_bids.revenue_optimal.calls", "count"),
    ("mechanisms.critical_bids.revenue_optimal.rows", "count"),
    ("mechanisms.critical_bids.revenue_optimal.self_s", "s"),
    ("mechanisms.critical_bids.rows_per_unique", "ratio"),
    ("mechanisms.critical_bids.gva.self_s", "s"),
    ("mechanisms.run_batch.calls", "count"),
    ("mechanisms.run_batch.rows", "count"),
    ("mechanisms.run_batch.self_s", "s"),
    ("mechanisms.agent_outcomes_for_bids.calls", "count"),
    ("mechanisms.agent_outcomes_for_bids.self_s", "s"),
    ("mechanisms.critical_bid.calls", "count"),
    ("mechanisms.critical_bid.self_s", "s"),
    ("evaluate.executions_per_profile", "ratio"),
    ("evaluate.estimate.self_s", "s"),
    ("evaluate.estimate_many.self_s", "s"),
    ("evaluate.write_outcomes_csv.self_s", "s"),
    ("evaluate.write_outcomes_csv.bytes", "bytes"),
    ("signals.sample_profiles.calls", "count"),
    ("signals.sample_profiles.rows", "count"),
    ("signals.sample_profiles.self_s", "s"),
    ("valuations.profile_stats.self_s", "s"),
    ("valuations.make_interim_cache.self_s", "s"),
    ("verify.check_cepic.self_s", "s"),
    ("verify.check_epir.self_s", "s"),
    ("verify.check_cepir.self_s", "s"),
    ("verify.check_allocation_monotone.self_s", "s"),
    ("oracle.oracle_payments.calls", "count"),
    ("oracle.oracle_payments.self_s", "s"),
    ("oracle.brute_force_best_response.calls", "count"),
    ("oracle.brute_force_best_response.self_s", "s"),
    ("oracle.brute_force_rev_optimal_threshold.calls", "count"),
    ("oracle.brute_force_rev_optimal_threshold.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def self_times(spans) -> dict:
    """Total self time per span name.

    ``spans`` holds ``(name, start, end, parent)`` tuples, where ``parent`` is
    the index of the enclosing span or -1. The program is single-threaded, so
    a span's children are disjoint and nested in it: its self time is its
    duration minus the sum of its direct children's durations.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for k, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - covered[k]
    return dict(out)


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.counts = defaultdict(float)
        self.unique = defaultdict(set)
        self.absent = []

    def wrap(self, name, fn, measure=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(k)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[k] = (name, start, time.perf_counter(), parent)
                open_spans.pop()
            if measure is not None:
                measure(self, name, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """JSON-ready totals: calls and self time per span name, counters,
        distinct-input counts and absent names."""
        calls = defaultdict(int)
        for name, _start, _end, _parent in self.spans:
            calls[name] += 1
        return {
            "calls": dict(calls),
            "self_s": self_times(self.spans),
            "counts": dict(self.counts),
            "unique": {name: len(keys) for name, keys in self.unique.items()},
            "absent": list(self.absent),
        }


def layer_metrics(summary: dict, result_profiles: int, overhead_s: float) -> dict:
    """The LAYER_METRICS values from a :meth:`Tracer.summary`."""
    counts = summary["counts"]
    ro = "mechanisms.critical_bids.revenue_optimal"
    unique = summary["unique"].get(ro, 0)
    derived = {
        "mechanisms.critical_bids.rows_per_unique": counts.get(ro + ".rows", 0.0) / unique if unique else 0.0,
        "evaluate.executions_per_profile": counts.get("mechanisms.run_batch.rows", 0.0) / result_profiles,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric, _unit in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if metric in derived:
            value = derived[metric]
        elif field == "calls":
            value = summary["calls"].get(span, 0)
        elif field == "self_s":
            value = summary["self_s"].get(span, 0.0)
        else:
            value = counts.get(metric, 0.0)
        out[metric] = float(value)
    return out


# ---------------------------------------------------------------------------
# Counters measured at span boundaries.
# ---------------------------------------------------------------------------


def _count_points(tracer, name, args, kwargs, result):
    tracer.counts[name + ".points"] += np.size(args[1])


def _count_result_rows(tracer, name, args, kwargs, result):
    tracer.counts[name + ".rows"] += len(result)


def _count_profile_rows(tracer, name, args, kwargs, result):
    tracer.counts[name + ".rows"] += np.atleast_2d(args[1]).shape[0]


def _count_file_bytes(tracer, name, args, kwargs, result):
    tracer.counts[name + ".bytes"] += os.path.getsize(args[0])


def _count_unique_thresholds(tracer, name, args, kwargs, result):
    """Rows plus distinct (context, chi, others' max, others' statistic)
    inputs: the threshold depends on nothing else, so a repeat is recomputed
    work. The statistic is rounded to 1e-9 because run_batch and
    agent_outcomes_for_bids sum it in different orders."""
    rule, view, ctx = args[0], args[1], args[2]
    tracer.counts[name + ".rows"] += len(result)
    key = (id(ctx), rule.chi)
    stats = np.round(view.stat, 9).tolist()
    tracer.unique[name].update((key, m, s) for m, s in zip(view.max.tolist(), stats))


MEASURES = {
    "valuations.InterimCache.expected_value": _count_points,
    "signals.sample_profiles": _count_result_rows,
    "mechanisms.run_batch": _count_profile_rows,
    "evaluate.write_outcomes_csv": _count_file_bytes,
    "mechanisms.critical_bids.masked": _count_result_rows,
    "mechanisms.critical_bids.gva": _count_result_rows,
    "mechanisms.critical_bids.revenue_optimal": _count_unique_thresholds,
}


# ---------------------------------------------------------------------------
# Installation.
# ---------------------------------------------------------------------------


def _package_namespaces():
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def _rebind(original, wrapped, namespaces) -> None:
    """Replace ``original`` by ``wrapped`` in every module namespace and every
    module-level dict that holds it."""
    for mod in namespaces:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped


def install(tracer: Tracer) -> Tracer:
    """Wrap the traced functions of the package in place."""
    modules = {}
    for module, names in FUNCTIONS.items():
        try:
            modules[module] = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            tracer.absent += [f"{module}.{name}" for name in names]
    namespaces = _package_namespaces()
    for module, mod in modules.items():
        for name in FUNCTIONS[module]:
            span = f"{module}.{name}"
            original = getattr(mod, name, None)
            if not callable(original):
                tracer.absent.append(span)
                continue
            _rebind(original, tracer.wrap(span, original, MEASURES.get(span)), namespaces)

    for module, pairs in METHODS.items():
        for cls_name, meth in pairs:
            span = f"{module}.{cls_name}.{meth}"
            cls = getattr(modules.get(module), cls_name, None)
            original = getattr(cls, meth, None)
            if original is None:
                tracer.absent.append(span)
                continue
            setattr(cls, meth, tracer.wrap(span, original, MEASURES.get(span)))

    base = getattr(modules.get("mechanisms"), "ThresholdRule", None)
    found = set()
    for cls in _subclasses(base) if base is not None else []:
        kind = getattr(cls, "kind", None)
        if "critical_bids" in vars(cls) and kind in RULE_KINDS:
            span = f"mechanisms.critical_bids.{kind}"
            cls.critical_bids = tracer.wrap(span, vars(cls)["critical_bids"], MEASURES.get(span))
            found.add(kind)
    tracer.absent += [f"mechanisms.critical_bids.{k}" for k in RULE_KINDS if k not in found]
    return tracer


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
