"""Per-layer spans for the traced benchmark run.

The tracer replaces the public functions of each iasltools module with
timing wrappers, in every module namespace that bound them at import
time, so calls between layers go through the wrappers.  Every wrapped
call is a span: name, start, end, enclosing span and operation id.
Self time is a span's duration minus the time its wrapped children
cover.  Calls and self time are exact for every name; only spans of the
names in STORED are kept one by one (the hot arithmetic leaves run about
a million times per pass and are aggregated per name).

The tracer keeps one call stack, so it must only see calls from one
thread.  The traced run never passes --parallel and never sets
SearchConfig.parallel, so iasltools starts no threads while it is on.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import defaultdict
from time import perf_counter

MODULES = ("intset", "graph6", "graph", "labeling", "construct", "search", "oracle", "cli")

# (span name, defining module, attribute, modules to patch or None for every
# module that imported it).  IntegerSet is wrapped only where oracle and cli
# construct it: labeling uses the class in isinstance checks.
TARGETS = (
    ("intset.sumset", "intset", "sumset", None),
    ("intset.compatibility_table", "intset", "compatibility_table", None),
    ("intset.difference_set", "intset", "difference_set", None),
    ("intset.IntegerSet", "intset", "IntegerSet", ("oracle", "cli")),
    ("graph6.decode_graph6", "graph6", "decode_graph6", None),
    ("graph6.encode_graph6", "graph6", "encode_graph6", None),
    ("graph.enumerate_graphs", "graph", "enumerate_graphs", None),
    ("labeling.classify", "labeling", "classify", None),
    ("labeling.structure_check", "labeling", "weak_structure_check", None),
    ("labeling.structure_check", "labeling", "strong_structure_check", None),
    ("search.find_k_uniform", "search", "find_k_uniform", None),
    ("search.min_ground_set_size", "search", "min_ground_set_size", None),
    ("oracle.run_check", "oracle", "run_check", None),
    ("cli.main", "cli", "main", None),
)
GENERATORS = {"graph.enumerate_graphs"}
STORED = {
    "labeling.classify", "search.find_k_uniform", "search.min_ground_set_size",
    "oracle.run_check", "cli.main",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _certificate_kind(name, result):
    if name == "search.find_k_uniform":
        return result.kind
    if name == "search.min_ground_set_size":
        return result[1].kind
    return None


class Tracer:
    """Wraps iasltools functions and accumulates spans until uninstall()."""

    def __init__(self):
        self.op = None          # operation id stamped on every span
        self.phase = "setup"    # "setup" or "timed"
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.phase_self_s = defaultdict(float)
        self.certificates = defaultdict(int)
        self.spans = []         # [name, start, end, parent index, op]
        self._stack = []        # [seconds covered by children, stored span index]
        self._patched = []

    def _timed(self, name, fn, args, kwargs, count):
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        index = parent
        start = perf_counter()
        if name in STORED and count:
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.op])
        stack.append([0.0, index])
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            children = stack.pop()[0]
            duration = end - start
            if stack:
                stack[-1][0] += duration
            own = duration - children
            self.self_s[name] += own
            self.phase_self_s[self.phase] += own
            if count:
                self.calls[name] += 1
                if index != parent:
                    self.spans[index][2] = end
        if count:
            kind = _certificate_kind(name, result)
            if kind is not None:
                self.certificates[kind] += 1
        return result

    def _wrap(self, name, fn):
        timed = self._timed
        if name in GENERATORS:
            def traced_generator(*args, **kwargs):
                gen = timed(name, fn, args, kwargs, True)
                while True:
                    try:
                        item = timed(name, next, (gen,), {}, False)
                    except StopIteration:
                        return
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            return timed(name, fn, args, kwargs, True)
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"iasltools.{m}") for m in MODULES}
        namespaces = dict(mods, package=importlib.import_module("iasltools"))
        for name, home, attr, only in TARGETS:
            original = getattr(mods[home], attr)
            wrapper = self._wrap(name, original)
            for key, ns in namespaces.items():
                if only is not None and key not in only:
                    continue
                if ns.__dict__.get(attr) is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def durations(self, name, op=None):
        return [
            end - start for n, start, end, _, span_op in self.spans
            if n == name and (op is None or span_op == op)
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
            }, fh)


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def latency_summary(durations):
    """Median and tail latency in ms; the tail is the highest percentile
    with at least ten calls beyond it (0 when there are too few calls)."""
    values = sorted(durations)
    if not values:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0, "samples": 0}
    p50, _ = percentile(values, 50.0)
    out = {"p50_ms": p50 * 1e3, "tail_ms": 0.0, "tail_pct": 0.0, "samples": len(values)}
    for pct in TAIL_PERCENTILES:
        value, beyond = percentile(values, pct)
        if beyond >= 10:
            out.update(tail_ms=value * 1e3, tail_pct=pct)
            break
    return out
