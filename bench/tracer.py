"""Span tracing of lindbeam's module boundaries, installed from outside the package.

`Tracer.install` replaces a public function with a timing wrapper on every
lindbeam module that holds it, which is where its callers look it up
(`series.kernel_tensor`, `bruno.admissible_assignments`, the function-local
`from .trees import counterterm_order2_closed` in `solve_nu`, ...).

Each call becomes a span: name, start, end and the index of its parent span.
Hot leaves called tens of thousands of times per input point (`chi_h`,
`tree_value`, ...) are aggregated instead: the tracer keeps their call count
and self time and charges their duration to the enclosing span, so that
span's self time stays exact without storing one record per call.  A call
nested inside an aggregated call is aggregated too, so every stored span has
only stored spans above it.

`reduce_spans` turns the stored spans into per-name self time: a span's
duration minus the union of its children's intervals (clipped to the span)
minus the aggregated time charged to it.
"""
from __future__ import annotations

import time
from collections import defaultdict


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(lo, a), min(hi, b)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def reduce_spans(spans, root_start: float, root_end: float,
                 root_agg_s: float = 0.0) -> tuple[dict, dict, float]:
    """Per-name call counts and self time of a span set, plus unattributed time.

    spans: sequence of (name, start, end, parent, agg_child_s) with parent the
    index of the enclosing span or -1 for a top-level span, and agg_child_s
    the aggregated time charged to the span.  Re-entrant spans (a name nested
    in itself) each keep their own self time, so per-name totals never count
    an interval twice.  Unattributed time is the part of [root_start,
    root_end] that no top-level span and no top-level aggregated call
    (root_agg_s) covers.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        children[parent].append((start, end))
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    for i, (name, start, end, _, agg) in enumerate(spans):
        covered = _union_length(children.get(i, ()), start, end) + agg
        calls[name] += 1
        self_s[name] += max(0.0, (end - start) - covered)
    top = _union_length(children.get(-1, ()), root_start, root_end)
    unattributed = max(0.0, (root_end - root_start) - top - root_agg_s)
    return dict(calls), dict(self_s), unattributed


class Tracer:
    """In-memory spans and aggregates for wrapped functions."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, agg_child_s]
        self.agg_calls: dict = defaultdict(int)
        self.agg_self: dict = defaultdict(float)
        self.counters: dict = defaultdict(float)
        self.root_agg_s = 0.0
        # open frames: [span index or None when aggregated, aggregated time charged]
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    def install(self, modules, fn, name: str, aggregate: bool = False,
                on_call=None):
        """Wrap fn on every module in `modules` that holds it.

        on_call(tracer, args, kwargs, result, error) runs after each call and
        updates `counters`; it sees the exception, if any, before it
        propagates.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            agg = aggregate or any(f[0] is None for f in stack)
            if agg:
                idx = None
            else:
                idx = len(tracer.spans)
                parent = next((f[0] for f in reversed(stack)), -1)
                tracer.spans.append([name, 0.0, 0.0, parent, 0.0])
            frame = [idx, 0.0]
            stack.append(frame)
            result = error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if idx is None:
                    tracer.agg_calls[name] += 1
                    tracer.agg_self[name] += max(0.0, (t1 - t0) - frame[1])
                    if stack:
                        stack[-1][1] += t1 - t0
                    else:
                        tracer.root_agg_s += t1 - t0
                else:
                    tracer.spans[idx][1:3] = [t0, t1]
                    tracer.spans[idx][4] = frame[1]
                if on_call is not None:
                    on_call(tracer, args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def summary(self, root_start: float, root_end: float) -> dict:
        """Per-name calls/self_s over spans and aggregates, and unattributed_s."""
        calls, self_s, unattributed = reduce_spans(
            self.spans, root_start, root_end, self.root_agg_s)
        for name in self.agg_calls:
            calls[name] = calls.get(name, 0) + self.agg_calls[name]
            self_s[name] = self_s.get(name, 0.0) + self.agg_self[name]
        return {"calls": calls, "self_s": self_s, "unattributed_s": unattributed}

    def dump(self, root_start: float, root_end: float) -> dict:
        """JSON-ready record: stored spans (relative to root_start) and aggregates."""
        return {
            "root": [0.0, root_end - root_start],
            "fields": ["name", "start", "end", "parent", "agg_child_s"],
            "spans": [[n, s - root_start, e - root_start, p, a]
                      for n, s, e, p, a in self.spans],
            "aggregated": sorted(self.agg_calls),
            "aggregates": {n: {"calls": self.agg_calls[n], "self_s": self.agg_self[n]}
                           for n in sorted(self.agg_calls)},
            "counters": dict(self.counters),
        }
