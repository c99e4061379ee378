"""Tests of the span reducer and the tracer (run: python3 -m pytest bench/test_tracer.py)."""
import math
import types

import pytest

from tracer import Tracer, reduce_spans


def test_reduce_nested_reentrant_spans():
    # root [0, 10]; A holds B, which re-enters B, and C, which overlaps B's
    # tail; D is top-level and runs past the root; E runs past its parent D.
    spans = [
        ("A", 1.0, 6.0, -1, 0.5),
        ("B", 2.0, 4.0, 0, 0.0),
        ("B", 3.0, 3.5, 1, 0.0),
        ("C", 3.8, 5.0, 0, 0.0),
        ("D", 7.0, 12.0, -1, 0.0),
        ("E", 11.0, 13.0, 4, 0.0),
    ]
    calls, self_s, unattributed = reduce_spans(spans, 0.0, 10.0, root_agg_s=0.25)
    assert calls == {"A": 1, "B": 2, "C": 1, "D": 1, "E": 1}
    # A: 5 s minus the union [2, 5] of its children minus 0.5 s aggregated
    assert self_s["A"] == pytest.approx(1.5)
    # outer B 2 - 0.5, inner B 0.5: each interval counted once
    assert self_s["B"] == pytest.approx(2.0)
    assert self_s["C"] == pytest.approx(1.2)
    # E is clipped to D's end at 12
    assert self_s["D"] == pytest.approx(4.0)
    assert self_s["E"] == pytest.approx(2.0)
    # top-level union [1, 6] + [7, 10] and 0.25 s of top-level aggregates
    assert unattributed == pytest.approx(1.75)


def test_reduce_empty_span_set_is_all_unattributed():
    calls, self_s, unattributed = reduce_spans([], 2.0, 5.0)
    assert calls == {} and self_s == {}
    assert unattributed == pytest.approx(3.0)


def _fake_module():
    mod = types.ModuleType("fake")

    def leaf(x):
        return sum(range(200 * x))

    def rec(n):
        # re-enters itself through the module attribute, as callers do
        if n < 0:
            return -mod.rec(-n)
        return sum(mod.leaf(i) for i in range(n))

    mod.leaf, mod.rec = leaf, rec
    return mod


def test_tracer_wraps_and_accounts_for_all_time():
    import time

    mod = _fake_module()
    tr = Tracer()
    tr.install([mod], mod.leaf, "fake.leaf", aggregate=True,
               on_call=lambda t, a, k, r, e: t.counters.__setitem__(
                   "leaf_args", t.counters["leaf_args"] + a[0]))
    tr.install([mod], mod.rec, "fake.rec")
    t0 = time.perf_counter()
    assert mod.rec(-5) == -sum(sum(range(200 * i)) for i in range(5))
    mod.leaf(3)
    t1 = time.perf_counter()
    out = tr.summary(t0, t1)
    tr.uninstall()
    assert not hasattr(mod.rec, "__wrapped__")

    assert out["calls"] == {"fake.rec": 2, "fake.leaf": 6}
    assert set(tr.agg_calls) == {"fake.leaf"}
    # the inner rec is a child of the outer one
    assert [s[3] for s in tr.spans] == [-1, 0]
    assert tr.counters["leaf_args"] == 0 + 1 + 2 + 3 + 4 + 3
    total = sum(out["self_s"].values()) + out["unattributed_s"]
    assert math.isclose(total, t1 - t0, rel_tol=1e-9, abs_tol=1e-12)


def test_tracer_records_raising_calls():
    mod = types.ModuleType("fake")

    def boom():
        raise KeyError("x")

    mod.boom = boom
    tr = Tracer()
    errors = []
    tr.install([mod], boom, "fake.boom",
               on_call=lambda t, a, k, r, e: errors.append(type(e)))
    with pytest.raises(KeyError):
        mod.boom()
    assert errors == [KeyError]
    assert len(tr.spans) == 1 and tr.spans[0][2] >= tr.spans[0][1] > 0.0
