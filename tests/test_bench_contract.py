"""The bench binds lindbeam functions by name: every function that
bench/layers.py wraps must exist, quad_conv's counter must still find the
arguments it reads, and the functions bench/worker.py calls with positional
arguments must still take them in the same order."""
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

from lindbeam import series

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

# The parameters bench/worker.py passes by position, in its order.
WORKER_CALLS = {
    "trees.sum_trees": ("k", "n", "m", "params", "eps", "nu", "q", "counterterms", "Mmax"),
    "trees.renormalized_sum": ("k", "n", "m", "params", "eps", "nu", "q", "counterterms",
                               "Mmax"),
    "trees.counterterm": ("k", "n", "m", "h", "params", "eps", "nu", "q", "lower", "Mmax"),
    "trees.enumerate_trees": ("k", "n", "m", "params", "Mmax"),
    "trees.enumerate_r_trees": ("k", "n", "m", "params", "Mmax"),
    "bruno.admissible_scales": ("tree", "params", "eps", "nu"),
    "bruno.check_bruno": ("tree", "asg", "params"),
    "bruno.check_bruno_r": ("tree", "asg", "params"),
    "series.solve_nu": ("params", "eps", "K"),
    "series.compute_coeffs": ("params", "eps", "nu", "counterterms", "K", "Mmax"),
    "series.residual_norm": ("table", "params", "eps", "nu"),
    "series.order_consistency": ("table", "params", "eps", "nu", "counterterms"),
    "series.save_coeffs_csv": ("table", "path"),
    "series.summary_json": ("table", "params", "eps"),
    "series.lambda_modes": ("params",),
    "diophantine.check_cantor": ("eps", "nu_of_eps", "params"),
    "diophantine.measure_cantor": ("params", "window", "grid"),
    "bruno.sample_diophantine_points": ("params", "count"),
}


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_function_exists():
    layers = _layers()
    missing = [f"{mod}.{fn}" for mod, fn, _ in layers.WRAPPED
               if not callable(getattr(importlib.import_module(f"lindbeam.{mod}"), fn, None))]
    assert not missing


def test_quad_conv_counter_binds_its_arguments():
    layers = _layers()
    params = inspect.signature(series.quad_conv).parameters
    assert {"u1", "u2", "k1", "k2", "a", "b", "Om", "Mmax"} <= set(params)

    class Tracer:
        counters = Counter()

    M, u1, u2 = 4, np.ones((3, 4)), np.ones((5, 4))
    args = (u1, u2, 0, 1, 1.0, 0.5, 1.05, M)
    layers._quad_conv_counter(series.quad_conv)(Tracer, args, {}, None, None)
    assert Tracer.counters["series.quad_conv.pairs"] == 15
    assert Tracer.counters["series.quad_conv.flops_computed"] > 0


def test_worker_positional_calls_bind():
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for name, passed in WORKER_CALLS.items():
        mod, fn = name.split(".")
        sig = inspect.signature(getattr(importlib.import_module(f"lindbeam.{mod}"), fn))
        params = list(sig.parameters.values())
        assert tuple(p.name for p in params[:len(passed)]) == passed, name
        assert all(p.kind in positional for p in params[:len(passed)]), name
        assert all(p.default is not p.empty for p in params[len(passed):]), name
    for fn in ("check_bruno", "check_bruno_r"):
        sig = inspect.signature(getattr(importlib.import_module("lindbeam.bruno"), fn))
        assert sig.parameters["raise_on_fail"].default is True
