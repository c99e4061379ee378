"""The traced bench run binds lindbeam functions by name: every function
that bench/layers.py wraps must exist, and quad_conv's counter must still
find the arguments it reads."""
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

from lindbeam import series

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


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
