"""Which lindbeam functions the traced run wraps, and the per-layer metrics.

Layers are lindbeam's modules.  Every wrapped function yields `<module>.<fn>.calls`
and `<module>.<fn>.self_s`; some also keep counters of the work they did.
Counts marked "computed" are derived from array shapes, not measured.
"""
from __future__ import annotations

import inspect
import os
from fnmatch import fnmatch

# (module, function, aggregated).  Aggregated functions are hot leaves
# (10^4-10^5 calls per tree point); see tracer.Tracer.
WRAPPED = [
    ("cli", "load_config", False),
    ("spectrum", "chi_h", True),
    ("spectrum", "propagator", True),
    ("kernel", "kernel_tensor", False),
    ("series", "quad_conv", False),
    ("series", "compute_coeffs", False),
    ("series", "residual_norm", False),
    ("series", "order_consistency", False),
    ("series", "save_coeffs_csv", False),
    ("series", "summary_json", False),
    ("series", "solve_nu", False),
    ("series", "amplitude_cubic_coefficient", False),
    ("trees", "counterterm_order2_closed", False),
    ("trees", "enumerate_trees", False),
    ("trees", "enumerate_r_trees", False),
    ("trees", "admissible_assignments", True),
    ("trees", "tree_value", True),
    ("trees", "sum_trees", False),
    ("trees", "renormalized_sum", False),
    ("trees", "counterterm", False),
    ("bruno", "check_bruno", True),
    ("bruno", "check_bruno_r", True),
    ("bruno", "sample_diophantine_points", False),
    ("diophantine", "measure_cantor", False),
    ("diophantine", "check_cantor", False),
    ("diophantine", "melnikov_margins", False),
    ("diophantine", "square_margins", False),
    ("diophantine", "check_melnikov", False),
]

# Functions predicted to carry most of each workload's traced self time.
PREDICTED = {
    "construct": ["series.quad_conv", "kernel.kernel_tensor", "series.compute_coeffs",
                  "series.residual_norm", "series.order_consistency"],
    "cantor_scan": ["series.solve_nu", "diophantine.melnikov_margins",
                    "trees.counterterm_order2_closed"],
    "tree_checks": ["trees.*", "bruno.*", "spectrum.chi_h"],
}


def _bump(key, amount):
    def on_call(tracer, args, kwargs, result, error):
        if error is None:
            tracer.counters[key] += amount(args, kwargs, result)
    return on_call


def _quad_conv_counter(quad_conv):
    """Computed flops and bytes of quad_conv: each row pair it does not skip
    contracts the whole (2M, M, M) kernel tensor with one (M, M) outer product."""
    sig = inspect.signature(quad_conv)

    def on_call(tracer, args, kwargs, result, error):
        if error is not None:
            return
        a = sig.bind(*args, **kwargs).arguments
        u1, u2, M = a["u1"], a["u2"], a["Mmax"]
        om2b = a["b"] * a["Om"] * a["Om"]
        rows1 = [i - (a["k1"] + 1) for i in range(u1.shape[0]) if u1[i].any()]
        rows2 = [i - (a["k2"] + 1) for i in range(u2.shape[0]) if u2[i].any()]
        pairs = sum(1 for n1 in rows1 for n2 in rows2 if a["a"] - om2b * n1 * n2 != 0.0)
        tensor = 2 * M * M * M
        tracer.counters["series.quad_conv.pairs"] += pairs
        tracer.counters["series.quad_conv.flops_computed"] += pairs * (2 * tensor + M * M + 4 * M)
        tracer.counters["series.quad_conv.bytes_computed"] += pairs * 8 * (tensor + M * M + 4 * M)
    return on_call


def _solve_nu_counter(tracer, args, kwargs, result, error):
    if error is None:
        tracer.counters["series.solve_nu.sweeps"] += result[1]["sweeps"]
    else:
        tracer.counters["series.solve_nu.errors"] += 1


def install(tracer, modules: dict) -> None:
    """Wrap every WRAPPED function on each module of `modules` holding it."""
    counters = {
        "kernel.kernel_tensor": _bump("kernel.kernel_tensor.bytes_computed",
                                      lambda a, k, r: r.nbytes),
        "series.quad_conv": _quad_conv_counter(modules["series"].quad_conv),
        "series.save_coeffs_csv": _bump("series.save_coeffs_csv.bytes",
                                        lambda a, k, r: os.path.getsize(a[1])),
        "series.solve_nu": _solve_nu_counter,
        "trees.enumerate_trees": _bump("trees.enumerate_trees.trees",
                                       lambda a, k, r: len(r)),
        "trees.admissible_assignments": _bump("trees.admissible_assignments.assignments",
                                              lambda a, k, r: len(r)),
        "trees.tree_value": _bump("trees.tree_value.nonzero", lambda a, k, r: r != 0.0),
        "diophantine.check_cantor": _bump("diophantine.check_cantor.accepted",
                                          lambda a, k, r: bool(r)),
        "bruno.sample_diophantine_points": _bump("bruno.sample_diophantine_points.points",
                                                 lambda a, k, r: len(r)),
    }
    for mod, fn, aggregate in WRAPPED:
        name = f"{mod}.{fn}"
        tracer.install(modules.values(), getattr(modules[mod], fn), name,
                       aggregate=aggregate, on_call=counters.get(name))


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(workload: str, summary: dict, counters: dict, kernel_v_info,
            root_s: float) -> dict:
    """Per-layer metric values from a tracer summary and counters."""
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for mod, fn, _ in WRAPPED:
        name = f"{mod}.{fn}"
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    c = counters.get
    qc_bytes = c("series.quad_conv.bytes_computed", 0.0)
    out.update({
        "kernel.kernel_tensor.bytes_computed": c("kernel.kernel_tensor.bytes_computed", 0.0),
        "kernel.kernel_v.hit_ratio": _ratio(kernel_v_info.hits,
                                            kernel_v_info.hits + kernel_v_info.misses),
        "series.quad_conv.flops_computed": c("series.quad_conv.flops_computed", 0.0),
        "series.quad_conv.bytes_computed": qc_bytes,
        "series.quad_conv.gbps": _ratio(qc_bytes, out["series.quad_conv.self_s"]) / 1e9,
        "series.save_coeffs_csv.bytes": c("series.save_coeffs_csv.bytes", 0.0),
        "series.solve_nu.sweeps": c("series.solve_nu.sweeps", 0.0),
        "series.solve_nu.fail_ratio": _ratio(c("series.solve_nu.errors", 0.0),
                                             out["series.solve_nu.calls"]),
        "trees.enumerate_trees.trees": c("trees.enumerate_trees.trees", 0.0),
        "trees.admissible_assignments.assignments":
            c("trees.admissible_assignments.assignments", 0.0),
        "trees.tree_value.nonzero_ratio": _ratio(c("trees.tree_value.nonzero", 0.0),
                                                 out["trees.tree_value.calls"]),
        "diophantine.check_cantor.accept_ratio": _ratio(
            c("diophantine.check_cantor.accepted", 0.0), out["diophantine.check_cantor.calls"]),
        "bruno.sample_diophantine_points.accept_ratio": _ratio(
            c("bruno.sample_diophantine_points.points", 0.0),
            out["diophantine.check_melnikov.calls"]),
        "unattributed_s": summary["unattributed_s"],
        "prediction.share": _ratio(sum(s for n, s in self_s.items()
                                       if any(fnmatch(n, p) for p in PREDICTED[workload])),
                                   root_s),
    })
    return out
