"""One benchmark workload in a fresh interpreter: set up, run timed items, check.

Started by bench/run.py, one process per run, so lindbeam's process-level
caches (series._V2_CACHE, trees._ENUM_CACHE, the kernel_v lru_cache,
diophantine._PAIR_CACHE) start cold as they do for a CLI user:

    python3 bench/worker.py --workload construct --seed 0 --seconds 20 \
        --mode run --spawned-at <parent time.monotonic()> --out result.json

--mode setup stops after set-up; --mode trace runs with tracer spans on.
The result, including every item's outputs, is written as JSON to --out.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
RUN_DIR = ROOT / ".bench_run"

# Tolerances: none looser than tests/test_acceptance.py.
TREE_TOL = 1e-10          # criteria 1 and 2: tree == recursion, relative
ORDER_TOL = 1e-10         # order_consistency per eps
SLOPE_MARGIN = 0.3        # residual slope >= (K+2)/2 - 0.3
# Reference outputs (default seed) must match ints exactly, floats to this.
REF_REL_TOL = 1e-8

# Bit-reversed strata: any prefix of a block spreads over the whole range.
_ORDER8 = [0, 4, 2, 6, 1, 5, 3, 7]


def import_lindbeam():
    """Import lindbeam from this checkout's src/, never from an installed copy."""
    pkg = ROOT / "src" / "lindbeam"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no lindbeam sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import lindbeam
    from lindbeam import bruno, cli, diophantine, kernel, series, spectrum, trees
    if Path(lindbeam.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported lindbeam from {lindbeam.__file__}")
    return {"cli": cli, "spectrum": spectrum, "kernel": kernel, "series": series,
            "trees": trees, "bruno": bruno, "diophantine": diophantine}


def stratified(rng, count: int, lo: float, hi: float) -> list[float]:
    """Log-uniform draws in [lo, hi], one per eighth of the range in each block of 8."""
    strata = np.array([_ORDER8[i % 8] for i in range(count)], dtype=float)
    u = (strata + rng.random(count)) / 8.0
    return [float(x) for x in lo * (hi / lo) ** u]


class Workload:
    """Set up from (lindbeam modules, params, run, seed); `item(i)` runs one
    item and returns (outputs, problems).  `ints` and `floats` name the outputs
    compared with the reference."""

    ints: tuple = ()
    floats: tuple = ()

    def finish(self, records) -> list[str]:
        """Problems found across the whole run."""
        return []

    def rates(self, records) -> dict:
        """Throughputs beyond, or in place of, decided eps per second."""
        return {}


class Construct(Workload):
    """`lindbeam residual` per eps: solve_nu, check_cantor, compute_coeffs,
    residual_norm, order_consistency, save_coeffs_csv and summary_json."""

    ints = ("accepted", "nonconverged", "sweeps")
    floats = ("eps", "q", "residual")

    def __init__(self, lb, params, run, seed):
        self.lb, self.P, self.K = lb, params, run["orders"]
        self.eps = stratified(np.random.default_rng(seed), 256,
                              run["eps_lo"], run["eps_hi"])
        self.outdir = RUN_DIR / f"construct-seed{seed}-{os.getpid()}"

    def item(self, i):
        series, P = self.lb["series"], self.P
        eps = self.eps[i % len(self.eps)]
        rec = {"eps": eps, "decided": 1, "accepted": 0, "nonconverged": 0,
               "sweeps": 0, "q": 0.0, "residual": 0.0, "order_consistency": 0.0}
        try:
            nu, info = series.solve_nu(P, eps, self.K)
        except (series.NonConvergenceError, series.SignExcludedError):
            rec["nonconverged"] = 1
            return rec, []
        rec["sweeps"], rec["q"] = info["sweeps"], info["q"]
        if not self.lb["diophantine"].check_cantor(eps, nu, P):
            return rec, []
        rec["accepted"] = 1
        lt = info["counterterms"]
        table = series.compute_coeffs(P, eps, nu, lt, self.K, P.Mmax, q=info["q"])
        rec["residual"] = series.residual_norm(table, P, eps, nu)
        rec["order_consistency"] = series.order_consistency(table, P, eps, nu, lt)
        self.outdir.mkdir(parents=True, exist_ok=True)
        series.save_coeffs_csv(table, self.outdir / "coeffs.csv")
        (self.outdir / "summary.json").write_text(series.summary_json(table, P, eps))
        problems = []
        if not rec["order_consistency"] <= ORDER_TOL:
            problems.append(f"order_consistency {rec['order_consistency']:.2e} > {ORDER_TOL}")
        if not (math.isfinite(rec["residual"]) and rec["residual"] > 0.0):
            problems.append(f"residual {rec['residual']!r} not finite and positive")
        return rec, problems

    def finish(self, records):
        shutil.rmtree(self.outdir, ignore_errors=True)
        pts = [(math.log(r["eps"]), math.log(r["residual"])) for r in records
               if r.get("accepted") and r["residual"] > 0.0]
        if len({round(x, 12) for x, _ in pts}) < 3:
            return [f"only {len(pts)} accepted eps: residual slope undefined"]
        slope = float(np.polyfit([x for x, _ in pts], [y for _, y in pts], 1)[0])
        target = (self.K + 2) / 2 - SLOPE_MARGIN
        return [] if slope >= target else [f"residual slope {slope:.3f} < {target:.2f}"]


class CantorScan(Workload):
    """measure_cantor over the windows w0, w0/4, w0/16 (criterion 9)."""

    ints = ("accepted", "nonconverged")
    floats = ("w0", "relative_excluded")

    def __init__(self, lb, params, run, seed):
        self.lb, self.P, self.K, self.grid = lb, params, run["orders"], run["grid"]
        self.w0 = stratified(np.random.default_rng(seed), 64,
                             run["eps_lo"], run["eps_hi"])

    def item(self, i):
        w0 = self.w0[i % len(self.w0)]
        rec = {"w0": w0, "decided": 0, "accepted": [], "nonconverged": [],
               "relative_excluded": []}
        for w in (w0, w0 / 4, w0 / 16):
            rep = self.lb["diophantine"].measure_cantor(self.P, w, self.grid, K=self.K)
            rec["decided"] += rep.grid
            rec["accepted"].append(rep.grid - round(rep.fail_fraction * rep.grid))
            rec["nonconverged"].append(rep.worst["nonconverged"])
            rec["relative_excluded"].append(rep.excluded_with_tail / w)
        r = rec["relative_excluded"]
        ok = r[0] > r[1] > r[2]
        return rec, [] if ok else [f"relative excluded not decreasing: {r}"]


class TreeChecks(Workload):
    """Per sampled point: tree == recursion, plain and renormalized (identity
    phase), then the counting inequalities (counting phase)."""

    ints = ("skeletons", "r_skeletons", "assignments", "violations")
    floats = ("eps", "coeff_abs_sum", "tree_abs_sum", "renorm_abs_sum")
    Q = 0.8         # primary amplitude used by criteria 1 and 2
    GRID_M = (1, 3, 5, 7, 9)

    def __init__(self, lb, params, run, seed):
        self.lb, self.P, self.K = lb, params, run["orders"]
        pts = lb["bruno"].sample_diophantine_points(params, run["samples"], seed=seed)
        pts.sort(key=lambda p: p[0])
        bits = max(1, (len(pts) - 1).bit_length())
        order = sorted(range(len(pts)),
                       key=lambda j: int(format(j, f"0{bits}b")[::-1], 2))
        self.points = [pts[j] for j in order]
        self.families = [(k, n, m) for k in range(1, self.K + 1) for n in range(-4, 5)
                         if abs(n) <= min(4, k + 1) for m in self.GRID_M
                         if (abs(n), m) != (1, 1)]
        self.lmodes = lb["series"].lambda_modes(params)

    def item(self, i):
        series, trees, bruno = self.lb["series"], self.lb["trees"], self.lb["bruno"]
        P, MM, q = self.P, self.P.Mmax, self.Q
        eps, nu = self.points[i % len(self.points)]
        rec = {"eps": eps, "decided": 1}

        # Seconds per unit of work, in a fixed order: the order-2 table and
        # compute_coeffs, each family's identity check, each family's counting
        # checks, then the λ-mode counting checks.
        units = []
        t = time.perf_counter()
        lt = series.CountertermTable()
        for (n, m) in self.lmodes:
            v = trees.counterterm(2, n, m, -1, P, eps, nu, q, series.CountertermTable(), MM)
            if v != 0.0:
                lt.set(2, n, m, -1, v)
        table = series.compute_coeffs(P, eps, nu, lt, self.K, MM, q=q)
        units.append(time.perf_counter() - t)
        worst = coeff = tsum = rsum = 0.0
        for (k, n, m) in self.families:
            t = time.perf_counter()
            want = table.value(k, n, m)
            plain = trees.sum_trees(k, n, m, P, eps, nu, q, lt, MM)
            renorm = trees.renormalized_sum(k, n, m, P, eps, nu, q, lt, MM)
            units.append(time.perf_counter() - t)
            scale = max(1.0, abs(want))
            worst = max(worst, abs(want - plain) / scale, abs(want - renorm) / scale)
            coeff, tsum, rsum = coeff + abs(want), tsum + abs(plain), rsum + abs(renorm)

        skeletons = r_skeletons = total = bad = 0
        for (k, n, m) in self.families:
            t = time.perf_counter()
            for tree in trees.enumerate_trees(k, n, m, P, MM):
                skeletons += 1
                for asg in bruno.admissible_scales(tree, P, eps, nu):
                    total += 1
                    bad += not bruno.check_bruno(tree, asg, P, raise_on_fail=False)
            units.append(time.perf_counter() - t)
        t = time.perf_counter()
        for (n, m) in self.lmodes:
            for tree in trees.enumerate_r_trees(2, n, m, P, MM):
                r_skeletons += 1
                for asg in bruno.admissible_scales(tree, P, eps, nu):
                    total += 1
                    bad += not bruno.check_bruno_r(tree, asg, P, raise_on_fail=False)
        units.append(time.perf_counter() - t)

        rec.update(worst=worst, coeff_abs_sum=coeff, tree_abs_sum=tsum,
                   renorm_abs_sum=rsum, skeletons=skeletons, r_skeletons=r_skeletons,
                   assignments=total, violations=bad,
                   identity_checks=2 * len(self.families), counting_checks=total,
                   units=units)
        problems = []
        if not worst <= TREE_TOL:
            problems.append(f"tree/recursion deviation {worst:.2e} > {TREE_TOL}")
        if bad:
            problems.append(f"{bad} counting-inequality violations")
        return rec, problems

    def rates(self, records):
        """Rates from the per-unit medians over the run's points.

        Every point does the same units of work, so the median seconds of
        each unit, summed, is the cost of a typical point.  Contention that
        slows a stretch of the run shorter than half its points drops out;
        a total over the run would carry it.
        """
        done = [r["units"] for r in records if "units" in r]
        if not done:
            return {}
        med = [statistics.median(col) for col in zip(*done)]
        n_id = 1 + len(self.families)
        identity_s, counting_s = sum(med[:n_id]), sum(med[n_id:])
        checks = statistics.median(r["counting_checks"] for r in records if "units" in r)
        return {"eps_per_s": 1.0 / (identity_s + counting_s),
                "identity_checks_per_s": 2 * len(self.families) / identity_s,
                "counting_checks_per_s": checks / counting_s}


WORKLOADS = {"construct": Construct, "cantor_scan": CantorScan, "tree_checks": TreeChecks}


def _same(a, b, rel):
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y, rel) for x, y in zip(a, b))
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def reference_problems(wl, rec, ref) -> list[str]:
    """Differences of one item's outputs from its recorded reference."""
    out = []
    for key in wl.ints:
        if rec.get(key) != ref.get(key):
            out.append(f"reference {key}: {rec.get(key)} != {ref.get(key)}")
    for key in wl.floats:
        if key in rec and not _same(rec[key], ref[key], REF_REL_TOL):
            out.append(f"reference {key}: {rec[key]!r} != {ref[key]!r}")
    return out


def load_reference(workload: str, seed: int):
    path = BENCH / "reference.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    if doc.get("seed") != seed:
        return None
    return doc["workloads"].get(workload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    warnings.filterwarnings("ignore", message="convolution mass beyond")
    lb = import_lindbeam()
    tracer = None
    if args.mode == "trace":
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer, lb)
    root_start = time.perf_counter()

    ini = BENCH / "configs" / f"{args.workload}.ini"
    params, run = lb["cli"].load_config(str(ini), {})
    wl = WORKLOADS[args.workload](lb, params, run, args.seed)
    setup_done = time.monotonic()
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "setup_s": setup_done - args.spawned_at,
              "lindbeam": str(Path(lb["series"].__file__).parent)}

    if args.mode != "setup":
        reference = load_reference(args.workload, args.seed) or []
        records, failed = [], 0
        t0 = time.perf_counter()

        def worth_starting():
            # Start an item only while more than half a typical item's time
            # is left, so that a run lasts --seconds on average rather than
            # half an item longer.
            left = args.seconds - (time.perf_counter() - t0)
            typical = statistics.median(r["seconds"] for r in records) if records else 0.0
            return left > 0.5 * typical

        i = 0
        while worth_starting():
            t_item = time.perf_counter()
            try:
                rec, errs = wl.item(i)
            except Exception:  # an item that raises counts as failed; keep going
                rec, errs = {"decided": 0}, [traceback.format_exc()]
            rec["seconds"] = time.perf_counter() - t_item
            if i < len(reference) and not errs:
                errs = reference_problems(wl, rec, reference[i])
            rec["i"], rec["problems"] = i, errs
            failed += bool(errs)
            records.append(rec)
            i += 1
        elapsed = time.perf_counter() - t0
        root_end = time.perf_counter()
        problems = wl.finish(records)
        decided = sum(r["decided"] for r in records)
        result.update(
            elapsed_s=elapsed, attempted=len(records), failed=failed,
            problems=problems, items=records, decided=decided,
            reference_items=min(len(reference), len(records)),
            **{"eps_per_s": decided / elapsed, **wl.rates(records)})
        if tracer is not None:
            tracer.uninstall()
            summary = tracer.summary(root_start, root_end)
            result["layers"] = layers.metrics(
                args.workload, summary, tracer.counters,
                lb["kernel"].kernel_v.cache_info(), root_end - root_start)
            result["trace"] = tracer.dump(root_start, root_end)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
