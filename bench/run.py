"""lindbeam benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload construct --seed 0 --seconds 20 --trace 0

Run from the repository root.  Workloads: construct, cantor_scan and
tree_checks (see bench/README.md and BENCHMARK.json).  Each run starts
bench/worker.py in fresh interpreters with the BLAS thread count pinned:

  --trace 0  two set-up-only processes, then one timed run.  Reports the
             end-to-end metrics listed in BENCHMARK.json; setup_s is the
             median of the three set-ups.
  --trace 1  one untraced and one traced timed run of the same inputs.
             Reports the per-layer metrics listed in BENCHMARK.json.

It prints a readable summary, the run environment, and as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Every
result, with each item's outputs and the trace spans, is also written
under .bench_run/.  --record-reference stores the outputs of this run as
the reference for its seed in bench/reference.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("construct", "cantor_scan", "tree_checks")
NPROC = len(os.sched_getaffinity(0))
# Two OpenBLAS threads make construct ~1.6x faster than one; never more than nproc.
BLAS_THREADS = min(2, NPROC)
SETUP_ONLY_RUNS = 2
DEADLINE_S = 170.0        # every run ends within 180 s


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git without git itself."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def llc_bytes() -> tuple[int, str]:
    """Size of the last-level cache and where it was read from."""
    best = (0, 0)
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((d / "level").read_text())
            size = (d / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KM")) * mult))
    if best[1]:
        return best[1], f"sysfs L{best[0]}"
    return 32 * 1024 ** 2, "assumed"


def copy_bandwidth() -> dict:
    """Best-of-3 numpy copy between two arrays, each 4x the last-level cache.

    GB/s counts the bytes read plus the bytes written (2x the array size).
    """
    import numpy as np

    llc, source = llc_bytes()
    n = 4 * llc // 8
    src = np.ones(n)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    del src, dst
    return {"llc_bytes": llc, "llc_source": source, "array_bytes": 8 * n,
            "copy_gbps": 2 * 8 * n / best / 1e9}


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        return cfg.get("Build Dependencies", {}).get("blas", {}).get("version")

    return {"git_sha": git_sha(), "src_sha256": src_sha256(), "nproc": NPROC,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_openblas": blas(numpy.show_config(mode="dicts")),
            "scipy_openblas": blas(scipy.show_config(mode="dicts")),
            "blas_threads": BLAS_THREADS}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its result."""
    RUN_DIR.mkdir(exist_ok=True)
    out = RUN_DIR / f"{workload}-seed{seed}-{mode}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    env.pop("LINDBEAM_OUTDIR", None)
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--spawned-at", repr(spawned_at), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not out.is_file():
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def item_failures(res: dict) -> list[str]:
    return [f"item {r['i']}: {p}" for r in res["items"] for p in r["problems"]] \
        + list(res["problems"])


def print_end_to_end(res: dict, setup_s: float):
    wl = res["workload"]
    print(f"{wl}: {res['attempted']} items, {res['failed']} failed, "
          f"{res['decided']} amplitude points in {res['elapsed_s']:.2f} s "
          f"({res['reference_items']} checked against the reference)")
    rows = [("setup_s", setup_s, "s"), ("peak_rss_mb", res["peak_rss_mb"], "MB"),
            ("fail_ratio", res["failed"] / res["attempted"], "ratio"),
            ("eps_per_s", res["eps_per_s"], "eps/s")]
    for name in ("identity_checks_per_s", "counting_checks_per_s"):
        rows.append((name, res.get(name), "checks/s"))
    for name, value, unit in rows:
        shown = f"{value:.6g} {unit}" if value is not None else "n/a (tree_checks only)"
        print(f"  {name:<24}{shown}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lindbeam benchmark (see module doc)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's outputs as the reference for its seed")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills the running worker and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    start = time.monotonic()
    deadline = start + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lindbeam" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a lindbeam checkout (src/lindbeam and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    env = environment()
    print(f"lindbeam benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    try:
        if args.trace == 0:
            setups = [spawn(args.workload, args.seed, args.seconds, "setup", deadline)
                      ["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
            res = spawn(args.workload, args.seed, args.seconds, "run", deadline)
            runs = [res]
            setup_s = statistics.median(setups + [res["setup_s"]])
            print_end_to_end(res, setup_s)
            values = {"setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"],
                      "eps_per_s": res["eps_per_s"]}
            wanted = spec["end_to_end"]
        else:
            plain = spawn(args.workload, args.seed, args.seconds, "run", deadline)
            res = spawn(args.workload, args.seed, args.seconds, "trace", deadline)
            runs = [plain, res]
            values = dict(res["layers"])
            values["trace.overhead_ratio"] = plain["eps_per_s"] / res["eps_per_s"]
            for name in ("identity_checks_per_s", "counting_checks_per_s"):
                values[name] = plain.get(name, 0.0)
            wanted = spec["per_layer"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env.update(copy_bandwidth())
    values["membw.copy_gbps"] = env["copy_gbps"]
    print("env " + json.dumps(env, sort_keys=True))

    problems = [p for r in runs for p in item_failures(r)]
    for p in problems:
        print(f"FAIL {p.strip()}")
    if args.trace == 1:
        from layers import PREDICTED
        share = values["prediction.share"]
        print(f"prediction {args.workload}: {'PASS' if share > 0.5 else 'FAIL'} "
              f"{share:.1%} of traced time in {', '.join(PREDICTED[args.workload])}; "
              f"unattributed {values['unattributed_s']:.3f} s; "
              f"aggregated spans: {', '.join(res['trace']['aggregated'])}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1

    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    (RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env, "result": result, "runs": runs}, indent=1))
    if args.record_reference:
        if problems:
            print("error: not recording a reference from a failing run", file=sys.stderr)
            return 1
        record_reference(args.workload, args.seed, res)
    print(json.dumps(result))
    return 0


def record_reference(workload: str, seed: int, res: dict):
    import worker

    path = BENCH / "reference.json"
    doc = json.loads(path.read_text()) if path.is_file() else {}
    if doc.get("seed") != seed:
        doc = {"seed": seed, "workloads": {}}
    doc["rel_tol"] = worker.REF_REL_TOL
    wl = worker.WORKLOADS[workload]
    keys = wl.ints + wl.floats
    doc["workloads"][workload] = [{k: r[k] for k in keys} for r in res["items"]]
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(res['items'])} reference items for {workload} seed {seed}")


if __name__ == "__main__":
    sys.exit(main())
