"""Command-line front end: construction runs, verification, measure scans.

Configuration lives in one INI-style file ([model] and [run] sections) with
flag overrides taking precedence; outputs are deterministic CSV/JSON keyed by
the config and seed.  Exit codes: 0 ok, 1 verification failure, 2 invalid
input or precondition, 3 non-convergence.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
import typing
from pathlib import Path

import numpy as np

from . import bruno as bruno_mod
from . import checks
from . import diophantine as dioph_mod
from .kernel import kernel_v
from .series import (
    CountertermTable,
    NonConvergenceError,
    SignExcludedError,
    amplitude_cubic_coefficient,
    compute_coeffs,
    decay_check,
    lambda_modes,
    order_consistency,
    residual_norm,
    save_coeffs_csv,
    save_counterterms_csv,
    save_nu_csv,
    solve_nu,
    summary_json,
)
from .spectrum import ModelParams, NuTable, ResonantDivisorError
from .trees import (
    TreeBudgetError,
    counterterm_table,
    dump_tree,
    enumerate_r_trees,
    enumerate_trees,
    sum_trees,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INVALID = 2
EXIT_NOCONV = 3

# exit code per exception a command or load_config may raise; ValueError
# covers ConfigError, SignExcludedError, DegenerateRadicandError and
# InconsistentInputsError.  Anything else is a fault and propagates.
_EXIT_CODES = {
    ValueError: EXIT_INVALID,
    OSError: EXIT_INVALID,
    TreeBudgetError: EXIT_INVALID,
    ResonantDivisorError: EXIT_INVALID,
    NonConvergenceError: EXIT_NOCONV,
}


def _yes(val) -> bool:
    return str(val).lower() in ("1", "true", "yes")


# model keys: the ModelParams field and its type (float for tau, whose None
# derives it from tau0); checked by ModelParams
_MODEL_KEYS = {key: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
               for key, hint in typing.get_type_hints(ModelParams).items()}
# run keys: name -> (type, default, least value); None: no default or no bound
_RUN_KEYS = {
    "eps": (float, None, None),
    "eps_lo": (float, None, None),
    "eps_hi": (float, None, None),
    "eps_count": (int, None, 1),
    "orders": (int, 2, 1),
    "grid": (int, 1000, 1),
    "samples": (int, None, 1),
    "seed": (int, 0, 0),
    "window": (float, None, None),
    "outdir": (str, "out", None),
    "force": (_yes, False, None),
}


class ConfigError(ValueError):
    pass


def load_config(path: str | None, overrides: dict) -> tuple[ModelParams, dict]:
    model: dict = {}
    run: dict = {key: default for key, (_, default, _) in _RUN_KEYS.items()
                 if default is not None}
    if path:
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.optionxform = str   # keys are case-sensitive (Mmax vs mmax)
        if not cp.read(path):
            raise ConfigError(f"config file {path!r} not readable")
        for sec in cp.sections():
            if sec not in ("model", "run"):
                raise ConfigError(f"unknown config section [{sec}]")
        for key, val in cp.items("model") if cp.has_section("model") else []:
            if key not in _MODEL_KEYS:
                raise ConfigError(f"unknown model key {key!r}")
            model[key] = val
        for key, val in cp.items("run") if cp.has_section("run") else []:
            if key not in _RUN_KEYS:
                raise ConfigError(f"unknown run key {key!r}")
            run[key] = val
    for key, val in overrides.items():
        if val is not None:
            (model if key in _MODEL_KEYS else run)[key] = val
    try:
        params = ModelParams(**{key: _MODEL_KEYS[key](val) for key, val in model.items()})
        run = {key: _RUN_KEYS[key][0](val) for key, val in run.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    for key in ("eps", "eps_lo", "eps_hi"):
        if key in run and not 0.0 < run[key] < params.eps0:
            raise ConfigError(f"{key}={run[key]} outside (0, eps0={params.eps0})")
    for key, (_, _, least) in _RUN_KEYS.items():
        if least is not None and key in run and run[key] < least:
            raise ConfigError(f"{key}={run[key]} must be >= {least}")
    if "window" in run and not 0.0 < run["window"] < math.inf:
        raise ConfigError(f"window={run['window']} must be positive and finite")
    run["outdir"] = os.environ.get("LINDBEAM_OUTDIR", run["outdir"])
    return params, run


def _outdir(run: dict) -> Path:
    p = Path(run["outdir"])
    p.mkdir(parents=True, exist_ok=True)
    return p


def cmd_coeffs(params: ModelParams, run: dict) -> int:
    out = _outdir(run)
    eps = run.get("eps", params.eps0 / 2)
    K = run["orders"]
    if params.a == 0.0 and params.b == 0.0:
        nu = NuTable()
        lt, q = CountertermTable(), 0.0
        A = 0.0
    else:
        nu, info = solve_nu(params, eps, K)
        lt, q = info["counterterms"], info["q"]
        A = amplitude_cubic_coefficient(params, eps, nu)
    table = compute_coeffs(params, eps, nu, lt, K, params.Mmax, q=q)
    save_coeffs_csv(table, out / "coeffs.csv")
    save_counterterms_csv(lt, out / "counterterms.csv")
    save_nu_csv(nu, out / "nu.csv")
    (out / "summary.json").write_text(summary_json(table, params, eps, A=A))
    print(f"wrote coeffs/counterterms/nu/summary to {out}")
    return EXIT_OK


def cmd_counterterms(params: ModelParams, run: dict) -> int:
    out = _outdir(run)
    eps = run.get("eps", params.eps0 / 2)
    K = run["orders"]
    nu, info = solve_nu(params, eps, K)
    lt = counterterm_table(params.with_(Mmax=min(params.Mmax, 33)), eps, nu, info["q"],
                           range(2, K + 1), lambda_modes(params), scales=(-1, 0, 1))
    save_counterterms_csv(lt, out / "counterterms.csv")
    print(f"wrote scale-resolved counterterms to {out}")
    return EXIT_OK


def cmd_trees(params: ModelParams, run: dict, order: int, n: int, m: int,
              special: bool) -> int:
    enumerate_ = enumerate_r_trees if special else enumerate_trees
    ts = enumerate_(order, n, m, params.with_(Mmax=min(params.Mmax, 15)))
    print(f"# {len(ts)} skeletons of order {order} at mode ({n},{m})")
    for t in ts:
        print(f"# multiplicity {t.mult}")
        print(dump_tree(t))
    return EXIT_OK


def cmd_verify(params: ModelParams, run: dict) -> int:
    """Property suite of `lindbeam.checks`: kernel oracle, cutoff partition,
    expansion equivalence, counting inequalities.  Exit 1 if any fails."""
    out = _outdir(run)
    report: dict = {"schema_version": 1, "checks": {}, "skipped": []}

    def record(name, ok, detail):
        report["checks"][name] = {"ok": bool(ok), "detail": detail}
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    worst, parity = checks.kernel_oracle(12)
    record("kernel_oracle", worst < 1e-10 and parity == 0, f"max deviation {worst:.2e}"
           + (f", {parity} even-parity entries not zero" if parity else ""))
    xs = np.geomspace(params.gamma * 2 ** -16, 40.0, 2000)
    dev = checks.partition_of_unity(params.gamma, xs, 20)
    record("partition_of_unity", dev < 1e-12, f"max deviation {dev:.2e}")

    # a small grid at a coarse cutoff: the identity is exact at any truncation
    coarse = params.with_(Mmax=9, Nmax=60)
    pts = bruno_mod.sample_diophantine_points(coarse, 3, seed=run["seed"])
    K = min(run["orders"], 3)
    cases = checks.recursion_cases(coarse, pts, K)
    worst_rel = checks.tree_identity(
        sum_trees, coarse, cases, checks.family_grid(range(1, K + 1), (1, 3, 5, 7, 9)))
    record("tree_recursion_equivalence", worst_rel < 1e-10,
           f"worst relative deviation {worst_rel:.2e}")

    tallies = checks.counting_inequalities(coarse, pts, checks.family_grid((1, 2), (1, 3, 5)))
    total, bad, deep = map(sum, zip(*tallies.values()))
    record("counting_inequality", bad == 0,
           f"{total} assignments, {bad} violations, {deep} with a line at h >= 0")

    (out / "verify.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    failed = [n for n, c in report["checks"].items() if not c["ok"]]
    if failed:
        print(f"verification failed at: {failed[0]}", file=sys.stderr)
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_residual(params: ModelParams, run: dict) -> int:
    out = _outdir(run)
    K = run["orders"]
    lo = run.get("eps_lo", params.eps0 / 100)
    hi = run.get("eps_hi", params.eps0 / 2)
    count = run.get("eps_count", 8)
    eps_list = np.geomspace(lo, hi, count)
    rows = []
    pts = []
    for eps in eps_list:
        eps = float(eps)
        try:
            nu, info = solve_nu(params, eps, K)
        except (NonConvergenceError, SignExcludedError) as exc:
            rows.append((eps, "", "", f"excluded: {exc}"))
            continue
        marg, status = {}, "ok"
        if not dioph_mod.check_cantor(eps, nu, params, margins=marg):
            fam, at, value, thr = dioph_mod.cantor_failure(marg, params.gamma)
            reason = f"{fam} condition at {at}, margin {value:.3e} against threshold {thr:.3e}"
            if not run["force"]:
                rows.append((eps, "", "", f"excluded: {reason}"))
                continue
            status = f"forced: {reason}"
        table = compute_coeffs(params, eps, nu, info["counterterms"], K,
                               params.Mmax, q=info["q"])
        R = residual_norm(table, params, eps, nu)
        oc = order_consistency(table, params, eps, nu, info["counterterms"])
        rows.append((eps, R, oc, status))
        pts.append((eps, R))
    # fitted over R > 0 only: a linear equation (a = b = 0) has R == 0.0
    fit = [(math.log(e), math.log(R)) for e, R in pts if R > 0.0]
    slope = float(np.polyfit(*zip(*fit), 1)[0]) if len(fit) >= 2 else float("nan")
    with open(out / "residual.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps", "residual_sup", "order_consistency", "status"])
        for r in rows:
            w.writerow([repr(r[0])] + [repr(x) if x != "" else "" for x in r[1:3]]
                       + [r[3]])
    (out / "residual.json").write_text(json.dumps(
        {"schema_version": 1, "slope": slope if math.isfinite(slope) else None,
         "target": (K + 2) / 2 - 0.3,
         "accepted": len(pts), "total": len(rows)}, indent=2, sort_keys=True))
    print(f"residual slope {slope:.3f} over {len(pts)} accepted eps (target "
          f">= {(K + 2) / 2 - 0.3:.2f}); wrote {out}/residual.csv")
    return EXIT_OK if pts else EXIT_VERIFY


def cmd_dioph_mass(params: ModelParams, run: dict) -> int:
    grid = run["grid"]
    if grid < 1000:
        raise ConfigError(f"grid={grid} must be >= 1000 for the mass scan")
    out = _outdir(run)
    rows = checks.mass_measure(params.gamma, params.tau0, grid, params.Nmax)
    with open(out / "dioph_mass.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gamma", "fail_fraction", "excluded_measure",
                    "tail_bound", "six_gamma"])
        for gam, rep in rows:
            w.writerow([repr(gam), repr(rep.fail_fraction),
                        repr(rep.excluded_measure), repr(rep.tail_bound),
                        repr(6 * gam)])
    ok = all(rep.excluded_with_tail <= 6 * gam for gam, rep in rows)
    print(f"mass measure: estimates {'within' if ok else 'EXCEED'} 6*gamma")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_dioph_melnikov(params: ModelParams, run: dict) -> int:
    out = _outdir(run)
    eps = run.get("eps", params.eps0 / 2)
    nu, _ = solve_nu(params, eps, run["orders"])
    marg = dioph_mod.melnikov_margins(eps, nu, params)
    (out / "dioph_melnikov.json").write_text(json.dumps(
        {"schema_version": 1, "eps": eps, "gamma": params.gamma,
         "ok": marg["first"] >= params.gamma and marg["second"] >= params.gamma, **marg},
        indent=2, sort_keys=True))
    print(f"melnikov margins: first {marg['first']:.3e}, second {marg['second']:.3e}")
    return EXIT_OK


def cmd_dioph_cantor(params: ModelParams, run: dict) -> int:
    out = _outdir(run)
    eps = run.get("eps", params.eps0 / 2)
    nu, _ = solve_nu(params, eps, run["orders"])
    marg = dioph_mod.cantor_margins(eps, nu, params)
    ok = dioph_mod.cantor_failure(marg, params.gamma) is None
    (out / "dioph_cantor.json").write_text(json.dumps(
        {"schema_version": 1, "eps": eps, "accepted": ok, **marg},
        indent=2, sort_keys=True, default=str))
    print(f"eps={eps}: {'accepted' if ok else 'excluded'}")
    return EXIT_OK


def cmd_dioph_measure(params: ModelParams, run: dict) -> int:
    window = run.get("window", params.eps0 / 2)
    rows = checks.cantor_scans(params, window, run["grid"], run["orders"])
    out = _outdir(run)
    with open(out / "dioph_measure.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window", "grid_fail_fraction", "excluded_measure",
                    "tail_bound", "relative_excluded"])
        for w_, rep in rows:
            w.writerow([repr(w_), repr(rep.fail_fraction),
                        repr(rep.excluded_measure), repr(rep.tail_bound),
                        repr(rep.excluded_with_tail / w_)])
    rels = [rep.excluded_with_tail / w_ for w_, rep in rows]
    ok = rels[0] > rels[1] > rels[2]
    print("relative excluded:", " > ".join(f"{r:.3e}" for r in rels),
          "monotone" if ok else "NOT monotone")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_bruno(params: ModelParams, run: dict) -> int:
    coarse = params.with_(Mmax=9, Nmax=60)
    pts = bruno_mod.sample_diophantine_points(coarse, run.get("samples", 20), seed=run["seed"])
    out = _outdir(run)
    grid = checks.family_grid((1, 2, 3), (1, 3, 5))
    tallies = checks.counting_inequalities(coarse, pts, grid)
    rows = [(k, *tallies[k]) for k in (1, 2, 3)]
    with open(out / "bruno.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["order", "assignments", "violations", "at_h_ge_0"])
        w.writerows(rows)
    ok = all(b == 0 for _, _, b, _ in rows)
    print("\n".join(f"order {k}: {t} assignments, {b} violations, {d} with a line at h >= 0"
                    for k, t, b, d in rows))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_kernel(params: ModelParams, run: dict) -> int:
    out = _outdir(run)
    cap = min(params.Mmax, 16)
    with open(out / "kernel.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "m1", "m2", "value"])
        for m in range(1, cap + 1):
            for m1 in range(1, cap + 1):
                for m2 in range(m1, cap + 1):
                    v = kernel_v(m, m1, m2)
                    if v != 0.0:
                        w.writerow([m, m1, m2, repr(v)])
    print(f"wrote kernel table to {out}/kernel.csv")
    return EXIT_OK


def cmd_report(params: ModelParams, run: dict) -> int:
    out = _outdir(run)
    rc_verify = cmd_verify(params, run)
    rep = {"schema_version": 1, "verify_ok": rc_verify == EXIT_OK}
    eps = run.get("eps", params.eps0 / 2)
    try:
        nu, info = solve_nu(params, eps, run["orders"])
        table = compute_coeffs(params, eps, nu, info["counterterms"],
                               run["orders"], params.Mmax, q=info["q"])
        rep["q"] = info["q"]
        rep["residual"] = residual_norm(table, params, eps, nu)
        rep["nu_sup_over_eps"] = nu.sup_norm() / eps
        rep["decay_ok"] = decay_check(table).ok
    except (NonConvergenceError, SignExcludedError) as exc:
        rep["construction_error"] = str(exc)
    (out / "report.json").write_text(json.dumps(rep, indent=2, sort_keys=True,
                                                default=float))
    print(f"wrote report to {out}/report.json")
    return EXIT_OK if rc_verify == EXIT_OK else rc_verify


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lindbeam",
        description="Periodic solutions of the quadratic beam equation and "
                    "verification of the machinery behind them.")
    ap.add_argument("--config", help="INI config file ([model]/[run] sections)")
    for key in (*_MODEL_KEYS, *_RUN_KEYS):
        flag = f"--{key.replace('_', '-')}"
        if key in _RUN_KEYS and _RUN_KEYS[key][0] is _yes:
            ap.add_argument(flag, action="store_const", const="1", dest=key)
        else:
            ap.add_argument(flag, dest=key)
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("coeffs").set_defaults(func=cmd_coeffs)
    sub.add_parser("counterterms").set_defaults(func=cmd_counterterms)
    tp = sub.add_parser("trees")
    tp.add_argument("order", type=int)
    tp.add_argument("n", type=int)
    tp.add_argument("m", type=int)
    tp.add_argument("--special", action="store_true",
                    help="special-end-node family")
    tp.set_defaults(func=cmd_trees)
    sub.add_parser("verify").set_defaults(func=cmd_verify)
    sub.add_parser("residual").set_defaults(func=cmd_residual)
    dp = sub.add_parser("dioph").add_subparsers(dest="what", required=True)
    dp.add_parser("mass").set_defaults(func=cmd_dioph_mass)
    dp.add_parser("melnikov").set_defaults(func=cmd_dioph_melnikov)
    dp.add_parser("cantor").set_defaults(func=cmd_dioph_cantor)
    dp.add_parser("measure").set_defaults(func=cmd_dioph_measure)
    bp = sub.add_parser("bruno").add_subparsers(dest="what", required=True)
    bp.add_parser("check").set_defaults(func=cmd_bruno)
    sub.add_parser("kernel").set_defaults(func=cmd_kernel)
    sub.add_parser("report").set_defaults(func=cmd_report)
    return ap


def _unknown_option(ap: argparse.ArgumentParser, argv: list[str]) -> str | None:
    """The first option before the subcommand that the parser does not know.

    argparse sets such an option aside and reads its value as the subcommand,
    so it would report the value, not the option.
    """
    takes_value = {s: a.nargs != 0 for a in ap._actions for s in a.option_strings}
    i = 0
    while i < len(argv) and argv[i][:1] == "-" and argv[i] != "--":
        flag, eq, _ = argv[i].partition("=")
        known = [s for s in takes_value if s == flag] or \
            [s for s in takes_value if s.startswith(flag)]     # argparse's abbreviations
        if not known:
            return flag
        i += 2 if takes_value[known[0]] and not eq else 1
    return None


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    unknown = _unknown_option(ap, argv)
    if unknown:
        print(f"error: unrecognized option {unknown}", file=sys.stderr)
        return EXIT_INVALID
    args = vars(ap.parse_args(argv))
    config, command = args.pop("config"), args.pop("func")
    overrides = {key: args.pop(key) for key in (*_MODEL_KEYS, *_RUN_KEYS)}
    # what is left, less the subcommand names, are the command's own arguments
    own = {k: v for k, v in args.items() if k not in ("command", "what")}
    try:
        params, run = load_config(config, overrides)
        return command(params, run, **own)
    except tuple(_EXIT_CODES) as exc:
        kind = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
