import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lindbeam
import lindbeam.checks

import lindbeam.cli
from lindbeam.bruno import sample_diophantine_points
from lindbeam.cli import ConfigError, build_parser, load_config, main
from lindbeam.series import (
    InconsistentInputsError,
    NonConvergenceError,
    SignExcludedError,
)
from lindbeam.spectrum import DegenerateRadicandError, ModelParams, ResonantDivisorError
from lindbeam.trees import TreeBudgetError

CFG = """
[model]
a = 1.0
b = 0.5
mu = 0.1
eps0 = 0.02
omega_branch = -1
Mmax = 32
Nmax = 120

[run]
eps = 0.005
orders = 2
outdir = {out}
"""


def write_cfg(tmp_path, extra=""):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CFG.format(out=tmp_path / "out") + extra)
    return str(cfg)


# a model at the cutoffs where `verify` and `bruno check` sample
SAMPLE_P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.02, omega_branch=1, Mmax=9, Nmax=60)


def test_coeffs_writes_files(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "coeffs"]) == 0
    out = tmp_path / "out"
    for name in ("coeffs.csv", "counterterms.csv", "nu.csv", "summary.json"):
        assert (out / name).exists()
    doc = json.loads((out / "summary.json").read_text())
    assert doc["schema_version"] == 1 and doc["q"] > 0
    rows = list(csv.DictReader(open(out / "coeffs.csv")))
    assert all(int(r["m"]) % 2 == 1 for r in rows)


def test_coeffs_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "coeffs"]) == 0
    first = (tmp_path / "out" / "coeffs.csv").read_bytes()
    assert main(["--config", cfg, "coeffs"]) == 0
    assert (tmp_path / "out" / "coeffs.csv").read_bytes() == first


def test_linear_case_writes_primary_only(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "--a", "0", "--b", "0", "coeffs"]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "coeffs.csv")))
    assert {(int(r["k"]), int(r["n"]), int(r["m"])) for r in rows} == \
        {(0, 1, 1), (0, -1, 1)}
    assert all(float(r["value"]) == 0.0 for r in rows)


def test_linear_case_residual_has_no_slope(tmp_path):
    # every residual of the linear equation is exactly 0.0: the rows stay,
    # the slope (fitted over R > 0) is null
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "--a", "0", "--b", "0", "--eps-count", "3", "residual"]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "residual.csv")))
    assert [(r["residual_sup"], r["status"]) for r in rows] == [("0.0", "ok")] * 3
    doc = json.loads((tmp_path / "out" / "residual.json").read_text())
    assert doc["slope"] is None and doc["accepted"] == doc["total"] == 3


def test_invalid_mu_exit_2(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "--mu", "0.5", "coeffs"]) == 2
    assert not (tmp_path / "out" / "coeffs.csv").exists()


@pytest.mark.parametrize("args", [
    ["--Mmax", "1.5", "coeffs"],
    ["--orders", "abc", "coeffs"],
    ["--eps", "0.5", "coeffs"],
    ["--eps-lo", "0.5", "residual"],
    ["--eps-count", "-1", "residual"],
    ["--grid", "0", "dioph", "mass"],
    ["--grid", "999", "dioph", "mass"],
    ["--window", "1.5", "dioph", "measure"],    # beyond every eps0 the grid is solved at
    ["--outdir", "{tmp}/file/out", "kernel"],   # a file where a directory must be
    ["--sigma", "1", "kernel"],                 # an option that does not exist
    ["--samples", "4001", "bruno", "check"],    # more points than the sampler's draws
    ["trees", "5", "2", "3"],                   # families over the tree budget, refused
    ["trees", "30", "2", "3"],                  # from their count before enumeration
    ["trees", "400", "2", "3"],                 # from a walk of a few keys per order
    ["trees", "1", "2", "-1"],                  # spatial labels start at 1
    ["trees", "2", "3", "-5", "--special"],
    ["trees", "1200", "2", "3"],                # too deep to count on the stack
    ["--omega-branch", "-1", "--tau", "-3", "dioph", "cantor"],   # validated, never replaced
])
def test_malformed_input_exit_2(tmp_path, capsys, args):
    (tmp_path / "file").write_text("")
    args = [a.format(tmp=tmp_path) for a in args]
    assert main(["--outdir", str(tmp_path / "out")] + args) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error: " in err, err


@pytest.mark.parametrize("exc, code", [
    (ConfigError("bad key"), 2),
    (ValueError("bad value"), 2),
    (SignExcludedError(-1.0, 1), 2),
    (DegenerateRadicandError("radicand <= 0"), 2),
    (InconsistentInputsError("tables disagree"), 2),
    (NotADirectoryError("not a directory"), 2),
    (PermissionError("read-only"), 2),
    (TreeBudgetError("too many trees"), 2),
    (ResonantDivisorError("resonant"), 2),
    (NonConvergenceError("no fixed point"), 3),
    # calls that raise on their own: the sampler out of draws, and asked for
    # more Sobol dimensions than it holds direction numbers for
    pytest.param(lambda: sample_diophantine_points(SAMPLE_P, 4001, max_draws=32), 2,
                 id="sampler_exhausted-2"),
    pytest.param(lambda: sample_diophantine_points(SAMPLE_P.with_(Mmax=64, Nmax=2000), 1), 2,
                 id="sobol_dimension-2"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_exit_code_table(tmp_path, monkeypatch, capsys, exc, code):
    def fail(params, run):
        if isinstance(exc, Exception):
            raise exc
        exc()

    monkeypatch.setattr(lindbeam.cli, "cmd_kernel", fail)
    assert main(["--outdir", str(tmp_path / "out"), "kernel"]) == code
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err.count("\n") == 1


def test_exit_code_table_lets_faults_through(tmp_path, monkeypatch):
    def fail(params, run):
        raise KeyError("a fault, not an input error")

    monkeypatch.setattr(lindbeam.cli, "cmd_kernel", fail)
    with pytest.raises(KeyError):
        main(["--outdir", str(tmp_path / "out"), "kernel"])


_INT_KEYS = ("orders", "grid", "eps_count", "samples", "seed")
_EPS_KEYS = ("eps", "eps_lo", "eps_hi")
_values = st.one_of(st.integers(-2, 2).map(str), st.integers(-10 ** 6, 10 ** 6).map(str),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr),
                    st.text(max_size=12))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_INT_KEYS + _EPS_KEYS + ("window",)), _values)
def test_load_config_run_keys_fuzz(key, value):
    try:
        params, run = load_config(None, {key: value})
    except ConfigError:
        return
    if key in _INT_KEYS:
        assert isinstance(run[key], int) and run[key] >= (0 if key == "seed" else 1)
    else:
        assert 0.0 < run[key] < (params.eps0 if key in _EPS_KEYS else math.inf)


def _finite(v):
    return math.isfinite(v)


def _positive(v):
    return 0.0 < v < math.inf


def _cutoff(v):
    return isinstance(v, int) and v >= 1


_MODEL_RANGES = {
    "a": _finite, "b": _finite,
    "mu": lambda v: 0.0 <= v <= 0.125,
    "eps0": lambda v: 0.0 < v < 1.0,
    "gamma": lambda v: 0.0 < v <= 2.0 ** -6,
    "tau0": lambda v: 4.0 <= v < math.inf,
    "tau": _positive, "nu_cap": _positive,
    "omega_branch": lambda v: v in (1, -1),
    "Mmax": _cutoff, "Nmax": _cutoff,
    "h_max": lambda v: isinstance(v, int) and 0 <= v <= 1000,
}


def test_model_ranges_cover_every_model_key():
    assert set(_MODEL_RANGES) == {f.name for f in lindbeam.ModelParams.__dataclass_fields__.values()}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_MODEL_RANGES)), _values)
def test_load_config_model_keys_fuzz(key, value):
    try:
        params, _run = load_config(None, {key: value})
    except ConfigError:
        return
    assert _MODEL_RANGES[key](getattr(params, key)), (key, value, getattr(params, key))


_RUN_KEYS = {"eps", "eps_lo", "eps_hi", "eps_count", "orders", "grid", "samples", "seed",
             "window", "outdir", "force"}
_OPTIONS = [a for a in build_parser()._actions
            if a.option_strings and a.dest not in ("help", "config")]
# every option that takes a value, except the output directory (a random one
# would be created in the working directory)
_FLAGS = tuple(a.option_strings[0] for a in _OPTIONS if a.nargs != 0 and a.dest != "outdir")


def test_flags_are_the_model_fields_and_run_keys():
    assert sorted(a.dest for a in _OPTIONS) == sorted(set(_MODEL_RANGES) | _RUN_KEYS)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_FLAGS), _values)
def test_main_kernel_flag_fuzz(flag, value):
    """One random value for one flag: the run succeeds or exits 2, never raises."""
    with tempfile.TemporaryDirectory() as d:
        assert main(["--outdir", d, f"{flag}={value}", "kernel"]) in (0, 2)


def test_tau_key_is_cast_and_derived_when_absent():
    # tau is `float | None`: a given value is read as a float, None derives it from tau0
    assert load_config(None, {"tau": "3"})[0].tau == 3.0
    assert load_config(None, {"tau0": "6"})[0].tau == 11.0


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[model]\nfrobnicate = 3\n")
    assert main(["--config", str(cfg), "coeffs"]) == 2


def test_sign_excluded_exit_2(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "--omega-branch", "1", "coeffs"]) == 2


def test_trees_dump(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "trees", "1", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "2 skeletons" in out and "mode=(2,3)" in out
    assert main(["--config", cfg, "trees", "2", "9", "3", "--special"]) == 0
    assert "special" in capsys.readouterr().out


def test_verify_pass_and_mutation_hook(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "verify"]) == 0
    rep = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert all(c["ok"] for c in rep["checks"].values())
    # a sign error in the kernel must fail the oracle
    closed = lindbeam.checks.triple_sine_closed
    monkeypatch.setattr(lindbeam.checks, "triple_sine_closed",
                        lambda m, m1, m2: -closed(m, m1, m2))
    assert main(["--config", cfg, "verify"]) == 1
    rep = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert rep["checks"]["kernel_oracle"]["ok"] is False


def test_verify_leaves_warning_filters_alone(tmp_path):
    cfg = write_cfg(tmp_path)
    before = list(warnings.filters)
    assert main(["--config", cfg, "verify"]) == 0
    assert warnings.filters == before


def test_residual_run(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "--eps-lo", "0.0004", "--eps-hi", "0.004",
                 "--eps-count", "5", "residual"]) == 0
    doc = json.loads((tmp_path / "out" / "residual.json").read_text())
    assert doc["slope"] >= 1.7
    rows = list(csv.DictReader(open(tmp_path / "out" / "residual.csv")))
    assert len(rows) == 5


def test_residual_single_eps_writes_strict_json(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "--eps-lo", "0.005", "--eps-hi", "0.005",
                 "--eps-count", "1", "residual"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads((tmp_path / "out" / "residual.json").read_text(),
                     parse_constant=reject)
    assert doc["slope"] is None


def test_residual_marks_excluded(tmp_path):
    # an eps parked on the (4,2) square resonance is excluded, not fatal; as
    # the only eps, it leaves none accepted: exit 1
    cfg = write_cfg(tmp_path)
    import math
    eps_bad = (math.sqrt(1.1) * 4 - 4.0) / 4.0
    rc = main(["--config", cfg, "--eps0", "0.08", "--eps-lo", repr(eps_bad),
               "--eps-hi", repr(eps_bad), "--eps-count", "1", "residual"])
    assert rc == 1
    rows = list(csv.DictReader(open(tmp_path / "out" / "residual.csv")))
    assert rows[0]["status"].startswith("excluded")
    # at eps0 = 0.08 the shift leaves its box first; at 0.35 the shift
    # converges and the status names the failed family, mode and margin
    rc = main(["--config", cfg, "--eps0", "0.35", "--eps-lo", repr(eps_bad),
               "--eps-hi", repr(eps_bad), "--eps-count", "1", "residual"])
    assert rc == 1
    rows = list(csv.DictReader(open(tmp_path / "out" / "residual.csv")))
    assert rows[0]["status"] == ("excluded: square condition at (4, 2), "
                                 "margin 0.000e+00 against threshold 6.250e-02")


def test_residual_without_an_accepted_eps_exits_1(tmp_path, monkeypatch, capsys):
    # the default model is on branch +1, where the cubic coefficient is
    # negative: every eps is excluded and no slope can be fitted
    monkeypatch.delenv("LINDBEAM_OUTDIR", raising=False)
    assert main(["--outdir", str(tmp_path / "out"), "residual"]) == 1
    assert "slope nan over 0 accepted eps" in capsys.readouterr().out
    doc = json.loads((tmp_path / "out" / "residual.json").read_text())
    assert doc["accepted"] == 0 and doc["total"] == 8 and doc["slope"] is None


def test_residual_force_names_the_failed_condition(tmp_path):
    # --force computes the excluded eps anyway, and its status says why it
    # would have been excluded
    cfg = write_cfg(tmp_path)
    eps_bad = (math.sqrt(1.1) * 4 - 4.0) / 4.0
    rc = main(["--config", cfg, "--eps0", "0.35", "--eps-lo", repr(eps_bad),
               "--eps-hi", repr(eps_bad), "--eps-count", "1", "--force", "residual"])
    assert rc == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "residual.csv")))
    assert rows[0]["status"] == ("forced: square condition at (4, 2), "
                                 "margin 0.000e+00 against threshold 6.250e-02")
    assert float(rows[0]["residual_sup"]) > 0.0


def test_dioph_mass(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "--grid", "1000", "--Nmax", "120",
                 "dioph", "mass"]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "dioph_mass.csv")))
    assert len(rows) == 3
    for r in rows:
        assert float(r["excluded_measure"]) + float(r["tail_bound"]) \
            <= 6 * float(r["gamma"])
        assert "tail_bound" in r


def test_dioph_cantor_and_melnikov(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "dioph", "melnikov"]) == 0
    doc = json.loads((tmp_path / "out" / "dioph_melnikov.json").read_text())
    assert len(doc["first_at"]) == 2 and len(doc["second_at"]) == 4
    assert main(["--config", cfg, "dioph", "cantor"]) == 0
    doc = json.loads((tmp_path / "out" / "dioph_cantor.json").read_text())
    assert doc["accepted"] is True
    assert len(doc["square_at"]) == 2 and len(doc["first_at"]) == 2
    assert len(doc["second_at"]) == 4


def test_dioph_measure_exits_1_when_not_monotone(tmp_path, capsys):
    # half of each of the windows 0.3 and 0.075 does not converge
    assert main(["--outdir", str(tmp_path / "out"), "--omega-branch", "-1",
                 "--window", "0.3", "--grid", "4", "dioph", "measure"]) == 1
    assert "NOT monotone" in capsys.readouterr().out
    rows = list(csv.DictReader(open(tmp_path / "out" / "dioph_measure.csv")))
    assert [r["window"] for r in rows] == ["0.3", "0.075", "0.01875"]


def test_dioph_measure_counts_sign_exclusions(tmp_path, capsys):
    # on branch -1 at eps0 = 0.9 the cubic coefficient turns negative near
    # eps = 0.41: the scan lists that eps as excluded instead of aborting
    assert main(["--outdir", str(tmp_path / "out"), "--omega-branch", "-1", "--eps0", "0.9",
                 "--nu-cap", "0.45", "--window", "0.45", "--grid", "12",
                 "dioph", "measure"]) == 1
    assert "NOT monotone" in capsys.readouterr().out
    rows = list(csv.DictReader(open(tmp_path / "out" / "dioph_measure.csv")))
    assert [r["window"] for r in rows] == ["0.45", "0.1125", "0.028125"]
    assert rows[0]["grid_fail_fraction"] == "1.0"


def test_bruno_subcommand(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "--samples", "3", "bruno", "check"]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "bruno.csv")))
    assert [int(r["order"]) for r in rows] == [1, 2, 3]
    assert all(int(r["violations"]) == 0 for r in rows)


def test_kernel_dump(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "kernel"]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "kernel.csv")))
    assert all((int(r["m"]) + int(r["m1"]) + int(r["m2"])) % 2 == 1 for r in rows)


def test_outdir_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    target = tmp_path / "elsewhere"
    monkeypatch.setenv("LINDBEAM_OUTDIR", str(target))
    assert main(["--config", cfg, "kernel"]) == 0
    assert (target / "kernel.csv").exists()


def test_python_m_lindbeam_help():
    src = str(Path(lindbeam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "lindbeam", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: lindbeam" in proc.stdout
