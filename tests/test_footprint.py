"""Import footprint: the construction, the Diophantine point sampling and the
tree checks run on numpy alone, and the sampling and the tree checks load
neither `numpy.random` nor OpenSSL's `_hashlib`; scipy loads only with the
kernel quadrature oracle (`scipy.integrate`, which `verify` calls), and
`scipy.stats` never."""
import os
import subprocess
import sys
from pathlib import Path

import lindbeam

SRC = str(Path(lindbeam.__file__).resolve().parents[1])

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
eps_count = 3
orders = 2
grid = 4
outdir = {out}
"""

CONSTRUCT = """
import sys
import lindbeam, lindbeam.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"import lindbeam loaded {loaded[:5]}"
cfg = sys.argv[1]
# at these cutoffs the tail bound dominates the two smaller windows, so
# `dioph measure` prints NOT monotone and exits 1
for argv, rc in ((["residual"], 0), (["coeffs"], 0), (["kernel"], 0), (["dioph", "cantor"], 0),
                 (["dioph", "measure"], 1)):
    assert lindbeam.cli.main(["--config", cfg, *argv]) == rc, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"the construction loaded {loaded[:5]}"
"""

ORACLE = """
import sys
from lindbeam.kernel import triple_sine_closed, triple_sine_quadrature
assert "scipy" not in sys.modules
for trip in [(1, 1, 1), (3, 1, 1), (7, 5, 3), (2, 2, 1), (12, 7, 2)]:
    q, c = triple_sine_quadrature(*trip), triple_sine_closed(*trip)
    assert abs(q - c) <= 1e-11, (trip, q, c)
assert "scipy.integrate" in sys.modules
"""

SAMPLING = """
import sys
import lindbeam.cli
from lindbeam.bruno import sample_diophantine_points
from lindbeam.spectrum import ModelParams
cfg, out = sys.argv[1], sys.argv[2]
TREE_P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.02, omega_branch=1, Mmax=9, Nmax=60)
assert len(sample_diophantine_points(TREE_P, 16, seed=0)) == 16
for argv in (["bruno", "check"], ["trees", "2", "9", "3"], ["counterterms"]):
    assert lindbeam.cli.main(["--config", cfg, "--outdir", out, *argv]) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"sampling and the tree checks loaded {loaded[:5]}"
loaded = [m for m in ("numpy.random", "_hashlib") if m in sys.modules]
assert not loaded, f"sampling and the tree checks loaded {loaded}"
# scipy.integrate, which verify loads, imports numpy.random and _hashlib
assert lindbeam.cli.main(["--config", cfg, "--outdir", out, "verify"]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("scipy.stats"))
assert not loaded, f"verify loaded {loaded[:5]}"
"""


def test_construction_never_loads_scipy(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CFG.format(out=tmp_path / "out"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    env.pop("LINDBEAM_OUTDIR", None)
    # the cold interpreters run side by side
    procs = [subprocess.Popen([sys.executable, "-c", code, str(cfg), str(tmp_path / "sampled")],
                              env=env, cwd=tmp_path, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for code in (CONSTRUCT, ORACLE, SAMPLING)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert (tmp_path / "out" / "residual.csv").exists()
    assert (tmp_path / "sampled" / "bruno.csv").exists()
