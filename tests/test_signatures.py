"""Every parameter of a public lindbeam function is read by its body.

Public means a top-level function, or a method of a public class, of a
module in src/lindbeam whose name does not start with "_".  A parameter that
the body never reads is an input the caller believes matters and the
function ignores.
"""
import ast
from pathlib import Path

from test_bench_contract import WORKER_CALLS

SRC = Path(__file__).resolve().parents[1] / "src" / "lindbeam"

# the parameters left unread on purpose, per (module, function), with the reason
ALLOWED = {
    # cli.main calls every subcommand as command(params, run, ...)
    ("cli", "cmd_*"): ("params", "run"),
    # bench/worker.py passes summary_json its params by position
    ("series", "summary_json"): ("params",),
}


def _public_functions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _unread(fn):
    a = fn.args
    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
    read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [p for p in params if p not in read]


def _allowed(mod, name, param):
    key = (mod, "cmd_*" if mod == "cli" and name.startswith("cmd_") else name)
    return param in ALLOWED.get(key, ())


def test_no_public_function_has_an_unread_parameter():
    unread = [f"{path.stem}.{name}({param})"
              for path in sorted(SRC.glob("*.py"))
              for name, fn in _public_functions(ast.parse(path.read_text()))
              for param in _unread(fn) if not _allowed(path.stem, name, param)]
    assert not unread, unread


def _sites(pred):
    """(module, enclosing function) of every node of src/lindbeam pred holds for."""
    out = []

    def visit(node, mod, where):
        if pred(node):
            out.append((mod, where))
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, mod, f"{where}.{child.name}".lstrip(".") if named else where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return out


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)


def test_one_definition_of_the_shifted_divisor():
    # omega_m^2 = m^4 + mu is written once, and only spectrum rejects omega~^2 <= 0
    fourth = _sites(lambda n: isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                    and isinstance(n.right, ast.Constant) and n.right.value == 4)
    assert fourth == [("spectrum", "omega_sq")]
    raised = _sites(lambda n: isinstance(n, ast.Raise) and n.exc is not None
                    and _raised_name(n) == "DegenerateRadicandError")
    assert raised and {mod for mod, _ in raised} == {"spectrum"}, raised


# ModelParams is where a caller sets the cutoffs and the nu box.  Mmax/Nmax
# stay a parameter only where bench/worker.py passes them by position, where
# bench/layers.py reads quad_conv's, and in the mass scan, which sweeps mu
# itself and takes no params.
CUTOFFS = {"Mmax", "Nmax"}
CUTOFFS_ALLOWED = {name for name, passed in WORKER_CALLS.items() if CUTOFFS & set(passed)} | {
    "series.quad_conv", "checks.mass_measure"}
NU_BOX = {"eps0", "nu_cap"}


def _names(fn):
    a = fn.args
    return {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}


def _methods(tree, cls):
    node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return {sub.name: sub for sub in node.body if isinstance(sub, ast.FunctionDef)}


def test_cutoffs_and_the_nu_box_come_from_model_params():
    taken = [f"{mod}.{name}({', '.join(sorted(_names(fn) & CUTOFFS))})"
             for mod in ("series", "trees", "checks")
             for name, fn in _public_functions(ast.parse((SRC / f"{mod}.py").read_text()))
             if _names(fn) & CUTOFFS and f"{mod}.{name}" not in CUTOFFS_ALLOWED]
    spectrum = ast.parse((SRC / "spectrum.py").read_text())
    taken += [f"spectrum.{cls}.{name}({', '.join(sorted(_names(fn) & NU_BOX))})"
              for cls, name in (("NuTable", "__init__"), ("ModeSet", "nu_table"))
              for fn in [_methods(spectrum, cls)[name]] if _names(fn) & NU_BOX]
    assert not taken, taken


def test_one_counting_route():
    # the counting inequality reads assignment tables (`bruno.violations`);
    # the per-assignment route lives on only as the oracle in tests/oracles.py
    retired = {"profile", "ScaleProfile", "family_assignments"}
    defined = _sites(lambda n: getattr(n, "name", None) in retired
                     or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                         and n.id in retired))
    assert not defined, defined


def _reads_numpy_random(node):
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or (
            module == "numpy" and any(a.name == "random" for a in node.names))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.random") for a in node.names)
    return False


def test_no_module_reads_numpy_random():
    # the Sobol scrambling bits come from `sobol._random_bits`; numpy.random,
    # whose import also loads hashlib and OpenSSL, is a test oracle only
    found = _sites(_reads_numpy_random)
    assert not found, found


def test_one_row_layout_for_every_tree_table():
    # a table's rows, one per tree or several, read the family's compiled
    # layout through `trees._laid`: no fork builds one-row tables apart,
    # and no per-node derivation of the layout is left in `trees`
    tree = ast.parse((SRC / "trees.py").read_text())
    retired = {"_one_row", "_expanded", "_node_rows", "_line_slots"}
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not defined & retired, defined & retired
    table = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Table")
    slots = next(s.value for s in table.body if isinstance(s, ast.Assign)
                 and any(getattr(t, "id", None) == "__slots__" for t in s.targets))
    assert "one" not in ast.literal_eval(slots)
    blocks = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_blocks")
    assert "one" not in _names(blocks)
