"""Acceptance suite: one test per release criterion, tolerances pinned in-line.

Each test prints a single PASS line on success (run with -s to see them).
The tree/recursion grids follow the desk-scale contract: orders k <= 3,
|n| <= 4, m <= 9, spatial cutoff 9 (the equivalences are exact at any
truncation since both sides share it).
"""
import math
import warnings

import numpy as np
import pytest

from lindbeam.bruno import sample_diophantine_points
from lindbeam.checks import (
    cantor_scans as cantor_scan_ladder,
    counting_inequalities,
    family_grid,
    kernel_oracle,
    mass_measure,
    partition_of_unity,
    recursion_cases,
    tree_identity,
)
from lindbeam.diophantine import _cantor_exclusion_widths
from lindbeam.kernel import kernel_sum_probe
from lindbeam.series import (
    compute_coeffs,
    lambda_modes,
    order_consistency,
    residual_norm,
    solve_nu,
)
from lindbeam.spectrum import ModelParams, chi_h
from lindbeam.trees import renormalized_sum, sum_trees
from lindbeam.diophantine import check_cantor

TREE_P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.02, omega_branch=1,
                     Mmax=9, Nmax=60)
RES_P = ModelParams(a=1.0, b=0.5, mu=0.1, eps0=0.02, omega_branch=-1,
                    Mmax=64, Nmax=300)
GRID = family_grid((1, 2, 3), (1, 3, 5, 7, 9))    # |n| <= k + 1 <= 4

warnings.filterwarnings("ignore", message="convolution mass beyond")


def _report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def tree_points():
    return sample_diophantine_points(TREE_P, 20, seed=2024)


@pytest.fixture(scope="module")
def tables(tree_points):
    """Per-point shift tables and recursion tables shared by criteria 1-3."""
    return recursion_cases(TREE_P, tree_points, 3)


def test_criterion_01_tree_recursion_equivalence(tables):
    worst = tree_identity(sum_trees, TREE_P, tables, GRID)
    _report("1 tree/recursion equivalence", worst <= 1e-10,
            f"worst relative deviation {worst:.2e} over 20 points")


def test_criterion_02_renormalized_equivalence(tables):
    worst = tree_identity(renormalized_sum, TREE_P, tables, GRID)
    _report("2 renormalized equivalence", worst <= 1e-10,
            f"worst relative deviation {worst:.2e} over 20 points")


def test_criterion_03_support_reality_invariants(tables):
    violations = 0
    for eps, nu, q, lt, table in tables:
        try:
            table.check_invariants()
        except AssertionError:
            violations += 1
        for k in (1, 2, 3):
            arr = table.u[k]
            for i in range(arr.shape[0]):
                n = i - (k + 1)
                if abs(n) > k + 1 and arr[i].any():
                    violations += 1
                if not np.array_equal(arr[i], arr[arr.shape[0] - 1 - i]):
                    violations += 1
            if arr[:, 1::2].any():
                violations += 1
        if table.value(1, 1, 1) != 0.0 or table.value(2, -1, 1) != 0.0:
            violations += 1
    _report("3 support/reality invariants", violations == 0,
            f"{violations} violations across 20 tables")


def test_criterion_04_kernel_oracle():
    worst, parity = kernel_oracle(30, symmetric=True)
    _report("4 kernel oracle", worst <= 1e-10 and parity == 0,
            f"max quadrature deviation {worst:.2e}, parity zeros exact")


def test_criterion_05_kernel_sum_bound():
    base = kernel_sum_probe(1, 2000)
    worst_ratio = 0.0
    for m in range(1, 102, 2):
        r = m ** 3 * kernel_sum_probe(m, 2000) / base
        worst_ratio = max(worst_ratio, r)
    _report("5 kernel-sum bound", worst_ratio <= 10.0,
            f"max m^3 S(m) / S(1) = {worst_ratio:.3f} at Mmax=2000")


def test_criterion_06_counting_inequalities():
    pts = sample_diophantine_points(TREE_P, 100, seed=7)
    tallies = counting_inequalities(TREE_P, pts, GRID, special_modes=lambda_modes(TREE_P))
    total, violations, deep = map(sum, zip(*tallies.values()))
    _report("6 counting inequalities", violations == 0,
            f"{total} (tree, assignment, sample) checks, {violations} violations, "
            f"{deep} with a line at h >= 0")


def test_criterion_07_partition_of_unity():
    g = RES_P.gamma
    xs = np.geomspace(g * 2 ** -24, 100.0, 10_000)
    dev = partition_of_unity(g, xs, 28)
    # scale supports, exhaustively over the same grid
    support_ok = True
    for h in range(0, 12):
        vals = np.asarray(chi_h(xs, h, g))
        nz = xs[vals != 0.0]
        if nz.size and not (nz.min() >= 2.0 ** (-h - 1) * g - 1e-18
                            and nz.max() <= 2.0 ** (-h + 1) * g + 1e-18):
            support_ok = False
    _report("7 partition of unity", dev < 1e-12 and support_ok,
            f"max deviation {dev:.2e} on a 1e4 log grid")


def test_criterion_08_mass_measure():
    reps = {}
    for gam, rep in mass_measure(2.0 ** -6, 4.0, 10_000, 500):
        reps[gam] = rep
        if rep.excluded_with_tail > 6 * gam:
            _report("8 mass-set measure", False,
                    f"estimate {rep.excluded_with_tail:.3e} exceeds 6 gamma")
    ratios = [reps[g].excluded_measure / g for g in reps]
    linear = max(ratios) / min(ratios) <= 1.3
    _report("8 mass-set measure", linear,
            f"estimates/gamma = {[f'{r:.4f}' for r in ratios]}, "
            f"all within 6*gamma, spread {max(ratios)/min(ratios):.3f}")


CANTOR_P = RES_P.with_(eps0=0.35, nu_cap=0.45, Nmax=500)


@pytest.fixture(scope="module")
def cantor_scans():
    """Criterion 9's measure_cantor reports, one per window."""
    return cantor_scan_ladder(CANTOR_P, 0.08, 1000, K=2)


def test_criterion_09_cantor_trend(cantor_scans):
    rels = []
    for w, rep in cantor_scans:
        rels.append(rep.excluded_with_tail / w)
    ok = rels[0] > rels[1] > rels[2]
    _report("9 accepted-amplitude trend", ok,
            "relative excluded " + " > ".join(f"{r:.3e}" for r in rels))


def test_cantor_scan_rejections_lie_in_analytic_intervals(cantor_scans):
    # each grid-rejected eps must sit inside an analytic exclusion interval of
    # the family and mode that rejected it
    rejected = 0
    for w, rep in cantor_scans:
        intervals = _cantor_exclusion_widths(CANTOR_P, w)
        for eps, fam, at, margin, threshold in rep.worst["rejected"]:
            rejected += 1
            label = f"{fam} n={at[0]} m={at[1]}"
            assert any(tag == label and abs(eps - c) <= wd / 2 for c, wd, tag in intervals), \
                f"eps={eps!r} rejected by {fam} at {at} (margin {margin:.3e} against " \
                f"{threshold:.3e}) lies in no interval {label!r}"
    assert rejected >= 1


@pytest.fixture(scope="module")
def residual_decade():
    rows = []
    for eps in np.geomspace(4e-4, 4e-3, 9):
        eps = float(eps)
        nu, info = solve_nu(RES_P, eps, 2)
        if not check_cantor(eps, nu, RES_P):
            continue
        table = compute_coeffs(RES_P, eps, nu, info["counterterms"], 2, 64,
                               q=info["q"])
        rows.append((eps, nu, info, table))
    return rows


def test_criterion_10_residual_scaling(residual_decade):
    assert len(residual_decade) >= 8, "not enough accepted eps in the decade"
    pts = []
    worst_oc = 0.0
    for eps, nu, info, table in residual_decade:
        R = residual_norm(table, RES_P, eps, nu)
        worst_oc = max(worst_oc, order_consistency(table, RES_P, eps, nu,
                                                   info["counterterms"]))
        pts.append((math.log(eps), math.log(R)))
    slope = float(np.polyfit([a for a, _ in pts], [b for _, b in pts], 1)[0])
    ok = slope >= 1.7 and worst_oc <= 1e-10
    _report("10 residual scaling", ok,
            f"slope {slope:.3f} (target >= 1.7), order-consistency {worst_oc:.1e}")


def test_criterion_11_shift_fixed_point(residual_decade):
    ratios = []
    for eps, nu, info, table in residual_decade:
        assert info["converged"]
        ratios.append(nu.sup_norm() / eps)
    spread = max(ratios) / min(ratios)
    _report("11 shift fixed point", spread < 3.0,
            f"|nu|_inf/eps in [{min(ratios):.4f}, {max(ratios):.4f}], "
            f"spread {spread:.3f} over {len(ratios)} accepted eps")
