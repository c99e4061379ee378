"""The verification checks, each defined once: a function of its grid and
sample points returning the numbers compared with a threshold.  `lindbeam
verify`, `lindbeam bruno check`, `lindbeam dioph mass`/`measure` and the
acceptance suite call the same functions, each with its own grid and
threshold.  The cutoffs are those of the params; a caller that wants
coarser ones passes `params.with_(Mmax=..., Nmax=...)`."""
from __future__ import annotations

import warnings

import numpy as np

from .bruno import violations
from .diophantine import DiophReport, measure_cantor, measure_mass_complement
from .kernel import kernel_v, triple_sine_closed, triple_sine_quadrature
from .series import compute_coeffs, lambda_modes
from .spectrum import ModelParams, chi_h
from .trees import counterterm_table, family_table

__all__ = [
    "family_grid",
    "kernel_oracle",
    "partition_of_unity",
    "recursion_cases",
    "tree_identity",
    "counting_inequalities",
    "mass_measure",
    "cantor_scans",
]


def family_grid(orders, ms) -> list[tuple[int, int, int]]:
    """(k, n, m) for k in orders, |n| <= k + 1 and m in ms, but not (+-1, 1)."""
    return [(k, n, m) for k in orders for n in range(-(k + 1), k + 2) for m in ms
            if (abs(n), m) != (1, 1)]


def kernel_oracle(M: int, symmetric: bool = False) -> tuple[float, int]:
    """Max |quadrature - closed form| of the triple sine integral over
    m, m1, m2 <= M (m1 <= m2 only when symmetric), and the number of
    even-parity triples on which the kernel is not exactly zero."""
    worst, parity = 0.0, 0
    for m in range(1, M + 1):
        for m1 in range(1, M + 1):
            for m2 in range(m1 if symmetric else 1, M + 1):
                worst = max(worst, abs(triple_sine_quadrature(m, m1, m2)
                                       - triple_sine_closed(m, m1, m2)))
                if (m + m1 + m2) % 2 == 0 and kernel_v(m, m1, m2) != 0.0:
                    parity += 1
    return worst, parity


def partition_of_unity(gamma: float, xs: np.ndarray, H: int) -> float:
    """Max |chi_{-1} + chi_0 + ... + chi_H - 1| over the points of xs above
    the scale floor 2^-H gamma."""
    total = chi_h(xs, -1, gamma) + sum(chi_h(xs, h, gamma) for h in range(0, H + 1))
    return float(np.max(np.abs(total[xs > 2.0 ** -H * gamma] - 1.0)))


def recursion_cases(params: ModelParams, points, K: int) -> list:
    """(eps, nu, q, lt, table) per sample point: the order-2 shift table over
    the near-resonant modes within the params' cutoffs and the recursion up
    to order K at q = 0.8.  The tree identity holds at any amplitude and
    truncation, so the recursion's tail warning at a coarse cutoff is muted."""
    q = 0.8
    modes = lambda_modes(params)
    out = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="convolution mass beyond")
        for eps, nu in points:
            lt = counterterm_table(params, eps, nu, q, (2,), modes)
            out.append((eps, nu, q, lt, compute_coeffs(params, eps, nu, lt, K, params.Mmax, q=q)))
    return out


def tree_identity(expansion, params: ModelParams, cases, grid) -> float:
    """Worst |recursion - expansion| / max(1, |recursion|) over grid and the
    `recursion_cases`; expansion is `trees.sum_trees` or `renormalized_sum`."""
    worst = 0.0
    for eps, nu, q, lt, table in cases:
        for (k, n, m) in grid:
            want = table.value(k, n, m)
            got = expansion(k, n, m, params, eps, nu, q, lt)
            worst = max(worst, abs(want - got) / max(1.0, abs(want)))
    return worst


def counting_inequalities(params: ModelParams, points, grid, special_modes=()) -> dict:
    """[assignments, violations, assignments with a line at h >= 0] of the
    counting inequalities over the sample points: per order k over the
    families of grid, and under "special" over the order-2 special-end
    families at special_modes, read off each family's assignment table
    (`bruno.violations`)."""
    families = [(k, (k, n, m, False)) for (k, n, m) in grid]
    families += [("special", (2, n, m, True)) for (n, m) in special_modes]
    tallies = {key: [0, 0, 0] for key, _ in families}
    for eps, nu in points:
        for key, (k, n, m, special) in families:
            f, row_tree, labels = family_table(k, n, m, params, eps, nu, special)
            tallies[key][0] += len(labels)
            tallies[key][1] += len(violations(f, row_tree, labels, params))
            tallies[key][2] += int((labels.max(axis=1, initial=-1) >= 0).sum())
    return tallies


def mass_measure(gamma: float, tau0: float, grid: int, Nmax: int
                 ) -> list[tuple[float, DiophReport]]:
    """(gamma', excluded mass measure) at gamma' = gamma, gamma/2, gamma/4:
    the estimates should stay within 6 gamma' and scale linearly in it."""
    return [(g, measure_mass_complement(g, tau0, grid, Nmax))
            for g in (gamma, gamma / 2, gamma / 4)]


def cantor_scans(params: ModelParams, window: float, grid: int, K: int
                 ) -> list[tuple[float, DiophReport]]:
    """(w, accepted-amplitude scan of (0, w)) at w = window, window/4,
    window/16: the relative excluded measure should shrink with w."""
    return [(w, measure_cantor(params, w, grid, K=K))
            for w in (window, window / 4, window / 16)]
