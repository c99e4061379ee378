"""Counting inequalities for small-divisor lines in labeled trees.

For any admissible scale assignment of a renormalized tree at a point
satisfying the non-resonance conditions, the number N_h of lines at scale
>= h is controlled by the number K of non-resonant propagator lines:

    N_h <= max(0, 2 K 2^{(2-h)/tau} - 1) + S_h + M_h          (trees)
    N_h <= 2 (K-1) 2^{(2-h)/tau} + S_h + M_h                  (special-end trees)

with S_h the resonances whose exit line sits at scale h and M_h the unary
nodes whose exit line sits at scale h.  These are verified, never assumed: a
counterexample aborts with a full tree dump.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .spectrum import ModelParams, NuTable, mode_set
from .trees import Tree, _active, _Family, admissible_assignments, dump_tree

__all__ = [
    "admissible_scales",
    "violations",
    "check_bruno",
    "check_bruno_r",
    "BrunoViolation",
    "sample_diophantine_points",
]


class BrunoViolation(AssertionError):
    """A counting inequality failed; carries the offending tree dump."""


def admissible_scales(tree: Tree, params: ModelParams, eps: float,
                      nu: NuTable | None) -> list[dict]:
    """Scale assignments compatible with the cutoff supports at (eps, nu).

    Wrapper with the renormalized (shifted-path) supports switched on; empty
    when a divisor falls below the 2^-h_max floor.
    """
    return admissible_assignments(tree, params, eps, nu, renormalize=True)


def violations(f: _Family, row_tree: np.ndarray, labels: np.ndarray,
               params: ModelParams) -> list[tuple[int, int, int, float, int]]:
    """(row, h, N_h, rhs, K) of each row of a family's assignment table that
    fails its counting inequality, at its first failing scale h >= 0:
    N_h > rhs = bound(K, 2^((2-h)/tau)) + S_h + M_h, with the special-end
    bound on a special-end family.  row_tree and labels give each row's tree
    and line scales (`trees.family_table`); a row with every line at -1 has
    nothing to count.  S_h counts the active resonances (`trees._active`)
    whose exit line sits at scale h, M_h the unary nodes whose exit line
    does, and K the lines that exit neither."""
    out = []
    deep = np.flatnonzero(labels.max(axis=1, initial=-1) >= 0)
    for r, t in zip(deep.tolist(), row_tree[deep].tolist()):
        lines = f.lines(t).tolist()
        hs = labels[r, :len(lines)].tolist()
        h = f.scales(t, lines, hs)
        exits, unary = [o for o, _ in _active(f, t, h)], f.unary(t)
        S, M = Counter(h[o] for o in exits), Counter(h[i] for i in unary)
        K = len(set(lines).difference(exits, unary))
        for hh in range(0, max(hs) + 1):
            s = 2 ** ((2 - hh) / params.tau)
            bound = 2 * max(K - 1, 0) * s if f.is_rtree else max(0.0, 2 * K * s - 1)
            lhs, rhs = sum(x >= hh for x in hs), bound + S[hh] + M[hh]
            if lhs > rhs + 1e-12:
                out.append((r, hh, lhs, rhs, K))
                break
    return out


def _check(tree: Tree, asg: dict, params: ModelParams, raise_on_fail: bool) -> bool:
    """The verdict of `violations` on the assignment's table row."""
    f, t = tree._fam, tree._t
    row = np.array([[asg.get(i, -1) for i in f.lines(t).tolist()]])
    for _, h, lhs, rhs, K in violations(f, np.array([t]), row, params):
        if raise_on_fail:
            raise BrunoViolation(f"N_{h} = {lhs} > {rhs:.3f} (K={K})\n" + dump_tree(tree, asg))
        return False
    return True


def check_bruno(tree: Tree, asg: dict, params: ModelParams,
                raise_on_fail: bool = True) -> bool:
    """Counting inequality for ordinary trees at one assignment; one with no
    line at a scale h >= 0 has nothing to count."""
    return max(asg.values(), default=-1) < 0 or _check(tree, asg, params, raise_on_fail)


def check_bruno_r(tree: Tree, asg: dict, params: ModelParams,
                  raise_on_fail: bool = True) -> bool:
    """Counting inequality for special-end trees at one assignment.

    Path lines carry the on-shell-shifted divisors; the admissible assignment
    machinery already labels them accordingly.
    """
    if not tree.is_rtree:
        raise ValueError("check_bruno_r expects a special-end tree")
    return max(asg.values(), default=-1) < 0 or _check(tree, asg, params, raise_on_fail)


def sample_diophantine_points(params: ModelParams, count: int, seed: int = 0,
                              max_draws: int = 4000) -> list[tuple[float, NuTable]]:
    """Low-discrepancy (eps, nu) samples passing the shifted-frequency checks.

    Scrambled Sobol points (`sobol.Sobol`, equal to scipy's
    `qmc.Sobol(d, scramble=True, seed=seed)`) in the box
    (0, eps0) x (-c eps0, c eps0)^modes, one dimension for eps and one per
    mode of the ModeSet of the params' cutoffs, drawn in blocks of 32 and
    filtered through the Melnikov margins at the model's gamma and tau.
    Raises ValueError when the ModeSet needs more than `sobol.MAXDIM` dimensions, or when fewer
    than `count` points pass within `max_draws` draws.
    """
    from .diophantine import check_melnikov
    from .sobol import Sobol

    ms = mode_set(params.mu, params.eps0, params.Mmax, params.Nmax)
    eng = Sobol(1 + len(ms), seed)
    out = []
    draws = 0
    cap = params.nu_cap * params.eps0 * 0.999
    while len(out) < count and draws < max_draws:
        block = eng.random(32)
        draws += 32
        for row in block:
            eps = float(row[0]) * params.eps0
            if not 1e-8 < eps < params.eps0:
                continue
            nu = ms.nu_table((2.0 * row[1:] - 1.0) * cap)
            if check_melnikov(eps, nu, params):
                out.append((eps, nu))
                if len(out) >= count:
                    break
    if len(out) < count:
        raise ValueError(f"only {len(out)} of {count} Diophantine samples after {draws} draws")
    return out
