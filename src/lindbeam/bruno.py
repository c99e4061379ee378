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

from dataclasses import dataclass, field

from .spectrum import ModelParams, NuTable, mode_set
from .trees import Tree, _active, admissible_assignments, dump_tree

__all__ = [
    "ScaleProfile",
    "admissible_scales",
    "profile",
    "check_bruno",
    "check_bruno_r",
    "BrunoViolation",
    "sample_diophantine_points",
]


class BrunoViolation(AssertionError):
    """A counting inequality failed; carries the offending tree dump."""


@dataclass
class ScaleProfile:
    N: dict = field(default_factory=dict)    # h -> lines with scale >= h
    S: dict = field(default_factory=dict)    # h -> resonances exiting at h
    M: dict = field(default_factory=dict)    # h -> unary nodes exiting at h
    K: int = 0                               # non-resonant propagator lines
    n_lines: int = 0
    h_max: int = -1
    # lines at exactly scale h (N is its upper cumulative)
    shell: dict = field(default_factory=dict)


def admissible_scales(tree: Tree, params: ModelParams, eps: float,
                      nu: NuTable | None) -> list[dict]:
    """Scale assignments compatible with the cutoff supports at (eps, nu).

    Wrapper with the renormalized (shifted-path) supports switched on; empty
    when a divisor falls below the 2^-h_max floor.
    """
    return admissible_assignments(tree, params, eps, nu, renormalize=True)


def profile(tree: Tree, asg: dict) -> ScaleProfile:
    """Exact scale counts of one assignment.

    Resonant lines are the exit lines of active resonance blocks and of unary
    nodes; K counts the remaining propagator lines.  Reads the tree's rows.
    """
    f, t = tree._compiled()
    h = tree._scales(asg)
    prop = f.lines(t)
    shell: dict[int, int] = {}
    for i in prop:
        shell[h[i]] = shell.get(h[i], 0) + 1
    resonant_ids = set()
    S: dict[int, int] = {}
    for (o, _i) in _active(f, t, h):
        resonant_ids.add(o)
        S[h[o]] = S.get(h[o], 0) + 1
    M: dict[int, int] = {}
    for i in f.unary(t):
        resonant_ids.add(i)
        M[h[i]] = M.get(h[i], 0) + 1
    K = sum(1 for i in prop if i not in resonant_ids)
    p = ScaleProfile(S=S, M=M, K=K, n_lines=len(prop),
                     h_max=max(shell, default=-1), shell=shell)
    p.N = {h: sum(c for hh, c in shell.items() if hh >= h)
           for h in range(0, max(shell, default=-1) + 1)}
    return p


def _count(tree: Tree, asg: dict, params: ModelParams, raise_on_fail: bool, bound) -> bool:
    """Check N_h <= bound(K, 2^((2-h)/tau)) + S_h + M_h at every scale h."""
    if max(asg.values(), default=-1) < 0:
        return True     # no line at a scale h >= 0: nothing to count
    p = profile(tree, asg)
    for h in range(0, p.h_max + 1):
        lhs = p.N.get(h, 0)
        rhs = bound(p.K, 2 ** ((2 - h) / params.tau)) + p.S.get(h, 0) + p.M.get(h, 0)
        if lhs > rhs + 1e-12:
            if raise_on_fail:
                raise BrunoViolation(
                    f"N_{h} = {lhs} > {rhs:.3f} (K={p.K})\n" + dump_tree(tree, asg))
            return False
    return True


def check_bruno(tree: Tree, asg: dict, params: ModelParams,
                raise_on_fail: bool = True) -> bool:
    """Counting inequality for ordinary trees at one assignment."""
    return _count(tree, asg, params, raise_on_fail, lambda K, s: max(0.0, 2 * K * s - 1))


def check_bruno_r(tree: Tree, asg: dict, params: ModelParams,
                  raise_on_fail: bool = True) -> bool:
    """Counting inequality for special-end trees at one assignment.

    Path lines carry the on-shell-shifted divisors; the admissible assignment
    machinery already labels them accordingly.
    """
    if not tree.is_rtree:
        raise ValueError("check_bruno_r expects a special-end tree")
    return _count(tree, asg, params, raise_on_fail, lambda K, s: 2 * max(K - 1, 0) * s)


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
