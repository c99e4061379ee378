"""Recursive tree evaluation and literal structure detectors: the oracles of
the array evaluation in `lindbeam.trees`.

A tree's nodes as objects (`TNode`): `nodes` builds them from a compiled
tree's rows, children in `_Family.kids` order, and `hand_tree` compiles a
tree the tests build by hand from TNodes into a one-tree family.  The
localization rule node by node: `_repeats`, whether a node of a block
(`_block`) other than its exit node has the entering mode, which
`trees._clean` reads off two row slices; `l_conditions` is the oracle's
own l-condition on it.

Then a point's divisor data one mode at a time (`mode`, `shifted`,
`propagator`), the scalar route that the arrays of `trees._Modes` are
checked against bit for bit.

`_region` evaluates a tree node by node from a given top, pricing the lines
on the path of a localized block at the block's entering frequency and
renormalizing the active resonance blocks it meets on the way down, one
exit node at a time.  `_renormalized_value`, `_lval_rtree`,
`localize_split` and `extended_value` are built on it.  The detectors find
clusters and resonances from a tree's scale assignment alone, independently
of the structural candidates the compiled families store.  Last, the tree
walks and the scale-h propagator slice that only the tests read, with the
per-tree walk of the renormalized supports, the block walks and clean
flags that `_Family` compiles in its candidate walk (`_block_walks`,
`clean`), the per-assignment counting
route (`profile`, `_count`) that `bruno.violations` is tested on, and the
per-m scan of the Melnikov margins (`_melnikov_oracle`), the mass
conditions as one closure each with a bisection per closure
(`mass_margins_oracle`, `mass_exclusion_intervals_oracle`), and the per-node
derivation of a table's row layout (`_node_rows`, `_line_slots`,
`_layout`) that `trees._laid` is checked against.  Last, the cubic
coefficient's rows rebuilt per call (`cubic_rows`), which the rows that
`series._closed_rows` keeps per ModeSet are checked against, and the
dyadic cutoffs one float at a time (`scalar_chi_h`), which
`spectrum.chi_h` is checked against.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from lindbeam.bruno import BrunoViolation
from lindbeam.diophantine import MU_MAX, _mstar_single
from lindbeam.series import _beta
from lindbeam.kernel import kernel_v
from lindbeam.spectrum import (
    ModelParams,
    NuTable,
    ResonantDivisorError,
    admissible_h_for,
    chi_h,
    in_lambda,
    omega,
    omega_eff,
    omega_sq,
    propagator_row,
    x_divisor,
)
from lindbeam.spectrum import propagator as plain_propagator
from lindbeam.trees import (
    _KINDS,
    _TTYPES,
    A,
    B,
    END,
    SPECIAL,
    EvalCtx,
    Tree,
    _active,
    _Columns,
    _Family,
    _ranges,
    dump_tree,
    tree_value,
)


# ---------------------------------------------------------------------------
# a tree's nodes as objects, and hand-built trees

@dataclass
class TNode:
    nid: int
    kind: str                 # 'end' | 'special' | 'node'
    ttype: str                # 'a' | 'b' | ''
    sv: int                   # 0 ends, 1 unary, 2 binary
    kv: int                   # order carried by the node
    n: int                    # temporal momentum of the exiting line
    m: int                    # spatial label of the exiting line
    children: tuple = ()


_NODES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()     # per family, per tree


def nodes(tree: Tree) -> list[TNode]:
    """The tree's nodes in node-id order, built from its family's rows with
    children in `_Family.kids` order; built once per (family, index), so a
    node is the same object on every call."""
    f, t = tree._fam, tree._t
    built = _NODES.setdefault(f, {})
    if t not in built:
        s = f.start[t]
        out = [TNode(i, _KINDS[f.kind[r]], _TTYPES[f.ttype[r]], f.sv[r], f.kv[r], f.n[r], f.m[r])
               for i, r in enumerate(range(s, f.start[t + 1]))]
        for i, nd in enumerate(out):
            nd.children = tuple(out[c] for c in f.kids(s, i))
        built[t] = out
    return built[t]


def special(tree: Tree) -> TNode | None:
    """The tree's special end node, or None."""
    e = tree._fam.special[tree._t]
    return nodes(tree)[e] if e >= 0 else None


def _key(nd: TNode) -> tuple:
    """The key tuple of a TNode tree (`trees._unrank`), children in the
    TNode's order."""
    return (nd.kind, nd.ttype, nd.sv, nd.kv, nd.n, nd.m, tuple(_key(c) for c in nd.children))


def hand_tree(root: TNode, k: int, n: int, m: int, mult: int = 1,
              is_rtree: bool = False) -> Tree:
    """A hand-built tree as the view of a one-tree family, its TNodes
    numbered in node-id order (depth first, last child first) as the
    family numbers its rows."""
    stack, nid = [root], 0
    while stack:
        nd = stack.pop()
        nd.nid, nid = nid, nid + 1
        stack.extend(nd.children)
    return Tree(_Family([(_key(root), mult)], k, n, m, is_rtree), 0)


def _block(f: _Family, s: int, o: int, i: int) -> list[int]:
    """Ids of the resonance block (o, i) of the tree at rows s..:
    subtree(o) without subtree(i)."""
    stop = i + f.size[s + i]
    return [j for j in range(o, o + f.size[s + o]) if not i <= j < stop]


def _repeats(f: _Family, s: int, o: int, i: int) -> bool:
    """Whether a node of block (o, i) of the tree at rows s.., other than
    the exit node, has the entering mode."""
    mi = f.mode[s + i]
    return any(f.mode[s + j] == mi for j in _block(f, s, o, i) if j != o)


def l_conditions(f: _Family, s: int, o: int, i: int, pt) -> bool:
    """On-shell subtraction of block (o, i) applies only when its entering
    mode is in the near-resonant zone and no other node of the block
    repeats it (`_repeats`)."""
    return bool(in_lambda(f.n[s + i], f.m[s + i], pt.params)) and not _repeats(f, s, o, i)


# ---------------------------------------------------------------------------
# a point's divisor data one mode at a time: the scalar route that the
# arrays of `trees._Modes` are checked against bit for bit

class Mode:
    """Divisor data of one mode (n, m) at one point; root and bar are None
    when omega_m^2 + n nu <= 0; prop holds the cutoff propagator at the
    natural frequency per scale label once asked for."""

    def __init__(self, pt, n: int, m: int):
        p = pt.params
        self.n, self.m, self.prop = n, m, {}
        self.omt2 = omega_sq(m, p.mu) + abs(n) * pt._nu.get((abs(n), m), 0.0)
        self.lam = in_lambda(n, m, p)
        if self.omt2 > 0:
            self.root = math.sqrt(self.omt2)
            self.hs = admissible_h_for(abs(pt.Om * n) - self.root, p.gamma, p.h_max)
            self.bar = math.copysign(self.root, n)
        else:
            self.root = self.bar = None
            self.hs = []


_SCALAR: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()     # per point


def mode(pt, n: int, m: int) -> Mode:
    """The divisor data of mode (n, m) at point pt (`trees._Point`)."""
    modes = _SCALAR.setdefault(pt, {})
    md = modes.get((n, m))
    if md is None:
        md = modes[(n, m)] = Mode(pt, n, m)
    return md


def modes_of(pt, f: _Family) -> list:
    """The divisor data of a family's modes, indexed like its mode rows."""
    return [mode(pt, n, m) for (n, m) in f.modes]


def shifted(pt, line: Mode, anchor: Mode) -> list:
    """Labels of a line on the path of a block localized at anchor."""
    return admissible_h_for(abs(path_freq(pt, line, anchor, True)) - line.root,
                            pt.params.gamma, pt.params.h_max)


def path_freq(pt, line: Mode, anchor: Mode, on_shell: bool) -> float:
    """Frequency of a line on the path of a block whose entering line has
    mode anchor: Omega (n_line - n_anchor) + f_in, f_in the entering
    frequency, on shell (omega_bar) or natural (Omega n_anchor)."""
    if on_shell and anchor.bar is None:
        raise ValueError("degenerate radicand in localization point")
    f_in = anchor.bar if on_shell else pt.Om * anchor.n
    return pt.Om * (line.n - anchor.n) + f_in


def propagator(pt, md: Mode, h: int, freq: float | None = None) -> float:
    """Cutoff propagator chi_h(|freq| - omega~) / (omega~^2 - freq^2) of mode
    md; freq None is the natural frequency Omega n.  An exact resonance
    raises ResonantDivisorError, as spectrum.propagator."""
    if freq is None:
        val = md.prop.get(h)
        if val is None:
            val = md.prop[h] = propagator(pt, md, h, pt.Om * md.n)
        return val
    denom = -freq * freq + md.omt2
    if denom == 0.0:
        raise ResonantDivisorError(f"resonant line at mode {(md.n, md.m)}")
    return float(chi_h(abs(freq) - math.sqrt(md.omt2), h, pt.params.gamma)) / denom


def _omega_bar(ctx: EvalCtx, n: int, m: int) -> float:
    bar = mode(ctx.point, n, m).bar
    if bar is None:
        raise ValueError("degenerate radicand in localization point")
    return bar


def _line_weights(f: _Family, ctx: EvalCtx):
    """line(r, h, freq, enters_b): the factor carried by the line exiting row
    r at scale h and frequency freq (None: the natural Omega n), enters_b
    when it enters a b-type node."""
    kind, n, m, par, mode, rtree = f.kind, f.n, f.m, f.par, f.mode, f.is_rtree
    modes, price = modes_of(ctx.point, f), partial(propagator, ctx.point)

    def line(r: int, h: int, freq: float | None, enters_b: bool) -> float:
        k, nc = kind[r], n[r]
        if k == SPECIAL or (k == END and abs(nc) == 1 and m[r] == 1):
            return float(nc) if enters_b else 1.0
        if rtree and par[r] < 0:
            return 1.0      # unit root line of a special-end tree
        val = price(modes[mode[r]], h, freq)
        return nc * val if enters_b else val

    return line


def _node_factor(f: _Family, s: int, i: int, h: list, ctx: EvalCtx) -> float:
    r = s + i
    kind = f.kind[r]
    if kind == END:
        return ctx.q
    if kind == SPECIAL:
        return 1.0 / f.m[r] ** 3
    if f.sv[r] == 1:
        # the unit root line of a special-end tree: use the entering scale
        hh = h[i + 1] if f.is_rtree and i == 0 else h[i]
        return f.n[r] * ctx.l_value(f.kv[r], f.n[r], f.m[r], hh)
    # binary interaction node
    c1, c2 = f.kids(s, i)
    v = kernel_v(f.m[r], f.m[s + c1], f.m[s + c2])
    if f.ttype[r] == A:
        return ctx.params.a * v
    return -ctx.params.b * ctx.point.Om ** 2 * v


def _region(f: _Family, s: int, top: int, excl: int, f_in: float | None, h: list,
            ctx: EvalCtx, active: list) -> float:
    """Value of subtree(top) minus subtree(excl), excluding top's own line.

    Lines on the path excl -> top are evaluated at frequency
    Om*(n_l - n_in) + f_in; every other line at its natural frequency.  The
    entering line's integer b-weight is kept with the block; its propagator
    belongs to the subtree below and is attached by the caller.  Active
    resonance blocks strictly inside get the on-shell subtraction.  Node ids
    are those of the tree whose rows start at s; excl = -1 for no region.
    """
    Om = ctx.point.Om
    line = _line_weights(f, ctx)
    n_in = f.n[s + excl] if excl >= 0 else 0
    path_ids = set()
    if excl >= 0:
        cur = f.par[s + excl]
        while cur >= 0 and cur != top:
            path_ids.add(cur)
            cur = f.par[s + cur]
        path_ids.add(top)

    def freq_of(i: int) -> float:
        if excl >= 0 and (i in path_ids or i == excl):
            return Om * (f.n[s + i] - n_in) + f_in
        return Om * f.n[s + i]

    def contains(a: int, b: int) -> bool:
        return a <= b < a + f.size[s + a]

    def eval_from(w: int) -> float:
        """Value hanging at node w (without w's exiting-line propagator),
        renormalizing the deepest active block that exits through w's line."""
        cand = None
        for (o, i) in active:
            if o != w:
                continue
            if excl >= 0 and contains(o, excl):
                continue  # block would straddle the current region boundary
            if cand is None or contains(cand[1], i):
                cand = (o, i)   # deepest entering line = biggest block
        if cand is None:
            return eval_plain(w)
        o, i = cand
        rest = [c for c in active if c != cand]
        block_x = _region(f, s, o, i, freq_of(i), h, ctx, rest)
        sub = 0.0
        if l_conditions(f, s, o, i, ctx.point):
            sub = _region(f, s, o, i, _omega_bar(ctx, f.n[s + i], f.m[s + i]), h, ctx, rest)
        if f.kind[s + i] == SPECIAL:
            entering = 1.0
        else:
            md = mode(ctx.point, f.n[s + i], f.m[s + i])
            entering = propagator(ctx.point, md, h[i], freq_of(i))
        if entering == 0.0 or block_x == sub:
            return 0.0
        return (block_x - sub) * entering * eval_from(i)

    def eval_plain(w: int) -> float:
        val = _node_factor(f, s, w, h, ctx)
        if val == 0.0:
            return 0.0
        enters_b = f.ttype[s + w] == B
        for c in f.kids(s, w):
            if c == excl:
                # entering line of the region: only its integer weight stays
                if enters_b:
                    val *= f.n[s + c]
                continue
            lf = line(s + c, h[c], freq_of(c), enters_b)
            if lf == 0.0:
                return 0.0
            val *= lf * eval_from(c)
            if val == 0.0:
                return 0.0
        return val

    return eval_from(top)


def _renormalized_value(f: _Family, t: int, h: list, ctx: EvalCtx, active: list) -> float:
    """Value of tree t with its active blocks renormalized (active nonempty)."""
    s = f.start[t]
    rootf = _line_weights(f, ctx)(s, h[0], None, False)
    if rootf == 0.0:
        return 0.0
    return rootf * _region(f, s, 0, -1, None, h, ctx, active)


def _lval_rtree(f: _Family, t: int, h: list, ctx: EvalCtx, renormalize: bool) -> float:
    """Localized value of a special-end tree: path frequencies anchored on-shell,
    active blocks off the path renormalized when renormalize is set.

    The entering b-weight (the special line's integer factor) is attached by
    the region evaluation; the unit root line contributes nothing.
    """
    s, e = f.start[t], f.special[t]
    if not l_conditions(f, s, 0, e, ctx.point):
        return 0.0
    xbar = _omega_bar(ctx, f.n[s + e], f.m[s + e])
    active = _active(f, t, h) if renormalize else []
    active = [c for c in active if c[1] != e and c[0] != 0]
    block = _region(f, s, 0, e, xbar, h, ctx, active)
    return block * _node_factor(f, s, e, h, ctx)


# ---------------------------------------------------------------------------
# clusters, resonances, localization (literal structure detectors)

@dataclass
class Cluster:
    h: int
    node_ids: frozenset
    entering: list          # nodes whose exiting line enters the cluster
    exiting: TNode | None   # node whose exiting line leaves the cluster
    resonant: bool = False


def _candidates(tree: Tree) -> list[tuple]:
    """Structural resonance candidates (out_node, in_node) as TNodes.

    in_node's exiting line enters the block; out_node's exiting line leaves
    it with the same mode label.  The block must contain more than one node.
    """
    f, t = tree._fam, tree._t
    return [(nodes(tree)[o], nodes(tree)[i]) for (o, i) in f.cands(t)]


def parents(tree: Tree) -> dict:
    """Each node id's parent TNode (None at the root), read off the children."""
    up = {nd.nid: None for nd in nodes(tree)}
    up.update((c.nid, nd) for nd in nodes(tree) for c in nd.children)
    return up


def detect_clusters(tree: Tree, asg: dict) -> list[Cluster]:
    """Maximal connected node sets linked by lines of scale <= h, per h."""
    up = parents(tree)
    scales = sorted({asg.get(nd.nid, -1) for nd in nodes(tree) if up[nd.nid] is not None})
    clusters: list[Cluster] = []
    seen = set()
    for h in scales:
        par = {nd.nid: nd.nid for nd in nodes(tree)}

        def find(x):
            while par[x] != x:
                par[x] = par[par[x]]
                x = par[x]
            return x

        for nd in nodes(tree):
            p = up[nd.nid]
            if p is not None and asg.get(nd.nid, -1) <= h:
                par[find(nd.nid)] = find(p.nid)
        comps: dict[int, set] = {}
        for nd in nodes(tree):
            comps.setdefault(find(nd.nid), set()).add(nd.nid)
        for ids in comps.values():
            fs = frozenset(ids)
            if fs in seen:
                continue
            # require an internal line at exactly this scale
            internal_at_h = any(
                asg.get(nd.nid, -1) == h
                for nd in nodes(tree)
                if nd.nid in ids and up[nd.nid] is not None and up[nd.nid].nid in ids)
            if not internal_at_h and len(ids) > 1:
                continue
            if len(ids) == 1 and h != min(scales):
                continue
            seen.add(fs)
            entering = [nd for nd in nodes(tree)
                        if nd.nid not in ids and up[nd.nid] is not None
                        and up[nd.nid].nid in ids]
            exiting = None
            for nd in nodes(tree):
                if nd.nid in ids:
                    p = up[nd.nid]
                    if p is None or p.nid not in ids:
                        exiting = nd
            clusters.append(Cluster(h=h, node_ids=fs, entering=entering,
                                    exiting=exiting))
    return clusters


def detect_resonances(tree: Tree, asg: dict) -> list[Cluster]:
    """Clusters with one entering line matching the exiting mode label."""
    out = []
    for cl in detect_clusters(tree, asg):
        if len(cl.node_ids) <= 1 or len(cl.entering) != 1 or cl.exiting is None:
            continue
        i, o = cl.entering[0], cl.exiting
        if (i.n, i.m) == (o.n, o.m):
            cl.resonant = True
            out.append(cl)
    return out


def localize_split(tree: Tree, out_nd: TNode, in_nd: TNode, asg: dict,
                   params: ModelParams, eps: float, nu: NuTable | None,
                   q: float, counterterms=None, x: float | None = None
                   ) -> tuple[float, float]:
    """(on-shell part, remainder) of a resonance block evaluated at x.

    x defaults to the physical frequency Om * n of the entering line; the
    on-shell part is zero when the localization conditions fail.
    """
    ctx = EvalCtx(params, eps, nu, q, counterterms, renormalize=True)
    f, t = tree._fam, tree._t
    s, h, o, i = f.start[t], tree._scales(asg), out_nd.nid, in_nd.nid
    if x is None:
        x = ctx.point.Om * in_nd.n
    full = _region(f, s, o, i, x, h, ctx, [])
    if not l_conditions(f, s, o, i, ctx.point):
        return 0.0, full
    loc = _region(f, s, o, i, _omega_bar(ctx, in_nd.n, in_nd.m), h, ctx, [])
    return loc, full - loc


def resonance_to_rtree(tree: Tree, out_nd: TNode, in_nd: TNode) -> Tree:
    """Replace the subtree entering a resonance by the special end node."""

    def rebuild(w: TNode) -> TNode:
        if w is in_nd:
            return TNode(0, "special", "", 0, 0, w.n, w.m)
        return TNode(0, w.kind, w.ttype, w.sv, w.kv, w.n, w.m,
                     tuple(rebuild(c) for c in w.children))

    f, t = tree._fam, tree._t
    s = f.start[t]
    k = sum(f.kv[s + j] for j in _block(f, s, out_nd.nid, in_nd.nid))
    return hand_tree(rebuild(out_nd), k, in_nd.n, in_nd.m, is_rtree=True)


def extended_value(tree: Tree, asg: dict, params: ModelParams, eps: float,
                   nu: NuTable | None, q: float, counterterms=None,
                   gamma: float | None = None, tau: float | None = None) -> float:
    """Tree value multiplied by the smooth non-resonance cutoffs.

    Single-line cutoffs act on |x_l| |n_l|^tau for lines off the special-end
    path; pair cutoffs act on the four sign combinations of the two-frequency
    divisors for line pairs on the same side of the path.  Equals the plain
    (localized) value where every argument clears 2*gamma and vanishes where
    one falls below gamma.
    """
    from lindbeam.spectrum import chi as chi_plain

    gamma = gamma if gamma is not None else params.gamma
    tau = tau if tau is not None else params.tau
    # special-end trees read the shift table by scale, without renormalizing
    # the blocks inside
    ctx = EvalCtx(params, eps, nu, q, counterterms, renormalize=tree.is_rtree)
    Om = ctx.point.Om
    if tree.is_rtree:
        f, t = tree._fam, tree._t
        base = _lval_rtree(f, t, tree._scales(asg), ctx, False)
        path_ids = {nd.nid for nd in path_to_root(tree, special(tree))}
        path_ids.add(special(tree).nid)
    else:
        base = tree_value(tree, asg, params, eps, nu, q, counterterms)
        path_ids = set()
    if base == 0.0:
        return 0.0
    lines = [nd for nd in prop_line_nodes(tree) if nd.n != 0]
    mult = 1.0
    for nd in lines:
        if nd.nid in path_ids:
            continue
        xl = abs(Om * nd.n) - math.sqrt(mode(ctx.point, nd.n, nd.m).omt2)
        mult *= float(chi_plain(abs(xl) * abs(nd.n) ** tau, gamma))
        if mult == 0.0:
            return 0.0
    for i, n1 in enumerate(lines):
        for n2 in lines[i + 1:]:
            if n1.n == n2.n:
                continue
            on1, on2 = n1.nid in path_ids, n2.nid in path_ids
            if on1 != on2:
                continue
            w1 = math.sqrt(mode(ctx.point, n1.n, n1.m).omt2)
            w2 = math.sqrt(mode(ctx.point, n2.n, n2.m).omt2)
            for a1 in (1, -1):
                for a2 in (1, -1):
                    xp = abs(Om * (n1.n - n2.n) + a1 * w1 + a2 * w2)
                    mult *= float(chi_plain(xp * abs(n1.n - n2.n) ** tau, gamma))
                    if mult == 0.0:
                        return 0.0
    return mult * base


# ---------------------------------------------------------------------------
# tree walks and the scale-h propagator slice

def _shifted_supports(f: _Family, t: int, pt, modes: list) -> dict:
    """Labels of the lines of tree t whose support is not the plain one.

    Under localization a block's path lines are also evaluated at the
    on-shell frequency of its entering line, so the supports of those
    frequencies are unioned in.  A special-end tree is only ever evaluated
    on shell, so its path lines never see the plain divisor at all.  The
    tree-by-tree walk that `trees._shifted_lines` reads compiled.
    """
    s, mode, par = f.start[t], f.mode, f.par
    cands = f.cands(t)
    e_path = set()
    e = f.special[t]
    if f.is_rtree and e >= 0:
        cands.append((0, e))
        cur = par[s + e]
        while cur >= 0:
            e_path.add(cur)
            cur = par[s + cur]
    anchors: dict = {}
    for (o, i) in cands:
        mi = modes[mode[s + i]]
        if not mi.lam or mi.bar is None:
            continue
        cur = par[s + i]
        while cur >= 0 and cur != o:
            anchors.setdefault(cur, []).append(mi)
            cur = par[s + cur]
    out = {}
    for l in e_path | anchors.keys():
        ml = modes[mode[s + l]]
        if ml.root is None:
            continue    # the line rejects the point anyway
        hs = set() if l in e_path else set(ml.hs)
        for a in anchors.get(l, ()):
            hs.update(shifted(pt, ml, a))
        out[l] = sorted(hs)
    return out


def _block_walks(f: _Family) -> tuple[list, list]:
    """(line, anchor) per line on a walk up a block path, tree after tree:
    from the parent of each structural candidate's entering node i up to
    below its exit node, anchored at i's mode; in a special-end tree also
    from the special end's parent up to the root, anchored at -1, and the
    special end's block from the root as a candidate.  Lines are indices
    in the family's line list; the unit root line of a special-end tree is
    no line and is left out.  A second walk per tree, with a line lookup of
    its own: the one that `_Family` compiles in its candidate walk."""
    out_line, out_anchor = [], []
    for t in range(f.count):
        s, line_of = f.start[t], {l: f.line_start[t] + p for p, l in enumerate(f.lines(t))}
        walks = [(o, i, f.mode[s + i]) for o, i in f.cands(t)]
        if f.is_rtree and f.special[t] >= 0:
            walks += [(-1, f.special[t], -1), (0, f.special[t], f.mode[s + f.special[t]])]
        for o, i, anchor in walks:
            cur = f.par[s + i]
            while cur >= 0 and cur != o:
                if cur in line_of:
                    out_line.append(line_of[cur])
                    out_anchor.append(anchor)
                cur = f.par[s + cur]
    return out_line, out_anchor


def clean(f: _Family) -> list:
    """Per tree, whether it has a special end whose block no other node
    repeats the mode of, by `_repeats` over the block."""
    return [e >= 0 and not _repeats(f, s, 0, e) for s, e in zip(f.start, f.special)]


def prop_line_nodes(tree: Tree) -> list:
    """Nodes whose exiting line carries a genuine cutoff propagator."""
    f, t = tree._fam, tree._t
    return [nodes(tree)[i] for i in f.lines(t)]


def path_to_root(tree: Tree, nd: TNode) -> list:
    """The ancestors of nd, its parent first."""
    up = parents(tree)
    out = []
    cur = up[nd.nid]
    while cur is not None:
        out.append(cur)
        cur = up[cur.nid]
    return out


def scaled_propagator(n: int, m: int, h: int, params: ModelParams, eps: float,
                      nu: NuTable | None = None, kind: str = "a") -> float:
    """Scale-h slice of the propagator; b-lines carry an extra factor n.

    At the primary mode (+-1, 1) there is no cutoff: the value is 1 for an
    a-line and n (= +-1) for a b-line.
    """
    if kind not in ("a", "b"):
        raise ValueError("kind must be 'a' or 'b'")
    if (abs(n), m) == (1, 1):
        return 1.0 if kind == "a" else float(n)
    g = plain_propagator(n, m, params, eps, nu)
    cut = float(chi_h(x_divisor(n, m, params, eps, nu), h, params.gamma))
    val = cut * g
    return val if kind == "a" else n * val


# ---------------------------------------------------------------------------
# the per-assignment counting route

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


def profile(tree: Tree, asg: dict) -> ScaleProfile:
    """Exact scale counts of one assignment.

    Resonant lines are the exit lines of active resonance blocks and of unary
    nodes; K counts the remaining propagator lines.  Reads the tree's rows.
    """
    f, t = tree._fam, tree._t
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


def count_bound(tree: Tree):
    """The bound of `_count` for a tree: the special-end one for a
    special-end tree."""
    if tree.is_rtree:
        return lambda K, s: 2 * max(K - 1, 0) * s
    return lambda K, s: max(0.0, 2 * K * s - 1)


# ---------------------------------------------------------------------------
# the Melnikov margins, one m at a time

def _windows(params, Mmax, Nmax):
    om1 = float(omega(1, params.mu))
    out = {}
    for m in range(1, Mmax + 1):
        lo = max(1, math.floor((m * m - 1.0) / (om1 + params.eps0)))
        hi = min(Nmax, math.ceil((m * m + 1.0) / max(om1 - params.eps0, 1e-9)))
        if lo <= hi:
            out[m] = (lo, hi)
    return out


def _melnikov_oracle(eps, nu, params, Nmax, Mmax):
    """Per-m scan with a per-window dense n*nu, as melnikov_margins had it."""
    Om = omega_eff(params, eps)
    wins = _windows(params, Mmax, Nmax)
    dense = {m: (lo, np.array([nu.n_nu(n, m) if nu else 0.0 for n in range(lo, hi + 1)]))
             for m, (lo, hi) in wins.items()}

    def omt(n_abs, m_arr):
        base = m_arr.astype(float) ** 4 + params.mu
        shift = np.zeros(n_abs.shape)
        for m in np.unique(m_arr):
            if int(m) not in dense:
                continue
            lo, arr = dense[int(m)]
            sel = m_arr == m
            idx = n_abs[sel] - lo
            ok = (idx >= 0) & (idx < arr.size)
            shift[sel] = np.where(ok, arr[np.clip(idx, 0, arr.size - 1)], 0.0)
        return np.sqrt(base + shift)

    out = {"first": math.inf, "second": math.inf, "first_at": None, "second_at": None}
    for m in range(2, Mmax + 1):
        base = int(round(float(omega(m, params.mu)) / Om))
        for n in range(max(1, base - 2), min(Nmax, base + 2) + 1):
            w = float(omt(np.array([n]), np.array([m]))[0])
            margin = abs(Om * n - w) * n ** params.tau
            if margin < out["first"]:
                out["first"], out["first_at"] = margin, (n, m)
    ms = sorted(wins)
    for i1, m1 in enumerate(ms):
        n1s = np.arange(wins[m1][0], wins[m1][1] + 1)
        n1s = np.concatenate([-n1s[::-1], n1s])
        for m2 in ms[i1 + 1:]:
            lo2, hi2 = wins[m2]
            w1 = omt(np.abs(n1s), np.full(n1s.size, m1))
            om2 = float(omega(m2, params.mu))
            for a1 in (1.0, -1.0):
                for a2 in (1.0, -1.0):
                    d0 = -(a1 * w1 + a2 * om2) / Om
                    for dd in (-1.0, 0.0, 1.0):
                        delta = (np.rint(d0) + dd).astype(int)
                        n2 = n1s + delta
                        sel = (np.abs(n2) >= lo2) & (np.abs(n2) <= hi2) & (delta != 0)
                        if not sel.any():
                            continue
                        w2 = omt(np.abs(n2[sel]), np.full(sel.sum(), m2))
                        dn = delta[sel]
                        marg = np.abs(Om * dn + a1 * w1[sel] + a2 * w2) \
                            * np.abs(dn).astype(float) ** params.tau
                        j = int(np.argmin(marg))
                        if marg[j] < out["second"]:
                            out["second"] = float(marg[j])
                            out["second_at"] = (int(n1s[sel][j]), m1, int(n2[sel][j]), m2)
    return out


def _cleared(margins, below):
    """The margins that melnikov_margins reports at below: a family that
    clears below reads inf at None."""
    out = dict(margins)
    for fam in ("first", "second"):
        if out[fam] >= below:
            out[fam], out[f"{fam}_at"] = math.inf, None
    return out


# ---------------------------------------------------------------------------
# the mass conditions one combination at a time, as closures

def _mass_combos(Nmax):
    """(family, index tuple, combo(mu) callable) for all condition families:
    "single" (m,) omega_m, "diff" (m1, m2) omega_m1 - omega_m2 and "sum"
    (m1, m2) omega_m1 + omega_m2."""
    combos = []
    mstar = _mstar_single(Nmax)
    bound = (1 + MU_MAX) * Nmax + 3
    for m in range(2, mstar + 1):
        combos.append(("single", (m,), lambda mu, m=m: omega(m, mu)))
    m2 = 2
    while 2 * m2 + 1 <= bound:
        m1 = m2 + 1
        while m1 * m1 - m2 * m2 <= bound:
            combos.append(("diff", (m1, m2),
                           lambda mu, m1=m1, m2=m2: omega(m1, mu) - omega(m2, mu)))
            m1 += 1
        m2 += 1
    for m2 in range(2, mstar + 1):
        for m1 in range(m2, mstar + 1):
            if m1 * m1 + m2 * m2 > bound:
                break
            combos.append(("sum", (m1, m2),
                           lambda mu, m1=m1, m2=m2: omega(m1, mu) + omega(m2, mu)))
    return combos


def mass_margins_oracle(mu, tau0, Nmax):
    """`diophantine.mass_margins`, one closure at a time."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    om1 = np.sqrt(1.0 + mu)
    best = {fam: np.full(mu.shape, np.inf) for fam in ("single", "diff", "sum")}
    for fam, _, combo in _mass_combos(Nmax):
        target = combo(mu)
        base = np.rint(target / om1)
        for dn in (-1.0, 0.0, 1.0):
            n = base + dn
            valid = (n >= 1) & (n <= Nmax)
            if valid.any():
                margin = np.where(valid, np.abs(om1 * n - target) * n ** tau0, np.inf)
                best[fam] = np.minimum(best[fam], margin)
    return list(best.values())


def mass_exclusion_intervals_oracle(gamma, tau0, Nmax):
    """`diophantine.mass_exclusion_intervals`, one bisection per closure."""
    out = []
    for fam, idx, combo in _mass_combos(Nmax):
        t0, t1 = float(combo(0.0)), float(combo(MU_MAX))
        n_lo = max(2, int(math.floor(min(t0, t1) / math.sqrt(1 + MU_MAX))) - 1)
        n_hi = min(Nmax, int(math.ceil(max(t0, t1))) + 1)
        if n_hi < n_lo:
            continue
        ns = np.arange(n_lo, n_hi + 1, dtype=float)

        def f(mu):
            return np.sqrt(1 + mu) * ns - combo(mu)

        bracket = f(0.0) * f(MU_MAX) <= 0.0
        if not bracket.any():
            continue
        lo = np.zeros_like(ns)
        hi = np.full_like(ns, MU_MAX)
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            left = (f(lo) * fm) <= 0.0
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
        mu_star = 0.5 * (lo + hi)
        for j in np.nonzero(bracket)[0]:
            n = float(ns[j])
            ms = float(mu_star[j])
            h = 1e-6
            slope = abs((math.sqrt(1 + ms + h) * n - float(combo(ms + h)))
                        - (math.sqrt(1 + ms) * n - float(combo(ms)))) / h
            slope = max(slope, 0.3 * n)
            width = 2 * gamma * n ** (-tau0) / slope
            out.append((float(ms), width, (fam, int(n)) + idx))
    return out


# ---------------------------------------------------------------------------
# a table's row layout, derived node by node from the rows' family rows

def _node_rows(f: _Family, row_tree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Family row of every node of the given trees laid one after another,
    and the position of each tree's first node."""
    c = f.columns()
    size = c.start[row_tree + 1] - c.start[row_tree]
    return _ranges(c.start[row_tree], size), np.cumsum(size) - size


def _line_slots(c: _Columns, row_tree: np.ndarray) -> tuple:
    """(row, p, g) per line of each row's tree, row after row: the row, the
    line's position in its tree's line order and its index in the family's."""
    nl = c.line_start[row_tree + 1] - c.line_start[row_tree]
    g = _ranges(c.line_start[row_tree], nl)
    return np.repeat(np.arange(len(row_tree)), nl), c.line_pos[g], g


def _layout(c: _Columns, node: np.ndarray) -> tuple:
    """(nb, unary, kids, off) of `_setup` for the given node rows, laid out
    one after another: the second subtree of a binary node at position p
    starts at p + 1 + the size of its first child's subtree (`_Family.kids`
    order takes it first)."""
    R, sv, level = len(node), c.sv[node], c.level[node]
    two = np.flatnonzero(sv == 2)
    kid2 = np.full(R, R)
    kid2[two] = two + 1 + c.size[node[two] + 1]
    tb = np.flatnonzero(c.ttype[node] == B)
    under_b = np.zeros(R + 1, bool)
    under_b[kid2[tb]] = under_b[tb + 1] = True
    nb = np.where(under_b, np.append(c.n[node], 1), 1)
    levels = [np.flatnonzero(level == lv) for lv in range(1, int(level.max(initial=0)) + 1)]
    e = np.concatenate(levels) if levels else np.zeros(0, np.int64)
    return (nb, np.flatnonzero(sv == 1), np.stack([kid2[e], e + 1]),
            tuple(np.cumsum([0] + [len(e) for e in levels]).tolist()))


# ---------------------------------------------------------------------------
# the cubic coefficient's rows, rebuilt per call

def cubic_rows(params: ModelParams, eps: float) -> tuple:
    """`series._cubic_rows` over the odd m <= Mmax as each call once built
    them: v_{1,1,m} from the kernel, g_{0,m} from propagator_row and
    omega_m^2 from the int labels."""
    odd = np.arange(1, params.Mmax + 1, 2)
    Om = omega_eff(params, eps)
    a, b = params.a, params.b
    v = np.array([kernel_v(1, 1, m) for m in odd.tolist()])
    g0 = propagator_row(0, odd, params, eps)
    return (2.0 * v * v, 2 * a * (a + b * Om * Om) * g0,
            (a - b * Om * Om) * (a + 2 * b * Om * Om), _beta(params, eps),
            -(Om * 2) ** 2, omega_sq(odd, params.mu))


# ---------------------------------------------------------------------------
# the dyadic cutoffs one float at a time

def _step(t: float) -> float:
    """C-infinity step from exp(-1/t): 0 for t <= 0, 1 for t >= 1.  The
    exponentials are numpy's, as the array route's: math.exp differs from
    it in the last bit for some arguments, which chi_h's differences of
    steps near 1 raise to ~1e-14 relative."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    f, g = float(np.exp(-1.0 / t)), float(np.exp(-1.0 / (1.0 - t)))
    return f / (f + g)


def scalar_chi_h(x: float, h: int, gamma: float) -> float:
    """`spectrum.chi_h` at one float x and scale h >= -1, in Python floats
    (the scalar route the cutoffs had beside their array route): chi(x) =
    step(|x|/gamma - 1) at h = -1, else chi(x 2^(h+1)) - chi(x 2^h)."""
    def chi(y: float) -> float:
        return _step((abs(y) - gamma) / gamma)

    if h == -1:
        return chi(x)
    return chi(math.ldexp(x, h + 1)) - chi(math.ldexp(x, h))
