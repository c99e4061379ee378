"""Recursive tree evaluation and literal structure detectors: the oracles of
the array evaluation in `lindbeam.trees`.

`_region` evaluates a tree node by node from a given top, pricing the lines
on the path of a localized block at the block's entering frequency and
renormalizing the active resonance blocks it meets on the way down, one
exit node at a time.  `_renormalized_value`, `_lval_rtree`,
`localize_split` and `extended_value` are built on it.  The detectors find
clusters and resonances from a tree's scale assignment alone, independently
of the structural candidates the compiled families store.  Last, the tree
walks and the scale-h propagator slice that only the tests read, with the
per-tree walk of the renormalized supports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from lindbeam.kernel import kernel_v
from lindbeam.spectrum import ModelParams, NuTable, chi_h, propagator, x_divisor
from lindbeam.trees import (
    A,
    B,
    END,
    SPECIAL,
    EvalCtx,
    TNode,
    Tree,
    _active,
    _Family,
    _l_conditions,
    tree_value,
)


def _omega_bar(ctx: EvalCtx, n: int, m: int) -> float:
    bar = ctx.point.mode(n, m).bar
    if bar is None:
        raise ValueError("degenerate radicand in localization point")
    return bar


def _line_weights(f: _Family, ctx: EvalCtx):
    """line(r, h, freq, enters_b): the factor carried by the line exiting row
    r at scale h and frequency freq (None: the natural Omega n), enters_b
    when it enters a b-type node."""
    kind, n, m, par, mode, rtree = f.kind, f.n, f.m, f.par, f.mode, f.is_rtree
    modes, propagator = ctx.point.modes_of(f), ctx.point.propagator

    def line(r: int, h: int, freq: float | None, enters_b: bool) -> float:
        k, nc = kind[r], n[r]
        if k == SPECIAL or (k == END and abs(nc) == 1 and m[r] == 1):
            return float(nc) if enters_b else 1.0
        if rtree and par[r] < 0:
            return 1.0      # unit root line of a special-end tree
        md = modes[mode[r]]
        val = md.prop.get(h) if freq is None else None
        if val is None:
            val = propagator(md, h, freq)
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
        if _l_conditions(f, s, o, i, ctx.point):
            sub = _region(f, s, o, i, _omega_bar(ctx, f.n[s + i], f.m[s + i]), h, ctx, rest)
        if f.kind[s + i] == SPECIAL:
            entering = 1.0
        else:
            md = ctx.point.modes_of(f)[f.mode[s + i]]
            entering = ctx.point.propagator(md, h[i], freq_of(i))
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
    if not _l_conditions(f, s, 0, e, ctx.point):
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
    f, t = tree._compiled()
    return [(tree.nodes[o], tree.nodes[i]) for (o, i) in f.cands(t)]


def parents(tree: Tree) -> dict:
    """Each node id's parent TNode (None at the root), read off the children."""
    up = {nd.nid: None for nd in tree.nodes}
    up.update((c.nid, nd) for nd in tree.nodes for c in nd.children)
    return up


def detect_clusters(tree: Tree, asg: dict) -> list[Cluster]:
    """Maximal connected node sets linked by lines of scale <= h, per h."""
    up = parents(tree)
    scales = sorted({asg.get(nd.nid, -1) for nd in tree.nodes if up[nd.nid] is not None})
    clusters: list[Cluster] = []
    seen = set()
    for h in scales:
        par = {nd.nid: nd.nid for nd in tree.nodes}

        def find(x):
            while par[x] != x:
                par[x] = par[par[x]]
                x = par[x]
            return x

        for nd in tree.nodes:
            p = up[nd.nid]
            if p is not None and asg.get(nd.nid, -1) <= h:
                par[find(nd.nid)] = find(p.nid)
        comps: dict[int, set] = {}
        for nd in tree.nodes:
            comps.setdefault(find(nd.nid), set()).add(nd.nid)
        for ids in comps.values():
            fs = frozenset(ids)
            if fs in seen:
                continue
            # require an internal line at exactly this scale
            internal_at_h = any(
                asg.get(nd.nid, -1) == h
                for nd in tree.nodes
                if nd.nid in ids and up[nd.nid] is not None and up[nd.nid].nid in ids)
            if not internal_at_h and len(ids) > 1:
                continue
            if len(ids) == 1 and h != min(scales):
                continue
            seen.add(fs)
            entering = [nd for nd in tree.nodes
                        if nd.nid not in ids and up[nd.nid] is not None
                        and up[nd.nid].nid in ids]
            exiting = None
            for nd in tree.nodes:
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
    f, t = tree._compiled()
    s, h, o, i = f.start[t], tree._scales(asg), out_nd.nid, in_nd.nid
    if x is None:
        x = ctx.point.Om * in_nd.n
    full = _region(f, s, o, i, x, h, ctx, [])
    if not _l_conditions(f, s, o, i, ctx.point):
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

    root = rebuild(out_nd)
    f, t = tree._compiled()
    s = f.start[t]
    k = sum(f.kv[s + j] for j in f.block(s, out_nd.nid, in_nd.nid))
    return Tree(root=root, k=k, n=in_nd.n, m=in_nd.m, is_rtree=True).finalize()


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
        f, t = tree._compiled()
        base = _lval_rtree(f, t, tree._scales(asg), ctx, False)
        path_ids = {nd.nid for nd in path_to_root(tree, tree.special)}
        path_ids.add(tree.special.nid)
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
        xl = abs(Om * nd.n) - math.sqrt(ctx.point.mode(nd.n, nd.m).omt2)
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
            w1 = math.sqrt(ctx.point.mode(n1.n, n1.m).omt2)
            w2 = math.sqrt(ctx.point.mode(n2.n, n2.m).omt2)
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
            hs.update(pt.shifted(ml, a))
        out[l] = sorted(hs)
    return out


def prop_line_nodes(tree: Tree) -> list:
    """Nodes whose exiting line carries a genuine cutoff propagator."""
    f, t = tree._compiled()
    return [tree.nodes[i] for i in f.lines(t)]


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
    g = propagator(n, m, params, eps, nu)
    cut = float(chi_h(x_divisor(n, m, params, eps, nu), h, params.gamma))
    val = cut * g
    return val if kind == "a" else n * val
