"""Labeled-tree expansion of the mode recursion.

Every order-k coefficient is a sum over rooted labeled trees: binary nodes
carry one quadratic interaction each, unary nodes carry shift-coefficient
insertions, end nodes carry the primary amplitude q.  Summing tree values
over all admissible dyadic scale labels reproduces the recursion exactly;
renormalizing (subtracting the on-shell part of every resonance and feeding
it back through the shift coefficients) reproduces it again, which is the
central correctness test of the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from .kernel import kernel_v
from .spectrum import (
    ModelParams,
    ModeSet,
    NuTable,
    admissible_h_for,
    chi_h,
    in_lambda,
    omega,
    omega_eff,
)

__all__ = [
    "Tree",
    "TNode",
    "EvalCtx",
    "enumerate_trees",
    "enumerate_r_trees",
    "admissible_assignments",
    "tree_value",
    "sum_trees",
    "renormalized_sum",
    "counterterm",
    "counterterm_order2_closed",
    "detect_clusters",
    "detect_resonances",
    "localize_split",
    "resonance_to_rtree",
    "extended_value",
    "dump_tree",
    "TreeBudgetError",
    "MissingCountertermError",
]

TREE_BUDGET = 2_000_000


class TreeBudgetError(RuntimeError):
    """Enumeration would exceed the desk-scale object budget."""


class MissingCountertermError(KeyError):
    pass


class _EmptyTable:
    """Zero shift-coefficient table (duck-typed stand-in)."""

    @staticmethod
    def get(k, n, m, h):
        return 0.0

    @staticmethod
    def aggregate(k, n, m):
        return 0.0


EMPTY_TABLE = _EmptyTable()


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


@dataclass
class Tree:
    root: TNode
    k: int
    n: int
    m: int
    mult: int = 1
    is_rtree: bool = False
    # filled on instantiation
    nodes: list = field(default_factory=list)
    parent: dict = field(default_factory=dict)
    special: TNode | None = None

    def finalize(self):
        self.nodes = []
        self.parent = {}
        self.special = None
        stack = [(self.root, None)]
        nid = 0
        while stack:
            nd, par = stack.pop()
            nd.nid = nid
            nid += 1
            self.nodes.append(nd)
            self.parent[nd.nid] = par
            if nd.kind == "special":
                self.special = nd
            for ch in nd.children:
                stack.append((ch, nd))
        return self

    def prop_line_nodes(self) -> list:
        """Nodes whose exiting line carries a genuine cutoff propagator."""
        out = []
        for nd in self.nodes:
            if nd.kind == "end" or nd.kind == "special":
                continue
            if self.is_rtree and self.parent[nd.nid] is None:
                continue  # root line of a special-end tree has unit factor
            out.append(nd)
        return out

    def path_to_root(self, nd: TNode) -> list:
        out = []
        cur = self.parent[nd.nid]
        while cur is not None:
            out.append(cur)
            cur = self.parent[cur.nid]
        return out


def _clone(nd: TNode) -> TNode:
    return TNode(0, nd.kind, nd.ttype, nd.sv, nd.kv, nd.n, nd.m,
                 tuple(_clone(c) for c in nd.children))


def _key(nd: TNode):
    return (nd.kind, nd.ttype, nd.sv, nd.kv, nd.n, nd.m,
            tuple(_key(c) for c in nd.children))


def _count_nodes(nd: TNode) -> int:
    return 1 + sum(_count_nodes(c) for c in nd.children)


# ---------------------------------------------------------------------------
# enumeration

_ENUM_CACHE: dict = {}


def _gen(k: int, n: int, m: int, Mmax: int, with_e: bool, e_mode: tuple | None):
    """Skeletons of order k whose root line carries (n, m).

    Returns a list of (TNode, multiplicity); multiplicity counts the distinct
    ordered arrangements collapsed into one representative.  with_e marks the
    branch that must contain the special end node (mode e_mode).
    """
    key = (k, n, m, Mmax, with_e, e_mode)
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]
    out: dict = {}

    def add(node: TNode, mult: int):
        kk = _key(node)
        if kk in out:
            prev = out[kk]
            out[kk] = (prev[0], prev[1] + mult)
        else:
            out[kk] = (node, mult)

    if k == 0:
        if with_e:
            if (n, m) == e_mode and (abs(n), m) != (1, 1):
                add(TNode(0, "special", "", 0, 0, n, m), 1)
        elif (abs(n), m) == (1, 1):
            add(TNode(0, "end", "", 0, 0, n, m), 1)
        res = list(out.values())
        _ENUM_CACHE[key] = res
        return res

    if (abs(n), m) == (1, 1):
        # only end lines may carry the primary mode
        _ENUM_CACHE[key] = []
        return []

    if m % 2 == 0 or m > Mmax:
        _ENUM_CACHE[key] = []
        return []

    # binary root: orders k1 + k2 = k - 1, momenta n1 + n2 = n
    for k1 in range(0, k):
        k2 = k - 1 - k1
        for e_left in ((True, False) if with_e else (False,)):
            le, re = (e_left, not e_left) if with_e else (False, False)
            # momentum window: a regular branch of order kj reaches |nj| <= kj+1,
            # the special-end branch reaches n_e +- kj
            if le:
                lo1, hi1 = e_mode[0] - k1, e_mode[0] + k1
            else:
                lo1, hi1 = -(k1 + 1), k1 + 1
            for n1 in range(lo1, hi1 + 1):
                n2 = n - n1
                if re:
                    if abs(n2 - e_mode[0]) > k2:
                        continue
                elif abs(n2) > k2 + 1:
                    continue
                for m1 in range(1, Mmax + 1, 2):
                    for m2 in range(1, Mmax + 1, 2):
                        if kernel_v(m, m1, m2) == 0.0:
                            continue
                        subs1 = _gen(k1, n1, m1, Mmax, le, e_mode)
                        if not subs1:
                            continue
                        subs2 = _gen(k2, n2, m2, Mmax, re, e_mode)
                        if not subs2:
                            continue
                        for (c1, mu1) in subs1:
                            for (c2, mu2) in subs2:
                                kids = ((c1, c2) if _key(c1) <= _key(c2)
                                        else (c2, c1))
                                for t in ("a", "b"):
                                    add(TNode(0, "node", t, 2, 1, n, m, kids),
                                        mu1 * mu2)

    # unary root: shift insertion of order r, same mode below
    for r in range(2, k):
        subs = _gen(k - r, n, m, Mmax, with_e, e_mode)
        for (c, mu) in subs:
            if with_e and c.kind == "special":
                continue  # the corresponding resonance would have one node only
            add(TNode(0, "node", "a", 1, r, n, m, (c,)), mu)

    res = list(out.values())
    _ENUM_CACHE[key] = res
    return res


def _ordered_multiplicity(nd: TNode) -> int:
    """Number of ordered child arrangements represented by a canonical tree."""
    mult = 1
    for c in nd.children:
        mult *= _ordered_multiplicity(c)
    if nd.sv == 2:
        c1, c2 = nd.children
        if _key(c1) != _key(c2):
            mult *= 2
    return mult


def enumerate_trees(k: int, n: int, m: int, params: ModelParams,
                    Mmax: int | None = None) -> list[Tree]:
    """All inequivalent labeled skeletons of order k with root mode (n, m)."""
    if k < 1:
        raise ValueError("order must be >= 1")
    Mmax = Mmax or params.Mmax
    pairs = _gen(k, n, m, Mmax, False, None)
    trees = []
    for (node, _mult) in pairs:
        fresh = _clone(node)
        t = Tree(root=fresh, k=k, n=n, m=m,
                 mult=_ordered_multiplicity(fresh)).finalize()
        trees.append(t)
    if sum(_count_nodes(t.root) for t in trees) > TREE_BUDGET:
        raise TreeBudgetError(f"enumeration of ({k},{n},{m}) exceeds budget")
    return trees


def enumerate_r_trees(k: int, n: int, m: int, params: ModelParams,
                      Mmax: int | None = None, h: int | None = None) -> list[Tree]:
    """Special-end-node skeletons used to define the shift coefficients.

    One end node carries the external mode (n, m) with weight 1/m^3; the root
    line has unit propagator.  The scale class h, when given, is recorded by
    the caller's assignment filter (skeletons do not constrain scales).
    """
    if (abs(n), m) == (1, 1):
        raise ValueError("no special-end trees at the primary mode")
    if n == 0:
        raise ValueError("special-end trees need nonzero momentum")
    Mmax = Mmax or params.Mmax
    pairs = _gen(k, n, m, Mmax, True, (n, m))
    trees = []
    for (node, _mult) in pairs:
        fresh = _clone(node)
        t = Tree(root=fresh, k=k, n=n, m=m, is_rtree=True,
                 mult=_ordered_multiplicity(fresh)).finalize()
        trees.append(t)
    return trees


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalCtx:
    params: ModelParams
    eps: float
    nu: NuTable | None
    q: float
    lt: object = None            # CountertermTable or None
    l_by_scale: bool = False
    renormalize: bool = False

    def __post_init__(self):
        self._om = omega_eff(self.params, self.eps)
        self._line_cache: dict = {}

    def omega_big(self) -> float:
        return self._om

    def n_nu(self, n: int, m: int) -> float:
        return self.nu.n_nu(n, m) if self.nu is not None else 0.0

    def omt2(self, n: int, m: int) -> float:
        return float(omega(m, self.params.mu)) ** 2 + self.n_nu(n, m)

    def omega_bar(self, n: int, m: int) -> float:
        rad = self.omt2(n, m)
        if rad <= 0:
            raise ValueError("degenerate radicand in localization point")
        return math.copysign(math.sqrt(rad), n)

    def l_value(self, kv: int, n: int, m: int, h: int) -> float:
        if self.lt is None:
            return 0.0
        if self.l_by_scale:
            return self.lt.get(kv, n, m, h)
        return self.lt.aggregate(kv, n, m)


def _candidates(tree: Tree) -> list[tuple]:
    """Structural resonance candidates (out_node, in_node).

    in_node's exiting line enters the block; out_node's exiting line leaves
    it with the same mode label.  The block must contain more than one node.
    """
    cached = getattr(tree, "_cand_cache", None)
    if cached is not None:
        return cached
    out = []
    for nd in tree.nodes:
        if nd.kind == "end":
            continue
        if (abs(nd.n), nd.m) == (1, 1) or nd.n == 0:
            # zero-momentum lines are never small, so their exit scale is
            # pinned at -1 and such blocks can never activate
            continue
        for anc in tree.path_to_root(nd):
            if anc.n == nd.n and anc.m == nd.m:
                if tree.is_rtree and tree.parent[anc.nid] is None:
                    continue  # closing at the unit root line is the tree itself
                if _count_nodes(anc) - _count_nodes(nd) > 1:
                    out.append((anc, nd))
    tree._cand_cache = out
    return out


def _block_nodes(tree: Tree, out_node: TNode, in_node: TNode) -> list:
    inside = set()

    def walk(w):
        if w is in_node:
            return
        inside.add(w.nid)
        for c in w.children:
            walk(c)

    walk(out_node)
    return [nd for nd in tree.nodes if nd.nid in inside]


def admissible_assignments(tree: Tree, params: ModelParams, eps: float,
                           nu: NuTable | None, renormalize: bool = False
                           ) -> list[dict]:
    """All scale assignments with every line inside its cutoff support.

    Each propagator line admits at most two labels from its plain divisor;
    under renormalization the localized evaluation shifts path-line divisors,
    so their supports are unioned in.  Lines with equal mode labels are kept
    within one scale of each other.  Empty when a divisor falls below the
    2^-h_max floor (effectively resonant point).
    """
    ctx = EvalCtx(params, eps, nu, 1.0)
    Om = ctx.omega_big()
    lines = tree.prop_line_nodes()
    options: list[list[int]] = []
    shift_anchors: dict[int, list[tuple[float, int]]] = {nd.nid: [] for nd in lines}
    e_path_ids: set[int] = set()
    if renormalize or tree.is_rtree:
        cands = _candidates(tree)
        if tree.is_rtree and tree.special is not None:
            cands = cands + [(tree.root, tree.special)]
            # a special-end tree is only ever evaluated on shell, so its
            # path lines never see the plain divisor at all
            e_path_ids = {a.nid for a in tree.path_to_root(tree.special)}
        for (out_nd, in_nd) in cands:
            if not in_lambda(in_nd.n, in_nd.m, params):
                continue
            try:
                xloc = ctx.omega_bar(in_nd.n, in_nd.m)
            except ValueError:
                continue
            cur = tree.parent[in_nd.nid]
            while cur is not None and cur is not out_nd:
                shift_anchors[cur.nid].append((xloc, in_nd.n))
                cur = tree.parent[cur.nid]
    for nd in lines:
        rad = ctx.omt2(nd.n, nd.m)
        if rad <= 0:
            return []
        hs: set[int] = set()
        if nd.nid not in e_path_ids:
            x_plain = abs(Om * nd.n) - math.sqrt(rad)
            hs.update(admissible_h_for(x_plain, params.gamma, params.h_max))
        for (xloc, n_anchor) in shift_anchors[nd.nid]:
            f = Om * (nd.n - n_anchor) + xloc
            x_shift = abs(f) - math.sqrt(rad)
            hs.update(admissible_h_for(x_shift, params.gamma, params.h_max))
        if not hs:
            return []   # below the scale floor: reject the parameter point
        options.append(sorted(hs))
    if not lines:
        return [{}]
    out = []
    for combo in iproduct(*options):
        asg = {nd.nid: h for nd, h in zip(lines, combo)}
        ok = True
        for i, nd1 in enumerate(lines):
            for nd2 in lines[i + 1:]:
                if (nd1.n, nd1.m) == (nd2.n, nd2.m) and abs(asg[nd1.nid] - asg[nd2.nid]) > 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(asg)
    return out


def _line_factor(nd: TNode, tree: Tree, h: int, freq: float, ctx: EvalCtx) -> float:
    """Factor carried by the line exiting nd, evaluated at frequency freq."""
    parent = tree.parent[nd.nid]
    enters_b = parent is not None and parent.ttype == "b"
    if nd.kind == "special":
        return float(nd.n) if enters_b else 1.0
    if (abs(nd.n), nd.m) == (1, 1) and nd.kind == "end":
        return float(nd.n) if enters_b else 1.0
    if tree.is_rtree and parent is None:
        return 1.0
    key = (nd.n, nd.m, h, freq)
    val = ctx._line_cache.get(key)
    if val is None:
        rad = ctx.omt2(nd.n, nd.m)
        denom = -freq * freq + rad
        if denom == 0.0:
            raise ZeroDivisionError(f"resonant line at mode {(nd.n, nd.m)}")
        val = float(chi_h(abs(freq) - math.sqrt(rad), h, ctx.params.gamma)) / denom
        ctx._line_cache[key] = val
    return nd.n * val if enters_b else val


def _node_factor(nd: TNode, tree: Tree, asg: dict, ctx: EvalCtx) -> float:
    if nd.kind == "end":
        return ctx.q
    if nd.kind == "special":
        return 1.0 / nd.m ** 3
    if nd.sv == 1:
        parent = tree.parent[nd.nid]
        if parent is None and tree.is_rtree:
            h = asg.get(nd.children[0].nid, -1)   # unit root line: use entering scale
        else:
            h = asg.get(nd.nid, -1)
        lval = ctx.l_value(nd.kv, nd.n, nd.m, h)
        return nd.n * lval
    # binary interaction node
    c1, c2 = nd.children
    v = kernel_v(nd.m, c1.m, c2.m)
    if nd.ttype == "a":
        return ctx.params.a * v
    return -ctx.params.b * ctx.omega_big() ** 2 * v


def _aline_factor(nd: TNode, h: int, freq: float, ctx: EvalCtx) -> float:
    """Cutoff propagator of nd's exiting line with no b-weight attached."""
    rad = ctx.omt2(nd.n, nd.m)
    denom = -freq * freq + rad
    if denom == 0.0:
        raise ZeroDivisionError(f"resonant line at mode {(nd.n, nd.m)}")
    return float(chi_h(abs(freq) - math.sqrt(rad), h, ctx.params.gamma)) / denom


def _region_value(tree: Tree, top: TNode, excl: TNode | None, f_in: float | None,
                  asg: dict, ctx: EvalCtx, active: list) -> float:
    """Value of subtree(top) minus subtree(excl), excluding top's own line.

    Lines on the path excl -> top are evaluated at frequency
    Om*(n_l - n_in) + f_in; every other line at its natural frequency.  The
    entering line's integer b-weight is kept with the block; its propagator
    belongs to the subtree below and is attached by the caller.  Active
    resonance blocks strictly inside get the on-shell subtraction.
    """
    Om = ctx.omega_big()
    n_in = excl.n if excl is not None else 0
    path_ids = set()
    if excl is not None:
        cur = tree.parent[excl.nid]
        while cur is not None and cur is not top:
            path_ids.add(cur.nid)
            cur = tree.parent[cur.nid]
        path_ids.add(top.nid)

    def freq_of(nd: TNode) -> float:
        if excl is not None and (nd.nid in path_ids or nd is excl):
            return Om * (nd.n - n_in) + f_in
        return Om * nd.n

    def eval_from(w: TNode) -> float:
        """Value hanging at node w (without w's exiting-line propagator),
        renormalizing the deepest active block that exits through w's line."""
        cand = None
        for (o, i) in active:
            if o is not w:
                continue
            if excl is not None and _contains(tree, o, excl):
                continue  # block would straddle the current region boundary
            if cand is None or _contains(tree, cand[1], i):
                cand = (o, i)   # deepest entering line = biggest block
        if cand is None:
            return eval_plain(w)
        o, i = cand
        rest = [c for c in active if c != cand]
        block_x = _region_value(tree, o, i, freq_of(i), asg, ctx, rest)
        sub = 0.0
        if _l_conditions(tree, o, i, ctx):
            sub = _region_value(tree, o, i, ctx.omega_bar(i.n, i.m), asg, ctx, rest)
        if i.kind == "special":
            entering = 1.0
        else:
            entering = _aline_factor(i, asg.get(i.nid, -1), freq_of(i), ctx)
        if entering == 0.0 or block_x == sub:
            return 0.0
        return (block_x - sub) * entering * eval_from(i)

    def eval_plain(w: TNode) -> float:
        val = _node_factor(w, tree, asg, ctx)
        if val == 0.0:
            return 0.0
        for c in w.children:
            if c is excl:
                # entering line of the region: only its integer weight stays
                if w.ttype == "b":
                    val *= c.n
                continue
            lf = _line_factor(c, tree, asg.get(c.nid, -1), freq_of(c), ctx)
            if lf == 0.0:
                return 0.0
            val *= lf * eval_from(c)
            if val == 0.0:
                return 0.0
        return val

    return eval_from(top)


def _contains(tree: Tree, anc: TNode, nd: TNode) -> bool:
    cur = nd
    while cur is not None:
        if cur is anc:
            return True
        cur = tree.parent[cur.nid]
    return False


def _l_conditions(tree: Tree, out_nd: TNode, in_nd: TNode, ctx: EvalCtx) -> bool:
    """On-shell subtraction applies only in the near-resonant zone and when
    no block line repeats the external mode label."""
    if not in_lambda(in_nd.n, in_nd.m, ctx.params):
        return False
    for nd in _block_nodes(tree, out_nd, in_nd):
        if nd is out_nd:
            continue
        if (nd.n, nd.m) == (in_nd.n, in_nd.m):
            return False
    return True


def _active_candidates(tree: Tree, asg: dict) -> list[tuple]:
    """Candidates whose internal scales all sit below the exit-line scale."""
    out = []
    for (o, i) in _candidates(tree):
        h_out = asg.get(o.nid, -1)
        h_int = -1
        for nd in _block_nodes(tree, o, i):
            if nd is o:
                continue
            if nd.kind in ("end", "special"):
                continue
            h_int = max(h_int, asg.get(nd.nid, -1))
        if h_int < h_out:
            out.append((o, i))
    return out


def tree_value(tree: Tree, asg: dict, params: ModelParams, eps: float,
               nu: NuTable | None, q: float, counterterms=None,
               l_by_scale: bool = False, renormalize: bool = False,
               _ctx: EvalCtx | None = None) -> float:
    """Value of one labeled tree at one scale assignment.

    Propagator product times node weights; with renormalize=True every
    recognized resonance is replaced by its on-shell-subtracted value and
    unary nodes read scale-resolved shift coefficients.
    """
    if any(nd.sv == 1 for nd in tree.nodes) and counterterms is None \
            and (_ctx is None or _ctx.lt is None):
        raise MissingCountertermError("tree contains shift nodes but no table given")
    ctx = _ctx or EvalCtx(params, eps, nu, q, counterterms, l_by_scale, renormalize)
    active = _active_candidates(tree, asg) if renormalize else []
    root = tree.root
    rootf = _line_factor(root, tree, asg.get(root.nid, -1),
                         ctx.omega_big() * root.n, ctx)
    if rootf == 0.0:
        return 0.0
    return rootf * _region_value(tree, root, None, None, asg, ctx, active)


def _lval_rtree(tree: Tree, asg: dict, ctx: EvalCtx) -> float:
    """Localized value of a special-end tree: path frequencies anchored on-shell.

    The entering b-weight (the special line's integer factor) is attached by
    the region evaluation; the unit root line contributes nothing.
    """
    root = tree.root
    e = tree.special
    if not _l_conditions(tree, root, e, ctx):
        return 0.0
    xbar = ctx.omega_bar(e.n, e.m)
    active = _active_candidates(tree, asg) if ctx.renormalize else []
    active = [c for c in active if c[1] is not e and c[0] is not root]
    block = _region_value(tree, root, e, xbar, asg, ctx, active)
    return block * _node_factor(e, tree, asg, ctx)


def sum_trees(k: int, n: int, m: int, params: ModelParams, eps: float,
              nu: NuTable | None, q: float, counterterms=None,
              Mmax: int | None = None) -> float:
    """Plain tree expansion of u^(k)_{n,m}: equals the recursion output."""
    lt = counterterms if counterterms is not None else EMPTY_TABLE
    ctx = EvalCtx(params, eps, nu, q, lt, l_by_scale=False)
    total = 0.0
    for tree in enumerate_trees(k, n, m, params, Mmax):
        for asg in admissible_assignments(tree, params, eps, nu):
            total += tree.mult * tree_value(tree, asg, params, eps, nu, q,
                                            lt, l_by_scale=False, _ctx=ctx)
    return total


def renormalized_sum(k: int, n: int, m: int, params: ModelParams, eps: float,
                     nu: NuTable | None, q: float, counterterms,
                     Mmax: int | None = None) -> float:
    """Renormalized tree expansion: resonances subtracted on shell, unary
    nodes reading the scale-resolved shift table built by `counterterm`."""
    ctx = EvalCtx(params, eps, nu, q, counterterms, l_by_scale=True,
                  renormalize=True)
    total = 0.0
    for tree in enumerate_trees(k, n, m, params, Mmax):
        for asg in admissible_assignments(tree, params, eps, nu, renormalize=True):
            total += tree.mult * tree_value(tree, asg, params, eps, nu, q,
                                            counterterms, l_by_scale=True,
                                            renormalize=True, _ctx=ctx)
    return total


def counterterm(k: int, n: int, m: int, h: int, params: ModelParams, eps: float,
                nu: NuTable | None, q: float, lower, Mmax: int | None = None
                ) -> float:
    """Scale-h shift coefficient from the special-end tree family.

    l^(k)_{n,m,h} = -(m^3/n) * sum over special-end trees whose maximal
    internal scale is >= h of the localized value.  Zero off the
    near-resonant zone; lower orders are read from `lower`.
    """
    if n == 0 or (abs(n), m) == (1, 1):
        return 0.0
    if not in_lambda(n, m, params):
        return 0.0
    if n < 0:
        return -counterterm(k, -n, m, h, params, eps, nu, q, lower, Mmax)
    total = 0.0
    ctx = EvalCtx(params, eps, nu, q, lower, l_by_scale=True, renormalize=True)
    for tree in enumerate_r_trees(k, n, m, params, Mmax):
        for asg in admissible_assignments(tree, params, eps, nu, renormalize=True):
            h1 = max((asg[nd.nid] for nd in tree.prop_line_nodes()), default=-1)
            if h1 < h:
                continue
            total += tree.mult * _lval_rtree(tree, asg, ctx)
    return -(m ** 3 / n) * total


def counterterm_order2_closed(params: ModelParams, eps: float, shift: np.ndarray,
                              q: float, modes: ModeSet) -> np.ndarray:
    """Hand-expanded order-2 shift coefficients on the modes of a ModeSet.

    Two skeleton shapes contribute: the side-chain shape (zero-momentum inner
    line, only type-a outer node survives) and the ladder shape (shifted inner
    line evaluated on shell).  Vectorized over the modes and the inner
    spatial label m' <= modes.Mmax; shift is the flat n*nu of the ModeSet
    (ModeSet.shift of a NuTable, or ModeSet.scatter of values on the modes).
    """
    a, b = params.a, params.b
    Om = omega_eff(params, eps)
    om_mp2, side, v_m1_sq, inner = modes.closed_rows
    narr = modes.n.astype(float)
    ombar = np.sqrt(modes.m.astype(float) ** 4 + params.mu + shift[modes.pos])   # on-shell

    # side-chain shape: inner line (0, m'), b-type outer node vanishes
    s = a * (a + b * Om * Om) * side

    # ladder shape: inner line (n + sigma, m') at on-shell frequency
    for sig, idx in zip((1.0, -1.0), inner):
        n1 = narr + sig
        denom = -(Om * sig + ombar[:, None]) ** 2 + om_mp2[None, :] + shift[idx]
        f0 = a + b * Om * Om * sig * n1             # outer node, both types
        f1 = a - b * Om * Om * sig * narr           # inner node, both types
        term = v_m1_sq / denom
        # a line exiting an internal node may not carry the primary mode
        term[np.abs(n1) == 1.0, 0] = 0.0
        s = s + f0 * f1 * term.sum(axis=1)

    return -(4.0 * q * q / narr) * s


# ---------------------------------------------------------------------------
# clusters, resonances, localization (literal structure detectors)

@dataclass
class Cluster:
    h: int
    node_ids: frozenset
    entering: list          # nodes whose exiting line enters the cluster
    exiting: TNode | None   # node whose exiting line leaves the cluster
    resonant: bool = False


def detect_clusters(tree: Tree, asg: dict) -> list[Cluster]:
    """Maximal connected node sets linked by lines of scale <= h, per h."""
    scales = sorted({asg.get(nd.nid, -1) for nd in tree.nodes
                     if tree.parent[nd.nid] is not None})
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
            p = tree.parent[nd.nid]
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
                if nd.nid in ids and tree.parent[nd.nid] is not None
                and tree.parent[nd.nid].nid in ids)
            if not internal_at_h and len(ids) > 1:
                continue
            if len(ids) == 1 and h != min(scales):
                continue
            seen.add(fs)
            entering = [nd for nd in tree.nodes
                        if nd.nid not in ids and tree.parent[nd.nid] is not None
                        and tree.parent[nd.nid].nid in ids]
            exiting = None
            for nd in tree.nodes:
                if nd.nid in ids:
                    p = tree.parent[nd.nid]
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
    ctx = EvalCtx(params, eps, nu, q, counterterms, l_by_scale=True)
    Om = ctx.omega_big()
    if x is None:
        x = Om * in_nd.n
    full = _region_value(tree, out_nd, in_nd, x, asg, ctx, [])
    if not _l_conditions(tree, out_nd, in_nd, ctx):
        return 0.0, full
    loc = _region_value(tree, out_nd, in_nd, ctx.omega_bar(in_nd.n, in_nd.m),
                        asg, ctx, [])
    return loc, full - loc


def resonance_to_rtree(tree: Tree, out_nd: TNode, in_nd: TNode) -> Tree:
    """Replace the subtree entering a resonance by the special end node."""

    def rebuild(w: TNode) -> TNode:
        if w is in_nd:
            return TNode(0, "special", "", 0, 0, w.n, w.m)
        return TNode(0, w.kind, w.ttype, w.sv, w.kv, w.n, w.m,
                     tuple(rebuild(c) for c in w.children))

    root = rebuild(out_nd)
    k = sum(nd.kv for nd in _block_nodes(tree, out_nd, in_nd))
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
    from .spectrum import chi as chi_plain

    gamma = gamma if gamma is not None else params.gamma
    tau = tau if tau is not None else params.tau
    ctx = EvalCtx(params, eps, nu, q, counterterms, l_by_scale=tree.is_rtree)
    Om = ctx.omega_big()
    if tree.is_rtree:
        base = _lval_rtree(tree, asg, ctx)
        path_ids = {nd.nid for nd in tree.path_to_root(tree.special)}
        path_ids.add(tree.special.nid)
    else:
        base = tree_value(tree, asg, params, eps, nu, q, counterterms)
        path_ids = set()
    if base == 0.0:
        return 0.0
    lines = [nd for nd in tree.prop_line_nodes() if nd.n != 0]
    mult = 1.0
    for nd in lines:
        if nd.nid in path_ids:
            continue
        xl = abs(Om * nd.n) - math.sqrt(ctx.omt2(nd.n, nd.m))
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
            w1 = math.sqrt(ctx.omt2(n1.n, n1.m))
            w2 = math.sqrt(ctx.omt2(n2.n, n2.m))
            for a1 in (1, -1):
                for a2 in (1, -1):
                    xp = abs(Om * (n1.n - n2.n) + a1 * w1 + a2 * w2)
                    mult *= float(chi_plain(xp * abs(n1.n - n2.n) ** tau, gamma))
                    if mult == 0.0:
                        return 0.0
    return mult * base


def dump_tree(tree: Tree, asg: dict | None = None) -> str:
    """Indented one-node-per-line rendering used by the CLI and golden tests."""
    lines = []

    def walk(nd: TNode, depth: int):
        h = "" if asg is None else f" h={asg.get(nd.nid, -1)}"
        t = nd.ttype or "-"
        lines.append(f"{'  ' * depth}[{nd.nid}] {nd.kind} t={t} k={nd.kv} "
                     f"mode=({nd.n},{nd.m}){h}")
        for c in nd.children:
            walk(c, depth + 1)

    walk(tree.root, 0)
    return "\n".join(lines)
