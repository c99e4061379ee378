"""Labeled-tree expansion of the mode recursion.

Every order-k coefficient is a sum over rooted labeled trees: binary nodes
carry one quadratic interaction each, unary nodes carry shift-coefficient
insertions, end nodes carry the primary amplitude q.  Summing tree values
over all admissible dyadic scale labels reproduces the recursion exactly;
renormalizing (subtracting the on-shell part of every resonance and feeding
it back through the shift coefficients) reproduces it again, which is the
central correctness test of the package.

Storage: each (k, n, m, Mmax) family, and each special-end family, is
enumerated once into flat read-only integer rows (`_Family`), kept in a
bounded cache.  A `Tree` is a view of one tree's rows; it builds `TNode`
objects only when asked for them.  Evaluation reads the rows together with
per-point mode tables (`_Point`): the scale labels each mode's divisor
admits and its cutoff propagator, computed once per (params, eps, nu).

Evaluation works on a whole family at once.  A point's assignment table
(`_Table`, one per family and support rule, cached on the `_Point`) holds
every admissible scale assignment of every tree, one row each, in tree
order and, within a tree, in `itertools.product` order of its lines'
labels.  `_row_values` evaluates all rows together, level by level from the
leaves up (a node's level is its height), doing at each node the
multiplications of the per-tree recursion in the same order: node weight,
then line factor times child value for each child in `TNode` children
order, with the same zero short-circuits.  The row values and the
sequential sum over rows are therefore bitwise equal to evaluating the
trees one at a time.  Rows with an active resonance block are evaluated by
the recursive `_region`.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernel import kernel_v
from .series import CountertermTable
from .spectrum import (
    ModelParams,
    ModeSet,
    NuTable,
    admissible_h_for,
    chi_h,
    in_lambda,
    omega_eff,
)

__all__ = [
    "Tree",
    "TNode",
    "EvalCtx",
    "enumerate_trees",
    "enumerate_r_trees",
    "admissible_assignments",
    "family_assignments",
    "tree_value",
    "sum_trees",
    "renormalized_sum",
    "counterterm",
    "counterterm_table",
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
# Compiled families kept: the counting-inequality grid (criterion 6) uses 99
# families and one special-end family per near-resonant mode.
FAMILY_CACHE_SIZE = 256

# node kinds and types as they are stored in the rows
END, SPECIAL, NODE = 0, 1, 2
A, B = 1, 2
_KINDS = ("end", "special", "node")
_TTYPES = ("", "a", "b")


class TreeBudgetError(RuntimeError):
    """Enumeration would exceed the desk-scale object budget."""


class MissingCountertermError(KeyError):
    pass


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


def _key(nd: TNode):
    return (nd.kind, nd.ttype, nd.sv, nd.kv, nd.n, nd.m,
            tuple(_key(c) for c in nd.children))


# ---------------------------------------------------------------------------
# enumeration

def _gen(k: int, n: int, m: int, Mmax: int, with_e: bool, e_mode: tuple | None,
         memo: dict):
    """Skeletons of order k whose root line carries (n, m).

    Returns one canonical TNode per skeleton.  with_e marks the branch that
    must contain the special end node (mode e_mode).  memo holds the
    sub-skeletons of one family while it is compiled.
    """
    key = (k, n, m, with_e)
    if key in memo:
        return memo[key]
    out: dict = {}

    def add(node: TNode):
        out.setdefault(_key(node), node)

    if k == 0:
        if with_e:
            if (n, m) == e_mode and (abs(n), m) != (1, 1):
                add(TNode(0, "special", "", 0, 0, n, m))
        elif (abs(n), m) == (1, 1):
            add(TNode(0, "end", "", 0, 0, n, m))
        res = memo[key] = list(out.values())
        return res

    if (abs(n), m) == (1, 1) or m % 2 == 0 or m > Mmax:
        # only end lines may carry the primary mode
        memo[key] = []
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
                        subs1 = _gen(k1, n1, m1, Mmax, le, e_mode, memo)
                        if not subs1:
                            continue
                        subs2 = _gen(k2, n2, m2, Mmax, re, e_mode, memo)
                        if not subs2:
                            continue
                        for c1 in subs1:
                            for c2 in subs2:
                                kids = ((c1, c2) if _key(c1) <= _key(c2)
                                        else (c2, c1))
                                for t in ("a", "b"):
                                    add(TNode(0, "node", t, 2, 1, n, m, kids))

    # unary root: shift insertion of order r, same mode below
    for r in range(2, k):
        subs = _gen(k - r, n, m, Mmax, with_e, e_mode, memo)
        for c in subs:
            if with_e and c.kind == "special":
                continue  # the corresponding resonance would have one node only
            add(TNode(0, "node", "a", 1, r, n, m, (c,)))

    res = memo[key] = list(out.values())
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


def _preorder(root: TNode) -> tuple[list, list]:
    """Nodes in node-id order (depth first, last child first) and the id of
    each node's parent (-1 at the root)."""
    nodes, par = [], []
    stack = [(root, -1)]
    while stack:
        nd, p = stack.pop()
        par.append(p)
        stack.extend((ch, len(nodes)) for ch in nd.children)
        nodes.append(nd)
    return nodes, par


def _frozen(code: str, values) -> memoryview:
    """A read-only typed array of ints."""
    return memoryview(array(code, values).tobytes()).cast(code)


class _Family:
    """The trees of one family as flat, read-only integer rows.

    Node rows run tree after tree, each tree in node-id order, so the node
    with id i of tree t is row start[t] + i and its subtree is the id range
    [i, i + size[row]).  Per row: par (parent id, -1 at the root), size,
    kind, ttype, sv, kv, n, m (the TNode labels) and mode, an index into the
    family's distinct (n, m) labels `modes`.  Per tree: mult, special (id of
    the special end node, or -1) and, as id lists sliced by *_start: the
    propagator lines, the line pairs with equal modes (positions in the line
    list) and the structural resonance candidates (out, in).
    """

    def __init__(self, roots, mults, k, n, m, is_rtree):
        self.label, self.is_rtree, self.count = (k, n, m), is_rtree, len(roots)
        cols = {c: [] for c in ("par", "size", "kind", "ttype", "sv", "kv", "n", "m", "mode")}
        start, special = [0], []
        lists = {c: ([0], []) for c in ("line", "pair", "cand")}
        modes: dict = {}
        for root in roots:
            nodes, par = _preorder(root)
            size = [1] * len(nodes)
            for i in range(len(nodes) - 1, 0, -1):
                size[par[i]] += size[i]
            keys = [(nd.n, nd.m) for nd in nodes]
            lines = [i for i, nd in enumerate(nodes)
                     if nd.kind == "node" and not (is_rtree and i == 0)]
            pairs = [p for a, la in enumerate(lines) for b in range(a + 1, len(lines))
                     if keys[la] == keys[lines[b]] for p in (a, b)]
            cands = []
            for i, nd in enumerate(nodes):
                # zero-momentum lines are never small, so their exit scale is
                # pinned at -1 and such blocks can never activate
                if nd.kind == "end" or (abs(nd.n), nd.m) == (1, 1) or nd.n == 0:
                    continue
                anc = par[i]
                while anc >= 0:
                    # closing at the unit root line of a special-end tree is
                    # the tree itself; a block holds more than one node
                    if (keys[anc] == keys[i] and not (is_rtree and anc == 0)
                            and size[anc] - size[i] > 1):
                        cands += (anc, i)
                    anc = par[anc]
            special.append(max((i for i, nd in enumerate(nodes) if nd.kind == "special"),
                               default=-1))
            for c, vals in (("line", lines), ("pair", pairs), ("cand", cands)):
                lists[c][1].extend(vals)
                lists[c][0].append(len(lists[c][1]))
            cols["par"] += par
            cols["size"] += size
            cols["kind"] += [_KINDS.index(nd.kind) for nd in nodes]
            cols["ttype"] += [_TTYPES.index(nd.ttype) for nd in nodes]
            cols["sv"] += [nd.sv for nd in nodes]
            cols["kv"] += [nd.kv for nd in nodes]
            cols["n"] += [nd.n for nd in nodes]
            cols["m"] += [nd.m for nd in nodes]
            cols["mode"] += [modes.setdefault(key, len(modes)) for key in keys]
            start.append(len(cols["par"]))
        for c, vals in cols.items():
            setattr(self, c, _frozen("b" if c in ("kind", "ttype", "sv", "kv") else "h", vals))
        self.start, self.mult, self.special = (_frozen("i", start), _frozen("q", mults),
                                               _frozen("h", special))
        for c, (offsets, vals) in lists.items():
            setattr(self, c + "_start", _frozen("i", offsets))
            setattr(self, c + "_row", _frozen("h", vals))
        self.modes = tuple(modes)
        self._cols = None

    def columns(self) -> "_Columns":
        """The rows as numpy arrays, built on first use."""
        if self._cols is None:
            self._cols = _Columns(self)
        return self._cols

    def lines(self, t: int) -> memoryview:
        return self.line_row[self.line_start[t]:self.line_start[t + 1]]

    def cands(self, t: int) -> list[tuple[int, int]]:
        c = self.cand_row[self.cand_start[t]:self.cand_start[t + 1]]
        return list(zip(c[0::2], c[1::2]))

    def unary(self, t: int) -> list[int]:
        s = self.start[t]
        return [i for i, v in enumerate(self.sv[s:self.start[t + 1]]) if v == 1]

    def kids(self, s: int, i: int) -> list[int]:
        """Child ids of node i (tree rows from s) in the TNode children order."""
        out, c, stop = [], i + 1, i + self.size[s + i]
        while c < stop:
            out.append(c)
            c += self.size[s + c]
        out.reverse()
        return out

    def block(self, s: int, o: int, i: int) -> list[int]:
        """Ids of the resonance block: subtree(o) without subtree(i)."""
        stop = i + self.size[s + i]
        return [j for j in range(o, o + self.size[s + o]) if not i <= j < stop]

    def scales(self, t: int, lines, hs) -> list[int]:
        """Scale of each node's exiting line: hs on the given ids, else -1."""
        h = [-1] * (self.start[t + 1] - self.start[t])
        for i, v in zip(lines, hs):
            if 0 <= i < len(h):
                h[i] = v
        return h

    def trees(self) -> list["Tree"]:
        return [Tree._view(self, t) for t in range(self.count)]


class _Columns:
    """A family's rows as numpy arrays, zero-copy views of its typed rows,
    and each node row's height `level` (ends 0)."""

    def __init__(self, f: _Family):
        for c, dt in (("kind", np.int8), ("ttype", np.int8), ("sv", np.int8),
                      ("kv", np.int8), ("n", np.int16), ("m", np.int16), ("mode", np.int16),
                      ("size", np.int16), ("start", np.int32), ("mult", np.int64),
                      ("line_start", np.int32), ("line_row", np.int16),
                      ("pair_start", np.int32), ("pair_row", np.int16),
                      ("cand_start", np.int32), ("cand_row", np.int16),
                      ("special", np.int16)):
            setattr(self, c, np.frombuffer(getattr(f, c).obj, dtype=dt))
        inner = np.flatnonzero(self.sv > 0)
        kid = np.where(self.sv[inner] == 2, self.second(inner), inner + 1)
        self.level = np.zeros(len(self.sv), np.int8)
        while True:     # one pass per level: a node sits one above its higher child
            up = np.maximum(self.level[inner + 1], self.level[kid]) + 1
            if np.array_equal(up, self.level[inner]):
                break
            self.level[inner] = up

    def second(self, rows: np.ndarray) -> np.ndarray:
        """Row of the second subtree of each of the given binary node rows,
        the child that comes first in TNode children order."""
        return rows + 1 + self.size[rows + 1]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length), one after another."""
    ends = np.cumsum(lengths, dtype=np.int64)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _family(k: int, n: int, m: int, Mmax: int, is_rtree: bool) -> _Family:
    """Enumerate and compile one family (the skeleton memo lives only here)."""
    roots = _gen(k, n, m, Mmax, is_rtree, (n, m) if is_rtree else None, {})
    fam = _Family(roots, [_ordered_multiplicity(r) for r in roots], k, n, m, is_rtree)
    if not is_rtree and fam.start[fam.count] > TREE_BUDGET:
        raise TreeBudgetError(f"enumeration of ({k},{n},{m}) exceeds budget")
    return fam


class Tree:
    """One labeled tree: a view of a compiled family's rows.

    TNodes are built only when root, nodes, parent or special is read.
    Tree(root=...) wraps a hand-built TNode tree; finalize() numbers its
    nodes (node ids as in a compiled family) and compiles it into a
    one-tree family.
    """

    __slots__ = ("k", "n", "m", "mult", "is_rtree", "_fam", "_t", "_nodes", "_root",
                 "_parent")

    def __init__(self, root: TNode, k: int, n: int, m: int, mult: int = 1,
                 is_rtree: bool = False):
        self.k, self.n, self.m, self.mult, self.is_rtree = k, n, m, mult, is_rtree
        self._fam, self._t, self._nodes, self._root, self._parent = None, 0, None, root, None

    @classmethod
    def _view(cls, fam: _Family, t: int) -> "Tree":
        tree = cls.__new__(cls)
        (tree.k, tree.n, tree.m), tree.mult, tree.is_rtree = fam.label, fam.mult[t], fam.is_rtree
        tree._fam, tree._t, tree._nodes, tree._root, tree._parent = fam, t, None, None, None
        return tree

    def __repr__(self):
        return (f"Tree(k={self.k}, n={self.n}, m={self.m}, mult={self.mult}, "
                f"is_rtree={self.is_rtree})")

    def finalize(self) -> "Tree":
        nodes, _par = _preorder(self._root)
        for i, nd in enumerate(nodes):
            nd.nid = i
        self._fam = _Family([self._root], [self.mult], self.k, self.n, self.m, self.is_rtree)
        self._t, self._nodes, self._parent = 0, nodes, None
        return self

    def _compiled(self) -> tuple[_Family, int]:
        if self._fam is None:
            self.finalize()
        return self._fam, self._t

    def _scales(self, asg: dict) -> list[int]:
        f, t = self._compiled()
        return f.scales(t, asg.keys(), asg.values())

    @property
    def nodes(self) -> list[TNode]:
        if self._nodes is None:
            f, t = self._compiled()
            s, e = f.start[t], f.start[t + 1]
            nodes = [TNode(i, _KINDS[f.kind[r]], _TTYPES[f.ttype[r]], f.sv[r], f.kv[r],
                           f.n[r], f.m[r]) for i, r in enumerate(range(s, e))]
            for i, nd in enumerate(nodes):
                nd.children = tuple(nodes[c] for c in f.kids(s, i))
            self._nodes = nodes
        return self._nodes

    @property
    def root(self) -> TNode:
        return self._root if self._root is not None else self.nodes[0]

    @property
    def parent(self) -> dict:
        if self._parent is None:
            f, t = self._compiled()
            nodes = self.nodes
            self._parent = {i: (nodes[p] if p >= 0 else None)
                            for i, p in enumerate(f.par[f.start[t]:f.start[t + 1]])}
        return self._parent

    @property
    def special(self) -> TNode | None:
        f, t = self._compiled()
        e = f.special[t]
        return self.nodes[e] if e >= 0 else None

    def prop_line_nodes(self) -> list:
        """Nodes whose exiting line carries a genuine cutoff propagator."""
        f, t = self._compiled()
        return [self.nodes[i] for i in f.lines(t)]

    def path_to_root(self, nd: TNode) -> list:
        out = []
        cur = self.parent[nd.nid]
        while cur is not None:
            out.append(cur)
            cur = self.parent[cur.nid]
        return out


def _tree_family(k: int, n: int, m: int, params: ModelParams, Mmax: int | None) -> _Family:
    if k < 1:
        raise ValueError("order must be >= 1")
    return _family(k, n, m, Mmax or params.Mmax, False)


def enumerate_trees(k: int, n: int, m: int, params: ModelParams,
                    Mmax: int | None = None) -> list[Tree]:
    """All inequivalent labeled skeletons of order k with root mode (n, m)."""
    return _tree_family(k, n, m, params, Mmax).trees()


def _r_family(k: int, n: int, m: int, params: ModelParams, Mmax: int | None) -> _Family:
    if (abs(n), m) == (1, 1):
        raise ValueError("no special-end trees at the primary mode")
    if n == 0:
        raise ValueError("special-end trees need nonzero momentum")
    return _family(k, n, m, Mmax or params.Mmax, True)


def enumerate_r_trees(k: int, n: int, m: int, params: ModelParams,
                      Mmax: int | None = None, h: int | None = None) -> list[Tree]:
    """Special-end-node skeletons used to define the shift coefficients.

    One end node carries the external mode (n, m) with weight 1/m^3; the root
    line has unit propagator.  The scale class h, when given, is recorded by
    the caller's assignment filter (skeletons do not constrain scales).
    """
    return _r_family(k, n, m, params, Mmax).trees()


# ---------------------------------------------------------------------------
# evaluation

class _Mode:
    """Divisor data of one mode (n, m) at one point; root and bar are None
    when omega_m^2 + n nu <= 0."""

    __slots__ = ("n", "m", "omt2", "root", "hs", "lam", "bar", "prop")


class _Point:
    """Mode tables of one point (params, eps, nu), filled on first use.

    Per mode: omega~^2 = omega_m^2 + n nu, its root, the scale labels
    admitted by the plain divisor |Omega n| - omega~, membership of the
    near-resonant zone, the on-shell frequency omega_bar and the cutoff
    propagator at the natural frequency Omega n per scale label.  Per
    (line mode, anchor mode): the labels admitted by the shifted divisor.
    Per family: its assignment tables (`_Table`), which go with the point.
    """

    def __init__(self, params: ModelParams, eps: float, nu_items):
        self.params = params
        self.Om = omega_eff(params, eps)
        self._nu = dict(nu_items or ())
        self._modes: dict = {}
        self._shifted: dict = {}
        self._families: dict = {}
        self._tables: dict = {}

    def mode(self, n: int, m: int) -> _Mode:
        md = self._modes.get((n, m))
        if md is None:
            p = self.params
            md = self._modes[(n, m)] = _Mode()
            md.n, md.m, md.prop = n, m, {}
            md.omt2 = math.sqrt(m ** 4 + p.mu) ** 2 + abs(n) * self._nu.get((abs(n), m), 0.0)
            md.lam = in_lambda(n, m, p)
            if md.omt2 > 0:
                md.root = math.sqrt(md.omt2)
                md.hs = admissible_h_for(abs(self.Om * n) - md.root, p.gamma, p.h_max)
                md.bar = math.copysign(md.root, n)
            else:
                md.root = md.bar = None
                md.hs = []
        return md

    def modes_of(self, fam: _Family) -> list[_Mode]:
        """The tables of a family's modes, indexed like its mode rows."""
        out = self._families.get(fam)
        if out is None:
            out = self._families[fam] = [self.mode(n, m) for (n, m) in fam.modes]
        return out

    def table(self, fam: _Family, renormalize: bool) -> "_Table":
        """The family's assignment table; special-end trees always use the
        renormalized supports."""
        key = (fam, renormalize or fam.is_rtree)
        tab = self._tables.get(key)
        if tab is None:
            supports = _shifted_lines(fam, self) if key[1] else {}
            if supports or fam.is_rtree or not key[1]:
                tab = _Table(fam, self, supports)
            else:
                tab = self.table(fam, False)    # no support differs: share the rows
            self._tables[key] = tab
        return tab

    def shifted(self, line: _Mode, anchor: _Mode) -> list[int]:
        """Labels of a line on the path of a block localized at anchor."""
        hs = self._shifted.get((line, anchor))
        if hs is None:
            f = self.Om * (line.n - anchor.n) + anchor.bar
            hs = self._shifted[(line, anchor)] = admissible_h_for(
                abs(f) - line.root, self.params.gamma, self.params.h_max)
        return hs

    def propagator(self, md: _Mode, h: int, freq: float | None = None) -> float:
        """Cutoff propagator chi_h(|freq| - omega~) / (omega~^2 - freq^2) of
        mode md; freq None is the natural frequency Omega n (tabulated)."""
        if freq is None:
            val = md.prop.get(h)
            if val is None:
                val = md.prop[h] = self.propagator(md, h, self.Om * md.n)
            return val
        denom = -freq * freq + md.omt2
        if denom == 0.0:
            raise ZeroDivisionError(f"resonant line at mode {(md.n, md.m)}")
        return float(chi_h(abs(freq) - math.sqrt(md.omt2), h, self.params.gamma)) / denom


_point_tables = lru_cache(maxsize=4)(_Point)


def _point(params: ModelParams, eps: float, nu: NuTable | None) -> _Point:
    if nu is None:
        return _point_tables(params, eps, None)
    if nu._key is None or nu._key[0] is not params or nu._key[1] != eps:
        nu._key = (params, eps, frozenset(nu.items()))     # NuTable.set drops it
    return _point_tables(*nu._key)


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
        self.point = _point(self.params, self.eps, self.nu)

    def omega_big(self) -> float:
        return self.point.Om

    def omt2(self, n: int, m: int) -> float:
        return self.point.mode(n, m).omt2

    def omega_bar(self, n: int, m: int) -> float:
        bar = self.point.mode(n, m).bar
        if bar is None:
            raise ValueError("degenerate radicand in localization point")
        return bar

    def l_value(self, kv: int, n: int, m: int, h: int) -> float:
        if self.lt is None:
            return 0.0
        if self.l_by_scale:
            return self.lt.get(kv, n, m, h)
        return self.lt.aggregate(kv, n, m)


def _shifted_supports(f: _Family, t: int, pt: _Point, modes: list) -> dict:
    """Labels of the lines of tree t whose support is not the plain one.

    Under localization a block's path lines are also evaluated at the
    on-shell frequency of its entering line, so the supports of those
    frequencies are unioned in.  A special-end tree is only ever evaluated
    on shell, so its path lines never see the plain divisor at all.
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


class _Table:
    """Admissible scale assignments of every tree of a family at one point.

    One row per assignment, tree after tree (tree t has the rows from
    row_start[t] to row_start[t + 1]); labels[r, p] is the label of line p
    of the row's tree, in the tree's line order.  A line's labels are those
    of its mode's plain divisor unless `supports` gives others; a tree's
    rows run through the product of its lines' labels in itertools.product
    order, without the rows that put two lines of equal mode more than one
    scale apart.  A tree with a line below the scale floor has no rows.
    """

    __slots__ = ("f", "row_start", "labels", "__weakref__")

    def __init__(self, f: _Family, pt: _Point, supports: dict):
        """supports: the labels of the lines (by index in the family's line
        list) that differ from their mode's plain ones."""
        c, modes, T = f.columns(), pt.modes_of(f), f.count
        nl = np.diff(c.line_start)
        line_tree = np.repeat(np.arange(T), nl)
        width = max([2] + [len(hs) for hs in supports.values()])
        lm = c.mode[np.repeat(c.start[:-1], nl) + c.line_row]     # mode of each line
        opts = np.array([md.hs + [0] * (width - len(md.hs)) for md in modes],
                        np.int16).reshape(-1, width)[lm]
        cnt = np.array([len(md.hs) for md in modes], np.int64)[lm]
        for g, hs in supports.items():
            opts[g, :len(hs)], cnt[g] = hs, len(hs)
        # mixed radix over each tree's lines, the last line fastest
        pos = np.arange(len(lm)) - c.line_start[line_tree]
        radix = np.ones((T, int(nl.max(initial=0)) + 1), np.int64)
        radix[line_tree, pos] = cnt
        tail = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1]   # combinations of lines p.. of t
        combos, stride = tail[:, 0], tail[line_tree, pos + 1]
        row_tree = np.repeat(np.arange(T), combos)
        index = np.arange(len(row_tree)) - np.repeat(np.cumsum(combos) - combos, combos)
        row, p, g = _line_slots(c, row_tree)
        # the smallest types that hold the labels and the row count: a
        # point's tables stay in memory as long as the point does
        labels = np.full((len(row_tree), radix.shape[1] - 1), -1,
                         np.int8 if opts.max(initial=0) < 128 else np.int16)
        labels[row, p] = opts[g, index[row] // stride[g] % cnt[g]]
        if len(c.pair_row):
            # equal-mode line pairs stay within one scale of each other
            pair_tree = np.repeat(np.arange(T), np.diff(c.pair_start) // 2)
            per = combos[pair_tree]
            rows = _ranges((np.cumsum(combos) - combos)[pair_tree], per)
            a, b = (np.repeat(c.pair_row[i::2], per) for i in (0, 1))
            drop = rows[np.abs(labels[rows, a] - labels[rows, b]) > 1]
            labels, row_tree = np.delete(labels, drop, axis=0), np.delete(row_tree, drop)
        self.f, self.labels = f, labels
        self.row_start = np.searchsorted(row_tree, np.arange(T + 1)).astype(
            np.int16 if len(row_tree) < 2 ** 15 else np.int32)

    def combos(self, t: int) -> list[list[int]]:
        """Labels of tree t's lines, one list per admissible assignment,
        padded with -1 past the tree's lines."""
        return self.labels[self.row_start[t]:self.row_start[t + 1]].tolist()

    def rows(self) -> tuple:
        """(row_tree, node_row, first, h): each row's tree; then per node of
        the rows' trees, laid row after row, its family row and the scale of
        its exiting line (-1 off the propagator lines); each row's first node."""
        c = self.f.columns()
        row_tree = np.repeat(np.arange(self.f.count), np.diff(self.row_start))
        node_row, first = _node_rows(self.f, row_tree)
        row, p, g = _line_slots(c, row_tree)
        h = np.full(len(node_row), -1, np.int16)
        h[first[row] + c.line_row[g]] = self.labels[row, p]
        return row_tree, node_row, first, h


def _line_slots(c: _Columns, row_tree: np.ndarray) -> tuple:
    """(row, p, g) per line of each row's tree, row after row: the row, the
    line's position in its tree's line order and its index in the family's."""
    nl = c.line_start[row_tree + 1] - c.line_start[row_tree]
    row = np.repeat(np.arange(len(row_tree)), nl)
    g = _ranges(c.line_start[row_tree], nl)
    return row, g - c.line_start[row_tree[row]], g


def _shifted_lines(f: _Family, pt: _Point) -> dict:
    """Labels of the family's lines (by index in its line list) whose
    renormalized support differs from their mode's plain labels."""
    c, modes, out = f.columns(), pt.modes_of(f), {}
    own = (np.diff(c.cand_start) > 0) | (f.is_rtree & (c.special >= 0))
    for t in np.flatnonzero(own).tolist():
        sup, s = _shifted_supports(f, t, pt, modes), f.start[t]
        for p, l in enumerate(f.lines(t).tolist()):
            if l in sup and sup[l] != modes[f.mode[s + l]].hs:
                out[f.line_start[t] + p] = sup[l]
    return out


def admissible_assignments(tree: Tree, params: ModelParams, eps: float,
                           nu: NuTable | None, renormalize: bool = False
                           ) -> list[dict]:
    """All scale assignments with every line inside its cutoff support.

    Each propagator line admits at most two labels from its plain divisor;
    under renormalization the localized evaluation shifts path-line divisors,
    so their supports are unioned in.  Lines with equal mode labels are kept
    within one scale of each other.  Empty when a divisor falls below the
    2^-h_max floor (effectively resonant point).  Read off the point's
    assignment table of the tree's family.
    """
    f, t = tree._compiled()
    lines = f.lines(t).tolist()
    return [dict(zip(lines, combo))
            for combo in _point(params, eps, nu).table(f, renormalize).combos(t)]


def family_assignments(k: int, n: int, m: int, params: ModelParams, eps: float,
                       nu: NuTable | None, Mmax: int | None = None, special: bool = False
                       ) -> tuple[int, list[tuple[Tree, dict]]]:
    """The admissible assignments of a whole family under the renormalized
    supports, as `admissible_assignments` gives them tree by tree: their
    number, and the (tree, assignment) pairs that put a line at a scale
    h >= 0.  special selects the special-end family of mode (n, m)."""
    f = (_r_family if special else _tree_family)(k, n, m, params, Mmax)
    tab = _point(params, eps, nu).table(f, True)
    deep = np.flatnonzero(tab.labels.max(axis=1, initial=-1) >= 0)
    out = []
    for r, t in zip(deep.tolist(), (np.searchsorted(tab.row_start, deep, "right") - 1).tolist()):
        out.append((Tree._view(f, t), dict(zip(f.lines(t).tolist(), tab.labels[r].tolist()))))
    return len(tab.labels), out


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
    return -ctx.params.b * ctx.omega_big() ** 2 * v


def _node_rows(f: _Family, row_tree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Family row of every node of the given trees laid one after another,
    and the position of each tree's first node."""
    c = f.columns()
    size = c.start[row_tree + 1] - c.start[row_tree]
    return _ranges(c.start[row_tree], size), np.cumsum(size) - size


def _tabulated(keys: np.ndarray, fn) -> np.ndarray:
    """fn(key) for each of the nonnegative integer keys, called once per
    distinct key."""
    seen = np.zeros(int(keys.max(initial=-1)) + 1, bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    table = np.zeros(len(seen))
    table[distinct] = [fn(k) for k in distinct.tolist()]
    return table[keys]


def _row_values(f: _Family, rows: tuple, ctx: EvalCtx) -> np.ndarray:
    """Value of each row (see _Table.rows) with no active block.

    Level by level from the ends up, each node gets its weight times, per
    child in children order, the child's line factor times its value; a
    zero factor or a vanishing product gives +0.0, and the root line factor
    comes last, as in evaluating one tree at a time.
    """
    row_tree, node, first, h = rows
    c, pt = f.columns(), ctx.point
    kind, sv, n, m, level = c.kind[node], c.sv[node], c.n[node], c.m[node], c.level[node]
    enters_b = c.ttype[node] == B

    # cutoff propagator of each exiting line at its natural frequency: 1 on
    # the lines of the primary mode and of special ends, and on the unit
    # root line of a special-end tree
    line = np.ones(len(node))
    prop = (kind == NODE) | ((kind == END) & ((np.abs(n) != 1) | (m != 1)))
    if f.is_rtree:
        prop[first] = False
    hs, modes = int(h.max(initial=-1)) + 2, pt.modes_of(f)     # h + 1 in range(hs)
    line[prop] = _tabulated(c.mode[node[prop]].astype(np.int64) * hs + h[prop] + 1,
                            lambda k: pt.propagator(modes[k // hs], k % hs - 1))

    # node weights: q at ends, 1/m^3 at special ends, a v or -b Om^2 v at
    # binary nodes (v the kernel), n l(h) at unary nodes
    w = np.zeros(len(node))
    w[kind == END] = ctx.q or 0.0
    special = kind == SPECIAL
    w[special] = [1.0 / mm ** 3 for mm in m[special].tolist()]
    two = sv == 2
    b = node[two]
    other, ms = c.second(b), int(m.max(initial=0)) + 1
    kern = _tabulated((m[two].astype(np.int64) * ms + c.m[other]) * ms + c.m[b + 1],
                      lambda k: kernel_v(k // ms // ms, k // ms % ms, k % ms))
    w[two] = np.where(c.ttype[b] == A, ctx.params.a * kern,
                      -ctx.params.b * ctx.omega_big() ** 2 * kern)
    unary = np.flatnonzero(sv == 1)
    hu = h[unary]
    if f.is_rtree:      # the unit root line: use the entering scale
        root = np.isin(unary, first)
        hu[root] = h[unary[root] + 1]
    u, ks = node[unary], int(c.kv.max(initial=0)) + 1

    def shift_weight(k):
        md = modes[k // hs // ks]
        return md.n * ctx.l_value(k // hs % ks, md.n, md.m, k % hs - 1)

    w[unary] = _tabulated((c.mode[u].astype(np.int64) * ks + c.kv[u]) * hs + hu + 1,
                          shift_weight)

    # per child: its line factor into an a-type and into a b-type parent (b
    # carries the child's momentum) and its value; the extra last entry,
    # 1 * 1, stands in for the second child a unary node does not have
    into_a, into_b = np.append(line, 1.0), np.append(n * line, 1.0)
    val = np.zeros(len(node) + 1)
    val[-1] = 1.0
    kid2 = np.full(len(node), len(node))
    kid2[two] = np.flatnonzero(two) + other - b
    leaves = level == 0
    val[:-1][leaves] = w[leaves]
    for lv in range(1, int(level.max(initial=0)) + 1):
        e = np.flatnonzero(level == lv)
        v, to_b = w[e], enters_b[e]
        for kid in (kid2[e], e + 1):      # TNode children order: second subtree first
            lf = np.where(to_b, into_b[kid], into_a[kid])
            v = np.where((v == 0.0) | (lf == 0.0), 0.0, v * (lf * val[kid]))
        val[e] = np.where(v == 0.0, 0.0, v)
    rootf = line[first]
    return np.where(rootf == 0.0, 0.0, rootf * val[first])


def _total(f: _Family, row_tree: np.ndarray, values: np.ndarray) -> float:
    """Sum of multiplicity times value over the rows, added in row order."""
    terms = f.columns().mult[row_tree] * values
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


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
    Om = ctx.omega_big()
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
        if _l_conditions(f, s, o, i, ctx):
            sub = _region(f, s, o, i, ctx.omega_bar(f.n[s + i], f.m[s + i]), h, ctx, rest)
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


def _l_conditions(f: _Family, s: int, o: int, i: int, ctx: EvalCtx) -> bool:
    """On-shell subtraction applies only in the near-resonant zone and when
    no block line repeats the external mode label."""
    if not ctx.point.modes_of(f)[f.mode[s + i]].lam:
        return False
    mi = f.mode[s + i]
    return all(f.mode[s + j] != mi for j in f.block(s, o, i) if j != o)


def _active(f: _Family, t: int, h: list) -> list[tuple[int, int]]:
    """Candidates whose internal scales all sit below the exit-line scale."""
    s = f.start[t]
    out = []
    for (o, i) in f.cands(t):
        if h[o] < 0:
            continue   # no internal scale sits below -1
        h_int = max((h[j] for j in f.block(s, o, i) if j != o and f.kind[s + j] == NODE),
                    default=-1)
        if h_int < h[o]:
            out.append((o, i))
    return out


def _renormalized_value(f: _Family, t: int, h: list, ctx: EvalCtx, active: list) -> float:
    """Value of tree t with its active blocks renormalized (active nonempty)."""
    s = f.start[t]
    rootf = _line_weights(f, ctx)(s, h[0], None, False)
    if rootf == 0.0:
        return 0.0
    return rootf * _region(f, s, 0, -1, None, h, ctx, active)


def tree_value(tree: Tree, asg: dict, params: ModelParams, eps: float,
               nu: NuTable | None, q: float, counterterms=None,
               l_by_scale: bool = False, renormalize: bool = False) -> float:
    """Value of one labeled tree at one scale assignment.

    Propagator product times node weights; with renormalize=True every
    recognized resonance is replaced by its on-shell-subtracted value and
    unary nodes read scale-resolved shift coefficients.
    """
    f, t = tree._compiled()
    if counterterms is None and f.unary(t):
        raise MissingCountertermError("tree contains shift nodes but no table given")
    ctx = EvalCtx(params, eps, nu, q, counterterms, l_by_scale, renormalize)
    h = tree._scales(asg)
    active = _active(f, t, h) if renormalize else []
    if active:
        return _renormalized_value(f, t, h, ctx, active)
    row_tree = np.array([t])
    rows = (row_tree, *_node_rows(f, row_tree), np.array(h, np.int16))
    return float(_row_values(f, rows, ctx)[0])


def _lval_rtree(f: _Family, t: int, h: list, ctx: EvalCtx) -> float:
    """Localized value of a special-end tree: path frequencies anchored on-shell.

    The entering b-weight (the special line's integer factor) is attached by
    the region evaluation; the unit root line contributes nothing.
    """
    s, e = f.start[t], f.special[t]
    if not _l_conditions(f, s, 0, e, ctx):
        return 0.0
    xbar = ctx.omega_bar(f.n[s + e], f.m[s + e])
    active = _active(f, t, h) if ctx.renormalize else []
    active = [c for c in active if c[1] != e and c[0] != 0]
    block = _region(f, s, 0, e, xbar, h, ctx, active)
    return block * _node_factor(f, s, e, h, ctx)


def sum_trees(k: int, n: int, m: int, params: ModelParams, eps: float,
              nu: NuTable | None, q: float, counterterms=None,
              Mmax: int | None = None) -> float:
    """Plain tree expansion of u^(k)_{n,m}: equals the recursion output."""
    f = _tree_family(k, n, m, params, Mmax)
    ctx = EvalCtx(params, eps, nu, q, counterterms, l_by_scale=False)
    rows = ctx.point.table(f, False).rows()
    return _total(f, rows[0], _row_values(f, rows, ctx))


def renormalized_sum(k: int, n: int, m: int, params: ModelParams, eps: float,
                     nu: NuTable | None, q: float, counterterms,
                     Mmax: int | None = None) -> float:
    """Renormalized tree expansion: resonances subtracted on shell, unary
    nodes reading the scale-resolved shift table built by `counterterm`."""
    f = _tree_family(k, n, m, params, Mmax)
    ctx = EvalCtx(params, eps, nu, q, counterterms, l_by_scale=True, renormalize=True)
    tab = ctx.point.table(f, True)
    rows = tab.rows()
    row_tree, node, first, h = rows
    c = f.columns()
    if counterterms is None and (c.sv[node] == 1).any():
        raise MissingCountertermError("tree contains shift nodes but no table given")
    values = _row_values(f, rows, ctx)
    # a block can be active only where its exit line sits at a scale >= 0
    cand_tree = np.repeat(np.arange(f.count), np.diff(c.cand_start) // 2)
    per = np.diff(tab.row_start)[cand_tree]
    cand_rows = _ranges(tab.row_start[cand_tree], per)
    exit_h = h[first[cand_rows] + np.repeat(c.cand_row[0::2], per)]
    for r in np.unique(cand_rows[exit_h >= 0]).tolist():
        t = int(row_tree[r])
        hr = h[first[r]:first[r] + f.start[t + 1] - f.start[t]].tolist()
        active = _active(f, t, hr)
        if active:
            values[r] = _renormalized_value(f, t, hr, ctx, active)
    return _total(f, row_tree, values)


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
    f = _r_family(k, n, m, params, Mmax)
    ctx = EvalCtx(params, eps, nu, q, lower, l_by_scale=True, renormalize=True)
    tab = ctx.point.table(f, True)
    total = 0.0
    for t in range(f.count):
        lines = f.lines(t)
        for combo in tab.combos(t):
            if max(combo, default=-1) < h:
                continue
            total += f.mult[t] * _lval_rtree(f, t, f.scales(t, lines, combo), ctx)
    return -(m ** 3 / n) * total


def counterterm_table(params: ModelParams, eps: float, nu: NuTable | None, q: float,
                      orders, modes, Mmax: int, scales=(-1,)) -> CountertermTable:
    """`counterterm` on the given orders, modes (n >= 1) and scales (-1: the
    aggregate), filled order by order: each order reads the lower ones."""
    lt = CountertermTable()
    for k in orders:
        for (n, m) in modes:
            for h in scales:
                val = counterterm(k, n, m, h, params, eps, nu, q, lt, Mmax)
                if val != 0.0:
                    lt.set(k, n, m, h, val)
    return lt


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

    # ladder shape: inner line (n + sigma, m') at on-shell frequency, built in
    # one buffer; the shift is zero outside the windows, so only the entries
    # inside them add it
    term = np.empty(v_m1_sq.shape)
    for sig, (at, pos, primary) in zip((1.0, -1.0), inner):
        n1 = narr + sig
        np.add(-(Om * sig + ombar[:, None]) ** 2, om_mp2[None, :], out=term)
        term.reshape(-1)[at] += shift[pos]          # the denominator
        f0 = a + b * Om * Om * sig * n1             # outer node, both types
        f1 = a - b * Om * Om * sig * narr           # inner node, both types
        np.divide(v_m1_sq, term, out=term)
        # a line exiting an internal node may not carry the primary mode
        term[primary, 0] = 0.0
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


def _candidates(tree: Tree) -> list[tuple]:
    """Structural resonance candidates (out_node, in_node) as TNodes.

    in_node's exiting line enters the block; out_node's exiting line leaves
    it with the same mode label.  The block must contain more than one node.
    """
    f, t = tree._compiled()
    return [(tree.nodes[o], tree.nodes[i]) for (o, i) in f.cands(t)]


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
    f, t = tree._compiled()
    s, h, o, i = f.start[t], tree._scales(asg), out_nd.nid, in_nd.nid
    if x is None:
        x = ctx.omega_big() * in_nd.n
    full = _region(f, s, o, i, x, h, ctx, [])
    if not _l_conditions(f, s, o, i, ctx):
        return 0.0, full
    loc = _region(f, s, o, i, ctx.omega_bar(in_nd.n, in_nd.m), h, ctx, [])
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
    from .spectrum import chi as chi_plain

    gamma = gamma if gamma is not None else params.gamma
    tau = tau if tau is not None else params.tau
    ctx = EvalCtx(params, eps, nu, q, counterterms, l_by_scale=tree.is_rtree)
    Om = ctx.omega_big()
    if tree.is_rtree:
        f, t = tree._compiled()
        base = _lval_rtree(f, t, tree._scales(asg), ctx)
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
