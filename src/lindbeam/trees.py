"""Labeled-tree expansion of the mode recursion.

Every order-k coefficient is a sum over rooted labeled trees: binary nodes
carry one quadratic interaction each, unary nodes carry shift-coefficient
insertions, end nodes carry the primary amplitude q.  Summing tree values
over all admissible dyadic scale labels reproduces the recursion exactly;
renormalizing (subtracting the on-shell part of every resonance and feeding
it back through the shift coefficients) reproduces it again, which is the
central correctness test of the package.

Storage: each (k, n, m, Mmax) family, and each special-end family, is
counted by one walk of the split rules (`_count`), checked against
TREE_BUDGET, which also records what each split adds; `_unrank` reads that
record to write tree i as a key tuple, and the trees, in index order, are
flattened into read-only integer rows (`_Family`), kept in a bounded cache.
On first evaluation a family compiles what evaluating it reads of the family
alone, once for every point (`_Columns`).
A `Tree` is a view of one tree's rows; it builds `TNode` objects only when
asked for them.  Evaluation reads the rows together with per-point mode
arrays (`_Point`, `_Modes`): each mode's omega~^2 = omega_sq(m, mu) + |n| nu,
the double the recursion's propagators divide by, the scale labels its
divisor admits and its cutoff propagators, computed once per (params, eps,
nu) and mode, over arrays of modes and lines.

Evaluation works on a whole family at once.  A point's assignment table
(`_Table`, one per family and support rule, cached on the `_Point`) holds
every admissible scale assignment of every tree, one row each, in tree
order and, within a tree, in `itertools.product` order of its lines'
labels.  `_row_values` evaluates all rows together, level by level from the
leaves up (a node's level is its height), doing at each node the
multiplications of the per-tree recursion in the same order: node weight,
then line factor times child value for each child in `TNode` children
order, giving the same +0.0 where a factor vanishes.  Renormalized rows
carry their active resonance blocks through the same loop, as two more
products along each block's path, priced at the entering line's natural
and on-shell frequencies; a special-end tree's localized value is one such
block from the root to the special end.  The row values and the sequential sum over
rows are therefore bitwise equal to evaluating the trees one at a time.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .kernel import kernel_v
from .series import CountertermTable
from .spectrum import (
    ModelParams,
    ModeSet,
    NuTable,
    ResonantDivisorError,
    _admissible,
    admissible_h_for,
    chi_h,
    in_lambda,
    omega_eff,
    omega_sq,
)

__all__ = [
    "Tree",
    "TNode",
    "EvalCtx",
    "enumerate_trees",
    "enumerate_r_trees",
    "admissible_assignments",
    "family_table",
    "tree_value",
    "sum_trees",
    "renormalized_sum",
    "counterterm",
    "counterterm_table",
    "counterterm_order2_closed",
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


# ---------------------------------------------------------------------------
# enumeration

def _splits(key: tuple, Mmax: int, e_mode: tuple | None):
    """The ways to build a root of family key = (k, n, m, with_e) from smaller
    families: (kv, child keys), a binary node (kv 1) per ordered pair of child
    keys that can be nonempty (`_child_m`), then a unary shift insertion of
    order kv per child key.

    with_e marks the families that must contain the special end node (mode
    e_mode); order-0 keys are the end nodes, which have no splits.
    """
    k, n, m, with_e = key
    if k == 0 or (abs(n), m) == (1, 1) or m % 2 == 0 or m > Mmax:
        return      # only end lines may carry the primary mode
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
                for m1 in _child_m(k1, n1, le, e_mode, Mmax):
                    for m2 in _child_m(k2, n2, re, e_mode, Mmax):
                        if kernel_v(m, m1, m2) != 0.0:
                            yield 1, ((k1, n1, m1, le), (k2, n2, m2, re))
    # unary root: shift insertion of order r, same mode below; the child has
    # order >= 1, so no unary node sits directly on an end (a resonance
    # would have one node only)
    for r in range(2, k):
        yield r, ((k - r, n, m, with_e),)


def _child_m(k: int, n: int, with_e: bool, e_mode: tuple | None, Mmax: int) -> range:
    """The spatial labels m for which family (k, n, m, with_e) can be
    nonempty: an end's at order 0, else the odd m <= Mmax off the primary
    mode, when the family's ends can carry momentum n (`_reaches`); the
    splits skip the rest, whose families are empty."""
    if k == 0:
        m = e_mode[1] if with_e else 1
        return range(m, m + 1) if _is_end((0, n, m, with_e), e_mode) else range(0)
    if not _reaches(k, n - e_mode[0] if with_e else n, with_e):
        return range(0)
    return range(3 if abs(n) == 1 else 1, Mmax + 1, 2)


def _reaches(k: int, d: int, with_e: bool) -> bool:
    """Whether the ends of a tree of order k >= 1, less the special end if
    with_e, can add up to momentum d.  A tree with b binary nodes has b + 1
    ends, each at momentum +-1 but the special end, and unary nodes of order
    >= 2 carry the other k - b of its order, so b is k or at most k - 2; the
    largest such b of each parity bounds |d|."""
    return any(abs(d) <= b + 1 - with_e and (b + 1 - with_e - d) % 2 == 0
               for b in (k, k - 3) if b >= 1)


def _is_end(key: tuple, e_mode: tuple | None) -> bool:
    """Whether the order-0 key is an end node: the special end of mode e_mode
    on the branch that carries it, a primary end elsewhere."""
    k, n, m, with_e = key
    return k == 0 and ((n, m) == e_mode if with_e else (abs(n), m) == (1, 1))


def _count(key: tuple, Mmax: int, e_mode: tuple | None, memo: dict,
           cap: float) -> tuple[int, int, list]:
    """(trees, node rows, parts) of family key, both counts saturated at cap,
    kept in memo[key]: each key's splits are walked once per memo.

    The trees come in this order: the end node, then split by split
    (`_splits` order) one per child tree under a unary node and, under a
    binary one over child keys (K1, K2), one per pair (i1 of K1, i2 of K2),
    i1 outer, as type a then b; the children are unordered, so over K1 == K2
    only i1 <= i2, and a split whose reverse came first adds none.  parts,
    the record `_unrank` reads, holds (first tree, kv, kids) per split that
    adds trees."""
    if key in memo:
        return memo[key]
    trees = rows = int(_is_end(key, e_mode))
    parts, pairs = [], set()
    for kv, kids in _splits(key, Mmax, e_mode):
        if rows >= cap:
            break
        if kv == 1:
            if kids[::-1] in pairs:     # each ordered pair comes once
                continue
            pairs.add(kids)
            (t1, r1, _), (t2, r2, _) = (_count(c, Mmax, e_mode, memo, cap) for c in kids)
            if kids[0] == kids[1]:
                t, r = t1 * (t1 + 1) // 2, t1 * (t1 + 1) // 2 + (t1 + 1) * r1
            else:
                t, r = t1 * t2, t1 * t2 + r1 * t2 + r2 * t1
            t, r = 2 * t, 2 * r
        else:
            t, r, _ = _count(kids[0], Mmax, e_mode, memo, cap)
            r += t
        if t:
            parts.append((trees, kv, kids))
        trees, rows = min(trees + t, cap), min(rows + r, cap)
    memo[key] = trees, rows, parts
    return memo[key]


def _unrank(memo: dict, key: tuple, i: int) -> tuple[tuple, int]:
    """Tree i of family key in `_count` order, from the record `_count` left
    in memo below its cap: its key tuple (kind, ttype, sv, kv, n, m,
    children), children in tuple order, and multiplicity, the number of
    ordered child arrangements it stands for."""
    k, n, m, with_e = key
    trees, _, parts = memo[key]
    if not 0 <= i < trees:
        raise IndexError(f"tree {i} of a family of {trees}")
    if k == 0:
        return ("special" if with_e else "end", "", 0, 0, n, m, ()), 1
    first, kv, kids = parts[bisect_right(parts, i, key=itemgetter(0)) - 1]
    if kv > 1:
        child, mult = _unrank(memo, kids[0], i - first)
        return ("node", "a", 1, kv, n, m, (child,)), mult
    j, t = divmod(i - first, 2)
    T = memo[kids[1]][0]
    if kids[0] == kids[1]:
        # pairs i1 <= i2 counted from the last: row T-1-r holds r + 1 pairs
        j = T * (T + 1) // 2 - 1 - j
        r = (math.isqrt(8 * j + 1) - 1) // 2
        i1, i2 = T - 1 - r, T - 1 - (j - r * (r + 1) // 2)
    else:
        i1, i2 = divmod(j, T)
    (c1, m1), (c2, m2) = _unrank(memo, kids[0], i1), _unrank(memo, kids[1], i2)
    return (("node", _TTYPES[t + 1], 2, 1, n, m, (c1, c2) if c1 <= c2 else (c2, c1)),
            m1 * m2 * (1 if (kids[0], i1) == (kids[1], i2) else 2))


def _preorder(root: tuple) -> tuple[list, list]:
    """The nodes of a key tuple in node-id order (depth first, last child
    first) and each one's parent id (-1 at the root)."""
    nodes, par = [], []
    stack = [(root, -1)]
    while stack:
        nd, p = stack.pop()
        par.append(p)
        stack.extend((ch, len(nodes)) for ch in nd[6])
        nodes.append(nd)
    return nodes, par


def _frozen(code: str, values) -> memoryview:
    """A read-only typed array of ints."""
    return memoryview(array(code, values).tobytes()).cast(code)


def _narrow(top: int) -> str:
    """The smallest signed typecode (of array and numpy) that holds the ints
    from -1 to top."""
    return next(t for t in "bhiq" if top < 1 << 8 * array(t).itemsize - 1)


class _Family:
    """The trees of one family as flat, read-only integer rows, compiled
    from (key tuple, multiplicity) per tree (`_unrank`).

    Node rows run tree after tree, each tree in node-id order, so the node
    with id i of tree t is row start[t] + i and its subtree is the id range
    [i, i + size[row]).  Per row: par (parent id, -1 at the root), size,
    kind, ttype, sv, kv, n, m (the TNode labels) and mode, an index into the
    family's distinct (n, m) labels `modes`.  Per tree: mult, special (id of
    the special end node, or -1) and, as id lists sliced by *_start: the
    propagator lines, the line pairs with equal modes (positions in the line
    list) and the structural resonance candidates (out, in).
    """

    def __init__(self, trees, k, n, m, is_rtree):
        self.label, self.is_rtree = (k, n, m), is_rtree
        cols = {c: [] for c in ("par", "size", "kind", "ttype", "sv", "kv", "n", "m", "mode")}
        start, special, mults = [0], [], []
        lists = {c: ([0], []) for c in ("line", "pair", "cand")}
        modes: dict = {}
        for root, mult in trees:
            mults.append(mult)
            nodes, par = _preorder(root)
            size = [1] * len(nodes)
            for i in range(len(nodes) - 1, 0, -1):
                size[par[i]] += size[i]
            keys = [nd[4:6] for nd in nodes]
            lines = [i for i, nd in enumerate(nodes)
                     if nd[0] == "node" and not (is_rtree and i == 0)]
            pairs = [p for a, la in enumerate(lines) for b in range(a + 1, len(lines))
                     if keys[la] == keys[lines[b]] for p in (a, b)]
            cands = []
            for i, (kind, _, _, _, nn, mm, _) in enumerate(nodes):
                # zero-momentum lines are never small, so their exit scale is
                # pinned at -1 and such blocks can never activate
                if kind == "end" or (abs(nn), mm) == (1, 1) or nn == 0:
                    continue
                anc = par[i]
                while anc >= 0:
                    # closing at the unit root line of a special-end tree is
                    # the tree itself; a block holds more than one node
                    if (keys[anc] == keys[i] and not (is_rtree and anc == 0)
                            and size[anc] - size[i] > 1):
                        cands += (anc, i)
                    anc = par[anc]
            special.append(max((i for i, nd in enumerate(nodes) if nd[0] == "special"),
                               default=-1))
            for c, vals in (("line", lines), ("pair", pairs), ("cand", cands)):
                lists[c][1].extend(vals)
                lists[c][0].append(len(lists[c][1]))
            cols["par"] += par
            cols["size"] += size
            cols["kind"] += [_KINDS.index(nd[0]) for nd in nodes]
            cols["ttype"] += [_TTYPES.index(nd[1]) for nd in nodes]
            for j, c in enumerate(("sv", "kv", "n", "m"), 2):
                cols[c] += [nd[j] for nd in nodes]
            cols["mode"] += [modes.setdefault(key, len(modes)) for key in keys]
            start.append(len(cols["par"]))
        for c, vals in cols.items():
            setattr(self, c, _frozen("b" if c in ("kind", "ttype", "sv", "kv") else "h", vals))
        # offsets and multiplicities in the smallest types that hold them
        self.start, self.mult, self.special, self.count = (
            _frozen(_narrow(start[-1]), start), _frozen(_narrow(max(mults, default=1)), mults),
            _frozen("h", special), len(mults))
        for c, (offsets, vals) in lists.items():
            setattr(self, c + "_start", _frozen(_narrow(offsets[-1]), offsets))
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
        return [Tree(self, t) for t in range(self.count)]


class _Columns:
    """A family's rows as numpy arrays, zero-copy views of its typed rows,
    and what evaluation reads of the family alone, compiled once for every
    point; all read-only.

    - level: each node row's height (ends 0).
    - line_tree, line_pos, line_mode, max_lines: per line of the family's
      line list its tree, its position in the tree's lines and its mode; the
      most lines of a tree.
    - mode_n: the n of the family's distinct modes (`_Family.modes`).
    - const, consts, const_role, props: each node row's index into the
      family's few row constants, and one more entry, the 1.0 that a
      missing second child reads; consts, a row's weight as far as no point
      sets it: the kernel value v at a binary node, 1/m^3 at a special end,
      1.0 at an end, else 0.0 (the shift weight at unary nodes comes later);
      const_role, what a context multiplies it by: 1 (role 0), a (1, a-type
      binary node), -b Om^2 (2, b-type) or q (3, end); props, whether the
      row's exiting line carries a cutoff propagator, which the lines of the
      primary mode and of special ends and the unit root line of a
      special-end tree do not.
    - walk_line, walk_anchor, walk_mode: the lines on the path of each
      structural resonance candidate, below its exit node, with the entering
      node's mode, and of a special-end tree those from the special end up,
      with anchor -1 (`_block_walks`); each one's mode.
    - clean, special_mode: per tree, whether it has a special end whose
      block no other line repeats the mode of (the family half of
      `_l_conditions`), and the special end's mode (special-end families).

    And the family's evaluation layout, the rows of a table whose rows are
    its trees, one each; `_laid` lays it over any table's rows:
    - roots: the first node row of each tree (a view of start).
    - line_node: the node row of each line; xprop: the other rows whose
      line carries a propagator (ends off the primary mode).
    - nb: per node row n where its parent is b-type, else 1, and a last 1.
    - unary: the unary node rows.
    - lv_kids, lv_off: the node rows above the ends, level by level (those
      of level l + 1 are columns lv_off[l]:lv_off[l + 1]), as their two
      children in TNode children order: the second subtree (the last row, the
      missing child, at a unary node) over the first, whose row less one is
      the node's.
    - cand_tree, cand_exit: each structural resonance candidate's tree and
      exit node row.
    """

    def __init__(self, f: _Family):
        for c in ("kind", "ttype", "sv", "kv", "n", "m", "mode", "size", "line_row",
                  "pair_row", "cand_row", "special", "start", "mult", "line_start",
                  "pair_start", "cand_start"):
            setattr(self, c, np.frombuffer(getattr(f, c).obj, dtype=getattr(f, c).format))
        R, kind, n, m = len(self.sv), self.kind, self.n, self.m
        two = np.flatnonzero(self.sv == 2)
        kid2 = np.full(R, R)
        kid2[two] = two + 1 + self.size[two + 1]     # the second subtree's root
        inner = np.flatnonzero(self.sv > 0)
        kid = np.where(self.sv[inner] == 2, kid2[inner], inner + 1)
        self.level = np.zeros(R, np.int8)
        while True:     # one pass per level: a node sits one above its higher child
            up = np.maximum(self.level[inner + 1], self.level[kid]) + 1
            if np.array_equal(up, self.level[inner]):
                break
            self.level[inner] = up

        nl = np.diff(self.line_start)
        self.roots = roots = self.start[:-1]
        self.max_lines = int(nl.max(initial=0))
        self.line_tree = np.repeat(np.arange(f.count), nl).astype(_narrow(f.count))
        self.line_pos = (np.arange(len(self.line_row)) - np.repeat(self.line_start[:-1], nl)
                         ).astype(_narrow(self.max_lines))
        self.line_node = (roots[self.line_tree] + self.line_row).astype(_narrow(R))
        self.line_mode = self.mode[self.line_node].astype(_narrow(len(f.modes)))
        self.mode_n = np.array([n for n, _ in f.modes], np.int16)

        prop = (kind == NODE) | ((kind == END) & ((np.abs(n) != 1) | (m != 1)))
        if f.is_rtree:
            prop[roots] = False
        self.xprop = np.flatnonzero(prop & (kind == END)).astype(_narrow(R))
        # constants keyed by (weight key, role, prop); weight keys: 0 for
        # none, -m at a special end, and at a binary node 1 + the kernel's
        # (m, m of the second subtree, m of the first); roles: 1 a-type and
        # 2 b-type binary node, 3 end, 4 the missing child's 1.0, else 0
        ms = int(m.max(initial=0)) + 1
        keys = np.zeros(R + 1, np.int64)
        keys[two] = (m[two].astype(np.int64) * ms + m[kid2[two]]) * ms + m[two + 1] + 1
        keys[:R][kind == SPECIAL] = -m[kind == SPECIAL]
        role = np.zeros(R + 1, np.int64)
        role[two] = np.where(self.ttype[two] == B, 2, 1)
        role[:R][kind == END] = 3
        role[R] = 4
        distinct, const = np.unique(keys * 16 + role * 2 + np.append(prop, False),
                                    return_inverse=True)

        def weight(k: int, r: int) -> float:
            if r >= 3:
                return 1.0
            if k < 0:
                return 1.0 / (-k) ** 3
            k -= 1
            return kernel_v(k // ms // ms, k // ms % ms, k % ms) if k >= 0 else 0.0

        roles = distinct % 16 // 2
        self.const = const.astype(_narrow(len(distinct)))
        self.consts = np.array([weight(k, r) for k, r in zip((distinct // 16).tolist(),
                                                             roles.tolist())])
        self.props = (distinct & 1).astype(bool)
        self.const_role = np.where(roles == 4, 0, roles).astype(np.int8)

        lines, anchors = _block_walks(f)
        self.walk_line = np.array(lines, _narrow(len(self.line_row)))
        self.walk_anchor = np.array(anchors, _narrow(len(f.modes)))
        self.walk_mode = self.line_mode[self.walk_line]
        self.clean = np.array([e >= 0 and not _repeats(f, s, 0, e)
                               for s, e in zip(f.start, f.special)], bool)
        self.special_mode = (self.mode[roots + self.special] if f.is_rtree
                             else np.zeros(0, np.int16))

        # n under a b-type node: at both its children, kid2 and the row after it
        tb = np.flatnonzero(self.ttype == B)
        under_b = np.zeros(R + 1, bool)
        under_b[kid2[tb]] = under_b[tb + 1] = True
        self.nb = np.where(under_b, np.append(n, 1), 1).astype(
            _narrow(int(np.abs(n).max(initial=1))))
        self.unary = np.flatnonzero(self.sv == 1).astype(_narrow(R))
        e = inner[np.argsort(self.level[inner], kind="stable")]     # level by level
        self.lv_kids = np.stack([kid2[e], e + 1]).astype(_narrow(R))
        levels = np.arange(1, int(self.level.max(initial=0)) + 2)
        self.lv_off = tuple(np.searchsorted(self.level[e], levels).tolist())
        per = np.diff(self.cand_start) // 2
        self.cand_tree = np.repeat(np.arange(f.count), per).astype(_narrow(f.count))
        self.cand_exit = (roots[self.cand_tree] + self.cand_row[0::2]).astype(_narrow(R))
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False      # shared by every point


def _block_walks(f: _Family) -> tuple[list, list]:
    """(line, anchor) per line on a walk up a block path, tree after tree:
    from the parent of each structural candidate's entering node i up to
    below its exit node, anchored at i's mode; in a special-end tree also
    from the special end's parent up to the root, anchored at -1, and the
    special end's block from the root as a candidate.  Lines are indices
    in the family's line list; the unit root line of a special-end tree is
    no line and is left out."""
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length), one after another."""
    ends = np.cumsum(lengths, dtype=np.int64)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


def _spread(tree: np.ndarray, row_start: np.ndarray) -> tuple:
    """(e, r): each entry e, of tree tree[e], once per row r of its tree
    (tree t's rows are row_start[t] to row_start[t + 1]), entry after entry."""
    per = (row_start[1:] - row_start[:-1])[tree]
    return np.repeat(np.arange(len(tree)), per), _ranges(row_start[tree], per)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _family(k: int, n: int, m: int, Mmax: int, is_rtree: bool) -> _Family:
    """Count one family, then compile it tree by tree from the count's record;
    refused before any tree is built above TREE_BUDGET node rows, or when too
    deep to count on the stack (two frames per order)."""
    if m < 1:
        raise ValueError("spatial label must be >= 1")
    key, memo = (k, n, m, is_rtree), {}
    try:
        trees, rows, _ = _count(key, Mmax, (n, m) if is_rtree else None, memo, TREE_BUDGET + 1)
    except RecursionError:
        raise TreeBudgetError(f"order {k} is too deep to count") from None
    if rows > TREE_BUDGET:
        raise TreeBudgetError(f"enumeration of ({k},{n},{m}) exceeds budget")
    return _Family((_unrank(memo, key, i) for i in range(trees)), k, n, m, is_rtree)


class Tree:
    """Tree t of a compiled family: a view of its rows.

    k, n, m, mult and is_rtree are read from the family; TNodes are built
    only when root, nodes or special is read.
    """

    __slots__ = ("_fam", "_t", "_nodes")

    def __init__(self, fam: _Family, t: int):
        self._fam, self._t, self._nodes = fam, t, None

    k = property(lambda self: self._fam.label[0])
    n = property(lambda self: self._fam.label[1])
    m = property(lambda self: self._fam.label[2])
    mult = property(lambda self: self._fam.mult[self._t])
    is_rtree = property(lambda self: self._fam.is_rtree)

    def __repr__(self):
        return (f"Tree(k={self.k}, n={self.n}, m={self.m}, mult={self.mult}, "
                f"is_rtree={self.is_rtree})")

    def _scales(self, asg: dict) -> list[int]:
        return self._fam.scales(self._t, asg.keys(), asg.values())

    @property
    def nodes(self) -> list[TNode]:
        if self._nodes is None:
            f, t = self._fam, self._t
            s, e = f.start[t], f.start[t + 1]
            nodes = [TNode(i, _KINDS[f.kind[r]], _TTYPES[f.ttype[r]], f.sv[r], f.kv[r],
                           f.n[r], f.m[r]) for i, r in enumerate(range(s, e))]
            for i, nd in enumerate(nodes):
                nd.children = tuple(nodes[c] for c in f.kids(s, i))
            self._nodes = nodes
        return self._nodes

    @property
    def root(self) -> TNode:
        return self.nodes[0]

    @property
    def special(self) -> TNode | None:
        e = self._fam.special[self._t]
        return self.nodes[e] if e >= 0 else None


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
                      Mmax: int | None = None) -> list[Tree]:
    """Special-end-node skeletons used to define the shift coefficients.

    One end node carries the external mode (n, m) with weight 1/m^3; the root
    line has unit propagator.  Skeletons do not constrain scales: a scale
    class h is the caller's assignment filter.
    """
    return _r_family(k, n, m, params, Mmax).trees()


# ---------------------------------------------------------------------------
# evaluation

class _Modes:
    """Divisor data of a family's modes at one point, as arrays indexed like
    its mode rows, read off the point's `mode_data` on first use: omt2,
    omega~^2 = omega_sq(m, mu) + |n| nu; live, whether it is > 0; root;
    bar, the on-shell frequency omega_bar = sign(n) root; freq, the natural
    frequency Omega n; lam, membership of the near-resonant zone; hs, the
    scale labels admitted by the plain divisor |Omega n| - omega~ (two
    slots, padded with -2), and cnt, how many; nat, the cutoff propagator
    at the natural frequency per label slot."""

    FIELDS = ("omt2", "live", "root", "bar", "freq", "lam", "hs", "cnt", "nat")

    def __init__(self, pt: "_Point", f: _Family):
        self.f, self.n, self.params, self.Om = f, f.columns().mode_n, pt.params, pt.Om
        self._at = pt.mode_rows(f.modes)
        self._data = pt.mode_data

    def weights(self, q: float) -> np.ndarray:
        """The family's row constants (`_Columns.consts`) times what the
        point and the primary amplitude q set: a, -b Om^2 or q by role."""
        c, p = self.f.columns(), self.params
        return c.consts * np.array([1.0, p.a, -p.b * self.Om ** 2, q])[c.const_role]

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in _Modes.FIELDS:
            raise AttributeError(name)
        col = self.__dict__[name] = self._data[_Modes.FIELDS.index(name)][self._at]
        return col

    def price(self, lm: np.ndarray, h: np.ndarray, freq: np.ndarray) -> np.ndarray:
        """Cutoff propagator chi_h(|freq| - omega~) / (omega~^2 - freq^2) of
        lines of mode index lm at scale h and frequency freq; an exact
        resonance raises ResonantDivisorError, as spectrum.propagator."""
        omt2 = self.omt2[lm]
        denom = -freq * freq + omt2
        zero = denom == 0.0
        if zero.any():
            raise ResonantDivisorError(f"resonant line at mode {self.f.modes[lm[zero.argmax()]]}")
        return chi_h(np.abs(freq) - np.sqrt(omt2), h, self.params.gamma) / denom

    def natural(self, lm: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The propagators of lines of mode index lm at scale h and their
        natural frequency, read off the label slots where h is one."""
        hs = self.hs[lm]
        first = hs[:, 0] == h
        if first.all():
            return self.nat[lm, 0]
        second = hs[:, 1] == h
        out = np.where(first, self.nat[lm, 0], self.nat[lm, 1])
        other = ~(first | second)
        if other.any():
            out[other] = self.price(lm[other], h[other], self.freq[lm[other]])
        return out

    def path(self, lm: np.ndarray, h: np.ndarray, anchor: np.ndarray,
             on_shell: np.ndarray) -> np.ndarray:
        """Cutoff propagators of path lines of mode index lm at scale h, in a
        block entered by mode index anchor: at the frequency Omega (n_line -
        n_anchor) + f_in, f_in the entering frequency on shell (omega_bar)
        or natural (Omega n_anchor)."""
        if (on_shell & ~self.live[anchor]).any():
            raise ValueError("degenerate radicand in localization point")
        f_in = np.where(on_shell, self.bar[anchor], self.freq[anchor])
        return self.price(lm, h, self.Om * (self.n[lm] - self.n[anchor]) + f_in)

    def shifted(self, lm: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        """Labels (two slots, padded with -2) of path lines of mode index lm
        in blocks entered by mode index anchor, localized on shell."""
        freq = self.Om * (self.n[lm] - self.n[anchor]) + self.bar[anchor]
        return admissible_h_for(np.abs(freq) - self.root[lm], self.params.gamma,
                                self.params.h_max)


class _Point:
    """Mode tables of one point (params, eps, nu), filled on first use.

    Per mode asked for: its divisor data (`mode_data`, `_Modes.FIELDS`).
    Per family: its assignment tables (`_Table`), which go with the point;
    the divisor data of the modes of the family asked for last (`_Modes`);
    and the rows and `_setup` of the table evaluated last, until they are
    read again: a family's plain and renormalized sums over one shared
    table compute them once.
    """

    hint: tuple = ()     # the modes asked for at the last point to ask for new ones

    def __init__(self, params: ModelParams, eps: float, nu_items):
        self.params = params
        self.Om = omega_eff(params, eps)
        self._nu = dict(nu_items or ())
        self._arrays: _Modes | None = None
        self._rows: dict = {}
        self.mode_data: tuple = ()
        self._tables: dict = {}
        self._last: tuple | None = None

    def arrays(self, fam: _Family) -> _Modes:
        """The divisor data of a family's modes, kept for the family asked
        for last: one family's tables and sums are taken one after another."""
        if self._arrays is None or self._arrays.f is not fam:
            self._arrays = _Modes(self, fam)
        return self._arrays

    def mode_rows(self, modes: tuple) -> np.ndarray:
        """The rows of the given distinct modes in `mode_data`, the divisor
        data (`_Modes.FIELDS`) of every mode asked for at the point, each
        computed once, for a family's new modes together."""
        rows = self._rows
        new = [md for md in modes if md not in rows]
        if new or not rows:
            if not rows:    # a point asks for about the modes of the one before
                asked = set(new)
                new += [md for md in _Point.hint if md not in asked]
            p, Om = self.params, self.Om
            n, m = np.array(new, np.int64).reshape(-1, 2).T
            an = np.abs(n)
            nu = np.array([self._nu.get(k, 0.0) for k in zip(an.tolist(), m.tolist())])
            omt2 = omega_sq(m, p.mu) + an * nu
            live = omt2 > 0.0
            root = np.sqrt(np.where(live, omt2, 1.0))
            freq = Om * n
            hs, cut = _admissible(np.where(live, np.abs(freq) - root, 0.0), p.gamma, p.h_max)
            with np.errstate(invalid="ignore", divide="ignore"):
                nat = cut / (-freq * freq + omt2)[:, None]
            data = (omt2, live, root, np.copysign(root, n), freq, in_lambda(an, m, p), hs,
                    (hs >= -1).sum(axis=1), nat)
            self.mode_data = data if not rows else tuple(
                np.concatenate([old, col]) for old, col in zip(self.mode_data, data))
            for md in new:
                rows[md] = len(rows)
            _Point.hint = tuple(rows)
        return np.array([rows[md] for md in modes], np.intp)

    def table(self, fam: _Family, renormalize: bool) -> "_Table":
        """The family's assignment table; special-end trees always use the
        renormalized supports."""
        key = (fam, renormalize or fam.is_rtree)
        tab = self._tables.get(key)
        if tab is None:
            supports = _shifted_lines(fam, self) if key[1] else None
            if supports is not None or fam.is_rtree or not key[1]:
                tab = _Table(fam, *_line_labels(fam, self, supports))
            else:
                tab = self.table(fam, False)    # no support differs: share the rows
            self._tables[key] = tab
        return tab

    def evaluation(self, tab: "_Table") -> tuple:
        """(rows, setup) of all of a table's rows, `_Table.rows` and
        `_setup`: kept from one evaluation of the table to the next, if that
        comes before any other table's."""
        last, self._last = self._last, None
        if last is not None and last[0] is tab:
            return last[1:]
        rows = tab.rows()
        self._last = (tab, rows, _setup(tab.f, rows, self))
        return self._last[1:]


_point_tables = lru_cache(maxsize=4)(_Point)


def _point(params: ModelParams, eps: float, nu: NuTable | None) -> _Point:
    if nu is None:
        return _point_tables(params, eps, None)
    key = nu._point_args
    if key is None or key[0] is not params or key[1] != eps:
        key = nu._point_args = (params, eps, frozenset(nu.items()))    # NuTable.set drops it
    return _point_tables(*key)


@dataclass
class EvalCtx:
    """What a tree's value reads besides its rows: the point, the primary
    amplitude q and the shift table lt.  renormalize subtracts the active
    resonance blocks on shell and makes unary nodes read lt by scale (else
    its aggregate over scales)."""
    params: ModelParams
    eps: float
    nu: NuTable | None
    q: float
    lt: object = None            # CountertermTable or None
    renormalize: bool = False

    def __post_init__(self):
        self.point = _point(self.params, self.eps, self.nu)

    def l_value(self, kv: int, n: int, m: int, h: int) -> float:
        if self.lt is None:
            return 0.0
        if self.renormalize:
            return self.lt.get(kv, n, m, h)
        return self.lt.aggregate(kv, n, m)


class _Table:
    """Admissible scale assignments of every tree of a family at one point.

    One row per assignment, tree after tree (tree t has the rows from
    row_start[t] to row_start[t + 1]); labels[r, p] is the label of line p
    of the row's tree, in the tree's line order.  Line g of the family's
    line list admits the labels opts[g, :cnt[g]] (`_line_labels`); a tree's
    rows run through the product of its lines' labels in itertools.product
    order, without the rows that put two lines of equal mode more than one
    scale apart.  A tree with a line below the scale floor has no rows.
    """

    __slots__ = ("f", "row_start", "labels", "__weakref__")

    def __init__(self, f: _Family, opts: np.ndarray, cnt: np.ndarray, shifted: bool):
        """shifted: whether any line's labels differ from its mode's plain
        ones.  The rows count through the mixed radix of each tree's lines'
        label counts, the last line fastest; a line with one label adds no
        digit."""
        c, T = f.columns(), f.count
        self.f = f
        # the smallest type that holds the labels: a point's tables stay in
        # memory as long as the point does
        labels = np.full((T, c.max_lines), -1, np.int8 if opts.max(initial=0) < 128 else np.int16)
        labels[c.line_tree, c.line_pos] = opts[:, 0]
        row_start, expand = np.arange(T + 1), bool((cnt != 1).any())
        if expand:
            digit = np.flatnonzero(cnt != 1)
            tree, p, radix = c.line_tree[digit], c.line_pos[digit], cnt[digit].astype(np.int64)
            tail = np.ones((T, c.max_lines + 1), np.int64)
            tail[tree, p] = radix
            tail = np.cumprod(tail[:, ::-1], axis=1)[:, ::-1]   # combinations of lines p.. of t
            row_start = np.append(0, np.cumsum(tail[:, 0]))
            labels = np.repeat(labels, tail[:, 0], axis=0)
            d, r = _spread(tree, row_start)
            digits = (r - row_start[tree[d]]) // tail[tree[d], p[d] + 1] % radix[d]
            labels[r, p[d]] = opts[digit[d], digits]
        if len(c.pair_row) and (shifted or expand):
            # equal-mode line pairs stay within one scale of each other; only
            # a shifted support or a line with several labels sets them apart
            pair_tree = np.repeat(np.arange(T), np.diff(c.pair_start) // 2)
            e, r = _spread(pair_tree, row_start)
            drop = r[np.abs(labels[r, c.pair_row[0::2][e]] - labels[r, c.pair_row[1::2][e]]) > 1]
            if len(drop):
                labels = np.delete(labels, drop, axis=0)
                row_start = row_start - np.searchsorted(np.unique(drop), row_start)
        self.labels = labels
        self.row_start = row_start.astype(np.int16 if len(labels) < 2 ** 15 else np.int32)

    def combos(self, t: int) -> list[list[int]]:
        """Labels of tree t's lines, one list per admissible assignment,
        padded with -1 past the tree's lines."""
        return self.labels[self.row_start[t]:self.row_start[t + 1]].tolist()

    def rows(self) -> tuple:
        """(row_tree, node, first, h) of the rows (`_rows`), h the scale of
        each node's exiting line, -1 off the propagator lines."""
        c, rows = self.f.columns(), _rows(self.f, self.row_start)
        at, j, r = _laid(c, rows, c.line_node, c.line_tree)
        h = np.full(len(rows[1]), -1, np.int16)
        h[at] = self.labels[r, c.line_pos[j]]
        return (*rows, h)


def _rows(f: _Family, row_start: np.ndarray) -> tuple:
    """(row_tree, node, first) of rows in tree order, tree t's from
    row_start[t] to row_start[t + 1]: each row's tree, the family row of
    each node of the rows' trees laid row after row, and each row's first
    node; the family's own, first being `_Columns.roots`, if one per tree."""
    c, T = f.columns(), f.count
    if row_start[-1] == T and not np.count_nonzero(row_start[1:] == row_start[:-1]):
        return np.arange(T), np.arange(len(c.sv)), c.roots
    row_tree = np.repeat(np.arange(T), np.diff(row_start))
    size = c.start[row_tree + 1] - c.start[row_tree]
    return row_tree, _ranges(c.start[row_tree], size), np.cumsum(size) - size


def _laid(c: _Columns, rows: tuple, at: np.ndarray | None = None,
          tree: np.ndarray | None = None) -> tuple:
    """(at, j, r): a compiled array of the family's node rows laid over the
    rows (`_rows`), each entry once per row r of its tree, entry after
    entry, moved to that row's node positions; j indexes the entries in
    arrays alike, whose trees tree holds if given.  A two-dimensional at
    (`lv_kids`) has each entry's tree in its last row, and its missing child
    (row R) goes one past the rows' nodes.  Without at, j is each node's
    family row, then R, to gather per-node arrays (`nb`, `const`).  Where
    the rows are the family's own, (at, all of them, tree)."""
    if rows[2] is c.roots:
        return at, slice(None), tree
    row_tree, node, first = rows[:3]
    R = len(c.sv)
    if at is None:
        return None, np.append(node, R), None
    if tree is None:
        tree = np.searchsorted(c.start, np.atleast_2d(at)[-1], side="right") - 1
    j, r = _spread(tree, np.searchsorted(row_tree, np.arange(len(c.start))))
    rows_at = at[..., j]
    moved = rows_at + (first - c.start[row_tree])[r]
    moved[rows_at == R] = len(node)
    return moved, j, r


def _line_labels(f: _Family, pt: _Point, supports: tuple | None) -> tuple:
    """(opts, cnt, shifted): line g of the family's line list admits the
    labels opts[g, :cnt[g]], ascending, padded with -2: its mode's plain
    ones unless supports (`_shifted_lines`) gives others; shifted: whether
    it does."""
    a, lm = pt.arrays(f), f.columns().line_mode
    opts = a.hs[lm]
    if supports is None:
        return opts, a.cnt[lm], False
    lines, labels = supports
    if labels.shape[1] > 2:
        opts = np.concatenate([opts, np.full((len(opts), labels.shape[1] - 2), -2, opts.dtype)],
                              axis=1)
    opts[lines] = -2
    opts[lines, :labels.shape[1]] = labels
    return opts, (opts >= -1).sum(axis=1), True


def _shifted_lines(f: _Family, pt: _Point) -> tuple | None:
    """(lines, labels) of the family's lines (by index in its line list)
    whose renormalized support differs from their mode's plain labels, or
    None: per such line its labels, ascending, padded with -2.

    Under localization a block's path lines are also evaluated at the
    on-shell frequency of its entering line, so the supports of those
    frequencies are unioned in, for blocks entered in the near-resonant
    zone.  A special-end tree is only ever evaluated on shell, so the lines
    on its special end's path never see the plain divisor at all.  A line
    whose divisor is degenerate rejects the point anyway and keeps its
    plain (empty) labels.
    """
    c, a = f.columns(), pt.arrays(f)
    if not len(c.walk_line):
        return None
    lm, anchor = c.walk_mode, np.maximum(c.walk_anchor, 0)
    live = a.live[lm]
    e = live & (c.walk_anchor < 0)
    use = live & (c.walk_anchor >= 0) & a.lam[anchor] & a.live[anchor]
    if not (e | use).any():
        return None
    g, lu = c.walk_line[use], lm[use]
    shifted, plain = a.shifted(lu, anchor[use]), a.hs[lu]
    # no line gains a label where every walk's labels are among its line's
    # plain ones, and a line on a special end's path has all of these where
    # one of its walks has them
    if ((shifted[:, :, None] == plain[:, None, :]) | (shifted[:, :, None] == -2)).any(2).all():
        full = np.zeros(len(c.line_mode), bool)
        full[g[(shifted == plain).all(axis=1)]] = True
        if full[c.walk_line[e]].all():
            return None
    on_e, touched = np.zeros(len(c.line_mode), bool), np.zeros(len(c.line_mode), bool)
    on_e[c.walk_line[e]] = touched[g] = True
    keep = np.flatnonzero(touched & ~on_e)      # their plain labels are unioned in
    touched = np.flatnonzero(touched | on_e)
    hh = np.concatenate([shifted.reshape(-1), a.hs[c.line_mode[keep]].reshape(-1)])
    gg = np.repeat(np.concatenate([g, keep]), 2)
    span = pt.params.h_max + 2
    key = np.unique((gg.astype(np.int64) * span + hh + 1)[hh >= -1])
    at, hs = np.searchsorted(touched, key // span), key % span - 1
    cnt = np.bincount(at, minlength=len(touched))
    labels = np.full((len(touched), max(2, int(cnt.max(initial=0)))), -2, np.int16)
    labels[at, np.arange(len(key)) - np.searchsorted(at, at)] = hs
    differs = (labels[:, :2] != a.hs[c.line_mode[touched]]).any(axis=1) | (cnt > 2)
    if not differs.any():
        return None
    return touched[differs], labels[differs]


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
    f, t = tree._fam, tree._t
    lines = f.lines(t).tolist()
    return [dict(zip(lines, combo))
            for combo in _point(params, eps, nu).table(f, renormalize).combos(t)]


def family_table(k: int, n: int, m: int, params: ModelParams, eps: float,
                 nu: NuTable | None, special: bool = False
                 ) -> tuple[_Family, np.ndarray, np.ndarray]:
    """A family's assignment table at a point under the renormalized
    supports, as `admissible_assignments` slices it: the family, each row's
    tree and the rows' labels (`_Table.labels`).  special selects the
    special-end family of mode (n, m)."""
    f = (_r_family if special else _tree_family)(k, n, m, params, None)
    tab = _point(params, eps, nu).table(f, True)
    return f, np.repeat(np.arange(f.count), np.diff(tab.row_start)), tab.labels


def _tabulated(keys: np.ndarray, fn) -> np.ndarray:
    """fn(key) for each of the nonnegative integer keys, called once per
    distinct key."""
    seen = np.zeros(int(keys.max(initial=-1)) + 1, bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    table = np.zeros(len(seen))
    table[distinct] = [fn(k) for k in distinct.tolist()]
    return table[keys]


def _setup(f: _Family, rows: tuple, pt: _Point) -> tuple:
    """What evaluating the rows at a point reads besides the context:
    (line, nb, fac, const, unary, kids, inner, fk, off, plain), the layout
    from the family's (`_laid`).

    Per node: line, the cutoff propagator of its exiting line at its natural
    frequency, 1 on the lines of the primary mode and of special ends and on
    the unit root line of a special-end tree; nb, its momentum n where its
    parent is b-type, else 1; fac, its line factor into its parent, line *
    nb; const, its index into the family's row constants.  line, nb, fac
    and const have one more entry, for the missing second child of a unary
    node: 1.0, 1, 1.0 and the constant 1.0.  unary: the unary nodes.  kids, off: the nodes
    above the ends, level by level, as their two children in TNode children
    order (`_Columns.lv_kids`), and as themselves (inner); fk, the children's
    fac.  plain: per q, the row values where no unary node reads a shift
    table and no block is renormalized, which are then the same in every
    context at the point (`_row_values` fills it)."""
    row_tree, node, first, h = rows
    c, a = f.columns(), pt.arrays(f)
    line = np.ones(len(node) + 1)
    at, j, _ = _laid(c, rows, c.line_node, c.line_tree)
    line[at] = a.natural(c.line_mode[j], h[at])
    at = _laid(c, rows, c.xprop)[0]
    if len(at):
        line[at] = a.natural(c.mode[node[at]], h[at])
    _, j, _ = _laid(c, rows)
    nb, const, unary = c.nb[j], c.const[j], _laid(c, rows, c.unary)[0]
    kids, j, _ = _laid(c, rows, c.lv_kids)
    off = c.lv_off if kids is c.lv_kids else tuple(np.searchsorted(j, c.lv_off).tolist())
    fac = line * nb
    return line, nb, fac, const, unary, kids, kids[1] - 1, fac[kids], off, {}


def _row_values(f: _Family, rows: tuple, ctx: EvalCtx, special: bool = False,
                setup: tuple | None = None) -> np.ndarray:
    """Value of each row (see _Table.rows); setup is `_setup` of the rows at
    ctx's point, computed here if not given.

    Level by level from the ends up, each node gets its weight times, per
    child in children order, the child's line factor times its value, and
    +0.0 where that vanishes; the root line factor comes last, as in
    evaluating one tree at a time, which also gives +0.0 where a factor is
    zero.  The two agree wherever every node value is finite; where one is
    not, the values are taken again with those zero guards (`_times`).

    A block (o, i) of `_blocks` gives its exit node o the value
    ((X - S) * entering) * value(i), or 0.0 where X == S or entering, the
    propagator of i's line, is zero.  X and S are the same loop's products
    over the path from i's parent up to o, whose lines take the frequency
    `_Modes.path`: from i's natural frequency for X (on shell for a
    special-end block), on shell for S.  There the entering line
    contributes only n_i into a b-type node, and the other children their
    values.  S is 0.0 where the block is not subtracted.
    """
    _, node, first, h = rows
    c = f.columns()
    line, nb, fac, const, unary, kids, inner, fk, off, plain = (
        setup or _setup(f, rows, ctx.point))
    blocks = _blocks(f, rows, ctx, special) if ctx.renormalize or special else None
    q = ctx.q or 0.0
    if blocks is None and not len(unary) and q in plain:
        return plain[q]
    a = ctx.point.arrays(f)
    val = a.weights(q)[const]
    if len(unary):
        hs, hu = int(h.max(initial=-1)) + 2, h[unary]
        if f.is_rtree:      # the unit root line: use the entering scale
            root = np.isin(unary, first)
            hu[root] = h[unary[root] + 1]
        u, ks = node[unary], int(c.kv.max(initial=0)) + 1

        def shift_weight(k):
            n, m = f.modes[k // hs // ks]
            return n * ctx.l_value(k // hs % ks, n, m, k % hs - 1)

        val[unary] = _tabulated((c.mode[u].astype(np.int64) * ks + c.kv[u]) * hs + hu + 1,
                                shift_weight)
    w = val[inner]              # the weights of the nodes above the ends, level by level
    if blocks is not None:
        o, i, sub, x_shell = blocks
        path, blk = _paths(c, node, o, i)
        on_path = np.zeros(len(node), bool)
        on_path[path] = True
        exit_of = np.full(len(node), -1)
        exit_of[o] = np.arange(len(o))
        # the X and S contexts: as children of a path node, the path nodes
        # below the exit node (mine) bring their X or S product and their
        # line factor at the path frequency, the entering node only n_i into
        # a b-type node and the value 1; the other children their own
        below = path != o[blk]
        j, bj = path[below], blk[below]
        mine = np.zeros(len(node) + 1, bool)
        mine[j] = mine[i] = True
        lm, anchor, every = c.mode[node[j]], c.mode[node[i[bj]]], np.ones(len(j), bool)
        contexts = []       # X, and S where a block is subtracted
        for sel, on_shell in ((every, x_shell[bj]), (sub[bj], every))[:1 + bool(sub.any())]:
            ff = fac.copy()
            ff[i] = nb[i]
            at = j[sel]
            ff[at] = nb[at] * a.path(lm[sel], h[at], anchor[sel], on_shell[sel])
            contexts.append(ff)
        blocks = (i, sub, on_path, exit_of, mine, contexts)
    for guarded in (False, True):
        _levels(val, w, inner, line, fac, kids, fk, off, blocks, guarded)
        if math.isfinite(val.sum()):
            break
    rootf = line[first]
    out = np.where(rootf == 0.0, 0.0, rootf * val[first])
    if blocks is None and not len(unary):
        out.flags.writeable = False
        plain[q] = out
    return out


def _levels(val: np.ndarray, w: np.ndarray, inner: np.ndarray, line: np.ndarray,
            fac: np.ndarray, kids: np.ndarray, fk: np.ndarray, off: tuple,
            blocks: tuple | None, guarded: bool):
    """The node values of `_row_values`, level by level into val, which
    holds the ends' values (and the 1.0 of the missing child) on entry; the
    nodes above the ends are inner, of weights w, in level order.

    guarded: with the zero guards of `_times` on every child of a node's
    own product, else without.  Without them a product differs only in the
    sign of a zero, which the node values do not keep, or where a factor is
    not finite, which leaves a node value that is not finite either.  The X
    and S products keep their guards."""
    if blocks is not None:
        i, sub, on_path, exit_of, mine, contexts = blocks
        contexts = [(ff, np.ones(len(ff))) for ff in contexts]
    for lo, hi in zip(off[:-1], off[1:]):
        kk, wl, e = kids[:, lo:hi], w[lo:hi], inner[lo:hi]
        if guarded:
            v = wl
            for kid in kk:      # TNode children order: second subtree first
                v = _times(v, fac[kid], val[kid])
        else:
            v = fk[:, lo:hi] * val[kk]
            v = wl * v[0] * v[1]
        val[e] = v + 0.0        # +0.0 where v is zero
        if blocks is None:
            continue
        at = on_path[e]
        if not at.any():
            continue
        p, pk, wp = e[at], kk[:, at], wl[at]
        k = exit_of[p]
        up, top = k < 0, k >= 0
        xs = []
        for ff, fv in contexts:
            v = wp
            for kid in pk:
                v = _times(v, ff[kid], np.where(mine[kid], fv[kid], val[kid]))
            fv[p[up]] = v[up]
            xs.append(v[top])
        k = k[top]
        x, entering = xs[0], line[i[k]]
        s = np.where(sub[k], xs[1], 0.0) if len(xs) > 1 else 0.0
        val[p[top]] = np.where((entering == 0.0) | (x == s), 0.0,
                               ((x - s) * entering) * val[i[k]])


def _times(v: np.ndarray, lf: np.ndarray, child: np.ndarray) -> np.ndarray:
    """v * (lf * child), +0.0 where v or the line factor lf is zero."""
    return np.where((v == 0.0) | (lf == 0.0), 0.0, v * (lf * child))


def _paths(c: _Columns, node: np.ndarray, o: np.ndarray, i: np.ndarray) -> tuple:
    """(path, blk): the positions of the nodes from each block's exit node o
    down to the parent of its entering node i, and the block of each."""
    blk = np.repeat(np.arange(len(o)), i - o)
    path = _ranges(o, i - o)        # node ids run depth first: the path lies in [o, i)
    keep = path + c.size[node[path]] > i[blk]
    return path[keep], blk[keep]


def _blocks(f: _Family, rows: tuple, ctx: EvalCtx, special: bool) -> tuple | None:
    """The blocks whose values `_row_values` renormalizes, or None: (o, i,
    sub, x_shell), per block the positions (in the rows' node layout) of
    its exit node o and entering node i, whether its on-shell part S is
    subtracted (`_l_conditions`) and whether X is priced on shell.

    With special, the first block of each row whose tree is `_localizable`
    runs from the root to the special end (X on shell, no S); `_localized`
    zeroes the other rows.  With ctx.renormalize, the active blocks follow
    (`_active`): per exit node the first in `_active` order, replaced by
    each later one whose entering node lies below the current one's; none
    whose exit node lies on the path of a block above it.
    """
    row_tree, node, first, h = rows
    c, size = f.columns(), f.size
    groups = []
    if special:
        keep = _localizable(f, ctx.point)[row_tree]
        at = first[keep]
        groups.append((at, at + c.special[row_tree[keep]], np.zeros(len(at), bool),
                       np.ones(len(at), bool)))
    if ctx.renormalize and len(c.cand_row):
        # a block can be active only where its exit line sits at a scale >= 0
        exits, _, r = _laid(c, rows, c.cand_exit, c.cand_tree)
        hit = np.unique(r[h[exits] >= 0])
        found = []
        for r in hit.tolist():
            t, at = int(row_tree[r]), int(first[r])
            s = f.start[t]
            chosen: dict = {}
            for (bo, bi) in _active(f, t, h[at:at + f.start[t + 1] - s].tolist()):
                ci = chosen.get(bo)
                if ci is None or ci <= bi < ci + size[s + ci]:
                    chosen[bo] = bi
            done = [(0, f.special[t])] if special else []
            for bo in sorted(chosen):
                bi = chosen[bo]
                if not any(po < bo < pi < bo + size[s + bo] for po, pi in done):
                    done.append((bo, bi))
                    found.append((at + bo, at + bi, _l_conditions(f, s, bo, bi, ctx.point)))
        if found:
            fo, fi, fs = (np.array(col) for col in zip(*found))
            groups.append((fo, fi, fs, np.zeros(len(fo), bool)))
    if len(groups) < 2:
        return groups[0] if groups else None
    return tuple(np.concatenate(col) for col in zip(*groups))


def _total(f: _Family, row_tree: np.ndarray, values: np.ndarray) -> float:
    """Sum of multiplicity times value over the rows, added in row order."""
    terms = f.columns().mult[row_tree] * values
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _l_conditions(f: _Family, s: int, o: int, i: int, pt: _Point) -> bool:
    """On-shell subtraction applies only in the near-resonant zone and when
    no block line repeats the external mode label."""
    return bool(pt.arrays(f).lam[f.mode[s + i]]) and not _repeats(f, s, o, i)


def _repeats(f: _Family, s: int, o: int, i: int) -> bool:
    """Whether a line of block (o, i) of the tree at rows s.., other than
    the exit line, has the entering mode."""
    mi = f.mode[s + i]
    return any(f.mode[s + j] == mi for j in f.block(s, o, i) if j != o)


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


def tree_value(tree: Tree, asg: dict, params: ModelParams, eps: float,
               nu: NuTable | None, q: float, counterterms=None,
               renormalize: bool = False) -> float:
    """Value of one labeled tree at one scale assignment.

    Propagator product times node weights; with renormalize=True every
    recognized resonance is replaced by its on-shell-subtracted value and
    unary nodes read scale-resolved shift coefficients.
    """
    f, t = tree._fam, tree._t
    if counterterms is None and f.unary(t):
        raise MissingCountertermError("tree contains shift nodes but no table given")
    ctx = EvalCtx(params, eps, nu, q, counterterms, renormalize)
    row_start = (np.arange(f.count + 1) > t).astype(np.intp)     # one row, of tree t
    rows = (*_rows(f, row_start), np.array(tree._scales(asg), np.int16))
    return float(_row_values(f, rows, ctx)[0])


def sum_trees(k: int, n: int, m: int, params: ModelParams, eps: float,
              nu: NuTable | None, q: float, counterterms=None,
              Mmax: int | None = None) -> float:
    """Plain tree expansion of u^(k)_{n,m}: equals the recursion output."""
    f = _tree_family(k, n, m, params, Mmax)
    ctx = EvalCtx(params, eps, nu, q, counterterms)
    rows, setup = ctx.point.evaluation(ctx.point.table(f, False))
    return _total(f, rows[0], _row_values(f, rows, ctx, setup=setup))


def renormalized_sum(k: int, n: int, m: int, params: ModelParams, eps: float,
                     nu: NuTable | None, q: float, counterterms,
                     Mmax: int | None = None) -> float:
    """Renormalized tree expansion: resonances subtracted on shell, unary
    nodes reading the scale-resolved shift table built by `counterterm`."""
    f = _tree_family(k, n, m, params, Mmax)
    ctx = EvalCtx(params, eps, nu, q, counterterms, renormalize=True)
    rows, setup = ctx.point.evaluation(ctx.point.table(f, True))
    if counterterms is None and len(setup[4]):      # unary nodes
        raise MissingCountertermError("tree contains shift nodes but no table given")
    return _total(f, rows[0], _row_values(f, rows, ctx, setup=setup))


def _localizable(f: _Family, pt: _Point) -> np.ndarray:
    """Per tree of a special-end family, whether its special-end block
    passes `_l_conditions`."""
    c = f.columns()
    return c.clean & pt.arrays(f).lam[c.special_mode]


def _localized(f: _Family, ctx: EvalCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row_tree, values, top) of the rows of a special-end family's table:
    each row's localized value, the value of its special-end block priced
    on shell times the special end's weight, 0.0 on the trees that fail
    `_localizable`; and its highest line scale.  Every row of the table is
    evaluated, with the point's shared rows and setup."""
    tab = ctx.point.table(f, True)
    rows, setup = ctx.point.evaluation(tab)
    row_tree = rows[0]
    values = np.where(_localizable(f, ctx.point)[row_tree],
                      _row_values(f, rows, ctx, special=True, setup=setup), 0.0)
    return row_tree, values, tab.labels.max(axis=1, initial=-1)


def counterterm(k: int, n: int, m: int, h: int, params: ModelParams, eps: float,
                nu: NuTable | None, q: float, lower, Mmax: int | None = None
                ) -> float:
    """Scale-h shift coefficient from the special-end tree family.

    l^(k)_{n,m,h} = -(m^3/n) * sum over special-end trees whose maximal
    internal scale is >= h of the localized value.  Zero off the
    near-resonant zone; lower orders are read from `lower`.
    """
    return _counterterms(k, n, m, (h,), params, eps, nu, q, lower, Mmax)[0]


def _counterterms(k: int, n: int, m: int, scales, params: ModelParams, eps: float,
                  nu: NuTable | None, q: float, lower, Mmax: int | None = None) -> list[float]:
    """`counterterm` at each of the scales, from one evaluation of the rows."""
    if n == 0 or (abs(n), m) == (1, 1) or not in_lambda(n, m, params):
        return [0.0] * len(scales)
    if n < 0:
        return [-v for v in _counterterms(k, -n, m, scales, params, eps, nu, q, lower, Mmax)]
    f = _r_family(k, n, m, params, Mmax)
    row_tree, values, top = _localized(f, EvalCtx(params, eps, nu, q, lower, renormalize=True))
    return [-(m ** 3 / n) * _total(f, row_tree[top >= h], values[top >= h]) for h in scales]


def counterterm_table(params: ModelParams, eps: float, nu: NuTable | None, q: float,
                      orders, modes, scales=(-1,)) -> CountertermTable:
    """`counterterm` on the given orders, modes (n >= 1) and scales (-1: the
    aggregate), filled order by order: each order reads the lower ones, and
    each family is evaluated once for all the scales."""
    lt = CountertermTable()
    for k in orders:
        for (n, m) in modes:
            for h, val in zip(scales, _counterterms(k, n, m, scales, params, eps, nu, q, lt)):
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
    Raises DegenerateRadicandError (`ModeSet.radicand`) at the first entry,
    in m-then-n order, whose on-shell omega~^2 = omega_m^2 + n nu is <= 0.
    """
    a, b = params.a, params.b
    Om = omega_eff(params, eps)
    _, side, v_m1_sq, inner, om_mp2 = modes.closed_rows
    narr = modes.n
    ombar = np.sqrt(modes.radicand(shift)[modes.pos])    # on-shell

    # side-chain shape: inner line (0, m'), b-type outer node vanishes
    s = a * (a + b * Om * Om) * side

    # ladder shape: inner line (n + sigma, m') at on-shell frequency, built in
    # one buffer; the shift is zero outside the windows, so only the entries
    # inside them add it.  om_m'^2 - x^2 is the same double as -x^2 + om_m'^2;
    # subtracting two contiguous blocks is faster than a broadcast
    term = np.empty(v_m1_sq.shape)
    for sig, (at, pos, primary) in zip((1.0, -1.0), inner):
        n1 = narr + sig
        x = Om * sig + ombar
        term[...] = (x * x)[:, None]
        np.subtract(om_mp2, term, out=term)
        term.reshape(-1)[at] += shift[pos]          # the denominator
        f0 = a + b * Om * Om * sig * n1             # outer node, both types
        f1 = a - b * Om * Om * sig * narr           # inner node, both types
        np.divide(v_m1_sq, term, out=term)
        # a line exiting an internal node may not carry the primary mode
        term[primary, 0] = 0.0
        s = s + f0 * f1 * term.sum(axis=1)

    return -(4.0 * q * q / narr) * s


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
