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
tables (`_Point`): each mode's omega~^2 = omega_sq(m, mu) + |n| nu, the
double the recursion's propagators divide by, the scale labels its divisor
admits and its cutoff propagator, computed once per (params, eps, nu).

Evaluation works on a whole family at once.  A point's assignment table
(`_Table`, one per family and support rule, cached on the `_Point`) holds
every admissible scale assignment of every tree, one row each, in tree
order and, within a tree, in `itertools.product` order of its lines'
labels.  `_row_values` evaluates all rows together, level by level from the
leaves up (a node's level is its height), doing at each node the
multiplications of the per-tree recursion in the same order: node weight,
then line factor times child value for each child in `TNode` children
order, with the same zero short-circuits.  Renormalized rows carry their
active resonance blocks through the same loop, as two more products along
each block's path, priced at the entering line's natural and on-shell
frequencies; a special-end tree's localized value is one such block from
the root to the special end.  The row values and the sequential sum over
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


def _key(nd: TNode):
    return (nd.kind, nd.ttype, nd.sv, nd.kv, nd.n, nd.m,
            tuple(_key(c) for c in nd.children))


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
    in memo below its cap: its `_key` tuple (children in tuple order) and
    multiplicity, the number of ordered child arrangements it stands for."""
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


def _preorder(root, kids=itemgetter(6)) -> tuple[list, list]:
    """Nodes in node-id order (depth first, last child first) and each one's
    parent id (-1 at the root); kids(node) gives the children (of key tuples)."""
    nodes, par = [], []
    stack = [(root, -1)]
    while stack:
        nd, p = stack.pop()
        par.append(p)
        stack.extend((ch, len(nodes)) for ch in kids(nd))
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
    from (`_key` tuple, multiplicity) per tree.

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
        return [Tree._view(self, t) for t in range(self.count)]


class _Columns:
    """A family's rows as numpy arrays, zero-copy views of its typed rows,
    and what evaluation reads of the family alone, compiled once for every
    point; all read-only.

    - level: each node row's height (ends 0).
    - line_tree, line_pos, line_mode, max_lines: per line of the family's
      line list its tree, its position in the tree's lines and its mode; the
      most lines of a tree.
    - const, consts, props: each node row's index into the family's few
      point-independent row constants: consts, its weight as far as no
      point sets it, the kernel value v at a binary node (weighted a v or
      -b Om^2 v), 1/m^3 at a special end, else 0.0; props, whether its
      exiting line carries a cutoff propagator, which the lines of the
      primary mode and of special ends and the unit root line of a
      special-end tree do not.
    - walk_line, walk_anchor: the lines on the path of each structural
      resonance candidate, below its exit node, with the entering node's
      mode, and of a special-end tree those from the special end up, with
      anchor -1 (`_block_walks`).
    - clean: per tree, whether it has a special end whose block no other
      line repeats the mode of (the family half of `_l_conditions`).
    """

    def __init__(self, f: _Family):
        for c, dt in (("kind", np.int8), ("ttype", np.int8), ("sv", np.int8),
                      ("kv", np.int8), ("n", np.int16), ("m", np.int16), ("mode", np.int16),
                      ("size", np.int16), ("line_row", np.int16), ("pair_row", np.int16),
                      ("cand_row", np.int16), ("special", np.int16)):
            setattr(self, c, np.frombuffer(getattr(f, c).obj, dtype=dt))
        for c in ("start", "mult", "line_start", "pair_start", "cand_start"):
            setattr(self, c, np.frombuffer(getattr(f, c).obj, dtype=getattr(f, c).format))
        inner = np.flatnonzero(self.sv > 0)
        kid = np.where(self.sv[inner] == 2, self.second(inner), inner + 1)
        self.level = np.zeros(len(self.sv), np.int8)
        while True:     # one pass per level: a node sits one above its higher child
            up = np.maximum(self.level[inner + 1], self.level[kid]) + 1
            if np.array_equal(up, self.level[inner]):
                break
            self.level[inner] = up

        nl, roots = np.diff(self.line_start), self.start[:-1]
        self.max_lines = int(nl.max(initial=0))
        self.line_tree = np.repeat(np.arange(f.count), nl).astype(_narrow(f.count))
        self.line_pos = (np.arange(len(self.line_row)) - np.repeat(self.line_start[:-1], nl)
                         ).astype(_narrow(self.max_lines))
        self.line_mode = self.mode[np.repeat(roots, nl) + self.line_row].astype(
            _narrow(len(f.modes)))

        kind, n, m = self.kind, self.n, self.m
        prop = (kind == NODE) | ((kind == END) & ((np.abs(n) != 1) | (m != 1)))
        if f.is_rtree:
            prop[roots] = False
        # weight keys: 0 for none, -m at a special end, and at a binary node
        # 1 + the kernel's (m, m of the second subtree, m of the first); a
        # row's constants are keyed by (weight key, prop)
        ms, two = int(m.max(initial=0)) + 1, np.flatnonzero(self.sv == 2)
        keys = np.zeros(len(kind), np.int64)
        keys[two] = (m[two].astype(np.int64) * ms + m[self.second(two)]) * ms + m[two + 1] + 1
        keys[kind == SPECIAL] = -m[kind == SPECIAL]
        distinct, const = np.unique(2 * keys + prop, return_inverse=True)

        def weight(k: int) -> float:
            if k < 0:
                return 1.0 / (-k) ** 3
            k -= 1
            return kernel_v(k // ms // ms, k // ms % ms, k % ms) if k >= 0 else 0.0

        self.const = const.astype(_narrow(len(distinct)))
        self.consts = np.array([weight(k >> 1) for k in distinct.tolist()])
        self.props = (distinct & 1).astype(bool)

        lines, anchors = _block_walks(f)
        self.walk_line = np.array(lines, _narrow(len(self.line_row)))
        self.walk_anchor = np.array(anchors, _narrow(len(f.modes)))
        self.clean = np.array([e >= 0 and not _repeats(f, s, 0, e)
                               for s, e in zip(f.start, f.special)], bool)
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False      # shared by every point

    def second(self, rows: np.ndarray) -> np.ndarray:
        """Row of the second subtree of each of the given binary node rows,
        the child that comes first in TNode children order."""
        return rows + 1 + self.size[rows + 1]


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
    """One labeled tree: a view of a compiled family's rows.

    TNodes are built only when root, nodes or special is read.
    Tree(root=...) wraps a hand-built TNode tree; finalize() numbers its
    nodes (node ids as in a compiled family) and compiles it into a
    one-tree family.
    """

    __slots__ = ("k", "n", "m", "mult", "is_rtree", "_fam", "_t", "_nodes", "_root")

    def __init__(self, root: TNode, k: int, n: int, m: int, mult: int = 1,
                 is_rtree: bool = False):
        self.k, self.n, self.m, self.mult, self.is_rtree = k, n, m, mult, is_rtree
        self._fam, self._t, self._nodes, self._root = None, 0, None, root

    @classmethod
    def _view(cls, fam: _Family, t: int) -> "Tree":
        tree = cls.__new__(cls)
        (tree.k, tree.n, tree.m), tree.mult, tree.is_rtree = fam.label, fam.mult[t], fam.is_rtree
        tree._fam, tree._t, tree._nodes, tree._root = fam, t, None, None
        return tree

    def __repr__(self):
        return (f"Tree(k={self.k}, n={self.n}, m={self.m}, mult={self.mult}, "
                f"is_rtree={self.is_rtree})")

    def finalize(self) -> "Tree":
        nodes, _par = _preorder(self._root, lambda nd: nd.children)
        for i, nd in enumerate(nodes):
            nd.nid = i
        self._fam = _Family([(_key(self._root), self.mult)], self.k, self.n, self.m,
                            self.is_rtree)
        self._t, self._nodes = 0, nodes
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
    def special(self) -> TNode | None:
        f, t = self._compiled()
        e = f.special[t]
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

class _Mode:
    """Divisor data of one mode (n, m) at one point; root and bar are None
    when omega_m^2 + n nu <= 0."""

    __slots__ = ("n", "m", "omt2", "root", "hs", "lam", "bar", "prop")


class _Point:
    """Mode tables of one point (params, eps, nu), filled on first use.

    Per mode: omega~^2 = omega_sq(m, mu) + n nu, its root, the scale labels
    admitted by the plain divisor |Omega n| - omega~, membership of the
    near-resonant zone, the on-shell frequency omega_bar and the cutoff
    propagator at the natural frequency Omega n per scale label.  Per
    (line mode, anchor mode): the labels admitted by the shifted divisor.
    Per family: its assignment tables (`_Table`), which go with the point;
    and the rows and `_setup` of the table evaluated last, until they are
    read again: a family's plain and renormalized sums over one shared
    table compute them once.
    """

    def __init__(self, params: ModelParams, eps: float, nu_items):
        self.params = params
        self.Om = omega_eff(params, eps)
        self._nu = dict(nu_items or ())
        self._modes: dict = {}
        self._shifted: dict = {}
        self._families: dict = {}
        self._tables: dict = {}
        self._last: tuple | None = None

    def mode(self, n: int, m: int) -> _Mode:
        md = self._modes.get((n, m))
        if md is None:
            p = self.params
            md = self._modes[(n, m)] = _Mode()
            md.n, md.m, md.prop = n, m, {}
            md.omt2 = omega_sq(m, p.mu) + abs(n) * self._nu.get((abs(n), m), 0.0)
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

    def shifted(self, line: _Mode, anchor: _Mode) -> list[int]:
        """Labels of a line on the path of a block localized at anchor."""
        hs = self._shifted.get((line, anchor))
        if hs is None:
            hs = self._shifted[(line, anchor)] = admissible_h_for(
                abs(self.path_freq(line, anchor, True)) - line.root,
                self.params.gamma, self.params.h_max)
        return hs

    def path_freq(self, line: _Mode, anchor: _Mode, on_shell: bool) -> float:
        """Frequency of a line on the path of a block whose entering line
        has mode anchor: Omega (n_line - n_anchor) + f_in, f_in the entering
        frequency, on shell (omega_bar) or natural (Omega n_anchor)."""
        if on_shell and anchor.bar is None:
            raise ValueError("degenerate radicand in localization point")
        f_in = anchor.bar if on_shell else self.Om * anchor.n
        return self.Om * (line.n - anchor.n) + f_in

    def propagator(self, md: _Mode, h: int, freq: float | None = None) -> float:
        """Cutoff propagator chi_h(|freq| - omega~) / (omega~^2 - freq^2) of
        mode md; freq None is the natural frequency Omega n (tabulated).  An
        exact resonance raises ResonantDivisorError, as spectrum.propagator."""
        if freq is None:
            val = md.prop.get(h)
            if val is None:
                val = md.prop[h] = self.propagator(md, h, self.Om * md.n)
            return val
        denom = -freq * freq + md.omt2
        if denom == 0.0:
            raise ResonantDivisorError(f"resonant line at mode {(md.n, md.m)}")
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
    of the row's tree, in the tree's line order.  A line's labels are those
    of its mode's plain divisor unless `supports` gives others; a tree's
    rows run through the product of its lines' labels in itertools.product
    order, without the rows that put two lines of equal mode more than one
    scale apart.  A tree with a line below the scale floor has no rows.
    one: whether every tree has exactly one row.
    """

    __slots__ = ("f", "row_start", "labels", "one", "__weakref__")

    def __init__(self, f: _Family, pt: _Point, supports: dict):
        """supports: the labels of the lines (by index in the family's line
        list) that differ from their mode's plain ones."""
        c, modes, T = f.columns(), pt.modes_of(f), f.count
        width = max([2] + [len(hs) for hs in supports.values()])
        opts = np.array([md.hs + [0] * (width - len(md.hs)) for md in modes],
                        np.int16).reshape(-1, width)[c.line_mode]
        cnt = np.array([len(md.hs) for md in modes], np.int64)[c.line_mode]
        for g, hs in supports.items():
            opts[g, :len(hs)], cnt[g] = hs, len(hs)
        # mixed radix over each tree's lines, the last line fastest
        radix = np.ones((T, c.max_lines + 1), np.int64)
        radix[c.line_tree, c.line_pos] = cnt
        tail = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1]   # combinations of lines p.. of t
        combos, stride = tail[:, 0], tail[c.line_tree, c.line_pos + 1]
        row_tree = np.repeat(np.arange(T), combos)
        # the smallest types that hold the labels and the row count: a
        # point's tables stay in memory as long as the point does
        labels = np.full((len(row_tree), c.max_lines), -1,
                         np.int8 if opts.max(initial=0) < 128 else np.int16)
        one = bool((combos == 1).all())     # one row per tree
        if one:
            labels[c.line_tree, c.line_pos] = opts[:, 0]
        else:
            index = np.arange(len(row_tree)) - np.repeat(np.cumsum(combos) - combos, combos)
            row, p, g = _line_slots(c, row_tree)
            labels[row, p] = opts[g, index[row] // stride[g] % cnt[g]]
        if len(c.pair_row):
            # equal-mode line pairs stay within one scale of each other
            pair_tree = np.repeat(np.arange(T), np.diff(c.pair_start) // 2)
            if one:
                rows, a, b = pair_tree, c.pair_row[0::2], c.pair_row[1::2]
            else:
                per = combos[pair_tree]
                rows = _ranges((np.cumsum(combos) - combos)[pair_tree], per)
                a, b = (np.repeat(c.pair_row[i::2], per) for i in (0, 1))
            drop = rows[np.abs(labels[rows, a] - labels[rows, b]) > 1]
            if len(drop):
                labels, row_tree = np.delete(labels, drop, axis=0), np.delete(row_tree, drop)
        self.f, self.labels, self.one = f, labels, one and len(row_tree) == T
        self.row_start = np.searchsorted(row_tree, np.arange(T + 1)).astype(
            np.int16 if len(row_tree) < 2 ** 15 else np.int32)

    def combos(self, t: int) -> list[list[int]]:
        """Labels of tree t's lines, one list per admissible assignment,
        padded with -1 past the tree's lines."""
        return self.labels[self.row_start[t]:self.row_start[t + 1]].tolist()

    def rows(self) -> tuple:
        """(row_tree, node_row, first, h) of the rows: each row's tree; then
        per node of the rows' trees, laid row after row, its family row and
        the scale of its exiting line (-1 off the propagator lines); each
        row's first node."""
        c, labels, T = self.f.columns(), self.labels, self.f.count
        if self.one:
            # one row per tree: the rows' nodes are the family's own rows
            h = np.full(len(c.sv), -1, np.int16)
            h[c.start[c.line_tree] + c.line_row] = labels[c.line_tree, c.line_pos]
            return np.arange(T), np.arange(len(c.sv)), c.start[:-1], h
        row_tree = np.repeat(np.arange(T), np.diff(self.row_start))
        node_row, first = _node_rows(self.f, row_tree)
        row, p, g = _line_slots(c, row_tree)
        h = np.full(len(node_row), -1, np.int16)
        h[first[row] + c.line_row[g]] = labels[row, p]
        return row_tree, node_row, first, h


def _line_slots(c: _Columns, row_tree: np.ndarray) -> tuple:
    """(row, p, g) per line of each row's tree, row after row: the row, the
    line's position in its tree's line order and its index in the family's."""
    nl = c.line_start[row_tree + 1] - c.line_start[row_tree]
    g = _ranges(c.line_start[row_tree], nl)
    return np.repeat(np.arange(len(row_tree)), nl), c.line_pos[g], g


def _shifted_lines(f: _Family, pt: _Point) -> dict:
    """Labels of the family's lines (by index in its line list) whose
    renormalized support differs from their mode's plain labels.

    Under localization a block's path lines are also evaluated at the
    on-shell frequency of its entering line, so the supports of those
    frequencies are unioned in, for blocks entered in the near-resonant
    zone.  A special-end tree is only ever evaluated on shell, so the lines
    on its special end's path never see the plain divisor at all.  A line
    whose divisor is degenerate rejects the point anyway and keeps its
    plain (empty) labels.
    """
    c, modes = f.columns(), pt.modes_of(f)
    shifted, e_path = {}, set()
    for g, lm, a in zip(c.walk_line.tolist(), c.line_mode[c.walk_line].tolist(),
                        c.walk_anchor.tolist()):
        ml = modes[lm]
        if ml.root is None:
            continue
        if a < 0:
            e_path.add(g)
            shifted.setdefault(g, set())
        elif modes[a].lam and modes[a].bar is not None:
            shifted.setdefault(g, set()).update(pt.shifted(ml, modes[a]))
    out = {}
    for g, hs in shifted.items():
        plain = modes[c.line_mode[g]].hs
        hs = sorted(hs if g in e_path else hs.union(plain))
        if hs != plain:
            out[g] = hs
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


def _setup(f: _Family, rows: tuple, pt: _Point) -> tuple:
    """What evaluating the rows at a point reads besides the context: per
    node its momentum n; the cutoff propagator of its exiting line at its
    natural frequency, 1 on the lines of the primary mode and of special
    ends and on the unit root line of a special-end tree; its weight as far
    as no context sets it (q at ends and n l(h) at unary nodes come later):
    1/m^3 at special ends, a v or -b Om^2 v at binary nodes (v the kernel);
    whether it is an end; the unary nodes; the position of its second child
    (that of the extra last entry, 1 * 1, where it has none); whether its
    parent is b-type; its line factor into its parent, times its momentum
    under a b-type parent; and the nodes of each level, ends first."""
    row_tree, node, first, h = rows
    c, modes = f.columns(), pt.modes_of(f)
    kind, sv, n, level = c.kind[node], c.sv[node], c.n[node], c.level[node]
    enters_b = c.ttype[node] == B
    line, const = np.ones(len(node)), c.const[node]
    prop = c.props[const]
    hs = int(h.max(initial=-1)) + 2        # h + 1 in range(hs)
    line[prop] = _tabulated(c.mode[node[prop]].astype(np.int64) * hs + h[prop] + 1,
                            lambda k: pt.propagator(modes[k // hs], k % hs - 1))
    w = c.consts[const]
    two = sv == 2
    b, kern = node[two], w[two]
    w[two] = np.where(enters_b[two], -pt.params.b * pt.Om ** 2 * kern, pt.params.a * kern)
    w.flags.writeable = False
    kid2 = np.full(len(node), len(node))
    kid2[two] = np.flatnonzero(two) + c.size[b + 1] + 1
    tb = np.flatnonzero(enters_b)
    under_b = np.zeros(len(node) + 1, bool)
    under_b[kid2[tb]] = under_b[tb + 1] = True
    fac = np.where(under_b, np.append(n * line, 1.0), np.append(line, 1.0))
    levels = [np.flatnonzero(level == lv) for lv in range(int(level.max(initial=0)) + 1)]
    return n, line, w, kind == END, np.flatnonzero(sv == 1), kid2, under_b, fac, levels


def _row_values(f: _Family, rows: tuple, ctx: EvalCtx, special: bool = False,
                setup: tuple | None = None) -> np.ndarray:
    """Value of each row (see _Table.rows); setup is `_setup` of the rows at
    ctx's point, computed here if not given.

    Level by level from the ends up, each node gets its weight times, per
    child in children order, the child's line factor times its value; a
    zero factor or a vanishing product gives +0.0, and the root line factor
    comes last, as in evaluating one tree at a time.

    A block (o, i) of `_blocks` gives its exit node o the value
    ((X - S) * entering) * value(i), or 0.0 where X == S or entering, the
    propagator of i's line, is zero.  X and S are the same loop's products
    over the path from i's parent up to o, whose lines take the frequency
    `_Point.path_freq`: from i's natural frequency for X (on shell for a
    special-end block), on shell for S.  There the entering line
    contributes only n_i into a b-type node, and the other children their
    values.  S is 0.0 where the block is not subtracted.
    """
    row_tree, node, first, h = rows
    c, pt, modes = f.columns(), ctx.point, ctx.point.modes_of(f)
    n, line, w, ends, unary, kid2, under_b, fac, levels = setup or _setup(f, rows, pt)
    w = w.copy()
    w[ends] = ctx.q or 0.0
    if len(unary):
        hs, hu = int(h.max(initial=-1)) + 2, h[unary]
        if f.is_rtree:      # the unit root line: use the entering scale
            root = np.zeros(len(node), bool)
            root[first] = True
            root = root[unary]
            hu[root] = h[unary[root] + 1]
        u, ks = node[unary], int(c.kv.max(initial=0)) + 1

        def shift_weight(k):
            md = modes[k // hs // ks]
            return md.n * ctx.l_value(k // hs % ks, md.n, md.m, k % hs - 1)

        w[unary] = _tabulated((c.mode[u].astype(np.int64) * ks + c.kv[u]) * hs + hu + 1,
                              shift_weight)

    val = np.zeros(len(node) + 1)
    val[-1] = 1.0
    val[levels[0]] = w[levels[0]]
    blocks = _blocks(f, rows, ctx, special) if ctx.renormalize or special else None
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
        contexts = []
        for sel, on_shell in ((every, x_shell[bj]), (sub[bj], every)):
            ff = fac.copy()
            ff[i] = np.where(under_b[i], n[i], 1.0)
            at = j[sel]
            lf = _path_lines(pt, modes, lm[sel], h[at], anchor[sel], on_shell[sel])
            ff[at] = np.where(under_b[at], n[at] * lf, lf)
            contexts.append((ff, np.ones(len(node) + 1)))
    for e in levels[1:]:
        v = w[e]
        for kid in (kid2[e], e + 1):      # TNode children order: second subtree first
            v = _times(v, fac[kid], val[kid])
        val[e] = np.where(v == 0.0, 0.0, v)
        if blocks is None:
            continue
        p = e[on_path[e]]
        k = exit_of[p]
        up, top = k < 0, k >= 0
        xs = []
        for ff, fv in contexts:
            v = w[p]
            for kid in (kid2[p], p + 1):
                v = _times(v, ff[kid], np.where(mine[kid], fv[kid], val[kid]))
            fv[p[up]] = v[up]
            xs.append(v[top])
        k = k[top]
        x, s, entering = xs[0], np.where(sub[k], xs[1], 0.0), line[i[k]]
        val[p[top]] = np.where((entering == 0.0) | (x == s), 0.0,
                               ((x - s) * entering) * val[i[k]])
    rootf = line[first]
    return np.where(rootf == 0.0, 0.0, rootf * val[first])


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


def _path_lines(pt: _Point, modes: list, line: np.ndarray, h: np.ndarray,
                anchor: np.ndarray, on_shell) -> np.ndarray:
    """Cutoff propagator of each path line (mode index line, scale h) at the
    path frequency of a block entered by mode index anchor."""
    anchors, anchor = np.unique(anchor, return_inverse=True)
    na, hs = len(anchors), int(h.max(initial=-1)) + 2
    keys = ((line.astype(np.int64) * hs + h + 1) * na + anchor) * 2 + on_shell

    def propagator(k):
        ml, hl = modes[k // 2 // na // hs], k // 2 // na % hs - 1
        return pt.propagator(ml, hl, pt.path_freq(ml, modes[anchors[k // 2 % na]], bool(k % 2)))

    return _tabulated(keys, propagator)


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
        per = np.diff(c.cand_start)[row_tree] // 2
        cand_r = np.repeat(np.arange(len(row_tree)), per)
        exits = c.cand_row[2 * _ranges(c.cand_start[row_tree] // 2, per)]
        found = []
        for r in np.unique(cand_r[h[first[cand_r] + exits] >= 0]).tolist():
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
    if not groups:
        return None
    return tuple(np.concatenate(col) for col in zip(*groups))


def _total(f: _Family, row_tree: np.ndarray, values: np.ndarray) -> float:
    """Sum of multiplicity times value over the rows, added in row order."""
    terms = f.columns().mult[row_tree] * values
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _l_conditions(f: _Family, s: int, o: int, i: int, pt: _Point) -> bool:
    """On-shell subtraction applies only in the near-resonant zone and when
    no block line repeats the external mode label."""
    return pt.modes_of(f)[f.mode[s + i]].lam and not _repeats(f, s, o, i)


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
    f, t = tree._compiled()
    if counterterms is None and f.unary(t):
        raise MissingCountertermError("tree contains shift nodes but no table given")
    ctx = EvalCtx(params, eps, nu, q, counterterms, renormalize)
    row_tree = np.array([t])
    rows = (row_tree, *_node_rows(f, row_tree), np.array(tree._scales(asg), np.int16))
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
    if counterterms is None and (f.columns().sv[rows[1]] == 1).any():
        raise MissingCountertermError("tree contains shift nodes but no table given")
    return _total(f, rows[0], _row_values(f, rows, ctx, setup=setup))


def _localizable(f: _Family, pt: _Point) -> np.ndarray:
    """Per tree of a special-end family, whether its special-end block
    passes `_l_conditions`."""
    c, lam = f.columns(), np.array([md.lam for md in pt.modes_of(f)], bool)
    return c.clean & lam[c.mode[c.start[:-1] + c.special]]


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
