import math

import numpy as np
import pytest

from lindbeam.kernel import kernel_v
from lindbeam.series import CountertermTable, compute_coeffs, lambda_modes
from lindbeam.spectrum import ModelParams, NuTable, mode_set, omega_eff, scaled_propagator
from lindbeam.trees import (
    MissingCountertermError,
    TNode,
    Tree,
    admissible_assignments,
    counterterm,
    counterterm_order2_closed,
    detect_clusters,
    detect_resonances,
    dump_tree,
    enumerate_r_trees,
    enumerate_trees,
    extended_value,
    localize_split,
    renormalized_sum,
    resonance_to_rtree,
    sum_trees,
    tree_value,
    _candidates,
    _ordered_multiplicity,
)

P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.05, omega_branch=1, Mmax=9, Nmax=60)
EPS = 0.013
MM = 9


def make_nu():
    nu = NuTable(eps0=P.eps0)
    nu.set(2, 1, 3e-4)
    return nu


def build_l2(nu, q):
    lt = CountertermTable()
    for (n, m) in lambda_modes(P, MM, 6):
        v = counterterm(2, n, m, -1, P, EPS, nu, q, CountertermTable(), MM)
        if v != 0.0:
            lt.set(2, n, m, -1, v)
    return lt


# ---------------------------------------------------------------------------
# enumeration

def test_enumeration_counts():
    # two skeletons at order 1, momentum 2: both ends +1, type a or b
    ts = enumerate_trees(1, 2, 3, P, MM)
    assert len(ts) == 2 and all(t.mult == 1 for t in ts)
    # odd momentum is infeasible for two +-1 ends
    assert enumerate_trees(1, 3, 3, P, MM) == []
    # momentum 0: ordered (+-) arrangements collapse into multiplicity 2
    ts0 = enumerate_trees(1, 0, 3, P, MM)
    assert len(ts0) == 2 and all(t.mult == 2 for t in ts0)
    # no unary nodes at order 2 (their subtree would need order 0 off-primary)
    for n in (-3, -1, 1, 3):
        for t in enumerate_trees(2, n, 3, P, MM):
            assert all(nd.sv != 1 for nd in t.nodes)
    # multiplicity equals the number of ordered arrangements
    for t in enumerate_trees(3, 0, 3, P, MM)[:40]:
        assert t.mult == _ordered_multiplicity(t.root)


def test_enumeration_rejects_primary_internal_lines():
    for k in (1, 2, 3):
        for n in (-2, 0, 2, 1, -1):
            for m in (1, 3):
                for t in enumerate_trees(k, n, m, P, MM) if (abs(n), m) != (1, 1) else []:
                    for nd in t.nodes:
                        if nd.kind == "node":
                            assert (abs(nd.n), nd.m) != (1, 1)


def test_order1_value_formula():
    # single binary node of type b with both ends +1:
    # value = g_{2,m,h} * (-b Om^2 * 1 * 1) * v_{m,1,1} * q^2
    q = 0.8
    Om = omega_eff(P, EPS)
    for t in enumerate_trees(1, 2, 3, P, MM):
        asg = {t.root.nid: -1}
        val = tree_value(t, asg, P, EPS, None, q)
        g = scaled_propagator(2, 3, -1, P, EPS)
        if t.root.ttype == "b":
            want = g * (-P.b * Om ** 2) * kernel_v(3, 1, 1) * q * q
        else:
            want = g * P.a * kernel_v(3, 1, 1) * q * q
        assert val == pytest.approx(want, rel=1e-14)


def test_tree_value_zero_cases():
    t = enumerate_trees(1, 2, 3, P, MM)[0]
    # a vanishing cutoff slice kills the value
    assert tree_value(t, {t.root.nid: 7}, P, EPS, None, 0.8) == 0.0
    # q = 0 kills every tree
    assert tree_value(t, {t.root.nid: -1}, P, EPS, None, 0.0) == 0.0


def test_missing_counterterm_error():
    t3 = [t for t in enumerate_trees(3, 2, 1, P, MM)
          if any(nd.sv == 1 for nd in t.nodes)]
    assert t3, "expected unary skeletons at order 3 on the near-resonant mode"
    with pytest.raises(MissingCountertermError):
        tree_value(t3[0], {nd.nid: -1 for nd in t3[0].nodes}, P, EPS, None, 0.8,
                   counterterms=None)


@pytest.mark.parametrize("k", [1, 2])
def test_tree_expansion_equals_recursion(k):
    nu, q = make_nu(), 0.8
    table = compute_coeffs(P, EPS, nu, None, k, MM, q=q)
    for n in range(-(k + 1), k + 2):
        for m in range(1, MM + 1):
            if (abs(n), m) == (1, 1):
                continue
            want = table.value(k, n, m)
            got = sum_trees(k, n, m, P, EPS, nu, q, None, MM)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-16)


def test_expansion_equality_with_synthetic_shift_table():
    nu, q = make_nu(), 0.8
    lt = CountertermTable()
    lt.set(2, 2, 1, -1, 0.37)
    lt.set(2, 4, 3, -1, -0.21)
    table = compute_coeffs(P, EPS, nu, lt, 3, MM, q=q)
    for n in (-4, -2, 0, 2, 4):
        for m in (1, 3, 7):
            if (abs(n), m) == (1, 1):
                continue
            want = table.value(3, n, m)
            got = sum_trees(3, n, m, P, EPS, nu, q, lt, MM)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-16)


def test_renormalized_expansion_equals_recursion():
    nu, q = make_nu(), 0.8
    lt = build_l2(nu, q)
    table = compute_coeffs(P, EPS, nu, lt, 3, MM, q=q)
    for n in (-4, -2, 0, 2, 4):
        for m in (1, 3, 5):
            if (abs(n), m) == (1, 1):
                continue
            want = table.value(3, n, m)
            got = renormalized_sum(3, n, m, P, EPS, nu, q, lt, MM)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-16)
    # orders <= 2 carry no renormalization at all
    t2 = compute_coeffs(P, EPS, nu, lt, 2, MM, q=q)
    for n in (-1, 1, 3):
        got = renormalized_sum(2, n, 3, P, EPS, nu, q, lt, MM)
        plain = sum_trees(2, n, 3, P, EPS, nu, q, lt, MM)
        assert got == plain == pytest.approx(t2.value(2, n, 3), rel=1e-12, abs=1e-16)


def test_renormalized_reduces_to_plain_with_zero_table():
    nu, q = make_nu(), 0.8
    zero = CountertermTable()
    for (n, m) in [(0, 3), (2, 5)]:
        a = renormalized_sum(3, n, m, P, EPS, nu, q, zero, MM)
        b = sum_trees(3, n, m, P, EPS, nu, q, zero, MM)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-18)


# ---------------------------------------------------------------------------
# special-end trees and counterterms

def test_r_tree_enumeration():
    ts = enumerate_r_trees(2, 9, 3, P, MM)
    assert ts, "order-2 special-end family must be nonempty"
    for t in ts:
        assert t.special is not None and (t.special.n, t.special.m) == (9, 3)
        # regular ends carry +-1 and sum to zero
        regs = [nd for nd in t.nodes if nd.kind == "end"]
        assert sum(nd.n for nd in regs) == 0
        # no unary node fed directly by the special end (one-node blocks)
        for nd in t.nodes:
            if nd.sv == 1:
                assert nd.children[0].kind != "special"
    with pytest.raises(ValueError):
        enumerate_r_trees(2, 1, 1, P, MM)
    # parity: odd orders are empty
    assert enumerate_r_trees(3, 9, 3, P, MM) == []


def test_counterterm_enum_matches_closed_form():
    q = 0.8
    ms = mode_set(P.mu, P.eps0, MM, 60)
    # a shift on every mode also reaches the inner lines (|n +- 1|, m')
    rng = np.random.default_rng(4)
    sampled = ms.nu_table(rng.uniform(-0.2, 0.2, len(ms)) * P.eps0, P.nu_cap)
    for nu in (make_nu(), sampled):
        closed = counterterm_order2_closed(P, EPS, ms.shift(nu), q, ms)
        for (n, m), want in zip(ms.modes(), closed):
            got = counterterm(2, n, m, -1, P, EPS, nu, q, CountertermTable(), MM)
            assert got == pytest.approx(float(want), rel=1e-12, abs=1e-18)


def test_counterterm_profile():
    nu, q = make_nu(), 0.8
    # zero off the near-resonant zone and odd in n
    assert counterterm(2, 5, 3, -1, P, EPS, nu, q, CountertermTable(), MM) == 0.0
    v = counterterm(2, 9, 3, -1, P, EPS, nu, q, CountertermTable(), MM)
    vm = counterterm(2, -9, 3, -1, P, EPS, nu, q, CountertermTable(), MM)
    assert vm == -v != 0.0
    # scale shells: everything lives at h = -1 at this order, so the
    # telescoping differences vanish for h >= 0
    v0 = counterterm(2, 9, 3, 0, P, EPS, nu, q, CountertermTable(), MM)
    v1 = counterterm(2, 9, 3, 1, P, EPS, nu, q, CountertermTable(), MM)
    assert v0 == v1 == 0.0
    assert v - v0 == v   # shell sum at h = -1 is the whole value
    # homogeneity of degree 2 in the primary amplitude
    v2 = counterterm(2, 9, 3, -1, P, EPS, nu, 2 * q, CountertermTable(), MM)
    assert v2 == pytest.approx(4 * v, rel=1e-13)


# ---------------------------------------------------------------------------
# clusters, resonances, localization

def chain_tree(scales):
    """Hand-built chain: root node - node - two ends, with given line scales."""
    e1 = TNode(0, "end", "", 0, 0, 1, 1)
    e2 = TNode(0, "end", "", 0, 0, 1, 1)
    v1 = TNode(0, "node", "a", 2, 1, 2, 3, (e1, e2))
    e0 = TNode(0, "end", "", 0, 0, -1, 1)
    v0 = TNode(0, "node", "a", 2, 1, 1, 5, (e0, v1))
    t = Tree(root=v0, k=2, n=1, m=5).finalize()
    nodes = {nd.m: nd for nd in t.nodes if nd.kind == "node"}
    asg = {nodes[5].nid: scales[0], nodes[3].nid: scales[1]}
    return t, asg, nodes


def test_detect_clusters_basic():
    t, asg, _ = chain_tree((-1, -1))
    cls = detect_clusters(t, asg)
    assert len(cls) == 1 and len(cls[0].node_ids) == len(t.nodes)
    t, asg, _ = chain_tree((-1, 5))
    cls = detect_clusters(t, asg)
    sizes = sorted(len(c.node_ids) for c in cls)
    assert sizes == [2, 3, 5]          # two low-scale islands inside the whole
    # laminar family
    for a in cls:
        for b in cls:
            inter = a.node_ids & b.node_ids
            assert inter in (frozenset(), a.node_ids, b.node_ids)


def test_detect_resonances_rules():
    # singleton clusters and multi-entry clusters are never resonances
    t, asg, _ = chain_tree((-1, 4))
    assert detect_resonances(t, asg) == []
    # build an order-2 block with equal in/out labels and one entering line:
    # out line (2,3) at high scale, inner content at -1
    e_in = TNode(0, "node", "a", 2, 1, 2, 3,
                 (TNode(0, "end", "", 0, 0, 1, 1), TNode(0, "end", "", 0, 0, 1, 1)))
    ep = TNode(0, "end", "", 0, 0, 1, 1)
    em = TNode(0, "end", "", 0, 0, -1, 1)
    v1 = TNode(0, "node", "a", 2, 1, 3, 5, (ep, e_in))
    v0 = TNode(0, "node", "a", 2, 1, 2, 3, (em, v1))
    t2 = Tree(root=v0, k=3, n=2, m=3).finalize()
    root = t2.root
    asg2 = {nd.nid: -1 for nd in t2.nodes if nd.kind == "node"}
    # both external lines of the block sit above the block's internal scales
    asg2[root.nid] = 3
    e_in_live = next(nd for nd in t2.nodes if nd.kind == "node"
                     and (nd.n, nd.m) == (2, 3) and nd is not root)
    asg2[e_in_live.nid] = 3
    res = detect_resonances(t2, asg2)
    assert len(res) == 1
    assert (res[0].entering[0].n, res[0].entering[0].m) == (2, 3)
    assert res[0].exiting is root
    # structural candidates agree
    cands = _candidates(t2)
    assert len(cands) == 1 and cands[0][0] is root


def test_localize_split_identities():
    nu, q = make_nu(), 0.8
    # use the structural candidate from the hand-built tree above
    e_in = TNode(0, "node", "a", 2, 1, 2, 1,
                 (TNode(0, "end", "", 0, 0, 1, 1), TNode(0, "end", "", 0, 0, 1, 1)))
    ep = TNode(0, "end", "", 0, 0, 1, 1)
    em = TNode(0, "end", "", 0, 0, -1, 1)
    v1 = TNode(0, "node", "a", 2, 1, 3, 3, (ep, e_in))
    v0 = TNode(0, "node", "a", 2, 1, 2, 1, (em, v1))
    t = Tree(root=v0, k=3, n=2, m=1).finalize()
    (out_nd, in_nd), = _candidates(t)
    asg = {nd.nid: -1 for nd in t.nodes if nd.kind == "node"}
    ctxkw = dict(params=P, eps=EPS, nu=nu, q=q)
    # R vanishes at the localization point
    from lindbeam.trees import EvalCtx
    xbar = EvalCtx(P, EPS, nu, q).omega_bar(2, 1)
    loc, rem = localize_split(t, out_nd, in_nd, asg, P, EPS, nu, q, x=xbar)
    assert rem == pytest.approx(0.0, abs=1e-18)
    # L is independent of the evaluation point
    loc2, _ = localize_split(t, out_nd, in_nd, asg, P, EPS, nu, q, x=0.37)
    assert loc2 == loc != 0.0
    # outside the near-resonant zone the on-shell part is declared zero
    e_in5 = TNode(0, "node", "a", 2, 1, 2, 5,
                  (TNode(0, "end", "", 0, 0, 1, 1), TNode(0, "end", "", 0, 0, 1, 1)))
    v15 = TNode(0, "node", "a", 2, 1, 3, 3, (ep, e_in5))
    v05 = TNode(0, "node", "a", 2, 1, 2, 5, (em, v15))
    t5 = Tree(root=v05, k=3, n=2, m=5).finalize()
    (o5, i5), = _candidates(t5)
    loc5, rem5 = localize_split(t5, o5, i5, asg={nd.nid: -1 for nd in t5.nodes},
                                params=P, eps=EPS, nu=nu, q=q)
    assert loc5 == 0.0 and rem5 != 0.0


def test_resonance_rtree_roundtrip():
    # every structural candidate of order <= 3 maps to a special-end skeleton
    # with matching mode, order, and label content
    nu = make_nu()
    seen = 0
    for n in (-2, 0, 2):
        for m in (1, 3):
            if (abs(n), m) == (1, 1):
                continue
            for t in enumerate_trees(3, n, m, P, MM):
                for (o, i) in _candidates(t):
                    rt = resonance_to_rtree(t, o, i)
                    assert rt.is_rtree and (rt.n, rt.m) == (i.n, i.m)
                    assert rt.k == sum(nd.kv for nd in t.nodes) - \
                        sum(nd.kv for nd in t.nodes if _under(t, nd, i))
                    key = _skeleton_key(rt.root)
                    pool = {_skeleton_key(s.root)
                            for s in enumerate_r_trees(rt.k, rt.n, rt.m, P, MM)}
                    assert key in pool
                    seen += 1
    assert seen > 0


def _under(tree, nd, anc):
    cur = nd
    while cur is not None:
        if cur is anc:
            return True
        cur = tree.parent[cur.nid]
    return False


def _skeleton_key(nd):
    kids = tuple(sorted(_skeleton_key(c) for c in nd.children))
    return (nd.kind, nd.ttype, nd.sv, nd.kv, nd.n, nd.m, kids)


# ---------------------------------------------------------------------------
# extended values

def test_extended_value_relations():
    nu, q = make_nu(), 0.8
    for t in enumerate_trees(2, 1, 3, P, MM)[:6]:
        for asg in admissible_assignments(t, P, EPS, nu):
            plain = tree_value(t, asg, P, EPS, nu, q)
            ext = extended_value(t, asg, P, EPS, nu, q)
            assert abs(ext) <= abs(plain) + 1e-18
            # divisors here are all far from resonance: cutoffs are plateaued
            assert ext == pytest.approx(plain, rel=1e-12, abs=1e-18)
    # a tiny gamma-scaled divisor kills the extension: fake via huge tau
    t = enumerate_trees(1, 2, 3, P, MM)[0]
    asg = {t.root.nid: -1}
    dead = extended_value(t, asg, P, EPS, nu, q, tau=-100.0)
    assert dead == 0.0


def test_extended_value_continuity():
    nu, q = make_nu(), 0.8
    t = enumerate_trees(1, 2, 3, P, MM)[0]
    asg = {t.root.nid: -1}
    vals = [extended_value(t, asg, P, e, nu, q) for e in
            [EPS * (1 + 1e-6 * i) for i in range(5)]]
    diffs = [abs(vals[i + 1] - vals[i]) for i in range(4)]
    assert max(diffs) < 1e-6 * max(abs(v) for v in vals)


def test_dump_format():
    t = enumerate_trees(1, 2, 3, P, MM)[0]
    text = dump_tree(t, {t.root.nid: -1})
    lines = text.splitlines()
    assert len(lines) == 3
    assert "mode=(2,3)" in lines[0] and "h=-1" in lines[0]
    assert lines[1].startswith("  ")
