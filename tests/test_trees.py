import math
from itertools import product

import numpy as np
import pytest

from lindbeam import trees
from lindbeam.kernel import kernel_v
from lindbeam.series import CountertermTable, compute_coeffs, lambda_modes, solve_nu
from lindbeam.spectrum import ModelParams, NuTable, ResonantDivisorError, mode_set, omega_eff
from lindbeam.trees import (
    EvalCtx,
    MissingCountertermError,
    TNode,
    admissible_assignments,
    counterterm,
    counterterm_order2_closed,
    counterterm_table,
    dump_tree,
    enumerate_r_trees,
    enumerate_trees,
    renormalized_sum,
    sum_trees,
    tree_value,
    _point,
)

import oracles
from oracles import (
    _candidates,
    _key,
    detect_clusters,
    detect_resonances,
    extended_value,
    hand_tree,
    localize_split,
    path_to_root,
    prop_line_nodes,
    resonance_to_rtree,
    scaled_propagator,
)

P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.05, omega_branch=1, Mmax=9, Nmax=60)
EPS = 0.013
MM = 9


def make_nu():
    nu = NuTable()
    nu.set(2, 1, 3e-4)
    return nu


def build_l2(nu, q):
    return counterterm_table(P, EPS, nu, q, (2,), lambda_modes(P.with_(Nmax=6)))


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
        assert t.mult == _obj_mult(t.root)


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


def test_resonant_line_raises_the_spectrum_error():
    # at mu = 0, omega~^2 of (2, 3) is exactly 81: a line at frequency 9 is resonant
    pt = _point(P.with_(mu=0.0), EPS, None)
    with pytest.raises(ResonantDivisorError, match=r"resonant line at mode \(2, 3\)"):
        oracles.propagator(pt, oracles.mode(pt, 2, 3), -1, 9.0)
    f = trees._family(1, 2, 3, MM, False)
    at = np.array([f.modes.index((2, 3))])
    with pytest.raises(ResonantDivisorError, match=r"resonant line at mode \(2, 3\)"):
        pt.arrays(f).price(at, np.array([-1]), np.array([9.0]))


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


def _closed_dense(params, eps, shift, q, ms):
    """counterterm_order2_closed over the full (mode, m') block, reading the
    shift of every inner line, zero or not."""
    a, b = params.a, params.b
    Om = omega_eff(params, eps)
    mp = np.arange(1, ms.Mmax + 1, 2)
    om_mp2, side, v_m1_sq, *_ = ms.closed_rows
    narr = ms.n.astype(float)
    ombar = np.sqrt(ms.m.astype(float) ** 4 + params.mu + shift[ms.pos])
    s = a * (a + b * Om * Om) * side
    for sig in (1.0, -1.0):
        n1 = narr + sig
        idx = ms.index(np.abs(ms.n + int(sig))[:, None], mp[None, :])
        term = v_m1_sq / (-(Om * sig + ombar[:, None]) ** 2 + om_mp2[None, :] + shift[idx])
        term[np.abs(n1) == 1.0, 0] = 0.0
        s = s + (a + b * Om * Om * sig * n1) * (a - b * Om * Om * sig * narr) * term.sum(axis=1)
    return -(4.0 * q * q / narr) * s


def test_counterterm_enum_matches_closed_form():
    q = 0.8
    ms = mode_set(P.mu, P.eps0, MM, 60)
    # a shift on every mode also reaches the inner lines (|n +- 1|, m')
    rng = np.random.default_rng(4)
    sampled = ms.nu_table(rng.uniform(-0.2, 0.2, len(ms)) * P.eps0)
    for nu in (make_nu(), sampled):
        closed = counterterm_order2_closed(P, EPS, ms.shift(nu), q, ms)
        assert np.array_equal(closed, _closed_dense(P, EPS, ms.shift(nu), q, ms))
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


def test_counterterm_table_evaluates_each_family_once(monkeypatch):
    # every scale of a special-end family is summed from one evaluation of
    # its rows, and equals `counterterm` at that scale; at this point the
    # order-4 family of (2, 1) has lines at h >= 0
    calls = []
    setup = trees._setup

    def counted(f, rows, pt):
        calls.append(f)
        return setup(f, rows, pt)

    monkeypatch.setattr(trees, "_setup", counted)
    params, eps, q = P.with_(mu=0.01, eps0=0.02, omega_branch=-1), 0.0032, 0.8
    nu, _ = solve_nu(params, eps, 2)
    params = params.with_(Mmax=3)
    modes = lambda_modes(params)
    lt = counterterm_table(params, eps, nu, q, (2, 4), modes, scales=(-1, 0, 1))
    assert len(calls) == len(set(calls)) == 2 * len(modes)
    monkeypatch.setattr(trees, "_setup", setup)
    for k in (2, 4):
        for (n, m) in modes:
            for h in (-1, 0, 1):
                want = counterterm(k, n, m, h, params, eps, nu, q, lt)
                assert repr(lt.get(k, n, m, h)) == repr(want or 0.0)    # zeros are not set
    assert lt.get(4, 2, 1, 0) != 0.0


RES_P = ModelParams(a=1.0, b=0.5, mu=0.1, eps0=0.02, omega_branch=-1, Mmax=64, Nmax=300)


@pytest.mark.filterwarnings("ignore:convolution mass beyond")
def test_order_4_shift_fixed_point():
    # K = 4 reads counterterm(4, ...), whose special-end families hold trees
    # that fail the localization conditions ((4, 8, 3) at Mmax 5: 1,332 of
    # 13,284); priced on shell, a path line with the entering mode divides
    # by omega~^2 - omega_bar^2, 0.0 at (8, 3), so those trees are zeroed
    # without being localized.  The values are those of the route that
    # evaluated only the kept trees
    nu, info = solve_nu(RES_P.with_(Mmax=5, Nmax=60), 1e-3, 4)
    lt = info["counterterms"]
    assert info["sweeps"] == 3 and repr(info["q"]) == "0.7577324766023481"
    assert repr(sorted(nu.items())) == (
        "[((8, 3), -0.00024564326007167213), ((9, 3), -0.00021915972300654474), "
        "((23, 5), -8.487247284545537e-05), ((24, 5), -8.155017352771622e-05), "
        "((25, 5), -7.848382414470636e-05)]")
    assert [repr(lt.get(4, n, m, -1)) for n, m in ((8, 3), (9, 3), (23, 5), (24, 5), (25, 5))] \
        == ["-0.23044600842758753", "-0.20134847641967135", "-0.0783108468965465",
            "-0.07947253444211784", "-0.07123302398964801"]
    assert repr(lt.aggregate(4, 8, 3)) == "-0.23044600842758753"


# ---------------------------------------------------------------------------
# clusters, resonances, localization

def chain_tree(scales):
    """Hand-built chain: root node - node - two ends, with given line scales."""
    e1 = TNode(0, "end", "", 0, 0, 1, 1)
    e2 = TNode(0, "end", "", 0, 0, 1, 1)
    v1 = TNode(0, "node", "a", 2, 1, 2, 3, (e1, e2))
    e0 = TNode(0, "end", "", 0, 0, -1, 1)
    v0 = TNode(0, "node", "a", 2, 1, 1, 5, (e0, v1))
    t = hand_tree(v0, 2, 1, 5)
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
    t2 = hand_tree(v0, 3, 2, 3)
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
    t = hand_tree(v0, 3, 2, 1)
    (out_nd, in_nd), = _candidates(t)
    asg = {nd.nid: -1 for nd in t.nodes if nd.kind == "node"}
    ctxkw = dict(params=P, eps=EPS, nu=nu, q=q)
    # R vanishes at the localization point
    xbar = oracles.mode(_point(P, EPS, nu), 2, 1).bar
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
    t5 = hand_tree(v05, 3, 2, 5)
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
    return nd is anc or any(a is anc for a in path_to_root(tree, nd))


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


# ---------------------------------------------------------------------------
# compiled families against the object route they replace

TREE_P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.02, omega_branch=1, Mmax=9, Nmax=60)
GRID6 = [(k, n, m) for k in (1, 2, 3) for n in range(-4, 5) if abs(n) <= k + 1
         for m in (1, 3, 5, 7, 9) if (abs(n), m) != (1, 1)]


def _obj_gen(k, n, m, Mmax, with_e, e_mode, memo):
    """Skeleton enumeration of the object route (one TNode per node)."""
    key = (k, n, m, with_e)
    if key in memo:
        return memo[key]
    out = {}

    def add(node, mult):
        kk = _key(node)
        out[kk] = (out[kk][0], out[kk][1] + mult) if kk in out else (node, mult)

    if k == 0:
        if with_e and (n, m) == e_mode and (abs(n), m) != (1, 1):
            add(TNode(0, "special", "", 0, 0, n, m), 1)
        elif not with_e and (abs(n), m) == (1, 1):
            add(TNode(0, "end", "", 0, 0, n, m), 1)
    elif (abs(n), m) != (1, 1) and m % 2 == 1 and m <= Mmax:
        for k1 in range(k):
            k2 = k - 1 - k1
            for e_left in ((True, False) if with_e else (False,)):
                le, re = (e_left, not e_left) if with_e else (False, False)
                lo1, hi1 = ((e_mode[0] - k1, e_mode[0] + k1) if le else (-(k1 + 1), k1 + 1))
                for n1 in range(lo1, hi1 + 1):
                    n2 = n - n1
                    if (abs(n2 - e_mode[0]) > k2) if re else (abs(n2) > k2 + 1):
                        continue
                    for m1 in range(1, Mmax + 1, 2):
                        for m2 in range(1, Mmax + 1, 2):
                            if kernel_v(m, m1, m2) == 0.0:
                                continue
                            subs1 = _obj_gen(k1, n1, m1, Mmax, le, e_mode, memo)
                            subs2 = _obj_gen(k2, n2, m2, Mmax, re, e_mode, memo) if subs1 else []
                            for (c1, mu1) in subs1:
                                for (c2, mu2) in subs2:
                                    kids = (c1, c2) if _key(c1) <= _key(c2) else (c2, c1)
                                    for t in ("a", "b"):
                                        add(TNode(0, "node", t, 2, 1, n, m, kids), mu1 * mu2)
        for r in range(2, k):
            for (c, mu) in _obj_gen(k - r, n, m, Mmax, with_e, e_mode, memo):
                if not (with_e and c.kind == "special"):
                    add(TNode(0, "node", "a", 1, r, n, m, (c,)), mu)
    memo[key] = list(out.values())
    return memo[key]


def _obj_clone(nd):
    return TNode(0, nd.kind, nd.ttype, nd.sv, nd.kv, nd.n, nd.m,
                 tuple(_obj_clone(c) for c in nd.children))


def _obj_finalize(root):
    """Node ids in stack order, as the object route numbered them."""
    nodes, stack = [], [root]
    while stack:
        nd = stack.pop()
        nd.nid = len(nodes)
        nodes.append(nd)
        stack.extend(nd.children)
    return nodes


def _obj_mult(nd):
    mult = 1
    for c in nd.children:
        mult *= _obj_mult(c)
    if nd.sv == 2 and _key(nd.children[0]) != _key(nd.children[1]):
        mult *= 2
    return mult


def _obj_dump(root):
    lines = []

    def walk(nd, depth):
        lines.append(f"{'  ' * depth}[{nd.nid}] {nd.kind} t={nd.ttype or '-'} k={nd.kv} "
                     f"mode=({nd.n},{nd.m})")
        for c in nd.children:
            walk(c, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def _obj_family(k, n, m, Mmax, rtree, memo):
    pairs = _obj_gen(k, n, m, Mmax, rtree, (n, m) if rtree else None, memo)
    roots = [_obj_clone(node) for node, _ in pairs]
    for r in roots:
        _obj_finalize(r)
    return roots


def _families():
    fams = [(k, n, m, False) for (k, n, m) in GRID6]
    return fams + [(2, n, m, True) for (n, m) in lambda_modes(TREE_P)]


def test_compiled_families_match_object_enumeration():
    from collections import Counter
    memos = {}
    for (k, n, m, rtree) in _families():
        memo = memos.setdefault((rtree, (n, m) if rtree else None), {})
        want = _obj_family(k, n, m, MM, rtree, memo)
        got = (enumerate_r_trees if rtree else enumerate_trees)(k, n, m, TREE_P, MM)
        assert len(got) == len(want), (k, n, m, rtree)
        assert Counter((_key(t.root), t.mult) for t in got) == \
            Counter((_key(r), _obj_mult(r)) for r in want)
        if want:
            assert dump_tree(got[0]) == _obj_dump(want[0])
            assert [nd.nid for nd in got[0].nodes] == list(range(len(got[0].nodes)))
        # the count that guards the budget, exact below its cap
        f = trees._family(k, n, m, MM, rtree)
        assert trees._count((k, n, m, rtree), MM, (n, m) if rtree else None, {},
                            trees.TREE_BUDGET + 1)[:2] == (f.count, f.start[f.count])


def test_hand_tree_is_its_compiled_tree():
    # every tree of (2, 9, 3) (none at Mmax 9), of its special-end family
    # (60) and of (3, 2, 3) (722) at Mmax 9, built again by hand from its
    # TNodes: the one-tree family holds the tree's rows byte for byte, and
    # tree_value reads the same values on each of its assignments, plain and
    # renormalized, with shift coefficients for the unary nodes
    params, eps, nu, q = P.with_(omega_branch=-1), 0.002, make_nu(), 0.8
    lt = CountertermTable()
    lt.set(2, 2, 3, -1, 0.23)
    lt.set(2, 2, 3, 0, -0.11)
    seen = 0
    for fam in ((2, 9, 3, MM, False), (2, 9, 3, MM, True), (3, 2, 3, MM, False)):
        f = trees._family(*fam)
        for t, tree in enumerate(f.trees()):
            label = (tree.k, tree.n, tree.m, tree.mult, tree.is_rtree)
            assert label == (*f.label, f.mult[t], f.is_rtree)
            hand = hand_tree(tree.root, *label)
            g, s, e = hand._fam, f.start[t], f.start[t + 1]
            assert (hand.k, hand.n, hand.m, hand.mult, hand.is_rtree) == label
            for c in ("par", "size", "kind", "ttype", "sv", "kv", "n", "m"):
                assert getattr(g, c).tobytes() == getattr(f, c)[s:e].tobytes(), c
            assert [g.modes[i] for i in g.mode] == [f.modes[i] for i in f.mode[s:e]]
            assert g.start.tolist() == [0, e - s] and g.mult.tolist() == [f.mult[t]]
            assert g.special.tobytes() == f.special[t:t + 1].tobytes()
            for c in ("line", "pair", "cand"):
                lo, hi = getattr(f, c + "_start")[t], getattr(f, c + "_start")[t + 1]
                assert getattr(g, c + "_start").tolist() == [0, hi - lo]
                assert getattr(g, c + "_row").tobytes() == getattr(f, c + "_row")[lo:hi].tobytes()
            for renorm in (False, True):
                asgs = admissible_assignments(tree, params, eps, nu, renorm)
                assert admissible_assignments(hand, params, eps, nu, renorm) == asgs
                for asg in asgs:
                    want = tree_value(tree, asg, params, eps, nu, q, lt, renorm)
                    assert repr(tree_value(hand, asg, params, eps, nu, q, lt, renorm)) == repr(want)
                    seen += 1
    assert seen == 2 * (60 + 722)      # one assignment per tree at this point


def test_tree_budget_is_checked_before_enumeration():
    # (5, 2, 3) at Mmax 15 has 4,363,844 trees in 47,984,978 node rows, the
    # special-end (4, 9, 3) 270,784 trees in 2,436,480 rows: counted, not built
    key = (5, 2, 3, False)
    assert trees._count(key, 15, None, {}, 10 ** 9)[:2] == (4_363_844, 47_984_978)
    assert trees._count((4, 9, 3, True), 15, (9, 3), {}, 10 ** 9)[:2] == (270_784, 2_436_480)
    cap = trees.TREE_BUDGET + 1
    assert trees._count(key, 15, None, {}, cap)[1] == cap
    for k, n, m, special in ((5, 2, 3, False), (30, 2, 3, False), (4, 9, 3, True)):
        with pytest.raises(trees.TreeBudgetError):
            (enumerate_r_trees if special else enumerate_trees)(k, n, m, P, 15)


def test_budget_refusal_walks_few_keys(monkeypatch):
    # `lindbeam trees 400 2 3`: the splits skip the child families whose ends
    # cannot carry their momentum, so the count saturates after a walk of a
    # few keys per order, not of O(k^2 Mmax) keys
    calls = []
    splits = trees._splits

    def counted(key, *args):
        calls.append(key)
        return splits(key, *args)

    monkeypatch.setattr(trees, "_splits", counted)
    with pytest.raises(trees.TreeBudgetError, match=r"enumeration of \(400,2,3\) exceeds budget"):
        trees._family.__wrapped__(400, 2, 3, 15, False)
    assert len(calls) < 1000


def test_unreachable_momenta_have_empty_families(monkeypatch):
    # `_reaches` skips a family only when it has no tree: counted again with
    # every momentum let through, each family at Mmax 5 has the same trees
    # and rows, and none where its ends cannot carry its momentum
    reaches, keys = trees._reaches, []
    for with_e in (False, True):
        keys += [((k, n, m, with_e), (2, 3) if with_e else None)
                 for k in range(1, 7) for n in range(-k - 4, k + 5) for m in (1, 3)]
    skipped = [trees._count(key, 5, e, {}, math.inf)[:2] for key, e in keys]
    monkeypatch.setattr(trees, "_reaches", lambda k, d, with_e: True)
    for (key, e), want in zip(keys, skipped):
        k, n, _, with_e = key
        assert trees._count(key, 5, e, {}, math.inf)[:2] == want, key
        assert want[0] == 0 or reaches(k, n - 2 if with_e else n, with_e), key
    assert sum(t > 0 for t, _ in skipped) > 50


# The skeleton route that compiled families before they were written from
# their count: `_gen` built one canonical TNode per tree, `_Family` flattened
# the TNodes, multiplicities from `_obj_mult`.  The count's rows must equal
# its rows column by column, in order.

def _old_gen(key, Mmax, e_mode, memo):
    if key in memo:
        return memo[key]
    n, m, with_e = key[1:]
    out = {}

    def add(node):
        out.setdefault(_key(node), node)

    if trees._is_end(key, e_mode):
        add(TNode(0, "special" if with_e else "end", "", 0, 0, n, m))
    for kv, kids in trees._splits(key, Mmax, e_mode):
        if kv == 1:
            subs1 = _old_gen(kids[0], Mmax, e_mode, memo)
            subs2 = _old_gen(kids[1], Mmax, e_mode, memo) if subs1 else []
            for c1 in subs1:
                for c2 in subs2:
                    pair = (c1, c2) if _key(c1) <= _key(c2) else (c2, c1)
                    for t in ("a", "b"):
                        add(TNode(0, "node", t, 2, 1, n, m, pair))
        else:
            for c in _old_gen(kids[0], Mmax, e_mode, memo):
                add(TNode(0, "node", "a", 1, kv, n, m, (c,)))
    res = memo[key] = list(out.values())
    return res


def _old_rows(k, n, m, Mmax, is_rtree):
    """The columns of `_Family` as the skeleton route filled them."""
    roots = _old_gen((k, n, m, is_rtree), Mmax, (n, m) if is_rtree else None, {})
    cols = {c: [] for c in ("par", "size", "kind", "ttype", "sv", "kv", "n", "m", "mode")}
    start, special = [0], []
    lists = {c: ([0], []) for c in ("line", "pair", "cand")}
    modes = {}
    for root in roots:
        nodes, par = [], []
        stack = [(root, -1)]
        while stack:
            nd, p = stack.pop()
            par.append(p)
            stack.extend((ch, len(nodes)) for ch in nd.children)
            nodes.append(nd)
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
            if nd.kind == "end" or (abs(nd.n), nd.m) == (1, 1) or nd.n == 0:
                continue
            anc = par[i]
            while anc >= 0:
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
        cols["kind"] += [trees._KINDS.index(nd.kind) for nd in nodes]
        cols["ttype"] += [trees._TTYPES.index(nd.ttype) for nd in nodes]
        for c in ("sv", "kv", "n", "m"):
            cols[c] += [getattr(nd, c) for nd in nodes]
        cols["mode"] += [modes.setdefault(key, len(modes)) for key in keys]
        start.append(len(cols["par"]))
    cols.update(start=start, mult=[_obj_mult(r) for r in roots], special=special)
    for c, (offsets, vals) in lists.items():
        cols[c + "_start"], cols[c + "_row"] = offsets, vals
    return cols, tuple(modes), len(roots)


def test_family_rows_match_skeleton_route():
    ct = ModelParams(omega_branch=-1)       # `--omega-branch -1 --orders 3 counterterms`
    fams = ([(k, n, m, MM, False) for (k, n, m) in GRID6]
            + [(k, n, m, MM, True) for k in (2, 3) for (n, m) in lambda_modes(TREE_P)]
            + [(6, 7, 1, 3, False)]
            + [(k, n, m, 33, True) for k in (2, 3) for (n, m) in lambda_modes(ct)])
    assert len(fams) == 99 + 2 * 11 + 1 + 2 * 53
    total = 0
    for fam in fams:
        cols, modes, count = _old_rows(*fam)
        f = trees._family(*fam)
        assert (f.modes, f.count) == (modes, count), fam
        for c, want in cols.items():
            assert getattr(f, c).tolist() == want, (fam, c)
        total += count
    assert total == 45_594


def test_family_walks_each_key_once(monkeypatch):
    from collections import Counter
    walked = Counter()
    splits = trees._splits

    def counted(key, *args):
        walked[key] += 1
        return splits(key, *args)

    monkeypatch.setattr(trees, "_splits", counted)
    for fam in ((3, 0, 1, MM, False), (2, 9, 3, MM, True), (6, 7, 1, 3, False)):
        walked.clear()
        f = trees._family.__wrapped__(*fam)     # compiled afresh, past the cache
        assert f.count > 0 and len(walked) > 10 and max(walked.values()) == 1, fam


def _tnode(key):
    return TNode(0, *key[:6], tuple(_tnode(c) for c in key[6]))


def test_unrank_indexes_families_over_the_budget():
    # (8, 9, 3) at Mmax 3: 1,174,688 trees in 19,969,696 node rows
    key, memo = (8, 9, 3, False), {}
    count, rows, _ = trees._count(key, 3, None, memo, math.inf)
    assert (count, rows) == (1_174_688, 19_969_696) and rows > trees.TREE_BUDGET
    rng = np.random.default_rng(7)
    idx = sorted({0, count - 1, *rng.integers(0, count, 300).tolist()})
    seen = set()
    for i in idx:
        tree, mult = trees._unrank(memo, key, i)
        root = _tnode(tree)
        assert tree[4:6] == (9, 3) and _sorted_kids(tree)
        assert _obj_order(root) == 8 and mult == _obj_mult(root)
        seen.add(tree)
    assert len(seen) == len(idx)
    for bad in (count, -1):
        with pytest.raises(IndexError):
            trees._unrank(memo, key, bad)


def _obj_order(nd):
    return nd.kv + sum(_obj_order(c) for c in nd.children)


def _sorted_kids(key):
    """Whether every node's children are in tuple order, as `_unrank` writes them."""
    return list(key[6]) == sorted(key[6]) and all(_sorted_kids(c) for c in key[6])


def _obj_path(tree, nd):
    parent = {c.nid: w for w in tree.nodes for c in w.children}
    out, cur = [], parent.get(nd.nid)
    while cur is not None:
        out.append(cur)
        cur = parent.get(cur.nid)
    return out


def _obj_candidates(tree):
    """Structural resonance candidates (out, in) of the object route."""

    def count(nd):
        return 1 + sum(count(c) for c in nd.children)

    root, cands = tree.nodes[0], []
    for nd in tree.nodes:
        if nd.kind == "end" or (abs(nd.n), nd.m) == (1, 1) or nd.n == 0:
            continue
        for anc in _obj_path(tree, nd):
            if (anc.n, anc.m) == (nd.n, nd.m) and not (tree.is_rtree and anc is root) \
                    and count(anc) - count(nd) > 1:
                cands.append((anc, nd))
    return cands


def _obj_assignments(tree, params, eps, nu, renormalize):
    """The per-line loop of the object route, on TNodes and numpy frequencies."""
    from lindbeam.spectrum import admissible_h_for, in_lambda, omega
    from itertools import product

    nodes = tree.nodes
    parent = {c.nid: nd for nd in nodes for c in nd.children}
    root = nodes[0]

    def omt2(n, m):
        return float(omega(m, params.mu)) ** 2 + (nu.n_nu(n, m) if nu is not None else 0.0)

    Om = omega_eff(params, eps)
    lines = [nd for nd in nodes if nd.kind == "node" and not (tree.is_rtree and nd is root)]
    anchors = {nd.nid: [] for nd in lines}
    e_path = set()
    if renormalize or tree.is_rtree:
        cands = _obj_candidates(tree)
        special = [nd for nd in nodes if nd.kind == "special"]
        if tree.is_rtree and special:
            cands.append((root, special[-1]))
            e_path = {a.nid for a in _obj_path(tree, special[-1])}
        for (o, i) in cands:
            rad = omt2(i.n, i.m)
            if not in_lambda(i.n, i.m, params) or rad <= 0:
                continue
            xloc = math.copysign(math.sqrt(rad), i.n)
            cur = parent.get(i.nid)
            while cur is not None and cur is not o:
                anchors[cur.nid].append((xloc, i.n))
                cur = parent.get(cur.nid)
    options = []
    for nd in lines:
        rad = omt2(nd.n, nd.m)
        if rad <= 0:
            return []
        hs = set()
        if nd.nid not in e_path:
            hs.update(admissible_h_for(abs(Om * nd.n) - math.sqrt(rad), params.gamma, params.h_max))
        for (xloc, na) in anchors[nd.nid]:
            f = Om * (nd.n - na) + xloc
            hs.update(admissible_h_for(abs(f) - math.sqrt(rad), params.gamma, params.h_max))
        if not hs:
            return []
        options.append(sorted(hs))
    out = []
    for combo in product(*options):
        if all(abs(h1 - h2) <= 1 for a, (l1, h1) in enumerate(zip(lines, combo))
               for (l2, h2) in list(zip(lines, combo))[a + 1:] if (l1.n, l1.m) == (l2.n, l2.m)):
            out.append({nd.nid: h for nd, h in zip(lines, combo)})
    return out


def test_admissible_assignments_match_object_route():
    from lindbeam.bruno import sample_diophantine_points
    fams = [f for f in _families() if f[0] <= 2]
    checked = 0
    for eps, nu in sample_diophantine_points(TREE_P, 2, seed=7):
        for (k, n, m, rtree) in fams:
            for t in (enumerate_r_trees if rtree else enumerate_trees)(k, n, m, TREE_P, MM):
                for renorm in (False, True):
                    want = _obj_assignments(t, TREE_P, eps, nu, renorm or rtree)
                    assert admissible_assignments(t, TREE_P, eps, nu, renorm) == want
                    checked += 1
                assert _candidates(t) == _obj_candidates(t)
    assert checked > 1000


def _random_tree(rng, depth, modes):
    """A hand-built tree over the given internal mode labels."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        return TNode(0, "end", "", 0, 0, rng.choice((1, -1)), 1)
    n, m = rng.choice(modes)
    if r < 0.35:
        return TNode(0, "node", "a", 1, 2, n, m, (_random_tree(rng, depth - 1, modes),))
    return TNode(0, "node", rng.choice("ab"), 2, 1, n, m,
                 (_random_tree(rng, depth - 1, modes), _random_tree(rng, depth - 1, modes)))


def test_admissible_assignments_match_object_route_near_resonance():
    # (4,2) sits in the chi_{-1}/chi_0 overlap at eps = 0 (see test_bruno), so
    # these trees have lines with two labels, shifted supports that differ
    # from the plain ones, and special-end trees from their resonances
    import random

    rng = random.Random(5)
    modes = [(4, 2), (4, 2), (2, 3), (3, 3), (2, 1), (-4, 2), (0, 3)]
    nu = make_nu()
    multi = 0
    for _ in range(150):
        root = _random_tree(rng, 4, modes)
        if root.kind == "end":
            continue
        t = hand_tree(root, 3, root.n, root.m)
        rts = [resonance_to_rtree(t, o, i) for (o, i) in _candidates(t)]
        assert _candidates(t) == _obj_candidates(t)
        for tree in [t] + rts:
            for eps in (0.0, 2e-4):
                for renorm in (False, True):
                    want = _obj_assignments(tree, P, eps, nu, renorm or tree.is_rtree)
                    assert admissible_assignments(tree, P, eps, nu, renorm) == want
                    multi += len(want) > 1
    assert multi > 100


# ---------------------------------------------------------------------------
# array evaluation against the tree-at-a-time loops it replaces

def _loop_assignments(f, t, pt, renormalize):
    """Label tuples of tree t's lines, tree by tree (the per-tree loop)."""
    s, mode, modes = f.start[t], f.mode, oracles.modes_of(pt, f)
    shifted = oracles._shifted_supports(f, t, pt, modes) if renormalize or f.is_rtree else {}
    options = []
    for l in f.lines(t):
        ml = modes[mode[s + l]]
        if ml.root is None:
            return []
        hs = shifted[l] if l in shifted else ml.hs
        if not hs:
            return []   # below the scale floor
        options.append(hs)
    p = f.pair_row[f.pair_start[t]:f.pair_start[t + 1]]
    return [c for c in product(*options)
            if all(abs(c[a] - c[b]) <= 1 for a, b in zip(p[0::2], p[1::2]))]


def _loop_plain_values(f, ctx):
    """value(t, h): plain value of tree t, node by node from the last id."""
    start, kind, ttype, sv, kv, size, n, m = (f.start, f.kind, f.ttype, f.sv, f.kv,
                                              f.size, f.n, f.m)
    line = oracles._line_weights(f, ctx)
    q, a, bw = ctx.q, ctx.params.a, -ctx.params.b * ctx.point.Om ** 2

    def value(t, h):
        s = start[t]
        val = [0.0] * (start[t + 1] - s)
        for i in range(len(val) - 1, -1, -1):
            r = s + i
            if kind[r] == trees.END:
                val[i] = q or 0.0
                continue
            if kind[r] == trees.SPECIAL:
                val[i] = 1.0 / m[r] ** 3
                continue
            if sv[r] == 1:
                hh = h[i + 1] if f.is_rtree and i == 0 else h[i]
                v = n[r] * ctx.l_value(kv[r], n[r], m[r], hh)
                kids = (i + 1,)
            else:
                kids = (i + 1 + size[r + 1], i + 1)
                v = kernel_v(m[r], m[s + kids[0]], m[r + 1])
                v = a * v if ttype[r] == trees.A else bw * v
            for c in kids:
                if v == 0.0:
                    break
                lf = line(s + c, h[c], None, ttype[r] == trees.B)
                v = 0.0 if lf == 0.0 else v * (lf * val[c])
            val[i] = v or 0.0
        rootf = line(s, h[0], None, False)
        return 0.0 if rootf == 0.0 else rootf * val[0]

    return value


def _loop_value(f, t, h, ctx, plain):
    active = trees._active(f, t, h) if ctx.renormalize else []
    return oracles._renormalized_value(f, t, h, ctx, active) if active else plain(t, h)


def _loop_sum(f, ctx):
    plain, total = _loop_plain_values(f, ctx), 0.0
    for t in range(f.count):
        for combo in _loop_assignments(f, t, ctx.point, ctx.renormalize):
            total += f.mult[t] * _loop_value(f, t, f.scales(t, f.lines(t), combo), ctx, plain)
    return total


def _loop_counterterm(f, h, ctx):
    n, m = f.label[1:]
    total = 0.0
    for t in range(f.count):
        for combo in _loop_assignments(f, t, ctx.point, True):
            if max(combo, default=-1) >= h:
                h_t = f.scales(t, f.lines(t), combo)
                total += f.mult[t] * oracles._lval_rtree(f, t, h_t, ctx, ctx.renormalize)
    return -(m ** 3 / n) * total


def _same_assignments(tree, params, eps, nu, renorm):
    f, t = tree._fam, tree._t
    want = [dict(zip(f.lines(t).tolist(), c))
            for c in _loop_assignments(f, t, _point(params, eps, nu), renorm)]
    assert admissible_assignments(tree, params, eps, nu, renorm) == want
    return want


def test_array_sums_equal_tree_loops_bitwise():
    from lindbeam.bruno import sample_diophantine_points
    from lindbeam.checks import recursion_cases

    pts = sample_diophantine_points(TREE_P, 2, seed=7)
    for eps, nu, q, lt, _ in recursion_cases(TREE_P, pts, 3):
        plain = EvalCtx(TREE_P, eps, nu, q, lt)
        renorm = EvalCtx(TREE_P, eps, nu, q, lt, renormalize=True)
        for (k, n, m) in GRID6:
            f = trees._family(k, n, m, MM, False)
            assert repr(sum_trees(k, n, m, TREE_P, eps, nu, q, lt, MM)) == \
                repr(_loop_sum(f, plain)), (k, n, m)
            assert repr(renormalized_sum(k, n, m, TREE_P, eps, nu, q, lt, MM)) == \
                repr(_loop_sum(f, renorm)), (k, n, m)
            for tree in f.trees():
                for r in (False, True):
                    _same_assignments(tree, TREE_P, eps, nu, r)
        for (n, m) in lambda_modes(TREE_P):
            f = trees._family(2, n, m, MM, True)
            for tree in f.trees():
                _same_assignments(tree, TREE_P, eps, nu, False)
            for h in (-1, 0, 1):
                assert repr(counterterm(2, n, m, h, TREE_P, eps, nu, q, lt, MM)) == \
                    repr(_loop_counterterm(f, h, renorm))
        # an empty family sums to +0.0
        assert enumerate_trees(1, 3, 3, TREE_P, MM) == []
        assert repr(sum_trees(1, 3, 3, TREE_P, eps, nu, q, lt, MM)) == "0.0"
        assert repr(renormalized_sum(1, 3, 3, TREE_P, eps, nu, q, lt, MM)) == "0.0"


def _near_resonance_against_oracle(params, epss, modes, lt, seed):
    """Every row of 150 hand-built trees over the given modes, and of the
    special-end trees of their resonances, at each eps, plain and
    renormalized: the table rows at once, tree_value at the middle row and
    at each row with more than one active block, and each special-end row's
    localized value, all repr-equal to the oracle.  Returns (tables with
    more than one row, trees with no row, counts), counts[is_rtree] the
    renormalized rows with an active block, with two, with an active block
    and a nonzero value (the localized value on special-end trees), and
    with a nonzero value and a block subtracted on shell."""
    import random

    rng = random.Random(seed)
    nu, q = make_nu(), 0.8
    multi = rejected = 0
    counts = {False: [0, 0, 0, 0], True: [0, 0, 0, 0]}
    for _ in range(150):
        root = _random_tree(rng, 4, modes)
        if root.kind == "end":
            continue
        t = hand_tree(root, 3, root.n, root.m)
        for tree in [t] + [resonance_to_rtree(t, o, i) for (o, i) in _candidates(t)]:
            f, i = tree._fam, tree._t
            for eps in epss:
                for renorm in (False, True):
                    ctx = EvalCtx(params, eps, nu, q, lt, renorm)
                    asgs = _same_assignments(tree, params, eps, nu, renorm)
                    multi += len(asgs) > 1
                    rejected += not asgs
                    if not asgs:
                        continue
                    plain = _loop_plain_values(f, ctx)
                    hs = [tree._scales(asg) for asg in asgs]
                    want = [repr(_loop_value(f, i, h, ctx, plain)) for h in hs]
                    rows = ctx.point.table(f, renorm).rows()
                    got = trees._row_values(f, rows, ctx)
                    assert [repr(v) for v in got.tolist()] == want
                    active = [trees._active(f, i, h) if renorm else [] for h in hs]
                    blocks = [len(a) for a in active]
                    for r in {len(asgs) // 2} | {r for r, b in enumerate(blocks) if b > 1}:
                        assert repr(tree_value(tree, asgs[r], params, eps, nu, q, lt, renorm)) \
                            == want[r]
                    if tree.is_rtree:
                        # each row's localized value: the special-end block on shell
                        got = trees._localized(f, ctx)[1]
                        assert [repr(v) for v in got.tolist()] == \
                            [repr(oracles._lval_rtree(f, i, h, ctx, renorm)) for h in hs]
                    n = counts[tree.is_rtree]
                    n[0] += sum(b > 0 for b in blocks)
                    n[1] += sum(b > 1 for b in blocks)
                    nonzero = [v != 0.0 for v in got.tolist()]
                    n[2] += sum(b > 0 and z for b, z in zip(blocks, nonzero))
                    n[3] += sum(z and any(trees._l_conditions(f, f.start[i], o, e, ctx.point)
                                          for o, e in a) for a, z in zip(active, nonzero))
    return multi, rejected, counts


def test_tree_value_equals_tree_loop_bitwise_near_resonance():
    # the trees of test_admissible_assignments_match_object_route_near_resonance:
    # lines with two labels expand into several rows per tree, some trees
    # are rejected below the scale floor, and many rows have active blocks,
    # nested and side by side, also inside special-end trees.  Those blocks
    # all exit at (+-4, 2), the only mode here whose lines reach h >= 0; an
    # even-m binary node has a zero kernel weight unless a child has even m
    # too, so every value through one is 0.0
    lt = CountertermTable()
    lt.set(2, 4, 2, -1, 0.37)
    lt.set(2, 4, 2, 0, -0.11)
    lt.set(2, 2, 3, -1, 0.23)
    modes = [(4, 2), (4, 2), (2, 3), (3, 3), (2, 1), (-4, 2), (0, 3)]
    multi, rejected, counts = _near_resonance_against_oracle(P, (0.0, 2e-4), modes, lt, 5)
    assert multi > 100 and rejected > 0
    assert counts == {False: [6038, 1956, 0, 0], True: [1776, 348, 0, 0]}


def test_renormalized_values_equal_oracle_near_9_3():
    # on branch -1 the (9,3) divisor admits h = -1 and 0 at eps = 0.002 and
    # 0 and 1 at eps = 0.0061; over odd-m modes the blocks exiting at (+-9, 3)
    # carry nonzero values, nested, subtracted on shell where no other line
    # of the block repeats the entering mode, and inside special-end trees
    lt = CountertermTable()
    lt.set(2, 9, 3, -1, 0.37)
    lt.set(2, 9, 3, 0, -0.11)
    lt.set(2, 9, 3, 1, 0.05)
    lt.set(2, 3, 1, -1, 0.23)
    modes = [(9, 3), (9, 3), (-9, 3), (-9, 3), (3, 1), (2, 3), (0, 1), (6, 1)]
    _, _, counts = _near_resonance_against_oracle(P.with_(omega_branch=-1), (0.002, 0.0061),
                                                  modes, lt, 5)
    assert counts == {False: [4851, 1678, 476, 308], True: [440, 86, 27, 21]}


def test_block_choice_follows_active_order():
    # on branch -1 at eps = 0.002 the (9,3) divisor admits h = -1 and 0, so
    # with the root line at 0 both (9,3) blocks exiting at the root are
    # active, entered in different branches.  The renormalized value takes
    # the first in `_active` order, not the deeper one; neither block is
    # subtracted on shell (each holds the other's entering line), so the
    # two choices differ in the last bits only
    params, eps = P.with_(omega_branch=-1), 0.002
    end = lambda n: TNode(0, "end", "", 0, 0, n, 1)              # noqa: E731
    node = lambda t, n, m, *kids: TNode(0, "node", t, 2, 1, n, m, kids)      # noqa: E731
    deep = node("a", 3, 1, node("b", 9, 3, end(1), end(1)), end(-1))
    root = node("a", 9, 3, node("b", 0, 1, deep, end(-1)),
                node("b", 2, 3, node("a", 9, 3, end(1), end(1)), end(1)))
    t = hand_tree(root, 6, 9, 3)
    f = t._fam
    ctx = EvalCtx(params, eps, make_nu(), 0.8, CountertermTable(), True)
    hs = [t._scales(asg) for asg in admissible_assignments(t, params, eps, ctx.nu, True)]
    plain = _loop_plain_values(f, ctx)
    want = [repr(_loop_value(f, 0, h, ctx, plain)) for h in hs]
    rows = ctx.point.table(f, True).rows()
    assert [repr(v) for v in trees._row_values(f, rows, ctx).tolist()] == want
    (h,) = [h for h in hs if len(trees._active(f, 0, h)) == 2]
    first, deeper = trees._active(f, 0, h)
    assert (first, deeper) == ((0, 3), (0, 10))
    assert oracles._renormalized_value(f, 0, h, ctx, [deeper]) != \
        oracles._renormalized_value(f, 0, h, ctx, [first, deeper])


def test_equal_mode_lines_stay_within_one_scale():
    # (0,1) and (2,1) at eps = 5e-4: the plain divisor of (0,1) admits only
    # h = -1, but on the path of a (2,1) resonance its shifted divisor admits
    # only 3 and 4.  The path line and the equal-mode line outside the path
    # would sit four scales apart, so those combinations are no assignments.
    eps = 5e-4
    end = lambda n: TNode(0, "end", "", 0, 0, n, 1)       # noqa: E731
    inner = TNode(0, "node", "a", 2, 1, 2, 1, (end(1), end(1)))
    path = TNode(0, "node", "a", 2, 1, 0, 1, (inner, end(-1)))
    side = TNode(0, "node", "b", 2, 1, 0, 1, (end(1), end(-1)))
    t = hand_tree(TNode(0, "node", "a", 2, 1, 2, 1, (path, side)), 4, 2, 1)
    (o, i), = _candidates(t)
    pt = _point(P, eps, None)
    zero_one, two_one = oracles.mode(pt, 0, 1), oracles.mode(pt, 2, 1)
    assert zero_one.hs == [-1] and oracles.shifted(pt, zero_one, two_one) == [3, 4]
    p, s = (nd.nid for nd in t.nodes if (nd.n, nd.m) == (0, 1) and nd.kind == "node")

    # in the plain supports every line has one label
    assert admissible_assignments(t, P, eps, None) == [{nd.nid: -1 for nd in prop_line_nodes(t)}]
    # renormalized: the path line also admits 3 and 4, and only -1 survives
    asgs = admissible_assignments(t, P, eps, None, renormalize=True)
    assert asgs == [{nd.nid: -1 for nd in prop_line_nodes(t)}]
    f = t._fam
    supports = oracles._shifted_supports(f, 0, pt, oracles.modes_of(pt, f))
    assert [len(hs) for hs in supports.values()] == [3]
    _, labels = trees._shifted_lines(f, pt)
    assert (labels >= -1).sum(axis=1).tolist() == [3]
    row_tree, _, first, h = pt.table(f, True).rows()
    assert len(row_tree) == 1 and h[first[0] + p] == h[first[0] + s] == -1

    # the special-end tree of the resonance sees only the shifted divisor on
    # its path, so every combination is two scales or more apart from the
    # side line: no assignment, and the localized sum over it is zero
    rt = resonance_to_rtree(t, o, i)
    f = rt._fam
    assert admissible_assignments(rt, P, eps, None) == []
    assert len(pt.table(f, True).rows()[0]) == 0
    on_path = {nd.nid for nd in path_to_root(rt, rt.special)}
    p, s = sorted((nd.nid for nd in prop_line_nodes(rt)), key=lambda j: j not in on_path)
    ctx = EvalCtx(P, eps, None, 0.8, CountertermTable(), renormalize=True)
    dropped = [oracles._lval_rtree(f, 0, rt._scales({p: hp, s: -1}), ctx, True) for hp in (3, 4)]
    assert all(v != 0.0 for v in dropped)


def test_tree_family_cache_is_bounded():
    info = trees._family.cache_info()
    assert info.maxsize is not None
    assert info.maxsize >= len(GRID6) + len(lambda_modes(TREE_P))
    assert trees._point_tables.cache_info().maxsize is not None

    def module_dicts():
        return {name: len(v) for name, v in vars(trees).items() if isinstance(v, dict)}

    before = module_dicts()
    for k in (1, 2):
        for m in (1, 3, 5, 7):
            enumerate_trees(k, 0, m, P, 7)      # families not compiled before
            for eps in (0.0111, 0.0112):        # evaluated at points not seen before
                sum_trees(k, 0, m, P, eps, None, 0.8, None, 7)
                renormalized_sum(k, 0, m, P, eps, None, 0.8, CountertermTable(), 7)
    assert module_dicts() == before

    # a point's assignment tables go when the point leaves the point cache
    import gc
    import weakref

    f = trees._family(2, 0, 3, 7, False)
    table = weakref.ref(_point(P, 0.0113, None).table(f, True))
    assert table() is not None
    for eps in (0.0114, 0.0115, 0.0116, 0.0117):
        sum_trees(2, 0, 3, P, eps, None, 0.8, None, 7)
    gc.collect()
    assert table() is None


def test_point_independent_work_is_done_at_the_first_point(monkeypatch):
    # a compiled family holds the kernel values and the block paths; a
    # second point evaluates the criterion-6 families, plain, renormalized
    # and special-end, without tabulating either again
    from lindbeam.bruno import sample_diophantine_points

    calls = {"kernel_v": 0, "_block_walks": 0}
    for name in calls:
        fn = getattr(trees, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(trees, name, counted)
    lt, q = CountertermTable(), 0.8
    for eps, nu in sample_diophantine_points(TREE_P, 2, seed=7):
        for key in calls:
            calls[key] = 0
        for (k, n, m) in GRID6:
            sum_trees(k, n, m, TREE_P, eps, nu, q, lt, MM)
            renormalized_sum(k, n, m, TREE_P, eps, nu, q, lt, MM)
        for (n, m) in lambda_modes(TREE_P):
            counterterm(2, n, m, -1, TREE_P, eps, nu, q, lt, MM)
    assert calls == {"kernel_v": 0, "_block_walks": 0}


def test_compiled_family_arrays_are_read_only():
    f = trees._family(3, 2, 3, MM, False)
    c = f.columns()
    arrays = {name: a for name, a in vars(c).items() if isinstance(a, np.ndarray)}
    assert {"line_tree", "line_pos", "line_mode", "const", "consts", "props",
            "walk_line", "walk_anchor", "clean", "level"} <= arrays.keys()
    assert not any(a.flags.writeable for a in arrays.values())
    with pytest.raises(ValueError):
        c.consts[0] = 1.0
    with pytest.raises(ValueError):
        c.props[:] = False


def test_compiled_indices_are_sized_by_what_they_index():
    # family (3, 2, 3) at Mmax 3 has 98 trees, so its tree indices fit
    # int8, but its block walks reach line 142 of its line list
    f = trees._family(3, 2, 3, 3, False)
    c = f.columns()
    lines, anchors = trees._block_walks(f)
    assert f.count < 128 <= max(lines)
    assert c.walk_line.tolist() == lines and c.walk_anchor.tolist() == anchors
    assert c.line_tree.tolist() == [t for t in range(f.count) for _ in f.lines(t)]
    assert c.line_pos.tolist() == [p for t in range(f.count) for p in range(len(f.lines(t)))]
    from lindbeam.bruno import sample_diophantine_points
    from lindbeam.checks import recursion_cases

    pts = sample_diophantine_points(TREE_P, 1, seed=7)
    for eps, nu, q, lt, _ in recursion_cases(TREE_P.with_(Mmax=3), pts, 3):
        assert repr(sum_trees(3, 2, 3, TREE_P, eps, nu, q, lt, 3)) == \
            repr(_loop_sum(f, EvalCtx(TREE_P, eps, nu, q, lt)))
        assert repr(renormalized_sum(3, 2, 3, TREE_P, eps, nu, q, lt, 3)) == \
            repr(_loop_sum(f, EvalCtx(TREE_P, eps, nu, q, lt, renormalize=True)))


def test_plain_and_renormalized_sums_share_one_setup(monkeypatch):
    # a family's plain and renormalized sums over one shared table compute
    # its rows and `_setup` once; a table of its own gets its own, and
    # nothing stays kept once the second sum has read it
    from lindbeam.bruno import sample_diophantine_points

    calls = []
    setup = trees._setup

    def counted(f, rows, pt):
        calls.append(f)
        return setup(f, rows, pt)

    monkeypatch.setattr(trees, "_setup", counted)
    (eps, nu), = sample_diophantine_points(TREE_P, 1, seed=3)
    lt, q, want = CountertermTable(), 0.8, 0
    pt = _point(TREE_P, eps, nu)
    for (k, n, m) in GRID6:
        f = trees._family(k, n, m, MM, False)
        sum_trees(k, n, m, TREE_P, eps, nu, q, lt, MM)
        renormalized_sum(k, n, m, TREE_P, eps, nu, q, lt, MM)
        want += 1 if pt.table(f, False) is pt.table(f, True) else 2
    assert len(calls) == want < 2 * len(GRID6)
    assert pt._last is None


# ---------------------------------------------------------------------------
# the assignment tables, their row layouts and the array pricing against
# their references

def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _pricing_points():
    """(params, eps, nu, families): criterion 6's first two sampled points;
    the multi-label points of the near-resonance trees (P at eps 0 and 2e-4,
    with the trees' own one-tree families); and (9, 3) on branch -1 at eps
    0.002, nu solved at K = 2.  Each with the criterion-6 families and the
    special-end families of its near-resonant modes."""
    import random

    from lindbeam.bruno import sample_diophantine_points

    def families(params):
        out = [trees._family(k, n, m, params.Mmax, False) for (k, n, m) in GRID6]
        return out + [trees._family(2, n, m, params.Mmax, True) for (n, m) in lambda_modes(params)]

    rng, hand = random.Random(5), []
    modes = [(4, 2), (4, 2), (2, 3), (3, 3), (2, 1), (-4, 2), (0, 3)]
    while len(hand) < 60:
        root = _random_tree(rng, 4, modes)
        if root.kind != "end":
            t = hand_tree(root, 3, root.n, root.m)
            hand += [tree._fam for tree in
                     [t] + [resonance_to_rtree(t, o, i) for (o, i) in _candidates(t)]]
    pts = [(TREE_P, eps, nu, families(TREE_P))
           for eps, nu in sample_diophantine_points(TREE_P, 100, seed=7)[:2]]
    pts += [(P, eps, make_nu(), families(P) + hand) for eps in (0.0, 2e-4)]
    branch = TREE_P.with_(omega_branch=-1)
    pts.append((branch, 0.002, solve_nu(branch, 0.002, 2)[0], families(branch)))
    return pts


def _tables_and_prices(pt, f, seen):
    """The checks of test_one_row_tables_and_array_prices_match_their_references
    on one family at one point; seen counts what was checked."""
    c, a, scalar = f.columns(), pt.arrays(f), oracles.modes_of(pt, f)
    # each mode's plain labels and their natural propagators
    for k, md in enumerate(scalar):
        assert a.lam[k] == md.lam and _bits(a.omt2[k]) == _bits(md.omt2)
        labels = a.hs[k][a.hs[k] >= -1].tolist()
        assert labels == md.hs and a.cnt[k] == len(labels)
        for slot, h in enumerate(labels):
            assert _bits(a.nat[k, slot]) == _bits(oracles.propagator(pt, md, h))
        seen["plain"] += len(labels)
    for renorm in (False, True):
        supports = trees._shifted_lines(f, pt) if renorm or f.is_rtree else None
        opts, cnt, shifted = trees._line_labels(f, pt, supports)
        if shifted or len(c.walk_line):
            # the renormalized labels of every line, tree by tree
            for t in range(f.count):
                want = oracles._shifted_supports(f, t, pt, scalar) if renorm or f.is_rtree else {}
                s = f.start[t]
                for p, l in enumerate(f.lines(t)):
                    g = f.line_start[t] + p
                    assert opts[g, :cnt[g]].tolist() == want.get(l, scalar[f.mode[s + l]].hs)
                    seen["shifted"] += l in want
        # the table's rows against the product of the lines' labels
        tab = pt.table(f, renorm)
        assert _table_lists(tab) == _product_table(f, opts, cnt)
        assert tab.labels.dtype == np.int8 and tab.row_start.dtype == np.int16
        seen["one" if (np.diff(tab.row_start) == 1).all() else "general"] += 1
        # each propagator line of the table's rows at its natural frequency
        row_tree, node, first, h = tab.rows()
        prop = np.flatnonzero(c.props[c.const[node]])
        keys, at = np.unique(c.mode[node[prop]] * 1000 + h[prop] + 1, return_inverse=True)
        want = np.array([oracles.propagator(pt, scalar[k // 1000], k % 1000 - 1)
                         for k in keys.tolist()]).reshape(-1)
        assert _bits(trees._setup(f, (row_tree, node, first, h), pt)[0][prop]) == _bits(want[at])
        seen["natural"] += len(prop)
    # on every block walk, the shifted labels and the path-line propagators
    # at each label of the line, natural and on shell
    for w, (g, k, j) in enumerate(zip(c.walk_line.tolist(), c.walk_mode.tolist(),
                                      c.walk_anchor.tolist())):
        ml, ma = scalar[k], scalar[j] if j >= 0 else None
        if ml.root is None or ma is None:
            continue
        if ma.lam and ma.bar is not None:
            got = a.shifted(np.array([k]), np.array([j]))[0]
            assert got[got >= -1].tolist() == oracles.shifted(pt, ml, ma)
            seen["walks"] += 1
        hs = sorted(set(ml.hs) | set(oracles.shifted(pt, ml, ma) if ma.bar is not None else ()))
        for h in hs:
            for shell in (False, True) if ma.bar is not None else (False,):
                args = np.array([k]), np.array([h]), np.array([j]), np.array([shell])
                try:
                    want = oracles.propagator(pt, ml, h, oracles.path_freq(pt, ml, ma, shell))
                except ResonantDivisorError:
                    with pytest.raises(ResonantDivisorError):
                        a.path(*args)
                    continue
                assert _bits(a.path(*args)) == _bits(want)
                seen["path"] += 1


def test_one_row_tables_and_array_prices_match_their_references():
    # every table's labels and row starts are the product of its lines'
    # labels, with one row per tree and with several; every plain label,
    # shifted label, natural and path-line propagator equals, bit for bit,
    # the scalar route's (oracles.mode, oracles.shifted, oracles.propagator)
    # for its key
    seen = dict.fromkeys(("plain", "shifted", "one", "general", "natural", "walks", "path"), 0)
    for params, eps, nu, families in _pricing_points():
        pt = _point(params, eps, nu)
        for f in families:
            _tables_and_prices(pt, f, seen)
    assert all(seen.values()), seen


def _product_table(f, opts, cnt) -> tuple[list, list]:
    """(labels, row_start) of a table as lists, tree by tree through
    itertools.product of its lines' labels opts[g, :cnt[g]], without the
    rows that put an equal-mode line pair more than one scale apart."""
    c, labels, start = f.columns(), [], [0]
    for t in range(f.count):
        lines = range(c.line_start[t], c.line_start[t + 1])
        p = c.pair_row[c.pair_start[t]:c.pair_start[t + 1]].tolist()
        for combo in product(*(opts[g, :cnt[g]].tolist() for g in lines)):
            if all(abs(combo[a] - combo[b]) <= 1 for a, b in zip(p[0::2], p[1::2])):
                labels.append(list(combo) + [-1] * (c.max_lines - len(combo)))
        start.append(len(labels))
    return labels, start


def _table_lists(tab) -> tuple[list, list]:
    return tab.labels.tolist(), tab.row_start.tolist()


def test_table_rows_match_the_product_of_line_labels():
    # synthetic label counts 0 to 3 per line on criterion 6's families: the
    # rows count through the digits of the lines with other than one label,
    # and a line with none leaves its tree no row.  Then single labels two
    # scales apart on equal-mode pairs (as only shifted supports can put
    # them): those trees' rows go, the others stay
    rng = np.random.default_rng(11)
    shapes = dict.fromkeys(("empty", "several", "dropped"), 0)
    for (k, n, m) in GRID6:
        f = trees._family(k, n, m, MM, False)
        G = len(f.columns().line_row)
        cnt = rng.choice(4, size=G, p=(0.1, 0.55, 0.25, 0.1))
        opts = np.full((G, 3), -2, np.int16)
        for g in range(G):
            opts[g, :cnt[g]] = np.sort(rng.choice(np.arange(-1, 5), cnt[g], replace=False))
        tab = trees._Table(f, opts, cnt, True)
        want = _product_table(f, opts, cnt)
        assert _table_lists(tab) == want, (k, n, m)
        per = np.diff(tab.row_start)
        shapes["empty"] += int((per == 0).sum())
        shapes["several"] += int((per > 1).sum())
        c = f.columns()
        shapes["dropped"] += sum(int(np.prod(cnt[c.line_start[t]:c.line_start[t + 1]]))
                                 for t in range(f.count)) - len(want[0])
    assert all(shapes.values()), shapes

    f = trees._family(3, 2, 3, MM, False)
    c = f.columns()
    pair_tree = np.repeat(np.arange(f.count), np.diff(c.pair_start) // 2)
    apart = (c.line_start[pair_tree] + c.pair_row[0::2])[::3]
    opts = np.full((len(c.line_row), 2), -2, np.int16)
    opts[:, 0] = -1
    opts[apart, 0] = 1
    cnt = np.ones(len(opts), np.int64)
    tab = trees._Table(f, opts, cnt, True)
    assert _table_lists(tab) == _product_table(f, opts, cnt)
    assert 0 < len(tab.labels) < f.count


def _made_table(f, row_start, labels):
    """A table of f with the given rows, as `_Table` keeps them."""
    tab = trees._Table.__new__(trees._Table)
    tab.f, tab.row_start, tab.labels = f, row_start, labels
    return tab


def _layout_matches(f, rows, pt) -> int:
    """Check the rows' layout, and `_setup`'s, against the per-node
    derivation of oracles (`_node_rows`, `_line_slots`, `_layout`) for
    labels already on the rows' lines; returns the number of rows."""
    c = f.columns()
    row_tree, node, first, h = rows
    want_node, want_first = oracles._node_rows(f, row_tree)
    assert node.tolist() == want_node.tolist() and first.tolist() == want_first.tolist()
    line, nb, fac, const, unary, kids, inner, fk, off, _ = trees._setup(f, rows, pt)
    nb_, unary_, kids_, off_ = oracles._layout(c, want_node)
    assert nb.tolist() == nb_.tolist()
    assert const.tolist() == c.const[np.append(want_node, len(c.sv))].tolist()
    assert sorted(unary.tolist()) == unary_.tolist()
    # level by level, the family's deepest levels left empty where the
    # rows' trees are lower
    off_ += (off_[-1],) * (len(off) - len(off_))
    assert len(off) == len(off_)
    for lo, hi, lo_, hi_ in zip(off[:-1], off[1:], off_[:-1], off_[1:]):
        assert sorted(zip(inner[lo:hi].tolist(), *kids[:, lo:hi].tolist())) == \
            sorted(zip((kids_[1, lo_:hi_] - 1).tolist(), *kids_[:, lo_:hi_].tolist()))
    return len(row_tree)


def test_row_layouts_match_the_per_node_derivation(monkeypatch):
    # every table's row layout (`_laid` over the family's compiled one)
    # equals the per-node derivation: h, first, nb, unary and per level the
    # nodes with their children.  The tables of the pricing points, with
    # several rows per tree at P near resonance; random repeats of each
    # tree's rows with trees of no row; tree_value's one row, also in
    # special-end and one-tree families
    seen = dict.fromkeys(("several", "random", "tree_value"), 0)
    for params, eps, nu, families in _pricing_points():
        pt = _point(params, eps, nu)
        for f in families:
            for renorm in (False, True):
                tab = pt.table(f, renorm)
                rows = tab.rows()
                row, p, g = oracles._line_slots(f.columns(), rows[0])
                h = np.full(len(rows[1]), -1, np.int16)
                h[rows[2][row] + f.columns().line_row[g]] = tab.labels[row, p]
                assert rows[3].tolist() == h.tolist()
                n = _layout_matches(f, rows, pt)
                seen["several"] += n > len(np.unique(rows[0]))

    rng = np.random.default_rng(5)
    pt = _point(TREE_P, 0.0113, None)
    for fam in [(k, n, m, MM, False) for (k, n, m) in GRID6[::7]] + [(2, 9, 3, MM, True)]:
        f = trees._family(*fam)
        c = f.columns()
        per = rng.choice(4, size=f.count, p=(0.3, 0.3, 0.2, 0.2))
        row_start = np.append(0, np.cumsum(per))
        labels = np.full((row_start[-1], c.max_lines), -1, np.int8)
        row_tree = np.repeat(np.arange(f.count), per)
        for r, t in enumerate(row_tree.tolist()):
            nl = c.line_start[t + 1] - c.line_start[t]
            labels[r, :nl] = rng.integers(-1, 2, nl)
        rows = _made_table(f, row_start, labels).rows()
        row, p, g = oracles._line_slots(c, row_tree)
        assert rows[0].tolist() == row_tree.tolist()
        h = np.full(len(rows[1]), -1, np.int16)
        h[rows[2][row] + c.line_row[g]] = labels[row, p]
        assert rows[3].tolist() == h.tolist()
        seen["random"] += _layout_matches(f, rows, pt)

    taken = []
    setup = trees._setup

    def kept(f, rows, pt):
        taken.append((f, rows, pt))
        return setup(f, rows, pt)

    monkeypatch.setattr(trees, "_setup", kept)
    lt = CountertermTable()
    trees_ = [t for fam in ((3, 2, 3, MM, False), (2, 9, 3, MM, True))
              for t in trees._family(*fam).trees()[::9]]
    trees_.append(chain_tree((0, -1))[0])
    for tree in trees_:
        f, t = tree._fam, tree._t
        asg = {l: -1 for l in f.lines(t).tolist()}
        taken.clear()
        tree_value(tree, asg, TREE_P, 0.0113, None, 0.8, lt, True)
        (g, rows, at), = taken
        assert g is f and rows[0].tolist() == [t]
        seen["tree_value"] += _layout_matches(f, rows, at)
    assert all(seen.values()), seen


@pytest.mark.filterwarnings("ignore:convolution mass beyond")
def test_special_end_rows_take_the_block_route_values():
    # the order-4 special-end families of the counterterm-table point have
    # trees of two rows, of none and trees that fail `_localizable`.  The
    # localizable trees' rows evaluated alone are repr-equal to the same
    # rows inside the whole table, plain and renormalized
    params, eps, q = P.with_(mu=0.01, eps0=0.02, omega_branch=-1), 0.0032, 0.8
    nu, _ = solve_nu(params, eps, 2)
    params = params.with_(Mmax=3)
    modes = lambda_modes(params)
    lt = counterterm_table(params, eps, nu, q, (2,), modes)
    pt = _point(params, eps, nu)
    for (n, m) in modes:
        f = trees._family(4, n, m, params.Mmax, True)
        tab = pt.table(f, True)
        keep = trees._localizable(f, pt)[np.repeat(np.arange(f.count), np.diff(tab.row_start))]
        assert 0 < keep.sum() < len(keep)
        per = np.where(trees._localizable(f, pt), np.diff(tab.row_start), 0)
        sub = _made_table(f, np.append(0, np.cumsum(per)), tab.labels[keep]).rows()
        for renorm in (False, True):
            ctx = EvalCtx(params, eps, nu, q, lt, renorm)
            whole = trees._row_values(f, tab.rows(), ctx, special=True)
            alone = trees._row_values(f, sub, ctx, special=True)
            assert [repr(v) for v in alone.tolist()] == [repr(v) for v in whole[keep].tolist()]


def test_compiled_bytes_per_node_row_are_bounded():
    # what `_Columns` owns (its views of the family's rows left out), summed
    # over criterion 6's 99 families at Mmax 9: at most 8 bytes per node row
    rows = owned = 0
    for (k, n, m) in GRID6:
        c = trees._family(k, n, m, MM, False).columns()
        rows += len(c.sv)
        owned += sum(a.nbytes for a in vars(c).values()
                     if isinstance(a, np.ndarray) and a.flags.owndata)
    assert len(GRID6) == 99 and rows == 108_160
    assert owned / rows <= 8.0
