import random

import numpy as np
import pytest

import oracles
from lindbeam import trees
from lindbeam.bruno import (
    BrunoViolation,
    admissible_scales,
    check_bruno,
    check_bruno_r,
    sample_diophantine_points,
    violations,
)
from lindbeam.checks import family_grid
from lindbeam.series import lambda_modes, solve_nu
from lindbeam.spectrum import ModelParams, NuTable, in_lambda
from lindbeam.trees import Tree, enumerate_r_trees, enumerate_trees, family_table
from oracles import TNode, hand_tree, nodes, profile, prop_line_nodes

P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.02, omega_branch=1, Mmax=9, Nmax=60)


@pytest.fixture(scope="module")
def points():
    return sample_diophantine_points(P, 6, seed=11)


def test_sampling_filters_and_counts(points):
    assert len(points) == 6
    for eps, nu in points:
        assert 0 < eps < P.eps0
        for (n, m), v in nu.items():     # near-resonant and inside the box
            assert in_lambda(n, m, P) and abs(v) < P.nu_cap * P.eps0


def test_admissible_scales_structure(points):
    eps, nu = points[0]
    tree = enumerate_trees(2, 1, 3, P, 9)[0]
    asgs = admissible_scales(tree, P, eps, nu)
    assert asgs, "expected at least one admissible assignment"
    lines = prop_line_nodes(tree)
    for asg in asgs:
        assert set(asg) == {nd.nid for nd in lines}
        # equal-mode lines stay within one scale of each other
        for a in lines:
            for b in lines:
                if (a.n, a.m) == (b.n, b.m):
                    assert abs(asg[a.nid] - asg[b.nid]) <= 1
    # at these orders every divisor is order one: single all,-1 assignment
    assert len(asgs) == 1 and all(h == -1 for h in asgs[0].values())


def test_dyadic_shoulder_gives_two_assignments():
    # the (4,2) divisor at mu = 0.01 sits in the chi_{-1}/chi_0 overlap zone;
    # the scale machinery does not care that even-m kernels vanish, so a
    # hand-built line with that mode label exercises the two-label shoulder
    from lindbeam.spectrum import chi_h, x_divisor
    x = x_divisor(4, 2, P, 0.0)
    assert P.gamma < abs(x) < 2 * P.gamma
    assert chi_h(x, -1, P.gamma) != 0.0 and chi_h(x, 0, P.gamma) != 0.0
    ends = tuple(TNode(0, "end", "", 0, 0, 1, 1) for _ in range(2))
    inner = TNode(0, "node", "a", 2, 1, 2, 3, ends)
    v1 = TNode(0, "node", "a", 2, 1, 3, 3, (TNode(0, "end", "", 0, 0, 1, 1), inner))
    root = TNode(0, "node", "a", 2, 1, 4, 2, (TNode(0, "end", "", 0, 0, 1, 1), v1))
    t = hand_tree(root, 3, 4, 2)
    asgs = admissible_scales(t, P, 0.0, None)
    hs = sorted({asg[nodes(t)[0].nid] for asg in asgs})
    assert hs == [-1, 0]
    # the two assignments differ in exactly that one line
    others = [tuple(sorted((k, v) for k, v in a.items() if k != nodes(t)[0].nid))
              for a in asgs]
    assert len(set(others)) == 1


def test_profile_counts(points):
    eps, nu = points[0]
    tree = enumerate_trees(3, 2, 1, P, 9)
    tree = [t for t in tree if any(nd.sv == 1 for nd in nodes(t))][0]
    asg = {nd.nid: -1 for nd in prop_line_nodes(tree)}
    p = profile(tree, asg)
    assert p.n_lines == len(prop_line_nodes(tree))
    assert sum(p.M.values()) == sum(1 for nd in nodes(tree) if nd.sv == 1)
    # partition: non-resonant + resonant = all propagator lines
    assert p.K + sum(p.M.values()) + sum(p.S.values()) == p.n_lines
    # all at -1: no line contributes to any N_h with h >= 0
    assert p.N == {}


def test_hand_tallied_profile():
    # chain with one line pushed to scale 5
    e1 = TNode(0, "end", "", 0, 0, 1, 1)
    e2 = TNode(0, "end", "", 0, 0, 1, 1)
    v1 = TNode(0, "node", "a", 2, 1, 2, 3, (e1, e2))
    e0 = TNode(0, "end", "", 0, 0, 1, 1)
    v0 = TNode(0, "node", "b", 2, 1, 3, 5, (e0, v1))
    t = hand_tree(v0, 2, 3, 5)
    asg = {v0.nid: 2, v1.nid: 5}
    p = profile(t, asg)
    assert p.shell == {2: 1, 5: 1}
    assert p.N[0] == 2 and p.N[3] == 1 and p.N[5] == 1
    assert p.K == 2 and p.S == {} and p.M == {}


def test_check_bruno_all_minus_one_trivial():
    t = enumerate_trees(1, 2, 3, P, 9)[0]
    assert check_bruno(t, {nodes(t)[0].nid: -1}, P)


def test_check_bruno_crafted_counterexample(points):
    # isolated very-high-scale non-resonant line at tiny order
    t = enumerate_trees(1, 2, 3, P, 9)[0]
    bad = {nodes(t)[0].nid: 30}
    assert not check_bruno(t, bad, P, raise_on_fail=False)
    with pytest.raises(BrunoViolation):
        check_bruno(t, bad, P)
    # and the admissible machinery never emits it
    for eps, nu in points:
        for asg in admissible_scales(t, P, eps, nu):
            assert asg[nodes(t)[0].nid] == -1


def test_exhaustive_small_orders(points):
    checked = 0
    for eps, nu in points[:3]:
        for k in (1, 2):
            for n in range(-(k + 1), k + 2):
                for m in (1, 3, 5):
                    if (abs(n), m) == (1, 1):
                        continue
                    for tree in enumerate_trees(k, n, m, P, 9):
                        for asg in admissible_scales(tree, P, eps, nu):
                            assert check_bruno(tree, asg, P)
                            checked += 1
    assert checked > 300


def test_check_bruno_r(points):
    eps, nu = points[0]
    checked = 0
    for (n, m) in [(2, 1), (8, 3), (9, 3), (10, 3)]:
        for tree in enumerate_r_trees(2, n, m, P, 9):
            for asg in admissible_scales(tree, P, eps, nu):
                assert check_bruno_r(tree, asg, P)
                checked += 1
    assert checked > 20
    with pytest.raises(ValueError):
        check_bruno_r(enumerate_trees(1, 2, 3, P, 9)[0], {0: -1}, P)


def test_bruno_r_crafted_violation():
    tree = enumerate_r_trees(2, 9, 3, P, 9)[0]
    lines = prop_line_nodes(tree)
    if not lines:
        pytest.skip("shape without propagator lines")
    bad = {nd.nid: 35 for nd in lines}
    assert not check_bruno_r(tree, bad, P, raise_on_fail=False)


def test_counting_sanity_two_ways(points):
    # N_h from the cumulative map equals a direct count of lines at scale >= h
    eps, nu = points[0]
    for tree in enumerate_trees(3, 2, 1, P, 9)[:10]:
        lines = prop_line_nodes(tree)
        asg = {nd.nid: (3 if i == 0 else -1) for i, nd in enumerate(lines)}
        p = profile(tree, asg)
        for h in range(0, p.h_max + 1):
            direct = sum(1 for nd in lines if asg[nd.nid] >= h)
            assert p.N.get(h, 0) == direct


# At tau = 1 the scale factor s = 2^((2-h)/tau) is a power of two, so each
# assignment below puts N_h exactly on its bound at one scale, and one line
# more or one scale higher puts it over.
P1 = P.with_(tau=1.0)


def _verdicts(tree, asg, params):
    """(check, oracle, tally): the adapter's verdict, the per-assignment
    oracle's, and the tally's failing tuples for the assignment's row."""
    f, t = tree._fam, tree._t
    check = check_bruno_r if tree.is_rtree else check_bruno
    row = np.array([[asg.get(i, -1) for i in f.lines(t)]])
    return (check(tree, asg, params, raise_on_fail=False),
            oracles._count(tree, asg, params, False, oracles.count_bound(tree)),
            violations(f, np.array([t]), row, params))


def test_tree_bound_is_tight():
    # one non-resonant line at h = 2: N_2 = 1 = 2 K s - 1 with K = 1, s = 1
    # (the mutant K s - 1 reads 0); at h = 3 the bound is 2 * 0.5 - 1 = 0
    t = enumerate_trees(1, 2, 3, P, 9)[0]
    assert _verdicts(t, {nodes(t)[0].nid: 2}, P1) == (True, True, [])
    assert _verdicts(t, {nodes(t)[0].nid: 3}, P1) == (False, False, [(0, 3, 1, 0.0, 1)])


def test_special_end_bound_is_tight():
    # three non-resonant lines, two of them at h = 3: N_3 = 2 = 2 (K - 1) s
    # with K = 3, s = 1/2 (the mutant (K - 1) s reads 1); the third line at
    # h = 3 puts N_3 = 3 over it
    t = next(t for t in enumerate_r_trees(4, 2, 1, P, 3)
             if len(prop_line_nodes(t)) == 3 and not any(nd.sv == 1 for nd in nodes(t))
             and not oracles._candidates(t))
    a, b, c = (nd.nid for nd in prop_line_nodes(t))
    assert _verdicts(t, {a: 3, b: 3, c: -1}, P1) == (True, True, [])
    assert _verdicts(t, {a: 3, b: 3, c: 2}, P1) == (True, True, [])
    assert _verdicts(t, {a: 3, b: 3, c: 3}, P1) == (False, False, [(0, 3, 3, 2.0, 3)])
    assert _verdicts(t, {a: 2, b: 2, c: 2}, P1) == (True, True, [])


def test_resonances_count_at_their_exit_scale():
    # an active resonance (root exit, entering (2, 3), inner line (3, 5) at
    # -1) with its exit line at h = 4: K = 2 gives 2 K s - 1 = 0 there, so
    # N_4 = 1 holds only through S_4 = 1; at h = 3 it sits on 2 * 2 / 2 - 1
    e_in = TNode(0, "node", "a", 2, 1, 2, 3,
                 (TNode(0, "end", "", 0, 0, 1, 1), TNode(0, "end", "", 0, 0, 1, 1)))
    v1 = TNode(0, "node", "a", 2, 1, 3, 5, (TNode(0, "end", "", 0, 0, 1, 1), e_in))
    v0 = TNode(0, "node", "a", 2, 1, 2, 3, (TNode(0, "end", "", 0, 0, -1, 1), v1))
    t = hand_tree(v0, 3, 2, 3)
    asg = {v0.nid: 4, v1.nid: -1, e_in.nid: -1}
    p = profile(t, asg)
    assert (p.K, p.S, p.N[4]) == (2, {4: 1}, 1)
    assert _verdicts(t, asg, P1) == (True, True, [])
    # the inner line at the exit scale makes the block inactive
    assert _verdicts(t, {**asg, v1.nid: 4}, P1) == (False, False, [(0, 4, 2, 0.5, 3)])


def test_unary_nodes_count_at_their_exit_scale():
    # a unary node's line at h = 3 over one non-resonant line: K = 1 gives
    # 2 K s - 1 = 0 at h = 3, so N_3 = 1 holds only through M_3 = 1
    x = TNode(0, "node", "a", 2, 1, 2, 3,
              (TNode(0, "end", "", 0, 0, 1, 1), TNode(0, "end", "", 0, 0, 1, 1)))
    u = TNode(0, "node", "a", 1, 2, 2, 3, (x,))
    t = hand_tree(u, 3, 2, 3)
    asg = {u.nid: 3, x.nid: -1}
    p = profile(t, asg)
    assert (p.K, p.M, p.N[3]) == (1, {3: 1}, 1)
    assert _verdicts(t, asg, P1) == (True, True, [])
    # with x at h = 3 too, N_2 = 2 is over 2 K s - 1 + M_2 = 1
    assert _verdicts(t, {u.nid: 3, x.nid: 3}, P1) == (False, False, [(0, 2, 2, 1.0, 1)])


def _oracle_rows(f, row_tree, labels, params):
    """(row, first line of the BrunoViolation) of each row of a table that
    the per-assignment oracle fails."""
    out = []
    for r, t in enumerate(row_tree.tolist()):
        tree, lines = Tree(f, t), f.lines(t).tolist()
        asg = dict(zip(lines, labels[r, :len(lines)].tolist()))
        try:
            oracles._count(tree, asg, params, True, oracles.count_bound(tree))
        except BrunoViolation as exc:
            out.append((r, str(exc).split("\n")[0]))
    return out


def _tally_rows(f, row_tree, labels, params):
    """The same from `violations`, in the adapters' words."""
    return [(r, f"N_{h} = {lhs} > {rhs:.3f} (K={K})")
            for r, h, lhs, rhs, K in violations(f, row_tree, labels, params)]


def test_violations_match_the_oracle_on_the_criterion_6_grid():
    # criterion 6's families and its order-2 special-end ones, at three of
    # its points: every row of every table, as the per-assignment route
    grid = family_grid((1, 2, 3), (1, 3, 5, 7, 9))
    rows = 0
    for eps, nu in sample_diophantine_points(P, 3, seed=7):
        for k, n, m, special in ([(*key, False) for key in grid]
                                 + [(2, n, m, True) for n, m in lambda_modes(P)]):
            f, row_tree, labels = family_table(k, n, m, P, eps, nu, special)
            assert _tally_rows(f, row_tree, labels, P) == _oracle_rows(f, row_tree, labels, P)
            rows += len(labels)
    assert rows > 40_000


@pytest.fixture(scope="module")
def deep_sample():
    """A table with several rows per tree and lines at h >= 0: 2000 trees
    drawn from the 4.99e8 of (10, 9, 3) at Mmax 3, at eps 0.002 on the
    model of criterion 6 (P) on branch -1, with nu solved at K = 2."""
    params, eps = P.with_(omega_branch=-1), 0.002
    nu, _ = solve_nu(params, eps, 2)
    key, memo = (10, 9, 3, False), {}
    count = trees._count(key, 3, None, memo, float("inf"))[0]
    idx = sorted(random.Random(7).sample(range(count), 2000))
    f = trees._Family([trees._unrank(memo, key, i) for i in idx], *key)
    tab = trees._point(params, eps, nu).table(f, True)
    return params, f, np.repeat(np.arange(f.count), np.diff(tab.row_start)), tab.labels


def test_violations_match_the_oracle_on_a_deep_sample(deep_sample):
    params, f, row_tree, labels = deep_sample
    deep = np.flatnonzero(labels.max(axis=1) >= 0).tolist()
    assert len(labels) > len(deep) > 2000
    profiles = [profile(Tree(f, int(row_tree[r])),
                        dict(zip(f.lines(int(row_tree[r])).tolist(), labels[r].tolist())))
                for r in deep]
    assert sum(any(v for h, v in p.S.items() if h >= 0) for p in profiles) > 200
    assert sum(bool(p.M) for p in profiles) > 40
    # the sample's scales are -1 and 0, where no row can fail; raised by 3
    # or 8 they fail at the smaller tau, with the same actives and unaries
    failing = 0
    for lift in (0, 3, 8):
        raised = np.where(labels >= 0, labels + lift, labels)
        for tau in (9.0, 2.0, 0.7, 0.3):
            pt = params.with_(tau=tau)
            got = _tally_rows(f, row_tree, raised, pt)
            assert got == _oracle_rows(f, row_tree, raised, pt)
            failing += len(got)
    assert failing > 2000
