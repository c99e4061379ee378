import pytest

from lindbeam.bruno import (
    BrunoViolation,
    admissible_scales,
    check_bruno,
    check_bruno_r,
    profile,
    sample_diophantine_points,
)
from lindbeam.spectrum import ModelParams, NuTable, in_lambda
from lindbeam.trees import TNode, Tree, enumerate_r_trees, enumerate_trees
from oracles import prop_line_nodes

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
    t = Tree(root=root, k=3, n=4, m=2).finalize()
    asgs = admissible_scales(t, P, 0.0, None)
    hs = sorted({asg[t.root.nid] for asg in asgs})
    assert hs == [-1, 0]
    # the two assignments differ in exactly that one line
    others = [tuple(sorted((k, v) for k, v in a.items() if k != t.root.nid))
              for a in asgs]
    assert len(set(others)) == 1


def test_profile_counts(points):
    eps, nu = points[0]
    tree = enumerate_trees(3, 2, 1, P, 9)
    tree = [t for t in tree if any(nd.sv == 1 for nd in t.nodes)][0]
    asg = {nd.nid: -1 for nd in prop_line_nodes(tree)}
    p = profile(tree, asg)
    assert p.n_lines == len(prop_line_nodes(tree))
    assert sum(p.M.values()) == sum(1 for nd in tree.nodes if nd.sv == 1)
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
    t = Tree(root=v0, k=2, n=3, m=5).finalize()
    asg = {v0.nid: 2, v1.nid: 5}
    p = profile(t, asg)
    assert p.shell == {2: 1, 5: 1}
    assert p.N[0] == 2 and p.N[3] == 1 and p.N[5] == 1
    assert p.K == 2 and p.S == {} and p.M == {}


def test_check_bruno_all_minus_one_trivial():
    t = enumerate_trees(1, 2, 3, P, 9)[0]
    assert check_bruno(t, {t.root.nid: -1}, P)


def test_check_bruno_crafted_counterexample(points):
    # isolated very-high-scale non-resonant line at tiny order
    t = enumerate_trees(1, 2, 3, P, 9)[0]
    bad = {t.root.nid: 30}
    assert not check_bruno(t, bad, P, raise_on_fail=False)
    with pytest.raises(BrunoViolation):
        check_bruno(t, bad, P)
    # and the admissible machinery never emits it
    for eps, nu in points:
        for asg in admissible_scales(t, P, eps, nu):
            assert asg[t.root.nid] == -1


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
