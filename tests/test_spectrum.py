import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbeam.spectrum import (
    DegenerateRadicandError,
    ModelParams,
    NuTable,
    admissible_h_for,
    check_nu_values,
    chi,
    chi_h,
    chi_support,
    in_lambda,
    mode_set,
    omega,
    omega_eff,
    propagator,
    x_divisor,
)
from oracles import scaled_propagator

P = ModelParams(mu=0.0, eps0=0.05)


def test_omega_values():
    assert omega(2, 0.0) == 4.0
    # sqrt(1 + mu) at the mass ceiling
    assert omega(1, 0.125) == pytest.approx(math.sqrt(1.125), abs=1e-15)
    assert omega(3, 0.05) == pytest.approx(math.sqrt(81.05), abs=1e-13)


def test_omega_monotone_and_bounded():
    for mu in (0.0, 0.05, 0.125):
        ms = np.arange(1, 40)
        om = omega(ms, mu)
        assert np.all(np.diff(om) > 0)
        assert np.all(om >= ms.astype(float) ** 2)
        assert np.all(om <= ms.astype(float) ** 2 * math.sqrt(1 + mu))
    assert omega(2, 0.1) > omega(2, 0.05)


def test_omega_eff_branches():
    pp = ModelParams(mu=0.1, omega_branch=-1)
    assert omega_eff(pp, 0.01) == pytest.approx(math.sqrt(1.1) - 0.01, abs=1e-15)
    assert omega_eff(pp.with_(omega_branch=1), 0.01) == pytest.approx(math.sqrt(1.1) + 0.01,
                                                                      abs=1e-15)


def test_x_divisor_examples():
    assert x_divisor(4, 2, P, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert x_divisor(1, 2, P, 0.0) == pytest.approx(-3.0, abs=1e-15)
    pp = ModelParams(mu=0.1, eps0=0.05)
    Om = omega_eff(pp, 0.01)
    assert x_divisor(2, 1, pp, 0.01) == pytest.approx(2 * Om - math.sqrt(1.1), abs=1e-14)
    # even in n
    assert x_divisor(-2, 1, pp, 0.01) == x_divisor(2, 1, pp, 0.01)


@pytest.mark.parametrize("shift", [-20.0, math.nan])
def test_x_divisor_raises_on_a_degenerate_radicand(shift):
    # 3^4 + 6 shift is negative or NaN at (6, 3): the scalar check flags
    # both, as ModeSet.radicand does, instead of returning a NaN divisor or
    # the finite propagator 1 / (-36 + 81 - 120)
    nu = NuTable()
    nu.set(6, 3, shift)
    for route in (x_divisor, propagator):
        with pytest.raises(DegenerateRadicandError, match=r"radicand \S+ <= 0 at mode \(6, 3\)$"):
            route(6, 3, P, 0.0, nu)
    assert x_divisor(6, 2, P, 0.0, nu) == 6.0 - 4.0
    assert propagator(6, 2, P, 0.0, nu) == 1.0 / (16.0 - 36.0)


def test_propagator():
    assert propagator(1, 1, P, 0.37) == 1.0
    assert propagator(-1, 1, P, 0.0012) == 1.0
    assert propagator(0, 3, P, 0.0) == pytest.approx(1.0 / 81.0, abs=1e-16)
    pp = ModelParams(mu=0.1, eps0=0.05)
    Om = omega_eff(pp, 0.01)
    assert propagator(2, 1, pp, 0.01) == pytest.approx(1.0 / (-4 * Om ** 2 + 1.1), abs=1e-14)


def test_propagator_nu_shift():
    pp = ModelParams(mu=0.1, eps0=0.05)
    nu = NuTable({(2, 1): 1e-3})
    Om = omega_eff(pp, 0.01)
    want = 1.0 / (-4 * Om ** 2 + 1.1 + 2e-3)
    assert propagator(2, 1, pp, 0.01, nu) == pytest.approx(want, rel=1e-14)
    # n nu even in n: same denominator at -n
    assert propagator(-2, 1, pp, 0.01, nu) == propagator(2, 1, pp, 0.01, nu)


def test_chi_plateaus():
    g = P.gamma
    assert chi(0.5 * g, g) == 0.0
    assert chi(2.5 * g, g) == 1.0
    assert 0.0 < chi(1.5 * g, g) < 1.0
    assert chi(-3 * g, g) == 1.0


def test_chi_h_supports():
    g = P.gamma
    # chi_2 vanishes outside [2^-3 g, 2^-1 g]
    assert chi_h(3 * g, 2, g) == 0.0
    lo, hi = chi_support(2, g)
    assert (lo, hi) == (g / 8, g / 2)
    xs = np.geomspace(g * 2 ** -12, 4 * g, 3000)
    for h in range(0, 9):
        vals = np.asarray(chi_h(xs, h, g))
        lo, hi = chi_support(h, g)
        nz = xs[vals != 0.0]
        if nz.size:
            assert nz.min() >= lo - 1e-18 and nz.max() <= hi + 1e-18


def test_partition_of_unity_grid():
    g = P.gamma
    xs = np.geomspace(g * 2 ** -20, 50.0, 4000)
    H = 24
    total = chi_h(xs, -1, g) + sum(chi_h(xs, h, g) for h in range(0, H + 1))
    mask = xs > 2.0 ** -H * g
    assert np.max(np.abs(total[mask] - 1.0)) < 1e-12


@given(st.floats(min_value=1e-9, max_value=100.0), st.integers(min_value=0, max_value=30))
@settings(max_examples=200, deadline=None)
def test_partition_of_unity_hypothesis(x, H):
    g = 2.0 ** -6
    if x <= 2.0 ** -H * g:
        return
    total = float(chi_h(x, -1, g)) + sum(float(chi_h(x, h, g)) for h in range(0, H + 1))
    assert abs(total - 1.0) < 1e-12


def test_chi_h_overlap_at_most_two_consecutive():
    g = P.gamma
    for x in np.geomspace(g * 2 ** -10, 3 * g, 500):
        hs = [h for h in range(-1, 14) if float(chi_h(x, h, g)) != 0.0]
        assert 1 <= len(hs) <= 2
        if len(hs) == 2:
            assert hs[1] - hs[0] == 1


def test_admissible_h_matches_chi():
    g = P.gamma
    xs = np.geomspace(g * 2 ** -12, 5 * g, 400)
    rows = admissible_h_for(xs, g)      # the same rule over an array, padded with -2
    for x, row in zip(xs, rows.tolist()):
        got = admissible_h_for(x, g)
        brute = [h for h in range(-1, 41) if float(chi_h(x, h, g)) != 0.0]
        assert got == brute == [h for h in row if h != -2]
    assert admissible_h_for(g * 2 ** -45, g) == []


def _grid_points(g, h_max):
    """Criterion 7's log grid plus the shell edges and the scale floor, both signs."""
    exact = [0.0, g, 2 * g, 2.0 ** -(h_max + 1) * g]
    exact += [2.0 ** -h * g for h in range(-1, h_max + 1)]
    return np.concatenate([np.geomspace(g * 2 ** -24, 100.0, 10_000), exact, -np.array(exact)])


def test_chi_scalar_path_matches_array_path():
    # measured: the two paths agree bit for bit (maximum relative deviation 0)
    g, h_max = P.gamma, P.h_max      # criterion 7's gamma
    xs = _grid_points(g, h_max)
    worst = 0.0
    for h in range(-1, h_max + 1):
        arr = np.asarray(chi_h(xs, h, g))
        scalar = np.array([chi_h(float(x), h, g) for x in xs])
        assert np.array_equal(arr == 0.0, scalar == 0.0), h
        nz = arr != 0.0
        worst = max(worst, float(np.max(np.abs(scalar[nz] - arr[nz]) / np.abs(arr[nz]),
                                        initial=0.0)))
    assert worst <= 1e-15
    assert all(type(chi_h(x, 3, g)) is float for x in (0.01, np.float64(0.01), 1))


def _admissible_h_array_path(x, gamma, h_max):
    """admissible_h_for with every cutoff evaluated through numpy arrays."""
    ax = abs(x)
    if ax < 2.0 ** (-h_max - 1) * gamma:
        return []
    out = [-1] if chi(np.array([ax]), gamma)[0] != 0.0 else []
    if ax < 2.0 * gamma:
        hc = int(math.floor(-math.log2(ax / gamma)))
        out += [h for h in (hc - 1, hc, hc + 1)
                if 0 <= h <= h_max and chi_h(np.array([ax]), h, gamma)[0] != 0.0]
    return out


def test_admissible_h_for_matches_array_path():
    g, h_max = P.gamma, P.h_max      # criterion 7's gamma
    for x in _grid_points(g, h_max).tolist():
        assert admissible_h_for(x, g, h_max) == _admissible_h_array_path(x, g, h_max), x


def test_scaled_propagator():
    g = P.gamma
    pp = ModelParams(mu=0.1, eps0=0.05)
    x = x_divisor(1, 2, pp, 0.0)
    assert abs(x) >= 2 * g
    # large divisor: the h=-1 slice is the full propagator, shells vanish
    assert scaled_propagator(1, 2, -1, pp, 0.0) == propagator(1, 2, pp, 0.0)
    for h in range(0, 6):
        assert scaled_propagator(1, 2, h, pp, 0.0) == 0.0
    # |x_{0,3}| = 9 >= 2 gamma
    assert scaled_propagator(0, 3, -1, P, 0.0) == pytest.approx(1 / 81.0, abs=1e-16)
    # b-line = n * a-line away from the primary mode
    for n, m in [(2, 1), (3, 5), (-4, 3)]:
        a_val = scaled_propagator(n, m, -1, pp, 0.01, None, "a")
        b_val = scaled_propagator(n, m, -1, pp, 0.01, None, "b")
        assert b_val == pytest.approx(n * a_val, rel=1e-15)
    # primary mode conventions
    assert scaled_propagator(1, 1, -1, pp, 0.01, None, "a") == 1.0
    assert scaled_propagator(-1, 1, -1, pp, 0.01, None, "b") == -1.0


def test_small_scales_imply_near_resonance():
    # nonzero slice at h >= 0 forces the mode into the near-resonant zone
    pp = ModelParams(mu=0.01, eps0=0.05)
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(1, 12))
        if (n, m) == (1, 1):
            continue
        eps = float(rng.uniform(0, pp.eps0))
        x = x_divisor(n, m, pp, eps)
        for h in admissible_h_for(x, pp.gamma):
            if h >= 0 and scaled_propagator(n, m, h, pp, eps) != 0.0:
                assert in_lambda(n, m, pp)
    # and the near-resonant mode (4,2) at small mu indeed gets a shell label
    pq = ModelParams(mu=0.01, eps0=0.05)
    x42 = x_divisor(4, 2, pq, 0.0)
    assert any(h >= 0 for h in admissible_h_for(x42, pq.gamma))


def test_in_lambda_examples():
    assert in_lambda(4, 2, ModelParams(mu=0.0, eps0=0.01))
    assert not in_lambda(1, 5, ModelParams(mu=0.0, eps0=0.01))
    pp = ModelParams(mu=0.1, eps0=0.05)
    # 9(sqrt(1.1)-1) ~ 0.439 <= 1.45
    assert in_lambda(9, 3, pp)
    assert in_lambda(-9, 3, pp)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(mu=0.5)
    with pytest.raises(ValueError):
        ModelParams(gamma=0.1)
    with pytest.raises(ValueError):
        ModelParams(tau0=2.0)
    with pytest.raises(ValueError):
        ModelParams(eps0=1.5)
    assert ModelParams().tau == 9.0  # tau defaults to tau0 + 5
    assert ModelParams(tau0=6.0).tau == 11.0


@pytest.mark.parametrize("tau", [-3.0, -1.0])
def test_explicit_tau_is_validated_never_replaced(tau):
    with pytest.raises(ValueError, match="tau="):
        ModelParams(tau=tau)
    assert ModelParams(tau=3.0).tau == 3.0


def test_nu_table():
    nu = NuTable()
    nu.set(2, 1, 1e-3)
    assert nu.get(2, 1) == 1e-3
    assert nu.get(-2, 1) == -1e-3
    assert nu.n_nu(2, 1) == nu.n_nu(-2, 1) == 2e-3
    assert nu.get(5, 3) == 0.0
    with pytest.raises(ValueError):
        nu.set(1, 1, 0.1)
    with pytest.raises(ValueError):
        nu.set(0, 3, 0.1)
    # the box |nu| < nu_cap * eps0, checked on the values solve_nu returns
    with pytest.raises(ValueError, match=r"exceeds 0.25\*eps0"):
        check_nu_values(np.array([2]), np.array([1]), np.array([0.1]), 0.1, 0.05, 0.25)


# ---------------------------------------------------------------------------
# the ModeSet index of the near-resonant set

TREE_P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.02, omega_branch=1, Mmax=9, Nmax=60)
RES_P = ModelParams(a=1.0, b=0.5, mu=0.1, eps0=0.02, omega_branch=-1, Mmax=64, Nmax=300)
WIDE_P = RES_P.with_(eps0=0.35, nu_cap=0.45, Nmax=500)


def _lambda_modes_loop(params, Mmax, Nmax):
    """The per-(n, m) scan that listed the near-resonant modes before ModeSet."""
    om1 = float(omega(1, params.mu))
    out = []
    for m in range(1, Mmax + 1, 2):
        lo = (m * m - 1.0) / (om1 + params.eps0)
        hi = (m * m + 1.0) / max(om1 - params.eps0, 1e-9)
        for n in range(max(1, math.floor(lo)), min(Nmax, math.ceil(hi)) + 1):
            if (n, m) == (1, 1):
                continue
            if abs(om1 * n - m * m) <= 1.0 + params.eps0 * n:
                out.append((n, m))
    return out


@pytest.mark.parametrize("params", [ModelParams(), TREE_P, RES_P, WIDE_P],
                         ids=["default", "tree", "res", "wide"])
def test_mode_set_lists_the_scanned_modes(params):
    ms = mode_set(params.mu, params.eps0, params.Mmax, params.Nmax)
    want = _lambda_modes_loop(params, params.Mmax, params.Nmax)
    assert ms.modes() == want
    if params is WIDE_P:
        assert len(ms) == 1317
    # the flat layout is sized by the windows and round-trips every mode
    width = np.maximum(ms.hi - ms.lo + 1, 0)
    assert ms.size == width.sum() < params.Mmax * params.Nmax
    assert np.array_equal(ms.index(ms.n, ms.m), ms.pos)
    assert np.array_equal(ms.scatter(np.ones(len(ms)))[ms.pos], ms.n.astype(float))


@pytest.mark.parametrize("params", [TREE_P, RES_P, WIDE_P], ids=["tree", "res", "wide"])
def test_in_lambda_agrees_with_mode_set(params):
    ms = mode_set(params.mu, params.eps0, params.Mmax, params.Nmax)
    members = set(ms.modes())
    for m in range(1, params.Mmax + 1):
        for n in range(1, params.Nmax + 1):
            inside = in_lambda(n, m, params)
            assert inside == in_lambda(-n, m, params)
            if m % 2 == 1 and (n, m) != (1, 1):
                assert inside == ((n, m) in members), (n, m)
            if inside:   # every near-resonant n lies in its window
                assert ms.lo[m] <= n <= ms.hi[m]


def test_mode_set_shift_windows_a_table():
    ms = mode_set(TREE_P.mu, TREE_P.eps0, TREE_P.Mmax, TREE_P.Nmax)
    nu = NuTable()
    nu.set(9, 3, 2e-4)       # inside the window of m = 3
    nu.set(40, 3, 5e-4)      # beyond it: dropped
    nu.set(80, 9, 1e-4)      # beyond Nmax
    nu.set(5, 11, 1e-4)      # beyond Mmax
    shift = ms.shift(nu)
    assert shift[ms.index(9, 3)] == 9 * 2e-4
    assert np.count_nonzero(shift) == 1 and shift[-1] == 0.0
    assert ms.index(40, 3) == ms.index(5, 11) == ms.size
    assert not ms.shift(None).any() and not ms.shift(NuTable()).any()
