"""Every small divisor reads one omega_m^2 (spectrum.omega_sq) and, over a
ModeSet's flat layout, one radicand (ModeSet.radicand).

Each site is compared with the expression it had before, kept here as a
test-local copy: bit for bit where the arithmetic is the same, within a named
tolerance where it is not (the tree route's omega~^2 squared a square root).
The Melnikov margins are compared with the per-m scan of
`oracles._melnikov_oracle`.  The models are the cantor_scan benchmark's and
criterion 6's TREE_P.
"""
import math

import numpy as np
import pytest

from lindbeam import diophantine
from lindbeam.bruno import sample_diophantine_points
from lindbeam.diophantine import melnikov_margins
from lindbeam.series import _forcing, compute_coeffs, order_consistency, solve_nu
from lindbeam.spectrum import (
    DegenerateRadicandError,
    ModelParams,
    mode_set,
    omega,
    omega_eff,
    propagator_row,
)
from lindbeam.trees import _point, counterterm_order2_closed
from oracles import _cleared, _melnikov_oracle

CANTOR_P = ModelParams(a=1.0, b=0.5, mu=0.1, eps0=0.35, nu_cap=0.45, omega_branch=-1,
                       Nmax=500, Mmax=64)
TREE_P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.02, omega_branch=1, Mmax=9, Nmax=60)
MODELS = [CANTOR_P, TREE_P]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _points(params):
    """(eps, nu, q) of the model: solved tables on cantor_scan's (branch -1),
    Sobol samples as criterion 6 draws them on TREE_P's (branch +1, where
    the cubic coefficient is negative and solve_nu has no amplitude), and a
    random table on every mode."""
    ms = mode_set(params.mu, params.eps0, params.Mmax, params.Nmax)
    if params.omega_branch == -1:
        out = []
        for eps in (0.0045, 0.03, 0.09):
            nu, info = solve_nu(params, eps, 2)
            out.append((eps, nu, info["q"]))
    else:
        out = [(eps, nu, 0.8) for eps, nu in sample_diophantine_points(params, 2, seed=7)]
    rng = np.random.default_rng(4)
    sampled = ms.nu_table(rng.uniform(-0.2, 0.2, len(ms)) * params.eps0)
    return ms, out + [(out[0][0], sampled, out[0][2])]


# ---------------------------------------------------------------------------
# the expressions as they were


def _old_radicand(ms, shift):
    rad = ms.flat_m.astype(float) ** 4 + ms.mu + shift[:-1]
    bad = np.flatnonzero(rad <= 0.0)
    if bad.size:
        j, m = int(bad[0]), int(ms.flat_m[bad[0]])
        raise DegenerateRadicandError(
            f"radicand {rad[j]} <= 0 at mode {(j - int(ms.offset[m]) + int(ms.lo[m]), m)}")
    return rad


def _old_pair_rows(mu, eps0, Nmax, Mmax):
    ms = mode_set(mu, eps0, Mmax, Nmax)
    wins = [m for m in range(1, Mmax + 1) if ms.lo[m] <= ms.hi[m]]
    blocks = []
    for i1, m1 in enumerate(wins):
        n1s = np.arange(ms.lo[m1], ms.hi[m1] + 1)
        n1s = np.concatenate([-n1s[::-1], n1s])
        for m2 in wins[i1 + 1:]:
            blocks.append((n1s, np.full(n1s.size, m1), np.full(n1s.size, m2)))
    n1, m1, m2 = ((np.concatenate(x) for x in zip(*blocks)) if blocks
                  else (np.zeros(0, dtype=int),) * 3)
    lo2, hi2 = ms.lo[m2], ms.hi[m2]
    size = np.array([b[0].size for b in blocks], dtype=int)
    start = np.cumsum(size) - size
    b_m1, b_m2 = m1[start], m2[start]
    b_om1, b_om2 = (np.sqrt(x.astype(float) ** 4 + mu) for x in (b_m1, b_m2))
    return (n1, m1, m2, lo2, hi2, np.sqrt(m2.astype(float) ** 4 + mu),
            ms.index(np.abs(n1), m1), ms.offset[m2] - lo2,
            start, size, b_m1, b_m2, np.stack([b_om1 + b_om2, b_om1 - b_om2]))


def _old_margin_tables(mu, eps0, Nmax, Mmax, tau):
    """As it was, less the flat m^4 + mu that the radicand now reads."""
    ms = mode_set(mu, eps0, Mmax, Nmax)
    base = ms.flat_m.astype(float) ** 4 + mu
    om = np.sqrt(base)
    win_m = np.flatnonzero(ms.hi >= ms.lo)
    m = np.arange(2, Mmax + 1)[:, None]
    return (om, float(om.max(initial=0.0)), win_m, ms.offset[win_m],
            m.astype(float) ** 4 + mu, omega(m, mu),
            np.array([float(n) ** tau for n in range(Nmax + 1)]),
            np.arange(2 * Nmax + 1, dtype=float) ** tau)


def _old_order2_closed(params, eps, shift, q, modes):
    a, b = params.a, params.b
    Om = omega_eff(params, eps)
    _, side, v_m1_sq, inner, om_mp2 = modes.closed_rows
    narr, m4 = modes.n.astype(float), modes.m.astype(float) ** 4 + modes.mu
    rad = m4 + shift[modes.pos]
    bad = np.flatnonzero(rad < 0.0)
    if bad.size:
        j = bad[0]
        raise DegenerateRadicandError(f"radicand {rad[j]} < 0 at mode {modes.modes()[j]}")
    ombar = np.sqrt(rad)
    s = a * (a + b * Om * Om) * side
    term = np.empty(v_m1_sq.shape)
    for sig, (at, pos, primary) in zip((1.0, -1.0), inner):
        n1 = narr + sig
        x = Om * sig + ombar
        term[...] = (x * x)[:, None]
        np.subtract(om_mp2, term, out=term)
        term.reshape(-1)[at] += shift[pos]
        f0 = a + b * Om * Om * sig * n1
        f1 = a - b * Om * Om * sig * narr
        np.divide(v_m1_sq, term, out=term)
        term[primary, 0] = 0.0
        s = s + f0 * f1 * term.sum(axis=1)
    return -(4.0 * q * q / narr) * s


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params", MODELS)
def test_divisor_sites_equal_their_old_expressions_bitwise(params):
    ms, points = _points(params)
    key = (params.mu, params.eps0, params.Nmax, params.Mmax)

    om_mp2, *_, tiled = ms.closed_rows
    mp = np.arange(1, params.Mmax + 1, 2).astype(float)
    assert _bits(om_mp2) == _bits(mp ** 4 + params.mu)
    assert _bits(tiled) == _bits(np.tile(mp ** 4 + params.mu, (len(ms), 1)))
    new_tab = diophantine._margin_tables(*key, params.tau)
    for new, old in zip(new_tab[:8], _old_margin_tables(*key, params.tau)):
        assert _bits(new) == _bits(old)
    # the block columns m1, m2, omega_m2 and s0 against the row table's
    rows = _old_pair_rows(*key)
    for new, old in zip(new_tab[8:], (rows[10], rows[11], rows[5][rows[8]], rows[12])):
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()

    for eps, nu, q in points:
        Om = omega_eff(params, eps)
        shift = ms.shift(nu)
        m = np.arange(1, params.Mmax + 1)
        for n in range(0, 6):
            n_nu = shift[ms.index(n, m)]
            old = 1.0 / (-(Om * n) ** 2 + (m ** 4 + params.mu + n_nu))
            assert _bits(propagator_row(n, m, params, eps, n_nu)) == _bits(old)
        assert _bits(ms.radicand(shift)) == _bits(_old_radicand(ms, shift))
        assert _bits(counterterm_order2_closed(params, eps, shift, q, ms)) == _bits(
            _old_order2_closed(params, eps, shift, q, ms))
        want = _melnikov_oracle(eps, nu, params, params.Nmax, params.Mmax)
        for below in (math.inf, params.gamma, 2 * params.gamma):
            assert melnikov_margins(eps, nu, params, below) == _cleared(want, below)


@pytest.mark.parametrize("params", [p.with_(Mmax=M) for p in MODELS for M in (1, 2)])
def test_pair_scan_equals_the_row_table_scan_at_one_or_two_modes(params):
    # Mmax = 1 has no pair block, Mmax = 2 one (m1, m2) = (1, 2); the scan is
    # held to the per-m oracle, with no table and a random one on every mode
    ms = mode_set(params.mu, params.eps0, params.Mmax, params.Nmax)
    sampled = ms.nu_table(np.random.default_rng(3).uniform(-0.2, 0.2, len(ms)) * params.eps0)
    for eps in np.geomspace(params.eps0 / 40, params.eps0 / 2, 4).tolist():
        for nu in (None, sampled):
            want = _melnikov_oracle(eps, nu, params, params.Nmax, params.Mmax)
            for below in (math.inf, params.gamma, 2 * params.gamma, 5.0):
                assert melnikov_margins(eps, nu, params, below) == _cleared(want, below)
            at = melnikov_margins(eps, nu, params)["second_at"]
            assert (at is None) if params.Mmax == 1 else (at[1], at[3]) == (1, 2)


def test_radicand_raises_at_the_first_degenerate_mode_as_before():
    # 3^4 + mu - 20 n <= 0 at n = 6 and 9; the flat layout holds (6, 3) first
    ms = mode_set(CANTOR_P.mu, CANTOR_P.eps0, CANTOR_P.Mmax, CANTOR_P.Nmax)
    shift = np.zeros(ms.size + 1)
    shift[ms.index(np.array([9, 6]), 3)] = -20.0 * np.array([9, 6])
    for route in (ms.radicand, lambda s: _old_radicand(ms, s)):
        with pytest.raises(DegenerateRadicandError, match=r"radicand -\S+ <= 0 at mode \(6, 3\)$"):
            route(shift)
    with pytest.raises(DegenerateRadicandError, match=r"at mode \(6, 3\)$"):
        counterterm_order2_closed(CANTOR_P, 0.03, shift, 1.0, ms)


# the tree route squared sqrt(m^4 + mu); that stays within 1 ulp of omega_m^2
OMT2_ULPS = 1


@pytest.mark.parametrize("params", MODELS)
def test_tree_omega_sq_moves_within_one_ulp(params):
    _, points = _points(params)
    for eps, nu, _ in points:
        pt = _point(params, eps, nu)
        moved = 0
        for n in range(-8, 9):
            for m in range(1, params.Mmax + 1):
                omsq = m ** 4 + params.mu
                old = math.sqrt(omsq) ** 2 + abs(n) * pt._nu.get((abs(n), m), 0.0)
                row = pt.mode_rows(((n, m),))[0]
                got = float(pt.mode_data[0][row])     # the array route's omega~^2
                assert abs(got - old) <= OMT2_ULPS * math.ulp(omsq), (n, m)
                moved += got != old
        assert moved    # the exact value is not the old one everywhere


def _old_order_consistency(table, params, eps, nu, lt):
    """order_consistency over every row n, with omega_m^2 as omega_m ** 2."""
    Om = omega_eff(params, eps)
    M = table.Mmax
    om_sq = omega(np.arange(1, M + 1), params.mu) ** 2
    n_nu = [(n, m, n * v) for (n, m), v in (nu.items() if nu else ()) if m <= M]
    n_l = [(r, n, m, n * v) for (r, n, m, h), v in lt.items() if h == -1 and m <= M]
    worst = 0.0
    for k in range(1, table.K + 1):
        F = _forcing(table.u, k - 1, params, Om, M)
        scale = max(1.0, np.abs(F).max())
        ns = np.arange(-(k + 1), k + 2)
        lin = -(Om * ns[:, None]) ** 2 + om_sq[None, :]
        rhs = F[:, :M].copy()
        for n, m, w in n_nu:
            if n <= k + 1:
                lin[[k + 1 - n, k + 1 + n], m - 1] += w
        for r, n, m, w in n_l:
            if 2 <= r < k and n <= (k - r) + 1:
                lower = table.u[k - r][[k - r + 1 - n, k - r + 1 + n], m - 1]
                rhs[[k + 1 - n, k + 1 + n], m - 1] += w * lower
        defect = np.abs(lin * table.u[k] - rhs) / scale
        defect[[k, k + 2], 0] = 0.0
        worst = max(worst, float(defect.max()))
    return worst


# order_consistency's defect is round-off relative to max |F^(k)|; the exact
# omega_m^2 moves it by at most one machine epsilon
OC_TOL = np.finfo(float).eps
CONSTRUCT_P = ModelParams(a=1.0, b=0.5, mu=0.1, eps0=0.02, omega_branch=-1, Mmax=192, Nmax=300)


@pytest.mark.parametrize("params, eps, K", [(CANTOR_P, 0.03, 2)]
                         + [(CONSTRUCT_P, eps, 3) for eps in (4e-4, 1.0730783181118902e-3, 4e-3)])
def test_order_consistency_moves_within_round_off(params, eps, K):
    nu, info = solve_nu(params, eps, K)
    table = compute_coeffs(params, eps, nu, info["counterterms"], K, params.Mmax, q=info["q"])
    new = order_consistency(table, params, eps, nu, info["counterterms"])
    old = _old_order_consistency(table, params, eps, nu, info["counterterms"])
    assert abs(new - old) <= OC_TOL
