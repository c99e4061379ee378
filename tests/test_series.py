import csv
import math
import warnings

import numpy as np
import pytest

from lindbeam import series
from lindbeam.kernel import C_NORM, kernel_tensor, kernel_v
from lindbeam.series import (
    _forcing,
    CoeffTable,
    CountertermTable,
    InconsistentInputsError,
    NonConvergenceError,
    SignExcludedError,
    amplitude_cubic_coefficient,
    amplitude_series,
    assemble_solution,
    compute_coeffs,
    decay_check,
    lambda_modes,
    order_consistency,
    quad_conv,
    residual_norm,
    save_coeffs_csv,
    save_counterterms_csv,
    save_nu_csv,
    solve_amplitude,
    solve_nu,
    summary_json,
)
from lindbeam.series import counterterm_order2_closed
from lindbeam.spectrum import (
    ModelParams,
    NuTable,
    mode_set,
    omega_eff,
    propagator,
)
from lindbeam.trees import counterterm_table
import oracles
from oracles import scaled_propagator

P = ModelParams(a=1.0, b=0.5, mu=0.1, eps0=0.02, omega_branch=-1, Mmax=64, Nmax=300)
EPS = 5e-3


def small_table(K=2, q=0.7, eps=EPS, params=P, Mmax=64, nu=None, lt=None):
    return compute_coeffs(params, eps, nu, lt, K, Mmax, q=q)


def test_order_zero_is_primary_only():
    t = small_table(K=1)
    assert t.value(0, 1, 1) == t.value(0, -1, 1) == 0.7
    assert t.value(0, 0, 3) == 0.0


def test_order1_hand_formula():
    # u1_{0,m} = g_{0,m} * 2(a + b Om^2) v_{m,1,1} q^2
    q = 0.7
    t = small_table(K=1, q=q)
    Om = omega_eff(P, EPS)
    for m in (1, 3, 5):
        want = propagator(0, m, P, EPS) * 2 * (P.a + P.b * Om ** 2) \
            * kernel_v(m, 1, 1) * q * q
        assert t.value(1, 0, m) == pytest.approx(want, rel=1e-14)
        want2 = propagator(2, m, P, EPS) * (P.a - P.b * Om ** 2) \
            * kernel_v(m, 1, 1) * q * q
        assert t.value(1, 2, m) == pytest.approx(want2, rel=1e-14)


def _dense_quad_conv(u1, u2, k1, k2, a, b, Om, M):
    """Explicit contraction with the dense (2M, M, M) kernel tensor."""
    pairs = np.einsum("abc,ib,jc->ija", kernel_tensor(2 * M, M), u1, u2)
    want = np.zeros((2 * (k1 + k2 + 2) + 1, 2 * M))
    for i1 in range(u1.shape[0]):
        for i2 in range(u2.shape[0]):
            n1, n2 = i1 - (k1 + 1), i2 - (k2 + 1)
            want[i1 + i2] += (a - b * Om * Om * n1 * n2) * pairs[i1, i2]
    return want


@pytest.mark.parametrize("M", [1, 2, 9, 64])
def test_quad_conv_matches_dense_kernel(M):
    # oracle: explicit contraction with the dense (2M, M, M) kernel tensor
    rng = np.random.default_rng(M)
    k1, k2, a, b, Om = 1, 2, 1.0, 0.5, 1.05
    u1 = rng.standard_normal((2 * (k1 + 1) + 1, M))
    u2 = rng.standard_normal((2 * (k2 + 1) + 1, M))
    u1[1] = 0.0
    got = quad_conv(u1, u2, k1, k2, a, b, Om, M)
    want = _dense_quad_conv(u1, u2, k1, k2, a, b, Om, M)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("M", [11, 64])
@pytest.mark.parametrize("case", ["odd_only", "u2_without_odd_m", "same_array"])
def test_quad_conv_parity_classes_match_dense_kernel(case, M):
    # the half-lattice contraction: odd-only rows (the tables' own form), an
    # operand with one parity class empty, and the symmetric u1 is u2 route
    rng = np.random.default_rng(M + 1)
    k1, k2, a, b, Om = 1, 2, 1.0, 0.5, 1.05
    u1 = rng.standard_normal((2 * (k1 + 1) + 1, M))
    u2 = rng.standard_normal((2 * (k2 + 1) + 1, M))
    u1[1] = 0.0
    if case == "odd_only":
        u1[:, 1::2] = u2[:, 1::2] = 0.0
    elif case == "u2_without_odd_m":
        u2[:, 0::2] = 0.0
    else:
        u2, k2 = u1, k1
    got = quad_conv(u1, u2, k1, k2, a, b, Om, M)
    want = _dense_quad_conv(u1, u2, k1, k2, a, b, Om, M)
    assert got.shape == want.shape
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _quad_conv_full_rows(u1, u2, k1, k2, a, b, Om, M):
    """quad_conv on whole rows with the whole projection matrix."""
    noff = (k1 + 1) + (k2 + 1)
    lag = np.zeros((2 * noff + 1, 2 * M - 1))
    G = np.zeros((2 * noff + 1, 2 * M + 1))
    for i1, row1 in enumerate(u1):
        for i2, row2 in enumerate(u2):
            coef = a - b * Om * Om * (i1 - (k1 + 1)) * (i2 - (k2 + 1))
            lag[i1 + i2] += coef * np.correlate(row1, row2, "full")
            G[i1 + i2, 2:] -= coef * np.convolve(row1, row2)
    G[:, :M] += lag[:, M - 1:]
    G[:, 1:M] += lag[:, :M - 1][:, ::-1]
    m = np.arange(1, 2 * M + 1, dtype=float)[:, None]
    k = np.arange(0, 2 * M + 1, dtype=float)[None, :]
    odd = (m + k) % 2 == 1
    return G @ np.where(odd, C_NORM * m / np.where(odd, m * m - k * k, 1.0), 0.0).T


@pytest.mark.parametrize("Mmax", [9, 192])
def test_forcing_matches_pairwise_quad_conv(Mmax):
    # one projection of the symmetric sum == the sum of every ordered pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        nu, info = solve_nu(P.with_(Mmax=Mmax), EPS, 3)
        us = compute_coeffs(P, EPS, nu, info["counterterms"], 3, Mmax, q=info["q"]).u
    Om = omega_eff(P, EPS)
    for j in range(4):
        got = _forcing(us, j, P, Om, Mmax)
        want = sum(_quad_conv_full_rows(us[k1], us[j - k1], k1, j - k1, P.a, P.b, Om, Mmax)
                   for k1 in range(j + 1))
        assert got.shape == want.shape
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _even_rows(rng, k, M):
    """Random rows |n| <= k+1, exactly even in n, on both parities of m."""
    u = rng.standard_normal((2 * (k + 1) + 1, M))
    u[:k + 1] = u[:k + 1:-1]
    return u


@pytest.mark.parametrize("M", [2, 9, 64])
@pytest.mark.parametrize("case", ["pair", "same_array", "odd_only"])
def test_quad_conv_even_inputs_give_exactly_even_output(case, M):
    # real tables: only the n1 + n2 >= 0 pairs are contracted, then mirrored
    rng = np.random.default_rng(M + 7)
    k1, k2, a, b, Om = 1, 2, 1.0, 0.5, 1.05
    u1, u2 = _even_rows(rng, k1, M), _even_rows(rng, k2, M)
    if case == "same_array":
        u2, k2 = u1, k1
    elif case == "odd_only":
        u1[:, 1::2] = u2[:, 1::2] = 0.0
    got = quad_conv(u1, u2, k1, k2, a, b, Om, M)
    want = _dense_quad_conv(u1, u2, k1, k2, a, b, Om, M)
    assert np.array_equal(got, got[::-1])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # one ulp off evenness takes the route over every pair
    u1[0, 0] = np.nextafter(u1[0, 0], np.inf)
    got = quad_conv(u1, u2, k1, k2, a, b, Om, M)
    want = _dense_quad_conv(u1, u2, k1, k2, a, b, Om, M)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _contract_every_pair(terms, noff, a, b, Om, M):
    """series._contract's route for inputs not exactly even in n, taken for
    every input: every pair of half-rows, n < 0 included, and every nonzero
    row projected."""
    from lindbeam.kernel import cosine_projection
    from lindbeam.series import _half_rows

    lag = np.zeros((2 * noff + 1, 2 * M - 1))
    G = np.zeros((2 * noff + 1, 2 * M + 1))
    om2b = b * Om * Om
    for w, u1, k1, u2, k2 in terms:
        sym = u1 is u2
        rows1 = _half_rows(u1, k1)
        rows2 = rows1 if sym else _half_rows(u2, k2)
        for j1, (n1, p1, x) in enumerate(rows1):
            for j2 in range(j1 if sym else 0, len(rows2)):
                n2, p2, y = rows2[j2]
                coef = (2 * w if sym and j2 > j1 else w) * (a - om2b * n1 * n2)
                if coef == 0.0:
                    continue
                xc, n = coef * x, n1 + n2 + noff
                lo, width = M + 1 - 2 * y.size + p1 - p2, 2 * (x.size + y.size) - 3
                lag[n, lo:lo + width:2] += np.correlate(xc, y, "full")
                G[n, p1 + p2:p1 + p2 + width:2] -= np.correlate(xc, y[::-1], "full")
    G[:, :M] += lag[:, M - 1:]
    G[:, 1:M] += lag[:, :M - 1][:, ::-1]
    C = np.zeros((2 * noff + 1, 2 * M))
    for par in (0, 1):
        r = np.flatnonzero(G[:, par::2].any(axis=1))
        C[r, par::2] = G[r, par::2] @ cosine_projection(M, par)
    return C


CONSTRUCT_P = P.with_(Mmax=192)
# criterion 10's nine eps (K = 2, Mmax 64) and 20 eps of the construct
# pipeline (K = 3, Mmax 192)
CONTRACT_CASES = ([(P, 2, float(e)) for e in np.geomspace(4e-4, 4e-3, 9)]
                  + [(CONSTRUCT_P, 3, float(e)) for e in np.geomspace(4.1e-4, 3.9e-3, 20)])


def test_real_tables_contract_bitwise_as_every_pair(monkeypatch):
    import lindbeam.series as series

    for params, K, eps in CONTRACT_CASES:
        nu, info = solve_nu(params, eps, K)
        lt = info["counterterms"]
        runs = []
        for contract in (_contract_every_pair, series._contract):
            monkeypatch.setattr(series, "_contract", contract)
            t = compute_coeffs(params, eps, nu, lt, K, params.Mmax, q=info["q"])
            runs.append((t, residual_norm(t, params, eps, nu),
                         order_consistency(t, params, eps, nu, lt)))
            monkeypatch.undo()
        (old, r_old, oc_old), (new, r_new, oc_new) = runs
        assert all(np.array_equal(a, b) for a, b in zip(old.u, new.u)), eps
        assert old.provenance == new.provenance
        assert r_new == r_old and oc_new == oc_old, eps


def test_support_parity_reality():
    t = small_table(K=3, lt=None)
    t.check_invariants()
    # no mass beyond |n| = k+1, none on even m, none at odd n for odd k+1
    assert t.value(1, 3, 3) == 0.0
    assert t.value(1, 1, 3) == 0.0      # parity: order 1 lives on even n
    assert t.value(2, 2, 3) == 0.0      # order 2 lives on odd n
    assert t.value(2, 1, 4) == 0.0      # even m
    assert t.value(3, -2, 5) == t.value(3, 2, 5)


def _check_invariants_row_loop(table):
    """CoeffTable.check_invariants as a loop over rows, the first violation's
    message returned (None for a valid table)."""
    for k in range(table.K + 1):
        arr = table.u[k]
        for i in range(arr.shape[0]):
            n = i - (k + 1)
            if not np.array_equal(arr[i], arr[arr.shape[0] - 1 - i]):
                return f"u^({k}) not even in n at n={n}"
            if k >= 1 and abs(n) > k + 1 and np.any(arr[i] != 0.0):
                return f"support violation at order {k}, n={n}"
            if (n - (k + 1)) % 2 != 0 and np.any(arr[i] != 0.0):
                return f"parity violation at order {k}, n={n}"
        if np.any(arr[:, 1::2] != 0.0):
            return f"even-m content at order {k}"
    for k in range(1, table.K + 1):
        if table.value(k, 1, 1) != 0.0 or table.value(k, -1, 1) != 0.0:
            return f"primary-mode content at order {k}"
    return None


def _invariant_message(table):
    try:
        table.check_invariants()
    except AssertionError as err:
        return str(err)
    return None


def _set(t, k, n, m, v):
    t.u[k][n + k + 1, m - 1] = v


INVARIANT_CASES = {
    # one side of a mirrored pair: the n < 0 row is met first
    "not even": ([(2, 3, 5, 1.0)], "u^(2) not even in n at n=-3"),
    # evenness comes before parity on the same row
    "not even, wrong parity": ([(1, -1, 3, 1.0), (1, 1, 3, 2.0)],
                               "u^(1) not even in n at n=-1"),
    "-0.0 is zero": ([(1, 1, 3, -0.0), (1, -1, 3, 0.0)], None),
    "NaN": ([(3, 2, 7, math.nan), (3, -2, 7, math.nan)], "u^(3) not even in n at n=-2"),
    "parity": ([(1, 1, 5, 1e-9), (1, -1, 5, 1e-9)], "parity violation at order 1, n=-1"),
    "even m": ([(2, 3, 4, 1.0), (2, -3, 4, 1.0)], "even-m content at order 2"),
    # orders come first: even-m content at order 1 before a parity fault at 2
    "order 1 first": ([(2, 2, 3, 1.0), (2, -2, 3, 1.0), (1, 0, 2, 1.0)],
                      "even-m content at order 1"),
    "primary": ([(2, 1, 1, 1e-3), (2, -1, 1, 1e-3)], "primary-mode content at order 2"),
    "order 0": ([(0, 0, 1, 1.0)], "parity violation at order 0, n=0"),
}


@pytest.mark.parametrize("case", list(INVARIANT_CASES))
def test_check_invariants_messages(case):
    t = small_table(K=3, Mmax=16)
    assert _invariant_message(t) is None
    cells, want = INVARIANT_CASES[case]
    for k, n, m, v in cells:
        _set(t, k, n, m, v)
    assert _invariant_message(t) == _check_invariants_row_loop(t) == want


def test_check_invariants_support_beyond_k_plus_1():
    # rows beyond |n| = k+1 exist only in a table of the wrong shape; the
    # mirror of n = 4 in seven rows is n = -2, so evenness holds
    u1 = np.zeros((7, 3))
    u1[[0, 6], 0] = 1.0
    t = CoeffTable(K=1, Mmax=3, q=1.0, u=[np.array([[1.0, 0, 0], [0, 0, 0], [1.0, 0, 0]]), u1])
    assert _invariant_message(t) == _check_invariants_row_loop(t) \
        == "support violation at order 1, n=4"


def test_check_invariants_first_violation_as_row_loop():
    rng = np.random.default_rng(3)
    base = small_table(K=3, Mmax=16)
    for trial in range(300):
        t = CoeffTable(K=3, Mmax=16, q=base.q, u=[u.copy() for u in base.u])
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(0, 4))
            n, m = int(rng.integers(-(k + 1), k + 2)), int(rng.integers(1, 10))
            v = float(rng.choice([0.0, -0.0, 1.0, math.nan, float(rng.normal())]))
            _set(t, k, n, m, v)
            if rng.random() < 0.5:
                _set(t, k, -n, m, v)
        assert _invariant_message(t) == _check_invariants_row_loop(t), trial


def test_scale_slices_sum_to_propagator():
    for (n, m) in [(2, 1), (0, 3), (3, 5), (9, 3)]:
        g = propagator(n, m, P, EPS)
        total = sum(scaled_propagator(n, m, h, P, EPS) for h in range(-1, 30))
        assert total == pytest.approx(g, rel=1e-12)


def test_amplitude_cubic_matches_bruteforce():
    A = amplitude_cubic_coefficient(P, EPS)
    Aser = amplitude_series(P, EPS, None, None, 2)
    om1sq = 1 + P.mu
    beta = (om1sq - omega_eff(P, EPS) ** 2) / EPS
    assert A == pytest.approx(Aser[0] / beta, rel=1e-13)
    assert Aser[1] == 0.0               # even orders vanish by parity
    # frozen regression constant at the documented parameter point, cross-
    # checked by hand-summing the dominant m = 1, 3 terms of the closed form
    p_plus = ModelParams(a=1.0, b=0.0, mu=0.1, eps0=0.02, omega_branch=1, Mmax=200)
    A_ref = amplitude_cubic_coefficient(p_plus, 0.01)
    assert A_ref == pytest.approx(-1.0421289509484226, rel=1e-12)


def test_amplitude_cubic_tail_reported():
    # the m-sum of A beyond Mmax = 64: |v_{1,1,m}| <= 8/(pi m^3) and |g| <= 2/m^4
    # for large m, so its terms decay like m^-10 and the tail like Mmax^-9
    A = amplitude_cubic_coefficient(P, EPS)
    A2 = amplitude_cubic_coefficient(P.with_(Mmax=200), EPS)
    Om, a, b = omega_eff(P, EPS), P.a, P.b
    cmax = abs(2 * a * (a + b * Om * Om)) + abs((a - b * Om * Om) * (a + 2 * b * Om * Om))
    beta = (1.0 + P.mu - Om * Om) / EPS
    tail = 2.0 * (8.0 / math.pi) ** 2 * cmax * 2.0 / (9.0 * 64 ** 9) / abs(beta)
    assert abs(A2 - A) <= tail + 1e-15


def test_amplitude_sign_excluded_on_plus_branch():
    with pytest.raises(SignExcludedError):
        solve_amplitude(P.with_(omega_branch=1), EPS, None, None, 2)


@pytest.mark.filterwarnings("ignore:convolution mass beyond")
@pytest.mark.parametrize("K", [2, 4])
def test_sign_exclusion_reads_the_same_from_both_routes(K):
    # the K <= 3 sweep of solve_nu and solve_amplitude (K > 3) name the
    # coefficient, the branch and the branch to use, in one wording
    pp = P.with_(omega_branch=1, Mmax=5, Nmax=60)
    with pytest.raises(SignExcludedError) as err:
        solve_nu(pp, EPS, K)
    A = err.value.A
    assert A < 0.0 and err.value.branch == 1
    assert str(err.value) == (f"cubic coefficient A = {A:.3e} <= 0 on branch +1; "
                              "use omega_branch = -1")


def test_solve_amplitude_root_and_residual():
    q = solve_amplitude(P, EPS, None, None, 2)
    A = amplitude_cubic_coefficient(P, EPS)
    assert q == pytest.approx(1 / math.sqrt(A), rel=1e-12)
    # cubic symmetry: -q solves as well
    eta = math.sqrt(EPS)
    Aser = amplitude_series(P, EPS, None, None, 2)
    om1sq = 1 + P.mu
    beta = (om1sq - omega_eff(P, EPS) ** 2) / EPS
    for s in (+1, -1):
        resid = beta * (s * q) - sum(eta ** (j - 1) * Aser[j - 1] * (s * q) ** (j + 2)
                                     for j in (1, 2))
        assert abs(resid) < 1e-12


def test_amplitude_zero_nonlinearity():
    p0 = P.with_(a=0.0, b=0.0)
    assert solve_amplitude(p0, EPS, None, None, 2) == 0.0


def test_solve_nu_fixed_point():
    nu, info = solve_nu(P, EPS, 2)
    assert info["converged"]
    assert nu.sup_norm() <= 3.0 * EPS            # |nu| <= C eps empirically
    for (n, m), v in nu.items():
        assert m % 2 == 1
    # zero outside the near-resonant zone
    assert nu.get(5, 3) == 0.0
    # scaling: halving eps roughly halves the sup norm
    nu2, _ = solve_nu(P, EPS / 2, 2)
    ratio = nu.sup_norm() / nu2.sup_norm()
    assert 1.6 < ratio < 2.4
    # the closed-form solution is a fixed point of the tree-built sweep:
    # its amplitude and eta^2 l^(2) from the enumerated trees reproduce it
    small = P.with_(Mmax=9, Nmax=60)
    nu_f, info = solve_nu(small, EPS, 2)
    q = solve_amplitude(small, EPS, nu_f, CountertermTable(), 2)
    assert q == pytest.approx(info["q"], rel=1e-12)
    lt = counterterm_table(small, EPS, nu_f, q, (2,), lambda_modes(small))
    for (n, m), v in nu_f.items():
        assert math.sqrt(EPS) ** 2 * lt.aggregate(2, n, m) == pytest.approx(v, rel=1e-10,
                                                                              abs=1e-15)


def test_solve_nu_rejects_bad_eps():
    with pytest.raises(ValueError):
        solve_nu(P, 2 * P.eps0, 2)


@pytest.mark.parametrize("eps, sweep", [(0.1875, 13), (0.2625, 2)])
def test_solve_nu_stops_at_negative_radicand(eps, sweep):
    # on branch -1 at eps0 = 0.6 the sweeps drive m^4 + mu + n nu below zero
    # at (3, 1): the sweep that would take its root raises, without a warning
    pw = ModelParams(omega_branch=-1).with_(eps0=0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError,
                           match=rf"at sweep {sweep}: radicand -\S+ <= 0 at mode \(3, 1\)$"):
            solve_nu(pw, eps, 2)


def test_assemble_solution_forms():
    nu, info = solve_nu(P, EPS, 2)
    t = compute_coeffs(P, EPS, nu, info["counterterms"], 2, 64, q=info["q"])
    x = np.linspace(0, math.pi, 31)
    Om = omega_eff(P, EPS)
    tt = np.linspace(0, 2 * math.pi / Om, 13)
    v = assemble_solution(t, EPS, x, tt, P)
    assert v.shape == (31, 13)
    assert np.abs(v[0]).max() < 1e-15 and np.abs(v[-1]).max() < 1e-14
    assert np.abs(v[:, 0] - v[:, -1]).max() < 1e-13     # periodicity
    # order-0 truncation is the pure primary harmonic
    t0 = compute_coeffs(P, EPS, None, None, 0, 64, q=info["q"])
    v0 = assemble_solution(t0, EPS, x, tt, P)
    want = 2 * math.sqrt(EPS) * info["q"] * np.outer(np.sin(x), np.cos(Om * tt))
    assert np.abs(v0 - want).max() < 1e-14


def test_complex_assembly_agrees_with_cosine_form():
    nu, info = solve_nu(P, EPS, 2)
    t = compute_coeffs(P, EPS, nu, info["counterterms"], 2, 64, q=info["q"])
    eta = math.sqrt(EPS)
    U = t.summed(eta)
    Om = omega_eff(P, EPS)
    x, tt = 1.1, 0.7
    acc = 0j
    for n in range(-(t.K + 1), t.K + 2):
        for m in range(1, 65):
            acc += U[n + t.K + 1, m - 1] * np.exp(1j * n * Om * tt) * math.sin(m * x)
    v = assemble_solution(t, EPS, [x], [tt], P)[0, 0]
    assert abs(acc.imag) < 1e-13
    assert math.sqrt(EPS) * acc.real == pytest.approx(v, abs=1e-14)


def test_residual_scaling_and_order_consistency():
    slopes = []
    for eps in np.geomspace(2e-4, 2e-3, 5):
        nu, info = solve_nu(P, float(eps), 2)
        t = compute_coeffs(P, float(eps), nu, info["counterterms"], 2, 64,
                           q=info["q"])
        R = residual_norm(t, P, float(eps), nu)
        assert order_consistency(t, P, float(eps), nu, info["counterterms"]) < 1e-12
        slopes.append((math.log(eps), math.log(R)))
    fit = np.polyfit([a for a, _ in slopes], [b for _, b in slopes], 1)[0]
    assert fit >= 1.7


def test_residual_zero_for_zero_nonlinearity():
    p0 = P.with_(a=0.0, b=0.0)
    t = compute_coeffs(p0, EPS, None, None, 2, 64, q=0.0)
    assert residual_norm(t, p0, EPS, None) == 0.0


def test_residual_provenance_guard():
    nu, info = solve_nu(P, EPS, 2)
    t = compute_coeffs(P, EPS, nu, info["counterterms"], 2, 64, q=info["q"])
    other = NuTable()
    other.set(9, 3, 1e-4)
    with pytest.raises(InconsistentInputsError):
        residual_norm(t, P, EPS, other)


def test_cutoff_overflow_warning():
    with pytest.warns(RuntimeWarning, match="convolution mass"):
        compute_coeffs(P.with_(Mmax=9), EPS, None, None, 2, 9, q=0.7)


def test_decay_check():
    nu, info = solve_nu(P, EPS, 2)
    t = compute_coeffs(P, EPS, nu, info["counterterms"], 2, 64, q=info["q"])
    rep = decay_check(t)
    assert rep.n_support_ok and not rep.violations
    assert all(p >= 3.0 for p in rep.m_powers.values())
    assert rep.m_powers[1] == pytest.approx(7.0, abs=0.4)   # ~ m^-7 profile
    # degenerate linear table passes trivially
    t0 = compute_coeffs(P, EPS, None, None, 0, 64, q=0.5)
    assert decay_check(t0).ok


def test_serialization_roundtrip(tmp_path):
    nu, info = solve_nu(P, EPS, 2)
    lt = info["counterterms"]
    t = compute_coeffs(P, EPS, nu, lt, 2, 64, q=info["q"])
    f = tmp_path / "c.csv"
    save_coeffs_csv(t, f)
    t2 = _load_coeffs_csv(f, 2, 64, eps=EPS)
    assert t2.q == t.q
    for k in range(3):
        assert np.array_equal(t.u[k], t2.u[k])
    save_counterterms_csv(lt, tmp_path / "l.csv")
    save_nu_csv(nu, tmp_path / "nu.csv")
    doc = summary_json(t, P, EPS, A=1.0)
    assert '"schema_version": 1' in doc
    # a row outside the table's shape is rejected, never wrapped into it
    lines = f.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:3] + ["1,-5,3,0.25"] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match="bad.csv:4"):
        _load_coeffs_csv(bad, 2, 64, eps=EPS)


def test_lambda_modes_structure():
    modes = lambda_modes(P)
    assert (1, 1) not in modes
    assert all(m % 2 == 1 for _, m in modes)
    assert all(n >= 1 for n, _ in modes)
    assert (9, 3) in modes


# ---------------------------------------------------------------------------
# array routes against the per-mode loops they replaced

WIDE = P.with_(eps0=0.3, nu_cap=0.45, Mmax=24, Nmax=120)


def _coeffs_scalar_loop(params, eps, nu, lt, K, Mmax, q):
    """u^(k) filled mode by mode with one scalar propagator call each."""
    Om = omega_eff(params, eps)
    u0 = np.zeros((3, Mmax))
    u0[0, 0] = u0[2, 0] = q
    us = [u0]
    for k in range(1, K + 1):
        F = _forcing(us, k - 1, params, Om, Mmax)
        uk = np.zeros((2 * (k + 1) + 1, Mmax))
        for n in range(0, k + 2):
            if (n - (k + 1)) % 2 != 0:
                continue
            for m in range(1, Mmax + 1, 2):
                if (n, m) == (1, 1):
                    continue
                rhs = F[n + k + 1, m - 1]
                lsum = 0.0
                for r in range(2, k):
                    if n <= (k - r) + 1 and lt.aggregate(r, n, m) != 0.0:
                        lsum += lt.aggregate(r, n, m) * us[k - r][n + (k - r) + 1, m - 1]
                rhs += n * lsum
                if rhs != 0.0:
                    uk[n + k + 1, m - 1] = propagator(n, m, params, eps, nu) * rhs
            uk[-n + k + 1, :] = uk[n + k + 1, :]
        us.append(uk)
    return us


def test_compute_coeffs_matches_scalar_propagator_loop():
    eps = 0.05
    nu, info = solve_nu(WIDE, eps, 2)
    assert nu.get(2, 1) != 0.0 and nu.get(6, 3) != 0.0   # shifts on rows n <= K+1
    lt = info["counterterms"]
    rng = np.random.default_rng(11)
    for r in (3, 4):
        for n in range(1, 5):
            for m in (1, 3, 5, 7):
                if (n, m) != (1, 1):
                    lt.set(r, n, m, -1, float(rng.normal(0.0, 1e-2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        table = compute_coeffs(WIDE, eps, nu, lt, 5, 24, q=info["q"])
        want = _coeffs_scalar_loop(WIDE, eps, nu, lt, 5, 24, info["q"])
    assert all(np.array_equal(u, w) for u, w in zip(table.u, want))


def _load_coeffs_csv(path, K: int, Mmax: int, eps: float) -> CoeffTable:
    """Read a table written by save_coeffs_csv; malformed rows raise ValueError."""
    us = [np.zeros((2 * (k + 1) + 1, Mmax)) for k in range(K + 1)]
    q = 0.0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["k", "n", "m", "value"]]:
        raise ValueError(f"{path}: header is not k,n,m,value")
    for line, row in enumerate(rows[1:], start=2):
        try:
            (k, n, m), v = map(int, row[:3]), float(row[3])
        except (IndexError, ValueError):
            k = -1   # rejected below
        if len(row) != 4 or not (0 <= k <= K and abs(n) <= k + 1 and 1 <= m <= Mmax):
            raise ValueError(f"{path}:{line}: malformed row {row!r} (need "
                             f"0 <= k <= {K}, |n| <= k+1, 1 <= m <= {Mmax})")
        if k == 0:
            q = v
        us[k][n + k + 1, m - 1] = v
    return CoeffTable(K=K, Mmax=Mmax, q=q, u=us, eps=eps)


def _save_coeffs_cell_loop(table, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "n", "m", "value"])
        w.writerow([0, 1, 1, repr(table.q)])
        w.writerow([0, -1, 1, repr(table.q)])
        for k in range(1, table.K + 1):
            arr = table.u[k]
            for i in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    if arr[i, j] != 0.0:
                        w.writerow([k, i - (k + 1), j + 1, repr(float(arr[i, j]))])


def _odd_values_table():
    """A hand-made table: a value repeated in cells of different orders, NaN,
    +-inf, a subnormal and -0.0 (not written, so it reads back as 0.0)."""
    us = [np.zeros((2 * (k + 1) + 1, 5)) for k in range(3)]
    us[0][[0, 2], 0] = 0.3
    us[1][0, [0, 2, 4]] = [0.1, math.nan, -math.inf]
    us[1][3, 1] = 5e-324
    us[1][4, 2] = -0.0
    us[2][[0, 6], 4] = 0.1
    us[2][2, 0] = math.inf
    us[2][5, 3] = -5e-324
    us[2][1, 1] = 0.1 + 0.2
    return CoeffTable(K=2, Mmax=5, q=0.3, u=us)


def test_save_coeffs_csv_matches_cell_loop(tmp_path):
    tables = [_odd_values_table()]
    for M in (64, 192):
        nu, info = solve_nu(P.with_(Mmax=M), EPS, 3)
        tables.append(compute_coeffs(P.with_(Mmax=M), EPS, nu, info["counterterms"], 3, M,
                                     q=info["q"]))
    for t in tables:
        save_coeffs_csv(t, tmp_path / "new.csv")
        _save_coeffs_cell_loop(t, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        back = _load_coeffs_csv(tmp_path / "new.csv", t.K, t.Mmax, eps=EPS)
        assert np.float64(back.q).tobytes() == np.float64(t.q).tobytes()
        for a, b in zip(back.u, t.u):
            assert a.tobytes() == np.where(b == 0.0, 0.0, b).tobytes()   # -0.0 reads as 0.0


def test_solve_nu_matches_table_sweeps():
    # the closed-form route swept on NuTable/CountertermTable, one mode at a time
    pp, eps = P.with_(Mmax=24, Nmax=120), 7e-3
    ms = mode_set(pp.mu, pp.eps0, 24, 120)
    eta = math.sqrt(eps)
    nu = NuTable()
    for sweep in range(1, 41):
        q = math.sqrt(1.0 / amplitude_cubic_coefficient(pp, eps, nu))
        l2 = counterterm_order2_closed(pp, eps, ms.shift(nu), q, ms)
        lt, new, delta = CountertermTable(), NuTable(), 0.0
        for (n, m), val in zip(ms.modes(), l2.tolist()):
            if val != 0.0:
                lt.set(2, n, m, -1, val)
            v = eta ** 2 * lt.aggregate(2, n, m)
            if v != 0.0:
                new.set(n, m, v)
            delta = max(delta, abs(v - nu.get(n, m)))
        nu = new
        if delta < 1e-10:
            break
    got, info = solve_nu(pp, eps, 2)
    assert info["sweeps"] == sweep and info["q"] == q
    assert got == nu and info["counterterms"] == lt


@pytest.mark.parametrize("params", [
    ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.02, omega_branch=1, Mmax=9, Nmax=60),
    P, P.with_(eps0=0.35, nu_cap=0.45, Nmax=500), CONSTRUCT_P])
def test_shared_cubic_rows_equal_the_per_call_rebuild_bitwise(params):
    # v_{1,1,m} = v_{m,1,1}, omega_m^2 of the float labels and g_{0,m} =
    # 1/omega_m^2 from the ModeSet's order-2 rows, against each call's own
    ms = mode_set(params.mu, params.eps0, params.Mmax, params.Nmax)
    rows = series._closed_rows(ms)
    assert series._closed_rows(ms) is rows
    assert not any(a.flags.writeable for a in (*rows[:4], rows[5], *rows[4][0], *rows[4][1]))
    for eps in np.geomspace(params.eps0 / 40, params.eps0 / 2, 5).tolist():
        got, want = series._cubic_rows(params, eps, ms), oracles.cubic_rows(params, eps)
        assert [np.asarray(g).dtype for g in got] == [np.asarray(w).dtype for w in want]
        assert [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]


CANTOR_P = P.with_(eps0=0.35, nu_cap=0.45, Nmax=500)
# criterion 11's decade; every 125th grid eps of criterion 9's three
# 1000-point windows, with the two it rejects at w = 0.08
LAZY_CASES = ([(P, float(e)) for e in np.geomspace(4e-4, 4e-3, 9)]
              + [(CANTOR_P, (i + 0.5) / 1000 * w) for w in (0.08, 0.02, 0.005)
                 for i in range(0, 1000, 125)]
              + [(CANTOR_P, (i + 0.5) / 1000 * 0.08) for i in (609, 610)])


def _bits(items):
    return [(key, np.float64(v).tobytes()) for key, v in items]


@pytest.mark.parametrize("params, eps", LAZY_CASES)
def test_solve_nu_tables_are_lazy_and_bitwise_eager(params, eps):
    nu, info = solve_nu(params, eps, 2)
    lt = info["counterterms"]
    # nothing is built until a table is read
    assert "_d" not in vars(nu) and "_d" not in vars(lt)
    ms, vals = nu._src
    modes, l2 = lt._src
    eager_nu = NuTable()
    for n, m, v in zip(ms.n.tolist(), ms.m.tolist(), vals.tolist()):
        if v != 0.0:
            eager_nu.set(n, m, v)
    eager_lt = CountertermTable()
    for (n, m), v in zip(modes, l2.tolist()):
        if v != 0.0:
            eager_lt.set(2, n, m, -1, v)
    assert len(nu) == len(eager_nu) > 0 and nu == eager_nu
    assert _bits(nu.items()) == _bits(eager_nu.items())
    assert len(lt) == len(eager_lt) > 0 and lt == eager_lt and lt.orders() == [2]
    assert _bits(lt.items()) == _bits(eager_lt.items())
    for (n, m), _ in list(eager_nu.items())[::50]:
        assert nu.get(-n, m) == eager_nu.get(-n, m) and nu.n_nu(n, m) == eager_nu.n_nu(n, m)
        assert lt.get(2, -n, m, -1) == eager_lt.get(2, -n, m, -1)
    # set on a lazily built table updates its entries and its flat shift
    (n, m), _ = next(iter(eager_nu.items()))
    assert ms.shift(nu)[ms.index(n, m)] != 0.0
    nu.set(n, m, 0.0)
    assert nu.get(n, m) == 0.0 and len(nu) == len(eager_nu)
    assert ms.shift(nu)[ms.index(n, m)] == 0.0


def test_lazy_nu_table_keeps_its_values():
    ms = mode_set(P.mu, P.eps0, P.Mmax, P.Nmax)
    vals = np.linspace(1e-5, 1e-4, len(ms))
    vals[::3] = 0.0
    vals[1] = -0.0
    want = {nm: v for nm, v in zip(ms.modes(), vals.tolist()) if v != 0.0}
    nu = ms.nu_table(vals)
    vals[:] = 1.0                   # the caller's array is not the table's
    assert dict(nu.items()) == want and list(nu.items()) == list(want.items())


def test_measure_cantor_reports_unchanged_by_lazy_tables():
    from lindbeam.diophantine import DiophReport, measure_cantor

    # recorded with the tables built eagerly in solve_nu; the first scan
    # rejects eps = 0.0488125 inside the square (4, 2) interval
    want = [
        DiophReport("cantor", 500, 64, 8, 0.125, 0.00012446133652861707, 9.6491080700579e-13,
                    {"intervals": 475, "nonconverged": 0,
                     "relative_excluded": 0.0017529765844158855,
                     "rejected": [(0.048812499999999995, "square", (4, 2),
                                   0.0037394737647673537, 0.0625)]}),
        DiophReport("cantor", 500, 64, 8, 0.0, 1.647753037199124e-08, 6.323930456135013e-13,
                    {"intervals": 132, "nonconverged": 0,
                     "relative_excluded": 8.239081382518427e-07, "rejected": []}),
    ]
    assert [measure_cantor(CANTOR_P, w, 8, K=2) for w in (0.071, 0.02)] == want
