import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lindbeam import diophantine, series, spectrum
from lindbeam.diophantine import (
    MU_MAX,
    cantor_failure,
    cantor_margins,
    check_cantor,
    check_mass,
    check_melnikov,
    find_diophantine_mu,
    mass_exclusion_intervals,
    mass_margins,
    measure_cantor,
    measure_mass_complement,
    melnikov_margins,
    square_margins,
)
from lindbeam.series import solve_nu
from lindbeam.spectrum import (
    DegenerateRadicandError,
    ModelParams,
    NuTable,
    mode_set,
    omega,
    omega_eff,
)
from oracles import (
    _cleared,
    _melnikov_oracle,
    mass_exclusion_intervals_oracle,
    mass_margins_oracle,
)

G = 2.0 ** -6
P = ModelParams(a=1.0, b=0.5, mu=0.1, eps0=0.02, omega_branch=-1, Mmax=64, Nmax=300)


def test_mass_mu_zero_fails():
    # exact resonance n = m^2 at mu = 0
    assert not check_mass(0.0, G, 4.0, 200)
    s, d, su = mass_margins(np.array([0.0]), 4.0, 200)
    assert s[0] == pytest.approx(0.0, abs=1e-12)
    # and the three-frequency family degenerates independently:
    # n = m1^2 - m2^2 annihilates omega_1 n - omega_m1 + omega_m2
    assert d[0] == pytest.approx(0.0, abs=1e-12)


def test_found_mass_is_diophantine():
    mu = find_diophantine_mu(G, 4.0, 500)
    assert check_mass(mu, G, 4.0, 500)
    assert not check_mass(0.0, G, 4.0, 500)


def test_mass_nesting_in_gamma():
    mu = find_diophantine_mu(G, 4.0, 300)
    assert check_mass(mu, 2 * G, 4.0, 300) or True  # 2G may fail...
    # ... but the implication runs the other way: passing at 2 gamma implies
    # passing at gamma, on a scan of masses
    for m in np.linspace(0.01, 0.12, 40):
        if check_mass(float(m), 2 * G, 4.0, 120):
            assert check_mass(float(m), G, 4.0, 120)


def test_measure_mass_bound_and_linearity():
    reps = {}
    for gam in (2.0 ** -6, 2.0 ** -7, 2.0 ** -8):
        rep = measure_mass_complement(gam, 4.0, 1000, 120)
        assert rep.excluded_with_tail <= 6 * gam
        reps[gam] = rep.excluded_measure
    ratios = [reps[g] / g for g in reps]
    assert max(ratios) / min(ratios) < 1.3
    # monotone in gamma (nested exclusion sets)
    assert reps[2.0 ** -6] >= reps[2.0 ** -7] >= reps[2.0 ** -8]


def test_mass_scans_share_one_read_only_margin_grid():
    # the worst margins do not depend on gamma: three scans compute them once
    diophantine._mass_grid.cache_clear()
    reps = [measure_mass_complement(g, 4.0, 1000, 120) for g in (G, G / 2, G / 4)]
    assert diophantine._mass_grid.cache_info().misses == 1
    mu, worst = diophantine._mass_grid(4.0, 1000, 120)
    assert not mu.flags.writeable and not worst.flags.writeable
    want = np.minimum.reduce(mass_margins((np.arange(1000) + 0.5) / 1000 * MU_MAX, 4.0, 120))
    assert worst.tobytes() == want.tobytes()
    for g, rep in zip((G, G / 2, G / 4), reps):
        assert rep.fail_fraction == float((want < g).mean())
        assert rep.worst["min_margin"] == float(want.min())


def test_mass_exclusion_localization():
    ivs = mass_exclusion_intervals(G, 4.0, 300)
    assert ivs
    for center, width, tag in ivs:
        assert 0 <= center <= MU_MAX and width > 0
        if tag[0] == "single":
            _, n, m = tag
            assert m <= 1.2 * math.sqrt(n) + 1      # near-failures force m ~ sqrt(n)
        elif tag[0] == "diff":
            _, n, m1, m2 = tag
            assert m1 + m2 <= 1.3 * n + 3           # and m1 + m2 ~ n
        else:
            _, n, m1, m2 = tag
            assert m1 ** 2 + m2 ** 2 <= 1.2 * n + 3


def test_mass_margins_equal_the_closure_route():
    mu = (np.arange(2000) + 0.5) / 2000 * MU_MAX
    for got, want in zip(mass_margins(mu, 4.0, 500), mass_margins_oracle(mu, 4.0, 500),
                         strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("Nmax", [120, 300, 500])
def test_mass_intervals_equal_the_closure_route(Nmax):
    for gamma in (2.0 ** -6, 2.0 ** -8):
        got = mass_exclusion_intervals(gamma, 4.0, Nmax)
        want = mass_exclusion_intervals_oracle(gamma, 4.0, Nmax)
        assert [r[2] for r in got] == [r[2] for r in want]
        for col in (0, 1):
            assert np.array([r[col] for r in got]).tobytes() == \
                np.array([r[col] for r in want]).tobytes()


def test_melnikov_pass_and_constructed_failure():
    nu, _ = solve_nu(P, 5e-3, 2)
    assert check_melnikov(5e-3, nu, P)
    marg = melnikov_margins(5e-3, nu, P)
    assert marg["first"] >= P.gamma and marg["second"] >= P.gamma
    # place Omega n = omega_tilde exactly: eps* = (om1 n - om_m)/n on this branch
    om1 = math.sqrt(1 + P.mu)
    n, m = 24, 5
    eps_bad = (om1 * n - float(omega(m, P.mu))) / n
    pp = P.with_(eps0=0.05)
    assert 0 < eps_bad < pp.eps0
    assert not check_melnikov(eps_bad, None, pp)
    bad = melnikov_margins(eps_bad, None, pp)
    assert bad["first_at"] == (n, m)


def test_melnikov_margin_shift_with_nu():
    # the shift table enters the divisors: park eps on the (9,3) resonance so
    # that mode attains the minimum, then move it with a fake shift
    om1 = math.sqrt(1 + P.mu)
    eps_star = (om1 * 9 - float(omega(3, P.mu))) / 9
    pp = P.with_(eps0=0.08)
    a = melnikov_margins(eps_star, None, pp)
    assert a["first_at"] == (9, 3) and a["first"] < 1e-8
    nu = NuTable()
    nu.set(9, 3, 0.012)
    b = melnikov_margins(eps_star, nu, pp)
    assert b["first"] > 1e3 * max(a["first"], 1e-12)


def test_second_condition_scans_near_resonant_pairs_only():
    marg = melnikov_margins(5e-3, None, P)
    n1, m1, n2, m2 = marg["second_at"]
    om1 = math.sqrt(1 + P.mu)
    for n, m in ((n1, m1), (n2, m2)):
        assert abs(om1 * abs(n) - m * m) <= 1.0 + P.eps0 * abs(n) + 2.2


def test_square_margin_and_cantor():
    # an eps aligned with Omega n = m^2 fails the square condition
    om1 = math.sqrt(1 + P.mu)
    eps_bad = (om1 * 4 - 4.0) / 4.0          # n=4, m=2 on the minus branch
    pp = P.with_(eps0=0.08)
    sq, at = square_margins(eps_bad, pp)
    assert sq < 4 * pp.gamma and at == (4, 2)
    assert not check_cantor(eps_bad, None, pp)
    # a generic small eps is accepted, and its margins are strictly positive
    nu, _ = solve_nu(P, 4e-3, 2)
    assert check_cantor(4e-3, nu, P)
    m = cantor_margins(4e-3, nu, P)
    assert m["square"] > 4 * P.gamma
    assert m["first"] > 2 * P.gamma and m["second"] > 2 * P.gamma


def test_cantor_accepts_nu_zero_reduction():
    # with nu == 0 the shifted families reduce to plain frequency conditions
    a = cantor_margins(4e-3, None, P)
    nu0 = NuTable()
    b = cantor_margins(4e-3, nu0, P)
    assert a == b


def test_measure_cantor_trend_smoke():
    pw = P.with_(eps0=0.35, nu_cap=0.45, Nmax=300)
    rels = []
    for w in (0.08, 0.02, 0.005):
        rep = measure_cantor(pw, w, 60, K=2)
        rels.append(rep.excluded_with_tail / w)
        assert rep.worst["nonconverged"] == 0
    assert rels[0] > rels[1] > rels[2]
    # gamma-monotonicity: larger gamma excludes more
    rep_hi = measure_cantor(pw, 0.08, 60, K=2)
    rep_lo = measure_cantor(pw.with_(gamma=P.gamma / 2), 0.08, 60, K=2)
    assert rep_lo.excluded_measure <= rep_hi.excluded_measure


def test_measure_cantor_counts_negative_radicand_as_nonconverged():
    # grid eps 0.1875 and 0.2625 leave the spectrum during the nu sweeps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = measure_cantor(ModelParams(omega_branch=-1), 0.3, 4)
    assert rep.worst["nonconverged"] == 2 and rep.fail_fraction >= 0.5


def test_measure_cantor_rejects_window_beyond_eps0_before_solving(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solve_nu called")

    monkeypatch.setattr(series, "solve_nu", no_solve)
    with pytest.raises(ValueError, match=r"^window=1\.5 above eps0=0\.9"):
        measure_cantor(P, 1.5, 1000)
    with pytest.raises(ValueError, match=r"^window=0\.95 above eps0=0\.9"):
        measure_cantor(P.with_(eps0=0.92), 0.95, 10)


def test_measure_cantor_rejects_a_grid_below_one_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_nu called")

    monkeypatch.setattr(series, "solve_nu", no_solve)
    for grid in (0, -3):
        with pytest.raises(ValueError, match=rf"^grid={grid} below 1"):
            measure_cantor(P, 0.01, grid)


def test_cantor_acceptance_implies_melnikov():
    # the accepted-amplitude set is contained in the gamma-admissible set
    for eps in (2e-3, 5e-3, 9e-3):
        nu, _ = solve_nu(P, eps, 2)
        if check_cantor(eps, nu, P):
            assert check_melnikov(eps, nu, P)


# ---------------------------------------------------------------------------
# the array route of the shifted-frequency margins against the scalar scan


BELOW = (math.inf, G, 2 * G, 0.3, 5.0)


def _sampled_nu(params, seed, scale):
    """A random table on the near-resonant modes of the params' own cutoffs."""
    rng = np.random.default_rng(seed)
    ms = mode_set(params.mu, params.eps0, params.Mmax, params.Nmax)
    vals = rng.uniform(-scale, scale, len(ms)) * (rng.random(len(ms)) < 0.5)
    return ms.nu_table(vals)


@pytest.mark.parametrize("case", ["none", "solved", "sampled", "smaller cutoffs"])
def test_melnikov_margins_match_scalar_oracle(case):
    pp = P.with_(Mmax=24, Nmax=120)
    eps = 7.3e-3
    nu, pm = None, pp
    if case == "solved":
        nu, _ = solve_nu(pp, eps, 2)
    elif case == "sampled":
        nu = _sampled_nu(pp, 5, 0.2 * pp.eps0)
    elif case == "smaller cutoffs":
        # the table reaches beyond the cutoffs (Nmax, Mmax) = (50, 12) of
        # pm: the windows cut it off
        nu, pm = _sampled_nu(pp, 6, 0.2 * pp.eps0), pp.with_(Nmax=50, Mmax=12)
    want = _melnikov_oracle(eps, nu, pm, pm.Nmax, pm.Mmax)
    for below in BELOW:
        got = melnikov_margins(eps, nu, pm, below=below)
        assert got == _cleared(want, below)


def test_melnikov_margins_match_scalar_oracle_wide_window():
    pw = P.with_(eps0=0.35, nu_cap=0.45, Nmax=200, Mmax=20)
    for seed, eps in ((1, 0.013), (2, 0.061)):
        nu = _sampled_nu(pw, seed, 0.3 * pw.eps0)
        want = _melnikov_oracle(eps, nu, pw, 200, 20)
        for below in BELOW:
            assert melnikov_margins(eps, nu, pw, below=below) == _cleared(want, below)


def _first_family_every_pow(eps, nu, params, below):
    """melnikov_margins' first family with |n|^tau raised on every candidate
    n, the ones outside 1 <= n <= Nmax included, and those masked after."""
    Om = omega_eff(params, eps)
    ms = mode_set(params.mu, params.eps0, params.Mmax, params.Nmax)
    shift = ms.shift(nu)
    m = np.arange(2, params.Mmax + 1)[:, None]
    n = np.rint(omega(m, params.mu) / Om).astype(int) + np.arange(-2, 3)
    omt = np.sqrt(m.astype(float) ** 4 + params.mu + shift[ms.index(n, m)])
    n_tau = np.array([abs(float(x)) ** params.tau for x in n.flat]).reshape(n.shape)
    marg = np.abs(Om * n - omt) * n_tau
    marg[(n < 1) | (n > params.Nmax)] = math.inf
    j = int(np.argmin(marg))
    if not marg.flat[j] < below:
        return math.inf, None
    return float(marg.flat[j]), (int(n.flat[j]), j // 5 + 2)


CANTOR_P = P.with_(eps0=0.35, nu_cap=0.45, Nmax=500)
TREE_P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.02, omega_branch=1, Mmax=9, Nmax=60)
# the construct and cantor_scan benchmark models, each over its eps range;
# the last eps puts Omega * 4 within 4e-12 of omega_2: the first family fails
FIRST_FAMILY_CASES = ([(P.with_(Mmax=192), 3, float(e)) for e in np.geomspace(4e-4, 4e-3, 6)]
                      + [(CANTOR_P, 2, float(e)) for e in np.geomspace(0.05 / 16, 0.1, 10)]
                      + [(CANTOR_P, 2, float(omega(1, P.mu) - omega(2, P.mu) / 4) + 1e-12)])


@pytest.mark.parametrize("params, K, eps", FIRST_FAMILY_CASES)
def test_first_family_pow_on_counted_n_only(params, K, eps):
    nu, _ = solve_nu(params, eps, K)
    for table in (None, nu):
        for below in (math.inf, params.gamma, 2 * params.gamma):
            got = melnikov_margins(eps, table, params, below=below)
            want = _first_family_every_pow(eps, table, params, below)
            assert (got["first"], got["first_at"]) == want


def _shift_resonance():
    """(params, eps, nu) with a pair resonance that the shift on (24, 5) makes.

    (a1, a2) = (+1, -1) at (n1, m1) = (8, 3) and (n2, m2) = (24, 5): Omega
    and the shift make Omega 16 + om_3 - omega~_5 vanish while omega~_5 sits
    0.75 Omega below om_5.  Without the shift the nearest integer is 17, so
    the row lies in the dd = -1 pass, and only a bound that subtracts D(5)
    keeps it."""
    pp = P.with_(eps0=0.35, nu_cap=0.45, Mmax=24, Nmax=120)
    om3, om5 = (float(omega(m, pp.mu)) for m in (3, 5))
    eps = math.sqrt(1 + pp.mu) - (om5 - om3) / 16.75
    w2 = omega_eff(pp, eps) * 16 + om3
    nu = NuTable()
    nu.set(24, 5, (w2 ** 2 - (5.0 ** 4 + pp.mu)) / 24)
    return pp, eps, nu


def test_pruned_pair_scan_keeps_a_resonance_made_by_the_shift():
    pp, eps, nu = _shift_resonance()
    full = melnikov_margins(eps, nu, pp)
    assert full == _melnikov_oracle(eps, nu, pp, 120, 24)
    assert full["second"] < pp.gamma and full["second_at"] == (8, 3, 24, 5)
    assert melnikov_margins(eps, None, pp)["second"] > 1.0
    for below in BELOW:
        assert melnikov_margins(eps, nu, pp, below=below) == _cleared(full, below)
    assert not check_melnikov(eps, nu, pp)
    marg = {}
    assert not check_cantor(eps, nu, pp, margins=marg)
    assert cantor_failure(marg, pp.gamma)[:2] == ("second", (8, 3, 24, 5))


def _shift_resonance_on_m1():
    """(params, eps, nu) with a pair resonance that the shift on (8, 3) makes.

    The eps of _shift_resonance, so that om_5 - om_3 = 16.75 Omega: the
    block (m1, m2, a2) = (3, 5, -1) is bounded by 0.25 Omega without the
    shift.  nu(8, 3) moves omega~_3 0.75 Omega above om_3, to om_5 - 16
    Omega, so Omega 16 + omega~_3 - om_5 vanishes at (8, 3), (24, 5) and
    only a block bound that subtracts D(3) keeps the block."""
    pp = P.with_(eps0=0.35, nu_cap=0.45, Mmax=24, Nmax=120)
    om3, om5 = (float(omega(m, pp.mu)) for m in (3, 5))
    eps = math.sqrt(1 + pp.mu) - (om5 - om3) / 16.75
    w1 = om5 - omega_eff(pp, eps) * 16
    nu = NuTable()
    nu.set(8, 3, (w1 ** 2 - (3.0 ** 4 + pp.mu)) / 8)
    return pp, eps, nu


def test_pruned_pair_scan_keeps_a_resonance_made_by_the_shift_on_m1():
    pp, eps, nu = _shift_resonance_on_m1()
    full = melnikov_margins(eps, nu, pp)
    assert full == _melnikov_oracle(eps, nu, pp, 120, 24)
    assert full["second"] < pp.gamma and full["second_at"] == (8, 3, 24, 5)
    assert melnikov_margins(eps, None, pp)["second"] > 1.0
    for below in BELOW:
        assert melnikov_margins(eps, nu, pp, below=below) == _cleared(full, below)


# the eps of the cantor_scan benchmark model across its windows, solved at K = 2
CANTOR_EPS = [float(e) for e in np.geomspace(0.05 / 16, 0.1, 24)]


@pytest.fixture(scope="module")
def cantor_solved():
    out = []
    for eps in CANTOR_EPS:
        try:
            out.append((eps, solve_nu(CANTOR_P, eps, 2)[0]))
        except series.NonConvergenceError:
            pass
    assert len(out) >= 20
    return out


def test_pruned_pair_scan_matches_full_scan_on_the_benchmark_model(cantor_solved):
    for eps, nu in cantor_solved:
        for table in (nu, None):
            full = melnikov_margins(eps, table, CANTOR_P)
            for below in BELOW:
                got = melnikov_margins(eps, table, CANTOR_P, below=below)
                assert got == _cleared(full, below), (eps, below)


# how far measure_cantor's continued nu may lie from the zero start's
NU_CONTINUATION_TOL = series.NU_TOL / 10
# the most shift sweeps a continued scan of 60 eps may take, 1.5 per eps
CONTINUED_SCAN_SWEEPS = 90


def _scan(monkeypatch, params, window, grid, cold):
    """measure_cantor's report, nu on the modes per grid eps and the sweeps
    taken; cold drops every start, so each eps is solved from nu = 0."""
    solve, nus, sweeps = series.solve_nu, {}, []

    def traced(params, eps, K, start=None):
        nu, info = solve(params, eps, K) if cold else solve(params, eps, K, start=start)
        nus[eps] = info["values"]
        sweeps.append(info["sweeps"])
        return nu, info

    monkeypatch.setattr(series, "solve_nu", traced)
    rep = measure_cantor(params, window, grid)
    monkeypatch.setattr(series, "solve_nu", solve)
    return rep, nus, sum(sweeps)


@pytest.mark.parametrize("window", [0.08, 0.02, 0.005])
def test_continued_scan_equals_the_zero_start_scan(monkeypatch, window):
    rep, nus, sweeps = _scan(monkeypatch, CANTOR_P, window, 60, cold=False)
    want, cold_nus, cold_sweeps = _scan(monkeypatch, CANTOR_P, window, 60, cold=True)
    assert rep.fail_fraction == want.fail_fraction
    assert rep.worst["nonconverged"] == want.worst["nonconverged"]
    got, exp = rep.worst["rejected"], want.worst["rejected"]
    assert [r[:3] for r in got] == [r[:3] for r in exp]
    for r, w in zip(got, exp):
        assert r[3] == pytest.approx(w[3], rel=1e-9, abs=0.0) and r[4] == w[4]
    assert nus.keys() == cold_nus.keys() and len(nus) == 60 - want.worst["nonconverged"]
    for eps, vals in nus.items():
        assert np.max(np.abs(vals - cold_nus[eps])) <= NU_CONTINUATION_TOL, eps
    assert sweeps < cold_sweeps
    assert sweeps <= CONTINUED_SCAN_SWEEPS


def test_continuation_starts_from_zero_then_scales_the_one_solution():
    assert diophantine._continuation([], 0.3) is None
    v1 = np.array([1.5e-3, -2.0e-4, 7.0e-6])
    got = diophantine._continuation([(0.01, v1)], 0.015)
    np.testing.assert_allclose(got, v1 * (0.015 / 0.01), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_continuation_is_exact_on_polynomials_through_zero(degree):
    # four unevenly spaced nodes (a skipped eps leaves a gap) reproduce a
    # polynomial of degree <= 4 with p(0) = 0, one per mode
    coef = np.array([[2.0, -1.0, 3.0], [-40.0, 15.0, 8.0], [300.0, -90.0, 20.0],
                     [-900.0, 400.0, -70.0]])[:degree]

    def p(e):
        return sum(c * e ** (k + 1) for k, c in enumerate(coef))

    nodes = [0.0125, 0.0175, 0.0225, 0.0325]
    got = diophantine._continuation([(e, p(e)) for e in nodes], 0.0375)
    want = p(0.0375)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def test_continuation_reads_only_the_last_four_solutions():
    rng = np.random.default_rng(3)
    solved = [(e, rng.standard_normal(5)) for e in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)]
    want = diophantine._continuation(solved[-4:], 0.07)
    garbled = [(e, np.full(5, np.nan)) for e, _ in solved[:2]] + solved[2:]
    assert diophantine._continuation(garbled, 0.07).tobytes() == want.tobytes()


@pytest.mark.parametrize("params, window, grid", [(CANTOR_P, 0.08, 60),
                                                  (ModelParams(omega_branch=-1), 0.3, 4)])
def test_measure_cantor_falls_back_to_the_zero_start(monkeypatch, params, window, grid):
    # a start whose sweeps fail costs one more solve from nu = 0, never a verdict
    want, _, _ = _scan(monkeypatch, params, window, grid, cold=True)
    solve, started = series.solve_nu, []

    def failing_start(params, eps, K, start=None):
        if start is not None:
            started.append(eps)
            raise series.NonConvergenceError("started sweeps fail")
        return solve(params, eps, K)

    monkeypatch.setattr(series, "solve_nu", failing_start)
    assert measure_cantor(params, window, grid) == want
    assert len(started) == grid - 1        # every eps after the first, solved


def test_measure_cantor_lists_sign_exclusions():
    # at eps = 0.43125 the cubic coefficient is negative even from nu = 0:
    # the eps is rejected with the coefficient and counted, not raised
    pw = ModelParams(omega_branch=-1, eps0=0.9, nu_cap=0.45)
    with pytest.raises(series.SignExcludedError) as err:
        solve_nu(pw, 0.43125, 2)
    rep = measure_cantor(pw, 0.45, 12)
    assert rep.worst["rejected"] == [(0.43125, "sign", None, err.value.A, 0.0)]
    assert err.value.A < 0.0
    assert rep.fail_fraction == (1 + rep.worst["nonconverged"]) / 12 == 1.0


def _order2_closed_broadcast(params, eps, shift, q, ms):
    """counterterm_order2_closed with its denominator built as the broadcast
    -(Om sigma + omega_bar)^2 + om_m'^2 over the (mode, m') block."""
    a, b = params.a, params.b
    Om = omega_eff(params, eps)
    om_mp2, _, side, v_m1_sq, inner, _ = series._closed_rows(ms)
    narr = ms.n.astype(float)
    rad = ms.m.astype(float) ** 4 + params.mu + shift[ms.pos]
    if (rad < 0.0).any():
        raise DegenerateRadicandError("negative radicand")
    ombar = np.sqrt(rad)
    s = a * (a + b * Om * Om) * side
    term = np.empty(v_m1_sq.shape)
    for sig, (at, pos, primary) in zip((1.0, -1.0), inner):
        n1 = narr + sig
        np.add(-(Om * sig + ombar[:, None]) ** 2, om_mp2[None, :], out=term)
        term.reshape(-1)[at] += shift[pos]
        np.divide(v_m1_sq, term, out=term)
        term[primary, 0] = 0.0
        s = s + (a + b * Om * Om * sig * n1) * (a - b * Om * Om * sig * narr) * term.sum(axis=1)
    return -(4.0 * q * q / narr) * s


@pytest.mark.parametrize("params, eps", [(CANTOR_P, e) for e in CANTOR_EPS[::3]]
                         + [(ModelParams(omega_branch=-1, eps0=0.6), e) for e in (0.1875, 0.2625)])
def test_order2_closed_equals_the_broadcast_denominator_bitwise(monkeypatch, params, eps):
    # every sweep of solve_nu, up to the negative radicand that stops the
    # sweeps at 0.1875 and 0.2625 (test_solve_nu_stops_at_negative_radicand)
    closed, calls = series.counterterm_order2_closed, []

    def both(*args):
        try:
            want = _order2_closed_broadcast(*args)
        except DegenerateRadicandError:
            with pytest.raises(DegenerateRadicandError):
                closed(*args)
            raise
        got = closed(*args)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        calls.append(got)
        return got

    monkeypatch.setattr(series, "counterterm_order2_closed", both)
    try:
        solve_nu(params, eps, 2)
    except series.NonConvergenceError as exc:
        assert eps in (0.1875, 0.2625) and "radicand" in str(exc)
    assert calls


@pytest.mark.parametrize("n", [6, 9])
def test_melnikov_margins_raise_on_a_degenerate_radicand(n):
    # 3^4 + mu - 20 n < 0.  Only pair rows read (6, 3); the first family's
    # n ~ om_3 / Omega reads (9, 3) too.  A NaN margin in a pair pass would
    # hide its real minimum (second = 6.74e6 at (-2, 1, -8, 2) for n = 6).
    pp, eps, nu = _shift_resonance()
    nu.set(n, 3, -20.0)
    for below in BELOW:
        with pytest.raises(DegenerateRadicandError, match=rf"at mode \({n}, 3\)"):
            melnikov_margins(eps, nu, pp, below=below)
    with pytest.raises(DegenerateRadicandError):
        check_cantor(eps, nu, pp)


def test_melnikov_margins_raise_on_a_nan_radicand():
    # a NaN shift on (6, 3), a pair row of the resonance at (8, 3, 24, 5),
    # must not hide that resonance: the radicand check flags it like a
    # negative one
    pp, eps, nu = _shift_resonance()
    nu.set(6, 3, math.nan)
    for below in BELOW:
        with pytest.raises(DegenerateRadicandError, match=r"at mode \(6, 3\)$"):
            melnikov_margins(eps, nu, pp, below=below)
    for check in (check_melnikov, check_cantor):
        with pytest.raises(DegenerateRadicandError):
            check(eps, nu, pp)


def test_mode_and_pair_caches_are_bounded():
    assert mode_set.cache_info().maxsize == 8
    assert diophantine._margin_tables.cache_info().maxsize == 8


def test_one_pair_scan_retains_little_cache_memory():
    # the caches of spectrum and diophantine cold, one call on the
    # cantor_scan model keeps its ModeSet and tables: well under 0.5 MB
    for mod in (spectrum, diophantine):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    tracemalloc.start()
    try:
        melnikov_margins(0.06, None, CANTOR_P, below=2 * CANTOR_P.gamma)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 0.5e6
