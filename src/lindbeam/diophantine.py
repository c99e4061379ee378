"""Arithmetic non-resonance conditions and their measure estimates.

Membership tests store margins, not booleans: every condition family reports
its worst normalized margin |combination| * |n|^exponent so that thresholds
in gamma can be applied afterwards.  Measure estimates combine exact interval
widths of the finitely many near-resonances inside the cutoffs with an
explicit analytic bound for the tail beyond them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spectrum import MU_MAX, ModelParams, NuTable, mode_set, omega, omega_eff, omega_sq

__all__ = [
    "MU_MAX",
    "DiophReport",
    "mass_margins",
    "check_mass",
    "measure_mass_complement",
    "melnikov_margins",
    "check_melnikov",
    "cantor_margins",
    "cantor_failure",
    "check_cantor",
    "measure_cantor",
    "find_diophantine_mu",
]

@dataclass
class DiophReport:
    condition: str
    Nmax: int
    Mmax: int
    grid: int
    fail_fraction: float
    excluded_measure: float
    tail_bound: float
    worst: dict = field(default_factory=dict)

    @property
    def excluded_with_tail(self) -> float:
        return self.excluded_measure + self.tail_bound


def _mstar_single(Nmax: int) -> int:
    return int(math.isqrt(int((1 + MU_MAX) * Nmax + 2))) + 1


def mass_margins(mu, tau0: float, Nmax: int):
    """Normalized margins of the three linear-frequency condition families.

    Returns (single, diff, sum) arrays over the mu grid: the minimum over all
    conditions within the cutoff of |omega_1 n +- omega_m (+- omega_m')| *
    n^tau0.  Conditions away from the nearest integer n carry margin >= 1/2
    and cannot compete with any admissible gamma <= 2^-6.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    om1 = np.sqrt(1.0 + mu)
    best = [np.full(mu.shape, np.inf) for _ in _FAMILIES]
    for fam, m1, m2, sign in zip(*(c.tolist() for c in _mass_combos(Nmax))):
        target = _combo(m1, m2, sign, mu)
        # only the nearest integers to target / om1 can compete
        base = np.rint(target / om1)
        for dn in (-1.0, 0.0, 1.0):
            n = base + dn
            valid = (n >= 1) & (n <= Nmax)
            if valid.any():
                margin = np.where(valid, np.abs(om1 * n - target) * n ** tau0, np.inf)
                best[fam] = np.minimum(best[fam], margin)
    return best


def check_mass(mu: float, gamma: float, tau0: float, Nmax: int) -> bool:
    """Whether the linear frequencies at mass mu clear gamma |n|^-tau0.

    The spatial range is derived from Nmax internally: near-failures force
    m ~ sqrt(n) for single frequencies and m1 +- m2 ~ n for pairs.
    """
    return bool(np.minimum.reduce(mass_margins(np.array([mu]), tau0, Nmax))[0] >= gamma)


def _mass_tail_bound(gamma: float, tau0: float, Nmax: int) -> float:
    """Excluded measure that conditions with n > Nmax could still carry.

    Interval length per condition is <= 2 gamma n^-tau0 / (0.4 n) once n >= 4;
    counts per n: <= 1.04 sqrt(n)+2 singles, <= 2.2 n + 4(1+log(1.1n+2))
    difference pairs, <= 0.85 n + 2 sum pairs.
    """
    total = 0.0
    for n in range(Nmax + 1, 20 * Nmax):
        cnt = (1.04 * math.sqrt(n) + 2) + (2.2 * n + 4 * (1 + math.log(1.1 * n + 2))) \
            + (0.85 * n + 2)
        total += cnt * 2 * gamma / (0.4 * n ** (tau0 + 1))
    # integral remainder for n >= 20 Nmax, counts bounded by 4.2 n
    N2 = 20 * Nmax
    total += 4.2 * 2 * gamma / 0.4 * N2 ** (1 - tau0) / (tau0 - 1)
    return total


_FAMILIES = ("single", "diff", "sum")


def _mass_combos(Nmax: int):
    """The condition table: arrays (family, m1, m2, sign), one row per
    condition omega_m1 + sign omega_m2, family indexing _FAMILIES.  The
    singles omega_m (m2 = sign = 0) come first, then the differences
    omega_m1 - omega_m2 (m1 > m2) and the sums omega_m1 + omega_m2
    (m1 >= m2), each pair family in (m2, m1) order."""
    mstar = _mstar_single(Nmax)
    bound = (1 + MU_MAX) * Nmax + 3
    m2, m1 = np.ogrid[:int(bound) // 2 + 2, :int(bound) // 2 + 2]
    single = np.arange(2, mstar + 1)
    d2, d1 = np.nonzero((m2 >= 2) & (m1 > m2) & (m1 * m1 - m2 * m2 <= bound))
    s2, s1 = np.nonzero((m2 >= 2) & (m1 >= m2) & (m1 <= mstar) & (m1 * m1 + m2 * m2 <= bound))
    sizes = (single.size, d1.size, s1.size)
    return (np.repeat([0, 1, 2], sizes), np.concatenate([single, d1, s1]),
            np.concatenate([np.zeros_like(single), d2, s2]), np.repeat([0, -1, 1], sizes))


def _combo(m1, m2, sign, mu):
    """omega_m1 + sign omega_m2 at mu, broadcast; a single adds 0 omega_0."""
    return omega(m1, mu) + sign * omega(m2, mu)


def mass_exclusion_intervals(gamma: float, tau0: float, Nmax: int
                             ) -> list[tuple[float, float, tuple]]:
    """Excluded mass intervals located by root-finding each near-resonance.

    For each condition the resonant mass solves omega_1(mu) n = combo(mu);
    the condition fails on an interval of width 2 gamma n^-tau0 / |f'| around
    it.  Every combination is monotone in mu for the relevant n >= 2, so a
    sign change on [0, 1/8] brackets exactly one root.  All (condition, n)
    brackets are bisected together and listed in table order, then n's.
    """
    fam, m1, m2, sign = _mass_combos(Nmax)
    t0, t1 = _combo(m1, m2, sign, 0.0)[:, None], _combo(m1, m2, sign, MU_MAX)[:, None]
    n_lo = np.maximum(2, np.floor(np.minimum(t0, t1) / math.sqrt(1 + MU_MAX)) - 1)
    n_hi = np.minimum(Nmax, np.ceil(np.maximum(t0, t1)) + 1)
    n = n_lo + np.arange(int((n_hi - n_lo).max()) + 1)    # n_lo..n_hi per row
    row, j = np.nonzero((n <= n_hi) & ((n - t0) * (math.sqrt(1 + MU_MAX) * n - t1) <= 0.0))
    n, m1, m2, sign = n[row, j], m1[row], m2[row], sign[row]

    def f(mu):
        return np.sqrt(1 + mu) * n - _combo(m1, m2, sign, mu)

    lo, hi = np.zeros(n.size), np.full(n.size, MU_MAX)
    f_lo = f(lo)
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = (f_lo * fm) <= 0.0
        hi = np.where(left, mid, hi)
        lo, f_lo = np.where(left, lo, mid), np.where(left, f_lo, fm)
    ms = 0.5 * (lo + hi)
    # |f'| >= n/(2 om1) - sum 1/(2 om_m) >= 0.4 n for the scanned combos
    h = 1e-6
    slope = np.abs((np.sqrt(1 + ms + h) * n - _combo(m1, m2, sign, ms + h)) - f(ms)) / h
    n_tau = np.array([k ** (-tau0) for k in n.tolist()])     # Python's pow
    width = 2 * gamma * n_tau / np.maximum(slope, 0.3 * n)
    return [(c, w, (_FAMILIES[fa], k, a) + ((b,) if fa else ()))
            for c, w, fa, k, a, b in zip(ms.tolist(), width.tolist(), fam[row].tolist(),
                                         n.astype(int).tolist(), m1.tolist(), m2.tolist())]


def _merge_length(intervals: list[tuple[float, float]], lo: float, hi: float
                  ) -> float:
    segs = sorted((max(lo, c - w / 2), min(hi, c + w / 2)) for c, w in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in segs:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


@lru_cache(maxsize=4)
def _mass_grid(tau0: float, grid: int, Nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """measure_mass_complement's mu grid and the least margin of the three
    families on it, read-only: it does not depend on gamma, so the scans of
    one grid at several gammas share it."""
    mu = (np.arange(grid) + 0.5) / grid * MU_MAX
    worst = np.minimum.reduce(mass_margins(mu, tau0, Nmax))
    mu.flags.writeable = worst.flags.writeable = False
    return mu, worst


def measure_mass_complement(gamma: float, tau0: float, grid: int, Nmax: int
                            ) -> DiophReport:
    """Estimate of the excluded mass measure in [0, 1/8].

    The headline estimate is the union length of the analytically located
    exclusion intervals (exact widths from margins and slopes); the uniform
    grid rejection is reported as a cross-check (its resolution floor is one
    grid step per hit).
    """
    if grid < 1000:
        raise ValueError("grid must be >= 1e3")
    mu, worst = _mass_grid(tau0, grid, Nmax)
    frac = float((worst < gamma).mean())
    ivs = mass_exclusion_intervals(gamma, tau0, Nmax)
    est = _merge_length([(c, w) for (c, w, _) in ivs], 0.0, MU_MAX)
    return DiophReport(
        condition="mass", Nmax=Nmax, Mmax=_mstar_single(Nmax), grid=grid,
        fail_fraction=frac, excluded_measure=est,
        tail_bound=_mass_tail_bound(gamma, tau0, Nmax),
        worst={"min_margin": float(worst.min()),
               "argmin_mu": float(mu[int(np.argmin(worst))]),
               "grid_excluded": frac * MU_MAX,
               "intervals": len(ivs)},
    )


def find_diophantine_mu(gamma: float, tau0: float, Nmax: int) -> float:
    """A mass value clearing the conditions with maximal margin on a
    4000-point scan of [0.05, MU_MAX)."""
    mu = np.linspace(0.05, MU_MAX, 4000, endpoint=False)
    worst = np.minimum.reduce(mass_margins(mu, tau0, Nmax))
    j = int(np.argmax(worst))
    if worst[j] < gamma:
        raise RuntimeError("no admissible mass found on the scan grid")
    return float(mu[j])


# ---------------------------------------------------------------------------
# shifted-frequency (Melnikov) conditions

@lru_cache(maxsize=8)
def _margin_tables(mu: float, eps0: float, Nmax: int, Mmax: int, tau: float):
    """The parts of melnikov_margins fixed by the ModeSet and tau.

    Over the flat layout: omega_m and its maximum; the m and the first flat
    position of each nonempty window; for the first family's m = 2..Mmax (a
    column): omega_m^2 and omega_m; n^tau for n = 0..Nmax by
    Python's pow (numpy's can differ from a scalar evaluation in the last
    bit), and |dn|^tau for |dn| = 0..2 Nmax by numpy's.  Last, per pair
    block (m1, m2), m1 < m2 over the nonempty windows in scan order: m1, m2,
    omega_m2 and the sums s0 = omega_m1 + a2 omega_m2 for a2 = +1 and -1.
    """
    ms = mode_set(mu, eps0, Mmax, Nmax)
    om = np.sqrt(ms.base)
    win_m = np.flatnonzero(ms.hi >= ms.lo)
    m = np.arange(2, Mmax + 1)[:, None]
    i1, i2 = np.triu_indices(win_m.size, 1)
    b_m1, b_m2 = win_m[i1], win_m[i2]
    b_om1, b_om2 = omega(b_m1, mu), omega(b_m2, mu)
    return (om, float(om.max(initial=0.0)), win_m, ms.offset[win_m],
            omega_sq(m.astype(float), mu), omega(m, mu),
            np.array([float(n) ** tau for n in range(Nmax + 1)]),
            np.arange(2 * Nmax + 1, dtype=float) ** tau,
            b_m1, b_m2, b_om2, np.stack([b_om1 + b_om2, b_om1 - b_om2]))


def melnikov_margins(eps: float, nu: NuTable | None, params: ModelParams,
                     below: float = math.inf) -> dict:
    """Worst normalized margins of the two shifted-frequency families.

    first:  |Omega n +- sqrt(om_m^2 + n nu)| * |n|^tau over n != 0, m >= 2;
    second: the four sign combinations over pairs of near-resonant modes with
    m1 != m2.  Combinations away from the nearest resonant integer carry
    margin >= 0.4 >= gamma and are skipped.  nu enters only inside the
    ModeSet windows of the params' cutoffs (Mmax, Nmax); the first minimum in
    scan order (m then n; signs, offset, then row) is the one reported.  A
    window mode with omega_m^2 + n nu_{n,m} not > 0 raises
    DegenerateRadicandError (ModeSet.radicand), whatever below.

    below: a family whose minimum is below it reports the value and location
    at below = inf, one that clears it inf and None.  The pair rows come in
    (m1, m2, a2) blocks: n1 over -window(m1) then +window(m1), a fixed m2.
    The shift moves omega~_m within D(m) = max |omega~ - omega_m| over m's
    window, so a row of the block with difference dn has margin at least
    (|Om dn + s0| - D(m1) - D(m2) - 2 delta) |dn|^tau, s0 = omega_m1 + a2
    omega_m2, delta a rounding slack; |dn| is read at most 2 Nmax, beyond
    which no row lies in the windows.  The block bound B is the least of
    these over dn = nr - 1, nr, nr + 1 (dn != 0), nr = rint(-s0 / Om); every
    other dn has |Om dn + s0| >= 1.5 Om.  A block with B >= below and 1.5 Om
    - D(m1) - D(m2) - 2 delta >= below holds no margin below it and is
    skipped; the rows of the other blocks are evaluated in scan order.  At
    below = inf every block is kept.
    """
    Nmax, Mmax = params.Nmax, params.Mmax
    Om = omega_eff(params, eps)
    ms = mode_set(params.mu, params.eps0, Mmax, Nmax)
    (om, om_max, win_m, win_start, omsq_m, om_m, n_tau, dn_tau,
     b_m1, b_m2, b_om2, b_s0) = _margin_tables(params.mu, params.eps0, Nmax, Mmax, params.tau)
    shift = ms.shift(nu)
    rad = ms.radicand(shift)         # omega~^2 over the flat layout
    out = {"first": math.inf, "second": math.inf,
           "first_at": None, "second_at": None}

    # first condition: only n ~ omt/Om competes
    m = np.arange(2, Mmax + 1)[:, None]
    n = np.rint(om_m / Om).astype(int) + np.arange(-2, 3)
    omt = np.sqrt(omsq_m + shift[ms.index(n, m)])
    counted = (n >= 1) & (n <= Nmax)
    nc = n[counted]
    marg = np.full(n.shape, math.inf)
    marg[counted] = np.abs(Om * nc - omt[counted]) * n_tau[nc]
    if marg.size and marg.min() < below:
        j = int(np.argmin(marg))
        out["first"] = float(marg.flat[j])
        out["first_at"] = (int(n.flat[j]), j // 5 + 2)

    w = np.sqrt(rad)                # omega~ over the flat layout
    D = np.zeros(Mmax + 1)          # D(m) = max |omega~ - omega| over m's window
    D[win_m] = np.maximum.reduceat(np.abs(w - om), win_start)
    # margin terms are <= 2 Nmax Om or <= max omega + max D: the few roundings
    # between bound and margin stay far below 2^-40 of their sum
    delta = 2.0 ** -40 * (2 * Nmax * Om + 2 * (om_max + D.max()))
    D_blk = D[b_m1] + D[b_m2] + 2 * delta
    dn = np.rint(np.divide(b_s0, -Om)) + np.array([-1.0, 0.0, 1.0])[:, None, None]
    t = dn_tau[np.minimum(np.abs(dn), 2 * Nmax).astype(int)]
    B = np.where(dn != 0.0, (np.abs(dn * Om + b_s0) - D_blk) * t, math.inf).min(axis=0)
    keep = (B < below) | (1.5 * Om - D_blk < below)
    # Signs (-a1, -a2) at (-n1, -n2) repeat the margins of (a1, a2) at
    # (n1, n2) bit for bit, and come later in the scan: a1 = +1 suffices.
    for i2, a2 in enumerate((1.0, -1.0)):
        kb = np.flatnonzero(keep[i2])
        if not kb.size:
            continue
        size = 2 * (ms.hi[b_m1[kb]] - ms.lo[b_m1[kb]] + 1)
        blk = np.repeat(kb, size)               # the block of each row
        p = np.arange(blk.size) - np.repeat(np.cumsum(size) - size, size)
        m1, m2 = b_m1[blk], b_m2[blk]
        lo1, hi1, lo2, hi2 = ms.lo[m1], ms.hi[m1], ms.lo[m2], ms.hi[m2]
        n1 = np.where(p <= hi1 - lo1, p - hi1, p + 2 * lo1 - hi1 - 1)  # -hi..-lo, lo..hi
        w1 = w[ms.offset[m1] + np.abs(n1) - lo1]
        s = (np.add if a2 > 0 else np.subtract)(w1, b_om2[blk])      # s = w1 + a2 omega_m2
        near = np.rint(np.divide(s, -Om))
        for dd in (-1, 0, 1):
            dn = (near + dd).astype(int)
            n2 = np.abs(n1 + dn)
            k = np.flatnonzero((n2 >= lo2) & (n2 <= hi2) & (dn != 0))
            if not k.size:
                continue
            dn, n2 = dn[k], n2[k]
            marg = (np.abs(Om * dn + w1[k] + a2 * w[ms.offset[m2[k]] - lo2[k] + n2])
                    * dn_tau[np.abs(dn)])
            j = int(np.argmin(marg))
            if marg[j] < out["second"]:
                i = k[j]
                out["second"] = float(marg[j])
                out["second_at"] = (int(n1[i]), int(m1[i]), int(n1[i] + dn[j]), int(m2[i]))
    if out["second"] >= below:
        out["second"], out["second_at"] = math.inf, None
    return out


def check_melnikov(eps: float, nu: NuTable | None, params: ModelParams) -> bool:
    marg = melnikov_margins(eps, nu, params, below=params.gamma)
    return marg["first"] >= params.gamma and marg["second"] >= params.gamma


def square_margins(eps: float, params: ModelParams) -> tuple[float, tuple | None]:
    """Worst |Omega n - m^2| |n|^tau0 margin over n <= Nmax, m >= 2."""
    Om = omega_eff(params, eps)
    ns = np.arange(1, params.Nmax + 1, dtype=float)
    m = np.rint(np.sqrt(Om * ns))
    m = np.maximum(m, 2.0)
    best = np.inf
    at = None
    for dm in (-1.0, 0.0, 1.0):
        mm = np.maximum(m + dm, 2.0)
        marg = np.abs(Om * ns - mm ** 2) * ns ** params.tau0
        j = int(np.argmin(marg))
        if marg[j] < best:
            best = float(marg[j])
            at = (int(ns[j]), int(mm[j]))
    return best, at


def cantor_margins(eps: float, nu_of_eps: NuTable | None, params: ModelParams,
                   below: float = math.inf) -> dict:
    """Margins of the accepted-amplitude conditions at one eps.

    square: |Omega n - m^2| |n|^tau0 (threshold 4 gamma, primary mode and
    m = 1 excluded); first/second: the shifted-frequency families evaluated
    at nu(eps) (threshold 2 gamma), pruned at below as in melnikov_margins.
    """
    sq, sq_at = square_margins(eps, params)
    return {"square": sq, "square_at": sq_at,
            **melnikov_margins(eps, nu_of_eps, params, below)}


def cantor_failure(margins: dict, gamma: float) -> tuple | None:
    """(family, location, margin, threshold) of the first accepted-amplitude
    condition that the margins fail, in the order square, first, second;
    None when all hold."""
    for fam, thr in (("square", 4 * gamma), ("first", 2 * gamma), ("second", 2 * gamma)):
        if not (margins[fam] > thr if fam == "square" else margins[fam] >= thr):
            return fam, margins[f"{fam}_at"], margins[fam], thr
    return None


def check_cantor(eps: float, nu_of_eps: NuTable | None, params: ModelParams,
                 margins: dict | None = None) -> bool:
    """Whether eps passes the accepted-amplitude conditions at nu(eps); a dict
    passed as margins receives the margins (pruned at 2 gamma) it decided on."""
    m = cantor_margins(eps, nu_of_eps, params, below=2 * params.gamma)
    if margins is not None:
        margins.update(m)
    return cantor_failure(m, params.gamma) is None


@lru_cache(maxsize=8)
def _cantor_rows(params: ModelParams) -> tuple:
    """The window-independent parts of the amplitude measure estimate.

    Every near-resonance (location, width, label) at a location > 0, in scan
    order, and for the tail n = Nmax + 1 .. 10 Nmax - 1 the factors
    sqrt(om1 n) and n^(tau0 + 1).  Square-type exclusions dominate (exponent
    tau0); the shifted families carry exponent tau and are included with the
    nu = 0 approximation of the resonant location.
    """
    om1 = float(omega(1, params.mu))
    br = params.omega_branch
    g = params.gamma
    out = []
    for n in range(1, params.Nmax + 1):
        # square family: Omega n = m^2  =>  eps* = br*(m^2 - om1 n)/n
        m = max(2, int(round(math.sqrt(om1 * n))))
        for mm in (m - 1, m, m + 1):
            if mm < 2:
                continue
            est = br * (mm * mm - om1 * n) / n
            if 0.0 < est:
                width = 2 * 4 * g * n ** (-params.tau0) / n
                out.append((est, width, f"square n={n} m={mm}"))
        # first shifted family: Omega n = om_m  =>  m ~ sqrt(Om n)
        if m >= 2:
            om_m = float(omega(m, params.mu))
            est = br * (om_m - om1 * n) / n
            if 0.0 < est:
                width = 2 * 2 * g * n ** (-params.tau) / (n / 2)
                out.append((est, width, f"first n={n} m={m}"))
    ns = range(params.Nmax + 1, 10 * params.Nmax)
    return (tuple(out), np.sqrt(om1 * np.array(ns, dtype=float)),
            np.array([n ** (params.tau0 + 1) for n in ns]))


def _cantor_exclusion_widths(params: ModelParams, window: float
                             ) -> list[tuple[float, float, str]]:
    """Near-resonance locations and interval widths inside (0, window)."""
    return [r for r in _cantor_rows(params)[0] if r[0] < window]


def _continuation(solved: list, eps: float) -> np.ndarray | None:
    """The start of the shift sweeps at eps from the solutions solved, a list
    of (eps, nu on the modes) in grid order: none from no solution, else the
    Lagrange extrapolation in eps through (0, 0) and the last four solutions
    (nu = eps l^(2) vanishes at eps = 0).  From one solution this is the last
    one scaled by eps / eps_prev."""
    if not solved:
        return None
    last = solved[-4:]
    nodes = [0.0, *(e for e, _ in last)]
    return sum(math.prod((eps - x) / (e - x) for x in nodes if x != e) * v for e, v in last)


def measure_cantor(params: ModelParams, window: float, grid: int,
                   K: int = 2) -> DiophReport:
    """Excluded measure of the accepted-amplitude set in (0, window).

    Reports the grid-rejection fraction and, as the headline estimate, the
    summed widths of the analytically located near-resonance intervals plus
    the explicit n > Nmax tail (a 10^3 grid cannot resolve widths that reach
    down to gamma Nmax^-tau0-1).  worst["rejected"] lists each grid eps that
    check_cantor rejects as (eps, family, location, margin, threshold), and
    each eps whose cubic coefficient A is not > 0 even from the zero start
    (SignExcludedError) as (eps, "sign", None, A, 0.0).
    The grid is solved at eps0 = min(2 window, 0.9) when the params' eps0 is
    below window; a window that this eps0 does not cover, or a grid below 1,
    raises ValueError before any eps is solved.

    nu(eps) is smooth between exclusions, so the shift fixed point is
    continued along the grid: each eps starts its sweeps from the Lagrange
    extrapolation in eps through nu(0) = 0 and the last four solutions (nu = 0
    at the first eps, fewer nodes until four eps are solved).  A start whose
    sweeps fail is dropped and that eps solved again from nu = 0, so no eps
    fails that the zero start solves.  A solution ends within about NU_TOL of the
    zero start's (1e-11 = NU_TOL / 10 on the tested windows), not on its bits.
    """
    from .series import NonConvergenceError, SignExcludedError, solve_nu

    eps0 = params.eps0 if params.eps0 >= window else min(2 * window, 0.9)
    if window > eps0:
        raise ValueError(f"window={window} above eps0={eps0}, the largest solved at")
    if grid < 1:
        raise ValueError(f"grid={grid} below 1")
    pw = params if eps0 == params.eps0 else params.with_(eps0=eps0)
    eps_grid = (np.arange(grid) + 0.5) / grid * window
    rejected = []
    nonconv = 0
    solved = []                 # the last four (eps, nu on the modes) solved
    for e in eps_grid.tolist():
        start = _continuation(solved, e)
        try:
            try:
                nu, info = solve_nu(pw, e, K, start=start)
            except (NonConvergenceError, SignExcludedError):
                if start is None:
                    raise
                nu, info = solve_nu(pw, e, K)
        except NonConvergenceError:
            nonconv += 1
            continue
        except SignExcludedError as exc:
            rejected.append((e, "sign", None, exc.A, 0.0))
            continue
        solved = [*solved[-3:], (e, info["values"])]
        marg = {}
        if not check_cantor(e, nu, pw, margins=marg):
            rejected.append((e, *cantor_failure(marg, pw.gamma)))
    widths = _cantor_exclusion_widths(pw, window)
    excluded = sum(min(w, window) for (_, w, _) in widths)
    # tail: conditions with n > Nmax; counts ~ window sqrt(om1 n)/2 per n,
    # summed in n order (cumsum adds sequentially)
    _, sq, pw_n = _cantor_rows(pw)
    tail = float(np.cumsum((window * sq / 2 + 1) * 8 * pw.gamma / pw_n)[-1])
    om1 = float(omega(1, pw.mu))
    tail += (window * math.sqrt(om1) / 2 + 1) * 8 * pw.gamma \
        * (10 * pw.Nmax) ** (-pw.tau0 + 0.5) / (pw.tau0 - 0.5)
    return DiophReport(
        condition="cantor", Nmax=pw.Nmax, Mmax=pw.Mmax, grid=grid,
        fail_fraction=(len(rejected) + nonconv) / grid,
        excluded_measure=excluded, tail_bound=tail,
        worst={"intervals": len(widths), "nonconverged": nonconv,
               "relative_excluded": (excluded + tail) / window,
               "rejected": rejected},
    )
