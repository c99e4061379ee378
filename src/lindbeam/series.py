"""Order-by-order construction of the periodic solution.

The solution ansatz v = sqrt(eps) * sum_{n,m} u_{n,m} e^{i n Omega t} sin(mx)
turns the PDE into a mode system solved as a power series in eta = sqrt(eps):
u = sum_k eta^k u^(k), with the primary-mode amplitude q = u^(0)_{+-1,1} fixed
by the (+-1,1) equation and a frequency-shift table nu absorbing the
near-resonant corrections (fixed point nu = eta * l(eta, eps, nu)).
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .kernel import cosine_projection, kernel_v
from .spectrum import (DegenerateRadicandError, ModelParams, NuTable, check_nu_values,
                       _row_propagator, mode_set, omega_eff, omega_sq, propagator_row)

__all__ = [
    "CoeffTable",
    "CountertermTable",
    "SignExcludedError",
    "NonConvergenceError",
    "InconsistentInputsError",
    "compute_coeffs",
    "amplitude_cubic_coefficient",
    "solve_amplitude",
    "amplitude_series",
    "solve_nu",
    "assemble_solution",
    "residual_norm",
    "order_consistency",
    "decay_check",
    "save_coeffs_csv",
    "save_counterterms_csv",
    "save_nu_csv",
    "summary_json",
]

AMPLITUDE_TOL = 1e-12
AMPLITUDE_MAX_ITER = 80     # damped Newton steps of solve_amplitude
NU_TOL = 1e-10
NU_MAX_SWEEPS = 40          # sweeps of the shift fixed point in solve_nu
TAIL_TOL = 1e-3
DECAY_M_FLOOR = 3.0         # least m-decay power decay_check accepts


class SignExcludedError(ValueError):
    """Cubic coefficient A <= 0 on this branch; the mirrored branch has A > 0."""

    def __init__(self, message: str, A: float = math.nan):
        super().__init__(message)
        self.A = A          # the coefficient, nan when the raiser gave none


class NonConvergenceError(RuntimeError):
    pass


class InconsistentInputsError(ValueError):
    """Coefficient table was built with different (eps, nu, counterterm) inputs."""


class CountertermTable:
    """Order/scale-resolved shift coefficients l^(k)_{n,m,h}.

    Stored for n >= 1 and extended oddly in n (so that n * l is even, matching
    the reality of the solution).  The aggregate l^(k)_{n,m} used by the
    recursion is the h = -1 entry, which sums every scale shell.
    """

    def __init__(self):
        self._src = None    # (modes, values) of an `_order2` table, read into _d

    @cached_property
    def _d(self) -> dict[tuple[int, int, int, int], float]:
        """The entries l^(k)_{n,m,h}, n >= 1; an `_order2` table builds them
        from its mode values on first read."""
        if self._src is None:
            return {}
        (modes, vals), self._src = self._src, None
        return {(2, n, m, -1): v for (n, m), v in zip(modes, vals.tolist()) if v != 0.0}

    @classmethod
    def _order2(cls, modes, vals: np.ndarray) -> CountertermTable:
        """The table holding only l^(2)_{n,m} = vals (h = -1) on the modes."""
        t = cls()
        t._src = (modes, vals)
        return t

    def set(self, k: int, n: int, m: int, h: int, value: float):
        if n == 0 or (abs(n), m) == (1, 1):
            raise ValueError(f"no counterterm at mode {(n, m)}")
        self._d[(k, abs(n), m, h)] = float(value) * (1 if n > 0 else -1)

    def get(self, k: int, n: int, m: int, h: int) -> float:
        if n == 0:
            return 0.0
        v = self._d.get((k, abs(n), m, h), 0.0)
        return v if n > 0 else -v

    def aggregate(self, k: int, n: int, m: int) -> float:
        return self.get(k, n, m, -1)

    def orders(self) -> list[int]:
        return sorted({k for (k, _, _, _) in self._d})

    def items(self):
        return self._d.items()

    def __len__(self):
        return len(self._d)

    def __eq__(self, other):
        return isinstance(other, CountertermTable) and self._d == other._d


@dataclass
class CoeffTable:
    """Per-order mode coefficients u^(k)_{n,m}.

    u[k] has shape (2(k+1)+1, Mmax): row i holds temporal index n = i-(k+1),
    column j spatial index m = j+1.  Order 0 carries only the primary
    amplitude q at (+-1, 1).
    """

    K: int
    Mmax: int
    q: float
    u: list[np.ndarray]
    eps: float = 0.0
    provenance: dict = field(default_factory=dict)

    def value(self, k: int, n: int, m: int) -> float:
        if k > self.K or abs(n) > k + 1 or not 1 <= m <= self.Mmax:
            return 0.0
        return float(self.u[k][n + k + 1, m - 1])

    def order_norm(self, k: int) -> float:
        return float(np.max(np.abs(self.u[k])))

    def summed(self, eta: float) -> np.ndarray:
        """sum_k eta^k u^(k) on the common grid (2(K+1)+1, Mmax)."""
        K = self.K
        out = np.zeros((2 * (K + 1) + 1, self.Mmax))
        for k in range(K + 1):
            off = (K + 1) - (k + 1)
            out[off:off + 2 * (k + 1) + 1, :] += eta ** k * self.u[k]
        return out

    def check_invariants(self):
        """Raise AssertionError at the first violation: per order, the first
        row n (ascending) that is not even in n (reality), lies beyond
        |n| = k+1 (support) or has n != k+1 (mod 2) (parity), in that order
        within the row; then content on even m; last, primary-mode content
        at orders >= 1."""
        for k in range(self.K + 1):
            arr = self.u[k]
            n = np.arange(arr.shape[0]) - (k + 1)
            nonzero = (arr != 0.0).any(axis=1)
            bad = np.array([(arr != arr[::-1]).any(axis=1),
                            (k >= 1) & (np.abs(n) > k + 1) & nonzero,
                            ((n - (k + 1)) % 2 != 0) & nonzero])
            rows = np.flatnonzero(bad.any(axis=0))
            if rows.size:
                i = int(rows[0])
                raise AssertionError((f"u^({k}) not even in n at n={n[i]}",
                                      f"support violation at order {k}, n={n[i]}",
                                      f"parity violation at order {k}, n={n[i]}"
                                      )[int(np.argmax(bad[:, i]))])
            if (arr[:, 1::2] != 0.0).any():
                raise AssertionError(f"even-m content at order {k}")
        # primary mode only at order 0
        for k in range(1, self.K + 1):
            if self.value(k, 1, 1) != 0.0 or self.value(k, -1, 1) != 0.0:
                raise AssertionError(f"primary-mode content at order {k}")


def quad_conv(u1: np.ndarray, u2: np.ndarray, k1: int, k2: int,
              a: float, b: float, Om: float, Mmax: int) -> np.ndarray:
    """Quadratic interaction of two coefficient arrays.

    Returns C[n, m] = sum_{n1+n2=n} (a - b Om^2 n1 n2)
                      sum_{m1,m2} v_{m,m1,m2} u1_{n1,m1} u2_{n2,m2}
    on the extended grid m <= 2*Mmax, |n| <= (k1+1)+(k2+1).
    """
    return _contract([(1.0, u1, k1, u2, k2)], (k1 + 1) + (k2 + 1), a, b, Om, Mmax)


def _half_rows(u: np.ndarray, k: int) -> list:
    """(n, p, u[n + k + 1, p-1::2]) per nonzero half-row; it holds m = 2i + p."""
    return [(i - (k + 1), p, u[i, p - 1::2]) for p in (1, 2)
            for i in np.flatnonzero(u[:, p - 1::2].any(axis=1)).tolist()]


def _contract(terms, noff: int, a: float, b: float, Om: float, M: int) -> np.ndarray:
    """sum of w * quad_conv(u1, u2, k1, k2) over terms (w, u1, k1, u2, k2),
    on the grid |n| <= noff, m <= 2*M, projected once.

    With v_{m,m1,m2} = P[m,|m1-m2|] - P[m,m1+m2] (kernel.cosine_projection),
    a pair of half-rows (odd or even m) costs a correlation and a convolution
    into G[n, k]: same-parity pairs fill even k (projected onto odd m), mixed
    pairs odd k (even m).  All-zero halves are skipped; when u1 is u2 each
    unordered pair is taken once, weighted 2 off the diagonal.

    Real tables, with every operand exactly even in n, give an output even
    in n: then only the pairs with n1 + n2 >= 0 are contracted, and the
    n < 0 rows are copied from the n > 0 rows.
    """
    even = all(np.array_equal(u, u[::-1]) for _, u1, _, u2, _ in terms
               for u in ((u1,) if u1 is u2 else (u1, u2)))
    lag = np.zeros((2 * noff + 1, 2 * M - 1))   # column m1 - m2 + M - 1
    G = np.zeros((2 * noff + 1, 2 * M + 1))
    om2b = b * Om * Om
    for w, u1, k1, u2, k2 in terms:
        sym = u1 is u2
        rows1 = _half_rows(u1, k1)
        rows2 = rows1 if sym else _half_rows(u2, k2)
        for j1, (n1, p1, x) in enumerate(rows1):
            for j2 in range(j1 if sym else 0, len(rows2)):
                n2, p2, y = rows2[j2]
                if even and n1 + n2 < 0:
                    continue
                coef = (2 * w if sym and j2 > j1 else w) * (a - om2b * n1 * n2)
                if coef == 0.0:
                    continue
                xc, n = coef * x, n1 + n2 + noff
                lo, width = M + 1 - 2 * y.size + p1 - p2, 2 * (x.size + y.size) - 3
                lag[n, lo:lo + width:2] += np.correlate(xc, y, "full")
                G[n, p1 + p2:p1 + p2 + width:2] -= np.correlate(xc, y[::-1], "full")
    # fold the signed difference m1 - m2 onto |m1 - m2|
    G[:, :M] += lag[:, M - 1:]
    G[:, 1:M] += lag[:, :M - 1][:, ::-1]
    C = np.zeros((2 * noff + 1, 2 * M))
    for par in (0, 1):      # even k -> odd m, odd k -> even m; zero rows skipped
        r = np.flatnonzero(G[:, par::2].any(axis=1))
        C[r, par::2] = G[r, par::2] @ cosine_projection(M, par)
    if even:
        C[:noff] = C[:noff:-1]
    return C


def _forcing(us: list[np.ndarray], j: int, params: ModelParams, Om: float,
             Mmax: int) -> np.ndarray:
    """sum_{k1+k2=j} (u^k1 * u^k2) on the grid |n| <= j+2, m <= 2*Mmax.

    F^(k) of the recursion is the j = k-1 term; the primary-mode equation
    reads its order-j coefficient at (n, m) = (1, 1).
    """
    terms = [(1.0 if 2 * k1 == j else 2.0, us[k1], k1, us[j - k1], j - k1)   # k1 <= k2
             for k1 in range(j // 2 + 1)]
    return _contract(terms, j + 2, params.a, params.b, Om, Mmax)


def compute_coeffs(params: ModelParams, eps: float, nu: NuTable | None,
                   counterterms: CountertermTable | None, K: int, Mmax: int,
                   q: float = 1.0) -> CoeffTable:
    """Fill orders 1..K of the mode recursion.

    u^(k)_{n,m} = g_{n,m} ( n sum_{r=2}^{k-1} l^(r)_{n,m} u^(k-r)_{n,m}
                            + F^(k)_{n,m} ),
    with F^(k) the quadratic convolution of lower orders.  q enters as the
    order-0 primary amplitude and is solved separately (solve_amplitude).
    """
    lt = counterterms or CountertermTable()
    Om = omega_eff(params, eps)
    ms = mode_set(params.mu, params.eps0, Mmax, params.Nmax)
    shift = ms.shift(nu)
    odd = np.arange(1, Mmax + 1, 2)
    u0 = np.zeros((3, Mmax))
    u0[0, 0] = q   # n = -1, m = 1
    u0[2, 0] = q   # n = +1, m = 1
    us = [u0]
    table = CoeffTable(K=0, Mmax=Mmax, q=q, u=us, eps=eps)
    tail_flag = 0.0
    for k in range(1, K + 1):
        F = _forcing(us, k - 1, params, Om, Mmax)
        # spectral-tail diagnostic on the extended grid
        inner = np.abs(F[:, :Mmax]).max()
        outer = np.abs(F[:, Mmax:]).max()
        if inner > 0:
            tail_flag = max(tail_flag, outer / inner)
        uk = np.zeros((2 * (k + 1) + 1, Mmax))
        for n in range(k + 1, -1, -2):       # parity: n = k+1 (mod 2)
            rhs = F[n + k + 1, odd - 1]
            lsum = np.zeros(odd.size)
            for r in range(2, k):
                if n <= (k - r) + 1:         # lower order has support there
                    lr = np.array([lt.aggregate(r, n, m) for m in odd.tolist()])
                    lsum += lr * us[k - r][n + (k - r) + 1, odd - 1]
            rhs = rhs + n * lsum
            if n == 1:
                rhs[0] = 0.0                 # the primary mode (+-1, 1) is q's
            j = np.flatnonzero(rhs)
            g = propagator_row(n, odd[j], params, eps, shift[ms.index(n, odd[j])])
            uk[n + k + 1, odd[j] - 1] = g * rhs[j]
            uk[-n + k + 1, :] = uk[n + k + 1, :]   # reality: exactly even in n
        us.append(uk)
        table.K = k
    if tail_flag > TAIL_TOL:
        warnings.warn(f"convolution mass beyond Mmax: relative tail {tail_flag:.2e}",
                      RuntimeWarning, stacklevel=2)
    table.provenance = {
        "eps": eps, "q": q, "nu_items": tuple(sorted(nu.items())) if nu else (),
        "l_orders": tuple(lt.orders()), "tail": tail_flag,
    }
    table.check_invariants()
    return table


def _beta(params: ModelParams, eps: float) -> float:
    """Linear factor of the primary-mode equation, (omega_1^2 - Omega^2)/eps."""
    om1sq = 1.0 + params.mu
    Om = omega_eff(params, eps)
    return (om1sq - Om * Om) / eps


def amplitude_cubic_coefficient(params: ModelParams, eps: float,
                                nu: NuTable | None = None) -> float:
    """Cubic coefficient A of the reduced amplitude equation q = A q^3 + O(eta^2).

    Assembled from the order-1 coefficients feeding back into the primary
    mode; the m-sum is truncated at params.Mmax (terms decay like m^-10).
    """
    odd = np.arange(1, params.Mmax + 1, 2)
    shift2 = np.array([nu.n_nu(2, m) for m in odd.tolist()]) if nu else 0.0
    return _cubic_coefficient(params, eps, odd, shift2, _cubic_rows(params, eps, odd))


def _cubic_rows(params: ModelParams, eps: float, odd: np.ndarray) -> tuple:
    """The parts of A over the odd modes m that no shift moves: 2 v_{1,1,m}^2,
    2a(a + b Om^2) g_{0,m}, (a - b Om^2)(a + 2b Om^2), beta, and the parts
    -(2 Om)^2 and omega_m^2 of g_{2,m}'s divisor."""
    Om = omega_eff(params, eps)
    a, b = params.a, params.b
    v = np.array([kernel_v(1, 1, m) for m in odd.tolist()])
    g0 = propagator_row(0, odd, params, eps)
    return (2.0 * v * v, 2 * a * (a + b * Om * Om) * g0,
            (a - b * Om * Om) * (a + 2 * b * Om * Om), _beta(params, eps),
            -(Om * 2) ** 2, omega_sq(odd, params.mu))


def _cubic_coefficient(params: ModelParams, eps: float, odd: np.ndarray,
                       shift2, rows: tuple) -> float:
    """A over the odd modes m, with shift2 = 2 nu_{2,m} (array or 0) and
    rows = _cubic_rows(params, eps, odd)."""
    vv, g0_part, g2_factor, beta, lin2, om_sq = rows
    g2 = _row_propagator(2, odd, lin2, om_sq, shift2)
    terms = vv * (g0_part + g2_factor * g2)
    # cumsum adds in m order (np.sum would pair terms): A is the plain scalar sum
    return float(np.cumsum(terms)[-1]) / beta


def amplitude_series(params: ModelParams, eps: float, nu: NuTable | None,
                     counterterms: CountertermTable | None, K: int) -> np.ndarray:
    """Coefficients A_j(1), j = 1..K, of the primary-mode equation at q = 1.

    The equation for q reads beta q = sum_j eta^{j-1} A_j(1) q^{j+2}
    (each order is homogeneous of degree j+2 in q).  Even j vanish by parity.
    """
    M = params.Mmax
    table = compute_coeffs(params, eps, nu, counterterms, K, M, q=1.0)
    out = np.zeros(K + 1)
    Om = omega_eff(params, eps)
    for j in range(1, K + 1):
        out[j] = _forcing(table.u, j, params, Om, M)[1 + (j + 2), 0]   # (n, m) = (1, 1)
    return out[1:]


def solve_amplitude(params: ModelParams, eps: float, nu: NuTable | None,
                    counterterms: CountertermTable | None, K: int) -> float:
    """Positive root of the truncated primary-mode equation.

    Solves beta q = sum_{j<=K} eta^{j-1} A_j q^{j+2} by damped Newton in
    s = q^2, seeded at the cubic solution s0 = beta/A_1.  Raises
    SignExcludedError when A = A_1/beta <= 0 (wrong frequency branch).
    """
    if params.a == 0.0 and params.b == 0.0:
        return 0.0   # linear equation: only the trivial periodic solution
    eta = math.sqrt(eps)
    beta = _beta(params, eps)
    A = amplitude_series(params, eps, nu, counterterms, K)
    if A[0] / beta <= 0.0:
        raise SignExcludedError(
            f"cubic coefficient A = {A[0] / beta:.3e} <= 0 on branch "
            f"{params.omega_branch:+d}; use omega_branch = {-params.omega_branch:+d}",
            A[0] / beta)

    def rhs_of_s(s):
        # beta = sum_j eta^{j-1} A_j s^{(j+1)/2} ... only odd j contribute
        tot, dtot = 0.0, 0.0
        for j in range(1, K + 1):
            p = (j + 1) / 2.0
            cj = eta ** (j - 1) * A[j - 1]
            tot += cj * s ** p
            dtot += cj * p * s ** (p - 1.0)
        return tot, dtot

    s = beta / A[0]
    for _ in range(AMPLITUDE_MAX_ITER):
        f, df = rhs_of_s(s)
        step = (f - beta) / df
        s_new = s - step
        if s_new <= 0:
            s_new = s / 2.0
        if abs(s_new - s) < 1e-16 * max(1.0, abs(s)):
            s = s_new
            break
        s = s_new
    else:
        raise NonConvergenceError("amplitude iteration did not converge")
    q = math.sqrt(s)
    resid = abs(beta * q - sum(eta ** (j - 1) * A[j - 1] * q ** (j + 2)
                               for j in range(1, K + 1)))
    if resid > AMPLITUDE_TOL * max(1.0, abs(beta * q)):
        raise NonConvergenceError(f"amplitude residual {resid:.2e} above tolerance")
    return q


def lambda_modes(params: ModelParams) -> list[tuple[int, int]]:
    """Near-resonant modes (n >= 1, m odd) within the params' cutoffs,
    primary excluded."""
    return mode_set(params.mu, params.eps0, params.Mmax, params.Nmax).modes()


def solve_nu(params: ModelParams, eps: float, K: int, *,
             start: np.ndarray | None = None) -> tuple[NuTable, dict]:
    """Fixed point of the shift equation nu = sum_{k<=K} eta^k l^(k)(eps, nu).

    Each sweep re-solves the amplitude and rebuilds the counterterms at the
    current table.  Odd orders vanish, so K = 2, 3 use the closed-form
    order-2 counterterm with the amplitude solved at its cubic order (exact
    for K = 2; at K = 3 the dropped quintic term shifts q, and hence nu, at
    relative order eps); their sweeps run on arrays over the ModeSet and the
    tables are built once, at exit.  K > 3 switches to tree enumeration
    with the fully truncated amplitude equation.  The modes are those of the
    params' cutoffs; a closed-form sweep at a negative on-shell radicand
    m^4 + mu + n nu raises NonConvergenceError.

    The sweeps start from nu = 0, or from start, the values of nu on the
    modes (the order of info["values"], which holds the solution's).  The
    sweeps stop once an update moves nu by less than NU_TOL, so a start
    near the fixed point takes fewer of them and ends within about NU_TOL
    of the zero start's solution, not on its bits.
    """
    from .trees import counterterm_order2_closed, counterterm_table

    if not 0.0 < eps < params.eps0:
        raise ValueError(f"eps={eps} outside (0, eps0={params.eps0})")
    ms = mode_set(params.mu, params.eps0, params.Mmax, params.Nmax)
    if start is None:
        vals = np.zeros(len(ms))      # nu on the modes
    else:
        vals = np.asarray(start, dtype=float)
        if vals.shape != (len(ms),):
            raise ValueError(f"start has shape {vals.shape}, not ({len(ms)},) modes")
    eta = math.sqrt(eps)
    info = {"sweeps": 0, "converged": False, "q": 0.0, "modes": len(ms)}
    lt = CountertermTable()
    fast = K <= 3
    odd = np.arange(1, params.Mmax + 1, 2)
    rows, idx2 = _cubic_rows(params, eps, odd), ms.index(2, odd)
    flat = np.zeros(ms.size + 1)      # each sweep's n*nu; nothing returned holds it
    for sweep in range(1, NU_MAX_SWEEPS + 1):
        if fast:
            # odd amplitude orders vanish, so the K <= 3 equation is the
            # plain cubic: beta q = A1 q^3 with A1 from the closed form
            shift = ms.scatter(vals, flat)
            if params.a == 0.0 and params.b == 0.0:
                q = 0.0
            else:
                A = _cubic_coefficient(params, eps, odd, shift[idx2], rows)
                if A <= 0.0:
                    raise SignExcludedError(
                        f"cubic coefficient A = {A:.3e} <= 0 on branch "
                        f"{params.omega_branch:+d}", A)
                q = math.sqrt(1.0 / A)
            try:
                l2 = counterterm_order2_closed(params, eps, shift, q, ms)
            except DegenerateRadicandError as exc:
                raise NonConvergenceError(f"nu fixed point at sweep {sweep}: {exc}") from None
            new = eta ** 2 * l2 if K >= 2 else np.zeros(len(ms))
        else:
            nu = ms.nu_table(vals)
            q = solve_amplitude(params, eps, nu, lt, K)
            modes = ms.modes()
            lt = counterterm_table(params, eps, nu, q, range(2, K + 1), modes)
            new = sum(eta ** k * np.array([lt.aggregate(k, n, m) for (n, m) in modes])
                      for k in range(2, K + 1))
        delta = float(np.max(np.abs(new - vals), initial=0.0))
        vals = new
        info["sweeps"] = sweep
        info["q"] = q
        if delta < NU_TOL:
            info["converged"] = True
            break
    if not info["converged"]:
        raise NonConvergenceError(
            f"nu fixed point did not converge in {NU_MAX_SWEEPS} sweeps (last update {delta:.2e})")
    if np.max(np.abs(vals), initial=0.0) >= params.nu_cap * params.eps0:
        raise NonConvergenceError("nu left the admissible box; eps too large")
    check_nu_values(ms.n, ms.m, vals, params.mu, params.eps0, params.nu_cap)
    nu = ms.nu_table(vals)
    if fast:
        lt = CountertermTable._order2(ms.modes(), l2)
    info["counterterms"] = lt
    info["values"] = vals
    return nu, info


def assemble_solution(table: CoeffTable, eps: float, x, t,
                      params: ModelParams) -> np.ndarray:
    """Field values v(x, t) = sqrt(eps) sum eta^k u^(k)_{n,m} e^{i n Om t} sin(mx).

    Reality of the table makes the result a plain cosine sum; output shape is
    (len(x), len(t)).
    """
    eta = math.sqrt(eps)
    U = table.summed(eta)
    K = table.K
    Om = omega_eff(params, eps)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    ms = np.arange(1, table.Mmax + 1)
    sin_mx = np.sin(np.outer(x, ms))               # (nx, M)
    out = np.zeros((x.size, t.size))
    for n in range(0, K + 2):
        row = U[n + K + 1]
        if not row.any():
            continue
        spatial = sin_mx @ row                     # (nx,)
        temporal = np.cos(n * Om * t)              # (nt,)
        weight = 1.0 if n == 0 else 2.0
        out += weight * np.outer(spatial, temporal)
    return math.sqrt(eps) * out


def _check_provenance(table: CoeffTable, eps: float, nu: NuTable | None):
    want = tuple(sorted(nu.items())) if nu else ()
    if table.provenance and (table.provenance.get("eps") != eps
                             or table.provenance.get("nu_items") != want):
        raise InconsistentInputsError("table provenance disagrees with (eps, nu)")


def residual_norm(table: CoeffTable, params: ModelParams, eps: float,
                  nu: NuTable | None = None) -> float:
    """Sup norm of the PDE residual of the assembled truncation.

    R_{n,m} = (-Om^2 n^2 + om_m^2) V_{n,m} - [a V^2 + b V_t^2]_{n,m} with
    V = sqrt(eps) * (summed table); computed spectrally on the extended grid.
    """
    _check_provenance(table, eps, nu)
    eta = math.sqrt(eps)
    Om = omega_eff(params, eps)
    U = table.summed(eta)
    K = table.K
    conv = quad_conv(U, U, K, K, params.a, params.b, Om, table.Mmax)
    noff = 2 * (K + 1)
    R = np.array(conv) * (-eps)     # -[aV^2 + b V_t^2], with V = sqrt(eps) U
    ns = np.arange(-(K + 1), K + 2)[:, None]
    lin = (-(Om * ns) ** 2 + omega_sq(np.arange(1, table.Mmax + 1), params.mu)) * U
    R[K + 1:noff + K + 2, :table.Mmax] += eta * lin
    # sup over the resolved window m <= Mmax (the spatial cutoff defines the
    # Galerkin truncation; mass beyond it is reported by compute_coeffs)
    return float(np.max(np.abs(R[:, :table.Mmax])))


def order_consistency(table: CoeffTable, params: ModelParams, eps: float,
                      nu: NuTable | None, counterterms: CountertermTable | None
                      ) -> float:
    """Worst relative defect of the order-k identities, k <= K.

    Rebuilds every F^(k) and checks
    (-Om^2 n^2 + om_m^2 + n nu) u^(k) = n sum_r l^(r) u^(k-r) + F^(k)
    on the rows n >= 0, relative to the largest |F^(k)| there: the table is
    real, and the identity at -n mirrors the one at n.  F^(k) comes from the
    same `_forcing` call on the same tables as in `compute_coeffs`, so it
    reproduces those bits: this checks the linear solve and the shift sums,
    not the contraction (`quad_conv` and the dense-kernel tests do).
    Telescoping makes the defect round-off small.
    """
    _check_provenance(table, eps, nu)
    lt = counterterms or CountertermTable()
    Om = omega_eff(params, eps)
    M = table.Mmax
    om_sq = omega_sq(np.arange(1, M + 1), params.mu)
    # n * nu and n * l^(r) live on a few (n >= 1, m) entries
    n_nu = [(n, m, n * v) for (n, m), v in (nu.items() if nu else ()) if m <= M]
    n_l = [(r, n, m, n * v) for (r, n, m, h), v in lt.items() if h == -1 and m <= M]
    worst = 0.0
    for k in range(1, table.K + 1):
        F = _forcing(table.u, k - 1, params, Om, M)[k + 1:]     # row n = 0..k+1
        scale = max(1.0, np.abs(F).max())
        lin = -(Om * np.arange(k + 2)[:, None]) ** 2 + om_sq[None, :]
        rhs = F[:, :M].copy()
        for n, m, w in n_nu:
            if n <= k + 1:
                lin[n, m - 1] += w
        for r, n, m, w in n_l:
            if 2 <= r < k and n <= (k - r) + 1:
                rhs[n, m - 1] += w * table.u[k - r][k - r + 1 + n, m - 1]
        defect = np.abs(lin * table.u[k][k + 1:] - rhs) / scale
        defect[1, 0] = 0.0   # the primary mode (1, 1) has no identity
        worst = max(worst, float(defect.max()))
    return worst


@dataclass
class DecayReport:
    C0: float
    sigma_fit: float
    m_powers: dict[int, float]
    n_support_ok: bool
    violations: list[str]

    @property
    def ok(self) -> bool:
        return self.n_support_ok and not self.violations


def decay_check(table: CoeffTable) -> DecayReport:
    """Fit exponential n-decay and power-law m-decay of the computed table."""
    eta = math.sqrt(table.eps) if table.eps > 0 else 0.1
    violations: list[str] = []
    n_support_ok = True
    m_powers: dict[int, float] = {}
    for k in range(1, table.K + 1):
        arr = np.abs(table.u[k])
        for i in range(arr.shape[0]):
            n = i - (k + 1)
            if abs(n) > k + 1 and arr[i].any():
                n_support_ok = False
        prof = arr.max(axis=0)
        ms = np.arange(1, table.Mmax + 1)
        mask = (prof > 0) & (ms >= 3) & (ms % 2 == 1)
        if mask.sum() >= 3:
            slope, _ = np.polyfit(np.log(ms[mask]), np.log(prof[mask]), 1)
            m_powers[k] = -float(slope)
            if m_powers[k] < DECAY_M_FLOOR:
                violations.append(f"order {k}: m-decay power {m_powers[k]:.2f} < {DECAY_M_FLOOR}")
    U = np.abs(table.summed(eta))
    K = table.K
    n_norms = [(n, U[n + K + 1].max()) for n in range(0, K + 2) if U[n + K + 1].max() > 0]
    if len(n_norms) >= 3:
        ns = np.array([n for n, _ in n_norms], dtype=float)
        vals = np.log([v for _, v in n_norms])
        slope, intercept = np.polyfit(ns, vals, 1)
        sigma_fit, C0 = -float(slope), float(np.exp(intercept))
    else:
        sigma_fit, C0 = math.inf, max((v for _, v in n_norms), default=0.0)
    return DecayReport(C0=C0, sigma_fit=sigma_fit, m_powers=m_powers,
                       n_support_ok=n_support_ok, violations=violations)


# ---------------------------------------------------------------------------
# serialization

@lru_cache(maxsize=16)
def _cell_prefixes(k: int, shape: tuple[int, int]) -> np.ndarray:
    """Read-only object array of "\r\nk,n,m," over the cells of an order-k
    array of the given shape (row i holds n = i - (k+1), column j m = j+1)."""
    out = np.array([f"\r\n{k},{i - (k + 1)},{j + 1}," for i in range(shape[0])
                    for j in range(shape[1])], dtype=object).reshape(shape)
    out.flags.writeable = False
    return out


def save_coeffs_csv(table: CoeffTable, path):
    """One CRLF row k,n,m,repr(value) per nonzero cell, orders ascending, each
    row-major (n, then m); repr reads back as the same double."""
    parts = [f"k,n,m,value\r\n0,1,1,{table.q!r}\r\n0,-1,1,{table.q!r}"]
    # repr once per distinct value: a real table holds each value twice (n
    # and -n).  Equal floats share a repr except 0.0 and -0.0, never written.
    text: dict[float, str] = {}
    for k in range(1, table.K + 1):
        i, j = np.nonzero(table.u[k])
        for pre, v in zip(_cell_prefixes(k, table.u[k].shape)[i, j].tolist(),
                          table.u[k][i, j].tolist()):
            s = text.get(v)
            if s is None:
                s = text[v] = repr(v)
            parts.append(pre)
            parts.append(s)
    parts.append("\r\n")
    with open(path, "w", newline="") as fh:
        fh.write("".join(parts))


def save_counterterms_csv(lt: CountertermTable, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "n", "m", "h", "value"])
        for (k, n, m, h), v in sorted(lt.items()):
            w.writerow([k, n, m, h, repr(v)])


def save_nu_csv(nu: NuTable, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "m", "value"])
        for (n, m), v in sorted(nu.items()):
            w.writerow([n, m, repr(v)])


def summary_json(table: CoeffTable, params: ModelParams, eps: float,
                 A: float | None = None) -> str:
    rep = decay_check(table)
    doc = {
        "schema_version": 1,
        "q": table.q,
        "eps": eps,
        "A": A,
        "order_norms": {k: table.order_norm(k) for k in range(table.K + 1)},
        "decay": {"C0": rep.C0, "sigma": rep.sigma_fit,
                  "m_powers": rep.m_powers, "ok": rep.ok},
    }
    return json.dumps(doc, indent=2, sort_keys=True, default=float)
