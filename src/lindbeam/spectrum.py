"""Linear frequencies, small divisors, propagators and the dyadic cutoff partition.

Everything here is a pure function of its arguments; the rest of the package
is built on top of these primitives.  Every small divisor of the package
reads the shifted frequency omega~^2 = omega_m^2 + n nu_{n,m} through
omega_sq (omega_m^2 = m^4 + mu) and, over a ModeSet's flat layout, through
ModeSet.radicand, which holds the one array check for omega~^2 <= 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .kernel import kernel_v

__all__ = [
    "ModelParams",
    "NuTable",
    "ModeSet",
    "mode_set",
    "omega",
    "omega_sq",
    "omega_eff",
    "x_divisor",
    "propagator",
    "propagator_row",
    "chi",
    "chi_h",
    "chi_support",
    "admissible_h_for",
    "in_lambda",
    "DegenerateRadicandError",
    "ResonantDivisorError",
]

MU_MAX = 0.125          # admissible mass window [0, 1/8]
GAMMA_MAX = 2.0 ** -6   # largest allowed Diophantine constant
H_MAX_DEFAULT = 40      # scales below 2^-H_max * gamma treated as resonant
H_MAX_LIMIT = 1000      # keeps the 2^-(h_max+1) * gamma floor above zero


class DegenerateRadicandError(ValueError):
    """omega_m^2 + n*nu_{n,m} <= 0; cannot happen for admissible nu tables."""


class ResonantDivisorError(ZeroDivisionError):
    """Exactly resonant mode hit; the parameter point is not Diophantine."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and arithmetic parameters of the beam model.

    a, b           strengths of the v^2 and v_t^2 nonlinearities
    mu             mass in [0, 1/8]
    eps0           amplitude window bound, 0 < eps0 < 1
    gamma          Diophantine constant, 0 < gamma <= 2^-6
    tau0           exponent of the mass conditions, >= 4
    tau            exponent of the shifted-frequency conditions, tau0 + 5 when
                   not given (None)
    nu_cap         c in the counterterm box |nu| < c*eps0
    omega_branch   +1 for Omega = omega_1 + eps, -1 for Omega = omega_1 - eps
    Mmax/Nmax      spatial cutoff, temporal scan cutoff
    h_max          scales below 2^-h_max * gamma are treated as resonant

    The truncation order is not a model parameter: each command takes it
    from the run options (`orders`).
    """

    a: float = 1.0
    b: float = 0.5
    mu: float = 0.1
    eps0: float = 0.01
    gamma: float = 2.0 ** -6
    tau0: float = 4.0
    tau: float | None = None
    nu_cap: float = 0.25
    omega_branch: int = 1
    Mmax: int = 64
    Nmax: int = 500
    h_max: int = H_MAX_DEFAULT

    def __post_init__(self):
        if self.tau is None:
            object.__setattr__(self, "tau", self.tau0 + 5.0)
        self.validate()

    def validate(self):
        for name in ("a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} is not finite")
        if not 0.0 <= self.mu <= MU_MAX:
            raise ValueError(f"mu={self.mu} outside [0, {MU_MAX}]")
        if not 0.0 < self.gamma <= GAMMA_MAX:
            raise ValueError(f"gamma={self.gamma} outside (0, {GAMMA_MAX}]")
        if not 4.0 <= self.tau0 < math.inf:
            raise ValueError(f"tau0={self.tau0} must be finite and >= 4")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau={self.tau} must be finite and positive")
        if not 0.0 < self.eps0 < 1.0:
            raise ValueError(f"eps0={self.eps0} outside (0, 1)")
        if not 0.0 < self.nu_cap < math.inf:
            raise ValueError(f"nu_cap={self.nu_cap} must be finite and positive")
        if self.omega_branch not in (1, -1):
            raise ValueError("omega_branch must be +1 or -1")
        if min(self.Mmax, self.Nmax) < 1:
            raise ValueError("cutoffs must be positive")
        if not 0 <= self.h_max <= H_MAX_LIMIT:
            raise ValueError(f"h_max={self.h_max} outside [0, {H_MAX_LIMIT}]")

    def with_(self, **kw) -> "ModelParams":
        return replace(self, **kw)

    def __hash__(self):     # hashed once: tree point tables are keyed on it per call
        return self._hash

    _hash = cached_property(lambda self: hash(tuple(getattr(self, f.name) for f in fields(self))))


def omega_sq(m, mu: float):
    """Squared linear frequency omega_m^2 = m^4 + mu, for scalars and arrays."""
    return m ** 4 + mu


def omega(m, mu: float):
    """Linear frequency sqrt(m^4 + mu) of the m-th sine mode."""
    return np.sqrt(omega_sq(np.asarray(m, dtype=float), mu))


def omega_eff(params: ModelParams, eps: float) -> float:
    """Branch-aware forcing frequency omega_1 + omega_branch * eps."""
    return float(omega(1, params.mu)) + params.omega_branch * eps


class NuTable:
    """Frequency-shift table nu_{n,m}, supported on the near-resonant set.

    Stored for n >= 1 and extended oddly, nu_{-n,m} = -nu_{n,m}, so that the
    combination n*nu_{n,m} entering every divisor is even in n (reality of
    the solution).  nu is zero off the near-resonant set and at (+-1, 1).
    """

    def __init__(self, entries=None):
        self._flat = None   # (ModeSet, its flat n*nu) of a ModeSet.nu_table table
        self._point_args = None     # the trees point-table key, built on first use
        self._src = None    # (ModeSet, values on its modes) that _d is built from
        if entries:
            for (n, m), v in dict(entries).items():
                self.set(n, m, v)

    @cached_property
    def _d(self) -> dict[tuple[int, int], float]:
        """The entries nu_{n,m}, n >= 1; a ModeSet.nu_table table builds them
        from its mode values on first read."""
        if self._src is None:
            return {}
        (ms, vals), self._src = self._src, None
        nz = vals != 0.0
        return dict(zip(zip(ms.n[nz].tolist(), ms.m[nz].tolist()), vals[nz].tolist()))

    def set(self, n: int, m: int, value: float):
        if n == 0:
            raise ValueError("nu_{0,m} is identically zero")
        if (abs(n), m) == (1, 1):
            raise ValueError("no frequency shift at the primary mode (+-1, 1)")
        key = (abs(n), m)
        self._d[key] = float(value) * (1 if n > 0 else -1)
        self._flat = self._point_args = None

    def get(self, n: int, m: int) -> float:
        if n == 0:
            return 0.0
        v = self._d.get((abs(n), m), 0.0)
        return v if n > 0 else -v

    def n_nu(self, n: int, m: int) -> float:
        """The divisor shift n * nu_{n,m}; even in n."""
        return abs(n) * self._d.get((abs(n), m), 0.0)

    def items(self):
        return self._d.items()

    def sup_norm(self) -> float:
        return max(map(abs, self._d.values()), default=0.0)

    def __eq__(self, other):
        return isinstance(other, NuTable) and self._d == other._d

    def __len__(self):
        return len(self._d)


def check_nu_values(n: np.ndarray, m: np.ndarray, v: np.ndarray, mu: float,
                    eps0: float, nu_cap: float):
    """Raise ValueError at the first mode (n, m) where the value v of nu lies
    outside the near-resonant set or outside the box |nu| < nu_cap * eps0."""
    v = np.abs(v)
    outside = (v != 0.0) & ~_near_resonant(math.sqrt(1.0 + mu), eps0, n, m)
    big = v >= nu_cap * eps0
    if (outside | big).any():
        i = int(np.argmax(outside | big))
        n, m = int(n[i]), int(m[i])
        if outside[i]:
            raise ValueError(f"nu supported outside the near-resonant set at {(n, m)}")
        raise ValueError(f"|nu_{(n,m)}| = {v[i]} exceeds {nu_cap}*eps0")


def _radicand(n: int, m: int, mu: float, nu: NuTable | None) -> float:
    """omega~^2 = omega_m^2 + n nu_{n,m}; raises DegenerateRadicandError unless
    it is > 0 (NaN included), as `ModeSet.radicand` does over the flat layout."""
    r = omega_sq(m, mu)
    if nu is not None:
        r += nu.n_nu(n, m)
    if not r > 0.0:
        raise DegenerateRadicandError(f"radicand {r} <= 0 at mode {(n, m)}")
    return r


def x_divisor(n: int, m: int, params: ModelParams, eps: float,
              nu: NuTable | None = None) -> float:
    """Small divisor |Omega n| - sqrt(omega_m^2 + n nu_{n,m}); even in n."""
    return abs(omega_eff(params, eps) * n) - math.sqrt(_radicand(n, m, params.mu, nu))


def propagator(n: int, m: int, params: ModelParams, eps: float,
               nu: NuTable | None = None) -> float:
    """Inverse linearized operator on mode (n, m); exactly 1 at (+-1, 1).
    Elsewhere a radicand omega~^2 <= 0 raises, as in `x_divisor`."""
    if (abs(n), m) == (1, 1):
        return 1.0
    Om = omega_eff(params, eps)
    denom = -(Om * n) ** 2 + _radicand(n, m, params.mu, nu)
    if denom == 0.0:
        raise ResonantDivisorError(f"exact resonance at mode {(n, m)}")
    return 1.0 / denom


def propagator_row(n: int, m: np.ndarray, params: ModelParams, eps: float,
                   n_nu=0.0) -> np.ndarray:
    """propagator(n, m_j) over an int array m off the primary mode (+-1, 1).

    n_nu is n*nu at (n, m_j), an array or 0.
    """
    return _row_propagator(n, m, -(omega_eff(params, eps) * n) ** 2, omega_sq(m, params.mu), n_nu)


def _row_propagator(n: int, m: np.ndarray, lin: float, om_sq: np.ndarray, n_nu=0.0) -> np.ndarray:
    """`propagator_row` from its parts that no shift moves: lin = -(Omega n)^2
    and om_sq = omega_sq(m, mu)."""
    denom = lin + (om_sq + n_nu)
    if (denom == 0.0).any():
        raise ResonantDivisorError(f"exact resonance at mode {(n, int(m[denom == 0.0][0]))}")
    return 1.0 / denom


def _smoothstep(t):
    """C-infinity step: 0 for t<=0, 1 for t>=1, built from exp(-1/t); NaN
    stays NaN.  A float for a scalar t."""
    t = np.asarray(t, dtype=float)
    mid = ~((t <= 0.0) | (t >= 1.0))
    out = np.where(t >= 1.0, 1.0, 0.0)
    if mid.any():
        tm = t[mid]
        f = np.exp(-1.0 / tm)
        g = np.exp(-1.0 / (1.0 - tm))
        out[mid] = f / (f + g)
    return out if out.shape else float(out)


def chi(x, gamma: float):
    """Smooth even cutoff: 0 for |x| <= gamma, 1 for |x| >= 2 gamma."""
    return _smoothstep((np.abs(x) - gamma) / gamma)


def chi_h(x, h, gamma: float):
    """Member h >= -1 of the dyadic partition of unity.

    chi_{-1} covers |x| >= gamma (large divisors); chi_h for h >= 0 covers the
    dyadic shell 2^{-h-1} gamma <= |x| <= 2^{-h+1} gamma.  For every x != 0,
    sum_{h=-1}^{H} chi_h(x) = 1 exactly once 2^{-H} gamma < |x|.  An int
    array h broadcasts against x; each entry gets the value of its scalar h.
    A float for a scalar x and h.
    """
    h = np.asarray(h)
    if (h < -1).any():
        raise ValueError("scale index must be >= -1")
    x = np.asarray(x, dtype=float)
    # chibar = 1 - chi is the small-divisor cutoff; telescoping differences,
    # of which chi_{-1} = chi(x 2^0) keeps the first
    with np.errstate(over="ignore"):
        c = chi(np.stack([np.ldexp(x, h + 1), np.ldexp(x, h)]), gamma)
    out = np.where(h == -1, c[0], c[0] - c[1])
    return out if out.shape else float(out)


def chi_support(h: int, gamma: float) -> tuple[float, float]:
    """Closure of {|x| : chi_h != 0}; (gamma, inf) for h = -1."""
    if h == -1:
        return (gamma, math.inf)
    return (2.0 ** (-h - 1) * gamma, 2.0 ** (-h + 1) * gamma)


def admissible_h_for(x, gamma: float, h_max: int = H_MAX_DEFAULT):
    """Scale labels h with chi_h(x) != 0, ascending: at most two, none below
    the floor 2^-(h_max+1) gamma.  A scalar x gets them as a list; an array
    x gets an int16 array of shape x.shape + (2,), padded with -2."""
    ax = np.asarray(x, dtype=float)
    labels = _admissible(ax.reshape(-1), gamma, h_max)[0]
    if not ax.ndim:
        return labels[0][labels[0] >= -1].tolist()
    return labels.reshape(ax.shape + (2,))


def _admissible(x: np.ndarray, gamma: float, h_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(labels, cutoffs) of `admissible_h_for` over a flat array x: per entry
    its labels in two slots, padded with -2, and chi_h(x) of each (0.0 in
    the padding).

    The candidates are -1 and, below 2 gamma, the shells h = hc - 1, hc,
    hc + 1 within [0, h_max] around hc = floor(-log2(|x| / gamma)); chi is
    taken once at |x| and at |x| 2^(hc - 1) .. |x| 2^(hc + 2), whose
    differences are chi_h of the shells.
    """
    ax = np.abs(x)[:, None]
    live = ~(ax < 2.0 ** (-h_max - 1) * gamma)
    small = live & (ax < 2.0 * gamma)
    hc = np.zeros(ax.shape, np.int64)
    if small.any():
        hc[small] = np.floor(-np.log2(ax[small] / gamma))
    shells = hc + np.arange(-1, 2)
    ok = small & (shells >= 0) & (shells <= h_max)
    with np.errstate(over="ignore"):
        c = chi(np.concatenate([ax, np.ldexp(ax, hc + np.arange(-1, 3))], axis=1), gamma)
    cut = np.concatenate([c[:, :1], c[:, 2:] - c[:, 1:-1]], axis=1)
    keep = np.concatenate([live, ok], axis=1) & (cut != 0.0)
    row, col = np.nonzero(keep)
    slot = np.arange(len(row)) - np.searchsorted(row, row)
    labels, cutoffs = np.full((len(ax), 2), -2, np.int16), np.zeros((len(ax), 2))
    labels[row, slot] = np.where(col > 0, hc[row, 0] + col - 2, -1)
    cutoffs[row, slot] = cut[row, col]
    return labels, cutoffs


def _near_resonant(om1, eps0, n, m):
    """The near-resonant zone: |omega_1 n - m^2| <= 1 + eps0 n, for n >= 0.

    The one definition of the set Lambda.  Python scalars stay pure Python
    (the tree code asks per line); numpy arrays broadcast.
    """
    return abs(om1 * n - m * m) <= 1.0 + eps0 * n


def in_lambda(n: int, m: int, params: ModelParams) -> bool:
    """Whether (n, m) lies in the zone where divisors can be small."""
    return _near_resonant(math.sqrt(1.0 + params.mu), params.eps0, abs(n), m)


class ModeSet:
    """The near-resonant set Lambda within the cutoffs m <= Mmax, n <= Nmax.

    lo[m]..hi[m] is the |n| window of each m that holds every near-resonant
    n (empty when lo > hi).  Laid end to end at offset[m], the windows form
    a flat layout: a float array of length size + 1 holds n*nu there, and
    its last entry is a zero that every position outside the windows reads,
    so one gather returns the divisor shift.  n, m are the modes carrying
    the shift fixed point (odd m, n >= 1, the primary mode (1, 1) excluded),
    ordered by m then n; pos are their flat positions, flat_m the m of
    every flat position.
    """

    def __init__(self, mu: float, eps0: float, Mmax: int, Nmax: int):
        self.mu, self.Mmax, self.Nmax = mu, Mmax, Nmax
        om1 = math.sqrt(1.0 + mu)
        ms = np.arange(Mmax + 1)
        lo = np.maximum(1, np.floor((ms * ms - 1.0) / (om1 + eps0)))
        hi = np.minimum(Nmax, np.ceil((ms * ms + 1.0) / max(om1 - eps0, 1e-9)))
        lo[0], hi[0] = 1, 0        # no mode m = 0
        self.lo, self.hi = lo.astype(int), hi.astype(int)
        width = np.maximum(self.hi - self.lo + 1, 0)
        self.offset = np.cumsum(width) - width
        self.size = int(width.sum())
        m_flat = np.repeat(ms, width)
        n_flat = np.arange(self.size) - self.offset[m_flat] + self.lo[m_flat]
        keep = ((m_flat % 2 == 1) & ~((n_flat == 1) & (m_flat == 1))
                & _near_resonant(om1, eps0, n_flat, m_flat))
        self.pos, self.flat_m = np.flatnonzero(keep), m_flat
        self.n, self.m = n_flat[keep], m_flat[keep]
        for arr in (self.lo, self.hi, self.offset, self.pos, self.flat_m, self.n, self.m):
            arr.flags.writeable = False     # shared by every caller of mode_set

    def __len__(self):
        return self.n.size

    def modes(self) -> list[tuple[int, int]]:
        return list(self._modes)

    _modes = cached_property(lambda self: tuple(zip(self.n.tolist(), self.m.tolist())))

    def index(self, n, m) -> np.ndarray:
        """Flat positions of (n >= 0, m), broadcast; size outside the windows."""
        m = np.where((m >= 1) & (m <= self.Mmax), m, 0)
        lo = self.lo[m]
        return np.where((n >= lo) & (n <= self.hi[m]), self.offset[m] + n - lo, self.size)

    def shift(self, nu: NuTable | None) -> np.ndarray:
        """Flat n*nu of a table; entries outside the windows are dropped.  A
        table from this ModeSet's nu_table returns its kept (read-only) array."""
        if nu is not None and nu._flat is not None and nu._flat[0] is self:
            return nu._flat[1]
        out = np.zeros(self.size + 1)
        if nu:
            nm = np.array(list(nu._d), dtype=int)
            vals = np.fromiter(nu._d.values(), float, len(nu))
            out[self.index(nm[:, 0], nm[:, 1])] = nm[:, 0] * vals
            out[-1] = 0.0
        return out

    def scatter(self, vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Flat n*nu from the values of nu on the modes n, m; written into
        out, which must be zero off the modes, when given."""
        if out is None:
            out = np.zeros(self.size + 1)
        out[self.pos] = self.n * vals
        return out

    def nu_table(self, vals: np.ndarray) -> NuTable:
        """The NuTable holding the nonzero values of nu on the modes; it keeps
        its flat n*nu for `shift` and builds its entries on first read."""
        t = NuTable()
        vals = np.where(vals != 0.0, vals, 0.0)     # a copy, with -0.0 read as 0.0
        t._src = (self, vals)
        t._flat = (self, self.scatter(vals))
        t._flat[1].flags.writeable = False
        return t

    @cached_property
    def base(self) -> np.ndarray:
        """omega_m^2 over the flat layout (no entry for the trailing zero)."""
        return omega_sq(self.flat_m.astype(float), self.mu)

    def radicand(self, shift: np.ndarray) -> np.ndarray:
        """omega~^2 = omega_m^2 + n nu over the flat layout, from its flat n*nu.

        Raises DegenerateRadicandError at the first entry that is not > 0
        (NaN included), in m-then-n order, naming its mode (n, m).
        """
        rad = self.base + shift[:-1]
        bad = np.flatnonzero(~(rad > 0.0))
        if bad.size:
            j, m = int(bad[0]), int(self.flat_m[bad[0]])
            n = j - int(self.offset[m]) + int(self.lo[m])
            raise DegenerateRadicandError(f"radicand {rad[j]} <= 0 at mode {(n, m)}")
        return rad

    @cached_property
    def closed_rows(self) -> tuple:
        """The parts of the closed-form order-2 counterterm fixed by the ModeSet.

        Over the odd inner labels m' <= Mmax: om_m'^2 and, per mode, the
        side-chain sum_m' v_{m,m,m'} v_{m',1,1} / om_m'^2, v_{m,1,m'}^2 and,
        for each inner line (|n + 1|, m') and (|n - 1|, m'): the entries of
        the (mode, m') block inside the windows, their flat positions, and
        the modes whose line n +- 1 is the primary +-1.  Last, om_m'^2
        repeated on every row of the (mode, m') block, contiguous.
        """
        mp = np.arange(1, self.Mmax + 1, 2)
        om_mp2 = omega_sq(mp.astype(float), self.mu)
        v_mp11 = np.array([kernel_v(x, 1, 1) for x in mp.tolist()])
        rows = {m: ([kernel_v(m, m, x) for x in mp.tolist()],
                    [kernel_v(m, 1, x) for x in mp.tolist()]) for m in set(self.m.tolist())}
        mode_m = self.m.tolist()
        v_mm = np.array([rows[m][0] for m in mode_m]).reshape(len(self), mp.size)
        v_m1 = np.array([rows[m][1] for m in mode_m]).reshape(len(self), mp.size)
        side = (v_mm * (v_mp11 / om_mp2)[None, :]).sum(axis=1)
        inner = []
        for sig in (1, -1):
            idx = self.index(np.abs(self.n + sig)[:, None], mp[None, :])
            at = np.flatnonzero(idx < self.size)
            inner.append((at, idx.flat[at], np.flatnonzero(np.abs(self.n + sig) == 1)))
        return om_mp2, side, v_m1 ** 2, inner, np.tile(om_mp2, (len(self), 1))


mode_set = lru_cache(maxsize=8)(ModeSet)   # mode_set(mu, eps0, Mmax, Nmax), built once
