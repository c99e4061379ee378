"""Spatial interaction kernel of the quadratic nonlinearity.

Products of sine modes project back onto the sine basis through the triple
integral I(m,m1,m2) = int_0^pi sin(mx) sin(m1 x) sin(m2 x) dx, which vanishes
unless m+m1+m2 is odd and otherwise equals

    I = -4 m m1 m2 / ((m^2-(m1-m2)^2)(m^2-(m1+m2)^2)).

The kernel used throughout is the Galerkin projection coefficient
v_{m,m1,m2} = (2/pi) * I.  The closed form is exact; adaptive quadrature
(`triple_sine_quadrature`, scipy's `quad`, compared by `checks.kernel_oracle`)
and, in the tests, an independent complex-exponential sign sum only
cross-check it.  The quadrature is an oracle: scipy is imported on its first
call, so importing the package and running the construction load numpy alone.

Since sin(m1 x) sin(m2 x) = (cos((m1-m2)x) - cos((m1+m2)x)) / 2, the kernel
factorizes exactly as v_{m,m1,m2} = (1/2)(2/pi) (J[m,|m1-m2|] - J[m,m1+m2]),
with J[m,k] = int_0^pi sin(mx) cos(kx) dx = 2m/(m^2-k^2) for m+k odd, else 0.
A quadratic interaction thus costs a convolution and a correlation of the two
coefficient rows, O(M^2), and one projection matmul (`cosine_projection`);
the dense O(M^3) `kernel_tensor` is kept as the cross-check of that route.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "C_NORM",
    "triple_sine_closed",
    "triple_sine_quadrature",
    "kernel_v",
    "kernel_tensor",
    "cosine_projection",
    "kernel_sum_probe",
]

C_NORM = 2.0 / math.pi

# Entries kept by the kernel_v cache; the working sets of the construction
# and the checks are a few thousand triples at most.
CACHE_SIZE = 2 ** 14


def _closed_form(m, m1, m2):
    """The integral where m + m1 + m2 is odd, on ints or broadcast float grids:
    the scalar and grid routes share these bits."""
    return -4.0 * m * m1 * m2 / ((m * m - (m1 - m2) ** 2) * (m * m - (m1 + m2) ** 2))


def triple_sine_closed(m: int, m1: int, m2: int) -> float:
    """Exact value of the triple sine integral; 0 on even-parity triples."""
    return 0.0 if (m + m1 + m2) % 2 == 0 else _closed_form(m, m1, m2)


def triple_sine_quadrature(m: int, m1: int, m2: int) -> float:
    """Adaptive quadrature of the triple sine integral (the oracle route)."""
    from scipy.integrate import quad

    val, _ = quad(lambda x: math.sin(m * x) * math.sin(m1 * x) * math.sin(m2 * x),
                  0.0, math.pi, limit=60 + 12 * max(m, m1, m2))
    return val


@lru_cache(maxsize=CACHE_SIZE)
def kernel_v(m: int, m1: int, m2: int) -> float:
    """Projection coefficient of sin(m1 x) sin(m2 x) onto sin(m x)."""
    return C_NORM * triple_sine_closed(m, m1, m2)


def _closed_form_grid(m, m1, m2) -> np.ndarray:
    """v_{m,m1,m2} from the closed form on broadcast float grids.

    Even-parity entries are exactly zero: the poles m = m1 +- m2 of the
    closed form lie on them only, and are masked.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((m + m1 + m2) % 2 == 1, C_NORM * _closed_form(m, m1, m2), 0.0)


def kernel_tensor(m_out: int, m_in: int) -> np.ndarray:
    """Dense table V[m, m1, m2] = v_{m,m1,m2} for m <= m_out, m1,m2 <= m_in.

    Index 0 corresponds to mode 1.
    """
    m = np.arange(1, m_out + 1, dtype=float)[:, None, None]
    m1 = np.arange(1, m_in + 1, dtype=float)[None, :, None]
    return _closed_form_grid(m, m1, m1.transpose(0, 2, 1))


@lru_cache(maxsize=8)
def cosine_projection(M: int, parity: int) -> np.ndarray:
    """Read-only half of P[m-1, k] = (1/2)(2/pi) J[m, k], transposed.

    Row i holds k = 2i + parity <= 2M and column j holds m = 2j + 1 + parity
    <= 2M: the entries with m + k odd, the only nonzero ones, so no pole m = k
    is met.  With P, v_{m,m1,m2} = P[m-1, |m1-m2|] - P[m-1, m1+m2].
    """
    k = np.arange(parity, 2 * M + 1, 2, dtype=float)[:, None]
    m = np.arange(1 + parity, 2 * M + 1, 2, dtype=float)[None, :]
    out = C_NORM * m / (m * m - k * k)
    out.flags.writeable = False
    return out


def kernel_sum_probe(m: int, Mmax: int) -> float:
    """Weighted kernel sum S(m) = sum* |v_{m,m1,m2}| / (m1^3 m2^3).

    The sum runs over parity-admissible m1, m2 <= Mmax (the half-grids with
    m + m1 + m2 odd); m^3 * S(m) staying bounded in m is the summability
    mechanism that keeps the mode expansion convergent.
    """
    half = [np.arange(p, Mmax + 1, 2, dtype=float)[:, None] for p in (1, 2)]
    return sum(float(np.sum(np.abs(_closed_form_grid(m, x, y.T)) / (x ** 3 * y.T ** 3)))
               for x, y in zip(half, half if m % 2 else half[::-1]))
