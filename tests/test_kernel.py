import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbeam.kernel import (
    C_NORM,
    _closed_form_grid,
    kernel_sum_probe,
    kernel_tensor,
    kernel_v,
    triple_sine_closed,
    triple_sine_quadrature,
)


def _triple_sine_signsum(m: int, m1: int, m2: int) -> float:
    """Complex-exponential expansion of the product; independent of both
    routes of lindbeam.kernel."""
    tot = 0j
    for e0 in (1, -1):
        for e1 in (1, -1):
            for e2 in (1, -1):
                s = e0 * m + e1 * m1 + e2 * m2
                pref = e0 * e1 * e2
                if s == 0:
                    tot += pref * math.pi
                else:
                    tot += pref * (np.exp(1j * s * math.pi) - 1.0) / (1j * s)
    return (tot / (-8j)).real


def test_triple_sine_values():
    # int_0^pi sin^3 = 4/3
    for route in (triple_sine_closed, triple_sine_quadrature):
        assert route(1, 1, 1) == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert route(2, 1, 1) == pytest.approx(0.0, abs=1e-14)
        # expand sin(3x) sin^2(x): -4/15
        assert route(3, 1, 1) == pytest.approx(-4.0 / 15.0, abs=1e-14)
    assert triple_sine_closed(2, 1, 1) == 0.0


def test_triple_sine_three_routes_agree():
    for trip in [(1, 1, 1), (3, 1, 1), (5, 3, 1), (7, 5, 3), (2, 2, 1),
                 (9, 4, 4), (12, 7, 2), (11, 11, 11), (6, 4, 3)]:
        c = triple_sine_closed(*trip)
        assert triple_sine_quadrature(*trip) == pytest.approx(c, abs=1e-11)
        assert _triple_sine_signsum(*trip) == pytest.approx(c, abs=1e-11)


@given(st.integers(1, 25), st.integers(1, 25), st.integers(1, 25))
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_signsum(m, m1, m2):
    assert triple_sine_closed(m, m1, m2) == pytest.approx(
        _triple_sine_signsum(m, m1, m2), abs=1e-11)


def test_parity_zeros_no_poles():
    # poles of the closed form sit exactly on even-parity triples
    for m, m1, m2 in [(2, 1, 1), (4, 2, 2), (5, 3, 2), (3, 2, 1), (6, 3, 3)]:
        assert (m + m1 + m2) % 2 == 0
        v = kernel_v(m, m1, m2)
        assert v == 0.0 and math.isfinite(v)


def test_kernel_v_calibration_and_symmetry():
    assert kernel_v(1, 1, 1) == pytest.approx(C_NORM * 4.0 / 3.0, abs=1e-15)
    for m, m1, m2 in [(1, 3, 5), (7, 2, 4), (9, 9, 1), (3, 8, 2)]:
        assert kernel_v(m, m1, m2) == kernel_v(m, m2, m1)
    # the integral itself is fully symmetric, so the kernel is too
    assert kernel_v(3, 1, 5) == kernel_v(5, 1, 3) == kernel_v(1, 3, 5)


def test_kernel_tensor_matches_pointwise():
    V = kernel_tensor(8, 8)
    for m in range(1, 9):
        for m1 in range(1, 9):
            for m2 in range(1, 9):
                assert V[m - 1, m1 - 1, m2 - 1] == pytest.approx(
                    kernel_v(m, m1, m2), rel=1e-14, abs=1e-15)
    assert np.all(np.isfinite(V))


def test_kernel_sum_probe_bounded_smoke():
    # smoke version of the full bound probe (acceptance runs m<=101, Mmax=2000)
    base = kernel_sum_probe(1, 400)
    vals = {m: m ** 3 * kernel_sum_probe(m, 400) for m in range(1, 32, 2)}
    assert all(v <= 10 * base for v in vals.values())
    # S(m) decreasing from m = 3 on
    s = [kernel_sum_probe(m, 400) for m in range(3, 32, 2)]
    assert all(s[i + 1] < s[i] for i in range(len(s) - 1))


@pytest.mark.parametrize("m", [1, 2, 7, 10, 101])
def test_kernel_sum_probe_matches_full_grid(m):
    # the probe sums only the parity-admissible (m1, m2) classes
    for Mmax in (1, 2, 9, 400):
        m1 = np.arange(1, Mmax + 1, dtype=float)[:, None]
        full = float(np.sum(np.abs(_closed_form_grid(m, m1, m1.T)) / (m1 ** 3 * m1.T ** 3)))
        assert kernel_sum_probe(m, Mmax) == pytest.approx(full, rel=1e-13, abs=0.0)


def _kernel_v_before(m, m1, m2):
    """kernel_v as written before the scalar and grid routes shared one expression."""
    if (m + m1 + m2) % 2 == 0:
        return 0.0
    return C_NORM * (-4.0 * m * m1 * m2 / ((m * m - (m1 - m2) ** 2) * (m * m - (m1 + m2) ** 2)))


def test_kernel_tensor_equals_kernel_v_bitwise():
    M = 64
    trips = [(m, m1, m2) for m in range(1, M + 1) for m1 in range(1, M + 1)
             for m2 in range(1, M + 1)]
    scalar = np.array([kernel_v(*t) for t in trips]).reshape(M, M, M)
    assert kernel_tensor(M, M).tobytes() == scalar.tobytes()
    before = np.array([_kernel_v_before(*t) for t in trips]).reshape(M, M, M)
    assert scalar.tobytes() == before.tobytes()


def test_kernel_sum_probe_restricted_decay():
    # with m1, m2 <= m/4 both kernel denominators are ~ m^2, so the sum
    # decays like m^-3 up to slowly varying factors
    ms = np.array([17, 33, 65])
    r = np.array([kernel_sum_probe(int(m), int(m) // 4) for m in ms])
    scaled = r * ms.astype(float) ** 3
    assert scaled.max() / scaled.min() < 1.5


def test_kernel_caches_are_bounded():
    from lindbeam import kernel
    assert kernel.kernel_v.cache_info().maxsize == kernel.CACHE_SIZE == 2 ** 14
