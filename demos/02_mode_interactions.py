"""The quadratic interaction kernel and its summability.

Products of two sine modes project back onto the basis through
v_{m,m1,m2} = (2/pi) * int_0^pi sin(mx) sin(m1 x) sin(m2 x) dx, which is
nonzero exactly on odd-parity triples.  The weighted sums S(m) =
sum |v_{m,m1,m2}| / (m1 m2)^3 obey m^3 S(m) = O(1): that uniform bound is
what keeps the mode expansion summable at every order.
"""
import numpy as np

from lindbeam.kernel import (
    kernel_sum_probe,
    kernel_v,
    triple_sine_closed,
    triple_sine_quadrature,
)

print("== kernel values and the parity rule ==")
for trip in [(1, 1, 1), (2, 1, 1), (3, 1, 1), (5, 3, 1), (4, 2, 1), (7, 5, 3)]:
    v = kernel_v(*trip)
    par = sum(trip) % 2
    print(f"  v{trip} = {v:+.8f}   (parity {'odd' if par else 'even -> 0'})")

print("\n== closed form vs quadrature (spot check) ==")
for trip in [(1, 1, 1), (9, 4, 4), (12, 7, 2), (11, 11, 11)]:
    c, q = triple_sine_closed(*trip), triple_sine_quadrature(*trip)
    print(f"  {trip}: closed {c:+.12f}   quadrature {q:+.12f}   diff {abs(c-q):.1e}")

print("\n== weighted kernel sums: m^3 S(m) stays bounded ==")
Mmax = 1200
base = kernel_sum_probe(1, Mmax)
print(f"  S(1) = {base:.6f}")
for m in (1, 5, 11, 21, 41, 81, 101):
    s = kernel_sum_probe(m, Mmax)
    print(f"  m = {m:4d}:  S(m) = {s:.3e}   m^3 S(m)/S(1) = {m**3 * s / base:8.3f}")

print("\n== the baseline mechanism: small-index pairs alone decay like m^-3 ==")
for m in (17, 33, 65):
    r = kernel_sum_probe(m, m // 4)
    print(f"  m = {m:3d}:  restricted sum * m^3 = {r * m ** 3:.4f}")
