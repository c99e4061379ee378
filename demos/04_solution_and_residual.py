"""Building a periodic solution and watching the residual scale away.

For each admissible amplitude eps the construction solves the cubic
amplitude equation, fixes the frequency-shift table nu(eps) at its fixed
point, fills the coefficient table to order K, and assembles
v(x,t) = sqrt(eps) sum u_{n,m} e^{i n Omega t} sin(mx) with
Omega = omega_1 - eps.  The PDE residual of the truncation then decays like
eps^{(K+2)/2}; with K = 2 the fitted slope is 2.
"""
import math

import numpy as np

from lindbeam import ModelParams
from lindbeam.diophantine import check_cantor
from lindbeam.series import (
    amplitude_cubic_coefficient,
    assemble_solution,
    compute_coeffs,
    decay_check,
    residual_norm,
    solve_nu,
)

params = ModelParams(a=1.0, b=0.5, mu=0.1, eps0=0.02, omega_branch=-1,
                     Mmax=64, Nmax=300)

A = amplitude_cubic_coefficient(params, 1e-3)
print(f"cubic coefficient A = {A:.6f}  ->  amplitude q -> {1/math.sqrt(A):.6f}")
print("(on the Omega = omega_1 + eps branch A is negative: solutions bifurcate"
      "\n downward in frequency, so this run uses the minus branch)\n")

print(f"{'eps':>10} {'accepted':>9} {'q':>9} {'|nu|/eps':>9} {'residual':>12}")
rows = []
for eps in np.geomspace(2e-4, 2e-3, 7):
    eps = float(eps)
    nu, info = solve_nu(params, eps, 2)
    ok = check_cantor(eps, nu, params)
    table = compute_coeffs(params, eps, nu, info["counterterms"], 2, 64,
                           q=info["q"])
    R = residual_norm(table, params, eps, nu)
    rows.append((math.log(eps), math.log(R)))
    print(f"{eps:10.2e} {str(ok):>9} {info['q']:9.5f} "
          f"{nu.sup_norm()/eps:9.4f} {R:12.3e}")

slope = np.polyfit([a for a, _ in rows], [b for _, b in rows], 1)[0]
print(f"\nfitted residual slope: {slope:.4f}   (theory: (K+2)/2 = 2)")

eps = 1e-3
nu, info = solve_nu(params, eps, 2)
table = compute_coeffs(params, eps, nu, info["counterterms"], 2, 64, q=info["q"])
Om = math.sqrt(1 + params.mu) - eps
x = np.linspace(0, math.pi, 9)
t = np.linspace(0, 2 * math.pi / Om, 5)
v = assemble_solution(table, eps, x, t, params)
print(f"\nsolution sample at eps = {eps} (rows x in [0, pi], columns one period):")
for i, xi in enumerate(x):
    print("  " + " ".join(f"{val:+.5f}" for val in v[i]))

rep = decay_check(table)
print(f"\nmode decay: spatial power ~ m^-{rep.m_powers.get(1, float('nan')):.2f} "
      f"at order 1, temporal rate e^-{rep.sigma_fit:.2f}|n|")
