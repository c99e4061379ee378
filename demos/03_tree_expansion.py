"""The labeled-tree expansion of the mode recursion.

Each order-k coefficient u^(k)_{n,m} unfolds into a sum over rooted labeled
trees: binary nodes carry one quadratic interaction, unary nodes carry
frequency-shift insertions, end nodes carry the primary amplitude q.  The
expansion is an identity, checked here against the recursion to machine
precision, first with plain values and then with every resonance block
renormalized (on-shell part subtracted and fed back through the shift table).
"""
from lindbeam import ModelParams, NuTable
from lindbeam.series import compute_coeffs, lambda_modes
from lindbeam.trees import (
    counterterm_table,
    dump_tree,
    enumerate_r_trees,
    enumerate_trees,
    renormalized_sum,
    sum_trees,
)

params = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.05, omega_branch=1,
                     Mmax=9, Nmax=60)
eps, q = 0.013, 0.8
nu = NuTable()
nu.set(2, 1, 3e-4)

print("== skeletons of order 1 at mode (2,3) ==")
for t in enumerate_trees(1, 2, 3, params):
    print(f"-- multiplicity {t.mult}")
    print(dump_tree(t))

print("\n== special-end skeletons defining the order-2 shift coefficient ==")
rts = enumerate_r_trees(2, 9, 3, params)
print(f"{len(rts)} skeletons at mode (9,3); first two:")
for t in rts[:2]:
    print(f"-- multiplicity {t.mult}")
    print(dump_tree(t))

print("\n== shift coefficients from the special-end family ==")
lt = counterterm_table(params, eps, nu, q, (2,), lambda_modes(params))
for (_k, n, m, _h), v in lt.items():
    print(f"  l2({n},{m}) = {v:+.8f}")

print("\n== expansion equals recursion, order 3, all modes ==")
table = compute_coeffs(params, eps, nu, lt, 3, 9, q=q)
worst_plain = worst_ren = 0.0
for n in (-4, -2, 0, 2, 4):
    for m in (1, 3, 5, 7, 9):
        if (abs(n), m) == (1, 1):
            continue
        want = table.value(3, n, m)
        plain = sum_trees(3, n, m, params, eps, nu, q, lt, 9)
        ren = renormalized_sum(3, n, m, params, eps, nu, q, lt, 9)
        worst_plain = max(worst_plain, abs(want - plain))
        worst_ren = max(worst_ren, abs(want - ren))
        if m <= 3:
            print(f"  u3({n:+d},{m}) = {want:+.9e}   trees {plain:+.9e}   "
                  f"renormalized {ren:+.9e}")
print(f"\nworst |recursion - plain trees|        = {worst_plain:.2e}")
print(f"worst |recursion - renormalized trees| = {worst_ren:.2e}")
