"""Periodic solutions of the quadratic, velocity-dependent beam equation.

v_tt + v_xxxx + mu v = a v^2 + b v_t^2,  v(0,t) = v(pi,t) = 0,

solved as v = sqrt(eps) * u(x, Omega t) with Omega = omega_1 +- eps by a
renormalized power-series (Lindstedt) construction, together with desk-scale
verification of the combinatorial and arithmetic machinery behind it.
"""

from .kernel import kernel_sum_probe, kernel_v
from .series import (
    CoeffTable,
    CountertermTable,
    amplitude_cubic_coefficient,
    assemble_solution,
    compute_coeffs,
    decay_check,
    residual_norm,
    solve_amplitude,
    solve_nu,
)
from .spectrum import (
    ModelParams,
    NuTable,
    chi,
    chi_h,
    in_lambda,
    omega,
    omega_eff,
    propagator,
    x_divisor,
)
from .trees import (
    counterterm,
    enumerate_r_trees,
    enumerate_trees,
    renormalized_sum,
    sum_trees,
    tree_value,
)

__version__ = "0.1.0"
