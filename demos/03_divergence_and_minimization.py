"""Renyi relative entropy, its bounds, and the optimized quantities.

Reproduces the maximally mixed worked example end to end, then evaluates the
closed-form (Sibson) minimizer on a generic state and checks it against the
determinant lower bound.
"""

import math

import numpy as np

from renyi import (
    DensityMatrix,
    conditional_entropy,
    mutual_information,
    random_density,
    renyi_relative_entropy,
    t4_lower_bound,
    t5_closed_form,
    t6_lower_bound,
    triangle_bound_check,
)

alpha = 2.0

# Relative entropy basics: self-divergence vanishes, and the determinant
# bound sits underneath; it is tight only for sigma proportional to
# rho^(a/(a-1)).
rho = DensityMatrix(np.diag([0.5, 0.5]))
sigma = np.diag([0.25, 0.75])
print("D_2(rho||sigma) =", renyi_relative_entropy(rho, sigma, alpha).value)
print("D_2(rho||rho)   =", renyi_relative_entropy(rho, rho.matrix, alpha).value)
rep = t4_lower_bound(rho, sigma, alpha)
print("t4 bound", rep.extras["bound"], "<= divergence", rep.extras["divergence"])
print("equality flag:", rep.equality)

# The worked example: for the maximally mixed two-qubit state the mutual
# information is zero, the conditional entropy is ln(2), and the minimizer
# is sigma_B = I/2.
mm = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
mi, out = mutual_information(mm, alpha)
ce, _ = conditional_entropy(mm, alpha)
print("\nmaximally mixed worked example:")
print("  I_2(A;B)  =", mi)
print("  H_2(A|B)  =", ce, " (ln 2 =", math.log(2), ")")
print("  sigma_B   =\n", np.round(out.optimizer_sigma.matrix.real, 6))

# t5_closed_form evaluates the quantity where the determinant bound is tight,
# (ref_A (x) sigma_B)^(1-a) proportional to rho^(-a), and its value is the
# divergence there.  For the maximally mixed state that sigma_B is also the
# minimizer, I/2, so it agrees with the optimum.
closed = t5_closed_form(mm, alpha, "mutual")
print("  closed form: value", closed.value)
print("  its sigma_B =\n", np.round(closed.sigma_b.matrix.real, 6))

# The determinant lower bound on the mutual information (natural log).
print("  t6 bound  =", t6_lower_bound(mm, alpha).extras["bound"])

# A generic full-rank two-qubit state: the closed-form minimum.
state = DensityMatrix(random_density(4, seed=5).matrix, dims=(2, 2))
value, _ = mutual_information(state, alpha)
print("\ngeneric state:")
print(f"  closed form I_2(A;B) = {value:.6f}")
bound = t6_lower_bound(state, alpha)
print(f"  t6: bound {bound.extras['bound']:.6f} <= I {value:.6f}"
      f" (passed {bound.passed})")

# Triangle-style bound through the identity reference.
tri = triangle_bound_check(state, np.diag([0.6, 0.9, 1.2, 1.5]), alpha)
print(f"  triangle: {tri.lhs:.6f} <= {tri.rhs:.6f} (passed {tri.passed})")
