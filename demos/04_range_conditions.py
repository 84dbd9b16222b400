"""Deciding membership in the range of the coupled transform.

Two conditions characterize solvability: existence of the shift vector c
(always constructible from moments) and a Gamma-weighted moment identity
predicting c from the data.  On forward images the prediction matches; on
data pushed off the range it does not.  The resolvent-based inversion is
compared against the direct solve along the way.
"""

import numpy as np

from mifht import (
    PiecewiseFunction,
    ThetaMatrix,
    build_gamma,
    compute_c,
    compute_nu,
    forward_map,
    invert_via_resolvent,
    make_interval_system,
    random_sqrt_vanishing,
    range_check_L1_variant,
    range_condition_J12,
    range_condition_N2,
    solve_phi,
)

sys2 = make_interval_system([(-2.0, -1.0), (1.0, 2.0)])
theta = ThetaMatrix([[1.0, 0.5], [0.5, 1.0]])
gamma = build_gamma(sys2, theta, lam=1.0, size=96)

phi0 = random_sqrt_vanishing(sys2, modes=18, seed=7)
psi = forward_map(theta, phi0)
c = compute_c(psi)
nu = compute_nu(psi, c, theta)

pred_sym = range_condition_N2(nu, gamma)
pred_gen = range_condition_J12(nu, gamma)
print("actual c          :", np.round(c, 10))
print("predicted (sym)   :", np.round(pred_sym.real, 10))
print("predicted (general):", np.round(pred_gen.real, 10))
print(f"defects: {np.max(np.abs(pred_sym - c)):.2e} / "
      f"{np.max(np.abs(pred_gen - c)):.2e}  -> psi is in range")

l1 = range_check_L1_variant(psi, c, nu, gamma)
print(f"integrable-data residual: {np.max(np.abs(l1['integrable'])):.2e}")

# push the data off the range: add a constant to one component only of a
# function already in range -- the prediction no longer matches
bad = psi.shift_piece_constants([0.25, 0.0])
c_bad = compute_c(bad)
nu_bad = compute_nu(bad, c_bad, theta)
pred_bad = range_condition_N2(nu_bad, gamma)
print(f"\nshifted data: prediction defect "
      f"{np.max(np.abs(pred_bad.real - c_bad)):.3f}  -> not in range")

# non-symmetric interaction: only the general (resolvent) condition applies
th_ns = ThetaMatrix([[1.0, 0.4], [0.1, 1.0]])
psi_ns = forward_map(th_ns, phi0)
c_ns = compute_c(psi_ns)
nu_ns = compute_nu(psi_ns, c_ns, th_ns)
gamma_ns = build_gamma(sys2, th_ns, lam=1.0, size=96)
pred_ns = range_condition_J12(nu_ns, gamma_ns)
print(f"\nnon-symmetric theta: prediction defect "
      f"{np.max(np.abs(pred_ns.real - c_ns)):.2e}")

# the two inversion routes agree on the solution
res = solve_phi(theta, psi, size=96)
phi_r = invert_via_resolvent(nu, gamma)
x = np.concatenate([sys2.from_unit(j, np.linspace(-0.9, 0.9, 15))
                    for j in range(2)])
print(f"\ndirect vs resolvent inversion discrepancy: "
      f"{np.max(np.abs(res.phi(x) - phi_r(x))):.2e}")
