"""The matrix Riemann-Hilbert solution Gamma(z) behind the resolvent.

Gamma is built from the Fredholm solve of (Id - K) F = f and a Cauchy
integral of the rank-structured density F g^t.  The script verifies the
defining properties numerically: the multiplicative jump across the
intervals, unit determinant, identity normalization at infinity (with its
1/|z| approach law), the no-jump combinations, and the resolvent identity
(Id + R)(Id - K) = Id on the collocation grid.
"""

import numpy as np

from mifht import ThetaMatrix, build_gamma, make_interval_system

sys2 = make_interval_system([(-2.0, -1.0), (1.0, 2.0)])
theta = ThetaMatrix([[1.0, 0.5], [0.5, 1.0]])
gamma = build_gamma(sys2, theta, lam=1.0, size=96)

pts = np.concatenate([sys2.from_unit(j, np.linspace(-0.9, 0.9, 20))
                      for j in range(2)])
print(f"jump residual  max|Gamma_+ - Gamma_- V| = {gamma.jump_residual(pts):.2e}")
print(f"det drift      max|det Gamma - 1|       = "
      f"{np.max(np.abs(gamma.det(pts, side=1) - 1)):.2e}")

for radius in (1e3, 1e4, 1e5):
    zs = radius * np.exp(1j * np.linspace(0.2, np.pi - 0.2, 6))
    dev = np.max(np.abs(gamma.eval(zs) - np.eye(2)))
    print(f"|Gamma - Id| at |z| = {radius:.0e}: {dev:.3e}  "
          f"(~ first moment / (2 pi |z|))")

# no-jump combinations: Gamma f and g^t Gamma^{-1} are continuous across I
x = float(pts[7])
gp, gm = gamma.eval(x, side=+1), gamma.eval(x, side=-1)
fv, gv = gamma.f_vector(x), gamma.g_vector(x)
print(f"\n|Gamma_+ f - Gamma_- f|           = {np.max(np.abs((gp - gm) @ fv)):.2e}")
print(f"|g^t Gamma_+^-1 - g^t Gamma_-^-1| = "
      f"{np.max(np.abs(gv @ (np.linalg.inv(gp) - np.linalg.inv(gm)))):.2e}")

# the resolvent kernel is finite on the diagonal and side-independent
z = float(sys2.from_unit(0, 0.3))
xq = float(sys2.from_unit(1, -0.2))
print(f"\nresolvent kernel R(z, x)  = {gamma.resolvent_kernel(z, xq):.6f}")
print(f"coincidence limit R(z, z) = {gamma.resolvent_kernel(z, z, limit=True):.6f}")

R = gamma.resolvent_matrix()
ident = (np.eye(gamma.nystrom.size) + R) @ gamma.nystrom.matrix
print(f"resolvent identity residual on the grid: "
      f"{np.max(np.abs(ident - np.eye(gamma.nystrom.size))):.2e}")

# endpoint sensitivity: Gamma moves linearly under small endpoint shifts
z0 = 0.3 + 0.8j
base = gamma.eval(z0)
for delta in (1e-3, 1e-4):
    pts_shift = sys2.endpoints.copy()
    pts_shift[1, 0] += delta
    moved = build_gamma(make_interval_system(pts_shift), theta, size=64).eval(z0)
    print(f"endpoint shift {delta:.0e}: |dGamma| = {np.max(np.abs(moved - base)):.3e}")
