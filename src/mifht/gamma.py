"""Riemann-Hilbert solution Gamma(z; lambda) built from the Fredholm solve.

The kernel of K is integrable: K(z, x) = f^t(z) g(x) / (2 pi i (x - z))
with the vectors

    f_j(z) = -2 R_{j+}(z) chi_j(z),
    g_m(x) = sum_{k != m} theta_mk / (theta_mm R_m(x)) chi_k(x),

which satisfy f^t(z) g(z) = 0 on I.  Solving (Id - K/lambda) F = f and
setting

    Gamma(z) = Id - int_I F(w) g^t(w) dw / (2 pi i lambda (w - z))

produces the unique solution of the matrix Riemann-Hilbert problem with
jump Gamma_+ = Gamma_- (Id - f g^t / lambda) on I and Gamma(inf) = Id.
The density F g^t is sqrt-vanishing on every interval, so Gamma and its
boundary values evaluate through the same exterior-coordinate series as
the single-interval transforms.  The resolvent kernel of K is

    R(z, x; lambda) = g^t(x) Gamma^{-1}(x) Gamma(z) f(z) / (2 pi i lambda (z - x)),

non-singular at z = x because of the orthogonality of f and g.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

import numpy as np

from . import chebyshev as cheb
from .chebyshev import PiecewiseFunction
from .errors import (
    CoincidenceError,
    EndpointError,
    SymmetryError,
)
from .intervals import ABOVE, BELOW, IntervalSystem, unit_radical
from .solver import (
    NystromSystem,
    assemble_K,
    kernel_g,
    _checked_solve,
    _cross_modes,
    _range2_moments,
    _real_matmul,
    _stacked_g,
    memo_at_lambda,
)


def compute_F(nystrom: NystromSystem):
    """Solve (Id - K/lambda) F = f column-wise at the collocation nodes.

    Returns (smooth, residual, solve): ``smooth[j]`` holds the smooth part
    F_j / w_l on every node of every interval l, ``residual`` the
    linear-system defect and ``solve`` the report of ``solver._solve_refined``.
    """
    ns = nystrom
    rhs = np.zeros((ns.size, ns.sys.n), dtype=complex)
    for j in range(ns.sys.n):
        rhs[ns.offsets[j]: ns.offsets[j + 1], j] = -2j
    smooth, report = _checked_solve(ns, rhs)
    return smooth.T, report["residual"], report["solve"]


class GammaSolution:
    """Evaluator for Gamma(z; lambda), its boundary values and inverse.

    Stores, per interval l, the U-series of the smooth parts of the
    densities (F g^t)_{jm} = i w_l d_{jm}; the Cauchy integral of each
    density is then a geometric series in the exterior coordinate of I_l,
    valid on and off the cut (with a side selector on the cut).  Each
    series comes from F g^t at the M_l Nystrom nodes of I_l, with F from
    the Fredholm solve, and is kept to the standard chop of its n x n
    envelope, so every sum runs over the resolved modes.  ``build_gamma``
    shares one Gamma between callers, so its arrays (``density``,
    ``F_smooth_nodes`` and the node cache) are read-only.
    """

    def __init__(self, nystrom: NystromSystem):
        ns = nystrom
        self.sys = ns.sys
        self.theta = ns.theta
        self.lam = ns.lam
        self.nystrom = ns
        n = self.sys.n

        smooth, self.f_residual, self.f_solve = compute_F(ns)
        smooth.flags.writeable = False
        self.F_smooth_nodes = smooth

        # density coefficients D[l][j, m, :] with mu_jm = w_l * (i d), from
        # the smooth parts of F and g at the nodes of I_l (row l of g is zero)
        density = []
        for F_l, g_l in zip(ns.split(smooth.T), ns.split(ns.g_nodes.T)):
            dmat = np.einsum("qj,qm->jmq", F_l, g_l)
            coeffs = cheb.chebU_coeffs(dmat.reshape(n * n, -1))
            D = coeffs[:, : cheb.chop(coeffs)].reshape(n, n, -1)
            D.flags.writeable = False
            density.append(D)
        self.density = tuple(density)

    # -- the kernel vectors f and g --------------------------------------------

    def _per_interval(self, x, piece, dtype, name):
        """Rows piece(k, x_k) of shape (n, P_k) placed at the points of each I_k.

        Shape (n,) for scalar x, else (P, n); points off the open intervals
        raise EndpointError.
        """
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((pts.size, self.sys.n), dtype=dtype)
        hit = np.zeros(pts.size, dtype=bool)
        for k in range(self.sys.n):
            m = (self.sys.alpha[k] < pts) & (pts < self.sys.beta[k])
            out[m] = piece(k, pts[m]).T
            hit |= m
        if not np.all(hit):
            raise EndpointError(f"{name} is defined on the open intervals only")
        return out if np.ndim(x) else out[0]

    def f_vector(self, x):
        """f(x) for real x inside the system; shape (n,) or (len(x), n).

        f_k = -2 R_{k+} = -2 i w_k on I_k.  The -2 against the 2/(2 pi i) of
        the kernel makes f^t(z) g(x) / (2 pi i (z - x)) reproduce K(z, x)
        entrywise, which fixes the sign of f; audit against the kernel
        matrix, not the jump.
        """
        eye = np.eye(self.sys.n)
        return self._per_interval(
            x, lambda k, xk: np.outer(eye[k], -2j * self.sys.weight(k, xk)),
            complex, "f")

    def g_vector(self, x):
        """g(x) for real x inside the system; shape (n,) or (len(x), n)."""
        return self._per_interval(
            x, lambda k, xk: kernel_g(self.sys, self.theta, k, xk), float, "g")

    def density_resolution(self):
        """Resolved modes per interval, and whether each series found no plateau.

        ``gamma_density_modes[l]`` is the ``resolved_length`` of the kept
        series of interval l, which rounding does not move as it moves the
        chop; ``gamma_density_capped[l]`` is true when the chop kept all M_l
        coefficients, one per Nystrom node.
        """
        sizes = self.nystrom.grid.sizes
        return {"gamma_density_modes": [cheb.resolved_length(D) for D in self.density],
                "gamma_density_capped": [D.shape[2] == m
                                         for D, m in zip(self.density, sizes)]}

    # -- point evaluation ---------------------------------------------------

    def _check_endpoints(self, pts):
        flat = self.sys.endpoints.reshape(-1)
        p = np.atleast_1d(pts)
        if np.any(np.abs(p[:, None] - flat[None, :]) <
                  1e-14 * (1.0 + np.abs(flat[None, :]))):
            raise EndpointError("Gamma evaluation exactly at an endpoint")

    def eval(self, points, side=None):
        """Gamma at points; shape (n, n) for scalars, else (npts, n, n).

        ``side`` (+1/-1) picks the boundary value for real points lying
        inside an interval; it is ignored for genuinely complex points.
        """
        out = self._series(points, side)
        return out[0] if np.ndim(points) == 0 else out

    def _series(self, points, side, derivative=False):
        """Gamma, or with ``derivative`` Gamma', at points; shape (npts, n, n).

        Gamma = Id - sum_l (i h_l / 2 lambda) sum_k D_l[k] u_l^{-(k+1)}, and
        d/dz u^{-(k+1)} = -(k+1) u^{-(k+1)} / (h sqrt(s^2 - 1)) gives
        Gamma' = sum_l (i / 2 lambda) sum_k (k+1) D_l[k] u_l^{-(k+1)} / sqrt(s_l^2 - 1).
        """
        pts = np.atleast_1d(np.asarray(points))
        if np.iscomplexobj(pts) and np.all(pts.imag == 0.0):
            pts = pts.real
        self._check_endpoints(pts)
        n = self.sys.n
        if derivative:
            out = np.zeros((pts.size, n, n), dtype=complex)
        else:
            out = np.tile(np.eye(n, dtype=complex), (pts.size, 1, 1))
        for l in range(n):
            s = (pts - self.sys.mid[l]) / self.sys.half[l]
            rad = unit_radical(s, side)
            D = self.density[l]
            K = D.shape[2]
            powers = cheb.exterior_powers(s + rad, K)
            if derivative:
                Cl = np.tensordot(D * np.arange(1, K + 1), powers, axes=1) / rad
                out += (0.5j / self.lam) * np.moveaxis(Cl, 2, 0)
            else:
                Cl = np.tensordot(D, powers, axes=1)  # (n,n,P)
                out -= (0.5j * self.sys.half[l] / self.lam) * np.moveaxis(Cl, 2, 0)
        return out

    def det(self, points, side=None):
        return np.linalg.det(self.eval(points, side))

    def _on_cut(self, x, g):
        """(Gamma_+, Gamma_+^{-1}, A = g^t Gamma_+^{-1}) at real points x of I
        with g (n, P) there; shapes (P, n, n), (P, n, n) and (P, n)."""
        gam = self.eval(x, side=ABOVE)
        ginv = np.linalg.inv(gam)
        return gam, ginv, np.einsum("aq,qam->qm", g, ginv)

    def gtinv(self, k, x):
        """(g^t Gamma^{-1})(x) for x in I_k; side-independent, real data real.

        Shape (len(x), n).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self._on_cut(x, kernel_g(self.sys, self.theta, k, x))[2]

    def gtinv_derivative(self, k, x):
        """A'(x) for A = g^t Gamma^{-1} and x in I_k; shape (len(x), n).

        A = g^t Gamma_+^{-1} on the cut, so A' = g'^t Gamma_+^{-1} -
        A Gamma_+' Gamma_+^{-1}, with g' in closed form and Gamma_+' from the
        differentiated exterior series.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        g = kernel_g(self.sys, self.theta, k, x)
        _, ginv, A = self._on_cut(x, g)
        return self._slope(x, g, ginv, A)

    def _slope(self, x, g, ginv, A):
        """A' = g'^t Gamma_+^{-1} - A Gamma_+' Gamma_+^{-1} from g (n, P),
        Gamma_+^{-1} and A at the points x.

        R_a^2 = (x - alpha_a)(x - beta_a) gives R_a' = (x - mid_a) / R_a, so
        g_a' = -g_a (x - mid_a) / ((x - alpha_a)(x - beta_a)).
        """
        sys = self.sys
        dg = -g * (x - sys.mid[:, None]) / ((x - sys.alpha[:, None])
                                            * (x - sys.beta[:, None]))
        dgam = self._series(x, ABOVE, derivative=True)
        return (np.einsum("aq,qam->qm", dg, ginv)
                - (A[:, None, :] @ dgam @ ginv)[:, 0])

    # -- values at the Nystrom nodes -------------------------------------------

    @cached_property
    def _at_nodes(self):
        """(Gamma_+, Gamma_+^{-1}, A = g^t Gamma^{-1}) at the stacked Nystrom nodes.

        Built on first use from one evaluation of Gamma, with g from the
        Nystrom system; shapes (Q, n, n), (Q, n, n) and (Q, n), read-only.
        """
        ns = self.nystrom
        out = self._on_cut(ns.nodes, ns.g_nodes)
        for a in out:
            a.flags.writeable = False
        return out

    def _node_moments(self, pf: PiecewiseFunction, rows):
        """sum_k int_{I_k} pf_k(x) rows_m(x) dx for rows (Q, n) at the nodes."""
        ns = self.nystrom
        return (ns.sqrt_weights * ns.nodal(pf)) @ rows

    # -- validation helpers ---------------------------------------------------

    def jump_matrix(self, x):
        """V(x) = Id - f(x) g^t(x) / lambda at real points inside I.

        Shape (n, n) for scalar x, else (len(x), n, n).
        """
        f = self.f_vector(x)
        g = self.g_vector(x)
        return np.eye(self.sys.n) - f[..., :, None] * g[..., None, :] / self.lam

    def jump_residual(self, points):
        """max over points of || Gamma_+ - Gamma_- V ||_max."""
        x = np.atleast_1d(np.asarray(points, dtype=float))
        gp = self.eval(x, side=ABOVE)
        gm = self.eval(x, side=BELOW)
        return float(np.max(np.abs(gp - gm @ self.jump_matrix(x)), initial=0.0))

    # -- resolvent ------------------------------------------------------------

    def gamma_f(self, z, side=None):
        """(Gamma f)(z) for real z in I; continuous across the cut.

        Shape (n,) for scalar z, else (len(z), n).
        """
        f = self.f_vector(z)
        gz = self.eval(z, side=side if side is not None else ABOVE)
        return np.einsum("...ab,...b->...a", gz, f)

    def resolvent_kernel(self, z, x, limit=False):
        """R(z, x; lambda), finite for z != x and at coincidence if requested.

        Evaluated in the cancellation-free form
        [A(x) - A(z)] (Gamma f)(z) / (2 pi i lambda (z - x)), A = g^t Gamma^{-1},
        which is exact since A(z) (Gamma f)(z) = f^t g (z) = 0.  At z == x
        the limit is -A'(z) (Gamma f)(z) / (2 pi i lambda).
        """
        z, x = float(z), float(x)
        if z == x and not limit:
            raise CoincidenceError(
                "resolvent kernel at z == x: pass limit=True for the limit")
        kz = self.sys.locate(z)
        kx = self.sys.locate(x)
        if kz < 0 or kx < 0:
            raise EndpointError("resolvent kernel wants interior points")
        scale = 2j * np.pi * self.lam
        if z == x:
            return -np.dot(self.gtinv_derivative(kz, z)[0], self.gamma_f(z)) / scale
        az = self.gtinv(kz, z)[0]
        ax = self.gtinv(kx, x)[0]
        gf = self.gamma_f(z)
        return np.dot(ax - az, gf) / (scale * (z - x))

    def resolvent_matrix(self):
        """Dense resolvent sampled like the Nystrom kernel: entries R(z,x) sw.

        Acts on smooth parts, matching self.nystrom.kernel, so that
        (Id + R)(Id - K/lambda) = Id on the grid.
        """
        ns = self.nystrom
        nodes = ns.nodes
        wt = np.concatenate([self.sys.weight(l, x)
                             for l, x in enumerate(ns.grid.nodes)])
        gam, ginv, A = self._at_nodes
        GF = np.einsum("qab,qb->qa", gam, self.f_vector(nodes))
        scale = 2j * np.pi * self.lam
        dz = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(dz, 1.0)
        # row i: (A(x_q) - A(z_i)) . (Gamma f)(z_i) / (2 pi i lambda (z_i - x_q))
        out = (GF @ A.T - np.sum(A * GF, axis=1)[:, None]) / (scale * dz)
        slopes = self._slope(nodes, ns.g_nodes, ginv, A)
        np.fill_diagonal(out, -np.sum(slopes * GF, axis=1) / scale)
        return out * ns.sqrt_weights[None, :] / wt[:, None]

    def apply_resolvent(self, nu: PiecewiseFunction):
        """hat R nu as a sqrt-vanishing PiecewiseFunction, chopped per interval.

        Smooth parts at U nodes z of I_m:
        -(1/(pi lambda)) sum_k sum_q sw p_k(x_q) [(A(x_q) - A(z)) Gamma_m(z)] / (z - x_q),
        with Gamma_m the m-th column (continuous across I_m) and the g/f
        normalization folded into the prefactor.  With C = 1/(z - x)
        and the node columns wA = sw p A, w = sw p the sum splits into
        sum_a Gamma_am(z) (C wA)_a - A(z) Gamma_m(z) (C w): one real Cauchy
        product per target interval.  Its rounding is that of the
        difference A(x_q) - A(z) it replaces, eps / |z - x_q|.  hat R nu is
        analytic off the other intervals: the target count P is the first from
        the largest ``_cross_modes`` with P + 1 coprime to every M_l + 1, so
        no U node cos(pi q / (P + 1)) is a node of the grid.
        """
        ns = self.nystrom
        sys, n = self.sys, self.sys.n
        nmodes = max(_cross_modes(sys, m) for m in range(n))
        while any(gcd(nmodes + 1, size + 1) > 1 for size in ns.grid.sizes):
            nmodes += 1
        x = ns.nodes
        _, _, Ax = self._at_nodes
        weights = ns.sqrt_weights * ns.nodal(nu)
        cols = np.column_stack([weights[:, None] * Ax, weights])  # [wA, w]
        z = np.concatenate([sys.from_unit(m, cheb.cheb2_nodes(nmodes))
                            for m in range(n)])
        gz, _, Az = self._on_cut(z, self.g_vector(z).T)
        owner = np.repeat(np.arange(n), nmodes)
        col = gz[np.arange(z.size), :, owner]  # Gamma_m(z) on I_m, (P, n)
        Acol = np.sum(Az * col, axis=1)
        acc = np.empty(z.size, dtype=complex)
        for m in range(n):
            rows = slice(m * nmodes, (m + 1) * nmodes)
            # one target interval at a time keeps the Cauchy matrix small
            cauchy = np.subtract.outer(z[rows], x)
            np.divide(1.0, cauchy, out=cauchy)
            prod = _real_matmul(cauchy, cols)
            acc[rows] = np.sum(col[rows] * prod[:, :n], axis=1) - Acol[rows] * prod[:, n]
        smooth = np.split(-acc / (np.pi * self.lam), n)
        if nu.field == "real" and not np.iscomplexobj(np.asarray(self.lam)):
            smooth = [np.real(v) for v in smooth]
        coeffs = [cheb.chebU_coeffs(v) for v in smooth]
        return PiecewiseFunction(sys, [c[: cheb.chop(c)] for c in coeffs],
                                 weighted=True)


def build_gamma(sys: IntervalSystem, theta, lam=1.0, size=96) -> GammaSolution:
    """Gamma(z; lambda) on the Nystrom system of (sys, theta, size).

    Gamma depends on the operator and lambda alone, not on any data, so it
    is kept with the cached operator (``solver.memo_at_lambda``): a repeat
    of the operator at the same lambda returns the same read-only Gamma and
    solves nothing.  ``GammaSolution(ns)`` always builds a new one.
    """
    return memo_at_lambda(assemble_K(sys, theta, size=size, lam=lam), GammaSolution)


def invert_via_resolvent(nu: PiecewiseFunction, gamma: GammaSolution):
    """phi = nu + hat R(1) nu through the resolvent representation.

    ``nu`` is ``compute_nu(psi, c, theta)`` and ``gamma`` the Gamma of theta
    at lambda = 1.  Must agree with the direct Nystrom solve; the two paths
    share only nu and the collocation grid, so their discrepancy is a real
    consistency check.
    """
    return nu + gamma.apply_resolvent(nu)


def range_condition_N2(nu: PiecewiseFunction, gamma: GammaSolution):
    """Predicted c from the symmetric-theta second range condition.

    c_m = (theta_mm / pi) int_I nu(x) (g^t Gamma^{-1})_m (x) dx, which on
    interval I_k reads sum_{a != k} theta_ak Gamma^{-1}_{am}(x) nu_k(x)
    / (theta_aa R_a(x)).  Note the integral runs over every interval,
    including I_m itself: the derivation keeps the full nu g^t Gamma^{-1}
    moment, and dropping the own-interval piece leaves an O(1e-4) defect on
    generic data (verified against the resolvent route, which needs no such
    identity).  The moments use the Nystrom grid and its cached A; theta is
    the one Gamma was built for.
    """
    theta = gamma.theta
    if not theta.is_symmetric:
        raise SymmetryError("second range condition in this form needs theta = theta^t")
    _, _, A = gamma._at_nodes
    moments = gamma._node_moments(nu, A)
    return (np.diag(theta.entries) / np.pi) * moments


def range_condition_two_intervals(nu: PiecewiseFunction, gamma: GammaSolution):
    """The two-interval specialization with Gamma^{-1} written as cofactors.

    c_1 = (theta_21/pi) int_{I_2} Gamma_22 nu_2 / (det R_1) dx
        - (theta_11 theta_21 / (theta_22 pi)) int_{I_1} Gamma_21 nu_1 / (det R_2) dx

    and symmetrically for c_2 (det Gamma == 1, kept explicit so this path
    performs the same arithmetic as the general one).  Like N2 it needs
    theta = theta^t; the 1/R factors are read from g at the Nystrom nodes.
    """
    theta = gamma.theta
    if nu.sys.n != 2:
        raise ValueError("the two-interval specialization needs n == 2")
    if not theta.is_symmetric:
        raise SymmetryError("the two-interval specialization needs theta = theta^t")
    ns = gamma.nystrom
    wnu = ns.split(ns.sqrt_weights * ns.nodal(nu))
    gams = ns.split(gamma._at_nodes[0])
    dets = [G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0] for G in gams]
    g = [ns.split(row) for row in ns.g_nodes]  # g[a][k]: g_a on I_k
    out = np.zeros(2, dtype=complex)
    # theta_km / R_m = theta_mm g_m on I_k (theta symmetric), and
    # theta_mm theta_km / (theta_kk R_k) = theta_mm g_k on I_m
    for (m, k) in ((0, 1), (1, 0)):
        cross = np.sum(wnu[k] * (gams[k][:, k, k] / dets[k]) * g[m][k])
        own = np.sum(wnu[m] * (-gams[m][:, k, m] / dets[m]) * g[k][m])
        out[m] = (theta[m, m] / np.pi) * (cross + own)
    return out


def range_condition_J12(nu: PiecewiseFunction, gamma: GammaSolution):
    """Predicted c for general invertible-diagonal theta: c = J_1 + J_2.

    J_1 is the direct moment of nu; J_2 carries the resolvent correction.
    Together they equal the second-condition moment of nu + hat R nu.
    """
    corr = gamma.apply_resolvent(nu)
    j1 = _range2_moments(gamma.theta, nu)
    j2 = _range2_moments(gamma.theta, corr)
    return j1 + j2


def range_check_L1_variant(psi: PiecewiseFunction, c, nu: PiecewiseFunction,
                           gamma: GammaSolution):
    """Residuals of the integrable-data range identity, per component.

    For R^{-1} psi in L^1 the second condition collapses to

      i int_{I_m} psi_m/R_{m+} dx + theta_mm sum_{k != m} int_{I_k}
        [R Theta_d^{-1} Theta_o Theta_d^{-1} R^{-1} Gamma^{-1}]_{km}
        H_k[psi_k / R_{k+}] dx  =  0,

    and for c[psi] = 0 to the vanishing of the plain Gamma-weighted moments
    of H_k^{-1}[psi_k].  ``c`` and ``nu`` are ``compute_c(psi)`` and
    ``compute_nu(psi, c, gamma.theta)``.  Returns dict with 'integrable' and
    (when applicable) 'zero_shift' residual vectors.
    """
    theta = gamma.theta
    # on I_k the bracket is i w_k chain_m with chain_m = sum_{a != k}
    # theta_ka Gamma^{-1}_am / (theta_kk theta_aa R_a), and H_k[psi_k/R_{k+}]
    # = i theta_kk nu_k; their product is -w_k nu_k n_m with n_m = theta_kk
    # chain_m, the zero-shift integrand.  The k-sum runs over every interval
    # (the own-interval moment is part of the nu g^t Gamma^{-1} integral; see
    # range_condition_N2)
    _, ginv, _ = gamma._at_nodes
    ns = gamma.nystrom
    rows = np.einsum("aq,qam->qm", _stacked_g(ns.sys, theta.entries.T, ns.grid), ginv)
    resid_zero = gamma._node_moments(nu, rows)
    resid_int = np.pi * c - np.diag(theta.entries) * resid_zero  # i int psi_m/R_{m+} = pi c_m
    result = {"integrable": resid_int}
    if np.max(np.abs(c)) <= 1e-10 * (1.0 + psi.norm2()):
        result["zero_shift"] = resid_zero
    else:
        result["zero_shift"] = None
        result["zero_shift_raw"] = resid_zero
    return result
