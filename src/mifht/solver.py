"""The vector problem chi Theta H phi = psi for invertible-diagonal Theta.

Splitting Theta into diagonal and off-diagonal parts reduces the system to
a second-kind equation (Id - K) phi = nu with

    nu   = per-interval inversion of (psi - c[psi]) / theta_jj,
    K    = integral operator with the real bounded kernel
           K(z, x) = theta_jk w_j(z) / (pi theta_jj R_j(x) (x - z))
                   = w_j(z) g_j(x) / (pi (x - z)),
           z in I_j, x in I_k, k != j,

supported off the block diagonal; g is the vector of the integrable
kernel (``kernel_g``), from which the matrix is built.  The solver
collocates on Gauss nodes of the second-kind Chebyshev family so the sqrt
weight of the unknown is absorbed exactly: the linear system acts on
smooth parts and converges geometrically for analytic data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import chebyshev as cheb
from .chebyshev import PiecewiseFunction
from .errors import (
    DegenerateDiagonalError,
    NearSingularError,
    RangeError,
    ZeroLambdaError,
)
from .intervals import IntervalSystem, joukowski_exterior, radical_eval, unit_radical
from .quadrature import QuadratureGrid, chebyshev2_grid, legendre_grid
from .single import _invert_coeffs, fht_forward, range_scan

SPD = "spd-symmetric"
SYMMETRIC_INVERTIBLE = "symmetric-invertible-diagonal"
INVERTIBLE_DIAGONAL = "invertible-diagonal"
UNIFORM = "uniform"
DEGENERATE = "degenerate-diagonal"


class ThetaMatrix:
    """Real n x n interaction matrix with its classification and d/o split."""

    def __init__(self, entries):
        t = np.asarray(entries, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("theta must be a square matrix")
        self.entries = t
        self.n = t.shape[0]
        self.diag = np.diag(np.diag(t))
        self.off = t - self.diag
        self.classification = self._classify()

    def _classify(self):
        t = self.entries
        if np.all(t == 1.0):
            return UNIFORM
        if np.any(np.diag(t) == 0.0):
            return DEGENERATE
        if np.allclose(t, t.T, rtol=1e-13, atol=0.0):
            if np.all(np.linalg.eigvalsh(0.5 * (t + t.T)) > 0.0):
                return SPD
            return SYMMETRIC_INVERTIBLE
        return INVERTIBLE_DIAGONAL

    @property
    def is_symmetric(self):
        return self.classification in (SPD, SYMMETRIC_INVERTIBLE) or (
            self.classification == UNIFORM)

    def require_invertible_diagonal(self):
        if np.any(np.diag(self.entries) == 0.0):
            raise DegenerateDiagonalError(
                "theta has a zero diagonal entry; degenerate-diagonal systems "
                "need analytic continuation of the data and are out of scope")

    def __getitem__(self, idx):
        return self.entries[idx]

    def __repr__(self):
        return f"ThetaMatrix({self.entries.tolist()}, {self.classification})"


def as_theta(theta) -> ThetaMatrix:
    return theta if isinstance(theta, ThetaMatrix) else ThetaMatrix(theta)


# ---------------------------------------------------------------------------
# forward map and the scalar reductions


def forward_map(theta, phi: PiecewiseFunction, nmodes=None) -> PiecewiseFunction:
    """psi_m = sum_k theta_mk (H_k phi_k) restricted to I_m.

    The own-interval term is the PV transform; cross terms are ordinary
    Cauchy integrals evaluated from the spectral representation.
    """
    theta = as_theta(theta)
    sys = phi.sys
    if theta.n != sys.n:
        raise ValueError("theta size does not match the interval system")
    if nmodes is None:
        nmodes = max(c.shape[0] for c in phi.coeffs) + 2
    values = []
    for m in range(sys.n):
        x = sys.from_unit(m, cheb.cheb1_nodes(nmodes))
        acc = np.zeros(nmodes, dtype=complex)
        for k in range(sys.n):
            if theta[m, k] == 0.0:
                continue
            acc = acc + theta[m, k] * fht_forward(phi, x, j=k)
        values.append(acc)
    field = "real" if phi.field == "real" else "complex"
    if field == "real":
        values = [np.real(v) for v in values]
    return PiecewiseFunction.from_smooth_values(sys, values, weighted=False)


def compute_c(psi: PiecewiseFunction):
    """The unique constants c_j with int (psi_j - c_j)/R_{j+} = 0.

    Component-wise arcsine averages: c_j = (1/pi) int psi_j(x) dx / w_j(x).
    """
    out = []
    for j in range(psi.sys.n):
        out.append(range_scan(psi, j).c)
    arr = np.asarray(out)
    if psi.field == "real":
        arr = np.real(arr).astype(float)
    return arr


def compute_nu(psi: PiecewiseFunction, c=None, theta=None) -> PiecewiseFunction:
    """nu_j = H_j^{-1}[(psi_j - c_j) / theta_jj], a sqrt-vanishing function."""
    theta = as_theta(theta if theta is not None else np.eye(psi.sys.n))
    theta.require_invertible_diagonal()
    if c is None:
        c = compute_c(psi)
    coeffs = []
    for j in range(psi.sys.n):
        rd = range_scan(psi, j)
        m0_eff = rd.m0 + 1j * np.pi * c[j]
        tol = 1e-6 * (1.0 + psi.piece_norm2(j))
        if abs(m0_eff) > tol:
            raise RangeError(
                f"(psi_{j} - c_{j}) fails the range moment: |m0| = {abs(m0_eff):.3e}")
        coeffs.append(_invert_coeffs(psi, j, presubtract=c[j]) / theta[j, j])
    field = "real" if psi.field == "real" else "complex"
    if field == "real":
        coeffs = [np.real(a) for a in coeffs]
    return PiecewiseFunction(psi.sys, coeffs, weighted=True, field=field)


# ---------------------------------------------------------------------------
# Nystrom discretization of Id - K/lambda


def kernel_g(sys: IntervalSystem, theta, k, x):
    """g(x) of the integrable kernel at points x inside I_k; shape (n, len(x)).

    g_a(x) = theta_ak / (theta_aa R_a(x)) for a != k, and row k is zero.
    ``theta`` is a ThetaMatrix or an array; the transpose gives g of theta^t.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((sys.n, x.size))
    for a in range(sys.n):
        if a != k:
            out[a] = theta[a, k] / (theta[a, a] * radical_eval(sys, a, x).real)
    return out


def _stacked_g(sys: IntervalSystem, theta, grid: QuadratureGrid):
    """kernel_g at the stacked nodes of a grid; shape (n, total nodes)."""
    return np.hstack([kernel_g(sys, theta, k, x) for k, x in enumerate(grid.nodes)])


@dataclass
class NystromSystem:
    """Dense collocation of Id - K/lambda on per-interval Gauss grids.

    The unknowns are smooth parts: phi = w_j * p on I_j, and the matrix acts
    on the stacked node values of p.  ``kernel`` is the K-part alone (zero
    diagonal blocks), ``matrix`` = Id - kernel/lambda.  ``g_nodes`` holds g
    at the stacked nodes, so block (j, k) of ``kernel`` is
    g_j(x) sw(x) / (pi (x - z)).
    """

    sys: IntervalSystem
    theta: ThetaMatrix
    grid: QuadratureGrid
    lam: complex
    matrix: np.ndarray = field(repr=False)
    kernel: np.ndarray = field(repr=False)
    offsets: np.ndarray
    g_nodes: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.matrix.shape[0]

    def stack(self, per_interval_values):
        return np.concatenate([np.asarray(v) for v in per_interval_values])

    def split(self, flat):
        return [flat[self.offsets[j]: self.offsets[j + 1]]
                for j in range(self.sys.n)]

    def kernel_apply_smooth(self, node_values, j, targets):
        """Smooth part of (K v)(z) for z = targets in I_j, v given at nodes.

        ``node_values`` is one vector (N,) or a block (N, r) of columns;
        the result has shape (len(targets),) or (len(targets), r).  Each
        off-diagonal block is one real Cauchy-matrix product.
        """
        vals = np.asarray(node_values)
        z = np.atleast_1d(np.asarray(targets, dtype=float))
        acc = np.zeros(z.shape + vals.shape[1:], dtype=np.result_type(vals, float))
        for k in range(self.sys.n):
            if k == j:
                continue
            own = slice(self.offsets[k], self.offsets[k + 1])
            x = self.grid.nodes[k]
            scale = self.g_nodes[j, own] * self.grid.sqrt_weights[k] / np.pi
            cauchy = 1.0 / (x[None, :] - z[:, None])
            acc += _real_matmul(cauchy, (scale * vals[own].T).T)
        return acc


def _real_matmul(a, b):
    """a @ b for a matrix a and a vector or block b; a real a stays real.

    A complex b meets a real a as its interleaved real view, one real
    product instead of a cast of a to complex.
    """
    if np.iscomplexobj(a) or not np.iscomplexobj(b):
        return a @ b
    b2 = np.ascontiguousarray(b).reshape(b.shape[0], -1)
    out = a @ b2.view(np.float64)
    return out.view(complex).reshape(a.shape[:1] + b.shape[1:])


def assemble_K(sys: IntervalSystem, theta, lam=1.0, size=96) -> NystromSystem:
    """Build the dense (Id - K/lambda) collocation matrix.

    Zero diagonal blocks and real entries for real lambda are structural;
    both are asserted by the unit tests rather than here.
    """
    theta = as_theta(theta)
    theta.require_invertible_diagonal()
    if lam == 0:
        raise ZeroLambdaError("lambda must be nonzero")
    grid = chebyshev2_grid(sys, size)
    sizes = np.array([len(x) for x in grid.nodes])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = offsets[-1]

    g_nodes = _stacked_g(sys, theta, grid)
    gsw = g_nodes * np.concatenate(grid.sqrt_weights) / np.pi
    kern = np.zeros((total, total))
    for j in range(sys.n):
        zj = grid.nodes[j]
        rows = slice(offsets[j], offsets[j + 1])
        for k in range(sys.n):
            if k == j:
                continue
            cols = slice(offsets[k], offsets[k + 1])
            # g_j(x) sw / (pi (x - z)), written into the block in place
            block = kern[rows, cols]
            np.subtract(grid.nodes[k][None, :], zj[:, None], out=block)
            np.divide(gsw[j, cols], block, out=block)

    complex_lam = np.iscomplexobj(np.asarray(lam)) and np.imag(lam) != 0
    matrix = np.divide(kern, -(lam if complex_lam else np.real(lam)))  # -K/lambda
    matrix.flat[:: total + 1] += 1.0
    return NystromSystem(sys=sys, theta=theta, grid=grid, lam=lam,
                         matrix=matrix, kernel=kern, offsets=offsets,
                         g_nodes=g_nodes)


def _solve_refined(A, b):
    """A x = b by LU with one step of iterative refinement; A is not modified.

    The LU is of A^T, which for a C-ordered A is the Fortran-ordered array
    LAPACK works on, so it is copied without a transpose; ``trans=1`` then
    solves with A.  A real A meets a complex b as a complex LU of its cast,
    factored in place, with the refinement residual from real products on
    A itself.
    """
    if np.iscomplexobj(b) and not np.iscomplexobj(A):
        lu = scipy.linalg.lu_factor(A.T.astype(complex), overwrite_a=True)
    else:
        lu = scipy.linalg.lu_factor(A.T)
    x = scipy.linalg.lu_solve(lu, b, trans=1)
    x = x + scipy.linalg.lu_solve(lu, b - _real_matmul(A, x), trans=1)
    return x


# relative Frobenius accuracy of the low-rank sketch of K, and its block size
SKETCH_TOL = 1e-14
SKETCH_BLOCK = 32
# sigma_min / sigma_max below which solve_phi calls Id - K singular
SIGMA_FLOOR = 1e-10


def extreme_singular_values(ns: NystromSystem):
    """(sigma_min, sigma_max, err) of ``ns.matrix`` = Id - K/lambda.

    K has zero diagonal blocks and smooth off-diagonal blocks, so it has
    low numerical rank.  A randomized range finder (Halko-Martinsson-Tropp,
    SIAM Rev. 2011) with a fixed seed grows an orthonormal Q, SKETCH_BLOCK
    columns at a time, until ``err = ||K - Q W||_F <= SKETCH_TOL max(1,
    ||K||_F)`` with W = Q^H K, or until Q spans the whole space.  The rows
    of W are the products block^H (K - Q Q^H K) that deflate the residual.

    Split W^H = Q (W Q)^H + X with X orthogonal to Q and X = V R its QR
    factorization.  On the span P of [Q, V] the operator Id - Q W acts as
    B = [[I - W Q, -R^H], [0, I]], and as the identity on the complement,
    so its singular values are those of B plus 1 repeated N - dim P times.
    B depends on V only through R^H R = X^H X, so a rank-deficient X needs
    no care.  When Q does not span the whole space, B fixes the null space
    of [W Q, R^H] (k equations in 2k unknowns), so its extremes already
    bracket 1; when it does, B = I - W Q.  By Weyl's inequality each
    extreme differs from the dense value by at most err.
    """
    A = ns.kernel  # real; K = A / lam
    N = A.shape[0]
    lam = ns.lam if np.iscomplexobj(ns.matrix) else float(np.real(ns.lam))
    target = SKETCH_TOL * max(abs(lam), np.linalg.norm(A))
    rng = np.random.default_rng(0)
    Q = np.empty((N, 0))
    rows = []  # block^T (A - Q Q^T A) = block^T A, the rows of Q^T A
    resid = A  # the first deflation writes a new array, later ones overwrite it
    while True:
        k = Q.shape[1]
        Y = resid @ rng.standard_normal((N, min(SKETCH_BLOCK, N - k)))
        # one Householder QR of [Q, Y] keeps the new block orthogonal to Q
        # even where Y is rank deficient
        block = np.linalg.qr(np.hstack([Q, Y]))[0][:, k:]
        Q = np.hstack([Q, block])
        rows.append(block.T @ resid)
        # resid - block rows, as its transpose: Fortran order for BLAS, so
        # the first call copies A contiguously and later calls work in place
        resid = scipy.linalg.blas.dgemm(-1.0, rows[-1].T, block.T, 1.0, resid.T,
                                        overwrite_c=resid is not A).T
        err = np.linalg.norm(resid)
        if err <= target or Q.shape[1] == N:
            break
    W = np.vstack(rows) / lam
    WQ = W @ Q
    k = Q.shape[1]
    if k == N:
        B = np.eye(N) - WQ
    else:
        R = np.linalg.qr(W.conj().T - Q @ WQ.conj().T, mode="r")
        B = np.eye(2 * k, dtype=W.dtype)
        B[:k, :k] -= WQ
        B[:k, k:] -= R.conj().T
    svals = np.linalg.svd(B, compute_uv=False)
    return float(svals[-1]), float(svals[0]), float(err / abs(lam))


# ---------------------------------------------------------------------------
# the direct solver


@dataclass
class SolveResult:
    phi: PiecewiseFunction
    c: np.ndarray
    nu: PiecewiseFunction
    nystrom: NystromSystem
    diagnostics: dict


def solve_phi(theta, psi: PiecewiseFunction, size=96, nmodes=None) -> SolveResult:
    """Nystrom solution of (Id - K) phi = nu with diagnostics.

    phi is sampled on ``nmodes`` U nodes per interval and each interval's
    series is kept to its standard chop at eps.  Diagnostics: linear-system
    residual, smallest singular value, and the second range-condition
    residual of the recovered solution.  Id - K is invertible by theorem for
    SPD theta and for the all-ones theta (classification ``uniform``); for
    the other classifications with a nonzero off-diagonal part its
    invertibility is certified numerically only, and a warning records that.
    """
    theta = as_theta(theta)
    theta.require_invertible_diagonal()
    sys = psi.sys
    c = compute_c(psi)
    nu = compute_nu(psi, c, theta)
    ns = assemble_K(sys, theta, size=size, lam=1.0)

    rhs = ns.stack([cheb.chebU_nodal(nu.coeffs[j], m)
                    for j, m in enumerate(ns.grid.sizes)])
    real_data = psi.field == "real"
    if real_data:
        rhs = rhs.real

    sigma_min, sigma_max, _ = extreme_singular_values(ns)
    if sigma_min < SIGMA_FLOOR * sigma_max:
        raise NearSingularError(
            f"Id - K numerically singular: sigma_min = {sigma_min:.3e}")
    if real_data:
        sol = _solve_refined(ns.matrix, rhs)
    else:  # as real and imaginary columns, so the real matrix gets a real LU
        sol = _solve_refined(ns.matrix, np.column_stack([rhs.real, rhs.imag]))
        sol = sol[:, 0] + 1j * sol[:, 1]
    residual = float(np.max(np.abs(ns.matrix @ sol - rhs)) / (1.0 + np.max(np.abs(rhs))))

    warn = None
    if theta.classification not in (SPD, UNIFORM) and np.any(theta.off):
        warn = ("theta is not symmetric positive definite: invertibility of "
                "Id - K is certified numerically only (sigma_min = %.3e)" % sigma_min)
        warnings.warn(warn, stacklevel=2)

    if nmodes is None:
        nmodes = max(a.shape[0] for a in nu.coeffs)
    smooth = []
    for j in range(sys.n):
        z = sys.from_unit(j, cheb.cheb2_nodes(nmodes))
        p = cheb.chebU_nodal(nu.coeffs[j], nmodes) + ns.kernel_apply_smooth(
            sol, j, z) / ns.lam
        smooth.append(np.real(p) if real_data else p)
    coeffs = [cheb.chebU_coeffs(v) for v in smooth]
    phi = PiecewiseFunction(sys, [a[: cheb.chop(a)] for a in coeffs], weighted=True)

    diag = {
        "residual": residual,
        "sigma_min": sigma_min,
        "range2_residual": residual_range2(theta, phi, c),
        "warning": warn,
    }
    return SolveResult(phi=phi, c=c, nu=nu, nystrom=ns, diagnostics=diag)


def _piece_rule(pf: PiecewiseFunction, k, size):
    """Nodes x and weights w on I_k with sum w h(x) = int_{I_k} pf_k(y) h(y) dy.

    The Gauss rule of the piece's weight class, with ``size`` nodes.
    """
    sub = IntervalSystem([pf.sys.endpoints[k]])
    if pf.weighted:
        grid = chebyshev2_grid(sub, size)
        return grid.nodes[0], grid.sqrt_weights[0] * cheb.chebU_nodal(pf.coeffs[k], size)
    grid = legendre_grid(sub, size)
    return grid.nodes[0], grid.weights[0] * pf.piece_values(k, grid.nodes[0])


def _range2_moments(theta, phi: PiecewiseFunction):
    """(1/pi) sum_{k != m} theta_mk int_{I_k} phi_k / R_m dy, per m.

    On I_k, theta_mk / R_m = theta_mm g_m, so each interval takes one rule
    against every row of g, sized by ``_cross_nodes`` for the nearest other
    interval (g_m is analytic off I_m).
    """
    theta = as_theta(theta)
    sys = phi.sys
    out = np.zeros(sys.n, dtype=complex)
    if sys.n == 1:
        return out
    for k in range(sys.n):
        size = max(_cross_nodes(sys, k, m, phi.coeffs[k].shape[0])
                   for m in range(sys.n) if m != k)
        x, w = _piece_rule(phi, k, size)
        out += kernel_g(sys, theta, k, x) @ w
    return np.diag(theta.entries) * out / np.pi


def residual_range2(theta, phi: PiecewiseFunction, c):
    """r_m = (1/pi) sum_{k != m} theta_mk int_{I_k} phi_k / R_m dy  -  c_m.

    The second necessary range condition, evaluable from any candidate
    solution without the Riemann-Hilbert machinery.
    """
    out = _range2_moments(theta, phi) - c
    if phi.field == "real":
        out = np.real(out)
    return out


# ---------------------------------------------------------------------------
# the bilinear form J and injectivity diagnostics


def _cross_nodes(sys: IntervalSystem, j, k, modes):
    """Gauss-Chebyshev-2 size on I_j that resolves (H_k f_k)' times a smooth part.

    (H_k f_k)' is analytic off I_k, so on I_j it is analytic inside the
    Bernstein ellipse through the nearest endpoint of I_k, whose parameter
    is rho = |u_j| there; N nodes leave an error near rho^(-2N) once the
    ``modes`` of the paired smooth part are spent.
    """
    edge = sys.alpha[k] if k > j else sys.beta[k]
    rho = abs(joukowski_exterior(sys.to_unit(j, edge)))
    digits = -np.log(np.finfo(float).eps) / np.log(rho)
    return int(np.ceil(0.5 * (digits + modes))) + 2


def _j_form(theta, fs, gs):
    """J(f_p, g_p) for each pair, from the weighted-U coefficients.

    J(f, g) = -sum_jk theta_jk int_{I_j} conj(g_j) (H_k f_k)' dx, the
    Dirichlet form of (1/2pi) sum_jk theta_jk int |xi| f~_k conj(g~_j) dxi.
    With f_k = w_k sum_n a_n U_n and g_j = w_j sum_m b_m U_m on the unit
    variable s of each interval:

    * j == k: (H_k f_k)' = -sum_n (n+1) a_n U_n(s) on the cut
      (d/ds T_{n+1} = (n+1) U_n), so U-orthogonality leaves exactly
      theta_kk (pi h_k^2 / 2) sum_n (n+1) a_n conj(b_n);
    * j != k: (H_k f_k)'(x) = sum_n (n+1) a_n u_k^{-(n+1)} / sqrt(s_k^2 - 1),
      smooth on I_j, integrated against g_j by Gauss-Chebyshev-2.
    """
    theta = as_theta(theta)
    sys = fs[0].sys
    if not all(pf.weighted for pf in (*fs, *gs)):
        raise ValueError("J is defined here for sqrt-vanishing (weighted) functions")

    def stacked(pfs, j):  # (pairs, modes) zero-padded coefficients on I_j
        out = np.zeros((len(pfs), max(pf.coeffs[j].shape[0] for pf in pfs)),
                       dtype=np.result_type(*(pf.coeffs[j] for pf in pfs)))
        for p, pf in enumerate(pfs):
            out[p, : pf.coeffs[j].shape[0]] = pf.coeffs[j]
        return out

    out = np.zeros(len(fs), dtype=complex)
    for k in range(sys.n):
        da = stacked(fs, k)
        da = da * np.arange(1, da.shape[1] + 1)  # (n+1) a_n
        for j in range(sys.n):
            if theta[j, k] == 0.0:
                continue
            b = stacked(gs, j)
            if j == k:
                m = min(da.shape[1], b.shape[1])
                out += theta[k, k] * 0.5 * np.pi * sys.half[k] ** 2 * np.sum(
                    da[:, :m] * np.conj(b[:, :m]), axis=1)
                continue
            grid = chebyshev2_grid(IntervalSystem([sys.endpoints[j]]),
                                   _cross_nodes(sys, j, k, b.shape[1]))
            x = grid.nodes[0]
            s = sys.to_unit(k, x)
            powers = cheb.exterior_powers(joukowski_exterior(s), da.shape[1])
            deriv = (da @ powers) / unit_radical(s)
            g = cheb.chebU_nodal(b, x.size)
            out -= theta[j, k] * (np.conj(g) * deriv) @ grid.sqrt_weights[0]
    return np.real(out)


def bilinear_form_J(theta, f: PiecewiseFunction, g=None):
    """J(f, g) = (1/2pi) sum_jk theta_jk int |xi| f~_k(xi) conj(g~_j(xi)) dxi.

    Fourier convention f~(xi) = int f(x) e^{i x xi} dx; evaluated exactly
    in coefficient space, see ``_j_form``.
    """
    return float(_j_form(theta, [f], [f if g is None else g])[0])


def bilinear_form_J_many(theta, fs):
    """J(f, f) for each f in fs."""
    fs = list(fs)
    return _j_form(theta, fs, fs)


def random_sqrt_vanishing(sys: IntervalSystem, modes=24, seed=0, decay=0.7,
                          rng=None) -> PiecewiseFunction:
    """Random real sqrt-vanishing function with geometrically decaying modes."""
    rng = np.random.default_rng(seed) if rng is None else rng
    coeffs = [rng.standard_normal(modes) * decay ** np.arange(modes)
              for _ in range(sys.n)]
    return PiecewiseFunction(sys, coeffs, weighted=True, field="real")


def injectivity_report(theta, sys: IntervalSystem, size=96, n_samples=20,
                       seed=1234):
    """Numerical injectivity evidence at the chosen discretization.

    Reports the smallest singular value of Id - K and the minimum of
    J(f, f)/||f||^2 over random sqrt-vanishing samples; non-SPD matrices get
    a recorded caveat since positivity of J is only guaranteed for SPD.
    """
    theta = as_theta(theta)
    theta.require_invertible_diagonal()
    ns = assemble_K(sys, theta, size=size, lam=1.0)
    sigma_min, sigma_max, _ = extreme_singular_values(ns)
    rng = np.random.default_rng(seed)
    fs = [random_sqrt_vanishing(sys, modes=16, rng=rng) for _ in range(n_samples)]
    jvals = bilinear_form_J_many(theta, fs)
    norms = np.array([f.norm2() ** 2 for f in fs])
    return {
        "sigma_min": sigma_min,
        "sigma_max": sigma_max,
        "j_over_norm_min": float(np.min(jvals / norms)),
        "j_samples": jvals,
        "spd": theta.classification == SPD,
        "caveat": None if theta.classification == SPD else
        "theta is not SPD; J-positivity and invertibility are not guaranteed",
    }
