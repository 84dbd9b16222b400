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

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import chebyshev as cheb
from .chebyshev import PiecewiseFunction
from .errors import (
    ConvergenceError,
    DegenerateDiagonalError,
    NearSingularError,
    NonFiniteError,
    RangeError,
    ZeroLambdaError,
)
from .intervals import IntervalSystem, joukowski_exterior, radical_eval, unit_radical
from .quadrature import QuadratureGrid, _sizes, chebyshev2_grid
from .single import _invert_coeffs, fht_forward, range_scan

SPD = "spd-symmetric"
SYMMETRIC_INVERTIBLE = "symmetric-invertible-diagonal"
INVERTIBLE_DIAGONAL = "invertible-diagonal"
UNIFORM = "uniform"
DEGENERATE = "degenerate-diagonal"


class ThetaMatrix:
    """Real n x n interaction matrix, its classification and d/o split, read-only."""

    def __init__(self, entries):
        t = np.array(entries, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("theta must be a square matrix")
        if not np.all(np.isfinite(t)):
            raise NonFiniteError("theta entries must be finite")
        self.entries = t
        self.n = t.shape[0]
        self.diag = np.diag(np.diag(t))
        self.off = t - self.diag
        for a in (t, self.diag, self.off):
            a.flags.writeable = False
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
    if theta.n != psi.sys.n:
        raise ValueError("theta size does not match the interval system")
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

    The unknowns are smooth parts: phi = w_j * p on I_j, and the operator
    acts on the stacked node values of p.  ``kernel`` is the K-part alone
    (zero diagonal blocks), read-only and the only N x N array held;
    ``apply`` gives (Id - K/lambda) x from it, and ``matrix`` builds
    Id - K/lambda on each access.  ``nodes``, ``sqrt_weights`` and
    ``g_nodes`` hold the grid and g at the stacked nodes, so block (j, k) of
    ``kernel`` is g_j(x) sw(x) / (pi (x - z)).  ``lam`` is real unless its
    imaginary part is nonzero, so a real K keeps a real Id - K/lambda.
    ``basis`` Q (orthonormal, block diagonal), ``rows`` W and ``sketch_err``
    >= ||K - Q W||_F are the lambda-free sketch of ``kernel``, made once by
    ``_assemble`` from the kernel's exterior Chebyshev expansion
    (``_sketch``).
    """

    sys: IntervalSystem
    theta: ThetaMatrix
    grid: QuadratureGrid
    lam: complex
    kernel: np.ndarray = field(repr=False)
    offsets: np.ndarray
    nodes: np.ndarray = field(repr=False)
    sqrt_weights: np.ndarray = field(repr=False)
    g_nodes: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    sketch_err: float

    @property
    def size(self):
        return self.kernel.shape[0]

    @property
    def sketch(self):
        """Rank and Frobenius error of the lambda-free sketch of K."""
        return {"rank": self.basis.shape[1], "err": self.sketch_err}

    @property
    def matrix(self):
        """Id - K/lambda as a fresh array, for tests and diagnostics."""
        return _identity_minus(self.kernel, self.lam,
                               np.result_type(self.kernel, self.lam))

    def apply(self, x):
        """(Id - K/lambda) x for a vector or a block of columns x."""
        return x - _real_matmul(self.kernel, x) / self.lam

    def split(self, flat):
        return [flat[self.offsets[j]: self.offsets[j + 1]]
                for j in range(self.sys.n)]

    def nodal(self, pf: PiecewiseFunction):
        """Smooth parts of a sqrt-vanishing function at the stacked nodes."""
        if not pf.weighted:
            raise ValueError("nodal values are defined for weighted functions only")
        return np.concatenate([cheb.chebU_nodal(pf.coeffs[k], m)
                               for k, m in enumerate(self.grid.sizes)])

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
            scale = self.g_nodes[j, own] * self.sqrt_weights[own] / np.pi
            cauchy = 1.0 / (self.nodes[own][None, :] - z[:, None])
            acc += _real_matmul(cauchy, (scale * vals[own].T).T)
        return acc


def _identity_minus(kernel, lam, dtype):
    """Id - kernel/lam in a fresh C-ordered array of the given dtype.

    A real quotient cast to complex is written into the real part of the
    complex array, so it equals the cast of the real array bit for bit.
    """
    out = np.empty(kernel.shape, dtype=dtype)
    if np.iscomplexobj(out) and not np.iscomplexobj(np.asarray(lam)):
        np.divide(kernel, -lam, out=out.real)
        out.imag = 0.0
    else:
        np.divide(kernel, -lam, out=out)
    out.flat[:: kernel.shape[0] + 1] += 1.0
    return out


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


@dataclass
class _CachedOperator:
    """The last operator assembled and sketched, and the one value built on
    it at one lambda (``memo_at_lambda``)."""

    operator: NystromSystem
    lam: complex | None = None
    value: object = None


# at most one entry, keyed by (endpoints, theta, sizes)
_OPERATOR_CACHE = {}


def clear_kernel_cache():
    """Forget the cached operator and the value kept with it (its Gamma)."""
    _OPERATOR_CACHE.clear()


def assemble_K(sys: IntervalSystem, theta, lam=1.0, size=96) -> NystromSystem:
    """Build the dense collocation of K for Id - K/lambda.

    K and its sketch do not depend on lambda, so the last operator is cached:
    a repeat of (sys, theta, grid sizes) shares its read-only ``kernel``,
    grid, ``g_nodes`` and sketch under its own lambda, made real unless its
    imaginary part is nonzero.  A new operator evicts the old one, and the
    value ``memo_at_lambda`` kept with it, before it is built.  Zero
    diagonal blocks and real entries are structural; both are asserted by
    the unit tests rather than here.
    """
    theta = as_theta(theta)
    theta.require_invertible_diagonal()
    if theta.n != sys.n:
        raise ValueError("theta size does not match the interval system")
    if lam == 0:
        raise ZeroLambdaError("lambda must be nonzero")
    key = (sys.endpoints.tobytes(), theta.entries.tobytes(), tuple(_sizes(sys, size)))
    if key not in _OPERATOR_CACHE:
        _OPERATOR_CACHE.clear()
        _OPERATOR_CACHE[key] = _CachedOperator(_assemble(sys, theta, size))
    lam = lam if np.imag(lam) != 0 else float(np.real(lam))
    return replace(_OPERATOR_CACHE[key].operator, sys=sys, theta=theta, lam=lam)


def memo_at_lambda(ns: NystromSystem, build):
    """build(ns), kept with the cached operator of ns for ns's lambda.

    One slot per operator: a repeat of the operator at the same lambda
    returns the kept value, another lambda drops it before building, so a
    lambda sweep holds one value.  The slot lives in the cache entry, not on
    ns, so a value that holds ns forms no cycle, and a new operator frees the
    old kernel and its value together.  A system whose kernel is no longer
    the cached one is built and not kept.
    """
    entry = next(iter(_OPERATOR_CACHE.values()), None)
    if entry is None or entry.operator.kernel is not ns.kernel:
        return build(ns)
    if entry.value is None or entry.lam != ns.lam:
        entry.value = None
        entry.value, entry.lam = build(ns), ns.lam
    return entry.value


def _node_angles(m):
    """theta of the m Chebyshev-2 nodes s = cos(theta), in ascending s."""
    return cheb._cheb2_theta(m)[::-1].copy()


def _chebyshev_T(m, p):
    """T_0 .. T_(p-1) at the m Chebyshev-2 nodes, an m x p matrix."""
    return np.cos(np.outer(_node_angles(m), np.arange(p)))


def _assemble(sys: IntervalSystem, theta, size) -> NystromSystem:
    """K on the Chebyshev-2 grid of ``size`` and its sketch.

    Block row j is written in the unit coordinates of I_j, as
    g_j(x) sw / (pi h_j (sigma - s)) with s = cos(theta) of the nodes, the
    arithmetic the sketch's expansion of the same row uses, so the two
    differ by truncation and not by the rounding of x - z near a small gap.
    """
    grid = chebyshev2_grid(sys, size)
    offsets = np.concatenate([[0], np.cumsum(grid.sizes)])

    nodes = np.concatenate(grid.nodes)
    sqrt_weights = np.concatenate(grid.sqrt_weights)
    g_nodes = _stacked_g(sys, theta, grid)
    gsw = g_nodes * sqrt_weights / np.pi
    kern = np.zeros((offsets[-1], offsets[-1]))
    for j, m in enumerate(grid.sizes):
        s = np.cos(_node_angles(m))
        rows = slice(offsets[j], offsets[j + 1])
        for k in range(sys.n):
            if k == j:
                continue
            cols = slice(offsets[k], offsets[k + 1])
            # g_j(x) sw / (pi h_j (sigma - s)), written into the block in place
            block = kern[rows, cols]
            np.subtract(sys.to_unit(j, nodes[cols])[None, :], s[:, None], out=block)
            np.divide(gsw[j, cols] / sys.half[j], block, out=block)
    kern.flags.writeable = False
    q, w, err = _sketch(sys, grid, offsets, gsw, kern)
    return NystromSystem(sys=sys, theta=theta, grid=grid, lam=1.0,
                         kernel=kern, offsets=offsets, nodes=nodes,
                         sqrt_weights=sqrt_weights, g_nodes=g_nodes,
                         basis=q, rows=w, sketch_err=err)


def _solve_refined(ns: NystromSystem, b, kappa):
    """(x, solve) for (Id - K/lambda) x = b: a single-precision LU refined in double.

    Id - K/lambda goes from the float64 K straight into a fresh buffer,
    complex when b or lambda is, single precision when kappa 2^-24 <= 1e-2
    (SINGLE_KAPPA) and double above; LAPACK factors its transpose, the
    Fortran-ordered view of that buffer, in place, and ``trans=1`` solves
    with the matrix itself.  Each step solves for a correction from the
    residual b - (Id - K/lambda) x, taken in double by ``ns.apply`` and cast
    after scaling each column by its max, and shrinks the error by about
    kappa times the factor's unit roundoff (Carson-Higham, SIAM J. Sci.
    Comput. 2018).  It stops when no column's correction d_i exceeds
    REFINE_TOL kappa of its max |x|, a double solve's accuracy, or when the
    next one is predicted within it: rho |d_i| is, with the contraction
    rho = |d_i| / |d_(i-1)| at most REFINE_RATE, the rate the precision
    gate promises.  It raises ConvergenceError after REFINE_STEPS;
    ``solve`` reports factor and steps.
    """
    wide = np.result_type(ns.kernel, ns.lam, b)
    single = kappa <= SINGLE_KAPPA
    A = _identity_minus(ns.kernel, ns.lam, wide if not single else
                        np.complex64 if wide.kind == "c" else np.float32)
    lu = scipy.linalg.lu_factor(A.T, overwrite_a=True, check_finite=False)
    x, r, last = np.zeros(b.shape, dtype=wide), b, np.nan
    for step in range(1, REFINE_STEPS + 1):  # a NaN never passes the tests below
        scale = np.max(np.abs(r), axis=0, initial=np.finfo(float).tiny)
        d = scale * scipy.linalg.lu_solve(lu, (r / scale).astype(A.dtype), trans=1,
                                          check_finite=False)
        x += d
        size = np.max(np.abs(d), axis=0)
        tol = REFINE_TOL * kappa * np.max(np.abs(x), axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = size / last
        if np.all((size <= tol) | ((rho <= REFINE_RATE) & (rho * size <= tol))):
            return x, {"factor": "float32" if single else "float64", "refinements": step}
        r, last = b - ns.apply(x), size
    raise ConvergenceError(f"refinement not converged in {REFINE_STEPS} steps, kappa {kappa:.2e}")


# relative Frobenius accuracy of the low-rank sketch of K, and the multiple
# of eps ||K||_F its error bound adds for rounding
SKETCH_TOL = 1e-14
ROUNDING = 8.0
# sigma_min / sigma_max below which Id - K/lambda counts as singular
SIGMA_FLOOR = 1e-10
# largest contraction per refinement step that predicts the next one, and so
# the largest kappa factored in single precision; step cap and tolerance
REFINE_RATE = 1e-2
SINGLE_KAPPA = REFINE_RATE * 2.0 ** 24
REFINE_STEPS = 8
REFINE_TOL = 4 * np.finfo(float).eps


def _sketch(sys: IntervalSystem, grid: QuadratureGrid, offsets, gsw, kern):
    """(Q, W, err): Q orthonormal and block diagonal, ||K - Q W||_F <= err.

    Block row j of K is gsw_j(x) / (x - z) for targets z on I_j and sources
    x off it.  With s and sigma the unit coordinates of z and x on I_j and
    u = joukowski_exterior(sigma), |u| > 1,

        1 / (x - z) = 4 / (h_j (u - 1/u)) sum'_{m >= 0} u^-m T_m(s)

    (the first term halved; Trefethen, ATAP, ch. 8), so the row is T C with
    T_im = T_m(s_i) at its N_j nodes and C_mx = a(x) u^-m,
    a = 4 gsw_j / (h_j (u - 1/u)).  After p terms the tail of the columns
    kept in the expansion is at most sqrt(N_j) ||a||_2 rho^-p / (1 - 1/rho),
    rho their least |u|; it must be within share = SKETCH_TOL max(1,
    ||K||_F) / (2 sqrt(n)).  Columns next to the gap would need a high
    degree, so those that need more than p are kept exactly, at the p that
    makes p plus their number least: the row is [T_p, B_near] E, with E
    holding C on the far columns and a selection of the near ones, and with
    [T_p, B_near] = Q_0 R_0 it is Q_0 W0, W0 = R_0 E.  Rows without near
    columns share one QR of T per N_j (it is nested, so its leading columns
    serve every lower degree).  Where p plus the near columns reaches N_j
    the grid does not resolve the gap, and W0 is the exact row, Q_0 = Id.
    A column-pivoted QR, W0 P = Z R, is cut at the least rank r whose
    ||R_22||_F is within the same share; the block of Q is Q_0 Z_r and the
    rows of W are R_r P^T, zero on I_j's own columns.  err^2 sums tail^2
    and ||R_22||_F^2 over the rows, so sqrt of it is at most SKETCH_TOL
    max(1, ||K||_F) / sqrt(2); err adds ROUNDING eps ||K||_F for rounding.
    No step draws a random number.
    """
    N = kern.shape[0]
    norm = float(np.linalg.norm(kern))
    share = 0.5 * SKETCH_TOL * max(1.0, norm) / np.sqrt(sys.n)
    nodes = np.concatenate(grid.nodes)
    plan, err2 = [], 0.0
    for j, m in enumerate(grid.sizes):
        cols = np.r_[0:offsets[j], offsets[j + 1]:N]
        u = joukowski_exterior(sys.to_unit(j, nodes[cols])).real
        a = gsw[j, cols] * (4.0 / sys.half[j]) / (u - 1.0 / u)
        norm_a = float(np.linalg.norm(a))
        if norm_a == 0.0:  # no coupling into I_j: a zero block row
            continue
        rho = np.abs(u)
        # the degree each column would need were it the nearest; the columns
        # that need more than p are kept exactly, at the p that makes p plus
        # their number, the rows of W0, least
        need = np.ceil(np.log(np.sqrt(m) * norm_a / ((1.0 - 1.0 / rho) * share))
                       / np.log(rho))
        need[a == 0.0] = 0.0
        ranked = np.append(np.sort(need)[::-1], 0.0)
        p = max(int(ranked[np.argmin(ranked + np.arange(ranked.size))]), 1)
        near = np.flatnonzero(need > p)
        far = (need <= p) & (a != 0.0)
        if p + near.size < m and np.any(far):
            low = float(np.min(rho[far]))
            tail = np.sqrt(m) * np.linalg.norm(a[far]) * low ** -p / (1.0 - 1.0 / low)
            err2 += tail ** 2
        plan.append((j, m, cols, u, np.where(far, a, 0.0), p, near))
    # rows with no exact column share one QR of T per N_j, at their largest
    # degree: the QR is nested, so its leading columns serve every lower one
    depth = {}
    for _, m, _, _, _, p, near in plan:
        if near.size == 0 and p < m:
            depth[m] = max(p, depth.get(m, 0))
    factors = {m: np.linalg.qr(_chebyshev_T(m, p)) for m, p in depth.items()}
    blocks, rows = [], []
    for j, m, cols, u, a, p, near in plan:
        own = slice(offsets[j], offsets[j + 1])
        if p + near.size >= m:  # the grid does not resolve the gap: the exact row
            q0, w0 = None, kern[own, cols]
        else:  # the row is [T, exact columns] E
            E = np.zeros((p + near.size, cols.size))
            E[0] = 0.5
            E[1:p] = 1.0 / u
            np.multiply.accumulate(E[1:p], axis=0, out=E[1:p])  # u^-m, not a power
            E[:p] *= a
            E[p + np.arange(near.size), near] = 1.0
            if near.size:
                basis = np.hstack([_chebyshev_T(m, p), kern[own, cols[near]]])
                q0, r0 = np.linalg.qr(basis)
            else:
                q0, r0 = factors[m]
                q0, r0 = q0[:, :p], r0[:p, :p]
            w0 = r0 @ E
        z, r, perm = scipy.linalg.qr(w0, overwrite_a=True, mode="economic",
                                     pivoting=True, check_finite=False)
        # ||R_22||_F^2 of a cut at rank k, for every k
        drop = np.append(np.cumsum(np.sum(r * r, axis=1)[::-1])[::-1], 0.0)
        k = int(np.argmax(drop <= share ** 2))
        err2 += drop[k]
        w = np.zeros((k, N))
        w[:, cols[perm]] = r[:k]
        rows.append(w)
        blocks.append((own, z[:, :k] if q0 is None else q0 @ z[:, :k]))
    Q = np.zeros((N, sum(b.shape[1] for _, b in blocks)))
    col = 0
    for own, b in blocks:
        Q[own, col: col + b.shape[1]] = b
        col += b.shape[1]
    W = np.vstack(rows) if rows else np.zeros((0, N))
    return Q, W, float(np.sqrt(err2) + ROUNDING * np.finfo(float).eps * norm)


def extreme_singular_values(ns: NystromSystem):
    """(sigma_min, sigma_max, err) of Id - K/lambda.

    K has zero diagonal blocks and smooth off-diagonal blocks, so it has
    low numerical rank.  ``_assemble`` sketches the lambda-free K once
    (``_sketch``): an orthonormal, block-diagonal Q of k columns and rows W
    with ||K - Q W||_F <= sketch_err <= SKETCH_TOL max(1, ||K||_F).  Here W
    is scaled by 1/lambda and ``err = sketch_err / |lambda|``.

    Split W^H = Q (W Q)^H + X with X orthogonal to Q and X = V R its QR
    factorization.  On the span P of [Q, V] the operator Id - Q W acts as
    B = [[I - W Q, -R^H], [0, I]], and as the identity on the complement,
    so its singular values are those of B plus 1 repeated N - dim P times.
    B depends on V only through R^H R = X^H X, so a rank-deficient X needs
    no care.  When Q does not span the whole space, B fixes the null space
    of [W Q, R^H] (k equations in 2k unknowns), so its extremes already
    bracket 1; when it does, B = I - W Q; when k = 0 (a zero K: diagonal
    theta or one interval) both extremes are 1.  By Weyl's inequality each
    extreme differs from the dense value by at most err.
    """
    Q = ns.basis
    W = ns.rows / ns.lam
    WQ = W @ Q
    k = Q.shape[1]
    err = ns.sketch_err / abs(ns.lam)
    if k == 0:
        return 1.0, 1.0, err
    if k == ns.size:
        B = np.eye(k) - WQ
    else:
        R = np.linalg.qr(W.conj().T - Q @ WQ.conj().T, mode="r")
        B = np.eye(2 * k, dtype=W.dtype)
        B[:k, :k] -= WQ
        B[:k, k:] -= R.conj().T
    svals = np.linalg.svd(B, compute_uv=False)
    return float(svals[-1]), float(svals[0]), err


def _checked_solve(ns: NystromSystem, b):
    """(x, report) for (Id - K/lambda) x = b.

    Raises NearSingularError when sigma_min / sigma_max of the sketch falls
    below SIGMA_FLOOR; otherwise kappa = sigma_max / sigma_min picks the
    precision of ``_solve_refined``'s factor.  ``report`` holds both
    sigmas, the ``solve`` block and ``residual`` max |(Id - K/lambda) x - b|.
    """
    sigma_min, sigma_max, _ = extreme_singular_values(ns)
    if sigma_min < SIGMA_FLOOR * sigma_max:
        raise NearSingularError(
            f"Id - K/lambda numerically singular: sigma_min = {sigma_min:.3e}")
    x, solve = _solve_refined(ns, b, sigma_max / sigma_min)
    return x, {"sigma_min": sigma_min, "sigma_max": sigma_max, "solve": solve,
               "residual": float(np.max(np.abs(ns.apply(x) - b)))}


# ---------------------------------------------------------------------------
# the direct solver


@dataclass
class SolveResult:
    phi: PiecewiseFunction
    c: np.ndarray
    nu: PiecewiseFunction
    nystrom: NystromSystem
    diagnostics: dict


def solve_phi(theta, psi: PiecewiseFunction, size=96) -> SolveResult:
    """Nystrom solution of (Id - K) phi = nu with diagnostics.

    phi = nu + K phi keeps nu's coefficients and reads K phi, analytic off
    the other intervals, at ``_cross_modes`` U nodes; each interval's sum is
    kept to its chop at eps.  Diagnostics: the report of ``_checked_solve``
    and the second range-condition residual of phi.  Id - K is invertible by
    theorem for SPD theta and the all-ones theta (``uniform``); for other
    classifications with a nonzero off-diagonal part it is certified
    numerically only, and ``warning`` records that.
    """
    theta = as_theta(theta)
    theta.require_invertible_diagonal()
    sys = psi.sys
    c = compute_c(psi)
    nu = compute_nu(psi, c, theta)
    ns = assemble_K(sys, theta, size=size, lam=1.0)

    rhs = ns.nodal(nu)
    if psi.field == "real":
        rhs = rhs.real
        sol, report = _checked_solve(ns, rhs)
    else:  # as real and imaginary columns, so the real operator gets a real LU
        sol, report = _checked_solve(ns, np.column_stack([rhs.real, rhs.imag]))
        sol = sol[:, 0] + 1j * sol[:, 1]
    report["residual"] /= 1.0 + float(np.max(np.abs(rhs)))

    warn = None
    if theta.classification not in (SPD, UNIFORM) and np.any(theta.off):
        warn = ("theta is not symmetric positive definite: invertibility of Id - K "
                "is certified numerically only (sigma_min = %.3e)" % report["sigma_min"])

    kphi = []
    for j in range(sys.n):
        z = sys.from_unit(j, cheb.cheb2_nodes(_cross_modes(sys, j)))
        kphi.append(cheb.chebU_coeffs(ns.kernel_apply_smooth(sol, j, z) / ns.lam))
    full = nu + PiecewiseFunction(sys, kphi, weighted=True)
    phi = PiecewiseFunction(sys, [a[: cheb.chop(a)] for a in full.coeffs], weighted=True)

    diag = {**report, "range2_residual": residual_range2(theta, phi, c),
            "warning": warn}
    return SolveResult(phi=phi, c=c, nu=nu, nystrom=ns, diagnostics=diag)


def _cheb2_rule(sys: IntervalSystem, k, size):
    """The Chebyshev-2 rule of ``size`` nodes on I_k: nodes x and weights sw
    with sum sw g(x) = int_{I_k} w_k g dx."""
    grid = chebyshev2_grid(IntervalSystem([sys.endpoints[k]]), size)
    return grid.nodes[0], grid.sqrt_weights[0]


def _range2_moments(theta, phi: PiecewiseFunction):
    """(1/pi) sum_{k != m} theta_mk int_{I_k} phi_k / R_m dy, per m.

    On I_k, theta_mk / R_m = theta_mm g_m, so each interval takes one rule
    against every row of g, sized by ``_cross_nodes`` for the nearest other
    interval (g_m is analytic off I_m).
    """
    if not phi.weighted:
        raise ValueError("the range moments are defined here for sqrt-vanishing "
                         "(weighted) functions")
    theta = as_theta(theta)
    sys = phi.sys
    out = np.zeros(sys.n, dtype=complex)
    if sys.n == 1:
        return out
    for k in range(sys.n):
        size = max(_cross_nodes(sys, k, m, phi.coeffs[k].shape[0])
                   for m in range(sys.n) if m != k)
        x, sw = _cheb2_rule(sys, k, size)
        out += kernel_g(sys, theta, k, x) @ (sw * cheb.chebU_nodal(phi.coeffs[k], size))
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


def _decay_modes(sys: IntervalSystem, j, k):
    """log(1/eps) / log(rho), the U modes on I_j of a function analytic off I_k:
    it is analytic inside the Bernstein ellipse through the nearest endpoint of
    I_k, with rho = |u_j| there (Trefethen, ATAP, ch. 8)."""
    edge = sys.alpha[k] if k > j else sys.beta[k]
    rho = abs(joukowski_exterior(sys.to_unit(j, edge)))
    return -np.log(np.finfo(float).eps) / np.log(rho)


def _cross_modes(sys: IntervalSystem, j):
    """U modes on I_j that resolve a function analytic off the other intervals."""
    return max([int(np.ceil(_decay_modes(sys, j, k))) for k in range(sys.n) if k != j],
               default=1)


def _cross_nodes(sys: IntervalSystem, j, k, modes):
    """Gauss-Chebyshev-2 size on I_j that resolves (H_k f_k)' times a smooth part:
    N nodes leave an error near rho^(-2N) once its ``modes`` are spent."""
    return int(np.ceil(0.5 * (_decay_modes(sys, j, k) + modes))) + 2


def _j_gram(theta, sys: IntervalSystem, modes):
    """The matrix G of J on ``modes`` weighted-U modes per interval.

    J(f, g) = conj(b) G a for the stacked coefficients a of f and b of g
    (block (j, k): rows on I_j, columns on I_k).  J(f, g) = -sum_jk theta_jk
    int_{I_j} conj(g_j) (H_k f_k)' dx, the Dirichlet form of
    (1/2pi) sum_jk theta_jk int |xi| f~_k conj(g~_j) dxi.  With
    f_k = w_k sum_n a_n U_n on the unit variable s of each interval:

    * j == k: (H_k f_k)' = -sum_n (n+1) a_n U_n(s) on the cut
      (d/ds T_{n+1} = (n+1) U_n), so U-orthogonality leaves the diagonal
      theta_kk (pi h_k^2 / 2) (n+1);
    * j != k: (H_k f_k)'(x) = sum_n (n+1) a_n u_k^{-(n+1)} / sqrt(s_k^2 - 1),
      smooth on I_j, integrated against each U_m by Gauss-Chebyshev-2.
    """
    theta = as_theta(theta)
    n1 = np.arange(1, modes + 1)
    gram = np.zeros((sys.n * modes, sys.n * modes))
    for j in range(sys.n):
        for k in range(sys.n):
            if theta[j, k] == 0.0:
                continue
            block = gram[j * modes: (j + 1) * modes, k * modes: (k + 1) * modes]
            if j == k:
                np.fill_diagonal(block, theta[k, k] * 0.5 * np.pi * sys.half[k] ** 2 * n1)
                continue
            size = _cross_nodes(sys, j, k, modes)
            x, sw = _cheb2_rule(sys, j, size)
            s = sys.to_unit(k, x)
            powers = cheb.exterior_powers(joukowski_exterior(s), modes)
            deriv = (n1[:, None] * powers / unit_radical(s)).real  # real off I_k
            block[:] = -theta[j, k] * (cheb.chebU_nodal(np.eye(modes), size) * sw) @ deriv.T
    return gram


def _j_form(theta, fs, gs):
    """J(f_p, g_p) for each pair: conj(b) G a on the zero-padded stacked
    coefficients, with G from ``_j_gram``."""
    sys = fs[0].sys
    if not all(pf.weighted for pf in (*fs, *gs)):
        raise ValueError("J is defined here for sqrt-vanishing (weighted) functions")
    modes = max(c.shape[0] for pf in (*fs, *gs) for c in pf.coeffs)

    def stacked(pfs):
        out = np.zeros((len(pfs), sys.n, modes), dtype=complex)
        for p, pf in enumerate(pfs):
            for j, c in enumerate(pf.coeffs):
                out[p, j, : c.shape[0]] = c
        return out.reshape(len(pfs), -1)

    gram = _j_gram(theta, sys, modes)
    return np.real(np.sum(np.conj(stacked(gs)) * (stacked(fs) @ gram.T), axis=1))


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


def random_sqrt_vanishing(sys: IntervalSystem, modes=24, seed=0,
                          rng=None) -> PiecewiseFunction:
    """Random real sqrt-vanishing function whose modes decay like 0.7^k."""
    rng = np.random.default_rng(seed) if rng is None else rng
    coeffs = [rng.standard_normal(modes) * 0.7 ** np.arange(modes)
              for _ in range(sys.n)]
    return PiecewiseFunction(sys, coeffs, weighted=True, field="real")


def injectivity_report(theta, sys: IntervalSystem, size=96):
    """Numerical injectivity evidence at the chosen discretization.

    Reports the smallest singular value of Id - K and the least J(f, f)/||f||^2
    over f with 16 weighted-U modes per interval: the least eigenvalue of the
    symmetric part of ``_j_gram`` against the L2 Gram matrix, block diagonal
    with h_k^3 (tau_{|m-n|} - tau_{m+n+2})/2 (``chebyshev._unit_l2_squared``).
    Non-SPD matrices get a recorded caveat since positivity of J is only
    guaranteed for SPD.
    """
    theta = as_theta(theta)
    theta.require_invertible_diagonal()
    ns = assemble_K(sys, theta, size=size, lam=1.0)
    sigma_min, sigma_max, _ = extreme_singular_values(ns)
    modes = 16
    gram = _j_gram(theta, sys, modes)
    m = np.arange(modes)[:, None]
    tau = cheb._chebT_moments(2 * modes + 1)
    unit = 0.5 * (tau[np.abs(m - m.T)] - tau[m + m.T + 2])
    l2 = scipy.linalg.block_diag(*(h ** 3 * unit for h in sys.half))
    j_min = float(scipy.linalg.eigh(0.5 * (gram + gram.T), l2, eigvals_only=True,
                                    subset_by_index=[0, 0])[0])
    return {
        "sigma_min": sigma_min,
        "sigma_max": sigma_max,
        "j_over_norm_min": j_min,
        "j_positive": j_min > 0,
        "spd": theta.classification == SPD,
        "sketch": ns.sketch,
        "caveat": None if theta.classification == SPD else
        "theta is not SPD; J-positivity and invertibility are not guaranteed",
    }
