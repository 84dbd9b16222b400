"""Chebyshev representations and the spectral finite-Hilbert-transform kernels.

Everything here lives on the unit interval [-1, 1]; affine scaling to a
physical interval happens in the callers.  Two function classes are used
throughout the package:

* plain      p(s) = sum_n b_n T_n(s)                (Chebyshev T series)
* weighted   f(s) = w(s) sum_k a_k U_k(s),  w = sqrt(1 - s^2)
             (the smooth part is stored as a Chebyshev U series)

The transform (1/pi) PV int f(t)/(t - s) dt has closed forms in both bases.
With u(s) = s + sqrt(s^2 - 1), |u| >= 1 (exterior Joukowski coordinate):

    (1/pi) int w U_k /(t - z) dt      = -u^{-(k+1)}            anywhere off cut
                                       = -T_{k+1}(s)            PV on the cut
    (1/pi) int T_n /(w (t - z)) dt    = -u^{-n} / sqrt(z^2-1)   off cut
                                       = U_{n-1}(s)             PV on the cut

and the plain-T transforms h_n(s) = (1/pi) PV int T_n/(t-s) dt satisfy

    h_0 = (1/pi) log((1-s)/(1+s)),  h_1 = 2/pi + s h_0,
    h_{n+1} = 2 tau_n / pi + 2 s h_n - h_{n-1},   tau_n = int T_n dt.

The forward recurrence is marginally stable on the cut (|u| = 1) and is
only used there; off-cut plain transforms go through panel quadrature.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
import scipy.fft

from .errors import DomainError
from .intervals import IntervalSystem, joukowski_exterior

DEFAULT_MODES = 128


# ---------------------------------------------------------------------------
# nodes and value <-> coefficient maps


def cheb1_nodes(N):
    """First-kind Chebyshev points cos(pi (q + 1/2) / N), ascending."""
    q = np.arange(N)
    return np.cos(np.pi * (q + 0.5) / N)[::-1].copy()


def cheb2_nodes(N):
    """Gauss nodes of U_N: cos(pi (q+1) / (N+1)), ascending."""
    q = np.arange(1, N + 1)
    return np.cos(np.pi * q / (N + 1))[::-1].copy()


@lru_cache(maxsize=64)
def _cheb2_theta(N):
    return np.pi * np.arange(1, N + 1) / (N + 1)


def chebT_coeffs(values):
    """T coefficients of the interpolant through values at cheb1_nodes(N).

    ``values`` are ordered to match cheb1_nodes (ascending nodes); the map
    b_n = (2/N) sum_q v_q cos(n theta_q), b_0 halved, is a DCT-II along
    the last axis once the ascending-node reversal is undone.
    """
    v = np.asarray(values)
    b = scipy.fft.dct(v[..., ::-1], type=2, axis=-1) / v.shape[-1]
    b[..., 0] *= 0.5
    return b


def chebU_coeffs(values):
    """U coefficients of the interpolant through values at cheb2_nodes(N).

    a_k = (2/(N+1)) sum_q v_q sin(theta_q) sin((k+1) theta_q), a DST-I.
    """
    v = np.asarray(values)
    N = v.shape[-1]
    return scipy.fft.dst(v[..., ::-1] * np.sin(_cheb2_theta(N)), type=1,
                         axis=-1) / (N + 1)


def chebU_nodal(a, N):
    """Values of sum_k a_k U_k at cheb2_nodes(N), along the last axis.

    With b = chebU_to_T(a) the sum is sum_m b_m cos(m theta_q), theta_q =
    pi q / (N+1).  cos(m theta_q) has period 2(N+1) in m and is even under
    m -> 2(N+1) - m, so the T coefficients fold onto m = 0..N+1 and one
    DCT-I gives every node value.  Any number of coefficients is accepted.
    Unlike sin((k+1) theta) / sin(theta), nothing is divided by the small
    sines of the end nodes, so the rounding stays at a few ulps of the
    largest value.
    """
    b = chebU_to_T(a)
    period = 2 * (N + 1)
    rows = -(-b.shape[-1] // period)
    c = np.zeros(b.shape[:-1] + (rows * period,), dtype=b.dtype)
    c[..., : b.shape[-1]] = b
    c = c.reshape(b.shape[:-1] + (rows, period)).sum(axis=-2)
    # DCT-I: y_q = x_0 + (-1)^q x_{N+1} + 2 sum_{m=1}^{N} x_m cos(m theta_q)
    x = c[..., : N + 2].copy()
    x[..., 1: N + 1] = 0.5 * (x[..., 1: N + 1] + c[..., : N + 1: -1])
    y = scipy.fft.dct(x, type=1, axis=-1)
    return y[..., N: 0: -1]


def chop(coeffs):
    """Number of leading coefficients to keep: the standard chop at eps.

    Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS 43 (2017).
    The envelope is the running maximum, from the tail, of |coeffs| taken
    over every leading axis and normalized to start at 1.  The first j whose
    envelope stays within a factor r = 3 (1 - log e_j / log eps) up to index
    1.25 j + 5 starts a plateau; the cut is then the minimum of the log
    envelope plus a ramp that favours short series.  Without a plateau, or
    below 17 coefficients, the whole series is kept; the result is never
    0 and never more than the input length.
    """
    tol = np.finfo(float).eps
    b = np.abs(np.asarray(coeffs))
    b = b.reshape(-1, b.shape[-1]).max(axis=0)
    n = b.size
    if n < 17:
        return n
    env = np.maximum.accumulate(b[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    # 1-based j = 2, 3, ... with its partner round(1.25 j + 5), halves up
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = env[j - 1], env[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        plateau = (e1 == 0.0) | (e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)))
    if not np.any(plateau):
        return n
    first = np.argmax(plateau)
    point, j2 = j[first] - 1, j2[first]
    if env[point - 1] == 0.0:
        return point
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.sum(env >= floor))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = floor
    ramp = np.log10(env[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(ramp)), 1)


def resolved_length(coeffs, tol=1e-13):
    """Leading coefficients up to the last above tol times the largest.

    |coeffs| is taken over every leading axis, as in ``chop``.  ``chop``
    cuts inside the eps-level tail, so its length can move by a few modes
    between two computations that agree to rounding; a threshold well
    above that tail does not.  Never 0.
    """
    b = np.abs(np.asarray(coeffs))
    b = b.reshape(-1, b.shape[-1]).max(axis=0)
    above = np.flatnonzero(b > tol * np.max(b, initial=0.0))
    return int(above[-1]) + 1 if above.size else 1


def _clenshaw(coeffs, s):
    """Last two iterates c_0, c_1 of c_k = coef_k + 2 s c_{k+1} - c_{k+2}.

    The recurrence runs in three preallocated buffers; each step rounds as
    ``coef + (2 s) c - c_prev`` did when written as one expression.
    """
    s = np.asarray(s)
    coeffs = np.asarray(coeffs)
    c0 = np.zeros(s.shape, dtype=np.result_type(coeffs.dtype, s.dtype, float))
    c1 = np.zeros_like(c0)
    new = np.empty_like(c0)
    s2 = 2 * s
    for coef in coeffs[::-1]:
        np.multiply(s2, c0, out=new)
        new += coef
        new -= c1
        c0, c1, new = new, c0, c1
    return c0, c1


def clenshaw_T(b, s):
    """Evaluate sum b_n T_n(s); s may be real or complex, any shape."""
    c0, c1 = _clenshaw(b, s)
    return c0 - s * c1


def clenshaw_U(a, s):
    """Evaluate sum a_k U_k(s)."""
    return _clenshaw(a, s)[0][()]


def chebU_to_T(a):
    """Exact T coefficients of the polynomial sum a_k U_k, along the last axis."""
    a = np.asarray(a)
    b = np.empty(a.shape, dtype=np.result_type(a, float))
    # U_k = 2 (T_k + T_{k-2} + ...) with the T_0 term halved, so b_m sums
    # 2 a_k over k >= m of the parity of m
    for p in (0, 1):
        b[..., p::2] = 2.0 * np.cumsum(a[..., p::2][..., ::-1], axis=-1)[..., ::-1]
    b[..., :1] *= 0.5
    return b


def chebT_integral(b):
    """int_{-1}^{1} sum b_n T_n ds  (tau_n = 2/(1-n^2) for even n, else 0)."""
    b = np.asarray(b)
    n = np.arange(b.shape[0])
    tau = np.where(n % 2 == 0, 2.0 / (1.0 - n.astype(float) ** 2 + (n % 2)), 0.0)
    tau[1::2] = 0.0
    return b @ tau


def chebU_integral(a):
    """int_{-1}^{1} sum a_k U_k ds  (2/(k+1) for even k, else 0)."""
    a = np.asarray(a)
    k = np.arange(a.shape[0])
    tau = np.where(k % 2 == 0, 2.0 / (k + 1.0), 0.0)
    return a @ tau


def chebU_first_moment(a):
    """int_{-1}^{1} s * sum a_k U_k ds, via s U_k = (U_{k+1} + U_{k-1})/2."""
    a = np.asarray(a)
    ext = np.zeros(a.shape[0] + 1, dtype=np.result_type(a, float))
    ext[1:] += 0.5 * a
    ext[:-2] += 0.5 * a[1:]
    return chebU_integral(ext)


# ---------------------------------------------------------------------------
# spectral Hilbert-transform kernels (unit interval)


def exterior_powers(u, K):
    """The (K,) + u.shape table of u^{-(k+1)}, k = 0..K-1.

    Built by doubling: rows [m, 2m) are rows [0, m) times u^{-m}, so an
    entry is a product of at most log2(K) + 1 factors.  The multipliers
    u^{-1}, u^{-2}, u^{-4}, ... are squared in extended precision
    (``np.clongdouble``) and rounded once to double, since squaring in
    double would amplify the rounding of 1/u K-fold.
    """
    u = np.asarray(u)
    out = np.empty((K,) + u.shape, dtype=complex)
    mult = 1.0 / u.astype(np.clongdouble)  # u^{-m}
    out[:1] = mult
    m = 1
    while m < K:
        step = min(m, K - m)
        np.multiply(out[:step], mult.astype(complex), out=out[m: m + step])
        mult = mult * mult
        m += step
    return out


def fht_weighted_offcut(a, u):
    """-(sum_k a_k u^{-(k+1)}) for the weighted class; valid anywhere.

    ``u`` is the exterior Joukowski coordinate of the target (with a side
    chosen when the target sits on the cut).
    """
    a = np.asarray(a)
    return -np.tensordot(a, exterior_powers(u, a.shape[0]), axes=1)


def fht_weighted_pv(a, s):
    """PV value -sum a_k T_{k+1}(s) on the cut (real s in (-1,1))."""
    a = np.asarray(a)
    b = np.zeros(a.shape[0] + 1, dtype=a.dtype)
    b[1:] = -a
    return clenshaw_T(b, s)


def fht_plain_pv(b, s):
    """PV transform of a plain T series at real s in (-1, 1).

    Runs the inhomogeneous Chebyshev recurrence for h_n upward; on the cut
    both homogeneous solutions have modulus one, so the error growth is
    only O(n eps).
    """
    b = np.asarray(b)
    s = np.asarray(s, dtype=float)
    if np.any((s <= -1.0) | (s >= 1.0)):
        raise DomainError("fht_plain_pv requires points strictly inside (-1,1)")
    L = np.log((1.0 - s) / (1.0 + s)) / np.pi
    h_prev = L
    acc = b[0] * h_prev
    if b.shape[0] == 1:
        return acc
    h_cur = 2.0 / np.pi + s * L
    acc = acc + b[1] * h_cur
    for n in range(1, b.shape[0] - 1):
        tau = 0.0 if n % 2 else 2.0 / (1.0 - n * n)
        h_prev, h_cur = h_cur, 2.0 * tau / np.pi + 2.0 * s * h_cur - h_prev
        acc = acc + b[n + 1] * h_cur
    return acc


@lru_cache(maxsize=8)
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


# panel quadrature of cauchy_plain_offcut: Bernstein parameter a panel needs,
# Gauss-Legendre order per panel, and bisection depth limit
PANEL_RHO = 1.9
PANEL_ORDER = 32
PANEL_MAX_DEPTH = 14


def cauchy_plain_offcut(eval_fn, targets):
    """(1/pi) int_{-1}^{1} p(t)/(t - z) dt for targets z off the cut.

    Panel bisection: a panel is integrated with Gauss-Legendre once every
    target is outside its Bernstein ellipse of parameter ``PANEL_RHO``; the
    geometric convergence rate then bounds the error at
    ~PANEL_RHO^(-2 PANEL_ORDER).  Targets closer than ~2^-PANEL_MAX_DEPTH to
    [-1, 1] lose accuracy gracefully.
    """
    targets = np.asarray(targets, dtype=complex)
    out = np.zeros(targets.shape, dtype=complex)
    xg, wg = _gauss_legendre(PANEL_ORDER)

    stack = [(-1.0, 1.0, 0)]
    while stack:
        a, b, depth = stack.pop()
        mid = 0.5 * (a + b)
        hw = 0.5 * (b - a)
        sp = (targets - mid) / hw
        rho = np.min(np.abs(joukowski_exterior(sp)))
        if rho >= PANEL_RHO or depth >= PANEL_MAX_DEPTH:
            nodes = mid + hw * xg
            vals = eval_fn(nodes) * (hw * wg)
            out += (vals[:, None] / (nodes[:, None] - targets.ravel()[None, :])
                    ).sum(axis=0).reshape(targets.shape)
        else:
            stack.append((a, mid, depth + 1))
            stack.append((mid, b, depth + 1))
    return out / np.pi


# ---------------------------------------------------------------------------
# piecewise functions on an interval system


class PiecewiseFunction:
    """A function on a union of intervals, one Chebyshev series per interval.

    ``weighted=False`` stores f itself as a T series on each interval;
    ``weighted=True`` stores the smooth part of f = w_j(x) * smooth as a
    U series, with w_j(x) = sqrt((x - alpha_j)(beta_j - x)) the physical
    square-root weight.  Instances are immutable by convention.
    """

    def __init__(self, system: IntervalSystem, coeffs, weighted=False, field=None):
        self.sys = system
        self.coeffs = [np.atleast_1d(np.asarray(c)) for c in coeffs]
        if len(self.coeffs) != system.n:
            raise ValueError("need one coefficient vector per interval")
        self.weighted = bool(weighted)
        if field is None:
            field = "complex" if any(np.iscomplexobj(c) and np.max(np.abs(c.imag), initial=0) > 0
                                     for c in self.coeffs) else "real"
        self.field = field
        if field == "real":
            self.coeffs = [np.real(c).astype(float) for c in self.coeffs]

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_callable(cls, system, fn, N=DEFAULT_MODES, weighted=False):
        """Project a callable (or one per interval) onto N modes per interval.

        For the weighted tag the callable still returns f itself; the stored
        series is f / w sampled at interior nodes.
        """
        fns = fn if isinstance(fn, (list, tuple)) else [fn] * system.n
        coeffs = []
        for j in range(system.n):
            if weighted:
                s = cheb2_nodes(N)
                x = system.from_unit(j, s)
                vals = np.asarray(fns[j](x)) / system.weight(j, x)
                coeffs.append(chebU_coeffs(vals))
            else:
                s = cheb1_nodes(N)
                x = system.from_unit(j, s)
                coeffs.append(chebT_coeffs(np.asarray(fns[j](x))))
        return cls(system, coeffs, weighted=weighted)

    @classmethod
    def from_smooth_values(cls, system, values, weighted=True):
        """Build from per-interval node values.

        weighted=True: ``values[j]`` are smooth-part values at cheb2_nodes;
        weighted=False: ``values[j]`` are function values at cheb1_nodes.
        """
        if weighted:
            coeffs = [chebU_coeffs(v) for v in values]
        else:
            coeffs = [chebT_coeffs(v) for v in values]
        return cls(system, coeffs, weighted=weighted)

    @classmethod
    def zeros(cls, system, N=DEFAULT_MODES, weighted=False):
        return cls(system, [np.zeros(N) for _ in range(system.n)], weighted=weighted)

    @classmethod
    def from_samples(cls, system, nodes, values, N=DEFAULT_MODES):
        """Project scattered per-interval samples by least squares onto N T-modes.

        The fitted mode count is capped at half the sample count: unlike
        interpolation, the oversampled fit stays stable on equispaced nodes.
        """
        coeffs = []
        for j in range(system.n):
            x = np.asarray(nodes[j], dtype=float)
            v = np.asarray(values[j])
            s = system.to_unit(j, x)
            m = min(N, max(4, x.size // 2))
            design = np.stack([clenshaw_T(np.eye(m)[k], s) for k in range(m)], axis=1)
            c, *_ = np.linalg.lstsq(design, v, rcond=None)
            coeffs.append(c)
        return cls(system, coeffs)

    # -- evaluation ---------------------------------------------------------

    def piece_smooth(self, j, x):
        """Smooth part of piece j at points x in I_j (weighted tag only)."""
        if not self.weighted:
            raise ValueError("piece_smooth defined only for weighted functions")
        s = self.sys.to_unit(j, x)
        return clenshaw_U(self.coeffs[j], s)

    def piece_values(self, j, x):
        x = np.asarray(x, dtype=float)
        s = self.sys.to_unit(j, x)
        if self.weighted:
            return self.sys.weight(j, x) * clenshaw_U(self.coeffs[j], s)
        return clenshaw_T(self.coeffs[j], s)

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=float if self.field == "real" else complex)
        hit = np.zeros(x.shape, dtype=bool)
        for j in range(self.sys.n):
            m = (x >= self.sys.alpha[j]) & (x <= self.sys.beta[j])
            if np.any(m):
                out[m] = self.piece_values(j, x[m])
                hit |= m
        if not np.all(hit):
            raise DomainError("evaluation point outside the interval system")
        return out

    # -- norms and arithmetic ------------------------------------------------

    @cached_property
    def _piece_norms(self):
        """L2 norm of every piece by Gauss-Legendre, taken once per instance."""
        out = []
        for j, c in enumerate(self.coeffs):
            xg, wg = _gauss_legendre(max(2 * c.shape[0] + 16, 48))
            v = self.piece_values(j, self.sys.from_unit(j, xg))
            out.append(float(np.sqrt(np.sum(wg * np.abs(v) ** 2) * self.sys.half[j])))
        return out

    def piece_norm2(self, j):
        return self._piece_norms[j]

    def norm2(self):
        return float(np.sqrt(sum(v ** 2 for v in self._piece_norms)))

    def _binary(self, other, op):
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        if other.sys != self.sys or other.weighted != self.weighted:
            raise ValueError("operands must share system and weight tag")
        coeffs = []
        for a, b in zip(self.coeffs, other.coeffs):
            m = max(a.shape[0], b.shape[0])
            pa = np.zeros(m, dtype=np.result_type(a, b))
            pb = pa.copy()
            pa[: a.shape[0]] = a
            pb[: b.shape[0]] = b
            coeffs.append(op(pa, pb))
        return PiecewiseFunction(self.sys, coeffs, weighted=self.weighted)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        return PiecewiseFunction(self.sys, [c * scalar for c in self.coeffs],
                                 weighted=self.weighted)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / scalar)

    def shift_piece_constants(self, cvec):
        """Subtract a constant per interval (plain tag only)."""
        if self.weighted:
            raise ValueError("cannot subtract constants from a weighted function")
        coeffs = []
        for j, c in enumerate(self.coeffs):
            c = c.astype(np.result_type(c, np.asarray(cvec)), copy=True)
            c[0] -= cvec[j]
            coeffs.append(c)
        return PiecewiseFunction(self.sys, coeffs, weighted=False)


def cheb_project(fn, interval, N=DEFAULT_MODES, weighted=False):
    """Coefficients of fn (or fn / w for the weighted tag) on one interval."""
    if N < 2:
        raise ValueError("N must be at least 2")
    sys1 = IntervalSystem([interval])
    pf = PiecewiseFunction.from_callable(sys1, fn, N=N, weighted=weighted)
    return pf.coeffs[0]


def cheb_eval(coeffs, interval, x, weighted=False):
    """Right inverse of cheb_project on the projection nodes."""
    sys1 = IntervalSystem([interval])
    pf = PiecewiseFunction(sys1, [coeffs], weighted=weighted)
    return pf.piece_values(0, np.asarray(x, dtype=float))
