"""All-ones interaction: diagonalization of the multi-interval transform.

For theta with every entry equal to one the vector problem collapses to the
scalar multi-interval finite Hilbert transform.  Writing phi(x) for the log
ratio of the endpoint polynomials

    p_a(z) = prod_j (z - alpha_j),   p_b(z) = prod_j (z - beta_j),
    phi(x) = log |p_b(x) / p_a(x)|,  phi'(x) = Q(x) / (p_a(x) p_b(x)),

phi decreases from +inf to -inf on each interval, so x = phi_k^{-1}(2t)
turns each interval into a copy of the real line.  The substitution

    (T f)_k(t) = sqrt(2) sgn(p_a(x)) f(x) / sqrt(|phi'(x)|),  x = phi_k^{-1}(2t)

is an isometry L^2(I) -> L^2_n(R), and conjugating the transform by T and
by the pointwise orthogonal mixing matrix

    M_jk(t) = P_j(x_k) sqrt(rho_j / Q(x_k))

(P_j, rho_j from the eigendecomposition of the Bezout matrix of p_b, p_a)
reduces it to componentwise convolution with 1/(pi sinh), i.e. to the
Fourier multiplier i tanh(pi lambda / 2).  Inversion divides by the
multiplier; membership in the range is the L^2_loc condition on
(1/lambda) (F M T g) near lambda = 0, realized here as a zero-DC test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chebyshev as cheb
from .chebyshev import PiecewiseFunction
from .errors import (
    NonPositiveEigenvalueError,
    RangeExceededError,
    RangeViolationError,
)
from .intervals import IntervalSystem

_polyval = np.polynomial.polynomial.polyval
_polymul = np.polynomial.polynomial.polymul
_polysub = np.polynomial.polynomial.polysub

TABLE_LIMIT = 400.0       # largest |2t| the inverse maps accept
NEWTON_MAX_ITER = 60      # enough for bisection alone to reach rounding
EXTRA_MODES = 8           # output modes beyond those of the input
BOUNDARY_TOL = 1e-8       # trusted share of channel energy near the t-grid ends


@dataclass(frozen=True)
class TGrid:
    """Uniform symmetric t-grid with its Fourier dual."""

    npoints: int = 4096
    dt: float = 1.0 / 64.0

    @property
    def t(self):
        return (np.arange(self.npoints) - self.npoints // 2) * self.dt

    @property
    def t0(self):
        return -(self.npoints // 2) * self.dt

    @property
    def lam(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.npoints, self.dt)

    @property
    def dlam(self):
        return 2.0 * np.pi / (self.npoints * self.dt)

    @property
    def tmax(self):
        return (self.npoints // 2) * self.dt


def forward_ft(grid: TGrid, vals):
    """f~(lam_r) = dt * sum_q v_q e^{i lam_r t_q}, fftfreq ordering."""
    v = np.asarray(vals)
    P = grid.npoints
    spec = grid.dt * P * np.fft.ifft(v, axis=-1)
    phase = np.exp(1j * grid.lam * grid.t0)
    return spec * phase


def inverse_ft(grid: TGrid, spec):
    """Inverse of forward_ft back onto the uniform grid."""
    phase = np.exp(-1j * grid.lam * grid.t0)
    return np.fft.fft(spec * phase, axis=-1) / (grid.npoints * grid.dt)


def inverse_ft_at(grid: TGrid, spec, tstars):
    """(1/2pi) sum_r f~(lam_r) e^{-i lam_r t*} dlam at arbitrary t*.

    Exact trigonometric interpolation of the grid signal, so the inverse
    map back to the intervals needs no spline stage.  Each integer frequency
    m = lam / dlam, counted from the lowest bin -(P // 2), is split as
    hi * B + lo with B ~ sqrt(P); the phase e^{-i dlam m t*} is then the
    product of an A x T and a B x T exponential table, about 2 sqrt(P)
    exponentials per target instead of P.
    """
    spec = np.asarray(spec)
    tst = np.atleast_1d(np.asarray(tstars, dtype=float))
    P = grid.npoints
    B = int(np.ceil(np.sqrt(P)))
    h0 = -(P // 2) // B                 # hi of the lowest bin
    pad = -(P // 2) - h0 * B            # its lo
    A = -(-(pad + P) // B)
    blocks = np.zeros(spec.shape[:-1] + (A * B,), dtype=complex)
    blocks[..., pad:pad + P] = np.fft.fftshift(spec, axes=-1)
    blocks = blocks.reshape(spec.shape[:-1] + (A, B))
    w = grid.dlam * tst.ravel()
    e_lo = np.exp(-1j * np.outer(np.arange(B), w))
    e_hi = np.exp(-1j * np.outer(B * np.arange(h0, h0 + A), w))
    out = np.sum((blocks @ e_lo) * e_hi, axis=-2)
    return (grid.dlam / (2.0 * np.pi) * out).reshape(spec.shape[:-1] + tst.shape)


class SpectralData:
    """Endpoint polynomials, Bezout eigendecomposition and inverse maps."""

    def __init__(self, sys: IntervalSystem):
        self.sys = sys
        n = sys.n
        self.pa = np.polynomial.polynomial.polyfromroots(sys.alpha)  # prod (z-a_j)
        self.pb = np.polynomial.polynomial.polyfromroots(sys.beta)
        da = np.polynomial.polynomial.polyder(self.pa)
        db = np.polynomial.polynomial.polyder(self.pb)
        # Q = p_b' p_a - p_b p_a', degree 2n-2
        self.q_coeffs = _polysub(_polymul(db, self.pa), _polymul(self.pb, da))
        self.bezout = self._bezout_matrix()
        rho, vecs = np.linalg.eigh(self.bezout)
        if np.any(rho <= 0.0):
            raise NonPositiveEigenvalueError(
                f"Bezout matrix must be positive definite, eigenvalues {rho}")
        self.rho = rho
        self.omega = vecs.T  # B = omega^T diag(rho) omega; row j: P_j, ascending
        # sign of p_a on interval k: n-1-k factors are negative
        self.sgn_odd = np.array([(-1.0) ** (n - 1 - k) for k in range(n)])
        self._tables = {}

    def _bezout_matrix(self):
        """B with p_b(x) p_a(z) - p_b(z) p_a(x) = (x - z) sum B_ij z^{i-1} x^{j-1}."""
        n = self.sys.n
        E, O = self.pb, self.pa
        # numerator coefficients N[a, b] of x^a z^b in p_b(x)p_a(z) - p_b(z)p_a(x)
        N = E[:, None] * O[None, :] - O[:, None] * E[None, :]
        B = np.zeros((n + 1, n + 1))
        # match x^a z^b: N[a, b] = B[b+1, a] - B[b, a+1] (1-indexed, 0 padded)
        for b in range(n):
            for a in range(n + 1):
                right = B[b, a + 1] if a + 1 <= n else 0.0
                B[b + 1, a] = N[a, b] + right
        B = B[1: n + 1, 1: n + 1].T  # B_ij multiplying z^{i-1} x^{j-1}
        return 0.5 * (B + B.T)  # kill rounding asymmetry

    # -- scalar maps ---------------------------------------------------------

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        return np.log(np.abs(_polyval(x, self.pb) / _polyval(x, self.pa)))

    def phi_prime(self, x):
        x = np.asarray(x, dtype=float)
        return (_polyval(x, self.q_coeffs)
                / (_polyval(x, self.pa) * _polyval(x, self.pb)))

    def q_eval(self, x):
        return _polyval(np.asarray(x, dtype=float), self.q_coeffs)

    def eig_poly_eval(self, x):
        """P_j(x) for all j; shape (n, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.stack([_polyval(x, self.omega[j]) for j in range(self.sys.n)])

    def mixing_column(self, x, q=None):
        """Column k of M at t = phi(x)/2 for x in I_k: P_j(x) sqrt(rho_j / Q(x)).

        x_k = phi_k^{-1}(2t) is x itself, so no inverse map is needed;
        shape (n,) + shape(x), with at least one trailing axis.  ``q`` is
        Q(x) when the caller already has it.
        """
        pj = self.eig_poly_eval(x)
        rho = self.rho.reshape((-1,) + (1,) * (pj.ndim - 1))
        return pj * np.sqrt(rho / (self.q_eval(x) if q is None else q))

    # -- inverse of phi on each interval --------------------------------------

    def inverse_map(self, k, t):
        """x = phi_k^{-1}(2t) with endpoint-safe companions.

        Returns dict with x, dist_a = x - alpha_k, dist_b = beta_k - x,
        |phi'(x)| and q = Q(x); the distances stay accurate in the
        exponential tails where x itself rounds to the endpoint.

        The unknown is zeta = log(dist_a / dist_b), so x = alpha_k + L
        expit(zeta) and phi(x) = 2t reads G(zeta) = h(x) - zeta - 2t = 0
        with h(x) = log prod_{j != k} (x - beta_j) / (x - alpha_j).  h
        increases on I_k, so -1 < G' < 0 and G is at least 1 at
        h(alpha_k) - 2t - 1 and at most -1 at h(beta_k) - 2t + 1.  One
        fixed-point step zeta <- h(x(zeta)) - 2t from the bracket midpoint
        starts the iteration (it lands the exponential tails, where h is
        flat, on their root); Newton steps in zeta are then kept inside the
        bracket by bisection (Numerical Recipes 9.4, rtsafe) and run only on
        the points whose residual test has not passed yet.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = 2.0 * t
        if np.any(np.abs(y) > TABLE_LIMIT):
            raise RangeExceededError(
                f"|2t| exceeds the tabulated range {TABLE_LIMIT}")
        sys = self.sys
        a, b = sys.alpha[k], sys.beta[k]
        length = b - a
        others = [j for j in range(sys.n) if j != k]

        def h(x):
            """h(x) and h'(x)."""
            ratio, slope = np.ones(np.shape(x)), np.zeros(np.shape(x))
            for j in others:
                xa, xb = x - sys.alpha[j], x - sys.beta[j]
                ratio *= xb / xa
                slope += (sys.beta[j] - sys.alpha[j]) / (xb * xa)
            return np.log(ratio), slope

        def place(zeta):
            # L expit(+-zeta) from one exponential
            e = np.exp(-np.abs(zeta))
            far = length / (1.0 + e)
            near = far * e
            up = zeta >= 0.0
            dist_a, dist_b = np.where(up, far, near), np.where(up, near, far)
            return dist_a, dist_b, np.where(up, b - dist_b, a + dist_a)

        h_ends = h(np.array([a, b]))[0]
        lo = h_ends[0] - y - 1.0
        hi = h_ends[1] - y + 1.0
        zeta = h(place(0.5 * (lo + hi))[2])[0] - y
        out = zeta.copy()
        idx = np.arange(y.size)          # points still iterating
        for _ in range(NEWTON_MAX_ITER):
            dist_a, dist_b, x = place(zeta)
            hx, hp = h(x)
            g = hx - zeta - y
            lo = np.where(g > 0.0, zeta, lo)
            hi = np.where(g > 0.0, hi, zeta)
            new = zeta - g / (hp * dist_a * dist_b / length - 1.0)
            new = np.where((new < lo) | (new > hi), 0.5 * (lo + hi), new)
            # the Newton step from a residual this small is exact to rounding;
            # a tighter test can stall on the rounding of h
            done = np.abs(g) <= 1e-13 * (1.0 + np.abs(hx) + np.abs(y))
            out[idx] = new
            if np.all(done):
                break
            keep = ~done
            idx, zeta, y, lo, hi = (v[keep] for v in (idx, new, y, lo, hi))
        dist_a, dist_b, x = place(out)

        rest_prod = np.ones(x.shape)
        for j in others:
            rest_prod *= (x - sys.alpha[j]) * (x - sys.beta[j])  # > 0 off I_j
        q = self.q_eval(x)
        absphip = q / (dist_a * dist_b * rest_prod)
        return {"x": x, "dist_a": dist_a, "dist_b": dist_b, "absphip": absphip,
                "q": q}

    def tables(self, grid: TGrid):
        """Inverse maps and everything ``apply_T`` reads, once per grid.

        Per interval: the maps, s = (dist_a - dist_b) / L (the unit
        coordinate), w = sqrt(dist_a dist_b) (the U weight), the T factor
        sqrt(2) sgn(p_a) / sqrt(|phi'|) and the mixing matrix; shapes (n, P)
        and (n_j, n_k, P).
        """
        key = (grid.npoints, grid.dt)
        if key not in self._tables:
            maps = [self.inverse_map(k, grid.t) for k in range(self.sys.n)]
            stack = {name: np.stack([m[name] for m in maps])
                     for name in ("x", "dist_a", "dist_b", "absphip", "q")}
            length = 2.0 * self.sys.half[:, None]
            self._tables[key] = {
                "maps": maps,
                "x": stack["x"],
                "s": (stack["dist_a"] - stack["dist_b"]) / length,
                "w": np.sqrt(stack["dist_a"] * stack["dist_b"]),
                "tfac": (np.sqrt(2.0) * self.sgn_odd[:, None]
                         / np.sqrt(stack["absphip"])),
                "mix": self.mixing_column(stack["x"], stack["q"]),
            }
        return self._tables[key]


def build_spectral_data(sys: IntervalSystem) -> SpectralData:
    return SpectralData(sys)


def phi_inverse(sd: SpectralData, k, t):
    """x in (alpha_k, beta_k) with phi(x) = 2t."""
    out = sd.inverse_map(k, t)["x"]
    return out if np.ndim(t) else float(out[0])


def build_M(sd: SpectralData, t):
    """Mixing matrix M_jk(t) = P_j(x_k) sqrt(rho_j / Q(x_k)); orthogonal."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = sd.sys.n
    out = np.empty((t.size, n, n))
    for k in range(n):
        out[:, :, k] = sd.mixing_column(sd.inverse_map(k, t)["x"]).T
    return out[0] if scalar else out


@dataclass
class ChannelVector:
    """Element of the n-channel line space: samples on a shared t-grid."""

    grid: TGrid
    data: np.ndarray  # (n, P)

    def norm(self):
        return float(np.sqrt(self.grid.dt * np.sum(np.abs(self.data) ** 2)))

    def boundary_fraction(self):
        t = self.grid.t
        tail = np.abs(t) >= 0.9 * self.grid.tmax
        total = np.sum(np.abs(self.data) ** 2)
        if total == 0.0:
            return 0.0
        return float(np.sum(np.abs(self.data[:, tail]) ** 2) / total)


def apply_T(sd: SpectralData, f: PiecewiseFunction, grid: TGrid = None
            ) -> ChannelVector:
    """Channel k: sqrt(2) sgn(p_a) f / sqrt(|phi'|) at x = phi_k^{-1}(2t).

    Where s rounds to +-1 (the exponential tails) the series takes its
    closed-form end value, sum b_n (+-1)^n for T and sum a_k (+-1)^k (k + 1)
    for U; Clenshaw runs on the rest.
    """
    grid = grid or TGrid()
    tab = sd.tables(grid)
    data = np.zeros((sd.sys.n, grid.npoints),
                    dtype=float if f.field == "real" else complex)
    series = cheb.clenshaw_U if f.weighted else cheb.clenshaw_T
    for k, c in enumerate(f.coeffs):
        s = tab["s"][k]
        inner = np.abs(s) < 1.0
        n = np.arange(c.shape[0])
        at_one = c * (n + 1) if f.weighted else c    # the terms at s = 1
        vals = np.where(s > 0.0, np.sum(at_one), np.sum(at_one * (-1.0) ** n))
        vals[inner] = series(c, s[inner])
        if f.weighted:
            vals *= tab["w"][k]
        data[k] = tab["tfac"][k] * vals
    return ChannelVector(grid=grid, data=data)


def apply_T_inverse(sd: SpectralData, cv: ChannelVector, points=None):
    """f(x) = sgn(p_a(x)) sqrt(|phi'(x)|/2) * channel_k(phi(x)/2), x in I_k.

    On the grid itself this inverts apply_T exactly; off the grid the
    channel is evaluated by trigonometric interpolation of its spectrum.
    """
    sys = sd.sys
    if points is None:
        tab = sd.tables(cv.grid)
        out = np.empty_like(cv.data)
        for k in range(sys.n):
            m = tab["maps"][k]
            out[k] = (sd.sgn_odd[k] * np.sqrt(m["absphip"] / 2.0) * cv.data[k])
        return out
    spec = forward_ft(cv.grid, cv.data)
    x = np.atleast_1d(np.asarray(points, dtype=float))
    vals = np.zeros(x.shape, dtype=complex)
    for k in range(sys.n):
        msk = (x >= sys.alpha[k]) & (x <= sys.beta[k])
        if not np.any(msk):
            continue
        ts = 0.5 * sd.phi(x[msk])
        ch = inverse_ft_at(cv.grid, spec[k], ts)
        vals[msk] = sd.sgn_odd[k] * np.sqrt(
            np.abs(sd.phi_prime(x[msk])) / 2.0) * ch
    return vals


def _mixed_spectrum(sd, f, grid):
    """F M T f, its first moment and the boundary share of the energy of T f.

    The first moment dt sum_q t_q (M T f)(t_q) is -i times the slope of the
    spectrum at lambda = 0.
    """
    cv = apply_T(sd, f, grid)
    mixed = np.einsum("jkp,kp->jp", sd.tables(grid)["mix"], cv.data)
    return forward_ft(grid, mixed), grid.dt * (mixed @ grid.t), cv.boundary_fraction()


def _demix_to_function(sd, spec, grid, weighted, source):
    """(F . )^{-1} then M^T then T^{-1}, sampled on Chebyshev nodes.

    The result has EXTRA_MODES more modes than ``source``, the input of the
    transform, and is real when ``source`` is.
    """
    sys = sd.sys
    nmodes = max(c.shape[0] for c in source.coeffs) + EXTRA_MODES
    s = cheb.cheb2_nodes(nmodes) if weighted else cheb.cheb1_nodes(nmodes)
    # every interval's nodes in one stack, so each map is evaluated once
    xs = [sys.from_unit(k, s) for k in range(sys.n)]
    x = np.concatenate(xs)
    hvals = inverse_ft_at(grid, spec, 0.5 * sd.phi(x))          # (n, n len)
    ch = np.sum(sd.mixing_column(x) * hvals, axis=0)           # (M^T h)_k on I_k
    fv = np.repeat(sd.sgn_odd, s.size) * np.sqrt(np.abs(sd.phi_prime(x)) / 2.0) * ch
    if weighted:
        fv = fv / np.concatenate([sys.weight(k, xk) for k, xk in enumerate(xs)])
    if source.field == "real":
        fv = np.real(fv)
    return PiecewiseFunction.from_smooth_values(sd.sys, np.split(fv, sys.n),
                                                weighted=weighted)


def uniform_forward(sd: SpectralData, f: PiecewiseFunction, grid: TGrid = None
                    ) -> PiecewiseFunction:
    """Multi-interval transform of f through the diagonalization."""
    grid = grid or TGrid()
    spec = _mixed_spectrum(sd, f, grid)[0]
    mult = 1j * np.tanh(np.pi * grid.lam / 2.0)
    return _demix_to_function(sd, mult[None, :] * spec, grid, weighted=False, source=f)


def uniform_range_check(sd: SpectralData, g: PiecewiseFunction,
                        grid: TGrid = None, tol=1e-6):
    """Discrete surrogate of the low-frequency range condition.

    In-range data has (F M T g)_m vanishing at lambda = 0; the test statistic
    is the energy the DC bin would contribute to (1/lambda)(F M T g)_m under
    half-bin regularization, 4 |spec_m(0)|^2 / dlam, compared against
    tol * ||g||^2.  The share of the energy of T g in the outer tenth of
    the t-grid, ``t_boundary_fraction``, is reported with it: above
    ``BOUNDARY_TOL`` the grid truncates the channels and the DC test can
    reject in-range data.
    """
    return _range_verdict(sd, g, grid or TGrid(), tol)[2]


def _range_verdict(sd, g, grid, tol):
    """The mixed spectrum of g, its first moment and the range verdict on it."""
    spec, moment, frac = _mixed_spectrum(sd, g, grid)
    norm2 = g.norm2() ** 2
    dc_energy = 4.0 * np.abs(spec[:, 0]) ** 2 / grid.dlam
    return spec, moment, {
        "pass": bool(np.all(dc_energy <= tol * norm2)),
        "dc_energy": dc_energy,
        "tolerance": tol * norm2,
        "t_boundary_fraction": frac,
    }


def uniform_invert(sd: SpectralData, g: PiecewiseFunction, grid: TGrid = None
                   ) -> PiecewiseFunction:
    """Inverse transform (F M T)^{-1} (i tanh(pi lambda/2))^{-1} (F M T) g.

    The multiplier vanishes only at lambda = 0, where the range condition
    lives, so the range check runs first.  In-range data has a spectrum
    that vanishes there too, and the quotient's lambda = 0 bin is the limit
    spec'(0) / (i pi / 2) = (2 / pi) dt sum_q t_q (M T g)(t_q), the first
    moment of the mixed channels; every other bin is divided directly.
    """
    return uniform_invert_with_verdict(sd, g, grid)[0]


def uniform_invert_with_verdict(sd: SpectralData, g: PiecewiseFunction,
                                grid: TGrid = None, range_tol=1e-6):
    """``uniform_invert`` plus the range verdict it checked, as (f, verdict).

    The verdict is the ``uniform_range_check`` result of the same spectrum
    the inversion uses, so the spectrum of g is computed once.
    """
    grid = grid or TGrid()
    spec, moment, verdict = _range_verdict(sd, g, grid, range_tol)
    if not verdict["pass"]:
        msg = ("low-frequency energy test failed: dc_energy = "
               f"{verdict['dc_energy']} > {verdict['tolerance']:.3e}")
        frac = verdict["t_boundary_fraction"]
        if frac > BOUNDARY_TOL:
            msg += (f"; t-grid boundary energy fraction {frac:.1e} > "
                    f"{BOUNDARY_TOL:.0e}, so the grid may be too short: "
                    "increase tmax")
        raise RangeViolationError(msg)
    recovered = np.empty_like(spec)
    recovered[:, 0] = (2.0 / np.pi) * moment
    recovered[:, 1:] = spec[:, 1:] / (1j * np.tanh(np.pi * grid.lam[1:] / 2.0))
    f = _demix_to_function(sd, recovered, grid, weighted=True, source=g)
    return f, verdict
