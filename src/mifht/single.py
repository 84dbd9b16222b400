"""Single-interval finite Hilbert transform: forward map, range data, inversion.

The forward operator is H[f](z) = (1/pi) int_I f(t)/(t - z) dt, principal
value on the interval.  For data in the range (moment int g/R_+ dt = 0) the
inverse is

    H^{-1}[g](z) = -(R_+(z)/pi) int_I g(t) / (R_+(t) (t - z)) dt,

with R_+ the boundary value of the radical from above the cut.  In the
scaled Chebyshev bases both operators are coefficient maps:

    forward:  w * sum a_k U_k  ->  -h * sum a_k T_{k+1}   (PV on interval)
    inverse:  sum b_n T_n      ->  -w * sum b_{n+1} U_n / h

so a round trip is exact on the coefficients.  The constant mode b_0 is
annihilated by the inversion; its size is exactly the range defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chebyshev as cheb
from .chebyshev import PiecewiseFunction
from .errors import DomainError, NonFiniteError, RangeError
from .intervals import ABOVE, IntervalSystem, unit_radical

_ENDPOINT_TOL = 1e-13


@dataclass
class RangeData:
    """Range moment, shift constant and range constant for one interval."""

    j: int
    m0: complex
    c: complex
    kappa: complex


def _classify_points(sys: IntervalSystem, j, points):
    z = np.atleast_1d(np.asarray(points, dtype=complex))
    s = sys.to_unit(j, z)
    on_axis = np.abs(s.imag) == 0.0
    at_end = on_axis & (np.abs(np.abs(s.real) - 1.0) <= _ENDPOINT_TOL)
    if np.any(at_end):
        raise DomainError("evaluation exactly at an interval endpoint")
    inside = on_axis & (np.abs(s.real) < 1.0)
    # drop a spurious zero imaginary part so the branch logic sees real points
    return z, (s.real if np.all(on_axis) else s), inside


def fht_forward(f: PiecewiseFunction, points, j=0, side=None):
    """H_j[f_j] at arbitrary complex points (PV sense on I_j).

    ``side`` (+1/-1) selects a boundary value instead of the PV for points
    on the cut.  Points inside other intervals of the system are ordinary
    off-cut evaluations here.
    """
    _, s, inside = _classify_points(f.sys, j, points)
    if f.weighted:
        out = f.sys.half[j] * cheb.fht_weighted(f.coeffs[j], s, side)
    else:
        out = cheb.fht_plain(f.coeffs[j], s, side)
    out = out.astype(complex, copy=False)
    if f.field == "real" and side is None and np.all(inside):
        out = out.real
    return out if np.ndim(points) else out[0]


def range_scan(f: PiecewiseFunction, j=0) -> RangeData:
    """Moment m0 = int f/R_+, shift c with int (f-c)/R_+ = 0, and kappa.

    kappa is the first moment -(1/pi) int t (f(t) - c) / R_+(t) dt, the
    unique constant making the radical-weighted inversion formula agree
    with the plain one on in-range data.
    """
    h = f.sys.half[j]
    m = f.sys.mid[j]
    if not np.all(np.isfinite(f.coeffs[j])):
        raise NonFiniteError("piece coefficients contain non-finite values")
    if f.weighted:
        a = f.coeffs[j]
        c = (h / np.pi) * cheb.chebU_integral(a)
        kappa = 1j * (h * h / np.pi) * cheb.chebU_first_moment(a)
    else:
        b = f.coeffs[j]
        c = b[0]
        kappa = 0.5j * h * (b[1] if b.shape[0] > 1 else 0.0)
    m0 = -1j * np.pi * c
    if abs(np.imag(c)) <= 1e-13 * (1.0 + abs(c)):
        c = np.real(c)
    return RangeData(j=j, m0=m0, c=c, kappa=kappa)


def _invert_coeffs(f: PiecewiseFunction, j, presubtract=0.0):
    """Smooth-part U coefficients of H^{-1}[f_j - presubtract] on I_j.

    For plain input the map is the exact coefficient shift -b_{n+1}/h.  For
    weighted input the smooth part of the result carries logarithmic
    endpoint structure (the PV transform of the polynomial part), so its U
    series converges only algebraically; the projection uses an enlarged
    grid and pointwise callers should prefer the direct evaluation path.
    """
    h = f.sys.half[j]
    if f.weighted:
        # H^{-1}[w p - c](x) = -w_phys(x) * (PV transform of polynomial p)(s);
        # the subtracted constant is annihilated by the PV kernel on the cut
        p_T = cheb.chebU_to_T(f.coeffs[j])
        s = cheb.cheb2_nodes(max(4 * p_T.shape[0], 96))
        smooth_vals = -cheb.fht_plain(p_T, s)
        a = cheb.chebU_coeffs(smooth_vals)
        return np.asarray(a, dtype=complex)
    b = f.coeffs[j]
    if b.shape[0] <= 1:
        return np.zeros(1, dtype=complex)
    return -np.asarray(b[1:], dtype=complex) / h


def fht_invert(g: PiecewiseFunction, points=None, j=0, presubtract=0.0,
               check_range=True):
    """Invert the finite Hilbert transform of g_j - presubtract on I_j.

    Returns a sqrt-vanishing PiecewiseFunction on [alpha_j, beta_j] when
    ``points`` is None, else values at the given points; points off the
    interval evaluate the same radical-weighted expression there (so that
    inverting the constant 1 gives 0 on the interval and -i off it).
    """
    rd = range_scan(g, j)
    m0_eff = rd.m0 - (-1j * np.pi * presubtract)
    if check_range:
        tol = 1e-8 * (1.0 + g.piece_norm2(j))
        if abs(m0_eff) > tol:
            raise RangeError(
                f"data not in range on interval {j}: |m0| = {abs(m0_eff):.3e} > {tol:.3e}"
            )
    a = _invert_coeffs(g, j, presubtract)
    sub = IntervalSystem([g.sys.endpoints[j]])
    is_real = g.field == "real" and abs(np.imag(presubtract)) == 0
    result = PiecewiseFunction(sub, [a], weighted=True,
                               field="real" if is_real else "complex")
    if points is None:
        return result

    z, s, inside = _classify_points(g.sys, j, points)
    if g.weighted:
        # direct transform of the polynomial part, PV on the cut; exact
        # where the projected series is not.  On the cut i h R_+ = -w_phys
        cpart = cheb.fht_plain(cheb.chebU_to_T(g.coeffs[j]), s)
        out = 1j * g.sys.half[j] * unit_radical(s, ABOVE) * cpart
        out[~inside] += 1j * presubtract
    else:
        out = np.zeros(z.shape, dtype=complex)
        if np.any(inside):
            out[inside] = result.piece_values(0, z[inside].real)
        if np.any(~inside):
            b = g.coeffs[j]
            out[~inside] = -1j * (b[0] - presubtract - cheb.fht_weighted(b[1:], s[~inside]))
    return out if np.ndim(points) else out[0]


def invert_with_kappa(g: PiecewiseFunction, points, j=0, kappa=None, presub=0.0):
    """General-constant inversion -(1/(pi R)) int R_+ g /(t-z) dt - kappa/R.

    Cross-checks that the radical-weighted formula with the kappa from
    range_scan reproduces fht_invert pointwise on in-range data.  Only the
    plain storage tag is supported: then R_+ (g - c) = i h w(s) q(s) with a
    polynomial q, and the integral is a weighted-class transform.
    """
    if g.weighted:
        raise ValueError("invert_with_kappa expects a plain-tagged function")
    rd = range_scan(g, j)
    if kappa is None:
        kappa = rd.kappa
    h = g.sys.half[j]
    b = np.asarray(g.coeffs[j], dtype=complex).copy()
    b[0] -= presub
    a_w = _t_to_u(b)  # smooth part of (g - c) in the U basis
    s = _classify_points(g.sys, j, points)[1]
    out = -(1j * h * cheb.fht_weighted(a_w, s) + kappa) / (h * unit_radical(s, ABOVE))
    return out if np.ndim(points) else out[0]


def _t_to_u(b):
    """U coefficients of the polynomial sum b_n T_n."""
    # T_0 = U_0, T_1 = U_1/2, T_n = (U_n - U_{n-2}) / 2
    a = 0.5 * np.asarray(b, dtype=complex)
    a[0] = b[0]
    a[:-2] -= 0.5 * b[2:]
    return a
