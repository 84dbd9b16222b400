"""Quadrature grids on interval systems and the principal-value oracle.

The oracle is deliberately independent of the spectral machinery: it is a
singularity subtraction integrated by fixed Gauss-Legendre rules in the
angle of t = mid + h cos(theta), used to validate the closed-form transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chebyshev import _cheb2_theta, _gauss_legendre
from .errors import ConvergenceError, DomainError
from .intervals import IntervalSystem

GAUSS_LEGENDRE = "gauss-legendre"
GAUSS_CHEBYSHEV_1 = "gauss-chebyshev-first-kind"
GAUSS_CHEBYSHEV_2 = "gauss-chebyshev-second-kind"


@dataclass(frozen=True)
class QuadratureGrid:
    """Per-interval nodes/weights; ``sqrt_weights`` absorb the sqrt weight.

    ``weights[j]`` integrate plain values, int_{I_j} f dx = sum w f(x);
    for the second-kind family ``sqrt_weights[j]`` integrate smooth parts,
    int_{I_j} w_j(x) g(x) dx = sum sw g(x).
    """

    family: str
    sizes: tuple
    nodes: list = field(repr=False)
    weights: list = field(repr=False)
    sqrt_weights: list = field(default=None, repr=False)

    def __post_init__(self):
        for j, (x, w) in enumerate(zip(self.nodes, self.weights)):
            if np.any(w <= 0):
                raise ValueError("quadrature weights must be positive")


def legendre_grid(sys: IntervalSystem, M) -> QuadratureGrid:
    sizes = _sizes(sys, M)
    nodes, weights = [], []
    for j, m in enumerate(sizes):
        xg, wg = _gauss_legendre(m)
        nodes.append(sys.from_unit(j, xg))
        weights.append(sys.half[j] * wg)
    return QuadratureGrid(GAUSS_LEGENDRE, tuple(sizes), nodes, weights)


def chebyshev1_grid(sys: IntervalSystem, M) -> QuadratureGrid:
    """Nodes of T_M; weights integrate f/w exactly for polynomial f.

    ``weights`` here integrate plain values against dx/w_j(x):
    int f / w dx = sum w f(x) with w = pi/M each (after scaling the measure
    is invariant under the affine map).
    """
    sizes = _sizes(sys, M)
    nodes, weights = [], []
    for j, m in enumerate(sizes):
        q = np.arange(m)
        s = np.cos(np.pi * (q + 0.5) / m)[::-1]
        nodes.append(sys.from_unit(j, s))
        weights.append(np.full(m, np.pi / m))
    return QuadratureGrid(GAUSS_CHEBYSHEV_1, tuple(sizes), nodes, weights)


def chebyshev2_grid(sys: IntervalSystem, M) -> QuadratureGrid:
    """Gauss nodes of U_M with both plain and sqrt-absorbing weights."""
    sizes = _sizes(sys, M)
    nodes, weights, sqrtw = [], [], []
    for j, m in enumerate(sizes):
        theta = _cheb2_theta(m)
        s = np.cos(theta)[::-1]
        sin_t = np.sin(theta)[::-1]
        h = sys.half[j]
        nodes.append(sys.from_unit(j, s))
        weights.append(h * np.pi * sin_t / (m + 1))
        sqrtw.append(h * h * np.pi * sin_t ** 2 / (m + 1))
    return QuadratureGrid(GAUSS_CHEBYSHEV_2, tuple(sizes), nodes, weights, sqrtw)


def _sizes(sys, M):
    if np.isscalar(M):
        return [int(M)] * sys.n
    if len(M) != sys.n:
        raise ValueError("need one grid size per interval")
    return [int(m) for m in M]


def _cosine_rule(integrand, a, b, tol=1e-10):
    """int_a^b integrand(t) dt by Gauss-Legendre in theta, t = mid + h cos(theta).

    dt = h sin(theta) dtheta makes sqrt-type endpoint behaviour smooth in
    theta.  Rules of 128 and 256 nodes must agree, else ConvergenceError.
    """
    mid, h = 0.5 * (a + b), 0.5 * (b - a)
    vals = []
    for m in (128, 256):
        x, w = _gauss_legendre(m)
        theta = 0.5 * np.pi * (x + 1.0)
        vals.append(0.5 * np.pi * h * (w * np.sin(theta)) @ integrand(mid + h * np.cos(theta)))
    correction = abs(vals[1] - vals[0])
    if correction > max(1e3 * tol, 1e-6 * (1.0 + abs(vals[1]))):
        raise ConvergenceError(f"rules of 128 and 256 nodes differ by {correction:.3e}")
    return vals[1]


def _values(f, t):
    """f at the points t: one vectorized call, or one call per point where f
    does not return an array of t's shape (f may take scalars only)."""
    v = np.asarray(f(t))
    return v if v.shape == t.shape else np.array([f(x) for x in t])


def pv_oracle(f, interval, z, tol=1e-10):
    """(1/pi) PV int_{interval} f(t)/(t - z) dt by singularity subtraction.

    PV int f/(t - z) = f(z) log((b - z)/(z - a)) + int (f(t) - f(z))/(t - z) dt,
    whose integrand is smooth; it runs by ``_cosine_rule``.  Independent of
    the spectral transform path.
    """
    a, b = float(interval[0]), float(interval[1])
    z = float(z)
    if not a < z < b:
        raise DomainError("pv_oracle needs z strictly inside the interval")
    fz = _values(f, np.array([z]))[0]
    rest = _cosine_rule(lambda t: (_values(f, t) - fz) / (t - z), a, b, tol)
    return (fz * np.log((b - z) / (z - a)) + rest) / np.pi


def ordinary_cauchy(f, interval, z):
    """(1/pi) int f(t)/(t - z) dt for z off the (closed) interval, by ``_cosine_rule``."""
    a, b = float(interval[0]), float(interval[1])
    if np.imag(z) == 0 and a <= np.real(z) <= b:
        raise DomainError("point is on the interval; use pv_oracle")
    return _cosine_rule(lambda t: _values(f, t) / (t - z), a, b) / np.pi
