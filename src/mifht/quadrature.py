"""Quadrature grids on interval systems and the principal-value oracle.

The oracle is deliberately independent of the spectral machinery: it is an
excise-and-extrapolate scheme built on adaptive panels, used to validate
the closed-form transforms.
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


def pv_oracle(f, interval, z, tol=1e-10):
    """(1/pi) PV int_{interval} f(t)/(t - z) dt by excision + Richardson.

    Excising a symmetric window of radius h leaves an error with an odd
    expansion 2 h f'(z) + h^3 f'''(z)/9 + ..., which three Richardson
    levels in h remove.  Independent of the spectral transform path.
    """
    from scipy.integrate import quad  # test oracle only: kept off the import path
    a, b = float(interval[0]), float(interval[1])
    z = float(z)
    if not a < z < b:
        raise DomainError("pv_oracle needs z strictly inside the interval")

    def outer(h):
        # substitute t = a + y^2 (resp. b - y^2) so sqrt-type endpoint
        # behavior of f becomes smooth; harmless for analytic f
        opts = dict(limit=400, epsabs=1e-13, epsrel=1e-12)
        ya = np.sqrt(z - h - a)
        left = quad(lambda y: 2.0 * y * f(a + y * y) / (a + y * y - z),
                    0.0, ya, **opts)[0]
        yb = np.sqrt(b - z - h)
        right = quad(lambda y: 2.0 * y * f(b - y * y) / (b - y * y - z),
                     0.0, yb, **opts)[0]
        return left + right

    # keep the largest excision well inside the data's resolution scale so
    # the odd-power error expansion is in its asymptotic regime
    h0 = min(0.25 * min(z - a, b - z), (b - a) / 32.0)
    t = np.array([outer(h0 / 2 ** k) for k in range(5)])
    # eliminate the odd-power error terms h, h^3, h^5, h^7
    prev_last = t[-1]
    for p in (1, 3, 5, 7):
        fac = 2.0 ** p
        t = (fac * t[1:] - t[:-1]) / (fac - 1.0)
        correction = abs(t[-1] - prev_last)
        prev_last = t[-1]
    if correction > max(1e3 * tol, 1e-6 * (1.0 + abs(t[-1]))):
        raise ConvergenceError(
            f"PV refinement stalled: last correction {correction:.3e}"
        )
    return t[-1] / np.pi


def ordinary_cauchy(f, interval, z):
    """(1/pi) int f(t)/(t - z) dt for z off the (closed) interval."""
    from scipy.integrate import quad
    a, b = float(interval[0]), float(interval[1])
    opts = dict(limit=400, epsabs=1e-13, epsrel=1e-12)
    if np.iscomplexobj(np.asarray(z)) and np.imag(z) != 0:
        re = quad(lambda t: np.real(f(t) / (t - z)), a, b, **opts)[0]
        im = quad(lambda t: np.imag(f(t) / (t - z)), a, b, **opts)[0]
        return (re + 1j * im) / np.pi
    z = np.real(z)
    if a <= z <= b:
        raise DomainError("point is on the interval; use pv_oracle")
    return quad(lambda t: f(t) / (t - z), a, b, **opts)[0] / np.pi
