"""Interval-system geometry and branch-correct radical arithmetic.

A system is a finite union of disjoint closed intervals
I = I_1 u ... u I_n, I_j = [alpha_j, beta_j], alpha_1 < beta_1 < alpha_2 < ...
Each interval carries the radical R_j(z) = sqrt((z - alpha_j)(z - beta_j))
cut along I_j and normalized so that R_j(z) ~ z at infinity.  The branch
rules everything downstream depends on:

    R_j(x) > 0 for real x > beta_j,   R_j(x) < 0 for real x < alpha_j,
    R_{j+}(x) = i sqrt((x - alpha_j)(beta_j - x)) on the cut,
    R_{j-}(x) = -R_{j+}(x).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NonFiniteError, OverlapError

ABOVE = +1
BELOW = -1


class IntervalSystem:
    """Ordered disjoint real intervals with radical evaluators.

    Parameters
    ----------
    endpoints : sequence of (alpha_j, beta_j) pairs, strictly increasing.
    """

    def __init__(self, endpoints):
        pts = np.asarray(endpoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise OverlapError("endpoints must be a non-empty list of pairs")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteError("interval endpoints must be finite")
        flat = pts.reshape(-1)
        if not np.all(np.diff(flat) > 0):
            raise OverlapError(
                "endpoints must satisfy a_1 < b_1 < a_2 < ... < a_n < b_n, "
                f"got {flat.tolist()}"
            )
        self.endpoints = pts
        self.alpha = pts[:, 0].copy()
        self.beta = pts[:, 1].copy()
        self.n = pts.shape[0]
        self.mid = 0.5 * (self.alpha + self.beta)
        self.half = 0.5 * (self.beta - self.alpha)
        self.scale = float(np.max(np.abs(flat)))

    def __repr__(self):
        ivals = ", ".join(f"[{a:g}, {b:g}]" for a, b in self.endpoints)
        return f"IntervalSystem({ivals})"

    def __eq__(self, other):
        return (isinstance(other, IntervalSystem)
                and np.array_equal(self.endpoints, other.endpoints))

    def to_unit(self, j, z):
        """Affine map of interval j onto [-1, 1]."""
        return (np.asarray(z) - self.mid[j]) / self.half[j]

    def from_unit(self, j, s):
        return self.mid[j] + self.half[j] * np.asarray(s)

    def locate(self, x):
        """Index of the open interval containing real x, or -1."""
        x = float(x)
        for j in range(self.n):
            if self.alpha[j] < x < self.beta[j]:
                return j
        return -1

    def weight(self, j, x):
        """sqrt((x - alpha_j)(beta_j - x)) for x in I_j (the sqrt weight)."""
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.maximum((x - self.alpha[j]) * (self.beta[j] - x), 0.0))


def make_interval_system(endpoints) -> IntervalSystem:
    """Validate and build an IntervalSystem from endpoint pairs."""
    return IntervalSystem(endpoints)


def unit_radical(s, side=None):
    """sqrt(s^2 - 1) on [-1, 1]-cut, ~ s at infinity, for scalar or array s.

    For real s in (-1, 1) a side (+1 above, -1 below) must be given; the
    boundary values are +/- i sqrt(1 - s^2).  Complex s never needs a side:
    the principal-branch product sqrt(s - 1) * sqrt(s + 1) realizes the cut
    on [-1, 1] only.
    """
    s = np.asarray(s)
    if np.isrealobj(s):
        s = s.astype(float)
        out = np.empty(s.shape, dtype=complex)
        right = s >= 1.0
        left = s <= -1.0
        cut = ~(right | left)
        out[right] = np.sqrt(s[right] ** 2 - 1.0)
        out[left] = -np.sqrt(s[left] ** 2 - 1.0)
        if np.any(cut):
            if side not in (ABOVE, BELOW):
                raise DomainError("side (+1/-1) required for points on the cut")
            out[cut] = 1j * side * np.sqrt(1.0 - s[cut] ** 2)
        return out
    return np.sqrt(s - 1.0) * np.sqrt(s + 1.0)


def joukowski_exterior(s, side=None):
    """u = s + sqrt(s^2 - 1) with |u| >= 1 (exterior Joukowski coordinate)."""
    return np.asarray(s) + unit_radical(s, side)


def radical_eval(sys: IntervalSystem, j, z, side=None):
    """R_j(z) = sqrt((z - alpha_j)(z - beta_j)), cut on I_j, R_j ~ z at infinity.

    ``side`` (+1 above / -1 below) selects the boundary value for real z
    strictly inside I_j, where it is required, and is ignored elsewhere.
    """
    if not 0 <= j < sys.n:
        raise IndexError(f"interval index {j} out of range for n={sys.n}")
    return sys.half[j] * unit_radical(sys.to_unit(j, z), side)


def multi_radical_sqrt(sys: IntervalSystem, x, z):
    """Sign-resolved sqrt of prod_j (x-alpha_j)(x-beta_j)(z-alpha_j)(z-beta_j).

    Both x and z must lie strictly inside (possibly different) intervals of
    the system.  The value is

        -sgn(p(x)) sgn(p(z)) prod_j |(x-a_j)(x-b_j)(z-a_j)(z-b_j)|^(1/2),

    where p(t) = prod_j (t - alpha_j).
    """
    for t in (x, z):
        if sys.locate(t) < 0:
            raise DomainError(f"point {t} is not inside the open intervals")

    def odd_sign(t):
        return np.prod(np.sign(t - sys.alpha))

    mag = 1.0
    for j in range(sys.n):
        mag *= abs((x - sys.alpha[j]) * (x - sys.beta[j])
                   * (z - sys.alpha[j]) * (z - sys.beta[j]))
    return -odd_sign(x) * odd_sign(z) * np.sqrt(mag)
