"""Reference values computed apart from quermass.

Closed forms are written out here from their textbook definitions and
polytope volumes and areas come from scipy's Qhull, so a fault in the
program's constants, estimators or hull code cannot hide in the reference.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

SIGMAS = 5.0  # statistical comparisons allow five standard errors


def omega(d: int) -> float:
    """Volume of the d-dimensional unit ball."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def alpha(n: int, k: int, j: int) -> float:
    """Crofton constant: integral of W_j over (n-k)-flats is alpha W_j(K)."""
    return omega(n - k) * omega(n - j) / (omega(n - k - j) * omega(n))


def ball_quermass(n: int, radius: float, j: int) -> float:
    return omega(n) * radius ** (n - j)


def box_quermass(sides, j: int) -> float:
    """W_j = omega_j V_{n-j} / C(n, j), with V_m the m-th elementary
    symmetric function of the side lengths."""
    sides = [float(s) for s in sides]
    n = len(sides)
    v = sum(math.prod(c) for c in itertools.combinations(sides, n - j))
    return omega(j) * v / math.comb(n, j)


def ellipsoid_volume(semiaxes) -> float:
    return omega(len(semiaxes)) * math.prod(float(a) for a in semiaxes)


def crosspolytope_surface(n: int) -> float:
    """Surface area of conv{+-e_i} in R^n: 2^n facets of area sqrt(n)/(n-1)!."""
    return 2.0 ** n * math.sqrt(n) / math.factorial(n - 1)


def polytope_quermass(vertices, j: int) -> float:
    """W_0 (volume) or W_1 (surface area / n) from Qhull."""
    from scipy.spatial import ConvexHull

    pts = np.asarray(vertices, dtype=float)
    hull = ConvexHull(pts)
    if j == 0:
        return float(hull.volume)
    if j == 1:
        return float(hull.area) / pts.shape[1]
    raise ValueError("Qhull gives W_0 and W_1 only")


def close(value: float, target: float, sigma: float) -> bool:
    """|value - target| <= 5 sigma, with a 1e-9 relative floor for exact
    values."""
    slack = SIGMAS * sigma + 1e-9 * max(abs(target), abs(value))
    return math.isfinite(value) and abs(value - target) <= slack


def agree(a: float, sa: float, b: float, sb: float) -> bool:
    """Two estimates agree within SIGMAS combined standard errors."""
    return close(a, b, math.hypot(sa, sb))


def within_bounds(lower: float, middle: float, upper: float, sigma: float) -> bool:
    """lower - 5 sigma <= middle <= upper + 5 sigma (1e-9 relative floor)."""
    slack = SIGMAS * sigma + 1e-9 * (abs(lower) + abs(middle) + abs(upper))
    return math.isfinite(middle) and lower - slack <= middle <= upper + slack


def rel_equal(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(a), abs(b))
