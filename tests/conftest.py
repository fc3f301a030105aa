import numpy as np
import pytest

from quermass.core import RngStream
from quermass.polytope import hull2d_indices


@pytest.fixture
def rng():
    return RngStream(20240817, 0)


def within_sigma(estimate, target, sigmas=3.0, floor=0.0):
    """|estimate - target| <= sigmas * max(std_error, floor)."""
    err = max(estimate.std_error, floor)
    return abs(estimate.value - target) <= sigmas * err


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def shoelace_of_hull(points):
    """Area through hull2d_indices and the plain shoelace, one row at a time."""
    idx = hull2d_indices(points)
    if len(idx) < 3:
        return 0.0
    x, y = points[idx, 0], points[idx, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
