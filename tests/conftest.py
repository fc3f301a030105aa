import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from quermass.core import RngStream


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


def qhull_area(points):
    """Area of the convex hull of planar points from scipy's Qhull; 0 for
    points that span no area."""
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0
