import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull as QhullReference

from conftest import shoelace_of_hull
from quermass import polytope as pt
from quermass.core import RngStream, gaussian_matrix, orthonormalize
from quermass.polytope import (
    CapabilityError,
    DegenerateHullError,
    UnboundedError,
    convex_hull,
    halfspace_intersection_vertices,
    hull_volume,
    planar_intrinsics,
    polygon_areas,
    vertex_enumeration,
    volume_and_centroid,
)


def cube_corners(d=3):
    return np.array(np.meshgrid(*[[0.0, 1.0]] * d, indexing="ij")).reshape(d, -1).T


def simplex_corners(d):
    return np.vstack([np.zeros(d), np.eye(d)])


def cross_polytope(d):
    return np.vstack([np.eye(d), -np.eye(d)])


# shape -> d -> (points, volume, surface area, facet count, vertices per facet)
CLOSED_FORMS = {
    "cube": lambda d: (cube_corners(d), 1.0, 2.0 * d, 2 * d, 2 ** (d - 1)),
    "simplex": lambda d: (
        simplex_corners(d),
        1.0 / math.factorial(d),
        (d + math.sqrt(d)) / math.factorial(d - 1),
        d + 1,
        d,
    ),
    "cross-polytope": lambda d: (
        cross_polytope(d),
        2.0**d / math.factorial(d),
        2.0**d * math.sqrt(d) / math.factorial(d - 1),
        2**d,
        d,
    ),
}


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("shape", sorted(CLOSED_FORMS))
def test_hull_closed_forms(shape, d):
    pts, volume, surface, n_facets, per_facet = CLOSED_FORMS[shape](d)
    hull = convex_hull(pts)
    assert len(hull.vertices) == len(pts)
    assert hull.volume() == pytest.approx(volume, rel=1e-12)
    assert hull.surface_area() == pytest.approx(surface, rel=1e-12)
    assert len(hull.facets) == n_facets
    assert all(len(f.vertex_ids) == per_facet for f in hull.facets)
    a, b = hull.facet_matrix()
    slack = hull.vertices @ a.T - b
    assert slack.max() <= 1e-12
    for i, facet in enumerate(hull.facets):
        assert np.abs(slack[list(facet.vertex_ids), i]).max() <= 1e-12


def test_hull_drops_repeated_and_non_extreme_points():
    corners = cube_corners(3)
    pts = np.vstack([corners, corners, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.5]]])
    hull = convex_hull(pts)
    assert len(hull.vertices) == 8
    assert len(hull.facets) == 6
    assert all(len(f.vertex_ids) == 4 for f in hull.facets)
    assert hull.volume() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_thin_hull_matches_stretched_copy(seed):
    # A slab of thickness 1e-9: stretching it to unit thickness is affine,
    # so the hull keeps its vertices and its volume scales by 1e9.
    gen = RngStream(seed).generator()
    pts = np.column_stack([gen.uniform(size=(30, 2)), 1e-9 * gen.uniform(size=30)])
    stretched = convex_hull(pts * [1.0, 1.0, 1e9])
    thin = convex_hull(pts)
    assert len(thin.vertices) == len(stretched.vertices)
    assert thin.volume() == pytest.approx(stretched.volume() / 1e9, rel=1e-6)


def test_square_hull():
    hull = convex_hull(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]))
    assert len(hull.vertices) == 4
    assert len(hull.facets) == 4


def test_cube_hull_structure():
    hull = convex_hull(cube_corners())
    assert len(hull.vertices) == 8
    assert len(hull.facets) == 6
    assert len(hull.vertices) - hull.edge_count() + len(hull.facets) == 2
    for facet in hull.facets:
        slack = hull.vertices @ facet.normal - facet.offset
        assert slack.max() <= 1e-9
        assert len(facet.vertex_ids) >= 3


def test_hull_containment_oracle(rng):
    pts = rng.generator().standard_normal((100, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.5]
    hull = convex_hull(pts)
    assert hull.contains(pts).all()
    # every hull vertex is one of the inputs
    for v in hull.vertices:
        assert np.min(np.linalg.norm(pts - v, axis=1)) < 1e-12


@pytest.mark.parametrize("dim,count", [(2, 60), (3, 80), (4, 60), (5, 40), (6, 24)])
def test_hull_volume_matches_qhull(dim, count, rng):
    pts = rng.split(dim).generator().standard_normal((count, dim))
    mine = hull_volume(pts)
    reference = QhullReference(pts)
    assert mine == pytest.approx(reference.volume, rel=1e-9)
    hull = convex_hull(pts)
    my_vertices = {tuple(np.round(v, 9)) for v in hull.vertices}
    ref_vertices = {tuple(np.round(pts[i], 9)) for i in reference.vertices}
    assert my_vertices == ref_vertices


def test_hull_surface_matches_qhull(rng):
    pts = rng.split(99).generator().standard_normal((50, 3))
    hull = convex_hull(pts)
    reference = QhullReference(pts)
    assert hull.surface_area() == pytest.approx(reference.area, rel=1e-9)


def test_hull_degenerate_rank():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
    with pytest.raises(DegenerateHullError) as err:
        convex_hull(flat)
    assert err.value.rank == 2


def test_hull_dim_cap():
    with pytest.raises(CapabilityError):
        convex_hull(np.zeros((10, 7)))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hull_volume_permutation_and_rotation_invariant(seed):
    pts = RngStream(seed).generator().standard_normal((30, 3))
    base = hull_volume(pts)
    perm = RngStream(seed, 1).generator().permutation(len(pts))
    assert hull_volume(pts[perm]) == pytest.approx(base, rel=1e-9)
    q = orthonormalize(gaussian_matrix(3, 3, RngStream(seed, 2)))
    assert hull_volume(pts @ q.T) == pytest.approx(base, rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hull_volume_monotone_in_points(seed):
    pts = RngStream(seed).generator().standard_normal((40, 3))
    assert hull_volume(pts[:15]) <= hull_volume(pts) + 1e-12


def test_vertex_enumeration_cube():
    a = np.vstack([np.eye(3), -np.eye(3)])
    b = np.array([1, 1, 1, 0, 0, 0.0])
    verts = vertex_enumeration(a, b)
    assert len(verts) == 8


def test_vertex_enumeration_simplex_and_crosspoly():
    a = np.vstack([-np.eye(3), np.ones((1, 3))])
    b = np.array([0, 0, 0, 1.0])
    assert len(vertex_enumeration(a, b)) == 4
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3, indexing="ij")).reshape(3, -1).T
    assert len(vertex_enumeration(signs, np.ones(8))) == 6


def test_vertex_enumeration_unbounded():
    a = np.eye(2)
    b = np.ones(2)
    with pytest.raises(UnboundedError):
        vertex_enumeration(a, b)


def test_vertex_enumeration_recovers_hull_vertices(rng):
    pts = rng.split(5).generator().standard_normal((20, 3))
    hull = convex_hull(pts)
    a, b = hull.facet_matrix()
    verts = vertex_enumeration(a, b)
    found = {tuple(np.round(v, 7)) for v in verts}
    expected = {tuple(np.round(v, 7)) for v in hull.vertices}
    assert found == expected


def test_halfspace_intersection_matches_enumeration(rng):
    pts = rng.split(6).generator().standard_normal((25, 3))
    hull = convex_hull(pts)
    a, b = hull.facet_matrix()
    via_dual = halfspace_intersection_vertices(a, b, hull.interior_point)
    via_combi = vertex_enumeration(a, b, check_bounded=False)
    assert len(via_dual) == len(via_combi)
    assert hull_volume(via_dual) == pytest.approx(hull_volume(via_combi), rel=1e-9)


def test_volume_and_centroid_examples():
    cube = convex_hull(cube_corners())
    vol, cen = volume_and_centroid(cube)
    assert vol == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(cen, 0.5, atol=1e-12)

    simplex = convex_hull(np.vstack([np.zeros(3), np.eye(3)]))
    vol, cen = volume_and_centroid(simplex)
    assert vol == pytest.approx(1 / 6, rel=1e-12)
    assert np.allclose(cen, 0.25, atol=1e-12)

    crosspoly = convex_hull(np.vstack([np.eye(3), -np.eye(3)]))
    vol, cen = volume_and_centroid(crosspoly)
    assert vol == pytest.approx(4 / 3, rel=1e-12)
    assert np.allclose(cen, 0.0, atol=1e-12)


def test_planar_intrinsics_examples():
    area, perim = planar_intrinsics(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]))
    assert area == pytest.approx(1.0, rel=1e-12)
    assert perim == pytest.approx(4.0, rel=1e-12)

    area, perim = planar_intrinsics(np.array([[0, 0], [1, 0], [0, 1.0]]))
    assert area == pytest.approx(0.5, rel=1e-12)
    assert perim == pytest.approx(2 + math.sqrt(2), rel=1e-12)


def test_planar_regular_polygon_approximates_disk():
    m = 1024
    theta = np.linspace(0, 2 * math.pi, m, endpoint=False)
    poly = np.column_stack([np.cos(theta), np.sin(theta)])
    area, perim = planar_intrinsics(poly)
    assert abs(area - math.pi) < 1e-4
    assert abs(perim - 2 * math.pi) < 1e-4
    # closed forms of the regular polygon itself
    assert area == pytest.approx(0.5 * m * math.sin(2 * math.pi / m), rel=1e-12)
    assert perim == pytest.approx(2 * m * math.sin(math.pi / m), rel=1e-12)


def test_planar_degenerate_flagged(caplog):
    segment = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with caplog.at_level("WARNING"):
        area, perim = planar_intrinsics(segment)
    assert area == 0.0
    assert perim == pytest.approx(2 * math.sqrt(8), rel=1e-9)
    assert any("degenerate" in rec.message for rec in caplog.records)


def regular_polygon(k, r, phase):
    theta = phase + 2 * math.pi * np.arange(k) / k
    return r * np.column_stack([np.cos(theta), np.sin(theta)])


def test_polygon_areas_regular_polygons_of_mixed_sizes():
    # k-gons for k = 3..12 in one batch, padded to 12 points with the
    # centre and repeated vertices, so the rows have different hull sizes
    gen = np.random.default_rng(5)
    rows, expected = [], []
    for k in range(3, 13):
        r = 0.5 + gen.uniform()
        poly = regular_polygon(k, r, gen.uniform(0, 2 * math.pi)) + gen.normal(size=2)
        pad = [poly.mean(axis=0)] + [poly[i % k] for i in range(12 - k - 1)]
        rows.append(np.vstack([poly] + [np.atleast_2d(p) for p in pad])[:12])
        expected.append(0.5 * k * math.sin(2 * math.pi / k) * r * r)
    areas = polygon_areas(np.array(rows))
    assert areas.shape == (10,)
    np.testing.assert_allclose(areas, expected, rtol=1e-12)


def test_polygon_areas_invariant_under_point_permutation():
    gen = np.random.default_rng(6)
    pts = gen.normal(size=(200, 9, 2))
    pts[:, 5] = pts[:, 2]  # ties in the sort order as well
    perm = np.array([gen.permutation(9) for _ in range(200)])
    shuffled = np.take_along_axis(pts, perm[:, :, None], axis=1)
    np.testing.assert_array_equal(polygon_areas(shuffled), polygon_areas(pts))


def test_polygon_areas_degenerate_rows_are_zero():
    t = np.linspace(-1.0, 2.0, 6)
    rows = np.array([
        np.zeros((6, 2)),                               # all equal
        np.full((6, 2), 3.5),                           # all equal, off the origin
        np.column_stack([t, 2.0 * t + 1.0]),            # collinear
        np.column_stack([t, np.zeros(6)]),              # collinear, horizontal
        np.column_stack([np.zeros(6), t]),              # collinear, vertical
        [[0, 0], [1, 1], [0, 0], [1, 1], [0, 0], [1, 1]],  # two distinct points
    ], dtype=float)
    np.testing.assert_array_equal(polygon_areas(rows), np.zeros(6))
    # fewer than three points per row, and an empty batch
    np.testing.assert_array_equal(polygon_areas(np.ones((4, 2, 2))), np.zeros(4))
    assert polygon_areas(np.empty((0, 5, 2))).shape == (0,)
    with pytest.raises(ValueError):
        polygon_areas(np.zeros((4, 5, 3)))


@pytest.mark.parametrize("v", [3, 4, 7, 16, 40])
def test_polygon_areas_match_per_row_hull(v):
    gen = np.random.default_rng(100 + v)
    pts = gen.normal(size=(300, v, 2)) * gen.uniform(0.1, 10.0, size=(300, 1, 1))
    expected = [shoelace_of_hull(p) for p in pts]
    np.testing.assert_allclose(polygon_areas(pts), expected, rtol=1e-12)


def test_polygon_areas_chunks_agree(monkeypatch):
    pts = np.random.default_rng(7).normal(size=(50, 8, 2))
    whole = polygon_areas(pts)
    monkeypatch.setattr(pt, "AREA_CHUNK", 7)
    np.testing.assert_array_equal(polygon_areas(pts), whole)
