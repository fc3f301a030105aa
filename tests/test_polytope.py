import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull as QhullReference

from conftest import qhull_area
from quermass import bodies as bd
from quermass import integrals as it
from quermass import polytope as pt
from quermass.core import RngStream, gaussian_matrix, orthonormalize
from quermass.polytope import (
    CapabilityError,
    DegenerateHullError,
    convex_hull,
    halfspace_intersection_vertices,
    hull_volume,
    hull_volumes,
    polygon_areas,
    volume_and_centroid,
)


def cube_corners(d=3):
    return np.array(np.meshgrid(*[[0.0, 1.0]] * d, indexing="ij")).reshape(d, -1).T


def simplex_corners(d):
    return np.vstack([np.zeros(d), np.eye(d)])


def cross_polytope(d):
    return np.vstack([np.eye(d), -np.eye(d)])


def facet_incidence(hull, tol=1e-12):
    """(facet count, vertices x facets table of which vertex lies on which
    facet), from facet_matrix and the vertex slacks."""
    a, b = hull.facet_matrix()
    slack = hull.vertices @ a.T - b
    assert slack.max() <= tol
    return len(a), np.abs(slack) <= tol


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
    count, on = facet_incidence(hull)
    assert count == n_facets
    assert (on.sum(axis=0) == per_facet).all()


def test_hull_drops_repeated_and_non_extreme_points():
    corners = cube_corners(3)
    pts = np.vstack([corners, corners, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.5]]])
    hull = convex_hull(pts)
    assert len(hull.vertices) == 8
    assert np.array_equal(hull.vertices, pts[hull.rows])
    count, on = facet_incidence(hull)
    assert count == 6
    assert (on.sum(axis=0) == 4).all()
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
    # given clockwise from a corner that is not the smallest, with the
    # centre and a repeated corner
    pts = np.array([[1, 1], [1, 0], [0.5, 0.5], [0, 0], [0, 1], [1, 0.0]])
    hull = convex_hull(pts)
    # a ring: counterclockwise from the lexicographically smallest vertex
    assert hull.vertices.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert np.array_equal(hull.vertices, pts[hull.rows])
    assert hull.simplices.tolist() == [[0, 1], [1, 2], [2, 3], [3, 0]]
    a, b = hull.facet_matrix()
    assert np.allclose(a, [[0, -1], [1, 0], [0, 1], [-1, 0]], atol=1e-15)
    assert np.allclose(b, [0, 1, 1, 0], atol=1e-15)
    assert hull.volume() == pytest.approx(1.0, rel=1e-12)
    assert hull.surface_area() == pytest.approx(4.0, rel=1e-12)


def test_cube_hull_structure():
    hull = convex_hull(cube_corners())
    assert len(hull.vertices) == 8
    count, on = facet_incidence(hull)
    assert count == 6
    # two facets of a 3-polytope meet in an edge when they share >= 2 vertices
    sets = [set(np.flatnonzero(col)) for col in on.T]
    edges = sum(len(a & b) >= 2 for a, b in itertools.combinations(sets, 2))
    assert len(hull.vertices) - edges + count == 2
    assert all(len(s) >= 3 for s in sets)


def test_hull_containment_oracle(rng):
    pts = rng.generator().standard_normal((100, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.5]
    hull = convex_hull(pts)
    a, b = hull.facet_matrix()
    assert (pts @ a.T <= b + 1e-9).all()
    # the hull vertices are the input rows scipy's Qhull calls extreme
    assert np.array_equal(hull.vertices, pts[hull.rows])
    assert sorted(hull.rows) == sorted(QhullReference(pts).vertices)
    # and run counterclockwise from the lexicographically smallest one
    assert min(map(tuple, hull.vertices)) == tuple(hull.vertices[0])
    e = np.roll(hull.vertices, -1, axis=0) - hull.vertices
    f = np.roll(e, -1, axis=0)
    assert (e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0] > 0).all()


def _rotated(points, normals, offsets, seed):
    """points, and the planes {n x <= b}, under x -> q x + t for a random
    rotation q and shift t."""
    d = points.shape[1]
    q = orthonormalize(gaussian_matrix(d, d, RngStream(seed)))
    t = RngStream(seed, 1).generator().normal(size=d)
    normals = normals @ q.T
    return points @ q.T + t, normals, offsets + normals @ t


def _box(d):
    half = 0.5 + np.arange(d) / d
    signs = 2.0 * cube_corners(d) - 1.0
    eye = np.eye(d)
    return signs * half, np.vstack([eye, -eye]), np.concatenate([half, half])


def _cross(d):
    signs = 2.0 * cube_corners(d) - 1.0
    return 1.5 * cross_polytope(d), signs / math.sqrt(d), np.full(2 ** d, 1.5 / math.sqrt(d))


def _prism(d):
    # a (d-1)-simplex times the segment [-0.7, 0.7]
    base = simplex_corners(d - 1)
    points = np.vstack([np.column_stack([base, np.full(d, h)]) for h in (-0.7, 0.7)])
    normals = np.zeros((d + 2, d))
    normals[:d - 1, :d - 1] = -np.eye(d - 1)
    normals[d - 1, :d - 1] = 1.0 / math.sqrt(d - 1)
    normals[d, d - 1], normals[d + 1, d - 1] = 1.0, -1.0
    offsets = np.concatenate([np.zeros(d - 1), [1.0 / math.sqrt(d - 1), 0.7, 0.7]])
    return points, normals, offsets


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("shape", [_box, _cross, _prism])
def test_facet_matrix_matches_closed_form_facets(shape, d):
    points, normals, offsets = _rotated(*shape(d), seed=40 + d)
    a, b = convex_hull(points).facet_matrix()
    assert len(a) == len(normals)
    got = np.column_stack([a, b])
    for row in np.column_stack([normals, offsets]):
        assert np.abs(got - row).max(axis=1).min() <= 1e-12


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


def _enumerate_vertices(a, b):
    """Reference: solve every square subsystem, keep the feasible solutions."""
    d = a.shape[1]
    found = []
    for rows in itertools.combinations(range(len(a)), d):
        sub = a[list(rows)]
        if abs(np.linalg.det(sub)) > 1e-10:
            x = np.linalg.solve(sub, b[list(rows)])
            if (a @ x <= b + 1e-8).all() and not any(
                    np.linalg.norm(x - y) <= 1e-8 for y in found):
                found.append(x)
    return np.array(found)


def test_vertex_enumeration_cube():
    a = np.vstack([np.eye(3), -np.eye(3)])
    b = np.array([1, 1, 1, 0, 0, 0.0])
    verts = halfspace_intersection_vertices(a, b, np.full(3, 0.5))
    assert len(verts) == 8
    assert {tuple(v) for v in np.round(verts, 12)} == {
        tuple(v) for v in cube_corners()}


def test_vertex_enumeration_simplex_and_crosspoly():
    a = np.vstack([-np.eye(3), np.ones((1, 3))])
    b = np.array([0, 0, 0, 1.0])
    assert len(halfspace_intersection_vertices(a, b, np.full(3, 0.2))) == 4
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3, indexing="ij")).reshape(3, -1).T
    verts = halfspace_intersection_vertices(signs, np.ones(8), np.zeros(3))
    assert len(verts) == 6


def test_vertex_enumeration_recovers_hull_vertices(rng):
    pts = rng.split(5).generator().standard_normal((20, 3))
    hull = convex_hull(pts)
    a, b = hull.facet_matrix()
    verts = halfspace_intersection_vertices(a, b, pts.mean(axis=0))
    found = {tuple(np.round(v, 7)) for v in verts}
    expected = {tuple(np.round(v, 7)) for v in hull.vertices}
    assert found == expected


def test_halfspace_intersection_matches_enumeration(rng):
    pts = rng.split(6).generator().standard_normal((25, 3))
    hull = convex_hull(pts)
    a, b = hull.facet_matrix()
    via_dual = halfspace_intersection_vertices(a, b, hull.interior_point)
    via_combi = _enumerate_vertices(a, b)
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


def _planar(points):
    """Area and perimeter from the hull, and the perimeter again as twice
    the W_1 that quermass_exact gives the V-polytope."""
    hull = convex_hull(points)
    return hull.volume(), hull.surface_area(), 2 * it.quermass_exact(bd.vpolytope(points), 1)


def test_planar_intrinsics_examples():
    area, *perims = _planar(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]))
    assert area == pytest.approx(1.0, rel=1e-12)
    assert perims == pytest.approx([4.0, 4.0], rel=1e-12)

    area, *perims = _planar(np.array([[0, 0], [1, 0], [0, 1.0]]))
    assert area == pytest.approx(0.5, rel=1e-12)
    assert perims == pytest.approx([2 + math.sqrt(2)] * 2, rel=1e-12)


def test_planar_regular_polygon_approximates_disk():
    m = 1024
    theta = np.linspace(0, 2 * math.pi, m, endpoint=False)
    poly = np.column_stack([np.cos(theta), np.sin(theta)])
    area, *perims = _planar(poly)
    assert abs(area - math.pi) < 1e-4
    assert max(abs(p - 2 * math.pi) for p in perims) < 1e-4
    # closed forms of the regular polygon itself
    assert area == pytest.approx(0.5 * m * math.sin(2 * math.pi / m), rel=1e-12)
    assert perims == pytest.approx([2 * m * math.sin(math.pi / m)] * 2, rel=1e-12)


def test_planar_degenerate_flagged():
    segment = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DegenerateHullError) as err:
        convex_hull(segment)
    assert err.value.rank == 1
    body = bd.vpolytope(segment)
    assert body._cache["degenerate"]
    assert bd.volume(body) == 0.0
    assert it.quermass_exact(body, 1) is None


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
    expected = [qhull_area(p) for p in pts]
    np.testing.assert_allclose(polygon_areas(pts), expected, rtol=1e-12)


def test_polygon_areas_chunks_agree(monkeypatch):
    pts = np.random.default_rng(7).normal(size=(50, 8, 2))
    whole = polygon_areas(pts)
    monkeypatch.setattr(pt, "AREA_CHUNK", 7)
    np.testing.assert_array_equal(polygon_areas(pts), whole)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_hull_volumes_closed_forms(d):
    # each shape twice: as given, and shifted with its points reversed
    for corners, volume in ((cube_corners(d), 1.0),
                            (simplex_corners(d), 1.0 / math.factorial(d))):
        stack = np.stack([corners, corners[::-1] - 0.75])
        assert hull_volumes(stack) == pytest.approx([volume, volume], rel=1e-12)


def test_hull_volumes_one_dimensional_rows():
    stack = np.array([[[0.5], [-1.0], [2.0]], [[3.0], [3.0], [3.0]]])
    assert hull_volumes(stack).tolist() == [3.0, 0.0]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_hull_volumes_flat_rows_are_zero(d):
    gen = RngStream(31, d).generator()
    in_plane = gen.standard_normal((3, 12, d))
    in_plane[..., -1] = 0.7  # every row inside a hyperplane
    collinear = np.outer(gen.standard_normal(12), gen.standard_normal(d))[None]
    repeated = np.broadcast_to(gen.standard_normal(d), (1, 12, d))
    stack = np.concatenate([in_plane, collinear, repeated])
    assert hull_volumes(stack).tolist() == [0.0] * 5
    assert hull_volumes(in_plane[:, :d]).tolist() == [0.0] * 3  # d points


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_hull_volumes_mixed_stack_matches_per_row_hulls(d):
    gen = RngStream(32, d).generator()
    stack = gen.standard_normal((12, d + 6, d)) * gen.uniform(0.1, 3.0, (12, 1, 1))
    stack[4, :, 0] = stack[4, :, 1]  # flat row
    got = hull_volumes(stack)
    assert got[4] == pytest.approx(0.0, abs=1e-12)
    for i in set(range(12)) - {4}:
        assert got[i] == pytest.approx(hull_volume(stack[i]), rel=1e-12)
