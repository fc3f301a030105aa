import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from conftest import unit
from quermass import bodies as bd
from quermass import grassmann as gr
from quermass.core import RngStream, orthonormalize
from quermass.corpus import corpus


def unit_cube(centered=False):
    center = np.zeros(3) if centered else np.full(3, 0.5)
    flags = bd.Flags(symmetric=centered)
    return bd.box(center, np.full(3, 0.5), flags)


def crosspoly(n=3):
    return bd.vpolytope(np.vstack([np.eye(n), -np.eye(n)]), bd.Flags(symmetric=True))


def test_support_examples():
    assert bd.support(bd.ball(np.zeros(3), 2.0), unit([0, 1, 0])) == pytest.approx(2.0)
    assert bd.support(bd.box(np.zeros(3), np.ones(3)), unit([1, 0, 0])) == pytest.approx(1.0)
    u = unit([1, 1, 1])
    assert bd.support(crosspoly(), u) == pytest.approx(1 / math.sqrt(3), rel=1e-12)


def test_support_requires_unit_direction():
    with pytest.raises(ValueError):
        bd.support(bd.ball(np.zeros(2), 1.0), np.array([2.0, 0.0]))


def test_support_hpolytope_lp():
    body = bd.hpolytope(np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 0.5))
    assert bd.support(body, unit([1, 0, 0])) == pytest.approx(0.5, abs=1e-9)
    assert bd.support(body, unit([1, 1, 1])) == pytest.approx(
        1.5 / math.sqrt(3), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_support_additive_under_minkowski_sum(seed):
    gen = RngStream(seed).generator()
    a = bd.vpolytope(gen.standard_normal((6, 2)))
    b = bd.vpolytope(gen.standard_normal((6, 2)))
    s = bd.minkowski_sum(a, b)
    u = unit(gen.standard_normal(2))
    assert bd.support(s, u) == pytest.approx(
        bd.support(a, u) + bd.support(b, u), abs=1e-9)


def test_contains_examples():
    ball = bd.ball(np.zeros(3), 1.0)
    assert bd.contains(ball, np.zeros(3))
    assert not bd.contains(ball, np.array([1 + 1e-6, 0, 0]))
    assert bd.contains(unit_cube(), np.full(3, 0.5))


def test_contains_lp_agrees_with_facets(rng):
    body = bd.vpolytope(rng.generator().standard_normal((12, 3)))
    probe = rng.split(1).generator().uniform(-2, 2, size=(60, 3))
    via_facets = bd.contains_batch(body, probe)
    via_lp = np.array([bd.contains(body, x) for x in probe])
    assert (via_facets == via_lp).all()


def test_volume_examples():
    assert bd.volume(bd.ball(np.zeros(3), 1.0)) == pytest.approx(4 * math.pi / 3)
    assert bd.volume(bd.box(np.zeros(3), np.full(3, 0.5))) == pytest.approx(1.0)
    simplex = bd.vpolytope(np.vstack([np.zeros(3), np.eye(3)]))
    assert bd.volume(simplex) == pytest.approx(1 / 6, rel=1e-12)
    shape = np.diag([1.0, 4.0, 9.0])
    assert bd.volume(bd.ellipsoid(np.zeros(3), shape)) == pytest.approx(
        4 * math.pi / 3 * 6.0, rel=1e-12)


def test_barycenter_examples():
    assert np.allclose(bd.barycenter(bd.ball(np.array([1.0, 2.0]), 0.5)), [1, 2])
    tri = bd.vpolytope(np.array([[0, 0], [1, 0], [0, 1.0]]))
    assert np.allclose(bd.barycenter(tri), [1 / 3, 1 / 3], atol=1e-12)
    assert np.allclose(bd.barycenter(unit_cube()), 0.5, atol=1e-12)


def test_translate_to_centered():
    cube = bd.translate_to_centered(unit_cube())
    assert np.allclose(bd.barycenter(cube), 0.0, atol=1e-12)
    assert cube.flags.centered
    again = bd.translate_to_centered(cube)
    assert np.allclose(bd.barycenter(again), 0.0, atol=1e-12)

    ball = bd.ball(np.zeros(2), 1.0)
    assert np.allclose(bd.barycenter(bd.translate_to_centered(ball)), 0.0)

    simplex = bd.vpolytope(np.vstack([np.zeros(3), np.eye(3)]))
    centered = bd.translate_to_centered(simplex)
    assert np.allclose(bd.barycenter(centered), 0.0, atol=1e-12)
    assert np.allclose(
        sorted(centered.vertices[:, 0]), sorted(simplex.vertices[:, 0] - 0.25))


def test_project_examples():
    f2 = np.eye(3)[:, :2]
    disk = bd.project(bd.ball(np.zeros(3), 1.0), f2)
    assert disk.kind == "ball" and disk.dim == 2 and disk.radius == 1.0

    square = bd.project(bd.box(np.zeros(3), np.full(3, 0.5)), f2)
    assert bd.volume(square) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(np.abs(square.vertices), 0.5)

    seg = bd.vpolytope(np.array([[1, 1], [-1, -1.0]]) / math.sqrt(2))
    proj = bd.project(seg, np.eye(2)[:, :1])
    assert sorted(proj.vertices[:, 0]) == pytest.approx(
        [-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-12)


def test_affine_section_examples():
    ball = bd.ball(np.zeros(3), 1.0)
    f2 = np.eye(3)[:, :2]
    sec = bd.affine_section(ball, f2, np.array([0, 0, 0.6]))
    assert sec.radius == pytest.approx(0.8, rel=1e-12)
    assert bd.affine_section(ball, f2, np.array([0, 0, 1.5])) is None

    cube = unit_cube(centered=True)
    sec = bd.central_section(cube, f2)
    assert bd.volume(sec) == pytest.approx(1.0, rel=1e-9)


def test_affine_section_point_anywhere_in_flat():
    # the section through a point depends only on the point's part
    # orthogonal to F: the unit square for the centred unit 4-cube and
    # span(e_1, e_2), whether the point is inside the cube or far outside
    ball = bd.ball(np.zeros(3), 1.0)
    sec = bd.affine_section(ball, np.eye(3)[:, :2], np.array([0.5, -3.0, 0.6]))
    assert sec.radius == pytest.approx(0.8, rel=1e-12)
    assert np.allclose(sec.center, 0.0)
    cube = bd.box(np.zeros(4), np.full(4, 0.5))
    f2 = np.eye(4)[:, :2]
    for point in ([0.3, -0.2, 0.1, 0.25], [5.0, 5.0, 0.1, 0.25]):
        sec = bd.affine_section(cube, f2, np.array(point))
        assert bd.volume(sec) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(np.sort(np.abs(sec.vertices).ravel()), 0.5)


def test_raw_basis_must_be_orthonormal():
    with pytest.raises(ValueError):
        bd.project(bd.ball(np.zeros(3), 1.0), np.array([[1.0, 0], [0, 2.0], [0, 0]]))
    with pytest.raises(ValueError):
        bd.central_section(unit_cube(centered=True),
                           np.array([[1.0, 1.0], [0, 1.0], [0, 0]]))


def test_section_volume_maximal_at_center_symmetric(rng):
    # For symmetric bodies, offset sections cannot beat the central one.
    bodies = [unit_cube(centered=True), crosspoly(3),
              bd.ellipsoid(np.zeros(3), np.diag([1.0, 2.0, 0.5]),
                           bd.Flags(symmetric=True))]
    for b_i, body in enumerate(bodies):
        for i in range(50):
            sub = rng.split(100 * b_i + i)
            flat = gr.haar_subspace(3, 2, sub)
            comp = flat.complement()
            shadow = bd.project(body, comp.basis)
            y = bd.sample_uniform(shadow, 1, sub.split(1))[0]
            section = bd.affine_section(body, flat, comp.basis @ y)
            central = bd.central_section(body, flat)
            off_vol = bd.volume(section) if section is not None else 0.0
            assert off_vol <= bd.volume(central) + 1e-9


def _section_oracle(normals, offsets, basis, point):
    """Volume of the section {y : normals (x + basis y) <= offsets}, x the
    part of point orthogonal to the flat, from scipy's halfspace
    intersection, or by hand for a segment."""
    x = point - basis @ (basis.T @ point)
    a, b = normals @ basis, offsets - normals @ x
    if basis.shape[1] == 1:
        a = a[:, 0]
        return (b[a > 0] / a[a > 0]).min() - (b[a < 0] / a[a < 0]).max()
    hs = HalfspaceIntersection(np.hstack([a, -b[:, None]]), basis.T @ point)
    return ConvexHull(hs.intersections).volume


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lifted_shadow_points_witness_sections(k, rng, monkeypatch):
    lps = []
    monkeypatch.setattr(bd, "linprog", lambda *a, **kw: lps.append(1) or linprog(*a, **kw))
    polytopes = [b for b in corpus("all")
                 if b.dim == 4 and b.kind in ("box", "vpolytope")]
    assert len(polytopes) == 5
    for b_i, body in enumerate(polytopes):
        normals, offsets = bd._hrep(body)
        for i, basis in enumerate(gr.haar_bases(4, 4 - k, 200, rng.split(b_i))):
            flat = gr.Subspace(4, 4 - k, basis)
            comp = flat.complement()
            ys, lifts = bd.sample_lifted_with(bd.project(body, comp), 1,
                                              rng.split(b_i).split(i).generator())
            assert np.abs(lifts @ comp.basis - ys).max() <= 1e-12
            assert (offsets - normals @ lifts[0]).min() > 0.0
            for point in (np.zeros(4), lifts[0]):
                sec = bd.affine_section(body, flat, point)
                assert bd.volume(sec) == pytest.approx(
                    _section_oracle(normals, offsets, flat.basis, point), rel=1e-9)
    assert lps == []


def test_vpolytope_takes_one_rank_test(monkeypatch):
    ranks = []
    real = bd.pt.affine_rank
    monkeypatch.setattr(bd.pt, "affine_rank", lambda *a: ranks.append(1) or real(*a))
    gen = np.random.default_rng(8)
    for n in (1, 2, 4):
        ranks.clear()
        body = bd.vpolytope(gen.normal(size=(12, n)))
        assert ranks == [1] and not body._cache.get("degenerate")
        assert len(body.vertices) == len(body._cache["hull"].vertices)
    flat = gen.normal(size=(12, 4))
    flat[:, 3] = 0.5
    body = bd.vpolytope(flat)
    assert body._cache["degenerate"] and body.vertices is not None
    assert bd.volume(body) == 0.0


def test_boundary_witness_takes_the_lp(monkeypatch):
    lps = []
    monkeypatch.setattr(bd, "linprog", lambda *a, **kw: lps.append(1) or linprog(*a, **kw))
    cube = bd.box(np.zeros(4), np.full(4, 0.5))
    f2 = np.eye(4)[:, :2]
    inside = bd.affine_section(cube, f2, np.array([0.1, 0.0, 0.2, -0.3]))
    assert lps == []
    boundary = bd.affine_section(cube, f2, np.array([0.5, 0.0, 0.2, -0.3]))
    assert lps == [1]
    assert bd.volume(boundary) == pytest.approx(1.0, rel=1e-12)
    assert bd.volume(boundary) == pytest.approx(bd.volume(inside), rel=1e-12)


def test_lifted_points_of_balls_and_ellipsoids(rng):
    flat = gr.haar_subspace(4, 2, rng)
    for i, body in enumerate([bd.ball(np.array([0.3, 0, -0.2, 0.1]), 1.5),
                              bd.ellipsoid(np.full(4, 0.2), np.diag([1.0, 4.0, 0.25, 2.0]))]):
        ys, lifts = bd.sample_lifted_with(bd.project(body, flat), 500,
                                          rng.split(i).generator())
        assert np.abs(lifts @ flat.basis - ys).max() <= 1e-12
        assert bd.contains_batch(body, lifts).all()


def test_projection_section_product_bounds_volume(rng):
    # |P_F K| * |K cap F-perp| >= |K| for symmetric bodies
    for body in (unit_cube(centered=True), crosspoly(3)):
        for i in range(20):
            flat = gr.haar_subspace(3, 1, rng.split(i))
            pv = bd.volume(bd.project(body, flat.basis))
            sec = bd.central_section(body, flat.complement())
            sv = bd.volume(sec) if sec is not None else 0.0
            assert pv * sv >= bd.volume(body) - 1e-9


def test_minkowski_sum_examples():
    square = bd.vpolytope(bd._vrep(bd.box(np.zeros(2), np.full(2, 0.5))))
    origin = bd.vpolytope(np.zeros((1, 2)))
    same = bd.minkowski_sum(square, origin)
    assert bd.volume(same) == pytest.approx(1.0, rel=1e-12)

    seg = lambda: bd.vpolytope(np.array([[-1.0], [1.0]]))
    total = bd.minkowski_sum(seg(), seg())
    assert sorted(total.vertices[:, 0]) == pytest.approx([-2.0, 2.0])


def test_minkowski_octagon():
    r = 1 / math.sqrt(2)
    square = bd.vpolytope(np.array([[r, r], [-r, r], [-r, -r], [r, -r]]))
    theta = math.pi / 4
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    rotated = bd.transform_orthogonal(square, rot)
    octagon = bd.minkowski_sum(square, rotated)
    # direct hull of the 16 pairwise sums is the oracle
    sums = np.array([a + b for a in square.vertices for b in rotated.vertices])
    from quermass.polytope import convex_hull
    oracle = convex_hull(sums, 2)
    assert len(octagon.vertices) == 8
    assert bd.volume(octagon) == pytest.approx(oracle.volume(), rel=1e-12)


def test_sample_uniform_box_mean(rng):
    cube = unit_cube(centered=True)
    pts = bd.sample_uniform(cube, 100_000, rng)
    se = (1.0 / math.sqrt(12)) / math.sqrt(len(pts))
    assert np.abs(pts.mean(axis=0)).max() <= 4 * se


def test_sample_uniform_ball_area_fraction(rng):
    pts = bd.sample_uniform(bd.ball(np.zeros(2), 1.0), 100_000, rng)
    frac = (np.linalg.norm(pts, axis=1) <= 0.5).mean()
    se = math.sqrt(0.25 * 0.75 / len(pts))
    assert abs(frac - 0.25) <= 4 * se


def test_sample_uniform_membership(rng):
    simplex = bd.vpolytope(np.vstack([np.zeros(3), np.eye(3)]))
    pts = bd.sample_uniform(simplex, 2000, rng)
    assert bd.contains_batch(simplex, pts).all()
    ell = bd.ellipsoid(np.zeros(3), np.diag([4.0, 1.0, 0.25]))
    pts = bd.sample_uniform(ell, 2000, rng.split(1))
    assert bd.contains_batch(ell, pts).all()


def _simplex_moments(v):
    """Mean and second-moment matrix of the uniform law on the simplex with
    vertex rows v: E[x x^T] = (sum v_i v_i^T + s s^T) / ((d+1)(d+2)), s = sum v_i."""
    d = v.shape[1]
    s = v.sum(axis=0)
    return s / (d + 1), (v.T @ v + np.outer(s, s)) / ((d + 1) * (d + 2))


def _assert_moments(pts, mean, second, sigmas=5.0):
    n = len(pts)
    assert np.all(np.abs(pts.mean(axis=0) - mean) <= sigmas * pts.std(axis=0) / math.sqrt(n))
    prods = pts[:, :, None] * pts[:, None, :]
    err = sigmas * prods.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(prods.mean(axis=0) - second) <= err)


def test_sample_uniform_fan_moments(rng):
    square = bd.hpolytope(np.vstack([np.eye(2), -np.eye(2)]), np.array([1, 1, 0, 0.0]))
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
    tet = np.vstack([np.zeros(3), np.eye(3)])
    cases = [(square, np.full(2, 0.5), np.array([[1 / 3, 1 / 4], [1 / 4, 1 / 3]])),
             (bd.vpolytope(tri), *_simplex_moments(tri)),
             (bd.vpolytope(tet), *_simplex_moments(tet)),
             # cross-polytope: E[x_i^2] = 2 / ((d+1)(d+2))
             (crosspoly(4), np.zeros(4), np.eye(4) / 15)]
    for i, (body, mean, second) in enumerate(cases):
        pts = bd.sample_uniform(body, 40_000, rng.split(i))
        assert bd.contains_batch(body, pts).all()
        _assert_moments(pts, mean, second)


def test_sample_uniform_needle(rng):
    # a 1e-7-wide triangle fills a 1e-7 share of its bounding box
    eps = 1e-7
    v = np.array([[0.0, 0.0], [1.0, 1.0], [1.0 + eps, 1.0 - eps]])
    needle = bd.vpolytope(v)
    pts = bd.sample_uniform(needle, 20_000, rng)
    assert bd.contains_batch(needle, pts, tol=1e-12).all()
    _assert_moments(pts, *_simplex_moments(v))


def test_hpolytope_rejects_unbounded():
    with pytest.raises(bd.UnboundedBodyError):
        bd.hpolytope(np.eye(2), np.ones(2))
    with pytest.raises(bd.UnboundedBodyError):
        bd.hpolytope(np.vstack([np.eye(3), -np.eye(3)[:2]]), np.ones(5))


def test_hpolytope_is_its_halfspaces(rng):
    # the slab -1/2 <= x_1 + x_2 <= 1 cut by |x_i| <= 1, rows not unit
    a = np.vstack([[2.0, 2.0, 0.0], [-1.0, -1.0, 0.0], np.eye(3), -np.eye(3)])
    b = np.array([2.0, 0.5, 1, 1, 1, 1, 1, 1])
    body = bd.hpolytope(a, b)
    probe = rng.generator().uniform(-1.5, 1.5, size=(2000, 3))
    assert (bd.contains_batch(body, probe) == (probe @ a.T <= b).all(axis=1)).all()
    qhull = HalfspaceIntersection(np.hstack([a, -b[:, None]]), np.zeros(3))
    assert bd.volume(body) == pytest.approx(ConvexHull(qhull.intersections).volume,
                                            rel=1e-12)
    for i, (k, point) in enumerate([(2, np.zeros(3)), (2, np.array([0.3, 0.1, 0.5])),
                                    (1, np.array([0.2, 0.2, -0.4]))]):
        flat = gr.haar_subspace(3, k, rng.split(i))
        sec = bd.affine_section(body, flat, point)
        assert bd.volume(sec) == pytest.approx(
            _section_oracle(a, b, flat.basis, point), rel=1e-9)
    assert bd.affine_section(body, np.eye(3)[:, :2], np.array([0.0, 0.0, 2.0])) is None


def test_hpolytope_rejects_empty_input():
    with pytest.raises(bd.DegenerateBodyError):
        bd.hpolytope(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    # a square of zero width has no interior
    with pytest.raises(bd.DegenerateBodyError):
        bd.hpolytope(np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 0.0, 1.0, 0.0]))


@pytest.mark.parametrize("n, facets", [(3, 80), (5, 40)])
def test_derived_hpolytopes_keep_their_volume(n, facets):
    # tangent halfspaces of the unit sphere: more facets than vertex
    # enumeration takes, in bodies built without the constructor's checks
    gen = RngStream(41, n).generator()
    u = gen.standard_normal((facets, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    body = bd.hpolytope(u, np.ones(facets))
    qhull = HalfspaceIntersection(np.hstack([u, -np.ones((facets, 1))]), np.zeros(n))
    vol = bd.volume(body)
    assert vol == pytest.approx(ConvexHull(qhull.intersections).volume, rel=1e-9)
    q = orthonormalize(gen.standard_normal((n, n)))
    derived = [(bd.translate(body, gen.standard_normal(n)), 1.0),
               (bd.scale(body, 1.7), 1.7 ** n),
               (bd.transform_orthogonal(body, q), 1.0),
               (bd.translate_to_centered(body), 1.0)]
    for image, factor in derived:
        assert isinstance(image._cache.get("hull"), bd.pt.HullComplex)
        assert bd.volume(image) == pytest.approx(factor * vol, rel=1e-9)


def test_scale_homogeneity():
    cube = unit_cube(centered=True)
    assert bd.volume(bd.scale(cube, 2.0)) == pytest.approx(8.0, rel=1e-12)
    ell = bd.ellipsoid(np.zeros(2), np.diag([1.0, 4.0]))
    assert bd.volume(bd.scale(ell, 3.0)) == pytest.approx(
        9.0 * bd.volume(ell), rel=1e-12)


def test_distance_batch_closed_forms():
    cube = unit_cube(centered=True)
    d = bd.distance_batch(cube, np.array([[1.0, 0, 0], [0.2, 0, 0], [1.0, 1.0, 1.0]]))
    assert d == pytest.approx([0.5, 0.0, math.sqrt(3) / 2], abs=1e-12)
    ell = bd.ellipsoid(np.zeros(2), np.diag([4.0, 1.0]))
    d = bd.distance_batch(ell, np.array([[3.0, 0.0], [0.0, 2.0], [0.1, 0.1]]))
    assert d == pytest.approx([1.0, 1.0, 0.0], abs=1e-9)


def _dist_to_l1_ball(points):
    # Euclidean distance to {||y||_1 <= 1} via simplex projection
    out = np.zeros(len(points))
    for i, x in enumerate(points):
        a = np.abs(x)
        if a.sum() <= 1.0:
            continue
        u = np.sort(a)[::-1]
        css = np.cumsum(u)
        ks = np.arange(1, len(a) + 1)
        k = ks[u - (css - 1.0) / ks > 0].max()
        tau = (css[k - 1] - 1.0) / k
        y = np.sign(x) * np.maximum(a - tau, 0.0)
        out[i] = np.linalg.norm(x - y)
    return out


def test_in_dilation_polytope(rng):
    body = crosspoly(3)
    probes = np.array([[1.2, 0, 0], [1.05, 0, 0], [0.2, 0.2, 0.2],
                       [0.6, 0.6, 0.0]])
    got = bd.in_dilation(body, probes, 0.1)
    assert list(got) == [False, True, True, False]
    pts = rng.generator().uniform(-1.5, 1.5, size=(800, 3))
    lam = 0.3
    got = bd.in_dilation(body, pts, lam)
    dist = _dist_to_l1_ball(pts)
    decisive = np.abs(dist - lam) > 1e-6
    assert (got[decisive] == (dist[decisive] <= lam)).all()


def test_body_spec_roundtrip():
    bodies = [
        bd.ball(np.zeros(3), 2.0, bd.Flags(symmetric=True)),
        bd.box(np.array([0.5, 0.5]), np.array([0.5, 0.25])),
        bd.ellipsoid(np.zeros(2), np.diag([1.0, 4.0])),
        crosspoly(3),
        bd.hpolytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)),
    ]
    for body in bodies:
        spec = bd.body_to_spec(body)
        back = bd.body_from_spec(spec)
        assert back.kind == body.kind
        assert back.dim == body.dim
        assert back.flags.symmetric == body.flags.symmetric
        assert bd.volume(back) == pytest.approx(bd.volume(body), rel=1e-12)


def test_fingerprint_distinguishes_bodies():
    a = bd.ball(np.zeros(2), 1.0)
    b = bd.ball(np.zeros(2), 1.0 + 1e-12)
    assert bd.fingerprint(a) == bd.fingerprint(bd.ball(np.zeros(2), 1.0))
    assert bd.fingerprint(a) != bd.fingerprint(b)
