import math

import numpy as np
import pytest

from conftest import qhull_area, within_sigma
from quermass import bodies as bd
from quermass import grassmann as gr
from quermass import integrals as it
from quermass import polytope as pt
from quermass.core import RngStream, gaussian_matrix, omega, orthonormalize


def centered_cube(n=3):
    return bd.box(np.zeros(n), np.full(n, 0.5), bd.Flags(symmetric=True))


def crosspoly(n=3):
    return bd.vpolytope(np.vstack([np.eye(n), -np.eye(n)]), bd.Flags(symmetric=True))


def test_exact_ball_all_orders():
    for n in (2, 3, 4, 5):
        ball = bd.ball(np.zeros(n), 1.0)
        for j in range(n + 1):
            assert it.quermass_exact(ball, j) == pytest.approx(omega(n), rel=1e-12)
        ball2 = bd.ball(np.zeros(n), 2.0)
        for j in range(n + 1):
            assert it.quermass_exact(ball2, j) == pytest.approx(
                omega(n) * 2 ** (n - j), rel=1e-12)


def test_exact_cube_values():
    cube = centered_cube()
    assert it.quermass_exact(cube, 0) == pytest.approx(1.0, rel=1e-12)
    assert it.quermass_exact(cube, 1) == pytest.approx(2.0, rel=1e-12)
    assert it.quermass_exact(cube, 2) == pytest.approx(math.pi, rel=1e-12)
    assert it.quermass_exact(cube, 3) == pytest.approx(omega(3), rel=1e-12)
    # surface area identity: S = n W_1
    assert 3 * it.quermass_exact(cube, 1) == pytest.approx(6.0, rel=1e-12)


def test_exact_box_elementary_symmetric():
    halves = np.array([0.5, 0.25, 0.125, 0.0625])
    box = bd.box(np.zeros(4), halves)
    sides = 2 * halves
    for j in range(5):
        m = 4 - j
        subsets = 0.0
        from itertools import combinations
        for combo in combinations(sides, m):
            subsets += np.prod(combo)
        expected = omega(j) * subsets / math.comb(4, m)
        assert it.quermass_exact(box, j) == pytest.approx(expected, rel=1e-12)


def test_exact_polytope_surface_and_planar():
    tri = bd.vpolytope(np.array([[0, 0], [1, 0], [0, 1.0]]))
    assert it.quermass_exact(tri, 0) == pytest.approx(0.5)
    assert it.quermass_exact(tri, 1) == pytest.approx((2 + math.sqrt(2)) / 2)
    assert it.quermass_exact(tri, 2) == pytest.approx(math.pi)
    cp = crosspoly(3)
    assert it.quermass_exact(cp, 1) == pytest.approx(
        bd._hull(cp).surface_area() / 3, rel=1e-12)
    assert it.quermass_exact(cp, 2) is None


def test_exact_unsupported_ellipsoid_middle():
    ell = bd.ellipsoid(np.zeros(3), np.diag([1.0, 2.0, 3.0]))
    assert it.quermass_exact(ell, 0) is not None
    assert it.quermass_exact(ell, 1) is None
    assert it.quermass_exact(ell, 3) == pytest.approx(omega(3))


def test_kubota_ball_zero_variance(rng):
    for n, j in ((3, 1), (4, 2), (5, 3)):
        est = it.quermass_kubota(bd.ball(np.zeros(n), 1.0), j, 500, rng)
        assert est.value == pytest.approx(omega(n), rel=1e-12)
        assert est.std_error <= 1e-9


def test_kubota_matches_exact_cube(rng):
    cube = centered_cube()
    for j in (1, 2):
        est = it.quermass_kubota(cube, j, 40_000, rng.split(j))
        assert within_sigma(est, it.quermass_exact(cube, j))
        assert abs(est.value - it.quermass_exact(cube, j)) < 0.005 * est.value


def test_kubota_matches_exact_boxes_n45(rng):
    for n in (4, 5):
        box = bd.box(np.zeros(n), 0.5 * (0.5 ** np.arange(n)))
        for j in range(1, n):
            est = it.quermass_kubota(box, j, 20_000, rng.split(10 * n + j))
            assert within_sigma(est, it.quermass_exact(box, j))


def box_corners(halfwidths):
    n = len(halfwidths)
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * n, indexing="ij")).reshape(n, -1).T
    return signs * np.asarray(halfwidths)


def test_kubota_planar_shadows_of_box_vpolytope(rng):
    # W_2 of a 4-d box given by its 16 corners: planar shadows, compared
    # with the elementary-symmetric closed form of the same box
    half = np.array([0.5, 0.7, 1.0, 1.3])
    target = it.quermass_exact(bd.box(np.zeros(4), half), 2)
    est = it.quermass_kubota(bd.vpolytope(box_corners(half)), 2, 20_000, rng)
    assert est.method == "kubota-mc"
    assert within_sigma(est, target, sigmas=5.0)


def test_planar_shadows_take_no_per_shadow_hull(rng, monkeypatch):
    body = bd.vpolytope(np.random.default_rng(3).normal(size=(22, 4)))
    bases = gr.haar_bases(4, 2, 300, rng)
    proj = np.einsum("vn,cnm->cvm", bd._vrep(body), bases)
    expected = [qhull_area(p) for p in proj]

    def forbidden(*args, **kwargs):
        raise AssertionError("per-shadow planar hull")
    monkeypatch.setattr(pt, "convex_hull", forbidden)
    np.testing.assert_allclose(it.projected_volumes(body, bases), expected, rtol=1e-12)


def test_kubota_matches_exact_ellipsoid_volume_order(rng):
    # projections of an ellipsoid have a closed form, so the estimator is
    # exact per sample; check it against the mean-width route for j = n-1
    ell = bd.ellipsoid(np.zeros(3), np.diag([1.0, 0.5, 0.25]),
                       bd.Flags(symmetric=True))
    kub = it.quermass_kubota(ell, 2, 40_000, rng)
    mw = it.meanwidth_quermass(ell, 40_000, rng.split(1))
    assert abs(kub.value - mw.value) <= 3 * math.hypot(kub.std_error, mw.std_error)


def test_mean_width_examples(rng):
    ball = bd.ball(np.zeros(3), 2.0)
    est = it.mean_width(ball, 200, rng)
    assert est.value == pytest.approx(2.0, rel=1e-12)

    cube = centered_cube()
    est = it.mean_width(cube, 100_000, rng.split(1))
    assert within_sigma(est, 0.75)
    w2 = it.meanwidth_quermass(cube, 100_000, rng.split(2))
    assert within_sigma(w2, math.pi)


def test_mean_width_flat_disk_embedded(rng):
    theta = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
    disk = bd.vpolytope(
        np.column_stack([np.cos(theta), np.sin(theta), np.zeros(1024)]))
    est = it.mean_width(disk, 100_000, rng)
    assert within_sigma(est, math.pi / 4, floor=1e-6)


def test_steiner_fit_disk(rng):
    est = it.quermass_steiner_fit(bd.ball(np.zeros(2), 1.0), 1, None, 60_000, rng)
    assert within_sigma(est, math.pi)


def test_steiner_fit_square_and_cube(rng):
    square = bd.box(np.zeros(2), np.full(2, 0.5))
    est = it.quermass_steiner_fit(square, 1, None, 60_000, rng)
    assert within_sigma(est, 2.0)

    cube = centered_cube()
    est1 = it.quermass_steiner_fit(cube, 1, None, 60_000, rng.split(1))
    assert within_sigma(est1, 2.0)
    kub = it.quermass_kubota(cube, 1, 20_000, rng.split(2))
    assert abs(est1.value - kub.value) <= 3 * math.hypot(est1.std_error,
                                                         kub.std_error)


def test_steiner_fit_conditioning_error(rng):
    cube = centered_cube()
    lams = np.full(4, 1.0)  # coincident radii: rank-deficient design
    with pytest.raises(it.FitConditioningError):
        it.quermass_steiner_fit(cube, 1, lams, 1000, rng)


def test_homogeneity_exact_and_mc(rng):
    cube = centered_cube()
    double = bd.scale(cube, 2.0)
    for j in range(4):
        assert it.quermass_exact(double, j) == pytest.approx(
            2 ** (3 - j) * it.quermass_exact(cube, j), rel=1e-9)
    cp = crosspoly(3)
    base = it.quermass_kubota(cp, 1, 20_000, rng)
    scaled = it.quermass_kubota(bd.scale(cp, 2.0), 1, 20_000, rng.split(1))
    sigma = math.hypot(4 * base.std_error, scaled.std_error)
    assert abs(scaled.value - 4 * base.value) <= 3 * sigma


def test_rigid_motion_invariance(rng):
    cp = crosspoly(3)
    q = orthonormalize(gaussian_matrix(3, 3, RngStream(55)))
    rotated = bd.transform_orthogonal(cp, q)
    a = it.quermass_kubota(cp, 2, 20_000, rng)
    b = it.quermass_kubota(rotated, 2, 20_000, rng.split(1))
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_quermass_vector_methods_and_monotonicity(rng):
    cp = crosspoly(3)
    w = [it.quermass_estimate(cp, j, 20_000, rng.split(j)) for j in range(4)]
    assert w[0].method == "exact"
    assert w[1].method == "exact"
    assert w[2].method == "meanwidth"
    assert w[3].method == "exact"
    assert w[3].value == pytest.approx(omega(3), rel=1e-12)
    # ordering of normalized radii is decreasing
    q = [(w[3 - j].value / omega(3)) ** (1 / j) for j in range(1, 4)]
    max_error = max(est.std_error for est in w)
    assert q[0] >= q[1] - 3 * max_error
    assert q[1] >= q[2] - 3 * max_error


def test_aleksandrov_volume_lower_bound(rng):
    # omega_n^{j/n} |K|^{(n-j)/n} <= W_j on a corpus slice
    bodies = [centered_cube(), crosspoly(3),
              bd.ellipsoid(np.zeros(3), np.diag([1.0, 0.7, 0.4]),
                           bd.Flags(symmetric=True))]
    for i, body in enumerate(bodies):
        vol = bd.volume(body)
        for j in (1, 2):
            est = it.quermass_estimate(body, j, 20_000, rng.split(i * 4 + j))
            bound = omega(3) ** (j / 3) * vol ** ((3 - j) / 3)
            assert est.value >= bound - 3 * max(est.std_error, 1e-12)


def test_method_agreement_across_bodies(rng):
    bodies = [
        bd.box(np.zeros(2), np.full(2, 0.5), bd.Flags(symmetric=True)),
        centered_cube(),
        crosspoly(3),
    ]
    for i, body in enumerate(bodies):
        n = body.dim
        for j in range(1, n):
            kub = it.quermass_kubota(body, j, 20_000, rng.split(100 + 10 * i + j))
            ste = it.quermass_steiner_fit(body, j, None, 30_000,
                                          rng.split(200 + 10 * i + j))
            sigma = math.hypot(kub.std_error, ste.std_error)
            assert abs(kub.value - ste.value) <= 3 * sigma
            exact = it.quermass_exact(body, j)
            if exact is not None:
                assert within_sigma(kub, exact)
                assert within_sigma(ste, exact)
