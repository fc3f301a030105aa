import math

import numpy as np
import pytest
from scipy import integrate

from quermass import bodies as bd
from quermass import grassmann as gr
from quermass import integrals as it
from quermass import verify as vf
from quermass.core import RngStream, omega, orthonormalize


def ball3():
    return bd.ball(np.zeros(3), 1.0, bd.Flags(symmetric=True)).with_name("ball-3d")


def centered_cube(n=3):
    return bd.box(np.zeros(n), np.full(n, 0.5),
                  bd.Flags(symmetric=True)).with_name(f"cube-{n}d")


def crosspoly(n=3):
    return bd.vpolytope(np.vstack([np.eye(n), -np.eye(n)]),
                        bd.Flags(symmetric=True)).with_name(f"crosspoly-{n}d")


def centered_simplex(n=3):
    verts = np.vstack([np.zeros(n), np.eye(n)])
    return bd.translate_to_centered(bd.vpolytope(verts)).with_name(f"simplex-{n}d")


def test_constant_formulas():
    assert vf.alpha_const(3, 1, 1) == pytest.approx(3 * math.pi / 8, rel=1e-12)
    assert vf.gamma_cor12_const(3, 1, 1) == pytest.approx(math.pi ** 2 / 4, rel=1e-12)
    assert vf.delta_const(3, 1, 1) == pytest.approx(3 / math.pi, rel=1e-12)
    assert vf.alpha_const(3, 1, 0) == pytest.approx(1.0, rel=1e-12)
    assert vf.shrink_factor(3, 1, 1) == pytest.approx(0.5)
    assert vf.fradelizi_factor(3, 1) == pytest.approx((4 / 3) ** 2)
    assert vf.stephen_yaskin_factor(3, 1, 1) == pytest.approx(2.0)


def test_dpp_constant_oracles(rng):
    # one ball point with the origin: E|x| = 1/2
    est = vf.dpp_constant(1, 1, True, 150_000, rng)
    assert abs(est.value - 0.5) <= 3 * est.std_error
    # two disk points with the origin: expected triangle area 4/(9 pi)
    est = vf.dpp_constant(2, 2, True, 150_000, rng.split(1))
    assert abs(est.value - 4 / (9 * math.pi)) <= 3 * est.std_error
    # two segment points without the origin: E|x1 - x2| = 2/3
    est = vf.dpp_constant(1, 2, False, 150_000, rng.split(2))
    assert abs(est.value - 2 / 3) <= 3 * est.std_error


def test_dpp_constant_two_segment_points_with_origin(rng):
    # quadrature oracle for E[max(0,x,y) - min(0,x,y)] over [-1,1]^2
    oracle, _ = integrate.dblquad(
        lambda y, x: max(0.0, x, y) - min(0.0, x, y), -1, 1, -1, 1)
    oracle /= 4.0
    assert oracle == pytest.approx(5 / 6, abs=1e-6)
    est = vf.dpp_constant(1, 2, True, 150_000, rng)
    assert abs(est.value - 5 / 6) <= 3 * est.std_error


def test_dpp_constant_caching(rng):
    a = vf.dpp_constant(2, 3, True, 20_000, rng)
    b = vf.dpp_constant(2, 3, True, 20_000, rng)
    assert a is b


def _own_span_body(row):
    """The per-row oracle: the V-polytope of a point row in its own span,
    as the kernel's per-row route builds it."""
    q = min(len(row) - 1, row.shape[1])
    if q == row.shape[1]:
        return bd.vpolytope(row)
    edges = row[1:] - row[:1]
    return bd.vpolytope(np.vstack([np.zeros(q), edges @ orthonormalize(edges.T)]))


@pytest.mark.parametrize("origin", [False, True])
def test_hull_quermass_simplices_match_per_row_hulls(origin):
    gen = np.random.default_rng(11)
    for d in range(1, 7):
        for q in range(1, min(d, 5) + 1):
            x = gen.standard_normal((20, q if origin else q + 1, d))
            if origin:
                x = vf._with_origin(x)
            for j in (0, 1):
                values, degenerate = vf._hull_quermass(x, j)
                oracle = [it.quermass_exact(_own_span_body(row), j) for row in x]
                np.testing.assert_allclose(values, oracle, rtol=1e-12)
                assert degenerate == 0


def test_hull_quermass_non_simplex_rows_match_per_row_hulls(rng):
    gen = np.random.default_rng(12)
    for m in (5, 6, 7):
        x = gen.standard_normal((30, m, 3))
        for j in (0, 1):
            values, degenerate = vf._hull_quermass(x, j, 8, rng)
            oracle = [it.quermass_exact(bd.vpolytope(row), j) for row in x]
            np.testing.assert_allclose(values, oracle, rtol=1e-12)
            assert degenerate == 0


def test_hull_quermass_examples_and_degenerate_rows(rng):
    a = np.random.default_rng(13).standard_normal(3)
    # with the origin: the unit triangle, a collinear pair, a repeated point
    simplices = vf._with_origin(np.array([[[1.0, 0, 0], [0, 1.0, 0]],
                                          [a, 2.0 * a], [a, a]]))
    for j, w in ((0, 0.5), (1, (2 + math.sqrt(2)) / 2), (2, math.pi)):
        values, degenerate = vf._hull_quermass(simplices, j, 16, rng)
        assert values[0] == pytest.approx(w, rel=1e-12)
        assert list(values[1:]) == [0.0, 0.0] and degenerate == 2
    seg = vf._with_origin(np.array([[[0.6, 0.8, 0.0]]]) * 2.0)
    assert vf._hull_quermass(seg, 0)[0][0] == pytest.approx(2.0, rel=1e-12)
    # five points: a solid row, a planar row, one point five times
    gen = np.random.default_rng(14)
    rows = np.array([gen.standard_normal((5, 3)),
                     gen.standard_normal((5, 3)) * [1.0, 1.0, 0.0], np.tile(a, (5, 1))])
    for j in (0, 1, 2):
        values, degenerate = vf._hull_quermass(rows, j, 16, rng)
        assert values[0] > 0.0
        assert list(values[1:]) == [0.0, 0.0] and degenerate == 2


def test_hull_quermass_scaling(rng):
    gen = np.random.default_rng(15)
    for x, q in ((vf._with_origin(gen.standard_normal((10, 3, 5))), 3),
                 (gen.standard_normal((10, 4, 3)), 3),
                 (gen.standard_normal((10, 6, 3)), 3)):
        for j in (0, 1, 2):
            values, _ = vf._hull_quermass(x, j, 16, rng)
            scaled, _ = vf._hull_quermass(2.5 * x, j, 16, rng)
            np.testing.assert_allclose(scaled, 2.5 ** (q - j) * values, rtol=1e-12)


def test_hull_quermass_per_row_route_is_the_per_row_estimate(rng):
    # j >= 2: each row's own-span V-polytope, estimated on rng.split(i)
    gen = np.random.default_rng(16)
    for x in (vf._with_origin(gen.standard_normal((8, 3, 4))),
              gen.standard_normal((8, 4, 3)), gen.standard_normal((8, 6, 3))):
        values, _ = vf._hull_quermass(x, 2, 32, rng)
        oracle = [it.quermass_estimate(_own_span_body(row), 2, 32, rng.split(i)).value
                  for i, row in enumerate(x)]
        assert values.tolist() == oracle


def test_crofton_ball_closed_form(rng):
    rep = vf.crofton_check(ball3(), 1, 1, samples=4000, rng=rng)
    target = math.pi ** 2 / 2
    assert rep.upper.value == pytest.approx(target, rel=1e-12)
    assert abs(rep.middle.value - target) <= 3 * rep.middle.std_error
    assert rep.verdict == "pass"


def test_crofton_fubini_volume_case(rng):
    # j = 0: alpha equals 1 and the flat average recovers the volume
    assert vf.alpha_const(3, 1, 0) == pytest.approx(1.0, rel=1e-12)
    rep = vf.crofton_check(centered_cube(), 1, 0, samples=4000, rng=rng)
    assert rep.lower.value == pytest.approx(1.0, rel=1e-12)
    assert rep.verdict == "pass"


def test_crofton_cube_two_sided(rng):
    rep = vf.crofton_check(centered_cube(), 1, 1, samples=4000, rng=rng)
    assert rep.verdict == "pass"
    assert abs(rep.margin_lower) < 3 and abs(rep.margin_upper) < 3


def _crofton_flats(body, count, rng):
    """crofton's per-flat path: (F, x, weight) for each Haar 2-flat of R^3."""
    gen = rng.split_named("offsets").generator()
    for flat in vf._haar_flats(3, 2, rng, count):
        yield (flat, *vf._affine_flat(body, flat, gen))


def test_crofton_affine_flat_ball(rng):
    ball = bd.ball(np.zeros(3), 1.0)
    for flat, x, weight in _crofton_flats(ball, 100, rng):
        assert weight == pytest.approx(2.0, rel=1e-12)
        assert np.linalg.norm(x) <= 1.0 + 1e-9
        assert np.linalg.norm(flat.basis.T @ x) < 1e-9


def test_crofton_affine_flat_cube_mean_weight(rng):
    cube = bd.box(np.zeros(3), np.full(3, 0.5), bd.Flags(symmetric=True))
    weights = np.array([w for _, _, w in _crofton_flats(cube, 4000, rng)])
    se = weights.std(ddof=1) / math.sqrt(len(weights))
    assert abs(weights.mean() - 1.5) <= 3 * se


def test_haar_flats_prefix_of_full_chunks(rng):
    # a short last chunk draws the leading bases of a full one, so a count
    # and the open-ended rejection mode see the same flats
    for n, m, count in ((3, 2, 7), (4, 1, 300), (6, 3, 511), (4, 2, 1), (3, 1, 1100)):
        counted = [f.basis for f in vf._haar_flats(n, m, rng, count)]
        endless = vf._haar_flats(n, m, rng)
        assert len(counted) == count
        for basis in counted:
            assert np.array_equal(basis, next(endless).basis)


def test_haar_flats_limit(rng):
    flats = vf._haar_flats(3, 1, rng, limit=600)
    for _ in range(2 * vf.FLAT_CHUNK):
        next(flats)
    with pytest.raises(vf.CheckError):
        next(flats)


def test_lemma_rs_ball_closed_forms(rng):
    flat = gr.subspace_from_basis(np.eye(3)[:, :1])
    rep = vf.lemma_rs_check(ball3(), 1, flat=flat, samples=3000, rng=rng)
    assert rep.lower.value == pytest.approx(math.pi, rel=1e-9)
    assert rep.upper.value == pytest.approx(4 * math.pi, rel=1e-9)
    assert abs(rep.middle.value - math.pi ** 2 / 2) <= 3 * rep.middle.std_error
    assert rep.verdict == "pass"
    assert rep.details["symmetric_upper_margin"] >= -3.0


def test_lemma_rs_centered_simplex(rng):
    rep = vf.lemma_rs_check(centered_simplex(), 1, k=1, samples=1500, rng=rng)
    assert rep.verdict == "pass"


def test_thm11_ball_closed_forms(rng):
    rep = vf.thm11_check(ball3(), 1, 1, samples=400, rng=rng)
    assert rep.lower.value == pytest.approx(math.pi ** 2 / 4, rel=1e-9)
    assert rep.middle.value == pytest.approx(2 * math.pi, rel=1e-9)
    assert rep.upper.value == pytest.approx(math.pi ** 2, rel=1e-9)
    assert rep.verdict == "pass"


def test_thm11_cube_and_simplex(rng):
    assert vf.thm11_check(centered_cube(), 1, 1, samples=1500,
                          rng=rng).verdict == "pass"
    assert vf.thm11_check(centered_simplex(), 1, 1, samples=1500,
                          rng=rng.split(1)).verdict == "pass"


def test_cor12_ball_closed_forms(rng):
    rep = vf.cor12_check(ball3(), 1, 1, samples=100, rng=rng)
    assert rep.lower.value == pytest.approx(math.pi ** 3 / 6, rel=1e-9)
    assert rep.middle.value == pytest.approx(4 * math.pi / 3 * math.pi, rel=1e-9)
    assert rep.verdict == "pass"


def test_cor12_never_hard_fails(rng):
    # sampled-max inequality: pass or inconclusive only
    gen = RngStream(4242).generator()
    g = gen.standard_normal((20, 4))
    body = bd.vpolytope(np.vstack([g, -g]),
                        bd.Flags(symmetric=True)).with_name("randsym-4d")
    rep = vf.cor12_check(body, 1, 1, samples=40, rng=rng, sub_samples=128)
    assert rep.verdict in ("pass", "inconclusive")


def test_max_quermass_skips_empty_sections_and_nan(monkeypatch):
    # a "section" here is its own W_j; the loop's choice is under test
    streams = []

    def estimate(section, j, sub_samples, rng):
        streams.append(rng)
        return vf.Estimate.exact(section)

    monkeypatch.setattr(vf.it, "quermass_estimate", estimate)
    rng = RngStream(5)
    best, i = vf._max_quermass([None, 1.0, math.nan, 3.0, None, 3.0, 2.0], 1, 8, rng)
    assert (best.value, i) == (3.0, 3)  # the first of equal maxima
    assert streams == [rng.split(i) for i in (1, 2, 3, 5, 6)]
    best, i = vf._max_quermass([math.nan, 0.5, math.nan], 1, 8, rng)
    assert (best.value, i) == (0.5, 1)
    for sections in ([None, None], []):
        with pytest.raises(vf.CheckError, match="empty"):
            vf._max_quermass(iter(sections), 1, 8, rng)


def test_thm12_ball_equality(rng):
    rep = vf.thm12_check(ball3(), 1, 1, samples=300, rng=rng)
    assert rep.middle.value == pytest.approx(1.0, rel=1e-9)
    assert rep.lower.value == pytest.approx(math.pi / 8, rel=1e-9)
    assert rep.upper.value == pytest.approx(3 * math.pi / 4, rel=1e-9)
    assert rep.verdict == "pass"


def test_thm12_crosspoly(rng):
    assert vf.thm12_check(crosspoly(), 1, 1, samples=1500,
                          rng=rng).verdict == "pass"


def test_thm34_centered_simplex(rng):
    assert vf.thm34_check(centered_simplex(), 1, 1, samples=1500,
                          rng=rng).verdict == "pass"


def test_spingarn_and_rs_lower_cube_equality(rng):
    cube = centered_cube()
    flat = gr.subspace_from_basis(np.eye(3)[:, :1])
    rep = vf.spingarn_check(cube, flat=flat, rng=rng)
    assert rep.middle.value == pytest.approx(1.0, rel=1e-9)
    assert rep.upper.value == pytest.approx(3.0, rel=1e-9)
    assert rep.verdict == "pass"
    rep2 = vf.rs_lower_check(cube, flat=flat, rng=rng)
    assert rep2.middle.value == pytest.approx(1.0, rel=1e-9)
    assert rep2.lower.value == pytest.approx(1.0, rel=1e-9)
    assert rep2.verdict == "pass"


def test_fradelizi_ball(rng):
    rep = vf.fradelizi_check(ball3(), k=1, samples=60, rng=rng)
    assert rep.middle.value == pytest.approx(math.pi, rel=1e-6)
    assert rep.upper.value == pytest.approx((4 / 3) ** 2 * math.pi, rel=1e-9)
    assert rep.verdict == "pass"
    assert "sampled" in rep.note


def test_stephen_yaskin_simplex(rng):
    rep = vf.stephen_yaskin_check(centered_simplex(), 1, k=1, samples=200,
                                  rng=rng)
    assert rep.verdict == "pass"


def test_dpp_spotcheck_equality_ratio():
    # when the density is itself the unit-ball indicator both sides match:
    # the ratio factor degenerates to 1
    assert (1.0 / (omega(2) * 1.0 / omega(2))) ** 1 == pytest.approx(1.0)


def test_dpp_spotcheck_bodies(rng):
    rep = vf.dpp_spotcheck(ball3(), 2, 3, samples=4000, rng=rng)
    assert rep.verdict == "pass"
    rep2 = vf.dpp_spotcheck(centered_cube(), 2, 3, samples=4000, rng=rng.split(1))
    assert rep2.verdict == "pass"


def test_bp_calibration_closed_forms(rng):
    est = vf.bp_calibrate(2, 1, 100_000, rng)
    assert abs(est.value - math.pi) <= 3 * est.std_error
    est2 = vf.bp_calibrate(3, 1, 100_000, rng.split(1))
    assert abs(est2.value - 3 * omega(3) / 2) <= 3 * est2.std_error


def test_bp_identity_cube_and_ball(rng):
    rep = vf.bp_identity_check(centered_cube(), 2, samples=3000, rng=rng,
                               constant_samples=80_000)
    assert rep.lower.value == pytest.approx(1.0, rel=1e-12)
    assert rep.verdict == "pass"
    rep2 = vf.bp_identity_check(ball3(), 2, samples=3000, rng=rng.split(1),
                                constant_samples=80_000)
    assert rep2.verdict == "pass"


def test_bp_identity_counts_empty_sections_as_zero(rng):
    # central planes miss part of (or most of) an off-centre cube; redrawing
    # them instead of adding 0 biases the average by 3-20 sigma
    for i, shift in enumerate((0.9, 2.0)):
        cube = bd.box(np.array([shift, 0.0, 0.0]), np.full(3, 0.5))
        rep = vf.bp_identity_check(cube, 2, samples=2000, rng=rng.split(i),
                                   constant_samples=80_000)
        assert rep.verdict == "pass", (shift, rep.margin_lower)


def test_thm43_ball_closed_anchors(rng):
    rep = vf.thm43_check(ball3(), 1, 1, samples=8000, rng=rng,
                         constant_samples=60_000)
    assert rep.upper.value == pytest.approx(4.0, rel=1e-9)
    # expected average from segment moments: (3/4 + 3/4 + 36/35) / 2
    target = (1.5 + 36 / 35) / 2
    assert abs(rep.middle.value - target) <= 3 * rep.middle.std_error
    assert rep.verdict == "pass"


def test_thm43_lower_constant_assembly(rng):
    c = vf.c_const(3, 1, 1, 100_000, rng)
    assert abs(c.value - 5 / (12 * math.pi)) <= 3 * c.std_error


def test_cor47_simplex(rng):
    rep = vf.thm43_check(centered_simplex(), 1, 1, samples=8000, rng=rng,
                         constant_samples=60_000, centered_variant=True)
    assert rep.verdict == "pass"


def test_thm45_thm13_ball(rng):
    rep = vf.thm45_check(ball3(), 1, 1, samples=100, rng=rng,
                         constant_samples=60_000)
    assert rep.middle.value == pytest.approx(math.pi, rel=1e-9)
    assert rep.verdict == "pass"
    rep2 = vf.thm13_check(ball3(), 1, 1, samples=100, rng=rng.split(1),
                          constant_samples=60_000)
    assert rep2.verdict == "pass"
    assert rep2.details["ordering_step_margin"] >= -3


def test_cor48_simplex(rng):
    rep = vf.thm45_check(centered_simplex(), 1, 1, samples=200, rng=rng,
                         constant_samples=60_000, centered_variant=True)
    assert rep.verdict in ("pass", "inconclusive")


def test_thm46_disk_with_pair_distance_oracle(rng):
    # independent oracle: E|x1 - x2| over the unit disk by polar quadrature
    def integrand(theta, s, r):
        return (math.sqrt(r * r + s * s - 2 * r * s * math.cos(theta))
                * (2 * r) * (2 * s) / (2 * math.pi))

    oracle, _ = integrate.tplquad(integrand, 0, 1, 0, 1, 0, 2 * math.pi)
    assert oracle == pytest.approx(128 / (45 * math.pi), abs=1e-7)

    disk = bd.ball(np.zeros(2), 1.0, bd.Flags(symmetric=True)).with_name("ball-2d")
    rep = vf.thm46_check(disk, 1, 3, samples=8000, rng=rng,
                         constant_samples=60_000)
    target = 1.5 * oracle
    assert abs(rep.middle.value - target) <= 3 * rep.middle.std_error
    # ball constant: segment length expectation E[range of 3 uniforms] = 1
    assert rep.lower.value == pytest.approx(math.pi / 4, rel=0.05)
    assert rep.verdict == "pass"


def test_thm46_cube_and_centered_variant(rng):
    cube = centered_cube()
    rep = vf.thm46_check(cube, 1, 5, samples=6000, rng=rng,
                         constant_samples=60_000)
    assert rep.verdict == "pass"
    rep2 = vf.thm46_check(centered_simplex(), 0, 5, samples=6000, rng=rng.split(1),
                          constant_samples=60_000, centered_variant=True)
    assert rep2.verdict == "pass"


def test_thm46_precondition(rng):
    with pytest.raises(vf.PreconditionError):
        vf.thm46_check(centered_cube(), 0, 3, samples=10, rng=rng)


def test_aleksandrov_suite(rng):
    rep = vf.aleksandrov_suite(ball3(), rng, samples=500)
    assert rep.verdict == "pass"
    qs = rep.constants["Q"]
    assert np.allclose(qs, 1.0, atol=1e-9)

    rep2 = vf.aleksandrov_suite(centered_cube(), rng.split(1), samples=30_000)
    assert rep2.verdict == "pass"
    qs = rep2.constants["Q"]
    assert qs[0] > qs[1] > qs[2]

    thin = bd.box(np.zeros(3), np.array([0.5, 0.01, 0.01]),
                  bd.Flags(symmetric=True)).with_name("thin-box")
    rep3 = vf.aleksandrov_suite(thin, rng.split(2), samples=500)
    assert rep3.verdict == "pass"
    assert rep3.lower.value < 0.2 * rep3.middle.value  # vrad far below width


def test_bm_quermass_pairs(rng):
    for i in range(5):
        gen = rng.split(i).generator()
        a = bd.vpolytope(np.vstack([g := gen.standard_normal((8, 3)), -g]),
                         bd.Flags(symmetric=True)).with_name("K")
        b = bd.vpolytope(np.vstack([h := gen.standard_normal((8, 3)), -h]),
                         bd.Flags(symmetric=True)).with_name("D")
        for j in (0, 1, 2):
            rep = vf.bm_quermass_check(a, b, j, rng.split(100 + 10 * i + j),
                                       samples=8000)
            assert rep.verdict == "pass", (i, j, rep.margin_lower)


def test_bm_quermass_six_cube():
    # the sum of the cube and the 20-vertex default partner has 1,280 points
    rep = vf.bm_quermass_check(centered_cube(6), j=0, rng=RngStream(9))
    assert rep.verdict == "pass"
    assert rep.constants["W_j(K)^e"] == pytest.approx(1.0, rel=1e-12)
    assert rep.lower.value > rep.constants["W_j(D)^e"] > 0.0


def test_scale_invariance_of_verdicts(rng):
    cube = centered_cube()
    doubled = bd.scale(cube, 2.0)
    rep1 = vf.thm11_check(cube, 1, 1, samples=600, rng=rng)
    rep2 = vf.thm11_check(doubled, 1, 1, samples=600, rng=rng)
    assert rep1.verdict == rep2.verdict == "pass"
    # degrees: middle scales like lambda^{n+... } consistently with bounds
    ratio_mid = rep2.middle.value / rep1.middle.value
    ratio_low = rep2.lower.value / rep1.lower.value
    assert ratio_mid == pytest.approx(ratio_low, rel=0.05)


def test_verdict_stable_under_budget_increase(rng):
    # re-running a passing closed-form check with 4x the budget keeps pass
    passes = 0
    for i in range(10):
        small = vf.thm11_check(ball3(), 1, 1, samples=120, rng=rng.split(2 * i))
        big = vf.thm11_check(ball3(), 1, 1, samples=480, rng=rng.split(2 * i + 1))
        passes += (small.verdict == "pass" and big.verdict == "pass")
    assert passes == 10
