import math
import sys
import threading
import time

import numpy as np
import pytest
from scipy import integrate

from quermass import bodies as bd
from quermass import grassmann as gr
from quermass import verify as vf
from quermass.core import RngStream, omega


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


def test_compute_once_under_thread_stress():
    cache = {}
    calls = []
    results = []

    def compute():
        calls.append(1)
        time.sleep(0.01)
        return vf.Estimate.exact(float(len(calls)))

    def ask():
        results.append(vf._compute_once(cache, ("stress",), compute))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(results) == 16 and all(r is results[0] for r in results)


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
    rep = vf.cor12_check(ball3(), 1, 1, flat_trials=100, rng=rng)
    assert rep.lower.value == pytest.approx(math.pi ** 3 / 6, rel=1e-9)
    assert rep.middle.value == pytest.approx(4 * math.pi / 3 * math.pi, rel=1e-9)
    assert rep.verdict == "pass"


def test_cor12_never_hard_fails(rng):
    # sampled-max inequality: pass or inconclusive only
    gen = RngStream(4242).generator()
    g = gen.standard_normal((20, 4))
    body = bd.vpolytope(np.vstack([g, -g]),
                        bd.Flags(symmetric=True)).with_name("randsym-4d")
    rep = vf.cor12_check(body, 1, 1, flat_trials=40, rng=rng, sub_samples=128)
    assert rep.verdict in ("pass", "inconclusive")


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
    rep = vf.fradelizi_check(ball3(), k=1, x_samples=60, rng=rng)
    assert rep.middle.value == pytest.approx(math.pi, rel=1e-6)
    assert rep.upper.value == pytest.approx((4 / 3) ** 2 * math.pi, rel=1e-9)
    assert rep.verdict == "pass"
    assert "sampled" in rep.note


def test_stephen_yaskin_simplex(rng):
    rep = vf.stephen_yaskin_check(centered_simplex(), 1, k=1, x_samples=200,
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
    rep = vf.cor47_check(centered_simplex(), 1, 1, samples=8000, rng=rng,
                         constant_samples=60_000)
    assert rep.verdict == "pass"


def test_thm45_thm13_ball(rng):
    rep = vf.thm45_check(ball3(), 1, 1, flat_trials=100, rng=rng,
                         constant_samples=60_000)
    assert rep.middle.value == pytest.approx(math.pi, rel=1e-9)
    assert rep.verdict == "pass"
    rep2 = vf.thm13_check(ball3(), 1, 1, flat_trials=100, rng=rng.split(1),
                          constant_samples=60_000)
    assert rep2.verdict == "pass"
    assert rep2.details["ordering_step_margin"] >= -3


def test_cor48_simplex(rng):
    rep = vf.cor48_check(centered_simplex(), 1, 1, flat_trials=200, rng=rng,
                         constant_samples=60_000)
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
    rep2 = vf.thm46_centered_check(centered_simplex(), 0, 5, samples=6000,
                                   rng=rng.split(1), constant_samples=60_000)
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
