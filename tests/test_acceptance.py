"""Acceptance gate: one test per criterion, each printing a verdict line.

Budgets are chosen so the whole module runs well inside the stated runtime
ceilings while every statistical assertion keeps its three-sigma contract.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""
import math
import time
from itertools import product

import numpy as np
from scipy import integrate

from quermass import bodies as bd
from quermass import integrals as it
from quermass import scenario as sc
from quermass import verify as vf
from quermass.core import RngStream, omega
from quermass.corpus import corpus

SEED = 777


def _announce(number, label, ok, started):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({time.time() - started:.1f}s)")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_closed_form_anchors():
    started = time.time()
    ok = True
    for n in range(1, 6):
        ball = bd.ball(np.zeros(n), 1.0)
        for j in range(n + 1):
            ok &= abs(it.quermass_exact(ball, j) - omega(n)) <= 1e-9 * omega(n)
    cube = bd.box(np.zeros(3), np.full(3, 0.5))
    ok &= abs(it.quermass_exact(cube, 1) - 2.0) <= 1e-9
    ok &= abs(it.quermass_exact(cube, 2) - math.pi) <= 1e-9 * math.pi
    ok &= abs(3 * it.quermass_exact(cube, 1) - 6.0) <= 1e-9
    # box intrinsic volumes are the elementary symmetric polynomials of the
    # side lengths: V_m = C(n,m)/omega_{n-m} * W_{n-m}
    sides = np.array([1.0, 0.5, 0.25, 0.125])
    box = bd.box(np.zeros(4), sides / 2)
    coeffs = np.array([1.0])
    for s in sides:
        coeffs = np.convolve(coeffs, [1.0, s])
    for m in range(5):
        v_m = math.comb(4, m) / omega(4 - m) * it.quermass_exact(box, 4 - m)
        ok &= abs(v_m - coeffs[m]) <= 1e-9 * max(coeffs[m], 1.0)
    elapsed = time.time() - started
    ok &= elapsed < 1.0
    _announce(1, "closed-form anchors (balls, cube, boxes) at 1e-9", ok, started)


def test_criterion_2_estimator_agreement():
    started = time.time()
    rng = RngStream(SEED).split_named("criterion-2")
    ok = True
    bodies = []
    for n in (2, 3, 4, 5):
        bodies.append(bd.ball(np.zeros(n), 1.0))
        bodies.append(bd.box(np.zeros(n), np.full(n, 0.5)))
        bodies.append(bd.box(np.zeros(n), 0.5 * (0.5 ** np.arange(n))))
    for i, body in enumerate(bodies):
        n = body.dim
        for j in range(1, n):
            est = it.quermass_kubota(body, j, 100_000, rng.split(100 * i + j))
            exact = it.quermass_exact(body, j)
            dev = abs(est.value - exact)
            ok &= dev <= 3 * max(est.std_error, 1e-12)
            ok &= dev <= 0.005 * exact
    square = bd.box(np.zeros(2), np.full(2, 0.5))
    cube = bd.box(np.zeros(3), np.full(3, 0.5))
    for i, body in enumerate((square, cube)):
        est = it.quermass_steiner_fit(body, 1, None, 60_000,
                                      rng.split_named(f"steiner-{i}"))
        ok &= abs(est.value - 2.0) <= 3 * est.std_error
    elapsed = time.time() - started
    ok &= elapsed < 120.0
    _announce(2, "Kubota within 0.5% and 3 sigma; Steiner fit within 3 sigma",
              ok, started)


def test_criterion_3_crofton_identity():
    started = time.time()
    rng = RngStream(SEED).split_named("criterion-3")
    ok = True
    ball = bd.ball(np.zeros(3), 1.0, bd.Flags(symmetric=True)).with_name("ball-3d")
    rep = vf.crofton_check(ball, 1, 1, samples=10_000, rng=rng)
    ok &= abs(rep.middle.value - math.pi ** 2 / 2) <= 3 * rep.middle.std_error
    bodies = [b for b in corpus("boxes") if b.describe().startswith("cube")]
    bodies += corpus("random-symmetric")
    for i, body in enumerate(bodies):
        for j in (0, 1):
            rep = vf.crofton_check(body, 1, j, samples=10_000,
                                   rng=rng.split(10 * i + j))
            ok &= rep.verdict == "pass"
            ok &= abs(rep.margin_lower) < 3 or abs(rep.margin_upper) < 3
    elapsed = time.time() - started
    ok &= elapsed < 300.0
    _announce(3, "flat-average identity on ball (pi^2/2), cubes, random "
                 "symmetric polytopes at 1e4 flats", ok, started)


def _admissible(n):
    return [(k, j) for k in range(1, n) for j in range(0, n - k)]


def test_criterion_4_section_average_suite():
    started = time.time()
    rng = RngStream(SEED).split_named("criterion-4")
    bodies = [b for b in corpus("all") if b.dim <= 4]
    assert len(bodies) >= 10
    failures = []
    run = 0
    for bi, body in enumerate(bodies):
        n = body.dim
        heavy = body.describe().startswith("randsym") and n == 4
        flats = 400 if heavy else 800
        for k, j in _admissible(n):
            sub = rng.split_named(f"b{bi}-k{k}-j{j}")
            reports = [
                vf.lemma_rs_check(body, j, k=k, samples=flats, rng=sub.split(0),
                                  sub_samples=256),
                vf.thm11_check(body, k, j, samples=flats, rng=sub.split(1),
                               sub_samples=256),
                vf.cor12_check(body, k, j, samples=flats, rng=sub.split(2),
                               sub_samples=256),
                vf.thm34_check(body, k, j, samples=flats, rng=sub.split(3),
                               sub_samples=256),
            ]
            if body.flags.symmetric:
                reports.append(vf.thm12_check(body, k, j, samples=flats,
                                              rng=sub.split(4), sub_samples=256))
            run += len(reports)
            for rep in reports:
                if rep.verdict == "fail" or rep.verdict == "error":
                    failures.append((body.describe(), k, j, rep.check_id,
                                     rep.margin_lower, rep.margin_upper))
                if rep.check_id == "cor-1-2":
                    assert rep.verdict in ("pass", "inconclusive")
    ok = not failures and run >= 250
    if failures:
        print("hard failures:", failures)
    elapsed = time.time() - started
    ok &= elapsed < 1800.0
    _announce(4, f"offset/section-average checks over {len(bodies)} bodies, "
                 f"{run} runs, zero hard failures", ok, started)


def test_criterion_5_flat_measure_calibration():
    started = time.time()
    rng = RngStream(SEED).split_named("criterion-5")
    est = vf.bp_calibrate(2, 1, 100_000, rng)
    ok = abs(est.value - math.pi) <= 3 * est.std_error
    cube = bd.box(np.zeros(3), np.full(3, 0.5),
                  bd.Flags(symmetric=True)).with_name("cube-3d")
    rep = vf.bp_identity_check(cube, 2, samples=4000, rng=rng.split(1))
    ok &= rep.verdict == "pass"
    ok &= abs(rep.middle.value - 1.0) <= 3 * rep.middle.std_error
    _announce(5, "p(2,1) matches pi; cube two-point identity recovers |K|^2",
              ok, started)


def test_criterion_6_random_hull_bounds():
    started = time.time()
    rng = RngStream(SEED).split_named("criterion-6")
    # oracle values for the ball constants come first
    oracle_stream = rng.split_named("oracle-a")
    d11 = vf.dpp_constant(1, 1, True, 200_000, oracle_stream.split(0))
    ok = abs(d11.value - 0.5) <= 3 * d11.std_error
    d22 = vf.dpp_constant(2, 2, True, 200_000, oracle_stream.split(1))
    ok &= abs(d22.value - 4 / (9 * math.pi)) <= 3 * d22.std_error
    # the two-point segment constant, against its quadrature oracle
    oracle, _ = integrate.dblquad(
        lambda y, x: max(0.0, x, y) - min(0.0, x, y), -1, 1, -1, 1)
    d12 = vf.dpp_constant(1, 2, True, 200_000, oracle_stream.split(2))
    ok &= abs(d12.value - oracle / 4.0) <= 3 * d12.std_error

    failures = []
    sym = {3: None, 4: None}
    cen = {3: None, 4: None}
    for body in corpus("boxes"):
        if body.describe().startswith("cube"):
            sym[body.dim] = body
    for body in corpus("centered-simplices"):
        cen[body.dim] = body
    for n in (3, 4):
        for j in (0, 1):
            if j > n - 2:
                continue
            sub = rng.split_named(f"n{n}-j{j}")
            reports = [
                vf.thm43_check(sym[n], 1, j, samples=8000, rng=sub.split(0)),
                vf.thm45_check(sym[n], 1, j, samples=600, rng=sub.split(1)),
                vf.thm13_check(sym[n], 1, j, samples=600, rng=sub.split(2)),
                vf.thm43_check(cen[n], 1, j, samples=8000, rng=sub.split(3),
                               centered_variant=True),
                vf.thm45_check(cen[n], 1, j, samples=600, rng=sub.split(4),
                               centered_variant=True),
            ]
            for rep in reports:
                if rep.verdict in ("fail", "error"):
                    failures.append((n, j, rep.check_id, rep.body,
                                     rep.margin_lower))
    ok &= not failures
    if failures:
        print("hard failures:", failures)
    elapsed = time.time() - started
    ok &= elapsed < 1800.0
    _announce(6, "random-hull double bound and max-section bounds, "
                 "constants from the ball oracles", ok, started)


def test_criterion_7_inscribed_hull_lower_bound():
    started = time.time()
    rng = RngStream(SEED).split_named("criterion-7")

    def integrand(theta, s, r):
        return (math.sqrt(r * r + s * s - 2 * r * s * math.cos(theta))
                * (2 * r) * (2 * s) / (2 * math.pi))

    pair_distance, _ = integrate.tplquad(integrand, 0, 1, 0, 1, 0, 2 * math.pi)
    ok = abs(pair_distance - 128 / (45 * math.pi)) < 1e-7

    bodies = {
        2: [bd.ball(np.zeros(2), 1.0, bd.Flags(symmetric=True)).with_name("ball-2d"),
            bd.box(np.zeros(2), np.full(2, 0.5),
                   bd.Flags(symmetric=True)).with_name("cube-2d")],
        3: [bd.ball(np.zeros(3), 1.0, bd.Flags(symmetric=True)).with_name("ball-3d"),
            bd.box(np.zeros(3), np.full(3, 0.5),
                   bd.Flags(symmetric=True)).with_name("cube-3d")],
    }
    for n in (2, 3):
        for body, j in product(bodies[n], (0, 1)):
            rep = vf.thm46_check(body, j, n + 2, samples=8000,
                                 rng=rng.split_named(f"{body.describe()}-{j}"))
            ok &= rep.verdict == "pass"
            if n == 2 and j == 1 and body.kind == "ball":
                # disk, N = 4: cross-check the expected half-perimeter of the
                # random quadrilateral against the pairwise-distance oracle is
                # not closed form; instead anchor the N = 3 case directly.
                rep3 = vf.thm46_check(body, 1, 3, samples=8000,
                                      rng=rng.split_named("disk-oracle"))
                target = 1.5 * pair_distance
                ok &= abs(rep3.middle.value - target) <= 3 * rep3.middle.std_error
    _announce(7, "N-point inscribed hull lower bound (ball/cube, n=2,3, "
                 "N=n+2) with the disk pair-distance oracle", ok, started)


def test_criterion_8_background_suite():
    started = time.time()
    rng = RngStream(SEED).split_named("criterion-8")
    ok = True
    for bi, body in enumerate(b for b in corpus("all") if b.dim <= 4):
        rep = vf.aleksandrov_suite(body, rng.split(bi), samples=20_000)
        ok &= rep.verdict == "pass"
        if rep.verdict != "pass":
            print("aleksandrov failure:", body.describe(), rep.details)
    for i in range(20):
        gen = rng.split_named(f"pair-{i}").generator()
        g = gen.standard_normal((8, 3))
        h = gen.standard_normal((8, 3))
        a = bd.vpolytope(np.vstack([g, -g]), bd.Flags(symmetric=True)).with_name("K")
        b = bd.vpolytope(np.vstack([h, -h]), bd.Flags(symmetric=True)).with_name("D")
        j = i % 3
        rep = vf.bm_quermass_check(a, b, j, rng.split_named(f"bm-{i}"),
                                   samples=8000)
        ok &= rep.verdict == "pass"
        if rep.verdict != "pass":
            print("bm failure:", i, j, rep.margin_lower)
    _announce(8, "ordering chain, vrad/width sandwich, and sum inequality on "
                 "20 random polytope pairs", ok, started)


def test_criterion_9_reproducibility(tmp_path):
    started = time.time()
    doc = {
        "seed": 31337,
        "bodies": ["corpus:crosspolytopes",
                   {"type": "ball", "dim": 3, "center": [0.0, 0.0, 0.0],
                    "radius": 1.0, "flags": {"symmetric": True},
                    "name": "ball-3d"}],
        "checks": [
            {"check": "crofton", "k": 1, "j": 1, "samples": 300},
            {"check": "thm-1-1", "k": 1, "j": 1, "samples": 200},
            {"check": "aleksandrov", "samples": 2000},
        ],
        "output": {"format": "csv"},
    }
    outputs = [sc.reports_to_csv(sc.run_scenario(sc.load_scenario(doc)))
               for _ in range(3)]
    ok = outputs[0] == outputs[1] == outputs[2]
    dest = sc.write_reports(sc.run_scenario(sc.load_scenario(doc)),
                            str(tmp_path / "rep.csv"), "csv")
    ok &= dest.read_text() == outputs[0]
    _announce(9, "bit-identical CSV across reruns", ok, started)
