"""Tests of the benchmark itself: its references, its output checks, its
tracer, its host-speed scaling and its refusal to run without the program.

    PYTHONPATH=src python3 -m pytest -q bench
"""
from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import layer_trace  # noqa: E402
import oracles as orc  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from quermass import integrals as it  # noqa: E402
from quermass import scenario as sc  # noqa: E402
from quermass.core import RngStream  # noqa: E402

BENCH = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# references against hand values


def test_cube_quermass_by_hand():
    assert orc.box_quermass([1, 1, 1], 0) == pytest.approx(1.0, rel=1e-15)
    assert orc.box_quermass([1, 1, 1], 1) == pytest.approx(2.0, rel=1e-15)
    assert orc.box_quermass([1, 1, 1], 2) == pytest.approx(math.pi, rel=1e-15)
    assert orc.box_quermass([1, 1, 1], 3) == pytest.approx(4 * math.pi / 3, rel=1e-15)


def test_ball_closed_forms_by_hand():
    assert orc.omega(2) == pytest.approx(math.pi, rel=1e-15)
    assert orc.omega(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert orc.omega(4) == pytest.approx(math.pi ** 2 / 2, rel=1e-15)
    # disk of radius 2: W_0 = area, W_1 = half the perimeter
    assert orc.ball_quermass(2, 2.0, 0) == pytest.approx(4 * math.pi, rel=1e-15)
    assert orc.ball_quermass(2, 2.0, 1) == pytest.approx(2 * math.pi, rel=1e-15)
    # unit 3-ball: W_1 = surface / 3
    assert orc.ball_quermass(3, 1.0, 1) == pytest.approx(4 * math.pi / 3, rel=1e-15)


def test_crosspolytope_surface_by_hand_and_qhull():
    assert orc.crosspolytope_surface(2) == pytest.approx(4 * math.sqrt(2), rel=1e-15)
    # octahedron: eight equilateral triangles of side sqrt(2)
    assert orc.crosspolytope_surface(3) == pytest.approx(4 * math.sqrt(3), rel=1e-15)
    for n in (3, 4, 5, 6):
        verts = np.vstack([np.eye(n), -np.eye(n)])
        assert n * orc.polytope_quermass(verts, 1) == pytest.approx(
            orc.crosspolytope_surface(n), rel=1e-12)
        assert orc.polytope_quermass(verts, 0) == pytest.approx(
            2.0 ** n / math.factorial(n), rel=1e-12)


def test_alpha_3_1_1_by_hand():
    # omega_2 omega_2 / (omega_1 omega_3) = pi^2 / (2 * 4 pi / 3)
    assert orc.alpha(3, 1, 1) == pytest.approx(3 * math.pi / 8, rel=1e-15)
    assert orc.alpha(4, 2, 0) == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# each workload's check rejects a perturbed output


def _write_cube_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=sc.CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col, "") for col in sc.CSV_COLUMNS})


def _cube_rows(crofton_middle: float, count: int = 18) -> list[dict]:
    target = orc.alpha(3, 1, 1) * 2.0
    rows = [{"check_id": "crofton", "lower": target, "middle": crofton_middle,
             "upper": target, "sigma": 0.0, "verdict": "pass"},
            {"check_id": "bp-identity", "lower": 1.0, "middle": 1.0, "upper": 1.0,
             "sigma": 0.0, "verdict": "pass"}]
    rows += [{"check_id": "spingarn", "middle": 1.0, "upper": 6.0, "sigma": 0.0,
              "verdict": "pass"}] * (count - 2)
    return rows


def _cube_state(tmp_path: Path) -> wl.State:
    state = wl.State(1, tmp_path, expected_rows=18)
    state.scenarios.append(SimpleNamespace(out_path=str(tmp_path / "cube.csv")))
    return state


def _statuses(outcomes) -> list[str]:
    return sorted({oc.status for oc in outcomes})


def test_cube_check_accepts_and_rejects(tmp_path):
    state = _cube_state(tmp_path)
    target = orc.alpha(3, 1, 1) * 2.0
    _write_cube_csv(tmp_path / "cube.csv", _cube_rows(target))
    outcomes = wl.cube_check(state, None)
    assert len(outcomes) == 18 and _statuses(outcomes) == ["ok"]

    _write_cube_csv(tmp_path / "cube.csv", _cube_rows(1.05 * target))
    assert [oc.status for oc in wl.cube_check(state, None)].count("wrong") == 1

    _write_cube_csv(tmp_path / "cube.csv", _cube_rows(target, count=17))
    assert "wrong" in _statuses(wl.cube_check(state, None))


def _corpus_doc(body: str, middle: float, wj: float, sigma: float = 0.0) -> dict:
    est = lambda v, s=0.0: {"value": v, "std_error": s,  # noqa: E731
                            "samples": 0, "method": "exact"}
    return {"check_id": "crofton", "body": body, "params": {"k": 1, "j": 1},
            "lower": est(orc.alpha(4, 1, 1) * wj), "middle": est(middle, sigma),
            "upper": est(orc.alpha(4, 1, 1) * wj), "constants": {"W_j(K)": wj},
            "verdict": "pass", "note": ""}


def test_corpus_check_accepts_and_rejects(tmp_path):
    state = wl.State(1, tmp_path, expected_rows=1)
    state.specs = wl.corpus_specs()
    out = tmp_path / "corpus.json"
    state.scenarios.append(SimpleNamespace(out_path=str(out)))
    wj = orc.crosspolytope_surface(4) / 4
    target = orc.alpha(4, 1, 1) * wj

    out.write_text(json.dumps([_corpus_doc("crosspoly-4d", target, wj)]))
    assert _statuses(wl.corpus_check(state, None)) == ["ok"]
    # a middle off by 5% with sigma 0
    out.write_text(json.dumps([_corpus_doc("crosspoly-4d", 1.05 * target, wj)]))
    assert _statuses(wl.corpus_check(state, None)) == ["wrong"]
    # a W_j(K) constant off by 1e-6 relative
    out.write_text(json.dumps([_corpus_doc("crosspoly-4d", target,
                                           wj * (1 + 1e-6), sigma=1.0)]))
    assert _statuses(wl.corpus_check(state, None)) == ["wrong"]
    # a missing report
    out.write_text(json.dumps([]))
    assert _statuses(wl.corpus_check(state, None)) == ["wrong"]


def test_estimators_check_accepts_and_rejects(tmp_path):
    state = wl.State(1, tmp_path)
    state.specs = wl.estimator_specs()
    half = state.specs["box-6d"]["halfwidths"]
    w2 = orc.box_quermass([2 * h for h in half], 2)
    state.requests = [
        wl.Request("exact:box-6d:W2", "box-6d", "exact", 2),
        wl.Request("kubota:box-6d:W2", "box-6d", "kubota", 2, 10),
        wl.Request("kubota:2xbox-6d:W2", "2xbox-6d", "kubota", 2, 10,
                   stream="kubota:box-6d:W2"),
    ]
    good = {"exact:box-6d:W2": w2,
            "kubota:box-6d:W2": it.Estimate(w2, 0.01, 10),
            "kubota:2xbox-6d:W2": it.Estimate(16 * w2, 0.16, 10)}
    assert _statuses(wl.estimators_check(state, good)) == ["ok"]

    for label, bad in (("exact:box-6d:W2", w2 * (1 + 1e-9)),
                       ("kubota:box-6d:W2", it.Estimate(1.05 * w2, 0.0, 10)),
                       ("kubota:2xbox-6d:W2", it.Estimate(16 * w2 * 1.05, 0.16, 10))):
        results = dict(good, **{label: bad})
        statuses = {oc.name: oc.status for oc in wl.estimators_check(state, results)}
        assert statuses[label] == "wrong", label
    results = dict(good, **{"kubota:box-6d:W2": RuntimeError("boom")})
    statuses = {oc.name: oc.status for oc in wl.estimators_check(state, results)}
    assert statuses["kubota:box-6d:W2"] == "error"


def test_mean_width_and_steiner_disagreement_is_rejected(tmp_path):
    state = wl.State(1, tmp_path)
    state.specs = wl.estimator_specs()
    state.requests = [
        wl.Request("kubota:crosspoly-5d:W1", "crosspoly-5d", "kubota", 1, 10),
        wl.Request("steiner:crosspoly-5d:W1", "crosspoly-5d", "steiner", 1, 10),
    ]
    w1 = orc.crosspolytope_surface(5) / 5
    results = {"kubota:crosspoly-5d:W1": it.Estimate(w1, 0.001, 10),
               "steiner:crosspoly-5d:W1": it.Estimate(w1 * 1.05, 0.0, 10)}
    statuses = {oc.name: oc.status for oc in wl.estimators_check(state, results)}
    assert statuses == {"kubota:crosspoly-5d:W1": "ok",
                        "steiner:crosspoly-5d:W1": "wrong"}


# ---------------------------------------------------------------------------
# tracer


def test_tracer_counts_and_restores():
    from quermass import bodies as bd
    from quermass import polytope as pt

    original = (it.quermass_kubota, pt.convex_hull, sc.REGISTRY["crofton"].runner)
    body = bd.vpolytope(np.vstack([np.eye(4), -np.eye(4)]))
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        it.quermass_kubota(body, 1, 50, RngStream(3))
    finally:
        tracer.uninstall()
    assert (it.quermass_kubota, pt.convex_hull,
            sc.REGISTRY["crofton"].runner) == original
    metrics = tracer.metrics([])
    assert set(metrics) == set(layer_trace.metric_names())
    assert metrics["integrals.kubota_samples"] == 50
    assert metrics["integrals.shadows"] == 50
    assert metrics["polytope.hulls_d3"] == 50
    assert metrics["grassmann.bases"] == 50
    assert metrics["integrals.kubota_s"] >= metrics["integrals.projected_volumes_s"]
    assert metrics["integrals.projected_volumes_s"] >= metrics["polytope.hull_s"] > 0
    total_self = sum(metrics[f"{layer}.self_s"] for layer in layer_trace.LAYERS)
    assert total_self == pytest.approx(metrics["integrals.kubota_s"], rel=1e-9)
    shares = sum(metrics[f"{layer}.share"] for layer in layer_trace.LAYERS)
    assert shares == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# host-speed scaling


def test_segments_scale_by_the_probes_around_them(monkeypatch):
    probes = iter([(0.30, 0.30), (0.10, 0.10), (0.20, 0.20)])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    # (wall, cpu) clock readings: around each probe, then the segment ends
    clocks = iter([(0.0, 0.0), (0.0, 0.0), (2.0, 1.0), (2.0, 1.0), (5.0, 4.0),
                   (5.0, 4.0)])
    monkeypatch.setattr(worker.SegmentTimer, "_clock",
                        staticmethod(lambda: next(clocks)))
    timer = worker.SegmentTimer()
    for _ in range(3):
        timer.between()
    out = timer.summary()
    ref = hostspeed.REFERENCE_S
    assert out["wall_s"] == 5.0 and out["cpu_s"] == 4.0
    assert out["wall_ref_s"] == pytest.approx(2.0 * ref / 0.2 + 3.0 * ref / 0.15,
                                              rel=1e-12)
    assert out["cpu_ref_s"] == pytest.approx(1.0 * ref / 0.2 + 3.0 * ref / 0.15,
                                             rel=1e-12)


def test_probes_run_between_segments_of_a_pass(monkeypatch):
    monkeypatch.setattr(wl.sc, "run_scenario", lambda scenario: [])
    monkeypatch.setattr(wl.sc, "write_reports", lambda *args: None)
    calls = []
    state = wl.State(1, Path("."))
    state.scenarios = [sc.Scenario(1, [], list(range(18)), "", "csv")]
    wl.cube_run(state, lambda: calls.append("cube"))
    state.scenarios = [SimpleNamespace(out_path="", out_format="json")] * 7
    wl.corpus_run(state, lambda: calls.append("corpus"))
    state.requests = [SimpleNamespace(label=str(i), run=lambda bodies, seed: 1.0)
                      for i in range(41)]
    wl.estimators_run(state, lambda: calls.append("estimators"))
    assert calls.count("cube") == wl.CUBE_SEGMENTS - 1
    assert calls.count("corpus") == 6
    assert calls.count("estimators") == 40 // wl.REQUESTS_PER_SEGMENT


def test_probe_does_fixed_work():
    assert hostspeed._work() == hostspeed._work()
    wall, cpu = hostspeed.probe()
    assert wall > 0 and cpu > 0


# ---------------------------------------------------------------------------
# the command refuses to run without the program


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "estimators-hd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
