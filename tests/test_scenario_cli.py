import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quermass import bodies as bd
from quermass import cli
from quermass import integrals as it
from quermass import scenario as sc
from quermass import verify as vf
from quermass.corpus import corpus
from quermass.grassmann import sphere_directions


def test_corpus_balls():
    balls = corpus("balls")
    assert len(balls) == 4
    assert {b.dim for b in balls} == {2, 3, 4, 5}
    assert all(b.flags.symmetric and b.flags.centered for b in balls)


def test_corpus_deterministic_random_entries():
    a = corpus("random-symmetric")
    b = corpus("random-symmetric")
    for x, y in zip(a, b):
        assert np.array_equal(x.vertices, y.vertices)


def test_corpus_unknown_name():
    with pytest.raises(KeyError):
        corpus("nope")


def test_corpus_flag_invariants(rng):
    # symmetric: support(u) == support(-u); centered: barycenter ~ 0
    for body in corpus("all"):
        dirs = sphere_directions(body.dim, 100, rng.split(body.dim))
        if body.flags.symmetric:
            plus = bd.support_batch(body, dirs)
            minus = bd.support_batch(body, -dirs)
            assert np.allclose(plus, minus, rtol=1e-9, atol=1e-9), body.describe()
        if body.flags.centered:
            bc = np.linalg.norm(bd.barycenter(body))
            assert bc <= 1e-6 * bd.circumradius(body), body.describe()


def test_corpus_all_size():
    bodies = corpus("all")
    assert len(bodies) >= 14
    assert len([b for b in bodies if b.dim <= 4]) >= 10


def test_scenario_validation_error_names_constraint(tmp_path):
    doc = {
        "seed": 1,
        "bodies": [{"type": "ball", "dim": 3, "center": [0, 0, 0], "radius": 1.0,
                    "flags": {"symmetric": True}}],
        "checks": [{"check": "crofton", "k": 1, "j": 2}],
    }
    with pytest.raises(sc.ScenarioError) as err:
        sc.load_scenario(doc)
    assert any("0 <= j <= n-k-1" in e for e in err.value.errors)


def test_scenario_validation_flags_and_ids():
    simplex_doc = {
        "seed": 1,
        "bodies": [{"type": "vpolytope",
                    "vertices": np.vstack([np.zeros(3), np.eye(3)]).tolist()}],
        "checks": [{"check": "thm-1-2", "k": 1, "j": 1}],
    }
    with pytest.raises(sc.ScenarioError) as err:
        sc.load_scenario(simplex_doc)
    assert any("symmetric" in e for e in err.value.errors)

    with pytest.raises(sc.ScenarioError) as err:
        sc.load_scenario({"seed": 1, "bodies": [], "checks": [{"check": "bogus"}]})
    assert any("unknown check" in e for e in err.value.errors)


_CUBE_3D = {"type": "box", "dim": 3, "center": [0, 0, 0],
            "halfwidths": [0.5, 0.5, 0.5], "flags": {"symmetric": True}}
_PARAM_VALUES = (st.none() | st.booleans() | st.integers(-3, 5)
                 | st.floats(allow_nan=True) | st.text(max_size=2)
                 | st.lists(st.integers(0, 3), max_size=2))


@settings(max_examples=300, deadline=None)
@given(entry=st.fixed_dictionaries(
    {"check": st.sampled_from(sorted(sc.REGISTRY)) | st.text(max_size=4)
     | st.integers() | st.lists(st.integers(), max_size=2)},
    optional={name: _PARAM_VALUES
              for name in ("k", "j", "N", "n", "samples", "sub_samples")}))
def test_scenario_validation_fuzz(entry):
    doc = {"seed": 1, "bodies": [_CUBE_3D], "checks": [entry]}
    try:
        scen = sc.load_scenario(doc)
    except sc.ScenarioError as err:
        for name in ("k", "j", "N", "samples"):
            val = entry.get(name, 1)
            if isinstance(val, bool) or not isinstance(val, int):
                assert any(e.startswith(f"checks[0].{name}:") for e in err.errors)
        return
    params = scen.checks[0].params
    for name in ("k", "j", "N", "samples", "sub_samples"):
        if name in params:
            assert type(params[name]) is int
    assert params.get("samples", 1) >= 1


def test_scenario_validation_names_field_path():
    cases = [({"check": "crofton", "k": "1", "j": 0}, "checks[0].k"),
             ({"check": "crofton", "k": 1, "j": 0, "samples": 0}, "checks[0].samples"),
             ({"check": "crofton", "k": 1, "j": 0, "samples": -5}, "checks[0].samples"),
             ({"check": "crofton", "k": 1.5, "j": 0}, "checks[0].k"),
             ({"check": "crofton", "k": True, "j": 0}, "checks[0].k"),
             ({"check": "dpp-spot", "k": 1, "N": 2.0}, "checks[0].N")]
    for entry, path in cases:
        with pytest.raises(sc.ScenarioError) as err:
            sc.load_scenario({"seed": 1, "bodies": [_CUBE_3D], "checks": [entry]})
        assert any(e.startswith(path + ":") for e in err.value.errors), err.value.errors


def test_shared_reference_computed_once_across_threads(monkeypatch):
    doc = {"seed": 4,
           "bodies": [{"type": "vpolytope", "flags": {"centered": True},
                       "vertices": (np.vstack([np.zeros(3), np.eye(3)])
                                    - 0.25).tolist()}],
           "checks": [{"check": "thm-1-1", "k": 1, "j": 1, "samples": 2},
                      {"check": "crofton", "k": 1, "j": 1, "samples": 2}]}
    original = it.quermass_estimate
    calls = []
    lock = threading.Lock()

    def counted(body, j, *args, **kwargs):
        if body is scen.bodies[0]:
            with lock:
                calls.append(j)
            time.sleep(0.5)  # hold the key long enough for the other check
        return original(body, j, *args, **kwargs)
    monkeypatch.setattr(it, "quermass_estimate", counted)

    texts = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("QUERMASS_THREADS", threads)
        monkeypatch.setattr(vf, "_REF_CACHE", {})
        scen = sc.load_scenario(doc)
        calls.clear()
        texts[threads] = sc.reports_to_csv(sc.run_scenario(scen))
        assert calls == [1], threads
    assert texts["1"] == texts["2"]


def test_scenario_empty_checks_ok():
    scen = sc.load_scenario({"seed": 3, "bodies": ["corpus:balls"], "checks": []})
    reports = sc.run_scenario(scen)
    assert reports == []


def test_builtin_scenario_runs_clean():
    scen = sc.load_scenario("ball-closed-forms")
    reports = sc.run_scenario(scen)
    assert len(reports) == 11
    assert all(r.verdict == "pass" for r in reports)


def _small_scenario(seed=7):
    return {
        "seed": seed,
        "bodies": ["corpus:crosspolytopes",
                   {"type": "ball", "dim": 3, "center": [0.0, 0.0, 0.0],
                    "radius": 1.0, "flags": {"symmetric": True},
                    "name": "ball-3d"}],
        "checks": [{"check": "thm-1-1", "k": 1, "j": 1, "samples": 150},
                   {"check": "spingarn", "k": 1}],
        "output": {"format": "csv"},
    }


def test_scenario_reproducible_across_thread_counts(monkeypatch):
    scen = sc.load_scenario(_small_scenario())
    monkeypatch.setenv("QUERMASS_THREADS", "1")
    csv_one = sc.reports_to_csv(sc.run_scenario(scen))
    monkeypatch.setenv("QUERMASS_THREADS", "4")
    csv_four = sc.reports_to_csv(sc.run_scenario(sc.load_scenario(_small_scenario())))
    assert csv_one == csv_four
    # and identical under a plain re-run
    csv_again = sc.reports_to_csv(sc.run_scenario(sc.load_scenario(_small_scenario())))
    assert csv_one == csv_again


def test_scenario_seed_changes_results():
    a = sc.reports_to_csv(sc.run_scenario(sc.load_scenario(_small_scenario(1))))
    b = sc.reports_to_csv(sc.run_scenario(sc.load_scenario(_small_scenario(2))))
    assert a != b


def test_report_order_is_scenario_order():
    scen = sc.load_scenario(_small_scenario())
    reports = sc.run_scenario(scen)
    ids = [r.check_id for r in reports]
    assert ids == ["thm-1-1"] * 3 + ["spingarn"] * 3
    assert [r.body for r in reports[:3]] == ["crosspoly-3d", "crosspoly-4d",
                                             "ball-3d"]


def test_errors_isolated_per_check(monkeypatch):
    # break one check: force an exception and confirm the other still runs
    scen = sc.load_scenario(_small_scenario())

    def boom(*a, **k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(sc.REGISTRY, "thm-1-1",
                        sc._CheckDef(boom, needs_k=True, needs_j=True,
                                     centered=True))
    reports = sc.run_scenario(scen)
    assert [r.verdict for r in reports[:3]] == ["error"] * 3
    assert all(r.verdict == "pass" for r in reports[3:])


def test_csv_and_json_outputs(tmp_path):
    scen = sc.load_scenario(_small_scenario())
    reports = sc.run_scenario(scen)
    csv_path = sc.write_reports(reports, str(tmp_path / "out.csv"), "csv")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("check_id,body,n,k,j,N,lower,middle,upper")
    assert len(lines) == 1 + len(reports)
    json_path = sc.write_reports(reports, str(tmp_path / "out.json"), "json")
    docs = json.loads(json_path.read_text())
    assert len(docs) == len(reports)
    assert docs[0]["check_id"] == "thm-1-1"
    assert "wall_time" in docs[0]


def test_cli_compute_exact(capsys):
    rc = cli.main(["compute", "--body", "corpus:balls", "--j", "1",
                   "--method", "exact"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ball-3d" in out
    assert "4.18879" in out


def test_cli_compute_body_file(tmp_path, capsys):
    body_file = tmp_path / "cube.json"
    body_file.write_text(json.dumps({
        "type": "box", "dim": 3, "center": [0, 0, 0],
        "halfwidths": [0.5, 0.5, 0.5], "flags": {"symmetric": True},
        "name": "unit-cube",
    }))
    rc = cli.main(["compute", "--body", str(body_file), "--j", "2",
                   "--method", "exact"])
    assert rc == 0
    assert "3.14159" in capsys.readouterr().out


def test_cli_verify_and_out(tmp_path, capsys):
    body_file = tmp_path / "ball.json"
    body_file.write_text(json.dumps({
        "type": "ball", "dim": 3, "center": [0, 0, 0], "radius": 1.0,
        "flags": {"symmetric": True}, "name": "ball-3d"}))
    out = tmp_path / "rep.json"
    rc = cli.main(["verify", "--check", "thm-1-1", "--body", str(body_file),
                   "--k", "1", "--j", "1", "--samples", "150", "--seed", "5",
                   "--out", str(out)])
    assert rc == 0
    docs = json.loads(out.read_text())
    assert docs[0]["verdict"] == "pass"


def test_cli_verify_validation_error(tmp_path, capsys):
    body_file = tmp_path / "ball.json"
    body_file.write_text(json.dumps({
        "type": "ball", "dim": 3, "center": [0, 0, 0], "radius": 1.0}))
    rc = cli.main(["verify", "--check", "thm-1-2", "--body", str(body_file),
                   "--k", "1", "--j", "1"])
    assert rc == 2
    assert "symmetric" in capsys.readouterr().err


def test_cli_scenario_file(tmp_path, capsys):
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(_small_scenario()))
    out_csv = tmp_path / "reports.csv"
    rc = cli.main(["scenario", str(scen_file), "--out", str(out_csv),
                   "--format", "csv"])
    assert rc == 0
    assert out_csv.exists()
    text = capsys.readouterr().out
    assert "verdicts:" in text


def test_cli_scenario_validation_exit_code(tmp_path, capsys):
    scen_file = tmp_path / "bad.json"
    doc = _small_scenario()
    doc["checks"][0]["j"] = 5
    scen_file.write_text(json.dumps(doc))
    rc = cli.main(["scenario", str(scen_file)])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err


def test_cli_constants(capsys):
    rc = cli.main(["constants", "--n", "3", "--k", "1", "--j", "1",
                   "--samples", "20000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "closed form" in out and "monte carlo" in out
    alpha_line = [ln for ln in out.splitlines() if "alpha" in ln][0]
    assert f"{3 * math.pi / 8:.6f}"[:8] in alpha_line


def test_env_seed_default(monkeypatch):
    monkeypatch.setenv("QUERMASS_SEED", "99")
    scen = sc.load_scenario({"bodies": [], "checks": []})
    assert scen.seed == 99
