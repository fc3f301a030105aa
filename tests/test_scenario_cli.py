import dataclasses
import inspect
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quermass import bodies as bd
from quermass import cli
from quermass import integrals as it
from quermass import scenario as sc
from quermass import verify as vf
from quermass.core import RngStream
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
              for name in ("k", "j", "N", "n", "samples", "sub_samples")}),
    seed=_PARAM_VALUES,
    output=_PARAM_VALUES | st.fixed_dictionaries(
        {}, optional={"path": _PARAM_VALUES, "format": _PARAM_VALUES}))
def test_scenario_validation_fuzz(entry, seed, output):
    doc = {"seed": seed, "bodies": [_CUBE_3D], "checks": [entry], "output": output}
    try:
        scen = sc.load_scenario(doc)
    except sc.ScenarioError as err:
        for name in ("k", "j", "N", "samples"):
            val = entry.get(name, 1)
            if isinstance(val, bool) or not isinstance(val, int):
                assert any(e.startswith(f"checks[0].{name}:") for e in err.errors)
        if isinstance(seed, bool) or not isinstance(seed, int):
            assert any(e.startswith("seed:") for e in err.errors)
        if not isinstance(output, dict):
            assert any(e.startswith("output:") for e in err.errors)
        elif not isinstance(output.get("path", ""), (str, type(None))):
            assert any(e.startswith("output.path:") for e in err.errors)
        return
    assert type(scen.seed) is int
    assert scen.out_path is None or isinstance(scen.out_path, str)
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
             ({"check": "dpp-spot", "k": 1, "N": 2.0}, "checks[0].N"),
             ({"check": "spingarn", "k": 1, "n": "3"}, "checks[0].n")]
    for entry, path in cases:
        with pytest.raises(sc.ScenarioError) as err:
            sc.load_scenario({"seed": 1, "bodies": [_CUBE_3D], "checks": [entry]})
        assert any(e.startswith(path + ":") for e in err.value.errors), err.value.errors
    good = {"seed": 1, "bodies": [_CUBE_3D], "checks": [{"check": "spingarn", "k": 1}]}
    for change, path in (({"seed": True}, "seed"), ({"output": []}, "output"),
                         ({"output": "out.csv"}, "output"),
                         ({"output": {"path": 5}}, "output.path"),
                         ({"output": {"format": "xml"}}, "output.format")):
        with pytest.raises(sc.ScenarioError) as err:
            sc.load_scenario(dict(good, **change))
        assert any(e.startswith(path + ":") for e in err.value.errors), err.value.errors
    for change, message in (({"bodies": 5}, "bodies: expected a list, got int"),
                            ({"bodies": "corpus:balls"}, "bodies: expected a list, got str"),
                            ({"checks": {"check": "crofton"}},
                             "checks: expected a list, got dict")):
        with pytest.raises(sc.ScenarioError) as err:
            sc.load_scenario(dict(good, **change))
        assert err.value.errors == [message]
    for doc in ([], [good], 3, None):
        with pytest.raises(sc.ScenarioError):
            sc.load_scenario(doc)


_BALL_3D = {"type": "ball", "dim": 3, "center": [0, 0, 0], "radius": 1.0,
            "flags": {"symmetric": True}}


def test_scenario_validation_rejects_out_of_range_n_and_j():
    # both used to load and then end in an `error` verdict at run time;
    # messages name the parameters as the scenario wrote them
    for entry, text in (({"check": "dpp-spot", "k": 1, "N": 0}, "N >= 1"),
                        ({"check": "dpp-spot", "k": 1, "N": -2}, "N >= 1"),
                        ({"check": "dpp-spot", "k": 4, "N": 3}, "(n=3, k=4)"),
                        ({"check": "bp-identity", "k": 3}, "(n=3, k=3)"),
                        ({"check": "thm-4-6", "j": 1, "N": 3},
                         "need N >= n+1 (n=3, N=3)"),
                        ({"check": "bm-quermass", "j": 3}, "0 <= j <= n-1"),
                        ({"check": "bm-quermass", "j": -1}, "0 <= j <= n-1")):
        with pytest.raises(sc.ScenarioError) as err:
            sc.load_scenario({"seed": 1, "bodies": [_BALL_3D], "checks": [entry]})
        assert any(e.startswith("checks[0]/bodies[0](") and text in e
                   for e in err.value.errors), err.value.errors


def test_bm_quermass_needs_a_polytope(monkeypatch):
    # balls and ellipsoids used to load and then end in an `error` verdict
    doc = {"seed": 1, "bodies": ["corpus:balls", "corpus:ellipsoids", _CUBE_3D],
           "checks": [{"check": "bm-quermass", "j": 0}]}
    with pytest.raises(sc.ScenarioError) as err:
        sc.load_scenario(doc)
    bodies = corpus("balls") + corpus("ellipsoids")
    assert err.value.errors == [
        f"checks[0]/bodies[{b}](bm-quermass on {body.describe()}): "
        "body must be a polytope (box, V- or H-polytope)"
        for b, body in enumerate(bodies)]

    def no_sampling(self):
        raise AssertionError("drew random numbers before the hypotheses held")
    monkeypatch.setattr(RngStream, "generator", no_sampling)
    cube = sc.load_scenario({"seed": 1, "bodies": [_CUBE_3D], "checks": []}).bodies[0]
    for body in bodies:
        with pytest.raises(vf.PreconditionError, match="must be a polytope"):
            vf.bm_quermass_check(body, j=0, rng=RngStream(1))
        if body.dim == 3:
            # a direct call with a round partner used to end in CapabilityError
            with pytest.raises(vf.PreconditionError, match="must be a polytope"):
                vf.bm_quermass_check(cube, body, j=0, rng=RngStream(1))


def test_scenario_validation_rejects_unused_parameters(capsys):
    cases = [({"check": "spingarn", "k": 1, "sampels": 5, "sub_samples": 3},
              ["sampels", "sub_samples"]),
             ({"check": "crofton", "k": 1, "j": 0, "N": 4}, ["N"]),
             ({"check": "fradelizi", "k": 1, "j": 0}, ["j"]),
             ({"check": "aleksandrov", "sub_samples": 8}, ["sub_samples"])]
    for entry, names in cases:
        with pytest.raises(sc.ScenarioError) as err:
            sc.load_scenario({"seed": 1, "bodies": [_CUBE_3D], "checks": [entry]})
        for name in names:
            assert any(e.startswith(f"checks[0].{name}: not a parameter")
                       for e in err.value.errors), err.value.errors
    ok = sc.load_scenario({"seed": 1, "bodies": [_CUBE_3D],
                           "checks": [{"check": "spingarn", "k": 1, "n": 3}]})
    assert ok.checks[0].params == {"k": 1, "n": 3}
    rc = cli.main(["verify", "--check", "crofton", "--body", "corpus:balls",
                   "--k", "1", "--j", "0", "--N", "4"])
    assert rc == 2
    assert "N: not a parameter of crofton" in capsys.readouterr().err


def test_registry_entries_match_their_runners():
    for cid, cdef in sc.REGISTRY.items():
        assert cdef.runner.__name__
        runner_params = inspect.signature(cdef.runner).parameters
        # a scenario parameter is the runner keyword of the same name
        for keyword in [*cdef.params, *cdef.fixed, "rng"]:
            assert keyword in runner_params, (cid, keyword)
        for rule in vf.HYPOTHESES[cid].rules:
            assert set(rule.names) <= set(cdef.params), (cid, rule.text)
        assert (cdef.default_samples is None) == ("samples" not in cdef.params)
    assert set(vf.HYPOTHESES) == set(sc.REGISTRY)
    # the benchmark scales the Monte Carlo constants through this keyword
    for cid in ("dpp-spot", "thm-4-3", "bp-identity", "thm-4-5", "thm-1-3", "thm-4-6"):
        assert "constant_samples" in inspect.signature(sc.REGISTRY[cid].runner).parameters


class _Sampled(Exception):
    pass


def _grid_bodies(n):
    verts = np.vstack([np.zeros(n), np.eye(n)])
    simplex = bd.vpolytope(verts - verts.mean(axis=0), bd.Flags(centered=True))
    return (simplex.with_name(f"simplex-{n}d"),
            bd.ball(np.zeros(n), 1.0, bd.Flags(symmetric=True)).with_name(f"ball-{n}d"))


def test_preconditions_agree_between_validation_and_runners(monkeypatch):
    def no_sampling(self):
        raise _Sampled

    first_accepted = {}
    with monkeypatch.context() as patch:
        patch.setattr(RngStream, "generator", no_sampling)
        for cid, cdef in sc.REGISTRY.items():
            names = [name for name in ("k", "j", "N") if name in cdef.params]
            for n in (2, 3, 4):
                ranges = {"k": range(-1, n + 2), "j": range(-1, n + 1),
                          "N": range(0, n + 3)}
                for body in _grid_bodies(n):
                    for values in itertools.product(*(ranges[m] for m in names)):
                        spec = sc.CheckSpec(cid, dict(zip(names, values)))
                        rejected = sc.validate_combination(body, spec)
                        try:
                            cdef.runner(body, rng=RngStream(0), **cdef.kwargs(spec.params))
                        except vf.PreconditionError:
                            assert rejected, (cid, body.describe(), spec.params)
                            continue
                        except _Sampled:
                            pass
                        assert not rejected, (cid, body.describe(), spec.params)
                        first_accepted.setdefault(cid, (body, spec))
    assert set(first_accepted) == set(sc.REGISTRY)
    for cid, (body, spec) in first_accepted.items():
        cdef = sc.REGISTRY[cid]
        for name, budget in (("samples", 4), ("sub_samples", 16)):
            if name in cdef.params:
                spec.params[name] = budget
        rep = sc.run_check(body, spec, RngStream(3))
        assert rep.verdict != "error", (cid, rep.note)


def test_readme_checks_table_lists_the_registry():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Checks", 1)[1].split("\n## ", 1)[0]
    ids = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert len(ids) == len(set(ids))
    assert set(ids) == set(sc.REGISTRY)


def test_shared_reference_computed_once_across_checks(monkeypatch):
    doc = {"seed": 4,
           "bodies": [{"type": "vpolytope", "flags": {"centered": True},
                       "vertices": (np.vstack([np.zeros(3), np.eye(3)])
                                    - 0.25).tolist()}],
           "checks": [{"check": "thm-1-1", "k": 1, "j": 1, "samples": 2},
                      {"check": "crofton", "k": 1, "j": 1, "samples": 2}]}
    original = it.quermass_estimate
    calls = []

    def counted(body, j, *args, **kwargs):
        if body is scen.bodies[0]:
            calls.append(j)
        return original(body, j, *args, **kwargs)
    monkeypatch.setattr(it, "quermass_estimate", counted)
    monkeypatch.setattr(vf, "_REF_CACHE", {})
    scen = sc.load_scenario(doc)
    sc.run_scenario(scen)
    assert calls == [1]


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


def test_scenario_reproducible_across_reruns():
    csv_one = sc.reports_to_csv(sc.run_scenario(sc.load_scenario(_small_scenario())))
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
                        dataclasses.replace(sc.REGISTRY["thm-1-1"], runner=boom))
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


def test_cli_bad_body_is_a_validation_error(tmp_path, capsys):
    bad_file = tmp_path / "ball.json"
    bad_file.write_text(json.dumps({"type": "ball", "dim": 3}))
    cases = [(["verify", "--check", "spingarn", "--body", "corpus:nosuch", "--k", "1"],
              "--body: \"unknown corpus 'nosuch'"),
             (["compute", "--body", str(bad_file), "--j", "1"],
              "--body: missing field 'center'"),
             (["compute", "--body", str(tmp_path / "missing.json"), "--j", "1"],
              f"--body: cannot read {tmp_path / 'missing.json'}")]
    for argv, message in cases:
        assert cli.main(argv) == 2
        assert f"validation error: {message}" in capsys.readouterr().err


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
    # a malformed value matters only to a document without a seed
    monkeypatch.setenv("QUERMASS_SEED", "1.5")
    assert sc.load_scenario({"seed": 3, "bodies": [], "checks": []}).seed == 3
    with pytest.raises(sc.ScenarioError) as err:
        sc.load_scenario({"bodies": [], "checks": []})
    assert err.value.errors == ["seed: QUERMASS_SEED must be an integer, got '1.5'"]


def test_cli_malformed_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("QUERMASS_SEED", "abc")
    args = ["compute", "--body", "corpus:balls", "--j", "0", "--method", "exact"]
    assert cli.main(args + ["--seed", "2"]) == 0
    capsys.readouterr()
    assert cli.main(args) == 2
    assert ("validation error: seed: QUERMASS_SEED must be an integer, got 'abc'"
            in capsys.readouterr().err)


def test_cli_verify_reports_a_raising_check(monkeypatch, capsys):
    def broken(body, **kwargs):
        raise RuntimeError("broken runner")
    monkeypatch.setitem(sc.REGISTRY, "spingarn",
                        dataclasses.replace(sc.REGISTRY["spingarn"], runner=broken))
    rc = cli.main(["verify", "--check", "spingarn", "--body", "corpus:balls",
                   "--k", "1"])
    assert rc == 1
    assert "verdicts: error=4" in capsys.readouterr().out
