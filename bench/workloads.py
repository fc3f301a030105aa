"""The three benchmark workloads: inputs, the timed work, and its checks.

Each workload has three steps, run once per pass: ``setup`` builds the
inputs from the seed and hands them to the program (loading and validating
scenario documents, building bodies); ``run`` is the timed work, which
calls ``between()`` at fixed points so that the host-speed probe can run
there untimed (between thirds of cube-suite's checks, between the
scenarios of corpus-sections, every few requests of estimators-hd);
``check`` compares the program's outputs with values from ``oracles`` and
returns one outcome per operation: ``ok``, ``error`` (the operation raised
or reported ``error``) or ``wrong`` (a comparison failed).

The bodies are fixed, so the work of a pass does not depend on the seed;
the seed sets the scenario seed or the request streams, so every random
stream of the program does.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as orc
from quermass import bodies as bd
from quermass import integrals as it
from quermass import scenario as sc
from quermass import verify as vf
from quermass.core import RngStream

ROOT = Path(__file__).resolve().parent.parent

# cube-suite: the committed scenario with every budget scaled by this factor,
# the Monte Carlo constants' budget included, so that a 30 s run holds about
# ten passes.
CUBE_SCALE = 1 / 32
# cube-suite: runs of the scenario runner per pass, probed between.
CUBE_SEGMENTS = 3
# corpus-sections: flats (or offsets) per check.  crofton is compared with
# an exact target, and on the simplex its estimate is heavy-tailed: at 10
# flats the sample sigma understates the error (a 5.2-sigma miss at seed 12).
CORPUS_FLATS = 10
CROFTON_FLATS = 40
# estimators-hd: requests between two host-speed probes.
REQUESTS_PER_SEGMENT = 7
# Bodies that are random are drawn from this fixed seed, not from --seed.
BODY_SEED = 20250810


def reset_caches() -> None:
    """Empty the program's module caches, as a fresh interpreter has them."""
    vf._REF_CACHE.clear()
    vf._MC_CONSTANT_CACHE.clear()


@dataclass
class Outcome:
    name: str
    status: str  # ok | error | wrong
    detail: str = ""


@dataclass
class State:
    seed: int
    out_dir: Path
    scenarios: list = field(default_factory=list)
    specs: dict = field(default_factory=dict)
    bodies: dict = field(default_factory=dict)
    requests: list = field(default_factory=list)
    expected_rows: int = 0


def _judge(name: str, ok: bool, detail: str) -> Outcome:
    return Outcome(name, "ok" if ok else "wrong", "" if ok else detail)


# ---------------------------------------------------------------------------
# cube-suite


_CONSTANT_SAMPLES = vf.DEFAULT_CONSTANT_SAMPLES


def scale_constants(scale: float) -> None:
    """Scale the Monte Carlo constants' sample budget by ``scale``.

    A scenario cannot set it: ``dpp-spot`` reads
    ``verify.DEFAULT_CONSTANT_SAMPLES`` at call time, and the other checks
    take a ``constant_samples`` keyword, which is bound here on the runners
    that ``scenario.REGISTRY`` holds.  Idempotent.
    """
    samples = max(1, round(_CONSTANT_SAMPLES * scale))
    if vf.DEFAULT_CONSTANT_SAMPLES == samples:
        return
    vf.DEFAULT_CONSTANT_SAMPLES = samples
    for cid, cdef in list(sc.REGISTRY.items()):
        if "constant_samples" in inspect.signature(cdef.runner).parameters:
            bound = functools.update_wrapper(
                functools.partial(cdef.runner, constant_samples=samples),
                cdef.runner)
            sc.REGISTRY[cid] = dataclasses.replace(cdef, runner=bound)


def cube_setup(seed: int, out_dir: Path) -> State:
    scale_constants(CUBE_SCALE)
    doc = json.loads((ROOT / "scenarios" / "cube-suite.json").read_text())
    doc["seed"] = seed
    for check in doc["checks"]:
        if "samples" in check:
            check["samples"] = max(1, round(check["samples"] * CUBE_SCALE))
    doc["output"] = {"path": str(out_dir / f"cube-suite-{seed}.csv"),
                     "format": "csv"}
    state = State(seed, out_dir, expected_rows=len(doc["checks"]))
    state.scenarios.append(sc.load_scenario(doc))
    return state


def cube_run(state: State, between=None) -> list:
    """The scenario's checks in CUBE_SEGMENTS consecutive runs of the
    scenario runner, with the probe between them; the constants' cache
    and the scenario seed are shared, so the work is that of one run."""
    scenario = state.scenarios[0]
    per = -(-len(scenario.checks) // CUBE_SEGMENTS)
    reports = []
    for start in range(0, len(scenario.checks), per):
        if start and between is not None:
            between()
        part = dataclasses.replace(scenario, checks=scenario.checks[start:start + per])
        reports += sc.run_scenario(part)
    sc.write_reports(reports, scenario.out_path, scenario.out_format)
    return reports


def cube_check(state: State, reports) -> list[Outcome]:
    path = Path(state.scenarios[0].out_path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    outcomes = []
    if len(rows) != state.expected_rows:
        # every expected row is an operation; missing ones failed
        outcomes += [Outcome("csv-rows", "wrong",
                             f"{len(rows)} rows, expected {state.expected_rows}")
                     ] * max(state.expected_rows - len(rows), 1)
    w1_cube = orc.box_quermass([1.0, 1.0, 1.0], 1)
    for i, row in enumerate(rows):
        name = f"row{i}:{row['check_id']}"
        if row["verdict"] == "error":
            outcomes.append(Outcome(name, "error", row["note"]))
            continue
        mid, sigma = float(row["middle"]), float(row["sigma"])
        ok, detail = True, ""
        if row["check_id"] == "crofton":
            target = orc.alpha(3, 1, 1) * w1_cube
            ok = orc.close(mid, target, sigma)
            detail = f"middle {mid} vs alpha*W_1 {target} (sigma {sigma})"
        elif row["check_id"] == "bp-identity":
            ok = orc.close(mid, 1.0, sigma)
            detail = f"middle {mid} vs |K|^2 = 1 (sigma {sigma})"
        if ok and row["lower"] and row["upper"]:
            lo, up = float(row["lower"]), float(row["upper"])
            ok = orc.within_bounds(lo, mid, up, sigma)
            detail = f"middle {mid} outside [{lo}, {up}] at 5 sigma {sigma}"
        outcomes.append(_judge(name, ok, detail))
    return outcomes


# ---------------------------------------------------------------------------
# corpus-sections


def corpus_specs() -> dict[str, dict]:
    """The seven 4-d bodies of the corpus, as body documents."""
    n = 4
    gen = np.random.Generator(np.random.Philox(BODY_SEED))
    g = gen.standard_normal((20, n))
    semiaxes = np.logspace(np.log10(0.5), np.log10(2.0), n)
    eye = np.eye(n)
    simplex = np.vstack([np.zeros(n), eye])
    sym = {"symmetric": True}
    return {
        "ball-4d": {"type": "ball", "center": [0.0] * n, "radius": 1.0,
                    "flags": sym},
        "cube-4d": {"type": "box", "center": [0.0] * n, "halfwidths": [0.5] * n,
                    "flags": sym},
        "geombox-4d": {"type": "box", "center": [0.0] * n,
                       "halfwidths": (0.5 * 0.5 ** np.arange(n)).tolist(),
                       "flags": sym},
        "crosspoly-4d": {"type": "vpolytope",
                         "vertices": np.vstack([eye, -eye]).tolist(), "flags": sym},
        "ellipsoid-4d": {"type": "ellipsoid", "center": [0.0] * n,
                         "shape": np.diag(semiaxes ** 2).tolist(), "flags": sym},
        "randsym-4d": {"type": "vpolytope", "vertices": np.vstack([g, -g]).tolist(),
                       "flags": sym},
        "simplex-4d": {"type": "vpolytope",
                       "vertices": (simplex - simplex.mean(axis=0)).tolist(),
                       "flags": {"centered": True}},
    }


SECTION_CHECKS = ("crofton", "lemma-rs", "thm-1-1", "cor-1-2", "thm-1-2",
                  "thm-3-4")


def corpus_setup(seed: int, out_dir: Path) -> State:
    state = State(seed, out_dir)
    state.specs = corpus_specs()
    n = 4
    pairs = [(k, j) for k in range(1, n) for j in range(n - k)]
    for name, spec in state.specs.items():
        symmetric = spec["flags"].get("symmetric", False)
        checks = [{"check": cid, "k": k, "j": j,
                   "samples": CROFTON_FLATS if cid == "crofton" else CORPUS_FLATS}
                  for cid in SECTION_CHECKS
                  if symmetric or cid != "thm-1-2"
                  for k, j in pairs]
        doc = {"seed": seed, "bodies": [dict(spec, name=name)], "checks": checks,
               "output": {"path": str(out_dir / f"corpus-{name}-{seed}.json"),
                          "format": "json"}}
        state.expected_rows += len(checks)
        state.scenarios.append(sc.load_scenario(doc))
    return state


def corpus_run(state: State, between=None) -> list:
    reports = []
    for i, scenario in enumerate(state.scenarios):
        if i and between is not None:
            between()
        part = sc.run_scenario(scenario)
        sc.write_reports(part, scenario.out_path, scenario.out_format)
        reports += part
    return reports


def corpus_reference(spec: dict, j: int) -> float | None:
    """W_j(K) from closed forms or Qhull, where those exist."""
    n = 4
    if spec["type"] == "ball":
        return orc.ball_quermass(n, spec["radius"], j)
    if spec["type"] == "box":
        return orc.box_quermass([2 * h for h in spec["halfwidths"]], j)
    if spec["type"] == "ellipsoid" and j == 0:
        return orc.ellipsoid_volume(np.sqrt(np.diag(spec["shape"])))
    if spec["type"] == "vpolytope" and j <= 1:
        return orc.polytope_quermass(spec["vertices"], j)
    return None


def corpus_check(state: State, reports) -> list[Outcome]:
    outcomes = []
    docs = []
    for scenario in state.scenarios:
        docs += json.loads(Path(scenario.out_path).read_text())
    if len(docs) != state.expected_rows:
        outcomes += [Outcome("json-rows", "wrong",
                             f"{len(docs)} reports, expected {state.expected_rows}")
                     ] * max(state.expected_rows - len(docs), 1)
    refs: dict = {}
    for doc in docs:
        cid, body, p = doc["check_id"], doc["body"], doc["params"]
        name = f"{cid}/{body}/k={p['k']},j={p['j']}"
        if doc["verdict"] == "error":
            outcomes.append(Outcome(name, "error", doc["note"]))
            continue
        spec = state.specs[body]
        key = (body, p["j"])
        if key not in refs:
            refs[key] = corpus_reference(spec, p["j"])
        ref = refs[key]
        mid = doc["middle"]["value"]
        sig = doc["middle"]["std_error"]
        ok, detail = True, ""
        if cid == "crofton" and ref is not None:
            target = orc.alpha(4, p["k"], p["j"]) * ref
            ok = orc.close(mid, target, sig)
            detail = f"middle {mid} vs alpha*W_j {target} (sigma {sig})"
        if ok and ref is not None and spec["type"] == "vpolytope":
            const = doc["constants"].get("W_j(K)")
            if const is not None:
                ok = orc.rel_equal(const, ref, 1e-9)
                detail = f"W_j(K) {const} vs Qhull {ref}"
        if ok and doc["lower"] is not None and doc["upper"] is not None:
            lo, up = doc["lower"], doc["upper"]
            sigma = math.hypot(sig, max(lo["std_error"], up["std_error"]))
            ok = orc.within_bounds(lo["value"], mid, up["value"], sigma)
            detail = (f"middle {mid} outside [{lo['value']}, {up['value']}]"
                      f" at 5 sigma {sigma}")
        outcomes.append(_judge(name, ok, detail))
    return outcomes


# ---------------------------------------------------------------------------
# estimators-hd


def estimator_specs() -> dict[str, dict]:
    gen = np.random.Generator(np.random.Philox(BODY_SEED + 1))
    g5 = gen.standard_normal((12, 5))
    g6 = gen.standard_normal((12, 6))
    half6 = gen.uniform(0.25, 1.0, 6)
    semi5 = np.logspace(np.log10(0.5), np.log10(2.0), 5)
    sym = {"symmetric": True}
    specs = {
        "randsym-5d": {"type": "vpolytope", "vertices": np.vstack([g5, -g5]),
                       "flags": sym},
        "randsym-6d": {"type": "vpolytope", "vertices": np.vstack([g6, -g6]),
                       "flags": sym},
        "crosspoly-5d": {"type": "vpolytope",
                         "vertices": np.vstack([np.eye(5), -np.eye(5)]),
                         "flags": sym},
        "crosspoly-6d": {"type": "vpolytope",
                         "vertices": np.vstack([np.eye(6), -np.eye(6)]),
                         "flags": sym},
        "box-6d": {"type": "box", "center": np.zeros(6), "halfwidths": half6,
                   "flags": sym},
        "ellipsoid-5d": {"type": "ellipsoid", "center": np.zeros(5),
                         "shape": np.diag(semi5 ** 2), "flags": sym},
    }
    # 2K for the scaling checks; doubling is exact in floating point
    for name in ("randsym-5d", "box-6d", "ellipsoid-5d"):
        spec = dict(specs[name])
        for key, factor in (("vertices", 2.0), ("halfwidths", 2.0), ("shape", 4.0)):
            if key in spec:
                spec[key] = spec[key] * factor
        specs[f"2x{name}"] = spec
    return {name: {key: (val.tolist() if isinstance(val, np.ndarray) else val)
                   for key, val in spec.items()}
            for name, spec in specs.items()}


@dataclass
class Request:
    """One W_j request as ``quermass compute`` serves it."""

    label: str
    body: str
    method: str  # exact | kubota | steiner | auto
    j: int
    samples: int = 0
    stream: str = ""  # requests that share a stream name share the stream

    def run(self, bodies: dict, seed: int):
        body = bodies[self.body]
        rng = RngStream(seed).split_named(f"compute-{self.stream or self.label}")
        if self.method == "exact":
            return it.quermass_exact(body, self.j)
        if self.method == "kubota":
            return it.quermass_kubota(body, self.j, self.samples, rng)
        if self.method == "steiner":
            return it.quermass_steiner_fit(body, self.j, None, self.samples, rng)
        return it.quermass_estimate(body, self.j, self.samples, rng)


def estimator_requests() -> list[Request]:
    reqs = []
    kubota = [("randsym-5d", 1, 160), ("randsym-5d", 2, 300),
              ("randsym-6d", 1, 60), ("randsym-6d", 3, 200),
              ("crosspoly-5d", 1, 300), ("crosspoly-5d", 2, 300),
              ("crosspoly-6d", 1, 150), ("crosspoly-6d", 2, 200),
              ("crosspoly-6d", 3, 300),
              ("box-6d", 1, 4000), ("box-6d", 2, 4000), ("box-6d", 3, 4000),
              ("ellipsoid-5d", 1, 20000), ("ellipsoid-5d", 2, 20000)]
    for body, j, samples in kubota:
        reqs.append(Request(f"kubota:{body}:W{j}", body, "kubota", j, samples))
    for body, j in (("randsym-5d", 1), ("box-6d", 2), ("ellipsoid-5d", 1)):
        samples = next(s for b, jj, s in kubota if b == body and jj == j)
        reqs.append(Request(f"kubota:2x{body}:W{j}", f"2x{body}", "kubota", j,
                            samples, stream=f"kubota:{body}:W{j}"))
    for body, n in (("randsym-5d", 5), ("randsym-6d", 6), ("crosspoly-6d", 6),
                    ("ellipsoid-5d", 5)):
        reqs.append(Request(f"auto:{body}:W{n - 1}", body, "auto", n - 1, 20000))
        reqs.append(Request(f"kubota:{body}:W{n - 1}", body, "kubota", n - 1, 20000))
    reqs.append(Request("steiner:crosspoly-5d:W1", "crosspoly-5d", "steiner", 1,
                        10000))
    for body, n in (("randsym-5d", 5), ("randsym-6d", 6), ("crosspoly-5d", 5),
                    ("crosspoly-6d", 6)):
        for j in (0, 1):
            reqs.append(Request(f"exact:{body}:W{j}", body, "exact", j))
    for j in range(7):
        reqs.append(Request(f"exact:box-6d:W{j}", "box-6d", "exact", j))
    return reqs


def estimators_setup(seed: int, out_dir: Path) -> State:
    state = State(seed, out_dir)
    state.specs = estimator_specs()
    state.bodies = {name: bd.body_from_spec(spec).with_name(name)
                    for name, spec in state.specs.items()}
    state.requests = estimator_requests()
    return state


def estimators_run(state: State, between=None) -> dict:
    results = {}
    for i, req in enumerate(state.requests):
        if i and i % REQUESTS_PER_SEGMENT == 0 and between is not None:
            between()
        try:
            results[req.label] = req.run(state.bodies, state.seed)
        except Exception as exc:  # one failed request must not end the pass
            results[req.label] = exc
    return results


def _value(result) -> tuple[float, float] | None:
    """(value, sigma) of a request's result; None when the request failed."""
    if isinstance(result, it.Estimate):
        return result.value, result.std_error
    if isinstance(result, (int, float)):
        return float(result), 0.0
    return None


def estimators_check(state: State, results: dict) -> list[Outcome]:
    specs = state.specs
    outcomes = []

    def reference(body: str, j: int) -> float | None:
        spec = specs[body]
        if spec["type"] == "box":
            return orc.box_quermass([2 * h for h in spec["halfwidths"]], j)
        if spec["type"] == "vpolytope" and j <= 1:
            return orc.polytope_quermass(spec["vertices"], j)
        return None

    for req in state.requests:
        own = _value(results[req.label])
        if own is None:
            outcomes.append(Outcome(req.label, "error", repr(results[req.label])))
            continue
        value, sigma = own
        spec = specs[req.body]
        n = len(spec["center"] if "center" in spec else spec["vertices"][0])
        ref = reference(req.body, req.j)
        checks = [(math.isfinite(value), f"non-finite {value}")]
        if ref is not None and req.method == "exact":
            rtol = 1e-12 if spec["type"] == "box" else 1e-9
            checks.append((orc.rel_equal(value, ref, rtol), f"exact {value} vs {ref}"))
        elif ref is not None and req.method == "kubota":
            checks.append((orc.close(value, ref, sigma),
                           f"kubota {value} +- {sigma} vs {ref}"))
        if req.body.startswith("2x"):
            base = _value(results[req.stream])
            factor = 2.0 ** (n - req.j)
            checks.append((base is not None
                           and orc.rel_equal(value, factor * base[0], 1e-12),
                           f"W_j(2K) {value} vs 2^(n-j) W_j(K) from {base}"))
        if req.method in ("auto", "steiner"):
            other = _value(results[f"kubota:{req.body}:W{req.j}"])
            checks.append((other is not None
                           and orc.agree(value, sigma, *other),
                           f"{req.method} {value} +- {sigma} vs kubota {other}"))
        failed = [detail for ok, detail in checks if not ok]
        outcomes.append(_judge(req.label, not failed, "; ".join(failed)))
    return outcomes


WORKLOADS = {
    "cube-suite": (cube_setup, cube_run, cube_check),
    "corpus-sections": (corpus_setup, corpus_run, corpus_check),
    "estimators-hd": (estimators_setup, estimators_run, estimators_check),
}
