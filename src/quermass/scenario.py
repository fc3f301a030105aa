"""Scenario configuration, validation, execution, and report files.

A scenario is a JSON document listing bodies (inline specs or corpus
references), checks with their parameters and budgets, a seed, and an
output destination.  Every (body, check) combination is validated against
the check's preconditions before any sampling begins; validation errors
carry field paths.  Execution dispatches checks to a fixed-size thread
pool, but every check draws from a stream derived only from (seed, body
index, check index), so reports are bit-identical for any worker count.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from quermass import bodies as bd
from quermass import verify as vf
from quermass.core import RngStream
from quermass.corpus import corpus


class ScenarioError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class CheckSpec:
    check: str
    params: dict = field(default_factory=dict)


@dataclass
class Scenario:
    seed: int
    bodies: list[bd.ConvexBody]
    checks: list[CheckSpec]
    out_path: str | None = None
    out_format: str = "csv"


# One entry per stable check identifier: the runner plus which parameters
# it takes and the flag hypotheses it needs.
@dataclass(frozen=True)
class _CheckDef:
    runner: object
    needs_k: bool = False
    needs_j: bool = False
    needs_N: bool = False
    symmetric: bool = False
    centered: bool = False
    kj_constrained: bool = True  # enforce 0 <= j <= n-k-1
    default_samples: int = 10_000


REGISTRY: dict[str, _CheckDef] = {
    "crofton": _CheckDef(vf.crofton_check, needs_k=True, needs_j=True),
    "lemma-rs": _CheckDef(vf.lemma_rs_check, needs_k=True, needs_j=True,
                          centered=True),
    "thm-1-1": _CheckDef(vf.thm11_check, needs_k=True, needs_j=True,
                         centered=True),
    "cor-1-2": _CheckDef(vf.cor12_check, needs_k=True, needs_j=True,
                         centered=True),
    "thm-1-2": _CheckDef(vf.thm12_check, needs_k=True, needs_j=True,
                         symmetric=True),
    "thm-3-4": _CheckDef(vf.thm34_check, needs_k=True, needs_j=True,
                         centered=True),
    "spingarn": _CheckDef(vf.spingarn_check, needs_k=True, kj_constrained=False,
                          default_samples=1),
    "rs-lower": _CheckDef(vf.rs_lower_check, needs_k=True, symmetric=True,
                          kj_constrained=False, default_samples=1),
    "fradelizi": _CheckDef(vf.fradelizi_check, needs_k=True, centered=True,
                           kj_constrained=False, default_samples=200),
    "stephen-yaskin": _CheckDef(vf.stephen_yaskin_check, needs_k=True, needs_j=True,
                                centered=True, default_samples=200),
    "dpp-spot": _CheckDef(vf.dpp_spotcheck, needs_k=True, needs_N=True,
                          kj_constrained=False, default_samples=20_000),
    "thm-4-3": _CheckDef(vf.thm43_check, needs_k=True, needs_j=True,
                         symmetric=True, default_samples=100_000),
    "cor-4-7": _CheckDef(vf.cor47_check, needs_k=True, needs_j=True,
                         centered=True, default_samples=100_000),
    "bp-identity": _CheckDef(vf.bp_identity_check, needs_k=True,
                             kj_constrained=False, default_samples=4000),
    "thm-4-5": _CheckDef(vf.thm45_check, needs_k=True, needs_j=True,
                         symmetric=True),
    "cor-4-8": _CheckDef(vf.cor48_check, needs_k=True, needs_j=True,
                         centered=True),
    "thm-1-3": _CheckDef(vf.thm13_check, needs_k=True, needs_j=True,
                         symmetric=True),
    "thm-4-6": _CheckDef(vf.thm46_check, needs_j=True, needs_N=True,
                         symmetric=True, kj_constrained=False,
                         default_samples=100_000),
    "thm-1-4-centered": _CheckDef(vf.thm46_centered_check, needs_j=True,
                                  needs_N=True, centered=True,
                                  kj_constrained=False, default_samples=100_000),
    "aleksandrov": _CheckDef(vf.aleksandrov_suite, kj_constrained=False,
                             default_samples=10_000),
    "bm-quermass": _CheckDef(vf.bm_quermass_check, needs_j=True,
                             kj_constrained=False, default_samples=10_000),
}


def validate_combination(body: bd.ConvexBody, spec: CheckSpec) -> list[str]:
    """Precondition problems for running one check on one body."""
    errors = []
    cdef = REGISTRY.get(spec.check)
    if cdef is None:
        return [f"unknown check id {spec.check!r}"]
    n = body.dim
    p = spec.params
    k = p.get("k")
    j = p.get("j")
    if cdef.needs_k and k is None:
        errors.append("missing parameter k")
    if cdef.needs_j and j is None:
        errors.append("missing parameter j")
    if cdef.needs_N and p.get("N") is None:
        errors.append("missing parameter N")
    if "n" in p and p["n"] != n:
        errors.append(f"parameter n={p['n']} does not match body dimension {n}")
    if cdef.kj_constrained and k is not None and cdef.needs_j and j is not None:
        if not (1 <= k <= n - 1 and 0 <= j <= n - k - 1):
            errors.append(
                f"need 1 <= k <= n-1 and 0 <= j <= n-k-1 (n={n}, k={k}, j={j})")
    elif k is not None and not 1 <= k <= n - 1:
        errors.append(f"need 1 <= k <= n-1 (n={n}, k={k})")
    if spec.check == "thm-4-6" or spec.check == "thm-1-4-centered":
        if p.get("N") is not None and p["N"] < n + 1:
            errors.append(f"need N >= n+1 (n={n}, N={p['N']})")
        if j is not None and not 0 <= j <= n - 1:
            errors.append(f"need 0 <= j <= n-1 (n={n}, j={j})")
    if spec.check == "bp-identity" and k is not None and not 1 <= k <= n - 1:
        errors.append(f"need 1 <= s <= n-1 (n={n}, s={k})")
    if cdef.symmetric and not body.flags.symmetric:
        errors.append("body must be symmetric")
    if cdef.centered and not body.flags.centered:
        errors.append("body must be centered")
    return errors


def _run_check(body: bd.ConvexBody, spec: CheckSpec, rng: RngStream) -> vf.CheckReport:
    cdef = REGISTRY[spec.check]
    p = dict(spec.params)
    samples = p.pop("samples", cdef.default_samples)
    sub_samples = p.pop("sub_samples", None)
    kwargs = {}
    if spec.check in ("crofton", "lemma-rs", "thm-1-1", "thm-1-2", "thm-3-4",
                      "thm-4-3", "cor-4-7"):
        kwargs = {"k": p["k"], "j": p["j"], "samples": samples}
    elif spec.check in ("cor-1-2", "thm-4-5", "cor-4-8", "thm-1-3"):
        kwargs = {"k": p["k"], "j": p["j"], "flat_trials": samples}
    elif spec.check == "spingarn" or spec.check == "rs-lower":
        kwargs = {"k": p["k"]}
    elif spec.check == "fradelizi":
        kwargs = {"k": p["k"], "x_samples": samples}
    elif spec.check == "stephen-yaskin":
        kwargs = {"k": p["k"], "j": p["j"], "x_samples": samples}
    elif spec.check == "dpp-spot":
        kwargs = {"d": p["k"], "q": p["N"], "samples": samples}
    elif spec.check == "bp-identity":
        kwargs = {"s": p["k"], "samples": samples}
    elif spec.check in ("thm-4-6", "thm-1-4-centered"):
        kwargs = {"j": p["j"], "big_n": p["N"], "samples": samples}
    elif spec.check == "aleksandrov":
        kwargs = {"samples": samples}
    elif spec.check == "bm-quermass":
        kwargs = {"j": p["j"], "samples": samples}
    if sub_samples is not None and spec.check not in (
            "spingarn", "rs-lower", "bp-identity", "aleksandrov", "bm-quermass",
            "dpp-spot"):
        kwargs["sub_samples"] = sub_samples
    return cdef.runner(body, rng=rng, **kwargs)


def _parse_bodies(raw_bodies: list, errors: list[str]) -> list[bd.ConvexBody]:
    out = []
    for i, entry in enumerate(raw_bodies):
        path = f"bodies[{i}]"
        if isinstance(entry, str):
            if entry.startswith("corpus:"):
                name = entry.split(":", 1)[1]
                try:
                    out.extend(corpus(name))
                except KeyError as exc:
                    errors.append(f"{path}: {exc}")
            else:
                errors.append(f"{path}: string entries must be 'corpus:<name>'")
        elif isinstance(entry, dict):
            try:
                body = bd.body_from_spec(entry)
                if "name" in entry:
                    body.with_name(entry["name"])
                out.append(body)
            except Exception as exc:
                errors.append(f"{path}: {exc}")
        else:
            errors.append(f"{path}: expected a body object or 'corpus:<name>'")
    return out


_INT_PARAMS = ("k", "j", "N", "samples", "sub_samples")
_BUDGET_PARAMS = ("samples", "sub_samples")


def _param_problems(params: dict) -> list[str]:
    """Integer parameters that are not integers, and budgets below 1."""
    problems = []
    for name in _INT_PARAMS:
        if name not in params:
            continue
        val = params[name]
        if isinstance(val, bool) or not isinstance(val, int):
            problems.append(f"{name}: must be an integer, got {val!r}")
        elif name in _BUDGET_PARAMS and val < 1:
            problems.append(f"{name}: must be >= 1, got {val}")
    return problems


def load_scenario(source: str | dict) -> Scenario:
    """Parse and fully validate a scenario file, dict, or built-in name."""
    if isinstance(source, str):
        if source in BUILTIN_SCENARIOS:
            doc = BUILTIN_SCENARIOS[source]
        else:
            with open(source) as fh:
                doc = json.load(fh)
    else:
        doc = source
    errors: list[str] = []
    seed = doc.get("seed", int(os.environ.get("QUERMASS_SEED", "0")))
    if not isinstance(seed, int):
        errors.append("seed: must be an integer")
        seed = 0
    bodies = _parse_bodies(doc.get("bodies", []), errors)
    checks = []
    for i, entry in enumerate(doc.get("checks", [])):
        path = f"checks[{i}]"
        if not isinstance(entry, dict) or "check" not in entry:
            errors.append(f"{path}: expected an object with a 'check' id")
            continue
        cid = entry["check"]
        params = {key: val for key, val in entry.items() if key != "check"}
        problems = _param_problems(params)
        if not isinstance(cid, str) or cid not in REGISTRY:
            problems.insert(0, f"check: unknown check id {cid!r}")
        if problems:
            errors.extend(f"{path}.{problem}" for problem in problems)
            continue
        checks.append(CheckSpec(check=cid, params=params))
    output = doc.get("output", {})
    out_path = output.get("path")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        errors.append("output/format: must be 'csv' or 'json'")
    for ci, spec in enumerate(checks):
        for bi, body in enumerate(bodies):
            for problem in validate_combination(body, spec):
                errors.append(f"checks[{ci}]/bodies[{bi}]"
                              f"({spec.check} on {body.describe()}): {problem}")
    if errors:
        raise ScenarioError(errors)
    return Scenario(seed=seed, bodies=bodies, checks=checks,
                    out_path=out_path, out_format=out_format)


def run_scenario(scenario: Scenario) -> list[vf.CheckReport]:
    """Execute every (check, body) pair; report order is scenario order."""
    jobs = []
    for ci, spec in enumerate(scenario.checks):
        for bi, body in enumerate(scenario.bodies):
            rng = RngStream(scenario.seed).split_named(f"check-{ci}-body-{bi}")
            jobs.append((ci, bi, spec, body, rng))
    workers = max(1, int(os.environ.get("QUERMASS_THREADS", "1")))

    def work(job):
        ci, bi, spec, body, rng = job
        try:
            return _run_check(body, spec, rng)
        except Exception as exc:  # isolate failing checks
            return vf.CheckReport(
                check_id=spec.check, body=body.describe(), params=spec.params,
                lower=None, middle=vf.Estimate.exact(math.nan), upper=None,
                constants={}, margin_lower=math.nan, margin_upper=math.nan,
                verdict="error", note=f"{type(exc).__name__}: {exc}",
                seed=rng.seed)

    if workers == 1:
        reports = [work(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(work, jobs))
    return reports


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


CSV_COLUMNS = ["check_id", "body", "n", "k", "j", "N", "lower", "middle",
               "upper", "sigma", "margin_lower", "margin_upper", "verdict",
               "note"]


def reports_to_csv(reports: list[vf.CheckReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        p = rep.params
        writer.writerow([
            rep.check_id, rep.body,
            p.get("n", ""), p.get("k", ""), p.get("j", ""), p.get("N", ""),
            _fmt(rep.lower.value if rep.lower else None),
            _fmt(rep.middle.value),
            _fmt(rep.upper.value if rep.upper else None),
            _fmt(rep.middle.std_error),
            _fmt(rep.margin_lower), _fmt(rep.margin_upper),
            rep.verdict, rep.note,
        ])
    return buf.getvalue()


def _estimate_to_dict(est: vf.Estimate | None) -> dict | None:
    if est is None:
        return None
    return {"value": est.value, "std_error": est.std_error,
            "samples": est.samples, "method": est.method}


def reports_to_json(reports: list[vf.CheckReport]) -> str:
    docs = []
    for rep in reports:
        docs.append({
            "check_id": rep.check_id,
            "body": rep.body,
            "params": rep.params,
            "lower": _estimate_to_dict(rep.lower),
            "middle": _estimate_to_dict(rep.middle),
            "upper": _estimate_to_dict(rep.upper),
            "constants": {key: (_estimate_to_dict(val) if isinstance(val, vf.Estimate)
                                else val)
                          for key, val in rep.constants.items()},
            "margin_lower": _fmt(rep.margin_lower),
            "margin_upper": _fmt(rep.margin_upper),
            "verdict": rep.verdict,
            "note": rep.note,
            "seed": rep.seed,
            "wall_time": rep.wall_time,
            "details": rep.details,
        })
    return json.dumps(docs, indent=2)


def write_reports(reports: list[vf.CheckReport], path: str, fmt: str) -> Path:
    dest = Path(path)
    dest.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        dest.write_text(reports_to_csv(reports))
    else:
        dest.write_text(reports_to_json(reports))
    return dest


def summary_table(reports: list[vf.CheckReport]) -> str:
    lines = [f"{'check':18s} {'body':16s} {'params':16s} {'verdict':12s} "
             f"{'margins':>18s}"]
    for rep in reports:
        p = rep.params
        pstr = ",".join(f"{key}={p[key]}" for key in ("n", "k", "j", "N")
                        if key in p and p[key] is not None and p[key] != "")
        margins = f"{rep.margin_lower:+.1f}/{rep.margin_upper:+.1f}"
        lines.append(f"{rep.check_id:18s} {rep.body:16s} {pstr:16s} "
                     f"{rep.verdict:12s} {margins:>18s}")
    counts: dict[str, int] = {}
    for rep in reports:
        counts[rep.verdict] = counts.get(rep.verdict, 0) + 1
    lines.append("verdicts: " + ", ".join(f"{v}={c}" for v, c in sorted(counts.items())))
    return "\n".join(lines)


BUILTIN_SCENARIOS: dict[str, dict] = {
    "ball-closed-forms": {
        "seed": 2024,
        "bodies": [
            {"type": "ball", "dim": 3, "center": [0.0, 0.0, 0.0], "radius": 1.0,
             "flags": {"symmetric": True}, "name": "ball-3d"},
        ],
        "checks": [
            {"check": "crofton", "k": 1, "j": 1, "samples": 2000},
            {"check": "lemma-rs", "k": 1, "j": 1, "samples": 1500},
            {"check": "thm-1-1", "k": 1, "j": 1, "samples": 500},
            {"check": "cor-1-2", "k": 1, "j": 1, "samples": 200},
            {"check": "thm-1-2", "k": 1, "j": 1, "samples": 300},
            {"check": "thm-3-4", "k": 1, "j": 1, "samples": 300},
            {"check": "spingarn", "k": 1},
            {"check": "rs-lower", "k": 1},
            {"check": "fradelizi", "k": 1, "samples": 100},
            {"check": "stephen-yaskin", "k": 1, "j": 1, "samples": 100},
            {"check": "aleksandrov"},
        ],
        "output": {"format": "csv"},
    },
}
