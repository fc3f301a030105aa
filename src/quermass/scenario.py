"""Scenario configuration, validation, execution, and report files.

A scenario is a JSON document listing bodies (inline specs or corpus
references), checks with their parameters and budgets, a seed, and an
output destination.  REGISTRY declares every check id once: its runner in
`verify`, the parameters it takes (each a keyword of the runner under the
same name) and its default budget; its hypotheses are verify.HYPOTHESES.
Loading rejects parameters a check does not take and tests every (body,
check) combination against the same hypotheses that the runner tests
before it samples; validation errors carry field paths and the parameter
names the scenario wrote.  `run_check` runs one combination; the corpus
gate calls it too.  `run_scenario` runs every combination in scenario
order, each drawing from a stream derived only from (seed, check index,
body index), so a rerun reproduces the reports bit for bit.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Callable
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


# The scenario parameters of the families of checks below.
_FLATS = ("k", "j", "samples", "sub_samples")
_HULL_POINTS = ("j", "N", "samples", "sub_samples")


@dataclass(frozen=True)
class _CheckDef:
    """One stable check id: the verify function that runs it, the scenario
    parameters it takes (each one a keyword of the runner), keywords fixed
    for this id, and the `samples` used when a scenario gives none."""

    runner: Callable[..., vf.CheckReport]
    params: tuple[str, ...]
    default_samples: int | None = 10_000
    fixed: dict = field(default_factory=dict)

    def kwargs(self, params: dict) -> dict:
        """Runner keywords for the scenario parameters `params`."""
        out = dict(self.fixed)
        if self.default_samples is not None:
            out["samples"] = self.default_samples
        out.update((name, val) for name, val in params.items() if name in self.params)
        return out


_CENTERED = {"centered_variant": True}
REGISTRY: dict[str, _CheckDef] = {
    "crofton": _CheckDef(vf.crofton_check, _FLATS),
    "lemma-rs": _CheckDef(vf.lemma_rs_check, _FLATS),
    "thm-1-1": _CheckDef(vf.thm11_check, _FLATS),
    "cor-1-2": _CheckDef(vf.cor12_check, _FLATS),
    "thm-1-2": _CheckDef(vf.thm12_check, _FLATS),
    "thm-3-4": _CheckDef(vf.thm34_check, _FLATS),
    "spingarn": _CheckDef(vf.spingarn_check, ("k",), None),
    "rs-lower": _CheckDef(vf.rs_lower_check, ("k",), None),
    "fradelizi": _CheckDef(vf.fradelizi_check, ("k", "samples", "sub_samples"), 200),
    "stephen-yaskin": _CheckDef(vf.stephen_yaskin_check, _FLATS, 200),
    "dpp-spot": _CheckDef(vf.dpp_spotcheck, ("k", "N", "samples"), 20_000),
    "thm-4-3": _CheckDef(vf.thm43_check, _FLATS, 100_000),
    "cor-4-7": _CheckDef(vf.thm43_check, _FLATS, 100_000, _CENTERED),
    "bp-identity": _CheckDef(vf.bp_identity_check, ("k", "samples"), 4000),
    "thm-4-5": _CheckDef(vf.thm45_check, _FLATS),
    "cor-4-8": _CheckDef(vf.thm45_check, _FLATS, fixed=_CENTERED),
    "thm-1-3": _CheckDef(vf.thm13_check, _FLATS),
    "thm-4-6": _CheckDef(vf.thm46_check, _HULL_POINTS, 100_000),
    "thm-1-4-centered": _CheckDef(vf.thm46_check, _HULL_POINTS, 100_000, _CENTERED),
    "aleksandrov": _CheckDef(vf.aleksandrov_suite, ("samples",)),
    "bm-quermass": _CheckDef(vf.bm_quermass_check, ("j", "samples")),
}
_REQUIRED = ("k", "j", "N")


def validate_combination(body: bd.ConvexBody, spec: CheckSpec) -> list[str]:
    """Precondition problems for running one check on one body."""
    cdef = REGISTRY.get(spec.check)
    if cdef is None:
        return [f"unknown check id {spec.check!r}"]
    n = body.dim
    p = spec.params
    errors = [f"missing parameter {name}" for name in _REQUIRED
              if name in cdef.params and p.get(name) is None]
    if "n" in p and p["n"] != n:
        errors.append(f"parameter n={p['n']} does not match body dimension {n}")
    return errors + vf.HYPOTHESES[spec.check].problems(body, cdef.kwargs(p))


def combination_problems(checks: list[CheckSpec],
                         bodies: list[bd.ConvexBody]) -> list[str]:
    """validate_combination for every (check, body) pair, with field paths."""
    return [f"checks[{ci}]/bodies[{bi}]({spec.check} on {body.describe()}): {problem}"
            for ci, spec in enumerate(checks) for bi, body in enumerate(bodies)
            for problem in validate_combination(body, spec)]


def run_check(body: bd.ConvexBody, spec: CheckSpec, rng: RngStream) -> vf.CheckReport:
    """Run one validated check on one body, drawing from rng."""
    cdef = REGISTRY[spec.check]
    return cdef.runner(body, rng=rng, **cdef.kwargs(spec.params))


def parse_body(entry, path: str, errors: list[str]) -> list[bd.ConvexBody]:
    """The bodies one entry names: a body object, or 'corpus:<name>' for a
    whole family.  A problem goes to errors as "<path>: <problem>" and
    yields no body."""
    if isinstance(entry, str):
        if not entry.startswith("corpus:"):
            errors.append(f"{path}: string entries must be 'corpus:<name>'")
            return []
        try:
            return corpus(entry.split(":", 1)[1])
        except KeyError as exc:
            errors.append(f"{path}: {exc}")
            return []
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected a body object or 'corpus:<name>'")
        return []
    try:
        body = bd.body_from_spec(entry)
    except KeyError as exc:
        errors.append(f"{path}: missing field {exc}")
        return []
    except Exception as exc:
        errors.append(f"{path}: {exc}")
        return []
    if "name" in entry:
        body.with_name(entry["name"])
    return [body]


_INT_PARAMS = ("n", "k", "j", "N", "samples", "sub_samples")
_BUDGET_PARAMS = ("samples", "sub_samples")


def param_problems(spec: CheckSpec) -> list[str]:
    """An unknown check id, parameters the check does not take, integer
    parameters that are not integers, and budgets below 1, each as
    "<field>: <problem>"."""
    cdef = REGISTRY.get(spec.check) if isinstance(spec.check, str) else None
    problems = [] if cdef else [f"check: unknown check id {spec.check!r}"]
    for name, val in spec.params.items():
        if cdef and name != "n" and name not in cdef.params:
            taken = ", ".join(["n", *cdef.params])
            problems.append(f"{name}: not a parameter of {spec.check} (takes {taken})")
        elif name not in _INT_PARAMS:
            continue
        elif isinstance(val, bool) or not isinstance(val, int):
            problems.append(f"{name}: must be an integer, got {val!r}")
        elif name in _BUDGET_PARAMS and val < 1:
            problems.append(f"{name}: must be >= 1, got {val}")
    return problems


def env_seed() -> int:
    """The default seed: QUERMASS_SEED, or 0 when it is unset."""
    raw = os.environ.get("QUERMASS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(
            [f"seed: QUERMASS_SEED must be an integer, got {raw!r}"]) from None


def _list_field(doc: dict, key: str, errors: list[str]) -> list:
    """doc[key] (default empty) when it is a list; otherwise an error and []."""
    value = doc.get(key, [])
    if isinstance(value, list):
        return value
    errors.append(f"{key}: expected a list, got {type(value).__name__}")
    return []


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
    if not isinstance(doc, dict):
        raise ScenarioError([f"scenario: expected an object, got {type(doc).__name__}"])
    errors: list[str] = []
    seed = doc["seed"] if "seed" in doc else env_seed()
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.append(f"seed: must be an integer, got {seed!r}")
        seed = 0
    bodies = [body for i, entry in enumerate(_list_field(doc, "bodies", errors))
              for body in parse_body(entry, f"bodies[{i}]", errors)]
    checks = []
    for i, entry in enumerate(_list_field(doc, "checks", errors)):
        path = f"checks[{i}]"
        if not isinstance(entry, dict) or "check" not in entry:
            errors.append(f"{path}: expected an object with a 'check' id")
            continue
        spec = CheckSpec(check=entry["check"],
                         params={key: val for key, val in entry.items() if key != "check"})
        problems = param_problems(spec)
        if problems:
            errors.extend(f"{path}.{problem}" for problem in problems)
            continue
        checks.append(spec)
    output = doc.get("output", {})
    if not isinstance(output, dict):
        errors.append(f"output: expected an object, got {output!r}")
        output = {}
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        errors.append(f"output.path: must be a string, got {out_path!r}")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        errors.append("output.format: must be 'csv' or 'json'")
    errors += combination_problems(checks, bodies)
    if errors:
        raise ScenarioError(errors)
    return Scenario(seed=seed, bodies=bodies, checks=checks,
                    out_path=out_path, out_format=out_format)


def run_scenario(scenario: Scenario) -> list[vf.CheckReport]:
    """Execute every (check, body) pair; report order is scenario order."""
    reports = []
    for ci, spec in enumerate(scenario.checks):
        for bi, body in enumerate(scenario.bodies):
            rng = RngStream(scenario.seed).split_named(f"check-{ci}-body-{bi}")
            try:
                reports.append(run_check(body, spec, rng))
            except Exception as exc:  # isolate failing checks
                reports.append(vf.CheckReport(
                    check_id=spec.check, body=body.describe(), params=spec.params,
                    lower=None, middle=vf.Estimate.exact(math.nan), upper=None,
                    constants={}, margin_lower=math.nan, margin_upper=math.nan,
                    verdict="error", note=f"{type(exc).__name__}: {exc}",
                    seed=rng.seed))
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
