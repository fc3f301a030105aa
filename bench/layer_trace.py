"""Spans around the calls into each quermass layer, recorded from outside.

The tracer wraps the public functions of the seven timed modules by
replacing module attributes (and the aliases other quermass modules hold
after ``from ... import``), wraps ``RngStream.generator`` and the check
runners held in ``scenario.REGISTRY``, and wraps ``scipy.optimize.linprog``
as the bodies module sees it.  No file of the program changes.

Each call becomes one span: name, start, end and the span that was open in
the same thread when it began.  Spans live in compact per-thread arrays
until the pass ends; ``Tracer.metrics`` turns them into per-layer metrics
and ``Tracer.write`` saves the raw spans.  A span's self time is its duration minus
the durations of its direct children, so module self times never overlap.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import threading
import time
from array import array

import numpy as np

LAYERS = ("scenario", "verify", "integrals", "bodies", "polytope", "grassmann",
          "core")

# Check ids whose per-check time is reported (the union over all workloads).
CHECK_IDS = ("crofton", "lemma-rs", "thm-1-1", "cor-1-2", "thm-1-2", "thm-3-4",
             "spingarn", "rs-lower", "fradelizi", "stephen-yaskin", "dpp-spot",
             "thm-4-3", "bp-identity", "thm-4-5", "thm-1-3", "thm-4-6",
             "aleksandrov", "bm-quermass")

# span name -> metric holding the summed duration of those spans
_INCLUSIVE = {
    "scenario.load_scenario": "scenario.load_s",
    "scenario.run_scenario": "scenario.run_s",
    "scenario.write_reports": "scenario.write_s",
    "verify.reference_quermass": "verify.reference_s",
    "verify.dpp_constant": "verify.dpp_constant_s",
    "verify.bp_calibrate": "verify.bp_calibrate_s",
    "integrals.quermass_kubota": "integrals.kubota_s",
    "integrals.projected_volumes": "integrals.projected_volumes_s",
    "integrals.mean_width": "integrals.mean_width_s",
    "integrals.quermass_steiner_fit": "integrals.steiner_s",
    "integrals.quermass_exact": "integrals.exact_s",
    "bodies.affine_section": "bodies.section_s",
    "bodies.project": "bodies.project_s",
    "bodies.volume": "bodies.volume_s",
    "bodies.vpolytope": "bodies.vpolytope_s",
    "bodies.sample_uniform_with": "bodies.sample_s",
    "bodies.in_dilation": "bodies.in_dilation_s",
    "bodies.linprog": "bodies.lp_s",
    "polytope.convex_hull": "polytope.hull_s",
    "polytope.hull2d_indices": "polytope.hull2d_s",
    "polytope.vertex_enumeration": "polytope.vertex_enum_s",
    "polytope.halfspace_intersection_vertices": "polytope.halfspace_s",
}
# span name -> metric holding the number of those spans
_CALLS = {
    "verify.reference_quermass": "verify.reference_calls",
    "integrals.quermass_subdim": "integrals.subdim_calls",
    "bodies.affine_section": "bodies.sections",
    "bodies.vpolytope": "bodies.vpolytope_calls",
    "bodies.sample_uniform_with": "bodies.sample_calls",
    "bodies.linprog": "bodies.lp_calls",
    "polytope.hull2d_indices": "polytope.hull2d_calls",
    "polytope.vertex_enumeration": "polytope.vertex_enum_calls",
    "polytope.halfspace_intersection_vertices": "polytope.halfspace_calls",
    "grassmann.haar_bases": "grassmann.haar_bases_calls",
    "grassmann.haar_subspace": "grassmann.haar_subspace_calls",
    "core.RngStream.generator": "core.generators",
}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run prints, in a fixed order."""
    names = ["scenario.load_s", "scenario.run_s", "scenario.write_s",
             "scenario.report_bytes", "scenario.reports",
             "scenario.longest_check_s"]
    names += [f"verify.{cid}_s" for cid in CHECK_IDS]
    names += ["verify.reference_calls", "verify.reference_keys",
              "verify.reference_s", "verify.dpp_constant_s",
              "verify.bp_calibrate_s"]
    names += ["integrals.route_exact", "integrals.route_kubota",
              "integrals.route_meanwidth", "integrals.kubota_s",
              "integrals.kubota_samples", "integrals.projected_volumes_s",
              "integrals.shadows", "integrals.mean_width_s", "integrals.steiner_s",
              "integrals.exact_s", "integrals.subdim_calls",
              "integrals.subdim_degenerate"]
    names += ["bodies.sections", "bodies.sections_nonempty_ratio",
              "bodies.section_s", "bodies.project_s", "bodies.volume_s",
              "bodies.vpolytope_calls", "bodies.vpolytope_s",
              "bodies.sample_calls", "bodies.sample_points", "bodies.sample_s",
              "bodies.in_dilation_points", "bodies.in_dilation_s",
              "bodies.lp_calls", "bodies.lp_s"]
    names += [f"polytope.hulls_d{d}" for d in range(2, 7)]
    names += ["polytope.hull_s", "polytope.hull2d_calls", "polytope.hull2d_s",
              "polytope.vertex_enum_calls", "polytope.vertex_enum_s",
              "polytope.halfspace_calls", "polytope.halfspace_s"]
    names += ["grassmann.haar_bases_calls", "grassmann.bases",
              "grassmann.haar_subspace_calls", "grassmann.sphere_directions",
              "grassmann.s", "core.generators"]
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.share"]
    names.append("trace.overhead")
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s") or name == "grassmann.s":
        return "s"
    if name.endswith(".share") or name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _arg(fn, name: str):
    """Extractor for one named argument of fn, by position or keyword."""
    params = list(inspect.signature(fn).parameters)
    pos = params.index(name)

    def get(args, kwargs):
        return args[pos] if pos < len(args) else kwargs.get(name)
    return get


class _ThreadRecord:
    __slots__ = ("name", "start", "end", "sid", "parent", "current", "counts",
                 "ref_keys")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sid = array("q")
        self.parent = array("q")
        self.current = -1
        self.counts: dict[str, float] = {}
        self.ref_keys: set = set()


class Tracer:
    """``install()`` wraps the program, ``uninstall()`` restores it and
    ``metrics()`` summarises what was recorded in between."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._records_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._main: _ThreadRecord | None = None

    # -- recording -----------------------------------------------------------

    def _record(self) -> _ThreadRecord:
        try:
            return self._local.rec
        except AttributeError:
            rec = _ThreadRecord()
            with self._records_lock:
                self._records.append(rec)
            self._local.rec = rec
            return rec

    def _wrap(self, name: str, fn, hook=None):
        name_id = len(self._names)
        self._names.append(name)
        ids = self._ids
        record = self._record
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = record()
            sid = next(ids)
            prev = parent = rec.current
            if parent < 0 and rec is not tracer._main:
                # a worker thread's outermost call belongs to the span the
                # installing thread has open (scenario.run_scenario's pool)
                parent = tracer._main.current
            rec.current = sid
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                rec.current = prev
                rec.name.append(name_id)
                rec.start.append(t0)
                rec.end.append(t1)
                rec.sid.append(sid)
                rec.parent.append(parent)
            if hook is not None:
                hook(rec, args, kwargs, out)
            return out
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- counters fed from arguments and results -----------------------------

    @staticmethod
    def _add(rec: _ThreadRecord, key: str, amount: float = 1) -> None:
        rec.counts[key] = rec.counts.get(key, 0) + amount

    def _hooks(self, mods: dict) -> dict:
        add = self._add
        bd, it, pt, gr, vf = (mods["bodies"], mods["integrals"], mods["polytope"],
                              mods["grassmann"], mods["verify"])
        fingerprint = bd.fingerprint
        hooks = {}

        def route(rec, args, kwargs, out):
            method = out.method
            if method == "exact":
                add(rec, "integrals.route_exact")
            elif method == "kubota-mc":
                add(rec, "integrals.route_kubota")
            elif method == "meanwidth":
                add(rec, "integrals.route_meanwidth")
        hooks["integrals.quermass_estimate"] = route

        samples = _arg(it.quermass_kubota, "samples")
        hooks["integrals.quermass_kubota"] = lambda rec, a, k, out: add(
            rec, "integrals.kubota_samples", samples(a, k))
        pv_bases = _arg(it.projected_volumes, "bases")
        hooks["integrals.projected_volumes"] = lambda rec, a, k, out: add(
            rec, "integrals.shadows", pv_bases(a, k).shape[0])
        hooks["integrals.quermass_subdim"] = lambda rec, a, k, out: (
            add(rec, "integrals.subdim_degenerate") if out is None else None)

        hooks["bodies.affine_section"] = lambda rec, a, k, out: (
            add(rec, "bodies.sections_nonempty") if out is not None else None)
        count = _arg(bd.sample_uniform_with, "count")
        hooks["bodies.sample_uniform_with"] = lambda rec, a, k, out: add(
            rec, "bodies.sample_points", count(a, k))
        dil_points = _arg(bd.in_dilation, "points")
        hooks["bodies.in_dilation"] = lambda rec, a, k, out: add(
            rec, "bodies.in_dilation_points", len(dil_points(a, k)))

        hull_points = _arg(pt.convex_hull, "points")
        hull_dim = _arg(pt.convex_hull, "dim")

        def hull(rec, args, kwargs, out):
            d = hull_dim(args, kwargs)
            d = np.shape(hull_points(args, kwargs))[1] if d is None else int(d)
            add(rec, f"polytope.hulls_d{d}")
        hooks["polytope.convex_hull"] = hull

        hb_count = _arg(gr.haar_bases, "count")
        hooks["grassmann.haar_bases"] = lambda rec, a, k, out: add(
            rec, "grassmann.bases", hb_count(a, k))
        sd_count = _arg(gr.sphere_directions, "count")
        hooks["grassmann.sphere_directions"] = lambda rec, a, k, out: add(
            rec, "grassmann.sphere_directions", sd_count(a, k))

        ref_args = [_arg(vf.reference_quermass, p)
                    for p in ("body", "j", "rng", "samples")]
        ref_default = inspect.signature(vf.reference_quermass).parameters[
            "samples"].default

        def ref(rec, args, kwargs, out):
            body, j, rng, n_samples = (get(args, kwargs) for get in ref_args)
            rec.ref_keys.add((fingerprint(body), j,
                              ref_default if n_samples is None else n_samples,
                              rng.seed))
        hooks["verify.reference_quermass"] = ref

        def written(rec, args, kwargs, out):
            add(rec, "scenario.report_bytes", out.stat().st_size)
        hooks["scenario.write_reports"] = written
        return hooks

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = {name: importlib.import_module(f"quermass.{name}")
                for name in LAYERS}
        hooks = self._hooks(mods)
        self._main = self._record()
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj, hooks.get(name))
                wrapped[id(obj)] = wrapper
                self._set(mod, attr, wrapper)
        # aliases made by ``from quermass.x import f`` in other modules
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and getattr(mod, attr) is obj:
                    self._set(mod, attr, wrapped[id(obj)])
        core = mods["core"]
        self._set(core.RngStream, "generator",
                  self._wrap("core.RngStream.generator", core.RngStream.generator))
        bodies = mods["bodies"]
        self._set(bodies, "linprog", self._wrap("bodies.linprog", bodies.linprog))
        # check runners: REGISTRY holds the functions themselves
        sc = mods["scenario"]
        for cid, cdef in list(sc.REGISTRY.items()):
            runner = self._wrap(f"verify.{cdef.runner.__name__}", cdef.runner)
            self._restore.append((sc.REGISTRY, cid, cdef))
            sc.REGISTRY[cid] = dataclasses.replace(cdef, runner=runner)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans sorted by id: name index, start, end, parent id."""
        recs = self._records
        sid = np.concatenate([np.frombuffer(r.sid, dtype=np.int64) for r in recs])
        order = np.argsort(sid, kind="stable")
        cat = lambda field, dt: np.concatenate(  # noqa: E731
            [np.frombuffer(getattr(r, field), dtype=dt) for r in recs])[order]
        return {"name": cat("name", np.int32), "start": cat("start", np.float64),
                "end": cat("end", np.float64), "parent": cat("parent", np.int64),
                "sid": sid[order], "names": np.array(self._names)}

    def metrics(self, reports) -> dict[str, float]:
        """Per-layer metrics of everything recorded since ``install``.

        A layer's share is its self time over the summed self time of all
        layers.  Worker threads run concurrently, so on a pool workload the
        self times add up to more than the wall time and a waiting span's
        self time is clamped at zero."""
        sp = self.spans()
        if len(sp["sid"]) and not np.array_equal(sp["sid"], np.arange(len(sp["sid"]))):
            raise RuntimeError("span ids are not contiguous")
        names = list(self._names)
        dur = sp["end"] - sp["start"]
        parent = sp["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = np.maximum(dur - child, 0.0)
        layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in names])
        span_layer = layer_of_name[sp["name"]] if len(dur) else np.array([], int)
        per_name_time = np.bincount(sp["name"], weights=dur, minlength=len(names))
        per_name_calls = np.bincount(sp["name"], minlength=len(names))

        out = {name: 0 if metric_unit(name) in ("count", "bytes") else 0.0
               for name in metric_names()}
        time_by = dict(zip(names, per_name_time))
        calls_by = dict(zip(names, per_name_calls))
        for span_name, metric in _INCLUSIVE.items():
            out[metric] = float(time_by.get(span_name, 0.0))
        for span_name, metric in _CALLS.items():
            out[metric] = int(calls_by.get(span_name, 0))
        counts: dict[str, float] = {}
        ref_keys: set = set()
        for rec in self._records:
            ref_keys |= rec.ref_keys
            for key, val in rec.counts.items():
                counts[key] = counts.get(key, 0) + val
        for key, val in counts.items():
            if key in out:
                out[key] = int(val)
        out["verify.reference_keys"] = len(ref_keys)
        sections = out["bodies.sections"]
        out["bodies.sections_nonempty_ratio"] = (
            counts.get("bodies.sections_nonempty", 0) / sections if sections else 0.0)

        grass = LAYERS.index("grassmann")
        if len(dur):
            parent_layer = np.full(len(dur), -1)
            parent_layer[has_parent] = span_layer[parent[has_parent]]
            outer = (span_layer == grass) & (parent_layer != grass)
            out["grassmann.s"] = float(dur[outer].sum())
            layer_self = np.bincount(span_layer, weights=self_time,
                                     minlength=len(LAYERS))
        else:
            layer_self = np.zeros(len(LAYERS))
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = float(layer_self[i])
            out[f"{layer}.share"] = float(layer_self[i] / max(layer_self.sum(),
                                                               1e-300))

        out["scenario.reports"] = len(reports)
        out["scenario.longest_check_s"] = max((r.wall_time for r in reports),
                                              default=0.0)
        for rep in reports:
            key = f"verify.{rep.check_id}_s"
            if key in out:
                out[key] += rep.wall_time
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, **self.spans())
