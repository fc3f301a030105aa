"""Benchmark command for quermass.

    python3 bench/run.py --workload cube-suite --seed 1 --seconds 30 --trace 0

Starts one worker process (``worker.py``), which sets the workload up from
a cold start and then repeats passes of its fixed work, each from emptied
caches, until the next pass would end after ``--seconds``.  Pass times are
scaled to the host-speed probe's reference speed (``hostspeed.py``).  The
last line of standard output is one JSON object:

* ``--trace 0``: ``setup_s`` (spawn to the first pass, once per run),
  ``wall_s`` and ``cpu_s`` (medians over the passes), all three at
  reference speed, and ``peak_rss_mb``;
* ``--trace 1``: after a first untraced pass, traced and untraced passes
  alternate; the per-layer metrics are medians over the traced passes and
  ``trace.overhead`` compares their median wall time with the warm
  untraced passes'.

``attempted`` and ``failed`` count operations over all passes; ``correct``
is false when any output disagreed with its reference.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("cube-suite", "corpus-sections", "estimators-hd")
RUN_LIMIT_S = 170.0
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QUERMASS_SEED", None)
    # one scenario worker: at two, cube-suite's GIL-bound constant loops
    # interleave and its passes do not hold steady (see README.md)
    env["QUERMASS_THREADS"] = "1"
    # matrices are at most 6x6: BLAS threads would only add jitter
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                               if p])
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One worker process: a cold set-up, then the run's passes."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out-dir", str(OUT)]
    probe_before = hostspeed.probe()[0]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker did not end within {exc.timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    # scaled like a segment, by the probes just before the spawn and just
    # after the set-up (the worker's first)
    probe_after = doc["passes"][0]["probe_s"][0]
    doc["setup_s"] = ((doc["t_start"] - t_spawn) * hostspeed.REFERENCE_S
                      / ((probe_before + probe_after) / 2))
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "quermass" / "__init__.py").is_file():
        print(f"no quermass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        doc = run_worker(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    passes = doc["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    wrong = sum(p["wrong"] for p in passes)
    result = {
        "correct": wrong == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["errors"] for p in passes) + wrong,
        "metrics": {},
    }
    if args.trace:
        # the first pass is a cold one; compare traced passes with warm ones
        warm = untraced[1:]
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead"] = (
            statistics.median(p["wall_ref_s"] for p in traced)
            / statistics.median(p["wall_ref_s"] for p in warm) - 1.0)
        import layer_trace

        result["metrics"] = {name: {"value": layers[name],
                                    "unit": layer_trace.metric_unit(name)}
                             for name in layer_trace.metric_names()}
    else:
        values = {"setup_s": doc["setup_s"], "peak_rss_mb": doc["peak_rss_mb"],
                  "wall_s": statistics.median(p["wall_ref_s"] for p in untraced),
                  "cpu_s": statistics.median(p["cpu_ref_s"] for p in untraced)}
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in E2E_UNITS.items()}
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes; at reference speed "
          + " ".join(f"{p['wall_ref_s']:.3f}" for p in passes),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
