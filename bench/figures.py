"""Regenerate the reference figures of README.md.

    python3 bench/figures.py                      # 10 seeds, every workload
    python3 bench/figures.py --workloads cube-suite --seeds 5
    python3 bench/figures.py --traced             # two traced runs each

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
per workload and end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread
as a share of the median.  ``--traced`` instead makes two traced runs per
workload at one seed and reports whether their counts repeat.  Raw run
results are appended to bench/out/figures.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = ([*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(BENCH / "out" / "figures.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                             "result": doc}) + "\n")
    return doc


def spread_table(workloads: list[str], seeds: list[int]) -> None:
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median | bound "
          "| failed/attempted |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        docs = []
        for seed in seeds:
            docs.append(run(workload, seed, 0))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in docs[-1]["metrics"].items()),
                file=sys.stderr)
        failed = sum(d["failed"] for d in docs)
        attempted = sum(d["attempted"] for d in docs)
        for metric in SPEC["end_to_end"]:
            values = [d["metrics"][metric["name"]]["value"] for d in docs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"| {workload} | {metric['name']} ({metric['unit']}) | {med:.4g} "
                  f"| {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} "
                  f"| {metric['bound']} | {failed}/{attempted} |")


def traced_table(workloads: list[str], seed: int) -> None:
    for workload in workloads:
        first, second = run(workload, seed, 1), run(workload, seed, 1)
        names = [m["name"] for m in SPEC["per_layer"]]
        counts = [n for n in names if first["metrics"][n]["unit"] == "count"]
        differ = [n for n in counts
                  if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        overhead = [d["metrics"]["trace.overhead"]["value"] for d in (first, second)]
        print(f"{workload}: {len(counts)} counts, "
              f"{'all repeat' if not differ else 'differ: ' + ', '.join(differ)}; "
              f"trace.overhead {overhead[0]:.3f} and {overhead[1]:.3f}")
        for name in names:
            vals = [d["metrics"][name]["value"] for d in (first, second)]
            if any(vals):
                print(f"  {name}: {vals[0]:.6g} / {vals[1]:.6g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    (BENCH / "out").mkdir(exist_ok=True)
    if args.traced:
        traced_table(args.workloads, args.first_seed)
    else:
        spread_table(args.workloads,
                     list(range(args.first_seed, args.first_seed + args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
