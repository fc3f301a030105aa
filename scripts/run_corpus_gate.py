#!/usr/bin/env python3
"""Run the section-average inequality suite over the deterministic corpus.

Every check family is applied to every corpus body for every admissible
(k, j) pair at the requested budgets; reports land in CSV and JSON files
plus a verdict summary on stdout.  Exit status is nonzero on any hard
failure (sampled-max checks may return `inconclusive`, which is not a
failure).
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quermass import scenario as sc
from quermass.core import RngStream
from quermass.corpus import corpus


def build_scenario(seed: int, flats: int, max_dim: int) -> dict:
    checks = []
    dims = sorted({b.dim for b in corpus("all") if b.dim <= max_dim})
    for n in dims:
        for k in range(1, n):
            for j in range(0, n - k):
                for check in ("lemma-rs", "thm-1-1", "cor-1-2", "thm-3-4",
                              "thm-1-2"):
                    checks.append({"check": check, "k": k, "j": j,
                                   "samples": flats, "sub_samples": 256,
                                   "dims": [n]})
    return {"seed": seed, "checks": checks}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--flats", type=int, default=1000)
    parser.add_argument("--max-dim", type=int, default=4)
    parser.add_argument("--out", default="out/corpus_gate")
    args = parser.parse_args()

    bodies = [b for b in corpus("all") if b.dim <= args.max_dim]
    reports = []
    for ci, spec in enumerate(build_scenario(args.seed, args.flats,
                                             args.max_dim)["checks"]):
        dims = spec.pop("dims")
        check = sc.CheckSpec(check=spec.pop("check"), params=spec)
        for bi, body in enumerate(bodies):
            if body.dim not in dims:
                continue
            if sc.validate_combination(body, check):
                continue  # flag hypothesis not met (e.g. symmetric-only)
            rng = RngStream(args.seed).split_named(f"gate-{ci}-{bi}")
            reports.append(sc.run_check(body, check, rng))

    print(sc.summary_table(reports))
    out = Path(args.out)
    sc.write_reports(reports, str(out.with_suffix(".csv")), "csv")
    sc.write_reports(reports, str(out.with_suffix(".json")), "json")
    print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")
    hard = [r for r in reports if r.verdict in ("fail", "error")]
    return 1 if hard else 0


if __name__ == "__main__":
    sys.exit(main())
