"""Command-line front-end.

Subcommands:
  compute   one quermassintegral of one body by a chosen method
  verify    one check on one body, report written as JSON or CSV
  scenario  run a scenario file (or built-in name) and write report files
  constants print the closed-form and Monte Carlo constants for (n, k, j)
"""
from __future__ import annotations

import argparse
import json
import sys

from quermass import bodies as bd
from quermass import integrals as it
from quermass import scenario as sc
from quermass import verify as vf
from quermass.core import RngStream


def _load_bodies(spec: str, errors: list[str]) -> list[bd.ConvexBody]:
    """The bodies --body names, a body file or 'corpus:<name>', parsed as a
    scenario's body entry; problems go to errors."""
    if spec.startswith("corpus:"):
        return sc.parse_body(spec, "--body", errors)
    try:
        with open(spec) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        errors.append(f"--body: cannot read {spec}: {exc}")
        return []
    return sc.parse_body(doc, "--body", errors)


def _validation_failed(errors: list[str]) -> int:
    for err in errors:
        print(f"validation error: {err}", file=sys.stderr)
    return 2


def _run_and_report(scenario: sc.Scenario) -> int:
    """Run a scenario, print its summary, write its reports where it says;
    exit code 1 when any check fails or raises."""
    reports = sc.run_scenario(scenario)
    print(sc.summary_table(reports))
    if scenario.out_path:
        dest = sc.write_reports(reports, scenario.out_path, scenario.out_format)
        print(f"wrote {dest}")
    return 1 if any(r.verdict in ("fail", "error") for r in reports) else 0


def _cmd_compute(args: argparse.Namespace) -> int:
    errors: list[str] = []
    bodies = _load_bodies(args.body, errors)
    if errors:
        return _validation_failed(errors)
    rng = RngStream(args.seed)
    for i, body in enumerate(bodies):
        stream = rng.split_named(f"compute-{i}")
        if args.method == "exact":
            value = it.quermass_exact(body, args.j)
            if value is None:
                print(f"{body.describe()}: W_{args.j} has no closed form here")
                continue
            est = it.Estimate.exact(value)
        elif args.method == "steiner":
            est = it.quermass_steiner_fit(body, args.j, None, args.samples, stream)
        elif args.method == "kubota":
            est = it.quermass_kubota(body, args.j, args.samples, stream)
        else:  # auto
            est = it.quermass_estimate(body, args.j, args.samples, stream)
        print(f"{body.describe()}: W_{args.j} = {est.value:.10g}"
              f" +- {est.std_error:.3g}  [{est.method}]")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    errors: list[str] = []
    bodies = _load_bodies(args.body, errors)
    params = {key: getattr(args, key) for key in ("n", "k", "j", "N", "samples")
              if getattr(args, key) is not None}
    spec = sc.CheckSpec(check=args.check, params=params)
    errors += sc.param_problems(spec) + sc.combination_problems([spec], bodies)
    if errors:
        return _validation_failed(errors)
    return _run_and_report(sc.Scenario(seed=args.seed, bodies=bodies, checks=[spec],
                                       out_path=args.out, out_format=args.format))


def _cmd_scenario(args: argparse.Namespace) -> int:
    try:
        scenario = sc.load_scenario(args.file)
    except sc.ScenarioError as exc:
        return _validation_failed(exc.errors)
    scenario.out_path = args.out or scenario.out_path
    scenario.out_format = args.format or scenario.out_format
    return _run_and_report(scenario)


def _cmd_constants(args: argparse.Namespace) -> int:
    n, k, j = args.n, args.k, args.j
    if not (1 <= k <= n - 1 and 0 <= j <= n - k - 1):
        print("need 1 <= k <= n-1 and 0 <= j <= n-k-1", file=sys.stderr)
        return 2
    rng = RngStream(args.seed)
    rows = [
        ("alpha", vf.alpha_const(n, k, j), None, "closed form"),
        ("gamma", vf.gamma_cor12_const(n, k, j), None, "closed form"),
        ("beta", vf.beta_thm34_const(n, k, j), None, "closed form"),
        ("gamma34", vf.gamma_thm34_const(n, k, j), None, "closed form"),
        ("delta", vf.delta_const(n, k, j), None, "closed form"),
        ("shrink", vf.shrink_factor(n, k, j), None, "closed form"),
    ]
    c = vf.c_const(n, k, j, args.samples, rng)
    cp = vf.cprime_const(n, k, j, args.samples, rng)
    rows.append(("c", c.value, c.std_error, f"monte carlo ({c.samples} samples)"))
    rows.append(("c_prime", cp.value, cp.std_error,
                 f"monte carlo ({c.samples} samples)"))
    if args.N is not None:
        c46 = vf.c46_const(n, args.N, j, args.samples, rng)
        rows.append((f"c(N={args.N})", c46.value, c46.std_error,
                     f"monte carlo ({c46.samples} samples)"))
    print(f"constants for n={n}, k={k}, j={j}:")
    for name, value, sigma, provenance in rows:
        err = f" +- {sigma:.3g}" if sigma else ""
        print(f"  {name:10s} {value:.10g}{err}   [{provenance}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quermass",
        description="Quermassintegral estimators and inequality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_c = sub.add_parser("compute", help="compute one quermassintegral")
    p_c.add_argument("--body", required=True, help="body JSON file or corpus:<name>")
    p_c.add_argument("--j", type=int, required=True)
    p_c.add_argument("--method", choices=("kubota", "steiner", "exact", "auto"),
                     default="auto")
    p_c.add_argument("--samples", type=int, default=10_000)
    p_c.add_argument("--seed", type=int)
    p_c.set_defaults(fn=_cmd_compute)

    p_v = sub.add_parser("verify", help="run one check")
    p_v.add_argument("--check", required=True, choices=sorted(sc.REGISTRY))
    p_v.add_argument("--body", required=True)
    p_v.add_argument("--n", type=int)
    p_v.add_argument("--k", type=int)
    p_v.add_argument("--j", type=int)
    p_v.add_argument("--N", type=int)
    p_v.add_argument("--samples", type=int)
    p_v.add_argument("--seed", type=int)
    p_v.add_argument("--out")
    p_v.add_argument("--format", choices=("json", "csv"), default="json")
    p_v.set_defaults(fn=_cmd_verify)

    p_s = sub.add_parser("scenario", help="run a scenario file")
    p_s.add_argument("file", help="scenario JSON path or built-in name")
    p_s.add_argument("--out")
    p_s.add_argument("--format", choices=("json", "csv"))
    p_s.set_defaults(fn=_cmd_scenario)

    p_k = sub.add_parser("constants", help="print check constants")
    p_k.add_argument("--n", type=int, required=True)
    p_k.add_argument("--k", type=int, required=True)
    p_k.add_argument("--j", type=int, required=True)
    p_k.add_argument("--N", type=int)
    p_k.add_argument("--samples", type=int, default=100_000)
    p_k.add_argument("--seed", type=int)
    p_k.set_defaults(fn=_cmd_constants)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "seed" in vars(args) and args.seed is None:
        try:
            args.seed = sc.env_seed()
        except sc.ScenarioError as exc:
            return _validation_failed(exc.errors)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
