"""Command-line front end.

Subcommands: design, crisp-baseline, verify-tables, dispose, oracle.
Option precedence: command-line flags override config-file values override
defaults.  The config file is flat ``key = value`` text using the long
option names with dashes or underscores.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import partial

from . import disposition, oracle
from .errors import DomainError, InfeasibleError
from .fuzzyopt import MEMBERSHIP_FORMS, solve_plan
from .lifemodel import SD_FORMS, Thresholds
from .membership import FuzzyLevel, FuzzyLife
from .plans import OBJECTIVE_VARIANTS, Family, PlanProblem, crisp_baseline


def _read_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; with --config, parse again with the file's entries as
    ``--key=value`` tokens ahead of the given flags, so that the flags win
    and config values are checked exactly like flags."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    tokens = []
    for key, raw in _read_config(args.config).items():
        if key in ("command", "run") or not hasattr(args, key):
            raise DomainError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            tokens.append(f"{flag}={raw}")
        elif raw.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)  # a store_true switch takes no value
        elif raw.lower() not in ("0", "false", "no", "off"):
            tokens.append(f"{flag}={raw}")  # which argparse rejects, as on the command line
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


def _add_problem_flags(sub: argparse.ArgumentParser) -> None:
    # Required inputs are validated after the config file is merged in, so a
    # config can supply any of them; argparse must not reject their absence.
    sub.add_argument("--family", choices=[f.value for f in Family])
    sub.add_argument("--lambda0", type=float, help="acceptable mean life")
    sub.add_argument("--lambda1", type=float, help="rejectable mean life")
    sub.add_argument("--alpha", type=float, help="producer risk level")
    sub.add_argument("--beta", type=float, help="consumer risk level")
    sub.add_argument("--a", type=float, help="fuzziness scale (a > lambda0)")
    sub.add_argument("--b1", type=float, default=0.05, help="producer risk slack")
    sub.add_argument("--b2", type=float, default=0.05, help="consumer risk slack")
    sub.add_argument("--cost", type=float, default=1.0, help="cost rate per unit time")
    sub.add_argument("--tau", type=float, help="censoring time (censored family only)")
    sub.add_argument("--objective-variant", choices=OBJECTIVE_VARIANTS, default="etc_star")
    sub.add_argument(
        "--n-max",
        type=int,
        default=200,
        help="largest group size to search; the search stops sooner once no "
        "larger group size can cost less than the cheapest design meeting the risk levels; "
        "rgsp_min solves n_max alone where its optimum is off the edges of its "
        "threshold box, as no smaller size can then cost less",
    )
    sub.add_argument("--allow-t2-above-lambda0", action="store_true")
    sub.add_argument("--sd-form", choices=SD_FORMS, default="n")
    sub.add_argument(
        "--membership-form",
        choices=MEMBERSHIP_FORMS,
        default="cost_ascending",
        help="cost_ascending (default): the design is the tight crisp optimum, "
        "fully satisfied; standard: the crisp optimum at the risk levels cut at "
        "the largest satisfaction phi its cost allows, which trades risk slack "
        "for a lower cost",
    )
    sub.add_argument("--out", help="write the design JSON here as well as stdout")


def _build_problem(args: argparse.Namespace) -> PlanProblem:
    for key in ("family", "lambda0", "lambda1", "alpha", "beta", "a"):
        if getattr(args, key) is None:
            raise DomainError(f"--{key} is required (flag or config file)")
    return PlanProblem(
        family=Family(args.family),
        lambda0=FuzzyLife(lambda_j=args.lambda0, a=args.a),
        lambda1=FuzzyLife(lambda_j=args.lambda1, a=args.a),
        alpha=FuzzyLevel(args.alpha, args.b1),
        beta=FuzzyLevel(args.beta, args.b2),
        cost=args.cost,
        tau=args.tau,
        objective_variant=args.objective_variant,
        n_max=args.n_max,
        allow_t2_above_lambda0=args.allow_t2_above_lambda0,
        sd_form=args.sd_form,
    )


def _emit(payload, out_path) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))
    if out_path:
        oracle.write_reports_json(out_path, payload)


def _fmt(x):
    return float(f"{x:.6g}") if isinstance(x, float) else x


def _cmd_design(args: argparse.Namespace, crisp: bool = False) -> int:
    problem = _build_problem(args)
    solve = crisp_baseline if crisp else solve_plan
    try:
        design = solve(problem, membership_form=args.membership_form)
    except InfeasibleError as exc:
        # One line per size tried, with its best violation, where the error has them.
        lines = [f"{'sequential plan' if n is None else f'group size {n}'}: {why}"
                 for n, why in exc.per_n or ()]
        print("\n".join(lines or [f"infeasible: {exc}"]), file=sys.stderr)
        return 2
    payload = {
        "family": problem.family.value,
        "crisp": crisp,
        "inputs": {
            "lambda0": args.lambda0,
            "lambda1": args.lambda1,
            "alpha": args.alpha,
            "beta": args.beta,
            "a": args.a,
            "b1": args.b1,
            "b2": args.b2,
            "cost": args.cost,
            "tau": args.tau,
            "objective_variant": args.objective_variant,
            "membership_form": args.membership_form,
        },
        "t1": _fmt(design.t1),
        "t2": _fmt(design.t2),
        "n": design.n,
        "phi": _fmt(design.phi),
        "objective": _fmt(design.objective_value),
        "margins": {"g": _fmt(design.g_margin), "h": _fmt(design.h_margin)},
        "z_lower": _fmt(design.z_lower),
        "z_upper": _fmt(design.z_upper),
    }
    _emit(payload, args.out)
    return 0


def _cmd_verify_tables(args: argparse.Namespace) -> int:
    if args.rows is not None and args.rows < 0:
        raise DomainError(f"--rows must be >= 0, got {args.rows}")
    rows = oracle.load_golden_rows()
    if args.table is not None:
        tables = sorted({r.table for r in rows})
        if args.table not in tables:
            raise DomainError(f"no table {args.table}; the tables are {tables}")
        rows = [r for r in rows if r.table == args.table]
    if args.rows is not None:
        rows = rows[: args.rows]
    reports = oracle.verify_tables(rows, feasibility_tol=args.tolerance)
    if args.csv:
        oracle.write_reports_csv(args.csv, reports)
    if args.json:
        oracle.write_reports_json(args.json, reports)
    checked = [r for r in reports if r["feasible"] is not None]
    passed = sum(1 for r in checked if r["feasible"])
    for report in reports:
        if report["feasible"] is None:
            continue
        verdict = "pass" if report["feasible"] else "FAIL"
        print(
            f"table {report['table']} {report['family']}/{report['variant']} "
            f"g={report['g']:.6g} h={report['h']:.6g} "
            f"etc_rel_err={report['etc_rel_err']:+.4%} {verdict}"
        )
    if not checked:
        print("no design rows selected")
        return 0
    rate = passed / len(checked)
    print(f"feasibility: {passed}/{len(checked)} ({rate:.1%})")
    return 0 if rate >= 0.9 else 2


def _cmd_dispose(args: argparse.Namespace) -> int:
    try:
        if args.data == "case-study":
            data = disposition.case_study_data()
        else:
            data = disposition.load_failure_data(args.data)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read data: {exc}") from None
    t1, t2, n, tau = args.t1, args.t2, args.n, args.tau
    if args.design_json:
        with open(args.design_json, "r", encoding="utf-8") as handle:
            try:
                design = json.load(handle)
            except ValueError as exc:
                raise DomainError(f"{args.design_json} is not JSON: {exc}") from None
        if not isinstance(design, dict) or not isinstance(design.get("inputs", {}), dict):
            raise DomainError(f"{args.design_json} holds no design object")
        t1 = design.get("t1") if t1 is None else t1
        t2 = design.get("t2") if t2 is None else t2
        n = design.get("n") if n is None else n
        tau = design.get("inputs", {}).get("tau") if tau is None else tau
        # Checked, not converted, so integer-valued JSON prints unchanged; true is not 1.
        for key, value, kind in (("t1", t1, float), ("t2", t2, float), ("n", n, int),
                                 ("tau", tau, float)):
            if value is not None and type(value) not in (int, kind):
                noun = "an integer" if kind is int else "a number"
                got = json.dumps(value)
                raise DomainError(f"{args.design_json}: {key} must be {noun}, got {got}")
    n = 1 if n is None else n
    if t1 is None or t2 is None:
        raise DomainError("need --t1 and --t2 (or --design-json)")
    family = Family(args.family)
    if family is Family.SSP:
        result = disposition.dispose_ssp(data, t1, t2)
    elif family is Family.RGSP_MIN:
        result = disposition.dispose_rgsp_min(data, t1, t2, n)
    elif family is Family.RGSP_MAX:
        result = disposition.dispose_rgsp_max(data, t1, t2, n)
    else:
        result = disposition.dispose_type1(data, t1, t2, n, tau)
    payload = {
        "decision": result.decision.value,
        "decided_at": result.decided_at,
        # Strict JSON has no Infinity: a group with no failure before tau prints null.
        "evidence": [_fmt(v) if math.isfinite(v) else None for v in result.evidence],
        "family": family.value,
        "t1": t1,
        "t2": t2,
        # What the disposition read: ssp scans single values, and only type1 has a tau.
        "n": 1 if family is Family.SSP else n,
        "tau": tau if family is Family.TYPE_I else None,
    }
    _emit(payload, args.out)
    if result.decision is disposition.Decision.ACCEPT:
        return 0
    if result.decision is disposition.Decision.REJECT:
        return 3
    return 4


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.family:
        family = Family(args.family)
        th = Thresholds(args.t1, args.t2)
        if family is Family.TYPE_I:  # the censored MLE sees the plain mean life alone
            mc = oracle.mc_triprob(
                family, args.lambda0, th, n=args.n, tau=args.tau, draws=args.draws, seed=args.seed
            )
            _emit(asdict(mc), args.json)
            return 0
        life = FuzzyLife(lambda_j=args.lambda0, a=args.a)
        reports = oracle.compare_triprob(family, life, th, args.n, args.draws, args.seed)
    else:
        reports = oracle.run_regression_grid(draws=args.draws, seed=args.seed)
    _emit([asdict(r) for r in reports], args.json)
    return 0 if all(r.passed for r in reports) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asplan",
        description="Design and verify minimum-cost acceptance sampling plans "
        "for exponential lifetimes with fuzzy quality parameters.",
    )
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="flat key = value config file")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, parents=[config], help=summary)
        sub.set_defaults(run=run)
        return sub

    _add_problem_flags(command("design", _cmd_design, "solve a plan design problem"))
    _add_problem_flags(command("crisp-baseline", partial(_cmd_design, crisp=True),
                               "solve the crisp limit of a problem"))

    verify = command("verify-tables", _cmd_verify_tables, "recheck the embedded reference designs")
    verify.add_argument("--table", type=int, help="restrict to one table id")
    verify.add_argument("--rows", type=int, help="restrict to the first N rows")
    verify.add_argument("--tolerance", type=float, default=5e-3)
    verify.add_argument("--csv", help="write the report as CSV")
    verify.add_argument("--json", help="write the report as JSON")

    dispose = command("dispose", _cmd_dispose, "apply a design to observed data")
    # Required, but checked after the config merge so that a config can supply them.
    dispose.add_argument("--data", help="CSV/JSON data file, or 'case-study'")
    dispose.add_argument("--family", choices=[f.value for f in Family])
    dispose.add_argument("--t1", type=float)
    dispose.add_argument("--t2", type=float)
    dispose.add_argument("--n", type=int, help="group size (default: the design's, else 1)")
    dispose.add_argument("--tau", type=float)
    dispose.add_argument("--design-json", help="take thresholds from a design output file")
    dispose.add_argument("--out", help="write the decision JSON here as well as stdout")

    mc = command("oracle", _cmd_oracle, "run the Monte-Carlo cross-checks")
    mc.add_argument("--draws", type=int, default=10**6)
    mc.add_argument("--seed", type=int, default=42)
    mc.add_argument("--family", choices=[f.value for f in Family])
    mc.add_argument("--lambda0", type=float, default=300.0)
    mc.add_argument("--a", type=float, default=1500.0)
    mc.add_argument("--t1", type=float, default=5.8231)
    mc.add_argument("--t2", type=float, default=251.1178)
    mc.add_argument("--n", type=int, default=1)
    mc.add_argument("--tau", type=float)
    mc.add_argument("--json", help="write the report as JSON")
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Every bad input it meets, as a DomainError or an
    unreadable file, prints ``error: ...`` and returns 1."""
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        if args.command == "dispose":
            missing = [f"--{key}" for key in ("data", "family") if getattr(args, key) is None]
            if missing:
                parser.error("the following arguments are required: " + ", ".join(missing))
        return args.run(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
