"""The three workloads: one operation at a time, timed around the library
calls only, then checked against independent recomputations.  `WORKLOADS`
maps each workload name to its inputs, its operation and its run sizes.

Library entry points are looked up on their modules at call time
(`fuzzyopt.solve_plan`, `oracle.mc_triprob`, ...), so a traced run sees
every call through the tracer's rebound attributes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

import asplan
import inputs
from asplan import disposition, fuzzyopt, lifemodel, oracle, plans
from asplan.errors import InfeasibleError
from asplan.membership import FuzzyLevel, FuzzyLife

# Allowed excursion of a returned risk beyond its membership-scaled bound.
MARGIN_TOL = 1e-6
# Relative agreement between two code paths evaluating the same closed form.
CLOSED_FORM_RTOL = 1e-9
# Monte-Carlo checks pass within Z_MC standard errors plus COUNT_SLACK
# counts.  A verify run checks about 90 distinct simulated probabilities: at
# 3 standard errors about one run in five would fail by chance, at 5 about
# one in 20,000.
Z_MC = 5.0
COUNT_SLACK = 3
# `verify_tables` verdicts on the embedded rows at the default tolerance.
GOLDEN_FEASIBLE = (64, 68)


class Ledger:
    """Attempted and failed operations, with a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems)}")


def _timed(clock, fn, *args, **kwargs):
    start = clock()
    result = fn(*args, **kwargs)
    return result, clock() - start


def _unit_cost(family: str, lambda0: float, tau) -> float:
    """Cost scale that makes designs of different size comparable: the
    censoring time for `type1`, the acceptable mean life otherwise."""
    return tau if family == "type1" else lambda0


# -- design problems -------------------------------------------------------

def build_problem(spec: dict) -> plans.PlanProblem:
    return plans.PlanProblem(
        family=plans.Family(spec["family"]),
        lambda0=FuzzyLife(spec["lambda0"], spec["a"]),
        lambda1=FuzzyLife(spec["lambda1"], spec["a"]),
        alpha=FuzzyLevel(spec["alpha"], spec["b1"]),
        beta=FuzzyLevel(spec["beta"], spec["b2"]),
        tau=spec["tau"],
        objective_variant=spec["objective_variant"],
        n_max=spec["n_max"],
    )


def check_design(spec: dict, design, crisp: bool) -> list[str]:
    """Recheck a returned design through `oracle.verify_tables`, which
    recomputes risks and cost from the survival function without the
    solver's plan closures."""
    problems = []
    values = (design.t1, design.t2, design.phi, design.objective_value)
    if not all(math.isfinite(v) for v in values):
        return [f"non-finite design {values}"]
    if not design.t1 <= design.t2:
        problems.append(f"t1={design.t1} > t2={design.t2}")
    if not design.phi > 0.0:
        problems.append(f"phi={design.phi} not positive")
    if min(design.g_margin, design.h_margin) < -MARGIN_TOL:
        problems.append(f"reported margins {design.g_margin}, {design.h_margin}")
    n_max = spec["n_max"]
    if spec["family"] == "ssp":
        if design.n is not None:
            problems.append(f"ssp design has n={design.n}")
    elif not (design.n is not None and 1 <= design.n <= n_max):
        problems.append(f"group size {design.n} outside 1..{n_max}")
    b1, b2 = (0.0, 0.0) if crisp else (spec["b1"], spec["b2"])
    row = oracle.GoldenRow(
        table=0, family=spec["family"],
        variant="crisp" if crisp else spec["objective_variant"],
        lambda0=spec["lambda0"], lambda1=spec["lambda1"],
        alpha=spec["alpha"], beta=spec["beta"], a=spec["a"], b1=b1, b2=b2,
        tau=spec["tau"], t1=design.t1, t2=design.t2, n=design.n,
        etc=design.objective_value,
    )
    report = oracle.verify_tables([row], feasibility_tol=0.0)[0]
    g_margin = spec["alpha"] + b1 * (1.0 - design.phi) - report["g"]
    h_margin = spec["beta"] + b2 * (1.0 - design.phi) - report["h"]
    if min(g_margin, h_margin) < -MARGIN_TOL:
        problems.append(f"rechecked margins g={g_margin:.3e} h={h_margin:.3e}")
    if abs(report["etc_rel_err"]) > CLOSED_FORM_RTOL:
        problems.append(f"rechecked cost differs by {report['etc_rel_err']:.3e}")
    if spec["family"] == "type1":
        floor = spec["tau"]
        last_n = design.trace[-1][0]
        stopped = last_n < n_max and design.objective_value <= floor * (1.0 + 1e-9)
        if stopped != spec["expect_floor_stop"]:
            problems.append(f"cost-floor stop {stopped} after n={last_n}, expected "
                            f"{spec['expect_floor_stop']}")
    return problems


def _design_op(spec: dict, ledger: Ledger, index: int, clock, crisp_too: bool):
    """Solve one problem (and its crisp baseline); returns (seconds, costs,
    detail)."""
    problem = build_problem(spec)
    settings = fuzzyopt.SolverSettings(restarts=spec["restarts"], seed=spec["solver_seed"])
    runs = [("fuzzy", False)] + ([("crisp", True)] if crisp_too else [])
    seconds = 0.0
    costs = {}
    for label, crisp in runs:
        what = f"{spec['family']} #{index} {label}"
        start = clock()
        try:
            if crisp:
                design = plans.crisp_baseline(problem, settings)
            else:
                design = fuzzyopt.solve_plan(problem, settings)
        except InfeasibleError as exc:
            seconds += clock() - start
            ledger.record(what, [f"infeasible: {exc}"])
            continue
        seconds += clock() - start
        problems = check_design(spec, design, crisp)
        ledger.record(what, problems)
        if not problems:
            unit = _unit_cost(spec["family"], spec["lambda0"], spec["tau"])
            costs[(index, label)] = design.objective_value / unit
    return seconds, costs, {"family": spec["family"]}


# -- verify rounds -----------------------------------------------------------

@functools.cache
def reference_data():
    """The embedded reference-table rows and the case-study data."""
    return asplan.load_golden_rows(), asplan.case_study_data()


def _verify_rounds(seed: int) -> list[dict]:
    # Lifetimes as tuples, the form `FailureData` holds, converted here
    # rather than inside the timed dispositions.
    return [dict(r, datasets=[[tuple(v) for v in sets] for sets in r["datasets"]])
            for r in inputs.verify_rounds(seed)]


def _golden_row(row: dict) -> oracle.GoldenRow:
    return oracle.GoldenRow(table=0, etc=1.0, **row)


def _closure_values(row: dict) -> tuple[float, float, float]:
    """(cost, g, h) of a plan row through the solver's plan closures."""
    crisp = row["variant"] == "crisp"
    a = row["a"] if row["a"] is not None else 10.0 * row["lambda0"]
    spec = dict(row, a=a, objective_variant="etc_upper_bound" if crisp else row["variant"],
                n_max=row["n"] or 1)
    objective, g, h, _, _ = plans.plan_functions(build_problem(spec), row["n"], crisp=crisp)
    x = (row["t1"], row["t2"])
    return objective(x), g(x), h(x)


def _scan(values, t1, t2, n, statistic):
    """Reference disposition: the first block statistic outside [t1, t2)."""
    for group, start in enumerate(range(0, len(values) - n + 1, n), start=1):
        value = statistic(values[start:start + n])
        if value < t1:
            return "reject", group
        if value >= t2:
            return "accept", group
    return "continue_exhausted", None


def _dispose(row: dict, data):
    t1, t2, n = row["t1"], row["t2"], row["n"] or 1
    family = row["family"]
    if family == "ssp":
        return disposition.dispose_ssp(data, t1, t2)
    if family == "rgsp_min":
        return disposition.dispose_rgsp_min(data, t1, t2, n)
    if family == "rgsp_max":
        return disposition.dispose_rgsp_max(data, t1, t2, n)
    return disposition.dispose_type1(data, t1, t2, n, row["tau"])


def _statistic(row: dict):
    family = row["family"]
    if family == "type1":
        tau = row["tau"]

        def mle(block):
            return sum(min(v, tau) for v in block) / sum(1 for v in block if v < tau)
        return mle
    return {"ssp": min, "rgsp_min": min, "rgsp_max": max}[family]


def _mc_case(case: dict):
    life = case["lambda0"] if case["family"] == "type1" else FuzzyLife(case["lambda0"], case["a"])
    return oracle.mc_triprob(
        case["family"], life, lifemodel.Thresholds(case["t1"], case["t2"]),
        n=case["n"], tau=case["tau"], draws=case["draws"], seed=case["mc_seed"])


def _within(p_ref: float, p_est: float, draws: int, samples: int = 1) -> bool:
    """Binomial agreement at Z_MC standard errors (`samples` = 2 when both
    sides are simulated) plus COUNT_SLACK counts."""
    pooled = 0.5 * (p_ref + p_est)
    se = math.sqrt(samples * max(pooled * (1.0 - pooled), 0.0) / draws)
    return abs(p_ref - p_est) <= Z_MC * se + COUNT_SLACK / draws


def _censored_mle_sim(case: dict) -> tuple[float, float]:
    """(p_a, p_r) of the censored-MLE statistic by the benchmark's own
    simulation, from a stream independent of the library's."""
    rng = np.random.default_rng([case["mc_seed"], 1])
    x = rng.exponential(case["lambda0"], size=(case["draws"], case["n"]))
    q = np.sum(x < case["tau"], axis=1)
    total = np.sum(np.minimum(x, case["tau"]), axis=1)
    lam_hat = np.divide(total, q, out=np.full(q.shape, np.inf), where=q > 0)
    return float(np.mean(lam_hat >= case["t2"])), float(np.mean(lam_hat < case["t1"]))


def check_mc(case: dict, est) -> list[str]:
    family = case["family"]
    th = lifemodel.Thresholds(case["t1"], case["t2"])
    if family == "type1":
        p_a, p_r = _censored_mle_sim(case)
        pairs = (("p_a", p_a, est.p_a), ("p_r", p_r, est.p_r))
        samples = 2
    else:
        f = FuzzyLife(case["lambda0"], case["a"])
        if family == "ssp":
            closed = lifemodel.ssp_triprob(f, th)
        elif family == "rgsp_min":
            closed = lifemodel.rgsp_min_triprob(f, th, case["n"])
        else:
            closed = lifemodel.rgsp_max_triprob(f, th, case["n"])
        pairs = (("p_a", closed.p_a, est.p_a), ("p_r", closed.p_r, est.p_r),
                 ("p_c", closed.p_c, est.p_c))
        samples = 1
    return [f"{name} reference {ref:.6f} vs simulated {value:.6f}"
            for name, ref, value in pairs
            if not _within(ref, value, case["draws"], samples)]


def check_table(reports: list[dict], rows: list[dict], golden_count: int) -> list[str]:
    problems = []
    golden = [r for r in reports[:golden_count] if r["feasible"] is not None]
    feasible = (sum(1 for r in golden if r["feasible"]), len(golden))
    if feasible != GOLDEN_FEASIBLE:
        problems.append(f"embedded rows feasible {feasible[0]}/{feasible[1]}, "
                        f"expected {GOLDEN_FEASIBLE[0]}/{GOLDEN_FEASIBLE[1]}")
    for row, report in zip(rows, reports[golden_count:]):
        cost, g, h = _closure_values(row)
        for name, closure, table in (("cost", cost, report["etc_recomputed"]),
                                     ("g", g, report["g"]), ("h", h, report["h"])):
            if abs(closure - table) > CLOSED_FORM_RTOL * max(abs(closure), 1e-300):
                problems.append(f"{row['family']}/{row['variant']} {name}: plan closure "
                                f"{closure!r} vs verify_tables {table!r}")
    return problems


def verify_op(round_inputs: dict, ledger: Ledger, index: int, clock):
    """One verify round: Monte-Carlo cases, the table recheck and the
    dispositions, timed by part; then every result is checked."""
    golden_rows, case_study = reference_data()
    rows = round_inputs["plan_rows"]
    table_rows = golden_rows + [_golden_row(r) for r in rows]
    # No case-study lifetime fails before a censoring time, which leaves the
    # censored estimate undefined, so type1 rows see only synthetic data.
    data_sets = [list(datasets) + ([] if row["family"] == "type1" else [case_study.values])
                 for row, datasets in zip(rows, round_inputs["datasets"])]
    estimates, mc_s = _timed(clock, lambda: [_mc_case(c) for c in round_inputs["mc_cases"]])
    reports, table_s = _timed(clock, oracle.verify_tables, table_rows)
    decisions, dispose_s = _timed(clock, lambda: [
        [(values, _dispose(row, disposition.FailureData(values))) for values in sets]
        for row, sets in zip(rows, data_sets)])

    for case, est in zip(round_inputs["mc_cases"], estimates):
        ledger.record(f"round {index} mc {case['family']}", check_mc(case, est))
    ledger.record(f"round {index} verify_tables", check_table(reports, rows, len(golden_rows)))
    count = 0
    for row, results in zip(rows, decisions):
        statistic = _statistic(row)
        for values, result in results:
            count += 1
            expected = _scan(values, row["t1"], row["t2"], row["n"] or 1, statistic)
            got = (result.decision.value, result.decided_at)
            ledger.record(f"round {index} dispose {row['family']}",
                          [] if got == expected else [f"{got} != reference {expected}"])
    costs = {(index, i): report["etc_recomputed"] / _unit_cost(
                 row["family"], row["lambda0"], row["tau"])
             for i, (row, report) in enumerate(zip(rows, reports[len(golden_rows):]))}
    parts = {
        "mc_s": mc_s, "mc_draws": sum(c["draws"] for c in round_inputs["mc_cases"]),
        "verify_tables_s": table_s, "dispose_s": dispose_s, "dispositions": count,
    }
    return mc_s + table_s + dispose_s, costs, parts


# -- CLI -----------------------------------------------------------------------

def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("ASP_SEED", None)
    return env


def _expected_cli(args: list[str]) -> tuple[int, object]:
    """Exit code and parsed output the library gives for a CLI call."""
    golden_rows, case_study = reference_data()
    command = args[0]
    if command == "verify-tables":
        reports = oracle.verify_tables(golden_rows)
        checked = [r for r in reports if r["feasible"] is not None]
        passed = sum(1 for r in checked if r["feasible"])
        return (0 if passed / len(checked) >= 0.9 else 2), f"feasibility: {passed}/{len(checked)}"
    opts = dict(zip(args[1::2], args[2::2]))
    if command == "dispose":
        result = disposition.dispose_ssp(case_study, float(opts["--t1"]), float(opts["--t2"]))
        code = {"accept": 0, "reject": 3}.get(result.decision.value, 4)
        return code, (result.decision.value, result.decided_at)
    est = oracle.mc_triprob(
        opts["--family"], float(opts["--lambda0"]),
        lifemodel.Thresholds(float(opts["--t1"]), float(opts["--t2"])),
        n=int(opts["--n"]), tau=float(opts["--tau"]), draws=int(opts["--draws"]),
        seed=int(opts["--seed"]))
    return 0, est


def cli_call(root: str, args: list[str], ledger: Ledger) -> float:
    """Run `asplan <args>` in a fresh interpreter; check its output against
    the library; return its wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "asplan.cli", *args], cwd=root,
                          env=child_env(root), capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    code, expected = _expected_cli(args)
    problems = []
    if proc.returncode != code:
        problems.append(f"exit {proc.returncode}, expected {code}: {proc.stderr.strip()[-200:]}")
    elif args[0] == "verify-tables":
        last = proc.stdout.strip().splitlines()[-1]
        if not last.startswith(expected + " "):
            problems.append(f"summary {last!r}, expected {expected!r}")
    elif args[0] == "dispose":
        payload = json.loads(proc.stdout)
        if (payload["decision"], payload["decided_at"]) != expected:
            problems.append(f"decision {payload['decision']}@{payload['decided_at']} "
                            f"vs library {expected}")
    else:
        payload = json.loads(proc.stdout)
        if (payload["p_a"], payload["p_r"], payload["draws"]) != (
                expected.p_a, expected.p_r, expected.draws):
            problems.append(f"estimate {payload} vs library {expected}")
    ledger.record(f"cli {args[0]}", problems)
    return seconds


# -- the workload table ----------------------------------------------------------

class WorkloadKind(NamedTuple):
    inputs: Callable[[int], list]  # seed -> one input per operation key
    # (input, ledger, key, clock) -> (timed seconds, {key: normalized cost}, detail)
    op: Callable
    cli: Callable[[int], list]  # seed -> argument lists of the run's CLI calls
    # Runs of each input per measured block.  One design block fills the
    # window on its own (ssp: one problem three times; grouped: four problems
    # twice); verify rounds are short, so its blocks repeat for the window.
    repeats: int
    # Operations in the fixed prefix of a traced run; sized to stay well
    # inside the run time limit when traced and untraced passes run back to back.
    traced_ops: int


def _no_cli(seed: int) -> list:
    return []


WORKLOADS = {
    "ssp": WorkloadKind(inputs.ssp_problems, functools.partial(_design_op, crisp_too=True),
                        _no_cli, repeats=3, traced_ops=1),
    "grouped": WorkloadKind(inputs.grouped_problems, functools.partial(_design_op, crisp_too=False),
                            _no_cli, repeats=2, traced_ops=4),
    "verify": WorkloadKind(_verify_rounds, verify_op, inputs.cli_calls, repeats=1, traced_ops=24),
}
