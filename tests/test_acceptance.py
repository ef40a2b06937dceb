"""End-to-end acceptance gate.

Each test covers one advertised guarantee of the package and prints a
single ``[PASS]``/``[FAIL]`` line naming it.  The reference designs and
costs come from the embedded golden tables; tolerances are stated inline.
"""

import math
import time

import pytest

from asplan.cli import main as cli_main
from asplan.disposition import (
    Decision,
    case_study_data,
    censored_mle,
    dispose_rgsp_max,
    dispose_rgsp_min,
    dispose_ssp,
    dispose_type1,
)
from asplan.fuzzyopt import SolverSettings, solve_plan
from asplan.lifemodel import (
    Thresholds,
    expected_y,
    expected_y_upper_bound,
    harmonic_number,
    rgsp_max_triprob,
    rgsp_min_triprob,
    ssp_triprob,
    typeI_triprob,
    weighted_survival,
)
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.oracle import load_golden_rows, run_regression_grid, verify_tables
from asplan.plans import Family, PlanProblem, crisp_baseline, expected_stage_duration

from reference import defuzzify_center_of_gravity, life_membership, simpson

import numpy as np


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def _random_life(rng) -> FuzzyLife:
    lambda_j = rng.uniform(50.0, 2000.0)
    return FuzzyLife(lambda_j, lambda_j * rng.uniform(1.5, 100.0))


def _random_thresholds(rng, scale: float) -> Thresholds:
    t1 = rng.uniform(1e-3, 0.5) * scale
    return Thresholds(t1, t1 + rng.uniform(0.0, 1.0) * scale)


def _mixture(f: FuzzyLife, integrand) -> float:
    lo, hi = f.support
    return f.a * simpson(lambda r: integrand(r) * life_membership(f, r), lo, hi)


def test_probability_identity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        f = _random_life(rng)
        th = _random_thresholds(rng, f.lambda_j)
        n = int(rng.integers(1, 21))
        tau = rng.uniform(0.05, 3.0) * f.lambda_j
        for p in (
            ssp_triprob(f, th),
            rgsp_min_triprob(f, th, n),
            rgsp_max_triprob(f, th, n),
            typeI_triprob(f.lambda_j, th, n, tau),
        ):
            worst = max(worst, abs(p.p_a + p.p_r + p.p_c - 1.0))
    elapsed = time.perf_counter() - start
    _verdict(
        "probability identity p_a+p_r+p_c=1 (1000 draws x 4 families)",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_mixture_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(15):
        f = _random_life(rng)
        th = _random_thresholds(rng, f.lambda_j)
        n = int(rng.integers(2, 9))

        worst = max(
            worst,
            abs(weighted_survival(f, th.t2) - _mixture(f, lambda r: math.exp(-r * th.t2))),
        )
        ssp = ssp_triprob(f, th)
        worst = max(worst, abs(ssp.p_a - _mixture(f, lambda r: math.exp(-r * th.t2))))
        worst = max(worst, abs(ssp.p_r - _mixture(f, lambda r: -math.expm1(-r * th.t1))))
        gmin = rgsp_min_triprob(f, th, n)
        worst = max(worst, abs(gmin.p_a - _mixture(f, lambda r: math.exp(-r * n * th.t2))))
        # Group maxima draw each item independently from the weighted
        # distribution, so the group CDF is the weighted CDF to the n-th power.
        gmax = rgsp_max_triprob(f, th, n)
        cdf = lambda t: _mixture(f, lambda r: -math.expm1(-r * t))
        worst = max(worst, abs(gmax.p_a - (1.0 - cdf(th.t2) ** n)))
        worst = max(worst, abs(gmax.p_r - cdf(th.t1) ** n))

    reports = run_regression_grid(draws=10**6, seed=42)
    mc_ok = all(r.passed for r in reports)
    elapsed = time.perf_counter() - start
    _verdict(
        "closed forms vs quadrature mixture (1e-8) and Monte Carlo (3 SE, 20 cases)",
        worst <= 1e-8 and mc_ok and elapsed < 120.0,
        f"worst quadrature gap {worst:.2e}, MC {sum(r.passed for r in reports)}/"
        f"{len(reports)}, {elapsed:.1f}s",
    )


def test_expectation_formulas():
    rng = np.random.default_rng(11)
    worst_rel = 0.0
    bounds_ok = True
    for _ in range(100):
        f = _random_life(rng)
        n = int(rng.integers(1, 13))
        ey = expected_y(f)
        quad = _mixture(f, lambda r: 1.0 / r)
        worst_rel = max(worst_rel, abs(ey - quad) / quad)
        ymin = expected_stage_duration(Family.RGSP_MIN, f, n, False)
        ymax = expected_stage_duration(Family.RGSP_MAX, f, n, False)
        worst_rel = max(worst_rel, abs(ymin - quad / n) / (quad / n))
        target = harmonic_number(n) * quad
        worst_rel = max(worst_rel, abs(ymax - target) / target)
        bounds_ok &= expected_y_upper_bound(f) >= ey
        bounds_ok &= expected_stage_duration(Family.RGSP_MIN, f, n, True) >= ymin
        bounds_ok &= expected_stage_duration(Family.RGSP_MAX, f, n, True) >= ymax
    _verdict(
        "mean-duration formulas vs quadrature (1e-6 rel) with dominating bounds",
        worst_rel <= 1e-6 and bounds_ok,
        f"worst relative gap {worst_rel:.2e}, bounds dominate: {bounds_ok}",
    )


def _design_reports(tables):
    rows = [r for r in load_golden_rows() if r.table in tables]
    return verify_tables(rows)


def test_reference_designs_feasible():
    reports = _design_reports({1, 3, 5, 7})
    passed = [r for r in reports if r["feasible"]]
    failed = [r for r in reports if not r["feasible"]]
    rate = len(passed) / len(reports)
    detail = f"{len(passed)}/{len(reports)} ({rate:.1%})"
    if failed:
        detail += "; failing rows: " + ", ".join(
            f"table {r['table']} {r['family']}/{r['variant']} "
            f"a={r['a']} alpha={r['alpha']} beta={r['beta']} "
            f"(g={r['g']:.4f}, h={r['h']:.4f})"
            for r in failed
        )
    _verdict("published designs re-verified feasible (>=90% within 5e-3)", rate >= 0.9, detail)


@pytest.mark.parametrize(
    "table,tol",
    [(1, 0.02), (3, 0.05), (5, 0.02), (7, 0.02)],
)
def test_cost_reproduction(table, tol):
    start = time.perf_counter()
    reports = _design_reports({table})
    errs = [abs(r["etc_rel_err"]) for r in reports]
    worst = max(errs)
    elapsed = time.perf_counter() - start
    bad = [r for r in reports if abs(r["etc_rel_err"]) > tol]
    detail = f"worst |rel err| {worst:.4%} vs ±{tol:.0%}, {elapsed:.1f}s"
    if bad:
        detail += "; over tolerance: " + ", ".join(
            f"{r['family']}/{r['variant']} etc={r['etc_printed']} "
            f"({r['etc_rel_err']:+.2%})"
            for r in bad
        )
    _verdict(f"cost column reproduced at published designs (reference set {table})",
             worst <= tol, detail)


def test_solver_quality_sequential():
    start = time.perf_counter()
    p = PlanProblem(
        family=Family.SSP,
        lambda0=FuzzyLife(300.0, 15000.0),
        lambda1=FuzzyLife(50.0, 15000.0),
        alpha=FuzzyLevel(0.05, 0.05),
        beta=FuzzyLevel(0.05, 0.05),
    )
    design = solve_plan(p, SolverSettings(restarts=8))
    elapsed = time.perf_counter() - start
    ok = (
        design.g_margin >= -1e-6
        and design.h_margin >= -1e-6
        and design.objective_value <= 1.10 * 661.2965
        and elapsed < 60.0
    )
    _verdict(
        "solver matches reference sequential design within 10% of 661.2965",
        ok,
        f"etc={design.objective_value:.4f}, {elapsed:.1f}s",
    )


def test_solver_quality_censored():
    start = time.perf_counter()
    p = PlanProblem(
        family=Family.TYPE_I,
        lambda0=FuzzyLife(300.0, 15000.0),
        lambda1=FuzzyLife(200.0, 15000.0),
        alpha=FuzzyLevel(0.01, 0.01),
        beta=FuzzyLevel(0.01, 0.01),
        tau=50.0,
        objective_variant="etc_upper_bound",
        n_max=60,
    )
    design = solve_plan(p, SolverSettings(restarts=8))
    elapsed = time.perf_counter() - start
    rel_err = abs(design.objective_value - 49.9885) / 49.9885
    _verdict(
        "solver matches reference censored design within 0.5% of 49.9885",
        rel_err <= 0.005 and elapsed < 60.0,
        f"etc_ub={design.objective_value:.4f} (rel err {rel_err:.4%}), {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def family_costs():
    lambda0 = FuzzyLife(500.0, 15000.0)
    lambda1 = FuzzyLife(150.0, 15000.0)
    alpha = FuzzyLevel(0.05, 0.05)
    beta = FuzzyLevel(0.05, 0.05)
    settings = SolverSettings(restarts=6)
    costs = {}
    for family, extra in (
        (Family.SSP, {"allow_t2_above_lambda0": True}),
        (Family.RGSP_MIN, {"n_max": 30}),
        (Family.RGSP_MAX, {"n_max": 10, "allow_t2_above_lambda0": True}),
        (Family.TYPE_I, {"tau": 100.0, "n_max": 40}),
    ):
        p = PlanProblem(
            family=family, lambda0=lambda0, lambda1=lambda1, alpha=alpha, beta=beta,
            **extra,
        )
        costs[family] = solve_plan(p, settings).objective_value
    return costs


def test_censored_family_is_cheapest(family_costs):
    cheapest = min(family_costs, key=family_costs.get)
    detail = ", ".join(f"{f.value}={c:.2f}" for f, c in family_costs.items())
    _verdict(
        "censored family yields the lowest testing cost at (500, 150)",
        cheapest is Family.TYPE_I,
        detail,
    )


def test_family_cost_ordering(family_costs):
    c = family_costs
    ordered = (
        c[Family.TYPE_I] < c[Family.RGSP_MAX] < c[Family.SSP] < c[Family.RGSP_MIN]
    )
    detail = ", ".join(f"{f.value}={v:.2f}" for f, v in c.items())
    _verdict(
        "family costs ordered type1 < rgsp_max < ssp < rgsp_min at (500, 150)",
        ordered,
        detail,
    )


def test_case_study_all_accept():
    data = case_study_data()
    results = {
        "ssp": dispose_ssp(data, 41.0, 3159.0),
        "rgsp_min": dispose_rgsp_min(data, 4.0, 141.0, 20),
        "rgsp_max": dispose_rgsp_max(data, 203.0, 2630.0, 2),
        "type1": dispose_type1(data, 1219.0, 1990.0, 13, 2000.0),
    }
    all_accept = all(r.decision is Decision.ACCEPT for r in results.values())
    mle = censored_mle(data.values, 13, 2000.0)
    mle_ok = abs(mle - 3040.6667) <= 1e-4
    detail = (
        ", ".join(f"{k}: {r.decision.value}@{r.decided_at}" for k, r in results.items())
        + f"; censored MLE {mle:.4f}"
    )
    _verdict("case study: all four plan families accept the lot", all_accept and mle_ok, detail)


def test_case_study_sequential_decision_index():
    result = dispose_ssp(case_study_data(), 41.0, 3159.0)
    _verdict(
        "case study: sequential plan decides at the 8th observation",
        result.decided_at == 8,
        f"decided at observation {result.decided_at} "
        f"(first lifetime >= 3159 is {result.evidence[-1]})",
    )


def test_crisp_convergence():
    common = dict(
        lambda1=FuzzyLife(50.0, 3.0e8),
        alpha=FuzzyLevel(0.05, 0.05),
        beta=FuzzyLevel(0.05, 0.05),
    )
    settings = SolverSettings(restarts=6)
    fuzzy = solve_plan(
        PlanProblem(family=Family.SSP, lambda0=FuzzyLife(300.0, 3.0e8), **common),
        settings,
    )
    crisp = crisp_baseline(
        PlanProblem(family=Family.SSP, lambda0=FuzzyLife(300.0, 3.0e8), **common),
        settings,
    )
    gap = abs(fuzzy.objective_value - crisp.objective_value) / crisp.objective_value
    _verdict(
        "vanishing fuzziness converges to the crisp baseline (within 2%)",
        gap <= 0.02,
        f"fuzzy {fuzzy.objective_value:.4f} vs crisp {crisp.objective_value:.4f} "
        f"(gap {gap:.4%})",
    )


def test_defuzzification_returns_center():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        center = rng.uniform(0.1, 1000.0)
        a = 1.0 / (center * rng.uniform(0.01, 0.99))
        worst = max(worst, abs(defuzzify_center_of_gravity(center, a) - center))
    _verdict(
        "center-of-gravity de-fuzzification returns the center exactly",
        worst <= 1e-12,
        f"worst deviation {worst:.2e} over 100 cases",
    )


def test_deterministic_outputs(capsys):
    design_args = [
        "design", "--family", "ssp", "--lambda0", "300", "--lambda1", "50",
        "--alpha", "0.05", "--beta", "0.05", "--a", "1500",
    ]
    oracle_args = ["oracle", "--family", "ssp", "--draws", "20000", "--seed", "42"]
    outputs = []
    for args in (design_args, design_args, oracle_args, oracle_args):
        code = cli_main(args)
        assert code == 0
        outputs.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[1] and outputs[2] == outputs[3]
    with capsys.disabled():
        _verdict(
            "repeated runs with the same seed emit byte-identical JSON",
            ok,
            f"design bytes {len(outputs[0])}, oracle bytes {len(outputs[2])}",
        )
