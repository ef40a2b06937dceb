"""Designs stay the same to the last bit: a change that only makes the
solver faster must leave every design, and its trace, as it was.

Each case is one problem solved by `solve_plan` and by `crisp_baseline`
under both membership forms; the golden in
tests/data/design_fingerprint.json holds ``repr(design)`` and
``repr(design.trace)`` of each.  The problems are the README problem of
every family (`rgsp_min` and `rgsp_max` at `n_max` 200) and eight problems
shaped like the benchmark's, written out here.  A change that moves a
design on purpose re-records the golden with
``PYTHONPATH=src python tests/test_design_fingerprint.py`` and says why.
"""

import json
import sys
from pathlib import Path

import pytest

from asplan.fuzzyopt import MEMBERSHIP_FORMS, solve_plan
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.plans import Family, PlanProblem, crisp_baseline

GOLDEN = Path(__file__).resolve().parent / "data" / "design_fingerprint.json"


def _problem(family, lambda0, lambda1, a, alpha, beta, b1, b2, **extra) -> PlanProblem:
    return PlanProblem(
        family=Family(family),
        lambda0=FuzzyLife(lambda0, a),
        lambda1=FuzzyLife(lambda1, a),
        alpha=FuzzyLevel(alpha, b1),
        beta=FuzzyLevel(beta, b2),
        **extra,
    )


README = (300.0, 50.0, 1500.0, 0.05, 0.05, 0.05, 0.05)
TYPE1_README = (300.0, 200.0, 15000.0, 0.01, 0.01, 0.01, 0.01)
UPPER = dict(objective_variant="etc_upper_bound")

PROBLEMS = {
    "readme-ssp": _problem("ssp", *README),
    "readme-rgsp_min": _problem("rgsp_min", *README, n_max=200),
    "readme-rgsp_max": _problem("rgsp_max", *README, n_max=200),
    "readme-type1": _problem("type1", *TYPE1_README, tau=50.0, **UPPER),
    "bench-ssp-1": _problem("ssp", 301.2, 50.024, 6340.8, 0.050047, 0.049351, 0.050946, 0.050595),
    "bench-ssp-2": _problem("ssp", 298.53, 49.688, 2290.6, 0.050117, 0.04938, 0.049922, 0.049566),
    "bench-ssp-3": _problem("ssp", 302.12, 50.356, 2766.7, 0.04936, 0.049036, 0.050499, 0.050755),
    "bench-rgsp_min": _problem(
        "rgsp_min", 297.92, 50.475, 3466.4, 0.049689, 0.049498, 0.049287, 0.050842, n_max=2),
    "bench-rgsp_max-1": _problem(
        "rgsp_max", 297.87, 50.019, 11071.0, 0.050998, 0.050716, 0.050912, 0.049686, n_max=2),
    "bench-rgsp_max-2": _problem(
        "rgsp_max", 298.28, 49.975, 7874.9, 0.05064, 0.049134, 0.049041, 0.049996, n_max=2),
    # The cost floor c*tau ends the group-size loop before n_max.
    "bench-type1-floor": _problem(
        "type1", 301.13, 49.993, 15000.0, 0.050985, 0.049785, 0.050551, 0.050797,
        tau=100.62, n_max=8, **UPPER),
    # The loop runs to n_max without reaching the floor.
    "bench-type1-no-floor": _problem(
        "type1", 300.09, 101.08, 15000.0, 0.0503, 0.049251, 0.050034, 0.04977,
        tau=49.418, n_max=5, **UPPER),
}

SOLVERS = {"solve_plan": solve_plan, "crisp_baseline": crisp_baseline}
CASES = [f"{name}/{solver}/{form}" for name in PROBLEMS for solver in SOLVERS
         for form in MEMBERSHIP_FORMS]


def fingerprint(case: str) -> dict:
    name, solver, form = case.split("/")
    design = SOLVERS[solver](PROBLEMS[name], membership_form=form)
    return {"design": repr(design), "trace": repr(design.trace)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_design_is_bit_identical_to_its_golden(case, golden):
    assert fingerprint(case) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: fingerprint(case) for case in CASES}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    sys.exit(0)
