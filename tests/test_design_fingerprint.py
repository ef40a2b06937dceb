"""Designs stay the same to the last bit: a change that only makes the
solver faster must leave every design, and its trace, as it was.

Each case is one problem solved by `solve_plan` and by `crisp_baseline`
under both membership forms; the golden in
tests/data/design_fingerprint.json holds ``repr(design)``,
``repr(design.trace)``, the number of `solve_monotone` calls of each, the
number of probes its roots made in `_brentq` and the number of closed-form
root guesses that missed their bound and fell back to Brent's method
(`fuzzyopt._guessed`), so that a change that adds crisp solves or root
probes, or degrades a tail quantile, shows here too, where wall time would
not.  The problems are the README problem of
every family (`rgsp_min` and `rgsp_max` at `n_max` 200) and eight problems
shaped like the benchmark's, written out here.  A change that moves a
design on purpose re-records the golden with
``PYTHONPATH=src python tests/test_design_fingerprint.py`` and says why;
that run prints to stderr how far each moved design drifted from the old
golden, and last the largest move over all cases and how many costs rose.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from asplan import fuzzyopt
from asplan.fuzzyopt import MEMBERSHIP_FORMS, PlanDesign, solve_plan
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
    solves = [0]
    probes = [0]
    fallbacks = [0]
    monotone, brentq, guessed = fuzzyopt.solve_monotone, fuzzyopt._brentq, fuzzyopt._guessed

    def counted(*args):
        solves[0] += 1
        return monotone(*args)

    def counted_brentq(f, *args):
        def probe(x):
            probes[0] += 1
            return f(x)

        return brentq(probe, *args)

    def counted_guessed(f, guess, met, unmet, last_met=fuzzyopt._last_met):
        def fallback(*args):
            fallbacks[0] += guess is not None
            return last_met(*args)

        return guessed(f, guess, met, unmet, fallback)

    with mock.patch.object(fuzzyopt, "solve_monotone", counted), \
            mock.patch.object(fuzzyopt, "_brentq", counted_brentq), \
            mock.patch.object(fuzzyopt, "_guessed", counted_guessed):
        design = SOLVERS[solver](PROBLEMS[name], membership_form=form)
    return {"design": repr(design), "trace": repr(design.trace), "solves": solves[0],
            "probes": probes[0], "fallbacks": fallbacks[0]}


COUNTS = ("solves", "probes", "fallbacks")


def _fields(design: str) -> dict:
    """The scalar fields of a `PlanDesign` repr, as written."""
    return dict(re.findall(r"(\w+)=([^,()]+)", design.split(", trace=")[0]))


def drift(old: dict, new: dict) -> list[str]:
    """One line per case whose golden moved: the relative change of t1, t2
    and the cost, the new margins, and any change of n, case or counts.
    Then the totals of the counts, and a summary: the largest relative move
    of t1, t2 and the cost over all cases, and how many costs rose."""
    lines = []
    largest, rose = {"t1": 0.0, "t2": 0.0, "cost": 0.0}, 0
    for case in sorted(new):
        before, after = old.get(case), new[case]
        if before == after:
            continue
        if before is None:
            lines.append(f"{case}: new case")
            continue
        parts = []
        if before["design"] != after["design"]:
            was, now = _fields(before["design"]), _fields(after["design"])
            moves = {key: float(now[field]) / float(was[field]) - 1.0
                     for key, field in (("t1", "t1"), ("t2", "t2"), ("cost", "objective_value"))}
            parts += [f"{key} {move:+.2e}" for key, move in moves.items()]
            largest = {key: max(largest[key], abs(moves[key])) for key in largest}
            rose += moves["cost"] > 0.0
            parts += [f"{field} {now[field]}" for field in ("g_margin", "h_margin")]
            parts += [f"n {was['n']} -> {now['n']}"] if was["n"] != now["n"] else []
        cases = [re.findall(r"'(\w+)'", entry["trace"]) for entry in (before, after)]
        parts += [f"cases {cases[0]} -> {cases[1]}"] if cases[0] != cases[1] else []
        parts += [f"{key} {before.get(key)} -> {after[key]}" for key in COUNTS
                  if before.get(key) != after[key]]
        lines.append(f"{case}: " + ", ".join(parts))
    for key in COUNTS:
        totals = [sum(entry.get(key) or 0 for entry in golden.values()) for golden in (old, new)]
        lines.append(f"{key} in all: {totals[0]} -> {totals[1]}")
    lines.append("largest relative move: " + ", ".join(
        f"{key} {move:.2e}" for key, move in largest.items()) + f"; costs rose in {rose} of "
        f"{len(new)} cases")
    return lines


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_design_is_bit_identical_to_its_golden(case, golden):
    assert fingerprint(case) == golden[case]


def test_drift_names_each_moved_case_and_the_totals():
    design = PlanDesign(t1=1.0, t2=2.0, n=3, phi=1.0, objective_value=4.0, g_value=0.05,
                        h_value=0.05, g_margin=0.0, h_margin=0.0, z_lower=4.0, z_upper=4.0,
                        trace=((3, 1.0, 4.0, "active"),))
    moved = replace(design, t1=1.0 + 2.0 ** -40, h_margin=1e-17)
    dearer = replace(design, objective_value=4.0 + 2.0 ** -48)

    def entry(d: PlanDesign, probes: int, fallbacks: int = 0) -> dict:
        return {"design": repr(d), "trace": repr(d.trace), "solves": 2, "probes": probes,
                "fallbacks": fallbacks}

    old = {"same": entry(design, 10), "moved": entry(design, 10), "dearer": entry(design, 10)}
    new = {"same": entry(design, 10), "moved": entry(moved, 7, 1), "dearer": entry(dearer, 10)}
    assert drift(old, new) == [
        "dearer: t1 +0.00e+00, t2 +0.00e+00, cost +8.88e-16, g_margin 0.0, h_margin 0.0",
        "moved: t1 +9.09e-13, t2 +0.00e+00, cost +0.00e+00, g_margin 0.0, h_margin 1e-17, "
        "probes 10 -> 7, fallbacks 0 -> 1",
        "solves in all: 6 -> 6",
        "probes in all: 30 -> 27",
        "fallbacks in all: 0 -> 1",
        "largest relative move: t1 9.09e-13, t2 0.00e+00, cost 8.88e-16; costs rose in 1 of 3 "
        "cases",
    ]


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    new = {case: fingerprint(case) for case in CASES}
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(drift(old, new)), file=sys.stderr)
    sys.exit(0)
