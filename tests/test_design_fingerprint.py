"""Designs stay the same to the last bit: a change that only makes the
solver faster must leave every design, and its trace, as it was.

Each case is one problem solved by `solve_plan` and by `crisp_baseline`
under both membership forms; the golden in
tests/data/design_fingerprint.json holds ``repr(design)``,
``repr(design.trace)``, the number of `solve_monotone` calls of each, the
number of Brent probes its roots made in `_last_met` (its check of the
unmet end not counted) and the number of closed-form root guesses that
missed their bound and fell back to Brent's method (`fuzzyopt._guessed`),
so that a change that adds crisp solves or root probes, or degrades a tail
quantile, shows here too, where wall time would not.  The problems are the
README problem of every family (`rgsp_min` and `rgsp_max` at `n_max` 200), the README `type1`
problem under ``sd_form="sqrt_n"`` at `n_max` 1000, and eight problems
shaped like the benchmark's, written out here.  Each golden design is also
checked in 50-digit arithmetic, with S by quadrature over the rate density:
its risks meet their cut levels.

Run as a script, the module re-records the golden or makes a drift audit
(with ``PYTHONPATH=src``):

    python tests/test_design_fingerprint.py
    python tests/test_design_fingerprint.py --audit AUDIT.json
    python tests/test_design_fingerprint.py --drift OLD.json NEW.json

The first re-records the golden, for a change that moves a design on
purpose and says why; it prints to stderr how far each moved design
drifted from the old golden, and last the largest move over all cases and
how many costs rose.  ``--audit`` writes the same record, with the
InfeasibleError message and ``per_n`` in place of a design, for the 250
generated problems of `audit_problems` (seed 11, all four families, fuzzy
and crisp, both forms: 1,000 entries).  ``--drift`` prints the drift from
one such file to another, as from an audit of the parent commit's source
to one of the change's, and exits 1 where any case differs or is missing
from NEW.
"""

import argparse
import json
import math
import random
import re
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from asplan import fuzzyopt
from asplan.errors import InfeasibleError
from asplan.fuzzyopt import MEMBERSHIP_FORMS, PlanDesign, solve_plan
from asplan.lifemodel import SD_FORMS
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.plans import OBJECTIVE_VARIANTS, Family, PlanProblem, crisp_baseline, crisp_limit

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
    # The floor size 768 solved alone, where the loop traces 698 sizes.
    "readme-type1-sqrt_n": _problem(
        "type1", *TYPE1_README, tau=50.0, n_max=1000, sd_form="sqrt_n", **UPPER),
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


def audit_problems(seed: int = 11, count: int = 250) -> dict:
    """``count`` fuzzy problems of the four families in turn, drawn from
    ``seed``: mean lives from 200 to 600 with lambda1/lambda0 from 0.1 to
    0.7, a from 2 to 50 times lambda0, risk levels of 1 % to 20 % with up to
    6 % slack, either objective variant, t2 above lambda0 allowed or not,
    group sizes up to 12, and Type-I plans of either scaling, censored at
    0.3 to 2 times lambda1.  Many of them are infeasible."""
    rng = random.Random(seed)
    problems = {}
    for i in range(count):
        family = list(Family)[i % 4]
        lambda0 = rng.uniform(200.0, 600.0)
        lambda1 = lambda0 * rng.uniform(0.1, 0.7)
        a = lambda0 * rng.uniform(2.0, 50.0)
        extra = {"objective_variant": rng.choice(OBJECTIVE_VARIANTS),
                 "allow_t2_above_lambda0": rng.random() < 0.5}
        if family is not Family.SSP:
            extra["n_max"] = rng.randint(1, 12)
        if family is Family.TYPE_I:
            extra.update(tau=lambda1 * rng.uniform(0.3, 2.0), sd_form=rng.choice(SD_FORMS))
        problems[f"{i:03d}-{family.value}"] = PlanProblem(
            family=family,
            lambda0=FuzzyLife(lambda0, a),
            lambda1=FuzzyLife(lambda1, a),
            alpha=FuzzyLevel(rng.uniform(0.01, 0.2), rng.uniform(0.0, 0.06)),
            beta=FuzzyLevel(rng.uniform(0.01, 0.2), rng.uniform(0.0, 0.06)),
            **extra,
        )
    return problems


def measured(problem: PlanProblem, solver: str, form: str) -> dict:
    """The record of one case: the design's repr and its trace's, or an
    InfeasibleError's message and ``per_n``, and the counts of the solve."""
    solves = [0]
    probes = [0]
    fallbacks = [0]
    monotone, last_met, guessed = fuzzyopt.solve_monotone, fuzzyopt._last_met, fuzzyopt._guessed
    guessing = [False]

    def counted(*args):
        solves[0] += 1
        return monotone(*args)

    def counted_last_met(f, *args):
        fallbacks[0] += guessing[0]
        calls = [0]

        def probe(x):
            calls[0] += 1
            return f(x)

        x = last_met(probe, *args)
        probes[0] += calls[0] - 1  # the f(unmet) check is not a Brent probe
        return x

    def counted_guessed(f, guess, *args):
        guessing[0] = guess is not None
        try:
            return guessed(f, guess, *args)
        finally:
            guessing[0] = False

    with mock.patch.object(fuzzyopt, "solve_monotone", counted), \
            mock.patch.object(fuzzyopt, "_last_met", counted_last_met), \
            mock.patch.object(fuzzyopt, "_guessed", counted_guessed):
        try:
            design = SOLVERS[solver](problem, membership_form=form)
            outcome = {"design": repr(design), "trace": repr(design.trace)}
        except InfeasibleError as exc:
            outcome = {"design": f"InfeasibleError: {exc}", "trace": repr(exc.per_n)}
    return {**outcome, "solves": solves[0], "probes": probes[0], "fallbacks": fallbacks[0]}


def fingerprint(case: str) -> dict:
    name, solver, form = case.split("/")
    return measured(PROBLEMS[name], solver, form)


def audit(seed: int = 11, count: int = 250) -> dict:
    """`measured` for every solver and form of each of `audit_problems`."""
    return {f"{name}/{solver}/{form}": measured(problem, solver, form)
            for name, problem in audit_problems(seed, count).items()
            for solver in SOLVERS for form in MEMBERSHIP_FORMS}


COUNTS = ("solves", "probes", "fallbacks")


def _fields(design: str) -> dict:
    """The scalar fields of a `PlanDesign` repr, as written."""
    return dict(re.findall(r"(\w+)=([^,()]+)", design.split(", trace=")[0]))


def drift(old: dict, new: dict) -> list[str]:
    """One line per case whose golden moved: the relative change of t1, t2
    and the cost, the new margins, and any change of n, case or counts;
    where only the trace moved, its sizes, and where either side is an
    error, both outcomes as recorded; and one per case missing from new.
    Then the totals of the counts, and a summary: the largest relative move
    of t1, t2 and the cost over all cases, and how many costs rose."""
    lines = []
    largest, rose = {"t1": 0.0, "t2": 0.0, "cost": 0.0}, 0
    for case in sorted(old.keys() | new.keys()):
        before, after = old.get(case), new.get(case)
        if before == after:
            continue
        if before is None or after is None:
            lines.append(f"{case}: {'new case' if before is None else 'missing'}")
            continue
        parts = []
        if before["design"] != after["design"]:
            was, now = (_fields(entry["design"]) if entry["design"].startswith("PlanDesign(")
                        else None for entry in (before, after))
            if was is None or now is None:
                parts.append(f"{before['design']} -> {after['design']}")
            elif was == now:
                sizes = [re.findall(r"\((\d+|None), ", entry["trace"]) for entry in (before, after)]
                parts.append(f"trace sizes {sizes[0]} -> {sizes[1]}")
            else:
                moves = {key: float(now[field]) / float(was[field]) - 1.0 for key, field in
                         (("t1", "t1"), ("t2", "t2"), ("cost", "objective_value"))}
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


def _exact_survival(mpmath, life, t):
    """S(t) in mpmath: e^{-t/lambda} for a plain life, and for a fuzzy one
    a times the integral of e^{-r t} over the raised-cosine membership of
    the rate r, by quadrature, not from the closed form."""
    t = mpmath.mpf(t)
    if not isinstance(life, FuzzyLife):
        return mpmath.exp(-t / mpmath.mpf(life))
    a, center = mpmath.mpf(life.a), 1 / mpmath.mpf(life.lambda_j)
    return a * mpmath.quad(
        lambda r: mpmath.exp(-r * t) * (1 + mpmath.cos(mpmath.pi * a * (r - center))) / 2,
        [center - 1 / a, center, center + 1 / a])


def _exact_stage(mpmath, problem: PlanProblem, life, n, t1: float, t2: float) -> tuple:
    """(p_a, p_r) of one stage of the problem's family in mpmath."""
    if problem.family is Family.TYPE_I:
        mean = mpmath.mpf(life.lambda_j if isinstance(life, FuzzyLife) else life)
        frac = -mpmath.expm1(-mpmath.mpf(problem.tau) / mean)
        m = n * mpmath.sqrt(frac) if problem.sd_form == "n" else mpmath.sqrt(n * frac)
        return mpmath.ncdf(-(t2 - mean) / mean * m), mpmath.ncdf((t1 - mean) / mean * m)
    scale = n if problem.family is Family.RGSP_MIN else 1
    s1, s2 = (_exact_survival(mpmath, life, scale * t) for t in (t1, t2))
    if problem.family is Family.RGSP_MAX:
        return 1 - (1 - s2) ** n, (1 - s1) ** n
    return s2, 1 - s1


@pytest.mark.parametrize("case", CASES)
def test_golden_design_meets_its_cuts_in_50_digit_arithmetic(case, golden):
    """g and h of each golden design, at 50 digits with S by quadrature
    over the rate density, are within 1e-12 relative of their cut levels at
    the design's satisfaction level: each cut is the risk as evaluated plus
    its margin.  The worst excess was 2.5e-16 when this test was written.
    The golden holds the designs bit for bit, as the test above checks, so
    this checks the solver's designs without a solve."""
    name, solver, _ = case.split("/")
    problem = PROBLEMS[name] if solver == "solve_plan" else crisp_limit(PROBLEMS[name])
    _assert_meets_its_cuts_exactly(problem, _fields(golden[case]["design"]))


def _assert_meets_its_cuts_exactly(problem: PlanProblem, fields: dict) -> None:
    """g and h at the design of ``fields`` (`_fields`), at 50 digits, are
    within 1e-12 relative of its cuts, the risks as evaluated plus their
    margins."""
    mpmath = pytest.importorskip("mpmath")
    t1, t2 = float(fields["t1"]), float(fields["t2"])
    n = None if fields["n"] == "None" else int(fields["n"])
    with mpmath.workdps(50):
        for risk, life, accepts in (("g", problem.lambda0, False), ("h", problem.lambda1, True)):
            p_a, p_r = _exact_stage(mpmath, problem, life, n, t1, t2)
            value = (p_a if accepts else p_r) / (p_a + p_r)
            cut = mpmath.mpf(fields[f"{risk}_value"]) + mpmath.mpf(fields[f"{risk}_margin"])
            assert value / cut - 1 <= 1e-12, risk


@pytest.mark.parametrize("form", MEMBERSHIP_FORMS)
@pytest.mark.parametrize("name", ["readme-ssp", "readme-rgsp_min", "readme-rgsp_max",
                                  "readme-type1"])
def test_designs_at_a_just_above_lambda0_meet_their_cuts(name, form):
    """a -> lambda0+: each README problem with a = nextafter(lambda0, inf),
    the fuzziest rate density that lambda0 admits, still gives a design,
    with margins >= 0 and risks within 1e-12 relative of its cuts at 50
    digits.  The Type-I law reads the nominal mean, so its design does not
    depend on a at all."""
    readme = PROBLEMS[name]
    a = math.nextafter(readme.lambda0.lambda_j, math.inf)
    problem = replace(readme, lambda0=FuzzyLife(readme.lambda0.lambda_j, a),
                      lambda1=FuzzyLife(readme.lambda1.lambda_j, a))
    design = solve_plan(problem, membership_form=form)
    assert design.g_margin >= 0.0 and design.h_margin >= 0.0
    _assert_meets_its_cuts_exactly(problem, _fields(repr(design)))
    if problem.family is Family.TYPE_I:
        assert design == solve_plan(readme, membership_form=form)


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


def test_audit_problems_are_seeded_and_cover_every_variant():
    problems = audit_problems()
    assert len(problems) == 250 and audit_problems() == problems != audit_problems(seed=12)
    assert {p.family for p in problems.values()} == set(Family)
    assert {p.objective_variant for p in problems.values()} == set(OBJECTIVE_VARIANTS)
    assert {p.allow_t2_above_lambda0 for p in problems.values()} == {False, True}
    assert {p.sd_form for p in problems.values() if p.family is Family.TYPE_I} == set(SD_FORMS)


def test_drift_names_errors_and_moved_trace_sizes():
    design = PlanDesign(t1=1.0, t2=2.0, n=3, phi=1.0, objective_value=4.0, g_value=0.05,
                        h_value=0.05, g_margin=0.0, h_margin=0.0, z_lower=4.0, z_upper=4.0,
                        trace=((2, 1.0, 5.0, "active"), (3, 1.0, 4.0, "active")))
    shortcut = replace(design, trace=design.trace[1:])

    def entry(outcome, trace) -> dict:
        return {"design": outcome, "trace": repr(trace), "solves": 2, "probes": 10,
                "fallbacks": 0}

    error = entry("InfeasibleError: every candidate group size was infeasible", ())
    old = {"loop": entry(repr(design), design.trace), "lost": entry(repr(design), design.trace)}
    new = {"loop": entry(repr(shortcut), shortcut.trace), "lost": error}
    assert drift(old, new)[:2] == [
        "loop: trace sizes ['2', '3'] -> ['3'], cases ['active', 'active'] -> ['active']",
        "lost: " + repr(design) + " -> InfeasibleError: every candidate group size was "
        "infeasible, cases ['active', 'active'] -> []",
    ]


def test_drift_exits_1_where_a_case_differs_or_is_missing(tmp_path, capsys):
    """``--drift`` is a gate: it exits 0 only where the two records are
    equal, and names a case that NEW lacks."""
    entry = {"design": "InfeasibleError: x", "trace": "()", "solves": 1, "probes": 2,
             "fallbacks": 0}
    records = {"old": {"a": entry, "b": entry}, "same": {"a": entry, "b": entry},
               "lost": {"a": entry}, "moved": {"a": entry, "b": {**entry, "probes": 3}}}
    for name, record in records.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(record), encoding="utf-8")
    codes = {name: _main(["--drift", str(tmp_path / "old.json"), str(tmp_path / f"{name}.json")])
             for name in ("same", "lost", "moved")}
    assert codes == {"same": 0, "lost": 1, "moved": 1}
    printed = capsys.readouterr().out.splitlines()
    assert "b: missing" in printed and "b: probes 2 -> 3" in printed


def _main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--audit", metavar="OUT", help="write the audit record to OUT")
    parser.add_argument("--drift", nargs=2, metavar=("OLD", "NEW"),
                        help="print the drift from one record file to another")
    args = parser.parse_args(argv)
    if args.drift:
        old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.drift)
        print("\n".join(drift(old, new)))
        return 1 if old != new else 0
    if args.audit:
        path, old, new = Path(args.audit), {}, audit()
    else:
        path, new = GOLDEN, {case: fingerprint(case) for case in CASES}
        old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    errors = sum(not entry["design"].startswith("PlanDesign(") for entry in new.values())
    print(f"{len(new) - errors} designs and {errors} errors written to {path}", file=sys.stderr)
    if old:
        print("\n".join(drift(old, new)), file=sys.stderr)
    else:
        for key in COUNTS:
            print(f"{key} in all: {sum(entry[key] for entry in new.values())}", file=sys.stderr)
    return 0

if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
