"""The monotone structure of the plan functions, for every family, fuzzy and
crisp, on t1 <= t2:

- g, the long-run producer risk, does not fall in t1 or in t2;
- h, the long-run consumer risk, does not rise in t1 or in t2;
- N = 1/(p_a + p_r), the expected number of stages, does not rise in t1
  and does not fall in t2;
- g does not fall along the curve where h meets its level.

The objective ("cost") is c * e0 * N, where the stage duration e0 > 0 does
not depend on the thresholds, so N's directions are checked on it.
Each point is evaluated as a scalar pair, the crisp solve's path.  Where a
plan never ends (p_a + p_r underflows to 0) the risks are undefined, and
such points are skipped.

The tolerance is rounding level, carried through the closed forms: p_r =
1 - S(t1) is a difference from 1, so it carries an absolute error of a few
ulps of 1 (n times that through rgsp_max's n-th powers), and the long-run
ratios divide by p_a + p_r = 1/N.  So g and h may wiggle by a few ulps
times N (1 + value), and the cost by a few ulps times N times its value,
with N taken at the life each one uses.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asplan.errors import DegeneratePlanError
from asplan.lifemodel import TriProb, long_run_rates
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.plans import Family, PlanProblem, crisp_limit, stage_law

LEVELS = dict(alpha=FuzzyLevel(0.05, 0.05), beta=FuzzyLevel(0.05, 0.05))
LIVES = {
    Family.SSP: dict(lambda0=FuzzyLife(300.0, 1500.0), lambda1=FuzzyLife(50.0, 1500.0)),
    Family.TYPE_I: dict(
        lambda0=FuzzyLife(500.0, 15000.0), lambda1=FuzzyLife(150.0, 15000.0), tau=100.0
    ),
}
ULPS = 16 * math.ulp(1.0)  # "a few ulps"
UNIT = st.floats(0.0, 1.0)


def _problem(family: Family, crisp: bool) -> PlanProblem:
    lives = LIVES.get(family, LIVES[Family.SSP])
    problem = PlanProblem(family=family, **lives, **LEVELS)
    return crisp_limit(problem) if crisp else problem


def _stage(problem: PlanProblem, n, life, x) -> TriProb:
    """One stage's probabilities at thresholds x, for the tolerance only."""
    return TriProb(*stage_law(problem.family, n, problem.tau, problem.sd_form)(life, *x))


def _stages(problem: PlanProblem, n, life, points) -> float:
    """The largest expected stage count N = 1/(p_a + p_r) over the points."""
    stages = (_stage(problem, n, life, x) for x in points)
    return max(long_run_rates(stage.p_a, stage.p_r)[2] for stage in stages)


def _assert_directions(values: dict, tol: dict) -> None:
    """values[name] holds the function at (t1, t2), (t1', t2) and (t1, t2')
    with t1' >= t1 and t2' >= t2; +1 must not fall, -1 must not rise."""
    for name, up1, up2 in (("g", 1, 1), ("h", -1, -1), ("cost", -1, 1)):
        base, step1, step2 = values[name]
        assert up1 * (step1 - base) >= -tol[name], (name, "t1", base, step1)
        assert up2 * (step2 - base) >= -tol[name], (name, "t2", base, step2)


@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 30), u1=UNIT, u2=UNIT, s1=UNIT, s2=UNIT)
def test_plan_functions_are_monotone(family, crisp, n, u1, u2, s1, s2):
    problem = _problem(family, crisp)
    objective, g, h, box, _ = problem.functions(None if family is Family.SSP else n)
    lo, hi = box.lo, box.hi
    # Log-spaced draws: the thresholds span many decades of the box.
    t1, t2 = sorted(lo * (hi / lo) ** u for u in (u1, u2))
    # Steps from 1e-12 of the room up to all of it, tiny ones as often as large.
    t1_step = min(t2, t1 + 1e-12 ** s1 * (t2 - t1))
    t2_step = min(hi, t2 + 1e-12 ** s2 * (hi - t2))
    points = ((t1, t2), (t1_step, t2), (t1, t2_step))
    try:
        scalars = {
            "g": [g(x) for x in points],
            "h": [h(x) for x in points],
            "cost": [objective(x) for x in points],
        }
    except DegeneratePlanError:
        assume(False)
    assert all(math.isfinite(v) for vs in scalars.values() for v in vs)
    ulps = ULPS * (n if family is Family.RGSP_MAX else 1)
    n0 = _stages(problem, n, problem.lambda0, points)
    n1 = _stages(problem, n, problem.lambda1, points)
    tol = {
        "g": ulps * n0 * (1.0 + scalars["g"][0]),
        "h": ulps * n1 * (1.0 + scalars["h"][0]),
        "cost": ulps * n0 * scalars["cost"][0],
    }
    _assert_directions(scalars, tol)


def _least_met(fn, met: float, unmet: float) -> float:
    """The met end of the crossing of fn <= 0, for fn monotone between
    fn(met) <= 0 and fn(unmet) > 0, by bisection to adjacent floats."""
    while True:
        mid = 0.5 * (met + unmet)
        if mid in (met, unmet):
            return met
        if fn(mid) <= 0.0:
            met = mid
        else:
            unmet = mid


@pytest.mark.parametrize("level", ["tight", "relaxed"])
@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 30), u1=UNIT, u2=UNIT)
@example(n=1, u1=0.0, u2=2.220446049250313e-16)
@example(n=2, u1=0.0, u2=2.220446049250313e-16)
def test_g_does_not_fall_along_the_h_curve(family, crisp, level, n, u1, u2):
    """Let T(t1) be the least t2 in [t1, hi] with h(t1, t2) <= beta.  Then
    g(t1, T(t1)) does not fall in t1: the premise on which the crisp solve
    takes the largest t1 that meets g on that curve.  The curve runs from
    the least t1 with h(t1, hi) <= beta to t_h, the least t with
    h(t, t) <= beta; problems where h(hi, hi) > beta have none."""
    problem = _problem(family, crisp)
    objective, g, h, box, _ = problem.functions(None if family is Family.SSP else n)
    lo, hi = box.lo, box.hi
    beta = problem.beta.level if level == "tight" else problem.beta.relaxed

    def least(fn):
        return lo if fn(lo) <= 0.0 else _least_met(fn, hi, lo)

    def on_curve(t1):
        """(t1, T(t1)) as the crisp solve finds it: t2 = hi where
        h(t1, hi) > beta, which only rounding allows, as t1 >= t1_min."""
        if h((t1, t1)) <= beta:
            return (t1, t1)
        if h((t1, hi)) > beta:
            return (t1, hi)
        return (t1, _least_met(lambda t2: h((t1, t2)) - beta, hi, t1))

    assume(h((hi, hi)) <= beta)
    t_h = least(lambda t: h((t, t)) - beta)
    t1_min = least(lambda t: h((t, hi)) - beta)
    t1, t1_step = sorted(t1_min * (t_h / t1_min) ** u for u in (u1, u2))
    low, high = on_curve(t1), on_curve(t1_step)
    # h meets beta on the curve, up to h's rounding at the larger N.
    n1 = _stages(problem, n, problem.lambda1, (low, high))
    for x in (low, high):
        assert h(x) <= beta + ULPS * n1 * (1.0 + h(x)), x
    # g's rounding, as in the monotonicity test, at the larger N.
    n0 = _stages(problem, n, problem.lambda0, (low, high))
    assert g(high) >= g(low) - ULPS * n0 * (1.0 + g(low)), (low, high)
