import collections
import math
import random
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asplan import fuzzyopt
from asplan.errors import DegeneratePlanError, DomainError, InfeasibleError
from asplan.fuzzyopt import (
    PlanDesign,
    SolverSettings,
    solve_max_phi,
    solve_plan,
    zimmermann_bounds,
)
from asplan.lifemodel import SD_FORMS
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.plans import Family, PlanProblem, crisp_limit, plan_functions

from reference import CrispNlp, plan_arrays, solve_crisp

FAST = SolverSettings(restarts=6)


def test_solve_crisp_active_constraint():
    nlp = CrispNlp(
        objective=lambda x: (x[0] - 2.0) ** 2,
        constraints=((lambda x: x[0], 1.0),),
        box=((0.0, 10.0),),
    )
    x, value = solve_crisp(nlp, FAST)
    assert x[0] == pytest.approx(1.0, abs=1e-6)
    assert value == pytest.approx(1.0, abs=1e-5)


def test_solve_crisp_vertex_optimum():
    nlp = CrispNlp(
        objective=lambda x: x[0] + x[1],
        constraints=((lambda x: -x[0], -1.0), (lambda x: -x[1], -1.0)),
        box=((0.0, 10.0), (0.0, 10.0)),
    )
    x, _ = solve_crisp(nlp, FAST)
    assert x[0] == pytest.approx(1.0, abs=1e-6)
    assert x[1] == pytest.approx(1.0, abs=1e-6)


def test_solve_crisp_deterministic():
    nlp = CrispNlp(
        objective=lambda x: (x[0] - 3.0) ** 2 + (x[1] + 1.0) ** 2,
        constraints=((lambda x: x[0] + x[1], 2.5),),
        box=((-5.0, 5.0), (-5.0, 5.0)),
    )
    first = solve_crisp(nlp, FAST)
    second = solve_crisp(nlp, FAST)
    assert first[0].tolist() == second[0].tolist()
    assert first[1] == second[1]


def test_solve_crisp_infeasible_reports_best_violation():
    nlp = CrispNlp(
        objective=lambda x: x[0],
        constraints=((lambda x: x[0], -1.0),),  # x <= -1 impossible in box
        box=((0.0, 1.0),),
    )
    with pytest.raises(InfeasibleError) as excinfo:
        solve_crisp(nlp, FAST)
    assert excinfo.value.best_violation is not None
    assert excinfo.value.best_violation > 0.0


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_solve_crisp_finds_the_narrow_global_minimum(seed):
    # A broad well at (-2, -2) with value 0.2 and a narrow one at (3, 3)
    # with value 0, where random starts mostly land in the broad well.
    def objective(x):
        broad = 0.2 + 0.1 * ((x[0] + 2.0) ** 2 + (x[1] + 2.0) ** 2)
        narrow = 20.0 * ((x[0] - 3.0) ** 2 + (x[1] - 3.0) ** 2)
        return np.minimum(broad, narrow)

    nlp = CrispNlp(
        objective=objective,
        constraints=((lambda x: x[0] - x[1], 0.5),),
        box=((-5.0, 5.0), (-5.0, 5.0)),
    )
    x, value = solve_crisp(nlp, SolverSettings(restarts=6, seed=seed))
    assert x.tolist() == pytest.approx([3.0, 3.0], abs=1e-5)
    assert value == pytest.approx(0.0, abs=1e-9)


def _ssp_problem(a: float) -> PlanProblem:
    return PlanProblem(
        family=Family.SSP,
        lambda0=FuzzyLife(300.0, a),
        lambda1=FuzzyLife(50.0, a),
        alpha=FuzzyLevel(0.05, 0.05),
        beta=FuzzyLevel(0.05, 0.05),
    )


def test_solve_crisp_ssp_feasible():
    p = _ssp_problem(15000.0)
    objective, g, h, box, ordering = plan_arrays(p, None)
    nlp = CrispNlp(objective, ((g, 0.05), (h, 0.05)), box, ordering)
    x, _ = solve_crisp(nlp, FAST)
    _, g, h, _, _ = plan_functions(p, None)  # the scalar closures check the grid's answer
    assert g(x) <= 0.05 + 1e-6
    assert h(x) <= 0.05 + 1e-6


def test_zimmermann_zero_slack_collapses():
    p = replace(_ssp_problem(1500.0), alpha=FuzzyLevel(0.05, 0.0), beta=FuzzyLevel(0.05, 0.0))
    zb = zimmermann_bounds(p)
    assert zb.z_upper == pytest.approx(zb.z_lower, rel=1e-4)


def test_zimmermann_brackets_reference_cost():
    p = _ssp_problem(1500.0)
    objective, g, h, box, _ = plan_functions(p, None)
    zb = zimmermann_bounds(p)
    levels = (p.alpha.level, p.beta.level)
    tight_value = fuzzyopt.solve_monotone(objective, g, h, box, *levels)[1]
    relaxed_value = fuzzyopt.solve_monotone(objective, g, h, box, p.alpha.relaxed, p.beta.relaxed)[1]
    assert zb.z_lower <= zb.z_upper
    assert relaxed_value <= tight_value + 1e-6 * (1.0 + tight_value)
    # The reference tight-design cost 665.7614 must sit at or above the bracket.
    assert zb.z_lower <= 665.7614 * 1.001


def _max_phi_setup():
    p = _ssp_problem(15000.0)
    objective, g, h, _, _ = plan_functions(p, None)
    return objective, g, h, p, zimmermann_bounds(p)


def test_max_phi_design_feasible_and_consistent():
    objective, g, h, p, zb = _max_phi_setup()
    design = solve_max_phi(zb, "cost_ascending")
    assert 0.0 <= design.phi <= 1.0
    assert design.g_margin >= -1e-6
    assert design.h_margin >= -1e-6
    x = (design.t1, design.t2)
    assert g(x) == pytest.approx(design.g_value, abs=1e-9)
    assert h(x) == pytest.approx(design.h_value, abs=1e-9)
    assert objective(x) == pytest.approx(design.objective_value, rel=1e-9)
    # Reference cost for this configuration is 661.2965; stay within 10%.
    assert design.objective_value <= 1.10 * 661.2965


def test_max_phi_standard_form_not_costlier_than_relaxed_bound():
    _, g, h, p, zb = _max_phi_setup()
    design = solve_max_phi(zb, "standard")
    assert design.objective_value <= zb.z_upper * (1.0 + 1e-6)
    assert design.g_value <= p.alpha.relaxed + 1e-6
    assert design.h_value <= p.beta.relaxed + 1e-6


def test_crisp_limit_of_max_phi():
    alpha = FuzzyLevel(0.05, 0.0)
    beta = FuzzyLevel(0.05, 0.0)
    zb = zimmermann_bounds(replace(_ssp_problem(15000.0), alpha=alpha, beta=beta))
    design = solve_max_phi(zb)
    assert design.g_value <= 0.05 + 1e-6
    assert design.h_value <= 0.05 + 1e-6


def _family_problem(family: Family, crisp: bool) -> PlanProblem:
    """A small problem per family: the README lives, or for Type-I plans
    censored lives that first turn feasible at n = 5."""
    if family is Family.TYPE_I:
        lives = dict(
            lambda0=FuzzyLife(500.0, 15000.0), lambda1=FuzzyLife(150.0, 15000.0), tau=100.0
        )
    else:
        lives = dict(lambda0=FuzzyLife(300.0, 1500.0), lambda1=FuzzyLife(50.0, 1500.0))
    problem = PlanProblem(
        family=family,
        alpha=FuzzyLevel(0.05, 0.05),
        beta=FuzzyLevel(0.05, 0.05),
        n_max=6 if family is Family.TYPE_I else 3,
        **lives,
    )
    return crisp_limit(problem) if crisp else problem


def _count_crisp_solves(monkeypatch) -> collections.Counter:
    """Count `solve_monotone` calls per group size, keyed by the size's g
    closure itself (freed closures reuse ids)."""
    solves = collections.Counter()
    monotone = fuzzyopt.solve_monotone

    def counted(objective, g, *args):
        solves[g] += 1
        return monotone(objective, g, *args)

    monkeypatch.setattr(fuzzyopt, "solve_monotone", counted)
    return solves


@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_cost_ascending_design_is_the_tight_bracket_point(family, crisp, monkeypatch):
    """Each group size runs two crisp solves at most, the tight and the
    relaxed bracket solves: the design is taken from the bracket."""
    solves = _count_crisp_solves(monkeypatch)
    problem = _family_problem(family, crisp)
    design = solve_plan(problem, FAST)
    assert solves and max(solves.values()) <= 2
    objective, g, h, box, _ = problem.functions(design.n)
    tight_x, tight_value, _ = fuzzyopt.solve_monotone(
        objective, g, h, box, problem.alpha.level, problem.beta.level
    )
    assert (design.t1, design.t2) == tight_x
    assert design.objective_value == tight_value
    assert design.phi >= 1.0 - 1e-9


def test_standard_form_runs_the_max_min_stages(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_max_phi(*args, **kwargs)

    monkeypatch.setattr(fuzzyopt, "solve_max_phi", counted)
    design = solve_plan(_ssp_problem(1500.0), FAST, membership_form="standard")
    assert calls == [1]
    assert design.phi == pytest.approx(0.557, abs=1e-3)
    calls.clear()
    design = solve_plan(_family_problem(Family.RGSP_MAX, crisp=False), FAST, "standard")
    assert calls == [1]
    assert [n for n, *_ in design.trace] == [1, 2]


def test_unknown_membership_form_fails_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the membership form")

    monkeypatch.setattr(fuzzyopt, "zimmermann_bounds", no_solve)
    with pytest.raises(DomainError, match="membership_form"):
        solve_plan(_ssp_problem(1500.0), FAST, membership_form="linear")


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
def test_no_grid_scan_per_group_size(form, monkeypatch):
    """No closure sees an array of grid points: the crisp solves probe g
    and h one point at a time, and evaluate the objective once each, at
    their answer.  Under cost_ascending a group size runs the tight and the
    relaxed solve only; n = 3 runs the tight one alone, as the relaxed
    search stops at n = 2, and so does every root probe under standard."""
    calls = collections.Counter()
    size_of = {}  # each size's g closure -> n

    def counted_functions(problem, n):
        objective, g, h, box, ordering = plan_functions(problem, n)

        def counted(name, fn):
            def wrapper(x):
                assert np.ndim(x[0]) == 0, f"{name} scanned an array"
                calls[(n, name)] += 1
                return fn(x)

            return wrapper

        g = counted("g", g)
        size_of[g] = n
        return counted("objective", objective), g, counted("h", h), box, ordering

    monkeypatch.setattr(PlanProblem, "functions", counted_functions)
    solves = _count_crisp_solves(monkeypatch)
    design = solve_plan(_family_problem(Family.RGSP_MAX, crisp=False), FAST, form)
    assert [n for n, *_ in design.trace] == ([1, 2, 3] if form == "cost_ascending" else [1, 2])
    per_size = {size_of[g]: count for g, count in solves.items()}
    assert per_size == {n: calls[(n, "objective")] for n in (1, 2, 3)}
    if form == "cost_ascending":
        assert per_size == {1: 2, 2: 2, 3: 1}
    else:
        assert per_size[1] > 2 and per_size[2] > 2 and per_size[3] == 1


def test_standard_design_is_the_crisp_optimum_at_its_phi():
    """The standard design costs C(phi), the crisp optimum at the levels
    cut at its phi, and no higher phi is affordable: just above it, C
    exceeds the cost whose membership is that phi."""
    problem = _ssp_problem(1500.0)
    design = solve_plan(problem, FAST, membership_form="standard")
    objective, g, h, box, ordering = plan_arrays(problem, None)

    def crisp_cost(s):
        levels = ((g, problem.alpha.cut(s)), (h, problem.beta.cut(s)))
        return solve_crisp(CrispNlp(objective, levels, box, ordering), FAST)[1]

    assert crisp_cost(design.phi) == pytest.approx(design.objective_value, rel=1e-9)
    s = design.phi + 1e-6
    assert crisp_cost(s) > design.z_upper - s * (design.z_upper - design.z_lower)


def test_crisp_design_keeps_the_cheaper_group_size():
    """A crisp level counts as met within the solver's feasibility
    tolerance.  On this crisp `rgsp_min` problem SLSQP leaves the n = 2
    optimum up to 6e-13 above its levels; that must not cost it phi and
    hand the design to n = 1 at twice the cost."""
    problem = PlanProblem(
        family=Family.RGSP_MIN,
        lambda0=301.5593684165424,
        lambda1=50.5538411366788,
        alpha=FuzzyLevel(0.050844159624896315, 0.0),
        beta=FuzzyLevel(0.04999695480669521, 0.0),
        n_max=2,
    )
    design = solve_plan(problem, SolverSettings(restarts=8))
    assert design.n == 2
    assert design.phi == 1.0
    assert design.objective_value == pytest.approx(329.659, rel=1e-6)


def test_crisp_type1_design_is_fully_satisfied():
    assert solve_plan(_family_problem(Family.TYPE_I, crisp=True), FAST).phi == 1.0


def _stop_problem(family: Family, crisp: bool) -> PlanProblem:
    """`_family_problem` with room past the size where the loop stops."""
    n_max = 8 if family is Family.TYPE_I else 5
    return replace(_family_problem(family, crisp), n_max=n_max)


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", [Family.RGSP_MAX, Family.TYPE_I], ids=["rgsp_max", "type1"])
def test_cost_floor_stop_changes_no_design(family, crisp, form, monkeypatch):
    """The loop stops only where no later group size can win: the design is
    the full loop's, and its trace a prefix of the full loop's.  Under
    standard the trace is the search at the cut of phi*, where the fuzzy
    rgsp_max optima cost less than at the levels, so it stops sooner.  A
    Type-I design solves its floor size n_f alone (`dominant_size`), so its
    loop is run with no dominant size; the design is the loop's."""
    problem = _stop_problem(family, crisp)
    design = solve_plan(problem, FAST, form)
    loop = _loop_design(problem, form)
    if family is Family.TYPE_I:
        tried = [5, 6, 7]  # n < 5 is infeasible, n = 7 reaches cost * tau
        assert design.trace == loop.trace[-1:]
    elif form == "standard" and not crisp:
        tried = [1, 2]
    else:
        tried = [1, 2, 3]
    assert [n for n, *_ in loop.trace] == tried
    monkeypatch.setattr(PlanProblem, "least_floor_after", lambda self, n: 0.0)
    full = _loop_design(problem, form)
    assert _without_trace(design) == _without_trace(loop) == _without_trace(full)
    assert loop.trace == full.trace[: len(loop.trace)]
    assert full.trace[-1][0] == problem.n_max


def test_readme_rgsp_max_stops_once_the_floor_passes_its_cost():
    """README lives at the default n_max 200: the cost floor of n = 4,
    628.3, passes the n = 2 design's 578.46, so n = 4..200 are not tried."""
    problem = PlanProblem(
        family=Family.RGSP_MAX,
        lambda0=FuzzyLife(300.0, 1500.0),
        lambda1=FuzzyLife(50.0, 1500.0),
        alpha=FuzzyLevel(0.05, 0.05),
        beta=FuzzyLevel(0.05, 0.05),
    )
    design = solve_plan(problem)
    assert [n for n, *_ in design.trace] == [1, 2, 3]
    assert design.n == 2
    assert design.objective_value == pytest.approx(578.4606888, rel=1e-9)
    assert problem.cost_floor(4) > design.objective_value


def _readme_problem(family: Family, **kwargs) -> PlanProblem:
    return PlanProblem(
        family=family,
        lambda0=FuzzyLife(300.0, 1500.0),
        lambda1=FuzzyLife(50.0, 1500.0),
        alpha=FuzzyLevel(0.05, 0.05),
        beta=FuzzyLevel(0.05, 0.05),
        **kwargs,
    )


def test_readme_rgsp_max_standard_design_shares_one_bracket():
    """At the default n_max 200 the n = 5 design sits on its cost floor,
    688.63, where its own bracket is degenerate.  Against the bracket of
    the whole problem it has no edge: the design is n = 2 at 524.02, below
    the cost_ascending design's 578.46."""
    design = solve_plan(_readme_problem(Family.RGSP_MAX), membership_form="standard")
    assert design.n == 2
    assert design.objective_value == pytest.approx(524.0221669, rel=1e-9)
    assert design.phi == pytest.approx(0.5073942, abs=1e-7)
    assert [n for n, *_ in design.trace] == [1, 2]
    assert (design.z_lower, design.z_upper) == pytest.approx((471.170292, 578.460689))


def test_grouped_z_lower_is_the_least_relaxed_optimum():
    """The bracket is the whole problem's: z_lower is the least relaxed
    optimum over the group sizes, here n = 1's, not the design size's."""
    problem = _readme_problem(Family.RGSP_MAX, n_max=3)
    relaxed = []
    for n in problem.group_sizes:
        objective, g, h, box, _ = problem.functions(n)
        relaxed.append(
            fuzzyopt.solve_monotone(
                objective, g, h, box, problem.alpha.relaxed, problem.beta.relaxed
            )[1]
        )
    design = solve_plan(problem)
    assert design.n == 2
    assert design.z_lower == min(relaxed) == relaxed[0]
    assert design.z_lower == pytest.approx(471.170292, rel=1e-8)


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
def test_readme_rgsp_min_design_is_the_ssp_design_over_n_max(crisp, form):
    """The `rgsp_min` risks depend on n*t only and its cost is c*E[Y]/n*N,
    which leaves out the n items a stage uses.  So size n is the `ssp`
    problem in u = n*t with its cost divided by n, and the design runs to
    n_max: the `ssp` design over n_max."""
    ssp, rgsp_min = _readme_problem(Family.SSP), _readme_problem(Family.RGSP_MIN, n_max=20)
    if crisp:
        ssp, rgsp_min = crisp_limit(ssp), crisp_limit(rgsp_min)
    single = solve_plan(ssp, membership_form=form)
    design = solve_plan(rgsp_min, membership_form=form)
    assert design.n == 20
    scaled = [20 * design.t1, 20 * design.t2, 20 * design.objective_value]
    assert scaled == pytest.approx([single.t1, single.t2, single.objective_value], rel=1e-12)
    assert design.phi == pytest.approx(single.phi, rel=1e-12)


def _without_trace(design: PlanDesign) -> str:
    return repr(replace(design, trace=()))


def _loop_design(problem: PlanProblem, form: str) -> PlanDesign:
    """The design of the loop over every group size: no size dominates."""
    with mock.patch.object(PlanProblem, "dominant_size", None):
        return solve_plan(problem, membership_form=form)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    crisp=st.booleans(),
    form=st.sampled_from(fuzzyopt.MEMBERSHIP_FORMS),
    n_max=st.integers(1, 12),
    lambda0=st.floats(200.0, 600.0),
    ratio=st.floats(0.1, 0.7),
    a_ratio=st.floats(2.0, 50.0),
    alpha=st.floats(0.01, 0.2),
    beta=st.floats(0.01, 0.2),
    slack=st.floats(0.0, 0.05),
)
def test_rgsp_min_shortcut_is_the_loop_design(
    crisp, form, n_max, lambda0, ratio, a_ratio, alpha, beta, slack
):
    """Solving the dominant size n_max alone gives the loop's design, up to
    the trace, or the loop's error."""
    problem = PlanProblem(
        family=Family.RGSP_MIN,
        lambda0=FuzzyLife(lambda0, a_ratio * lambda0),
        lambda1=FuzzyLife(ratio * lambda0, a_ratio * lambda0),
        alpha=FuzzyLevel(alpha, slack),
        beta=FuzzyLevel(beta, slack),
        n_max=n_max,
    )
    if crisp:
        problem = crisp_limit(problem)
    try:
        loop = _loop_design(problem, form)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as excinfo:
            solve_plan(problem, membership_form=form)
        assert (str(excinfo.value), excinfo.value.per_n) == (str(exc), exc.per_n)
        return
    design = solve_plan(problem, membership_form=form)
    assert _without_trace(design) == _without_trace(loop)
    assert [n for n, *_ in design.trace] in ([n_max], [n for n, *_ in loop.trace])


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
def test_rgsp_min_shortcut_holds_where_n_max_leaves_the_box(crisp, form):
    """At lambda1 = 100 the n_max = 10 optimum has n_max*t2 above the box's
    upper edge, outside the u-box of size 1.  It is not on the edge of its
    own box, so it still dominates (`PlanProblem.dominates`): n_max alone is
    solved, and the design is the loop's, whose sizes 1 and 2 are
    infeasible and are not traced."""
    problem = _readme_problem(Family.RGSP_MIN, n_max=10)
    problem = replace(problem, lambda1=replace(problem.lambda1, lambda_j=100.0))
    if crisp:
        problem = crisp_limit(problem)
    design = solve_plan(problem, membership_form=form)
    assert [n for n, *_ in design.trace] == [10]
    assert 10 * design.t2 > 300.0  # the upper edge of every size's box
    loop = _loop_design(problem, form)
    assert [n for n, *_ in loop.trace] == list(range(3, 11))
    assert _without_trace(design) == _without_trace(loop)


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
@pytest.mark.parametrize("lambda1", [100.0, 200.0])
def test_no_crisp_solve_is_made_twice(lambda1, form, monkeypatch):
    """At lambda1 = 100 n_max = 10 dominates at every cut, so the search
    solves it alone: at the tight and relaxed levels, and under `standard`
    once per root probe.  At lambda1 = 200 every size is infeasible, and
    the loop runs.  No size is solved twice at one cut: the loop takes
    n_max's tight solve, as already made, and each size is solved once."""
    problem = _readme_problem(Family.RGSP_MIN, n_max=10)
    problem = replace(problem, lambda1=replace(problem.lambda1, lambda_j=lambda1))
    solves = collections.Counter()
    monotone = fuzzyopt.solve_monotone

    def counted(objective, g, h, box, alpha, beta):
        solves[(g, alpha, beta)] += 1
        return monotone(objective, g, h, box, alpha, beta)

    monkeypatch.setattr(fuzzyopt, "solve_monotone", counted)
    if lambda1 == 100.0:
        solve_plan(problem, membership_form=form)
        assert sum(solves.values()) == {"cost_ascending": 2, "standard": 9}[form]
    else:
        with pytest.raises(InfeasibleError):
            solve_plan(problem, membership_form=form)
        assert sum(solves.values()) == 10
    assert set(solves.values()) == {1}


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
def test_infeasible_rgsp_min_reports_every_size(form):
    """At lambda1 = 200 no size is feasible: the loop runs and reports each
    size's best violation, as it did before the shortcut."""
    problem = _readme_problem(Family.RGSP_MIN, n_max=10)
    problem = replace(problem, lambda1=replace(problem.lambda1, lambda_j=200.0))
    with pytest.raises(InfeasibleError, match="every candidate group size was infeasible") as got:
        solve_plan(problem, membership_form=form)
    with pytest.raises(InfeasibleError) as loop:
        _loop_design(problem, form)
    assert got.value.per_n == loop.value.per_n
    assert [n for n, _ in got.value.per_n] == list(range(1, 11))
    assert got.value.per_n[0][1] == "infeasible: best violation 0.17371399378727959"


def test_standard_probe_that_fails_dominance_runs_the_loop(monkeypatch):
    """The bracket solves of n_max pass `dominates`; each root probe of the
    max-phi solve fails it, so the loop runs at the probe's cut, and the
    trace at phi*'s cut lists every size."""
    problem = _readme_problem(Family.RGSP_MIN, n_max=4)
    checked = []
    dominates = PlanProblem.dominates

    def first_two_only(self, optimum):
        checked.append(optimum)
        return len(checked) <= 2 and dominates(self, optimum)

    monkeypatch.setattr(PlanProblem, "dominates", first_two_only)
    design = solve_plan(problem, membership_form="standard")
    assert len(checked) > 2
    assert [n for n, *_ in design.trace] == [1, 2, 3, 4]
    monkeypatch.undo()
    assert _without_trace(design) == _without_trace(solve_plan(problem, membership_form="standard"))


def test_rgsp_min_edge_optimum_at_n_max_runs_the_loop():
    """An `rgsp_min` problem whose n_max optimum is ``"edge"``: at README
    lives and n_max 10, h(lo, hi) <= beta, so the curve starts at t1 = lo,
    and alpha is g at (lo, T(lo)), the one point of the curve that meets
    it.  `dominates` fails there, and `_optima` takes every size in turn:
    sizes 1 to 3 are infeasible, and the design is the loop's."""
    base = replace(_readme_problem(Family.RGSP_MIN, n_max=10), beta=FuzzyLevel(0.05, 0.0))
    _, g, h, box, _ = plan_functions(base, 10)
    lo, hi = box.lo, box.hi
    h_excess = fuzzyopt._log_odds_excess(h, 0.05)
    assert h_excess(lo, hi) <= 0.0
    alpha = g((lo, fuzzyopt._last_met(lambda t2: h_excess(lo, t2), hi, lo)))
    problem = replace(base, alpha=FuzzyLevel(alpha, 0.0))
    memo = fuzzyopt._Memo(problem)
    optimum = memo.solve(10, 1.0)
    assert optimum[0][0] == lo and optimum[2] == "edge"
    assert not problem.dominates(optimum)
    optima = fuzzyopt._optima(memo, 1.0)
    assert sorted(n for n, _, _ in memo._solves) == list(range(1, 11))
    assert list(optima) == list(range(4, 11)) and optima[10] == optimum
    assert repr(solve_plan(problem)) == (
        "PlanDesign(t1=1e-06, t2=91.96946677103855, n=10, phi=1.0, "
        "objective_value=631.1984878025174, g_value=6.976379491277614e-07, "
        "h_value=0.04999999999999957, g_margin=0.0, h_margin=4.3021142204224816e-16, "
        "z_lower=631.1984878025174, z_upper=631.1984878025174, "
        "trace=((4, 1.0, 1577.9962195062922, 'active'), (5, 1.0, 1262.3969756050337, 'active'), "
        "(6, 1.0, 1051.9974796708614, 'active'), (7, 1.0, 901.7121254321669, 'active'), "
        "(8, 1.0, 788.9981097531461, 'active'), (9, 1.0, 701.3316531139086, 'active'), "
        "(10, 1.0, 631.1984878025174, 'edge')))"
    )


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
def test_readme_rgsp_min_solves_one_group_size(form, monkeypatch):
    """README lives at the default n_max 200: n_max is solved at the tight
    and the relaxed levels, and under `standard` once per root probe, at a
    cut between the two.  The loop over every size makes 400 bracket
    solves."""
    problem = _readme_problem(Family.RGSP_MIN)
    cuts = []
    monotone = fuzzyopt.solve_monotone

    def counted(objective, g, h, box, alpha, beta):
        cuts.append((g, alpha, beta))
        return monotone(objective, g, h, box, alpha, beta)

    monkeypatch.setattr(fuzzyopt, "solve_monotone", counted)
    design = solve_plan(problem, membership_form=form)
    assert [n for n, *_ in design.trace] == [200]
    assert len({g for g, _, _ in cuts}) == 1
    levels = [(alpha, beta) for _, alpha, beta in cuts]
    assert levels[:2] == [(0.05, 0.05), (0.1, 0.1)]
    probes = levels[2:]
    if form == "standard":
        assert len(probes) == len(set(probes)) > 0
        assert all(0.05 < alpha < 0.1 and 0.05 < beta < 0.1 for alpha, beta in probes)
    else:
        assert probes == []
        cuts.clear()
        _loop_design(problem, form)
        assert len(cuts) == 400


def _readme_type1(**kwargs) -> PlanProblem:
    return PlanProblem(
        family=Family.TYPE_I,
        lambda0=FuzzyLife(300.0, 15000.0),
        lambda1=FuzzyLife(200.0, 15000.0),
        alpha=FuzzyLevel(0.01, 0.01),
        beta=FuzzyLevel(0.01, 0.01),
        tau=50.0,
        objective_variant="etc_upper_bound",
        **kwargs,
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    crisp=st.booleans(),
    form=st.sampled_from(fuzzyopt.MEMBERSHIP_FORMS),
    sd_form=st.sampled_from(SD_FORMS),
    n_max=st.integers(1, 60),
    lambda0=st.floats(200.0, 600.0),
    ratio=st.floats(0.1, 0.7),
    tau_ratio=st.floats(0.3, 2.0),
    alpha=st.floats(0.01, 0.45),
    beta=st.floats(0.01, 0.45),
    slack=st.floats(0.0, 0.5),
)
@example(crisp=False, form="cost_ascending", sd_form="n", n_max=60, lambda0=300.0,
         ratio=2.0 / 3.0, tau_ratio=0.25, alpha=0.01, beta=0.01, slack=0.01)
@example(crisp=False, form="standard", sd_form="sqrt_n", n_max=60, lambda0=500.0, ratio=0.3,
         tau_ratio=1.0, alpha=0.05, beta=0.3, slack=0.25)
def test_type1_floor_size_is_the_loop_design(
    crisp, form, sd_form, n_max, lambda0, ratio, tau_ratio, alpha, beta, slack
):
    """Solving the Type-I floor size n_f alone gives the loop's design, up
    to the trace, or the loop's error (but see the next test for z_lower).
    Where a cut of the levels is 1/2 or above there is no dominant size,
    and the loop runs."""
    problem = PlanProblem(
        family=Family.TYPE_I,
        lambda0=FuzzyLife(lambda0, 50.0 * lambda0),
        lambda1=FuzzyLife(ratio * lambda0, 50.0 * lambda0),
        alpha=FuzzyLevel(alpha, slack),
        beta=FuzzyLevel(beta, slack),
        tau=tau_ratio * ratio * lambda0,
        objective_variant="etc_upper_bound",
        n_max=n_max,
        sd_form=sd_form,
    )
    if crisp:
        problem = crisp_limit(problem)
    if max(problem.alpha.relaxed, problem.beta.relaxed) >= 0.5:
        assert problem.dominant_size is None
    try:
        loop = _loop_design(problem, form)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as excinfo:
            solve_plan(problem, membership_form=form)
        assert (str(excinfo.value), excinfo.value.per_n) == (str(exc), exc.per_n)
        return
    design = solve_plan(problem, membership_form=form)
    assert _without_trace(design) == _without_trace(loop)
    if problem.dominant_size is None:
        assert design.trace == loop.trace
    else:
        assert design.trace in (loop.trace, loop.trace[-1:])


@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
def test_rgsp_max_solves_where_survival_rounds_to_1(crisp):
    """At lambda0 = 1e11 the survival rounds to 1 at the box corner 1e-6,
    where the rgsp_max p_a once took log1p(-1.0) and raised a bare
    ValueError; it is 1 there, and the design meets both levels."""
    problem = PlanProblem(
        family=Family.RGSP_MAX,
        lambda0=FuzzyLife(1e11, 1e12),
        lambda1=FuzzyLife(2e10, 1e12),
        alpha=FuzzyLevel(0.05, 0.05),
        beta=FuzzyLevel(0.05, 0.05),
        n_max=5,
    )
    design = solve_plan(crisp_limit(problem) if crisp else problem)
    assert design.n == 3 and min(design.g_margin, design.h_margin) >= 0.0


def _ulp_bracket_problem(**kwargs) -> PlanProblem:
    return PlanProblem(
        family=Family.TYPE_I,
        lambda0=FuzzyLife(226.12389721735386, 11306.194860867692),
        lambda1=FuzzyLife(128.04953223796946, 11306.194860867692),
        alpha=FuzzyLevel(0.05556972235188898, 0.05018441642375371),
        beta=FuzzyLevel(0.301613307223237, 0.10708950351147517),
        tau=68.26970389341486,
        objective_variant="etc_upper_bound",
        n_max=40,
        allow_t2_above_lambda0=True,
        **kwargs,
    )


def test_type1_floor_size_can_lower_z_lower_by_an_ulp():
    """Where a size below n_f reaches the floor at the relaxed levels, the
    loop's C(0) is c*tau at that size's floor point, and n_f's can round
    one ulp apart: here n_f's is c*tau itself, and the loop's one ulp above,
    both within the loop's own stop factor of 1 + 1e-9.  Every other field
    of the design is the loop's.  2 of 4,000 random problems like those of
    the property test above did this."""
    problem = _ulp_bracket_problem()
    design, loop = solve_plan(problem), _loop_design(problem, "cost_ascending")
    assert design.n == loop.n == problem.dominant_size == 9
    assert design.z_lower == problem.tau and loop.z_lower == math.nextafter(problem.tau, math.inf)
    assert _without_trace(replace(design, z_lower=loop.z_lower)) == _without_trace(loop)


@pytest.mark.parametrize("cost", [1e5, 1e6, 1e7, 1e8, 3e8])
def test_a_bracket_of_rounding_width_gives_the_cost_no_membership(cost):
    """At the problem above, scaled to a cost rate c, the floor size's
    bracket is one or two ulps of c*tau wide.  From c*tau of about 7e6 on,
    that span passed the absolute _MIN_SPAN of 1e-9, and `standard` solved
    a phi root over a span of rounding: its design took g margins of
    0.0165 to 0.0307 where the loop and `cost_ascending` take 0.0098.  The
    span is now read relative to z_upper, and the design is theirs."""
    problem = _ulp_bracket_problem(cost=cost)
    design = solve_plan(problem, membership_form="standard")
    assert 0.0 < design.z_upper - design.z_lower <= 2.0 * math.ulp(design.z_lower)
    loop = _loop_design(problem, "standard")
    assert _without_trace(replace(design, z_lower=loop.z_lower)) == _without_trace(loop)
    tight = solve_plan(problem)
    assert (design.t1, design.t2, design.g_margin) == (tight.t1, tight.t2, tight.g_margin)


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
@pytest.mark.parametrize("sd_form,n_f", [("n", 28), ("sqrt_n", 768)])
def test_readme_type1_solves_one_group_size(form, sd_form, n_f, monkeypatch):
    """The README Type-I problem reaches its floor c*tau first at n_f, 28
    under "n" and 768 under "sqrt_n": at n_max 10**5 n_f is solved alone,
    at the tight and relaxed levels, and functions are built for n_f and
    n_f - 1 only, whose floor test solves no point.  The README design's
    loop makes 45 crisp solves."""
    problem = _readme_type1(n_max=10**5, sd_form=sd_form)
    assert problem.dominant_size == n_f
    sizes, cuts = collections.Counter(), []
    functions, monotone = PlanProblem.functions, fuzzyopt.solve_monotone

    def counted_functions(self, n):
        sizes[n] += 1
        return functions(self, n)

    def counted(objective, g, h, box, alpha, beta):
        cuts.append((alpha, beta))
        return monotone(objective, g, h, box, alpha, beta)

    monkeypatch.setattr(PlanProblem, "functions", counted_functions)
    monkeypatch.setattr(fuzzyopt, "solve_monotone", counted)
    design = solve_plan(problem, membership_form=form)
    assert [n for n, *_ in design.trace] == [n_f] and design.n == n_f
    assert design.trace[0][3] == "floor" and design.objective_value == 50.0
    assert cuts == [(0.01, 0.01), (0.02, 0.02)]
    assert set(sizes) == {n_f - 1, n_f}
    if sd_form == "n" and form == "cost_ascending":
        cuts.clear()
        assert _without_trace(_loop_design(_readme_type1(), form)) == _without_trace(design)
        assert len(cuts) == 45


@pytest.mark.parametrize(
    "family,tried,floored",
    [
        (Family.RGSP_MIN, [10**5], {10**5}),
        (Family.RGSP_MAX, [1, 2, 3], {1, 2, 3, 4}),
        # n < 9 is infeasible, n = 28 reaches cost * tau
        (Family.TYPE_I, list(range(9, 29)), set(range(1, 30))),
    ],
    ids=["rgsp_min", "rgsp_max", "type1"],
)
def test_cost_floors_are_computed_as_the_loop_needs_them(family, tried, floored, monkeypatch):
    """At n_max 10**5 the loop computes no floor of a size it never
    reaches: `cost_floor` runs for each size solved, as the scale of its
    objective (`plan_functions`), and for the size after each one tried, as
    `least_floor_after`; so for no size past the last tried and the next,
    and for none more than twice.  A Type-I design solves its floor size
    alone, so its loop is run with no dominant size (`_loop_design`)."""
    if family is Family.TYPE_I:
        problem = PlanProblem(
            family=family,
            lambda0=FuzzyLife(300.0, 15000.0),
            lambda1=FuzzyLife(200.0, 15000.0),
            alpha=FuzzyLevel(0.01, 0.01),
            beta=FuzzyLevel(0.01, 0.01),
            tau=50.0,
            objective_variant="etc_upper_bound",
            n_max=10**5,
        )
    else:
        problem = _readme_problem(family, n_max=10**5)
    floors = []
    cost_floor = PlanProblem.cost_floor

    def counted(self, n):
        floors.append(n)
        return cost_floor(self, n)

    monkeypatch.setattr(PlanProblem, "cost_floor", counted)
    if family is Family.TYPE_I:
        design = _loop_design(problem, "cost_ascending")
    else:
        design = solve_plan(problem)
    assert [n for n, *_ in design.trace] == tried
    assert set(floors) == floored
    assert max(collections.Counter(floors).values()) <= 2


@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_bracket_is_the_least_optimum_over_the_sizes(family, crisp):
    """z_lower and z_upper are the least relaxed and the least tight crisp
    optimum over the sizes bracketed, each size solved here on its own."""
    problem = _stop_problem(family, crisp)
    alpha, beta = problem.alpha, problem.beta
    zb = zimmermann_bounds(problem)
    tight, relaxed = [], []
    for n in fuzzyopt._optima(zb.memo, 1.0):
        objective, g, h, box, _ = problem.functions(n)
        tight.append(fuzzyopt.solve_monotone(objective, g, h, box, alpha.level, beta.level)[1])
        relaxed.append(
            fuzzyopt.solve_monotone(objective, g, h, box, alpha.relaxed, beta.relaxed)[1]
        )
    assert zb.z_lower == min(map(min, tight, relaxed))
    assert zb.z_upper == min(map(max, tight, relaxed))


def _solve_with_optima_at_phi_star(problem, form, monkeypatch) -> tuple:
    """`solve_plan` under ``form``, and `_optima` at the cut of phi*, the
    root probe of largest s with C(s) + s*span <= z_upper; None where the
    max-phi solve made no probe."""
    probes = []  # (s, optima) per search strictly inside (0, 1)
    optima = fuzzyopt._optima

    def recorded_optima(memo, s):
        found = optima(memo, s)
        if 0.0 < s < 1.0:  # not the bracket's: a root probe, or phi* itself
            probes.append((s, found))
        return found

    monkeypatch.setattr(fuzzyopt, "_optima", recorded_optima)
    design = solve_plan(problem, FAST, form)
    monkeypatch.undo()
    span = design.z_upper - design.z_lower
    met = [(s, found) for s, found in probes
           if fuzzyopt._least_cost(found) + s * span - design.z_upper <= 0.0]
    return design, max(met, key=lambda probe: probe[0])[1] if met else None


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_bracket_sizes_are_the_trace_sizes(family, crisp, form, monkeypatch):
    """The trace lists the bracket's sizes, or under standard, where the
    max-phi solve probes, the sizes `_optima` returns at the cut of phi*."""
    problem = _stop_problem(family, crisp)
    design, at_phi_star = _solve_with_optima_at_phi_star(problem, form, monkeypatch)
    assert at_phi_star is None or form == "standard"
    tight = fuzzyopt._optima(zimmermann_bounds(problem).memo, 1.0)
    sizes = tight if at_phi_star is None else at_phi_star
    assert [n for n, *_ in design.trace] == list(sizes)


def test_standard_trace_is_the_search_at_phi_star(monkeypatch):
    """README lives at the default n_max 200: the trace is `_optima` at
    the cut of phi*, entry for entry, where it stops after n = 2, while the
    bracket, at the levels, tries n = 3 too."""
    problem = _readme_problem(Family.RGSP_MAX)
    design, at_phi_star = _solve_with_optima_at_phi_star(problem, "standard", monkeypatch)
    assert [(n, cost, case) for n, _, cost, case in design.trace] == [
        (n, cost, case) for n, (_, cost, case) in at_phi_star.items()
    ]
    assert list(at_phi_star) == [1, 2]
    assert list(fuzzyopt._optima(zimmermann_bounds(problem).memo, 1.0)) == [1, 2, 3]


@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_standard_design_costs_no_more_than_cost_ascending(family, crisp):
    """The cost_ascending design is the cheapest tight optimum, z_upper,
    and the standard design costs C(phi*) <= C(1) = z_upper."""
    problem = _stop_problem(family, crisp)
    tight = solve_plan(problem, FAST)
    design = solve_plan(problem, FAST, "standard")
    assert design.objective_value <= tight.objective_value
    assert (design.z_lower, design.z_upper) == (tight.z_lower, tight.z_upper)


def _margin_problems(seed: int, count: int):
    """Fuzzy problems of the four families in turn: lives near the
    README's, risk levels of 3 % to 10 % with 1 % to 6 % slack, and group
    sizes up to 6; some of them are infeasible."""
    rng = random.Random(seed)
    for i in range(count):
        family = list(Family)[i % 4]
        lambda0 = rng.uniform(250.0, 400.0)
        lambda1 = lambda0 * rng.uniform(0.1, 0.22)
        a = lambda0 * rng.uniform(3.0, 50.0)
        extra = {} if family is Family.SSP else {"n_max": rng.randint(1, 6)}
        if family is Family.TYPE_I:
            extra.update(tau=lambda1 * rng.uniform(0.5, 1.2), objective_variant="etc_upper_bound")
        yield PlanProblem(
            family=family,
            lambda0=FuzzyLife(lambda0, a),
            lambda1=FuzzyLife(lambda1, a),
            alpha=FuzzyLevel(rng.uniform(0.03, 0.1), rng.uniform(0.01, 0.06)),
            beta=FuzzyLevel(rng.uniform(0.03, 0.1), rng.uniform(0.01, 0.06)),
            **extra,
        )


def test_design_margins_are_never_negative():
    """Each margin is the risk's cut at s* less its value at the design
    point, which met that cut as evaluated, so none reads negative, not
    even by rounding.  Measured against the cut at the phi recomputed from
    the same value, 9 of these 163 standard designs once read -1.4e-17."""
    designs, families = [], collections.Counter()
    for problem in _margin_problems(seed=1, count=200):
        try:
            bracket = zimmermann_bounds(problem)
        except InfeasibleError:
            continue
        families[problem.family] += 1
        designs += [solve_max_phi(bracket, form) for form in fuzzyopt.MEMBERSHIP_FORMS]
    assert sum(families.values()) >= 150 and len(families) == 4
    negative = [d for d in designs if not (d.g_margin >= 0.0 and d.h_margin >= 0.0)]
    assert negative == []


@pytest.mark.parametrize("form", fuzzyopt.MEMBERSHIP_FORMS)
@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
@pytest.mark.parametrize("k", [1, 100, 170, 300])
def test_designs_at_every_scale_of_life(k, family, crisp, form):
    """lambda0 = 3e{k}, lambda1 = lambda0/6, a = 5*lambda0, tau = lambda0/3 and
    n_max 10: every family, fuzzy and crisp, gives a design with margins
    >= 0 and a finite cost.  From about 1e160 the slopes of a Brent
    extrapolation step multiply to 0 by underflow, where the solver must
    bisect, as scipy's brentq does, not divide."""
    lambda0 = 3.0 * 10.0 ** k
    problem = PlanProblem(
        family=family,
        lambda0=FuzzyLife(lambda0, 5.0 * lambda0),
        lambda1=FuzzyLife(lambda0 / 6.0, 5.0 * lambda0),
        alpha=FuzzyLevel(0.05, 0.05),
        beta=FuzzyLevel(0.05, 0.05),
        tau=lambda0 / 3.0 if family is Family.TYPE_I else None,
        n_max=10,
    )
    design = solve_plan(crisp_limit(problem) if crisp else problem, membership_form=form)
    assert design.g_margin >= 0.0 and design.h_margin >= 0.0
    assert math.isfinite(design.objective_value)


# A linear stand-in for a plan on the box [1, 10]^2 with the plans' monotone
# structure: g rises and h falls in both thresholds, and the cost, 1 on the
# diagonal, falls in t1 and rises in t2.
LINEAR_BOX = fuzzyopt.Box(1.0, 10.0)


def _linear_cost(x):
    return 1.0 + x[1] - x[0]


def _linear_g(x):
    return (x[0] + x[1]) / 40.0


def _linear_h(x):
    return 1.0 - (x[0] + 3.0 * x[1]) / 40.0


def _linear_nlp(h, alpha: float, beta: float) -> CrispNlp:
    return CrispNlp(_linear_cost, ((_linear_g, alpha), (h, beta)), LINEAR_BOX, ((0, 1),))


def test_solve_monotone_floor_balances_the_risks():
    """h(t, t) = 1 - t/10 meets 0.5 from t = 5 and g(t, t) = t/20 meets 0.4
    up to t = 8, so every diagonal point between costs the floor 1; the
    design is the one with g/0.4 = h/0.5, t = 2/(1/8 + 1/5)."""
    x, cost, case = fuzzyopt.solve_monotone(
        _linear_cost, _linear_g, _linear_h, LINEAR_BOX, 0.4, 0.5
    )
    assert case == "floor"
    assert x[0] == x[1] == pytest.approx(2.0 / (1.0 / 8.0 + 1.0 / 5.0), rel=1e-12)
    assert cost == 1.0
    assert _linear_g(x) / 0.4 == pytest.approx(_linear_h(x) / 0.5, rel=1e-12)


def test_solve_monotone_active_set():
    """With g <= 0.2 the diagonal band is empty (t_g = 4 < t_h = 5); on the
    curve h = 0.5, t2 = (20 - t1)/3, g reaches 0.2 at t1 = 2."""
    x, cost, case = fuzzyopt.solve_monotone(
        _linear_cost, _linear_g, _linear_h, LINEAR_BOX, 0.2, 0.5
    )
    assert case == "active"
    assert x == pytest.approx((2.0, 6.0), rel=1e-12)
    assert cost == pytest.approx(5.0, rel=1e-12)
    assert _linear_g(x) <= 0.2 and _linear_h(x) <= 0.5
    assert cost <= solve_crisp(_linear_nlp(_linear_h, 0.2, 0.5), FAST)[1] * (1.0 + 1e-9)


def test_solve_monotone_box_edge():
    """An h that depends on t2 alone and meets 0 only at t2 = hi = 10 puts
    the design on the box edge, where g = (t1 + 10)/40 reaches 0.3 at 2."""

    def h(x):
        return 1.0 - x[1] / 10.0

    x, cost, case = fuzzyopt.solve_monotone(_linear_cost, _linear_g, h, LINEAR_BOX, 0.3, 0.0)
    assert case == "edge"
    assert x == pytest.approx((2.0, 10.0), rel=1e-12)
    assert cost <= solve_crisp(_linear_nlp(h, 0.3, 0.0), FAST)[1] * (1.0 + 1e-9)


_SMALLEST_NORMAL = 2.2250738585072014e-308
# Risk values: the edges of (0, 1), subnormals, outside [0, 1], not finite.
_RISK_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.ulp(0.0), 1e-320, _SMALLEST_NORMAL, 1.0 - 2.0 ** -53,
                     1.0, 1.0 + 2.0 ** -52, -1e-300, math.inf, -math.inf, math.nan]),
    st.floats(0.0, 1.0),
    st.floats(),
)
# Levels in (0, 1]: 1 is a cut at level + slack = 1.
_CUT_LEVELS = st.one_of(
    st.sampled_from([1.0, 1.0 - 2.0 ** -53, 0.5, 0.05, math.ulp(0.0), _SMALLEST_NORMAL]),
    st.floats(0.0, 1.0, exclude_min=True),
)


def _log_odds_at(value: float, level: float) -> float:
    return fuzzyopt._log_odds_excess(lambda x: value, level)(1.0, 2.0)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(v=_RISK_VALUES, w=_RISK_VALUES, level=_CUT_LEVELS, steps=st.integers(-3, 3))
def test_log_odds_excess_has_the_sign_of_the_excess_and_does_not_fall(v, w, level, steps):
    """The roots' excess is finite, is <= 0 exactly where the risk is at or
    below its level as evaluated, reads a value that is not finite as
    infeasible, and does not fall as the risk rises (-inf and NaN apart,
    which read as infeasible).  Values a few ulps from the level, where
    the log-odds can round to the level's, are drawn too."""
    near = level
    for _ in range(abs(steps)):
        near = math.nextafter(near, math.copysign(math.inf, steps))
    values = (v, w, near)
    excesses = [_log_odds_at(value, level) for value in values]
    for value, excess in zip(values, excesses):
        assert math.isfinite(excess)
        assert (excess <= 0.0) == (math.isfinite(value) and value <= level)
    ordered = sorted((value, excess) for value, excess in zip(values, excesses)
                     if value == value and value != -math.inf)
    assert [excess for _, excess in ordered] == sorted(excess for _, excess in ordered)


@pytest.mark.parametrize("level", [1.0, 0.5, 0.05, math.ulp(0.0)])
def test_log_odds_excess_reads_a_plan_that_never_ends_as_infeasible(level):
    def never_ends(x):
        raise DegeneratePlanError("the plan never terminates: p_a + p_r = 0")

    assert fuzzyopt._log_odds_excess(never_ends, level)(1.0, 2.0) > 0.0


def test_log_t1_roots_return_the_box_edge_bit_for_bit():
    """A crisp `ssp` problem whose alpha is g at (lo, T(lo)), the first
    point of the curve h = beta, has its optimum on the lower edge t1 = lo.
    Its roots over t1 run on log t1, where exp(log(lo)) is not lo, yet the
    design has t1 == lo bit for bit and its case reads "edge"."""
    problem = PlanProblem(
        family=Family.SSP, lambda0=300.0, lambda1=5.0,
        alpha=FuzzyLevel(0.05, 0.0), beta=FuzzyLevel(0.05, 0.0),
    )
    _, g, h, box, _ = plan_functions(problem, None)
    lo, hi = box.lo, box.hi
    assert box.log_t1 and math.exp(math.log(lo)) != lo
    h_excess = fuzzyopt._log_odds_excess(h, problem.beta.level)
    first_t2 = fuzzyopt._last_met(lambda t2: h_excess(lo, t2), hi, lo)
    design = solve_plan(replace(problem, alpha=FuzzyLevel(g((lo, first_t2)), 0.0)))
    assert design.t1 == lo
    assert design.trace[0][3] == "edge"


def _rounding_noise(x) -> float:
    """A deterministic stand-in for rounding noise in [-0.5, 0.5): a hash of
    the bits of the point."""
    bits = struct.unpack("<2Q", struct.pack("<2d", *x))
    return (bits[0] * 2654435761 + bits[1]) % 1000003 / 1000003 - 0.5


def test_solve_monotone_falls_back_to_the_box_edge_where_a_bracket_is_unmet():
    """Each root T(t1) of the curve is bracketed by the points already
    solved: T(t1a) of the nearest t1a below t1 is the met end, once
    h(t1, T(t1a)) <= beta as evaluated.  With rounding noise of 1e-12 on h,
    that check fails at some neighbour as the outer root closes in; the
    solve then brackets from the box edge hi, and still returns the
    active-set point (2, 6) with both bounds met as evaluated."""
    hi = LINEAR_BOX.hi
    calls = []

    def h(x):
        value = _linear_h(x) + 1e-12 * _rounding_noise(x)
        calls.append((tuple(x), value))
        return value

    x, cost, case = fuzzyopt.solve_monotone(_linear_cost, _linear_g, h, LINEAR_BOX, 0.2, 0.5)
    fallbacks = [
        (t1, t2) for ((t1, t2), value), ((next_t1, next_t2), _) in zip(calls, calls[1:])
        if value > 0.5 and t2 != hi and (next_t1, next_t2) == (t1, hi)
    ]
    assert fallbacks
    assert case == "active"
    assert x == pytest.approx((2.0, 6.0), rel=1e-9)
    assert _linear_g(x) <= 0.2 and h(x) <= 0.5


def _linear_box(shift: float = 0.0) -> fuzzyopt.Box:
    """`LINEAR_BOX` with the roots that one risk answers in closed form,
    each moved by ``shift`` toward its unmet end: t_h = 10 (1 - beta),
    t_g = 20 alpha, and t1_min, where h(t1, 10) = beta, below the box."""
    return replace(
        LINEAR_BOX,
        t_h=lambda beta: 10.0 * (1.0 - beta) - shift,
        t_g=lambda alpha: 20.0 * alpha + shift,
        t1_min=lambda beta: 40.0 * (1.0 - beta) - 30.0,
    )


@pytest.mark.parametrize("alpha,case", [(0.4, "floor"), (0.2, "active")])
def test_solve_monotone_takes_a_guess_that_meets_its_bound(alpha, case):
    """With exact root guesses on the box, t_h, t_g and the least t1 on
    the curve each cost one evaluation, at the guess: the solve makes fewer
    evaluations than with Brent's roots and returns their design, to their
    tolerance."""
    calls = []

    def h(x):
        calls.append(tuple(x))
        return _linear_h(x)

    box = _linear_box()
    x, cost, got_case = fuzzyopt.solve_monotone(_linear_cost, _linear_g, h, box, alpha, 0.5)
    assert got_case == case
    assert [t for t, t2 in calls if t == t2][:2] == [10.0, 5.0]  # the corner, then t_h
    guessed_calls = len(calls)
    calls.clear()
    brent = fuzzyopt.solve_monotone(_linear_cost, _linear_g, h, LINEAR_BOX, alpha, 0.5)
    assert brent[2] == case and x == pytest.approx(brent[0], rel=1e-12)
    assert guessed_calls < len(calls)


def test_solve_monotone_falls_back_to_brent_where_a_guess_misses():
    """Guesses 1e-6 short of t_h and t_g, on the side where the bound is
    missed, fail their check and the nudge of 4 ulps: each root is then
    Brent's, bracketed from the met end to the nudged guess, and with
    rounding noise of 1e-12 on h the solve still returns the floor design,
    with both bounds met as evaluated."""
    calls = []

    def h(x):
        value = _linear_h(x) + 1e-12 * _rounding_noise(x)
        calls.append((tuple(x), value))
        return value

    box = _linear_box(shift=1e-6)
    x, cost, case = fuzzyopt.solve_monotone(_linear_cost, _linear_g, h, box, 0.4, 0.5)
    assert calls[1] == ((5.0 - 1e-6,) * 2, pytest.approx(0.5 + 1e-7, rel=1e-9))
    assert len([point for point, _ in calls if point[0] == point[1]]) > 4
    assert case == "floor"
    assert x[0] == x[1] == pytest.approx(2.0 / (1.0 / 8.0 + 1.0 / 5.0), rel=1e-9)
    assert _linear_g(x) <= 0.4 and h(x) <= 0.5


@pytest.mark.parametrize(
    "h,alpha,beta",
    [
        (_linear_h, 0.01, 0.5),  # g(lo, lo) = 0.05 > alpha
        (lambda x: 0.5 - (x[0] + 3.0 * x[1]) / 100.0, 0.4, 0.05),  # h(hi, hi) = 0.1 > beta
        (_linear_h, 0.1, 0.5),  # g = 0.183 where the curve h = beta starts, at t1 = lo
    ],
    ids=["g-corner", "h-corner", "curve"],
)
def test_solve_monotone_infeasible(h, alpha, beta):
    with pytest.raises(InfeasibleError) as excinfo:
        fuzzyopt.solve_monotone(_linear_cost, _linear_g, h, LINEAR_BOX, alpha, beta)
    assert excinfo.value.best_violation > 0.0
    with pytest.raises(InfeasibleError):
        solve_crisp(_linear_nlp(h, alpha, beta), FAST)


def test_readme_type1_design_is_the_balanced_floor():
    """The README Type-I problem reaches its floor c*tau = 50 at n = 28, on
    the diagonal band [235.33, 236.39]; the design is the band's point where
    g/alpha = h/beta."""
    problem = PlanProblem(
        family=Family.TYPE_I,
        lambda0=FuzzyLife(300.0, 15000.0),
        lambda1=FuzzyLife(200.0, 15000.0),
        alpha=FuzzyLevel(0.01, 0.01),
        beta=FuzzyLevel(0.01, 0.01),
        tau=50.0,
        objective_variant="etc_upper_bound",
    )
    design = solve_plan(problem)
    n, phi, cost, case = design.trace[-1]
    assert (n, phi, case) == (28, 1.0, "floor")
    assert design.n == 28
    assert cost == design.objective_value == pytest.approx(50.0, rel=1e-12)
    assert design.t1 == design.t2
    assert 235.33 <= design.t1 <= 236.39
    assert design.g_value / 0.01 == pytest.approx(design.h_value / 0.01, rel=1e-9)


def test_readme_ssp_design_is_an_active_set_point():
    design = solve_plan(_ssp_problem(1500.0))
    assert [case for *_, case in design.trace] == ["active"]
    assert design.g_margin == pytest.approx(0.0, abs=1e-15)
    assert design.h_margin == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_design_paths_run_no_grid(family, form, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a design path ran the grid solver")

    monkeypatch.setattr("reference.solve_crisp", no_grid)
    for crisp in (False, True):
        design = solve_plan(_family_problem(family, crisp), FAST, form)
        assert design.g_margin >= 0.0 and design.h_margin >= 0.0


_LEVELS = st.floats(0.01, 0.2)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    family=st.sampled_from(list(Family)),
    crisp=st.booleans(),
    n=st.integers(1, 12),
    lambda0=st.floats(200.0, 600.0),
    ratio=st.floats(0.15, 0.8),
    alpha=_LEVELS,
    beta=_LEVELS,
)
def test_solve_monotone_is_no_worse_than_the_grid(family, crisp, n, lambda0, ratio, alpha, beta):
    """On generated plan problems the monotone solve agrees with the grid
    scan and its SLSQP polish on feasibility, and costs no more.  The grid
    accepts a point up to 1e-6 over a level, so the costs are compared at
    the levels its point meets.  The grid scans the numpy model of the
    tests, so the two solves evaluate independent implementations."""
    problem = PlanProblem(
        family=family,
        lambda0=FuzzyLife(lambda0, 15.0 * lambda0),
        lambda1=FuzzyLife(ratio * lambda0, 15.0 * lambda0),
        alpha=FuzzyLevel(alpha, 0.0),
        beta=FuzzyLevel(beta, 0.0),
        tau=0.3 * lambda0,
    )
    grid_objective, grid_g, grid_h, box, ordering = plan_arrays(problem, n, crisp=crisp)
    nlp = CrispNlp(grid_objective, ((grid_g, alpha), (grid_h, beta)), box, ordering)
    objective, g, h, _, _ = plan_functions(problem, n, crisp=crisp)
    try:
        grid_x, grid_cost = solve_crisp(nlp, FAST)
    except InfeasibleError:
        with pytest.raises(InfeasibleError) as excinfo:
            fuzzyopt.solve_monotone(objective, g, h, box, alpha, beta)
        assert excinfo.value.best_violation > 0.0
        return
    met_alpha, met_beta = max(alpha, g(grid_x)), max(beta, h(grid_x))
    x, cost, _ = fuzzyopt.solve_monotone(objective, g, h, box, met_alpha, met_beta)
    assert cost <= grid_cost * (1.0 + 1e-9)
    assert g(x) <= met_alpha and h(x) <= met_beta


def test_both_roots_over_t1_run_on_log_t1_in_a_log_axis_box(monkeypatch):
    """In a box with ``log_t1`` that carries no guesses,
    the least t1 on the curve, which `_guessed` hands on, and the design's
    t1 are both roots on log t1; the roots over t2 stay on t."""
    problem = PlanProblem(
        family=Family.SSP, lambda0=300.0, lambda1=50.0,
        alpha=FuzzyLevel(0.05, 0.0), beta=FuzzyLevel(0.05, 0.0),
    )
    objective, g, h, box, _ = plan_functions(problem, None)
    assert box.log_t1
    calls, last_met = [], fuzzyopt._last_met

    def record(f, met, unmet, on_log=False):
        calls.append(on_log)
        return last_met(f, met, unmet, on_log)

    monkeypatch.setattr(fuzzyopt, "_last_met", record)
    bare = fuzzyopt.Box(box.lo, box.hi, log_t1=True)
    _, _, case = fuzzyopt.solve_monotone(objective, g, h, bare, 0.05, 0.05)
    assert case == "active"
    assert calls.count(True) == 2 and len(calls) > 2
