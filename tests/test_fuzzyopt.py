import collections
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asplan import fuzzyopt
from asplan.errors import DomainError, InfeasibleError
from asplan.fuzzyopt import SolverSettings, solve_max_phi, solve_plan, zimmermann_bounds
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
    design = solve_max_phi(zb, p.alpha, p.beta, "cost_ascending")
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
    design = solve_max_phi(zb, p.alpha, p.beta, "standard")
    assert design.objective_value <= zb.z_upper * (1.0 + 1e-6)
    assert design.g_value <= p.alpha.relaxed + 1e-6
    assert design.h_value <= p.beta.relaxed + 1e-6


def test_crisp_limit_of_max_phi():
    alpha = FuzzyLevel(0.05, 0.0)
    beta = FuzzyLevel(0.05, 0.0)
    zb = zimmermann_bounds(replace(_ssp_problem(15000.0), alpha=alpha, beta=beta))
    design = solve_max_phi(zb, alpha, beta)
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
    assert [n for n, *_ in design.trace] == [1, 2, 3]


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
    relaxed solve only."""
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
    assert [n for n, *_ in design.trace] == [1, 2, 3]
    per_size = {size_of[g]: count for g, count in solves.items()}
    assert per_size == {n: calls[(n, "objective")] for n in (1, 2, 3)}
    if form == "cost_ascending":
        assert per_size == {1: 2, 2: 2, 3: 2}
    else:
        assert min(per_size.values()) > 2


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
    the full loop's, and its trace a prefix of the full loop's.  Both forms
    stop at the same size, as the stop does not look at phi."""
    problem = _stop_problem(family, crisp)
    design = solve_plan(problem, FAST, form)
    if family is Family.TYPE_I:
        tried = [5, 6, 7]  # n < 5 is infeasible, n = 7 reaches cost * tau
    else:
        tried = [1, 2, 3]
    assert [n for n, *_ in design.trace] == tried
    monkeypatch.setattr(PlanProblem, "cost_floor", lambda self, n: 0.0)
    full = solve_plan(problem, FAST, form)
    assert design == full
    assert design.trace == full.trace[: len(design.trace)]
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
    assert [n for n, *_ in design.trace] == [1, 2, 3]
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


@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_bracket_is_the_least_optimum_over_the_sizes(family, crisp):
    """z_lower and z_upper are the least relaxed and the least tight crisp
    optimum over the sizes bracketed, each size solved here on its own."""
    problem = _stop_problem(family, crisp)
    alpha, beta = problem.alpha, problem.beta
    zb = zimmermann_bounds(problem)
    tight, relaxed = [], []
    for n in zb.sizes:
        objective, g, h, box, _ = problem.functions(n)
        tight.append(fuzzyopt.solve_monotone(objective, g, h, box, alpha.level, beta.level)[1])
        relaxed.append(
            fuzzyopt.solve_monotone(objective, g, h, box, alpha.relaxed, beta.relaxed)[1]
        )
    assert zb.z_lower == min(map(min, tight, relaxed))
    assert zb.z_upper == min(map(max, tight, relaxed))


@pytest.mark.parametrize("form", ["cost_ascending", "standard"])
@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_bracket_sizes_are_the_trace_sizes(family, crisp, form):
    problem = _stop_problem(family, crisp)
    design = solve_plan(problem, FAST, form)
    assert list(zimmermann_bounds(problem).sizes) == [n for n, *_ in design.trace]


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


# A linear stand-in for a plan on the box [1, 10]^2 with the plans' monotone
# structure: g rises and h falls in both thresholds, and the cost, 1 on the
# diagonal, falls in t1 and rises in t2.
LINEAR_BOX = ((1.0, 10.0), (1.0, 10.0))


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
