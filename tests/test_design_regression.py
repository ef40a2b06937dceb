"""No design gets worse than the multi-start Nelder-Mead solver's.

The literals are the costs that solver reached (32 restarts, seed 42) on
the README `ssp` design, fuzzy and crisp, and on one small group-size
problem per grouped family.  `solve_monotone`, the one solver, draws no
random numbers, so its design must also be the same for every seed.  Under the
`standard` membership no design may reach a lower phi or a higher cost
than the two-stage max-phi solver did.
"""

import pytest

from asplan.fuzzyopt import SolverSettings, solve_plan
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.plans import Family, PlanProblem, crisp_baseline

README = dict(
    lambda0=FuzzyLife(300.0, 1500.0),
    lambda1=FuzzyLife(50.0, 1500.0),
    alpha=FuzzyLevel(0.05, 0.05),
    beta=FuzzyLevel(0.05, 0.05),
)
CENSORED = dict(
    lambda0=FuzzyLife(500.0, 15000.0),
    lambda1=FuzzyLife(150.0, 15000.0),
    alpha=FuzzyLevel(0.05, 0.05),
    beta=FuzzyLevel(0.05, 0.05),
    tau=100.0,
)

CASES = [
    ("ssp", PlanProblem(family=Family.SSP, **README), False, 656.4470463428371),
    ("ssp-crisp", PlanProblem(family=Family.SSP, **README), True, 654.1616582612708),
    ("rgsp_min", PlanProblem(family=Family.RGSP_MIN, n_max=3, **README), False, 218.81568201748),
    ("rgsp_max", PlanProblem(family=Family.RGSP_MAX, n_max=3, **README), False, 603.8212616028774),
    ("type1", PlanProblem(family=Family.TYPE_I, n_max=6, **CENSORED), False, 102.2630202586844),
]


def _design(problem, crisp, seed):
    settings = SolverSettings(restarts=32, seed=seed)
    return crisp_baseline(problem, settings) if crisp else solve_plan(problem, settings)


@pytest.mark.parametrize("problem,crisp,cost", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_design_is_no_worse_and_seed_free(problem, crisp, cost):
    design = _design(problem, crisp, seed=1)
    assert design.objective_value <= cost * (1.0 + 1e-9)
    assert design.g_margin >= -1e-6
    assert design.h_margin >= -1e-6
    assert _design(problem, crisp, seed=42) == design


@pytest.mark.parametrize(
    "problem",
    [CASES[0][1], CASES[2][1], CASES[3][1], CASES[4][1]],
    ids=["ssp", "rgsp_min", "rgsp_max", "type1"],
)
def test_max_min_design_is_the_tight_optimum(problem):
    """Under the default cost_ascending membership the objective's
    membership reaches 1 at z_upper, the tight optimum, where both risk
    memberships are 1 as well; so that point is fully satisfied and the
    max-min design is the tight optimum itself."""
    design = solve_plan(problem, SolverSettings(restarts=32))
    assert design.phi >= 1.0 - 1e-9
    assert design.objective_value == pytest.approx(design.z_upper, rel=1e-9)


# (phi, cost) that the two-stage max-phi solver (maximize phi, then minimize
# cost at phi* - 5e-10) reached on `standard` designs at 32 restarts.  The
# rgsp_max pair is the design under one bracket for all group sizes, n = 2;
# per-size brackets gave n = 3 at (0.6018272292265983, 573.1826889306643),
# a phi measured against that size's own bracket.
STANDARD_CASES = [
    ("ssp", CASES[0][1], 0.5569589450004481, 553.2554970001488),
    ("rgsp_max", CASES[3][1], 0.5073941698061579, 524.022166892236),
    ("type1", CASES[4][1], 0.7688798005853399, 100.52302968924462),
]


@pytest.mark.parametrize(
    "problem,phi,cost", [c[1:] for c in STANDARD_CASES], ids=[c[0] for c in STANDARD_CASES]
)
def test_standard_design_is_no_worse(problem, phi, cost):
    design = solve_plan(problem, SolverSettings(restarts=32), membership_form="standard")
    assert design.phi >= phi - 1e-9
    assert design.objective_value <= cost * (1.0 + 1e-9)
    assert design.g_margin >= -1e-6
    assert design.h_margin >= -1e-6
