"""The four plan families as (objective, g, h) assemblies.

Each family exposes the expected testing cost over the long run together
with the long-run producer risk g (rejection probability at the acceptable
life) and consumer risk h (acceptance probability at the rejectable life).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError
from .fuzzyopt import DEFAULT_SOLVER, PlanDesign, SolverSettings, solve_plan
from .lifemodel import (
    Thresholds,
    expected_y,
    expected_y_upper_bound,
    expected_ymax,
    expected_ymax_upper_bound,
    expected_ymin,
    expected_ymin_upper_bound,
    long_run,
    rgsp_max_triprob,
    rgsp_min_triprob,
    ssp_triprob,
    typeI_triprob,
    weighted_survival,  # unused here; perfbench/tracing.py rebinds plans.weighted_survival
)
from .membership import FuzzyLevel, FuzzyLife

# Lower edge of the decision box; small enough to admit near-zero reject
# thresholds without hitting the survival function's limit guard.
_T_LO = 1e-6


class Family(str, Enum):
    SSP = "ssp"
    RGSP_MIN = "rgsp_min"
    RGSP_MAX = "rgsp_max"
    TYPE_I = "type1"


@dataclass(frozen=True)
class PlanProblem:
    family: Family
    lambda0: FuzzyLife
    lambda1: FuzzyLife
    alpha: FuzzyLevel
    beta: FuzzyLevel
    cost: float = 1.0
    tau: Optional[float] = None
    objective_variant: str = "etc_star"
    n_max: int = 200
    allow_t2_above_lambda0: bool = False
    sd_form: str = "n"

    def __post_init__(self) -> None:
        if not self.lambda0.lambda_j > self.lambda1.lambda_j:
            raise DomainError("acceptable life must exceed rejectable life")
        if self.lambda0.a != self.lambda1.a:
            raise DomainError("both fuzzy lives must share the fuzziness scale a")
        if not self.cost > 0:
            raise DomainError(f"cost rate must be positive, got {self.cost}")
        if self.family is Family.TYPE_I and self.tau is None:
            raise DomainError("Type-I plans require a censoring time tau")
        if self.objective_variant not in ("etc_star", "etc_upper_bound"):
            raise DomainError(f"unknown objective_variant {self.objective_variant!r}")
        if self.sd_form not in ("n", "sqrt_n"):
            raise DomainError(f"unknown sd_form {self.sd_form!r}")
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")


def _lives(p: PlanProblem, crisp: bool) -> tuple:
    """(acceptable, rejectable) life as the life model takes them: the
    nominal mean lives in the crisp limit."""
    if crisp:
        return p.lambda0.lambda_j, p.lambda1.lambda_j
    return p.lambda0, p.lambda1


def _thresholds(x) -> Thresholds:
    if isinstance(x[0], np.ndarray):
        return Thresholds(t1=x[0], t2=x[1])
    return Thresholds(t1=float(x[0]), t2=float(x[1]))


def _assemble(p: PlanProblem, lives: tuple, e0: float, stage):
    """(objective, g, h) over x = (t1, t2) from the (acceptable, rejectable)
    lives, the expected stage duration e0 under the acceptable life, and
    ``stage(life, thresholds) -> TriProb``.

    Each closure returns a float for a pair such as (t1, t2) and broadcasts
    over x stacked as (2, ...) arrays.
    """
    life0, life1 = lives

    def objective(x) -> float:
        return p.cost * e0 * long_run(stage(life0, _thresholds(x))).N

    def g(x) -> float:
        return long_run(stage(life0, _thresholds(x))).P_R

    def h(x) -> float:
        return long_run(stage(life1, _thresholds(x))).P_A

    return objective, g, h


def ssp_objective_and_constraints(p: PlanProblem, crisp: bool = False):
    """(objective, g, h) over (t1, t2) for the sequential plan."""
    lives = _lives(p, crisp)
    upper = p.objective_variant == "etc_upper_bound"
    e0 = (expected_y_upper_bound if upper else expected_y)(lives[0])
    return _assemble(p, lives, e0, ssp_triprob)


def rgsp_min_objective_and_constraints(p: PlanProblem, n: int, crisp: bool = False):
    """(objective, g, h) over (t1, t2) for the group-minimum plan of size n."""
    lives = _lives(p, crisp)
    upper = p.objective_variant == "etc_upper_bound"
    e0 = (expected_ymin_upper_bound if upper else expected_ymin)(lives[0], n)
    return _assemble(p, lives, e0, lambda f, th: rgsp_min_triprob(f, th, n))


def rgsp_max_objective_and_constraints(p: PlanProblem, n: int, crisp: bool = False):
    """(objective, g, h) over (t1, t2) for the group-maximum plan of size n."""
    lives = _lives(p, crisp)
    upper = p.objective_variant == "etc_upper_bound"
    e0 = (expected_ymax_upper_bound if upper else expected_ymax)(lives[0], n)
    return _assemble(p, lives, e0, lambda f, th: rgsp_max_triprob(f, th, n))


def typeI_objective_and_constraints(p: PlanProblem, n: int, crisp: bool = False):
    """(objective, g, h) over (t1, t2) for the censored-MLE plan of size n.

    The normal approximation already works with the nominal lives, so the
    crisp flag changes nothing here; the objective floor is cost * tau.
    """
    del crisp
    return _assemble(
        p,
        _lives(p, crisp=True),
        p.tau,
        lambda lam, th: typeI_triprob(lam, th, n, p.tau, sd_form=p.sd_form),
    )


def plan_functions(p: PlanProblem, n: Optional[int], crisp: bool = False):
    """Dispatch to the family's builders and attach the decision box.

    Returns (objective, g, h, box, ordering) over x = (t1, t2).
    """
    lam0 = p.lambda0.lambda_j
    if p.allow_t2_above_lambda0:
        hi = 5.0 * lam0
    elif p.family is Family.TYPE_I:
        hi = 2.0 * lam0
    else:
        hi = lam0
    box = ((_T_LO, hi), (_T_LO, hi))
    ordering = ((0, 1),)
    if p.family is Family.SSP:
        fns = ssp_objective_and_constraints(p, crisp)
    elif p.family is Family.RGSP_MIN:
        fns = rgsp_min_objective_and_constraints(p, n, crisp)
    elif p.family is Family.RGSP_MAX:
        fns = rgsp_max_objective_and_constraints(p, n, crisp)
    elif p.family is Family.TYPE_I:
        fns = typeI_objective_and_constraints(p, n, crisp)
    else:
        raise DomainError(f"unknown family {p.family!r}")
    return (*fns, box, ordering)


def crisp_baseline(
    p: PlanProblem,
    settings: SolverSettings = DEFAULT_SOLVER,
    membership_form: str = "cost_ascending",
) -> PlanDesign:
    """Same pipeline in the infinite-sharpness limit: pure exponential model,
    zero-slack risk levels.  Used for fuzzy-to-crisp convergence reporting."""
    return solve_plan(p, settings, membership_form=membership_form, crisp=True)
