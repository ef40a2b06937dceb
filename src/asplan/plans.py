"""The four plan families as (objective, g, h) assemblies.

Each family exposes the expected testing cost over the long run together
with the long-run producer risk g (rejection probability at the acceptable
life) and consumer risk h (acceptance probability at the rejectable life).
Each family's one-stage law (`stage_law`) is chosen here alone, for the
solver and the table recheck: a PlanProblem hands the solver its group
sizes, per group size its plan functions and the least cost floor of the
sizes after it, and the size that dominates the others where the family's
structure proves one (`PlanProblem.dominates`).  The crisp baseline is the
same problem with plain mean lives and zero-slack risk levels
(`crisp_limit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .errors import DomainError
from .fuzzyopt import (
    DEFAULT_SOLVER,
    Box,
    PlanDesign,
    SolverSettings,
    reaches_floor,
    solve_plan,
)
from .lifemodel import (
    SD_FORMS,
    Life,
    check_group_size,
    check_tau,
    expected_y,
    expected_y_upper_bound,
    harmonic_number,
    long_run_rates,
    rgsp_max_law,
    rgsp_min_law,
    ssp_law,
    typeI_floor_size,
    typeI_law,
)
from .lifemodel import (  # unused here; perfbench/tracing.py rebinds these plans names
    rgsp_max_triprob,
    rgsp_min_triprob,
    ssp_triprob,
    typeI_triprob,
    weighted_survival,
)
from .membership import FuzzyLevel, FuzzyLife

# Lower edge of the decision box, small enough to admit near-zero reject
# thresholds; t > 0 keeps every survival evaluation inside its domain.
_T_LO = 1e-6

OBJECTIVE_VARIANTS = ("etc_star", "etc_upper_bound")


class Family(str, Enum):
    SSP = "ssp"
    RGSP_MIN = "rgsp_min"
    RGSP_MAX = "rgsp_max"
    TYPE_I = "type1"


def _mean(life: Life) -> float:
    """The nominal mean life of a fuzzy or a plain life."""
    return life.lambda_j if isinstance(life, FuzzyLife) else life


@dataclass(frozen=True)
class PlanProblem:
    """One design problem.  The lives are both FuzzyLife with the same
    fuzziness scale, or both plain positive mean lives (the crisp limit)."""

    family: Family
    lambda0: Life
    lambda1: Life
    alpha: FuzzyLevel
    beta: FuzzyLevel
    cost: float = 1.0
    tau: Optional[float] = None
    objective_variant: str = "etc_star"
    n_max: int = 200
    allow_t2_above_lambda0: bool = False
    sd_form: str = "n"

    def __post_init__(self) -> None:
        fuzzy = isinstance(self.lambda0, FuzzyLife)
        if fuzzy != isinstance(self.lambda1, FuzzyLife):
            raise DomainError("both lives must be fuzzy or both plain mean lives")
        if fuzzy and self.lambda0.a != self.lambda1.a:
            raise DomainError("both fuzzy lives must share the fuzziness scale a")
        if not 0 < _mean(self.lambda1) < _mean(self.lambda0) < math.inf:
            raise DomainError(
                "need finite mean lives with 0 < rejectable < acceptable, got "
                f"{_mean(self.lambda1)} and {_mean(self.lambda0)}"
            )
        if not 0 < self.cost < math.inf:
            raise DomainError(f"cost rate must be positive and finite, got {self.cost}")
        if self.family is Family.TYPE_I:
            check_tau(self.tau)
        if self.objective_variant not in OBJECTIVE_VARIANTS:
            raise DomainError(f"unknown objective_variant {self.objective_variant!r}")
        if self.sd_form not in SD_FORMS:
            raise DomainError(f"unknown sd_form {self.sd_form!r}")
        check_group_size(self.n_max, "n_max")

    @property
    def group_sizes(self):
        """The group sizes to search; None for the sequential plan."""
        return (None,) if self.family is Family.SSP else range(1, self.n_max + 1)

    def cost_floor(self, n: Optional[int]) -> float:
        """A cost no design of group size n goes below: the objective at
        N = 1, as no plan runs fewer than one stage, and the scale of the
        objective that `plan_functions` builds, which is this floor times N.
        It is cost * tau for Type-I plans, and rises with n for rgsp_max and
        falls for rgsp_min.  It calls no `plan_functions`, so that only
        solved sizes build them."""
        upper = self.objective_variant == "etc_upper_bound"
        return self.cost * expected_stage_duration(self.family, self.lambda0, n, upper, self.tau)

    def least_floor_after(self, n: Optional[int]) -> float:
        """The least `cost_floor` of the group sizes after n; inf after the
        last.  The floor is monotone in n, and so is each of its rounded
        factors: H_n (a correctly rounded sum) times E[Y] rises for rgsp_max,
        E[Y]/n falls for rgsp_min and c*tau is constant for Type-I plans.  So
        the least later floor is the next size's for rgsp_max and Type-I
        plans and n_max's for rgsp_min, the same double as the least of them
        all, from one `cost_floor` call."""
        if n is None or n >= self.n_max:
            return math.inf
        return self.cost_floor(self.n_max if self.family is Family.RGSP_MIN else n + 1)

    @property
    def dominant_size(self) -> Optional[int]:
        """A group size that is the cheapest at any cut where its crisp
        optimum passes `dominates`: n_max for rgsp_min, and for Type-I plans
        n_f, the least size whose floor c*tau is reachable at the levels,
        t_h(n) = Q_A(lambda1, beta) <= t_g(n) = Q_R(lambda0, alpha).  m(n)
        rises with n, so below 1/2 t_h falls and t_g rises with n: the sizes
        that reach the floor are those from n_f = ceil(`typeI_floor_size`)
        on.  None where n_f > n_max, where a cut is 1/2 or above, or where
        rounding lets n_f - 1 reach the floor as evaluated (`reaches_floor`)."""
        if self.family is Family.RGSP_MIN:
            return self.n_max
        if self.family is not Family.TYPE_I or max(self.alpha.relaxed, self.beta.relaxed) >= 0.5:
            return None
        alpha, beta = self.alpha.level, self.beta.level
        size = typeI_floor_size(_mean(self.lambda0), _mean(self.lambda1), self.tau, alpha, beta,
                                self.sd_form)
        if not size <= self.n_max:
            return None
        n = math.ceil(size)
        return None if n > 1 and reaches_floor(*self.functions(n - 1)[1:4], alpha, beta) else n

    def dominates(self, optimum: tuple) -> bool:
        """Whether a crisp optimum (x, cost, case) of `dominant_size`, at
        some cut of the risk levels, costs no more than every other size's
        optimum at that cut, and less than every smaller size's at the
        levels: for rgsp_min whenever its case is not ``"edge"``, and for
        Type-I plans whenever it is ``"floor"``.

        The rgsp_min risks depend on u = n*t only, and its cost is
        c*E[Y]/n*N(u): on the box [n*lo, n*hi] in u, size n is the `ssp`
        problem with its cost divided by n.  For a smaller size n, the hull
        box [n*lo, n_max*hi] holds size n's box and n_max's, so u* = n_max*x
        too.  Unless the case is ``"edge"``, no root of `solve_monotone`
        sits on n_max's box, so u* is the `ssp` optimum over any box that
        holds it, the hull's included: in the ``"floor"`` case N = 1, which
        no point goes below, and in the ``"active"`` case every cheaper
        point breaks a risk.  So size n costs at least n_max/n times as
        much, up to rounding far below that factor.  An ``"edge"`` optimum
        takes a level that only the box's edge meets, such as alpha equal
        to g at (lo, T(lo)) where h(lo, hi) <= beta.

        A Type-I ``"floor"`` optimum costs c*tau, every size's least cost
        at every cut, at N = 1 up to rounding: so C(s) = c*tau, the
        bracket's span is 0 and s* = 1.  At the levels every smaller size
        misses the floor (`dominant_size`), so its optimum has N > 1.
        """
        return optimum[2] == "floor" if self.family is Family.TYPE_I else optimum[2] != "edge"

    def functions(self, n: Optional[int]):
        """(objective, g, h, box, ordering) for group size n."""
        return plan_functions(self, n)


def crisp_limit(p: PlanProblem) -> PlanProblem:
    """The problem in the infinite-sharpness limit: plain mean lives (the
    pure exponential model) and zero-slack risk levels."""
    return replace(
        p,
        lambda0=_mean(p.lambda0),
        lambda1=_mean(p.lambda1),
        alpha=FuzzyLevel(p.alpha.level, 0.0),
        beta=FuzzyLevel(p.beta.level, 0.0),
    )


def _upper_edge(p: PlanProblem) -> float:
    """The upper edge of the threshold box, on both axes."""
    lam0 = _mean(p.lambda0)
    if p.allow_t2_above_lambda0:
        return 5.0 * lam0
    return 2.0 * lam0 if p.family is Family.TYPE_I else lam0


def expected_stage_duration(
    family: Family, life: Life, n: Optional[int], upper: bool, tau: Optional[float] = None
) -> float:
    """Expected duration of one stage under ``life``, or its analytic upper
    bound when ``upper``: the censoring time tau for Type-I plans, else the
    mean inter-failure time E[Y] for the sequential plan, E[Y]/n for the group
    minimum and H_n E[Y] (H_n the n-th harmonic number) for the group maximum."""
    if family is Family.TYPE_I:
        return tau
    mean = (expected_y_upper_bound if upper else expected_y)(life)
    if family is Family.SSP:
        return mean
    check_group_size(n)
    return mean / n if family is Family.RGSP_MIN else harmonic_number(n) * mean


def stage_law(family: Family, n: Optional[int] = None, tau: Optional[float] = None,
              sd_form: str = "n"):
    """The law (life, t1, t2) -> (p_a, p_r, p_c) of one stage of a family
    with group size n (None for the sequential plan), over plain floats.
    The group size, tau and sd_form are checked here, once; the law checks
    the thresholds and the probabilities at each evaluation.  The Type-I
    normal approximation sees the nominal mean life alone.

    In every family p_a depends on t2 alone and p_r on t1 alone: the law
    is built from the two as its tails ``accept(life, t)`` and
    ``reject(life, t)``, which it carries with their closed-form quantiles
    ``accept_quantile(life, q)`` and ``reject_quantile(life, q)``, the t
    with p_a = q and with p_r = q.  The laws are read from this module's
    globals, so rebinding them here reaches every law built afterwards.
    """
    family = Family(family)
    if family is Family.SSP:
        return ssp_law
    if family is Family.RGSP_MIN:
        return rgsp_min_law(n)
    if family is Family.RGSP_MAX:
        return rgsp_max_law(n)
    return typeI_law(n, tau, sd_form)


def plan_functions(p: PlanProblem, n: Optional[int], crisp: bool = False):
    """(objective, g, h, box, ordering) over x = (t1, t2) for group size n
    (None for the sequential plan); ``crisp`` builds them for crisp_limit(p).

    Each closure returns a float for one pair such as (t1, t2): the
    family's `stage_law` and `long_run_rates` over plain floats, with no
    value object built per evaluation.  The objective is the problem's
    `cost_floor` times the expected stage count N, so the floor that stops
    the group-size loop is the objective at N = 1 by construction.

    The `Box` has ``log_t1`` for the lifetime families: their p_r vanishes
    as a power of t1 at 0, so the log-odds of g and h is near linear in
    log t1, and `solve_monotone` finds its roots over t1 there.  The Type-I
    normal approximation has p_r(0+) = Phi(-m) > 0, and its t1 axis stays
    linear.

    The box carries guesses of three of `solve_monotone`'s roots, from the
    law's tail quantiles.  h <= beta is p_a <= k p_r at lambda1, k =
    beta/(1 - beta), so the least t1 with h(t1, hi) <= beta is
    Q_R(p_a(hi)/k).  On the diagonal p_c = 0 and p_a + p_r = 1 up to
    rounding, so h(t, t) = p_a(t) at lambda1, g(t, t) = p_r(t) at lambda0,
    t_h = Q_A(beta) and t_g = Q_R(alpha), at which g first exceeds alpha.
    """
    if crisp:
        p = crisp_limit(p)
    hi = _upper_edge(p)
    ordering = ((0, 1),)
    life0, life1 = p.lambda0, p.lambda1
    law = stage_law(p.family, n, p.tau, p.sd_form)
    box = Box(
        _T_LO, hi, log_t1=p.family is not Family.TYPE_I,
        t_h=lambda beta: law.accept_quantile(life1, beta),
        t_g=lambda alpha: law.reject_quantile(life0, alpha),
        t1_min=lambda beta: law.reject_quantile(
            life1, law.accept(life1, hi) * (1.0 - beta) / beta),
    )
    scale = p.cost_floor(n)

    def objective(x) -> float:
        p_a, p_r, _ = law(life0, float(x[0]), float(x[1]))
        return scale * long_run_rates(p_a, p_r)[2]

    def g(x) -> float:
        p_a, p_r, _ = law(life0, float(x[0]), float(x[1]))
        return long_run_rates(p_a, p_r)[1]

    def h(x) -> float:
        p_a, p_r, _ = law(life1, float(x[0]), float(x[1]))
        return long_run_rates(p_a, p_r)[0]

    return objective, g, h, box, ordering


def crisp_baseline(
    p: PlanProblem,
    settings: SolverSettings = DEFAULT_SOLVER,
    membership_form: str = "cost_ascending",
) -> PlanDesign:
    """The design of crisp_limit(p), for fuzzy-to-crisp convergence
    reporting.  Nothing reads ``settings``; it goes with `SolverSettings`."""
    return solve_plan(crisp_limit(p), settings, membership_form=membership_form)
