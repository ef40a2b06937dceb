"""Constrained derivative-free optimization and the fuzzy-to-crisp pipeline.

The solver is multi-start Nelder-Mead with an exterior quadratic penalty and
escalating weights.  On top of it sits the max-min satisfaction method:
bracket the objective between the tight and the relaxed crisp optima, then
maximize the minimum membership across the objective and both risk
constraints, and finally minimize cost at that satisfaction level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import ConsistencyError, DegeneratePlanError, DomainError, InfeasibleError
from .membership import FuzzyLevel

# Objective value substituted when evaluation fails (degenerate plan, bad point).
_BIG = 1e30
# Slope of the pseudo-membership used for zero-slack (crisp) levels; steep
# enough to force the constraint, shallow enough for the penalty to guide.
_CRISP_RAMP = 1e6
_PHI_TOL = 1e-9
# Exterior penalty: the weight starts at _PENALTY_WEIGHT0 and grows by
# _PENALTY_GROWTH over _PENALTY_STAGES Nelder-Mead runs per start.
_PENALTY_WEIGHT0 = 100.0
_PENALTY_GROWTH = 30.0
_PENALTY_STAGES = 5
_XATOL = 1e-9
_FATOL = 1e-12
_MAX_ITER = 600
# Largest constraint violation a point may have and still count as feasible.
_FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class SolverSettings:
    restarts: int = 32
    seed: int = 42

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise DomainError(f"restarts must be >= 1, got {self.restarts}")


DEFAULT_SOLVER = SolverSettings()


@dataclass(frozen=True)
class CrispNlp:
    """Minimize objective(x) subject to constraint(x) <= bound, box bounds,
    and pairwise ordering x[i] <= x[j]."""

    objective: Callable[[np.ndarray], float]
    constraints: tuple  # of (callable, upper bound)
    box: tuple  # of (lo, hi)
    ordering: tuple = ()  # of (i, j) meaning x[i] <= x[j]


@dataclass(frozen=True)
class MaxPhiProblem:
    objective_fn: Callable[[np.ndarray], float]
    g_fn: Callable[[np.ndarray], float]
    h_fn: Callable[[np.ndarray], float]
    z_lower: float
    z_upper: float
    alpha: FuzzyLevel
    beta: FuzzyLevel
    box: tuple
    ordering: tuple = ()
    membership_form: str = "cost_ascending"
    extra_starts: tuple = ()

    def __post_init__(self) -> None:
        if self.membership_form not in ("cost_ascending", "standard"):
            raise DomainError(f"unknown membership_form {self.membership_form!r}")
        if not self.z_upper >= self.z_lower:
            raise ConsistencyError(
                f"z_upper={self.z_upper} below z_lower={self.z_lower}"
            )


@dataclass(frozen=True)
class PlanDesign:
    t1: float
    t2: float
    n: Optional[int]
    phi: float
    objective_value: float
    g_value: float
    h_value: float
    g_margin: float
    h_margin: float
    z_lower: float
    z_upper: float
    trace: tuple = field(default=(), compare=False)


def _safe_eval(fn: Callable[[np.ndarray], float], x: np.ndarray) -> float:
    try:
        value = float(fn(x))
    except (DomainError, DegeneratePlanError, OverflowError, ZeroDivisionError):
        return _BIG
    if not math.isfinite(value):
        return _BIG
    return value


def _violation(nlp: CrispNlp, x: np.ndarray) -> float:
    worst = 0.0
    for fn, bound in nlp.constraints:
        value = _safe_eval(fn, x)
        worst = max(worst, value - bound)
    for i, j in nlp.ordering:
        worst = max(worst, x[i] - x[j])
    for k, (lo, hi) in enumerate(nlp.box):
        worst = max(worst, lo - x[k], x[k] - hi)
    return max(0.0, worst)


def solve_crisp(
    nlp: CrispNlp,
    settings: SolverSettings = DEFAULT_SOLVER,
    extra_starts: Sequence[Sequence[float]] = (),
) -> tuple[np.ndarray, float]:
    """Best feasible point across seeded multi-start penalized Nelder-Mead.

    Deterministic for a fixed seed.  Raises InfeasibleError when no start
    reaches constraint violation <= _FEASIBILITY_TOL.
    """
    rng = np.random.default_rng(settings.seed)
    lo = np.array([b[0] for b in nlp.box], dtype=float)
    hi = np.array([b[1] for b in nlp.box], dtype=float)
    dim = len(nlp.box)
    starts = [np.clip(np.asarray(s, dtype=float), lo, hi) for s in extra_starts]
    starts += [lo + rng.random(dim) * (hi - lo) for _ in range(settings.restarts)]

    # Normalize the objective so penalty weights mean the same thing whether
    # costs are ~50 or ~10^6.
    samples = [v for v in (_safe_eval(nlp.objective, s) for s in starts) if v < _BIG]
    fscale = 1.0 + (float(np.median(np.abs(samples))) if samples else 0.0)

    def penalized(x: np.ndarray, weight: float) -> float:
        xc = np.clip(x, lo, hi)
        total = _safe_eval(nlp.objective, xc) / fscale
        for fn, bound in nlp.constraints:
            excess = _safe_eval(fn, xc) - bound
            if excess > 0.0:
                total += weight * excess * excess
        for i, j in nlp.ordering:
            gap = x[i] - x[j]
            if gap > 0.0:
                total += weight * gap * gap
        return total

    bounds = list(zip(lo, hi))
    best_x = None
    best_f = math.inf
    least_bad_x = None
    least_bad = math.inf
    for start in starts:
        x = start
        weight = _PENALTY_WEIGHT0
        for _ in range(_PENALTY_STAGES):
            result = minimize(
                penalized,
                x,
                args=(weight,),
                method="Nelder-Mead",
                bounds=bounds,
                options={"xatol": _XATOL, "fatol": _FATOL, "maxiter": _MAX_ITER},
            )
            x = np.clip(result.x, lo, hi)
            weight *= _PENALTY_GROWTH
        viol = _violation(nlp, x)
        value = _safe_eval(nlp.objective, x)
        if viol <= _FEASIBILITY_TOL:
            if value < best_f:
                best_f, best_x = value, x
        elif viol < least_bad:
            least_bad, least_bad_x = viol, x
    if best_x is None:
        raise InfeasibleError(
            f"no feasible point found across {len(starts)} starts "
            f"(best violation {least_bad:.3e})",
            best_point=least_bad_x,
            best_violation=least_bad,
        )
    return best_x, best_f


@dataclass(frozen=True)
class ZBounds:
    z_lower: float
    z_upper: float
    tight_x: tuple
    relaxed_x: tuple
    tight_value: float
    relaxed_value: float


def zimmermann_bounds(
    objective: Callable[[np.ndarray], float],
    g: Callable[[np.ndarray], float],
    h: Callable[[np.ndarray], float],
    alpha: FuzzyLevel,
    beta: FuzzyLevel,
    box: tuple,
    ordering: tuple = (),
    settings: SolverSettings = DEFAULT_SOLVER,
) -> ZBounds:
    """Objective values of the tight and the slack-relaxed crisp problems.

    The relaxed solve reuses the tight argmin as a start, so the larger
    feasible set can never report a worse value.
    """
    tight = CrispNlp(objective, ((g, alpha.level), (h, beta.level)), box, ordering)
    tight_x, tight_value = solve_crisp(tight, settings)
    relaxed = CrispNlp(objective, ((g, alpha.relaxed), (h, beta.relaxed)), box, ordering)
    relaxed_x, relaxed_value = solve_crisp(relaxed, settings, extra_starts=(tight_x,))
    if relaxed_value > tight_value + _FEASIBILITY_TOL * (1.0 + abs(tight_value)):
        raise ConsistencyError(
            f"relaxed optimum {relaxed_value} exceeds tight optimum {tight_value}"
        )
    return ZBounds(
        z_lower=min(tight_value, relaxed_value),
        z_upper=max(tight_value, relaxed_value),
        tight_x=tuple(tight_x),
        relaxed_x=tuple(relaxed_x),
        tight_value=tight_value,
        relaxed_value=relaxed_value,
    )


def _level_ramp(level: FuzzyLevel, value: float) -> float:
    """Membership of a risk value, extended below 0 so the penalty sees a slope."""
    if level.slack > 0.0:
        return (level.relaxed - value) / level.slack
    return 1.0 - (value - level.level) * _CRISP_RAMP


def _memberships(p: MaxPhiProblem) -> tuple:
    """Extended (unclipped) membership functions: risk constraints always,
    objective only when the bracket is non-degenerate."""
    fns = [
        lambda x: _level_ramp(p.alpha, _safe_eval(p.g_fn, x)),
        lambda x: _level_ramp(p.beta, _safe_eval(p.h_fn, x)),
    ]
    span = p.z_upper - p.z_lower
    if span >= 1e-9:
        if p.membership_form == "cost_ascending":
            fns.append(lambda x: (_safe_eval(p.objective_fn, x) - p.z_lower) / span)
        else:
            fns.append(lambda x: (p.z_upper - _safe_eval(p.objective_fn, x)) / span)
    return tuple(fns)


def solve_max_phi(p: MaxPhiProblem, settings: SolverSettings = DEFAULT_SOLVER) -> PlanDesign:
    """Two-stage max-min solve.

    Stage 1 maximizes phi = min over clipped memberships; stage 2 minimizes
    cost subject to every membership staying at the achieved phi.  The split
    makes the design well defined on phi plateaus.
    """
    memberships = _memberships(p)

    def phi(x: np.ndarray) -> float:
        return min(1.0, *(max(-1.0, m(x)) for m in memberships))

    stage1 = CrispNlp(lambda x: -phi(x), (), p.box, p.ordering)
    x1, neg_phi = solve_crisp(stage1, settings, extra_starts=p.extra_starts)
    phi_star = min(1.0, max(0.0, -neg_phi))
    if phi_star <= 0.0:
        raise InfeasibleError(
            "no point with positive satisfaction found", best_point=tuple(x1)
        )

    floor = phi_star - _PHI_TOL
    stage2 = CrispNlp(
        p.objective_fn,
        tuple((lambda x, m=m: floor - m(x), 0.0) for m in memberships),
        p.box,
        p.ordering,
    )
    x2, obj = solve_crisp(stage2, settings, extra_starts=(x1, *p.extra_starts))
    phi_final = min(1.0, max(0.0, phi(x2)))
    g_value = _safe_eval(p.g_fn, x2)
    h_value = _safe_eval(p.h_fn, x2)
    return PlanDesign(
        t1=float(x2[0]),
        t2=float(x2[1]) if len(x2) > 1 else float(x2[0]),
        n=None,
        phi=phi_final,
        objective_value=obj,
        g_value=g_value,
        h_value=h_value,
        g_margin=p.alpha.level + p.alpha.slack * (1.0 - phi_final) - g_value,
        h_margin=p.beta.level + p.beta.slack * (1.0 - phi_final) - h_value,
        z_lower=p.z_lower,
        z_upper=p.z_upper,
    )


def solve_plan(
    problem,
    settings: SolverSettings = DEFAULT_SOLVER,
    membership_form: str = "cost_ascending",
    crisp: bool = False,
) -> PlanDesign:
    """Full pipeline for one PlanProblem: per candidate group size, bracket the
    objective, run the max-min solve, and keep the best design.

    Ties on phi break toward smaller cost, then smaller group size.  Plans
    with an intrinsic cost floor stop as soon as a fully satisfied design
    reaches it.
    """
    from . import plans  # deferred: plans builds on this module's solver

    if problem.family is plans.Family.SSP:
        group_sizes: Sequence[Optional[int]] = (None,)
    else:
        group_sizes = range(1, problem.n_max + 1)

    cost_floor = None
    if problem.family is plans.Family.TYPE_I:
        cost_floor = problem.cost * problem.tau

    best: Optional[PlanDesign] = None
    per_n = []
    trace = []
    for n in group_sizes:
        objective, g, h, box, ordering = plans.plan_functions(problem, n, crisp=crisp)
        alpha, beta = problem.alpha, problem.beta
        if crisp:
            alpha = FuzzyLevel(alpha.level, 0.0)
            beta = FuzzyLevel(beta.level, 0.0)
        try:
            zb = zimmermann_bounds(objective, g, h, alpha, beta, box, ordering, settings)
        except InfeasibleError as exc:
            per_n.append((n, f"infeasible: best violation {exc.best_violation}"))
            continue
        design = solve_max_phi(
            MaxPhiProblem(
                objective_fn=objective,
                g_fn=g,
                h_fn=h,
                z_lower=zb.z_lower,
                z_upper=zb.z_upper,
                alpha=alpha,
                beta=beta,
                box=box,
                ordering=ordering,
                membership_form=membership_form,
                extra_starts=(zb.tight_x, zb.relaxed_x),
            ),
            settings,
        )
        design = replace(design, n=n)
        trace.append((n, design.phi, design.objective_value))
        if best is None or _better(design, best):
            best = design
        if (
            cost_floor is not None
            and best.phi >= 1.0 - _PHI_TOL
            and best.objective_value <= cost_floor * (1.0 + 1e-9)
        ):
            break
    if best is None:
        raise InfeasibleError(
            "every candidate group size was infeasible", per_n=tuple(per_n)
        )
    return replace(best, trace=tuple(trace))


def _better(candidate: PlanDesign, incumbent: PlanDesign) -> bool:
    if candidate.phi > incumbent.phi + _PHI_TOL:
        return True
    if candidate.phi < incumbent.phi - _PHI_TOL:
        return False
    if candidate.objective_value < incumbent.objective_value * (1.0 - 1e-9):
        return True
    if candidate.objective_value > incumbent.objective_value * (1.0 + 1e-9):
        return False
    return (candidate.n or 0) < (incumbent.n or 0)
