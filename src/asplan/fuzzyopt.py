"""Constrained optimization over the threshold box and the fuzzy-to-crisp
pipeline.  Nothing here knows the plan families: a plan problem hands
`zimmermann_bounds` its group sizes, and per group size its functions and
its cost floor.

Every design is made of crisp solves of a plan problem: least cost subject
to g <= alpha and h <= beta over t1 <= t2.  `solve_monotone` solves it by
nested 1-D roots (Brent's method), from the plans' monotone structure; it
scans nothing and draws no random numbers, and it is the only solver here.
The max-min satisfaction method is made of crisp solves at the s-cuts of
the fuzzy risk levels.  `zimmermann_bounds` brackets the objective of the
whole plan problem, group size included: the least tight (s = 1) and
relaxed (s = 0) optima over the group sizes, one `ZBounds` per problem.
Under the default `cost_ascending` membership the max-min design is the
cheapest tight optimum; under `standard` it is the cheapest crisp optimum
at phi*, the root in s of a 1-D equation over crisp solves
(`solve_max_phi`).  `solve_plan` is the two stages in turn.

The tests check `solve_monotone` against a grid scan polished by SLSQP, the
oracle in `tests/reference.py`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .errors import ConsistencyError, DegeneratePlanError, DomainError, InfeasibleError
from .membership import FuzzyLevel

# A narrower bracket z_upper - z_lower gives the objective no membership.
_MIN_SPAN = 1e-9
# Largest constraint violation that still counts as feasible; `zimmermann_bounds`
# lets a relaxed optimum exceed its tight one by this much, relative.
_FEASIBILITY_TOL = 1e-6
MEMBERSHIP_FORMS = ("cost_ascending", "standard")

# Names that perfbench/tracing.py rebinds; the grid solver is in tests/reference.py.
solve_crisp = minimize = None


def _check_membership_form(form: str) -> None:
    if form not in MEMBERSHIP_FORMS:
        raise DomainError(f"unknown membership_form {form!r}")


@dataclass(frozen=True)
class SolverSettings:
    """Nothing in the package reads these fields: designs come from
    `solve_monotone`, which has no restarts and draws no random numbers.
    The benchmark still builds one, and the grid oracle of the tests reads
    `restarts`.  The next change to the benchmark deletes the class, with
    the `solve_crisp` and `minimize` placeholders.
    """

    restarts: int = 32
    seed: int = 42

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise DomainError(f"restarts must be >= 1, got {self.restarts}")


DEFAULT_SOLVER = SolverSettings()


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


# Brent's method stops within 4 ulps relative, or this absolute width, of a
# root; thresholds from 1e-3 up keep 1e-12 relative.
_ROOT_XTOL = 1e-15
_ROOT_RTOL = 4.0 * math.ulp(1.0)
_ROOT_ITER = 100


def _brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of f in [a, b] by Brent's method (R. P. Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), line for line as scipy's
    `brentq.c`: the same probes, and the last one when `_ROOT_ITER`
    iterations end, as `scipy.optimize.brentq(disp=False)` returns it.
    Raises ValueError when f(a) and f(b) share a sign or f returns NaN."""

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_ITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    return xcur


def _last_met(f: Callable[[float], float], met: float, unmet: float) -> float:
    """The point nearest ``unmet`` where f <= 0, for f monotone from
    f(met) <= 0: ``unmet`` itself if f(unmet) <= 0.

    Otherwise Brent's method (`_brentq`) brackets the crossing; every probe
    is recorded, so the point returned meets f <= 0 as evaluated and lies in
    the final bracket.  The probes end at the root tolerance or after
    `_ROOT_ITER` iterations, which only an f whose rounding noise spans the
    tolerance reaches (up to 77 of the 100 on generated plan problems); a
    capped root is no less feasible.
    """
    if f(unmet) <= 0.0:
        return unmet
    best = met

    def probe(x: float) -> float:
        nonlocal best
        value = f(x)
        if value <= 0.0 and abs(x - unmet) < abs(best - unmet):
            best = x
        return value

    lower, upper = min(met, unmet), max(met, unmet)
    _brentq(probe, lower, upper, _ROOT_XTOL, _ROOT_RTOL)
    return best


def _excess(fn: Callable, bound: float) -> Callable[[float, float], float]:
    """fn(t1, t2) - bound, evaluated once per point.  A probe where the plan
    never ends, or fn is not finite, reads 1, above any probability's
    excess: it counts as infeasible, as it does on the grid."""

    @functools.cache
    def excess(t1: float, t2: float) -> float:
        try:
            value = float(fn((t1, t2)))
        except DegeneratePlanError:
            return 1.0
        return value - bound if math.isfinite(value) else 1.0

    return excess


def solve_monotone(
    objective: Callable, g: Callable, h: Callable, box: tuple, alpha: float, beta: float
) -> tuple[tuple, float, str]:
    """The least-cost thresholds t1 <= t2 in ``box`` with g <= alpha and
    h <= beta, by nested 1-D roots; returns (x, objective(x), case).

    It needs the plans' monotone structure (`tests/test_monotonicity.py`):
    g rises and h falls in t1 and in t2, and the cost falls in t1 and rises
    in t2, with its floor, one stage, on the diagonal t1 = t2.  Both axes of
    ``box`` span the same [lo, hi].  g and h are probed one point at a time;
    the objective is evaluated at the answer only.

    - ``"floor"``: let t_h be the least t with h(t, t) <= beta.  If
      g(t_h, t_h) <= alpha, the diagonal points from t_h to t_g, the largest
      t with g(t, t) <= alpha, all cost the floor.  The design is the one of
      them where g/alpha = h/beta, which shares the slack between the risks.
    - Otherwise the cheapest t2 for a given t1 is T(t1), the least t2 in
      [t1, hi] with h(t1, t2) <= beta.  T does not rise in t1, so the cost
      falls along (t1, T(t1)), and g does not fall along it.  The design is
      the largest t1 with g(t1, T(t1)) <= alpha, searched from the least t1
      with h(t1, hi) <= beta up to t_h: ``"active"`` with both risks at
      their bounds, or ``"edge"`` when t1 = lo or t2 = hi.

    Each root is the last probe that meets its bound, within 4 ulps relative
    (or `_ROOT_XTOL`) of the crossing, so the answer meets both bounds as
    evaluated.  That is the exact optimum up to that tolerance, and no point
    of the box is both feasible and cheaper.  Raises InfeasibleError, with a
    positive best violation, when g(lo, lo) > alpha, when h(hi, hi) > beta,
    or when g(t1, T(t1)) > alpha already at the least t1 on the curve: then
    no point is feasible.
    """
    (lo, hi), _ = box
    g_excess = _excess(g, alpha)
    h_excess = _excess(h, beta)
    for violation, point in ((g_excess(lo, lo), (lo, lo)), (h_excess(hi, hi), (hi, hi))):
        if violation > 0.0:
            raise InfeasibleError(
                f"no feasible thresholds: a risk exceeds its level by {violation:.3e} "
                f"where it is least, at {point}",
                best_point=point,
                best_violation=violation,
            )
    t_h = _last_met(lambda t: h_excess(t, t), hi, lo)
    if g_excess(t_h, t_h) <= 0.0:
        t_g = _last_met(lambda t: g_excess(t, t), t_h, hi)

        def balance(t: float) -> float:
            return (g_excess(t, t) + alpha) * beta - (h_excess(t, t) + beta) * alpha

        t = t_h if balance(t_h) > 0.0 else _last_met(balance, t_h, t_g)
        return (t, t), float(objective((t, t))), "floor"

    @functools.cache
    def t2_of(t1: float) -> float:
        if h_excess(t1, hi) > 0.0:  # only by rounding, as t1 >= t1_min
            return hi
        return _last_met(lambda t2: h_excess(t1, t2), hi, t1)

    def g_on_curve(t1: float) -> float:
        return g_excess(t1, t2_of(t1))

    t1_min = _last_met(lambda t: h_excess(t, hi), t_h, lo)
    violation = g_on_curve(t1_min)
    if violation > 0.0:
        point = (t1_min, t2_of(t1_min))
        raise InfeasibleError(
            f"no feasible thresholds: g exceeds its level by {violation:.3e} where h "
            f"first meets its level, at {point}",
            best_point=point,
            best_violation=violation,
        )
    t1 = _last_met(g_on_curve, t1_min, t_h)
    x = (t1, t2_of(t1))
    case = "edge" if t1 == lo or x[1] == hi else "active"
    return x, float(objective(x)), case


@dataclass(frozen=True)
class ZBounds:
    """The objective's bracket over a whole plan problem: z_lower is the
    least relaxed optimum over the group sizes, z_upper the least tight one.

    ``sizes`` maps each group size bracketed, in ascending order, to its
    ((objective, g, h, box), tight optimum (x, cost, case), relaxed cost),
    for the max-min solve.
    """

    z_lower: float
    z_upper: float
    sizes: dict = field(compare=False, repr=False)


def zimmermann_bounds(problem) -> ZBounds:
    """Bracket the objective (Zimmermann 1978) over the group sizes of
    ``problem``: per size, `solve_monotone` at the levels (tight) and at the
    relaxed levels.  The relaxed problem's feasible set holds the tight
    one's, so its optimum is no higher; without slack the two problems are
    one, solved once.

    The problem supplies ``alpha`` and ``beta``, ``group_sizes`` in
    ascending order, ``functions(n)`` returning (objective, g, h, box,
    ordering), and ``cost_floor(n)``, a cost that no design of group size n
    goes below.

    A group size whose tight problem is infeasible is skipped, as it has no
    bracket.  It could still be feasible at the relaxed levels, where it
    might lower z_lower or win under ``standard``; the search does not look
    there.

    The search stops once the least tight optimum so far is at most
    (1 + 1e-9) times the least cost floor of the sizes still to try.  Every
    cost of a later size, at any cut, is at least its floor, so at least
    that least tight optimum, which is at least the running z_lower and at
    least the least cost so far at any cut.  So, up to that factor 1 + 1e-9,
    a later size moves neither end of the bracket and loses every cost tie
    to a smaller size: the stop changes no design, only how many sizes the
    trace lists.
    """
    alpha, beta = problem.alpha, problem.beta
    group_sizes = list(problem.group_sizes)
    # later_floors[k]: the least cost floor of the sizes after group_sizes[k].
    later_floors = list(
        itertools.accumulate(
            [problem.cost_floor(n) for n in reversed(group_sizes[1:])], min, initial=math.inf
        )
    )[::-1]
    sizes = {}
    per_n = []
    least_tight = math.inf
    for n, later_floor in zip(group_sizes, later_floors):
        functions = problem.functions(n)[:4]
        try:
            tight = solve_monotone(*functions, alpha.level, beta.level)
            if alpha.slack == 0.0 and beta.slack == 0.0:
                relaxed = tight[1]
            else:
                relaxed = solve_monotone(*functions, alpha.relaxed, beta.relaxed)[1]
        except InfeasibleError as exc:
            per_n.append((n, f"infeasible: best violation {exc.best_violation}"))
            continue
        if relaxed > tight[1] + _FEASIBILITY_TOL * (1.0 + abs(tight[1])):
            raise ConsistencyError(f"relaxed optimum {relaxed} exceeds tight optimum {tight[1]}")
        sizes[n] = (functions, tight, relaxed)
        least_tight = min(least_tight, tight[1])
        if least_tight <= later_floor * (1.0 + 1e-9):
            break
    if not sizes:
        raise InfeasibleError("every candidate group size was infeasible", per_n=tuple(per_n))
    return ZBounds(
        z_lower=min(min(tight[1], relaxed) for _, tight, relaxed in sizes.values()),
        z_upper=min(max(tight[1], relaxed) for _, tight, relaxed in sizes.values()),
        sizes=sizes,
    )


def _level_membership(level: FuzzyLevel, value: float) -> float:
    """Membership of a risk value, unclipped.  A zero-slack level is met
    exactly, as every design point comes from `solve_monotone`, which meets
    its levels as evaluated."""
    if level.slack > 0.0:
        return (level.relaxed - value) / level.slack
    return 1.0 if value <= level.level else 0.0


def solve_max_phi(
    bracket: ZBounds,
    alpha: FuzzyLevel,
    beta: FuzzyLevel,
    membership_form: str = "cost_ascending",
) -> PlanDesign:
    """The max-min design (Zimmermann 1978) over the group sizes of
    ``bracket``, a plan problem's `zimmermann_bounds`, at the fuzzy risk
    levels ``alpha`` and ``beta``: the largest phi, then the least cost at
    it, as crisp solves at the risk levels cut at phi.

    The group size is a decision variable, so the bracket is the whole
    problem's.  phi(x, n) >= s holds exactly where g(x) <= alpha.cut(s),
    h(x) <= beta.cut(s) and the objective's membership is at least s.  Let
    C_n(s) be size n's crisp optimum under those two cuts, and C(s) the
    least of them.  The cuts shrink as s grows, so no C_n falls, and neither
    does C, from C(0) = z_lower to C(1) = z_upper.  Every size is feasible
    at every cut s <= 1, as the cut is no tighter than the level its tight
    solve met.

    - Under ``cost_ascending`` the argmin of C(1) meets the levels and costs
      z_upper, so every membership is 1 there; any point with phi = 1 meets
      the levels, so it costs at least C(1).  The design is that cheapest
      tight optimum, as it is when the bracket is narrower than _MIN_SPAN;
      nothing is solved.  The objective takes no membership: every tight
      cost is at least z_upper, so (cost - z_lower)/span would be at least 1.
    - Under ``standard`` the objective's membership (z_upper - cost)/span is
      at least s where cost <= z_upper - s*span.  So phi* is the largest s
      with F(s) = C(s) + s*span - z_upper <= 0: the root of F, which rises
      strictly from -span at s = 0 to +span at s = 1, found by Brent's
      method.  The argmin of C(phi*) has phi >= phi*, as F(phi*) <= 0, and
      every point with phi >= phi* meets the cuts at phi*, so it costs at
      least C(phi*): that argmin is the design.  It is taken from the root
      iterate of largest s with F(s) <= 0.

    Ties on cost go to the smaller n, the earlier key of ``bracket.sizes``.
    phi and the margins are computed at the design point, not set.  The
    trace has one entry (n, phi, cost, case) per size: its crisp optimum at
    the cuts of phi*, phi taken against the shared bracket, and ``case`` the
    `solve_monotone` case.  Every crisp solve is `solve_monotone` of the
    size's functions.
    """
    _check_membership_form(membership_form)
    z_lower, z_upper = bracket.z_lower, bracket.z_upper
    span = z_upper - z_lower

    def design_at(n, x, objective: float, case: str) -> PlanDesign:
        (_, g, h, _), _, _ = bracket.sizes[n]
        g_value = float(g(x))
        h_value = float(h(x))
        memberships = [_level_membership(alpha, g_value), _level_membership(beta, h_value)]
        if membership_form == "standard" and span >= _MIN_SPAN:
            memberships.append((z_upper - objective) / span)
        phi = min(1.0, max(0.0, min(memberships)))
        return PlanDesign(
            t1=float(x[0]),
            t2=float(x[1]),
            n=n,
            phi=phi,
            objective_value=objective,
            g_value=g_value,
            h_value=h_value,
            g_margin=alpha.cut(phi) - g_value,
            h_margin=beta.cut(phi) - h_value,
            z_lower=z_lower,
            z_upper=z_upper,
            trace=((n, phi, objective, case),),
        )

    if membership_form == "cost_ascending" or span < _MIN_SPAN:
        optima = {n: tight for n, (_, tight, _) in bracket.sizes.items()}
    else:
        ends = {0.0: -span, 1.0: span}
        met = {}  # s -> {n: (x, C_n(s), case)} where F(s) <= 0

        def shortfall(s: float) -> float:
            if s in ends:
                return ends[s]
            cuts = (alpha.cut(s), beta.cut(s))
            at_s = {
                n: solve_monotone(*functions, *cuts)
                for n, (functions, _, _) in bracket.sizes.items()
            }
            excess = min(cost for _, cost, _ in at_s.values()) + s * span - z_upper
            if excess <= 0.0:
                met[s] = at_s
            return excess

        s = _last_met(shortfall, 0.0, 1.0)
        if s not in met:
            raise InfeasibleError("no point with positive satisfaction found")
        optima = met[s]
    designs = [design_at(n, *optimum) for n, optimum in optima.items()]
    best = min(designs, key=lambda design: design.objective_value)
    return replace(best, trace=tuple(design.trace[0] for design in designs))


def solve_plan(
    problem,
    settings: SolverSettings = DEFAULT_SOLVER,
    membership_form: str = "cost_ascending",
) -> PlanDesign:
    """Full pipeline for one plan problem: bracket the objective over its
    group sizes (`zimmermann_bounds`), then take the max-min design over all
    of them at once (`solve_max_phi`).  Nothing reads ``settings``; it goes
    with `SolverSettings`."""
    _check_membership_form(membership_form)
    return solve_max_phi(zimmermann_bounds(problem), problem.alpha, problem.beta, membership_form)
