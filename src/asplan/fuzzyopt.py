"""Constrained optimization over the threshold box and the fuzzy-to-crisp
pipeline.  Nothing here knows the plan families: a plan problem hands
`_optima` its group sizes, per group size its functions and box (whose t1
axis, a `LogAxis` or not, says whether roots over t1 run on log t1) and the
least cost floor of the sizes after it, and the size that dominates the
others, where its family has one.

Every design is made of crisp solves of a plan problem: least cost subject
to g <= alpha and h <= beta over t1 <= t2.  `solve_monotone` solves it by
nested 1-D roots, from the plans' monotone structure; it scans nothing and
draws no random numbers, and it is the only solver here.  Every root,
`solve_max_phi`'s too, is found by `_last_met`, the one Brent's method.
The max-min satisfaction method is made of crisp solves at the s-cuts of
the fuzzy risk levels, all from one search over s, `_optima`: C(s), the
least crisp optimum over the group sizes at the cut s, with each (size,
cut) solved once per problem.  `zimmermann_bounds` brackets the objective
of the whole problem by C(1) and C(0).  Every design is the argmin of C at
one cut s* (`solve_max_phi`): 1 under the default `cost_ascending`
membership, phi* under `standard`.  `solve_plan` is the two in turn.

The tests check `solve_monotone` against a grid scan polished by SLSQP, the
oracle in `tests/reference.py`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ConsistencyError, DegeneratePlanError, DomainError, InfeasibleError
from .membership import FuzzyLevel

# A bracket z_upper - z_lower narrower than this times max(1, |z_upper|),
# a few ulps of the cost, gives the objective no membership.
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
_NAN_MESSAGE = "The function value at x={} is NaN; solver cannot continue."


def _last_met(f: Callable[[float], float], met: float, unmet: float,
              on_log: bool = False) -> float:
    """The point nearest ``unmet`` where f <= 0, for f monotone from
    f(met) <= 0: ``unmet`` itself if f(unmet) <= 0.

    Otherwise Brent's method (R. P. Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 4), line for line as scipy's `brentq.c`,
    makes the probes of `scipy.optimize.brentq` on [min(met, unmet),
    max(met, unmet)]: on log t with ``on_log`` where the two logs differ,
    each end mapped back to itself bit for bit.  It returns met or the probe
    nearest ``unmet`` that meets f <= 0 as evaluated, which lies in the
    final bracket.  The probes end within 4 ulps relative (or `_ROOT_XTOL`)
    of the crossing in their coordinate, or after `_ROOT_ITER` iterations,
    which only an f whose rounding noise spans the tolerance nears: over the
    250 audit problems and the fingerprint problems of
    tests/test_design_fingerprint.py, the longest root took 44 of the 100, a
    Type-I root over its linear t1 axis from 1e-6, and every other root at
    most 15.  A capped root is no less feasible.  Raises ValueError, as
    scipy does, when f(met) > 0 or f returns NaN.
    """
    if f(unmet) <= 0.0:
        return unmet
    found, ends = met, {}
    if on_log and math.log(met) != math.log(unmet):
        ends = {math.log(met): met, math.log(unmet): unmet}
        met, unmet = math.log(met), math.log(unmet)
    best, xpre, xcur = met, min(met, unmet), max(met, unmet)
    fpre = f(ends.get(xpre, xpre))
    if fpre != fpre:  # NaN, tested without a call per probe
        raise ValueError(_NAN_MESSAGE.format(xpre))
    fcur = f(ends.get(xcur, xcur))
    if fcur != fcur:
        raise ValueError(_NAN_MESSAGE.format(xcur))
    if fpre == 0.0 or fcur == 0.0:
        return found
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
        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            break
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
        t = ends[xcur] if xcur in ends else math.exp(xcur) if ends else xcur
        fcur = f(t)
        if fcur != fcur:
            raise ValueError(_NAN_MESSAGE.format(xcur))
        if fcur <= 0.0 and abs(xcur - unmet) < abs(best - unmet):
            best, found = xcur, t
    return found


class LogAxis(tuple):
    """An axis (lo, hi), 0 < lo, of a `solve_monotone` box whose roots
    over t1 are found on log t1; a plain (lo, hi) keeps t1 linear."""

    __slots__ = ()


# The log-odds read for a risk at or below 0 and at or above 1: beyond
# those of the doubles in (0, 1), which lie within about -745 and 37.
_LOGIT_EDGE = 800.0


def _log_odds_excess(fn: Callable, bound: float) -> Callable[[float, float], float]:
    """logit(fn(t1, t2)) - logit(bound), with fn evaluated once per point,
    and the sign of fn - bound as evaluated: where rounding makes the two
    disagree, fn - bound itself.  So f <= 0 exactly where fn <= bound as
    evaluated, and f does not fall as fn rises.  ``f.value(t1, t2)`` is fn
    at the point, from the same evaluation: inf where the plan never ends
    (`DegeneratePlanError`) or fn is not finite, which counts as infeasible,
    as it does on the grid.

    The plans' risks are P = p/(p_a + p_r) of one stage, so their log-odds
    is log p_r - log p_a (or its negative): for exponential lives, linear
    in t2 and near k*log t1 at small t1, where the probability itself is
    logistic.  Roots on it take fewer probes.  fn <= 0 reads -800 and
    fn >= 1 reads +800 as its log-odds, as does an infeasible point.  A
    bound outside (0, 1), such as a cut of 1, has no log-odds: there f is
    fn - bound, and 1 at an infeasible point."""
    level = math.log(bound / (1.0 - bound)) if 0.0 < bound < 1.0 else None
    values = {}

    def value(t1: float, t2: float) -> float:
        v = values.get((t1, t2))
        if v is None:
            try:
                v = float(fn((t1, t2)))
            except DegeneratePlanError:
                v = math.inf
            v = values[t1, t2] = v if math.isfinite(v) else math.inf
        return v

    def excess(t1: float, t2: float) -> float:
        v = value(t1, t2)
        if level is None:
            return v - bound if v < math.inf else 1.0
        if 0.0 < v < 1.0:
            odds = math.log(v / (1.0 - v)) - level
            return odds if (odds <= 0.0) == (v <= bound) else v - bound
        return -_LOGIT_EDGE - level if v <= 0.0 else _LOGIT_EDGE - level

    excess.value = value
    return excess


def _violation(excess: Callable, bound: float, point: tuple) -> float:
    """How far the risk of a `_log_odds_excess` is above its bound at a
    point: 1 where it counts as infeasible, above any probability's."""
    value = excess.value(*point)
    return value - bound if value < math.inf else 1.0


class Box(tuple):
    """A `solve_monotone` box ((lo, hi), (lo, hi)) that also carries
    closed-form guesses of the three roots that one tail of a stage law
    answers: ``t_h(beta)``, the least t with h(t, t) <= beta; ``t_g(alpha)``,
    the largest t with g(t, t) <= alpha; and ``t1_min(beta)``, the least t1
    with h(t1, hi) <= beta.  Each guess is within 1e-12 relative of its
    tail's crossing where rounding resolves it (`lifemodel._stage_law`),
    and may lie outside the box or miss its bound by rounding, as the solver
    checks every one.  A plain tuple box has none, and every root is Brent's."""

    def __new__(cls, axes, t_h, t_g, t1_min):
        box = super().__new__(cls, axes)
        box.t_h, box.t_g, box.t1_min = t_h, t_g, t1_min
        return box


def _guessed(f: Callable[[float], float], guess: Optional[float], met: float, unmet: float,
             on_log: bool = False) -> float:
    """``_last_met(f, met, unmet, on_log)``, or a closed-form guess of it
    taken in its stead.  The guess, clamped between met and unmet, is taken
    where f <= 0 there as evaluated, or else the point 4 ulps nearer met
    where f <= 0 there.  Otherwise, and with no guess, it is `_last_met`
    from met to that point, which f does not meet (to unmet with no guess),
    or met itself where rounding breaks f(met) <= 0.  So the point returned
    meets f <= 0 as evaluated, as `_last_met`'s does, unless met itself
    does not."""
    if guess is not None:
        lower, upper = min(met, unmet), max(met, unmet)
        t = min(max(guess, lower), upper)
        if f(t) <= 0.0:
            return t
        nudge = 4.0 * math.ulp(t)
        unmet = min(t + nudge, upper) if met > unmet else max(t - nudge, lower)
        if f(unmet) <= 0.0:
            return unmet
    return met if f(met) > 0.0 else _last_met(f, met, unmet, on_log)


def _guesses(box: tuple, alpha: float, beta: float) -> Optional[Box]:
    """The box's guesses, which solve h = beta and g = alpha as odds: none
    for a plain box or a level outside (0, 1)."""
    return box if isinstance(box, Box) and 0.0 < alpha < 1.0 and 0.0 < beta < 1.0 else None


def _floor_test(g_excess, h_excess, box: tuple, guesses, beta: float) -> tuple[float, bool]:
    """`solve_monotone`'s floor test, which solves no point of the curve:
    t_h, the least t with h(t, t) <= beta, from its guess (`_guessed`), and
    whether g(t_h, t_h) <= alpha there as evaluated."""
    (lo, hi), _ = box
    t_h = _guessed(lambda t: h_excess(t, t), guesses and guesses.t_h(beta), hi, lo)
    return t_h, g_excess(t_h, t_h) <= 0.0


def reaches_floor(g: Callable, h: Callable, box: tuple, alpha: float, beta: float) -> bool:
    """Whether `solve_monotone` takes its ``"floor"`` case at these levels:
    its corner checks and its floor test pass, as evaluated."""
    (lo, hi), _ = box
    g_excess, h_excess = _log_odds_excess(g, alpha), _log_odds_excess(h, beta)
    return (g_excess(lo, lo) <= 0.0 and h_excess(hi, hi) <= 0.0
            and _floor_test(g_excess, h_excess, box, _guesses(box, alpha, beta), beta)[1])


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

    When ``box`` is a `Box`, t_h, t_g and the least t1 on the curve start
    from their closed-form guesses (`_guessed`): a guess clamped to its
    bracket is taken where its risk meets the bound there as evaluated,
    after at most one nudge of 4 ulps toward the met end, which rounding
    between the family's tail and the risk can call for.  Otherwise, and
    in a plain box such as a test's, the root is Brent's, bracketed from
    the met end to the nudged guess or to the unmet end.

    The points of the curve, the outer root over t1 and the floor's balance
    root are Brent's.  As T does not rise in t1, each root T(t1) is
    bracketed by the points of the curve already solved.  T(t1a), of the
    nearest solved t1a below t1, is the met end once it is at least t1 and
    h(t1, T(t1a)) <= beta holds as evaluated; where rounding near the
    crossing breaks that, the met end is hi, as it is with nothing solved
    below.  T(t1b), of the nearest solved t1b above, no higher than the met
    end, is the unmet end, or t1 with nothing solved above.

    Every Brent root is found on the log-odds excess of its risk
    (`_log_odds_excess`), whose sign is that of the risk's excess as
    evaluated; for the plans' exponential lives it is near linear in t2 and
    in log t1, where the risk itself is logistic, and Brent's method takes
    about half the probes on it.  When the t1 axis of ``box`` is a
    `LogAxis`, the two roots over t1 (the least t1 on the curve and the
    design's) run on log t1 (`_last_met` ``on_log``); a plain (lo, hi) keeps t1
    linear, as the Type-I plans do, whose p_r does not vanish at t1 = 0.
    The balance root reads g and h from the same evaluations, by their
    ``value``, and the corner checks and the curve's report their excess
    over the bound (`_violation`).

    Each Brent root is the last probe that meets its bound, within 4 ulps
    relative (or `_ROOT_XTOL`) of the crossing in its coordinate: t, or
    log t1, which is within 1.4e-14 relative in t1 on a box from lo = 1e-6.
    A taken guess meets its bound too, within 1e-12 relative of its tail's
    crossing where rounding resolves it (`Box`).  So the answer meets both
    bounds as evaluated: the exact optimum up to those tolerances, and no
    point of the box is both feasible and cheaper.
    Raises InfeasibleError, with a positive best violation, when g(lo, lo)
    > alpha, when h(hi, hi) > beta, or when g(t1, T(t1)) > alpha already at
    the least t1 on the curve: then no point is feasible.
    """
    (lo, hi), _ = box
    on_log = isinstance(box[0], LogAxis)
    guesses = _guesses(box, alpha, beta)
    g_excess = _log_odds_excess(g, alpha)
    h_excess = _log_odds_excess(h, beta)
    for excess, bound, point in ((g_excess, alpha, (lo, lo)), (h_excess, beta, (hi, hi))):
        if excess(*point) > 0.0:
            violation = _violation(excess, bound, point)
            raise InfeasibleError(
                f"no feasible thresholds: a risk exceeds its level by {violation:.3e} "
                f"where it is least, at {point}",
                best_point=point,
                best_violation=violation,
            )
    t_h, floor = _floor_test(g_excess, h_excess, box, guesses, beta)
    if floor:
        t_g = _guessed(lambda t: g_excess(t, t), guesses and guesses.t_g(alpha), t_h, hi)
        g_value, h_value = g_excess.value, h_excess.value

        def balance(t: float) -> float:
            return g_value(t, t) * beta - h_value(t, t) * alpha

        t = t_h if balance(t_h) > 0.0 else _last_met(balance, t_h, t_g)
        return (t, t), float(objective((t, t))), "floor"

    curve = {}  # t1 -> T(t1), each point of the curve found so far
    solved = []  # its t1 in ascending order

    def t2_of(t1: float) -> float:
        if t1 not in curve:
            i = bisect.bisect(solved, t1)
            below = curve[solved[i - 1]] if i else hi
            met = below if t1 <= below and h_excess(t1, below) <= 0.0 else hi
            if met == hi and h_excess(t1, hi) > 0.0:  # only by rounding, as t1 >= t1_min
                curve[t1] = hi
            else:
                unmet = min(curve[solved[i]], met) if i < len(solved) else t1
                curve[t1] = _last_met(lambda t2: h_excess(t1, t2), met, unmet)
            solved.insert(i, t1)
        return curve[t1]

    def g_on_curve(t1: float) -> float:
        return g_excess(t1, t2_of(t1))

    t1_min = _guessed(lambda t: h_excess(t, hi), guesses and guesses.t1_min(beta), t_h, lo, on_log)
    if g_on_curve(t1_min) > 0.0:
        point = (t1_min, t2_of(t1_min))
        violation = _violation(g_excess, alpha, point)
        raise InfeasibleError(
            f"no feasible thresholds: g exceeds its level by {violation:.3e} where h "
            f"first meets its level, at {point}",
            best_point=point,
            best_violation=violation,
        )
    t1 = _last_met(g_on_curve, t1_min, t_h, on_log)
    x = (t1, t2_of(t1))
    case = "edge" if t1 == lo or x[1] == hi else "active"
    return x, float(objective(x)), case


class _Memo:
    """A plan problem's `dominant_size`, its per-size functions and
    `least_floor_after`, and per size and cut s the `solve_monotone` optimum
    or the InfeasibleError it raised, without its traceback: each made once,
    keyed by the risk cuts, so zero-slack levels share one solve at every s."""

    def __init__(self, problem):
        self.problem, self.dominant_size = problem, problem.dominant_size
        self._functions, self._floors, self._solves = {}, {}, {}

    def functions(self, n) -> tuple:
        if n not in self._functions:
            self._functions[n] = self.problem.functions(n)[:4]
        return self._functions[n]

    def floor_after(self, n) -> float:
        if n not in self._floors:
            self._floors[n] = self.problem.least_floor_after(n)
        return self._floors[n]

    def solve(self, n, s: float):
        key = (n, self.problem.alpha.cut(s), self.problem.beta.cut(s))
        if key not in self._solves:
            try:
                self._solves[key] = solve_monotone(*self.functions(n), *key[1:])
            except InfeasibleError as exc:
                self._solves[key] = exc.with_traceback(None)
        return self._solves[key]


def _optima(memo: _Memo, s: float) -> dict:
    """The crisp optima {n: (x, cost, case)} of the group sizes of
    ``memo.problem`` at its risk levels cut at the satisfaction s, in
    ascending n: their least cost is C(s), and its argmin is among them.
    s = 1 is the tight levels and s = 0 the relaxed ones, both exactly.

    The problem supplies ``alpha`` and ``beta``, ``group_sizes`` in
    ascending order, ``functions(n)`` returning (objective, g, h, box,
    ordering), ``least_floor_after(n)``, a cost that no design of a size
    after n goes below, and ``dominant_size`` with ``dominates(optimum)``.

    A dominant size feasible at the tight levels is solved first.  If its
    optimum at the cut passes ``dominates``, no other size costs less
    there, and at the levels every smaller one costs more, so it is returned
    alone; as the loop below would solve it by the same closures, C is the
    loop's, bit for bit, or at a looser cut where a smaller Type-I size
    reaches the floor too, c*tau at another floor point, up to an ulp.

    Otherwise the loop takes the sizes in ascending order.  A size whose
    tight problem is infeasible is skipped at every cut, with its best
    violation in ``per_n`` of the InfeasibleError raised when every size
    is; it might lower C at a looser cut, but the search does not look.
    The loop stops once the least cost so far is at most (1 + 1e-9) times
    the least cost floor of the sizes still to try.  Every cost of a later
    size, at any cut, is at least its floor, so, up to that factor, it
    neither lowers C nor wins a cost tie against a smaller size: the stop
    changes no design, only how many sizes the trace lists.
    """
    problem = memo.problem

    def at_cut(n) -> tuple:
        optimum = memo.solve(n, s)
        if isinstance(optimum, InfeasibleError):
            raise optimum
        return optimum

    n = memo.dominant_size
    if n is not None and not isinstance(memo.solve(n, 1.0), InfeasibleError):
        optimum = at_cut(n)
        if problem.dominates(optimum):
            return {n: optimum}
    optima, per_n, least = {}, [], math.inf
    for n in problem.group_sizes:
        outcome = memo.solve(n, 1.0)
        if isinstance(outcome, InfeasibleError):
            per_n.append((n, f"infeasible: best violation {outcome.best_violation}"))
            continue
        optima[n] = at_cut(n)
        least = min(least, optima[n][1])
        if least <= memo.floor_after(n) * (1.0 + 1e-9):
            break
    if not optima:
        raise InfeasibleError("every candidate group size was infeasible", per_n=tuple(per_n))
    return optima


def _least_cost(optima: dict) -> float:
    return min(cost for _, cost, _ in optima.values())


@dataclass(frozen=True)
class ZBounds:
    """The objective's bracket over a whole plan problem: z_upper is C(1),
    the least tight optimum over the group sizes, and z_lower is C(0), the
    least relaxed one, or z_upper where rounding puts C(0) above it.
    ``memo`` holds every solve made so far, so `_optima` at any cut already
    searched, s = 1 included, is read from it without a solve."""

    z_lower: float
    z_upper: float
    memo: _Memo = field(compare=False, repr=False)


def zimmermann_bounds(problem) -> ZBounds:
    """Bracket the objective (Zimmermann 1978) over the group sizes of
    ``problem`` (see `_optima`): C(1), at the levels, and C(0), at the
    relaxed levels.  The relaxed problem's feasible set holds the tight
    one's, so no size's relaxed optimum is higher, which is checked for every
    size solved at both; without slack the two cuts are one, solved once."""
    memo = _Memo(problem)
    tight, relaxed = _optima(memo, 1.0), _optima(memo, 0.0)
    for n, (_, cost, _) in relaxed.items():
        if n in tight and cost > tight[n][1] + _FEASIBILITY_TOL * (1.0 + abs(tight[n][1])):
            raise ConsistencyError(f"relaxed optimum {cost} exceeds tight optimum {tight[n][1]}")
    z_upper = _least_cost(tight)
    return ZBounds(min(_least_cost(relaxed), z_upper), z_upper, memo)


def _level_membership(level: FuzzyLevel, value: float) -> float:
    """Membership of a risk value, unclipped.  A zero-slack level is met
    exactly, as every design point comes from `solve_monotone`, which meets
    its levels as evaluated."""
    if level.slack > 0.0:
        return (level.relaxed - value) / level.slack
    return 1.0 if value <= level.level else 0.0


def solve_max_phi(bracket: ZBounds, membership_form: str = "cost_ascending") -> PlanDesign:
    """The max-min design (Zimmermann 1978) over the group sizes of
    ``bracket``, a plan problem's `zimmermann_bounds`, at the problem's
    fuzzy risk levels: the largest phi, then the least cost at it, as the
    cheapest crisp optimum of C(s*), `_optima` at one cut s*.

    The group size is a decision variable, so the bracket is the whole
    problem's.  phi(x, n) >= s holds exactly where g(x) <= alpha.cut(s),
    h(x) <= beta.cut(s) and the objective's membership is at least s.  Let
    C_n(s) be size n's crisp optimum under those two cuts, and C(s) the
    least of them.  The cuts shrink as s grows, so no C_n falls, and neither
    does C, from C(0) = z_lower to C(1) = z_upper.  Every size is feasible
    at every cut s <= 1, as the cut is no tighter than the level its tight
    solve met.

    - Under ``cost_ascending`` s* = 1: the argmin of C(1) meets the levels
      and costs z_upper, so every membership is 1 there; any point with
      phi = 1 meets the levels, so it costs at least C(1).  s* = 1 too
      where the bracket is narrower than _MIN_SPAN times max(1, |z_upper|),
      as a bracket of an ulp or two of the cost is; nothing is solved.  The
      objective takes no membership: every tight cost is at least z_upper,
      so (cost - z_lower)/span would be at least 1.
    - Under ``standard`` the objective's membership (z_upper - cost)/span is
      at least s where cost <= z_upper - s*span.  So s* = phi* is the
      largest s with F(s) = C(s) + s*span - z_upper <= 0: the root of F,
      which rises strictly from -span at s = 0 to +span at s = 1, found by
      Brent's method as the root iterate of largest s with F(s) <= 0.  The
      argmin of C(phi*) has phi >= phi*, as F(phi*) <= 0, and every point
      with phi >= phi* meets the cuts at phi*, so it costs at least
      C(phi*): that argmin is the design.

    Each root probe is `_optima` at its s over ``bracket.memo``, which so
    holds every solve of the search at s*.  Ties on cost go to the smaller
    n, the earlier key of the optima.  phi is computed at the design point,
    not set, and each margin is the risk's cut at s* less its value there:
    the optimum met that cut as evaluated, so no margin is negative.  The
    trace has one entry (n, phi, cost, case) per size that `_optima`
    returns at s*: its crisp optimum there, phi taken against the shared
    bracket, and ``case`` the `solve_monotone` case.
    """
    _check_membership_form(membership_form)
    memo, z_lower, z_upper = bracket.memo, bracket.z_lower, bracket.z_upper
    alpha, beta = memo.problem.alpha, memo.problem.beta
    span = z_upper - z_lower
    cost_membership = membership_form == "standard" and span >= _MIN_SPAN * max(1.0, abs(z_upper))
    s = 1.0
    if cost_membership:
        ends = {0.0: -span, 1.0: span}

        def shortfall(s: float) -> float:
            if s in ends:
                return ends[s]
            return _least_cost(_optima(memo, s)) + s * span - z_upper

        s = _last_met(shortfall, 0.0, 1.0)
        if s == 0.0:
            raise InfeasibleError("no point with positive satisfaction found")
    optima = _optima(memo, s)

    def evaluated(n, x, cost: float) -> tuple:
        _, g, h, _ = memo.functions(n)
        g_value, h_value = float(g(x)), float(h(x))
        memberships = [_level_membership(alpha, g_value), _level_membership(beta, h_value)]
        if cost_membership:
            memberships.append((z_upper - cost) / span)
        return min(1.0, max(0.0, min(memberships))), g_value, h_value

    points = {n: evaluated(n, x, cost) for n, (x, cost, _) in optima.items()}
    n = min(optima, key=lambda n: optima[n][1])
    x, cost, _ = optima[n]
    phi, g_value, h_value = points[n]
    return PlanDesign(
        t1=float(x[0]),
        t2=float(x[1]),
        n=n,
        phi=phi,
        objective_value=cost,
        g_value=g_value,
        h_value=h_value,
        g_margin=alpha.cut(s) - g_value,
        h_margin=beta.cut(s) - h_value,
        z_lower=z_lower,
        z_upper=z_upper,
        trace=tuple((m, points[m][0], c, case) for m, (_, c, case) in optima.items()),
    )


def solve_plan(
    problem,
    settings: SolverSettings = DEFAULT_SOLVER,
    membership_form: str = "cost_ascending",
) -> PlanDesign:
    """Full pipeline for one plan problem: bracket the objective over its
    group sizes (`zimmermann_bounds`), then take the max-min design over all
    of them at once (`solve_max_phi`).  Nothing reads ``settings``; it goes
    with `SolverSettings`.

    The design depends on the sizes only through C(s) and its argmin,
    `_optima` at each s the two stages use: 1 and 0 for the bracket, each
    root probe, and s*.  One memo serves them all, so no size is solved
    twice at a cut.
    """
    _check_membership_form(membership_form)
    return solve_max_phi(zimmermann_bounds(problem), membership_form)
