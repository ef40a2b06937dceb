"""Constrained optimization over the threshold box and the fuzzy-to-crisp
pipeline.  Nothing here knows the plan families: a plan problem hands
`solve_plan` its group sizes, its functions and its cost floor.

`solve_crisp` scans a dense grid of the box, masking the ordering and the
constraints, then polishes the best grid basins with SLSQP.  It draws no
random numbers.  On top of it sits the max-min satisfaction method: bracket
the objective between the tight and the relaxed crisp optima, then maximize
the minimum membership across the objective and both risk constraints, and
finally minimize cost at that satisfaction level.  Under the default
`cost_ascending` membership that max-min design is the tight crisp optimum,
so `solve_plan` returns it from the bracket and runs the two max-min stages
only for the `standard` membership.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConsistencyError, DegeneratePlanError, DomainError, InfeasibleError
from .membership import FuzzyLevel

# Slope of the pseudo-membership used for zero-slack (crisp) levels.  Steep
# enough that stage 2's floor, _PHI_TOL/2 under phi*, holds a crisp risk
# within 5e-14 of its level; shallow enough that an ulp of a risk (about
# 7e-18) stays far below _SLSQP_FTOL once scaled by it.  At 1e6 SLSQP could
# not tell the constraint met, and crisp stage-2 polishes ran to their cap.
_CRISP_RAMP = 1e4
_PHI_TOL = 1e-9
# Grid points per axis of the scan: a 2-D grid array is about 0.5 MB.
_GRID = 257
_CELLS = _GRID - 1
# Cells per closure call in the scan.
_BLOCK = 4096
# SLSQP stopping tolerance on the objective, which the polish scales to O(1).
_SLSQP_FTOL = 1e-12
_SLSQP_MAX_ITER = 30
# A polish stops once its objective has stayed within _SLSQP_FTOL over this
# many iterations.  Runs that SLSQP cannot certify as converged otherwise go
# on to _SLSQP_MAX_ITER; on the benchmark's `ssp` problems every such run had
# reached its final objective by iteration 13.
_STALL_ITERS = 5
# Largest constraint violation a point may have and still count as feasible.
_FEASIBILITY_TOL = 1e-6
MEMBERSHIP_FORMS = ("cost_ascending", "standard")


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on the first call: it is slow to
    import, and the commands that solve nothing should not pay for it."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _check_membership_form(form: str) -> None:
    if form not in MEMBERSHIP_FORMS:
        raise DomainError(f"unknown membership_form {form!r}")


@dataclass(frozen=True)
class SolverSettings:
    """`restarts` caps the grid basins that each solve polishes.

    The solver draws no random numbers, so `seed` does not change a design;
    the field stays for the callers that set it.
    """

    restarts: int = 32
    seed: int = 42

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise DomainError(f"restarts must be >= 1, got {self.restarts}")


DEFAULT_SOLVER = SolverSettings()


@dataclass(frozen=True)
class CrispNlp:
    """Minimize objective(x) subject to constraint(x) <= bound, box bounds,
    and pairwise ordering x[i] <= x[j].

    The objective and constraints take x stacked as (dim, ...) arrays and
    broadcast; for a point of shape (dim,) they return a float.
    """

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
        _check_membership_form(self.membership_form)
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


class _Coords:
    """The box as the cube [0, _CELLS]^dim that the polish works in.

    Axes are geometric when every lower edge is positive (thresholds span
    many decades), linear otherwise, and measured in grid cells, so that a
    unit step is one cell.  For an ordering pair (i, j), cube coordinate j
    is the share of the room between x[i] and the top of axis j, so the
    polish keeps x[i] <= x[j] by construction; each j may follow one i,
    listed before any pair that orders after x[j].
    """

    def __init__(self, nlp: CrispNlp) -> None:
        self.lo = np.array([b[0] for b in nlp.box], dtype=float)
        self.hi = np.array([b[1] for b in nlp.box], dtype=float)
        self.log = bool(np.all(self.lo > 0.0))
        self.ordering = nlp.ordering
        self._lo_u = self._u(self.lo)
        self._hi_u = self._u(self.hi)

    def _u(self, x: np.ndarray) -> np.ndarray:
        return np.log(x) if self.log else x

    def axes(self) -> list:
        space = np.geomspace if self.log else np.linspace
        return [space(lo, hi, _GRID) for lo, hi in zip(self.lo, self.hi)]

    def to_x(self, z: np.ndarray) -> np.ndarray:
        z = z / _CELLS
        u = self._lo_u + z * (self._hi_u - self._lo_u)
        for i, j in self.ordering:
            u[j] = u[i] + z[j] * (self._hi_u[j] - u[i])
        return np.clip(np.exp(u) if self.log else u, self.lo, self.hi)

    def to_z(self, x: np.ndarray) -> np.ndarray:
        u = self._u(np.clip(x, self.lo, self.hi))
        z = _fraction(u - self._lo_u, self._hi_u - self._lo_u)
        for i, j in self.ordering:
            z[j] = _fraction(u[j] - u[i], self._hi_u[j] - u[i])
        return np.clip(z, 0.0, 1.0) * _CELLS


def _fraction(part, whole):
    return np.divide(part, whole, out=np.zeros_like(part), where=whole > 0.0)


def _points(axes: list, cells) -> np.ndarray:
    """Grid points of flat cell indices, stacked as (dim, ...)."""
    index = np.unravel_index(cells, tuple(len(axis) for axis in axes))
    return np.array([axis[k] for axis, k in zip(axes, index)])


def _scan(nlp: CrispNlp, axes: list) -> tuple:
    """(cells, excess, rank): the flat index and worst constraint excess of
    each grid cell that keeps the ordering, and the rank of every cell on
    the grid.

    Cells where a function is not finite get an infinite excess.  Ranks
    order feasible cells by value, ties to the lower cell index;
    infeasible cells are ranked, by excess, only when no cell is feasible.
    Unranked cells, and those that break the ordering, rank at infinity.
    """
    shape = tuple(len(axis) for axis in axes)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    ordered = np.ones(shape, dtype=bool)
    for i, j in nlp.ordering:
        ordered &= mesh[i] <= mesh[j]
    cells = np.flatnonzero(ordered)
    value = np.empty(cells.size)
    excess = np.zeros(cells.size)
    # Blocks keep the closures' temporaries small.
    for start in range(0, cells.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        x = _points(axes, cells[block])
        with np.errstate(all="ignore"):
            value[block] = nlp.objective(x)
            for fn, bound in nlp.constraints:
                excess[block] = np.maximum(excess[block], fn(x) - bound)
    valid = np.isfinite(value) & np.isfinite(excess)
    value[~valid] = np.inf
    excess[~valid] = np.inf
    feasible = excess <= _FEASIBILITY_TOL
    order = np.lexsort((value, np.where(feasible, 0.0, excess)))
    # float32 holds every rank of a 2-D grid exactly, in half the memory.
    ranked = np.empty(cells.size, dtype=np.float32)
    ranked[order] = np.arange(cells.size)
    ranked[~(feasible if feasible.any() else valid)] = np.inf
    rank = np.full(shape, np.inf, dtype=np.float32)
    rank.flat[cells] = ranked
    return cells, excess, rank


def _basins(rank: np.ndarray) -> np.ndarray:
    """Flat indices of the cells ranked no worse than any of their (up to
    3^dim - 1) neighbours, best first."""
    padded = np.pad(rank, 1, constant_values=np.inf)
    lowest = np.isfinite(rank)
    for offset in itertools.product((0, 1, 2), repeat=rank.ndim):
        if any(o != 1 for o in offset):
            window = tuple(slice(o, o + n) for o, n in zip(offset, rank.shape))
            lowest &= rank <= padded[window]
    cells = np.flatnonzero(lowest)
    return cells[np.argsort(rank.flat[cells])]


def _value(nlp: CrispNlp, x: np.ndarray) -> float:
    """Objective at x if x is feasible within _FEASIBILITY_TOL, else inf."""
    excess = [float(fn(x)) - bound for fn, bound in nlp.constraints]
    excess += [x[i] - x[j] for i, j in nlp.ordering]
    value = float(nlp.objective(x))
    if math.isfinite(value) and all(e <= _FEASIBILITY_TOL for e in excess):
        return value
    return math.inf


def _slsqp(fun, z0: np.ndarray, bounds: list, ineq=None) -> np.ndarray:
    """SLSQP from z0, stopped early on a stalled objective; ``ineq(z)``
    returns the array of constraints >= 0."""
    recent = collections.deque(maxlen=_STALL_ITERS + 1)

    def stop_on_stall(intermediate_result):
        recent.append(intermediate_result.fun)
        if len(recent) == recent.maxlen and (
            max(recent) - min(recent) <= _SLSQP_FTOL * (1.0 + abs(recent[-1]))
        ):
            raise StopIteration

    result = minimize(
        fun,
        z0,
        method="SLSQP",
        bounds=bounds,
        constraints={"type": "ineq", "fun": ineq} if ineq is not None else (),
        options={"ftol": _SLSQP_FTOL, "maxiter": _SLSQP_MAX_ITER},
        callback=stop_on_stall,
    )
    return result.x


def _polish(nlp: CrispNlp, coords: _Coords, x0: np.ndarray) -> np.ndarray:
    """SLSQP from x0 on the cube, the constraints passed as they are."""
    scale = 1.0 + abs(float(nlp.objective(x0)))

    def ineq(z: np.ndarray) -> np.ndarray:
        x = coords.to_x(z)
        return np.array([bound - fn(x) for fn, bound in nlp.constraints])

    z = _slsqp(
        lambda z: nlp.objective(coords.to_x(z)) / scale,
        coords.to_z(x0),
        [(0.0, _CELLS)] * len(x0),
        ineq if nlp.constraints else None,
    )
    return coords.to_x(z)


def _epigraph_polish(memberships: tuple):
    """Polish for max min(1, m_k(x)): SLSQP on (z, s), maximizing s subject
    to m_k(x(z)) >= s and s <= 1."""

    def polish(nlp: CrispNlp, coords: _Coords, x0: np.ndarray) -> np.ndarray:
        dim = len(x0)

        def ineq(w: np.ndarray) -> np.ndarray:
            x = coords.to_x(w[:dim])
            return np.array([m(x) for m in memberships]) - w[dim]

        s0 = min(1.0, *(float(m(x0)) for m in memberships))
        w = _slsqp(
            lambda w: -w[dim],
            np.append(coords.to_z(x0), s0),
            [(0.0, _CELLS)] * dim + [(None, 1.0)],
            ineq,
        )
        return coords.to_x(w[:dim])

    return polish


def solve_crisp(
    nlp: CrispNlp,
    settings: SolverSettings = DEFAULT_SOLVER,
    extra_starts: Sequence[Sequence[float]] = (),
    polish=_polish,
) -> tuple[np.ndarray, float]:
    """Best feasible point of a grid scan, polished by a local solver.

    The scan puts _GRID points on each axis of the box.  Then
    ``polish(nlp, coords, x0)`` (SLSQP by default) starts from each of at
    most ``settings.restarts`` grid basins, best first, and from each extra
    start not already listed; a grid with no feasible cell offers only its
    least violation.
    A polished point replaces its start only if it is feasible within
    _FEASIBILITY_TOL and no worse.  A polish that steps out of the plan's
    domain is dropped.  Raises InfeasibleError, with the grid's least
    violation, when no point is feasible.
    """
    coords = _Coords(nlp)
    axes = coords.axes()
    cells, excess, rank = _scan(nlp, axes)
    limit = settings.restarts if np.any(excess <= _FEASIBILITY_TOL) else 1
    starts = [_points(axes, cell) for cell in _basins(rank)[:limit]]
    starts += [np.clip(np.asarray(s, dtype=float), coords.lo, coords.hi) for s in extra_starts]
    best_x = None
    best_f = math.inf
    for start in dict.fromkeys(tuple(x.tolist()) for x in starts):
        x0 = np.array(start)
        f0 = _value(nlp, x0)
        try:
            x1 = polish(nlp, coords, x0)
            f1 = _value(nlp, x1)
        except (DomainError, DegeneratePlanError):
            x1, f1 = x0, math.inf
        if f1 <= f0:
            x0, f0 = x1, f1
        if f0 < best_f:
            best_x, best_f = x0, f0
    if best_x is None:
        least = int(np.argmin(excess))
        violation = float(excess[least])
        raise InfeasibleError(
            f"no feasible point found on the grid or from {len(starts)} polished starts "
            f"(best violation {violation:.3e})",
            best_point=_points(axes, cells[least]) if math.isfinite(violation) else None,
            best_violation=violation,
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
    feasible set can never report a worse value.  Without slack the two
    problems are one, solved once.
    """
    tight = CrispNlp(objective, ((g, alpha.level), (h, beta.level)), box, ordering)
    tight_x, tight_value = solve_crisp(tight, settings)
    if alpha.slack == 0.0 and beta.slack == 0.0:
        relaxed_x, relaxed_value = tight_x, tight_value
    else:
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


def _level_ramp(level: FuzzyLevel, value):
    """Membership of a risk value, extended below 0 so the polish sees a slope."""
    if level.slack > 0.0:
        return (level.relaxed - value) / level.slack
    return 1.0 - (value - level.level) * _CRISP_RAMP


def _memberships(p: MaxPhiProblem) -> tuple:
    """Extended (unclipped) membership functions: risk constraints always,
    objective only when the bracket is non-degenerate."""
    fns = [
        lambda x: _level_ramp(p.alpha, p.g_fn(x)),
        lambda x: _level_ramp(p.beta, p.h_fn(x)),
    ]
    span = p.z_upper - p.z_lower
    if span >= 1e-9:
        if p.membership_form == "cost_ascending":
            fns.append(lambda x: (p.objective_fn(x) - p.z_lower) / span)
        else:
            fns.append(lambda x: (p.z_upper - p.objective_fn(x)) / span)
    return tuple(fns)


def _phi(memberships: tuple, x):
    """The minimum membership at x, capped at 1; broadcasts like x."""
    return np.minimum(np.minimum.reduce([m(x) for m in memberships]), 1.0)


def _design_at(p: MaxPhiProblem, x, objective: float) -> PlanDesign:
    """The design at the point x of cost ``objective``: its risks, its
    satisfaction phi in [0, 1] and its margins to the risk levels relaxed
    by (1 - phi) of their slack."""
    phi = min(1.0, max(0.0, float(_phi(_memberships(p), x))))
    g_value = float(p.g_fn(x))
    h_value = float(p.h_fn(x))
    return PlanDesign(
        t1=float(x[0]),
        t2=float(x[1]) if len(x) > 1 else float(x[0]),
        n=None,
        phi=phi,
        objective_value=objective,
        g_value=g_value,
        h_value=h_value,
        g_margin=p.alpha.level + p.alpha.slack * (1.0 - phi) - g_value,
        h_margin=p.beta.level + p.beta.slack * (1.0 - phi) - h_value,
        z_lower=p.z_lower,
        z_upper=p.z_upper,
    )


def solve_max_phi(p: MaxPhiProblem, settings: SolverSettings = DEFAULT_SOLVER) -> PlanDesign:
    """Two-stage max-min solve.

    Stage 1 maximizes phi = min over memberships, capped at 1, polished in
    epigraph form; stage 2 minimizes cost subject to every membership
    staying at the achieved phi.  The split makes the design well defined on
    phi plateaus.  phi has no floor: a flat floor would make the grid offer
    a corner of the worst region as a basin.
    """
    memberships = _memberships(p)
    stage1 = CrispNlp(lambda x: -_phi(memberships, x), (), p.box, p.ordering)
    x1, neg_phi = solve_crisp(
        stage1, settings, extra_starts=p.extra_starts, polish=_epigraph_polish(memberships)
    )
    phi_star = min(1.0, max(0.0, -neg_phi))
    if phi_star <= 0.0:
        raise InfeasibleError(
            "no point with positive satisfaction found", best_point=tuple(x1)
        )

    # Half the tolerance, so that a polish ending a few ulps past the floor
    # still leaves a fully satisfied design at phi >= 1 - _PHI_TOL.
    floor = phi_star - 0.5 * _PHI_TOL
    stage2 = CrispNlp(
        p.objective_fn,
        tuple((lambda x, m=m: floor - m(x), 0.0) for m in memberships),
        p.box,
        p.ordering,
    )
    x2, obj = solve_crisp(stage2, settings, extra_starts=(x1, *p.extra_starts))
    return _design_at(p, x2, obj)


def solve_plan(
    problem,
    settings: SolverSettings = DEFAULT_SOLVER,
    membership_form: str = "cost_ascending",
) -> PlanDesign:
    """Full pipeline for one plan problem: per candidate group size, bracket
    the objective, take the max-min design, and keep the best design.

    The problem supplies ``alpha`` and ``beta``, ``group_sizes``,
    ``functions(n)`` returning (objective, g, h, box, ordering), and
    ``cost_floor``, the least cost any design can reach, or None.  Ties on
    phi break toward smaller cost, then smaller group size.  The search
    stops as soon as a fully satisfied design reaches the cost floor.

    Under ``cost_ascending`` the design is the bracket's tight optimum x_t,
    and no max-min stage runs.  x_t has g <= alpha, h <= beta and cost
    z_upper, so all three memberships are 1 there and phi = 1; any point
    with phi = 1 meets the tight levels, so it costs at least z_upper.
    Hence x_t is the lexicographic (phi, cost) optimum.  A group size
    without x_t is infeasible and skipped before any design is made.  The
    tight solve meets the levels to its feasibility tolerance only, so phi
    and the margins are computed at x_t, not set.  Under ``standard`` the
    two-stage `solve_max_phi` runs.
    """
    _check_membership_form(membership_form)
    alpha, beta, cost_floor = problem.alpha, problem.beta, problem.cost_floor
    best: Optional[PlanDesign] = None
    per_n = []
    trace = []
    for n in problem.group_sizes:
        objective, g, h, box, ordering = problem.functions(n)
        try:
            zb = zimmermann_bounds(objective, g, h, alpha, beta, box, ordering, settings)
        except InfeasibleError as exc:
            per_n.append((n, f"infeasible: best violation {exc.best_violation}"))
            continue
        max_phi = MaxPhiProblem(
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
        )
        if membership_form == "cost_ascending":
            design = _design_at(max_phi, zb.tight_x, zb.tight_value)
        else:
            design = solve_max_phi(max_phi, settings)
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
