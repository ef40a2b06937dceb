"""Reference numerics that only the tests use: composite Simpson quadrature,
the raised-cosine life membership and its mass, the left-shoulder level
membership, center-of-gravity de-fuzzification, a numpy model of the plan
functions that broadcasts over arrays of thresholds, and the grid oracle
`solve_crisp` that scans it.  The closed forms and the solver in `asplan`
are checked against these."""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize
from scipy.special import erfc

from asplan.errors import DegeneratePlanError, DomainError, InfeasibleError
from asplan.fuzzyopt import _FEASIBILITY_TOL, DEFAULT_SOLVER, SolverSettings
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.plans import Family, crisp_limit, expected_stage_duration, plan_functions

# Absolute floor below which successive Simpson estimates are considered
# converged even when the relative test is meaningless (integral near 0).
_ABS_FLOOR = 1e-15


class ConvergenceError(RuntimeError):
    """Iterative refinement failed to converge; carries the last two estimates."""

    def __init__(self, message, previous=None, latest=None):
        super().__init__(message)
        self.previous = previous
        self.latest = latest


@dataclass(frozen=True)
class QuadratureSettings:
    initial_panels: int = 64
    rel_tol: float = 1e-10
    max_refinements: int = 20

    def __post_init__(self) -> None:
        if self.initial_panels <= 0 or self.initial_panels % 2 != 0:
            raise DomainError(f"initial_panels must be a positive even integer, got {self.initial_panels}")
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_refinements < 1:
            raise DomainError(f"max_refinements must be >= 1, got {self.max_refinements}")


DEFAULT_SETTINGS = QuadratureSettings()


def _composite_simpson(f: Callable[[float], float], lo: float, hi: float, panels: int) -> float:
    h = (hi - lo) / panels
    total = f(lo) + f(hi)
    total += 4.0 * math.fsum(f(lo + h * i) for i in range(1, panels, 2))
    total += 2.0 * math.fsum(f(lo + h * i) for i in range(2, panels, 2))
    return total * h / 3.0


def simpson(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Composite Simpson estimate, refined by panel doubling until stable."""
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    panels = settings.initial_panels
    previous = _composite_simpson(f, lo, hi, panels)
    for _ in range(settings.max_refinements):
        panels *= 2
        current = _composite_simpson(f, lo, hi, panels)
        delta = abs(current - previous)
        if delta <= settings.rel_tol * max(abs(current), abs(previous)) or delta <= _ABS_FLOOR:
            return current
        previous = current
    raise ConvergenceError(
        f"Simpson rule did not converge after {settings.max_refinements} refinements "
        f"({panels} panels): last estimates {previous!r}, {current!r}",
        previous=previous,
        latest=current,
    )


def life_membership(life: FuzzyLife, rate: float) -> float:
    """Raised-cosine membership of a failure rate, in [0, 1].

    Exactly 0 at and beyond the support endpoints (cos(+-pi) = -1 in the
    closed form); 1 at rate = 1/lambda_j.
    """
    if not rate > 0:
        raise DomainError(f"rate must be positive, got {rate}")
    lo, hi = life.support
    if rate <= lo or rate >= hi:
        return 0.0
    return 0.5 * (1.0 + math.cos(life.a * math.pi * (rate - 1.0 / life.lambda_j)))


def life_membership_mass(life: FuzzyLife) -> float:
    """Integral of the membership over its support: the raised-cosine area 1/a."""
    return 1.0 / life.a


def level_membership(level: FuzzyLevel, x: float) -> float:
    """Left-shoulder membership: 1 below the level, linear taper over the slack."""
    if x < level.level:
        return 1.0
    if level.slack == 0.0:
        return 0.0
    if x >= level.level + level.slack:
        return 0.0
    return min(1.0, (level.level + level.slack - x) / level.slack)


def defuzzify_center_of_gravity(center: float, a: float) -> float:
    """Centroid of a raised-cosine membership centered at ``center``.

    By symmetry the centroid equals the center exactly, which is the whole
    point: center-of-gravity de-fuzzification collapses a fuzzy mean life
    back to its crisp value.  The center is taken explicitly so the centroid
    can be computed in either rate space or time space.
    """
    if not a > 0:
        raise DomainError(f"fuzziness scale must be positive, got {a}")
    if not center - 1.0 / a > 0:
        raise DomainError(
            f"support [{center - 1.0 / a}, {center + 1.0 / a}] must lie inside (0, inf)"
        )
    return float(center)


# -- the plan functions over arrays -----------------------------------------
# A second implementation of `lifemodel`'s closed forms and `plans`' long-run
# rates, elementwise over numpy arrays of thresholds, for the grid oracle
# `solve_crisp` below and for pinning the scalar path.  Points
# where a plan never ends get N = inf and NaN risks, which the grid ranks as
# infeasible.


def survival_array(life, t: np.ndarray) -> np.ndarray:
    """Weighted survival P(Y >= t): e^{-t/lambda} for a plain mean life, else
    pi^2 a^3 (e^{2t/a} - 1) e^{-t/lambda - t/a} / (2t^3 + 2 pi^2 a^2 t), with
    the bracket split at 2t/a = 1 against cancellation and overflow: a
    second form of `asplan.lifemodel.weighted_survival`'s sinh(x) one."""
    if not isinstance(life, FuzzyLife):
        return np.exp(-t / life)
    a, lam = life.a, life.lambda_j
    bracket = np.where(
        2.0 * t / a < 1.0,
        np.expm1(2.0 * t / a) * np.exp(-t / lam - t / a),
        np.exp(t / a - t / lam) - np.exp(-t / a - t / lam),
    )
    value = math.pi ** 2 * a ** 3 * bracket / (2.0 * t ** 3 + 2.0 * math.pi ** 2 * a ** 2 * t)
    return np.clip(value, 0.0, 1.0)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * erfc(-z / math.sqrt(2.0))


def triprob_arrays(problem, n, life, t1: np.ndarray, t2: np.ndarray) -> tuple:
    """(p_a, p_r) of one stage of the problem's family at group size n."""
    family = problem.family
    if family is Family.RGSP_MIN:
        t1, t2 = n * t1, n * t2
    if family is Family.TYPE_I:
        lam = life.lambda_j if isinstance(life, FuzzyLife) else life
        frac = -math.expm1(-problem.tau / lam)
        m = n * math.sqrt(frac) if problem.sd_form == "n" else math.sqrt(n * frac)
        z1, z2 = (t1 - lam) / lam * m, (t2 - lam) / lam * m
        return _normal_cdf(-z2), _normal_cdf(z1)
    s1, s2 = survival_array(life, t1), survival_array(life, t2)
    if family is Family.RGSP_MAX:
        return 1.0 - (1.0 - s2) ** n, (1.0 - s1) ** n
    return s2, 1.0 - s1


def long_run_arrays(p_a: np.ndarray, p_r: np.ndarray) -> tuple:
    """Long-run (P_A, P_R, N) of a stage that ends with probability p_a + p_r."""
    ends = p_a + p_r
    with np.errstate(divide="ignore", invalid="ignore"):
        return p_a / ends, p_r / ends, 1.0 / ends


def plan_arrays(problem, n, crisp: bool = False):
    """(objective, g, h, box, ordering) as `asplan.plans.plan_functions`
    returns them, with the closures taken from this model: each broadcasts
    over x stacked as (2, ...) arrays.  The box, the ordering and the stage
    duration come from `asplan.plans`."""
    p = crisp_limit(problem) if crisp else problem
    *_, box, ordering = plan_functions(p, n)
    upper = p.objective_variant == "etc_upper_bound"
    e0 = expected_stage_duration(p.family, p.lambda0, n, upper, p.tau)

    def run(life, x):
        return long_run_arrays(*triprob_arrays(p, n, life, np.asarray(x[0]), np.asarray(x[1])))

    def objective(x):
        return p.cost * e0 * run(p.lambda0, x)[2]

    def g(x):
        return run(p.lambda0, x)[1]

    def h(x):
        return run(p.lambda1, x)[0]

    return objective, g, h, box, ordering


# -- the grid oracle ----------------------------------------------------------
# The general crisp solver for any box: one grid scan ranked at the
# problem's bounds, its best basins polished by SLSQP.  No design path runs
# it; the tests check `asplan.fuzzyopt.solve_monotone` against it.

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


def _polish(nlp: CrispNlp, coords: _Coords, x0: np.ndarray) -> np.ndarray:
    """SLSQP from x0 on the cube, the constraints passed as they are,
    stopped early on a stalled objective."""
    scale = 1.0 + abs(float(nlp.objective(x0)))
    recent = collections.deque(maxlen=_STALL_ITERS + 1)

    def ineq(z: np.ndarray) -> np.ndarray:
        x = coords.to_x(z)
        return np.array([bound - fn(x) for fn, bound in nlp.constraints])

    def stop_on_stall(intermediate_result):
        recent.append(intermediate_result.fun)
        if len(recent) == recent.maxlen and (
            max(recent) - min(recent) <= _SLSQP_FTOL * (1.0 + abs(recent[-1]))
        ):
            raise StopIteration

    result = minimize(
        lambda z: nlp.objective(coords.to_x(z)) / scale,
        coords.to_z(x0),
        method="SLSQP",
        bounds=[(0.0, _CELLS)] * len(x0),
        constraints={"type": "ineq", "fun": ineq} if nlp.constraints else (),
        options={"ftol": _SLSQP_FTOL, "maxiter": _SLSQP_MAX_ITER},
        callback=stop_on_stall,
    )
    return coords.to_x(result.x)


def solve_crisp(
    nlp: CrispNlp,
    settings: SolverSettings = DEFAULT_SOLVER,
) -> tuple[np.ndarray, float]:
    """Best feasible point of a grid scan, polished by a local solver.

    The scan puts _GRID points on each axis of the box and evaluates the
    objective and the largest constraint excess at every cell that keeps
    the ordering; a cell where a function is not finite gets an infinite
    excess.  Ranks order feasible cells by value, ties to the lower cell
    index; infeasible cells are ranked, by excess, only when no cell is
    feasible.  Then SLSQP starts from each of at most ``settings.restarts``
    grid basins, best first; a grid with no feasible cell offers only its
    least violation.  A polished point replaces its start only if it is
    feasible and no worse.  A polish that steps out of the plan's domain is
    dropped.  Raises InfeasibleError, with the grid's least violation, when
    no point is feasible.

    Cells and polished points up to _FEASIBILITY_TOL over a bound count as
    feasible, so the answer can lie slightly over a level and cost less than
    the exact optimum that `solve_monotone` returns: 2.4e-6 relative on one
    generated `type1` problem.  That is why
    `test_solve_monotone_is_no_worse_than_the_grid` compares the two at the
    levels this answer meets.
    """
    coords = _Coords(nlp)
    axes = coords.axes()
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

    limit = settings.restarts if feasible.any() else 1
    starts = [_points(axes, cell) for cell in _basins(rank)[:limit]]
    best_x = None
    best_f = math.inf
    for x0 in starts:
        f0 = _value(nlp, x0)
        try:
            x1 = _polish(nlp, coords, x0)
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
        point = _points(axes, cells[least]) if math.isfinite(violation) else None
        raise InfeasibleError(
            f"no feasible point found on the grid or from {len(starts)} polished starts "
            f"(best violation {violation:.3e})",
            best_point=point,
            best_violation=violation,
        )
    return best_x, best_f
