"""Reference numerics that only the tests use: composite Simpson quadrature,
the raised-cosine life membership and its mass, the left-shoulder level
membership, center-of-gravity de-fuzzification, and a numpy model of the
plan functions that broadcasts over arrays of thresholds.  The closed forms
in `asplan` are checked against these."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erfc

from asplan.errors import DomainError
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
# `asplan.fuzzyopt.solve_crisp` and for pinning the scalar path.  Points
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
