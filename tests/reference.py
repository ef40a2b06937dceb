"""Reference numerics that only the tests use: composite Simpson quadrature,
the raised-cosine life membership and its mass, the left-shoulder level
membership and center-of-gravity de-fuzzification.  The closed forms in
`asplan` are checked against these."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from asplan.errors import DomainError
from asplan.membership import FuzzyLevel, FuzzyLife

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
