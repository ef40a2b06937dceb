"""Numerical integration primitives and a high-precision normal CDF.

The oscillatory cos(u)/u and sin(u)/u pair in the expected inter-failure
time has a closed form in the cosine and sine integrals.  Composite
Simpson's rule with panel-doubling refinement is kept as the reference
integrator that the closed forms are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erfc, sici

from .errors import ConvergenceError, DomainError

# Absolute floor below which successive Simpson estimates are considered
# converged even when the relative test is meaningless (integral near 0).
_ABS_FLOOR = 1e-15


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


def oscillatory_pair(c: float) -> tuple[float, float]:
    """The pair (int cos(u)/u du, int sin(u)/u du) over [c - pi, c + pi].

    Closed form Ci(c + pi) - Ci(c - pi), Si(c + pi) - Si(c - pi)
    (Abramowitz & Stegun 5.2); c > pi keeps the interval away from the
    origin (c = a*pi/lambda_0 with a > lambda_0).
    """
    if not c > math.pi:
        raise DomainError(f"need c > pi so the interval avoids the origin, got c={c}")
    si_hi, ci_hi = sici(c + math.pi)
    si_lo, ci_lo = sici(c - math.pi)
    return float(ci_hi - ci_lo), float(si_hi - si_lo)


def std_normal_cdf(z):
    """Standard normal CDF via the complementary error function (~1e-15
    accurate), elementwise over a numpy array."""
    if isinstance(z, np.ndarray):
        return 0.5 * erfc(-z / math.sqrt(2.0))
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
