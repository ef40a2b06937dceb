"""The oscillatory integrals of the expected inter-failure time and a
high-precision normal CDF.

The cos(u)/u and sin(u)/u pair has a closed form in the cosine and sine
integrals.  The tests check it against composite Simpson quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, sici

from .errors import DomainError


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
