"""Closed-form probabilities and expectations for the four plan families.

Everything here is built from the weighted survival function S(t): the
exponential survival e^{-lambda t} averaged over the raised-cosine
membership of the failure rate and renormalized by the membership mass,
e^{-t/lambda_j} sinh(x) / (x (1 + (x/pi)^2)) with x = t/a: one expression
at every scale, which tends to the crisp e^{-t/lambda_j} as a grows.
Every function that takes a life accepts a FuzzyLife or a plain positive
mean life; a plain number is the crisp exponential, the a -> inf limit.
Every formula takes and returns plain floats, one threshold pair at a time.

Two special functions live here too: the oscillatory integrals of cos(u)/u
and sin(u)/u in the expected inter-failure time, in closed form through the
cosine and sine integrals (the tests check them against composite Simpson
quadrature and mpmath), and the standard normal CDF of the Type-I
approximation.  `scipy.special`, slow to import, loads at the first Ci/Si;
from a = 1e4 * lambda_j on, E[Y] is a series and needs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError, DegeneratePlanError, DomainError
from .membership import FuzzyLife

# A fuzzy mean life, or a plain mean life for the crisp exponential model.
Life = FuzzyLife | float

# Probabilities may stray outside [0,1] by at most this before we refuse to clamp.
_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class Thresholds:
    """Decision thresholds (t1, t2): reject below t1, accept at or above t2.

    t1 = t2 is admitted (empty continuation band); Type-I designs use it.
    """

    t1: float
    t2: float

    def __post_init__(self) -> None:
        if not self.t1 > 0:
            raise DomainError(f"t1 must be positive, got {self.t1}")
        if not self.t2 >= self.t1:
            raise DomainError(f"need t2 >= t1, got t1={self.t1}, t2={self.t2}")


@dataclass(frozen=True)
class TriProb:
    p_a: float
    p_r: float
    p_c: float

    def __post_init__(self) -> None:
        total = self.p_a + self.p_r + self.p_c
        if not abs(total - 1.0) <= 1e-10:
            raise ConsistencyError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class LongRun:
    P_A: float
    P_R: float
    N: float


def _clamp_prob(x: float, what: str) -> float:
    if 0.0 <= x <= 1.0:
        return x
    if x < -_CLAMP_TOL or x > 1.0 + _CLAMP_TOL:
        raise ConsistencyError(f"{what} = {x} is outside [0,1] beyond tolerance")
    return min(1.0, max(0.0, x))


def weighted_survival(f: Life, t: float) -> float:
    """Survival probability P(Y >= t) under the membership-weighted model.

    The mixture a * int e^{-lambda t} H_j(lambda) dlambda in closed form:
    e^{-t/lambda_j} sinh(x) / (x (1 + (x/pi)^2)) with x = t/a, evaluated as
    e^{-(t/lambda_j)(a - lambda_j)/a} (1 - e^{-2x}) / (2x (1 + (x/pi)^2)),
    which neither overflows nor cancels at any a > lambda_j or t > 0.
    e^{-t/lambda} for a crisp life, and for a fuzzy one where x underflows.
    """
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    if not isinstance(f, FuzzyLife):
        if not f > 0:
            raise DomainError(f"mean life must be positive, got {f}")
        return math.exp(-t / f)
    a = f.a
    lam = f.lambda_j
    x = t / a
    if x == 0.0:
        return math.exp(-t / lam)
    value = math.exp(-(t / lam) * ((a - lam) / a)) * (
        -math.expm1(-2.0 * x) / (2.0 * x * (1.0 + x * x / math.pi ** 2)))
    return _clamp_prob(value, "weighted survival")


def ssp_triprob(f: Life, th: Thresholds) -> TriProb:
    """Accept/reject/continue probabilities for one inter-failure time."""
    s1 = weighted_survival(f, th.t1)
    s2 = weighted_survival(f, th.t2)
    return TriProb(p_a=s2, p_r=1.0 - s1, p_c=_clamp_prob(s1 - s2, "p_c"))


def rgsp_min_triprob(f: Life, th: Thresholds, n: int) -> TriProb:
    """Group-minimum probabilities: the minimum of n shared-rate exponentials
    is exponential with n times the rate, so this is the SSP form at n*t."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return ssp_triprob(f, Thresholds(t1=n * th.t1, t2=n * th.t2))


def rgsp_max_triprob(f: Life, th: Thresholds, n: int) -> TriProb:
    """Group-maximum probabilities raising the weighted CDF to the n-th power
    (an independent fuzzy rate per item)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    below_t1 = (1.0 - weighted_survival(f, th.t1)) ** n
    below_t2 = (1.0 - weighted_survival(f, th.t2)) ** n
    return TriProb(p_a=1.0 - below_t2, p_r=below_t1, p_c=_clamp_prob(below_t2 - below_t1, "p_c"))


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function, ~1e-15 accurate."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def typeI_triprob(
    lambda_j: float, th: Thresholds, n: int, tau: float, sd_form: str = "n"
) -> TriProb:
    """Normal-approximation probabilities for the censored-MLE statistic.

    The estimator is treated as normal with mean lambda_j and standard
    deviation lambda_j / m.  Two published scalings of m coexist:
    ``sd_form="n"`` uses m = n*sqrt(1 - e^{-tau/lambda_j}) and ``"sqrt_n"``
    uses m = sqrt(n*(1 - e^{-tau/lambda_j})).  The "n" scaling reproduces
    the reference operating characteristics; "sqrt_n" is the textbook
    asymptotic rate and is exposed for comparison.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}")
    if not lambda_j > 0:
        raise DomainError(f"lambda_j must be positive, got {lambda_j}")
    frac = -math.expm1(-tau / lambda_j)
    if sd_form == "n":
        m = n * math.sqrt(frac)
    elif sd_form == "sqrt_n":
        m = math.sqrt(n * frac)
    else:
        raise DomainError(f"unknown sd_form {sd_form!r}")
    z1 = (th.t1 - lambda_j) / lambda_j * m
    z2 = (th.t2 - lambda_j) / lambda_j * m
    phi1 = std_normal_cdf(z1)
    # Phi(-z2), not 1 - Phi(z2): the upper tail keeps its digits past z2 = 8.3.
    p_a = std_normal_cdf(-z2)
    return TriProb(p_a=p_a, p_r=phi1, p_c=_clamp_prob(std_normal_cdf(z2) - phi1, "p_c"))


def long_run(p: TriProb) -> LongRun:
    """Long-run acceptance/rejection probabilities and expected stage count.

    The stage ends with probability p_a + p_r, summed rather than taken as
    1 - p_c, which rounds to 0 once p_c is within an ulp of 1.  A plan that
    never ends (p_a + p_r = 0) raises DegeneratePlanError.
    """
    ends = p.p_a + p.p_r
    if ends == 0.0:
        raise DegeneratePlanError("the plan never terminates: p_a + p_r = 0")
    return LongRun(P_A=p.p_a / ends, P_R=p.p_r / ends, N=1.0 / ends)


def oscillatory_pair(c: float) -> tuple[float, float]:
    """The pair (int cos(u)/u du, int sin(u)/u du) over [c - pi, c + pi].

    Closed form Ci(c + pi) - Ci(c - pi), Si(c + pi) - Si(c - pi)
    (Abramowitz & Stegun 5.2); c > pi keeps the interval away from the
    origin (c = a*pi/lambda_0 with a > lambda_0).
    """
    if not c > math.pi:
        raise DomainError(f"need c > pi so the interval avoids the origin, got c={c}")
    from scipy.special import sici

    si_hi, ci_hi = sici(c + math.pi)
    si_lo, ci_lo = sici(c - math.pi)
    return float(ci_hi - ci_lo), float(si_hi - si_lo)


def expected_y(f: Life) -> float:
    """Mean inter-failure time under the weighted model.

    (a/2) ln((a+l)/(a-l)) + (a/2)[cos(c) Ic + sin(c) Is], c = a*pi/l, where
    (Ic, Is) integrate cos(u)/u and sin(u)/u over [c-pi, c+pi].  Tends to the
    nominal mean life as a grows (the oscillatory terms cancel the excess),
    which is the value for a crisp life.  From a = 1e4 * lambda_j on, where
    the Ci/Si form loses digits to cancellation, it is the series
    lambda_j (1 + (lambda_j/a)^2 (1/3 - 2/pi^2)) from the rate law's variance
    (1/a)^2 (1/3 - 2/pi^2); the next term, O((lambda_j/a)^4), is below 1e-17.
    """
    if not isinstance(f, FuzzyLife):
        if not f > 0:
            raise DomainError(f"mean life must be positive, got {f}")
        return f
    a = f.a
    lam = f.lambda_j
    if a >= 1e4 * lam:
        return lam * (1.0 + (lam / a) ** 2 * (1.0 / 3.0 - 2.0 / math.pi ** 2))
    c = a * math.pi / lam
    ic, is_ = oscillatory_pair(c)
    # log1p keeps the log term accurate when a >> lambda_j.
    log_term = math.log1p(lam / a) - math.log1p(-lam / a)
    return (a / 2.0) * log_term + (a / 2.0) * (math.cos(c) * ic + math.sin(c) * is_)


def expected_y_upper_bound(f: Life) -> float:
    """Analytic upper bound for expected_y: the log term times 1 + |cos c| + |sin c|.

    Exact (the mean life itself) for a crisp life.
    """
    if not isinstance(f, FuzzyLife):
        return expected_y(f)
    a = f.a
    lam = f.lambda_j
    c = a * math.pi / lam
    log_term = math.log1p(lam / a) - math.log1p(-lam / a)
    return (a / 2.0) * log_term * (1.0 + abs(math.cos(c)) + abs(math.sin(c)))


def harmonic_number(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))
