"""Closed-form probabilities and expectations for the four plan families.

Everything here is built from the weighted survival function S(t): the
exponential survival e^{-lambda t} averaged over the raised-cosine
membership of the failure rate and renormalized by the membership mass,
e^{-t/lambda_j} sinh(x) / (x (1 + (x/pi)^2)) with x = t/a: one expression
at every scale, which tends to the crisp e^{-t/lambda_j} as a grows.
Every function that takes a life accepts a FuzzyLife or a plain positive
mean life; a plain number is the crisp exponential, the a -> inf limit.
Every formula takes and returns plain floats, one threshold pair at a time.

Each family's stage law is one function of floats that returns
(p_a, p_r, p_c): `ssp_law(f, t1, t2)`, and the laws that `rgsp_min_law(n)`,
`rgsp_max_law(n)` and `typeI_law(n, tau, sd_form)` build once per group
size, after checking what depends on it alone.  Each evaluation makes the
checks of the value types: 0 < t1 <= t2 (NaN fails), p_c within [0, 1] up
to rounding, and a sum within 1e-10 of 1.  `long_run_rates` takes
(p_a, p_r) to (P_A, P_R, N).  The value types `Thresholds` and `TriProb`,
with `ssp_triprob`, `rgsp_min_triprob`, `rgsp_max_triprob` and
`typeI_triprob`, wrap these for callers that want named fields; the plan
closures evaluate the laws and build none of them.

Two special functions live here too: the oscillatory integrals of
(cos(u) - 1)/u and sin(u)/u in the expected inter-failure time, and the
standard normal CDF of the Type-I approximation.  E[Y] is written with the
pole of its log term split off, so both integrands are entire and a fixed
16-node Gauss-Legendre rule in pure Python gives them to a few ulps for
every fuzzy life (the tests check it against composite Simpson quadrature
and 50-digit Ci/Si); from a = 1e4 * lambda_j on, E[Y] is a series.  Nothing
here imports numpy or scipy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import ConsistencyError, DegeneratePlanError, DomainError
from .membership import FuzzyLife

# A fuzzy mean life, or a plain mean life for the crisp exponential model.
Life = FuzzyLife | float

# Probabilities may stray outside [0,1] by at most this before we refuse to clamp.
_CLAMP_TOL = 1e-12

# The two published scalings of the Type-I estimator's standard deviation.
SD_FORMS = ("n", "sqrt_n")

_PI_SQUARED = math.pi ** 2
_SQRT_2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Thresholds:
    """Decision thresholds (t1, t2): reject below t1, accept at or above t2.

    t1 = t2 is admitted (empty continuation band); Type-I designs use it.
    """

    t1: float
    t2: float

    def __post_init__(self) -> None:
        _check_thresholds(self.t1, self.t2)


@dataclass(frozen=True)
class TriProb:
    p_a: float
    p_r: float
    p_c: float

    def __post_init__(self) -> None:
        _summed_to_one(self.p_a, self.p_r, self.p_c)


def _check_thresholds(t1: float, t2: float) -> None:
    """Raise DomainError unless 0 < t1 <= t2; NaN fails both."""
    if not t1 > 0:
        raise DomainError(f"t1 must be positive, got {t1}")
    if not t2 >= t1:
        raise DomainError(f"need t2 >= t1, got t1={t1}, t2={t2}")


def _summed_to_one(p_a: float, p_r: float, p_c: float) -> tuple[float, float, float]:
    """(p_a, p_r, p_c), once their sum is within 1e-10 of 1."""
    total = p_a + p_r + p_c
    if not abs(total - 1.0) <= 1e-10:
        raise ConsistencyError(f"probabilities sum to {total}, not 1")
    return p_a, p_r, p_c


def _clamp_prob(x: float, what: str) -> float:
    if 0.0 <= x <= 1.0:
        return x
    if x < -_CLAMP_TOL or x > 1.0 + _CLAMP_TOL:
        raise ConsistencyError(f"{what} = {x} is outside [0,1] beyond tolerance")
    return min(1.0, max(0.0, x))


def check_group_size(n, name: str = "n") -> None:
    """Raise DomainError unless n is an integer (by `operator.index`, so
    not a float) of at least 1.  A bool is not a group size."""
    try:
        size = operator.index(n)
    except TypeError:
        size = None
    if size is None or isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if size < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")


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
        -math.expm1(-2.0 * x) / (2.0 * x * (1.0 + x * x / _PI_SQUARED)))
    return value if 0.0 <= value <= 1.0 else _clamp_prob(value, "weighted survival")


def ssp_law(f: Life, t1: float, t2: float) -> tuple[float, float, float]:
    """(p_a, p_r, p_c) of one inter-failure time at the thresholds (t1, t2).
    For a crisp life p_r is -expm1(-t1/lambda), which keeps its digits
    where 1 - S(t1) would cancel, at t1 far below the mean life."""
    _check_thresholds(t1, t2)
    s1 = weighted_survival(f, t1)
    s2 = weighted_survival(f, t2)
    p_r = 1.0 - s1 if isinstance(f, FuzzyLife) else -math.expm1(-t1 / f)
    p_c = s1 - s2
    return _summed_to_one(s2, p_r, p_c if 0.0 <= p_c <= 1.0 else _clamp_prob(p_c, "p_c"))


def rgsp_min_law(n: int):
    """The law (f, t1, t2) -> (p_a, p_r, p_c) of a group minimum of size n:
    the minimum of n shared-rate exponentials is exponential with n times
    the rate, so this is `ssp_law` at (n*t1, n*t2)."""
    check_group_size(n)

    def law(f: Life, t1: float, t2: float) -> tuple[float, float, float]:
        _check_thresholds(t1, t2)
        return ssp_law(f, n * t1, n * t2)

    return law


def rgsp_max_law(n: int):
    """The law (f, t1, t2) -> (p_a, p_r, p_c) of a group maximum of size n,
    the weighted CDF raised to the n-th power (an independent fuzzy rate
    per item).  p_a = 1 - (1 - S(t2))^n is -expm1(n log1p(-S(t2))), which
    keeps its digits where the power would lose eps/S(t2) relative, at
    small S(t2); 0.0 - keeps it +0 where S(t2) underflows."""
    check_group_size(n)

    def law(f: Life, t1: float, t2: float) -> tuple[float, float, float]:
        _check_thresholds(t1, t2)
        s2 = weighted_survival(f, t2)
        below_t1 = (1.0 - weighted_survival(f, t1)) ** n
        p_a = 0.0 - math.expm1(n * math.log1p(-s2))
        return _summed_to_one(
            p_a, below_t1, _clamp_prob((1.0 - s2) ** n - below_t1, "p_c"))

    return law


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function, ~1e-15 accurate."""
    return 0.5 * math.erfc(-z / _SQRT_2)


def typeI_law(n: int, tau: float, sd_form: str = "n"):
    """The law (lambda_j, t1, t2) -> (p_a, p_r, p_c) of the censored-MLE
    statistic of n items censored at tau, under the normal approximation.

    The estimator is treated as normal with mean lambda_j and standard
    deviation lambda_j / m.  Two published scalings of m coexist:
    ``sd_form="n"`` uses m = n*sqrt(1 - e^{-tau/lambda_j}) and ``"sqrt_n"``
    uses m = sqrt(n*(1 - e^{-tau/lambda_j})).  The "n" scaling reproduces
    the reference operating characteristics; "sqrt_n" is the textbook
    asymptotic rate and is exposed for comparison.
    """
    check_group_size(n)
    if tau is None or not 0 < tau < math.inf:
        raise DomainError(f"tau must be positive and finite, got {tau}")
    if sd_form not in SD_FORMS:
        raise DomainError(f"unknown sd_form {sd_form!r}")
    per_n = sd_form == "n"
    scales = {}  # lambda_j -> m, made once per mean life

    def law(lambda_j: float, t1: float, t2: float) -> tuple[float, float, float]:
        _check_thresholds(t1, t2)
        m = scales.get(lambda_j)
        if m is None:
            if not lambda_j > 0:
                raise DomainError(f"lambda_j must be positive, got {lambda_j}")
            frac = -math.expm1(-tau / lambda_j)
            m = scales[lambda_j] = n * math.sqrt(frac) if per_n else math.sqrt(n * frac)
        z1 = (t1 - lambda_j) / lambda_j * m
        z2 = (t2 - lambda_j) / lambda_j * m
        phi1 = std_normal_cdf(z1)
        # Phi(-z2), not 1 - Phi(z2): the upper tail keeps its digits past z2 = 8.3.
        return _summed_to_one(
            std_normal_cdf(-z2), phi1, _clamp_prob(std_normal_cdf(z2) - phi1, "p_c"))

    return law


def ssp_triprob(f: Life, th: Thresholds) -> TriProb:
    """Accept/reject/continue probabilities for one inter-failure time."""
    return TriProb(*ssp_law(f, th.t1, th.t2))


def rgsp_min_triprob(f: Life, th: Thresholds, n: int) -> TriProb:
    """Group-minimum probabilities (`rgsp_min_law`)."""
    return TriProb(*rgsp_min_law(n)(f, th.t1, th.t2))


def rgsp_max_triprob(f: Life, th: Thresholds, n: int) -> TriProb:
    """Group-maximum probabilities (`rgsp_max_law`)."""
    return TriProb(*rgsp_max_law(n)(f, th.t1, th.t2))


def typeI_triprob(
    lambda_j: float, th: Thresholds, n: int, tau: float, sd_form: str = "n"
) -> TriProb:
    """Normal-approximation probabilities for the censored-MLE statistic
    (`typeI_law`)."""
    return TriProb(*typeI_law(n, tau, sd_form)(lambda_j, th.t1, th.t2))


def long_run_rates(p_a: float, p_r: float) -> tuple[float, float, float]:
    """(P_A, P_R, N): the long-run acceptance and rejection probabilities
    and the expected stage count of a stage with p_a and p_r.

    The stage ends with probability p_a + p_r, summed rather than taken as
    1 - p_c, which rounds to 0 once p_c is within an ulp of 1.  A plan that
    never ends (p_a + p_r = 0) raises DegeneratePlanError.
    """
    ends = p_a + p_r
    if ends == 0.0:
        raise DegeneratePlanError("the plan never terminates: p_a + p_r = 0")
    return p_a / ends, p_r / ends, 1.0 / ends


# The 16-node Gauss-Legendre rule on [-1, 1] as its 8 symmetric pairs
# (x, w): the nodes -x and +x share the weight w.  Each value is the double
# nearest the 50-digit root of P_16 and its weight 2 / ((1 - x^2) P_16'(x)^2).
_GAUSS_LEGENDRE_16 = (
    (0.09501250983763744, 0.1894506104550685),
    (0.2816035507792589, 0.18260341504492358),
    (0.45801677765722737, 0.16915651939500254),
    (0.6178762444026438, 0.14959598881657674),
    (0.755404408355003, 0.12462897125553388),
    (0.8656312023878318, 0.09515851168249279),
    (0.9445750230732326, 0.062253523938647894),
    (0.9894009349916499, 0.027152459411754096),
)


def oscillatory_pair(c: float) -> tuple[float, float]:
    """The pair (Jc, Js) of integrals over [c - pi, c + pi] of
    (cos(u) - 1)/u = -2 sin^2(u/2)/u and of sin(u)/u.

    Both integrands are entire, so the fixed 16-node Gauss-Legendre rule
    converges for every c, c -> pi+ included, to within a few ulps.  In
    terms of the cosine and sine integrals (Abramowitz & Stegun 5.2), Jc is
    Ci(c + pi) - Ci(c - pi) - log((c + pi)/(c - pi)), the difference less
    its pole at c = pi, and Js is Si(c + pi) - Si(c - pi).
    """
    jc = js = 0.0
    for x, w in _GAUSS_LEGENDRE_16:
        for u in (c - math.pi * x, c + math.pi * x):
            s = math.sin(0.5 * u)
            jc -= w * (2.0 * s * s / u)
            js += w * (2.0 * s * math.cos(0.5 * u) / u)
    return math.pi * jc, math.pi * js


def _phase_and_log_term(a: float, lam: float) -> tuple[float, float]:
    """c = a*pi/l and L = log((a + l)/(a - l)), by log1p to keep L accurate when a >> l."""
    return a * math.pi / lam, math.log1p(lam / a) - math.log1p(-lam / a)


def expected_y(f: Life) -> float:
    """Mean inter-failure time under the weighted model.

    (a/2) [(1 + cos c) L + cos(c) Jc + sin(c) Js], c = a*pi/l, with
    L = log((a + l)/(a - l)) and (Jc, Js) from `oscillatory_pair`, a 16-node
    Gauss-Legendre rule.  This is the mixture mean of 1/r with the pole of
    the log split off: 1 + cos c vanishes to second order where L diverges
    (a -> l+), so the form is finite and accurate for every fuzzy life, and
    L is taken from a and l, never from c.  Tends to the nominal mean life
    as a grows, which is the value for a crisp life.  From a = 1e4 *
    lambda_j on it is the series
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
    c, log_term = _phase_and_log_term(a, lam)
    jc, js = oscillatory_pair(c)
    cos_c = math.cos(c)
    return (a / 2.0) * ((1.0 + cos_c) * log_term + cos_c * jc + math.sin(c) * js)


def expected_y_upper_bound(f: Life) -> float:
    """Analytic upper bound for expected_y: the log term times 1 + |cos c| + |sin c|.

    Exact (the mean life itself) for a crisp life.
    """
    if not isinstance(f, FuzzyLife):
        return expected_y(f)
    a = f.a
    c, log_term = _phase_and_log_term(a, f.lambda_j)
    return (a / 2.0) * log_term * (1.0 + abs(math.cos(c)) + abs(math.sin(c)))


def harmonic_number(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))
