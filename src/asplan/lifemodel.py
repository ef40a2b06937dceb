"""Closed-form probabilities and expectations for the four plan families.

Everything here is built from the weighted survival function S(t): the
exponential survival e^{-lambda t} averaged over the raised-cosine
membership of the failure rate and renormalized by the membership mass,
e^{-t/lambda_j} sinh(x) / (x (1 + (x/pi)^2)) with x = t/a: one expression
at every scale, which tends to the crisp e^{-t/lambda_j} as a grows.  It is
taken in log form, log S = -t/lambda_j + L(x), so that a rejection
probability 1 - S is -expm1(log S) and keeps its digits at small t.
Every function that takes a life accepts a FuzzyLife or a plain positive
mean life; a plain number is the crisp exponential, the a -> inf limit.
Every formula takes and returns plain floats, one threshold pair at a time.

A plan family is its two tails: p_a, a tail at t2 alone, and p_r, a tail
at t1 alone, each written once, with their quantiles in closed form.  One
constructor, `_stage_law`, builds every family's stage law from them, a
function of floats that returns (p_a, p_r, 1 - p_a - p_r): the laws that
`rgsp_min_law(n)`, `rgsp_max_law(n)` and `typeI_law(n, tau, sd_form)`
build once per group size, after checking what depends on it alone, and
`ssp_law(f, t1, t2)`, the group minimum of one item.  Each evaluation
makes the checks of the value types: 0 < t1 <= t2 (NaN fails), p_c
within [0, 1] up to rounding, and a sum within 1e-10 of 1.
`long_run_rates` takes (p_a, p_r) to (P_A, P_R, N).  The value types
`Thresholds` and `TriProb`, with `ssp_triprob`, `rgsp_min_triprob`,
`rgsp_max_triprob` and `typeI_triprob`, wrap these for callers that want
named fields; the plan closures evaluate the laws and build none of them.

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
# p_a + p_r + p_c may stray from 1 by at most this.
_SUM_TOL = 1e-10

# The two published scalings of the Type-I estimator's standard deviation.
SD_FORMS = ("n", "sqrt_n")

_PI_SQUARED = math.pi ** 2
_SQRT_2 = math.sqrt(2.0)
_LOG_2 = math.log(2.0)


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
    if not abs(total - 1.0) <= _SUM_TOL:
        raise ConsistencyError(f"probabilities sum to {total}, not 1")
    return p_a, p_r, p_c


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


def check_tau(tau) -> None:
    """Raise DomainError unless tau is positive and finite; None fails."""
    if tau is None or not 0 < tau < math.inf:
        raise DomainError(f"tau must be positive and finite, got {tau}")


# Below x = 1/2, L(x) = log(sinh(x)/x) - log1p((x/pi)^2) is its series in
# y = (x/pi)^2.  L is the sum over k >= 2 of log1p((x/(k pi))^2), from the
# product sinh(x)/x = prod (1 + (x/(k pi))^2), so the coefficient of y^j is
# (-1)^(j+1) (zeta(2j) - 1)/j; `log_survival` writes the double nearest each
# 40-digit value in Horner form.  The terms fall by about y/4 each, so the
# eight there reach 1e-17 of the first.
_L_SERIES_BELOW = 0.5


def log_survival(f: Life, t: float) -> float:
    """log S(t) under the membership-weighted model: -t/lambda for a crisp
    life, and -t/lambda_j + L(x), x = t/a, for a fuzzy one, with L(x) =
    log(sinh(x)/x) - log1p((x/pi)^2) >= 0.

    Below x = 1/2, L is its series in (x/pi)^2, accurate relative to
    itself, so log S keeps its digits relative to t/lambda_j as t -> 0.
    From there it is -(t/lambda_j)(a - lambda_j)/a + log((1 - e^{-2x})/(2x))
    - log1p((x/pi)^2), every term at most 0, so it neither overflows nor
    cancels at any a > lambda_j or t > 0; its absolute error of a few ulps
    is small against t/lambda_j > 1/2.  Where 2x overflows, S is 0 to every
    digit and log S is -inf.
    """
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    if not isinstance(f, FuzzyLife):
        if not f > 0:
            raise DomainError(f"mean life must be positive, got {f}")
        return -t / f
    a = f.a
    lam = f.lambda_j
    x = t / a
    if x < _L_SERIES_BELOW:
        y = x * x / _PI_SQUARED
        return -t / lam + y * (0.6449340668482264 - y * (0.04116161685556909 - y * (
            0.005781020661483047 - y * (0.001019339049486085 - y * (
                0.00019891502556361706 - y * (4.101442555134138e-05 - y * (
                    8.749733579814976e-06 - y * 1.910282426081484e-06)))))))
    if 2.0 * x == math.inf:
        return -math.inf
    return (-(t / lam) * ((a - lam) / a) + math.log(-math.expm1(-2.0 * x) / (2.0 * x))
            - math.log1p(x * x / _PI_SQUARED))


def weighted_survival(f: Life, t: float) -> float:
    """Survival probability P(Y >= t) under the membership-weighted model:
    the mixture a * int e^{-lambda t} H_j(lambda) dlambda, e^{log S(t)}
    (`log_survival`), in [0, 1] as log S <= 0.  e^{-t/lambda} for a crisp
    life, and for a fuzzy one where x = t/a is negligible."""
    return math.exp(log_survival(f, t))


def _stage_law(accept, reject, accept_guess, reject_guess):
    """The stage law (life, t1, t2) -> (p_a, p_r, p_c) of a family given by
    its two tails, with the tails and their quantiles as attributes.

    ``accept(life, t)`` is p_a at t2 = t and ``reject(life, t)`` p_r at t1 =
    t, the family's only expressions; p_a falls and p_r rises in t.  p_c
    is 1 - p_a - p_r, exactly 0 where t1 = t2.  Each evaluation makes the
    checks of the value types: `_check_thresholds`, p_c within [0, 1] up
    to rounding, and the sum.  ``accept_quantile(life, q)`` and
    ``reject_quantile(life, q)`` solve accept = q and reject = q in closed
    form: q lies between the tail's values at (1 -/+ 1e-12) Q, up to the
    n/2 ulps of rounding of the rgsp_max p_r (tests/test_lifemodel.py).
    Where a tail rounds flat, as 1 - S does near q = 1, the least point
    that meets q as evaluated lies far below Q.  Outside 0 < q < 1 they
    are 0.0 where every t meets q and inf where none does.
    """

    def law(life: Life, t1: float, t2: float) -> tuple[float, float, float]:
        if not 0.0 < t1 <= t2:
            _check_thresholds(t1, t2)
        p_a = accept(life, t2)
        p_r = reject(life, t1)
        p_c = 0.0 if t1 == t2 else 1.0 - p_a - p_r
        if not 0.0 <= p_c <= 1.0:  # a NaN clamps to 0 and fails the sum
            if p_c < -_CLAMP_TOL or p_c > 1.0 + _CLAMP_TOL:
                raise ConsistencyError(f"p_c = {p_c} is outside [0,1] beyond tolerance")
            p_c = min(1.0, max(0.0, p_c))
        if abs(p_a + p_r + p_c - 1.0) <= _SUM_TOL:
            return p_a, p_r, p_c
        return _summed_to_one(p_a, p_r, p_c)

    def accept_quantile(life, q: float) -> float:
        return accept_guess(life, q) if 0.0 < q < 1.0 else 0.0 if q >= 1.0 else math.inf

    def reject_quantile(life, q: float) -> float:
        return reject_guess(life, q) if 0.0 < q < 1.0 else 0.0 if q <= 0.0 else math.inf

    law.accept, law.reject = accept, reject
    law.accept_quantile, law.reject_quantile = accept_quantile, reject_quantile
    return law


def _log1mexp(v: float) -> float:
    """log(1 - e^v) for v <= 0, by log(-expm1(v)) near 0 and log1p(-e^v)
    beyond -log 2, where each keeps its digits; -inf at v = 0."""
    if v == 0.0:
        return -math.inf
    return math.log(-math.expm1(v)) if v > -_LOG_2 else math.log1p(-math.exp(v))


# Newton steps of `_survival_quantile`: from the crisp start they converge to
# the last bits in 3 or 4 where t/a is below a few units; the cap only ends
# the slow approach of a heavy tail (a near lambda_j): 4 of 200,000 random
# runs, each within 9e-16 relative of the uncapped root.
_NEWTON_STEPS = 30


def _survival_quantile(f: Life, log_level: float) -> float:
    """The t where log S(t) = log_level < 0 (`log_survival`): -lambda *
    log_level for a crisp life.  For a fuzzy one, Newton's method from that
    crisp value, which is at or below the root as L >= 0, with the slope
    -1/lambda_j + L'(t/a)/a, L'(x) = coth(x) - 1/x - 2x/(pi^2 + x^2), whose
    series below x = 1/2 starts 2x/pi^2 (zeta(2) - 1 - (zeta(4) - 1) y).
    log S is convex in t, as L is, so each step stays below the root and
    rises to it; it stops once a step is within 2 ulps.  0.0 where
    log_level rounds to 0, and inf where the crisp start overflows."""
    if not log_level < 0.0:
        return 0.0
    if not isinstance(f, FuzzyLife):
        return -f * log_level
    a, lam = f.a, f.lambda_j
    t = -lam * log_level
    if t == math.inf:
        return t
    for _ in range(_NEWTON_STEPS):
        x = t / a
        if x < _L_SERIES_BELOW:
            d_l = 2.0 * x / _PI_SQUARED * (
                0.6449340668482264 - 0.08232323371113819 * x * x / _PI_SQUARED)
        else:
            d_l = 1.0 / math.tanh(x) - 1.0 / x - 2.0 * x / (_PI_SQUARED + x * x)
        step = (log_survival(f, t) - log_level) / (1.0 / lam - d_l / a)
        t += step
        if not abs(step) > 2.0 * math.ulp(t):
            break
    return t


def _ssp_reject(f: Life, t: float) -> float:
    return -math.expm1(log_survival(f, t))


def rgsp_min_law(n: int):
    """The law (f, t1, t2) -> (p_a, p_r, p_c) of a group minimum of size n:
    the minimum of n shared-rate exponentials is exponential with n times
    the rate: p_a = S(n t2) and p_r = -expm1(log S(n t1)), with S's
    quantiles over n.  p_a reads `weighted_survival` through a lambda, which
    a rebound one reaches; p_r keeps its digits where 1 - S would cancel, at
    t1 far below the mean life, and rises with t1 as evaluated."""
    check_group_size(n)
    return _stage_law(
        lambda f, t: weighted_survival(f, n * t),
        lambda f, t: _ssp_reject(f, n * t),
        lambda f, q: _survival_quantile(f, math.log(q)) / n,
        lambda f, q: _survival_quantile(f, math.log1p(-q)) / n,
    )


# One inter-failure time: a group minimum of one item, as 1*t = t and Q/1 = Q.
ssp_law = rgsp_min_law(1)


# Up to this n the rgsp_max p_r is the n-th power of the ssp p_r, whose
# rounding, up to n ulps (2.1e-13 at n = 4096), stays within _CLAMP_TOL.
_POWER_SIZES = 4096


def rgsp_max_law(n: int):
    """The law (f, t1, t2) -> (p_a, p_r, p_c) of a group maximum of size n,
    the weighted CDF raised to the n-th power (an independent fuzzy rate
    per item).  p_a = 1 - (1 - S(t2))^n is -expm1(n log1p(-S(t2))), which
    keeps its digits where the power would lose eps/S(t2) relative, at
    small S(t2); 0.0 - keeps it +0 where S(t2) underflows, and it is its
    limit 1 where S(t2) rounds to 1.  p_r is (-expm1(log S(t1)))^n, the
    `ssp_law` p_r to the n-th power, up to n = `_POWER_SIZES`; above it,
    e^{n log(1 - S(t1))}, whose rounding does not grow with n.  p_a <= q
    where S <= 1 - (1 - q)^(1/n), and p_r >= q where S <= 1 - q^(1/n): its
    quantiles start from the survival quantile there."""
    check_group_size(n)

    def accept(f: Life, t: float) -> float:
        s = weighted_survival(f, t)
        return 1.0 if s == 1.0 else 0.0 - math.expm1(n * math.log1p(-s))

    def reject(f: Life, t: float) -> float:
        return _ssp_reject(f, t) ** n

    if n > _POWER_SIZES:
        def reject(f: Life, t: float) -> float:
            log_s = log_survival(f, t)
            return math.exp(n * _log1mexp(log_s)) if log_s < 0.0 else 0.0

    return _stage_law(
        accept, reject,
        lambda f, q: _survival_quantile(f, _log1mexp(math.log1p(-q) / n)),
        lambda f, q: _survival_quantile(f, _log1mexp(math.log(q) / n)),
    )


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function, ~1e-15 accurate."""
    return 0.5 * math.erfc(-z / _SQRT_2)


def typeI_law(n: int, tau: float, sd_form: str = "n"):
    """The law (life, t1, t2) -> (p_a, p_r, p_c) of the censored-MLE
    statistic of n items censored at tau, under the normal approximation,
    at the nominal mean lambda_j of a fuzzy life or at a plain mean life.

    The estimator is treated as normal with mean lambda_j and standard
    deviation lambda_j / m.  Two published scalings of m coexist:
    ``sd_form="n"`` uses m = n*sqrt(1 - e^{-tau/lambda_j}) and ``"sqrt_n"``
    uses m = sqrt(n*(1 - e^{-tau/lambda_j})).  The "n" scaling reproduces
    the reference operating characteristics; "sqrt_n" is the textbook
    asymptotic rate and is exposed for comparison.  The tails' quantiles
    are lambda_j (1 -/+ z_q / m), z_q the standard normal quantile of q, or
    0.0 where every t > 0 meets q.
    """
    from statistics import NormalDist

    check_group_size(n)
    check_tau(tau)
    if sd_form not in SD_FORMS:
        raise DomainError(f"unknown sd_form {sd_form!r}")
    per_n = sd_form == "n"
    scales = {}  # lambda_j -> m, made once per mean life
    normal_quantile = NormalDist().inv_cdf

    def scale(lambda_j: float) -> float:
        if not lambda_j > 0:
            raise DomainError(f"lambda_j must be positive, got {lambda_j}")
        frac = -math.expm1(-tau / lambda_j)
        if not frac > 0:
            raise DomainError(f"no item fails by tau={tau} at lambda_j={lambda_j}: "
                              "1 - e^(-tau/lambda_j) rounds to 0")
        return scales.setdefault(lambda_j, n * math.sqrt(frac) if per_n else math.sqrt(n * frac))

    # p_a is Phi(-z), not 1 - Phi(z): the upper tail keeps its digits past z = 8.3.
    def tail(sign: float):
        def at(life: Life, t: float) -> float:
            lambda_j = life.lambda_j if isinstance(life, FuzzyLife) else life
            m = scales.get(lambda_j) or scale(lambda_j)
            return std_normal_cdf(sign * ((t - lambda_j) / lambda_j * m))
        return at

    def quantile(sign: float):
        def at(life: Life, q: float) -> float:
            lambda_j = life.lambda_j if isinstance(life, FuzzyLife) else life
            m = scales.get(lambda_j) or scale(lambda_j)
            return max(lambda_j * (1.0 + sign * normal_quantile(q) / m), 0.0)
        return at

    return _stage_law(tail(-1.0), tail(1.0), quantile(-1.0), quantile(1.0))


def typeI_floor_size(lambda0: float, lambda1: float, tau: float, alpha: float, beta: float,
                     sd_form: str = "n") -> float:
    """The least real n with Q_A(lambda1, beta) <= Q_R(lambda0, alpha) under
    `typeI_law`, for lambda1 < lambda0 and levels below 1/2: with m = k
    sqrt(p), k = n under "n" and sqrt(n) under "sqrt_n", k >= r = (z_{1-alpha}
    lambda0/sqrt(p0) + z_{1-beta} lambda1/sqrt(p1))/(lambda0 - lambda1)."""
    from statistics import NormalDist

    z = NormalDist().inv_cdf
    r = sum(-z(q) * lam / math.sqrt(-math.expm1(-tau / lam))
            for lam, q in ((lambda0, alpha), (lambda1, beta))) / (lambda0 - lambda1)
    return r if sd_form == "n" else r * r


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
    never ends as evaluated raises DegeneratePlanError: p_a + p_r = 0, or a
    sum so small that N = 1/(p_a + p_r) overflows to inf.
    """
    ends = p_a + p_r
    if ends < 5.56268464626801e-309:  # 0x0.4000000000001p-1022, the least with 1/ends finite
        raise DegeneratePlanError(f"the plan never terminates: p_a + p_r = {ends:g}")
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
