import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asplan import lifemodel
from asplan.errors import ConsistencyError, DegeneratePlanError, DomainError
from asplan.lifemodel import (
    Thresholds,
    TriProb,
    expected_y,
    expected_y_upper_bound,
    harmonic_number,
    log_survival,
    long_run_rates,
    rgsp_max_law,
    rgsp_min_law,
    ssp_law,
    typeI_law,
    rgsp_max_triprob,
    rgsp_min_triprob,
    ssp_triprob,
    typeI_triprob,
    weighted_survival,
)
from asplan.membership import FuzzyLife
from asplan.plans import Family, expected_stage_duration

from reference import life_membership, simpson


def mixture_survival(f: FuzzyLife, t: float) -> float:
    lo, hi = f.support
    return f.a * simpson(lambda r: math.exp(-r * t) * life_membership(f, r), lo, hi)


def random_life(rng: random.Random) -> FuzzyLife:
    lam = rng.uniform(20.0, 800.0)
    return FuzzyLife(lambda_j=lam, a=lam * rng.uniform(1.2, 200.0))


def test_survival_limits():
    f = FuzzyLife(300.0, 1500.0)
    assert weighted_survival(f, 1e-15) == 1.0
    assert weighted_survival(FuzzyLife(50.0, 1500.0), 1e6) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        weighted_survival(f, -1.0)


@pytest.mark.parametrize("a", [1e103, 1e300])
def test_survival_at_a_huge_scale_is_the_crisp_limit(a):
    """a^3 overflows a double here; t/a is so small that the fuzzy survival
    equals the crisp e^{-t/lambda} in double precision."""
    for t in (1e-6, 10.0, 300.0, 3000.0):
        assert weighted_survival(FuzzyLife(300.0, a), t) == math.exp(-t / 300.0)


@pytest.mark.parametrize(
    "a,lam_over_a,t_over_a",
    [(1e102, 0.5, 1.0), (1e103, 0.5, 1.0), (1e103, 0.9, 0.3), (1e300, 0.1, 5.0),
     (1e100, 0.5, 300.0)],
)
def test_survival_where_cubes_overflow_keeps_the_closed_form(a, lam_over_a, t_over_a):
    """With t near a or beyond, far from the crisp limit, the closed form
    holds where a^3 or t^3 overflows a double, and just below that scale."""
    mpmath = pytest.importorskip("mpmath")
    lam, t = lam_over_a * a, t_over_a * a
    with mpmath.workdps(50):
        big_a, big_lam, big_t = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(t)
        want = (mpmath.pi ** 2 * big_a ** 3 * mpmath.expm1(2 * big_t / big_a)
                * mpmath.exp(-big_t / big_lam - big_t / big_a)
                / (2 * big_t ** 3 + 2 * mpmath.pi ** 2 * big_a ** 2 * big_t))
    got = weighted_survival(FuzzyLife(lam, a), t)
    assert got == pytest.approx(float(want), rel=1e-12)
    assert abs(got / math.exp(-t / lam) - 1.0) > 1e-3


@pytest.mark.parametrize("ratio", [1.0 + 1e-12, 1.001, 5.0, 1e3, 1e8, 1e103, 1e300])
def test_survival_matches_mpmath_at_every_scale(ratio):
    """The closed form against its a^3 form at 50 digits, at the same double
    a and lambda, from a barely fuzzy life to a = 1e300 * lambda and from
    t = 1e-13 * lambda to a tail of e^{-60}."""
    mpmath = pytest.importorskip("mpmath")
    lam = 300.0
    a = ratio * lam
    for t_over_lam in (1e-13, 1e-6, 1.0, 10.0, 60.0):
        t = t_over_lam * lam
        with mpmath.workdps(50):
            big_a, big_lam, big_t = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(t)
            want = (mpmath.pi ** 2 * big_a ** 3 * mpmath.expm1(2 * big_t / big_a)
                    * mpmath.exp(-big_t / big_lam - big_t / big_a)
                    / (2 * big_t ** 3 + 2 * mpmath.pi ** 2 * big_a ** 2 * big_t))
        if want > 1e-280:
            got = weighted_survival(FuzzyLife(lam, a), t)
            assert got == pytest.approx(float(want), rel=1e-13), t_over_lam


def test_survival_where_t_dwarfs_a_is_zero():
    """x = t/a = 5e299: (x/pi)^2 overflows a double, and S is 0, not an
    OverflowError."""
    assert weighted_survival(FuzzyLife(1e-300, 2e-300), 1.0) == 0.0


def test_survival_matches_mixture_quadrature():
    rng = random.Random(3)
    for _ in range(30):
        f = random_life(rng)
        t = rng.uniform(1e-3, 5.0 * f.lambda_j)
        assert weighted_survival(f, t) == pytest.approx(mixture_survival(f, t), abs=1e-8)


def test_survival_strictly_decreasing():
    f = FuzzyLife(300.0, 1500.0)
    ts = [1e-6 + i * (10.0 * 300.0 - 1e-6) / 2000 for i in range(2001)]
    values = [weighted_survival(f, t) for t in ts]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ssp_empty_band():
    f = FuzzyLife(300.0, 1500.0)
    tp = ssp_triprob(f, Thresholds(100.0, 100.0))
    assert tp.p_c == 0.0
    assert tp.p_a + tp.p_r == pytest.approx(1.0, abs=1e-12)


def test_ssp_reference_design_feasible():
    f = FuzzyLife(300.0, 1500.0)
    tp = ssp_triprob(f, Thresholds(5.8231, 251.1178))
    assert tp.p_r / (1.0 - tp.p_c) <= 0.05 + 0.05


@pytest.mark.parametrize("t_over_lam", [1e-8, 1e-6, 1e-3, 0.1, 1.0, 5.0])
def test_crisp_ssp_p_r_matches_mpmath(t_over_lam):
    """A crisp life's p_r = 1 - e^{-t1/lambda} to a few ulps relative, at
    t1/lambda down to 1e-8, where 1 - e^{-t1/lambda} in double precision
    keeps about half its digits."""
    mpmath = pytest.importorskip("mpmath")
    lam = 300.0
    t1 = t_over_lam * lam
    with mpmath.workdps(50):
        want = float(-mpmath.expm1(-mpmath.mpf(t1) / mpmath.mpf(lam)))
    for law in (lambda t1, t2: ssp_triprob(lam, Thresholds(t1, t2)),
                lambda t1, t2: rgsp_min_triprob(lam, Thresholds(t1 / 4, t2 / 4), 4)):
        assert law(t1, 10.0 * lam).p_r == pytest.approx(want, rel=4e-16, abs=0.0)


def _mpmath_log_survival(mpmath, f: FuzzyLife, t: float):
    """log S(t) from sinh at the working precision, at the doubles f and t."""
    a, lam, t = mpmath.mpf(f.a), mpmath.mpf(f.lambda_j), mpmath.mpf(t)
    x = t / a
    return -t / lam + mpmath.log(mpmath.sinh(x) / x) - mpmath.log1p(x * x / mpmath.pi ** 2)


@pytest.mark.parametrize("ratio", [1.0 + 1e-12, 1.001, 1.2, 5.0, 1e3, 1e8])
def test_fuzzy_log_survival_and_p_r_match_mpmath(ratio):
    """log S and the fuzzy p_r = -expm1(log S(t1)) against 50-digit mpmath,
    from t = 1e-6, where 1 - S(t) kept only about 10 of its digits, to the
    far tail, across the series' switch at t = a/2.  `rgsp_max` p_r is the
    same to the n-th power."""
    mpmath = pytest.importorskip("mpmath")
    lam = 300.0
    f = FuzzyLife(lam, ratio * lam)
    for t in (1e-6, 1e-4, 1e-2, 1.0, 0.4999 * f.a, 0.5 * f.a, 0.5001 * f.a, 100.0, 300.0,
              3000.0):
        with mpmath.workdps(50):
            log_s = _mpmath_log_survival(mpmath, f, t)
            p_r = -mpmath.expm1(log_s)
            want = float(log_s), float(p_r), float(p_r ** 3)
        assert log_survival(f, t) == pytest.approx(want[0], rel=2e-15, abs=0.0), t
        assert ssp_triprob(f, Thresholds(t, 2.0 * t)).p_r == pytest.approx(
            want[1], rel=6e-16, abs=0.0), t
        assert rgsp_max_triprob(f, Thresholds(t, 2.0 * t), 3).p_r == pytest.approx(
            want[2], rel=2e-15, abs=0.0), t


def test_fuzzy_p_r_rises_strictly_at_small_n_t1():
    """At a small group-minimum time n*t1 (n = 36, t1 near 8.87e-4, where a
    generated `rgsp_min` design's roots once stalled), 1 - S(n*t1) moves in
    steps of an ulp of 1, so it stays flat over many steps of t1 (and, from
    the earlier product form of S, fell back); the -expm1 form rises at
    every step of 16 ulps of t1."""
    f = FuzzyLife(560.0, 5600.0)
    n, t1 = 36, 8.87e-4
    points = [t1 + k * 16.0 * math.ulp(t1) for k in range(400)]
    p_r = [rgsp_min_triprob(f, Thresholds(t, 1.0), n).p_r for t in points]
    assert all(a < b for a, b in zip(p_r, p_r[1:]))
    cancelled = [1.0 - weighted_survival(f, n * t) for t in points]
    assert not all(a < b for a, b in zip(cancelled, cancelled[1:]))


def _law(family: str, n: int, tau_ratio: float, lam: float, sd_form: str = "n"):
    if family == "ssp":
        return ssp_law
    if family == "rgsp_min":
        return rgsp_min_law(n)
    if family == "rgsp_max":
        return rgsp_max_law(n)
    return typeI_law(n, tau_ratio * lam, sd_form)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(
    family=st.sampled_from(["ssp", "rgsp_min", "rgsp_max", "type1"]),
    n=st.integers(1, 10_000),
    lam=st.floats(1e-3, 1e6),
    log_ratio=st.one_of(st.none(), st.floats(math.log(1.0 + 1e-9), math.log(1e8))),
    tau_ratio=st.floats(1e-3, 1e3),
    sd_form=st.sampled_from(["n", "sqrt_n"]),
    q=st.one_of(st.sampled_from([1e-300, 0.5, 1.0 - 1e-12]), st.floats(1e-300, 1.0 - 1e-12)),
)
def test_tail_quantiles_invert_their_tails_within_1e_12_relative(
        family, n, lam, log_ratio, tau_ratio, sd_form, q):
    """Each law's accept_quantile Q is its closed-form t with p_a(t) = q and
    reject_quantile its t with p_r(t) = q, returned as it is: q lies between
    the tail's values at Q (1 - 1e-12) and Q (1 + 1e-12), as evaluated.  So
    the tail crosses q within 1e-12 relative of Q, or rounds to q there, as
    the flat p_r = 1 - S does near q = 1, where the least point that meets q
    as evaluated may lie 2e-6 relative below Q.  The rgsp_max p_r, (1 -
    S)^n, may miss q by its rounding, n/2 ulps relative.  Over every family,
    crisp lives (``log_ratio`` None) and fuzzy ones from a barely fuzzy a =
    lambda (1 + 1e-9) to a = 1e8 lambda, n up to 10,000 and q from 1e-300 to
    1 - 1e-12.  A Type-I quantile is 0.0 where its closed form is at or
    below 0, and the tail has met q already at t = 0+; those are not
    checked.  Over 38,558 quantiles (20,000 examples), every tail but the
    rgsp_max p_r held at 1e-14 relative, and that one, at 1e-13 relative,
    missed q by at most n/4 ulps."""
    life = lam if log_ratio is None else FuzzyLife(lam, lam * math.exp(log_ratio))
    assume(not isinstance(life, FuzzyLife) or life.a > lam)
    law = _law(family, n, tau_ratio, lam, sd_form)
    power_rounding = n * math.ulp(1.0) / 2.0 if family == "rgsp_max" else 0.0
    for quantile, tail, rounding, sign in (
            (law.accept_quantile, law.accept, 0.0, -1.0),
            (law.reject_quantile, law.reject, power_rounding, 1.0)):
        t = quantile(life, q)
        if family == "type1" and t == 0.0:
            continue
        assert 0.0 < t < math.inf
        below, above = tail(life, t * (1.0 - 1e-12)), tail(life, t * (1.0 + 1e-12))
        assert sign * (below - q) <= rounding * q
        assert sign * (q - above) <= rounding * q


@pytest.mark.parametrize("ratio", [1.0 + 1e-6, 1.2, 5.0, 1e3, 1e8])
def test_fuzzy_survival_quantile_matches_mpmath(ratio):
    """The fuzzy inverse of log S, Newton's method from the crisp quantile,
    is the root of log S(t) = level by 50-digit mpmath within 1e-14
    relative, from t far below a to t far beyond it.  The tail quantiles
    built on it agree as well where their tail keeps its digits: p_a at
    every q, and p_r up to q = 0.5 (near 1 it is 1 - S, and flat over
    about eps/S relative)."""
    mpmath = pytest.importorskip("mpmath")
    f = FuzzyLife(50.0, 50.0 * ratio)
    for q in (1e-200, 1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-9):
        for quantile, level in ((ssp_law.accept_quantile, math.log(q)),
                                (ssp_law.reject_quantile, math.log1p(-q))):
            got = lifemodel._survival_quantile(f, level)
            with mpmath.workdps(50):
                want = float(mpmath.findroot(
                    lambda t: _mpmath_log_survival(mpmath, f, t) - level,
                    (mpmath.mpf(got) * (1 - mpmath.mpf(1e-9)), mpmath.mpf(got))))
            assert got == pytest.approx(want, rel=1e-14), (q, level)
            if quantile is ssp_law.accept_quantile or q <= 0.5:
                assert quantile(f, q) == pytest.approx(want, rel=2e-14), (q, level)


def test_tail_quantiles_outside_the_open_unit_interval():
    """At q >= 1 every t meets p_a <= q and none p_r >= q; at q <= 0 the
    other way round, as far as the closed forms go."""
    for law in (ssp_law, rgsp_min_law(3), rgsp_max_law(3), typeI_law(3, 50.0)):
        assert law.accept_quantile(300.0, 1.0) == 0.0
        assert law.accept_quantile(300.0, 0.0) == math.inf
        assert law.reject_quantile(300.0, 0.0) == 0.0
        assert law.reject_quantile(300.0, 1.0) == math.inf


def test_rgsp_min_equals_ssp_at_scaled_time():
    rng = random.Random(5)
    for _ in range(20):
        f = random_life(rng)
        t1 = rng.uniform(1e-4, 0.3 * f.lambda_j)
        t2 = rng.uniform(t1, f.lambda_j)
        n = rng.randint(1, 50)
        got = rgsp_min_triprob(f, Thresholds(t1, t2), n)
        want = ssp_triprob(f, Thresholds(n * t1, n * t2))
        assert got.p_a == pytest.approx(want.p_a, abs=1e-12)
        assert got.p_r == pytest.approx(want.p_r, abs=1e-12)
        assert got.p_c == pytest.approx(want.p_c, abs=1e-12)


def test_rgsp_families_reduce_to_ssp_at_n1():
    f = FuzzyLife(300.0, 15000.0)
    th = Thresholds(6.4907, 251.617)
    base = ssp_triprob(f, th)
    for tp in (rgsp_min_triprob(f, th, 1), rgsp_max_triprob(f, th, 1)):
        assert tp.p_a == pytest.approx(base.p_a, abs=1e-14)
        assert tp.p_r == pytest.approx(base.p_r, abs=1e-14)
        assert tp.p_c == pytest.approx(base.p_c, abs=1e-14)


def test_rgsp_max_power_structure():
    f = FuzzyLife(300.0, 15000.0)
    th = Thresholds(130.6584, 338.9876)
    n = 12
    s1 = weighted_survival(f, th.t1)
    s2 = weighted_survival(f, th.t2)
    tp = rgsp_max_triprob(f, th, n)
    assert tp.p_r == pytest.approx((1.0 - s1) ** n, rel=1e-12)
    assert tp.p_a == pytest.approx(1.0 - (1.0 - s2) ** n, rel=1e-12)


@pytest.mark.parametrize("n", [2, 200, 20_000])
@pytest.mark.parametrize("s2", [1e-12, 1e-8, 1e-4, 1e-2, 0.3])
def test_rgsp_max_p_a_matches_mpmath(s2, n):
    """p_a = 1 - (1 - S(t2))^n to a few ulps relative at small S(t2) and
    large n, where 1 - (1 - S(t2))^n in double precision is off by about
    eps/S(t2) relative: 2e-5 at S(t2) = 1e-12."""
    mpmath = pytest.importorskip("mpmath")
    lam = 300.0
    t2 = -lam * math.log(s2)
    survival = weighted_survival(lam, t2)  # the double the law takes to the power
    with mpmath.workdps(50):
        want = float(1 - (1 - mpmath.mpf(survival)) ** n)
    assert rgsp_max_triprob(lam, Thresholds(t2 / 2, t2), n).p_a == pytest.approx(
        want, rel=4e-16, abs=0.0)


@pytest.mark.parametrize("life", [1e11, FuzzyLife(1e11, 1e12)], ids=["crisp", "fuzzy"])
def test_rgsp_max_p_a_is_1_where_survival_rounds_to_1(life):
    """At t far below the mean life S(t) rounds to 1, where log1p(-S) has
    no value: p_a is its limit 1 there (it once raised a bare ValueError)."""
    law = rgsp_max_law(5)
    assert weighted_survival(life, 1e-6) == 1.0
    assert law.accept(life, 1e-6) == 1.0
    assert law(life, 1e-6, 1e-6) == (1.0, law.reject(life, 1e-6), 0.0)
    assert law(life, 1e-6, 1e10)[0] < 1.0


@pytest.mark.parametrize("n", [5_000, 10**6, 10**9])
def test_rgsp_max_p_r_keeps_its_digits_at_a_large_group_size(n):
    """Above n = 4096 the rgsp_max p_r is e^{n log(1 - S)}, within a few
    ulps of 50-digit mpmath where (1 - S)^n would lose n ulps, so a law
    at thresholds one ulp apart still sums to 1 (at n = 10**6 it raised
    a ConsistencyError, p_c = -5.6e-11)."""
    mpmath = pytest.importorskip("mpmath")
    t = -math.log(math.log(2.0) / n)  # (1 - S(t))^n near 1/2 for a unit mean life
    with mpmath.workdps(50):
        want = float((1 - mpmath.exp(-mpmath.mpf(t))) ** n)
    law = rgsp_max_law(n)
    assert law.reject(1.0, t) == pytest.approx(want, rel=1e-15)
    p_a, p_r, p_c = law(1.0, t, math.nextafter(t, math.inf))
    assert 0.0 <= p_c <= 1e-14 and p_a + p_r == pytest.approx(1.0, abs=1e-14)


def test_fuzzy_survival_is_0_where_2x_overflows():
    """Where 2t/a overflows, log S is -inf, S is 0 and 1 - S is 1; the
    fuzzy log S once raised a bare ValueError there."""
    f = FuzzyLife(300.0, 1500.0)
    assert log_survival(f, math.inf) == -math.inf
    assert log_survival(f, 1e308) < -1e305
    p_r = ssp_law.reject(f, 10.0)
    assert ssp_law(f, 10.0, math.inf) == (0.0, p_r, 1.0 - p_r)
    assert rgsp_min_law(10**6)(f, 10.0, 1e305)[0] == 0.0
    assert rgsp_max_law(3)(f, math.inf, math.inf) == (0.0, 1.0, 0.0)


def test_type1_law_where_no_item_fails_by_tau():
    """Where tau/lambda_j underflows, no item fails by tau and the scale m
    is 0: a DomainError says so, where a NaN failed the sum check."""
    law = typeI_law(3, 1e-300)
    with pytest.raises(DomainError, match="no item fails by tau=1e-300 at lambda_j=1e"):
        law(1e300, 1.0, math.inf)
    assert 0.0 < law(300.0, 1.0, 2.0)[0] < 1.0


_EXTREME_T = st.one_of(
    st.sampled_from([math.ulp(0.0), 1e-300, 1e-12, 1.0, 1e12, 1e300, 1.7e308, math.inf]),
    st.floats(math.ulp(0.0), math.inf))


@st.composite
def _extreme_lives(draw):
    lam = draw(st.one_of(st.sampled_from([1e-300, 1e-6, 300.0, 1e11, 1e300]),
                         st.floats(1e-300, 1e300)))
    ratio = draw(st.one_of(st.none(), st.sampled_from([1.0 + 1e-12, 2.0, 1e8]),
                           st.floats(1.0 + 1e-12, 1e300)))
    return lam if ratio is None or not lam * ratio < math.inf else FuzzyLife(lam, lam * ratio)


_EXTREME_Q = st.one_of(
    st.sampled_from([0.0, math.ulp(0.0), 1e-300, 1e-16, 0.5, 1.0 - 1e-16, 1.0 - 2.0**-53, 1.0]),
    st.floats(0.0, 1.0))


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(
    family=st.sampled_from(["ssp", "rgsp_min", "rgsp_max", "type1"]),
    n=st.one_of(st.sampled_from([1, 2, 4096, 4097, 10**6, 10**9]), st.integers(1, 10**9)),
    life=_extreme_lives(),
    ts=st.lists(_EXTREME_T, min_size=2, max_size=2).map(sorted),
    tau=st.one_of(st.sampled_from([1e-300, 1.0, 1e300]), st.floats(1e-300, 1e300)),
    q=_EXTREME_Q,
)
@example(family="rgsp_max", n=10**6, life=FuzzyLife(1e300, 1.000000000001e300),
         ts=[4.463029668881718e305, 4.4630296688817185e305], tau=1.0, q=0.5)
@example(family="rgsp_max", n=2, life=300.0, ts=[1.0, 2.0], tau=1.0, q=math.ulp(0.0))
@example(family="rgsp_max", n=10**6, life=FuzzyLife(300.0, 600.0), ts=[1.0, 2.0], tau=1.0,
         q=math.ulp(0.0))
@example(family="ssp", n=1, life=FuzzyLife(1e307, 1e308), ts=[1.0, 2.0], tau=1.0, q=1e-300)
@example(family="rgsp_min", n=3, life=FuzzyLife(1e307, 1e308), ts=[1.0, 2.0], tau=1.0,
         q=1e-300)
@example(family="rgsp_max", n=3, life=FuzzyLife(1e307, 1e308), ts=[1.0, 2.0], tau=1.0,
         q=1e-300)
def test_every_law_gives_probabilities_or_a_clear_error_at_extreme_t_and_n(
        family, n, life, ts, tau, q):
    """At every t from the least double to inf, n up to 10**9, mean lives
    from 1e-300 to 1e300, crisp or fuzzy, and tau from 1e-300 to 1e300, a
    law gives (p_a, p_r, p_c) in [0, 1] and long-run rates P_A and P_R in
    [0, 1] with N >= 1 up to rounding, or raises DomainError or
    DegeneratePlanError: never a bare ValueError or a ConsistencyError.
    At every q in [0, 1], the least double included, each of its two
    quantiles is a float in [0, inf] or raises DomainError: never a NaN or
    a bare ValueError.  The examples are a q whose rgsp_max level
    log(1 - q)/n rounds to 0, and a fuzzy life whose crisp start of the
    survival quantile overflows."""
    law = _law(family, n, 1.0, 1.0) if family != "type1" else typeI_law(n, tau)
    for quantile in (law.accept_quantile, law.reject_quantile):
        try:
            t = quantile(life, q)
        except DomainError:
            continue
        assert type(t) is float and 0.0 <= t <= math.inf, t
    try:
        probabilities = law(life, *ts)
        assert all(0.0 <= p <= 1.0 for p in probabilities), probabilities
        p_accept, p_reject, stages = long_run_rates(*probabilities[:2])
    except (DomainError, DegeneratePlanError):
        return
    assert 0.0 <= p_accept <= 1.0 and 0.0 <= p_reject <= 1.0 and stages >= 1.0 - 1e-12


def test_typeI_empty_band():
    tp = typeI_triprob(300.0, Thresholds(200.0, 200.0), 10, 50.0)
    assert tp.p_c == 0.0
    assert tp.p_a + tp.p_r == pytest.approx(1.0, abs=1e-12)


def test_typeI_median_threshold():
    tp = typeI_triprob(300.0, Thresholds(1.0, 300.0), 10, 50.0)
    assert tp.p_a == pytest.approx(0.5, abs=1e-12)


def test_typeI_reference_design_feasible():
    tp = typeI_triprob(300.0, Thresholds(236.8898, 236.8898), 33, 50.0)
    assert tp.p_r / (1.0 - tp.p_c) <= 0.01 + 0.01


def test_typeI_translation_monotonicity():
    base = typeI_triprob(300.0, Thresholds(200.0, 260.0), 20, 50.0)
    shifted = typeI_triprob(300.0, Thresholds(210.0, 270.0), 20, 50.0)
    assert shifted.p_a <= base.p_a
    assert shifted.p_r >= base.p_r


def test_typeI_sd_forms_differ():
    th = Thresholds(236.8898, 236.8898)
    narrow = typeI_triprob(300.0, th, 33, 50.0, sd_form="n")
    wide = typeI_triprob(300.0, th, 33, 50.0, sd_form="sqrt_n")
    assert narrow.p_r < wide.p_r
    with pytest.raises(DomainError):
        typeI_triprob(300.0, th, 33, 50.0, sd_form="bogus")


def test_probability_sum_identity_random():
    rng = random.Random(9)
    for _ in range(250):
        f = random_life(rng)
        t1 = rng.uniform(1e-4, 0.5 * f.lambda_j)
        t2 = rng.uniform(t1, 2.0 * f.lambda_j if rng.random() < 0.5 else f.lambda_j)
        th = Thresholds(t1, max(t1, t2))
        n = rng.randint(1, 40)
        for tp in (
            ssp_triprob(f, th),
            rgsp_min_triprob(f, th, n),
            rgsp_max_triprob(f, th, n),
            typeI_triprob(f.lambda_j, th, n, rng.uniform(10.0, 500.0)),
        ):
            assert tp.p_a + tp.p_r + tp.p_c == pytest.approx(1.0, abs=1e-10)


def test_triprob_rejects_bad_sum():
    with pytest.raises(ConsistencyError):
        TriProb(p_a=0.5, p_r=0.6, p_c=0.2)


def test_long_run_identities():
    P_A, _, N = long_run_rates(0.3, 0.7)
    assert P_A == pytest.approx(0.3)
    assert N == pytest.approx(1.0)
    P_A, P_R, N = long_run_rates(0.25, 0.25)
    assert P_A == pytest.approx(0.5)
    assert P_R == pytest.approx(0.5)
    assert N == pytest.approx(2.0)
    assert P_A + P_R == pytest.approx(1.0, abs=1e-12)


def test_long_run_degenerate():
    with pytest.raises(DegeneratePlanError):
        long_run_rates(0.0, 0.0)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(p_a=st.floats(0.0, 2.0 ** -1022), p_r=st.floats(0.0, 2.0 ** -1022))
@example(p_a=5e-324, p_r=5e-324)
@example(p_a=0.0, p_r=2.0 ** -1022)
@example(p_a=float.fromhex("0x0.4000000000001p-1022"), p_r=0.0)
@example(p_a=float.fromhex("0x0.4p-1022"), p_r=0.0)
def test_long_run_rates_of_a_stage_that_almost_never_ends(p_a, p_r):
    """p_a and p_r tiny or subnormal, up to the least normal double, so that
    their sum is exact: P_A and P_R are the exact ratios within half an
    ulp, and so is N where it is finite.  It raises exactly where
    1/(p_a + p_r) rounds to inf, at or above DBL_MAX plus half its ulp, or
    the sum is 0: the plan never ends as evaluated."""
    ends = Fraction(p_a) + Fraction(p_r)
    overflows = ends == 0 or 1 / ends >= 2 ** 1024 - 2 ** 970
    try:
        rates = long_run_rates(p_a, p_r)
    except DegeneratePlanError:
        assert overflows
        return
    assert not overflows
    assert math.isfinite(rates[2])
    for value, exact in zip(rates, (Fraction(p_a) / ends, Fraction(p_r) / ends, 1 / ends)):
        assert abs(Fraction(value) - exact) <= Fraction(math.ulp(value)) / 2


def mixture_mean(f: FuzzyLife) -> float:
    lo, hi = f.support
    return f.a * simpson(lambda r: life_membership(f, r) / r, lo, hi)


def test_expected_y_matches_mixture():
    for a in (1500.0, 15000.0):
        f = FuzzyLife(300.0, a)
        assert expected_y(f) == pytest.approx(mixture_mean(f), rel=1e-6)


def _mpmath_expected_y(mpmath, lam: float, a: float) -> float:
    """E[Y] from Ci/Si at the working precision, at the exact doubles a and lambda0."""
    big_a, big_lam = mpmath.mpf(a), mpmath.mpf(lam)
    c = big_a * mpmath.pi / big_lam
    ic = mpmath.ci(c + mpmath.pi) - mpmath.ci(c - mpmath.pi)
    is_ = mpmath.si(c + mpmath.pi) - mpmath.si(c - mpmath.pi)
    return float(big_a / 2 * (mpmath.log((big_a + big_lam) / (big_a - big_lam))
                              + mpmath.cos(c) * ic + mpmath.sin(c) * is_))


@pytest.mark.parametrize("lam", [50.0, 70.0, 150.0, 200.0, 300.0, 500.0])
def test_expected_y_matches_mpmath(lam):
    """E[Y] against Ci/Si at 50 digits, at the same double a and lambda0,
    from the least fuzzy life a double can hold, a = nextafter(lambda0), to a
    nearly crisp one, across the switch to the large-a series."""
    mpmath = pytest.importorskip("mpmath")
    near = (math.nextafter(lam, math.inf), lam * (1.0 + 1e-12), lam * (1.0 + 1e-7))
    ratios = (1.001, 1.01, 1.1, 2.0, 5.0, 10.0, 50.0, 100.0, 1e3, 9999.0, 1e4, 1e6, 1e8, 1e12,
              1e14)
    with mpmath.workdps(50):
        for a in (*near, *(ratio * lam for ratio in ratios)):
            want = _mpmath_expected_y(mpmath, lam, a)
            assert expected_y(FuzzyLife(lam, a)) == pytest.approx(want, rel=1e-13), a / lam


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(1e-3, 1e6), log_gap=st.floats(-16.0, 15.0))
def test_expected_y_is_right_for_every_fuzzy_life(lam, log_gap):
    """Every valid FuzzyLife, down to a = nextafter(lambda0), has a finite
    E[Y] within 1e-13 of 50-digit Ci/Si."""
    mpmath = pytest.importorskip("mpmath")
    a = max(lam * (1.0 + 10.0 ** log_gap), math.nextafter(lam, math.inf))
    got = expected_y(FuzzyLife(lam, a))
    assert math.isfinite(got)
    with mpmath.workdps(50):
        assert got == pytest.approx(_mpmath_expected_y(mpmath, lam, a), rel=1e-13)


@pytest.mark.parametrize("lam", [55.0, 63.0, 89.0])
def test_expected_y_where_c_rounds_to_pi(lam):
    """At a = nextafter(lambda0) these c = a*pi/lambda0 round to pi itself,
    where the Ci/Si form divided by zero."""
    mpmath = pytest.importorskip("mpmath")
    a = math.nextafter(lam, math.inf)
    assert a * math.pi / lam == math.pi
    with mpmath.workdps(50):
        assert expected_y(FuzzyLife(lam, a)) == pytest.approx(_mpmath_expected_y(mpmath, lam, a),
                                                              rel=1e-13)


def test_expected_y_tends_to_nominal():
    f = FuzzyLife(300.0, 1e6 * 300.0)
    assert abs(expected_y(f) - 300.0) / 300.0 <= 1e-4


@pytest.mark.parametrize("lam", [50.0, 300.0])
def test_crisp_limit_of_fuzzy_life(lam):
    # A plain mean life is the a -> inf limit of the fuzzy model.
    fuzzy = FuzzyLife(lam, 1e6 * lam)
    th = Thresholds(0.1 * lam, 0.8 * lam)
    n = 5
    for t in (0.01 * lam, lam, 5.0 * lam):
        assert weighted_survival(fuzzy, t) == pytest.approx(weighted_survival(lam, t), rel=1e-4)
    for fuzzy_tp, crisp_tp in (
        (ssp_triprob(fuzzy, th), ssp_triprob(lam, th)),
        (rgsp_min_triprob(fuzzy, th, n), rgsp_min_triprob(lam, th, n)),
        (rgsp_max_triprob(fuzzy, th, n), rgsp_max_triprob(lam, th, n)),
    ):
        assert fuzzy_tp.p_a == pytest.approx(crisp_tp.p_a, rel=1e-4)
        assert fuzzy_tp.p_r == pytest.approx(crisp_tp.p_r, rel=1e-4)
        assert fuzzy_tp.p_c == pytest.approx(crisp_tp.p_c, rel=1e-4)
    assert expected_y(fuzzy) == pytest.approx(expected_y(lam), rel=1e-4)
    assert expected_y(lam) == expected_y_upper_bound(lam) == lam


@pytest.mark.parametrize("tau", [None, math.inf, 0.0, math.nan], ids=["none", "inf", "zero", "nan"])
def test_type1_law_needs_a_positive_finite_tau(tau):
    with pytest.raises(DomainError, match=f"tau must be positive and finite, got {tau}"):
        typeI_law(3, tau)


@pytest.mark.parametrize("lambda_j", [-1.0, 0.0, math.nan], ids=["negative", "zero", "nan"])
def test_type1_law_needs_a_positive_mean_life(lambda_j):
    with pytest.raises(DomainError, match=f"lambda_j must be positive, got {lambda_j}"):
        typeI_law(3, 50.0)(lambda_j, 100.0, 200.0)


def test_crisp_life_must_be_positive():
    with pytest.raises(DomainError):
        weighted_survival(0.0, 1.0)
    with pytest.raises(DomainError):
        expected_y(-300.0)


def test_expected_y_bound_dominates():
    rng = random.Random(13)
    for _ in range(100):
        f = random_life(rng)
        assert expected_y(f) <= expected_y_upper_bound(f)


def _ymin(f, n, upper=False):
    return expected_stage_duration(Family.RGSP_MIN, f, n, upper)


def _ymax(f, n, upper=False):
    return expected_stage_duration(Family.RGSP_MAX, f, n, upper)


def test_expected_extrema_scalings():
    f = FuzzyLife(300.0, 1500.0)
    e = expected_y(f)
    assert _ymin(f, 1) == pytest.approx(e)
    assert _ymax(f, 1) == pytest.approx(e)
    assert _ymin(f, 50) == pytest.approx(e / 50.0, rel=1e-12)
    assert _ymax(f, 2) == pytest.approx(1.5 * e, rel=1e-12)
    assert harmonic_number(4) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0 + 0.25)


def test_extrema_bounds_dominate():
    rng = random.Random(17)
    for _ in range(100):
        f = random_life(rng)
        n = rng.randint(1, 60)
        assert _ymin(f, n) <= _ymin(f, n, upper=True)
        assert _ymax(f, n) <= _ymax(f, n, upper=True)


@pytest.mark.parametrize("n", [2.5, 2.0, True, None], ids=["fraction", "integral-float", "bool", "none"])
@pytest.mark.parametrize("family", ["rgsp_min", "rgsp_max", "type1"])
def test_group_triprobs_reject_a_group_size_that_is_no_integer(family, n):
    """rgsp_min once returned probabilities at a fractional group size."""
    th = Thresholds(10.0, 200.0)
    triprob = {
        "rgsp_min": lambda: rgsp_min_triprob(FuzzyLife(300.0, 1500.0), th, n),
        "rgsp_max": lambda: rgsp_max_triprob(FuzzyLife(300.0, 1500.0), th, n),
        "type1": lambda: typeI_triprob(300.0, th, n, 50.0),
    }[family]
    with pytest.raises(DomainError, match=re.escape(f"n must be an integer, got {n!r}")):
        triprob()


def test_thresholds_validation():
    with pytest.raises(DomainError):
        Thresholds(0.0, 1.0)
    with pytest.raises(DomainError):
        Thresholds(2.0, 1.0)
