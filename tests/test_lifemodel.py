import math
import random

import pytest

from asplan.errors import ConsistencyError, DegeneratePlanError, DomainError
from asplan.lifemodel import (
    Thresholds,
    TriProb,
    expected_y,
    expected_y_upper_bound,
    harmonic_number,
    long_run,
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
    lr = long_run(TriProb(p_a=0.3, p_r=0.7, p_c=0.0))
    assert lr.P_A == pytest.approx(0.3)
    assert lr.N == pytest.approx(1.0)
    lr = long_run(TriProb(p_a=0.25, p_r=0.25, p_c=0.5))
    assert lr.P_A == pytest.approx(0.5)
    assert lr.P_R == pytest.approx(0.5)
    assert lr.N == pytest.approx(2.0)
    assert lr.P_A + lr.P_R == pytest.approx(1.0, abs=1e-12)


def test_long_run_degenerate():
    with pytest.raises(DegeneratePlanError):
        long_run(TriProb(p_a=0.0, p_r=0.0, p_c=1.0))


def mixture_mean(f: FuzzyLife) -> float:
    lo, hi = f.support
    return f.a * simpson(lambda r: life_membership(f, r) / r, lo, hi)


def test_expected_y_matches_mixture():
    for a in (1500.0, 15000.0):
        f = FuzzyLife(300.0, a)
        assert expected_y(f) == pytest.approx(mixture_mean(f), rel=1e-6)


@pytest.mark.parametrize("lam", [50.0, 70.0, 150.0, 200.0, 300.0, 500.0])
def test_expected_y_matches_mpmath(lam):
    """E[Y] against Ci/Si at 50 digits, at the same double a and lambda0,
    from a barely fuzzy to a nearly crisp life, across the switch to the
    large-a series."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for ratio in (1.001, 1.01, 1.1, 2.0, 5.0, 10.0, 50.0, 100.0, 1e3, 9999.0, 1e4, 1e6, 1e8,
                      1e12, 1e14):
            a = ratio * lam
            big_a, big_lam = mpmath.mpf(a), mpmath.mpf(lam)
            c = big_a * mpmath.pi / big_lam
            ic = mpmath.ci(c + mpmath.pi) - mpmath.ci(c - mpmath.pi)
            is_ = mpmath.si(c + mpmath.pi) - mpmath.si(c - mpmath.pi)
            want = big_a / 2 * (mpmath.log((big_a + big_lam) / (big_a - big_lam))
                                + mpmath.cos(c) * ic + mpmath.sin(c) * is_)
            assert expected_y(FuzzyLife(lam, a)) == pytest.approx(float(want), rel=1e-12), ratio


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


def test_thresholds_validation():
    with pytest.raises(DomainError):
        Thresholds(0.0, 1.0)
    with pytest.raises(DomainError):
        Thresholds(2.0, 1.0)
