import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asplan import fuzzyopt, lifemodel
from asplan.errors import ConsistencyError, DegeneratePlanError, DomainError
from asplan.lifemodel import (
    SD_FORMS,
    Thresholds,
    TriProb,
    expected_y,
    expected_y_upper_bound,
    harmonic_number,
)
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.plans import (
    Family,
    PlanProblem,
    crisp_limit,
    expected_stage_duration,
    plan_functions,
    stage_law,
)
from reference import plan_arrays


def make_problem(family=Family.SSP, **overrides) -> PlanProblem:
    kwargs = dict(
        family=family,
        lambda0=FuzzyLife(300.0, 1500.0),
        lambda1=FuzzyLife(50.0, 1500.0),
        alpha=FuzzyLevel(0.05, 0.05),
        beta=FuzzyLevel(0.05, 0.05),
    )
    kwargs.update(overrides)
    return PlanProblem(**kwargs)


def test_problem_validation():
    with pytest.raises(DomainError):
        make_problem(lambda1=FuzzyLife(400.0, 1500.0))
    with pytest.raises(DomainError):
        make_problem(lambda1=FuzzyLife(50.0, 2100.0))
    with pytest.raises(DomainError):
        make_problem(family=Family.TYPE_I)  # tau missing
    with pytest.raises(DomainError):
        make_problem(cost=0.0)
    with pytest.raises(DomainError):
        make_problem(objective_variant="nope")


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(cost=math.inf), "cost rate must be positive and finite"),
        (dict(family=Family.TYPE_I, tau=math.inf), "tau must be positive and finite"),
        (dict(family=Family.TYPE_I, tau=0.0), "tau must be positive and finite"),
        (dict(lambda0=math.inf, lambda1=50.0), "finite mean lives"),
        (dict(lambda0=math.inf, lambda1=math.inf), "finite mean lives"),
    ],
    ids=["cost-inf", "tau-inf", "tau-zero", "lambda0-inf", "both-lives-inf"],
)
def test_problem_rejects_non_finite_inputs(overrides, message):
    """Each would print Infinity, which is not JSON, or fail later with a
    message about something else."""
    with pytest.raises(DomainError, match=message):
        make_problem(**overrides)


@pytest.mark.parametrize(
    "n_max,message",
    [
        (2.5, "n_max must be an integer, got 2.5"),
        (3.0, "n_max must be an integer, got 3.0"),
        (True, "n_max must be an integer, got True"),
        ("3", "n_max must be an integer, got '3'"),
        (0, "n_max must be >= 1, got 0"),
    ],
    ids=["fraction", "integral-float", "bool", "str", "zero"],
)
def test_problem_rejects_a_group_size_bound_that_is_no_positive_integer(n_max, message):
    """A float n_max once failed at solve time with a TypeError from
    `range`, and True quietly meant 1."""
    with pytest.raises(DomainError, match=re.escape(message)):
        make_problem(family=Family.RGSP_MIN, n_max=n_max)


def test_problem_takes_any_integer_n_max():
    assert make_problem(family=Family.RGSP_MIN, n_max=np.int64(3)).group_sizes == range(1, 4)


@pytest.mark.parametrize("upper", [False, True], ids=["etc_star", "etc_upper_bound"])
@pytest.mark.parametrize("crisp", [False, True], ids=["fuzzy", "crisp"])
@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_least_floor_after_is_the_least_later_floor(family, crisp, upper):
    """The floor is monotone in n, so one `cost_floor` call gives the least
    floor of the later sizes, the same double as the least of them all."""
    problem = make_problem(
        family=family,
        tau=50.0 if family is Family.TYPE_I else None,
        objective_variant="etc_upper_bound" if upper else "etc_star",
        n_max=40,
        cost=3.7,
    )
    if crisp:
        problem = crisp_limit(problem)
    sizes = list(problem.group_sizes)
    for k, n in enumerate(sizes):
        later = [problem.cost_floor(m) for m in sizes[k + 1:]]
        assert problem.least_floor_after(n) == min(later, default=math.inf)


def test_problem_rejects_unknown_sd_form():
    with pytest.raises(DomainError, match="sd_form"):
        make_problem(family=Family.TYPE_I, tau=50.0, sd_form="bogus")


def test_problem_takes_plain_mean_lives():
    p = make_problem(lambda0=300.0, lambda1=50.0)
    assert plan_functions(p, None)[3][1][1] == 300.0
    for lives in ((300.0, FuzzyLife(50.0, 1500.0)), (300.0, 0.0), (50.0, 300.0)):
        with pytest.raises(DomainError):
            make_problem(lambda0=lives[0], lambda1=lives[1])


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("life", [FuzzyLife(300.0, 1500.0), 300.0])
def test_stage_duration_is_the_mean_scaled_per_family(life, upper):
    mean = (expected_y_upper_bound if upper else expected_y)(life)
    assert expected_stage_duration(Family.SSP, life, None, upper) == mean
    assert expected_stage_duration(Family.TYPE_I, life, 7, upper, tau=50.0) == 50.0
    for n in (1, 2, 7, 200):
        assert expected_stage_duration(Family.RGSP_MIN, life, n, upper) == mean / n
        assert expected_stage_duration(Family.RGSP_MAX, life, n, upper) == (
            harmonic_number(n) * mean
        )
    for family in (Family.RGSP_MIN, Family.RGSP_MAX):
        with pytest.raises(DomainError, match="n must be >= 1"):
            expected_stage_duration(family, life, 0, upper)


@pytest.mark.parametrize(
    "family,n",
    [(Family.SSP, None), (Family.RGSP_MIN, 3), (Family.RGSP_MAX, 3), (Family.TYPE_I, 5)],
)
def test_crisp_flag_builds_the_crisp_limit(family, n):
    p = make_problem(family=family, tau=100.0 if family is Family.TYPE_I else None)
    crisp = crisp_limit(p)
    assert (crisp.lambda0, crisp.lambda1) == (300.0, 50.0)
    assert (crisp.alpha, crisp.beta) == (FuzzyLevel(0.05, 0.0), FuzzyLevel(0.05, 0.0))
    assert crisp_limit(crisp) == crisp
    x = (20.0, 250.0)
    flagged = plan_functions(p, n, crisp=True)
    assert [fn(x) for fn in flagged[:3]] == [fn(x) for fn in crisp.functions(n)[:3]]
    assert flagged[3:] == plan_functions(p, n)[3:]


def test_group_families_reduce_to_ssp_at_n1():
    base = plan_functions(make_problem(), None)[:3]
    rng = random.Random(21)
    for family in (Family.RGSP_MIN, Family.RGSP_MAX):
        fns = plan_functions(make_problem(family=family), 1)[:3]
        for _ in range(20):
            t1 = rng.uniform(1.0, 100.0)
            x = (t1, rng.uniform(t1, 300.0))
            for got, want in zip(fns, base):
                assert got(x) == pytest.approx(want(x), rel=1e-12)


def test_bound_variant_dominates_pointwise():
    rng = random.Random(23)
    for family, n in ((Family.SSP, None), (Family.RGSP_MIN, 7), (Family.RGSP_MAX, 7)):
        star = make_problem(family=family)
        upper = make_problem(family=family, objective_variant="etc_upper_bound")
        obj_star = plan_functions(star, n)[0]
        obj_upper = plan_functions(upper, n)[0]
        for _ in range(100):
            t1 = rng.uniform(0.5, 100.0)
            x = (t1, rng.uniform(t1 + 1e-6, 300.0))
            assert obj_upper(x) >= obj_star(x)


def test_ssp_objective_tends_to_single_stage_cost():
    from asplan.lifemodel import expected_y

    p = make_problem()
    objective = plan_functions(p, None)[0]
    # An empty continuation band means exactly one observation on average.
    assert objective((150.0, 150.0)) == pytest.approx(expected_y(p.lambda0), rel=1e-12)


def test_typeI_objective_floor_at_empty_band():
    p = make_problem(
        family=Family.TYPE_I,
        lambda1=FuzzyLife(200.0, 1500.0),
        tau=50.0,
        cost=2.0,
    )
    objective, g, h = plan_functions(p, 33)[:3]
    assert objective((236.8898, 236.8898)) == pytest.approx(2.0 * 50.0, rel=1e-12)


def test_min_consumer_risk_decreases_in_t2():
    p = make_problem(family=Family.RGSP_MIN, lambda1=FuzzyLife(200.0, 1500.0))
    h = plan_functions(p, 10)[2]
    values = [h((0.001, t2)) for t2 in (50.0, 100.0, 150.0, 200.0, 250.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_constraints_match_direct_recomputation():
    from asplan.lifemodel import Thresholds, long_run, rgsp_max_triprob

    p = make_problem(family=Family.RGSP_MAX)
    _, g, h, _, _ = plan_functions(p, 5)
    x = (130.0, 290.0)
    th = Thresholds(*x)
    assert g(x) == pytest.approx(long_run(rgsp_max_triprob(p.lambda0, th, 5)).P_R, abs=1e-12)
    assert h(x) == pytest.approx(long_run(rgsp_max_triprob(p.lambda1, th, 5)).P_A, abs=1e-12)


def test_box_respects_nominal_life_by_default():
    p = make_problem()
    box = plan_functions(p, None)[3]
    assert box[1][1] == 300.0
    widened = make_problem(allow_t2_above_lambda0=True)
    assert plan_functions(widened, None)[3][1][1] > 300.0


@pytest.mark.parametrize("crisp", [False, True])
@pytest.mark.parametrize(
    "family,n",
    [(Family.SSP, None), (Family.RGSP_MIN, 3), (Family.RGSP_MAX, 3), (Family.TYPE_I, 5)],
)
def test_closures_broadcast_like_the_scalar_path(family, n, crisp):
    """The numpy model of the tests (`reference.plan_arrays`), which the grid
    oracle scans, gives the scalar closures' values."""
    p = make_problem(family=family, tau=100.0 if family is Family.TYPE_I else None)
    rng = np.random.default_rng(5)
    t = np.sort(np.exp(rng.uniform(math.log(1e-4), math.log(300.0), size=(2, 60))), axis=0)
    scalar_fns = plan_functions(p, n, crisp=crisp)
    array_fns = plan_arrays(p, n, crisp=crisp)
    assert array_fns[3:] == scalar_fns[3:]
    for fn, array_fn in zip(scalar_fns[:3], array_fns[:3]):
        values = array_fn(t.reshape(2, 6, 10))
        assert values.shape == (6, 10)
        scalar = [fn((t1, t2)) for t1, t2 in t.T]
        assert all(isinstance(v, float) for v in scalar)
        assert values.ravel() == pytest.approx(scalar, rel=1e-12)


def test_type1_risks_stay_finite_where_both_tails_are_tiny():
    """README Type-I problem at n = 28 and the box corner (lo, hi): at the
    acceptable life z1 = -10.97 and z2 = +10.97, so 1 - Phi(z2) would round
    to 0 and 1 - p_c to 0.  The upper tail Phi(-z2) and the sum p_a + p_r
    keep both risks finite: g = Phi(z1)/(Phi(z1) + Phi(-z2)) is about 1/2,
    as the two tails are nearly equal, and h is about 1e-113."""
    mpmath = pytest.importorskip("mpmath")
    p = make_problem(
        family=Family.TYPE_I, tau=50.0, lambda0=FuzzyLife(300.0, 15000.0),
        lambda1=FuzzyLife(200.0, 15000.0), objective_variant="etc_upper_bound",
    )
    objective, g, h, box, _ = plan_functions(p, 28)
    _, g_array, h_array, _, _ = plan_arrays(p, 28)
    x = (box[0][0], box[1][1])
    stacked = np.array([[x[0]], [x[1]]])

    def exact(life, risk):
        m = 28 * mpmath.sqrt(-mpmath.expm1(-mpmath.mpf(50) / life))
        z1, z2 = [(mpmath.mpf(t) - life) / life * m for t in x]
        assert z1 < -8.2 and z2 > 8.3
        p_r, p_a = mpmath.ncdf(z1), mpmath.ncdf(-z2)
        return float((p_r if risk == "g" else p_a) / (p_a + p_r))

    for fn, array_fn, life, risk in ((g, g_array, 300, "g"), (h, h_array, 200, "h")):
        assert math.isfinite(fn(x)) and 0.0 <= fn(x) <= 1.0
        assert fn(x) == pytest.approx(exact(life, risk), rel=1e-9)
        assert array_fn(stacked)[0] == pytest.approx(fn(x), rel=1e-12)
    assert math.isfinite(objective(x))


@st.composite
def _lives(draw):
    lam = draw(st.floats(1.0, 1e4))
    if draw(st.booleans()):
        return lam
    return FuzzyLife(lam, lam * draw(st.floats(1.0 + 1e-9, 1e5)))


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(Family),
    sd_form=st.sampled_from(SD_FORMS),
    n=st.integers(1, 60),
    tau=st.floats(1.0, 1e3),
    life=_lives(),
    ts=st.lists(st.floats(1e-3, 1e4), min_size=2, max_size=2).map(sorted),
)
def test_each_tail_reads_its_own_threshold(family, sd_form, n, tau, life, ts):
    """p_a depends on t2 alone and p_r on t1 alone, bit for bit, in every
    family: the premise on which `oracle.verify_tables` reads the tails of
    designs with inverted thresholds at (t2, t2) and (t1, t1)."""
    t1, t2 = ts
    law = stage_law(family, None if family is Family.SSP else n, tau, sd_form)
    p_a, p_r, _ = law(life, t1, t2)
    assert p_a == law(life, t2, t2)[0]
    assert p_r == law(life, t1, t1)[1]


FAMILY_SIZES = [(Family.SSP, None), (Family.RGSP_MIN, 3), (Family.RGSP_MAX, 3), (Family.TYPE_I, 5)]
FAMILY_IDS = [family.value for family, _ in FAMILY_SIZES]


def _float_path(family, n):
    """g, h, the objective and the stage law of the README lives: what the
    solver and the table recheck evaluate."""
    problem = make_problem(family=family, tau=50.0 if family is Family.TYPE_I else None)
    objective, g, h, _, _ = plan_functions(problem, n)
    law = stage_law(family, n, 50.0)
    return objective, g, h, lambda x: law(problem.lambda0, *x)


@pytest.mark.parametrize(
    "x,message",
    [
        ((0.0, 100.0), "t1 must be positive, got 0.0"),
        ((-1.0, 100.0), "t1 must be positive, got -1.0"),
        ((math.nan, 100.0), "t1 must be positive, got nan"),
        ((100.0, 50.0), "need t2 >= t1, got t1=100.0, t2=50.0"),
        ((100.0, math.nan), "need t2 >= t1, got t1=100.0, t2=nan"),
    ],
    ids=["t1-zero", "t1-negative", "t1-nan", "t2-below-t1", "t2-nan"],
)
@pytest.mark.parametrize("family,n", FAMILY_SIZES, ids=FAMILY_IDS)
def test_float_path_refuses_the_thresholds_that_thresholds_refuses(family, n, x, message):
    """The closures and the laws build no `Thresholds`, but make its checks,
    with its messages."""
    with pytest.raises(DomainError, match=re.escape(message)):
        Thresholds(*x)
    for fn in _float_path(family, n):
        with pytest.raises(DomainError, match=re.escape(message)):
            fn(x)


def _rising(f, t):
    return t / (1.0 + t)


def _falling_cdf(z):
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@pytest.mark.parametrize("family,n", FAMILY_SIZES, ids=FAMILY_IDS)
def test_float_path_refuses_a_continuation_probability_outside_0_1(family, n, monkeypatch):
    """A survival that rises in t (a normal CDF that falls, for Type-I)
    makes p_c = S(t1) - S(t2) negative beyond rounding: the clamp raises, on
    the float path as in the public triprobs."""
    if family is Family.TYPE_I:
        monkeypatch.setattr(lifemodel, "std_normal_cdf", _falling_cdf)
    else:
        monkeypatch.setattr(lifemodel, "weighted_survival", _rising)
    x = (45.0, 55.0)  # within a few sd of both mean lives, for Type-I
    for fn in _float_path(family, n):
        with pytest.raises(ConsistencyError, match=r"^p_c = -.* is outside \[0,1\] beyond tolerance$"):
            fn(x)
    with pytest.raises(ConsistencyError, match="p_c = -"):
        {
            Family.SSP: lambda: lifemodel.ssp_triprob(300.0, Thresholds(*x)),
            Family.RGSP_MIN: lambda: lifemodel.rgsp_min_triprob(300.0, Thresholds(*x), n),
            Family.RGSP_MAX: lambda: lifemodel.rgsp_max_triprob(300.0, Thresholds(*x), n),
            Family.TYPE_I: lambda: lifemodel.typeI_triprob(300.0, Thresholds(*x), n, 50.0),
        }[family]()


@pytest.mark.parametrize("family,n", FAMILY_SIZES[:3], ids=FAMILY_IDS[:3])
def test_float_path_refuses_probabilities_that_do_not_sum_to_one(family, n, monkeypatch):
    """A NaN survival clamps p_c to 0 but leaves p_a NaN: the sum check of
    `TriProb` raises, with its message."""
    with pytest.raises(ConsistencyError, match=re.escape("probabilities sum to nan, not 1")):
        TriProb(math.nan, 0.5, 0.0)
    monkeypatch.setattr(lifemodel, "weighted_survival", lambda f, t: math.nan)
    for fn in _float_path(family, n):
        with pytest.raises(ConsistencyError, match=re.escape("probabilities sum to nan, not 1")):
            fn((10.0, 100.0))


def test_a_plan_that_never_ends_raises_and_reads_as_infeasible():
    """At t1 = 1e-15 the crisp survival rounds to 1 and at t2 = 1e6 to 0, so
    p_a = p_r = 0: each closure raises DegeneratePlanError, and the crisp
    solve's `_excess` reads the point as 1, above any risk's excess."""
    x = (1e-15, 1e6)
    crisp = plan_functions(make_problem(lambda0=300.0, lambda1=50.0), None)[:3]
    for fn in crisp:
        with pytest.raises(DegeneratePlanError, match=re.escape("p_a + p_r = 0")):
            fn(x)
    _, g, h = crisp
    assert fuzzyopt._excess(g, 0.05)(*x) == 1.0
    assert fuzzyopt._excess(h, 0.05)(*x) == 1.0


@pytest.mark.parametrize("family,n", FAMILY_SIZES, ids=FAMILY_IDS)
def test_closures_build_no_value_object(family, n, monkeypatch):
    """An evaluation builds no `Thresholds`, `TriProb` or `LongRun`: they
    cost more than the survival maths the closures do."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (lifemodel.Thresholds, lifemodel.TriProb, lifemodel.LongRun):
        monkeypatch.setattr(cls, "__init__", refuse)
    for fn in _float_path(family, n)[:3]:
        assert math.isfinite(fn((20.0, 250.0)))
