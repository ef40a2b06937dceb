import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asplan.disposition import (
    Decision,
    FailureData,
    case_study_data,
    censored_mle,
    dispose_rgsp_max,
    dispose_rgsp_min,
    dispose_ssp,
    dispose_type1,
    load_failure_data,
)
from asplan.errors import DomainError


def test_case_study_dataset():
    data = case_study_data()
    assert len(data.values) == 36
    assert data.values[0] == 170.0
    assert data.values[7] == 13403.0
    assert data.values[-1] == 958.0


def test_ssp_case_study_accepts():
    result = dispose_ssp(case_study_data(), t1=41.0, t2=3159.0)
    assert result.decision is Decision.ACCEPT
    # The first observation at or above t2 is the fourth (3214 >= 3159).
    assert result.decided_at == 4
    assert result.evidence[-1] == 3214.0


def test_ssp_reject_and_band():
    assert dispose_ssp(FailureData((40.0,)), 41.0, 3159.0).decision is Decision.REJECT
    result = dispose_ssp(FailureData((100.0, 200.0)), 41.0, 3159.0)
    assert result.decision is Decision.CONTINUE_EXHAUSTED
    assert result.decided_at is None


def test_ssp_boundaries_continue_at_t1_and_accept_at_t2():
    at_t1 = dispose_ssp(FailureData((41.0, 100.0)), 41.0, 3159.0)
    assert at_t1.decision is Decision.CONTINUE_EXHAUSTED
    assert (at_t1.decided_at, at_t1.evidence) == (None, (41.0, 100.0))
    at_t2 = dispose_ssp(FailureData((41.0, 3159.0, 1.0)), 41.0, 3159.0)
    assert at_t2.decision is Decision.ACCEPT
    assert (at_t2.decided_at, at_t2.evidence) == (2, (41.0, 3159.0))


def test_ssp_threshold_sentinels():
    data = case_study_data()
    never_reject = dispose_ssp(data, t1=0.0, t2=1e18)
    assert never_reject.decision is Decision.CONTINUE_EXHAUSTED
    always = dispose_ssp(data, t1=0.0, t2=1.0)
    assert always.decision is Decision.ACCEPT and always.decided_at == 1


@pytest.mark.parametrize(
    "t1,t2", [(3159.0, 41.0), (-5.0, 100.0), (-5.0, math.nan), (math.nan, 100.0), (41.0, math.nan)]
)
@pytest.mark.parametrize(
    "dispose",
    [dispose_ssp, lambda d, t1, t2: dispose_rgsp_min(d, t1, t2, 2),
     lambda d, t1, t2: dispose_rgsp_max(d, t1, t2, 2),
     lambda d, t1, t2: dispose_type1(d, t1, t2, 2, 2000.0)],
    ids=["ssp", "rgsp_min", "rgsp_max", "type1"],
)
def test_thresholds_must_be_ordered_and_non_negative(dispose, t1, t2):
    """Every family needs 0 <= t1 <= t2: t1 > t2 would reject what also
    accepts, and a negative or NaN threshold would never decide."""
    with pytest.raises(DomainError, match="need 0 <= t1 <= t2"):
        dispose(case_study_data(), t1, t2)


@pytest.mark.parametrize("t1,t2", [(math.inf, math.inf), (41.0, math.inf)])
@pytest.mark.parametrize(
    "dispose",
    [dispose_ssp, lambda d, t1, t2: dispose_rgsp_min(d, t1, t2, 2),
     lambda d, t1, t2: dispose_rgsp_max(d, t1, t2, 2),
     lambda d, t1, t2: dispose_type1(d, t1, t2, 2, 2000.0)],
    ids=["ssp", "rgsp_min", "rgsp_max", "type1"],
)
def test_thresholds_must_be_finite(dispose, t1, t2):
    """An infinite t2 never accepts, and t1 = t2 = inf rejects every lot."""
    with pytest.raises(DomainError, match="thresholds must be finite"):
        dispose(case_study_data(), t1, t2)


def test_rgsp_min_case_study_accepts():
    result = dispose_rgsp_min(case_study_data(), t1=4.0, t2=141.0, n=20)
    assert result.decision is Decision.ACCEPT
    assert result.decided_at == 1
    assert result.evidence == (170.0,)


def test_rgsp_max_case_study_accepts():
    result = dispose_rgsp_max(case_study_data(), t1=203.0, t2=2630.0, n=2)
    assert result.decision is Decision.ACCEPT
    assert result.decided_at == 1
    assert result.evidence == (2694.0,)


def test_grouped_band_continues_to_next_block():
    data = FailureData((10.0, 12.0, 50.0, 60.0))
    result = dispose_rgsp_max(data, t1=5.0, t2=55.0, n=2)
    assert result.decision is Decision.ACCEPT
    assert result.decided_at == 2


def test_grouped_requires_full_block():
    with pytest.raises(DomainError):
        dispose_rgsp_min(FailureData((1.0, 2.0)), 0.5, 10.0, n=3)


def test_censored_mle_case_study():
    data = case_study_data()
    assert censored_mle(data.values, 13, 2000.0) == pytest.approx(3040.6667, abs=1e-4)


def test_censored_mle_no_censoring_is_mean():
    values = (10.0, 20.0, 30.0)
    assert censored_mle(values, 3, 100.0) == pytest.approx(20.0)


def test_censored_mle_no_failures_is_infinite():
    # With no failure before tau the likelihood exp(-n*tau/lambda) rises in lambda.
    assert censored_mle((500.0,), 1, 100.0) == math.inf


@pytest.mark.parametrize("values", [(10.0, math.nan), (math.nan, 10.0), (10.0, -5.0), (0.0, 10.0)])
def test_censored_mle_refuses_a_lifetime_that_is_not_positive_and_finite(values):
    """A NaN fails no `v < tau` test: counted as a survivor it would give a
    finite estimate.  The values are checked as `FailureData` checks them."""
    with pytest.raises(DomainError, match="positive and finite"):
        censored_mle(values, 2, 50.0)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    values=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=30),
    tau=st.floats(1e-2, 1e5),
)
def test_censored_mle_is_the_exact_sum_over_the_failure_count(values, tau):
    """Failed lifetimes plus tau per survivor, summed with one rounding, over
    the failure count: the same double as summing min(v, tau) in order."""
    failures = sum(1 for v in values if v < tau)
    expected = math.fsum(min(v, tau) for v in values) / failures if failures else math.inf
    assert censored_mle(values, len(values), tau) == expected


@pytest.mark.parametrize(
    "n,message",
    [(2.5, "group size must be an integer, got 2.5"),
     (True, "group size must be an integer, got True"),
     (0, "group size must be >= 1, got 0")],
)
@pytest.mark.parametrize(
    "dispose",
    [lambda n: dispose_rgsp_min(case_study_data(), 4.0, 141.0, n),
     lambda n: dispose_rgsp_max(case_study_data(), 203.0, 2630.0, n),
     lambda n: dispose_type1(case_study_data(), 1219.0, 1990.0, n, 2000.0),
     lambda n: censored_mle(case_study_data().values, n, 50.0)],
    ids=["rgsp_min", "rgsp_max", "type1", "censored_mle"],
)
def test_group_size_must_be_a_positive_integer(dispose, n, message):
    """A fractional size once failed with a TypeError, and True decided as
    a group of one."""
    with pytest.raises(DomainError, match=message):
        dispose(n)


def test_type1_group_with_no_failure_accepts():
    """The zero-failure rule of the Monte-Carlo oracle: every item outlived
    the test, so the group accepts."""
    result = dispose_type1(FailureData((500.0, 600.0, 700.0)), 100.0, 400.0, n=3, tau=50.0)
    assert result.decision is Decision.ACCEPT
    assert (result.decided_at, result.evidence) == (1, (math.inf,))


def test_type1_requires_tau():
    with pytest.raises(DomainError, match="tau is required"):
        dispose_type1(case_study_data(), 1219.0, 1990.0, n=13, tau=None)


@pytest.mark.parametrize("tau", [0.0, math.inf, math.nan])
def test_type1_requires_a_positive_finite_tau(tau):
    """With tau = inf no item is censored, so the plan is no Type-I plan."""
    with pytest.raises(DomainError, match="tau must be positive and finite"):
        dispose_type1(case_study_data(), 1219.0, 1990.0, n=13, tau=tau)


def test_type1_case_study_accepts():
    result = dispose_type1(case_study_data(), t1=1219.0, t2=1990.0, n=13, tau=2000.0)
    assert result.decision is Decision.ACCEPT
    assert result.decided_at == 1
    assert result.evidence[0] == pytest.approx(3040.6667, abs=1e-4)


def test_failure_data_validation():
    with pytest.raises(DomainError):
        FailureData(())
    with pytest.raises(DomainError):
        FailureData((1.0, -2.0))
    # An infinite lifetime would pass every t2, and print as no number.
    with pytest.raises(DomainError, match="positive and finite"):
        FailureData((math.inf, 3.0))


@pytest.mark.parametrize(
    "values",
    [(math.nan, -1.0), (1.0, math.nan), (math.inf, 3.0), (0.0, 1.0), (-math.inf, math.inf)],
)
def test_failure_data_refuses_a_value_that_is_not_positive_and_finite(values):
    with pytest.raises(DomainError, match="positive and finite"):
        FailureData(values)


def test_failure_data_accepts_finite_values_whose_sum_overflows():
    assert FailureData((1e308, 1e308)).values == (1e308, 1e308)


def test_load_failure_data_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("lifetime\n10\n20\n30\n")
    data = load_failure_data(path)
    assert data.values == (10.0, 20.0, 30.0)


def test_load_failure_data_json(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps([5, 6, 7]))
    assert load_failure_data(path).values == (5.0, 6.0, 7.0)
