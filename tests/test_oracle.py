import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

from asplan import oracle
from asplan.errors import DomainError
from asplan.lifemodel import (
    Thresholds,
    expected_y,
    rgsp_max_triprob,
    rgsp_min_triprob,
    ssp_triprob,
)
from asplan.membership import FuzzyLife
from asplan.oracle import (
    REGRESSION_GRID,
    compare_triprob,
    load_golden_rows,
    mc_triprob,
    sample_mixture_rates,
    verify_tables,
    write_reports_csv,
    write_reports_json,
)
from asplan.plans import Family


def test_sample_mixture_rate_stays_in_support():
    f = FuzzyLife(300.0, 1500.0)
    lo, hi = f.support
    rng = np.random.default_rng(1)
    draws = sample_mixture_rates(f, 500, rng)
    assert draws.shape == (500,)
    assert np.all((lo <= draws) & (draws <= hi))


def test_mixture_mean_life_matches_expectation():
    f = FuzzyLife(300.0, 1500.0)
    rng = np.random.default_rng(42)
    draws = 200_000
    lives = 1.0 / sample_mixture_rates(f, draws, rng)
    se = lives.std(ddof=1) / math.sqrt(draws)
    assert abs(lives.mean() - expected_y(f)) <= 3.0 * se


@pytest.mark.parametrize("lam,a,seed", [(300.0, 1500.0, 7), (50.0, 60.0, 8)])
def test_sample_mixture_rates_follow_the_raised_cosine_law(lam, a, seed):
    """Kolmogorov-Smirnov against the raised-cosine CDF: with
    theta = a*pi*(r - 1/lambda_j), P(R <= r) = (theta + pi + sin theta)/(2*pi)."""
    f = FuzzyLife(lam, a)

    def cdf(r):
        theta = f.a * np.pi * (r - 1.0 / f.lambda_j)
        return (theta + np.pi + np.sin(theta)) / (2.0 * np.pi)

    rates = sample_mixture_rates(f, 10**5, np.random.default_rng(seed))
    assert kstest(rates, cdf).pvalue > 0.01


def test_mc_triprob_reproducible():
    f = FuzzyLife(300.0, 1500.0)
    th = Thresholds(5.8231, 251.1178)
    first = mc_triprob(Family.SSP, f, th, draws=50_000, seed=9)
    second = mc_triprob(Family.SSP, f, th, draws=50_000, seed=9)
    assert first == second


def test_mc_triprob_matches_closed_form():
    f = FuzzyLife(300.0, 1500.0)
    th = Thresholds(5.8231, 251.1178)
    closed = ssp_triprob(f, th)
    mc = mc_triprob(Family.SSP, f, th, draws=200_000, seed=42)
    assert abs(mc.p_a - closed.p_a) <= 3.0 * mc.se_a + 1e-5
    assert abs(mc.p_r - closed.p_r) <= 3.0 * mc.se_r + 1e-5
    assert abs(mc.p_c - closed.p_c) <= 3.0 * mc.se_c + 1e-5


@pytest.mark.parametrize(
    "family, closed_form, n",
    [
        (Family.SSP, lambda th: ssp_triprob(300.0, th), 1),
        (Family.RGSP_MIN, lambda th: rgsp_min_triprob(300.0, th, 4), 4),
        (Family.RGSP_MAX, lambda th: rgsp_max_triprob(300.0, th, 3), 3),
    ],
    ids=["ssp", "rgsp_min", "rgsp_max"],
)
def test_mc_triprob_of_a_plain_mean_life_is_the_crisp_exponential(family, closed_form, n):
    th = Thresholds(60.0, 250.0)
    draws = 100_000
    closed = closed_form(th)
    mc = mc_triprob(family, 300.0, th, n=n, draws=draws, seed=11)
    for est, se, cf in ((mc.p_a, mc.se_a, closed.p_a), (mc.p_r, mc.se_r, closed.p_r),
                        (mc.p_c, mc.se_c, closed.p_c)):
        assert abs(est - cf) <= 5.0 * se + 3.0 / draws


def test_mc_rgsp_max_n1_identical_to_ssp():
    f = FuzzyLife(300.0, 1500.0)
    th = Thresholds(5.8231, 251.1178)
    ssp = mc_triprob(Family.SSP, f, th, draws=50_000, seed=5)
    gmax = mc_triprob(Family.RGSP_MAX, f, th, n=1, draws=50_000, seed=5)
    assert ssp == gmax


def test_mc_type1_zero_failure_groups_accept():
    # tau far below the mean life: nearly every group has few failures, and
    # q = 0 groups must land in the accept bucket, not crash.
    mc = mc_triprob(
        Family.TYPE_I, 1000.0, Thresholds(1.0, 2.0), n=2, tau=0.01, draws=10_000, seed=3
    )
    assert mc.p_a > 0.99


def test_mc_type1_blocks_do_not_change_the_estimate(monkeypatch):
    """The censored family simulates a few lifetimes per block, whatever n
    and draws are; its lifetimes are one stream, so the blocks give the
    estimate of a single block."""
    args = (Family.TYPE_I, 300.0, Thresholds(200.0, 260.0))
    kwargs = dict(n=7, tau=100.0, draws=10_003, seed=4)
    whole = mc_triprob(*args, **kwargs)
    monkeypatch.setattr(oracle, "_TYPE_I_CHUNK", 20)
    assert mc_triprob(*args, **kwargs) == whole
    monkeypatch.setattr(oracle, "_TYPE_I_CHUNK", 3)
    assert mc_triprob(*args, **kwargs) == whole


def _brute_force_type1(lam, tau, n, th, draws, seed):
    """(p_a, p_r) of the censored MLE from all n lifetimes of every group,
    drawn from a stream of its own."""
    rng = np.random.default_rng([seed, 1])
    n_a = n_r = 0
    for start in range(0, draws, 2_000):
        x = rng.exponential(lam, size=(min(2_000, draws - start), n))
        q = np.sum(x < tau, axis=1)
        total = np.sum(np.minimum(x, tau), axis=1)
        lam_hat = np.divide(total, q, out=np.full(q.shape, np.inf), where=q > 0)
        n_a += int(np.sum(lam_hat >= th.t2))
        n_r += int(np.sum(lam_hat < th.t1))
    return n_a / draws, n_r / draws


@pytest.mark.parametrize("tau_over_lam", [0.05, 0.3, 10.0])
@pytest.mark.parametrize("n", [1, 10, 200])
def test_mc_type1_matches_a_full_lifetime_simulation(n, tau_over_lam):
    """Failure counts plus failed lifetimes have the law of the censored MLE
    over all n lifetimes.  tau/lambda = 10 makes nearly every item fail."""
    lam, draws = 300.0, 20_000
    th = Thresholds(0.9 * lam, 1.1 * lam)
    tau = tau_over_lam * lam
    mc = mc_triprob(Family.TYPE_I, lam, th, n=n, tau=tau, draws=draws, seed=6)
    ref_a, ref_r = _brute_force_type1(lam, tau, n, th, draws, seed=6)
    for est, ref in ((mc.p_a, ref_a), (mc.p_r, ref_r)):
        pooled = 0.5 * (est + ref)
        se = math.sqrt(2.0 * pooled * (1.0 - pooled) / draws)
        assert abs(est - ref) <= 5.0 * se + 3.0 / draws


def test_mc_type1_memory_does_not_grow_with_the_group_size():
    """Only the failure counts scale with draws; the lifetimes of a block
    are bounded whatever n is."""
    args = (Family.TYPE_I, 300.0, Thresholds(200.0, 260.0))

    def peak(n):
        tracemalloc.start()
        try:
            mc_triprob(*args, n=n, tau=50.0, draws=10**5, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mc_triprob(*args, n=20, tau=50.0, draws=10**4, seed=2)  # numpy loaded
    assert peak(200) <= 1.5 * peak(20)


def test_mc_type1_memory_does_not_grow_with_the_draws():
    """The failure counts are drawn per block too, from a stream of their
    own, so ten times the draws need no more memory."""
    args = (Family.TYPE_I, 300.0, Thresholds(200.0, 260.0))

    def peak(draws):
        tracemalloc.start()
        try:
            mc_triprob(*args, n=20, tau=50.0, draws=draws, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mc_triprob(*args, n=20, tau=50.0, draws=10**4, seed=2)  # numpy loaded
    assert peak(10**6) <= 1.5 * peak(10**5)


@pytest.mark.parametrize("n", [2.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize("family", list(Family), ids=lambda family: family.value)
def test_mc_triprob_group_size_must_be_an_integer(family, n):
    """A fractional size once simulated rgsp_min at n = 2.5 and failed with
    a TypeError elsewhere; True simulated a group of one."""
    with pytest.raises(DomainError, match="n must be an integer"):
        mc_triprob(family, 300.0, Thresholds(100.0, 200.0), n=n, tau=50.0, draws=10_000)


def test_compare_triprob_of_type1_without_tau_is_a_domain_error():
    with pytest.raises(DomainError, match="tau must be positive and finite, got None"):
        compare_triprob("type1", FuzzyLife(300.0, 1500.0), Thresholds(100.0, 200.0), n=3)


def test_mc_triprob_rejects_tiny_draws():
    with pytest.raises(DomainError):
        mc_triprob(Family.SSP, FuzzyLife(300.0, 1500.0), Thresholds(1.0, 2.0), draws=10)


@pytest.mark.parametrize("draws", [20000.5, 2e4, "20000"], ids=["fraction", "float", "str"])
def test_mc_triprob_draws_must_be_an_integer(draws):
    """A fractional count once failed in numpy with a TypeError."""
    with pytest.raises(DomainError, match="draws must be an integer"):
        mc_triprob(Family.SSP, FuzzyLife(300.0, 1500.0), Thresholds(1.0, 2.0), draws=draws)


@pytest.mark.parametrize(
    "family,n,tau,message",
    [
        (Family.TYPE_I, 0, 50.0, "n must be >= 1"),
        (Family.TYPE_I, -3, 50.0, "n must be >= 1"),
        (Family.TYPE_I, 1, -5.0, "tau must be positive"),
        (Family.TYPE_I, 1, 0.0, "tau must be positive"),
        (Family.TYPE_I, 1, math.nan, "tau must be positive"),
        (Family.TYPE_I, 3, math.inf, "tau must be positive and finite"),
        (Family.RGSP_MIN, 0, None, "n must be >= 1"),
        (Family.RGSP_MAX, -1, None, "n must be >= 1"),
    ],
)
def test_mc_triprob_rejects_what_the_closed_forms_reject(family, n, tau, message):
    with pytest.raises(DomainError, match=message):
        mc_triprob(family, 300.0, Thresholds(100.0, 200.0), n=n, tau=tau, draws=10_000)


@pytest.mark.parametrize("family", list(Family), ids=lambda family: family.value)
@pytest.mark.parametrize("life", [math.inf, 0.0, math.nan], ids=["inf", "zero", "nan"])
def test_mc_triprob_rejects_a_mean_life_that_is_not_positive_and_finite(family, life):
    """An infinite mean life once gave every family p_a = 1, through a
    division by zero in the rate."""
    with pytest.raises(DomainError, match="mean life must be positive and finite"):
        mc_triprob(family, life, Thresholds(5.0, 250.0), n=3, tau=50.0, draws=10_000)


def test_single_case_tolerance_uses_the_pooled_standard_error():
    draws = 10**4
    f, th = FuzzyLife(300.0, 15000.0), Thresholds(176.3513, 196.9506)
    reports = compare_triprob(Family.RGSP_MAX, f, th, n=5, draws=draws, seed=3)
    assert [r.name for r in reports] == ["rgsp_max p_a", "rgsp_max p_r", "rgsp_max p_c"]
    for report in reports:
        pooled = 0.5 * (report.closed_form + report.oracle)
        se = math.sqrt(pooled * (1.0 - pooled) / draws)
        assert report.tolerance == pytest.approx(3.0 * se + 3.0 / draws, rel=1e-12)
        assert report.passed == (abs(report.closed_form - report.oracle) <= report.tolerance)


def test_regression_grid_shape():
    assert len(REGRESSION_GRID) == 20
    assert {case[0] for case in REGRESSION_GRID} == {"ssp", "rgsp_min", "rgsp_max"}


def test_golden_rows_load():
    rows = load_golden_rows()
    assert len(rows) == 80
    by_table = {}
    for row in rows:
        by_table.setdefault(row.table, []).append(row)
    assert {t: len(rs) for t, rs in by_table.items()} == {
        1: 16, 2: 4, 3: 16, 4: 4, 5: 16, 6: 4, 7: 4, 8: 4, 9: 12,
    }
    design_rows = [r for r in rows if r.variant != "comparison"]
    assert all(r.t1 is not None and r.t2 is not None for r in design_rows)


def test_verify_tables_reports_every_row():
    reports = verify_tables()
    assert len(reports) == 80
    comparison = [r for r in reports if r["feasible"] is None]
    assert len(comparison) == 12
    checked = [r for r in reports if r["feasible"] is not None]
    assert all(isinstance(r["feasible"], bool) for r in checked)
    assert all(math.isfinite(r["etc_recomputed"]) for r in checked)


@pytest.mark.parametrize("n", [0, True, 3.0], ids=["zero", "bool", "float"])
def test_verify_tables_checks_a_row_group_size(n):
    """A row of n = 0 was once rechecked at n = 1 and reported as n = 0."""
    row = next(r for r in load_golden_rows() if r.family == "rgsp_max" and r.n is not None)
    with pytest.raises(DomainError, match="row group size must be"):
        verify_tables([dataclasses.replace(row, n=n)])


def test_verify_tables_report_files(tmp_path):
    reports = verify_tables(load_golden_rows()[:6])
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_reports_csv(csv_path, reports)
    write_reports_json(json_path, reports)
    assert csv_path.read_text().startswith("a,")
    assert json_path.read_text().lstrip().startswith("[")


def test_verify_tables_extends_the_inverted_table6_rows():
    """Two published crisp rgsp_max designs print t1 > t2, which `Thresholds`
    rejects.  Their p_a is read at (t2, t2) and p_r at (t1, t1), and their
    risks stay the values of the survival algebra written out by hand, with
    p_r = (-expm1(-t1/lambda))^n: the first g is 50-digit mpmath's, rounded."""
    rows = [r for r in load_golden_rows() if r.t1 is not None and r.t1 > r.t2]
    reports = verify_tables(rows)
    assert [(r["table"], r["family"], r["variant"], r["t1"], r["t2"], r["n"]) for r in reports] == [
        (6, "rgsp_max", "crisp", 239.5461, 228.7969, 5),
        (6, "rgsp_max", "crisp", 192.6274, 181.4727, 4),
    ]
    assert [(r["g"], r["h"], r["feasible"]) for r in reports] == [
        (0.049970615841761074, 0.04995457886305182, True),
        (0.05000002721661464, 0.09999997210235875, True),
    ]
