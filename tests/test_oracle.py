"""The Monte-Carlo oracle and the golden-table harness.

The oracle's estimates are pinned draw for draw: tests/data/oracle_estimates.json
holds `mc_triprob` at one case per family, with fuzzy and plain lives, and
`run_regression_grid` at 10^5 draws.  A change that makes the simulation
faster must leave every count as it was.  Run as a script (with
``PYTHONPATH=src``), the module re-records that golden, for a change that
moves the draws on purpose and says why:

    python tests/test_oracle.py
"""

import dataclasses
import json
import math
import sys
import tracemalloc
from pathlib import Path

import mpmath
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


@pytest.mark.parametrize(
    "n, tau, th",
    [(200, 50.0, Thresholds(270.0, 330.0)), (5_000, 50.0, Thresholds(295.0, 305.0))],
    ids=["readme-n200", "n5000"],
)
def test_mc_type1_counts_at_large_group_sizes(n, tau, th):
    """The inverse CDF past numpy's inversion range: n*p = 30.7 at the
    README's --n 200 --tau 50, and 767 at n = 5,000, where (1 - p)^n
    underflows and a binomial coefficient overflows a float."""
    lam = 300.0
    mc = mc_triprob(Family.TYPE_I, lam, th, n=n, tau=tau, draws=10_000, seed=6)
    ref_draws = 2_000
    ref_a, ref_r = _brute_force_type1(lam, tau, n, th, ref_draws, seed=6)
    for est, ref in ((mc.p_a, ref_a), (mc.p_r, ref_r)):
        pooled = 0.5 * (est + ref)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / mc.draws + 1.0 / ref_draws))
        assert abs(est - ref) <= 5.0 * se + 3.0 / ref_draws


@pytest.mark.parametrize(
    "n, p",
    [(n, p) for n in (1, 2, 7, 20, 200, 3_000) for p in (1e-6, 0.01, 0.1535, 0.5, 0.77, 1.0 - 1e-9)
     if n * min(p, 1.0 - p) <= 30.0],
)
def test_binomial_inverse_is_numpys_binomial_up_to_30_expected(n, p):
    """Where n*min(p, 1 - p) <= 30 (numpy draws by BTPE above) the inverse
    CDF gives numpy's counts from the same uniforms, so the Type-I draws did
    not change there."""
    expected = np.random.default_rng(3).binomial(n, p, size=50_000)
    uniforms = np.random.default_rng(3).random(50_000)
    assert np.array_equal(oracle._binomial_inverse(n, p)(uniforms), expected)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_binomial_inverse_of_a_certain_outcome(p):
    counts = oracle._binomial_inverse(9, p)(np.array([0.0, 0.5, 1.0 - 2.0**-53]))
    assert counts.tolist() == [9 * p] * 3


PI_LD = np.longdouble("3.14159265358979323846264338327950288")


def _cos_pi_rounded(u):
    """cos(pi*u) as 50-digit mpmath gives it, rounded to the nearest double.
    An 80-bit long-double sin(pi*(1/2 - u)), within 2^-9 ulp of a double
    (`test_long_double_cosine_is_within_a_fraction_of_an_ulp`), settles
    every value it keeps that far from a rounding midpoint and from a power
    of two; mpmath takes the rest, and every value where long double is no
    wider than double."""
    ld = np.sin(PI_LD * (0.5 - u).astype(np.longdouble))
    rounded = ld.astype(np.float64)
    if np.finfo(np.longdouble).nmant >= 63:
        spacing = np.spacing(np.abs(rounded)).astype(np.longdouble)
        off = np.abs(ld - rounded) / np.where(spacing > 0, spacing, 1)
        unsettled = np.flatnonzero((np.abs(off - 0.5) < 2.0**-9) | (np.frexp(rounded)[0] == 0.5))
    else:
        unsettled = np.arange(u.size)
    with mpmath.workdps(50):
        for i in unsettled:
            rounded[i] = float(mpmath.cospi(mpmath.mpf(float(u[i]))))
    return rounded


def _edge_uniforms():
    """0, 1/2, 1 - 2^-53 and their neighbours, and the uniforms at the slice
    edges of a 10^6-rate draw."""
    eps = 2.0**-53
    special = [0.0, eps, 0.25, 1.0 / 3.0, 0.5 - eps, 0.5, 0.5 + 2 * eps, 0.75, 1.0 - 2 * eps, 1.0 - eps]
    u = np.random.default_rng(17).random(10**6)
    edges = np.arange(oracle._SLICE, u.size, oracle._SLICE)
    return np.concatenate([special, u[edges - 1], u[edges]])


def test_long_double_cosine_is_within_a_fraction_of_an_ulp():
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("long double is no wider than double here; mpmath settles every value")
    u = np.concatenate([_edge_uniforms(), np.random.default_rng(18).random(10_000)])
    ld = np.sin(PI_LD * (0.5 - u).astype(np.longdouble))
    # Each long double, exactly, as the sum of two doubles.
    hi = ld.astype(np.float64)
    lo = (ld - hi).astype(np.float64)
    with mpmath.workdps(50):
        ulps = [
            abs(mpmath.mpf(float(h)) + mpmath.mpf(float(l)) - mpmath.cospi(mpmath.mpf(float(v))))
            / float(np.spacing(abs(h)) or 1.0)
            for v, h, l in zip(u, hi, lo)
        ]
    assert max(ulps) < 2.0**-9


def test_series_cosine_is_within_2_ulps():
    """`_cos_pi` over 10^6 uniforms and the edge cases stays within 2 ulps
    (doubles apart, `numpy.testing.assert_array_max_ulp`) of the correctly
    rounded cos(pi*u)."""
    u = np.concatenate([_edge_uniforms(), np.random.default_rng(19).random(10**6)])
    series = oracle._cos_pi(u.copy(), np.empty(u.size), np.empty(u.size))
    np.testing.assert_array_max_ulp(series, _cos_pi_rounded(u), maxulp=2)
    assert series[5] == 0.0  # u = 1/2


@pytest.mark.parametrize("size", [1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5])
def test_sliced_rates_equal_the_transform_over_whole_arrays(size):
    f = FuzzyLife(300.0, 1500.0)
    rng = np.random.default_rng(23)
    u1, u2 = rng.random(size), rng.random(size)
    whole = np.sqrt(u1)
    whole *= oracle._cos_pi(u2, np.empty(size), np.empty(size))
    np.arcsin(whole, out=whole)
    whole *= 2.0 / (f.a * np.pi)
    whole += 1.0 / f.lambda_j
    np.clip(whole, *f.support, out=whole)
    assert np.array_equal(sample_mixture_rates(f, size, np.random.default_rng(23)), whole)


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


@pytest.mark.parametrize("family", ["ssp", "type1"])
@pytest.mark.parametrize("t1,t2", [(0.0, 200.0), (-1.0, 200.0), (math.nan, 200.0), (5.0, 0.0)])
def test_verify_tables_checks_a_row_s_thresholds(family, t1, t2):
    """The tails read no threshold check, so the recheck makes its own: a
    Type-I tail would read a p_r at t1 <= 0 or a NaN."""
    row = next(r for r in load_golden_rows() if r.family == family and r.t1 is not None)
    with pytest.raises(DomainError, match="row thresholds must be positive"):
        verify_tables([dataclasses.replace(row, t1=t1, t2=t2)])


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
    rejects.  Their p_a is read from the law's accept tail at t2 and p_r
    from its reject tail at t1, and their risks stay the values of the
    survival algebra written out by hand, with p_r = (-expm1(-t1/lambda))^n:
    the first g is 50-digit mpmath's, rounded."""
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


GOLDEN = Path(__file__).resolve().parent / "data" / "oracle_estimates.json"

# (family, life, thresholds, n, tau) per pinned case, each at 10^5 draws and
# seed 7.  Every Type-I case has n*min(p, 1 - p) <= 30, where the failure
# counts are numpy's Binomial inversion; the last has p > 1/2.
GOLDEN_CASES = {
    "ssp-fuzzy": (Family.SSP, FuzzyLife(300.0, 1500.0), Thresholds(5.8231, 251.1178), 1, None),
    "ssp-plain": (Family.SSP, 300.0, Thresholds(60.0, 250.0), 1, None),
    "rgsp_min-fuzzy": (Family.RGSP_MIN, FuzzyLife(300.0, 15000.0), Thresholds(1.0, 60.0), 4, None),
    "rgsp_min-plain": (Family.RGSP_MIN, 300.0, Thresholds(1.0, 60.0), 4, None),
    "rgsp_max-fuzzy": (Family.RGSP_MAX, FuzzyLife(300.0, 1500.0), Thresholds(60.0, 250.0), 3, None),
    "rgsp_max-plain": (Family.RGSP_MAX, 300.0, Thresholds(60.0, 250.0), 3, None),
    "type1-plain": (Family.TYPE_I, 300.0, Thresholds(200.0, 260.0), 20, 50.0),
    "type1-fuzzy": (Family.TYPE_I, FuzzyLife(300.0, 15000.0), Thresholds(180.0, 250.0), 28, 100.0),
    "type1-most-fail": (Family.TYPE_I, 300.0, Thresholds(270.0, 330.0), 10, 3000.0),
}


def oracle_estimates() -> dict:
    """The pinned estimates, as plain JSON values."""
    cases = {
        name: dataclasses.asdict(
            mc_triprob(family, life, th, n=n, tau=tau, draws=10**5, seed=7)
        )
        for name, (family, life, th, n, tau) in GOLDEN_CASES.items()
    }
    grid = [dataclasses.asdict(report) for report in oracle.run_regression_grid(draws=10**5)]
    return {"mc_triprob": cases, "regression_grid": grid}


def test_oracle_estimates_match_their_golden():
    assert oracle_estimates() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(oracle_estimates(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"written to {GOLDEN}", file=sys.stderr)
