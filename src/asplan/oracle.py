"""Independent verification: Monte-Carlo mixture sampling and the
golden-table harness.

The Monte-Carlo side re-derives every plan probability by direct simulation
of the lifetime model (a random failure rate from the raised-cosine
membership, drawn exactly by an inverse-sine transform with nothing
rejected, then exponential lifetimes), with no shared code path through
the closed forms it checks.  The censored family draws each group's
failure count and then only its failed lifetimes, the structure of the
censored MLE (Bartholomew 1963), not all n lifetimes.  The golden-table
harness is not independent: it rechecks the published designs through each
family's `plans.stage_law`.

Only the simulation uses numpy, so `sample_mixture_rates` and `mc_triprob`
import it when they run: `import asplan` and every command but `oracle`
start without it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional, Sequence

from .errors import DomainError
from .lifemodel import (  # unused here; perfbench/tracing.py rebinds these oracle names
    rgsp_max_triprob,
    rgsp_min_triprob,
    ssp_triprob,
    typeI_triprob,
    weighted_survival,
)
from .lifemodel import Thresholds, check_group_size, long_run_rates
from .membership import FuzzyLife
from .plans import Family, expected_stage_duration, stage_law

# Group lifetimes (groups times n) per block of the censored family, so that
# its memory does not grow with draws or n.
_TYPE_I_CHUNK = 500_000


@dataclass(frozen=True)
class McEstimate:
    p_a: float
    p_r: float
    p_c: float
    se_a: float
    se_r: float
    se_c: float
    draws: int


@dataclass(frozen=True)
class OracleReport:
    name: str
    closed_form: float
    oracle: float
    tolerance: float
    passed: bool
    detail: str


@dataclass(frozen=True)
class GoldenRow:
    table: int
    family: str
    variant: str
    lambda0: float
    lambda1: float
    alpha: float
    beta: float
    a: Optional[float]
    b1: float
    b2: float
    tau: Optional[float]
    t1: Optional[float]
    t2: Optional[float]
    n: Optional[int]
    etc: float


def sample_mixture_rates(f: FuzzyLife, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` failure rates drawn from the normalized raised-cosine density,
    by an exact transform of two uniforms per rate.

    With theta = a*pi*(r - 1/lambda_j), the rate r has the density
    (1 + cos theta)/(2*pi) = cos(theta/2)^2/pi in theta on [-pi, pi].  As
    ds/dtheta = cos(theta/2)/2, s = sin(theta/2) has the density
    (2/pi)*cos(theta/2) = (2/pi)*sqrt(1 - s^2) on [-1, 1]: the semicircle
    law, the law of the abscissa of a uniform point in the unit disk
    (L. Devroye, *Non-Uniform Random Variate Generation*, 1986).  That
    point is at radius sqrt(U1) and angle 2*pi*U2, so s = sqrt(U1)*cos(2*pi*U2);
    cos is symmetric about pi, so cos(pi*U2) has the same (arcsine) law and
    s = sqrt(U1)*cos(pi*U2).  Then r = 1/lambda_j + 2*arcsin(s)/(a*pi),
    clipped to ``f.support`` against rounding.  Nothing is rejected: each
    rate takes two uniforms.
    """
    import numpy as np

    lo, hi = f.support
    rates = np.sqrt(rng.random(size))
    rates *= np.cos(np.pi * rng.random(size))
    np.arcsin(rates, out=rates)
    rates *= 2.0 / (f.a * np.pi)
    rates += 1.0 / f.lambda_j
    return np.clip(rates, lo, hi, out=rates)


def _estimate(n_a: int, n_r: int, draws: int) -> McEstimate:
    p_a = n_a / draws
    p_r = n_r / draws
    p_c = 1.0 - p_a - p_r

    def se(p: float) -> float:
        return math.sqrt(max(p * (1.0 - p), 0.0) / draws)

    return McEstimate(p_a, p_r, p_c, se(p_a), se(p_r), se(p_c), draws)


def mc_triprob(
    family: Family,
    life,
    th: Thresholds,
    n: int = 1,
    tau: Optional[float] = None,
    draws: int = 10**6,
    seed: int = 42,
) -> McEstimate:
    """Simulated accept/reject/continue frequencies for one stage of a plan.

    ``life`` is a FuzzyLife or a plain positive, finite mean life, the crisp
    exponential with the constant rate 1/life; the censored-MLE family uses
    only the nominal mean.  Groups of the minimum family share one rate; the
    maximum family draws an independent rate per item.  The censored family
    simulates the exact MLE theta = (sum of failed lifetimes + (n - D)*tau)/D
    from its sufficient parts: each group's failure count
    D ~ Binomial(n, 1 - e^(-tau/lambda)), then, given D, the D failed
    lifetimes as exponentials truncated to [0, tau).  A group with D = 0
    has theta = inf and accepts.  The counts come from a child stream of
    ``seed`` (`numpy.random.SeedSequence.spawn`) and the lifetimes from
    ``seed``'s own, both in blocks, so memory stays bounded and the blocks
    do not change the estimate.
    """
    import numpy as np

    if draws < 10**4:
        raise DomainError(f"draws must be >= 10^4, got {draws}")
    check_group_size(n)
    family = Family(family)
    rng = np.random.default_rng(seed)
    if isinstance(life, FuzzyLife):
        rates_of = lambda: sample_mixture_rates(life, draws, rng)
    elif 0 < life < math.inf:
        rates_of = lambda: np.full(draws, 1.0 / life)
    else:
        raise DomainError(f"mean life must be positive and finite, got {life}")
    # Each lifetime draw comes after its rates, so rgsp_max at n = 1 is ssp.
    if family is Family.SSP or family is Family.RGSP_MIN:
        rates = rates_of()
        if family is Family.RGSP_MIN:
            rates *= n
        y = rng.standard_exponential(draws) / rates
        return _estimate(int(np.sum(y >= th.t2)), int(np.sum(y < th.t1)), draws)
    if family is Family.RGSP_MAX:
        y_max = np.zeros(draws)
        for _ in range(n):
            rates = rates_of()
            np.maximum(y_max, rng.standard_exponential(draws) / rates, out=y_max)
        return _estimate(int(np.sum(y_max >= th.t2)), int(np.sum(y_max < th.t1)), draws)
    if family is Family.TYPE_I:
        if tau is None:
            raise DomainError("censored-MLE simulation requires tau")
        if not 0 < tau < math.inf:
            raise DomainError(f"tau must be positive and finite, got {tau}")
        lambda_j = float(life.lambda_j) if isinstance(life, FuzzyLife) else float(life)
        p = -math.expm1(-tau / lambda_j)
        # The counts and the failed lifetimes are two streams, each drawn in
        # order, so the blocks do not change the estimate.
        counts = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        rows = max(1, _TYPE_I_CHUNK // n)
        n_a = n_r = 0
        for start in range(0, draws, rows):
            q = counts.binomial(n, p, size=min(rows, draws - start))
            # Inverse CDF of the exponential truncated to [0, tau).
            x = rng.random(int(q.sum()))
            x *= -p
            np.log1p(x, out=x)
            x *= -lambda_j
            # The float term first: a bincount of no failures is int64.
            total = (n - q) * tau + np.bincount(
                np.repeat(np.arange(q.size), q), weights=x, minlength=q.size
            )
            with np.errstate(divide="ignore"):
                lam_hat = total / q  # q = 0: every item outlived the test, inf accepts
            n_a += int(np.count_nonzero(lam_hat >= th.t2))
            n_r += int(np.count_nonzero(lam_hat < th.t1))
        return _estimate(n_a, n_r, draws)
    raise DomainError(f"unknown family {family!r}")


# A fixed 20-case regression grid over the three mixture families, spanning
# the embedded table designs plus off-table corners.
REGRESSION_GRID: tuple = (
    ("ssp", 300.0, 1500.0, 5.8231, 251.1178, 1),
    ("ssp", 300.0, 15000.0, 6.4907, 251.617, 1),
    ("ssp", 300.0, 2100.0, 4.0, 400.0, 1),
    ("ssp", 70.0, 2100.0, 10.0, 60.0, 1),
    ("ssp", 50.0, 1500.0, 5.0, 40.0, 1),
    ("ssp", 500.0, 15000.0, 100.0, 400.0, 1),
    ("ssp", 200.0, 1500.0, 1.0, 190.0, 1),
    ("rgsp_min", 300.0, 1500.0, 1e-6, 79.3124, 50),
    ("rgsp_min", 300.0, 15000.0, 0.0005, 284.0415, 9),
    ("rgsp_min", 500.0, 1500.0, 0.0006, 177.8714, 23),
    ("rgsp_min", 500.0, 15000.0, 0.0018, 224.5448, 15),
    ("rgsp_min", 200.0, 1500.0, 0.001, 50.0, 10),
    ("rgsp_min", 300.0, 2100.0, 0.01, 100.0, 5),
    ("rgsp_max", 300.0, 1500.0, 130.947, 338.7602, 11),
    ("rgsp_max", 300.0, 15000.0, 130.6584, 338.9876, 12),
    ("rgsp_max", 500.0, 1500.0, 155.5672, 997.4723, 4),
    ("rgsp_max", 500.0, 15000.0, 224.4646, 938.2128, 4),
    ("rgsp_max", 50.0, 1500.0, 10.0, 45.0, 3),
    ("rgsp_max", 150.0, 15000.0, 100.0, 149.0, 6),
    ("rgsp_max", 300.0, 15000.0, 176.3513, 196.9506, 5),
)


def compare_triprob(
    family: Family,
    f: FuzzyLife,
    th: Thresholds,
    n: int = 1,
    draws: int = 10**6,
    seed: int = 42,
    name: Optional[str] = None,
) -> list[OracleReport]:
    """The closed-form p_a, p_r and p_c of one mixture-family case against
    their simulation.  Each passes within 3 standard errors of the mean of
    the two values, plus three counts, so that a closed form near 0 or 1
    is not held to the simulation's own, vanishing, error."""
    family = Family(family)
    p_a, p_r, p_c = stage_law(family, n)(f, th.t1, th.t2)
    mc = mc_triprob(family, f, th, n=n, draws=draws, seed=seed)
    reports = []
    for component, cf, est in (("p_a", p_a, mc.p_a), ("p_r", p_r, mc.p_r), ("p_c", p_c, mc.p_c)):
        pooled = 0.5 * (cf + est)
        se = math.sqrt(max(pooled * (1.0 - pooled), 0.0) / draws)
        tol = 3.0 * se + 3.0 / draws
        reports.append(
            OracleReport(
                name=f"{name or family.value} {component}",
                closed_form=cf,
                oracle=est,
                tolerance=tol,
                passed=abs(cf - est) <= tol,
                detail=f"draws={draws} seed={seed}",
            )
        )
    return reports


def run_regression_grid(draws: int = 10**6, seed: int = 42) -> list[OracleReport]:
    """Compare every closed-form plan probability to its simulation on the
    fixed grid (`compare_triprob`)."""
    reports = []
    for family, lam, a, t1, t2, n in REGRESSION_GRID:
        reports += compare_triprob(
            family,
            FuzzyLife(lambda_j=lam, a=a),
            Thresholds(t1=t1, t2=t2),
            n,
            draws,
            seed,
            name=f"{family} lam={lam:g} a={a:g} n={n}",
        )
    return reports


def _parse_optional(text: str) -> Optional[float]:
    text = text.strip()
    return float(text) if text else None


def load_golden_rows() -> list[GoldenRow]:
    """The embedded reference designs, one row per (design, objective variant)."""
    rows = []
    source = resources.files("asplan").joinpath("data/golden_tables.csv")
    with source.open("r", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            n_text = record["n"].strip()
            rows.append(
                GoldenRow(
                    table=int(record["table"]),
                    family=record["family"],
                    variant=record["variant"],
                    lambda0=float(record["lambda0"]),
                    lambda1=float(record["lambda1"]),
                    alpha=float(record["alpha"]),
                    beta=float(record["beta"]),
                    a=_parse_optional(record["a"]),
                    b1=float(record["b1"]),
                    b2=float(record["b2"]),
                    tau=_parse_optional(record["tau"]),
                    t1=_parse_optional(record["t1"]),
                    t2=_parse_optional(record["t2"]),
                    n=int(n_text) if n_text else None,
                    etc=float(record["etc"]),
                )
            )
    return rows


def _row_life(row: GoldenRow, lam: float):
    """The row's life at mean lam: a plain mean for crisp rows and for
    Type-I rows, whose stage law and cost read the nominal life alone."""
    if row.variant == "crisp" or row.family == "type1":
        return lam
    return FuzzyLife(lambda_j=lam, a=row.a)


def _row_run(law, life, row: GoldenRow) -> tuple[float, float, float]:
    """The long run (P_A, P_R, N) of the row's design under ``life``.

    p_a is read at the thresholds (t2, t2) and p_r at (t1, t1): each depends
    on its own threshold alone, so rows whose printed thresholds are
    inverted (t1 > t2) still get the algebraic extension the reference
    solver would have used.
    """
    return long_run_rates(law(life, row.t2, row.t2)[0], law(life, row.t1, row.t1)[1])


def verify_tables(
    rows: Optional[Iterable[GoldenRow]] = None, feasibility_tol: float = 5e-3
) -> list[dict]:
    """Recompute the risks and cost at every embedded design.

    g, h and the cost are read from the long run of the family's
    `plans.stage_law`, the law of the solver's plan closures: the cost is
    the expected stage duration times the stage count at the acceptable
    life.  A row is feasible when the long-run producer risk stays within
    alpha + b1 and the consumer risk within beta + b2, both padded by the
    printed-precision tolerance.  Comparison-only rows carry no design and
    are reported without a feasibility verdict.
    """
    if not 0.0 <= feasibility_tol < math.inf:
        raise DomainError(f"the tolerance must be finite and >= 0, got {feasibility_tol}")
    reports = []
    for row in rows if rows is not None else load_golden_rows():
        # The row echoed without its slacks, its printed cost as etc_printed.
        report = dict(vars(row))
        del report["b1"], report["b2"]
        report["etc_printed"] = report.pop("etc")
        if row.variant == "comparison" or row.t1 is None:
            report.update(feasible=None, g=None, h=None, etc_recomputed=None, etc_rel_err=None)
            reports.append(report)
            continue
        family, n = Family(row.family), row.n or 1
        law = stage_law(family, n, row.tau)
        life0 = _row_life(row, row.lambda0)
        _, g, stages = _row_run(law, life0, row)
        h = _row_run(law, _row_life(row, row.lambda1), row)[0]
        upper = row.variant == "etc_upper_bound"
        etc = expected_stage_duration(family, life0, n, upper, row.tau) * stages
        g_bound = row.alpha + row.b1 + feasibility_tol
        h_bound = row.beta + row.b2 + feasibility_tol
        report.update(
            g=g,
            h=h,
            g_bound=g_bound,
            h_bound=h_bound,
            feasible=bool(g <= g_bound and h <= h_bound),
            etc_recomputed=etc,
            etc_rel_err=(etc - row.etc) / row.etc,
        )
        reports.append(report)
    return reports


def write_reports_csv(path, reports: Sequence[dict]) -> None:
    fieldnames = sorted({key for report in reports for key in report})
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(reports)


def write_reports_json(path, reports: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reports, handle, indent=2, sort_keys=True)
        handle.write("\n")
