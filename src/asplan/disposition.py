"""Applying a designed plan to observed lifetimes.

Boundary convention throughout: reject strictly below t1, accept at or
above t2, continue on the half-open band [t1, t2), for 0 <= t1 <= t2 (so
t1 = 0 never rejects).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Optional, Sequence

from .errors import DomainError
from .lifemodel import check_group_size, check_tau


class Decision(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    CONTINUE_EXHAUSTED = "continue_exhausted"


@dataclass(frozen=True)
class FailureData:
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise DomainError("failure data must contain at least one value")
        # min may pass over a NaN, but then the sum is NaN.  A finite sum
        # has no infinite term, so max is taken only when the sum overflows.
        values = self.values
        total = sum(values)
        if (
            not 0 < min(values)
            or math.isnan(total)
            or (total == math.inf and max(values) == math.inf)
        ):
            raise DomainError("all observed values must be positive and finite")


@dataclass(frozen=True)
class Disposition:
    decision: Decision
    decided_at: Optional[int]  # 1-based index (sequential) or group number
    evidence: tuple  # the statistic values examined, in order


def _classify(value: float, t1: float, t2: float) -> Optional[Decision]:
    if value < t1:
        return Decision.REJECT
    if value >= t2:
        return Decision.ACCEPT
    return None


def dispose_ssp(data: FailureData, t1: float, t2: float) -> Disposition:
    """Scan observations in recorded order; first value outside [t1, t2)
    decides: groups of one, as `ssp_law` is `rgsp_min_law(1)`."""
    return _dispose_grouped(data, t1, t2, 1, min)


def _dispose_grouped(data: FailureData, t1: float, t2: float, n: int, statistic) -> Disposition:
    if not 0.0 <= t1 <= t2:
        raise DomainError(f"need 0 <= t1 <= t2, got t1={t1}, t2={t2}")
    if t2 == math.inf:
        raise DomainError(f"thresholds must be finite, got t1={t1}, t2={t2}")
    check_group_size(n, "group size")
    if len(data.values) < n:
        raise DomainError(f"need at least {n} values for one group, have {len(data.values)}")
    examined = []
    group = 0
    for start in range(0, len(data.values) - n + 1, n):
        group += 1
        value = statistic(data.values[start : start + n])
        examined.append(value)
        decision = _classify(value, t1, t2)
        if decision is not None:
            return Disposition(decision, group, tuple(examined))
    return Disposition(Decision.CONTINUE_EXHAUSTED, None, tuple(examined))


def dispose_rgsp_min(data: FailureData, t1: float, t2: float, n: int) -> Disposition:
    """Decide per consecutive block of n on the block minimum."""
    return _dispose_grouped(data, t1, t2, n, min)


def dispose_rgsp_max(data: FailureData, t1: float, t2: float, n: int) -> Disposition:
    """Decide per consecutive block of n on the block maximum."""
    return _dispose_grouped(data, t1, t2, n, max)


def _censored_estimate(block: Sequence[float], tau: float) -> float:
    failed = [v for v in block if v < tau]
    if not failed:
        return math.inf
    # fsum rounds the exact sum once, so the order of the terms does not count.
    return math.fsum(failed + [tau] * (len(block) - len(failed))) / len(failed)


def censored_mle(values: Sequence[float], n: int, tau: float) -> float:
    """Mean-life MLE from the first n items with the test truncated at tau:
    failed items contribute their lifetime, survivors contribute tau, divided
    by the failure count.  With no failure before tau the likelihood
    exp(-n*tau/lambda) rises in lambda, so the estimate is +inf.  The n
    items must be positive and finite, as in `FailureData`."""
    check_tau(tau)
    check_group_size(n, "group size")
    if n > len(values):
        raise DomainError(f"need 1 <= n <= {len(values)}, got n={n}")
    return _censored_estimate(FailureData(tuple(values[:n])).values, tau)


def dispose_type1(
    data: FailureData, t1: float, t2: float, n: int, tau: Optional[float]
) -> Disposition:
    """Decide per consecutive block of n on the censored mean-life estimate
    (`censored_mle`); a block with no failure before tau accepts."""
    check_tau(tau)
    return _dispose_grouped(data, t1, t2, n, lambda block: _censored_estimate(block, tau))


def load_failure_data(path) -> FailureData:
    """Read one value per line from CSV (optional header) or a JSON array of numbers."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        values = json.loads(stripped)
        for v in values:
            # Checked before conversion: true is not 1, and null or a list is no lifetime.
            if type(v) not in (int, float):
                raise DomainError(f"non-numeric value {json.dumps(v)} in data file")
        values = [float(v) for v in values]
    else:
        values = []
        for record in csv.reader(text.splitlines()):
            if not record or not record[0].strip():
                continue
            cell = record[0].strip()
            try:
                values.append(float(cell))
            except ValueError:
                if values:
                    raise DomainError(f"non-numeric value {cell!r} in data file")
                # a single leading non-numeric row is a header
    return FailureData(tuple(values))


def case_study_data() -> FailureData:
    """The embedded 36-lifetime appliance endurance dataset."""
    with resources.as_file(resources.files("asplan") / "data/case_study.csv") as path:
        return load_failure_data(path)
