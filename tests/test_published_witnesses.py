"""The published designs as witnesses that the solver's optimum is global.

Every embedded table row that carries a design is re-solved as its own
problem: its family, lives, levels and slacks, and objective variant,
crisp where the row is crisp, at the default n_max of 200, in a box that
holds the published thresholds.  Where the published design meets the
tight levels under this package's laws, it is a feasible point of that
problem, so the solver's design must cost no more than it, recomputed.
The record in tests/data/published_witnesses.json holds, for every row,
the published and the solved n, thresholds and cost, and the published
design's risks; it is what the notes on the reference tables cite.

Regenerate the record with ``python tests/test_published_witnesses.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from asplan.fuzzyopt import solve_plan
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.oracle import load_golden_rows, verify_tables
from asplan.plans import Family, PlanProblem

RECORD = Path(__file__).resolve().parent / "data" / "published_witnesses.json"


def _problem(row) -> PlanProblem:
    """The row's problem; t2 may pass the default box edge where the
    published t2 does."""
    crisp = row.variant == "crisp"
    life = (lambda lam: lam) if crisp or row.a is None else (lambda lam: FuzzyLife(lam, row.a))
    edge = (2.0 if row.family == "type1" else 1.0) * row.lambda0
    return PlanProblem(
        family=Family(row.family),
        lambda0=life(row.lambda0),
        lambda1=life(row.lambda1),
        alpha=FuzzyLevel(row.alpha, row.b1),
        beta=FuzzyLevel(row.beta, row.b2),
        tau=row.tau,
        objective_variant="etc_star" if crisp else row.variant,
        allow_t2_above_lambda0=row.t2 > edge,
    )


def witnesses() -> list[dict]:
    """One entry per embedded design: the row, its published design
    recomputed, whether that meets the tight levels with t1 <= t2, and the
    solver's design."""
    rows = [row for row in load_golden_rows() if row.variant != "comparison"]
    record = []
    for row, report in zip(rows, verify_tables(rows)):
        design = solve_plan(_problem(row))
        record.append({
            "row": {key: getattr(row, key) for key in (
                "table", "family", "variant", "lambda0", "lambda1", "alpha", "beta", "a", "tau")},
            "published": {"n": row.n, "t1": row.t1, "t2": row.t2, "g": report["g"],
                          "h": report["h"], "cost": report["etc_recomputed"]},
            "meets_levels": bool(row.t1 <= row.t2 and report["g"] <= row.alpha
                                 and report["h"] <= row.beta),
            "solved": {"n": design.n, "t1": design.t1, "t2": design.t2,
                       "cost": design.objective_value},
        })
    return record


@pytest.fixture(scope="module")
def record() -> list[dict]:
    return witnesses()


def test_no_published_design_that_meets_the_levels_costs_less_than_the_solver(record):
    """23 of the 68 published designs meet the tight levels; the solver's
    design costs no more than any of them, up to its root tolerance."""
    witnessed = [entry for entry in record if entry["meets_levels"]]
    assert (len(record), len(witnessed)) == (68, 23)
    for entry in witnessed:
        assert entry["solved"]["cost"] <= entry["published"]["cost"] * (1.0 + 1e-12), entry


def test_witness_record_matches_its_file(record):
    """Every n and flag as recorded, every float within 1e-9 relative."""
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    assert len(record) == len(recorded)
    for got, want in zip(record, recorded):
        assert got["meets_levels"] == want["meets_levels"]
        for part in ("row", "published", "solved"):
            assert got[part] == pytest.approx(want[part], rel=1e-9), (got["row"], part)


if __name__ == "__main__":
    RECORD.write_text(json.dumps(witnesses(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"written to {RECORD}", file=sys.stderr)
