"""Seeded workload inputs.

Every input a run hands to asplan is built here as a pure function of the
workload seed, from plain floats, ints and strings, so that the self-test can
compare two generations for equality.  Values are drawn around the README
example and the embedded reference-table designs, with narrow jitter: a run
holds only a handful of designs, and wide jitter would turn the spread of
problem difficulty into spread of the measured times.
"""

from __future__ import annotations

import math
import random

# A run repeats its inputs for as long as its window lasts, so a faster
# program gets more repeats of the same inputs, never different ones.
VERIFY_ROUNDS = 8

# Synthetic data sets per plan row of a verify round.
DATASETS_PER_ROW = 128
GROUPS_PER_DATASET = 6

# Monte-Carlo draws per case and per family.  rgsp_max draws n rates per
# sample, so it gets fewer samples for about the same work.
MC_DRAWS = {"ssp": 60_000, "rgsp_min": 60_000, "rgsp_max": 20_000, "type1": 40_000}

SOLVER_SEED = 42
SSP_RESTARTS = 32
GROUPED_RESTARTS = 8

# Reference-table design rows the verify workload jitters: (family, variant,
# lambda0, lambda1, alpha, beta, a, b1, b2, tau, t1, t2, n).
_TABLE_DESIGNS = (
    ("ssp", "etc_star", 300, 50, 0.05, 0.05, 1500, 0.05, 0.05, None, 5.8231, 251.1178, None),
    ("ssp", "etc_upper_bound", 300, 70, 0.1, 0.1, 2100, 0.05, 0.05, None, 12.4249, 268.0108, None),
    ("ssp", "crisp", 300, 50, 0.05, 0.1, None, 0.0, 0.0, None, 8.0812, 204.9714, None),
    ("rgsp_min", "etc_star", 500, 300, 0.05, 0.1, 15000, 0.05, 0.05, None, 0.0018, 224.5448, 15),
    ("rgsp_min", "crisp", 300, 200, 0.05, 0.1, None, 0.0, 0.0, None, 0.00012, 284.172, 10),
    ("rgsp_max", "etc_star", 300, 50, 0.05, 0.05, 1500, 0.05, 0.05, None, 130.947, 338.7602, 11),
    ("rgsp_max", "etc_upper_bound", 500, 150, 0.05, 0.1, 15000, 0.05, 0.05, None, 197.0036, 621.0157, 3),
    ("rgsp_max", "crisp", 500, 150, 0.05, 0.1, None, 0.0, 0.0, None, 200.7733, 621.8946, 3),
    ("type1", "etc_upper_bound", 300, 200, 0.05, 0.05, None, 0.01, 0.01, 50, 245.5488, 245.5488, 30),
    ("type1", "crisp", 300, 200, 0.01, 0.01, None, 0.0, 0.0, 100, 234.6239, 234.6239, 28),
)

_ROW_KEYS = ("family", "variant", "lambda0", "lambda1", "alpha", "beta", "a", "b1", "b2",
             "tau", "t1", "t2", "n")


def _rng(seed: int, stream: str) -> random.Random:
    # Separate streams keep one workload's inputs independent of another's.
    return random.Random(f"{stream}:{seed}")


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * rng.uniform(1.0 - rel, 1.0 + rel)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _risks(rng: random.Random) -> dict:
    return {
        "alpha": _jitter(rng, 0.05, 0.02),
        "beta": _jitter(rng, 0.05, 0.02),
        "b1": _jitter(rng, 0.05, 0.02),
        "b2": _jitter(rng, 0.05, 0.02),
    }


def ssp_problems(seed: int) -> list[dict]:
    """One README `ssp` problem (mean lives 300/50, 5% risks and slacks) with
    the fuzziness scale anywhere in the reference tables' 1500 to 15000."""
    rng = _rng(seed, "ssp")
    return [{
        "family": "ssp",
        "lambda0": _jitter(rng, 300.0, 0.01),
        "lambda1": _jitter(rng, 50.0, 0.015),
        "a": _log_uniform(rng, 1500.0, 15000.0),
        **_risks(rng),
        "tau": None,
        "objective_variant": "etc_star",
        "n_max": 1,
        "restarts": SSP_RESTARTS,
        "solver_seed": SOLVER_SEED,
    }]


def grouped_problems(seed: int) -> list[dict]:
    """Four group-size problems in a fixed order: `rgsp_min`, `rgsp_max`, a
    `type1` problem whose cost floor ends the group-size loop early (near
    n = 5 of 8) and a `type1` problem that runs to its `n_max` without
    reaching the floor (the floor lies near n = 8, past n_max = 5)."""
    rng = _rng(seed, "grouped")
    common = {"solver_seed": SOLVER_SEED, "restarts": GROUPED_RESTARTS}
    return [
        {"family": "rgsp_min", "lambda0": _jitter(rng, 300.0, 0.01),
         "lambda1": _jitter(rng, 50.0, 0.015), "a": _log_uniform(rng, 1500.0, 15000.0),
         **_risks(rng), "tau": None, "objective_variant": "etc_star", "n_max": 2, **common},
        # rgsp_max turns infeasible at small n once lambda1 nears 70; stay close to 50.
        {"family": "rgsp_max", "lambda0": _jitter(rng, 300.0, 0.01),
         "lambda1": _jitter(rng, 50.0, 0.01), "a": _log_uniform(rng, 1500.0, 15000.0),
         **_risks(rng), "tau": None, "objective_variant": "etc_star", "n_max": 2, **common},
        {"family": "type1", "lambda0": _jitter(rng, 300.0, 0.01),
         "lambda1": _jitter(rng, 50.0, 0.015), "a": 15000.0, **_risks(rng),
         "tau": _jitter(rng, 100.0, 0.015), "objective_variant": "etc_upper_bound",
         "n_max": 8, "expect_floor_stop": True, **common},
        {"family": "type1", "lambda0": _jitter(rng, 300.0, 0.01),
         "lambda1": _jitter(rng, 100.0, 0.015), "a": 15000.0, **_risks(rng),
         "tau": _jitter(rng, 50.0, 0.015), "objective_variant": "etc_upper_bound",
         "n_max": 5, "expect_floor_stop": False, **common},
    ]


def _plan_row(rng: random.Random, design: tuple) -> dict:
    base = dict(zip(_ROW_KEYS, design))
    lives = rng.uniform(0.97, 1.03)
    row = dict(base)
    row["lambda0"] = base["lambda0"] * lives
    row["lambda1"] = base["lambda1"] * lives
    if base["a"] is not None:
        row["a"] = base["a"] * rng.uniform(0.9, 1.1)
    row["t1"] = _jitter(rng, base["t1"], 0.03)
    row["t2"] = row["t1"] if base["t1"] == base["t2"] else _jitter(rng, base["t2"], 0.03)
    return row


def _lifetimes(rng: random.Random, row: dict) -> list[float]:
    """Exponential lifetimes at either quality level.  Censored-family blocks
    are redrawn until each holds a failure before tau, since the censored
    estimate is undefined without one."""
    mean = row["lambda0"] if rng.random() < 0.5 else row["lambda1"]
    n = row["n"] or 1
    values: list[float] = []
    for _ in range(GROUPS_PER_DATASET):
        while True:
            block = [rng.expovariate(1.0 / mean) for _ in range(n)]
            if row["family"] != "type1" or min(block) < row["tau"]:
                break
        values.extend(block)
    return values


def _mc_case(rng: random.Random, family: str) -> dict:
    if family == "type1":
        lam = _jitter(rng, 300.0, 0.05)
        t2 = _jitter(rng, 0.85 * lam, 0.05)
        return {"family": family, "lambda0": lam, "a": None, "t1": 0.7 * t2, "t2": t2,
                "n": rng.randint(10, 20), "tau": rng.choice((50.0, 100.0)),
                "draws": MC_DRAWS[family], "mc_seed": rng.randrange(2**31)}
    if family == "ssp":
        lam, t1, t2, n = 300.0, 5.8231, 251.1178, 1
    elif family == "rgsp_min":
        lam, t1, t2, n = 300.0, 0.002, 80.0, rng.randint(2, 20)
    else:
        lam, t1, t2, n = 300.0, 130.947, 338.7602, rng.randint(3, 5)
    return {"family": family, "lambda0": _jitter(rng, lam, 0.05),
            "a": _log_uniform(rng, 1500.0, 15000.0), "t1": _jitter(rng, t1, 0.05),
            "t2": _jitter(rng, t2, 0.05), "n": n, "tau": None,
            "draws": MC_DRAWS[family], "mc_seed": rng.randrange(2**31)}


def verify_rounds(seed: int) -> list[dict]:
    """Verify rounds: one Monte-Carlo case per family, one plan row jittered
    from each listed reference-table design (rechecked by `verify_tables`
    next to all embedded rows), and synthetic lifetimes disposed under each
    plan row."""
    rng = _rng(seed, "verify")
    rounds = []
    for _ in range(VERIFY_ROUNDS):
        rows = [_plan_row(rng, design) for design in _TABLE_DESIGNS]
        rounds.append({
            "mc_cases": [_mc_case(rng, f) for f in ("ssp", "rgsp_min", "rgsp_max", "type1")],
            "plan_rows": rows,
            "datasets": [[_lifetimes(rng, row) for _ in range(DATASETS_PER_ROW)] for row in rows],
        })
    return rounds


def cli_calls(seed: int) -> list[list[str]]:
    """Argument lists for the CLI subprocesses of one run (after `asplan`)."""
    rng = _rng(seed, "cli")
    row = _plan_row(rng, _TABLE_DESIGNS[0])
    # The censored family: its `oracle` output is the simulation alone, with
    # no 3-standard-error verdict that could fail by chance.
    case = _mc_case(rng, "type1")
    return [
        ["verify-tables"],
        ["dispose", "--data", "case-study", "--family", "ssp",
         "--t1", repr(row["t1"]), "--t2", repr(row["t2"])],
        ["oracle", "--family", case["family"], "--lambda0", repr(case["lambda0"]),
         "--t1", repr(case["t1"]), "--t2", repr(case["t2"]),
         "--n", str(case["n"]), "--tau", repr(case["tau"]), "--draws", "20000",
         "--seed", str(case["mc_seed"])],
    ]

