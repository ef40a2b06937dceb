"""Minimum-cost acceptance sampling plans for exponential lifetimes with
fuzzy quality parameters."""

from .disposition import case_study_data
from .errors import (
    ConsistencyError,
    DegeneratePlanError,
    DomainError,
    InfeasibleError,
)
from .fuzzyopt import solve_plan
from .lifemodel import Thresholds, expected_y, ssp_triprob
from .membership import FuzzyLevel, FuzzyLife
from .oracle import load_golden_rows
from .plans import Family, PlanProblem, crisp_limit

__version__ = "0.1.0"
