"""Minimum-cost acceptance sampling plans for exponential lifetimes with
fuzzy quality parameters."""

from .disposition import (
    Decision,
    Disposition,
    FailureData,
    case_study_data,
    censored_mle,
    dispose_rgsp_max,
    dispose_rgsp_min,
    dispose_ssp,
    dispose_type1,
    load_failure_data,
)
from .errors import (
    ConsistencyError,
    DegeneratePlanError,
    DomainError,
    InfeasibleError,
)
from .fuzzyopt import (
    PlanDesign,
    SolverSettings,
    solve_max_phi,
    solve_plan,
    zimmermann_bounds,
)
from .lifemodel import (
    LongRun,
    Thresholds,
    TriProb,
    expected_y,
    expected_y_upper_bound,
    harmonic_number,
    long_run,
    oscillatory_pair,
    rgsp_max_triprob,
    rgsp_min_triprob,
    ssp_triprob,
    std_normal_cdf,
    typeI_triprob,
    weighted_survival,
)
from .membership import FuzzyLevel, FuzzyLife
from .oracle import (
    GoldenRow,
    McEstimate,
    OracleReport,
    compare_triprob,
    load_golden_rows,
    mc_triprob,
    run_regression_grid,
    sample_mixture_rates,
    verify_tables,
)
from .plans import Family, PlanProblem, crisp_baseline, crisp_limit, expected_stage_duration

__version__ = "0.1.0"
