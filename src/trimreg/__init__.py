"""Robust linear regression with hard- and soft-thresholded outlier shifts."""

__version__ = "0.1.0"

from .classic import ClassicFit, fit_huber, fit_lad, fit_ols, initial_beta
from .dgp import (
    DgpConfig,
    DgpSample,
    Estimator,
    MetricsSummary,
    generate,
    run_monte_carlo_records,
)
from .errors import (
    AllFitsFailed,
    DegenerateFit,
    DimensionError,
    InvariantViolated,
    NotConverged,
    ParseError,
    RankDeficient,
    TooFewInliers,
    TooFewRows,
    TooLarge,
    TrimregError,
    WindowTooLarge,
)
from .l0 import (
    SparsitySolution,
    bic_score,
    fit_iht,
    fit_l0_auto,
    fit_lcs,
    hard_threshold,
    local_swap_search,
    neighborhood_search,
    select_k_bic,
)
from .l1 import L1Solution, fit_l1, select_psi_bic, soft_threshold_alpha
from .linalg import Dataset, residuals
from .oracle import OracleResult, best_subset_exact, equal_solution
