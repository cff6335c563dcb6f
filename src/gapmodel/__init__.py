"""One-dimensional eigenvalue models on constant-curvature spaces.

Curvature kernels, the gauge-equivalent model ODEs, log-derivative
constructions, two independent eigensolvers, an exact curvature expansion
engine, closed-form bounds, and a stabilizing parabolic flow.
"""

from .errors import (
    BlowupError,
    BracketError,
    CoverageError,
    DomainError,
    GapModelError,
    HypothesisError,
    NonConvergenceError,
    OrderingViolation,
    PoleError,
    SolvabilityError,
    StabilityError,
)
from .kernels import cs, cs_array, sn, tn, tn_array
from .model import (
    GridFunction,
    ModelParams,
    gauge_factor,
    gauge_transform,
    model_rhs,
    potential,
    potential_array,
    validate,
)
from .bounds import (
    BoundReport,
    bound_report,
    explicit_n2_bounds,
    lambda_lower,
    lambda_upper_rayleigh,
)
from .flow import (
    FlowRun,
    FlowState,
    build_grid,
    comparison_check,
    discrete_stationary,
    flow_step,
    flow_to_stationary,
    initial_supersolution,
    make_state,
    riccati_residual,
)
from .pruefer import (
    RiccatiSolution,
    find_ck,
    lower_bound_functions,
    psi_left,
    psi_right,
    robin_boundary_report,
    robin_eigenfunction,
    supersolution,
    threshold_s,
    upper_bound_left,
    upper_bound_right,
)
from .series import (
    GapSeries,
    SeriesResult,
    check_reference,
    coefficient_sign,
    eval_gap_series,
    eval_series,
    eval_series_mp,
    gap5_factors,
    gap_order5_sign_change,
    gap_series,
    lambda_series,
    modulus_expansion,
)
from .spectral import (
    EigenResult,
    GapResult,
    ball_first_eigen,
    eigen_fd,
    eigen_shoot,
    eigen_shoot_mp,
    gap,
)

__version__ = "0.1.0"
