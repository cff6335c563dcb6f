"""One-dimensional eigenvalue models on constant-curvature spaces.

Curvature kernels, the gauge-equivalent model ODEs, log-derivative
constructions, two independent eigensolvers, an exact curvature expansion
engine, closed-form bounds, and a stabilizing parabolic flow.

``import gapmodel`` loads only the exception classes of ``errors``.  Every
other public name is looked up in ``_API`` and its module is imported on
first access (PEP 562), so ``gapmodel.gap_series`` loads ``series`` and
``exact`` only, ``gapmodel.ModelParams`` loads numpy with ``model``, and
``gapmodel.gap`` loads scipy too, with the solver modules.
Submodules (``gapmodel.spectral``, ...) load the same way.
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
    ScipyInternalsError,
    SolvabilityError,
    StabilityError,
)

# public name -> the submodule that defines it
_API = {
    **dict.fromkeys(("cs", "cs_array", "sn", "tn", "tn_array"), "kernels"),
    **dict.fromkeys((
        "GridFunction", "ModelParams", "gauge_factor", "gauge_transform",
        "model_rhs", "potential", "potential_array", "validate",
    ), "model"),
    **dict.fromkeys((
        "BoundReport", "bound_report", "explicit_n2_bounds", "lambda_lower",
        "lambda_upper_rayleigh",
    ), "bounds"),
    **dict.fromkeys((
        "FlowRun", "FlowState", "build_grid", "comparison_check",
        "discrete_stationary", "flow_step", "flow_to_stationary",
        "initial_supersolution", "make_state", "riccati_residual",
    ), "flow"),
    **dict.fromkeys((
        "RiccatiSolution", "find_ck", "lower_bound_functions", "psi_left",
        "psi_right", "robin_boundary_report", "robin_eigenfunction",
        "supersolution", "threshold_s", "upper_bound_left", "upper_bound_right",
    ), "pruefer"),
    **dict.fromkeys((
        "GapSeries", "SeriesResult", "check_reference", "coefficient_sign",
        "eval_gap_series", "eval_series", "eval_series_mp", "gap5_factors",
        "gap_order5_sign_change", "gap_series", "lambda_series",
        "modulus_expansion",
    ), "series"),
    **dict.fromkeys((
        "EigenResult", "GapResult", "ball_first_eigen", "eigen_fd",
        "eigen_shoot", "eigen_shoot_mp", "gap",
    ), "spectral"),
}
_SUBMODULES = (
    "bounds", "errors", "exact", "flow", "kernels", "model", "pruefer",
    "series", "spectral",
)

_ERRORS = [n for n, v in globals().items()
           if isinstance(v, type) and issubclass(v, GapModelError)]
__all__ = sorted([*_ERRORS, *_API, *_SUBMODULES])

__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    if name in _API:
        value = getattr(import_module(f".{_API[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
