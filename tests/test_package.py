"""The package's public names, which import their modules on first access."""

import json
import subprocess
import sys
import types

import pytest

import gapmodel

# every public name of the package, submodules included
PUBLIC = [
    "BlowupError", "BoundReport", "BracketError", "CoverageError", "DomainError",
    "EigenResult", "FlowRun", "FlowState", "GapModelError", "GapResult", "GapSeries",
    "GridFunction", "HypothesisError", "ModelParams", "NonConvergenceError",
    "OrderingViolation", "PoleError", "RiccatiSolution", "ScipyInternalsError",
    "SeriesResult", "SolvabilityError", "StabilityError", "ball_first_eigen", "bound_report", "bounds",
    "build_grid", "check_reference", "coefficient_sign", "comparison_check", "cs",
    "cs_array", "discrete_stationary", "eigen_fd", "eigen_shoot", "eigen_shoot_mp",
    "errors", "eval_gap_series", "eval_series", "eval_series_mp", "exact",
    "explicit_n2_bounds", "find_ck", "flow", "flow_step", "flow_to_stationary", "gap",
    "gap5_factors", "gap_order5_sign_change", "gap_series", "gauge_factor",
    "gauge_transform", "initial_supersolution", "kernels", "lambda_lower",
    "lambda_series", "lambda_upper_rayleigh", "lower_bound_functions", "make_state",
    "model", "model_rhs", "modulus_expansion", "potential", "potential_array",
    "pruefer", "psi_left", "psi_right", "riccati_residual", "robin_boundary_report",
    "robin_eigenfunction", "series", "sn", "spectral", "supersolution", "threshold_s",
    "tn", "tn_array", "upper_bound_left", "upper_bound_right", "validate",
]


def test_fresh_import_lists_every_name_and_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, gapmodel; "
         "print(json.dumps([dir(gapmodel), gapmodel.__all__, 'numpy' in sys.modules]))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    listed, all_, numpy_loaded = json.loads(proc.stdout)
    assert not numpy_loaded
    assert set(PUBLIC) <= set(listed)
    assert set(PUBLIC) <= set(all_)


def test_every_name_is_its_defining_modules_object():
    for name in sorted(set(PUBLIC) | set(gapmodel.__all__)):
        obj = getattr(gapmodel, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"gapmodel.{name}"], name
        else:
            assert obj.__module__.startswith("gapmodel."), name
            assert obj is getattr(sys.modules[obj.__module__], name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from gapmodel import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(gapmodel, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gapmodel.no_such_name
    with pytest.raises(ImportError):
        exec("from gapmodel import no_such_name", {})
