"""_scipy's direct calls of scipy's compiled kernels against scipy's public
functions: the same bits on the same inputs, the same errors on what a
kernel returns, and the modules they load."""

import ast
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.integrate import ode
from scipy.integrate import quad as scipy_quad
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg import solve_banded as scipy_solve_banded
from scipy.optimize import brentq as scipy_brentq

from gapmodel import _scipy
from gapmodel.errors import NonConvergenceError, ScipyInternalsError

VERSION = re.escape(f"scipy {scipy.__version__}")


def _ode_end(fun, t0, t1, y0, rtol, atol):
    """scipy.integrate.ode's dop853 run as dop853_end makes it: (t, y, nfev, code)."""
    solver = ode(fun).set_integrator("dop853", rtol=rtol, atol=atol,
                                     nsteps=_scipy.DOP853_MAX_STEPS)
    solver.set_solout(lambda t, y: 0)  # iout = 1, as dop853_end runs it
    solver.set_initial_value(y0, t0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        y = solver.integrate(t1)
    return solver.t, y, int(solver._integrator.iwork[16]), solver.get_return_code()


def _raised(call):
    """(type, message) of the exception call() raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestDop853:
    @pytest.mark.parametrize("fun,t1,y0", [
        (lambda t, y: [-y[0]], 1.0, [1.0]),
        (lambda t, y: [y[1], -y[0]], 7.5, [1.0, 0.0]),
        (lambda t, y: [1.0 + y[0] ** 2], -1.0, [0.0]),
        (lambda t, y: -2.0 * t * y[0], 2.0, [1.0]),  # a bare float for one component
    ])
    def test_end_run_is_odes_run(self, fun, t1, y0):
        t, y, nfev, code = _ode_end(fun, 0.0, t1, y0, 1e-10, 1e-10)
        run = _scipy.dop853_end(fun, 0.0, t1, y0, rtol=1e-10, atol=1e-10)
        assert run.t == t and np.array_equal(run.y, y) and run.nfev == nfev
        assert run.success and code == 1 and run.message == "computation successful"

    def test_end_runs_count_every_call(self):
        # a direct call with iout = 0 makes 67 right-hand-side calls on this
        # run, of which iwork[16] counts 62; with iout = 1 every run in a
        # process counts all its calls
        counts = []
        for _ in range(5):
            calls = 0

            def decay(t, y):
                nonlocal calls
                calls += 1
                return [-y[0]]

            run = _scipy.dop853_end(decay, 0.0, 1.0, [1.0], rtol=1e-10, atol=1e-10)
            counts.append((calls, run.nfev))
        assert counts == [(62, 62)] * 5

    def test_failure_codes_carry_odes_messages(self, monkeypatch):
        def blowup(t, y):
            return [1.0 + y[0] ** 2]

        run = _scipy.dop853_end(blowup, 0.0, 2.0, [0.0], rtol=1e-10, atol=1e-10)
        assert not run.success and run.message == "step size becomes too small"
        monkeypatch.setattr(_scipy, "DOP853_MAX_STEPS", 5)
        run = _scipy.dop853_end(blowup, 0.0, 1.0, [0.0], rtol=1e-10, atol=1e-10)
        assert not run.success and run.message == "larger nsteps is needed"

    @pytest.mark.parametrize("wrapper", ["dop853_end", "dop853_dense"])
    def test_callback_exception_propagates_as_itself(self, wrapper):
        raised = KeyError("rhs")

        def rhs(t, y):
            if t > 0.5:
                raise raised
            return [-y[0]]

        args = (rhs, 0.0, 1.0, [1.0], 1e-10, 1e-10) + ((None,) if wrapper == "dop853_dense" else ())
        with pytest.raises(KeyError) as info:
            getattr(_scipy, wrapper)(*args)
        assert info.value is raised

    def test_event_exception_propagates_as_itself(self):
        raised = LookupError("event")

        def event(t, y):
            if t > 0.5:
                raise raised
            return 1.0

        event.direction = 0.0
        with pytest.raises(LookupError) as info:
            _scipy.dop853_dense(lambda t, y: [-y[0]], 0.0, 1.0, [1.0], 1e-10, 1e-10, event)
        assert info.value is raised


class TestBrent:
    """brent at explicit tolerances, as every caller passes them."""

    @pytest.mark.parametrize("f,a,b,tol", [
        (lambda x: x * x - 2.0, 0.0, 2.0, {"xtol": 2e-12, "rtol": 8.9e-16}),
        (math.cos, 0.0, 3.0, {"xtol": 1e-15, "rtol": 8.9e-16}),
        (lambda x: math.exp(x) - 5.0, -1.0, 4.0, {"xtol": 1e-6, "rtol": 8.9e-16}),
        (lambda x: x ** 3 - 0.2, -1.0, 1.5, {"xtol": 2e-12, "rtol": 1e-10}),
    ])
    def test_root_is_brentqs(self, f, a, b, tol):
        assert _scipy.brent(f, a, b, **tol) == scipy_brentq(f, a, b, **tol)

    @pytest.mark.parametrize("f,tol", [
        (lambda x: -x * x - 1.0, {"xtol": 2e-12, "rtol": 8.9e-16}),  # negative at both ends
        (lambda x: math.nan if x < -0.5 else x, {"xtol": 2e-12, "rtol": 8.9e-16}),  # NaN at lo
        (lambda x: x * x + 1.0, {"xtol": 2e-12, "rtol": 8.9e-16}),  # one sign at both ends
        (lambda x: math.nan if x > 0.2 else x - 0.5, {"xtol": 2e-12, "rtol": 8.9e-16}),  # NaN
    ])
    def test_errors_are_brentqs(self, f, tol):
        ours, theirs = (_raised(lambda: g(f, -1.0, 1.0, **tol))
                        for g in (_scipy.brent, scipy_brentq))
        assert ours == theirs and ours[0] is ValueError

    def test_iteration_cap_is_brentqs(self, monkeypatch):
        # scipy's RuntimeError at the same cap, raised as NonConvergenceError
        # naming the bracket
        monkeypatch.setattr(_scipy, "_MAXITER", 1)
        tol = {"xtol": 2e-12, "rtol": 8.9e-16}
        _, message = _raised(lambda: scipy_brentq(lambda x: x - 0.1, -1.0, 1.0, maxiter=1, **tol))
        ours = _raised(lambda: _scipy.brent(lambda x: x - 0.1, -1.0, 1.0, **tol))
        assert ours == (NonConvergenceError, f"Brent's method on [-1, 1]: {message}")

    def test_exception_from_f_propagates_as_itself(self):
        raised = ArithmeticError("f")

        def f(x):
            raise raised

        with pytest.raises(ArithmeticError) as info:
            _scipy.brent(f, 0.0, 1.0, 2e-12, 8.9e-16)
        assert info.value is raised


class TestQuad:
    """quad at the one setting bounds uses: epsabs = epsrel = 1e-12, limit = 200."""

    @staticmethod
    def _scipy_quad(f, a, b):
        return scipy_quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: 1.0 / math.cosh(x) ** 2 * math.sin(3 * x) ** 2, 0.0, 0.5),
        (lambda x: math.cos(math.pi * x / 0.8) ** 2 / math.cos(x) ** 2, 0.0, 0.4),
        (math.sqrt, 0.0, 2.0),
    ])
    def test_estimates_are_quads(self, f, a, b):
        assert _scipy.quad(f, a, b) == self._scipy_quad(f, a, b)

    def test_warning_is_quads(self):
        def spike(x):
            return 1.0 / abs(x - 0.3) if x != 0.3 else 0.0

        with pytest.warns(UserWarning) as ours:
            got = _scipy.quad(spike, 0.0, 1.0)
        with pytest.warns(UserWarning) as theirs:
            want = self._scipy_quad(spike, 0.0, 1.0)
        assert got == want
        assert [str(w.message) for w in ours] == [str(w.message) for w in theirs]

    def test_exception_from_f_propagates_as_itself(self):
        raised = KeyError("integrand")

        def f(x):
            raise raised

        with pytest.raises(KeyError) as info:
            _scipy.quad(f, 0.0, 1.0)
        assert info.value is raised


def _tridiagonal(size, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=size) * 10.0, rng.normal(size=size - 1)


class TestTridiagonal:
    @pytest.mark.parametrize("size,first,last", [(2, 1, 2), (9, 1, 1), (9, 2, 2),
                                                 (40, 1, 2), (40, 3, 7), (200, 1, 2)])
    @pytest.mark.parametrize("tol", [0.0, 1e-14, 1e-6])
    def test_eigenpairs_are_eigh_tridiagonals(self, size, first, last, tol):
        d, e = _tridiagonal(size, size)
        options = {"select": "i", "select_range": (first - 1, last - 1),
                   "lapack_driver": "stebz", "tol": tol}
        w, v = _scipy.tridiagonal_eigenpairs(d, e, first, last, tol)
        want_w, want_v = eigh_tridiagonal(d, e, **options)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
        values = _scipy.tridiagonal_eigenvalues(d, e, first, last, tol)
        assert np.array_equal(values, eigvalsh_tridiagonal(d, e, **options))

    @pytest.mark.parametrize("name,info,error,message", [
        ("stebz", 2, np.linalg.LinAlgError, "stebz (eigh_tridiagonal) did not converge "
                                            "(LAPACK info=2)"),
        ("stebz", -3, ValueError, "illegal value in argument 3 of internal stebz"),
        ("stein", 1, np.linalg.LinAlgError, "stein (eigh_tridiagonal) 1 eigenvectors failed "
                                            "to converge"),
    ])
    def test_lapack_info_raises(self, monkeypatch, name, info, error, message):
        real = getattr(_scipy, name)

        def failing(*args):
            *out, _ = real(*args)
            return (*out, info)

        monkeypatch.setattr(_scipy, name, failing)
        with pytest.raises(error, match=re.escape(message)):
            _scipy.tridiagonal_eigenpairs(*_tridiagonal(9, 1), 1, 2, 0.0)


def _band(size, seed):
    """A diagonally dominant tridiagonal band and a right-hand side."""
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(3, size))
    ab[1] += 4.0 * np.sign(ab[1])
    return ab, rng.normal(size=size)


class TestSolveBanded:
    """solve_banded at the one setting flow uses: in place, no finite check."""

    @pytest.mark.parametrize("size", [2, 17, 500])
    def test_solution_and_overwrites_are_solve_bandeds(self, size):
        ab, b = _band(size, size)
        ours, theirs = (ab.copy(), b.copy()), (ab.copy(), b.copy())
        x = _scipy.solve_banded(*ours)
        want = scipy_solve_banded((1, 1), *theirs, overwrite_ab=True, overwrite_b=True,
                                  check_finite=False)
        assert np.array_equal(x, want) and np.shares_memory(x, ours[1])
        assert all(np.array_equal(a, c) for a, c in zip(ours, theirs))

    def test_singular_matrix_raises(self):
        ab, b = _band(5, 5)
        ab[:, :2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            _scipy.solve_banded(ab, b)


class TestKernelCheck:
    """Loading _scipy checks every directly called kernel; no wrapper checks again."""

    def test_only_the_module_load_checks(self):
        # the one call of _check_internals is the module's last statement
        tree = ast.parse(Path(_scipy.__file__).read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_check_internals"]
        assert [call.lineno for call in calls] == [tree.body[-1].lineno]

    @pytest.mark.parametrize("kernel", ["_brentq", "_qagse", "stebz", "stein", "gtsv"])
    def test_changed_signature_raises(self, monkeypatch, kernel):
        original = getattr(_scipy, kernel)
        monkeypatch.setattr(_scipy, kernel, lambda *args: original(*args, 0))
        with pytest.raises(ScipyInternalsError, match=f"{VERSION}: the kernel check calls raised"):
            _scipy._check_internals()

    @pytest.mark.parametrize("kernel,name,changed", [
        ("_brentq", "_brentq", lambda out: out * 2.0),
        ("_qagse", "_qagse", lambda out: (out[0], out[1], 1)),
        ("stebz", "dstebz", lambda out: (out[0], out[1][::-1], *out[2:])),
        ("stein", "dstein", lambda out: (out[0] * 2.0, out[1])),
        ("gtsv", "dgtsv", lambda out: (*out[:-1], 1)),
    ])
    def test_changed_answer_raises(self, monkeypatch, kernel, name, changed):
        original = getattr(_scipy, kernel)
        monkeypatch.setattr(_scipy, kernel, lambda *args: changed(original(*args)))
        with pytest.raises(ScipyInternalsError, match=f"{VERSION}: the compiled kernels "
                                                      f"{{'{name}'"):
            _scipy._check_internals()

    def test_wrong_kernel_fails_the_import(self):
        # a _brentq that answers twice the root, registered before the import
        script = (
            "import importlib, sys, types\n"
            "real = importlib.import_module('scipy.optimize._zeros')._brentq\n"
            "wrong = types.ModuleType('scipy.optimize._zeros')\n"
            "wrong._brentq = lambda *args: 2.0 * real(*args)\n"
            "sys.modules['scipy.optimize._zeros'] = wrong\n"
            "from gapmodel.errors import ScipyInternalsError\n"
            "try:\n"
            "    import gapmodel._scipy\n"
            "except ScipyInternalsError as exc:\n"
            "    print(exc)\n"
            "print('gapmodel._scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        message, loaded = proc.stdout.splitlines()
        assert re.match(f"{VERSION}: the compiled kernels {{'_brentq': '0.25'}} answer a "
                        "known call", message), message
        assert loaded == "False"


class TestLoading:
    def test_modules_are_registered_and_reused(self):
        for name, attr in (("scipy.integrate._dop", "dopri853"),
                           ("scipy.optimize._zeros", "_brentq"),
                           ("scipy.integrate._quadpack", "_qagse"),
                           ("scipy.linalg._flapack", "dstebz")):
            assert getattr(sys.modules[name], attr) is getattr(_scipy._load(name), attr)
        assert _scipy.tableau is sys.modules["scipy.integrate._ivp.dop853_coefficients"]
        assert _scipy.dopri853 is sys.modules["scipy.integrate._dop"].dopri853

    def test_missing_file_raises(self):
        with pytest.raises(ScipyInternalsError, match=f"{VERSION}: no file .*_no_such_kernel"):
            _scipy._load("scipy.integrate._no_such_kernel")
        assert "scipy.integrate._no_such_kernel" not in sys.modules


_LATER_IMPORT_SCRIPT = """
import sys
import numpy as np
from gapmodel import _scipy, flow, spectral
from gapmodel.model import ModelParams

def runs():
    # every wrapper once, as float bits
    end = _scipy.dop853_end(lambda t, y: [y[1], -y[0]], 0.0, 3.0, [1.0, 0.0], 1e-10, 1e-10)
    dense = _scipy.dop853_dense(lambda t, y: [y[1], -y[0]], 0.0, 3.0, [1.0, 0.0], 1e-10,
                                1e-10, None)
    rng = np.random.default_rng(7)
    d, e = rng.normal(size=30), rng.normal(size=29)
    ab, b = rng.normal(size=(3, 30)), rng.normal(size=30)
    ab[1] += 4.0
    values = [*end.y, end.nfev, *dense.sol(np.linspace(0.0, 3.0, 9)).ravel(),
              _scipy.brent(np.cos, 0.0, 3.0, 2e-12, 8.9e-16), *_scipy.quad(np.exp, 0.0, 1.0),
              *_scipy.tridiagonal_eigenpairs(d, e, 1, 2, 0.0)[1].ravel(),
              *_scipy.solve_banded(ab, b), spectral.gap(ModelParams(5, 1.0, 1.0)).gap]
    return [float(v).hex() for v in values]

loaded = {m for m in sys.modules if m in ("scipy.integrate", "scipy.optimize", "scipy.linalg")}
before = runs()
kernels = [_scipy.dopri853, _scipy._brentq, _scipy._qagse, _scipy.stebz, _scipy.tableau]
import scipy.integrate, scipy.linalg, scipy.optimize, scipy.integrate._ivp.rk
modules = [sys.modules[f"scipy.{name}"] for name in (
    "integrate._dop", "optimize._zeros", "integrate._quadpack", "linalg._flapack")]
print(repr((sorted(loaded), before == runs(), kernels == [
    modules[0].dopri853, modules[1]._brentq, modules[2]._qagse, modules[3].dstebz,
    scipy.integrate._ivp.rk.dop853_coefficients])))
"""


def test_a_later_scipy_import_reuses_the_kernels():
    """Importing scipy's packages after the kernels were loaded reuses the
    loaded modules, and both the wrappers and scipy's public functions keep
    their bits."""
    proc = subprocess.run([sys.executable, "-c", _LATER_IMPORT_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == repr(([], True, True))
