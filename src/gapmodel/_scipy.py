"""The compiled scipy solvers gapmodel calls, each wrapped in a narrower call,
and the one seeded root path behind eigenvalues and Robin constants.

``dop853_end`` runs every end-value shot: spectral's angle shots, and
the stacked end-angle pass and Brent's shots behind pruefer's ``find_ck``.
``dop853_dense`` runs pruefer's Riccati branches, each stopped at its
pole, pruefer's Robin profile, which runs to D/2 without an event and
checks ``find_ck``'s root,
spectral's (theta, log r) runs from -D/2 to 0, stacked at the ends of
one or two eigenvalues' intervals or at one or two of Brent's roots,
and flow's equidistribution ODE behind ``build_grid``, stopped where the
grid reaches z = 0, and forms their dense output from the Fortran's own
stages: at once for a run with an event, which the dense output places,
and on the first evaluation for a run without one, so that a run whose
dense output is never read never pays for it.
The dense output finds the steps of sorted points, the grids every
caller samples, as runs located by the knots, and of any other points by
locating each point; both paths give a point the same step and the same
bits (see ``_dense_evaluator``).
Every ODE gapmodel solves runs on DOP853 through these two.  Spectral's
finite-difference route takes its coarse grid's eigenvalues from
``tridiagonal_eigenvalues`` (one ``stebz`` call) and its fine grid's
eigenpairs from ``tridiagonal_eigenpairs`` (one ``stebz`` and one
``stein`` call), one index or a range of them per grid.  Bounds' one
quadrature is ``quad`` (QUADPACK's ``qagse``), and the flow's band
solves are ``solve_banded`` (LAPACK's ``gtsv``).

``seeded_interval`` turns a collocation seed into an interval, and says
whether it is narrow enough for a stacked two-end pass, which the caller
runs.  ``seeded_root`` then finishes the root of an increasing function
there: a checked linear interpolation of the pass's ends, or ``brentq``
through ``brent``, which raises its iteration cap as
``NonConvergenceError``.  Spectral's ``eigen_shoot`` and pruefer's
``find_ck`` call each once per root, with their own pass and check runs,
accept fraction, noise floor, Brent tolerances and error; spectral forms
both eigenvalues' intervals of a gap first, to run their passes together.

This is the one module that touches scipy, and it imports none of
``scipy.integrate``, ``scipy.optimize`` or ``scipy.linalg``: importing
those runs their packages' ``__init__``, which loads scipy.special,
scipy.sparse and numpy.testing, and took most of a whole array command's
time and memory.  It loads instead the five files it calls, next to
``scipy.__file__``, by ``importlib.util.spec_from_file_location``:

- ``integrate/_dop``, the Fortran DOP853: ``dopri853(f, t0, y0, t1,
  rtol, atol, solout, iout, work, iwork, nsteps, verbosity, f_args)``
  returns (t, y, code) and leaves the call count in ``iwork[16]``;
- ``optimize/_zeros``: ``_brentq(f, a, b, xtol, rtol, maxiter, args,
  full_output, disp)``;
- ``integrate/_quadpack``: ``_qagse(f, a, b, args, full_output, epsabs,
  epsrel, limit)`` returns (result, abserr, ier);
- ``linalg/_flapack``: LAPACK's ``dstebz``, ``dstein`` and ``dgtsv``;
- ``integrate/_ivp/dop853_coefficients.py``: the DOP853 tableau.

Each is taken from ``sys.modules`` if a caller imported it already, and a
module loaded here is registered there under its own name, so that a
later ``import scipy.integrate`` or ``import scipy.linalg`` reuses it.
The wrappers give the bits of scipy's public functions around the same
calls (``ode``'s dop853 integrator, ``brentq``, ``eigh_tridiagonal``,
and ``quad`` and ``solve_banded`` at the one setting their caller uses),
with the checks those make on the inputs gapmodel can pass; a missing
file raises ``ScipyInternalsError`` at import.

These calls, and the DOP853 tableau, the order of the Fortran's calls
within a step and its call count, are scipy internals that are not
public API, verified on scipy 1.17.1.  The first call of any wrapper in
a process checks them, each kernel by one tiny call and DOP853 on a
known solution, and raises ``ScipyInternalsError`` if they differ
(``_check_internals``).

``ledger`` counts the work: while one is open, every call of
``dop853_end``, ``dop853_dense`` and ``brent`` that returns appends a
record of itself to it, keyed by the module that defined the function it
was given, so that the callers are told apart without a parameter.

``import gapmodel`` and the command line import this module only when a
command that solves runs.  ``solve_ivp``, which no route calls, is
scipy.integrate's, imported when first read.
"""

import contextlib
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from array import array
from types import SimpleNamespace

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from .errors import NonConvergenceError, ScipyInternalsError


def _load(name):
    """scipy's module name, loaded from its file without its package's __init__.

    The module in sys.modules if a caller imported it, else the file next
    to ``scipy.__file__`` (a compiled extension or a .py file), executed
    and registered in sys.modules under name.  No such file raises
    ScipyInternalsError naming scipy's version.
    """
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:])
    for suffix in (*importlib.machinery.EXTENSION_SUFFIXES, ".py"):
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ScipyInternalsError(
        f"scipy {scipy.__version__}: no file {stem}.*, which gapmodel calls for {name}")


dopri853 = _load("scipy.integrate._dop").dopri853
_brentq = _load("scipy.optimize._zeros")._brentq
_qagse = _load("scipy.integrate._quadpack")._qagse
_lapack = _load("scipy.linalg._flapack")
stebz, stein, gtsv = _lapack.dstebz, _lapack.dstein, _lapack.dgtsv
tableau = _load("scipy.integrate._ivp.dop853_coefficients")

# step budget of one dop853_end run; the longest angle shot within 5e-6 of
# the cap, at (n, K, D) = (8, 9.8696, 1), takes about 19k steps, and a run
# that exhausts the budget fails instead of stalling
DOP853_MAX_STEPS = 100_000
_PASS_WIDTH = 5e-6  # widest interval half-width, over the accuracy scale, given a stacked pass
_LADDERS = 3.0  # seeded interval half-width in collocation ladders; see seeded_interval
_open = None  # the records of the open ledger, or None; see ledger
# fewest sorted points _dense_evaluator gathers by step runs: below about
# 2k points the repeats' fixed cost exceeds the search they save (measured
# at 20 to 300 steps, one row)
_RUN_MIN = 2048
_checked = False  # whether _check_internals has passed, or is running, in this process
# dop853's return codes, with scipy.integrate.ode's messages
_MESSAGES = {1: "computation successful",
             2: "computation successful (interrupted by solout)",
             -1: "input is not consistent",
             -2: "larger nsteps is needed",
             -3: "step size becomes too small",
             -4: "problem is probably stiff (interrupted)"}


@contextlib.contextmanager
def ledger():
    """A ledger of the solver calls made while the block runs.

    Yields a list to which every call of ``dop853_end``, ``dop853_dense``
    and ``brent`` that returns appends one record, (wrapper, module,
    result): the wrapper's name, the ``__module__`` of the function it was
    given, and what it returned.  The module keys the callers:
    ``gapmodel.spectral`` for angle shots, eigenfunction runs and
    ball_first_eigen's Brent, ``gapmodel.pruefer`` for find_ck's shots,
    the branches, the profiles and flat_ck's Brent, ``gapmodel.flow`` for
    the grid ODE, and ``gapmodel._scipy`` for seeded_root's Brent.  A run
    without an event adds 3 right-hand-side points per step to its
    result's ``nfev`` when its dense extension is formed, so a total read
    once the work is done includes them.

    Leaving the block, also by an exception, reopens the ledger that was
    open before it, which records none of the block's calls.  With no
    ledger open a call records nothing.
    """
    global _open
    outer, _open = _open, []
    try:
        yield _open
    finally:
        _open = outer


def _record(wrapper, fun, result):
    """result, after appending (wrapper, fun's module, result) to the open ledger."""
    if _open is not None:
        _open.append((wrapper, fun.__module__, result))
    return result


def _dop853(fun, t0, t1, y0, rtol, atol, solout):
    """One run of scipy's Fortran ``dop853`` from y(t0) = y0 toward t1.

    ``dopri853`` gets the arguments ``scipy.integrate.ode``'s dop853
    integrator gives it (ode's defaults for the safety factor and the step
    ratios, no verbosity), with the step budget DOP853_MAX_STEPS, and
    solout called after every accepted step (iout = 1): with iout = 0 the
    Fortran calls fun more often than ``iwork[16]`` counts.  The first run
    in a process first checks the internals read here
    (``_check_internals``).

    Returns ``solve_ivp``'s result fields ``t``, ``y`` (the point reached
    and the state there), ``nfev``, ``success`` and ``message`` (the
    return code's, as ``ode`` gives it), and the return code.  A negative
    code is left to the caller, and an exception raised by fun or solout
    propagates as itself.
    """
    if not _checked:
        _check_internals()
    y = np.array(y0, dtype=float, ndmin=1)  # the Fortran overwrites it
    work = np.zeros(11 * len(y) + 21)
    work[1:4] = 0.9, 0.3, 6.0  # safety factor, smallest and largest step ratio
    iwork = np.zeros(21, dtype=np.int32)
    try:
        t, y, code = dopri853(fun, t0, y, t1, rtol, atol, solout, 1, work, iwork,
                              DOP853_MAX_STEPS, -1, ())
    except SystemError as exc:
        # the wrapper reports an exception raised by a callback as a chain of
        # SystemErrors, one per later call; raise the callback's own
        while exc.__context__ is not None:
            exc = exc.__context__
        raise exc from None
    return SimpleNamespace(t=t, y=y, nfev=int(iwork[16]), success=code > 0,  # NFCN
                           message=_MESSAGES.get(code, f"unexpected return code {code}")), code


def _step_on(t, y):
    """dop853_end's solout: every step continues."""
    return 0


def dop853_end(fun, t0, t1, y0, rtol, atol):
    """End state of y' = fun(t, y) from t0 to t1 by Hairer's compiled DOP853.

    Runs scipy's Fortran ``dop853`` (``_dop853``) and returns the
    attribute names of ``solve_ivp``'s result: ``t`` and ``y`` are the
    point reached and the state there, ``nfev`` counts right-hand-side
    calls, and ``success`` and ``message`` report the return code.  A
    negative code (step budget exhausted, step size too small, or a
    stiffness interrupt) gives ``success = False`` with scipy's message
    instead of scipy's warning.  An exception raised by fun propagates.
    For a one-component y, fun may return a bare float instead of a
    one-element list; the run, its y and its nfev are the same, and the
    angle shots rely on this to skip building a list per call.
    """
    return _record("dop853_end", fun, _dop853(fun, t0, t1, y0, rtol, atol, _step_on)[0])


def dop853_dense(fun, t0, t1, y0, rtol, atol, event):
    """Dense solution of y' = fun(t, y) from t0 toward t1 by the compiled DOP853.

    The Fortran ``dop853`` records t and y at t0 and at the end of every
    accepted step.  It stops at t1, or at the first step over which the
    event g(t, y) changes sign in the direction given by its ``direction``
    attribute, read as in ``solve_ivp``; event=None never stops the run.
    fun gets y as an array, from the Fortran and for the stages formed
    here alike, and returns a sequence of len(y0) floats.  The last 12 it
    returns to the Fortran during a step are the stages K[1..11] of scipy's
    tableau and K[12], f at the step's end, and K[0] is the previous step's
    K[12] or f(t0); only K[13..15] are computed here, and the 7
    coefficients of each step's continuous extension are formed as in
    scipy's ``DOP853`` (Hairer, Norsett & Wanner, Solving ODEs I, sec.
    II.5-6).  The event's root is found by ``brentq`` on the stopping
    step's interpolant, with solve_ivp's tolerances.  Four callers use it:
    pruefer's Riccati branches, whose event is the angle's pole, pruefer's
    Robin profile and spectral's (theta, log r) runs, which have none, and
    flow's ``build_grid``, whose event is the grid reaching z = 0 and whose
    t1 is the cell budget.

    A run with an event forms the extension before it returns.  A run
    without one keeps the Fortran's stages, moved out of the stepper's
    reach without a copy, and forms K[13..15] and the coefficients on the
    first call of ``sol``, once; every value it returns is the bits of an
    extension formed during the run.

    Returns ``t`` and ``y``, the recorded points and the states there (one
    row of y per component), ``t_event``, the root or None, and ``sol``,
    the evaluator (z, rows=None) -> y(z) (see ``_dense_evaluator``) on
    the span from t0 to t_event or to the last point: every component, or
    the listed rows only, each to the same bits, so a caller chooses its
    rows when it evaluates.  ``nfev`` counts the right-hand side's points:
    the Fortran's calls, plus 3 per step from when the extension is
    formed.  ``success`` and ``message`` are those of ``dop853_end``; a
    failed run has ``sol = None``.  An exception raised by fun or the
    event propagates, from the first call of ``sol`` where fun raises
    while the extension is formed.
    """
    dim, tail = len(y0), -tableau.N_STAGES * len(y0)
    calls, stages = array("d"), array("d")  # stages: f(t0), then K[1..12] per step
    ts, ys, gs = [], [], []

    def recorded(t, y):
        f = fun(t, y)
        calls.extend(f)
        return f

    def solout(t, y):
        # before the first step, the first call holds f(t0)
        stages.extend(calls[tail:] if ts else calls[:dim])
        del calls[:]
        ts.append(t)
        ys.append(y.copy())
        if event is None:
            return 0
        gs.append(event(t, y))
        if len(gs) > 1:
            old, new, d = gs[-2], gs[-1], event.direction
            if (d >= 0 and old <= 0 <= new) or (d <= 0 and old >= 0 >= new):
                return -1
        return 0

    out, code = _dop853(recorded, t0, t1, y0, rtol, atol, solout)
    t, y = np.array(ts), np.array(ys).T
    # the stepper holds solout, and its lists, until its next run; the
    # run's stages leave its reach without a copy
    del ts[:], ys[:], gs[:]
    run_stages, stages = stages, array("d")
    out.t, out.y, out.t_event, out.sol = t, y, None, None
    if code < 0:
        return _record("dop853_dense", fun, out)

    def extension():
        # stages in rows, components next, steps last; K[0..12] of a step are
        # the 13 values from the one before its K[1]
        h, t_old, y_old = np.diff(t), t[:-1], y[:, :-1]
        n, f = tableau.N_STAGES, np.frombuffer(run_stages).reshape(-1, dim)
        K = np.empty((tableau.N_STAGES_EXTENDED,) + y_old.shape)
        K[:n + 1] = np.lib.stride_tricks.sliding_window_view(f, n + 1, axis=0)[::n].T
        for s in range(n + 1, len(K)):  # fun once per step, on floats
            y_s = y_old + np.tensordot(tableau.A[s, :s], K[:s], axes=1) * h
            K[s] = np.array([*map(fun, (t_old + tableau.C[s] * h).tolist(), y_s.T)]).T
        out.nfev += (len(K) - n - 1) * h.size
        delta = y[:, 1:] - y_old
        F = np.empty((tableau.INTERPOLATOR_POWER,) + y_old.shape)
        F[0] = delta
        F[1] = h * K[0] - delta
        F[2] = 2 * delta - h * (K[n] + K[0])
        F[3:] = h * np.tensordot(tableau.D, K, axes=1)
        return t_old, h, y_old, F[::-1]  # coefficient, component, step; highest first

    if event is None:
        out.sol = _deferred(lambda: _dense_evaluator(t, *extension()))
        return _record("dop853_dense", fun, out)
    t_old, h, y_old, coeffs = extension()
    knots = t
    if code == 2:  # stopped by the event
        last = _dense_evaluator(t[-2:], t_old[-1:], h[-1:], y_old[:, -1:], coeffs[:, :, -1:])
        eps4 = 4 * np.finfo(float).eps
        out.t_event = brentq(lambda z: event(z, last(z)), t[-2], t[-1], xtol=eps4, rtol=eps4)
        knots = np.append(t[:-1], out.t_event)
    out.sol = _dense_evaluator(knots, t_old, h, y_old, coeffs)
    return _record("dop853_dense", fun, out)


def _kernel_errors():
    """Each directly called kernel's error on one tiny call with a known answer.

    Brent's root of x - 1/4 on [0, 1]; qagse's integral of x over [0, 1],
    1/2; dstebz's eigenvalues 1 and 3 of [[2, 1], [1, 2]] and dstein's
    eigenvectors, (1, -1) and (1, 1) over sqrt 2 up to sign; dgtsv's
    solution (1, 1) of that matrix against (3, 3).  A nonzero ier or LAPACK
    info counts as an error of at least 1.  Returns {kernel: error}.
    """
    root = _brentq(lambda x: x - 0.25, 0.0, 1.0, 1e-12, 1e-12, 100, (), False, True)
    integral, _, ier = _qagse(lambda x: x, 0.0, 1.0, (), 0, 1e-12, 1e-12, 50)
    d, e = np.array([2.0, 2.0]), np.array([1.0])
    m, w, iblock, isplit, info_w = stebz(d, e, 2, 0.0, 1.0, 1, 2, 0.0, "B")
    v, info_v = stein(d, e, w[:m], iblock, isplit)
    *_, x, info_x = gtsv(e.copy(), d.copy(), e.copy(), np.array([3.0, 3.0]),
                         True, True, True, True)
    return {"_brentq": abs(root - 0.25),
            "_qagse": abs(integral - 0.5) + abs(ier),
            "dstebz": np.abs(w[:m] - [1.0, 3.0]).max() + abs(info_w),
            "dstein": np.abs(np.abs(v) - math.sqrt(0.5)).max() + abs(info_v),
            "dgtsv": np.abs(x - 1.0).max() + abs(info_x)}


def _check_internals():
    """Check the scipy internals gapmodel calls; ScipyInternalsError if they differ.

    First each kernel called directly, ``_brentq``, ``_qagse``,
    ``dstebz``, ``dstein`` and ``dgtsv``, makes one tiny call
    (``_kernel_errors``) and must raise nothing and answer within 1e-12,
    which fails when its signature or returns differ from this scipy's.
    Then y' = (-sin t, -y[0]) from y(0) = (1, 0), whose solution is (cos
    t, -sin t), runs from 0 to 2 twice: once by a direct ``_dop853`` call,
    and once by ``dop853_dense`` without an event, whose first component
    tests the nodes C of the stages and whose second tests their weights
    A.  The direct call must return a (t, y, code) tuple with code 1 at
    t = 2 and y within 1e-8 of (cos 2, -sin 2), and the dense output on 41
    points must lie within 1e-8 of cos and -sin, which fails when the
    tableau in ``scipy.integrate._ivp.dop853_coefficients`` or the
    Fortran's order of a step's stage calls no longer fits the extension
    formed here.  Each run's ``nfev`` must equal the calls of its
    right-hand side counted here, which fails when ``iwork[16]`` is no
    longer the Fortran's call count.  A mismatch, or an exception in a
    call, raises the error naming scipy's version.

    The first call of any wrapper of a kernel (``_dop853``, ``brentq``,
    ``quad``, the tridiagonal eigensolvers and ``solve_banded``) runs the
    check, never the import, and the check's calls are recorded in no
    ledger.  It costs about 0.6 ms once (median of 7 fresh processes on a
    shared 2-CPU x86-64 host; 0.24 ms when repeated in a warm process).
    """
    global _checked
    _checked = True  # the check's own runs do not check again
    try:
        kernels = _kernel_errors()
    except Exception as exc:  # _brentq refuses other arguments with RuntimeError
        _checked = False
        raise ScipyInternalsError(
            f"scipy {scipy.__version__}: the kernel check calls raised {exc!r}") from exc
    wrong = {name: f"{error:.3g}" for name, error in kernels.items() if not error <= 1e-12}
    if wrong:
        _checked = False
        raise ScipyInternalsError(
            f"scipy {scipy.__version__}: the compiled kernels {wrong} answer a known call "
            "with these errors, against 1e-12; gapmodel calls them directly with the "
            "arguments and returns of scipy 1.17.1, and this version differs")
    calls = 0

    def oscillator(t, y):
        nonlocal calls
        calls += 1
        return [-math.sin(t), -y[0]]

    z = np.linspace(0.0, 2.0, 41)
    try:
        end, code = _dop853(oscillator, 0.0, 2.0, [1.0, 0.0], 1e-10, 1e-10, _step_on)
        end_calls, calls = calls, 0
        with ledger():
            run = dop853_dense(oscillator, 0.0, 2.0, [1.0, 0.0], 1e-10, 1e-10, None)
            error = np.abs(run.sol(z) - [np.cos(z), -np.sin(z)]).max()
        end_error = np.abs(end.y - [math.cos(2.0), -math.sin(2.0)]).max()
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        _checked = False
        raise ScipyInternalsError(
            f"scipy {scipy.__version__}: the DOP853 check run raised {exc!r}") from exc
    if not (code == 1 and end.t == 2.0 and end_error <= 1e-8 and end.nfev == end_calls
            and error <= 1e-8 and run.nfev == calls):
        _checked = False
        raise ScipyInternalsError(
            f"scipy {scipy.__version__}: y' = (-sin t, -y[0]) from y(0) = (1, 0) by the direct "
            f"DOP853 call ends with code {code} at t = {end.t}, {end_error:.3g} from (cos 2, "
            f"-sin 2), and nfev {end.nfev} for {end_calls} right-hand-side calls; its dense "
            f"output is {error:.3g} from (cos, -sin), against 1e-8, and its nfev is {run.nfev} "
            f"for {calls} calls; gapmodel reads the call and return of scipy's Fortran "
            "dopri853, its DOP853 tableau, the order of a step's stage calls and the "
            "Fortran's call count, and this version differs")


def _deferred(build):
    """An evaluator that calls build() on its first call and evaluates by
    what it returned; build, and what it holds, is then let go."""
    evaluate = None

    def sol(z, rows=None):
        nonlocal build, evaluate
        if evaluate is None:
            evaluate, build = build(), None
        return evaluate(z, rows)

    return sol


def _dense_evaluator(ts, t_old, h, y_old, coeffs):
    """z -> the rows of y(z) on the dense output of ``dop853_dense``.

    ts are the knots in the order of integration; t_old and h hold each
    step's start and length, y_old its start state (row, step), and
    coeffs its continuous-extension coefficients (coefficient, row, step),
    highest first.  A point takes its step as scipy's ``OdeSolution``
    does: the step whose knots enclose it, at an inner knot the step that
    ends there in the order of integration, and the first or last step
    outside the span.  Each step's start, length, start state and
    coefficients are gathered at the points by one of two paths:

    - Sorted points, more than _RUN_MIN of them and no NaN: the points of
      a step form one run, so one ``searchsorted`` of the inner knots into
      the points, with the opposite side, gives each step's count of
      points, and ``numpy.repeat`` repeats each step's values that often,
      in reversed step order for a backward run.
    - Any other points, one point included: one ``searchsorted`` of the
      points into the knots gives each point's step, and ``take`` gathers
      by it.

    Both give each point the same step, and gather the same doubles, on
    which the same Horner arithmetic runs (1 - x is formed once per call),
    so their bits agree.  ``rows``, a list of indices into the evaluator's
    rows, evaluates only those, each to the same bits.
    """
    ascending = ts[-1] >= ts[0]
    ts, side, run_side, order = ((ts, "left", "right", slice(None)) if ascending
                                 else (ts[::-1], "right", "left", slice(None, None, -1)))
    last = len(t_old) - 1
    inner = ts[1:-1]

    def evaluate(z, rows=None):
        start, fs = (y_old, coeffs) if rows is None else (y_old[rows], coeffs[:, rows])
        z = np.asarray(z, dtype=float)
        t = z.reshape(-1)
        if t.size > _RUN_MIN and np.all(t[1:] >= t[:-1]):  # False at a NaN
            counts = np.diff(np.searchsorted(t, inner, side=run_side), prepend=0, append=t.size)

            def gather(a):
                return np.repeat(a[..., order], counts, axis=-1)
        else:
            step = np.searchsorted(ts, t, side=side)
            step -= 1
            np.clip(step, 0, last, out=step)
            if not ascending:
                np.subtract(last, step, out=step)
            buffer = np.empty((len(start), t.size))

            def gather(a):
                # the steps are in range; take's default mode="raise" would
                # gather into a temporary copy and then copy that into out
                if a.ndim == 1:
                    return a.take(step)
                return a.take(step, axis=1, out=buffer, mode="clip")
        x = (t - gather(t_old)) / gather(h)
        one_minus_x = 1 - x
        y = np.zeros((len(start), t.size))
        for i, f in enumerate(fs):
            y += gather(f)
            y *= one_minus_x if i % 2 else x
        y += gather(start)
        return y.reshape((len(start),) + z.shape)

    return evaluate


def _stebz(d, e, first, last, tol, order):
    """(d, e, w, iblock, isplit) of LAPACK's dstebz for the first-th to
    last-th smallest eigenvalues, with ``eigh_tridiagonal``'s checks.

    d and e must be finite, one-dimensional and of lengths N and N - 1,
    and 1 <= first <= last <= N, or ValueError; N = 1, for which
    ``eigh_tridiagonal`` makes no call, fails in the call.  order "E"
    sorts w by value, "B" by the matrix's blocks, as ``stein`` reads them.
    """
    if not _checked:
        _check_internals()
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    if last < first:
        raise ValueError("select_range must be a 2-element array-like in nondecreasing order")
    if first < 1 or last > d.size:
        raise ValueError("select_range out of bounds")
    m, w, iblock, isplit, info = stebz(d, e, 2, 0.0, 1.0, first, last, float(tol), order)
    _check_info(info, "stebz (eigh_tridiagonal)")
    return d, e, w[:m], iblock, isplit


def _check_info(info, driver, positive="did not converge (LAPACK info=%d)"):
    """scipy.linalg's check of a LAPACK info: ValueError below 0, LinAlgError above."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise LinAlgError(f"{driver} " + positive % info)


def tridiagonal_eigenpairs(d, e, first, last, tol):
    """The first-th to last-th smallest eigenpairs (1-based) of a symmetric
    tridiagonal matrix.

    d is the diagonal and e the off-diagonal.  ``eigh_tridiagonal``'s
    calls: LAPACK's ``stebz`` bisects on Sturm counts until each
    eigenvalue lies in an interval no wider than max(tol, 2 eps |lam|) and
    returns its midpoint, in block order, and ``stein`` finds their unit
    eigenvectors by inverse iteration; both are then sorted by value.
    Returns (w, v), the eigenvalues in ascending order and the
    eigenvectors in v's columns; a failure of either raises
    ``numpy.linalg.LinAlgError``, and input ``eigh_tridiagonal`` refuses
    ValueError.
    """
    d, e, w, iblock, isplit = _stebz(d, e, first, last, tol, "B")
    v, info = stein(d, e, w, iblock, isplit)
    _check_info(info, "stein (eigh_tridiagonal)", "%d eigenvectors failed to converge")
    order = np.argsort(w)
    return w[order], v[:, order]


def tridiagonal_eigenvalues(d, e, first, last, tol):
    """The first-th to last-th smallest eigenvalues (1-based) of a symmetric
    tridiagonal matrix.

    The values ``tridiagonal_eigenpairs`` returns, from one ``stebz`` call
    in value order, as ``eigvalsh_tridiagonal`` makes it, without
    ``stein``'s eigenvectors.  A failure raises ``numpy.linalg.LinAlgError``.
    """
    return _stebz(d, e, first, last, tol, "E")[2]


def solve_banded(ab, rhs):
    """x with A x = rhs, for a tridiagonal A in ``scipy.linalg.solve_banded``'s
    band storage, as ``solve_banded((1, 1), ab, rhs, overwrite_ab=True,
    overwrite_b=True, check_finite=False)`` gives it.

    ab's 3 rows hold A's upper, main and lower diagonals, each aligned on
    A's columns, and rhs has A's rows, at least 2: flow's band matrix and
    right-hand side.  LAPACK's ``gtsv`` overwrites both and returns x in
    rhs; a singular A raises ``numpy.linalg.LinAlgError``.
    """
    if not _checked:
        _check_internals()
    *_, x, info = gtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, True, True, True, True)
    _check_info(info, "gtsv (solve_banded)", "found a singular matrix (LAPACK info=%d)")
    return x


# bounds' one quadrature: qagse's tolerances and subinterval limit
_QUAD_TOL, _QUAD_LIMIT = 1e-12, 200
# QUADPACK's ier codes that quad warns on, with scipy.integrate.quad's messages
_QUADPACK = {
    1: "The maximum number of subdivisions (200) has been achieved.\n  If increasing "
       "the limit yields no improvement it is advised to analyze \n  the integrand in order "
       "to determine the difficulties.  If the position of a \n  local difficulty can be "
       "determined (singularity, discontinuity) one will \n  probably gain from splitting "
       "up the interval and calling the integrator \n  on the subranges.  Perhaps a "
       "special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  the requested "
       "tolerance from being achieved.  The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  integration "
       "interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  in the "
       "extrapolation table.  It is assumed that the requested tolerance\n  cannot be "
       "achieved, and that the returned result (if full_output = 1) is \n  the best which "
       "can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
    7: "Abnormal termination of the routine.  The estimates for result\n  and error are "
       "less reliable.  It is assumed that the requested accuracy\n  has not been "
       "achieved.",
}


def quad(func, a, b):
    """(integral, error estimate) of func from a to b < inf, as
    ``scipy.integrate.quad(func, a, b, epsabs=1e-12, epsrel=1e-12,
    limit=200)`` gives them.

    QUADPACK's adaptive ``qagse``.  As ``quad`` does, an ier of 1-5 or 7
    warns, with QUADPACK's message, and returns the estimates; ier 6,
    invalid input, which these tolerances and this limit never give,
    raises ValueError.
    """
    if not _checked:
        _check_internals()
    result, abserr, ier = _qagse(func, a, b, (), 0, _QUAD_TOL, _QUAD_TOL, _QUAD_LIMIT)
    if ier in _QUADPACK:
        warnings.warn(_QUADPACK[ier], UserWarning, stacklevel=2)
    elif ier:
        raise ValueError(f"QUADPACK qagse returned ier = {ier}")
    return result, abserr


# scipy.optimize.brentq's defaults, its smallest rtol and its iteration cap
_XTOL, _RTOL, _MAXITER = 2e-12, 4 * np.finfo(float).eps, 100


def brentq(f, a, b, xtol=_XTOL, rtol=_RTOL):
    """The root of f in [a, b] by Brent's method, as
    ``scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)``.

    The compiled ``_brentq`` with ``brentq``'s checks: xtol <= 0 or rtol
    below 4 eps raises ValueError, and so does a NaN value of f; f(a) and
    f(b) of one sign raise its ValueError, and the iteration cap its
    RuntimeError.  An exception raised by f propagates.
    """
    if not _checked:
        _check_internals()
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def checked(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    return _brentq(checked, a, b, xtol, rtol, _MAXITER, (), False, True)


def brent(f, lo, hi, **tol):
    """brentq(f, lo, hi, **tol), with its iteration cap raised as
    NonConvergenceError; the root is the result the ledger records."""
    try:
        return _record("brent", f, brentq(f, lo, hi, **tol))
    except RuntimeError as exc:
        raise NonConvergenceError(f"Brent's method on [{lo:.6g}, {hi:.6g}]: {exc}") from None


def __getattr__(name):
    # scipy.integrate's solve_ivp, which no route calls, imported when first
    # read: perfbench/tracing.py rebinds spectral's and pruefer's
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def seeded_interval(lo, hi, pad, seed, ladder, floor):
    """The seeded interval [a, b] in the padded bracket [lo, hi], and
    whether it is narrow enough for a stacked pass.

    The interval is seed +- max(_LADDERS ladder, pad), 3 ladders, if it
    lies strictly inside the bracket, else the bracket; a NaN seed never
    does.  It is narrow when its half-width is at most _PASS_WIDTH of
    max(|midpoint|, floor).  Returns (a, b, narrow).

    The ladder is the distance between the collocation values at N = 32
    and N = 48.  Under spectral convergence it measures the N = 32 value's
    error, so the N = 48 seed should lie well inside one ladder of the
    root (Trefethen, Spectral Methods in MATLAB, 2000, ch. 6-9).  Measured
    against the shooting root:

    - 492 eigenvalue seeds: eigen_sweep seeds 1-8, the 112 triples of the
      near-cap map and the edge triples.  On the 69 where 3 ladders exceed
      the pad, the seed is within 0.45 ladder of the root, at (2, 9.86, 1),
      and on the 36 of them whose interval is narrow within 0.043 ladder,
      with one exception: n = 2 at the cap, (2, 9.8696, 1) and (2,
      39.4784, 0.5), at 3.8 and 3.9 ladders, where the pole layer is
      thinner than the collocation grid resolves.  Their intervals are
      wide and miss the root, so Brent goes to the bracket, with 2 to 3
      more shots per gap than from 10 ladders.
    - find_ck's 126 constants, 108 of them with a seed: on the 28 where 3
      ladders exceed the pad, the seed is within 0.38 ladder of the root,
      at k = 1e3, K D^2 = 9.8, D = 1.

    A seed outside its interval costs Brent's shots, never the answer: the
    pass must straddle the root, or Brent runs on the bracket.
    """
    a, b, delta = lo, hi, max(_LADDERS * ladder, pad)
    if lo < seed - delta and seed + delta < hi:  # False for a NaN seed
        a, b = seed - delta, seed + delta
    return a, b, (b - a) / 2 <= _PASS_WIDTH * max(abs(a + b) / 2, floor)


def seeded_root(g, lo, hi, a, b, ends, check, *, floor, accept, noise, xtol, rtol,
                unbracketed):
    """The root of g, increasing, inside the padded bracket [lo, hi], from a
    seeded interval [a, b].

    The caller forms [a, b] once, by seeded_interval, and ends is (g(a),
    g(b)) from its stacked pass when the interval is narrow, else None; a
    caller solving several roots may make every root's pass in one run.
    The accuracy scale of a point x is max(|x|, floor).

    - Stacked pass.  If g(a) < 0 < g(b), the root x = a + w (b - a)
      interpolates g linearly, and check(x) returns (g(x), run).  The
      estimate (2 |g(x)| + noise) (b - a) / (g(b) - g(a)) is accepted when
      it is at most accept times the scale of x.  A rejected estimate sends
      Brent into [x, b] or [a, x], the side g(x)'s sign picks; a pass that
      does not straddle sends it to the bracket.
    - Brent's method.  A wide interval goes to Brent, on g alone, if g
      straddles the root at its ends; otherwise, and as above, Brent runs
      on the bracket.  It stops at xtol + rtol |x|.

    Returns (x, evals, passed): the root, the dict of each point where g
    was called to its value, and for an accepted pass (estimate, w, g(x),
    the check's run), else None.  A bracket whose ends do not straddle
    raises unbracketed; Brent's iteration cap raises NonConvergenceError.

    The open ledger counts the work: the check and g's shots under the
    caller's module, whose functions run them, and Brent under
    ``gapmodel._scipy``, whose ``shot`` it is given.
    """
    evals = {}

    def shot(x):
        # brentq re-evaluates the bracket ends; serve them from the cache
        if x not in evals:
            evals[x] = g(x)
        return evals[x]

    if ends is not None:
        ga, gb = ends
        if ga < 0 < gb:
            w = -ga / (gb - ga)
            x = a + w * (b - a)
            r, checked = check(x)
            estimate = (2.0 * abs(r) + noise) * (b - a) / (gb - ga)
            if estimate <= accept * max(abs(x), floor):
                return x, evals, (estimate, w, r, checked)
            evals[x] = r
            a, b = (x, b) if r < 0 else (a, x)  # Brent on the root's side
        else:
            a, b = lo, hi
    if not shot(a) < 0 < shot(b):
        a, b = lo, hi
        if not shot(a) < 0 < shot(b):
            raise unbracketed
    return brent(shot, a, b, xtol=xtol, rtol=rtol), evals, None
