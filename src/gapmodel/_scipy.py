"""The compiled scipy solvers gapmodel calls, each wrapped in a narrower call.

``dop853_end`` runs every end-value shot: spectral's angle shots and
``ball_first_eigen``'s radial solve, and pruefer's end-angle shots behind
``find_ck``.
``dop853_dense`` runs pruefer's Riccati branches, each stopped at its
pole, pruefer's Robin profile, which runs to D/2 without an event, and
flow's equidistribution ODE behind ``build_grid``, stopped where the grid
reaches z = 0, and rebuilds their dense output from the Fortran steps.
``lsoda_samples`` samples spectral's eigenfunction shot.  Spectral's
finite-difference route takes its coarse grid's eigenvalue from
``tridiagonal_eigenvalue`` (``stebz``) and its fine grid's eigenpair from
``tridiagonal_eigenpair`` (``stebz`` + ``stein``).

scipy is imported at the top of this module and of every module that
calls it; ``import gapmodel`` and the command line import those modules
only when a command that solves runs.
"""

import warnings
from types import SimpleNamespace

import numpy as np
from scipy.integrate import ODEintWarning, ode, odeint
from scipy.integrate._ivp import dop853_coefficients as tableau
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.optimize import brentq

# step budget of one dop853_end run; the longest angle shot within 5e-6 of
# the cap, at (n, K, D) = (8, 9.8696, 1), takes about 19k steps, and a run
# that exhausts the budget fails instead of stalling
DOP853_MAX_STEPS = 100_000

# step budget of lsoda_samples between two neighbouring points; the last of
# the 1000 intervals of an eigenfunction shot within 5e-6 of the cap takes
# up to 23k steps, at (n, K, D) = (12, 9.8696, 1), and a run that exhausts
# the budget fails instead of stepping on into a blow-up
LSODA_MAX_STEPS = 50_000


def _dop853(fun, t0, t1, y0, rtol, atol, solout=None):
    """Scipy's Fortran ``dop853`` run from y(t0) = y0 toward t1.

    Returns the stepper and the state it ended on.  A negative return code
    is left to the caller instead of scipy's warning; an exception raised by
    fun or solout propagates.
    """
    solver = ode(fun).set_integrator("dop853", rtol=rtol, atol=atol,
                                     nsteps=DOP853_MAX_STEPS)
    if solout is not None:
        solver.set_solout(solout)
    solver.set_initial_value(y0, t0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="dop853: ", category=UserWarning)
        try:
            y = solver.integrate(t1)
        except ValueError as exc:
            # the Fortran wrapper reports an exception raised by a callback
            # as a ValueError about fun's return value; raise the callback's own
            while exc.__context__ is not None:
                exc = exc.__context__
            raise exc from None
    return solver, y


def _outcome(solver, nfev=0, **fields):
    """``solve_ivp``'s result fields from a finished ``_dop853`` run."""
    code = solver.get_return_code()
    dop = solver._integrator
    return SimpleNamespace(
        success=code > 0, nfev=int(dop.iwork[16]) + nfev,  # NFCN
        message=dop.messages.get(code, f"unexpected return code {code}"), **fields,
    )


def dop853_end(fun, t0, t1, y0, rtol, atol):
    """End state of y' = fun(t, y) from t0 to t1 by Hairer's compiled DOP853.

    Runs scipy's Fortran ``dop853`` (``scipy.integrate.ode``) and returns
    the attribute names of ``solve_ivp``'s result: ``t`` and ``y`` are the
    point reached and the state there, ``nfev`` counts right-hand-side
    calls, and ``success`` and ``message`` report the return code.  A
    negative code (step budget exhausted, step size too small, or a
    stiffness interrupt) gives ``success = False`` with scipy's message
    instead of scipy's warning.  An exception raised by fun propagates.
    For a one-component y, fun may return a bare float instead of a
    one-element list; the run, its y and its nfev are the same, and the
    angle shots rely on this to skip building a list per call.
    """
    solver, y = _dop853(fun, t0, t1, y0, rtol, atol)
    return _outcome(solver, t=solver.t, y=y)


def dop853_dense(fun, fun_array, t0, t1, y0, rtol, atol, rows, event):
    """Dense solution of y' = fun(t, y) from t0 toward t1 by the compiled DOP853.

    The Fortran ``dop853`` records t and y at t0 and at the end of every
    accepted step.  It stops at t1, or at the first step over which the
    event g(t, y) changes sign in the direction given by its ``direction``
    attribute, read as in ``solve_ivp``; event=None never stops the run.
    All 16 stages of every step are then rebuilt at once from the recorded
    states by fun_array, the right-hand side evaluated on a (len(y0),
    steps) array, one column per step, and the 7 coefficients of each
    step's continuous extension are formed as in scipy's ``DOP853``
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5-6).  The event's
    root is found by ``brentq`` on the stopping step's interpolant, with
    solve_ivp's tolerances.  Three callers use it: pruefer's Riccati
    branches, whose event is the angle's pole, pruefer's Robin profile,
    which has none, and flow's ``build_grid``, whose event is the grid
    reaching z = 0 and whose t1 is the cell budget.

    Returns ``t`` and ``y``, the recorded points and the states there (one
    row of y per component), ``t_event``, the root or None, and ``sol``,
    the evaluator of the given rows (see ``_dense_evaluator``) on the span
    from t0 to t_event or to the last point.  ``nfev`` counts the
    right-hand side's points: the Fortran calls plus the rebuilt stages.
    ``success`` and ``message`` are those of ``dop853_end``; a failed run
    has ``sol = None``.  An exception raised by fun, fun_array or the event
    propagates.
    """
    ts, ys, gs = [], [], []

    def solout(t, y):
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

    solver, _ = _dop853(fun, t0, t1, y0, rtol, atol, solout)
    code = solver.get_return_code()
    t, y = np.array(ts), np.array(ys).T
    if code < 0:
        return _outcome(solver, t=t, y=y, t_event=None, sol=None)

    # stages in rows, components next, steps last; f at a knot ends one
    # step (stage 12) and starts the next (stage 0)
    h, t_old, y_old = np.diff(t), t[:-1], y[:, :-1]
    f = np.asarray(fun_array(t, y), dtype=float)
    K = np.empty((tableau.N_STAGES_EXTENDED,) + y_old.shape)
    K[0], K[tableau.N_STAGES] = f[:, :-1], f[:, 1:]
    for s in (*range(1, tableau.N_STAGES), *range(tableau.N_STAGES + 1, len(K))):
        dy = np.tensordot(tableau.A[s, :s], K[:s], axes=1) * h
        K[s] = fun_array(t_old + tableau.C[s] * h, y_old + dy)
    delta = y[:, 1:] - y_old
    F = np.empty((tableau.INTERPOLATOR_POWER,) + y_old.shape)
    F[0] = delta
    F[1] = h * K[0] - delta
    F[2] = 2 * delta - h * (K[tableau.N_STAGES] + K[0])
    F[3:] = h * np.tensordot(tableau.D, K, axes=1)
    coeffs = F[::-1]  # coefficient, component, step; highest first

    knots, t_event = t, None
    if code == 2:  # stopped by the event
        last = _dense_evaluator(t[-2:], t_old[-1:], h[-1:], y_old[:, -1:], coeffs[:, :, -1:])
        eps4 = 4 * np.finfo(float).eps
        t_event = brentq(lambda z: event(z, last(z)), t[-2], t[-1], xtol=eps4, rtol=eps4)
        knots = np.append(t[:-1], t_event)
    sol = _dense_evaluator(knots, t_old, h, y_old[rows], coeffs[:, rows])
    # the rebuild evaluates fun_array once per knot and 14 times per step
    return _outcome(solver, nfev=t.size + (len(K) - 2) * h.size,
                    t=t, y=y, t_event=t_event, sol=sol)


def lsoda_samples(fun, t, y0, rtol, atol):
    """Samples of y' = fun(t, y) at the increasing points t by ODEPACK's LSODA.

    One call of scipy's compiled ``odeint`` from y(t[0]) = y0, with
    tcrit = t[-1] so that no step passes the last point, where fun may have
    a pole.  Returns the attribute names of ``solve_ivp``'s result: ``t``
    and ``y`` are the points reached and the states there, one row of y per
    component; ``nfev`` counts right-hand-side calls, and ``success`` and
    ``message`` report LSODA's outcome.  A failure (excess work, excess
    accuracy requested, ...) gives ``success = False`` with LSODA's message
    instead of scipy's warning, and t and y end before the first point not
    reached.  An exception raised by fun propagates.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=ODEintWarning)
        y, info = odeint(fun, y0, t, rtol=rtol, atol=atol, tcrit=[t[-1]],
                         mxstep=LSODA_MAX_STEPS, full_output=True, tfirst=True)
    message = info["message"]
    if message == "Integration successful.":
        return SimpleNamespace(t=t, y=y.T, nfev=int(info["nfe"][-1]),
                               success=True, message=message)
    # odeint fills its per-point records in order and stops at the point it
    # fails to reach, the first whose record shows LSODA's time tcur short
    # of it; nothing past that record is written
    k = int((info["tcur"] < t[1:]).argmax()) + 1
    return SimpleNamespace(t=t[:k], y=y[:k].T, nfev=int(info["nfe"][k - 1]),
                           success=False, message=message)


def _dense_evaluator(ts, t_old, h, y_old, coeffs):
    """z -> the rows of y(z) on the dense output of ``dop853_dense``.

    ts are the knots in the order of integration; t_old and h hold each
    step's start and length, y_old its start state (row, step), and
    coeffs its continuous-extension coefficients (coefficient, row, step),
    highest first.  A point takes its step as scipy's ``OdeSolution``
    does.  Each coefficient's values at the points' steps are gathered by
    one ``take`` from its rows, which run contiguously over the steps, and
    1 - x is formed once per call.
    """
    ascending = ts[-1] >= ts[0]
    ts, side = (ts, "left") if ascending else (ts[::-1], "right")
    last = len(t_old) - 1

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        t = z.reshape(-1)
        step = np.searchsorted(ts, t, side=side)
        step -= 1
        np.clip(step, 0, last, out=step)
        if not ascending:
            np.subtract(last, step, out=step)
        x = (t - t_old.take(step)) / h.take(step)
        one_minus_x = 1 - x
        gathered = np.empty((len(y_old), t.size))
        y = np.zeros_like(gathered)
        # the steps are in range; take's default mode="raise" would gather
        # into a temporary copy and then copy that into out
        for i, f in enumerate(coeffs):
            y += f.take(step, axis=1, out=gathered, mode="clip")
            y *= one_minus_x if i % 2 else x
        y += y_old.take(step, axis=1, out=gathered, mode="clip")
        return y.reshape((len(y_old),) + z.shape)

    return evaluate


def tridiagonal_eigenpair(d, e, index, tol):
    """index-th smallest eigenpair (1-based) of a symmetric tridiagonal matrix.

    d is the diagonal and e the off-diagonal.  One ``eigh_tridiagonal``
    call: LAPACK's ``stebz`` bisects on Sturm counts until the eigenvalue
    lies in an interval no wider than max(tol, 2 eps |lam|) and returns its
    midpoint, and ``stein`` finds its unit eigenvector by inverse
    iteration.  Returns (lam, v); a failure of either raises
    ``numpy.linalg.LinAlgError``.
    """
    w, v = eigh_tridiagonal(
        d, e, select="i", select_range=(index - 1, index - 1),
        lapack_driver="stebz", tol=tol)
    return float(w[0]), v[:, 0]


def tridiagonal_eigenvalue(d, e, index, tol):
    """index-th smallest eigenvalue (1-based) of a symmetric tridiagonal matrix.

    The value ``tridiagonal_eigenpair`` returns, from the same ``stebz``
    call through ``eigvalsh_tridiagonal``, without ``stein``'s eigenvector.
    A failure raises ``numpy.linalg.LinAlgError``.
    """
    w = eigvalsh_tridiagonal(d, e, select="i", select_range=(index - 1, index - 1),
                             lapack_driver="stebz", tol=tol)
    return float(w[0])
