"""The compiled scipy solvers gapmodel calls, each wrapped in a narrower call.

``dop853_end`` runs every end-value shot: spectral's angle shots and
pruefer's end-angle shots behind ``find_ck``.
``dop853_dense`` runs pruefer's Riccati branches, each stopped at its
pole, pruefer's Robin profile, which runs to D/2 without an event,
spectral's (theta, log r) runs from -D/2 to 0, at one eigenvalue or
stacked at two, and flow's
equidistribution ODE behind ``build_grid``, stopped where the grid
reaches z = 0, and forms their dense output from the Fortran's own stages.
Every ODE gapmodel solves runs on DOP853 through these two.  Spectral's
finite-difference route takes its coarse grid's eigenvalue from
``tridiagonal_eigenvalue`` (``stebz``) and its fine grid's eigenpair from
``tridiagonal_eigenpair`` (``stebz`` + ``stein``).

scipy is imported at the top of this module and of every module that
calls it; ``import gapmodel`` and the command line import those modules
only when a command that solves runs.
"""

import warnings
from array import array
from types import SimpleNamespace

import numpy as np
from scipy.integrate import ode
from scipy.integrate._ivp import dop853_coefficients as tableau
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.optimize import brentq

# step budget of one dop853_end run; the longest angle shot within 5e-6 of
# the cap, at (n, K, D) = (8, 9.8696, 1), takes about 19k steps, and a run
# that exhausts the budget fails instead of stalling
DOP853_MAX_STEPS = 100_000


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


def dop853_dense(fun, t0, t1, y0, rtol, atol, rows, event):
    """Dense solution of y' = fun(t, y) from t0 toward t1 by the compiled DOP853.

    The Fortran ``dop853`` records t and y at t0 and at the end of every
    accepted step.  It stops at t1, or at the first step over which the
    event g(t, y) changes sign in the direction given by its ``direction``
    attribute, read as in ``solve_ivp``; event=None never stops the run.
    fun returns a sequence of len(y0) floats.  The last 12 it returns to
    the Fortran during a step are the stages K[1..11] of scipy's tableau
    and K[12], f at the step's end, and K[0] is the previous step's K[12]
    or f(t0); only K[13..15] are computed here, and the 7 coefficients of
    each step's continuous extension are formed as in scipy's ``DOP853``
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5-6).  The event's
    root is found by ``brentq`` on the stopping step's interpolant, with
    solve_ivp's tolerances.  Four callers use it: pruefer's Riccati
    branches, whose event is the angle's pole, pruefer's Robin profile and
    spectral's (theta, log r) runs, which have none, and flow's
    ``build_grid``, whose event is the grid reaching z = 0 and whose t1 is
    the cell budget.

    Returns ``t`` and ``y``, the recorded points and the states there (one
    row of y per component), ``t_event``, the root or None, and ``sol``,
    the evaluator of the given rows (see ``_dense_evaluator``) on the span
    from t0 to t_event or to the last point.  ``nfev`` counts the
    right-hand side's points: the Fortran's calls plus 3 per step.
    ``success`` and ``message`` are those of ``dop853_end``; a failed run
    has ``sol = None``.  An exception raised by fun or the event propagates.
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

    solver, _ = _dop853(recorded, t0, t1, y0, rtol, atol, solout)
    code = solver.get_return_code()
    t, y = np.array(ts), np.array(ys).T
    del ts[:], ys[:], gs[:]  # the stepper holds solout, and its lists, until its next run
    if code < 0:
        return _outcome(solver, t=t, y=y, t_event=None, sol=None)

    # stages in rows, components next, steps last; K[0..12] of a step are
    # the 13 values from the one before its K[1]
    h, t_old, y_old = np.diff(t), t[:-1], y[:, :-1]
    n, f = tableau.N_STAGES, np.frombuffer(stages).reshape(-1, dim)
    K = np.empty((tableau.N_STAGES_EXTENDED,) + y_old.shape)
    K[:n + 1] = np.lib.stride_tricks.sliding_window_view(f, n + 1, axis=0)[::n].T
    del f, stages[:]  # as the lists above
    for s in range(n + 1, len(K)):  # fun once per step, on floats
        y_s = y_old + np.tensordot(tableau.A[s, :s], K[:s], axes=1) * h
        K[s] = np.array([*map(fun, (t_old + tableau.C[s] * h).tolist(), y_s.T.tolist())]).T
    delta = y[:, 1:] - y_old
    F = np.empty((tableau.INTERPOLATOR_POWER,) + y_old.shape)
    F[0] = delta
    F[1] = h * K[0] - delta
    F[2] = 2 * delta - h * (K[n] + K[0])
    F[3:] = h * np.tensordot(tableau.D, K, axes=1)
    coeffs = F[::-1]  # coefficient, component, step; highest first

    knots, t_event = t, None
    if code == 2:  # stopped by the event
        last = _dense_evaluator(t[-2:], t_old[-1:], h[-1:], y_old[:, -1:], coeffs[:, :, -1:])
        eps4 = 4 * np.finfo(float).eps
        t_event = brentq(lambda z: event(z, last(z)), t[-2], t[-1], xtol=eps4, rtol=eps4)
        knots = np.append(t[:-1], t_event)
    sol = _dense_evaluator(knots, t_old, h, y_old[rows], coeffs[:, rows])
    return _outcome(solver, nfev=(len(K) - n - 1) * h.size,
                    t=t, y=y, t_event=t_event, sol=sol)


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
