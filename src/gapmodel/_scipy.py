"""The scipy solvers gapmodel calls, imported on their first call.

Importing scipy.integrate, scipy.optimize and scipy.linalg takes most of a
second, and the exact series engine, ``gapmodel series`` and ``--help``
need none of them.  Each forwarder imports scipy's function when it is
called; ``solve_ivp``, ``quad``, ``brentq`` and ``solve_banded`` pass their
arguments and result through unchanged, while ``dop853_end``,
``dop853_dense``, ``lsoda_samples`` and ``tridiagonal_eigenpair`` wrap
compiled routines in a narrower call.  ``dop853_end`` runs every
end-value shot: spectral's angle shots and ``ball_first_eigen``'s radial
solve, and pruefer's end-angle shots behind ``find_ck``.
``dop853_dense`` runs pruefer's Riccati branches, each stopped at its
pole, and flow's equidistribution ODE behind ``build_grid``, stopped where
the grid reaches z = 0, and rebuilds their dense output from the Fortran
steps.
``solve_ivp`` is left with pruefer's Robin profile, whose dense output
``dop853_interpolant`` evaluates for many points at once; both dense
paths share one evaluator.  ``tridiagonal_eigenpair`` gives spectral's
finite-difference route each eigenvalue and its eigenvector from one
``stebz`` + ``stein`` call; ``solve_banded`` serves flow alone.  Modules
bind these names at import time (``from ._scipy import solve_ivp``), so
each solver stays a module attribute that can be rebound or patched.
"""

from types import SimpleNamespace

# step budget of one dop853_end run; the longest angle shot within 5e-6 of
# the cap, at (n, K, D) = (8, 9.8696, 1), takes about 19k steps, and a run
# that exhausts the budget fails instead of stalling
DOP853_MAX_STEPS = 100_000

# step budget of lsoda_samples between two neighbouring points; the last of
# the 1000 intervals of an eigenfunction shot within 5e-6 of the cap takes
# up to 23k steps, at (n, K, D) = (12, 9.8696, 1), and a run that exhausts
# the budget fails instead of stepping on into a blow-up
LSODA_MAX_STEPS = 50_000


def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _dop853(fun, t0, t1, y0, rtol, atol, solout=None):
    """Scipy's Fortran ``dop853`` run from y(t0) = y0 toward t1.

    Returns the stepper and the state it ended on.  A negative return code
    is left to the caller instead of scipy's warning; an exception raised by
    fun or solout propagates.
    """
    import warnings

    from scipy.integrate import ode

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
    attribute, read as in ``solve_ivp``.  All 16 stages of every step are
    then rebuilt at once from the recorded states by fun_array, the
    right-hand side evaluated on a (len(y0), steps) array, one column per
    step, and the 7 coefficients of each step's continuous extension are
    formed as in scipy's ``DOP853`` (Hairer, Norsett & Wanner, Solving
    ODEs I, sec. II.5-6).  The event's root is found by ``brentq`` on the
    stopping step's interpolant, with solve_ivp's tolerances.  Two callers
    use it: pruefer's Riccati branches, whose event is the angle's pole,
    and flow's ``build_grid``, whose event is the grid reaching z = 0 and
    whose t1 is the cell budget.

    Returns ``t`` and ``y``, the recorded points and the states there (one
    row of y per component), ``t_event``, the root or None, and ``sol``,
    the evaluator of the given rows (see ``dop853_interpolant``) on the
    span from t0 to t_event or to the last point.  ``nfev`` counts the
    right-hand side's points: the Fortran calls plus the rebuilt stages.
    ``success`` and ``message`` are those of ``dop853_end``; a failed run
    has ``sol = None``.  An exception raised by fun, fun_array or the event
    propagates.
    """
    import numpy as np

    from scipy.integrate._ivp import dop853_coefficients as tableau

    ts, ys, gs = [], [], []

    def solout(t, y):
        ts.append(t)
        ys.append(y.copy())
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
    # step, component; and coefficient, step, component, highest first
    starts, coeffs = y_old.T, F[::-1].transpose(0, 2, 1)

    knots, t_event = t, None
    if code == 2:  # stopped by the event
        from scipy.optimize import brentq

        last = _dense_evaluator(t[-2:], t_old[-1:], h[-1:], starts[-1:], coeffs[:, -1:])
        eps4 = 4 * np.finfo(float).eps
        t_event = brentq(lambda z: event(z, last(z)), t[-2], t[-1], xtol=eps4, rtol=eps4)
        knots = np.append(t[:-1], t_event)
    sol = _dense_evaluator(knots, t_old, h, starts[:, rows], coeffs[:, :, rows])
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
    import warnings

    from scipy.integrate import ODEintWarning, odeint

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


def dop853_interpolant(solution, rows):
    """Evaluator z -> rows of y(z) for one DOP853 dense solution, in one pass.

    solution is the ``sol`` of ``solve_ivp(..., method="DOP853",
    dense_output=True)``.  The given rows of every step's interpolant are
    gathered once; a call then picks each point's step with one
    ``searchsorted`` and runs the Horner loop of scipy's
    ``Dop853DenseOutput`` on all points together, where scipy's
    ``OdeSolution`` walks the points step by step in Python.  The step
    rule (side, ascending, clip to the first and last step) and the order
    of every floating-point operation are scipy's, so the result equals
    ``solution(z)[rows]`` bit for bit.  z is a scalar or a 1-D array, and
    the result has shape (len(rows),) + shape of z.
    """
    import numpy as np

    steps = solution.interpolants
    return _dense_evaluator(
        solution.ts,
        np.array([s.t_old for s in steps]),
        np.array([s.h for s in steps]),
        np.array([s.y_old[rows] for s in steps]),
        # scipy's reversed(F), highest coefficient first
        np.array([s.F[::-1][:, rows] for s in steps]).transpose(1, 0, 2),
    )


def _dense_evaluator(ts, t_old, h, y_old, coeffs):
    """The evaluator behind ``dop853_interpolant`` and ``dop853_dense``.

    ts are the knots in the order of integration; t_old and h hold each
    step's start and length, y_old its start state (step, row), and
    coeffs its continuous-extension coefficients (coefficient, step, row),
    highest first.  A point takes its step as scipy's ``OdeSolution``
    does.
    """
    import numpy as np

    ascending = ts[-1] >= ts[0]
    ts, side = (ts, "left") if ascending else (ts[::-1], "right")
    last = len(t_old) - 1

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        t = z.reshape(-1)
        step = np.clip(np.searchsorted(ts, t, side=side) - 1, 0, last)
        if not ascending:
            step = last - step
        x = ((t - t_old[step]) / h[step])[:, None]
        y = np.zeros((t.size, y_old.shape[1]))
        for i, f in enumerate(coeffs):
            y += f[step]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += y_old[step]
        return y.T.reshape((y_old.shape[1],) + z.shape)

    return evaluate


def quad(*args, **kwargs):
    from scipy.integrate import quad

    return quad(*args, **kwargs)


def brentq(*args, **kwargs):
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


def solve_banded(*args, **kwargs):
    from scipy.linalg import solve_banded

    return solve_banded(*args, **kwargs)


def tridiagonal_eigenpair(d, e, index, tol):
    """index-th smallest eigenpair (1-based) of a symmetric tridiagonal matrix.

    d is the diagonal and e the off-diagonal.  One ``eigh_tridiagonal``
    call: LAPACK's ``stebz`` bisects on Sturm counts until the eigenvalue
    lies in an interval no wider than max(tol, 2 eps |lam|) and returns its
    midpoint, and ``stein`` finds its unit eigenvector by inverse
    iteration.  Returns (lam, v); a failure of either raises
    ``numpy.linalg.LinAlgError``.
    """
    from scipy.linalg import eigh_tridiagonal

    w, v = eigh_tridiagonal(
        d, e, select="i", select_range=(index - 1, index - 1),
        lapack_driver="stebz", tol=tol)
    return float(w[0]), v[:, 0]
