"""The scipy solvers gapmodel calls, imported on their first call.

Importing scipy.integrate, scipy.optimize and scipy.linalg takes most of a
second, and the exact series engine, ``gapmodel series`` and ``--help``
need none of them.  Each forwarder imports scipy's function when it is
called; ``solve_ivp``, ``quad``, ``brentq`` and ``solve_banded`` pass their
arguments and result through unchanged, while ``dop853_end``,
``lsoda_samples`` and ``tridiagonal_eigenvalue`` wrap one compiled routine
each in a narrower call.  ``dop853_end`` runs every end-value shot:
spectral's angle shots and ``ball_first_eigen``'s radial solve, and
pruefer's end-angle shots behind ``find_ck``.  ``solve_ivp`` is left with
pruefer's two dense solves, a Riccati branch with its pole event and the
Robin profile, and ``dop853_interpolant`` evaluates their dense output
for many points at once.  Modules bind these names at import time
(``from ._scipy import solve_ivp``), so each solver stays a module
attribute that can be rebound or patched.
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


def dop853_end(fun, t0, t1, y0, rtol, atol):
    """End state of y' = fun(t, y) from t0 to t1 by Hairer's compiled DOP853.

    Runs scipy's Fortran ``dop853`` (``scipy.integrate.ode``) and returns
    the attribute names of ``solve_ivp``'s result: ``t`` and ``y`` are the
    point reached and the state there, ``nfev`` counts right-hand-side
    calls, and ``success`` and ``message`` report the return code.  A
    negative code (step budget exhausted, step size too small, or a
    stiffness interrupt) gives ``success = False`` with scipy's message
    instead of scipy's warning.  An exception raised by fun propagates.
    """
    import warnings

    from scipy.integrate import ode

    solver = ode(fun).set_integrator("dop853", rtol=rtol, atol=atol,
                                     nsteps=DOP853_MAX_STEPS)
    solver.set_initial_value(y0, t0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="dop853: ", category=UserWarning)
        try:
            y = solver.integrate(t1)
        except ValueError as exc:
            # the Fortran wrapper reports an exception raised by fun as a
            # ValueError about fun's return value; raise fun's own exception
            while exc.__context__ is not None:
                exc = exc.__context__
            raise exc from None
    code = solver.get_return_code()
    dop = solver._integrator
    return SimpleNamespace(
        t=solver.t, y=y, success=code > 0, nfev=int(dop.iwork[16]),  # NFCN
        message=dop.messages.get(code, f"unexpected return code {code}"),
    )


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
    t_old = np.array([s.t_old for s in steps])
    h = np.array([s.h for s in steps])
    y_old = np.array([s.y_old[rows] for s in steps])
    # coefficient, step, row; highest coefficient first, as scipy's reversed(F)
    coeffs = np.array([s.F[::-1][:, rows] for s in steps]).transpose(1, 0, 2)
    ts, side, ascending = solution.ts_sorted, solution.side, solution.ascending
    last = len(steps) - 1

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        t = z.reshape(-1)
        step = np.clip(np.searchsorted(ts, t, side=side) - 1, 0, last)
        if not ascending:
            step = last - step
        x = ((t - t_old[step]) / h[step])[:, None]
        y = np.zeros((t.size, len(rows)))
        for i, f in enumerate(coeffs):
            y += f[step]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += y_old[step]
        return y.T.reshape((len(rows),) + z.shape)

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


def tridiagonal_eigenvalue(d, e, index, tol):
    """index-th smallest eigenvalue (1-based) of a symmetric tridiagonal matrix.

    d is the diagonal and e the off-diagonal.  LAPACK's ``stebz`` bisects on
    Sturm counts until the eigenvalue lies in an interval no wider than
    max(tol, 2 eps |lam|) and returns its midpoint; a failure raises
    ``numpy.linalg.LinAlgError``.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    return float(eigvalsh_tridiagonal(
        d, e, select="i", select_range=(index - 1, index - 1),
        lapack_driver="stebz", tol=tol)[0])
