"""The four scipy solvers gapmodel calls, imported on their first call.

Importing scipy.integrate, scipy.optimize and scipy.linalg takes most of a
second, and the exact series engine, ``gapmodel series`` and ``--help``
need none of them.  Each forwarder imports scipy's function when it is
called and passes its arguments and result through unchanged.  Modules bind
these names at import time (``from ._scipy import solve_ivp``), so each
solver stays a module attribute that can be rebound or patched.
"""


def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def quad(*args, **kwargs):
    from scipy.integrate import quad

    return quad(*args, **kwargs)


def brentq(*args, **kwargs):
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


def solve_banded(*args, **kwargs):
    from scipy.linalg import solve_banded

    return solve_banded(*args, **kwargs)
