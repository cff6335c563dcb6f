"""Exception hierarchy for the gapmodel package.

Every error raised deliberately by the library derives from GapModelError,
so callers (and the CLI) can distinguish "the input is outside the model's
hypotheses" from "a solver gave up" without string matching.
"""


class GapModelError(Exception):
    """Base class for all gapmodel errors."""


class DomainError(GapModelError):
    """Model parameters violate a structural requirement (D <= 0, KD^2 >= pi^2, n < 1, ...)."""


class PoleError(GapModelError):
    """A kernel was evaluated at or beyond its pole (|s| >= pi/(2 sqrt(K)) for K > 0)."""


class HypothesisError(GapModelError):
    """A bound or identity was requested outside the hypotheses under which it holds."""


class BracketError(GapModelError):
    """A root bracket could not be established for a shooting parameter."""


class BlowupError(GapModelError):
    """An ODE solution left the representable range before reaching the far endpoint.

    Carries the blow-up location z and the partial solution, because the
    one-sided comparison functions are used on exactly the subinterval
    where they exist.  A truncated Riccati branch of pruefer.psi_left or
    psi_right is had only this way: partial is the branch on its interval
    of existence, which pruefer.supersolution reads.
    """

    def __init__(self, message, z=None, partial=None):
        super().__init__(message)
        self.z = z
        self.partial = partial


class CoverageError(GapModelError):
    """Pieces that must jointly cover an interval fail to do so."""


class NonConvergenceError(GapModelError):
    """An iteration exhausted its budget without meeting its tolerance.

    Used by both the eigenvalue solvers and the parabolic relaxation (the
    two callers advertise it under the same name).
    """


class SolvabilityError(GapModelError):
    """A resonant linear system in the exact expansion engine is inconsistent."""


class StabilityError(GapModelError):
    """A time step produced values outside the admissible range (incipient blow-up)."""


class OrderingViolation(GapModelError):
    """A quantity that must be monotone in a parameter failed an ordering check."""


class ScipyInternalsError(GapModelError):
    """The scipy internals gapmodel's compiled-solver wrappers read do not
    behave as the installed version was checked to: a compiled extension's
    file is missing; a directly called kernel (``_brentq``, ``_qagse``,
    ``dstebz``, ``dstein`` or ``dgtsv``) raises on its known tiny call or
    answers it wrongly; or the direct DOP853 call's return, the DOP853
    tableau, the stage calls of a step or the Fortran's call count differ.
    Raised when ``gapmodel._scipy`` is imported, which checks all of these
    as it loads; the message names scipy's version."""


def as_integer(value, minimum, requirement, maximum=float("inf")):
    """value as an int in [minimum, maximum], from an int or an integral float.

    Anything else, a bool included, raises DomainError with the requirement.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
        raise DomainError(f"{requirement}, got {value!r}")
    return value
