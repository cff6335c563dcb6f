"""Closed-form eigenvalue bounds.

Upper bounds come from the Rayleigh quotient of the normal form with the
flat-model test functions cos(pi x/D) and sin(2 pi x/D); the potential term
reduces to a single quadrature of cs_K(x)^-2 against the squared test
function.  V is even, so min-max on each parity class makes these upper
bounds for every K; shooting uses them to cap its brackets.  Lower bounds
come from the comparison sec^2 >= 1, which needs K > 0 and n >= 3 to keep
the inequality pointing the right way.

For n = 2 there are explicit quartic-in-K upper bounds obtained by feeding
the minorant sec^2 t >= 1 + t^2 + 2 t^4 / 3 into the same Rayleigh quotient
(the sign of (n-1)(n-3) flips the direction, so a minorant of the integrand
majorizes the quotient).
"""

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import HypothesisError, OrderingViolation
from .kernels import cs_at
from .model import check_index, flat_eigenvalue, validate


@dataclass(frozen=True)
class BoundReport:
    lower: float
    upper: float
    target: int
    lower_method: str
    upper_method: str


def _require(params, index, need_n3=False, need_K_positive=True):
    """index as the int 1 or 2, from an int or an integral float, else
    DomainError; then HypothesisError unless params meet the bound's
    hypotheses."""
    index = check_index(index)
    if need_K_positive and not (params.K > 0):
        raise HypothesisError(f"bounds require K > 0, got K = {params.K}")
    if need_n3 and params.n < 3:
        raise HypothesisError(
            f"lower bounds require n >= 3 (sec^2 >= 1 comparison), got n = {params.n}"
        )
    return index


def lambda_lower(params, index):
    """Comparison lower bound (index pi/D)^2 - (n-1)K/2, valid for K>0, n>=3.

    A (index pi/D)^2 that overflows a double raises DomainError
    (model.flat_eigenvalue), here and in lambda_upper_rayleigh.
    """
    params = validate(params)
    index = _require(params, index, need_n3=True)
    return flat_eigenvalue(params, index) - (params.n - 1) * params.K / 2.0


def lambda_upper_rayleigh(params, index):
    """Rayleigh upper bound with the flat test function of the given index.

    (index pi/D)^2 - (n-1)^2 K/4 + ((n-1)(n-3) K/D) * I, where I integrates
    cs_K(x)^-2 against cos^2(pi x/D) (index 1) or sin^2(2 pi x/D) (index 2)
    over [0, D/2], by adaptive quadrature to 1e-12 absolute.  Valid for
    every K; exact when (n-1)(n-3)K = 0, where V is constant and no
    quadrature runs.
    """
    params = validate(params)
    index = _require(params, index, need_K_positive=False)
    n, K, D = params.n, params.K, params.D
    flat = flat_eigenvalue(params, index) - (n - 1) ** 2 * K / 4.0
    if params.flat:
        return flat
    if index == 1:
        weight = lambda x: math.cos(math.pi * x / D) ** 2
    else:
        weight = lambda x: math.sin(2 * math.pi * x / D) ** 2
    cs_K = cs_at(K)
    integrand = lambda x: weight(x) / cs_K(x) ** 2
    val, est = quad(integrand, 0.0, D / 2, epsabs=1e-12, epsrel=1e-12, limit=200)
    return flat + (n - 1) * (n - 3) * K / D * val


def bound_report(params, index):
    """Two-sided report for K > 0, n >= 3; raises if the sandwich inverts."""
    params = validate(params)
    index = _require(params, index, need_n3=True)
    lo = lambda_lower(params, index)
    hi = lambda_upper_rayleigh(params, index)
    if lo > hi:
        raise OrderingViolation(
            f"lower bound {lo:.12g} exceeds upper bound {hi:.12g} "
            f"for index {index} at n={params.n}, K={params.K}, D={params.D}"
        )
    return BoundReport(lower=lo, upper=hi, target=index,
                       lower_method="comparison", upper_method="rayleigh")


# per index: the flat factor, the constant of the K^2 term and the constants
# of the K^3 and K^4 terms' polynomials in pi^2, with the K^4 term's divisor
_N2_QUARTIC = {
    1: (1.0, 6.0, (120.0, 20.0), (1.0, 840.0, 5040.0), 80640.0),
    2: (4.0, 1.5, (7.5, 5.0), (4.0, 210.0, 315.0), 322560.0),
}


def _n2_upper(index, K, D):
    """The quartic-in-K upper bound on the index-th eigenvalue at n = 2."""
    flat, c2, (a3, b3), (a4, b4, c4), d4 = _N2_QUARTIC[index]
    pi2 = math.pi**2
    return (
        flat * pi2 / D**2
        - K / 2.0
        - (pi2 - c2) * D**2 * K**2 / (48.0 * pi2)
        - (a3 - b3 * pi2 + pi2**2) * D**4 * K**3 / (480.0 * pi2**2)
        - 17.0 * (a4 * pi2**3 - 42.0 * pi2**2 + b4 * pi2 - c4) * D**6 * K**4 / (d4 * pi2**3)
    )


def explicit_n2_bounds(params):
    """Quartic-in-K upper bounds for both eigenvalues at n = 2.

    Returns a pair of BoundReports (target 1 and target 2).  No closed-form
    lower bound exists on this side of the dichotomy, so the lower fields
    are -inf with a method tag saying why.
    """
    params = validate(params)
    if params.n != 2:
        raise HypothesisError(f"explicit quartic bounds are the n = 2 case, got n = {params.n}")
    _require(params, 1)  # K > 0, shared with the index-wise bounds
    K, D = params.K, params.D
    return tuple(
        BoundReport(lower=-math.inf, upper=_n2_upper(index, K, D), target=index,
                    lower_method="none (comparison argument needs n >= 3)",
                    upper_method="quartic minorant")
        for index in (1, 2)
    )
