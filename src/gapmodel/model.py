"""The one-dimensional model problem and its two equivalent forms.

Direct form (what the geometry produces):

    phi'' - (n - 1) tn(z, K) phi' + lam phi = 0   on [-D/2, D/2]

Normal form (after removing the first-order term):

    -psi'' + V psi = lam psi,
    V(z) = ((n - 1) K / 4) ((n - 3) / cs(z, K)^2 - (n - 1))

The two are conjugate under the gauge phi = cs^{-(n-1)/2} psi with the same
eigenvalue, so anything computed in one form can be checked in the other.

Parameters live in ModelParams, which validates on construction:
n is an integer >= 1, D > 0, and for K > 0 the strict cap K D^2 < pi^2
keeps the interval inside the kernel's pole (cs > 0 on [-D/2, D/2]).
For K < 0, cs(D/2)^2 = cosh(sqrt(-K) D/2)^2 must be a finite double,
which holds down to K D^2 of about -5.058e5.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, as_integer
from .kernels import cs, cs_array, cs_at, tn


@dataclass(frozen=True)
class ModelParams:
    """Dimension n (integer >= 1), curvature K, diameter D (> 0, K D^2 < pi^2).

    K D^2 below about -5.058e5 is rejected as well (DomainError): there
    cs_K(D/2)^2 overflows a double, and with it the potential, the
    Rayleigh bound's integrand and the Robin angle equation.  So is a D
    whose D^2 or (pi/D)^2 is not a finite double (D above about 1.3e154
    or below about 2.4e-154).
    """

    n: int
    K: float
    D: float

    def __post_init__(self):
        object.__setattr__(self, "n", as_integer(self.n, 1, "n must be an integer >= 1"))
        K, D = self.K, self.D
        if not (isinstance(K, (int, float)) and math.isfinite(K)):
            raise DomainError(f"K must be a finite real number, got {K!r}")
        object.__setattr__(self, "K", float(K))
        if not (isinstance(D, (int, float)) and math.isfinite(D) and D > 0):
            raise DomainError(f"D must be a finite positive number, got {D!r}")
        object.__setattr__(self, "D", float(D))
        # D^2 and (pi/D)^2 set the interval's and the eigenvalues' scales;
        # a float power that overflows raises OverflowError
        try:
            finite = math.isfinite(self.D**2 + (math.pi / self.D) ** 2)
        except OverflowError:
            finite = False
        if not finite:
            raise DomainError(f"need D^2 and (pi/D)^2 finite doubles, got D = {self.D!r}")
        if self.K * self.D**2 >= math.pi**2:
            # the potential's cs^-2 pole enters the closed interval exactly at
            # K D^2 = pi^2, so the cap is strict
            raise PoleError(
                f"need K D^2 < pi^2 strictly (K = {self.K!r}, D = {self.D!r}, "
                f"K D^2 = {self.K * self.D**2!r})"
            )
        try:
            cs(self.half, self.K) ** 2
        except OverflowError:
            raise DomainError(
                f"need cs_K(D/2)^2 finite, so K D^2 above about -5.058e5 "
                f"(K = {self.K!r}, D = {self.D!r}, K D^2 = {self.K * self.D**2!r})"
            ) from None

    @property
    def half(self):
        return self.D / 2.0

    @property
    def flat(self):
        """Whether V is constant, (n - 1)(n - 3) K = 0: n = 1, n = 3 or K = 0."""
        return (self.n - 1) * (self.n - 3) * self.K == 0


def potential(z, params):
    """Normal-form potential V at a scalar point z."""
    return potential_at(params)(float(z))


def potential_at(params):
    """z -> potential(z, params), with the coefficients and cs_at(K) bound once."""
    n, K = params.n, params.K
    a, b, d = (n - 1) * K / 4.0, n - 3, n - 1
    cs_K = cs_at(K)

    def V(z):
        c = cs_K(z)
        return a * (b / (c * c) - d)

    return V


def potential_array(z, params):
    """Normal-form potential V on an array of points."""
    n, K = params.n, params.K
    c = cs_array(z, K)
    return ((n - 1) * K / 4.0) * ((n - 3) / (c * c) - (n - 1))


def validate(params):
    """The one parameter coercer: every entry point starts with params = validate(params).

    Returns a ModelParams unchanged (it validated on construction) or builds
    one from an (n, K, D) triple.
    """
    if isinstance(params, ModelParams):
        return params
    n, K, D = params
    return ModelParams(n=n, K=K, D=D)


def check_index(index):
    """index as the int 1 or 2, from an int or an integral float; else
    DomainError.  The one index rule of the eigenvalue routes and bounds."""
    return as_integer(index, 1, "index must be 1 or 2", maximum=2)


def flat_eigenvalue(params, index):
    """(index pi / D)^2, the index-th Dirichlet eigenvalue of the flat interval.

    ModelParams keeps (pi / D)^2 a finite double, but (2 pi / D)^2
    overflows for D between about 2.35e-154 and 4.68e-154; there index 2
    raises DomainError instead of OverflowError.
    """
    try:
        return (index * math.pi / params.D) ** 2
    except OverflowError:
        raise DomainError(f"eigenvalue {index} exceeds the largest double "
                          f"at D = {params.D:g}") from None


def model_rhs(s, phi, dphi, lam, params):
    """phi'' at a point, from phi'' - (n-1) tn phi' + lam phi = 0."""
    return (params.n - 1) * tn(s, params.K) * dphi - lam * phi


def gauge_factor(z, params):
    """cs^{-(n-1)/2} at a scalar point: multiplies normal-form values into direct-form ones."""
    n, K = params.n, params.K
    return cs(z, K) ** (-(n - 1) / 2.0)


def gauge_transform(gf, params, direction):
    """Apply the gauge to a GridFunction: "to_direct" multiplies its values
    by cs^{-(n-1)/2} at its points, "to_normal" divides them by it."""
    if direction not in ("to_direct", "to_normal"):
        raise DomainError(f"direction must be 'to_direct' or 'to_normal', got {direction!r}")
    factor = cs_array(gf.z, params.K) ** (-(params.n - 1) / 2.0)
    vals = gf.values * factor if direction == "to_direct" else gf.values / factor
    return GridFunction(z=gf.z.copy(), values=vals)


@dataclass
class GridFunction:
    """Samples of a function on a 1-D grid, with the sup-distance the tests use."""

    z: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.z.shape != self.values.shape:
            raise DomainError(
                f"grid and values shapes differ: {self.z.shape} vs {self.values.shape}"
            )

    def sup_distance(self, other):
        if isinstance(other, GridFunction):
            if other.z.shape != self.z.shape or not np.allclose(
                other.z, self.z, rtol=0.0, atol=0.0
            ):
                raise DomainError("sup_distance requires identical grids")
            other = other.values
        return float(np.max(np.abs(self.values - np.asarray(other, dtype=float))))
