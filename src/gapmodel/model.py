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

from .errors import DomainError, PoleError
from .kernels import cs, cs_array, cs_at, tn


@dataclass(frozen=True)
class ModelParams:
    """Dimension n (integer >= 1), curvature K, diameter D (> 0, K D^2 < pi^2).

    K D^2 below about -5.058e5 is rejected as well (DomainError): there
    cs_K(D/2)^2 overflows a double, and with it the potential, the
    Rayleigh bound's integrand and the Robin angle equation.
    """

    n: int
    K: float
    D: float

    def __post_init__(self):
        n, K, D = self.n, self.K, self.D
        if isinstance(n, bool) or not isinstance(n, int):
            if isinstance(n, float) and n.is_integer():
                object.__setattr__(self, "n", int(n))
                n = int(n)
            else:
                raise DomainError(f"n must be an integer >= 1, got {n!r}")
        if n < 1:
            raise DomainError(f"n must be an integer >= 1, got {n!r}")
        if not (isinstance(K, (int, float)) and math.isfinite(K)):
            raise DomainError(f"K must be a finite real number, got {K!r}")
        object.__setattr__(self, "K", float(K))
        if not (isinstance(D, (int, float)) and math.isfinite(D) and D > 0):
            raise DomainError(f"D must be a finite positive number, got {D!r}")
        object.__setattr__(self, "D", float(D))
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


def model_rhs(s, phi, dphi, lam, params):
    """phi'' at a point, from phi'' - (n-1) tn phi' + lam phi = 0."""
    return (params.n - 1) * tn(s, params.K) * dphi - lam * phi


def normal_rhs(lam, params):
    """First-order system for the normal form: y = (psi, psi')."""
    V = potential_at(params)

    def rhs(z, y):
        return (y[1], (V(z) - lam) * y[0])

    return rhs


def gauge_factor(z, params):
    """cs^{-(n-1)/2} at a scalar point: multiplies normal-form values into direct-form ones."""
    n, K = params.n, params.K
    return cs(z, K) ** (-(n - 1) / 2.0)


def gauge_factor_array(z, params):
    n, K = params.n, params.K
    return cs_array(z, K) ** (-(n - 1) / 2.0)


def to_direct(z, normal_values, params):
    """Map normal-form samples to direct-form samples on the same points."""
    return np.asarray(normal_values, dtype=float) * gauge_factor_array(z, params)


def to_normal(z, direct_values, params):
    """Map direct-form samples to normal-form samples on the same points."""
    return np.asarray(direct_values, dtype=float) / gauge_factor_array(z, params)


def gauge_transform(gf, params, direction):
    """Apply the gauge to a GridFunction; direction is "to_direct" or "to_normal"."""
    if direction == "to_direct":
        vals = to_direct(gf.z, gf.values, params)
    elif direction == "to_normal":
        vals = to_normal(gf.z, gf.values, params)
    else:
        raise DomainError(f"direction must be 'to_direct' or 'to_normal', got {direction!r}")
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
