"""Dirichlet eigenvalues of the one-dimensional model by two independent routes.

The primary route shoots the scaled Prüfer angle of the Schrödinger normal
form, the angle of (S psi, psi') for a fixed scale S > 0:

    theta' = S cos^2(theta) + ((lam - V(z)) / S) sin^2(theta),
    theta(-D/2) = 0,

whose value at each z > -D/2 is strictly increasing in lam for every
S > 0.  The angle is linear in z where lam - V = S^2, so each eigenvalue
solve fits S to the eigenvalue it brackets: S^2 = hi - V(0), the squared
local wavenumber at the midpoint z = 0 where the target angle is read,
with hi the bracket's upper end, and never below (pi / D)^2.  The
integrator's steps then follow the oscillation rather than the size of
lam, and the angle's noise stays independent of D; with the fixed
S = pi / D the index-2 angle sped up and slowed down four-fold on every
half turn (the standard scaled-Prüfer remedy, Pryce, Numerical Solution
of Sturm-Liouville Problems, 1993, ch. 5).  For n >= 4, V(0) is the
minimum of V and S the largest wavenumber; fitting S to max V instead
kept it near pi / D wherever V spans a wide range (at (8, 12, 0.5),
V runs from -42 to 103), and a scale varying with z cost more steps on
the benchmark sweep.  For n = 2, V(0) is the maximum of V; for n = 1,
n = 3 or K = 0, V is constant.

V is even, so the index-th eigenfunction has parity (-1)^(index-1), and
the condition theta(D/2) = index*pi is the same as the midpoint condition
theta(0) = index*pi/2, whatever S is.  Shooting therefore integrates
only [-D/2, 0], inward from the endpoint, and matches at z = 0; each angle
shot runs Hairer's compiled DOP853 (_scipy.dop853_end) and keeps only the
end state.  Its right-hand side evaluates V through the closure
model.potential_at builds once per shot and returns theta' as a bare
float.  The eigenfunction returned with the eigenvalue checks the parity
this assumes: one (y, y') shot across the whole interval, sampled at 1001
points by one compiled LSODA call (_scipy.lsoda_samples), whose
right-hand side (model.normal_rhs) builds its own potential_at closure.

Brent's method finds the root of the midpoint angle, starting inside an
interval about 1e-9 wide that Chebyshev collocation proposes and two angle
shots confirm, or else inside a Rayleigh-Sturm bracket.  cs^2 is monotone
on [0, D/2], so V takes its extremes at z = 0 and z = D/2, and min-max
puts the index-th eigenvalue within [min V, max V] + (index pi/D)^2
(Sturm comparison).  Min-max on each parity class also bounds it above by
the Rayleigh quotient of the flat eigenfunction of that index
(bounds.lambda_upper_rayleigh), which near the cap K D^2 -> pi^2 is smaller
than the Sturm upper end by orders of magnitude.  Every eigenvalue is
positive, which caps the lower end at 0 where min V -> -inf (n = 2 near
the cap).  The bracket fixes S and bounds the seed: the collocation value
at N = 48 points, folded by the index's parity onto [0, D/2], and its
difference from N = 32 (Trefethen, Spectral Methods in MATLAB, 2000,
ch. 6-9) set the interval, and the answer is the angle's root either way.

The cross-check route discretizes the same operator with second-order
central differences on N and 2N cells and Richardson-extrapolates the
eigenvalue across the doubling.  LAPACK's Sturm bisection (stebz) gives
each grid's eigenvalue (_scipy.tridiagonal_eigenvalue on N cells), and on
2N cells one call (_scipy.tridiagonal_eigenpair) adds inverse iteration
(stein) for the eigenvector.
The two routes share no integration machinery, which is the point: their
agreement is evidence, not tautology.

Also here: the same shooting applied to the first-order form (with the
drift term, no gauge), an arbitrary-precision variant of the half-interval
shooter, and the radial spherical-cap ground state.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp  # called by no route; perfbench/tracing.py rebinds it
from scipy.optimize import brentq

from ._scipy import dop853_end, lsoda_samples, tridiagonal_eigenpair, tridiagonal_eigenvalue
from .bounds import lambda_upper_rayleigh
from .errors import DomainError, GapModelError, NonConvergenceError
from .kernels import tn
from .model import (
    GridFunction,
    model_rhs,
    normal_rhs,
    potential,
    potential_array,
    potential_at,
    validate,
)

_ODE_TOL = 1e-12
_N_SAMPLES = 1001  # points in a shot eigenfunction on [-D/2, D/2]


@dataclass(frozen=True)
class EigenResult:
    eigenvalue: float
    index: int
    method: str
    error_estimate: float
    eigenfunction: GridFunction
    node_count: int
    symmetry_residual: float
    form: str = "normal"


def _check_index(index):
    if index not in (1, 2):
        raise DomainError(f"index must be 1 or 2, got {index}")


def _angle_mid(lam, params, form, S, tol=_ODE_TOL):
    """Prüfer angle of (S y, y') at z = 0, shot from theta(-D/2) = 0.

    Any fixed S > 0 keeps the angle monotone in lam and its midpoint
    targets index * pi / 2; eigen_shoot fits S to the eigenvalue so the
    angle stays close to linear in z.
    """
    if form == "normal":
        V, sin, cos = potential_at(params), math.sin, math.cos

        def rhs(z, y):
            th = y[0]
            s = sin(th)
            c = cos(th)
            return S * c * c + (lam - V(z)) / S * s * s

    else:
        n, K = params.n, params.K
        lam_s = lam / S

        def rhs(z, y):
            th = y[0]
            s = math.sin(th)
            c = math.cos(th)
            return [S * c * c + lam_s * s * s - (n - 1) * tn(z, K) * s * c]

    sol = dop853_end(rhs, -params.half, 0.0, [0.0], rtol=tol, atol=tol)
    if not sol.success:
        raise NonConvergenceError(f"angle integration failed: {sol.message}")
    return float(sol.y[0])


def _shoot_eigenfunction(lam, params, form):
    half = params.half
    if form == "normal":
        rhs = normal_rhs(lam, params)
    else:

        def rhs(z, y):
            return [y[1], model_rhs(z, y[0], y[1], lam, params)]

    z = np.linspace(-half, half, _N_SAMPLES)
    # LSODA refuses rtol much below 2e-14; atol follows y, whose scale is
    # D/2 since y'(-D/2) = 1
    sol = lsoda_samples(rhs, z, [0.0, 1.0], rtol=0.1 * _ODE_TOL,
                        atol=0.01 * _ODE_TOL * half)
    if not sol.success:
        raise NonConvergenceError(f"eigenfunction integration failed: {sol.message}")
    return GridFunction(z=z, values=sol.y[0])


def _count_interior_nodes(values):
    v = values[1:-1]
    scale = np.max(np.abs(v))
    v = v[np.abs(v) > 1e-9 * scale]
    return int(np.sum(v[:-1] * v[1:] < 0))


def _eigen_result(lam, err, gf, index, method, form):
    """EigenResult after checking the node count; parity goes into the result.

    The eigenfunction's samples are divided by their largest magnitude,
    signed so that the first interior sample is positive.
    """
    values = gf.values / math.copysign(np.max(np.abs(gf.values)), gf.values[1])
    gf = GridFunction(z=gf.z, values=values)
    nodes = _count_interior_nodes(values)
    if nodes != index - 1:
        raise GapModelError(
            f"{method} index-{index} eigenfunction shows {nodes} interior "
            f"nodes, expected {index - 1}"
        )
    sign = 1.0 if index == 1 else -1.0
    sym = float(np.max(np.abs(values - sign * values[::-1])))
    return EigenResult(
        eigenvalue=float(lam), index=index, method=method,
        error_estimate=float(err), eigenfunction=gf, node_count=nodes,
        symmetry_residual=sym, form=form,
    )


def _shoot_error(lam, evals, tight):
    """Final sign-change bracket width plus the angle noise over the slope.

    evals maps each shot lam to theta(0; lam) - target, and tight is that
    value at the root under a ten times tighter ODE tolerance.  The noise
    in theta(0) is twice their difference plus _ODE_TOL.  The slope is the
    secant to the nearest shot whose angle differs by well over the noise,
    so that neither the noise nor the curvature of theta(0; lam) sways it.
    """
    a = max(x for x, gx in evals.items() if gx <= 0)
    b = min(x for x, gx in evals.items() if gx >= 0)
    g0 = evals[lam]
    noise = 2.0 * abs(g0 - tight) + _ODE_TOL
    near = sorted(evals, key=lambda x: abs(x - lam))
    x1 = next((x for x in near if abs(evals[x] - g0) > 1e3 * noise), near[-1])
    slope = (evals[x1] - g0) / (x1 - lam)
    return (b - a) + noise / slope


def eigen_shoot(params, index, form="normal"):
    """Index-th Dirichlet eigenvalue by monotone angle shooting to the midpoint.

    Brent's method on theta(0; lam) = index * pi / 2, theta the Prüfer angle
    scaled by S, to 1e-14 max(|lam|, (pi / D)^2).  The comparison bracket
    is the Sturm bracket [min V, max V] + (index pi / D)^2 with its lower
    end raised to 0 and its upper end lowered to the Rayleigh quotient of
    the flat index-th eigenfunction when these are tighter; both ends are
    padded by 1e-9 of the bracket's scale.  S is set once per call from
    that bracket, S^2 = max(hi - V(0), (pi / D)^2), the squared wavenumber
    at the midpoint where the angle is matched, and every shot of the call
    uses it; the angle is exactly linear in z for constant V.
    Brent starts from the collocation seed instead when it checks out:
    lam_seed from the parity-folded Chebyshev collocation at N = 48, and
    delta = max(10 |lam_48 - lam_32|, 1e-9 scale).  If [lam_seed - delta,
    lam_seed + delta] lies inside the comparison bracket and the angle
    shots at its ends straddle the target, Brent runs there (about 2.5
    shots fewer per eigenvalue on the benchmark's shooting slots).  A seed
    that is not finite, an interval outside the bracket or end shots that
    do not straddle fall back to the comparison bracket, whose ends are
    then shot (at most two shots wasted).
    theta(0; lam) is strictly increasing in lam for fixed S, so a verified
    sign change holds the one crossing: the answer is the shooting root in
    both cases, and the seed never enters it.
    error_estimate is the width of the final sign-change bracket plus
    the ODE noise in theta(0) divided by the measured slope d theta(0) / d
    lam; the noise is measured by one more shot at the root under a ten
    times tighter tolerance.  Over the tested grid, near the cap and at
    small D it bounds the error against mpmath collocation or closed forms
    and stays below 1e-9 max(|lam|, (pi / D)^2), with one measured
    exception: n = 2 at the cap, where at (2, 39.4784, 0.5) it reads
    2.4e-6 for index 1 and 1.8e-6 for index 2, against 3.9e-8 and 8.7e-8.

    The result carries the eigenfunction (sup-normalized, one LSODA shot
    of (y, y') across the whole interval from y(-D/2) = 0, y'(-D/2) = 1,
    sampled at 1001 points), its interior node count, and the parity defect
    sup|y(z) -+ y(-z)| / sup|y| (even for index 1, odd for index 2); both
    check the parity the midpoint condition assumes rather than feed it.
    """
    params = validate(params)
    _check_index(index)
    if form not in ("normal", "direct"):
        raise DomainError(f"form must be 'normal' or 'direct', got {form}")
    lam, err = _shoot_root(params, index, form)
    gf = _shoot_eigenfunction(lam, params, form)
    # every eigenvalue is positive; near the cap Brent can settle in the
    # noise just below the padded lower end 0, and clamping only shrinks
    # the error that err bounds
    return _eigen_result(max(lam, 0.0), err, gf, index, "shooting", form)


def _shoot_root(params, index, form):
    """eigen_shoot's Brent root of the midpoint angle and its error estimate.

    Seeded by _colloc_seed when its interval checks out; see eigen_shoot.
    """
    # cs^2 is monotone on [0, D/2], so V takes its extremes at z = 0 and D/2;
    # lam > 0 because the direct form's quadratic form is int phi'^2 cs^(n-1),
    # which keeps the lower end finite where V(D/2) -> -inf at the cap (n = 2)
    v_mid = potential(0.0, params)
    v_end = potential(params.half, params)
    base = (index * math.pi / params.D) ** 2
    lo = max(min(v_mid, v_end) + base, 0.0)
    hi = max(v_mid, v_end) + base
    scale = max(abs(lo), abs(hi), (math.pi / params.D) ** 2)
    pad = 1e-9 * scale
    lo -= pad
    # V is even, so min-max on the index-th eigenfunction's parity class
    # bounds lam by the flat eigenfunction's Rayleigh quotient
    hi = min(hi, lambda_upper_rayleigh(params, index)) + pad
    # the angle scale fitted to this eigenvalue: the local wavenumber at the
    # midpoint, where the target angle is read, at lam near hi
    S = math.sqrt(max(hi - v_mid, (math.pi / params.D) ** 2))
    target = 0.5 * index * math.pi
    evals = {}

    def g(lam):
        # brentq re-evaluates the bracket ends; serve them from the cache
        if lam not in evals:
            evals[lam] = _angle_mid(lam, params, form, S) - target
        return evals[lam]

    # theta(0; lam) is strictly increasing in lam, so a sign change over a
    # seeded interval inside (lo, hi) holds the one root the comparison
    # bracket holds; a seed that fails any test costs at most two shots.
    # Where V is constant ((n-1)(n-3)K = 0) the bracket is 2 pad wide and
    # no seeded interval, at least 2 pad wide, fits inside it
    a = b = math.nan
    if (params.n - 1) * (params.n - 3) * params.K != 0:
        seed, ladder = _colloc_seed(params, index)
        delta = max(10.0 * ladder, 1e-9 * scale)
        a, b = seed - delta, seed + delta
    if not (lo < a and b < hi and g(a) < 0 < g(b)):
        a, b = lo, hi
        if g(lo) >= 0 or g(hi) <= 0:
            raise NonConvergenceError(
                f"comparison bracket [{lo:.6g}, {hi:.6g}] does not straddle the "
                f"index-{index} angle target"
            )
    lam = brentq(g, a, b, xtol=1e-14 * (math.pi / params.D) ** 2, rtol=1e-14)
    tight = _angle_mid(lam, params, form, S, tol=0.1 * _ODE_TOL) - target
    return lam, _shoot_error(lam, evals, tight)


_COLLOC_SIZES = (32, 48)  # Chebyshev collocation ladder of _colloc_seed


@functools.lru_cache(maxsize=None)
def _colloc_matrix(N, parity):
    """Chebyshev second derivative on [-1, 1], folded onto one parity class.

    The points are x_j = cos(j pi / N), j = 0 .. N with N even, and the
    matrix is the square of Trefethen's differentiation matrix (Spectral
    Methods in MATLAB, 2000, ch. 6-7) without its boundary rows and
    columns (Dirichlet).  An even (parity 0) or odd (parity 1) grid
    function is fixed by its values at the points in [0, 1), x = 0 dropped
    for the odd class, where the function vanishes; column j then gathers
    x_j and its mirror x_(N-j) = -x_j with the sign of the class.  Returns
    those points and the folded matrix, both read-only since the cache
    shares them.
    """
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
    d1 = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    d1 -= np.diag(d1.sum(axis=1))
    d2 = d1 @ d1
    half = np.arange(1, N // 2 + 1 - parity)
    folded = d2[np.ix_(half, half)] + (-1.0) ** parity * d2[np.ix_(half, N - half)]
    if parity == 0:
        folded[:, -1] = d2[half, N // 2]  # x = 0 is its own mirror
    x = x[half]
    x.flags.writeable = folded.flags.writeable = False
    return x, folded


def _colloc_seed(params, index):
    """Collocation estimate of the index-th eigenvalue and its ladder difference.

    The smallest eigenvalue of -(2 / D)^2 d2 + diag V(D x / 2) in the
    index's parity class (even for index 1, odd for index 2) at each size
    of _COLLOC_SIZES; returns the largest size's value and its distance to
    the smaller size's.  Neither need be right near the cap, where V's pole
    is close to D/2: _shoot_root checks both with two angle shots.  A
    failed eigensolve gives NaN, which _shoot_root never uses.
    """
    lams = []
    for N in _COLLOC_SIZES:
        x, d2 = _colloc_matrix(N, index - 1)
        V = potential_array(params.half * x, params)
        A = -(2.0 / params.D) ** 2 * d2 + np.diag(V)
        try:
            w = np.linalg.eigvals(A)
        except np.linalg.LinAlgError:
            return math.nan, math.nan
        lams.append(float(w.real.min()))
    return lams[-1], abs(lams[-1] - lams[0])


# -- finite-difference route --------------------------------------------------


def _fd_matrix(params, N):
    """Diagonal and off-diagonal of the central differences on N cells."""
    h = params.D / N
    z = -params.half + h * np.arange(1, N)
    return 2.0 / h**2 + potential_array(z, params), np.full(N - 2, -1.0 / h**2)


def eigen_fd(params, index, grid_size=1024):
    """Same eigenvalue from central differences plus Richardson extrapolation.

    grid_size is the number of cells at the coarse level (a power of two,
    at least 64); the eigenvalue is computed there and on the doubled grid,
    and the h^2 error model gives the extrapolated value (4 a_2N - a_N)/3
    with |a_2N - a_N|/3 reported as the error estimate.  The coarse grid's
    eigenvalue comes from one stebz call, the doubled grid's eigenpair from
    one stebz + stein call; the eigenfunction is the doubled grid's vector
    with its zero end values, sup-normalized and positive next to -D/2.  A
    LAPACK failure raises NonConvergenceError.

    At the edges of the box this route is the coarse cross-check, not a
    reference.  Measured at D = 1 with the default grid, both indices,
    against the shooting angle root, whose own estimate stays below
    1.2e-11 max(|lam|, (pi / D)^2) there.  Near the cap, kappa = K D^2 in
    {9.8, 9.86}, the error is 4.6e-9 to 8.1e-8 for n = 5 (estimates 1.0e-5
    to 7.9e-5; 7.9e-5 for lambda2 at (5, 9.86, 1)), 3.8e-7 to 4.7e-6 for
    n = 4 and 2.9e-5 to 4.4e-3 for n = 2, so n = 2 and 4 miss 1e-9
    relative, and at (2, 9.8, 1) the estimate (3.3e-6 and 3.7e-5) is below
    the error (2.9e-5 and 9.8e-5).
    At large negative kappa, -4000 to -100 for n in {2, 4, 5, 8}, the
    error is 8.4e-11 to 5.7e-3 and grows with n and |kappa|, while the
    estimate reads 3.6e-6 to 3.0, 500 to 4e5 times the error.
    """
    params = validate(params)
    _check_index(index)
    if grid_size < 64 or grid_size & (grid_size - 1) != 0:
        raise DomainError(f"grid_size must be a power of two >= 64, got {grid_size}")
    # stebz stops once the eigenvalue lies in an interval no wider than
    # max(tol, 2 eps |lam|) <= 1e-14 max(1, |lam|)
    try:
        lam_n = tridiagonal_eigenvalue(*_fd_matrix(params, grid_size), index, tol=1e-14)
        lam_2n, v = tridiagonal_eigenpair(*_fd_matrix(params, 2 * grid_size), index,
                                          tol=1e-14)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    z = np.linspace(-params.half, params.half, 2 * grid_size + 1)
    gf = GridFunction(z=z, values=np.concatenate([[0.0], v, [0.0]]))
    lam = (4.0 * lam_2n - lam_n) / 3.0
    err = abs(lam_2n - lam_n) / 3.0
    return _eigen_result(lam, err, gf, index, "finite-difference", "normal")


@dataclass(frozen=True)
class GapResult:
    lambda1: EigenResult
    lambda2: EigenResult
    gap: float
    reference: float
    excess: float

    @property
    def sign(self):
        return 0 if self.excess == 0 else math.copysign(1, self.excess)


def gap(params):
    """Spectral gap by shooting, with its excess over 3 pi^2 / D^2."""
    params = validate(params)
    r1 = eigen_shoot(params, 1)
    r2 = eigen_shoot(params, 2)
    if not (r1.eigenvalue < r2.eigenvalue):
        raise GapModelError("eigenvalue ordering violated")
    g = r2.eigenvalue - r1.eigenvalue
    ref = 3.0 * math.pi**2 / params.D**2
    return GapResult(lambda1=r1, lambda2=r2, gap=g, reference=ref, excess=g - ref)


def ball_first_eigen(n, D):
    """Ground state of the radial problem on a spherical cap of radius D/2.

    Solves y'' + (n-1) cot(x) y' + lam y = 0 with a regular center and
    y(D/2) = 0, starting the integration at eps = 1e-6 from the two-term
    series around the removable singularity; each end value is one
    compiled DOP853 shot (_scipy.dop853_end), and a failed shot raises
    NonConvergenceError.  The returned value always satisfies
    lam >= pi^2/D^2.
    """
    if not (0 < D < math.pi):
        raise DomainError(f"cap diameter D must lie in (0, pi), got {D}")
    if n < 2:
        raise DomainError(f"dimension n must be at least 2, got {n}")
    eps = 1e-6
    half = D / 2

    def end_value(lam):
        def rhs(x, y):
            return [y[1], -(n - 1) / math.tan(x) * y[1] - lam * y[0]]

        y0 = [1.0 - lam * eps**2 / (2 * n), -lam * eps / n]
        sol = dop853_end(rhs, eps, half, y0, rtol=_ODE_TOL, atol=_ODE_TOL)
        if not sol.success:
            raise NonConvergenceError(f"radial integration failed: {sol.message}")
        return float(sol.y[0])

    lo = math.pi**2 / D**2 * 0.999
    g_lo = end_value(lo)
    if g_lo <= 0:
        raise GapModelError(
            "radial end value nonpositive at the lower comparison bound"
        )
    hi = lo
    for _ in range(100):
        hi *= 1.5
        if end_value(hi) < 0:
            break
    else:
        raise NonConvergenceError("no sign change while expanding the bracket")
    lam = brentq(end_value, hi / 1.5, hi, xtol=1e-13, rtol=8.9e-16)
    if lam < math.pi**2 / D**2 * (1 - 1e-12):
        raise GapModelError(
            f"computed cap eigenvalue {lam:.12g} fell below pi^2/D^2"
        )
    return float(lam)


def eigen_shoot_mp(params, index, dps=40):
    """Half-interval shooting in arbitrary precision.

    Uses the parity of the normal-form eigenfunctions: even (y(0)=1,
    y'(0)=0) for index 1, odd (y(0)=0, y'(0)=1) for index 2, with a root of
    y(D/2) = 0 polished by secant from eigen_shoot's float64 root, taken
    without its eigenfunction shot and node check.  Built for
    studying truncation remainders far below float64 noise; much slower
    than eigen_shoot.
    """
    import mpmath

    params = validate(params)
    _check_index(index)
    n, K, D = params.n, params.K, params.D
    seed = max(_shoot_root(params, index, "normal")[0], 0.0)
    with mpmath.workdps(dps):
        Kmp = mpmath.mpf(K)
        half = mpmath.mpf(D) / 2
        coef = mpmath.mpf(n - 1) * Kmp / 4

        def V(z):
            if Kmp == 0:
                return mpmath.mpf(0)
            if Kmp > 0:
                cs_val = mpmath.cos(mpmath.sqrt(Kmp) * z)
            else:
                cs_val = mpmath.cosh(mpmath.sqrt(-Kmp) * z)
            return coef * ((n - 3) / cs_val**2 - (n - 1))

        def end_value(lam):
            lam = mpmath.mpf(lam)

            def rhs(z, y):
                return [y[1], (V(z) - lam) * y[0]]

            y0 = [mpmath.mpf(1), mpmath.mpf(0)] if index == 1 else [mpmath.mpf(0), mpmath.mpf(1)]
            f = mpmath.odefun(rhs, 0, y0, tol=mpmath.mpf(10) ** (-dps))
            return f(half)[0]

        a = mpmath.mpf(seed) * (1 - mpmath.mpf(10) ** -9)
        b = mpmath.mpf(seed) * (1 + mpmath.mpf(10) ** -9)
        ga, gb = end_value(a), end_value(b)
        for _ in range(60):
            if gb == ga:
                break
            c = b - gb * (b - a) / (gb - ga)
            gc = end_value(c)
            a, ga, b, gb = b, gb, c, gc
            if abs(b - a) <= abs(b) * mpmath.mpf(10) ** (-(dps - 5)):
                break
        else:
            raise NonConvergenceError("mp secant did not converge")
        return b
