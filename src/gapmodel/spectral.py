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
only [-D/2, 0], inward from the endpoint, and matches at z = 0; no shot
runs toward an end, where the eigenfunction decays and the other grows.
A theta-only angle shot runs Hairer's compiled DOP853 (_scipy.dop853_end),
keeps only the end state, and returns theta' as a bare float from a
right-hand side that evaluates V through the closure model.potential_at
builds once per shot.  The eigenfunction comes from the polar pair
S y = r sin(theta), y' = r cos(theta): (theta, log r) over [-D/2, 0] at
ten times the angle shots' tolerance (_scipy.dop853_dense), mirrored onto
[0, D/2] by parity.

Chebyshev collocation proposes an interval about 1e-9 wide around each
eigenvalue: the collocation value at N = 48 points, folded by the
index's parity onto [0, D/2], and its difference from N = 32 (Trefethen,
Spectral Methods in MATLAB, 2000, ch. 6-9).  When it lies inside the
comparison bracket below and is narrow, one stacked pass integrates
(theta, log r) at both of its ends together, sharing each V(z); the root
is the linear interpolation of theta(0) between them, the eigenfunction
the same interpolation of the pass's dense output, and one angle shot at
the root measures the residual that accepts it.  Otherwise, or when that
residual is too large, Brent's method finds the root of the midpoint
angle from angle shots, inside the interval or inside the comparison
bracket, and a (theta, log r) run at the root gives the eigenfunction
(see eigen_shoot).  The comparison bracket is Rayleigh-Sturm: cs^2 is
monotone on [0, D/2], so V takes its extremes at z = 0 and z = D/2, and
min-max puts the index-th eigenvalue within [min V, max V] + (index
pi/D)^2 (Sturm comparison).  Min-max on each parity class also bounds it
above by the Rayleigh quotient of the flat eigenfunction of that index
(bounds.lambda_upper_rayleigh), which near the cap K D^2 -> pi^2 is
smaller than the Sturm upper end by orders of magnitude.  Every
eigenvalue is positive, which caps the lower end at 0 where min V -> -inf
(n = 2 near the cap).  The bracket fixes S, and the answer is the angle's
root on every branch.

The cross-check route discretizes the same operator with second-order
central differences on N and 2N cells and Richardson-extrapolates the
eigenvalue across the doubling.  LAPACK's Sturm bisection (stebz) gives
each grid's eigenvalue (_scipy.tridiagonal_eigenvalue on N cells), and on
2N cells one call (_scipy.tridiagonal_eigenpair) adds inverse iteration
(stein) for the eigenvector.
The two routes share no integration machinery, which is the point: their
agreement is evidence, not tautology.

Also here: the same shooting applied to the first-order form (with the
drift term, no gauge), and two roots of Gauss hypergeometric functions,
found without an ODE solve: the eigenvalue in arbitrary precision (V is a
Pöschl-Teller potential) and the radial spherical-cap ground state.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp  # called by no route; perfbench/tracing.py rebinds it
from scipy.optimize import brentq

from ._scipy import dop853_dense, dop853_end, tridiagonal_eigenpair, tridiagonal_eigenvalue
from .bounds import lambda_upper_rayleigh
from .errors import DomainError, GapModelError, NonConvergenceError
from .kernels import tn
from .model import GridFunction, as_integer, potential, potential_array, potential_at, validate

_ODE_TOL = 1e-12
_N_SAMPLES = 1001  # points in a shot eigenfunction on [-D/2, D/2]
_PARITY_TOL = 1e-5  # bound on |sin(theta(0) - index pi/2)| at the root
_PASS_WIDTH = 5e-6  # widest seed half-width, over the accuracy scale, given a stacked pass
_ACCEPT = 1e-11  # largest accepted stacked-pass error estimate, over the accuracy scale


@dataclass(frozen=True)
class EigenResult:
    """One eigenvalue, its error estimate and its sup-normalized eigenfunction.

    symmetry_residual is the parity defect: for shooting, |sin(theta(0) -
    index pi/2)| of the run at the root, at most _PARITY_TOL; for finite
    differences, sup|y(z) -+ y(-z)| over the samples, unchecked.
    """

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


def _angle_mid(lam, params, form, S):
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

    sol = dop853_end(rhs, -params.half, 0.0, [0.0], rtol=_ODE_TOL, atol=_ODE_TOL)
    if not sol.success:
        raise NonConvergenceError(f"angle integration failed: {sol.message}")
    return float(sol.y[0])


def _polar_rhs(lams, params, form, S):
    """(theta, log r)' at every lam in lams, for S y = r sin(theta), y' = r cos(theta).

    The state stacks one (theta, log r) pair per lam, in the order of lams,
    and each point's V(z) (tn(z) in the direct form) serves every pair.
    """
    sin, cos = math.sin, math.cos
    if form == "normal":
        V, pairs = potential_at(params), [(2 * i, lam) for i, lam in enumerate(lams)]

        def rhs(z, y):
            v, f = V(z), _floats(y)
            for i, lam in pairs:
                s, c = sin(f[i]), cos(f[i])
                q = (lam - v) / S
                f[i], f[i + 1] = S * c * c + q * s * s, (S - q) * s * c
            return f

    else:
        n1, K, pairs = params.n - 1, params.K, [(2 * i, lam / S) for i, lam in enumerate(lams)]

        def rhs(z, y):
            t, f = n1 * tn(z, K), _floats(y)
            for i, q in pairs:
                s, c = sin(f[i]), cos(f[i])
                d = t * c
                f[i], f[i + 1] = S * c * c + q * s * s - d * s, (S - q) * s * c + d * c
            return f

    return rhs


def _floats(y):
    """A new list of y's floats, which the right-hand side overwrites pair by pair.

    The Fortran passes y as an array, dop853_dense's dense stages as a list.
    """
    return y.tolist() if isinstance(y, np.ndarray) else list(y)


def _polar_run(lams, params, form, S):
    """Dense (theta, log r) solution at every lam in lams over [-D/2, 0].

    Each pair runs from 0 (y = 0, y' = 1) at -D/2, in one dop853_dense
    run ten times tighter than the angle shots.
    """
    dim = 2 * len(lams)
    sol = dop853_dense(_polar_rhs(lams, params, form, S), -params.half, 0.0, [0.0] * dim,
                       rtol=0.1 * _ODE_TOL, atol=0.1 * _ODE_TOL, rows=range(dim), event=None)
    if not sol.success:
        raise NonConvergenceError(f"eigenfunction integration failed: {sol.message}")
    return sol


def _eigenfunction(sol, w, params, index):
    """The eigenfunction of a _polar_run, interpolated by w from its first lam to its last.

    theta and log r are (1 - w) times the first pair's plus w times the
    last pair's, on 501 points of [-D/2, 0]; y = e^(log r - max log r)
    sin(theta) there, mirrored with the index's parity on an exactly
    symmetric grid, gives the 1001 samples on [-D/2, D/2].
    """
    left = np.linspace(-params.half, 0.0, _N_SAMPLES // 2 + 1)
    rows = sol.sol(left)
    theta, log_r = rows[:2] + w * (rows[-2:] - rows[:2])
    y = np.exp(log_r - log_r.max()) * np.sin(theta)
    return GridFunction(z=np.concatenate([left, -left[-2::-1]]),
                        values=np.concatenate([y, (-1.0) ** (index - 1) * y[-2::-1]]))


def _count_interior_nodes(values):
    v = values[1:-1]
    scale = np.max(np.abs(v))
    v = v[np.abs(v) > 1e-9 * scale]
    return int(np.sum(v[:-1] * v[1:] < 0))


def _eigen_result(lam, err, gf, index, method, form, sym):
    """EigenResult after checking the node count; sym is the parity defect.

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
    return EigenResult(
        eigenvalue=float(lam), index=index, method=method,
        error_estimate=float(err), eigenfunction=gf, node_count=nodes,
        symmetry_residual=sym, form=form,
    )


def _shoot_error(lam, evals, tight):
    """Final sign-change bracket width plus the angle noise over the slope.

    evals maps each shot lam to theta(0; lam) - target, and tight is that
    value at the root under a ten times tighter ODE tolerance.  The noise
    in theta(0) is twice their difference or, if larger, the largest fall
    of the angle between shots in increasing lam, plus _ODE_TOL.  The
    slope is the secant to the nearest shot whose angle differs by well
    over the noise, so that neither the noise nor the curvature of theta(0;
    lam) sways it.
    """
    a = max(x for x, gx in evals.items() if gx <= 0)
    b = min(x for x, gx in evals.items() if gx >= 0)
    g0 = evals[lam]
    angles = [evals[x] for x in sorted(evals)]
    fall = max(top - g for top, g in zip(itertools.accumulate(angles, max), angles))
    noise = max(2.0 * abs(g0 - tight), fall) + _ODE_TOL
    near = sorted(evals, key=lambda x: abs(x - lam))
    x1 = next((x for x in near if abs(evals[x] - g0) > 1e3 * noise), near[-1])
    slope = (evals[x1] - g0) / (x1 - lam)
    return (b - a) + noise / slope


def eigen_shoot(params, index, form="normal"):
    """Index-th Dirichlet eigenvalue by monotone angle shooting to the midpoint.

    The root of theta(0; lam) = index * pi / 2, theta the Prüfer angle
    scaled by S.  The comparison bracket is the Sturm bracket
    [min V, max V] + (index pi / D)^2 with its lower end raised to 0 and
    its upper end lowered to the Rayleigh quotient of the flat index-th
    eigenfunction when these are tighter; both ends are padded by 1e-9 of
    the bracket's scale.  S is set once per call from that bracket,
    S^2 = max(hi - V(0), (pi / D)^2), the squared wavenumber at the
    midpoint where the angle is matched, and every shot of the call uses
    it; the angle is exactly linear in z for constant V.  theta(0; lam) is
    strictly increasing in lam for fixed S, so a verified sign change holds
    the one crossing, and every branch below returns that root; the seed
    never enters it.  The accuracy scale is max(|lam|, (pi / D)^2).

    The collocation seed gives lam_seed at N = 48 and the half-width
    delta = max(10 |lam_48 - lam_32|, 1e-9 bracket scale); [a, b] =
    [lam_seed - delta, lam_seed + delta].  The branches:

    - Stacked pass.  If [a, b] lies inside the comparison bracket and
      delta is at most _PASS_WIDTH = 5e-6 of the accuracy scale, one
      dop853_dense run at 0.1 _ODE_TOL integrates (theta_a, log r_a,
      theta_b, log r_b).  If its end angles straddle the target, the root
      lam* interpolates theta(0) linearly between a and b, with weight w on
      b, and one theta-only check shot at lam* gives r = theta(0; lam*) -
      index pi / 2.  The estimate (2 |r| + _ODE_TOL) / slope, slope the
      secant of the pass's end angles, is accepted when it is at most
      _ACCEPT = 1e-11 of the accuracy scale.  The eigenfunction is then
      the same interpolation of the pass's dense output, and the parity
      defect is |sin r|.
    - Brent's continuation.  An estimate above _ACCEPT sends Brent into
      [lam*, b] or [a, lam*], the side r's sign picks, with one more angle
      shot at that end; the dict of shots Brent and _shoot_error read
      holds theta-only shots at _ODE_TOL alone, since one angle of the
      tighter pass among them reads as a fall and inflates the estimate
      about 1e5-fold.
    - Brent from the seed.  A seed wider than _PASS_WIDTH goes straight
      to Brent on [a, b] when the angle shots at its ends straddle the
      target.  On a sweep of 542 calls (every shooting call of the
      benchmark's eigen_sweep seeds 1-8, the near-cap map of
      sweeps/eigen_near_cap.py and the edge and test triples), with every
      seed inside the bracket given a pass: 307 were accepted, all with
      delta at most 4.7e-6 of the accuracy scale, and 193 were refined,
      all but 6 distinct calls with delta above 5e-6.  The 6 are
      (4, 1.671925, 2) index 2, where the check shot reads 9e-12 below
      the pass (delta 2.7e-9), and index 1 of (8, 9, 1), (10, 9, 1),
      (7, 9.4, D) at D = 1 and 0.5, and (4, 9.4139, 1) (1.6e-6 to
      5.0e-6).  Near the cap a wide pass's root is off by far more than
      the accept rule allows: 2e-6 at (4, 9.86, 1), index 2.
    - Comparison bracket.  A seed that is not finite, an interval outside
      the bracket (every flat triple, (n - 1)(n - 3) K = 0, whose bracket
      is narrower than any interval), a pass or a pair of end shots that
      does not straddle, sends Brent to the comparison bracket, whose
      ends are then shot.
    Brent stops at 1e-14 max(|lam|, (pi / D)^2), and a (theta, log r) run
    at its root gives the eigenfunction and the angle there under the
    tighter tolerance.

    On Brent's branches error_estimate is the width of the final
    sign-change bracket plus the ODE noise in theta(0) divided by the
    measured slope d theta(0) / d lam; the noise is measured by the run
    at the root and by any fall of the angle between Brent's shots.  On
    the stacked pass it is the accept rule's estimate.  Against the closed
    forms of eigen_shoot_mp at 25 digits, over 318 eigenvalues (the sweep
    above without the near-cap map), the error is at most 0.72 of the
    estimate on the 253 accepted passes (median 0.005) and 0.96 on
    Brent's branches, at (10, 9.8696, 1), index 2; over the tested grid,
    near the cap, at small D and at (10, 9.8696, 1), (8, -400, 1), (6,
    -400, 1) and (1000, 1, 1), it bounds the error and stays below 1e-9
    max(|lam|, (pi / D)^2), with one measured exception: n = 2 at the
    cap, where at (2, 39.4784, 0.5) it reads 2.4e-6 for index 1 and
    1.8e-6 for index 2, against errors of -1.2e-6 and +8.9e-7 from the
    closed form.

    A parity defect (symmetry_residual, 0 when y or y' vanishes at z = 0
    as the index's parity asks) above _PARITY_TOL = 1e-5 raises
    GapModelError; the largest on sweeps/eigen_near_cap.py's map is
    3.4e-7, and a wrong parity gives about 1.  So does a node count,
    recounted on the samples, other than index - 1.
    """
    params = validate(params)
    _check_index(index)
    if form not in ("normal", "direct"):
        raise DomainError(f"form must be 'normal' or 'direct', got {form}")
    lam, S, evals, passed = _shoot_root(params, index, form)
    if passed is None:
        sol, w = _polar_run([lam], params, form, S), 0.0
        residual = float(sol.y[0, -1]) - 0.5 * index * math.pi
        err = _shoot_error(lam, evals, residual)
    else:
        sol, w, residual, err = passed
    defect = abs(math.sin(residual))
    if not defect <= _PARITY_TOL:
        raise GapModelError(f"shooting index-{index} eigenfunction misses its parity "
                            f"at z = 0 by {defect:.3g} > {_PARITY_TOL:g}")
    # every eigenvalue is positive; near the cap Brent can settle in the
    # noise just below the padded lower end 0, and clamping only shrinks
    # the error that the estimate bounds
    return _eigen_result(max(lam, 0.0), err, _eigenfunction(sol, w, params, index),
                         index, "shooting", form, defect)


def _shoot_root(params, index, form):
    """eigen_shoot's root of the midpoint angle, S, and how the root was found.

    Returns (lam, S, evals, passed).  passed is (sol, w, r, err) when the
    stacked pass's interpolated root was accepted: the pass, the weight of
    its upper lam in lam, the check shot's theta(0) - index pi / 2 and the
    error estimate.  Otherwise passed is None, lam is Brent's root and
    evals maps each of its angle shots' lam to theta(0; lam) - index pi /
    2.  See eigen_shoot.
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
        # theta-only shots at _ODE_TOL alone, so that _shoot_error compares
        # like with like; brentq re-evaluates the bracket ends from here
        if lam not in evals:
            evals[lam] = _angle_mid(lam, params, form, S) - target
        return evals[lam]

    # theta(0; lam) is strictly increasing in lam, so a sign change over a
    # seeded interval inside (lo, hi) holds the one root the comparison
    # bracket holds.  Where V is constant ((n-1)(n-3)K = 0) the bracket is
    # 2 pad wide and no seeded interval, at least 2 pad wide, fits inside it
    a = b = math.nan
    if (params.n - 1) * (params.n - 3) * params.K != 0:
        seed, ladder = _colloc_seed(params, index)
        delta = max(10.0 * ladder, 1e-9 * scale)
        a, b = seed - delta, seed + delta
    # a narrow seeded interval gets one stacked pass (see eigen_shoot)
    if lo < a and b < hi and delta <= _PASS_WIDTH * max(abs(seed), (math.pi / params.D) ** 2):
        sol = _polar_run([a, b], params, form, S)
        ga, gb = float(sol.y[0, -1]) - target, float(sol.y[2, -1]) - target
        if ga < 0 < gb:
            # theta(0) interpolated linearly, and the residual measured there
            w = -ga / (gb - ga)
            lam = a + w * (b - a)
            r = g(lam)
            err = (2.0 * abs(r) + _ODE_TOL) * (b - a) / (gb - ga)
            if err <= _ACCEPT * max(abs(lam), (math.pi / params.D) ** 2):
                return lam, S, evals, (sol, w, r, err)
            a, b = (lam, b) if r < 0 else (a, lam)  # Brent on the root's side
        else:
            a = b = math.nan  # the comparison bracket
    if not (lo < a and b < hi and g(a) < 0 < g(b)):
        a, b = lo, hi
        if g(lo) >= 0 or g(hi) <= 0:
            raise NonConvergenceError(
                f"comparison bracket [{lo:.6g}, {hi:.6g}] does not straddle the "
                f"index-{index} angle target"
            )
    lam = brentq(g, a, b, xtol=1e-14 * (math.pi / params.D) ** 2, rtol=1e-14)
    return lam, S, evals, None


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
    is close to D/2: _shoot_root checks both.  A failed eigensolve, or a
    matrix that overflows a double (D below about 1e-151), gives NaN,
    which _shoot_root never uses.
    """
    lams = []
    for N in _COLLOC_SIZES:
        x, d2 = _colloc_matrix(N, index - 1)
        V = potential_array(params.half * x, params)
        with np.errstate(over="ignore"):
            A = -(2.0 / params.D) ** 2 * d2 + np.diag(V)
        if not np.isfinite(A).all():
            return math.nan, math.nan
        try:
            w = np.linalg.eigvals(A)
        except np.linalg.LinAlgError:
            return math.nan, math.nan
        lams.append(float(w.real.min()))
    return lams[-1], abs(lams[-1] - lams[0])


# -- finite-difference route --------------------------------------------------


_FD_POLE_RATIO = 0.2  # largest coarse h over the n = 2 pole's distance to D/2; see eigen_fd


def _fd_matrix(params, N, k):
    """Diagonal and off-diagonal of the central differences on N cells, in
    units of 4^k: h 2^-k is formed exactly and 1/h^2, whose square
    overflows a double once h is below about 1e-77, never is."""
    h = params.D / N
    hk = math.ldexp(h, -k)
    z = -params.half + h * np.arange(1, N)
    d = potential_array(z, params) * math.ldexp(1.0, 2 * k)
    d += 2.0 / hk**2
    return d, np.full(N - 2, -1.0 / hk**2)


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
    to 7.9e-5; 7.9e-5 for lambda2 at (5, 9.86, 1)) and 3.8e-7 to 4.7e-6
    for n = 4, so n = 4 misses 1e-9 relative.
    For n = 2 and K > 0 the pole of V lies eps = pi / (2 sqrt K) - D/2
    outside D/2, and V ~ -(1/4) / (distance to the pole)^2 there (the
    Hardy-critical coupling), which the h^2 error model does not see
    until h is well below eps.  A coarse h = D / grid_size above
    _FD_POLE_RATIO eps = 0.2 eps raises NonConvergenceError before any
    solve.  Measured at D = 1 for both indices, eps / D from 1e-1 to 1e-7
    in quarter decades and grid_size 64 to 4096, against eigen_shoot_mp at
    20 digits: the estimate bounds the error wherever h / eps <= 0.41, with
    error / estimate at most 0.08 for h / eps <= 0.2, and first fails at
    h / eps = 0.43 (1.4 times the estimate, kappa = 9.847, grid_size
    4096); at (2, 9.8, 1) with the default grid, h / eps = 0.55 and the
    errors were 2.6 and 8.3 times the estimates.
    At large negative kappa, -4000 to -100 for n in {2, 4, 5, 8}, the
    error is 8.4e-11 to 5.7e-3 and grows with n and |kappa|, while the
    estimate reads 3.6e-6 to 3.0, 500 to 4e5 times the error.
    """
    params = validate(params)
    _check_index(index)
    grid_size = as_integer(grid_size, 64, "grid_size must be a power of two >= 64")
    if grid_size & (grid_size - 1) != 0:
        raise DomainError(f"grid_size must be a power of two >= 64, got {grid_size}")
    if params.n == 2 and params.K > 0:
        eps = math.pi / (2.0 * math.sqrt(params.K)) - params.half
        if params.D / grid_size > _FD_POLE_RATIO * eps:
            raise NonConvergenceError(
                f"finite differences cannot resolve the n = 2 pole {eps:.3g} beyond D/2 "
                f"with h = D/{grid_size}: h must be at most {_FD_POLE_RATIO:g} times "
                f"that distance"
            )
    # both grids in units of 4^k, 2^k the power of two nearest the coarse
    # h; stebz stops once the eigenvalue lies in an interval no wider than
    # max(tol, 2 eps |lam|) <= 1e-14 max(1, |lam|) in the unscaled units
    k = round(math.log2(params.D / grid_size))
    tol = math.ldexp(1e-14, 2 * k)
    try:
        lam_n = tridiagonal_eigenvalue(*_fd_matrix(params, grid_size, k), index, tol=tol)
        lam_2n, v = tridiagonal_eigenpair(*_fd_matrix(params, 2 * grid_size, k), index,
                                          tol=tol)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    z = np.linspace(-params.half, params.half, 2 * grid_size + 1)
    gf = GridFunction(z=z, values=np.concatenate([[0.0], v, [0.0]]))
    try:
        lam = math.ldexp((4.0 * lam_2n - lam_n) / 3.0, -2 * k)
        err = math.ldexp(abs(lam_2n - lam_n) / 3.0, -2 * k)
    except OverflowError:
        raise DomainError(f"eigenvalue {index} exceeds the largest double "
                          f"at D = {params.D:g}") from None
    sym = np.max(np.abs(v - (-1.0) ** (index - 1) * v[::-1])) / np.max(np.abs(v))
    return _eigen_result(lam, err, gf, index, "finite-difference", "normal", float(sym))


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

    y'' + (n-1) cot(x) y' + lam y = 0 with a regular center is solved by
    2F1(-nu, nu + n - 1; n/2; sin^2(x/2)), lam = nu (nu + n - 1); Brent's
    method finds its first root in nu at x = D/2, with mpmath.hyp2f1 at
    double precision, which sums the series in as many digits as its
    cancellation needs.  For n from 2 to 200 and D from 1e-3 to pi - 1e-3
    it is within 2.3e-15 relative of the 40-digit root, in 0.5-2 ms for
    n <= 10 and up to 14 ms at n = 200.  The returned value always
    satisfies lam >= pi^2/D^2.
    """
    import mpmath

    if not (0 < D < math.pi):
        raise DomainError(f"cap diameter D must lie in (0, pi), got {D}")
    n = as_integer(n, 2, "dimension n must be an integer >= 2")
    x = math.sin(D / 4) ** 2

    def end_value(nu):
        return float(mpmath.hyp2f1(-nu, nu + n - 1, n / 2, x))

    # consecutive roots lie about 2 pi / D apart in nu (exactly for n = 3),
    # and the first lies below the flat ball's, about n / pi such steps up
    hi = 0.0
    for _ in range(100 * n):
        lo, hi = hi, hi + math.pi / D
        if end_value(hi) < 0:
            break
    else:
        raise NonConvergenceError("no sign change while expanding the bracket")
    nu = brentq(end_value, lo, hi, xtol=1e-16, rtol=8.9e-16)
    lam = nu * (nu + n - 1)
    if lam < math.pi**2 / D**2 * (1 - 1e-12):
        raise GapModelError(
            f"computed cap eigenvalue {lam:.12g} fell below pi^2/D^2"
        )
    return float(lam)


def eigen_shoot_mp(params, index, dps=40):
    """Index-th Dirichlet eigenvalue in arbitrary precision, from the exact solution.

    V is a Pöschl-Teller potential (Z. Phys. 83, 1933): with t = sqrt(K) z,
    l + 1 = (n - 1) / 2 and a, b = (l + 1 +- sqrt(lam / K + (l + 1)^2)) / 2,
    the even (index 1) and odd (index 2) solutions are cos^(l+1) t times
    2F1(a, b; 1/2; sin^2 t) and sin t / sqrt(K) 2F1(a + 1/2, b + 1/2; 3/2;
    sin^2 t), real parts for K < 0.  Secant from eigen_shoot's float64 root
    (the angle root of _shoot_root alone, with no eigenfunction, parity or
    node check; from 0 and 1e-9 (pi/D)^2 where that root clamps to 0) polishes
    their root at
    z = D/2 until two iterates agree to 10^-(dps-5) relative, in dps digits
    plus those cos^2 t = 1 - sin^2 t loses (13 at (2, 9.8696, 1)).  Runs at
    dps and dps + 10 agree within 10^-dps max(|lam|, (pi/D)^2), the
    accuracy's scale: at (10, 9.8, 1), 30 and 40 digits agree to 1.5e-19 of
    lambda1 = 1.7e-16.  1-60 ms per root; near the cap, for even n (an
    integer c - a - b, which mpmath's 2F1 perturbs), up to a few seconds.
    """
    import mpmath

    params = validate(params)
    _check_index(index)
    n, K, D = params.n, params.K, params.D
    seed = max(_shoot_root(params, index, "normal")[0], 0.0)
    guard = 0 if K <= 0 else -math.log10(math.cos(math.sqrt(K) * D / 2) ** 2)
    with mpmath.workdps(dps + math.ceil(guard)):
        half, root_k = mpmath.mpf(D) / 2, mpmath.sqrt(K)
        l1 = mpmath.mpf(n - 1) / 2  # l + 1
        t = root_k * half
        w = mpmath.sin(t) ** 2

        def end_value(lam):
            if K == 0:
                r = mpmath.sqrt(lam) * half
                return mpmath.cos(r) if index == 1 else mpmath.sin(r)
            a = (l1 + mpmath.sqrt(lam / K + l1 * l1)) / 2
            b = l1 - a
            if index == 1:
                y = mpmath.hyp2f1(a, b, 0.5, w)
            else:
                y = mpmath.sin(t) / root_k * mpmath.hyp2f1(a + 0.5, b + 0.5, 1.5, w)
            return mpmath.re(mpmath.cos(t) ** l1 * y)

        if seed:
            a = mpmath.mpf(seed) * (1 - mpmath.mpf(10) ** -9)
            b = mpmath.mpf(seed) * (1 + mpmath.mpf(10) ** -9)
        else:
            a, b = mpmath.mpf(0), mpmath.mpf(10) ** -9 * (mpmath.pi / D) ** 2
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
