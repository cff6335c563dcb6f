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
[0, D/2] by parity.  Its interior nodes are counted when the eigenvalue
is solved, on the run's states at its accepted steps; its 1001 samples
are taken on the first read of EigenResult.eigenfunction, from the run's
dense output, whose continuous extension the run forms only then.  The
gap, and the command line's eigen and bounds rows, read none.

Every eigenvalue takes the seeded root path that find_ck's Robin
constants take too, _scipy.seeded_root (see eigen_shoot).  Its seed is
the Chebyshev collocation value at N = 48 points, folded by the index's
parity onto [0, D/2] (kernels.chebyshev_fold), and its ladder the
difference from N = 32 (Trefethen, Spectral Methods in MATLAB, 2000,
ch. 6-9); where V is constant there is no seed, and the comparison
bracket, 2e-9 of its scale wide around the closed form, is the interval.
Here the stacked pass integrates (theta, log r) at both of the
interval's ends together, sharing each V(z), and the eigenfunction is
the root's interpolation of the pass's dense output; the check is one
angle shot at the root, and Brent's method runs on angle shots, after
which a (theta, log r) run at its root gives the eigenfunction.  gap()
solves both indices in one call: a single run makes the pass of every
narrow interval, lambda1's and lambda2's ends together, each pair with
its own index's S, and each index reads its own rows; where both
indices end on Brent's branch, a single run at both roots gives both
eigenfunctions.  eigen_shoot is the one-index case of the same code.  The comparison bracket is
Rayleigh-Sturm: cs^2 is monotone on [0, D/2], so V takes its extremes
at z = 0 and z = D/2, and min-max puts the index-th eigenvalue within
[min V, max V] + (index pi/D)^2 (Sturm comparison).  Min-max on each parity class also bounds it
above by the Rayleigh quotient of the flat eigenfunction of that index
(bounds.lambda_upper_rayleigh), which near the cap K D^2 -> pi^2 is
smaller than the Sturm upper end by orders of magnitude.  Every
eigenvalue is positive, which caps the lower end at 0 where min V -> -inf
(n = 2 near the cap).  The bracket fixes S, and the answer is the angle's
root on every branch.

The cross-check route discretizes the same operator with second-order
central differences on N and 2N cells and Richardson-extrapolates the
eigenvalue across the doubling.  LAPACK's Sturm bisection (stebz) gives
each grid's eigenvalues, one call per grid for one index or both
(_scipy.tridiagonal_eigenvalues on N cells), and on 2N cells the call
(_scipy.tridiagonal_eigenpairs) adds one inverse iteration call (stein)
for the eigenvectors.
The two routes share no integration machinery, which is the point: their
agreement is evidence, not tautology.  gap(params, method) is the pair
entry of both: its table _ROUTES maps "shoot" and "fd" to the solver of
both indices, and its GapResult carries the dichotomy's side ("flat",
"unresolved" within the error estimates, or "below" or "above" 3 pi^2 /
D^2).

Also here: the same shooting applied to the first-order form (with the
drift term, no gauge), and two roots of Gauss hypergeometric functions,
found without an ODE solve: the eigenvalue in arbitrary precision (V is a
Pöschl-Teller potential) and the radial spherical-cap ground state.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from ._scipy import (
    brent,
    dop853_dense,
    dop853_end,
    seeded_interval,
    seeded_root,
    tridiagonal_eigenpairs,
    tridiagonal_eigenvalues,
)
from .bounds import lambda_upper_rayleigh
from .errors import DomainError, GapModelError, NonConvergenceError, as_integer
from .kernels import chebyshev_fold, collocation_ladder, tn
from .model import (
    GridFunction,
    check_index,
    flat_eigenvalue,
    potential,
    potential_array,
    potential_at,
    validate,
)

_ODE_TOL = 1e-12
_N_SAMPLES = 1001  # points in a shot eigenfunction on [-D/2, D/2]
_PARITY_TOL = 1e-5  # bound on |sin(theta(0) - index pi/2)| at the root
_ACCEPT = 1e-11  # largest accepted stacked-pass error estimate, over the accuracy scale


@dataclass(frozen=True)
class EigenResult:
    """One eigenvalue, its error estimate and its sup-normalized eigenfunction.

    node_count is the eigenfunction's count of interior sign changes,
    checked to be index - 1 when the result is made.  The eigenfunction's
    samples are taken on the first read of ``eigenfunction`` and kept,
    from what the result holds: for shooting, the 1001 samples of the
    (theta, log r) run's dense output, its nodes counted on the run's
    states at its accepted steps; for finite differences, the doubled
    grid's eigenvector, normalized then, its nodes counted on the vector.
    symmetry_residual is the parity defect: for shooting, |sin(theta(0) -
    index pi/2)| of the run at the root, at most _PARITY_TOL; for finite
    differences, sup|y(z) -+ y(-z)| over the samples, unchecked.
    """

    eigenvalue: float
    index: int
    method: str
    error_estimate: float
    node_count: int
    symmetry_residual: float
    form: str = "normal"
    # the callable that takes the eigenfunction's samples on first read
    _samples: object = field(repr=False, compare=False, default=None)

    @cached_property
    def eigenfunction(self):
        return self._samples()


def _angle_mid(lam, params, form, S):
    """Prüfer angle of (S y, y') at z = 0, shot from theta(-D/2) = 0.

    Any fixed S > 0 keeps the angle monotone in lam and its midpoint
    targets index * pi / 2; eigen_shoot fits S to the eigenvalue so the
    angle stays close to linear in z.  The shot integrates theta alone,
    not a one-pair _polar_rhs: DOP853's RMS error norm over (theta, log r)
    loosens theta's share of the tolerance, and at (2, 9.8696, 1), index
    2, the root of such a polar shot's angle missed by 5.1e-10 against an
    estimate of 2.9e-10.
    """
    sin, cos = math.sin, math.cos
    if form == "normal":
        V = potential_at(params)

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
            s = sin(th)
            c = cos(th)
            return S * c * c + lam_s * s * s - (n - 1) * tn(z, K) * s * c

    sol = dop853_end(rhs, -params.half, 0.0, [0.0], rtol=_ODE_TOL, atol=_ODE_TOL)
    if not sol.success:
        raise NonConvergenceError(f"angle integration failed: {sol.message}")
    return float(sol.y[0])


def _polar_rhs(lams, scales, params, form):
    """(theta, log r)' at every lam in lams, for S y = r sin(theta), y' = r cos(theta).

    The state stacks one (theta, log r) pair per lam, in the order of lams,
    each with its own scale S from scales, and each point's V(z) (tn(z) in
    the direct form) serves every pair.
    """
    sin, cos = math.sin, math.cos
    if form == "normal":
        V = potential_at(params)
        pairs = [(2 * i, lam, S) for i, (lam, S) in enumerate(zip(lams, scales))]

        def rhs(z, y):
            v, f = V(z), y.tolist()
            for i, lam, S in pairs:
                s, c = sin(f[i]), cos(f[i])
                q = (lam - v) / S
                f[i], f[i + 1] = S * c * c + q * s * s, (S - q) * s * c
            return f

    else:
        n1, K = params.n - 1, params.K
        pairs = [(2 * i, lam / S, S) for i, (lam, S) in enumerate(zip(lams, scales))]

        def rhs(z, y):
            t, f = n1 * tn(z, K), y.tolist()
            for i, q, S in pairs:
                s, c = sin(f[i]), cos(f[i])
                d = t * c
                f[i], f[i + 1] = S * c * c + q * s * s - d * s, (S - q) * s * c + d * c
            return f

    return rhs


def _polar_run(lams, scales, params, form):
    """Dense (theta, log r) solution at every lam in lams over [-D/2, 0].

    Each pair, scaled by its own S in scales, runs from 0 (y = 0, y' = 1)
    at -D/2, in one dop853_dense run ten times tighter than the angle
    shots.
    """
    sol = dop853_dense(_polar_rhs(lams, scales, params, form), -params.half, 0.0,
                       [0.0] * (2 * len(lams)), rtol=0.1 * _ODE_TOL, atol=0.1 * _ODE_TOL,
                       event=None)
    if not sol.success:
        raise NonConvergenceError(f"eigenfunction integration failed: {sol.message}")
    return sol


def _polar_y(rows, w):
    """y = e^(log r - max log r) sin(theta) from rows of (theta, log r):
    theta and log r are (1 - w) times the first pair's plus w times the
    last pair's."""
    theta, log_r = rows[:2] + w * (rows[-2:] - rows[:2])
    return np.exp(log_r - log_r.max()) * np.sin(theta)


def _mirrored(y, index):
    """y on [-D/2, 0], ending at z = 0, continued onto (0, D/2] with the
    index's parity."""
    return np.concatenate([y, (-1.0) ** (index - 1) * y[-2::-1]])


def _eigenfunction(sol, rows, w, params, index):
    """The eigenfunction of a _polar_run's rows, interpolated by w from their first lam to their last.

    rows are the index's own rows of the run: (theta, log r) at one lam,
    or at the two ends of its interval.  _polar_y of the rows' dense
    output on 501 points of [-D/2, 0], mirrored with the index's parity on
    an exactly symmetric grid, gives the 1001 samples on [-D/2, D/2],
    normalized as _normalized does.
    """
    left = np.linspace(-params.half, 0.0, _N_SAMPLES // 2 + 1)
    return _normalized(np.concatenate([left, -left[-2::-1]]),
                       _mirrored(_polar_y(sol.sol(left, rows), w), index))


def _step_nodes(sol, rows, w, index):
    """Interior nodes of _eigenfunction(sol, rows, w, ...), counted on the
    run's states at its accepted steps instead of on samples of its dense
    output: _polar_y of the rows there, mirrored with the index's parity."""
    return _count_interior_nodes(_mirrored(_polar_y(sol.y[rows], w), index))


def _normalized(z, values):
    """The GridFunction of values divided by their largest magnitude,
    signed so that the first interior sample is positive."""
    return GridFunction(z=z, values=values / math.copysign(np.max(np.abs(values)), values[1]))


def _count_interior_nodes(values):
    v = values[1:-1]
    scale = np.max(np.abs(v))
    v = v[np.abs(v) > 1e-9 * scale]
    return int(np.sum(v[:-1] * v[1:] < 0))


def _eigen_result(lam, err, eigenfunction, nodes, index, method, form, sym):
    """EigenResult after checking its eigenfunction's interior node count
    against index - 1.

    eigenfunction is the callable that samples the normalized
    GridFunction on first read; sym is the parity defect.
    """
    if nodes != index - 1:
        raise GapModelError(
            f"{method} index-{index} eigenfunction shows {nodes} interior "
            f"nodes, expected {index - 1}"
        )
    return EigenResult(
        eigenvalue=float(lam), index=index, method=method,
        error_estimate=float(err), node_count=nodes, symmetry_residual=sym, form=form,
        _samples=eigenfunction,
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

    The root comes from _scipy.seeded_interval and _scipy.seeded_root,
    which find_ck's Robin constants share: the interval [a, b] is the
    collocation seed +- delta, delta = max(3 |lam_48 - lam_32|, pad),
    inside the padded bracket, else the bracket, which constant V ((n -
    1)(n - 3) K = 0, no seed) makes 2 pad wide around the closed form; a
    half-width at most _PASS_WIDTH = 5e-6 of the accuracy scale gets a
    stacked pass, a linear interpolation lam* (weight w on b) and a check,
    accepted when (2 |r| + noise) / slope is at most the accept fraction
    of the accuracy scale; otherwise Brent runs on the root's side, on the
    interval, or on the bracket.  Here:

    - The pass is one dop853_dense run at 0.1 _ODE_TOL of (theta_a, log
      r_a, theta_b, log r_b); the check is one theta-only angle shot at
      lam*, r = theta(0; lam*) - index pi / 2; the noise is _ODE_TOL and
      the accept fraction _ACCEPT = 1e-11.  An accepted root's
      eigenfunction is the same interpolation of the pass's dense output,
      and its parity defect is |sin r|.  A pass that is refined is
      dropped without its dense output ever being formed.  Every constant-V call is accepted
      on its pass: on 44 calls (11 flat triples of eigen_sweep seeds 1-8
      and the tests, both forms and indices, n = 1 to 6, D from 1e-5 to 2,
      (3, 9.8696, 1) at the cap), within 3.2e-15 of the accuracy scale of
      (index pi / D)^2 - (n - 1)^2 K / 4 in the normal form and 4.0e-14 in
      the direct form, the error at most 0.045 of the estimate.  Brent on
      the bracket reaches only 1.2e-12 there, with 4 to 7 angle shots and a
      run at the root per eigenvalue.
    - gap() takes both indices through _shoot_root at once, and one
      dop853_dense run makes the pass of each narrow interval, up to 8
      rows, each pair at its own index's S; each index's check shot,
      accept rule, Brent fallback and parity and node checks stay its
      own.  The run's step control spans all its rows, so the pair's
      roots differ from this function's in the last bits: on 300
      eigenvalues (eigen_sweep seeds 1-8 and the tested triples) 258
      differ, by at most 0.054 of the estimate, and the pair's estimates
      bound the error against the closed forms as below.  This function
      is the one-index case, bit for bit the same as before the pass was
      shared.
    - Brent's shots are theta-only angle shots at _ODE_TOL, and so is
      every value in the dict that _shoot_error reads: one angle of the
      tighter pass among them reads as a fall and inflates the estimate
      about 1e5-fold.  It stops at 1e-14 max(|lam|, (pi / D)^2), and a
      (theta, log r) run at its root gives the eigenfunction and the angle
      there under the tighter tolerance.  Where both of gap()'s indices
      end on Brent's branch, one run at both roots does this for both:
      the roots are Brent's, bit for bit those of this function, and the
      run's angles, and so the estimates, move in the last digits (by
      up to a factor 2 on the near-cap map, where 74 of 112 gaps save a
      run this way).
    - The pass width.  On a sweep of 508 calls (both indices of every
      shooting triple of the benchmark's eigen_sweep seeds 1-8, of the
      near-cap map of sweeps/eigen_near_cap.py and of the edge and test
      triples), with every seed inside the bracket given a pass: 321 were
      accepted, all with delta at most 4.2e-6 of the accuracy scale, and
      160 were refined, all but 7 with delta above 5e-6.  The 7 are (4,
      1.671925, 2) index 2, where the check shot reads 9e-12 below the pass
      (delta 2.7e-9), index 2 of (4, 9.6, 1) and (4, 38.4, 0.5) (4.6e-6),
      and index 1 of (7, 9.4, D) at D = 1 and 0.5 (4.0e-6), (8, 9, 1)
      (1.6e-6) and (10, 9, 1) (2.9e-6).  Near the cap a wide pass's root
      is off by far more than the accept rule allows: by 5.3e-8 of the
      scale at (4, 9.86, 1), index 2.

    On Brent's branches error_estimate is the width of the final
    sign-change bracket plus the ODE noise in theta(0) divided by the
    measured slope d theta(0) / d lam; the noise is measured by the run
    at the root and by any fall of the angle between Brent's shots.  On
    the stacked pass it is the accept rule's estimate.  Against the closed
    forms of eigen_shoot_mp at 25 digits, over 300 eigenvalues (the sweep
    above without the near-cap map), the error is at most 0.72 of the
    estimate on the 264 accepted seeded passes (median 0.005) and 0.96 on
    Brent's branches, at (10, 9.8696, 1), index 2; gap()'s are at most
    0.85 of its estimates, at the same eigenvalue; over the tested grid,
    near the cap, at small D and at (10, 9.8696, 1), (8, -400, 1), (6,
    -400, 1) and (1000, 1, 1), it bounds the error and stays below 1e-9
    max(|lam|, (pi / D)^2), with one measured exception: n = 2 at the
    cap, where at (2, 39.4784, 0.5) it reads 2.4e-6 for index 1 and
    1.8e-6 for index 2, against errors of -1.2e-6 and +8.9e-7 from the
    closed form.

    A parity defect (symmetry_residual, 0 when y or y' vanishes at z = 0
    as the index's parity asks) above _PARITY_TOL = 1e-5 raises
    GapModelError; the largest on sweeps/eigen_near_cap.py's map is
    3.4e-7, and a wrong parity gives about 1.  So does a node count other
    than index - 1, counted before the call returns on the run's states at
    its accepted steps: the index's rows, interpolated by the root's
    weight and mirrored by parity, under the rule the samples had.  On
    every triple of eigen_sweep seeds 1-8, the tested edge triples and
    the near-cap map (1,674 eigenfunctions, both forms, gap()'s pair and
    each index alone) it equals the count on the 1001 samples.  The
    samples are taken on the first read of the result's eigenfunction,
    bit for bit those the run gave when they were taken at once.  An (index pi / D)^2
    that overflows a double (index 2 at D below about 4.68e-154) raises
    DomainError before any solve.
    """
    params = validate(params)
    index = check_index(index)
    if form not in ("normal", "direct"):
        raise DomainError(f"form must be 'normal' or 'direct', got {form}")
    return _shoot(params, (index,), form)[0]


def _shoot(params, indices, form):
    """The shooting EigenResult of each of indices, from one _shoot_root call."""
    results = []
    for index, (lam, err, sol, rows, w, residual) in zip(
            indices, _shoot_root(params, indices, form)):
        defect = abs(math.sin(residual))
        if not defect <= _PARITY_TOL:
            raise GapModelError(f"shooting index-{index} eigenfunction misses its parity "
                                f"at z = 0 by {defect:.3g} > {_PARITY_TOL:g}")
        # every eigenvalue is positive; near the cap Brent can settle in the
        # noise just below the padded lower end 0, and clamping only shrinks
        # the error that the estimate bounds
        results.append(_eigen_result(max(lam, 0.0), err,
                                     partial(_eigenfunction, sol, rows, w, params, index),
                                     _step_nodes(sol, rows, w, index), index, "shooting",
                                     form, defect))
    return results


def _comparison_bracket(params, index, v_mid, v_end, floor):
    """The padded Rayleigh-Sturm bracket (lo, hi) of the index-th eigenvalue,
    its pad, and the angle scale S fitted to it; see eigen_shoot."""
    base = flat_eigenvalue(params, index)
    lo = max(min(v_mid, v_end) + base, 0.0)
    hi = max(v_mid, v_end) + base
    pad = 1e-9 * max(abs(lo), abs(hi), floor)
    lo -= pad
    # V is even, so min-max on the index-th eigenfunction's parity class
    # bounds lam by the flat eigenfunction's Rayleigh quotient
    hi = min(hi, lambda_upper_rayleigh(params, index)) + pad
    # the angle scale fitted to this eigenvalue: the local wavenumber at the
    # midpoint, where the target angle is read, at lam near hi
    return lo, hi, pad, math.sqrt(max(hi - v_mid, floor))


def _shoot_root(params, indices, form):
    """eigen_shoot's root of the midpoint angle at each of indices, with the
    runs that give their eigenfunctions, whose dense output is formed only
    when one is sampled.

    Every index's comparison bracket, S, seed and seeded interval
    (_scipy.seeded_interval) come first, and one _polar_run makes the
    stacked pass of every narrow interval: (theta, log r) at both of its
    ends, each pair scaled by its own index's S, four rows per interval in
    the order of indices.  Each index's seeded_root is then given its ends
    from that run, and makes its own check shot, and Brent's shots where
    it needs them.  Last, one _polar_run at every root Brent found, two
    rows per root in the order of indices, gives their eigenfunctions and
    their angles under the tighter tolerance.

    Returns one (lam, err, sol, rows, w, r) per index: the root, its error
    estimate, a dense (theta, log r) run and the index's rows in it, the
    weight of the rows' last lam in lam, and theta(0) - index pi / 2 at
    lam.  For an accepted stacked pass, sol is the pass, rows the index's
    four, w the weight of the interval's upper end and r the check shot's;
    at Brent's root, sol is the run at Brent's roots, rows the index's
    two, w = 0 and r that run's.  See eigen_shoot.
    """
    # cs^2 is monotone on [0, D/2], so V takes its extremes at z = 0 and D/2;
    # lam > 0 because the direct form's quadratic form is int phi'^2 cs^(n-1),
    # which keeps the lower end finite where V(D/2) -> -inf at the cap (n = 2)
    v_mid = potential(0.0, params)
    v_end = potential(params.half, params)
    floor = (math.pi / params.D) ** 2
    solves, stack = [], []
    for index in indices:
        lo, hi, pad, S = _comparison_bracket(params, index, v_mid, v_end, floor)
        # theta(0; lam) is strictly increasing in lam, so a sign change over a
        # seeded interval inside (lo, hi) holds the one root the comparison
        # bracket holds.  Where V is constant (params.flat) the bracket is
        # 2 pad wide and no seeded interval, at least 2 pad wide, fits inside
        # it, so no seed is computed
        seed = ladder = math.nan
        if not params.flat:
            seed, ladder = _colloc_seed(params, index)
        a, b, narrow = seeded_interval(lo, hi, pad, seed, ladder, floor)
        rows = []
        if narrow:
            rows = list(range(2 * len(stack), 2 * len(stack) + 4))
            stack += [(a, S), (b, S)]
        solves.append((index, lo, hi, a, b, S, rows))
    # the stacked pass of every narrow interval in one run, each V(z)
    # serving every pair
    run = _polar_run(*zip(*stack), params, form) if stack else None

    def root(index, lo, hi, a, b, S, rows):
        target = 0.5 * index * math.pi

        def g(lam):
            # theta-only shots at _ODE_TOL, so that _shoot_error compares
            # like with like
            return _angle_mid(lam, params, form, S) - target

        def check(lam):
            return g(lam), None

        ends = None
        if rows:
            ends = float(run.y[rows[0], -1]) - target, float(run.y[rows[2], -1]) - target
        lam, evals, passed = seeded_root(
            g, lo, hi, a, b, ends, check, floor=floor, accept=_ACCEPT, noise=_ODE_TOL,
            xtol=1e-14 * floor, rtol=1e-14, unbracketed=NonConvergenceError(
                f"comparison bracket [{lo:.6g}, {hi:.6g}] does not straddle the "
                f"index-{index} angle target"))
        if passed:
            err, w, r, _ = passed
            return lam, S, evals, (lam, err, run, rows, w, r)
        return lam, S, evals, None

    roots = [root(*solve) for solve in solves]
    # one run at every Brent root, each V(z) serving every pair as in the pass
    at_roots = [(lam, S) for lam, S, _, passed in roots if not passed]
    at_run = _polar_run(*zip(*at_roots), params, form) if at_roots else None
    results, row = [], 0
    for index, (lam, _, evals, passed) in zip(indices, roots):
        if not passed:
            r = float(at_run.y[row, -1]) - 0.5 * index * math.pi
            passed = lam, _shoot_error(lam, evals, r), at_run, [row, row + 1], 0.0, r
            row += 2
        results.append(passed)
    return results


def _colloc_seed(params, index):
    """Collocation estimate of the index-th eigenvalue and its ladder difference.

    The smallest eigenvalue of -(2 / D)^2 d2 + diag V(D x / 2) in the
    index's parity class (even for index 1, odd for index 2), at each size
    of kernels.collocation_ladder, which returns the largest size's value
    and its distance to the smaller size's.  Neither need be right near
    the cap, where V's pole is close to D/2: _shoot_root checks both.  A
    failed eigensolve, or a matrix that overflows a double (D below about
    1e-151), which numpy.linalg.eigvals refuses with LinAlgError, gives
    NaN, which _shoot_root never uses.
    """
    def eigenvalue(N):
        x, _, d2 = chebyshev_fold(N, index - 1)
        V = potential_array(params.half * x, params)
        with np.errstate(over="ignore"):
            A = -(2.0 / params.D) ** 2 * d2[:, 1:] + np.diag(V)
        return float(np.linalg.eigvals(A).real.min())

    return collocation_ladder(eigenvalue)


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
    with its zero end values, sup-normalized and positive next to -D/2 on
    its first read, its nodes counted on the vector.  A LAPACK failure
    raises NonConvergenceError.  gap(params, "fd"), the command line's
    fd row, takes both indices from the same two calls (_fd(params, (1,
    2)), the "fd" entry of gap's route table _ROUTES): stebz bisects for
    both eigenvalues at once and stein finds both vectors.  On the 14
    values of the golden FD triples, 10 of the pair's are this
    function's bits and 4 differ by at most 1.1e-15 relative.
    This function is the one-index case of the same code, bit for bit
    the same as with one index per call.

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
    index = check_index(index)
    return _fd(params, (index,), grid_size)[0]


def _fd(params, indices, grid_size=1024):
    """The finite-difference EigenResult of each of indices, consecutive and
    ascending: one stebz call on the coarse grid and one stebz + stein call
    on the doubled grid serve them all (see eigen_fd)."""
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
    # h; stebz stops once each eigenvalue lies in an interval no wider than
    # max(tol, 2 eps |lam|) <= 1e-14 max(1, |lam|) in the unscaled units
    k = round(math.log2(params.D / grid_size))
    tol = math.ldexp(1e-14, 2 * k)
    first, last = indices[0], indices[-1]
    try:
        lams_n = tridiagonal_eigenvalues(*_fd_matrix(params, grid_size, k), first, last, tol)
        lams_2n, vs = tridiagonal_eigenpairs(*_fd_matrix(params, 2 * grid_size, k), first, last,
                                             tol)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    z = np.linspace(-params.half, params.half, 2 * grid_size + 1)
    results = []
    for index, lam_n, lam_2n, v in zip(indices, lams_n.tolist(), lams_2n.tolist(), vs.T):
        y = np.concatenate([[0.0], v, [0.0]])
        try:
            lam = math.ldexp((4.0 * lam_2n - lam_n) / 3.0, -2 * k)
            err = math.ldexp(abs(lam_2n - lam_n) / 3.0, -2 * k)
        except OverflowError:
            raise DomainError(f"eigenvalue {index} exceeds the largest double "
                              f"at D = {params.D:g}") from None
        sym = np.max(np.abs(v - (-1.0) ** (index - 1) * v[::-1])) / np.max(np.abs(v))
        results.append(_eigen_result(lam, err, partial(_normalized, z, y),
                                     _count_interior_nodes(y), index, "finite-difference",
                                     "normal", float(sym)))
    return results


@dataclass(frozen=True)
class GapResult:
    """lambda1 and lambda2 of one route, the gap lambda2 - lambda1, and its
    excess over reference = 3 pi^2 / D^2.

    side is the dichotomy's side: "flat" where V is constant (n = 1, n = 3
    or K = 0), whose excess is rounding noise of either sign; else
    "unresolved" where |excess| is at most the sum of the two eigenvalues'
    error estimates, so that its sign may be the routes' error (n = 2 at
    K D^2 = 1e-9, whose true excess -3 K^2 D^2 / (32 pi^2) is -9.5e-21
    against estimates near 1e-11); else "below" for a negative excess and
    "above" for a positive one.  gap() makes every one.
    """

    lambda1: EigenResult
    lambda2: EigenResult
    gap: float
    reference: float
    excess: float
    side: str


# gap()'s method -> the solver of consecutive ascending indices it runs
_ROUTES = {"shoot": partial(_shoot, form="normal"), "fd": _fd}


def gap(params, method="shoot"):
    """Spectral gap of one route, with its excess over 3 pi^2 / D^2.

    method names the route in _ROUTES, whose solver gives lambda1 and
    lambda2 from one call: "shoot" (_shoot in the normal form), where one
    _shoot_root call's stacked pass serves both indices (see eigen_shoot),
    or "fd" (_fd), one stebz call per grid and one stein call (see
    eigen_fd).  Any other method raises DomainError before any solve.
    Shooting checks both node counts on the runs' step states; no
    eigenfunction is sampled until one is read.  On either route an
    eigenvalue pair out of order raises GapModelError ("eigenvalue
    ordering violated").  The command line's eigen row is this call, with
    its --method; the bounds row reads the shooting pair.
    """
    params = validate(params)
    if method not in _ROUTES:
        raise DomainError(f"method must be one of {', '.join(map(repr, _ROUTES))}, "
                          f"got {method!r}")
    r1, r2 = _ROUTES[method](params, (1, 2))
    if not (r1.eigenvalue < r2.eigenvalue):
        raise GapModelError("eigenvalue ordering violated")
    g = r2.eigenvalue - r1.eigenvalue
    ref = 3.0 * math.pi**2 / params.D**2
    excess = g - ref
    side = ("flat" if params.flat
            else "unresolved" if abs(excess) <= r1.error_estimate + r2.error_estimate
            else "below" if excess < 0 else "above")
    return GapResult(lambda1=r1, lambda2=r2, gap=g, reference=ref, excess=excess, side=side)


def ball_first_eigen(n, D):
    """Ground state of the radial problem on a spherical cap of radius D/2.

    y'' + (n-1) cot(x) y' + lam y = 0 with a regular center is solved by
    2F1(-nu, nu + n - 1; n/2; sin^2(x/2)), lam = nu (nu + n - 1); Brent's
    method (`_scipy.brent`, whose iteration cap raises NonConvergenceError)
    finds its first root in nu at x = D/2, with mpmath.hyp2f1 at
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
    nu = brent(end_value, lo, hi, xtol=1e-16, rtol=8.9e-16)
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
    (_shoot_root's root alone, with no eigenfunction sampled and no parity
    or node check; at Brent's root that still costs one dense (theta, log
    r) run, negligible beside mpmath; from 0 and 1e-9 (pi/D)^2 where that
    root clamps to 0) polishes their root at
    z = D/2 until two iterates agree to 10^-(dps-5) relative, in dps digits
    plus those cos^2 t = 1 - sin^2 t loses (13 at (2, 9.8696, 1)).  Runs at
    dps and dps + 10 agree within 10^-dps max(|lam|, (pi/D)^2), the
    accuracy's scale: at (10, 9.8, 1), 30 and 40 digits agree to 1.5e-19 of
    lambda1 = 1.7e-16.  1-60 ms per root; near the cap, for even n (an
    integer c - a - b, which mpmath's 2F1 perturbs), up to a few seconds.
    dps must be an integer of at least 6, from an int or an integral float
    (DomainError otherwise, before any solve): at 5 or fewer the stop test
    accepts the first secant iterate.
    """
    import mpmath

    params = validate(params)
    index = check_index(index)
    dps = as_integer(dps, 6, "dps must be an integer >= 6")
    n, K, D = params.n, params.K, params.D
    seed = max(_shoot_root(params, (index,), "normal")[0][0], 0.0)
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


def __getattr__(name):
    # scipy's solve_ivp, which no route calls, imported when first read:
    # perfbench/tracing.py rebinds it
    if name == "solve_ivp":
        from ._scipy import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
