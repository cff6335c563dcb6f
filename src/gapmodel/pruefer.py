"""Angle-radius constructions for the half-interval Robin problem.

Everything here revolves around the scalar equation

    phi'' = -(pi^2/D^2 + c / cs_K^2(z)) phi        on [0, D/2],

written in polar form phi = r cos q, phi' = r sin q.  The angle q obeys

    q' = -(c/cs_K^2 + pi^2/D^2) cos^2 q - sin^2 q,

which stays smooth where the log-derivative psi = tan q = (log phi)' blows
up, so q is what gets integrated; psi and phi are reconstructed afterward.

The Robin constant c_k is the unique c < 0 with q(D/2, 0, c) = -pi/2 +
arctan(1/k); it yields the positive eigenfunction with phi'(0) = 0,
phi(D/2) = 1/k, phi'(D/2) = -1.  Left and right log-derivative solutions
around c_k combine into the supersolution min{psi^L_{c_k-s}, psi^R_{k,c_k+s}}
used as comparison data elsewhere.

find_ck solves for c_k on the seeded root path that spectral's
eigenvalues take too (_scipy.seeded_root): a Chebyshev collocation seed,
one stacked end-angle pass and one checked run, or Brent's method (see
find_ck).  The checked run, (q, log r) from 0 to D/2 at c_k, is the Robin
profile and is psi_left(c_k)'s run as well; it is kept with c_k, so
robin_eigenfunction, robin_boundary_report and flow.stationary_reference
read it without integrating again.

The angle never enters this module's equations through n; the dimension is
carried in params only so results can be labeled consistently.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy.integrate import solve_ivp  # called by no route; perfbench/tracing.py rebinds it

from ._scipy import brent, dop853_dense, dop853_end, seeded_interval, seeded_root
from .errors import (
    BlowupError,
    BracketError,
    CoverageError,
    DomainError,
    HypothesisError,
)
from .kernels import chebyshev_fold, collocation_ladder, cs, cs_array, cs_at
from .model import GridFunction, ModelParams, validate

_ODE_TOL = 1e-13
_ANGLE_GUARD = 1e-3  # samples of tan q only where |q| < pi/2 - guard
_HALF_PI = math.pi / 2
_N_SAMPLES = 2001  # points in a uniform sample of [0, D/2] or of a branch
_ANGLE_TOL = 1e-11  # largest end-angle defect accepted at the Robin constant
_ACCEPT = 1e-12  # largest accepted stacked-pass estimate, over max(|c|, (pi/D)^2)
_CK_CACHE_SIZE = 256  # Robin constants kept, one per (k, K, D)


def _check_positive(name, value):
    """Reject a slope, tolerance or time control that is not finite and positive."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")


def _angle_rhs(cvals, params):
    """Right-hand side (z, y) -> y' of the angle-radius system, with one
    (q, log r) pair of y per c in cvals, in order, on floats through math.
    cs_K(z)^2 is formed once per point, through the closure cs_at(K) built
    once per call of _angle_rhs, and serves every pair."""
    cs_K, cos, sin = cs_at(params.K), math.cos, math.sin
    pi2_over_D2 = math.pi**2 / params.D**2
    pairs = [(2 * i, c) for i, c in enumerate(cvals)]

    def rhs(z, y):
        cs2 = cs_K(z) ** 2
        f = y.tolist()
        for i, c in pairs:
            w = c / cs2 + pi2_over_D2
            cq, sq = cos(f[i]), sin(f[i])
            # log r instead of r keeps the radius positive by construction
            f[i], f[i + 1] = -w * cq * cq - sq * sq, (1.0 - w) * sq * cq
        return f

    return rhs


def _succeeded(sol):
    """sol, unless the angle integration behind it failed (DomainError)."""
    if not sol.success:
        raise DomainError(f"angle integration failed: {sol.message}")
    return sol


@dataclass(frozen=True)
class RiccatiSolution:
    """Branch of psi = (log phi)' on its interval of existence.

    side is "left" (psi(0) = 0, integrated forward) or "right"
    (psi(D/2) = -k, integrated backward).  psi_at evaluates the dense angle
    interpolant formed from the compiled DOP853 steps of the branch
    (_scipy.dop853_dense), anywhere in the interval.  The samples z and psi
    cover the part of the interval where |q| < pi/2 - 1e-3; they are taken
    from that interpolant on first read and kept, since the flow and the
    command line only call psi_at.
    """

    side: str
    c: float
    k: float
    interval: tuple
    params: ModelParams
    _q: object = field(repr=False, compare=False, default=None)

    @cached_property
    def z(self):
        return _sample_band(self._q, *self.interval)

    @cached_property
    def psi(self):
        return np.tan(self._q(self.z)[0])

    def psi_at(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self.interval
        if np.any(z < lo - 1e-12) or np.any(z > hi + 1e-12):
            raise DomainError(f"evaluation outside existence interval {self.interval}")
        return np.tan(self._q(z)[0])

    def residual_max(self):
        """Largest defect in psi' + psi^2 + pi^2/D^2 + c/cs^2 = 0.

        The derivative is measured with a fourth-order central difference
        of step h = 2.5e-4 D of the reconstructed psi, on sample points
        where |psi| <= 3 (outside that band any finite-difference
        derivative of tan is numerically meaningless, which would test the
        measurement rather than the solution).
        """
        D, K = self.params.D, self.params.K
        h = 2.5e-4 * D
        lo, hi = self.interval
        mask = np.abs(self.psi) <= 3.0
        zs = self.z[mask]
        zs = zs[(zs >= lo + 2 * h) & (zs <= hi - 2 * h)]
        if zs.size == 0:
            return 0.0
        d = (
            self.psi_at(zs - 2 * h)
            - 8.0 * self.psi_at(zs - h)
            + 8.0 * self.psi_at(zs + h)
            - self.psi_at(zs + 2 * h)
        ) / (12.0 * h)
        cs_K = cs_at(K)
        w = np.array([self.c / cs_K(z) ** 2 for z in zs.tolist()])
        resid = d + self.psi_at(zs) ** 2 + math.pi**2 / D**2 + w
        return float(np.max(np.abs(resid)))


def _sample_band(q, lo, hi):
    """Sample points where |q| stays clear of pi/2, so tan q is well resolved."""
    zs = np.linspace(lo, hi, 8 * _N_SAMPLES)
    qs = q(zs)[0]
    kept = zs[np.abs(qs) < _HALF_PI - _ANGLE_GUARD]
    if kept.size == 0:
        return kept
    step = max(1, kept.size // _N_SAMPLES)
    out = kept[::step]
    if out[-1] != kept[-1]:
        out = np.append(out, kept[-1])
    return out


def _branch(side, k, c, params, z0, q0, direction):
    """Riccati branch shot from z0 (0 or D/2) toward the other end with q(z0) = q0.

    One compiled DOP853 run (_scipy.dop853_dense) stops at the first step
    over which q crosses direction * pi/2, and the branch ceases at the
    crossing point of that step's interpolant.  If that lies more than
    1e-9 D/2 from the far end, BlowupError is raised and carries the
    truncated branch as its partial.  A failed run raises DomainError and
    gives no branch, and a c that is not finite raises DomainError before
    any run.
    """
    if not math.isfinite(c):
        raise DomainError(f"Riccati constant c must be finite, got {c}")
    half = params.half
    z1 = half - z0

    def reach_pole(z, y):
        return y[0] - direction * _HALF_PI

    reach_pole.direction = direction

    sol = _succeeded(dop853_dense(_angle_rhs([c], params), z0, z1, [q0, 0.0], rtol=_ODE_TOL,
                                  atol=_ODE_TOL, event=reach_pole))
    q = partial(sol.sol, rows=[0])
    z_cease = z1 if sol.t_event is None else float(sol.t_event)
    interval = (min(z0, z_cease), max(z0, z_cease))
    branch = RiccatiSolution(side=side, c=float(c), k=k, interval=interval,
                             params=params, _q=q)
    if abs(z1 - z_cease) > 1e-9 * half:
        raise BlowupError(
            f"{side} branch ceases at z = {z_cease:.6g} "
            f"(angle reached {'+' if direction > 0 else '-'}pi/2)",
            z=z_cease, partial=branch,
        )
    return branch


def psi_left(c, params):
    """Forward log-derivative branch with psi(0) = 0.

    Raises BlowupError if q reaches -pi/2 strictly inside [0, D/2) (the
    finite Riccati solution ceases there).  The exception carries the
    location as z and the truncated branch as partial, the one way to
    have it (see supersolution).
    """
    params = validate(params)
    return _branch("left", float("nan"), c, params, 0.0, 0.0, -1.0)


def psi_right(k, c, params):
    """Backward log-derivative branch with psi(D/2) = -k.

    Integrated from z = D/2 toward 0; if the angle reaches +pi/2 at some
    z_minus > 1e-9 D/2 the branch exists only on (z_minus, D/2], and
    BlowupError is raised carrying z_minus as z and that branch as
    partial.
    """
    params = validate(params)
    _check_positive("boundary slope k", k)
    return _branch("right", float(k), c, params, params.half, -math.atan(float(k)), 1.0)


def flat_ck(k, D):
    """Closed-form flat-space (K = 0) Robin constant: nu tan(nu D/2) = k.

    The bracket for nu runs from min(1e-12, sqrt(k / D)), where
    nu tan(nu D/2) is about k/2, to pi/D (1 - 1e-12).  Its lower end is
    1e-12 for k above about 1e-24 D, and below that keeps every normal
    float k > 0 inside the bracket.  BracketError when k lies beyond the
    upper end's reach (about 2e12 / D).
    """
    lo, hi = min(1e-12, math.sqrt(k / D)), math.pi / D * (1.0 - 1e-12)

    def f(nu):
        return nu * math.tan(nu * D / 2.0) - k

    if not f(lo) < 0.0 < f(hi):
        raise BracketError(f"flat bracket [{lo:.6g}, {hi:.6g}] does not straddle nu for k = {k}")
    nu = brent(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    return nu * nu - math.pi**2 / D**2


def _end_angles(cvals, params):
    """q(D/2) at each c of cvals, all shot from q(0) = 0 in one compiled
    DOP853 run (_scipy.dop853_end, end state only).

    The shot carries log r, which no caller reads, because DOP853's RMS
    error norm runs over the whole state: a q-only shot chooses other
    steps, and changed find_ck's right-hand-side points by -33 % to +93 %
    over 20 (k, K, D) cases, no saving to take.
    """
    sol = _succeeded(dop853_end(_angle_rhs(cvals, params), 0.0, params.half,
                                [0.0] * (2 * len(cvals)), rtol=_ODE_TOL, atol=_ODE_TOL))
    return sol.y[::2].tolist()


def _profile(c, params):
    """The run at c from q(0) = 0, r(0) = 1 to D/2: one compiled DOP853 run
    (_scipy.dop853_dense, no event) whose sol evaluates (q, log r).

    It steps as _end_angles([c]) does, so its end angle is that shot's bit
    for bit, and as psi_left(c) does, whose pole event never fires at
    c_k, so its q row is psi_left(c_k)'s bit for bit.
    """
    return _succeeded(dop853_dense(_angle_rhs([c], params), 0.0, params.half, [0.0, 0.0],
                                   rtol=_ODE_TOL, atol=_ODE_TOL, event=None))


def _colloc_seed(k, K, D, below):
    """Collocation estimate of c_k and its ladder difference.

    The smallest eigenvalue c of -cs_K^2 (phi'' + (pi/D)^2 phi) = c phi for
    even phi on [-D/2, D/2] with phi' = -k phi at D/2, at each size of
    kernels.collocation_ladder (Trefethen, Spectral Methods in MATLAB,
    2000, ch. 6-9): the Robin row at x = 1 gives phi(D/2) in terms of the
    interior values, and is eliminated from the interior rows before the
    eigensolve, which is inverse iteration from below, a value under c
    (_smallest_eigenvalue).  Returns the largest size's value and its
    distance to the smaller size's.  A singular solve, or a matrix or
    value that is not finite, gives NaN, which _robin_constant never uses.
    """
    s, pi2_over_D2 = 2.0 / D, (math.pi / D) ** 2

    def eigenvalue(N):
        x, row, d2 = chebyshev_fold(N, 0)
        with np.errstate(all="ignore"):
            m = d2[:, 1:] + np.outer(d2[:, 0], row[1:] * (-s / (s * row[0] + k)))
            m *= s * s
            m[np.diag_indices_from(m)] += pi2_over_D2
            m *= -cs_array(0.5 * D * x, K)[:, None] ** 2
            return _smallest_eigenvalue(m, below)

    return collocation_ladder(eigenvalue)


_SQUARINGS = 40  # most squarings of the inverse in _smallest_eigenvalue


def _smallest_eigenvalue(m, sigma):
    """The eigenvalue of m nearest sigma, for sigma below every eigenvalue's
    real part: the smallest eigenvalue, by inverse iteration.

    (m - sigma I)^-1 is solved for once and squared, rescaled, until the
    Rayleigh quotient mu of the inverse on the largest column of the power
    stops changing, at most _SQUARINGS times; the eigenvalue is sigma +
    1/mu.  That sum loses digits where sigma lies far below it, about
    eps |sigma / c| relative (c_k at K D^2 = -400 is 1e8 times closer to 0
    than the comparison bracket's lower end), and the ladder difference of
    _colloc_seed then shows the loss.  numpy.linalg.eigvals agrees (median
    2e-13 relative on 368 seed matrices), but its first call makes about
    0.9 MB of LAPACK code resident, against 0.25 MB for the solve, in a
    process whose other linear solves are tridiagonal.  A singular solve
    raises numpy.linalg.LinAlgError.
    """
    eye = np.eye(len(m))
    inv = np.linalg.solve(m - sigma * eye, eye)
    power, mu = inv, math.inf
    for _ in range(_SQUARINGS):
        power = power @ power
        power /= np.abs(power).max()
        v = power[:, np.abs(power).max(axis=0).argmax()]
        mu, last = (v @ (inv @ v)) / (v @ v), mu
        if abs(mu - last) <= 1e-15 * abs(mu):
            break
    return float(sigma + 1.0 / mu)


def find_ck(k, params):
    """Robin constant: the c < 0 with q(D/2, 0, c) = -pi/2 + arctan(1/k).

    The end angle q(D/2; c) falls strictly as c grows.  Since cs_K^2 lies
    between cs_K(D/2)^2 and 1, comparing c / cs_K^2 with the flat
    coefficient puts c_k between the closed-form flat constant c_flat and
    c_flat cs_K(D/2)^2, so c_k exists for every k > 0; flat_ck gives
    c_flat for k from the smallest normal float up to about 2e12 / D.
    That comparison bracket, padded by 1e-9 of its scale (at least
    (pi/D)^2, so the pad outruns the ODE noise where K = 0 makes the
    bracket a point), holds every interval below.

    The root comes from _scipy.seeded_interval and _scipy.seeded_root,
    which spectral's eigenvalues share, on g(c) = target - q(D/2; c),
    increasing: the interval is the seed +- max(3 ladder, pad) inside the
    padded bracket, else the bracket; a half-width at most _PASS_WIDTH =
    5e-6 of max(|midpoint|, (pi/D)^2) gets a stacked pass, a linear
    interpolation c* and a check, accepted when (2 |r| + noise) / |slope|
    is at most the accept fraction of max(|c*|, (pi/D)^2); otherwise
    Brent runs on the root's side, on the interval, or on the bracket.
    Here:

    - The seed, for K != 0, is the Chebyshev collocation value at N = 48
      (_colloc_seed), and its ladder |c_48 - c_32|.  K = 0 computes none,
      and its padded bracket, 2 pad wide around the closed form, is the
      interval.
    - The pass is one compiled DOP853 run (_scipy.dop853_end) of (q, log
      r) from both ends of the interval together; the check is one dense
      run at c* (_scipy.dop853_dense), r its end angle less the target;
      the noise is _ODE_TOL = 1e-13 and the accept fraction _ACCEPT =
      1e-12.  An accepted check run is the Robin profile, kept with c_k.
    - Brent's shots are end-angle shots, the check's end angle among
      them, and it stops at 1e-13 relative; the dense run at its root is
      the profile.

    On 126 constants, k in {0.5, 1, 10, 1e2, 1e3, 1e4}, K D^2 in {-8, -4,
    -1, 0, 2, 8, 9.8} and D in {0.5, 1, 2}, 107 take the pass's one shot
    and one dense run.  12 at K D^2 = 9.8, k <= 100 at every D, have a
    seed ladder too wide for a pass and go straight to Brent with 7 to 16
    shots and one dense run.  The other 7, at K D^2 = 8 with k <= 1 and
    at K D^2 = 9.8 with k = 1e3 at D = 0.5, refine after the pass with 4
    end-angle runs and a second dense run (Brent alone took 3 to 22
    shots, median 8).  All 126 make 405 runs and 400,463 right-hand-side
    points with each kept profile read once, and 383,513 with none read: a
    dense run forms its continuous extension on the first read of its
    dense output, so a refined constant's discarded check run never does
    (401,963 when every dense run formed it).  With an interval of 10
    ladders they made 437 runs and 448,169 points:
    4 more constants were refined then, and k = 1e3 at K D^2 = 9.8, D =
    0.5, went straight to Brent.  From the narrower interval Brent takes
    2 to 3 more shots for k = 1 at K D^2 = 9.8 and 0 to 5 fewer for the
    other 9 constants it starts on.  Against the 50-digit flat relation
    (K = 0, D = 1) the relative error is 3.6e-14 at k = 10, 6.9e-13 at
    k = 1e2, 8.1e-12 at k = 1e3 and 8.3e-11 at k = 1e4, about 8e-15 k, the
    same as Brent's; at K = 2, D = 1 it is 3.7e-15 to 8.2e-11 over k = 10
    to 1e4 against the Poschl-Teller closed form.  BracketError means the
    padded bracket does not straddle the root, or the end-angle defect at
    the accepted root exceeds _ANGLE_TOL = 1e-11.  c_k does not depend on
    n, so one solve is kept per (k, K, D), with its profile; a failed
    solve is not kept.
    """
    return _robin(k, validate(params))[0]


def _robin(k, params):
    """(c_k, profile) for valid params: the Robin constant and the evaluator
    z -> (q, log r) of the _profile run at it, from the cache."""
    _check_positive("boundary slope k", k)
    return _robin_constant(float(k), params.K, params.D)


@lru_cache(maxsize=_CK_CACHE_SIZE)
def _robin_constant(k, K, D):
    """(c_k, profile) for a valid slope k and pair (K, D), by the
    interval, stacked pass and check, or Brent's method, that find_ck
    describes."""
    params = ModelParams(1, K, D)  # the angle equation does not involve n
    target = -_HALF_PI + math.atan(1.0 / k)

    def g(c):
        # the end angle falls as c grows, and seeded_root's g increases
        return target - _end_angles([c], params)[0]

    def check(c):
        # the run's end angle is g's shot at c (see _profile), so Brent
        # may read it
        run = _profile(c, params)
        return target - float(run.y[0, -1]), run

    c_flat = flat_ck(k, D)
    c_comp = c_flat * cs(params.half, K) ** 2
    lo, hi = min(c_flat, c_comp), max(c_flat, c_comp)
    xtol = 1e-13 * min(abs(lo), abs(hi))
    floor = (math.pi / D) ** 2
    pad = 1e-9 * max(abs(lo), abs(hi), floor)
    lo -= pad
    hi += pad
    # K = 0 computes no seed, and its bracket, 2 pad wide, is the interval
    seed = ladder = math.nan
    if K != 0.0:
        seed, ladder = _colloc_seed(k, K, D, lo)
    a, b, narrow = seeded_interval(lo, hi, pad, seed, ladder, floor)
    ends = None
    if narrow:  # the stacked pass: both ends in one run
        qa, qb = _end_angles([a, b], params)
        ends = target - qa, target - qb
    c, _, passed = seeded_root(
        g, lo, hi, a, b, ends, check, floor=floor, accept=_ACCEPT, noise=_ODE_TOL,
        xtol=xtol, rtol=1e-13, unbracketed=BracketError(
            f"comparison bracket [{lo:.6g}, {hi:.6g}] does not straddle c_k for k = {k}"))
    run = passed[-1] if passed else _profile(c, params)
    defect = abs(float(run.y[0, -1]) - target)
    if defect > _ANGLE_TOL:
        raise BracketError(f"end-angle defect {defect:.3e} exceeds {_ANGLE_TOL}")
    return float(c), run.sol


def _robin_left(k, params):
    """psi_left(c_k, params) for valid params, read off the cached profile.

    The profile is the run psi_left(c_k) makes (see _profile), so this
    equals psi_left(c_k) wherever it is evaluated, without a run.
    """
    c, profile = _robin(k, params)
    return RiccatiSolution(side="left", c=c, k=float("nan"), interval=(0.0, params.half),
                           params=params, _q=partial(profile, rows=[0]))


def _eigenfunction(profile, value, half):
    """phi on 2001 uniform points of [0, D/2] from the profile, scaled to
    phi(D/2) = value; a scale that overflows gives inf samples."""
    z = np.linspace(0.0, half, _N_SAMPLES)
    q, log_r = profile(z)
    phi = np.exp(log_r) * np.cos(q)  # r cos q
    with np.errstate(over="ignore"):
        return GridFunction(z=z, values=phi * (value / phi[-1]))


def robin_eigenfunction(k, params):
    """Positive eigenfunction with phi'(0)=0, phi(D/2)=1/k, phi'(D/2)=-1.

    Reconstructed from the cached profile at c_k and rescaled so phi(D/2) =
    1/k exactly; the other two conditions then hold up to the root-finding
    and integration tolerances.  The samples must be finite doubles, so
    the smallest k accepted is 2^-1024 + 2^-1074, about 5.563e-309, the
    least whose 1/k is one, times max(phi) / phi(D/2) at small k (1.06 at
    K = 1, D = 1, and 10.9 at K = 9.8, D = 1); a smaller k raises
    DomainError naming it.
    """
    params = validate(params)
    gf = _eigenfunction(_robin(k, params)[1], 1.0 / float(k), params.half)
    if not np.all(np.isfinite(gf.values)):
        raise DomainError(f"phi scaled to phi(D/2) = 1/k overflows a double at k = {k!r}")
    return gf


def robin_boundary_report(k, params):
    """Measured defects of the three boundary conditions plus positivity,
    and the left branch psi_left(c_k) read off the same cached profile
    (see _robin_left); once c_k is solved, no ODE runs.

    The defects are those of phi(D/2) = 1/k, phi'(D/2) = -1 and phi'(0) =
    0, relative to max(1, phi(D/2)), and positivity is judged on the
    same samples: for k >= 1 they are those of robin_eigenfunction, scaled
    to phi(D/2) = 1/k, and for k < 1 those scaled to phi(D/2) = 1,
    phi'(D/2) = -k, so that 1/k, which overflows at subnormal k, is never
    formed.
    """
    params = validate(params)
    ck, profile = _robin(k, params)
    k = float(k)
    value, slope = (1.0 / k, 1.0) if k >= 1.0 else (1.0, k)
    phi = _eigenfunction(profile, value, params.half).values
    return {
        "c_k": ck,
        "phi_right_defect": abs(phi[-1] - value),
        "dphi_right_defect": abs(phi[-1] * math.tan(profile(params.half)[0]) + slope),
        "dphi_left_defect": abs(phi[0] * math.tan(profile(0.0)[0])),
        "positive": bool(np.all(phi > 0)),
        "left": _robin_left(k, params),
    }


def threshold_s(k, params):
    """Smallest s beyond which both decay rates below are real.

    Equals max(c_k + pi^2/D^2, -c_k - pi^2/D^2).  For K >= 0 the first
    entry is the larger one, since c_k >= c_flat > -pi^2/D^2; for K < 0,
    c_k can fall below -pi^2/D^2 (c_k = -12.73 at n = 5, K = -8, D = 1,
    k = 1) and the second one is.
    """
    params = validate(params)
    return _threshold(find_ck(k, params), params)[1]


def _carried(branch, *args):
    """branch(*args), or the truncated branch its BlowupError carries."""
    try:
        return branch(*args)
    except BlowupError as exc:
        return exc.partial


def supersolution(k, s, params, z=None):
    """Pointwise minimum of the two shifted branches around c_k.

    psi_plus = min{psi^L at c_k - s, psi^R at c_k + s}.  The left branch
    exists on all of [0, D/2] for s >= 0; where the right branch has ceased
    to exist (backward blowup to +infinity) the minimum is the left branch.
    A branch that ceases is read off the BlowupError it raises, which
    carries it truncated.  At s = 0 both branches coincide with (log phi)' of the Robin
    eigenfunction.  Pass z to sample on a caller-supplied grid instead of a
    uniform one.
    """
    params = validate(params)
    if not 0.0 <= s < math.inf:
        raise DomainError(f"shift s must be finite and nonnegative, got {s}")
    ck = find_ck(k, params)
    left = _carried(psi_left, ck - s, params)
    right = _carried(psi_right, k, ck + s, params)
    half = params.half
    if left.interval[0] > 0.0 or max(left.interval[1], right.interval[1]) < half:
        raise CoverageError(
            f"existence intervals {left.interval} and {right.interval} "
            f"do not cover [0, {half}]"
        )
    if left.interval[1] < half * (1.0 - 1e-9) and right.interval[0] > left.interval[1]:
        raise CoverageError(
            f"gap between left branch end {left.interval[1]:.6g} and right "
            f"branch start {right.interval[0]:.6g}"
        )
    if z is None:
        z = np.linspace(0.0, half, _N_SAMPLES)
    else:
        z = np.asarray(z, dtype=float)
        if z[0] < 0.0 or z[-1] > half * (1.0 + 1e-12):
            raise DomainError("supersolution grid must lie inside [0, D/2]")
    vals = np.empty_like(z)
    z_minus = right.interval[0]
    left_only = z <= z_minus
    vals[left_only] = left.psi_at(z[left_only])
    both = ~left_only
    vals[both] = np.minimum(left.psi_at(z[both]), right.psi_at(z[both]))
    return GridFunction(z=z, values=vals)


# -- explicit comparison envelopes -------------------------------------------


def _threshold(ck, params):
    """base = c_k + pi^2/D^2 and the threshold max(base, -base)."""
    base = ck + math.pi**2 / params.D**2
    return base, max(base, -base)


def _tanh_profile(lam):
    """z -> lam tanh(lam z)."""
    return lambda z: lam * np.tanh(lam * np.asarray(z, dtype=float))


def _tan_profile(lam, k, half):
    """Fractional-linear profile in tan(lam (D/2 - z)) pinned to -k at D/2,
    and z_from, beyond which its denominator stays positive."""

    def profile(z):
        t = np.tan(lam * (half - np.asarray(z, dtype=float)))
        return (lam * t - k) / (1.0 + (k / lam) * t)

    return profile, half - (_HALF_PI + math.atan(k / lam)) / lam


def _require_nonneg_K(params, what):
    if params.K < 0:
        raise HypothesisError(f"{what} requires K >= 0 (cs_K <= 1 is used)")


def upper_bound_left(c, params):
    """Envelope psi^L_c(z) <= lam_plus tanh(lam_plus z).

    The rate uses the supremum of -c/cs^2 - pi^2/D^2 over the interval
    (attained at z = D/2 for c < 0, at z = 0 otherwise), which is what the
    comparison argument actually needs.
    """
    params = validate(params)
    _require_nonneg_K(params, "left envelope")
    half = params.half
    cs_end = cs(half, params.K)
    worst = max(-c - math.pi**2 / params.D**2,
                -c / cs_end**2 - math.pi**2 / params.D**2, 0.0)
    lam = math.sqrt(worst)
    return lam, _tanh_profile(lam)


def upper_bound_right(k, c, params):
    """Envelope for the backward branch, valid where its denominator is positive.

    Returns (lam_minus, callable, z_from): psi^R_{k,c}(z) <= bound(z) for
    z > z_from, where bound is the fractional-linear expression in
    tan(lam_minus (D/2 - z)) pinned to -k at the right end.
    """
    params = validate(params)
    _require_nonneg_K(params, "right envelope")
    k = float(k)
    half = params.half
    cs_end = cs(half, params.K)
    lam2 = math.pi**2 / params.D**2 + max(c, c / cs_end**2)
    if lam2 <= 0:
        raise HypothesisError(f"rate lam_minus^2 = {lam2:.6g} is not positive")
    lam = math.sqrt(lam2)
    return (lam, *_tan_profile(lam, k, half))


def lower_bound_functions(k, s, params):
    """Floors for the two shifted branches once s clears the threshold.

    For s > max(c_k + pi^2/D^2, -c_k - pi^2/D^2) both rates are real:

      lam_plus~  = sqrt(s - c_k - pi^2/D^2):  psi^L_{c_k-s} >= lam~ tanh(lam~ z)
      lam_minus~ = sqrt(s + c_k + pi^2/D^2):  psi^R >= the fractional-linear
                   floor in tan(lam~ (D/2 - z)) on (z_from, D/2]

    The left floor's validity is reported empirically by callers; the
    comparison argument itself gives it on the whole interval.
    """
    params = validate(params)
    _require_nonneg_K(params, "branch floors")
    ck = find_ck(k, params)
    base, thr = _threshold(ck, params)
    if not (s > thr):
        raise HypothesisError(f"s = {s} does not exceed the threshold {thr:.6g}")
    lam_p = math.sqrt(s - base)
    lam_m = math.sqrt(s + base)
    right_floor, z_from = _tan_profile(lam_m, float(k), params.half)
    return {
        "threshold": thr,
        "lambda_plus": lam_p,
        "lambda_minus": lam_m,
        "left_floor": _tanh_profile(lam_p),
        "right_floor": right_floor,
        "right_valid_from": z_from,
        "c_k": ck,
    }
