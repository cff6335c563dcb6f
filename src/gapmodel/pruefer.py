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

The angle never enters this module's equations through n; the dimension is
carried in params only so results can be labeled consistently.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import solve_ivp  # called by no route; perfbench/tracing.py rebinds it
from scipy.optimize import brentq

from ._scipy import dop853_dense, dop853_end
from .errors import BlowupError, BracketError, CoverageError, DomainError, HypothesisError
from .kernels import cs, cs_array, cs_at
from .model import GridFunction, ModelParams, validate

_ODE_TOL = 1e-13
_ANGLE_GUARD = 1e-3  # samples of tan q only where |q| < pi/2 - guard
_HALF_PI = math.pi / 2
_N_SAMPLES = 2001  # points in a uniform sample of [0, D/2] or of a branch
_ANGLE_TOL = 1e-11  # largest end-angle defect accepted at the Robin constant
_CK_CACHE_SIZE = 256  # Robin constants kept, one per (k, K, D)


def _check_positive(name, value):
    """Reject a slope, tolerance or time control that is not finite and positive."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")


def _angle_rhs(c, params, array=False):
    """Right-hand side (z, (q, log r)) -> (q', (log r)') of the angle-radius
    system at c.  One formula serves floats, through math and the closure
    cs_at(K) built once per call of _angle_rhs, for the stepper's calls, and
    with array=True numpy arrays, one column per point, through numpy and
    cs_array for the rebuilt stages."""
    K, D = params.K, params.D
    if array:
        xp, cs_K = np, lambda z: cs_array(z, K)
    else:
        xp, cs_K = math, cs_at(K)
    cos, sin = xp.cos, xp.sin
    pi2_over_D2 = math.pi**2 / D**2

    def rhs(z, y):
        q = y[0]
        w = c / cs_K(z) ** 2 + pi2_over_D2
        cq, sq = cos(q), sin(q)
        dq = -w * cq * cq - sq * sq
        # log r instead of r keeps the radius positive by construction
        dlogr = (1.0 - w) * sq * cq
        return (dq, dlogr)

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
    interpolant rebuilt from the compiled DOP853 steps of the branch
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

    def residual_max(self, band=3.0, h=None):
        """Largest defect in psi' + psi^2 + pi^2/D^2 + c/cs^2 = 0.

        The derivative is measured with a fourth-order central difference of
        the reconstructed psi, on sample points where |psi| <= band (outside
        that band any finite-difference derivative of tan is numerically
        meaningless, which would test the measurement rather than the
        solution).
        """
        D, K = self.params.D, self.params.K
        if h is None:
            h = 2.5e-4 * D
        lo, hi = self.interval
        mask = np.abs(self.psi) <= band
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


def _branch(side, k, c, params, z0, q0, direction, allow_partial):
    """Riccati branch shot from z0 (0 or D/2) toward the other end with q(z0) = q0.

    One compiled DOP853 run (_scipy.dop853_dense) stops at the first step
    over which q crosses direction * pi/2, and the branch ceases at the
    crossing point of that step's interpolant.  If that lies more than
    1e-9 D/2 from the far end, BlowupError carries the truncated branch
    unless allow_partial is set, in which case it is returned.  A failed
    run raises DomainError and gives no branch.
    """
    half = params.half
    z1 = half - z0

    def reach_pole(z, y):
        return y[0] - direction * _HALF_PI

    reach_pole.direction = direction

    sol = _succeeded(dop853_dense(
        _angle_rhs(c, params), _angle_rhs(c, params, array=True), z0, z1, [q0, 0.0],
        rtol=_ODE_TOL, atol=_ODE_TOL, rows=[0], event=reach_pole))
    q = sol.sol
    z_cease = z1 if sol.t_event is None else float(sol.t_event)
    interval = (min(z0, z_cease), max(z0, z_cease))
    branch = RiccatiSolution(side=side, c=float(c), k=k, interval=interval,
                             params=params, _q=q)
    if abs(z1 - z_cease) > 1e-9 * half and not allow_partial:
        raise BlowupError(
            f"{side} branch ceases at z = {z_cease:.6g} "
            f"(angle reached {'+' if direction > 0 else '-'}pi/2)",
            z=z_cease, partial=branch,
        )
    return branch


def psi_left(c, params, allow_partial=False):
    """Forward log-derivative branch with psi(0) = 0.

    Raises BlowupError if q reaches -pi/2 strictly inside [0, D/2) (the
    finite Riccati solution ceases there); pass allow_partial=True to get
    the truncated branch instead.  The exception carries the location and
    the truncated branch.
    """
    params = validate(params)
    return _branch("left", float("nan"), c, params, 0.0, 0.0, -1.0, allow_partial)


def psi_right(k, c, params, allow_partial=False):
    """Backward log-derivative branch with psi(D/2) = -k.

    Integrated from z = D/2 toward 0; if the angle reaches +pi/2 at some
    z_minus > 1e-9 D/2 the branch exists only on (z_minus, D/2] and
    BlowupError is raised unless allow_partial is set.
    """
    params = validate(params)
    _check_positive("boundary slope k", k)
    return _branch("right", float(k), c, params, params.half, -math.atan(float(k)),
                   1.0, allow_partial)


def flat_ck(k, D):
    """Closed-form flat-space (K = 0) Robin constant: nu tan(nu D/2) = k.

    BracketError when k lies beyond the bracket's reach (about 2e12 / D).
    """
    lo, hi = 1e-12, math.pi / D * (1.0 - 1e-12)

    def f(nu):
        return nu * math.tan(nu * D / 2.0) - k

    if not f(lo) < 0.0 < f(hi):
        raise BracketError(f"flat bracket [{lo:.6g}, {hi:.6g}] does not straddle nu for k = {k}")
    nu = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    return nu * nu - math.pi**2 / D**2


def _end_angle(c, params):
    """q(D/2) shot from q(0) = 0 by the compiled DOP853 (end state only)."""
    sol = _succeeded(dop853_end(_angle_rhs(c, params), 0.0, params.half, [0.0, 0.0],
                                rtol=_ODE_TOL, atol=_ODE_TOL))
    return float(sol.y[0])


def find_ck(k, params):
    """Robin constant: the c < 0 with q(D/2, 0, c) = -pi/2 + arctan(1/k).

    The end angle falls strictly as c grows.  Since cs_K^2 lies between
    cs_K(D/2)^2 and 1, comparing c / cs_K^2 with the flat coefficient puts
    c_k between the closed-form flat constant c_flat and c_flat cs_K(D/2)^2,
    so c_k exists for every k > 0.  Brent's method runs once inside that
    bracket, padded by 1e-9 of its scale (at least (pi/D)^2, so the pad
    outruns the ODE noise when K = 0 makes the bracket a point).  Each end
    angle is one compiled DOP853 shot (_scipy.dop853_end).  Against the
    50-digit flat relation (K = 0, D = 1) the relative error is 3.6e-14 at
    k = 10, 6.9e-13 at k = 1e2, 8.3e-12 at k = 1e3 and 8.4e-11 at k = 1e4,
    about 8.4e-15 k.  BracketError means
    the padded bracket does not straddle the root, or the end-angle defect
    at the root exceeds 1e-11.  c_k does not depend on n, so one solve is
    kept per (k, K, D); a failed solve is not kept.
    """
    params = validate(params)
    _check_positive("boundary slope k", k)
    return _robin_constant(float(k), params.K, params.D)


@lru_cache(maxsize=_CK_CACHE_SIZE)
def _robin_constant(k, K, D):
    """The Brent solve behind find_ck, for a valid slope k and pair (K, D)."""
    params = ModelParams(1, K, D)  # the angle equation does not involve n
    target = -_HALF_PI + math.atan(1.0 / k)
    evals = {}

    def g(c):
        # brentq re-evaluates the bracket ends; serve them from the cache
        if c not in evals:
            evals[c] = _end_angle(c, params) - target
        return evals[c]

    c_flat = flat_ck(k, D)
    c_comp = c_flat * cs(params.half, K) ** 2
    lo, hi = min(c_flat, c_comp), max(c_flat, c_comp)
    xtol = 1e-13 * min(abs(lo), abs(hi))
    pad = 1e-9 * max(abs(lo), abs(hi), (math.pi / D) ** 2)
    lo -= pad
    hi += pad
    if not g(lo) > 0.0 > g(hi):
        raise BracketError(
            f"comparison bracket [{lo:.6g}, {hi:.6g}] does not straddle c_k for k = {k}"
        )
    c = brentq(g, lo, hi, xtol=xtol, rtol=1e-13)
    gc = g(c)
    if abs(gc) > _ANGLE_TOL:
        raise BracketError(f"end-angle defect {abs(gc):.3e} exceeds {_ANGLE_TOL}")
    return float(c)


def _phi(qr):
    """Unscaled eigenfunction r cos q from the interpolant's (q, log r)."""
    return np.exp(qr[1]) * np.cos(qr[0])


def _robin(k, params):
    """The evaluator z -> (q, log r) of one compiled DOP853 run at c_k from
    q(0) = 0, r(0) = 1 to D/2 (_scipy.dop853_dense, no event), and phi at
    uniform points scaled to phi(D/2) = 1/k."""
    c = find_ck(k, params)
    profile = _succeeded(dop853_dense(
        _angle_rhs(c, params), _angle_rhs(c, params, array=True), 0.0, params.half,
        [0.0, 0.0], rtol=_ODE_TOL, atol=_ODE_TOL, rows=[0, 1], event=None)).sol
    z = np.linspace(0.0, params.half, _N_SAMPLES)
    phi = _phi(profile(z))
    scale = (1.0 / float(k)) / phi[-1]
    return profile, GridFunction(z=z, values=phi * scale)


def robin_eigenfunction(k, params):
    """Positive eigenfunction with phi'(0)=0, phi(D/2)=1/k, phi'(D/2)=-1.

    Reconstructed from the angle-radius solve at c_k and rescaled so
    phi(D/2) = 1/k exactly; the other two conditions then hold up to the
    root-finding and integration tolerances.
    """
    return _robin(k, validate(params))[1]


def robin_boundary_report(k, params):
    """Measured defects of the three boundary conditions plus positivity,
    and the left branch psi_left(c_k) read off the same profile run.

    The profile is the run psi_left(c_k) makes, with the same system, start,
    interval and tolerances, and at c_k its angle ends at -pi/2 +
    arctan(1/k), short of the pole; so "left" equals psi_left(c_k)
    wherever it is evaluated, without a second run.
    """
    params = validate(params)
    profile, gf = _robin(k, params)
    k = float(k)
    ck = find_ck(k, params)
    end, start = profile(params.half), profile(0.0)
    scale = (1.0 / k) / _phi(end)
    phi_end = _phi(end) * scale
    dphi_end = phi_end * math.tan(end[0])
    dphi_0 = _phi(start) * scale * math.tan(start[0])
    return {
        "c_k": ck,
        "phi_right_defect": abs(phi_end - 1.0 / k),
        "dphi_right_defect": abs(dphi_end + 1.0),
        "dphi_left_defect": abs(dphi_0),
        "positive": bool(np.all(gf.values > 0)),
        "left": RiccatiSolution(side="left", c=ck, k=float("nan"),
                                interval=(0.0, params.half), params=params, _q=profile),
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


def supersolution(k, s, params, z=None):
    """Pointwise minimum of the two shifted branches around c_k.

    psi_plus = min{psi^L at c_k - s, psi^R at c_k + s}.  The left branch
    exists on all of [0, D/2] for s >= 0; where the right branch has ceased
    to exist (backward blowup to +infinity) the minimum is the left branch.
    At s = 0 both branches coincide with (log phi)' of the Robin
    eigenfunction.  Pass z to sample on a caller-supplied grid instead of a
    uniform one.
    """
    params = validate(params)
    if not 0.0 <= s < math.inf:
        raise DomainError(f"shift s must be finite and nonnegative, got {s}")
    ck = find_ck(k, params)
    left = psi_left(ck - s, params, allow_partial=True)
    right = psi_right(k, ck + s, params, allow_partial=True)
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
