"""Relaxation flow for the log-derivative of the first eigenfunction.

The evolution

    psi_t = psi'' + 2 psi psi' - 2 tn_K(z) (psi' + psi^2 + pi^2/D^2)

on [0, D/2] with psi(0, t) = 0 and psi(D/2, t) = -k relaxes, for
c_k + pi^2/D^2 >= 0, to the logarithmic derivative of the Robin
eigenfunction with slope parameter k.  Below that, the target's slope
-(c_k + pi^2/D^2) at z = 0 is positive, so the target is positive near 0
and the nonpositive flow cannot reach it; `initial_supersolution` and
`flow_to_stationary` raise DomainError there.  K >= 0 always meets the
condition (see `pruefer.threshold_s`).

The stationary target has a boundary layer of width ~1/k at the right
endpoint where it sweeps down to -k, so the spatial grid is graded: cell
sizes follow an error-equidistribution monitor h(w) built from the pole
model f ~ -1/w of the layer (w measures distance to the virtual pole just
beyond D/2), and neighboring cells never differ by more than 5%.  The
nodes come from one compiled DOP853 run of the equidistribution ODE
dw/di = h(w) over the cell index i, sampled at equally spaced indices
(see `build_grid`).

Time stepping is linearly implicit: each step solves (I - dt J) delta =
dt F with the whole tridiagonal Jacobian J of the residual F, and the
Newton iteration of `discrete_stationary` is the same band solve with
(I, dt) replaced by (0, 1).  Every step checks that I - dt J is an
M-matrix (nonnegative off-diagonal bands of J, row sums of dt J at most
1) and raises StabilityError when it is not; with psi <= 0 and K >= 0 the
off-diagonal condition holds once every cell Peclet number
|2 psi - 2 tn| h / 2 is at most 1.  The M-matrix property makes the step
monotone, but it does not by itself keep the distance to the stationary
state from rising: for that,
`flow_to_stationary` rejects any step that raises the distance and redoes
it at half the dt.  Its step size follows switched evolution relaxation
(SER; Mulder & van Leer 1985, Kelley & Keyes 1998): start at the
advection-limited `default_dt`, double after every accepted step up to
D^2, halve on a rejection but never below the start.  Where a row sum of
J is positive (large K D^2 at small k), the step is also cut to the
largest dt that keeps the row condition.  A rejected step at or below the
start dt raises NonConvergenceError ("stalled at distance ..."); that is
how a tol below the grid's discretisation error ends.

Every step and Newton update runs in place on one `_Workspace` per run:
the Jacobian bands and the residual are written into the band matrix and
right-hand side that LAPACK's gtsv (through `_scipy.solve_banded`) overwrites
with the update, so a step makes no new array of the grid's size.
`_Workspace.step` is the one implicit step: `flow_step`,
`flow_to_stationary` and `comparison_check`, which advances each of its
pair on a workspace of its own on the same SER schedule, all take it.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import dop853_dense, solve_banded
from .errors import (
    DomainError,
    HypothesisError,
    NonConvergenceError,
    OrderingViolation,
    StabilityError,
)
from .kernels import cs_array, tn_array
from .model import GridFunction, ModelParams, validate
from .pruefer import _check_positive, _robin_left, _threshold, find_ck, supersolution
from .pruefer import psi_left  # called by no route; perfbench/tracing.py rebinds it

__all__ = [
    "FlowState",
    "FlowRun",
    "build_grid",
    "make_state",
    "initial_supersolution",
    "stationary_reference",
    "flow_step",
    "flow_to_stationary",
    "discrete_stationary",
    "riccati_residual",
    "comparison_check",
    "refine_grid",
    "default_dt",
]

MIN_CELLS = 512
# cap on the cells of one graded grid; the default mesh_tol gives about 63k
# cells at k = 300 and passes the cap near k = 1.6e4
MAX_CELLS = 500_000
DEFAULT_MESH_TOL = 1e-6
T_MAX_FACTOR = 50.0
_GRID_TOL = 1e-11  # DOP853 rtol and atol of the equidistribution ODE


# -- grid ---------------------------------------------------------------------


def _monitor(params, mesh_tol):
    """Right-hand side (i, (w,)) -> (h(w),) of the equidistribution ODE
    dw/di = h(w), on floats through math and min."""
    D = params.D
    lam2 = 2.0 * math.pi**2 / D**2
    B = 10.0 * (2.0 * math.pi / D) ** 4
    tol12, h_max, sqrt = 12.0 * mesh_tol, D / 64.0, math.sqrt

    def rhs(i, y):
        w = y[0]
        return (min(sqrt(tol12 * (2.0 / w**2 + lam2) / (96.0 / w**5 + B)), h_max),)

    return rhs


def build_grid(params, k, mesh_tol=DEFAULT_MESH_TOL):
    """Graded nodes on [0, D/2], clustered toward the right endpoint.

    The cell size equidistributes the reaction-balanced truncation error of
    the 3-point scheme against the pole model of the stationary layer: with
    w = (D/2 - z) + 1/k,

        |f''''| ~ 96/w^5,   local damping ~ 2/w^2 + 2 pi^2/D^2,

    so h(w) = min(sqrt(12 mesh_tol (2/w^2 + 2 pi^2/D^2) / (96/w^5 + B)),
    D/64).  B is a curvature floor for the smooth part of the domain.
    Counting cells leftward from D/2, w obeys the equidistribution ODE
    dw/di = h(w) from w(0) = 1/k (Huang & Russell, Adaptive Moving Mesh
    Methods, ch. 2).
    One compiled DOP853 run (_scipy.dop853_dense) integrates it until w
    reaches D/2 + 1/k, that is z = 0, at the index N, and the nodes are its
    dense output at cells + 1 equally spaced indices from 0 to N, with
    cells = max(ceil(N), MIN_CELLS): each cell is h at its midpoint times
    the one factor N / cells <= 1.  Consecutive sizes stay within a 1.05
    ratio because h varies smoothly in w.  If w has not reached D/2 + 1/k
    at i = MAX_CELLS, the k needs more than MAX_CELLS cells and DomainError
    is raised before any node array is formed.
    """
    params = validate(params)
    _check_positive("boundary slope k", k)
    _check_positive("mesh_tol", mesh_tol)
    half = params.half
    wk = 1.0 / k
    w_end = half + wk

    def reach_origin(i, y):
        return y[0] - w_end

    reach_origin.direction = 1.0

    sol = dop853_dense(_monitor(params, mesh_tol), 0.0, float(MAX_CELLS), [wk],
                       rtol=_GRID_TOL, atol=_GRID_TOL, event=reach_origin)
    if not sol.success:
        raise DomainError(f"grid integration failed: {sol.message}")
    if sol.t_event is None:
        raise DomainError(f"boundary slope k = {k:g} needs more than "
                          f"{MAX_CELLS} grid cells at mesh_tol = {mesh_tol:g}")
    N = float(sol.t_event)
    cells = max(math.ceil(N), MIN_CELLS)
    nodes = half - (sol.sol(np.linspace(0.0, N, cells + 1))[0] - wk)
    nodes[-1] = 0.0
    return nodes[::-1].copy()


def refine_grid(z):
    """Insert a midpoint in every cell (halves h, doubles the cell count)."""
    z = np.asarray(z, dtype=float)
    out = np.empty(2 * len(z) - 1)
    out[0::2] = z
    out[1::2] = 0.5 * (z[:-1] + z[1:])
    return out


def _stencils(z):
    """3-point first/second derivative weights on a nonuniform grid."""
    hm = z[1:-1] - z[:-2]
    hp = z[2:] - z[1:-1]
    s = hm + hp
    c_m = -hp / (hm * s)
    c_0 = (hp - hm) / (hm * hp)
    c_p = hm / (hp * s)
    d_m = 2.0 / (hm * s)
    d_0 = -2.0 / (hm * hp)
    d_p = 2.0 / (hp * s)
    return (c_m, c_0, c_p), (d_m, d_0, d_p)


# -- states -------------------------------------------------------------------


@dataclass(frozen=True)
class FlowState:
    """Immutable snapshot: psi on its grid, time, slope k and the parameters."""

    psi: GridFunction
    t: float
    k: float
    params: ModelParams


def make_state(psi, k, params):
    """Wrap grid samples as a FlowState, checking the boundary pinning.

    Nodes and values must be finite; psi(0) must be 0 and psi at the last
    node must be -k; interior values must be nonpositive (tiny positive
    roundoff is tolerated).  The grid may end short of D/2 (used by
    truncated-interval checks), in which case k is read as minus the right
    boundary value.
    """
    params = validate(params)
    if not isinstance(psi, GridFunction):
        raise DomainError("make_state expects a GridFunction")
    z, v = psi.z, psi.values
    # every comparison below is False on NaN, so NaN would pass them all
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
        raise DomainError("grid nodes and values must be finite")
    if z[0] != 0.0 or z[-1] > params.half * (1.0 + 1e-12):
        raise DomainError(f"grid must start at 0 and end at or before D/2 = {params.half}")
    if np.any(np.diff(z) <= 0.0):
        raise DomainError("grid nodes must be strictly increasing")
    if abs(v[0]) > 1e-12:
        raise DomainError(f"left boundary value must be 0, got {v[0]}")
    if abs(v[-1] + k) > 1e-9 * max(1.0, abs(k)):
        raise DomainError(f"right boundary value {v[-1]} does not match -k = {-k}")
    slack = 1e-9 * max(1.0, k)
    if np.max(v) > slack:
        raise DomainError(f"initial data must be nonpositive, max = {np.max(v):.3e}")
    return FlowState(psi=psi, t=0.0, k=float(k), params=params)


def _flow_ck(k, params):
    """c_k, after checking that the flow's target (log phi)' is nonpositive.

    psi = (log phi)' has psi(0) = 0 and psi'(0) = -(c_k + pi^2/D^2), so a
    negative c_k + pi^2/D^2 makes the target positive near z = 0, outside
    the nonpositive states the flow keeps (DomainError).
    """
    ck = find_ck(k, params)
    base = _threshold(ck, params)[0]
    if base < 0.0:
        raise DomainError(
            f"c_k + pi^2/D^2 = {base:.6g} < 0 at k = {k:g}: the stationary "
            f"target is positive near z = 0, so the flow cannot reach it"
        )
    return ck


def initial_supersolution(k, s, params, mesh_tol=DEFAULT_MESH_TOL, z=None):
    """FlowState seeded with the shifted two-branch supersolution on a graded grid.

    DomainError if c_k + pi^2/D^2 < 0 (see `_flow_ck`).
    """
    params = validate(params)
    _flow_ck(k, params)
    if z is None:
        z = build_grid(params, k, mesh_tol=mesh_tol)
    gf = supersolution(k, s, params, z=z)
    vals = np.minimum(gf.values, 0.0)
    vals[0] = 0.0
    vals[-1] = -k
    return make_state(GridFunction(z=z, values=vals), k, params)


def stationary_reference(k, params, z):
    """(log phi)' of the Robin eigenfunction sampled on the given grid.

    psi_left(c_k) read off the profile cached with c_k, with no ODE run.
    """
    return _robin_left(k, validate(params)).psi_at(np.asarray(z, dtype=float))


# -- time stepping ------------------------------------------------------------


def default_dt(state):
    """Advection-limited step 0.02 D^2 / (1 + 0.05 D sup|2 psi - 2 tn|).

    This is dt0, where the SER steps of `flow_to_stationary` start and the
    smallest dt they take; it is not a stability limit (the M-matrix
    condition is checked on every step instead).  See `_Workspace.dt0`.
    """
    return _Workspace(state.psi.z, state.params, state.k).dt0(state.psi.values)


class _Workspace:
    """Per-grid coefficients and buffers of one run, written in place.

    The stencils, 2 tn_K, 4 tn_K and, given c_k, c_k/cs_K^2 are formed once
    per run.  `d1` writes the stencil derivative of the current values into
    a buffer, so a run evaluates it once per accepted step and shares it
    between the step's residual, its Jacobian and the Riccati defect.
    `jacobian` writes the three bands of J into the rows of the band matrix
    ab and returns their row-sum limit on dt, `residual` writes F into the
    interior of the right-hand side rhs, and `solve` scales both by the
    step and solves in place, so a step makes no array of the grid's size.
    `step` is the flow's one implicit step, boundary values kept and the
    result projected for the Robin slope k; `flow_step`,
    `flow_to_stationary` and both sides of `comparison_check` advance by
    it, from `dt0`.  Each result stays in its buffer until the next call
    that writes it.
    """

    def __init__(self, z, params, k, ck=None):
        self.k, self.D = k, params.D
        self.c, self.d = _stencils(z)
        self.tn2 = 2.0 * tn_array(z, params.K)
        self.tn4 = 2.0 * self.tn2[1:-1]
        if ck is not None:
            self.ck_cs2 = ck / cs_array(z, params.K) ** 2
        self.lam = math.pi**2 / params.D**2
        n = len(z)
        self.ab = np.empty((3, n))
        self.rhs = np.empty(n)
        self._d1, self._a, self._s = np.empty((3, n - 2))

    def _stencil(self, w, v, out):
        """w[0] v[:-2] + w[1] v[1:-1] + w[2] v[2:], into out."""
        np.multiply(w[0], v[:-2], out=out)
        out += np.multiply(w[1], v[1:-1], out=self._s)
        out += np.multiply(w[2], v[2:], out=self._s)
        return out

    def d1(self, v):
        return self._stencil(self.c, v, self._d1)

    def residual(self, v, d1):
        """Interior residual d2 + 2 psi d1 - 2 tn (d1 + psi^2 + pi^2/D^2) of
        the stationary equation, into rhs[1:-1]."""
        vi, F, s = v[1:-1], self.rhs[1:-1], self._s
        self._stencil(self.d, v, F)
        np.multiply(vi, 2.0, out=s)
        F += np.multiply(s, d1, out=s)
        np.multiply(vi, vi, out=s)
        s += d1
        s += self.lam
        F -= np.multiply(self.tn2[1:-1], s, out=s)

    def dt0(self, v):
        """Advection-limited step 0.02 D^2 / (1 + 0.05 D sup|2 psi - 2 tn|)."""
        a = np.multiply(v, 2.0)
        amax = float(np.max(np.abs(np.subtract(a, self.tn2, out=a), out=a)))
        return 0.02 * self.D**2 / (1.0 + 0.05 * self.D * amax)

    def jacobian(self, v, d1):
        """Tridiagonal Jacobian bands of the interior residual, into ab:
        J+ to ab[0, 2:], J0 to ab[1, 1:-1] and J- to ab[2, :-2].

        Returns the largest dt with every row sum of dt J at most 1 (inf if
        none is positive), the row-sum limit of a step from these bands.
        """
        vi, a, s = v[1:-1], self._a, self._s
        np.multiply(vi, 2.0, out=a)
        a -= self.tn2[1:-1]
        (c_m, c_0, c_p), (d_m, d_0, d_p) = self.c, self.d
        Jp, J0, Jm = self.ab[0, 2:], self.ab[1, 1:-1], self.ab[2, :-2]
        np.multiply(a, c_m, out=Jm)
        Jm += d_m
        np.multiply(a, c_p, out=Jp)
        Jp += d_p
        np.multiply(a, c_0, out=J0)
        J0 += d_0
        J0 += np.multiply(d1, 2.0, out=s)
        J0 -= np.multiply(self.tn4, vi, out=s)
        np.add(Jm, J0, out=s)
        s += Jp
        top = float(np.max(s))
        return 1.0 / top if top > 0.0 else math.inf

    def riccati(self, v, d1):
        """Largest |psi' + psi^2 + pi^2/D^2 + c_k/cs^2| / (1 + psi^2) inside."""
        vi, res, s = v[1:-1], self._a, self._s
        np.multiply(vi, vi, out=s)
        np.add(d1, s, out=res)
        res += self.lam
        res += self.ck_cs2[1:-1]
        s += 1.0
        return float(np.max(np.divide(np.abs(res, out=res), s, out=res)))

    def solve(self, a, b):
        """delta with (a I - b J) delta = b F inside, delta = 0 at both ends.

        J's bands are those `jacobian` left in ab and F is what `residual`
        left in rhs[1:-1].  Both are scaled in place and handed to LAPACK's
        gtsv, which overwrites them; delta is returned in rhs.
        """
        ab, rhs = self.ab, self.rhs
        J0 = ab[1, 1:-1]
        J0 *= b
        np.subtract(a, J0, out=J0)
        ab[0, 2:] *= -b
        ab[2, :-2] *= -b
        rhs[1:-1] *= b
        # the boundary rows are the identity; the last solve overwrote them
        ab[0, :2] = ab[2, -2:] = 0.0
        ab[1, 0] = ab[1, -1] = 1.0
        rhs[0] = rhs[-1] = 0.0
        delta = solve_banded(ab, rhs)
        if not np.all(np.isfinite(delta)):
            raise StabilityError("band solve produced non-finite values")
        return delta

    def step(self, v, dt, d1, out, dt_max):
        """Linearized implicit Euler: solve (I - dt J) delta = dt F, and
        write v + delta into out, with v's boundary values at both ends,
        then project it (`_project`, for the workspace's k); out may be v.

        Freezing only the advection coefficient leaves the 2 psi' part of
        the Jacobian explicit, and inside the layer that term is of order
        k^2; taking the whole Jacobian implicit keeps the step stable at
        large dt and makes the exact discrete stationary state a fixed
        point.  d1 is self.d1(v), ab holds the bands of self.jacobian(v, d1)
        and dt_max is what that call returned.  Raises StabilityError unless
        I - dt J is an M-matrix: nonnegative off-diagonal bands of J and dt
        at most dt_max.
        """
        if min(np.min(self.ab[2, :-2]), np.min(self.ab[0, 2:])) < 0.0:
            raise StabilityError(
                "I - dt J is not an M-matrix: a cell Peclet number |2 psi - 2 tn| h / 2 "
                "exceeds 1, so the grid is too coarse for the advection"
            )
        if dt > dt_max:
            raise StabilityError(
                f"I - dt J is not an M-matrix: dt = {dt:.6g} times the largest "
                "row sum of J exceeds 1"
            )
        self.residual(v, d1)
        np.add(v, self.solve(1.0, dt), out=out)
        out[0], out[-1] = v[0], v[-1]
        _project(out, self.k)
        return out


def _project(v, k):
    """Clip discrete dispersion overshoots above zero; fail on real excursions.

    The continuum solution is nonpositive (zero is a supersolution when
    K >= 0), so projecting onto that constraint cannot increase the sup
    distance to the target.  Anything beyond roundoff-scale overshoot means
    the scheme is actually unstable.  v is clipped in place.
    """
    top = float(np.max(v))
    if top > 1e-4 * max(1.0, k):
        raise StabilityError(
            f"positive excursion {top:.3e} exceeds the nonpositivity guard"
        )
    if np.min(v) < -10.0 * max(1.0, k):
        raise StabilityError(f"blow-up guard tripped, min = {np.min(v):.3e}")
    np.minimum(v, 0.0, out=v)


def flow_step(state, dt):
    """One linearly-implicit step (`_Workspace.step`), boundary values kept."""
    _check_positive("dt", dt)
    ws = _Workspace(state.psi.z, state.params, state.k)
    v = state.psi.values
    d1 = ws.d1(v)
    out = ws.step(v, dt, d1, np.empty_like(v), ws.jacobian(v, d1))
    return FlowState(
        psi=GridFunction(z=state.psi.z, values=out),
        t=state.t + dt,
        k=state.k,
        params=state.params,
    )


# -- diagnostics --------------------------------------------------------------


def riccati_residual(state):
    """Scaled defect in psi' + psi^2 + pi^2/D^2 + c_k/cs^2 = 0.

    The derivative is the grid's own 3-point stencil, and the defect at each
    node is divided by 1 + psi^2 because every term grows like psi^2 inside
    the boundary layer; without the scaling the metric would only measure
    how hard finite differences find the layer, not how stationary the state
    is.
    """
    ws = _Workspace(state.psi.z, state.params, state.k, find_ck(state.k, state.params))
    v = state.psi.values
    return ws.riccati(v, ws.d1(v))


@dataclass(frozen=True)
class FlowRun:
    """Converged state plus the (t, distance, residual) trajectory.

    The trajectory has one row per accepted step after the initial one;
    rejected_steps counts the steps that were redone at a smaller dt.
    """

    state: FlowState
    times: np.ndarray
    distances: np.ndarray
    residuals: np.ndarray
    converged: bool
    max_uptick: float
    rejected_steps: int = 0

    def rows(self):
        return list(zip(self.times, self.distances, self.residuals))


def flow_to_stationary(initial, k, params, tol=1e-6, t_max=None, on_step=None):
    """Evolve until the sup distance to (log phi)' on the grid is <= tol.

    initial is a GridFunction satisfying the boundary data, or a FlowState
    of the same k and params (DomainError otherwise).  DomainError also if
    c_k + pi^2/D^2 < 0, where the target is positive near z = 0.

    The step follows switched evolution relaxation (SER): it starts at
    dt0 = default_dt(initial), doubles after every accepted step up to
    D^2, and is halved and redone, never below dt0, when the step would
    raise the distance by more than 1e-12 max(1, k).  That guard, not the
    M-matrix property of the step, is what keeps the recorded distance
    from rising.  Each step is also cut to the largest dt at which
    I - dt J keeps its M-matrix row condition.  A rejected step at or
    below dt0 raises NonConvergenceError ("stalled at distance ..."); this
    is how a tol below the grid's discretisation error ends.  A step
    raises StabilityError if I - dt J is not an M-matrix (see
    _Workspace.step).  The steps run in place on one _Workspace, with the
    values in two buffers that trade places on every accepted step; the
    initial values are copied, never written.

    Returns a FlowRun whose trajectory records every accepted step and
    counts the rejected ones.  on_step(t, values), if given, is called
    after every accepted step; values is the new state and must be copied
    to be kept (the next accepted step but one overwrites it), which is how
    the CLI records plot snapshots.  Raises
    NonConvergenceError with the final distance if the time cap 50 D^2
    is hit first.
    """
    params = validate(params)
    if isinstance(initial, FlowState):
        state = initial
        if (state.k, state.params) != (k, params):
            raise DomainError(f"initial state is for k = {state.k:g} and {state.params}")
    else:
        state = make_state(initial, k, params)
    if t_max is None:
        t_max = T_MAX_FACTOR * params.D**2
    _check_positive("tol", tol)
    _check_positive("t_max", t_max)
    ck = _flow_ck(k, params)
    z = state.psi.z
    target = stationary_reference(k, params, z)
    ws = _Workspace(z, params, k, ck)
    v = state.psi.values.copy()
    new, gap = np.empty_like(v), np.empty_like(v)

    def dist(v):
        return float(np.max(np.abs(np.subtract(v, target, out=gap), out=gap)))

    d1 = ws.d1(v)
    times = [state.t]
    dists = [dist(v)]
    resids = [ws.riccati(v, d1)]
    max_uptick = 0.0
    rejected = 0
    t = state.t
    dt0 = dt = ws.dt0(v)  # default_dt(state)
    rise_slack = 1e-12 * max(1.0, k)
    while dists[-1] > tol and t < t_max:
        dt_max = ws.jacobian(v, d1)
        step_dt = min(dt, t_max - t, dt_max)
        d = dist(ws.step(v, step_dt, d1, new, dt_max))
        if d - dists[-1] > rise_slack:
            if step_dt <= dt0:
                raise NonConvergenceError(
                    f"flow stalled at distance {dists[-1]:.6e} (tol {tol:.1e}): "
                    f"a step at dt = {step_dt:.6g} <= dt0 = {dt0:.6g} raises it"
                )
            rejected += 1
            dt = max(0.5 * step_dt, dt0)
            continue
        t += step_dt
        v, new = new, v
        d1 = ws.d1(v)
        max_uptick = max(max_uptick, d - dists[-1])
        times.append(t)
        dists.append(d)
        resids.append(ws.riccati(v, d1))
        if on_step is not None:
            on_step(t, v)
        dt = min(2.0 * step_dt, params.D**2)
    final = FlowState(psi=GridFunction(z=z, values=v), t=t, k=k, params=params)
    run = FlowRun(
        state=final,
        times=np.array(times),
        distances=np.array(dists),
        residuals=np.array(resids),
        converged=dists[-1] <= tol,
        max_uptick=max_uptick,
        rejected_steps=rejected,
    )
    if not run.converged:
        raise NonConvergenceError(
            f"flow hit t_max = {t_max:.6g} at distance {dists[-1]:.6e} (tol {tol:.1e})"
        )
    return run


def discrete_stationary(k, params, z=None, mesh_tol=DEFAULT_MESH_TOL):
    """Newton solve of the fully discrete stationary system on the graded grid.

    Seeds from the continuum Robin solution; iteration stops when the update
    stalls at the rounding floor.
    """
    params = validate(params)
    if z is None:
        z = build_grid(params, k, mesh_tol=mesh_tol)
    z = np.asarray(z, dtype=float)
    ws = _Workspace(z, params, k)
    v = stationary_reference(k, params, z)
    v[0] = 0.0
    v[-1] = -k
    prev = math.inf
    for _ in range(60):
        d1 = ws.d1(v)
        ws.residual(v, d1)
        ws.jacobian(v, d1)
        delta = ws.solve(0.0, 1.0)[1:-1]
        v[1:-1] += delta
        nrm = float(np.max(np.abs(delta)))
        if nrm < 1e-12 * max(1.0, k) or nrm > 0.5 * prev and prev < 1e-6:
            break
        prev = nrm
    else:
        raise NonConvergenceError(f"stationary Newton stalled at update {nrm:.3e}")
    return make_state(GridFunction(z=z, values=np.minimum(v, 0.0)), k, params)


# -- comparison principle, on the flow's own step -----------------------------


def comparison_check(u, v, params, k, T):
    """Evolve two log-derivative profiles under the flow to time T and
    confirm that the parabolic ordering u <= v is preserved.

    Both inputs must share the grid and boundary data, and T must be finite
    and positive and at most the flow's time cap T_MAX_FACTOR D^2 = 50 D^2
    (DomainError otherwise, before any step).  Each side is advanced by
    the flow's own step, as `flow_to_stationary` advances its state:
    `_Workspace.step`, which keeps the boundary values and projects.
    Each side has a workspace of its own, and both step at one dt on
    `flow_to_stationary`'s SER schedule without its rejections: dt starts
    at `default_dt` of u and doubles after every step up to D^2, and each
    step is cut to T - t and to the M-matrix row-sum limit of each side's
    step.  A run to T therefore ends within about log2(D^2 / dt0) + T / D^2
    steps.  A pair the flow cannot step raises its StabilityError.  Raises
    OrderingViolation at the first sampled time and location where the
    ordering fails beyond roundoff slack.
    """
    params = validate(params)
    _check_positive("T", T)
    if T > T_MAX_FACTOR * params.D**2:
        raise DomainError(f"T = {T!r} exceeds the flow's time cap "
                          f"{T_MAX_FACTOR:g} D^2 = {T_MAX_FACTOR * params.D**2!r}")
    if not (isinstance(u, GridFunction) and isinstance(v, GridFunction)):
        raise DomainError("comparison_check expects GridFunction inputs")
    if u.z.shape != v.z.shape or not np.array_equal(u.z, v.z):
        raise DomainError("comparison_check requires a shared grid")
    bu = (u.values[0], u.values[-1])
    bv = (v.values[0], v.values[-1])
    if abs(bu[0] - bv[0]) > 1e-12 or abs(bu[1] - bv[1]) > 1e-12:
        raise DomainError("comparison_check requires identical boundary data")
    if np.max(u.values - v.values) > 1e-12:
        raise HypothesisError("initial data are not ordered u <= v")
    z = u.z
    wu, wv = _Workspace(z, params, k), _Workspace(z, params, k)
    uu, vv = u.values.copy(), v.values.copy()
    diff = np.empty_like(uu)
    slack = 1e-9 * max(1.0, k)
    t = 0.0
    checked = 1
    dt = wu.dt0(uu)  # default_dt of u
    worst = float(np.max(np.subtract(uu, vv, out=diff)))
    while t < T:
        du, dv = wu.d1(uu), wv.d1(vv)
        mu, mv = wu.jacobian(uu, du), wv.jacobian(vv, dv)
        step_dt = min(dt, T - t, mu, mv)
        wu.step(uu, step_dt, du, uu, mu)
        wv.step(vv, step_dt, dv, vv, mv)
        t += step_dt
        dt = min(2.0 * step_dt, params.D**2)
        gap = float(np.max(np.subtract(uu, vv, out=diff)))
        worst = max(worst, gap)
        checked += 1
        if gap > slack:
            i = int(np.argmax(diff))
            raise OrderingViolation(
                f"ordering failed at t = {t:.6g}, z = {z[i]:.6g}: "
                f"u - v = {gap:.3e} exceeds slack {slack:.1e}"
            )
    return {
        "ordered": True,
        "times_checked": checked,
        "final_time": t,
        "worst_gap": worst,
        "slack": slack,
    }
