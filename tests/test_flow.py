"""Parabolic evolution toward the Robin log-derivative: grids, stepping,
stationary states, and the order-preservation check."""

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest

from gapmodel import _scipy, cli, flow, pruefer
from gapmodel.errors import (
    DomainError,
    HypothesisError,
    NonConvergenceError,
    StabilityError,
)
from gapmodel.flow import (
    MAX_CELLS,
    MIN_CELLS,
    T_MAX_FACTOR,
    _Workspace,
    build_grid,
    comparison_check,
    default_dt,
    discrete_stationary,
    flow_step,
    flow_to_stationary,
    initial_supersolution,
    make_state,
    refine_grid,
    riccati_residual,
    stationary_reference,
)
from gapmodel.model import GridFunction, ModelParams
from gapmodel.pruefer import find_ck, threshold_s

P_FLOW = ModelParams(n=2, K=0.5, D=1.0)  # the KD^2 = 0.5 workhorse


class TestGrid:
    def test_shape(self):
        z = build_grid(P_FLOW, 10.0)
        assert z[0] == 0.0
        assert z[-1] == pytest.approx(P_FLOW.half, rel=0, abs=1e-15)
        assert np.all(np.diff(z) > 0)
        assert len(z) - 1 >= MIN_CELLS

    def test_smooth_grading(self):
        z = build_grid(P_FLOW, 100.0)
        h = np.diff(z)
        ratios = h[1:] / h[:-1]
        assert np.max(ratios) <= 1.05
        assert np.min(ratios) >= 1 / 1.05
        # the layer end should be far better resolved than the left wall
        assert h[-1] < h[5] / 50

    def test_resolution_scales_with_k(self):
        n10 = len(build_grid(P_FLOW, 10.0))
        n100 = len(build_grid(P_FLOW, 100.0))
        assert n100 > 2 * n10

    @pytest.mark.parametrize("mesh_tol", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_mesh_tol(self, mesh_tol):
        with pytest.raises(DomainError, match="mesh_tol"):
            build_grid(P_FLOW, 10.0, mesh_tol=mesh_tol)

    @pytest.mark.parametrize("k", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_slope(self, k):
        with pytest.raises(DomainError, match="slope k"):
            build_grid(P_FLOW, k)

    def test_cell_budget_bounds_large_slopes(self):
        # k = 1e9 would need about 1e8 cells; the grid ODE stops at the budget
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"k = 1e\+09 needs more than"):
            build_grid(P_FLOW, 1e9)
        assert time.perf_counter() - start < 2.0
        assert len(build_grid(P_FLOW, 300.0)) - 1 < MAX_CELLS

    # node count and SHA-256 of the grid's bytes, recorded from the
    # integrated equidistribution ODE; the coarse second case is raised to
    # MIN_CELLS cells
    @pytest.mark.parametrize("params,k,mesh_tol,nodes,digest,rescaled", [
        (ModelParams(5, 3.0, 1.0), 300.0, 1e-6, 62_928,
         "a63c84fa664b26e4651e10810e1399a806adbb7e6c36090ff06f0ecda004727c", False),
        (P_FLOW, 10.0, 1e-2, 513,
         "d090eaa78f1891833ce7eaae1b62b2fb56bd477be0c81ffad6f86b5c4c92f72b", True),
    ], ids=["k300", "coarse"])
    def test_grid_bytes_are_pinned(self, params, k, mesh_tol, nodes, digest, rescaled,
                                   monkeypatch):
        z = build_grid(params, k, mesh_tol=mesh_tol)
        assert len(z) == nodes
        assert hashlib.sha256(z.tobytes()).hexdigest() == digest
        monkeypatch.setattr(flow, "MIN_CELLS", 1)
        first_pass = len(build_grid(params, k, mesh_tol=mesh_tol)) - 1
        assert (first_pass < MIN_CELLS) == rescaled

    @pytest.mark.parametrize("params,k,mesh_tol", [
        (ModelParams(5, 3.0, 1.0), 300.0, 1e-6),
        (P_FLOW, 10.0, 1e-6),
        (ModelParams(2, -8.0, 1.0), 3.0, 1e-6),
        (P_FLOW, 10.0, 1e-2),
    ])
    def test_cells_equidistribute_the_monitor(self, params, k, mesh_tol):
        # every cell is the monitor h at its midpoint times one common factor
        z = build_grid(params, k, mesh_tol=mesh_tol)
        D = params.D
        w = (params.half - 0.5 * (z[1:] + z[:-1])) + 1.0 / k
        damp = 2.0 / w**2 + 2.0 * math.pi**2 / D**2
        G = 96.0 / w**5 + 10.0 * (2.0 * math.pi / D) ** 4
        h = np.minimum(np.sqrt(12.0 * mesh_tol * damp / G), D / 64.0)
        ratio = np.diff(z) / h
        assert np.ptp(ratio) <= 1e-5 * np.mean(ratio)

    # node counts of the forward-Euler march w_{i+1} = w_i + h(w_i) that the
    # integrated ODE replaced
    @pytest.mark.parametrize("params,k,march_nodes", [
        (ModelParams(5, 3.0, 1.0), 300.0, 62_932),
        (P_FLOW, 10.0, 7_215),
    ])
    def test_cell_count_follows_the_march(self, params, k, march_nodes):
        assert abs(len(build_grid(params, k)) - march_nodes) <= 1e-3 * march_nodes

    def test_refine(self):
        z = build_grid(P_FLOW, 10.0)
        fine = refine_grid(z)
        assert len(fine) == 2 * len(z) - 1
        assert np.all(np.isin(z, fine))


class TestStateConstruction:
    def test_supersolution_state(self):
        s = 1.01 * threshold_s(10.0, P_FLOW)
        state = initial_supersolution(10.0, s, P_FLOW)
        v = state.psi.values
        assert v[0] == 0.0
        assert v[-1] == -10.0
        assert np.max(v) <= 0.0
        assert state.t == 0.0

    # (params, k, whether c_k + pi^2/D^2 < 0), on both sides at two triples
    @pytest.mark.parametrize("params,k,outside", [
        (ModelParams(2, -8.0, 1.0), 2.0, True),
        (ModelParams(2, -8.0, 1.0), 3.0, False),
        (ModelParams(2, -2.0, 2.0), 1.0, True),
        (ModelParams(2, -2.0, 2.0), 2.0, False),
    ])
    def test_flow_domain(self, params, k, outside, monkeypatch):
        # below zero the target (log phi)' rises from 0, and no nonpositive
        # flow reaches it
        assert (find_ck(k, params) + math.pi**2 / params.D**2 < 0) == outside
        s = 1.01 * threshold_s(k, params)
        z = build_grid(params, k)
        ramp = GridFunction(z=z, values=-k * (z / params.half) ** 3)
        if not outside:
            run = flow_to_stationary(initial_supersolution(k, s, params), k, params)
            assert run.converged
            assert flow_to_stationary(ramp, k, params).converged
            return

        def no_grid(*args, **kwargs):
            raise AssertionError("build_grid ran before the domain check")

        monkeypatch.setattr(flow, "build_grid", no_grid)
        with pytest.raises(DomainError, match=r"c_k \+ pi\^2/D\^2 = -[0-9.e-]+ < 0"):
            initial_supersolution(k, s, params)
        with pytest.raises(DomainError, match=r"c_k \+ pi\^2/D\^2 = -[0-9.e-]+ < 0"):
            flow_to_stationary(ramp, k, params)

    def test_boundary_validation(self):
        z = np.linspace(0.0, 0.5, 600)
        good = -10.0 * (z / 0.5) ** 3
        make_state(GridFunction(z=z, values=good), 10.0, P_FLOW)
        bad_left = good.copy()
        bad_left[0] = 0.1
        with pytest.raises(DomainError):
            make_state(GridFunction(z=z, values=bad_left), 10.0, P_FLOW)
        bad_right = good.copy()
        bad_right[-1] = -9.0
        with pytest.raises(DomainError):
            make_state(GridFunction(z=z, values=bad_right), 10.0, P_FLOW)
        with pytest.raises(DomainError):
            make_state(GridFunction(z=z, values=np.abs(good)), 10.0, P_FLOW)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["z", "values"])
    @pytest.mark.parametrize("node", [300, -1])
    def test_non_finite_data_is_a_domain_error(self, bad, where, node):
        # NaN fails every comparison, so the sign and boundary checks let it by
        z = np.linspace(0.0, 0.5, 600)
        data = {"z": z, "values": -10.0 * (z / 0.5) ** 3}
        data[where][node] = bad
        psi = GridFunction(**data)
        with pytest.raises(DomainError, match="must be finite"):
            make_state(psi, 10.0, P_FLOW)
        with pytest.raises(DomainError, match="must be finite"):
            flow_to_stationary(psi, 10.0, P_FLOW)

    def test_grid_validation(self):
        z = np.linspace(0.1, 0.5, 300)
        with pytest.raises(DomainError):
            make_state(GridFunction(z=z, values=np.zeros(300)), 0.0, P_FLOW)

    def test_truncated_grid_allowed(self):
        z = np.linspace(0.0, 0.3, 400)
        v = -5.0 * (z / 0.3) ** 3
        state = make_state(GridFunction(z=z, values=v), 5.0, P_FLOW)
        assert state.k == 5.0


class TestStepping:
    def test_default_dt_shrinks_with_k(self):
        s10 = initial_supersolution(10.0, 1.01 * threshold_s(10.0, P_FLOW), P_FLOW)
        s100 = initial_supersolution(100.0, 1.01 * threshold_s(100.0, P_FLOW), P_FLOW)
        assert 0 < default_dt(s100) < default_dt(s10)

    def test_stationary_is_a_fixed_point(self):
        st = discrete_stationary(10.0, P_FLOW)
        # at large dt the step approaches the Newton step of the stationary solve
        for dt in (1e-3, 1.0, 1e3):
            moved = flow_step(st, dt)
            drift = st.psi.sup_distance(moved.psi)
            assert drift < 1e-9

    def test_exact_flat_solution_drift(self):
        """For K = 0 the Dirichlet log-derivative -pi tan(pi z) solves the
        stationary equation exactly; one step on samples of it must only move
        by the spatial truncation error times dt."""
        p = ModelParams(n=2, K=0.0, D=1.0)
        z = np.linspace(0.0, 0.35, 4001)
        v = -math.pi * np.tan(math.pi * z)
        k_eff = math.pi * math.tan(math.pi * 0.35)
        state = make_state(GridFunction(z=z, values=v), k_eff, p)
        for dt, cap in ((1e-5, 5e-10), (1e-3, 5e-8)):
            moved = flow_step(state, dt)
            assert state.psi.sup_distance(moved.psi) < cap

    def test_overflowing_step_is_a_stability_error(self):
        # no row sum of J is positive here, so no dt is cut; dt J overflows
        # and the band solve's result is not finite
        st = discrete_stationary(10.0, P_FLOW, mesh_tol=1e-3)
        with np.errstate(over="ignore"), pytest.raises(StabilityError, match="non-finite"):
            flow_step(st, 1.7e308)

    def test_rejects_nonpositive_dt(self):
        st = discrete_stationary(10.0, P_FLOW)
        with pytest.raises(DomainError):
            flow_step(st, 0.0)

    @pytest.mark.parametrize("control", [
        {"tol": -1.0}, {"tol": math.nan},
        {"t_max": -1.0}, {"t_max": math.nan}, {"t_max": math.inf},
    ], ids=str)
    def test_flow_rejects_bad_step_control(self, control):
        # unchecked, tol < 0 is never reached
        st = discrete_stationary(10.0, P_FLOW)
        with pytest.raises(DomainError, match=next(iter(control))):
            flow_to_stationary(st, 10.0, P_FLOW, **control)

    @pytest.mark.parametrize("k,params", [(20.0, (2, 0.5, 1.0)), (10.0, (2, 0.4, 1.0))])
    def test_flow_rejects_a_state_of_other_data(self, k, params):
        # the state's own k and params must be the ones the run is asked for
        st = initial_supersolution(10.0, 8.0, (2, 0.5, 1.0), mesh_tol=1e-3)
        with pytest.raises(DomainError, match="initial state"):
            flow_to_stationary(st, k, params)


class TestConvergence:
    def test_full_run(self):
        k = 10.0
        s = 1.01 * threshold_s(k, P_FLOW)
        run = flow_to_stationary(initial_supersolution(k, s, P_FLOW), k, P_FLOW)
        assert run.converged
        assert run.distances[-1] <= 1e-6
        assert run.max_uptick <= 1e-9
        assert run.residuals[-1] <= 1e-5
        assert len(run.rows()) == len(run.times)
        # time stays well under the cap
        assert run.times[-1] < 50.0 * P_FLOW.D**2 / 10

    def test_stationary_start_returns_immediately(self):
        k = 10.0
        z = build_grid(P_FLOW, k)
        target = stationary_reference(k, P_FLOW, z)
        target[0] = 0.0
        target[-1] = -k
        gf = GridFunction(z=z, values=np.minimum(target, 0.0))
        run = flow_to_stationary(gf, k, P_FLOW)
        assert run.converged
        assert len(run.times) == 1
        assert run.distances[0] < 1e-9

    def test_snapshots(self):
        # snapshots are steps recorded through on_step and picked afterwards
        k = 10.0
        s = 1.01 * threshold_s(k, P_FLOW)
        history = []
        run = flow_to_stationary(
            initial_supersolution(k, s, P_FLOW), k, P_FLOW,
            on_step=lambda t, v: history.append((t, v.copy())),
        )
        assert [t for t, _ in history] == list(run.times[1:])
        snaps = cli._pick_snapshots(history, [0.01, 0.05])
        assert len(snaps) == 2
        t0, v0 = snaps[0]
        assert t0 >= 0.01
        assert v0.shape == run.state.psi.values.shape

    def test_a_step_is_snapshotted_once(self):
        # the first step (dt0 near 0.01) passes all three times
        k = 10.0
        s = 1.01 * threshold_s(k, P_FLOW)
        history = []
        run = flow_to_stationary(
            initial_supersolution(k, s, P_FLOW), k, P_FLOW,
            on_step=lambda t, v: history.append((t, v.copy())),
        )
        snaps = cli._pick_snapshots(history, [0.001, 0.002, 0.003])
        assert [t for t, _ in snaps] == [run.times[1]]

    def test_ser_steps_grow_geometrically(self):
        # at the advective dt this run takes 336 steps; SER doubles dt
        # after every accepted step
        k, params = 300.0, ModelParams(5, 3.0, 1.0)
        s = 1.01 * threshold_s(k, params)
        run = flow_to_stationary(initial_supersolution(k, s, params), k, params)
        assert run.converged and run.rejected_steps == 0
        assert len(run.times) - 1 <= 20
        assert run.max_uptick <= 1e-12 * k
        dts = np.diff(run.times)
        assert dts[1] == pytest.approx(2.0 * dts[0])
        assert np.max(dts) <= params.D**2

    def test_tolerance_below_the_grid_error_stalls(self):
        # the distance to the continuum target floors near 2e-7 on this grid;
        # a step at the smallest dt that raises it ends the run
        k = 10.0
        init = initial_supersolution(k, 1.01 * threshold_s(k, P_FLOW), P_FLOW)
        steps = []
        with pytest.raises(NonConvergenceError, match="stalled at distance"):
            flow_to_stationary(init, k, P_FLOW, tol=1e-14,
                               on_step=lambda t, v: steps.append(t))
        assert len(steps) < 50

    def test_step_that_is_not_an_m_matrix_raises(self):
        # a cell Peclet number of about 7.5 next to the right wall
        k = 300.0
        z = np.linspace(0.0, 0.5, 41)
        state = make_state(GridFunction(z=z, values=-k * (2.0 * z) ** 8), k, P_FLOW)
        with pytest.raises(StabilityError, match="M-matrix"):
            flow_to_stationary(state, k, P_FLOW)

    def test_ser_steps_keep_the_row_sum_bound(self):
        # at K D^2 = 3 and small k a row sum of J is positive: doubling dt
        # alone would leave the M-matrix condition, a step of D^2 does
        k, params = 0.5, ModelParams(2, 12.0, 0.5)
        init = initial_supersolution(k, 1.01 * threshold_s(k, params), params)
        run = flow_to_stationary(init, k, params)
        assert run.converged and run.max_uptick == 0.0
        assert np.max(np.diff(run.times)) < 0.1 * params.D**2
        with pytest.raises(StabilityError, match="row sum"):
            flow_step(init, params.D**2)

    def test_time_cap_raises(self):
        k = 10.0
        s = 1.01 * threshold_s(k, P_FLOW)
        init = initial_supersolution(k, s, P_FLOW)
        with pytest.raises(NonConvergenceError):
            flow_to_stationary(init, k, P_FLOW, tol=1e-14, t_max=1e-3)


class TestDiscreteStationary:
    def test_close_to_continuum(self):
        st = discrete_stationary(10.0, P_FLOW)
        target = stationary_reference(10.0, P_FLOW, st.psi.z)
        err = np.max(np.abs(st.psi.values - target))
        assert err < 5e-7

    def test_second_order_in_the_mesh(self):
        z = build_grid(P_FLOW, 10.0)
        coarse = discrete_stationary(10.0, P_FLOW, z=z)
        fine = discrete_stationary(10.0, P_FLOW, z=refine_grid(z))
        tc = stationary_reference(10.0, P_FLOW, coarse.psi.z)
        tf = stationary_reference(10.0, P_FLOW, fine.psi.z)
        ec = np.max(np.abs(coarse.psi.values - tc))
        ef = np.max(np.abs(fine.psi.values - tf))
        assert 3.0 < ec / ef < 5.0

    def test_residual_scale(self):
        st = discrete_stationary(10.0, P_FLOW)
        base = riccati_residual(st)
        assert base < 1e-5
        # a visible perturbation must register
        bumped = st.psi.values.copy()
        mid = len(bumped) // 2
        bumped[mid] -= 1e-3
        st2 = make_state(GridFunction(z=st.psi.z, values=bumped), 10.0, P_FLOW)
        assert riccati_residual(st2) > 10 * base


class TestComparison:
    def _stationary_pair(self):
        st = discrete_stationary(10.0, P_FLOW)
        z = st.psi.z
        bump = 0.3 * np.sin(math.pi * z / P_FLOW.half) ** 2
        u = GridFunction(z=z, values=st.psi.values - bump)
        v = GridFunction(z=z, values=st.psi.values.copy())
        return u, v

    def test_order_preserved(self):
        u, v = self._stationary_pair()
        out = comparison_check(u, v, P_FLOW, 10.0, T=0.05)
        assert out["ordered"]
        assert out["worst_gap"] <= out["slack"]
        assert out["final_time"] == pytest.approx(0.05)
        assert out["times_checked"] > 1

    def test_equal_inputs(self):
        _, v = self._stationary_pair()
        out = comparison_check(v, v, P_FLOW, 10.0, T=0.02)
        assert out["ordered"] and out["worst_gap"] == 0.0

    def test_unordered_inputs_rejected(self):
        u, v = self._stationary_pair()
        with pytest.raises(HypothesisError):
            comparison_check(v, u, P_FLOW, 10.0, T=0.02)

    def test_grid_and_boundary_checks(self):
        u, v = self._stationary_pair()
        other = GridFunction(z=v.z * 0.99, values=v.values)
        with pytest.raises(DomainError):
            comparison_check(u, other, P_FLOW, 10.0, T=0.02)
        shifted = GridFunction(z=v.z, values=v.values + 1e-6)
        with pytest.raises(DomainError):
            comparison_check(u, shifted, P_FLOW, 10.0, T=0.02)

    @pytest.mark.parametrize("T", [math.nan, -1.0, 0.0, math.inf])
    def test_rejects_bad_time(self, T):
        u, v = self._stationary_pair()
        with pytest.raises(DomainError, match="T must be finite and positive"):
            comparison_check(u, v, P_FLOW, 10.0, T=T)

    def test_pair_the_flow_cannot_step_raises(self):
        # 17 uniform nodes under a slope of 1000: a cell Peclet number is far
        # above 1, so the flow's own step refuses the pair
        k, half = 1000.0, P_FLOW.half
        z = np.linspace(0.0, half, 17)
        v = -k * z / half
        u = v - 0.3 * np.sin(math.pi * z / half) ** 2
        with pytest.raises(StabilityError, match="cell Peclet number"):
            flow_step(make_state(GridFunction(z=z, values=v), k, P_FLOW), 1e-4)
        with pytest.raises(StabilityError, match="cell Peclet number"):
            comparison_check(GridFunction(z=z, values=u), GridFunction(z=z, values=v),
                             P_FLOW, k, T=0.01)

    def test_time_past_the_cap_rejected_before_any_step(self, monkeypatch):
        u, v = self._stationary_pair()
        steps = []
        step = _Workspace.step
        monkeypatch.setattr(_Workspace, "step",
                            lambda ws, *args: steps.append(1) or step(ws, *args))
        T = math.nextafter(T_MAX_FACTOR * P_FLOW.D**2, math.inf)
        with pytest.raises(DomainError, match="time cap"):
            comparison_check(u, v, P_FLOW, 10.0, T=T)
        assert steps == []

    def test_run_to_the_cap_ends_in_bounded_steps(self):
        # dt doubles from default_dt up to D^2, so 50 D^2 takes about
        # log2(D^2 / dt0) + 50 steps; at the fixed advective dt it took ~5,000
        u, v = self._stationary_pair()
        T = T_MAX_FACTOR * P_FLOW.D**2
        out = comparison_check(u, v, P_FLOW, 10.0, T=T)
        assert out["ordered"] and out["final_time"] == pytest.approx(T)
        assert out["times_checked"] <= 60

    def test_no_robin_solve(self):
        # the pair is advanced by the flow's step alone: no c_k is solved
        u, v = self._stationary_pair()
        pruefer._robin_constant.cache_clear()
        with _scipy.ledger() as work:
            out = comparison_check(u, v, P_FLOW, 10.0, T=0.05)
        assert out["ordered"]
        assert [r for r in work if r[1] == "gapmodel.pruefer"] == []


def _run_bytes(run):
    """Every array of a FlowRun, as bytes."""
    return [a.tobytes() for a in (run.state.psi.z, run.state.psi.values, run.times,
                                   run.distances, run.residuals)]


class TestInPlaceSteps:
    """The steps write into buffers of their own run, never into the caller's
    arrays or into what an earlier run returned."""

    K_SLOPE = 10.0

    def _initial(self):
        k = self.K_SLOPE
        return initial_supersolution(k, 1.01 * threshold_s(k, P_FLOW), P_FLOW)

    def test_initial_values_are_not_written(self):
        init = self._initial()
        before = init.psi.values.copy()
        run = flow_to_stationary(init, self.K_SLOPE, P_FLOW)
        assert len(run.times) > 2
        assert init.psi.values.tobytes() == before.tobytes()
        gf = GridFunction(z=init.psi.z, values=before.copy())
        flow_to_stationary(gf, self.K_SLOPE, P_FLOW)
        assert gf.values.tobytes() == before.tobytes()
        moved = flow_step(init, 1e-3)
        assert init.psi.values.tobytes() == before.tobytes()
        assert moved.psi.values is not init.psi.values

    def test_runs_back_to_back_are_equal(self):
        k = self.K_SLOPE
        init = self._initial()
        first = flow_to_stationary(init, k, P_FLOW)
        kept = _run_bytes(first)
        stationary = discrete_stationary(k, P_FLOW)
        stepped = flow_step(stationary, 1e-3)
        z = stationary.psi.z
        bump = 0.1 * np.sin(math.pi * z / P_FLOW.half) ** 2
        u = GridFunction(z=z, values=stationary.psi.values - bump)
        checked = comparison_check(u, stationary.psi, P_FLOW, k, T=0.01)
        second = flow_to_stationary(init, k, P_FLOW)
        assert _run_bytes(second) == kept
        # the later run did not write into what the first returned
        assert _run_bytes(first) == kept
        # and the calls between them repeat too
        again = discrete_stationary(k, P_FLOW)
        assert again.psi.values.tobytes() == stationary.psi.values.tobytes()
        assert flow_step(stationary, 1e-3).psi.values.tobytes() == stepped.psi.values.tobytes()
        assert comparison_check(u, stationary.psi, P_FLOW, k, T=0.01) == checked


def test_flow_memory_at_the_benchmark_mesh():
    """tracemalloc peak of a warm flow_to_stationary at (5, 3, 1), k = 300
    (62,928 nodes, 11 steps), in arrays of the grid's size.  The steps ran on
    fresh arrays before they ran in place, and peaked at 23.03 then; in
    place they peak at 21.01, with or without the step-run gather of
    sorted points in dense output."""
    k, params = 300.0, ModelParams(5, 3.0, 1.0)
    init = initial_supersolution(k, 1.01 * threshold_s(k, params), params)
    flow_to_stationary(init, k, params)  # c_k and the first imports
    tracemalloc.start()
    try:
        flow_to_stationary(init, k, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * init.psi.z.size) <= 23.0
