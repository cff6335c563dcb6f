"""Log-derivative branches, the Robin constant, and the comparison envelopes."""

import collections
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from gapmodel import cli, pruefer
from gapmodel.errors import BlowupError, BracketError, DomainError, HypothesisError
from gapmodel.flow import build_grid, stationary_reference
from gapmodel.model import ModelParams
from gapmodel.pruefer import (
    find_ck,
    lower_bound_functions,
    psi_left,
    psi_right,
    robin_boundary_report,
    robin_eigenfunction,
    supersolution,
    threshold_s,
    upper_bound_left,
    upper_bound_right,
)


def flat_ck(k, D):
    """Closed-form Robin constant for K = 0: nu tan(nu D/2) = k, c = nu^2 - pi^2/D^2."""
    nu = brentq(
        lambda v: v * math.tan(v * D / 2.0) - k,
        1e-12, math.pi / D * (1.0 - 1e-12), xtol=1e-15,
    )
    return nu**2 - math.pi**2 / D**2


class TestRobinConstant:
    @pytest.mark.parametrize("k,D", [(7.0, 1.7), (10.0, 1.0), (0.5, 2.4), (1000.0, 0.9)])
    def test_flat_closed_form(self, k, D):
        p = ModelParams(n=2, K=0.0, D=D)
        assert find_ck(k, p) == pytest.approx(flat_ck(k, D), rel=1e-10, abs=1e-11)

    def test_small_k_still_exists(self):
        # the constant exists for every positive k, down to tiny values
        p = ModelParams(n=3, K=3.0, D=1.5)
        c = find_ck(1e-3, p)
        assert -math.pi**2 / 1.5**2 < c < 0.0

    def test_monotone_in_k(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        cs_ = [find_ck(k, p) for k in (1.0, 10.0, 100.0, 1000.0)]
        assert cs_ == sorted(cs_)
        assert cs_[-1] < 0.0

    def test_rejects_nonpositive_k(self):
        with pytest.raises(DomainError):
            find_ck(0.0, ModelParams(n=2, K=0.0, D=1.0))
        with pytest.raises(DomainError):
            find_ck(-3.0, ModelParams(n=2, K=0.0, D=1.0))
        with pytest.raises(DomainError, match="finite"):
            find_ck(math.inf, ModelParams(n=2, K=0.5, D=1.0))

    def test_slope_beyond_the_flat_bracket(self):
        # the flat bracket reaches k of about 2e12 / D; 1e12 is still inside
        assert pruefer.flat_ck(1e12, 1.0) < 0.0
        with pytest.raises(BracketError, match="does not straddle"):
            pruefer.flat_ck(1e13, 1.0)

    def test_frozen_value(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        assert find_ck(10.0, p) == pytest.approx(-2.8973622366079987, rel=1e-11)


# c_k at (n, K, D, k) to 30 digits: mpmath Taylor integration (odefun, 40
# digits) of phi'' = -(pi^2/D^2 + c/cs_K^2) phi from phi(0) = 1, phi'(0) = 0,
# with the root of phi'(D/2) + k phi(D/2) = 0 found between c_flat and
# c_flat cs_K(D/2)^2; the K = 0 entry is nu^2 - pi^2/D^2 with nu tan(nu D/2) = k.
# A rerun at 55 digits agrees to the digits shown.
CK_30 = {
    (5, 2.0, 1.0, 40.0): "-0.847009870977455526774018679249",
    (5, 2.8, 1.0, 300.0): "-0.117430384681325758077971321342",
    (2, 0.0, 0.5, 313.0): "-0.989887781676945045543287277594",
    (5, -4.0, 1.0, 20.0): "-1.95043547709573070719835981702",
}


@pytest.fixture
def ode_calls(monkeypatch):
    """Counts of pruefer's calls into the two ODE forwarders, by name."""
    calls = collections.Counter()
    for name in ("solve_ivp", "dop853_end"):
        solver = getattr(pruefer, name)

        def counting(*args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(pruefer, name, counting)
    return calls


@pytest.mark.usefixtures("cold_ck")
class TestRobinConstantSolve:
    @pytest.mark.parametrize("n,K,D,k", list(CK_30))
    def test_high_precision_oracle(self, n, K, D, k):
        c = find_ck(k, ModelParams(n, K, D))
        assert c == pytest.approx(float(CK_30[n, K, D, k]), rel=1e-11)

    @pytest.mark.parametrize("n,K,D,k", list(CK_30))
    def test_angle_solves(self, n, K, D, k, ode_calls):
        # one Brent solve inside the comparison bracket, ends included, all
        # of it compiled end-angle shots
        find_ck(k, ModelParams(n, K, D))
        assert 1 <= ode_calls["dop853_end"] <= 8
        assert ode_calls["solve_ivp"] == 0

    @pytest.mark.parametrize("n,K,D,k", [(2, 0.5, 1.0, 10.0), (5, 1.0, 1.0, 60.0)])
    def test_boundary_report_adds_one_solve(self, n, K, D, k, ode_calls):
        # with c_k cached, the eigenfunction and its boundary values come
        # from one dense solve and no shot
        find_ck(k, ModelParams(n, K, D))
        assert ode_calls["dop853_end"] >= 1
        ode_calls.clear()
        robin_boundary_report(k, ModelParams(n, K, D))
        assert ode_calls["solve_ivp"] == 1
        assert ode_calls["dop853_end"] == 0

    def test_angle_check_is_a_bracket_error(self, monkeypatch):
        # Brent often ends on an exactly zero defect, so only a negative
        # tolerance is sure to be exceeded
        monkeypatch.setattr(pruefer, "_ANGLE_TOL", -1.0)
        with pytest.raises(BracketError, match="end-angle defect"):
            find_ck(40.0, ModelParams(5, 2.0, 1.0))

    def test_warm_value_is_the_cold_one(self):
        # c_k is kept per (k, K, D) and served at every n
        cold = find_ck(40.0, ModelParams(5, 2.0, 1.0))
        assert find_ck(40.0, ModelParams(5, 2.0, 1.0)) == cold
        assert find_ck(40, ModelParams(8, 2, 1)) == cold
        assert pruefer._robin_constant.cache_info().misses == 1
        pruefer._robin_constant.cache_clear()
        assert find_ck(40.0, ModelParams(2, 2.0, 1.0)) == cold

    def test_failed_solve_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(pruefer, "_ANGLE_TOL", -1.0)
        for _ in range(2):
            with pytest.raises(BracketError, match="end-angle defect"):
                find_ck(40.0, ModelParams(5, 2.0, 1.0))
        assert pruefer._robin_constant.cache_info().misses == 2


class TestBranches:
    @pytest.mark.parametrize("n,K,k", [(2, 0.1, 10.0), (5, 1.0, 100.0)])
    def test_two_branches_agree_at_ck(self, n, K, k):
        p = ModelParams(n=n, K=K, D=1.0)
        ck = find_ck(k, p)
        left = psi_left(ck, p)
        right = psi_right(k, ck, p)
        zs = np.linspace(0.05 * p.half, 0.95 * p.half, 201)
        gap_ = np.max(np.abs(left.psi_at(zs) - right.psi_at(zs)))
        assert gap_ < 1e-7

    def test_boundary_values(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        ck = find_ck(10.0, p)
        left = psi_left(ck, p)
        assert abs(left.psi_at(0.0)) < 1e-12
        right = psi_right(10.0, ck, p)
        assert right.psi_at(p.half) == pytest.approx(-10.0, abs=1e-9)

    def test_equation_residual(self):
        p = ModelParams(n=5, K=1.0, D=1.0)
        ck = find_ck(10.0, p)
        assert psi_left(ck, p).residual_max() < 1e-8
        assert psi_right(10.0, ck, p).residual_max() < 1e-8

    def test_evaluation_outside_interval(self):
        p = ModelParams(n=2, K=0.0, D=1.0)
        left = psi_left(find_ck(10.0, p), p)
        with pytest.raises(DomainError):
            left.psi_at(0.7)

    @pytest.mark.parametrize("side,shift,z_cease", [("left", 8.0, 0.405), ("right", 30.0, 0.084)])
    def test_blowup_carries_the_partial_branch(self, side, shift, z_cease):
        # past c_k the left branch reaches -pi/2 before D/2; the right branch,
        # shot backward from D/2, reaches +pi/2 before 0
        p = ModelParams(n=2, K=0.5, D=1.0)
        ck = find_ck(10.0, p)
        if side == "left":
            branch = lambda **kw: psi_left(ck + shift, p, **kw)
        else:
            branch = lambda **kw: psi_right(10.0, ck + shift, p, **kw)
        with pytest.raises(BlowupError, match=f"{side} branch ceases") as info:
            branch()
        assert info.value.z == pytest.approx(z_cease, abs=1e-3)
        partial = branch(allow_partial=True)
        assert info.value.partial.interval == partial.interval
        assert info.value.z in partial.interval
        np.testing.assert_array_equal(info.value.partial.psi, partial.psi)


class TestLazySamples:
    """A branch's z and psi samples are taken on first read and kept; the
    flow and its command line only evaluate psi_at."""

    P = ModelParams(n=2, K=0.5, D=1.0)

    @pytest.fixture
    def samples(self, monkeypatch):
        calls = []
        sample_band = pruefer._sample_band

        def counting(q, lo, hi):
            calls.append((lo, hi))
            return sample_band(q, lo, hi)

        monkeypatch.setattr(pruefer, "_sample_band", counting)
        return calls

    def test_flow_path_takes_no_samples(self, samples, capsys, tmp_path):
        p = self.P
        supersolution(10.0, 1.01 * threshold_s(10.0, p), p)
        stationary_reference(10.0, p, build_grid(p, 10.0))
        code = cli.main(["flow", "--n", "2", "--K", "0.5", "--D", "1", "--k", "10",
                         "--tol", "1e-4", "--mesh-tol", "1e-3",
                         "--emit-plot", str(tmp_path / "plot.csv")])
        assert code == 0
        assert samples == []

    @pytest.mark.parametrize("make", ["left", "right", "partial"])
    def test_samples_on_first_read(self, samples, make):
        p = self.P
        ck = find_ck(10.0, p)
        if make == "left":
            branch = psi_left(ck, p)
        elif make == "right":
            branch = psi_right(10.0, ck, p)
        else:
            with pytest.raises(BlowupError) as info:
                psi_left(ck + 8.0, p)
            branch = info.value.partial
        assert samples == []
        z, psi = branch.z, branch.psi
        assert branch.z is z and branch.psi is psi
        assert samples == [branch.interval]
        assert z.tobytes() == pruefer._sample_band(branch._q, *branch.interval).tobytes()
        assert psi.tobytes() == np.tan(branch._q(z)[0]).tobytes()


class TestAngleInterpolant:
    """_scipy.dop853_interpolant gives scipy's dense output bit for bit."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # each dense solve's OdeSolution, its rows and its gathered evaluator
        made = []
        interpolant = pruefer.dop853_interpolant

        def keeping(solution, rows):
            made.append((solution, rows, interpolant(solution, rows)))
            return made[-1][2]

        monkeypatch.setattr(pruefer, "dop853_interpolant", keeping)
        return made

    def test_profile_matches_scipy(self, solves):
        p = ModelParams(5, 3.0, 1.0)
        robin_boundary_report(300.0, p)
        grid = build_grid(p, 300.0)
        assert [rows for _, rows, _ in solves] == [[0, 1]]
        for sol, rows, evaluate in solves:
            assert sol.ascending
            ends = [sol.t_min, sol.t_max]
            inside = grid[(grid >= sol.t_min) & (grid <= sol.t_max)]
            for z in (np.array(ends), sol.ts, inside):
                assert evaluate(z).tobytes() == sol(z)[rows].tobytes()
            for z in [*ends, 0.5 * sum(ends)]:
                assert evaluate(z).shape == (len(rows),)
                assert evaluate(z).tobytes() == sol(z)[rows].tobytes()

    @pytest.mark.parametrize("ascending", [True, False])
    def test_step_choice_is_scipys(self, ascending):
        # random steps that disagree at their shared knots, so a point on a
        # knot, or past either end, shows which step the evaluator picked
        from scipy.integrate import OdeSolution
        from scipy.integrate._ivp.rk import Dop853DenseOutput

        gen = np.random.default_rng(7)
        ts = np.cumsum(gen.uniform(0.5, 1.5, 6))
        if not ascending:
            ts = ts[::-1]
        steps = [Dop853DenseOutput(a, b, gen.normal(size=2), gen.normal(size=(7, 2)))
                 for a, b in zip(ts[:-1], ts[1:])]
        sol = OdeSolution(ts, steps)
        evaluate = pruefer.dop853_interpolant(sol, [0, 1])
        z = np.concatenate((ts, [ts.min() - 0.3, ts.max() + 0.3],
                            gen.uniform(ts.min(), ts.max(), 50)))
        assert evaluate(z).tobytes() == sol(z).tobytes()
        for point in z[:8]:
            assert evaluate(point).tobytes() == sol(point).tobytes()


# The angle q of a branch at seven interior points z = j/8 D/2, j = 1..7,
# to 30 digits, keyed by (side, n, K, D, k): c, then q.  c is c_k -+ 1.01
# times threshold_s, left branches shot forward from q(0) = 0, right ones
# backward from q(D/2) = -arctan k, by mpmath's Taylor integration (odefun)
# of q' = -(c/cs_K^2 + pi^2/D^2) cos^2 q - sin^2 q at 30 digits.  A rerun
# at 40 digits agrees to one unit in the last digit shown.
BRANCH_Q_30 = {
    ("left", 5, 2.0, 1.0, 40.0): (-9.959830346390476, [
        "0.00726422686807236120616529822582",
        "0.0243903893237953673134668124072",
        "0.061746754670722387797311286734",
        "0.130329004410461301016991015322",
        "0.240402398178789074111412954277",
        "0.396565133552767693039095072151",
        "0.589102874879502068696708521824",
    ]),
    ("left", 2, 6.0, 1.0, 30.0): (-9.959546362546988, [
        "0.010528510789184181745010847449",
        "0.0515616038344526417229002829058",
        "0.158226111472330801043141941557",
        "0.366270642456503609610084810087",
        "0.672528197377987230662043930546",
        "0.987289053569510358730512221568",
        "1.22253462266301827154160575356",
    ]),
    ("right", 5, 3.0, 1.0, 300.0): (9.734251478573817, [
        "1.17428709501052101083153678875",
        "0.767465997330187392887293777082",
        "-0.312491851446246178415245376133",
        "-1.04378392290355112167891917073",
        "-1.29607462721177948699841195426",
        "-1.42064944105509514326382063083",
        "-1.50212285908446388633372473858",
    ]),
    ("right", 4, 1.0, 2.0, 10.0): (1.7855683094150008, [
        "0.977520511918612779393592720672",
        "0.663636745594226048069120857664",
        "0.191417029957047594324913424521",
        "-0.373535394214866523159450993804",
        "-0.825439805351467794877686992609",
        "-1.12147205054274292257923753736",
        "-1.32151185081945803238515847867",
    ]),
}


def _pole_by_solve_ivp(k, c, params):
    """Where the right branch's angle reaches pi/2, by scipy's DOP853 solve
    and its terminal event."""
    from scipy.integrate import solve_ivp

    def reach_pole(z, y):
        return y[0] - math.pi / 2

    reach_pole.terminal, reach_pole.direction = True, 1.0
    sol = solve_ivp(pruefer._angle_rhs(c, params), (params.half, 0.0), [-math.atan(k), 0.0],
                    method="DOP853", rtol=1e-13, atol=1e-13, events=reach_pole)
    return float(sol.t_events[0][0])


class TestCompiledBranches:
    """Branches from the compiled DOP853 steps and their rebuilt dense output."""

    @pytest.fixture
    def runs(self, monkeypatch):
        # the result of every dop853_dense run behind a branch
        made = []
        dense = pruefer.dop853_dense

        def keeping(*args, **kwargs):
            made.append(dense(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(pruefer, "dop853_dense", keeping)
        return made

    @pytest.mark.parametrize("side,n,K,D,k", list(BRANCH_Q_30))
    def test_oracle(self, side, n, K, D, k):
        p = ModelParams(n, K, D)
        c, q30 = BRANCH_Q_30[side, n, K, D, k]
        if side == "left":
            branch = psi_left(c, p)
        else:
            branch = psi_right(k, c, p)
        z = p.half * np.arange(1, 8) / 8
        np.testing.assert_allclose(branch._q(z)[0], [float(q) for q in q30], rtol=0, atol=1e-12)

    def test_knots_are_the_fortran_states(self, runs):
        p = ModelParams(5, 3.0, 1.0)
        ck = find_ck(300.0, p)
        psi_left(ck - 1.0, p)
        psi_right(300.0, ck + 1.0, p)  # integrated backward
        psi_right(300.0, ck + 3000.0, p, allow_partial=True)  # stopped at its pole
        assert [run.t_event is None for run in runs] == [True, True, False]
        for run in runs:
            assert run.t[0] in (0.0, p.half)  # the Fortran stepper reports t0 too
            q = run.y[0]
            assert np.all(np.abs(run.sol(run.t)[0] - q) <= 4 * np.spacing(np.abs(q)))

    @pytest.mark.parametrize("s", [30.0, 100.0, 3000.0])
    def test_pole_is_solve_ivps_event(self, s):
        p = ModelParams(5, 3.0, 1.0)
        c = find_ck(300.0, p) + s
        partial = psi_right(300.0, c, p, allow_partial=True)
        assert partial.interval[1] == p.half
        assert abs(partial.interval[0] - _pole_by_solve_ivp(300.0, c, p)) <= 1e-12 * p.half
        with pytest.raises(BlowupError, match="right branch ceases") as info:
            psi_right(300.0, c, p)
        assert info.value.z == partial.interval[0]
        assert info.value.partial.interval == partial.interval
        np.testing.assert_array_equal(info.value.partial.psi, partial.psi)

    def test_exception_from_the_rhs_propagates(self):
        raised = ZeroDivisionError("pole")

        def rhs(z, y):
            if z > 0.3:
                raise raised
            return (1.0,)

        def never(z, y):
            return 1.0

        never.direction = 0.0
        with pytest.raises(ZeroDivisionError) as info:
            pruefer.dop853_dense(rhs, rhs, 0.0, 1.0, [0.0], rtol=1e-12, atol=1e-12, rows=[0],
                                 event=never)
        assert info.value is raised

    def test_step_budget_is_a_domain_error(self, monkeypatch):
        from gapmodel import _scipy

        p = ModelParams(5, 3.0, 1.0)
        c = find_ck(300.0, p) + 3000.0
        monkeypatch.setattr(_scipy, "DOP853_MAX_STEPS", 5)
        for side in (lambda: psi_left(c, p, allow_partial=True),
                     lambda: psi_right(300.0, c, p, allow_partial=True)):
            with pytest.raises(DomainError, match="angle integration failed: larger nsteps"):
                side()
        monkeypatch.undo()
        assert psi_right(300.0, c, p, allow_partial=True).interval[0] > 0.0


class TestRobinEigenfunction:
    def test_boundary_report(self):
        for n, K in ((2, 0.1), (5, 1.0)):
            rep = robin_boundary_report(100.0, (n, K, 1.0))
            assert rep["phi_right_defect"] < 1e-12
            assert rep["dphi_right_defect"] < 1e-8
            assert rep["dphi_left_defect"] < 1e-8
            assert rep["positive"]

    def test_normalization(self):
        gf = robin_eigenfunction(10.0, (2, 0.5, 1.0))
        assert gf.values[-1] == pytest.approx(0.1, rel=1e-12)
        assert np.all(gf.values > 0)


class TestSupersolution:
    def test_zero_shift_is_the_log_derivative(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        sup0 = supersolution(10.0, 0.0, p)
        left = psi_left(find_ck(10.0, p), p)
        inner = (sup0.z > 0.01) & (sup0.z < 0.49)
        assert np.max(np.abs(sup0.values[inner] - left.psi_at(sup0.z[inner]))) < 1e-8

    def test_monotone_in_shift(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        lo = supersolution(10.0, 8.0, p)
        hi = supersolution(10.0, 10.0, p)
        assert np.min(hi.values - lo.values) >= 0.0

    def test_negative_shift_rejected(self):
        with pytest.raises(DomainError):
            supersolution(10.0, -1.0, (2, 0.5, 1.0))

    def test_custom_grid(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        z = np.array([0.0, 0.1, 0.3, 0.5])
        gf = supersolution(10.0, 8.0, p, z=z)
        assert gf.z.shape == (4,)
        with pytest.raises(DomainError):
            supersolution(10.0, 8.0, p, z=np.array([0.0, 0.6]))


class TestEnvelopes:
    def test_threshold_value(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        thr = threshold_s(10.0, p)
        assert thr == pytest.approx(6.9722421644813597, rel=1e-10)
        ck = find_ck(10.0, p)
        assert thr == pytest.approx(ck + math.pi**2, rel=1e-12)

    def test_left_envelope_dominates(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        c = find_ck(10.0, p) - 8.0
        lam, bound = upper_bound_left(c, p)
        branch = psi_left(c, p)
        zs = np.linspace(0.0, p.half, 301)
        assert np.all(branch.psi_at(zs) <= bound(zs) + 1e-9)

    def test_right_envelope_dominates(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        k = 10.0
        c = find_ck(k, p) + 8.0
        lam, bound, z_from = upper_bound_right(k, c, p)
        branch = psi_right(k, c, p, allow_partial=True)
        lo = max(z_from + 0.02, branch.interval[0] + 0.01)
        zs = np.linspace(lo, p.half, 301)
        assert np.all(branch.psi_at(zs) <= bound(zs) + 1e-8)

    def test_floors_below_shifted_branches(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        k, s = 10.0, 8.0
        ck = find_ck(k, p)
        fl = lower_bound_functions(k, s, p)
        assert fl["threshold"] < s
        left = psi_left(ck - s, p)
        zs = np.linspace(0.0, 0.2 * p.half, 101)
        assert np.all(left.psi_at(zs) >= fl["left_floor"](zs) - 1e-9)
        right = psi_right(k, ck + s, p, allow_partial=True)
        lo = max(fl["right_valid_from"] + 0.02, right.interval[0] + 0.01)
        zs = np.linspace(lo, p.half, 101)
        assert np.all(right.psi_at(zs) >= fl["right_floor"](zs) - 1e-8)

    def test_below_threshold_rejected(self):
        p = ModelParams(n=2, K=0.5, D=1.0)
        with pytest.raises(HypothesisError):
            lower_bound_functions(10.0, 1.0, p)

    def test_negative_curvature_rejected(self):
        p = ModelParams(n=2, K=-0.5, D=1.0)
        with pytest.raises(HypothesisError):
            upper_bound_left(-3.0, p)
