"""Log-derivative branches, the Robin constant, and the comparison envelopes."""

import collections
import hashlib
import math
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy
from scipy.optimize import brentq

from gapmodel import _scipy, cli, pruefer
from gapmodel.errors import (
    BlowupError,
    BracketError,
    DomainError,
    HypothesisError,
    NonConvergenceError,
    ScipyInternalsError,
)
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


# SHA-256 of supersolution(k, s, ModelParams(n, K, D)).values on its default
# grid, keyed by (k, s, (n, K, D)), from the code in which psi_right could
# return its truncated branch instead of raising BlowupError
SUPERSOLUTION_SHA256 = {
    (300.0, 30.0, (5, 3.0, 1.0)):
        "46f30f886ef898450a931a9dbf7ac26f0dbaec417a1b8a359dde76e254bbb99e",
    (300.0, 100.0, (5, 3.0, 1.0)):
        "483964ae1b542b4c51bdba0ab2cc3a81bdb3039e337029cfc1f28747c8bd60b4",
    (300.0, 3000.0, (5, 3.0, 1.0)):
        "b538fc348a3516879b95dcbf98a01180441c85df9f2dca8804e69a15f099e55e",
    (10.0, 30.0, (2, 0.5, 1.0)):
        "7e848949ca1273c1b0f9818ef65067eee6b8117e1ff99ad02205e7143d5a4d00",
}


def _sha256(values):
    return hashlib.sha256(values.tobytes()).hexdigest()


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
        # the constant exists for every positive k, down to tiny values, and
        # is the k -> 0 limit below about 1e-24 D, where flat_ck's bracket
        # once ended
        c_flat = -math.pi**2 / 1.5**2
        for K in (3.0, -3.0, 0.0):
            p = ModelParams(n=3, K=K, D=1.5)
            assert min(c_flat, c_flat * pruefer.cs(0.75, K) ** 2) < find_ck(1e-3, p) < 0.0
            limit = find_ck(1e-24, p)
            assert [find_ck(k, p) for k in (1e-30, 1e-300)] == [limit, limit], K

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


def _nan_seed(k, K, D, below):
    """A collocation seed that failed."""
    return math.nan, math.nan


def ode_calls(work):
    """Counts of pruefer's ODE runs on the ledger work, by wrapper."""
    return collections.Counter(name for name, module, _ in work
                               if module == "gapmodel.pruefer" and name != "brent")


@pytest.mark.usefixtures("cold_ck")
class TestRobinConstantSolve:
    def test_exhausted_brent_is_non_convergence(self):
        # at D = 1e-100 the flat bracket spans 1e-12 to 3e100, more than
        # Brent's 100 iterations resolve at its tolerance
        with pytest.raises(NonConvergenceError, match="Brent"):
            pruefer.flat_ck(1.0, 1e-100)
        with pytest.raises(NonConvergenceError, match="Brent"):
            find_ck(1.0, (5, 0.0, 1e-100))


    @pytest.mark.parametrize("n,K,D,k", list(CK_30))
    def test_high_precision_oracle(self, n, K, D, k):
        c = find_ck(k, ModelParams(n, K, D))
        assert c == pytest.approx(float(CK_30[n, K, D, k]), rel=1e-11)

    @pytest.mark.parametrize("n,K,D,k", list(CK_30))
    def test_angle_solves(self, n, K, D, k, work):
        # the seeded (K != 0) or flat (K = 0) interval takes one stacked
        # end-angle pass and the accepted check, which is the profile run
        find_ck(k, ModelParams(n, K, D))
        assert ode_calls(work) == {"dop853_end": 1, "dop853_dense": 1}

    @pytest.mark.parametrize("n,K,D,k,fault", [
        (*key, fault) for key in CK_30 for fault in ("nan_seed", "no_straddle")
        if fault == "no_straddle" or key[1] != 0.0])  # K = 0 computes no seed
    def test_brent_fallback(self, n, K, D, k, fault, monkeypatch, work):
        # a NaN seed, or a pass whose end angles do not straddle the target,
        # sends Brent to the comparison bracket, to the same root
        if fault == "nan_seed":
            monkeypatch.setattr(pruefer, "_colloc_seed", _nan_seed)
        else:
            end_angles = pruefer._end_angles

            def swapped(cvals, params):
                return end_angles(cvals, params)[::-1]

            monkeypatch.setattr(pruefer, "_end_angles", swapped)
        c = find_ck(k, ModelParams(n, K, D))
        assert c == pytest.approx(float(CK_30[n, K, D, k]), rel=1e-11)
        assert ode_calls(work)["dop853_end"] >= 3 and ode_calls(work)["dop853_dense"] == 1

    def test_rejected_estimate_refines_on_the_roots_side(self, monkeypatch, work):
        # with no estimate accepted, Brent continues inside the pass's
        # interval from the check, and only the root's run becomes the profile
        monkeypatch.setattr(pruefer, "_ACCEPT", 0.0)
        brackets = []
        brent = _scipy.brent

        def recording(f, lo, hi, **tol):
            brackets.append((lo, hi))
            return brent(f, lo, hi, **tol)

        # the shared root path's Brent; flat_ck's is pruefer's own binding
        monkeypatch.setattr(_scipy, "brent", recording)
        n, K, D, k = 5, 2.0, 1.0, 40.0
        c = find_ck(k, ModelParams(n, K, D))
        assert c == pytest.approx(float(CK_30[n, K, D, k]), rel=1e-11)
        assert ode_calls(work)["dop853_end"] >= 2 and ode_calls(work)["dop853_dense"] == 2
        # one Brent, inside the seeded interval, 2e-8 wide, not the
        # comparison bracket, 0.3 wide
        lo, hi = brackets[-1]
        assert len(brackets) == 1 and lo <= c <= hi and hi - lo < 1e-6

    @pytest.mark.parametrize("k,K,D", [(10.0, 9.8, 1.0), (1.0, -400.0, 1.0)])
    def test_wide_seed_goes_straight_to_brent(self, k, K, D, monkeypatch, work):
        # the seed's ladder is wider than _PASS_WIDTH allows a pass, also at
        # 3 ladders (8.7e-3 and 8.9e-3 of the scale): Brent
        # starts on the seeded interval, and only its root's run is dense
        c = find_ck(k, ModelParams(5, K, D))
        # each end-angle shot carries one (q, log r) pair
        assert {sol.y.size for name, module, sol in work
                if (name, module) == ("dop853_end", "gapmodel.pruefer")} == {2}
        assert ode_calls(work)["dop853_dense"] == 1
        pruefer._robin_constant.cache_clear()
        monkeypatch.setattr(pruefer, "_colloc_seed", _nan_seed)
        assert c == pytest.approx(find_ck(k, ModelParams(5, K, D)), rel=1e-12)

    def test_unbracketed_constant_is_a_bracket_error(self, monkeypatch, work):
        # no ODE: a NaN seed leaves the wide bracket to end angles that
        # never cross the target
        monkeypatch.setattr(pruefer, "_colloc_seed", _nan_seed)
        monkeypatch.setattr(pruefer, "_end_angles", lambda cvals, params: [0.0] * len(cvals))
        with pytest.raises(BracketError, match=r"comparison bracket \[.*\] does not "
                                               r"straddle c_k for k = 40.0"):
            find_ck(40.0, ModelParams(5, 2.0, 1.0))
        assert ode_calls(work) == {}

    def test_check_run_ends_on_the_end_angle_shot(self):
        # the profile run steps as the end-only shot does
        for k, p in ((40.0, ModelParams(5, 2.0, 1.0)), (10.0, ModelParams(2, 0.0, 1.0)),
                     (1.0, ModelParams(5, -8.0, 1.0))):
            c = find_ck(k, p)
            assert pruefer._profile(c, p).y[0, -1] == pruefer._end_angles([c], p)[0]

    @pytest.mark.parametrize("n,K,D,k", [(5, 2.0, 1.0, 40.0), (5, 2.8, 1.0, 300.0),
                                         (5, -4.0, 1.0, 20.0), (3, 12.0, 0.5, 0.5)])
    def test_collocation_seed(self, n, K, D, k):
        # the seed and its ladder difference, within the pass's half-width
        c_flat = pruefer.flat_ck(k, D)
        below = min(c_flat, c_flat * pruefer.cs(D / 2, K) ** 2)
        seed, ladder = pruefer._colloc_seed(k, K, D, below)
        c = find_ck(k, ModelParams(n, K, D))
        assert abs(seed - c) < max(_scipy._LADDERS * ladder, 1e-9 * (math.pi / D) ** 2)
        assert ladder < 1e-9 * abs(c)

    # K D^2 = 9.8, where 3 ladders exceed the pad and so set the seeded
    # interval; measured: 0.38 ladder at k = 1e3, D = 1, the largest on
    # find_ck's 126-constant grid, where that interval is narrow
    @pytest.mark.parametrize("k,D", [(1e3, 1.0), (100.0, 1.0), (10.0, 2.0), (1.0, 0.5),
                                     (1e4, 0.5)])
    def test_collocation_seed_within_three_ladders_near_the_cap(self, k, D):
        K = 9.8 / D**2
        c_flat = pruefer.flat_ck(k, D)
        lo, hi = sorted((c_flat, c_flat * pruefer.cs(D / 2, K) ** 2))
        pad = 1e-9 * max(abs(lo), abs(hi), (math.pi / D) ** 2)
        seed, ladder = pruefer._colloc_seed(k, K, D, lo - pad)
        assert _scipy._LADDERS * ladder > pad
        assert abs(seed - find_ck(k, ModelParams(5, K, D))) <= 3 * ladder

    @pytest.mark.parametrize("n,K,D,k", [(2, 0.5, 1.0, 10.0), (5, 1.0, 1.0, 60.0)])
    def test_boundary_report_adds_one_solve(self, n, K, D, k, work):
        # with c_k cached, the eigenfunction, its boundary values and the
        # left branch come from the profile cached with it, and nothing runs
        find_ck(k, ModelParams(n, K, D))
        assert ode_calls(work) == {"dop853_end": 1, "dop853_dense": 1}
        work.clear()
        robin_boundary_report(k, ModelParams(n, K, D))
        stationary_reference(k, ModelParams(n, K, D), np.linspace(0.0, 0.5, 11))
        assert ode_calls(work) == {}

    @pytest.mark.parametrize("n,K,D,k", [(2, 0.5, 1.0, 10.0), (5, 3.0, 1.0, 300.0),
                                         (2, 0.0, 0.5, 300.0), (4, -2.0, 1.5, 20.0)])
    def test_stationary_reference_is_psi_left(self, n, K, D, k):
        p = ModelParams(n, K, D)
        z = build_grid(p, k)
        expected = psi_left(find_ck(k, p), p).psi_at(z)
        assert stationary_reference(k, p, z).tobytes() == expected.tobytes()

    def test_angle_check_is_a_bracket_error(self, monkeypatch, work):
        # the pass's check often ends on a defect below 1e-15, so only a
        # negative tolerance is sure to be exceeded; no Brent shot follows
        monkeypatch.setattr(pruefer, "_ANGLE_TOL", -1.0)
        with pytest.raises(BracketError, match="end-angle defect"):
            find_ck(40.0, ModelParams(5, 2.0, 1.0))
        assert ode_calls(work) == {"dop853_end": 1, "dop853_dense": 1}

    def test_brent_root_check_is_a_bracket_error(self, monkeypatch):
        monkeypatch.setattr(pruefer, "_ANGLE_TOL", -1.0)
        monkeypatch.setattr(pruefer, "_colloc_seed", _nan_seed)
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

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_finite_c_rejected_before_any_run(self, side, c, work):
        with pytest.raises(DomainError, match="c must be finite"):
            if side == "left":
                psi_left(c, (5, 1.0, 1.0))
            else:
                psi_right(2.0, c, (5, 1.0, 1.0))
        assert work == []

    @pytest.mark.parametrize("side,shift,z_cease", [("left", 8.0, 0.405), ("right", 30.0, 0.084)])
    def test_blowup_carries_the_partial_branch(self, side, shift, z_cease):
        # past c_k the left branch reaches -pi/2 before D/2; the right branch,
        # shot backward from D/2, reaches +pi/2 before 0
        p = ModelParams(n=2, K=0.5, D=1.0)
        ck = find_ck(10.0, p)
        with pytest.raises(BlowupError, match=f"{side} branch ceases") as info:
            if side == "left":
                psi_left(ck + shift, p)
            else:
                psi_right(10.0, ck + shift, p)
        assert info.value.z == pytest.approx(z_cease, abs=1e-3)
        partial = info.value.partial
        assert (partial.side, partial.c) == (side, ck + shift)
        assert partial.interval == ((0.0, info.value.z) if side == "left"
                                    else (info.value.z, p.half))
        assert np.all(np.isfinite(partial.psi_at(np.linspace(*partial.interval, 9))))
        if side == "right":
            # supersolution takes the right branch at c_k + s from the error;
            # these are the bits of its values when psi_right returned the
            # truncated branch itself
            assert _sha256(supersolution(10.0, shift, p).values) == SUPERSOLUTION_SHA256[
                10.0, shift, (2, 0.5, 1.0)]


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
    """_scipy._dense_evaluator picks each point's step as scipy's OdeSolution does."""

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
        evaluate = _scipy._dense_evaluator(
            ts,
            np.array([s.t_old for s in steps]),
            np.array([s.h for s in steps]),
            np.array([s.y_old for s in steps]).T,
            # scipy's reversed(F), highest coefficient first: (coefficient, row, step)
            np.array([s.F[::-1] for s in steps]).transpose(1, 2, 0),
        )
        z = np.concatenate((ts, [ts.min() - 0.3, ts.max() + 0.3],
                            gen.uniform(ts.min(), ts.max(), 50)))
        assert evaluate(z).tobytes() == sol(z).tobytes()
        # a subset of the rows evaluates to the same bits
        assert evaluate(z, rows=[1]).tobytes() == sol(z)[1:].tobytes()
        for point in z[:8]:
            assert evaluate(point).tobytes() == sol(point).tobytes()

    @staticmethod
    def _fancy_indexed(ts, t_old, h, y_old, coeffs):
        """The evaluator as it was written with one fancy-indexed (points,
        rows) gather per coefficient: y_old is (step, row) and coeffs
        (coefficient, step, row)."""
        ascending = ts[-1] >= ts[0]
        ts, side = (ts, "left") if ascending else (ts[::-1], "right")
        last = len(t_old) - 1

        def evaluate(z):
            z = np.asarray(z, dtype=float)
            t = z.reshape(-1)
            step = np.clip(np.searchsorted(ts, t, side=side) - 1, 0, last)
            if not ascending:
                step = last - step
            x = ((t - t_old[step]) / h[step])[:, None]
            y = np.zeros((t.size, y_old.shape[1]))
            for i, f in enumerate(coeffs):
                y += f[step]
                if i % 2 == 0:
                    y *= x
                else:
                    y *= 1 - x
            y += y_old[step]
            return y.T.reshape((y_old.shape[1],) + z.shape)

        return evaluate

    @pytest.mark.parametrize("rows", [[0], [0, 1]])
    @pytest.mark.parametrize("ascending", [True, False])
    def test_gathers_match_the_fancy_indexed_formula(self, ascending, rows):
        gen = np.random.default_rng(11)
        steps = 40
        ts = np.cumsum(gen.uniform(0.5, 1.5, steps + 1))
        if not ascending:
            ts = -ts
        t_old, h = ts[:-1], np.diff(ts)
        y_old = gen.normal(size=(2, steps))  # (row, step)
        coeffs = gen.normal(size=(7, 2, steps))  # (coefficient, row, step)
        evaluate = _scipy._dense_evaluator(ts, t_old, h, y_old[rows], coeffs[:, rows])
        reference = self._fancy_indexed(ts, t_old, h, y_old[rows].T,
                                        coeffs[:, rows].transpose(0, 2, 1))
        lo, hi = min(ts[0], ts[-1]), max(ts[0], ts[-1])
        z = np.concatenate((ts, [lo, hi], gen.uniform(lo, hi, 500)))
        assert evaluate(z).shape == (len(rows), z.size)
        assert evaluate(z).tobytes() == reference(z).tobytes()
        for point in (ts[0], ts[-1], ts[5], 0.5 * (ts[3] + ts[4])):
            assert evaluate(point).shape == (len(rows),)
            assert evaluate(point).tobytes() == reference(point).tobytes()
        grid = z[:60].reshape(6, 10)
        assert evaluate(grid).tobytes() == reference(grid).tobytes()

    @staticmethod
    def _dense_run(monkeypatch, backward, stopped):
        """A dop853_dense run of y' = (cos(3t) y1 + 1, -y0) on [0, 2],
        forward from t = 0 or backward from t = 2, stopped by an event
        0.7 short of the far end or run to the end, and the arguments of
        its _dense_evaluator: knots, t_old, h, y_old, coeffs."""
        extensions = []

        def recorded(*extension):
            extensions.append(extension)
            return real(*extension)

        real = _scipy._dense_evaluator
        monkeypatch.setattr(_scipy, "_dense_evaluator", recorded)

        def rhs(t, y):
            return (math.cos(3 * t) * y[1] + 1.0, -y[0])

        t0, t1 = (2.0, 0.0) if backward else (0.0, 2.0)

        def crossing(t, y):
            return t - (t1 + 0.7 if backward else t1 - 0.7)

        crossing.direction = -1.0 if backward else 1.0
        run = _scipy.dop853_dense(rhs, t0, t1, [0.0, 1.0], rtol=1e-9, atol=1e-9,
                                  event=crossing if stopped else None)
        assert (run.t_event is not None) == stopped
        run.sol(0.5 * (t0 + t1))  # forms a deferred extension
        return run, extensions[-1]

    @pytest.mark.parametrize("stopped", [False, True])
    @pytest.mark.parametrize("backward", [False, True])
    def test_sorted_points_gather_to_the_searchsorted_bits(self, monkeypatch, backward,
                                                           stopped):
        """The run's dense output, and an evaluator on the run's knots with
        random coefficients, whose steps disagree at the shared knots,
        against the fancy-indexed evaluator, which locates each point by
        searchsorted."""
        run, (ts, t_old, h, y_old, coeffs) = self._dense_run(monkeypatch, backward, stopped)
        assert ts.size > 8  # several steps, so the runs of points differ
        gen = np.random.default_rng(5)
        y_rand, coeffs_rand = gen.normal(size=y_old.shape), gen.normal(size=coeffs.shape)
        pairs = [(run.sol, (y_old, coeffs)),
                 (_scipy._dense_evaluator(ts, t_old, h, y_rand, coeffs_rand),
                  (y_rand, coeffs_rand))]
        lo, hi = min(ts[0], ts[-1]), max(ts[0], ts[-1])
        size = 2 * _scipy._RUN_MIN + 1  # sorted points this many are gathered by runs
        grid = np.linspace(lo, hi, size)
        points = {
            "sorted": grid,
            "unsorted": gen.permutation(grid),
            "reversed": grid[::-1],
            # every knot three times, between repeated grid points
            "repeats and knots": np.sort(np.concatenate([ts, ts, ts, grid, grid])),
            "outside the span": np.linspace(lo - 0.5, hi + 0.5, size),
            "one point": np.array([ts[3]]),
            "no points": np.array([]),
            "a NaN": np.concatenate([grid[:400], [np.nan], grid[400:]]),
            "sorted, in a grid": grid[:-1].reshape(2, -1),
        }
        for evaluate, (y0, cs) in pairs:
            for rows in ([0, 1], [1]):
                reference = self._fancy_indexed(ts, t_old, h, y0[rows].T,
                                                cs[:, rows].transpose(0, 2, 1))
                for name, z in points.items():
                    got, want = evaluate(z, rows), reference(z)
                    assert got.shape == want.shape, name
                    assert got.tobytes() == want.tobytes(), (name, rows)

    def test_sorted_points_search_the_knots_into_the_points(self, monkeypatch):
        run, (ts, *_) = self._dense_run(monkeypatch, backward=True, stopped=False)
        z = np.linspace(0.0, 2.0, _scipy._RUN_MIN + 1)
        searches = []
        real = np.searchsorted

        def searchsorted(a, v, **kwargs):
            searches.append((a, v))
            return real(a, v, **kwargs)

        monkeypatch.setattr(np, "searchsorted", searchsorted)
        run.sol(z)
        assert searches and all(np.shares_memory(a, z) and not np.shares_memory(v, z)
                                for a, v in searches)
        searches.clear()
        run.sol(z[::-1].copy())  # unsorted: each point is searched in the knots
        assert [np.shares_memory(a, ts) for a, _ in searches] == [True]


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
    sol = solve_ivp(pruefer._angle_rhs([c], params), (params.half, 0.0), [-math.atan(k), 0.0],
                    method="DOP853", rtol=1e-13, atol=1e-13, events=reach_pole)
    return float(sol.t_events[0][0])


class TestCompiledBranches:
    """Branches from the compiled DOP853 steps and their dense output."""

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

    def test_knots_are_the_fortran_states(self, work):
        p = ModelParams(5, 3.0, 1.0)
        ck = find_ck(300.0, p)
        work.clear()  # a cold find_ck's runs
        psi_left(ck - 1.0, p)
        psi_right(300.0, ck + 1.0, p)  # integrated backward
        with pytest.raises(BlowupError):
            psi_right(300.0, ck + 3000.0, p)  # stopped at its pole
        runs = [sol for name, _, sol in work if name == "dop853_dense"]
        assert [run.t_event is None for run in runs] == [True, True, False]
        for run in runs:
            assert run.t[0] in (0.0, p.half)  # the Fortran stepper reports t0 too
            q = run.y[0]
            assert np.all(np.abs(run.sol(run.t)[0] - q) <= 4 * np.spacing(np.abs(q)))

    @pytest.mark.parametrize("s", [30.0, 100.0, 3000.0])
    def test_pole_is_solve_ivps_event(self, s):
        p = ModelParams(5, 3.0, 1.0)
        c = find_ck(300.0, p) + s
        with pytest.raises(BlowupError, match="right branch ceases") as info:
            psi_right(300.0, c, p)
        partial = info.value.partial
        assert partial.interval == (info.value.z, p.half)
        assert abs(partial.interval[0] - _pole_by_solve_ivp(300.0, c, p)) <= 1e-12 * p.half
        # supersolution reads that carried branch: the bits of its values
        # when psi_right returned the truncated branch itself
        assert _sha256(supersolution(300.0, s, p).values) == SUPERSOLUTION_SHA256[
            300.0, s, (5, 3.0, 1.0)]

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
            pruefer.dop853_dense(rhs, 0.0, 1.0, [0.0], rtol=1e-12, atol=1e-12, event=never)
        assert info.value is raised

    def test_dense_output_uses_each_accepted_steps_stages(self):
        """y' = (1 / (1 + ((t - 1/2) / eps)^2), cos t) from y(0) = 0, whose
        first component is eps (atan((t - 1/2) / eps) + atan(1 / (2 eps))).
        The bump at t = 1/2 makes the controller reject steps, so the calls
        the Fortran makes between two accepted steps are not only that
        step's stages; the interpolant at every step's midpoint must still
        match the closed form."""
        eps, rtol = 1e-3, 1e-10

        def rhs(t, y):
            return (1.0 / (1.0 + ((t - 0.5) / eps) ** 2), math.cos(t))

        sol = _scipy.dop853_dense(rhs, 0.0, 1.0, [0.0, 0.0], rtol=rtol, atol=rtol, event=None)
        assert sol.success
        steps, calls = sol.t.size - 1, sol.nfev
        mid = 0.5 * (sol.t[1:] + sol.t[:-1])
        exact = [eps * (np.arctan((mid - 0.5) / eps) + math.atan(0.5 / eps)), np.sin(mid)]
        np.testing.assert_allclose(sol.sol(mid), exact, rtol=0, atol=10 * rtol)
        # nfev is the Fortran's calls, and 3 more per step once the first
        # evaluation forms the extension; each accepted step takes 12 calls,
        # each rejected one 11, and the run starts with 2
        assert calls > 12 * steps + 2 and sol.nfev == calls + 3 * steps

    def test_step_budget_is_a_domain_error(self, monkeypatch):
        p = ModelParams(5, 3.0, 1.0)
        c = find_ck(300.0, p) + 3000.0
        monkeypatch.setattr(_scipy, "DOP853_MAX_STEPS", 5)
        for side in (lambda: psi_left(c, p), lambda: psi_right(300.0, c, p)):
            with pytest.raises(DomainError, match="angle integration failed: larger nsteps"):
                side()
        monkeypatch.undo()
        with pytest.raises(BlowupError) as info:
            psi_right(300.0, c, p)
        assert info.value.partial.interval[0] > 0.0


class TestScipyInternals:
    """dop853_dense's first call in a process checks the scipy internals it reads."""

    @staticmethod
    def _run():
        return _scipy.dop853_dense(lambda t, y: (y[1], -y[0]), 0.0, 1.0, [1.0, 0.0],
                                   rtol=1e-10, atol=1e-10, event=None)

    def test_checked_once_and_recorded_in_no_ledger(self, monkeypatch, work):
        checks = []
        check = _scipy._check_internals

        def counted():
            checks.append(1)
            check()

        monkeypatch.setattr(_scipy, "_checked", False)
        monkeypatch.setattr(_scipy, "_check_internals", counted)
        self._run()
        self._run()
        assert checks == [1] and _scipy._checked
        assert [name for name, _, _ in work] == ["dop853_dense", "dop853_dense"]

    def test_not_checked_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from gapmodel import _scipy; print(_scipy._checked)"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    @pytest.mark.parametrize("name,entry", [("A", (14, 5)), ("C", (13,)), ("D", (0, 0)),
                                            ("D", (3, 15))])
    def test_perturbed_tableau_entry_raises(self, monkeypatch, name, entry):
        table = getattr(_scipy.tableau, name).copy()
        table[entry] *= 1.001
        monkeypatch.setattr(_scipy.tableau, name, table)
        monkeypatch.setattr(_scipy, "_checked", False)
        with pytest.raises(ScipyInternalsError, match=f"scipy {re.escape(scipy.__version__)}"):
            self._run()
        # a failed check stands, and runs again on the next call
        assert not _scipy._checked
        with pytest.raises(ScipyInternalsError, match="from \\(cos, -sin\\)"):
            self._run()

    def test_changed_stage_calls_raise(self, monkeypatch):
        # a stepper that calls the right-hand side twice for each value it
        # uses: a step's last 12 calls are no longer its stages, and the
        # calls no longer match the Fortran's count
        ode = _scipy.ode

        def twice(fun):
            return ode(lambda t, y: (fun(t, y), fun(t, y))[1])

        monkeypatch.setattr(_scipy, "ode", twice)
        monkeypatch.setattr(_scipy, "_checked", False)
        with pytest.raises(ScipyInternalsError, match=f"scipy {re.escape(scipy.__version__)}"):
            self._run()


# The Robin profile (q, log r) at seven interior points z = j/8 D/2,
# j = 1..7, to 30 digits, keyed by (n, K, D, k): the float c_k, then the
# pairs.  mpmath's Taylor integration (odefun) at 30 digits of
# q' = -w cos^2 q - sin^2 q, (log r)' = (1 - w) sin q cos q, with
# w = c/cs_K^2 + pi^2/D^2, from q(0) = log r(0) = 0 at that c.  A rerun at
# 40 digits agrees to 1e-31.
PROFILE_30 = {
    (5, 3.0, 1.0, 300.0): (-0.11644227190369943, [
        ("-0.553118852104712620843659956599", "0.142301295742437689674138933358"),
        ("-0.909427736286198559950345123943", "0.409231964290399703922437603952"),
        ("-1.12078266138295130927315674713", "0.650260501384741223881559827119"),
        ("-1.25794782492229921046774590864", "0.83659897967370682793507715166"),
        ("-1.35713045162741382448143005986", "0.972263241083999185340479990852"),
        ("-1.43601078637060707276701149234", "1.06437816375596070959754171553"),
        ("-1.50413004461888588969538354812", "1.11822764116410427746102999711"),
    ]),
    (5, -8.0, 1.0, 1.0): (-12.733607673486055, [
        ("0.168568826308626334498543397155", "0.019730796601717552552138624925"),
        ("0.282847119088198423351386075778", "0.0607729748199766211559866724263"),
        ("0.314526924527085423569003171545", "0.0902853597021957467946060448977"),
        ("0.252102657956791638440974002766", "0.0908674802799284279624774418105"),
        ("0.0862802964806666241144494741573", "0.0737506928723677597295357761598"),
        ("-0.179707861147000335947760264359", "0.0837730864209206757398177688216"),
        ("-0.496906520037485640025412557517", "0.174296035349560227126430900454"),
    ]),
}


class TestRobinEigenfunction:
    def test_boundary_report(self):
        for n, K in ((2, 0.1), (5, 1.0)):
            rep = robin_boundary_report(100.0, (n, K, 1.0))
            assert rep["phi_right_defect"] < 1e-12
            assert rep["dphi_right_defect"] < 1e-8
            assert rep["dphi_left_defect"] < 1e-8
            assert rep["positive"]

    @pytest.mark.parametrize("k", [5e-324, 1e-310, 1e-300, 1e-24, 1e-12, 1e-3], ids=repr)
    def test_small_slope_defects_are_relative(self, k):
        # phi(D/2) = 1/k; each defect is over max(1, 1/k), which keeps it
        # finite where 1/k overflows and at the end angle's rounding error
        # where an absolute defect grows as 1/k
        rep = robin_boundary_report(k, ModelParams(5, 1.0, 1.0))
        for name in ("phi_right_defect", "dphi_right_defect", "dphi_left_defect"):
            assert math.isfinite(rep[name]) and rep[name] <= 1e-12, name
        assert rep["positive"]

    @pytest.mark.parametrize("k", [5e-324, 1e-310, 1e-300], ids=repr)
    def test_small_slope_positivity_is_judged_on_finite_samples(self, k, monkeypatch):
        # the report asks for phi(D/2) = 1 below k = 1, so inf > 0 never
        # stands in for positivity
        samples, real = [], pruefer._eigenfunction

        def recording(profile, value, half):
            gf = real(profile, value, half)
            samples.append(gf.values)
            return gf

        monkeypatch.setattr(pruefer, "_eigenfunction", recording)
        assert robin_boundary_report(k, ModelParams(5, 1.0, 1.0))["positive"]
        [values] = samples
        assert np.all(np.isfinite(values)) and values[-1] == 1.0

    @pytest.mark.parametrize("k", [5e-324, 1e-310, 1e-300], ids=repr)
    def test_slope_whose_inverse_overflows_is_a_domain_error(self, k):
        p = ModelParams(5, 1.0, 1.0)
        if math.isfinite(1.0 / k):
            gf = robin_eigenfunction(k, p)
            assert np.all(np.isfinite(gf.values)) and np.all(gf.values > 0)
            assert gf.values[-1] == pytest.approx(1.0 / k, rel=1e-15)
        else:
            with pytest.raises(DomainError, match=re.escape(f"k = {k!r}")):
                robin_eigenfunction(k, p)

    @pytest.mark.parametrize("n,K,D,k", [(2, 0.5, 1.0, 10.0), (5, -8.0, 1.0, 1.0),
                                         (2, 0.0, 1.0, 10.0), (5, 3.0, 1.0, 300.0),
                                         (3, 12.0, 0.5, 0.5), (4, -2.0, 1.5, 20.0)])
    def test_report_left_branch_is_psi_left(self, n, K, D, k):
        # the profile is psi_left's run at c_k, so the report's left branch
        # is psi_left(c_k) bit for bit, on the pruefer row's points and the ends
        p = ModelParams(n, K, D)
        rep = robin_boundary_report(k, p)
        left, direct = rep["left"], psi_left(rep["c_k"], p)
        assert (left.side, left.c, left.interval) == (direct.side, direct.c, direct.interval)
        zs = np.concatenate((np.linspace(0.05 * p.half, 0.95 * p.half, 257), [0.0, p.half]))
        assert left.psi_at(zs).tobytes() == direct.psi_at(zs).tobytes()
        assert left.psi.tobytes() == direct.psi.tobytes()

    def test_normalization(self):
        gf = robin_eigenfunction(10.0, (2, 0.5, 1.0))
        assert gf.values[-1] == pytest.approx(0.1, rel=1e-12)
        assert np.all(gf.values > 0)

    @pytest.mark.parametrize("n,K,D,k", list(PROFILE_30))
    def test_profile_oracle(self, n, K, D, k):
        # the profile alone, run at the frozen c_k whatever find_ck returns
        p = ModelParams(n, K, D)
        c, qr30 = PROFILE_30[n, K, D, k]
        profile = pruefer._profile(c, p).sol
        z = p.half * np.arange(1, 8) / 8
        expected = [[float(x) for x in row] for row in zip(*qr30)]
        np.testing.assert_allclose(profile(z), expected, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("n,K,D,k", [(5, 3.0, 1.0, 300.0), (5, -8.0, 1.0, 1.0),
                                         (2, 0.5, 1.0, 10.0)])
    def test_profile_matches_closed_form(self, n, K, D, k):
        # with t = sqrt(K) z, phi'' + (pi^2/D^2 + c / cos^2 t) phi = 0 is the
        # Poschl-Teller equation phi_tt + (E - l(l+1) / cos^2 t) phi = 0 with
        # l(l+1) = -c/K and E = pi^2/(D^2 K), whose even solution is
        # cos^(l+1) t 2F1(a, b; 1/2; sin^2 t), a, b = (l + 1 +- sqrt(E)) / 2
        # (real part for K < 0); both are scaled to agree at z = D/2
        p = ModelParams(n, K, D)
        gf = robin_eigenfunction(k, p)
        with mpmath.workdps(30):
            l1 = (1 + mpmath.sqrt(1 - 4 * mpmath.mpf(find_ck(k, p)) / K)) / 2
            root_e = mpmath.sqrt(mpmath.pi**2 / (mpmath.mpf(D) ** 2 * K))
            a, b, root_k = (l1 + root_e) / 2, (l1 - root_e) / 2, mpmath.sqrt(K)

            def closed(z):
                t = root_k * mpmath.mpf(z)
                return float(mpmath.re(mpmath.cos(t) ** l1
                                       * mpmath.hyp2f1(a, b, 0.5, mpmath.sin(t) ** 2)))

            ref = np.array([closed(z) for z in gf.z[::20]]) * (gf.values[-1] / closed(D / 2))
        assert gf.z[-1] == D / 2
        err = np.max(np.abs(gf.values[::20] - ref)) / np.max(np.abs(gf.values))
        assert err < 1e-10


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
        branch = psi_right(k, c, p)
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
        right = psi_right(k, ck + s, p)
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
