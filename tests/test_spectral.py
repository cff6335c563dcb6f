"""Both eigenvalue routes, the gap, the cap problem, and cross-checks."""

import collections
import math
import warnings
from array import array

import mpmath
import numpy as np
import pytest

from gapmodel import _scipy, bounds, pruefer, spectral
from gapmodel.errors import (
    BracketError,
    DomainError,
    GapModelError,
    NonConvergenceError,
    PoleError,
)
from gapmodel.model import GridFunction, ModelParams
from gapmodel.spectral import (
    ball_first_eigen,
    eigen_fd,
    eigen_shoot,
    eigen_shoot_mp,
    gap,
)
from conftest import random_valid_pair

# eigenvalues at (n, K, D) = (2, 1, 1), from eigen_shoot_mp at 30 digits
# (9.360978326565202288862896, 38.95947144864586284466719), and at (5, 1, 1),
# from the 30-digit COLLOCATION values below, rounded to float64
LAM_2_1_1 = (9.360978326565203, 38.959471448645864)
LAM_5_1_1 = (7.938514313632894, 37.62988809473841)

# (lambda1, lambda2) by Chebyshev collocation of -psi'' + V psi in 26- to
# 30-digit mpmath arithmetic, each eigenvalue by shifted inverse iteration
# from a float64 collocation seed.  Two sizes per triple agree to 1e-20 or
# better: N = 48 and 64 for (5, 1, 1) and (2, -9.5, 1), 64 and 96 for
# (8, 12, 0.5), 160 and 224 near the cap.  The last two triples, where the
# pole of V lies 2e-3 and 2.5e-4 outside D/2, use the end-clustering map
# z = (D/2) tanh(beta xi) / tanh(beta), beta = 4 and 5, collocated in xi at
# 32 digits and folded by parity, with K the exact binary value of the float
# (it moves lambda1 at (2, 9.86, 1) by 1.2e-14); N = 224 agrees with
# eigen_shoot_mp at 30 digits to 1e-24 or better.
COLLOCATION = {
    (5, 1.0, 1.0): (7.9385143136328941509, 37.629888094738409082),
    (2, -9.5, 1.0): (14.114240133761443819, 43.249414540070079798),
    (8, 12.0, 0.5): (9.0231622834100113463, 142.9811194091127088),
    (8, 9.4, 1.0): (3.6044358000115073328e-7, 75.200003237025960402),
    (7, 9.5, 1.0): (2.2301949248333583958e-6, 66.500017815309071824),
    (8, 2.375, 2.0): (2.133053953379417706e-8, 19.000000191720875352),
    (5, 9.8, 1.0): (8.526157768643703382e-6, 49.000051152254833997),
    (2, 9.86, 1.0): (1.4298693038469473317, 24.214317940637367447),
}

# (lambda1, lambda2) at (2, 9.8696, 1), where the pole of V lies 7e-7 outside
# D/2, from eigen_shoot_mp at 30 digits (the exact binary value of K); a run
# at 36 digits agrees to 1e-27 or better
SHOOT_MP = {
    (2, 9.8696, 1.0): (0.677385796547460499541391898816, 21.8177245071619910434157079242),
}

# triples whose eigenvalues have closed forms (n = 3, K = 0) or references
# above
ERROR_TRIPLES = [
    (5, 1.0, 1.0), (2, -9.5, 1.0), (8, 12.0, 0.5), (3, -8.0, 0.5),
    (6, 0.0, 2.0),
    # small D, where the unscaled angle's change across the bracket pad
    # sank below the ODE noise
    (2, 0.0, 1e-3), (2, 0.0, 1e-5),
    # near the cap, K D^2 = 9.4, 9.5, 9.5, 9.8, 9.86, 9.8696
    (8, 9.4, 1.0), (7, 9.5, 1.0), (8, 2.375, 2.0), (5, 9.8, 1.0),
    (2, 9.86, 1.0), (2, 9.8696, 1.0),
]


def ode_work(work):
    """Right-hand-side points of each ODE run in spectral on the ledger
    work, in order: the angle shots (dop853_end) and the eigenfunction
    runs (dop853_dense) alike."""
    return [sol.nfev for _, module, sol in work if module == "gapmodel.spectral"]


def solves(work):
    """The kind of each ODE run in spectral on the ledger work, in order:
    "pass" for a dense (theta, log r) run at two or more lam, "dense" at
    one, "shot" for a theta-only angle shot."""
    return ["shot" if name == "dop853_end" else "pass" if len(sol.y) >= 4 else "dense"
            for name, module, sol in work if module == "gapmodel.spectral"]


def pass_rows(work):
    """The number of rows of each dense (theta, log r) run on the ledger work, in order."""
    return [len(sol.y) for name, module, sol in work
            if (name, module) == ("dop853_dense", "gapmodel.spectral")]


class TestShoot:
    def test_frozen_values(self):
        for (n, ref) in ((2, LAM_2_1_1), (5, LAM_5_1_1)):
            p = ModelParams(n=n, K=1.0, D=1.0)
            for idx in (1, 2):
                r = eigen_shoot(p, idx)
                assert r.eigenvalue == pytest.approx(ref[idx - 1], rel=1e-12)
                assert r.method == "shooting"
                assert r.node_count == idx - 1

    def test_flat_case_is_exact(self):
        # (n - 1)(n - 3) K = 0: V is the constant -(n - 1)^2 K / 4, and the
        # eigenvalues are (idx pi / D)^2 - (n - 1)^2 K / 4.  Measured on the
        # accuracy scale max(|lam|, (pi / D)^2): within 2.2e-15 in the normal
        # form, and 4.0e-14 in the direct form at (3, 9.8, 1), index 2
        for n, K, D in ((4, 0.0, 2.0), (1, 5.0, 1.0), (3, -8.0, 0.5), (6, 0.0, 2.0),
                        (3, 9.8, 1.0)):
            for form in ("normal", "direct"):
                for idx in (1, 2):
                    r = eigen_shoot((n, K, D), idx, form=form)
                    exact = (idx * math.pi / D) ** 2 - (n - 1) ** 2 * K / 4
                    scale = max(abs(exact), (math.pi / D) ** 2)
                    assert abs(r.eigenvalue - exact) <= 1e-13 * scale

    @pytest.mark.parametrize("triple", [(2, 1.0, 1.0), *ERROR_TRIPLES], ids=str)
    def test_eigenfunction_shape(self, triple):
        n, K, D = triple
        # the parity defect of the run at the root, measured: at most
        # 1.9e-12 below K D^2 = 9.4, and 4.3e-10 at (2, 9.8696, 1), where
        # the angle is noisiest
        tol = 1e-8 if K * D**2 >= 9.4 else 1e-9
        for idx in (1, 2):
            r = eigen_shoot(triple, idx)
            gf = r.eigenfunction
            assert r.node_count == idx - 1
            assert r.symmetry_residual <= tol
            # zero at the ends
            assert gf.values[0] == 0.0 and abs(gf.values[-1]) <= tol
            if idx == 1:
                # ground state: positive inside
                assert np.all(gf.values[1:-1] > 0)

    @pytest.mark.parametrize("triple,forms", [
        # constant potential -K (n = 3) or 0: the eigenfunctions are sines
        ((3, -8.0, 0.5), ("normal",)), ((3, 4.0, 1.0), ("normal",)),
        ((6, 0.0, 2.0), ("normal", "direct")),
        # y is of size D, so an absolute tolerance that does not scale with
        # D loses the eigenfunction here
        ((2, 0.0, 1e-5), ("normal", "direct")),
    ], ids=str)
    def test_eigenfunction_matches_sine(self, triple, forms):
        D = triple[2]
        for form in forms:
            for idx in (1, 2):
                gf = eigen_shoot(triple, idx, form=form).eigenfunction
                assert len(gf.z) == 1001
                exact = np.sin(idx * math.pi * (gf.z + D / 2) / D)
                assert np.max(np.abs(gf.values - exact)) <= 1e-10

    def test_direct_form_same_spectrum(self):
        for idx in (1, 2):
            a = eigen_shoot((5, 1.0, 1.0), idx)
            b = eigen_shoot((5, 1.0, 1.0), idx, form="direct")
            assert b.form == "direct"
            assert a.eigenvalue == pytest.approx(b.eigenvalue, rel=1e-10)

    def test_negative_curvature(self):
        r = eigen_shoot((3, -2.0, 1.5), 1)
        # n = 3 has constant potential -K: exact value known
        assert r.eigenvalue == pytest.approx(math.pi**2 / 1.5**2 + 2.0, rel=1e-11)

    def test_index_validation(self):
        with pytest.raises(DomainError):
            eigen_shoot((2, 1.0, 1.0), 3)

    def test_integral_float_index(self):
        # an integral float is the int it equals
        p = ModelParams(5, 1.0, 1.0)
        for route in (eigen_shoot, eigen_fd):
            r = route(p, 2.0)
            assert type(r.index) is int and r.index == 2
            assert r.eigenvalue == route(p, 2).eigenvalue
        assert eigen_shoot_mp(p, 2.0, dps=20) == eigen_shoot_mp(p, 2, dps=20)

    @pytest.mark.parametrize("bad", [True, False, 1.5, "1", 3.0, 0], ids=repr)
    def test_index_is_the_int_1_or_2(self, bad):
        # a bool, a non-integer or an int other than 1 and 2 is a
        # DomainError on every route, before any solve
        for route in (eigen_shoot, eigen_fd, eigen_shoot_mp):
            with pytest.raises(DomainError):
                route((5, 1.0, 1.0), bad)

    @pytest.mark.parametrize("triple", [(5, 1.0, 1.0), (4, 9.0, 1.0), (8, -10.0, 1.0)])
    @pytest.mark.parametrize("index", [1, 2])
    def test_eigenfunction_matches_closed_form(self, triple, index):
        # the 2F1 forms eigen_shoot_mp evaluates, at the returned eigenvalue,
        # scaled to agree at z = -D/4; the error is taken against the sup of
        # all samples, since a subsample's sup is not the result's
        p = ModelParams(*triple)
        r = eigen_shoot(p, index)
        z, y = r.eigenfunction.z, r.eigenfunction.values
        n, K, D = triple
        with mpmath.workdps(30):
            l1 = mpmath.mpf(n - 1) / 2
            a = (l1 + mpmath.sqrt(mpmath.mpf(r.eigenvalue) / K + l1 * l1)) / 2
            b, root_k = l1 - a, mpmath.sqrt(K)

            def closed(zv):
                t = root_k * mpmath.mpf(zv)
                w = mpmath.sin(t) ** 2
                if index == 1:
                    f = mpmath.hyp2f1(a, b, 0.5, w)
                else:
                    f = mpmath.sin(t) / root_k * mpmath.hyp2f1(a + 0.5, b + 0.5, 1.5, w)
                return float(mpmath.re(mpmath.cos(t) ** l1 * f))

            quarter = int(np.flatnonzero(z == -D / 4)[0])
            ref = np.array([closed(zv) for zv in z[::20]]) * (y[quarter] / closed(-D / 4))
        err = np.max(np.abs(y[::20] - ref)) / np.max(np.abs(y))
        assert err < 1e-11


class TestErrorEstimate:
    """error_estimate bounds the error and stays below 1e-9 max(|lam|, (pi/D)^2)."""

    @staticmethod
    def reference(n, K, D, idx):
        if (n - 1) * (n - 3) * K == 0:
            # constant potential -K (n = 3) or 0: closed forms
            return (idx * math.pi / D) ** 2 - (K if n == 3 else 0.0)
        return {**COLLOCATION, **SHOOT_MP}[(n, K, D)][idx - 1]

    @pytest.mark.parametrize("triple", ERROR_TRIPLES, ids=str)
    def test_bounds_observed_error(self, triple):
        n, K, D = triple
        for idx in (1, 2):
            r = eigen_shoot(triple, idx)
            ref = self.reference(n, K, D, idx)
            assert abs(r.eigenvalue - ref) <= r.error_estimate
            assert r.error_estimate <= 1e-9 * max(abs(ref), (math.pi / D) ** 2)

    def test_solve_count(self, work):
        for idx, max_rhs in ((1, 450), (2, 670)):
            work.clear()
            eigen_shoot((5, 1.0, 1.0), idx)
            # one stacked pass at the seeded interval's ends, which gives the
            # root and the eigenfunction, and one check shot at the root
            assert len(ode_work(work)) == 2
            # measured: 363 and 540 right-hand-side evaluations, 182 and 300
            # of them in the stacked pass (227 and 369 once the eigenfunction
            # is read, which forms the dense extension's 3 stages per step);
            # 951 and 1329 in 5 solves each with Brent from the seeded
            # interval, 1313 and 1592 in 7 and 6 solves from the comparison
            # bracket
            assert sum(ode_work(work)) <= max_rhs

    @pytest.mark.parametrize("triple", [(3, 1.0, 1.0), (6, 0.0, 2.0)], ids=str)
    def test_flat_angle_is_linear(self, work, triple):
        """V is constant, so lam - V is S^2 up to the bracket's padding and
        the index-2 angle grows linearly in z: a few DOP853 steps per solve.
        Measured: 86 and 98 right-hand-side evaluations in the stacked
        pass (107 and 122 with its dense extension), 86 in the check shot;
        with the fixed scale S = pi / D, an angle shot took 832 and 937."""
        eigen_shoot(triple, 2)
        stacked_pass, check_shot = ode_work(work)
        assert stacked_pass <= 200 and check_shot <= 150

    def test_wide_potential_angle_rhs_count(self, work):
        """At (8, 12, 0.5) V runs from -42 at z = 0 to 103 at z = D/2.
        Measured for index 2 with S the wavenumber at z = 0: 814
        right-hand-side evaluations, 420 in the stacked pass (519 with its
        dense extension) and 394 in the check shot.  With Brent from the
        seeded interval, the angle shots took 2829; 6168 with
        S^2 = hi - max V, 4922 with the fixed S = pi / D."""
        eigen_shoot((8, 12.0, 0.5), 2)
        assert sum(ode_work(work)) <= 1400


class TestCollocationSeed:
    """The collocation seed that gives Brent its starting interval."""

    # n in {2, 5, 8}, kappa = K D^2 of both signs, D in {0.5, 1, 2}; the
    # last two triples are checked against shooting
    @pytest.mark.parametrize("triple", [
        (5, 1.0, 1.0), (2, -9.5, 1.0), (8, 12.0, 0.5), (8, 2.375, 2.0),
        (5, 9.8, 1.0), (2, 9.86, 1.0), (5, -5.0, 2.0), (8, -40.0, 0.5),
    ], ids=str)
    def test_seed_within_delta(self, triple):
        D = triple[2]
        for idx in (1, 2):
            if triple in COLLOCATION:
                ref = COLLOCATION[triple][idx - 1]
            else:
                ref = eigen_shoot(triple, idx).eigenvalue
            seed, ladder = spectral._colloc_seed(ModelParams(*triple), idx)
            # the half-width _shoot_root uses, with a scale no larger
            delta = max(_scipy._LADDERS * ladder, 1e-9 * max(abs(ref), (math.pi / D) ** 2))
            assert abs(seed - ref) <= delta

    # near the cap, where 3 ladders exceed the pad and so set the seeded
    # interval; measured: 0.44 ladder at (2, 9.86, 1), 0.14 at (2, 9.8, 1),
    # 0.04 at (4, 9.6, 1) and 0.01-0.02 in the benchmark's band around
    # (4, 9.4, 1), where the interval is narrow
    @pytest.mark.parametrize("triple", [
        (2, 9.86, 1.0), (2, 9.8, 1.0), (4, 9.6, 1.0), (4, 9.37, 1.0), (4, 9.43, 1.0),
    ], ids=str)
    def test_seed_within_three_ladders_near_the_cap(self, triple):
        p = ModelParams(*triple)
        floor = (math.pi / p.D) ** 2
        v_mid, v_end = spectral.potential(0.0, p), spectral.potential(p.half, p)
        for idx in (1, 2):
            _, _, pad, _ = spectral._comparison_bracket(p, idx, v_mid, v_end, floor)
            seed, ladder = spectral._colloc_seed(p, idx)
            assert _scipy._LADDERS * ladder > pad
            ref = COLLOCATION[triple][idx - 1] if triple in COLLOCATION else \
                float(eigen_shoot_mp(triple, idx, dps=20))
            assert abs(seed - ref) <= 3 * ladder

    def test_failed_eigensolve_gives_nan(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        seed, ladder = spectral._colloc_seed(ModelParams(5, 1.0, 1.0), 1)
        assert math.isnan(seed) and math.isnan(ladder)

    # extra solves over the unseeded solve: the seeded interval of a NaN,
    # and of a seed below the bracket's lower end (at least -1e-9 of its
    # scale), fails before any solve; one 1e-3 below the eigenvalue lies
    # inside the bracket, and the ends of its one stacked pass do not
    # straddle the target
    @pytest.mark.parametrize("case,extra", [("nan", 0), ("off", 1), ("below", 0)])
    def test_fallback(self, monkeypatch, work, case, extra):
        for idx in (1, 2):
            monkeypatch.setattr(spectral, "_colloc_seed", lambda p, i: (math.nan, 0.0))
            work.clear()
            unseeded = eigen_shoot((5, 1.0, 1.0), idx)
            runs = len(ode_work(work))
            seed = {"nan": math.nan, "off": unseeded.eigenvalue * (1 - 1e-3),
                    "below": -1.0}[case]
            monkeypatch.setattr(spectral, "_colloc_seed", lambda p, i: (seed, 0.0))
            work.clear()
            r = eigen_shoot((5, 1.0, 1.0), idx)
            assert abs(r.eigenvalue - unseeded.eigenvalue) <= r.error_estimate
            assert len(ode_work(work)) == runs + extra


class TestStackedPass:
    """Each branch of eigen_shoot's one path: the accepted stacked pass (on
    a seeded interval, or on a constant V's comparison bracket), Brent's
    continuation after it, Brent from a seed too wide for a pass, the
    comparison bracket, and the one result shape of them all."""

    def test_accepted_pass(self, work):
        for idx in (1, 2):
            work.clear()
            r = eigen_shoot((5, 1.0, 1.0), idx)
            assert solves(work) == ["pass", "shot"]
            ref = COLLOCATION[(5, 1.0, 1.0)][idx - 1]
            assert abs(r.eigenvalue - ref) <= r.error_estimate <= 1e-11 * max(ref, math.pi**2)

    def test_interpolated_eigenfunction_matches_a_run_at_the_root(self, monkeypatch):
        p = ModelParams(5, 1.0, 1.0)
        scales, polar_run = [], spectral._polar_run

        def recording(lams, ss, params, form):
            scales.append(ss[0])
            return polar_run(lams, ss, params, form)

        monkeypatch.setattr(spectral, "_polar_run", recording)
        for idx in (1, 2):
            [(lam, _, sol, rows, w, _)] = spectral._shoot_root(p, (idx,), "normal")
            S = scales[-1]
            assert 0 < w < 1 and rows == [0, 1, 2, 3]
            y = spectral._eigenfunction(sol, rows, w, p, idx).values
            ref = spectral._eigenfunction(spectral._polar_run([lam], [S], p, "normal"), [0, 1],
                                          0.0, p, idx).values
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_brent_continues_inside_the_pass(self, monkeypatch, work):
        # no estimate is accepted: Brent runs between the check shot's lam
        # and the pass's end on the other side of the root, one new shot
        accepted = {idx: eigen_shoot((5, 1.0, 1.0), idx) for idx in (1, 2)}
        monkeypatch.setattr(spectral, "_ACCEPT", 0.0)
        for idx in (1, 2):
            work.clear()
            r = eigen_shoot((5, 1.0, 1.0), idx)
            assert solves(work)[:3] == ["pass", "shot", "shot"] and solves(work)[-1] == "dense"
            assert "pass" not in solves(work)[1:]
            ref = COLLOCATION[(5, 1.0, 1.0)][idx - 1]
            assert abs(r.eigenvalue - ref) <= r.error_estimate
            assert abs(r.eigenvalue - accepted[idx].eigenvalue) <= r.error_estimate
            # Brent's dict holds theta-only shots alone: an angle of the
            # tighter pass among them reads as a fall of about 1e-11 and
            # inflates the estimate about 1e5-fold
            assert r.error_estimate <= 1e-11 * max(ref, math.pi**2)

    def test_refined_seed(self, work):
        # the one seed on the measured sweep that gets a pass and is refined
        # while its half-width is far below _PASS_WIDTH: the check shot reads
        # 9e-12 below the pass's angle, too far for the accept rule
        r = eigen_shoot((4, 1.671925, 2.0), 2)
        assert solves(work)[:2] == ["pass", "shot"] and solves(work)[-1] == "dense"
        assert r.error_estimate <= 1e-10 * r.eigenvalue

    def test_accept_on_the_accuracy_scale(self, monkeypatch, work):
        # with every seed given a pass, the one near the cap is 2e-6 off the
        # root; the bracket's scale there, 1.3e7, would have accepted it
        monkeypatch.setattr(_scipy, "_PASS_WIDTH", math.inf)
        r = eigen_shoot((4, 9.86, 1.0), 2)
        assert solves(work)[:2] == ["pass", "shot"] and solves(work)[-1] == "dense"
        ref = eigen_shoot_mp((4, 9.86, 1.0), 2, dps=20)
        assert abs(r.eigenvalue - ref) <= r.error_estimate <= 1e-9 * r.eigenvalue

    def test_wide_seed_goes_straight_to_brent(self, monkeypatch, work):
        # at (4, 9.84, 1) both seeded intervals are wider than _PASS_WIDTH
        # (1.4e-4 and 3.4e-5 of the scale), and so is a seed whose ladder
        # is widened
        for idx in (1, 2):
            work.clear()
            eigen_shoot((4, 9.84, 1.0), idx)
            assert "pass" not in solves(work) and solves(work)[-1] == "dense"
        real = spectral._colloc_seed

        def wide(p, i):
            seed, _ = real(p, i)
            return seed, 1e-5 * seed

        monkeypatch.setattr(spectral, "_colloc_seed", wide)
        work.clear()
        r = eigen_shoot((5, 1.0, 1.0), 1)
        assert solves(work)[:2] == ["shot", "shot"] and "pass" not in solves(work)
        assert abs(r.eigenvalue - COLLOCATION[(5, 1.0, 1.0)][0]) <= r.error_estimate

    @pytest.mark.parametrize("triple", [(3, 1.0, 1.0), (6, 0.0, 2.0), (1, 5.0, 1.0),
                                        (3, -8.0, 0.5), (3, 9.8, 1.0)], ids=str)
    def test_flat_triples_take_the_pass(self, work, triple):
        # a constant V's comparison bracket, 2 pad wide around the closed
        # form, is narrow enough for a pass: no seed and no Brent shot
        for form in ("normal", "direct"):
            for idx in (1, 2):
                work.clear()
                eigen_shoot(triple, idx, form=form)
                assert solves(work) == ["pass", "shot"]

    @pytest.mark.parametrize("branch", ["pass", "continued", "nan seed"])
    def test_one_result_shape(self, monkeypatch, branch):
        # (lam, err, sol, rows, w, residual) on every branch: w weighs the
        # pass's upper end, and is 0 for the run at Brent's root, whose own
        # angle gives the residual
        if branch == "continued":
            monkeypatch.setattr(spectral, "_ACCEPT", 0.0)
        elif branch == "nan seed":
            monkeypatch.setattr(spectral, "_colloc_seed", lambda p, i: (math.nan, math.nan))
        p = ModelParams(5, 1.0, 1.0)
        for idx in (1, 2):
            [(lam, err, sol, rows, w, residual)] = spectral._shoot_root(p, (idx,), "normal")
            ref = COLLOCATION[(5, 1.0, 1.0)][idx - 1]
            assert abs(lam - ref) <= err <= 1e-11 * max(ref, math.pi**2)
            assert abs(residual) <= 1e-9
            if branch == "pass":
                assert sol.y.shape[0] == 4 and rows == [0, 1, 2, 3] and 0 < w < 1
            else:
                assert sol.y.shape[0] == 2 and rows == [0, 1] and w == 0.0
                assert residual == float(sol.y[0, -1]) - 0.5 * idx * math.pi

    def test_nan_seed_takes_the_comparison_bracket(self, monkeypatch, work):
        monkeypatch.setattr(spectral, "_colloc_seed", lambda p, i: (math.nan, math.nan))
        r = eigen_shoot((5, 1.0, 1.0), 1)
        assert "pass" not in solves(work) and solves(work)[-1] == "dense"
        assert abs(r.eigenvalue - COLLOCATION[(5, 1.0, 1.0)][0]) <= r.error_estimate

    def test_direct_form_takes_the_pass(self, work):
        r = eigen_shoot((5, 1.0, 1.0), 2, form="direct")
        assert solves(work) == ["pass", "shot"]
        assert abs(r.eigenvalue - COLLOCATION[(5, 1.0, 1.0)][1]) <= r.error_estimate

    def test_gap_makes_one_pass(self, work):
        # both narrow intervals share one run of 8 rows; each index keeps
        # its own theta-only check shot
        g = gap((5, 1.0, 1.0))
        assert solves(work) == ["pass", "shot", "shot"] and pass_rows(work) == [8]
        for r in (g.lambda1, g.lambda2):
            ref = COLLOCATION[(5, 1.0, 1.0)][r.index - 1]
            assert abs(r.eigenvalue - ref) <= r.error_estimate <= 1e-11 * max(ref, math.pi**2)

    def test_shared_pass_eigenfunctions_match_runs_at_the_roots(self, monkeypatch):
        p = ModelParams(5, 1.0, 1.0)
        scales, polar_run = [], spectral._polar_run

        def recording(lams, ss, params, form):
            scales.append(ss)
            return polar_run(lams, ss, params, form)

        monkeypatch.setattr(spectral, "_polar_run", recording)
        roots = spectral._shoot_root(p, (1, 2), "normal")
        assert roots[0][2] is roots[1][2] and len(scales) == 1
        assert [rows for _, _, _, rows, _, _ in roots] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        # each pair at its own index's S
        assert scales[0][0] == scales[0][1] < scales[0][2] == scales[0][3]
        for idx, (lam, _, sol, rows, w, _) in zip((1, 2), roots):
            assert 0 < w < 1
            y = spectral._eigenfunction(sol, rows, w, p, idx).values
            run = polar_run([lam], [scales[0][rows[0] // 2]], p, "normal")
            ref = spectral._eigenfunction(run, [0, 1], 0.0, p, idx).values
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_one_narrow_index(self, work):
        # at (8, 9.4, 1) only index 2's seeded interval is narrow: the pass
        # carries its two ends alone and its check accepts it, and index 1
        # (half-width 5.8e-6 of the scale) goes straight to Brent, with a
        # run at Brent's root
        g = gap((8, 9.4, 1.0))
        assert solves(work)[0] == "pass" and solves(work).count("pass") == 1
        assert pass_rows(work) == [4, 2]
        for r in (g.lambda1, g.lambda2):
            assert abs(r.eigenvalue - eigen_shoot_mp((8, 9.4, 1.0), r.index, dps=20)) \
                <= r.error_estimate <= 1e-9 * max(r.eigenvalue, math.pi**2)

    @pytest.mark.parametrize("kappa", [9.37, 9.4, 9.43])
    def test_near_cap_band_takes_the_pass(self, work, kappa):
        # the benchmark's near-cap slot (4, 9.4 +- 0.03, 1): at both edges
        # and the centre both seeded intervals are narrow, and one 8-row run
        # and two check shots accept both eigenvalues
        g = gap((4, kappa, 1.0))
        assert solves(work) == ["pass", "shot", "shot"] and pass_rows(work) == [8]
        for r in (g.lambda1, g.lambda2):
            ref = eigen_shoot_mp((4, kappa, 1.0), r.index, dps=20)
            assert abs(r.eigenvalue - ref) <= r.error_estimate <= 1e-9 * max(r.eigenvalue,
                                                                              math.pi**2)

    def test_brent_roots_share_one_run(self, work):
        # at (2, 9.86, 1) both seeded intervals are wide: Brent finds each
        # root with the angle shots eigen_shoot makes alone, to the same
        # bits, and one run at both roots gives both eigenfunctions
        p = ModelParams(2, 9.86, 1.0)
        g = gap(p)
        assert pass_rows(work) == [4]
        roots = spectral._shoot_root(p, (1, 2), "normal")
        assert roots[0][2] is roots[1][2]
        assert [rows for _, _, _, rows, _, _ in roots] == [[0, 1], [2, 3]]
        for r in (g.lambda1, g.lambda2):
            alone = eigen_shoot(p, r.index)
            assert r.eigenvalue == alone.eigenvalue
            assert abs(r.eigenvalue - COLLOCATION[(2, 9.86, 1.0)][r.index - 1]) \
                <= r.error_estimate <= 1e-9 * max(r.eigenvalue, math.pi**2)
            assert np.max(np.abs(r.eigenfunction.values - alone.eigenfunction.values)) <= 1e-12

    @pytest.mark.parametrize("triple", [
        (5, 1.0, 1.0), (2, -9.5, 1.0), (8, 12.0, 0.5), (3, -8.0, 0.5), (4, 9.4139, 1.0),
        (2, 9.86, 1.0), (4, 1.671925, 2.0),
    ], ids=str)
    def test_pair_agrees_with_each_index_alone(self, triple):
        # the pair's run steps over 8 rows, so its roots differ from the
        # one-index roots in the last bits, never by more than an estimate
        g = gap(triple)
        for r in (g.lambda1, g.lambda2):
            alone = eigen_shoot(triple, r.index)
            assert abs(r.eigenvalue - alone.eigenvalue) <= max(r.error_estimate,
                                                               alone.error_estimate)


class TestSeededRoot:
    """_scipy.seeded_root, the one root path of eigen_shoot and find_ck, on
    closed-form g with no ODE: each branch and both error exits."""

    ROOT = 2.0

    @pytest.fixture
    def path(self, monkeypatch):
        """seeded_interval, then seeded_root with the ends of the pass where
        the interval is narrow, on [0, 10] (pad 1e-9, floor 1), with a
        recorder of the pass, the check, the shots of g and Brent's
        brackets."""
        log = collections.defaultdict(list)
        brent = _scipy.brent

        def recording(f, lo, hi, **tol):
            log["brent"].append((lo, hi))
            return brent(f, lo, hi, **tol)

        monkeypatch.setattr(_scipy, "brent", recording)

        def solve(g, seed, ladder, lo=0.0, hi=10.0, stacked=None):
            def shot(x):
                log["shot"].append(x)
                return g(x)

            def pass_run(a, b):
                log["pass"].append((a, b))
                return g(a), g(b)

            def check(x):
                log["check"].append(x)
                return g(x), "check run"

            a, b, narrow = _scipy.seeded_interval(lo, hi, 1e-9, seed, ladder, 1.0)
            ends = (stacked or pass_run)(a, b) if narrow else None
            return _scipy.seeded_root(
                shot, lo, hi, a, b, ends, check, floor=1.0, accept=1e-11, noise=1e-13,
                xtol=1e-14, rtol=1e-14, unbracketed=NonConvergenceError("unbracketed"))

        return solve, log

    def test_accepted_pass(self, path):
        solve, log = path
        x, evals, passed = solve(lambda x: x - self.ROOT, self.ROOT + 1e-10, 1e-10)
        a, b = log["pass"][0]
        assert (a, b) == (self.ROOT + 1e-10 - 1e-9, self.ROOT + 1e-10 + 1e-9)
        estimate, w, r, checked = passed
        assert 0 < w < 1 and x == a + w * (b - a) and log["check"] == [x]
        assert abs(x - self.ROOT) <= estimate <= 1e-11 * self.ROOT
        assert checked == "check run" and r == x - self.ROOT
        assert evals == {} and "shot" not in log and "brent" not in log

    # g bends at the root, so the pass's secant misses it on the side its
    # curvature picks: convex (steeper above) interpolates below the root
    @pytest.mark.parametrize("below,above,side", [(1.0, 3.0, "upper"), (3.0, 1.0, "lower")])
    def test_rejected_estimate_refines_on_the_roots_side(self, path, below, above, side):
        solve, log = path

        def g(x):
            return (x - self.ROOT) * (below if x < self.ROOT else above)

        x, evals, passed = solve(g, self.ROOT, 1e-7)
        (a, b), [c] = log["pass"][0], log["check"]
        assert passed is None and abs(x - self.ROOT) <= 1e-13
        assert log["brent"] == [(c, b) if side == "upper" else (a, c)]
        assert evals[c] == g(c) and (g(c) < 0) == (side == "upper")
        # Brent re-reads the check's value and shoots the pass's other end
        assert log["shot"][0] == (b if side == "upper" else a)

    def test_wide_interval_goes_straight_to_brent(self, path):
        # half-width 3 ladders, 1e-3, over _PASS_WIDTH = 5e-6 of the scale 2
        solve, log = path
        x, _, passed = solve(lambda x: x - self.ROOT, self.ROOT, 1e-3 / 3)
        assert passed is None and x == self.ROOT and "pass" not in log
        assert log["brent"] == [(self.ROOT - 1e-3, self.ROOT + 1e-3)]

    def test_pass_that_does_not_straddle_takes_the_bracket(self, path):
        solve, log = path

        def swapped(a, b):
            log["pass"].append((a, b))
            return b - self.ROOT, a - self.ROOT

        x, _, passed = solve(lambda x: x - self.ROOT, self.ROOT, 1e-10, stacked=swapped)
        assert passed is None and x == pytest.approx(self.ROOT, abs=1e-13)
        assert len(log["pass"]) == 1 and "check" not in log
        assert log["brent"] == [(0.0, 10.0)]

    @pytest.mark.parametrize("seed", [math.nan, -5.0, 9.9999999999], ids=str)
    def test_unusable_seed_takes_the_bracket(self, path, seed):
        # a NaN seed, one outside the bracket, and one whose interval
        # reaches past it; the bracket is too wide for a pass
        solve, log = path
        x, _, passed = solve(lambda x: x - self.ROOT, seed, 1e-10)
        assert passed is None and x == pytest.approx(self.ROOT, abs=1e-13)
        assert "pass" not in log and log["brent"] == [(0.0, 10.0)]

    def test_narrow_bracket_takes_the_pass(self, path):
        # a constant potential's or K = 0's bracket, 2 pad wide, no seed
        solve, log = path
        lo, hi = self.ROOT - 1e-9, self.ROOT + 1e-9
        x, _, passed = solve(lambda x: x - self.ROOT, math.nan, math.nan, lo=lo, hi=hi)
        assert log["pass"] == [(lo, hi)] and passed is not None
        assert x == pytest.approx(self.ROOT, abs=1e-15)

    @pytest.mark.parametrize("solve,roots", [
        (lambda: gap(ModelParams(5, 1.0, 1.0)), 2),
        (lambda: eigen_shoot(ModelParams(4, 1.671925, 2.0), 2), 1),
        (lambda: eigen_shoot(ModelParams(3, 1.0, 1.0), 1, "direct"), 1),
        (lambda: pruefer.find_ck(10.0, ModelParams(5, 2.0, 1.0)), 1),
        (lambda: pruefer.find_ck(1.0, ModelParams(5, 9.8, 1.0)), 1),
        (lambda: pruefer.find_ck(10.0, ModelParams(5, 0.0, 1.0)), 1),
    ], ids=["gap-passes", "refined-pass", "constant-V", "ck-pass", "ck-wide-seed", "ck-flat"])
    def test_each_root_forms_its_interval_once(self, monkeypatch, solve, roots):
        # every eigenvalue and Robin constant, on each branch of the path,
        # calls the interval rule once, under whichever module's name
        calls = []
        real = _scipy.seeded_interval

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in (_scipy, spectral, pruefer):
            monkeypatch.setattr(module, "seeded_interval", counting, raising=False)
        pruefer._robin_constant.cache_clear()
        solve()
        assert len(calls) == roots

    @pytest.mark.parametrize("error", [NonConvergenceError("no sign change"),
                                       BracketError("no sign change")], ids=repr)
    def test_unbracketed_raises_the_callers_error(self, error):
        with pytest.raises(type(error), match="no sign change"):
            _scipy.seeded_root(lambda x: x + 100.0, 0.0, 10.0, 0.0, 10.0, None, None,
                               floor=1.0, accept=1e-11, noise=1e-13, xtol=1e-14, rtol=1e-14,
                               unbracketed=error)

    def test_exhausted_brent_is_non_convergence(self):
        # a step g defeats interpolation; bisection needs about 1000 steps
        # to come from 1e300 down to the tolerance, against brentq's 100
        with pytest.raises(NonConvergenceError, match="Brent's method"):
            _scipy.seeded_root(lambda x: math.copysign(1.0, x - 0.3), -1e300, 1e300, -1e300,
                               1e300, None, None, floor=1.0, accept=1e-11, noise=1e-13,
                               xtol=1e-300, rtol=1e-15,
                               unbracketed=NonConvergenceError("unbracketed"))

    def test_callers_keep_their_messages(self, monkeypatch):
        # no ODE: a NaN seed leaves the wide bracket to shots that never
        # cross the target
        monkeypatch.setattr(spectral, "_colloc_seed", lambda p, i: (math.nan, math.nan))
        monkeypatch.setattr(spectral, "_angle_mid", lambda *args: -1.0)
        with pytest.raises(NonConvergenceError,
                           match=r"comparison bracket \[.*\] does not straddle the "
                                 r"index-2 angle target"):
            spectral._shoot_root(ModelParams(5, 1.0, 1.0), (2,), "normal")


class TestNearCap:
    """K D^2 = 9.8 and 9.86, just below the cap pi^2."""

    @pytest.mark.parametrize("triple,max_rhs", [
        # measured: 8711, 9051 and 13983 right-hand-side evaluations per
        # gap, with no eigenfunction read; at (2, 9.869, 1) a lower end at
        # min V + (pi/D)^2 costs 214k
        ((5, 9.8, 1.0), 40000), ((2, 9.86, 1.0), 40000),
        ((2, 9.869, 1.0), 45000),
    ], ids=str)
    def test_gap_rhs_count(self, work, triple, max_rhs):
        g = gap(triple)
        assert sum(ode_work(work)) <= max_rhs
        assert g.sign == (-1 if triple[0] == 2 else 1)

    @pytest.mark.parametrize("triple", [(5, 9.8, 1.0), (2, 9.86, 1.0)], ids=str)
    def test_direct_form_agrees(self, triple):
        for idx in (1, 2):
            ref = COLLOCATION[triple][idx - 1]
            scale = max(abs(ref), (math.pi / triple[2]) ** 2)
            r = eigen_shoot(triple, idx, form="direct")
            assert abs(r.eigenvalue - ref) <= r.error_estimate <= 1e-9 * scale
            normal = eigen_shoot(triple, idx).eigenvalue
            assert abs(r.eigenvalue - normal) <= 1e-10 * scale

    def test_eigenvalue_is_not_negative(self):
        # lambda1 lies within the shooting error estimate (about 2e-11) of
        # the bracket's lower end 0, and the bracket is padded below 0
        assert eigen_shoot((5, 9.8696, 1.0), 1).eigenvalue >= 0


# three edges of the box: the cap at n = 10, large negative kappa and large
# n.  (lambda1, lambda2) from the closed forms of eigen_shoot_mp at 30
# digits, 20 digits shown; lambda1 at (10, 9.8696, 1) is 1.2e-41 and at
# (1000, 1, 1) 3.6e-27
EDGES = {
    (10, 9.8696, 1.0): ("0", "98.696000000000001506"),
    (8, -400.0, 1.0): ("2400.0000000000000000", "4000.0000000045751661"),
    (6, -400.0, 1.0): ("1600.0000000011437916", "2400.0463283123345047"),
    (1000, 1.0, 1.0): ("0", "1000.0"),
}


class TestEdges:
    """Every shot's eigenfunction comes from the half interval, so the edges return."""

    def test_index_2_overflow_is_a_domain_error(self):
        # (pi / D)^2 is a finite double at D = 3e-154 and (2 pi / D)^2 is
        # not; each route and bound raised a bare OverflowError for index 2
        p = ModelParams(5, 1.0, 3e-154)
        message = "eigenvalue 2 exceeds the largest double at D = 3e-154"
        for call in (lambda: eigen_shoot(p, 2), lambda: eigen_shoot(p, 2, form="direct"),
                     lambda: eigen_shoot_mp(p, 2), lambda: eigen_fd(p, 2), lambda: gap(p),
                     lambda: bounds.lambda_upper_rayleigh(p, 2),
                     lambda: bounds.lambda_lower(p, 2), lambda: bounds.bound_report(p, 2)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("triple,forms", [
        ((10, 9.8696, 1.0), ("normal", "direct")),
        ((8, -400.0, 1.0), ("normal", "direct")),
        ((6, -400.0, 1.0), ("normal", "direct")),
        ((1000, 1.0, 1.0), ("normal",)),
    ], ids=str)
    def test_error_within_estimate(self, triple, forms):
        # measured: error / estimate at most 0.48, except for lambda2 at
        # (10, 9.8696, 1): 0.96 in the normal form and 0.88 in the direct
        for form in forms:
            for idx in (1, 2):
                r = eigen_shoot(triple, idx, form=form)
                assert r.node_count == idx - 1
                assert r.symmetry_residual <= spectral._PARITY_TOL
                with mpmath.workdps(30):
                    ref = mpmath.mpf(EDGES[triple][idx - 1])
                    assert abs(r.eigenvalue - ref) <= r.error_estimate


def tan_blowup(fun, t0, t1, y0, rtol, atol):
    """dop853_end with the right-hand side swapped for y' = 1 + y^2.

    From y(-D/2) = 0 the solution is tan(z + D/2), which is infinite at
    z = pi/2 - D/2, inside the angle shot's [-D/2, 0] once D > pi.
    """
    return _scipy.dop853_end(lambda z, y: [1.0 + y[0] ** 2], t0, t1, y0, rtol, atol)


def tan_blowup_dense(fun, t0, t1, y0, rtol, atol, event):
    """dop853_dense with the right-hand side swapped for (1 + y0^2, 0).

    From y(-D/2) = 0 the first component is tan(z + D/2), infinite at
    z = pi/2 - D/2, inside the eigenfunction run's [-D/2, 0] once D > pi.
    """
    def rhs(z, y):
        return [1.0 + y[0] ** 2, 0.0]

    return _scipy.dop853_dense(rhs, t0, t1, y0, rtol, atol, event)


def never_stops(fun, t0, t1, y0, rtol, atol, event):
    """dop853_dense with an event that never changes sign in place of none.

    A run with an event forms its dense extension before it returns, so
    this is the run, step for step, with its extension formed at once.
    """
    def never(t, y):
        return 1.0

    never.direction = 0.0
    return _scipy.dop853_dense(fun, t0, t1, y0, rtol, atol, never)


class TestCompiledSolvers:
    """Failures of the compiled DOP853 and stebz calls come back typed."""

    def test_dop853_reports_blowup_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = _scipy.dop853_end(lambda t, y: [y[0] ** 2], 0.0, 2.0, [1.0],
                                    rtol=1e-12, atol=1e-12)
        # y = 1 / (1 - t) is infinite at t = 1, so the run stops short of t = 2
        assert not sol.success
        assert sol.message == "step size becomes too small"
        assert sol.t < 2.0 and sol.nfev > 0

    def test_dop853_step_budget(self, monkeypatch):
        monkeypatch.setattr(_scipy, "DOP853_MAX_STEPS", 5)
        sol = _scipy.dop853_end(lambda t, y: [math.cos(40.0 * t)], 0.0, 10.0, [0.0],
                                rtol=1e-12, atol=1e-12)
        assert not sol.success
        assert sol.message == "larger nsteps is needed"

    def test_dop853_passes_on_an_exception_from_fun(self):
        def pole(t, y):
            if t > 0.5:
                raise PoleError("pole at t = 0.5")
            return [1.0]

        with pytest.raises(PoleError, match="pole at t = 0.5"):
            _scipy.dop853_end(pole, 0.0, 1.0, [0.0], rtol=1e-12, atol=1e-12)

    def test_dop853_end_state_and_count(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [-2.0 * t * y[0]]

        sol = _scipy.dop853_end(rhs, 0.0, 1.0, [1.0], rtol=1e-12, atol=1e-12)
        assert sol.success and sol.t == 1.0
        assert sol.y[0] == pytest.approx(math.exp(-1.0), rel=1e-11)
        assert sol.nfev == len(calls)

    def test_dop853_end_takes_a_bare_float(self):
        # the angle shots return theta' as a float instead of [theta']
        def rhs(t, y):
            return math.cos(3.0 * t) - 0.5 * y[0]

        bare = _scipy.dop853_end(rhs, -1.0, 0.0, [0.0], rtol=1e-12, atol=1e-12)
        listed = _scipy.dop853_end(lambda t, y: [rhs(t, y)], -1.0, 0.0, [0.0],
                                   rtol=1e-12, atol=1e-12)
        assert bare.success and listed.success
        assert bare.y[0] == listed.y[0]
        assert bare.nfev == listed.nfev

    def test_failed_angle_shot_is_reported(self, monkeypatch):
        monkeypatch.setattr(spectral, "dop853_end", tan_blowup)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="step size becomes too small"):
                eigen_shoot((2, 0.01, 4.0), 1)

    def test_failed_eigenfunction_shot_is_reported(self, monkeypatch):
        monkeypatch.setattr(spectral, "dop853_dense", tan_blowup_dense)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError,
                               match="eigenfunction integration failed: "):
                eigen_shoot((2, 0.01, 4.0), 1)

    def test_parity_defect_is_checked(self, monkeypatch):
        # an end angle 0.1 off index pi/2 leaves y(0) or y'(0) far from 0
        real = spectral.dop853_dense

        def pushed(*args, **kwargs):
            sol = real(*args, **kwargs)
            sol.y[0, -1] += 0.1
            return sol

        monkeypatch.setattr(spectral, "dop853_dense", pushed)
        for idx in (1, 2):
            with pytest.raises(GapModelError, match="misses its parity at z = 0"):
                eigen_shoot((5, 1.0, 1.0), idx)

    def test_dense_run_releases_its_step_lists(self, monkeypatch):
        # scipy's stepper keeps the solout closure until its next run
        closures = []
        real = _scipy._dop853

        def keep(fun, t0, t1, y0, rtol, atol, solout=None):
            closures.append(solout)
            return real(fun, t0, t1, y0, rtol, atol, solout)

        monkeypatch.setattr(_scipy, "_dop853", keep)
        sol = _scipy.dop853_dense(lambda t, y: [-y[0]], 0.0, 1.0, [1.0], rtol=1e-12,
                                  atol=1e-12, event=None)
        assert sol.success and sol.t.size > 2
        kept = [c.cell_contents for c in closures[0].__closure__]
        lists = [c for c in kept if isinstance(c, list | array)]
        assert len(lists) == 5 and not any(lists)

    def test_dense_extension_is_formed_on_first_read(self, work):
        # without an event a run forms the 3 extension stages per step on
        # the first evaluation of its sol, once, and counts them then, also
        # in its ledger record; every value is the bits of the extension
        # formed during the run
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [math.cos(3.0 * t) - 0.5 * y[0], y[0]]

        eager = never_stops(rhs, -1.0, 0.0, [0.0, 1.0], 1e-12, 1e-12, None)
        del calls[:]
        lazy = _scipy.dop853_dense(rhs, -1.0, 0.0, [0.0, 1.0], rtol=1e-12, atol=1e-12,
                                   event=None)
        assert work[-1] == ("dop853_dense", __name__, lazy)
        steps, run_calls = lazy.t.size - 1, len(calls)
        assert np.array_equal(lazy.t, eager.t) and np.array_equal(lazy.y, eager.y)
        assert lazy.nfev == run_calls == eager.nfev - 3 * steps
        z = np.linspace(-1.0, 0.0, 37)
        assert np.array_equal(lazy.sol(z), eager.sol(z))
        assert len(calls) == run_calls + 3 * steps and lazy.nfev == eager.nfev
        assert np.array_equal(lazy.sol(z[::-1], [1]), eager.sol(z[::-1], [1]))
        assert len(calls) == run_calls + 3 * steps

    def test_failed_stebz_is_reported(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("stebz failed")

        monkeypatch.setattr(spectral, "tridiagonal_eigenpairs", failing)
        with pytest.raises(NonConvergenceError, match="stebz failed"):
            eigen_fd((6, -4.0, 1.0), 1)
        with pytest.raises(NonConvergenceError, match="stebz failed"):
            spectral._fd(ModelParams(6, -4.0, 1.0), (1, 2))

    def test_failed_coarse_stebz_is_reported(self, monkeypatch):
        # the coarse grid takes its eigenvalues alone
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("stebz failed")

        monkeypatch.setattr(spectral, "tridiagonal_eigenvalues", failing)
        with pytest.raises(NonConvergenceError, match="stebz failed"):
            eigen_fd((6, -4.0, 1.0), 1)
        with pytest.raises(NonConvergenceError, match="stebz failed"):
            spectral._fd(ModelParams(6, -4.0, 1.0), (1, 2))


class TestDeferredEigenfunction:
    """Shooting counts each eigenfunction's nodes on the accepted-step
    states of its run, and samples the eigenfunction on first read."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        """The index of each eigenfunction sampled, in order."""
        indices, real = [], spectral._eigenfunction

        def counting(sol, rows, w, params, index):
            indices.append(index)
            return real(sol, rows, w, params, index)

        monkeypatch.setattr(spectral, "_eigenfunction", counting)
        return indices

    @pytest.mark.parametrize("route,triple", [
        # an accepted shared pass; index 2 on the pass and index 1 on a run
        # at Brent's root; one run at both of Brent's roots
        ("gap", (5, 1.0, 1.0)), ("gap", (8, 9.4, 1.0)), ("gap", (4, 9.84, 1.0)),
        ("normal", (5, 1.0, 1.0)), ("direct", (5, 1.0, 1.0)), ("normal", (4, 9.84, 1.0)),
    ], ids=str)
    def test_first_read_is_an_eager_sample(self, monkeypatch, sampled, route, triple):
        p = ModelParams(*triple)
        if route == "gap":
            g = gap(p)
            results, solves = [g.lambda1, g.lambda2], [((1, 2), "normal")]
        else:
            results = [eigen_shoot(p, idx, form=route) for idx in (1, 2)]
            solves = [((1,), route), ((2,), route)]
        assert sampled == []
        # the same runs with their extension formed during the run, and
        # their samples taken at once
        refs = []
        with monkeypatch.context() as m:
            m.setattr(spectral, "dop853_dense", never_stops)
            for indices, form in solves:
                for idx, (lam, _, sol, rows, w, _) in zip(
                        indices, spectral._shoot_root(p, indices, form)):
                    refs.append((max(lam, 0.0), spectral._eigenfunction(sol, rows, w, p, idx)))
        del sampled[:]
        for r, (lam, ref) in zip(results, refs):
            assert r.eigenvalue == lam
            gf = r.eigenfunction
            assert np.array_equal(gf.z, ref.z) and np.array_equal(gf.values, ref.values)
            assert r.node_count == spectral._count_interior_nodes(gf.values) == r.index - 1
        assert sampled == [1, 2]

    def test_brent_roots_run_is_read_at_both_indices(self):
        # (4, 9.84, 1) above: both indices on one run at Brent's roots
        roots = spectral._shoot_root(ModelParams(4, 9.84, 1.0), (1, 2), "normal")
        assert roots[0][2] is roots[1][2]
        assert [rows for _, _, _, rows, _, _ in roots] == [[0, 1], [2, 3]]

    def test_second_read_and_repr_do_not_sample(self, sampled):
        g = gap((5, 1.0, 1.0))
        text = repr(g)
        assert sampled == [] and "GridFunction" not in text
        first = g.lambda2.eigenfunction
        assert g.lambda2.eigenfunction is first and sampled == [2]

    @pytest.mark.parametrize("triple", [(5, 1.0, 1.0), (4, 9.84, 1.0)], ids=str)
    def test_wrong_node_count_raises_before_any_sample(self, monkeypatch, sampled, triple):
        # every theta row shifted by pi at one interior step flips y's sign
        # there: two more sign changes on each half of the interval
        real = spectral._polar_run

        def flipped(lams, scales, params, form):
            sol = real(lams, scales, params, form)
            sol.y[::2, sol.t.size // 2] += math.pi
            return sol

        monkeypatch.setattr(spectral, "_polar_run", flipped)
        with pytest.raises(GapModelError,
                           match="index-1 eigenfunction shows 4 interior nodes, expected 0"):
            gap(triple)
        for idx, nodes in ((1, 4), (2, 5)):
            with pytest.raises(GapModelError, match=f"index-{idx} eigenfunction shows {nodes} "):
                eigen_shoot(triple, idx)
        assert sampled == []

    @pytest.mark.parametrize("triple", [
        (5, 1.0, 1.0), (8, 9.4, 1.0), (4, 9.84, 1.0), (2, 9.86, 1.0), (8, 12.0, 0.5),
        (6, 0.0, 2.0), (2, -9.5, 1.0), (2, 0.0, 1e-5),
    ], ids=str)
    def test_step_nodes_equal_sample_nodes(self, triple):
        # the count on the run's step states is the count on its 1001
        # samples, for the gap's pair and each index alone in the direct form
        p = ModelParams(*triple)
        for indices, form in (((1, 2), "normal"), ((1,), "direct"), ((2,), "direct")):
            for idx, (_, _, sol, rows, w, _) in zip(
                    indices, spectral._shoot_root(p, indices, form)):
                samples = spectral._eigenfunction(sol, rows, w, p, idx).values
                assert spectral._step_nodes(sol, rows, w, idx) \
                    == spectral._count_interior_nodes(samples) == idx - 1

    def test_finite_differences_stay_eager(self):
        for r in spectral._fd(ModelParams(5, 1.0, 1.0), (1, 2)):
            assert isinstance(r._samples, GridFunction)
            assert r.eigenfunction is r._samples
            assert r.node_count == spectral._count_interior_nodes(r.eigenfunction.values)


class TestFiniteDifference:
    def test_flat_extrapolation(self):
        r = eigen_fd((2, 0.0, math.pi), 1)
        assert r.method == "finite-difference"
        assert abs(r.eigenvalue - 1.0) < 1e-9

    def test_constant_potential_small_grid(self):
        # n = 3 keeps the potential constant; 64 cells already extrapolate well
        r = eigen_fd((3, 1.0, 1.0), 1, grid_size=64)
        assert abs(r.eigenvalue - (math.pi**2 - 1.0)) < 1e-6

    def test_agrees_with_shooting(self, rng):
        for n in (2, 4, 7):
            K, D = random_valid_pair(rng, n)
            p = ModelParams(n=n, K=K, D=D)
            for idx in (1, 2):
                a = eigen_shoot(p, idx).eigenvalue
                b = eigen_fd(p, idx).eigenvalue
                assert a == pytest.approx(b, rel=1e-7)

    @pytest.mark.parametrize("D", [1e-100, 1e-150])
    def test_tiny_diameter(self, D):
        # 1/h^2 squared overflows from D = 1e-75 down; the matrix is built
        # in units of 4^k, 2^k near h, and the eigenvalue scaled back
        for idx in (1, 2):
            r = eigen_fd((5, 0.0, D), idx)
            assert abs(r.eigenvalue - (idx * math.pi / D) ** 2) <= r.error_estimate

    @pytest.mark.parametrize("triple", [(2, 9.8696, 1.0), (2, 9.8, 1.0), (2, 39.2, 0.5)],
                             ids=str)
    def test_refuses_the_n2_pole(self, monkeypatch, triple):
        # the coarse h is 9e3, 0.55 and 0.55 times the pole's distance to
        # D/2; at (2, 9.8696, 1) FD used to return 1.0747 +- 0.031 against
        # the closed form's 0.67739, and no grid is solved before refusing
        def no_solve(*args, **kwargs):
            raise AssertionError("grid solved")

        monkeypatch.setattr(spectral, "tridiagonal_eigenvalues", no_solve)
        for idx in (1, 2):
            with pytest.raises(NonConvergenceError, match="cannot resolve the n = 2 pole"):
                eigen_fd(triple, idx)

    @pytest.mark.parametrize("triple", [
        (4, 0.5, 1.0), (2, -20.0, 1.0), (2, 9.0, 1.0), (5, -20.0, 1.0), (5, 9.0, 1.0),
        (8, -20.0, 1.0), (8, 9.0, 1.0),
    ], ids=str)
    def test_pair_agrees_with_each_index_alone(self, triple):
        # the golden FD triples: one stebz call per grid and one stein call
        # for both vectors give each index's value within 1e-14 relative
        pair = spectral._fd(ModelParams(*triple), (1, 2))
        for r in pair:
            alone = eigen_fd(triple, r.index)
            assert abs(r.eigenvalue - alone.eigenvalue) <= 1e-14 * abs(alone.eigenvalue)
            assert r.node_count == alone.node_count == r.index - 1
            assert r.symmetry_residual <= 1e-10
            assert np.max(np.abs(r.eigenfunction.values - alone.eigenfunction.values)) <= 1e-10

    def test_bounds_its_error_below_the_pole_ratio(self):
        # h / eps = 0.19 at (2, 9.67, 1), and 0.04 at the golden (2, 9, 1)
        for triple in ((2, 9.67, 1.0), (2, 9.0, 1.0)):
            for idx in (1, 2):
                r = eigen_fd(triple, idx)
                ref = eigen_shoot_mp(triple, idx, dps=20)
                assert abs(r.eigenvalue - ref) <= r.error_estimate

    def test_integral_float_grid_size(self):
        # taken as the integer, as ModelParams takes an integral float n
        a = eigen_fd((5, 1.0, 1.0), 1, grid_size=1024.0)
        b = eigen_fd((5, 1.0, 1.0), 1, grid_size=1024)
        assert (a.eigenvalue, a.error_estimate) == (b.eigenvalue, b.error_estimate)
        for size in (1024.5, "1024", True, 32.0, 96):
            with pytest.raises(DomainError):
                eigen_fd((5, 1.0, 1.0), 1, grid_size=size)

    def test_eigenvector_nodes(self):
        # near the cap the ground state is tiny next to the ends, yet its
        # sign is fixed: positive inside, and index 2 positive next to -D/2
        for p in ((5, 1.0, 1.0), (5, 9.0, 1.0), (4, 9.0, 1.0)):
            r1 = eigen_fd(p, 1)
            r2 = eigen_fd(p, 2)
            assert r1.node_count == 0
            assert r2.node_count == 1
            assert r1.eigenvalue < r2.eigenvalue
            assert np.all(r1.eigenfunction.values[1:-1] > 0)
            assert r2.eigenfunction.values[1] > 0


class TestGap:
    def test_exact_for_n1_and_n3(self, rng):
        for n in (1, 3):
            for _ in range(3):
                K, D = random_valid_pair(rng, n)
                g = gap((n, K, D))
                assert abs(g.excess) / g.reference < 1e-9

    def test_flat_exact_any_dimension(self):
        for n in (2, 4, 10):
            g = gap((n, 0.0, 1.7))
            assert g.gap == pytest.approx(3 * math.pi**2 / 1.7**2, rel=1e-11)

    def test_dichotomy_at_unit_kappa(self):
        assert gap((2, 1.0, 1.0)).excess < 0
        assert gap((5, 1.0, 1.0)).excess > 0
        assert gap((2, 1.0, 1.0)).sign == -1


class TestCapProblem:
    def test_reference_values(self):
        # hemisphere limit: first eigenvalue tends to the dimension
        assert ball_first_eigen(2, math.pi - 1e-3) == pytest.approx(2.0015007105840694, rel=1e-9)
        assert ball_first_eigen(3, math.pi - 1e-3) == pytest.approx(3.0025476954613346, rel=1e-9)
        assert ball_first_eigen(5, 0.5) == pytest.approx(319.72145974041115, rel=1e-9)

    def test_small_cap_euclidean_limit(self):
        # a tiny cap is a flat ball of radius D/2, whose n = 3 value is
        # (2 pi / D)^2; the ratio to pi^2/D^2 tends to 4
        lam = ball_first_eigen(3, 0.01)
        assert lam * 0.01**2 / math.pi**2 == pytest.approx(4.0, abs=2e-5)

    def test_lower_bound_holds(self):
        for n in (2, 3, 5):
            for D in (0.5, 1.5, 3.0):
                assert ball_first_eigen(n, D) >= math.pi**2 / D**2

    @pytest.mark.parametrize("D", [1e-3, 0.01, 0.5, 1.5, 3.0, math.pi - 1e-3])
    def test_n3_closed_form(self, D):
        # for n = 3 the regular radial solution is sin((nu + 1) x) / sin x,
        # which vanishes at D/2 for nu + 1 = 2 pi / D
        expected = (2 * math.pi / D) ** 2 - 1
        assert abs(ball_first_eigen(3, D) - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_matches_30_digit_root(self, n):
        for D in (1e-3, 0.01, 0.5, 1.5, 3.0, math.pi - 1e-3):
            lam = ball_first_eigen(n, D)
            with mpmath.workdps(30):
                x = mpmath.sin(mpmath.mpf(D) / 4) ** 2
                m = mpmath.mpf(n - 1) / 2
                nu = mpmath.findroot(
                    lambda v: mpmath.hyp2f1(-v, v + n - 1, mpmath.mpf(n) / 2, x),
                    mpmath.sqrt(lam + m * m) - m)
                ref = nu * (nu + n - 1)
                assert abs(lam - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("n", [2, 3, 10, 60, 200])
    def test_below_flat_ball(self, n):
        # a cap's first eigenvalue lies below that of the flat ball of the
        # same radius (Cheng 1975), (2 j / D)^2 with j the first zero of
        # J_(n/2 - 1); a bracket that skipped the first root lands far above
        j = float(mpmath.besseljzero(mpmath.mpf(n) / 2 - 1, 1))
        for D in (1e-3, 0.5, 2.0, 3.0):
            assert math.pi**2 / D**2 <= ball_first_eigen(n, D) <= (2 * j / D) ** 2

    def test_runs_no_ode_solve(self, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("ODE solve")

        monkeypatch.setattr(spectral, "dop853_end", failing)
        assert ball_first_eigen(5, 0.5) == pytest.approx(319.72145974041115, rel=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            ball_first_eigen(2, math.pi)
        with pytest.raises(DomainError):
            ball_first_eigen(1, 1.0)

    def test_integral_float_dimension(self):
        # taken as the integer, as ModelParams takes an integral float n
        assert ball_first_eigen(2.0, 1.0) == ball_first_eigen(2, 1.0)
        for n in (2.5, math.nan, "2", True, 1.0):
            with pytest.raises(DomainError):
                ball_first_eigen(n, 1.0)


class TestHighPrecision:
    def test_matches_double_shooting(self, monkeypatch):
        # the seed is the float root alone: no eigenfunction, no node check
        def failing(*args, **kwargs):
            raise AssertionError("eigenfunction")

        monkeypatch.setattr(spectral, "_eigenfunction", failing)
        monkeypatch.setattr(spectral, "_eigen_result", failing)
        lam = eigen_shoot_mp((2, 1.0, 1.0), 1, dps=30)
        assert float(lam) == pytest.approx(LAM_2_1_1[0], rel=1e-12)

    def test_second_index(self):
        lam = eigen_shoot_mp((5, 1.0, 1.0), 2, dps=30)
        assert float(lam) == pytest.approx(LAM_5_1_1[1], rel=1e-12)

    def test_cap_n2_shooting_error_within_estimate(self):
        # 20 digits of each eigenvalue; float shooting is off by -1.2e-6 and
        # +8.9e-7 here, inside its estimates of 2.4e-6 and 1.8e-6
        p = ModelParams(2, 39.4784, 0.5)
        for idx, ref in ((1, "2.7095431861898419982"), (2, "87.270898028647964174")):
            with mpmath.workdps(30):
                ref = mpmath.mpf(ref)
                assert abs(eigen_shoot_mp(p, idx, dps=25) - ref) <= 1e-19 * ref
            r = eigen_shoot(p, idx)
            assert abs(r.eigenvalue - ref) <= r.error_estimate

    def test_large_negative_curvature(self):
        p = ModelParams(6, -400.0, 1.0)
        for idx, ref in ((1, "1600.000000001143791557"), (2, "2400.046328312334504725")):
            with mpmath.workdps(30):
                ref = mpmath.mpf(ref)
                assert abs(eigen_shoot_mp(p, idx, dps=25) - ref) <= 1e-21 * ref
            r = eigen_shoot(p, idx)
            assert abs(r.eigenvalue - ref) <= r.error_estimate

    def test_zero_seed(self):
        # the float root is -9.8e-12 and clamps to 0; the secant must still
        # step, from 0 and 1e-9 (pi / D)^2
        p = ModelParams(5, 9.8695, 1.0)
        assert spectral._shoot_root(p, (1,), "normal")[0][0] < 0
        lam = eigen_shoot_mp(p, 1, dps=30)
        assert float(lam) == pytest.approx(2.88239971078067e-14, rel=1e-14)
        with mpmath.workdps(40):
            assert abs(lam - eigen_shoot_mp(p, 1, dps=40)) <= mpmath.mpf(10) ** -40

    @pytest.mark.parametrize("triple", [
        (6, -400.0, 1.0), (5, 0.0, 1.0), (1, 5.0, 1.0), (4, 9.86, 1.0),
        # lambda1 is about 1.7e-16 here, so the scale is (pi / D)^2
        (10, 9.8, 1.0),
    ], ids=str)
    def test_more_digits_agree(self, triple):
        dps = 20
        for idx in (1, 2):
            lam = eigen_shoot_mp(triple, idx, dps=dps)
            finer = eigen_shoot_mp(triple, idx, dps=dps + 10)
            with mpmath.workdps(dps + 10):
                scale = max(abs(finer), (math.pi / triple[2]) ** 2)
                assert abs(lam - finer) <= mpmath.mpf(10) ** -(dps - 5) * scale
