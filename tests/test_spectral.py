"""Both eigenvalue routes, the gap, the cap problem, and cross-checks."""

import math
import warnings
from array import array

import mpmath
import numpy as np
import pytest

from gapmodel import _scipy, spectral
from gapmodel.errors import DomainError, GapModelError, NonConvergenceError, PoleError
from gapmodel.model import ModelParams
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


@pytest.fixture
def ode_work(monkeypatch):
    """Right-hand-side evaluations of each ODE solve in spectral, in order.

    Counts the compiled angle shots (dop853_end) and the compiled
    eigenfunction runs (dop853_dense) alike.
    """
    nfev = []

    def counting(real):
        def solve(*args, **kwargs):
            sol = real(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol
        return solve

    for name in ("dop853_end", "dop853_dense"):
        monkeypatch.setattr(spectral, name, counting(getattr(spectral, name)))
    return nfev


@pytest.fixture
def solves(monkeypatch):
    """The kind of each ODE solve in spectral, in order: "pass" for a
    dense (theta, log r) run at two lam, "dense" at one, "shot" for a
    theta-only angle shot."""
    kinds = []

    def shot(*args, **kwargs):
        kinds.append("shot")
        return _scipy.dop853_end(*args, **kwargs)

    def dense(fun, t0, t1, y0, *args, **kwargs):
        kinds.append("pass" if len(y0) == 4 else "dense")
        return _scipy.dop853_dense(fun, t0, t1, y0, *args, **kwargs)

    monkeypatch.setattr(spectral, "dop853_end", shot)
    monkeypatch.setattr(spectral, "dop853_dense", dense)
    return kinds


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
        # V = 0: eigenvalues are (idx pi / D)^2
        p = ModelParams(n=4, K=0.0, D=2.0)
        for idx in (1, 2):
            r = eigen_shoot(p, idx)
            assert r.eigenvalue == pytest.approx((idx * math.pi / 2.0) ** 2, rel=1e-11)

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

    def test_solve_count(self, ode_work):
        for idx, max_rhs in ((1, 450), (2, 670)):
            ode_work.clear()
            eigen_shoot((5, 1.0, 1.0), idx)
            # one stacked pass at the seeded interval's ends, which gives the
            # root and the eigenfunction, and one check shot at the root
            assert len(ode_work) == 2
            # measured: 408 and 609 right-hand-side evaluations, 227 and 369
            # of them in the stacked pass, which adds 3 stages per step to
            # the stepper's own; 951 and 1329 in 5 solves each with Brent
            # from the seeded interval, 1313 and 1592 in 7 and 6 solves from
            # the comparison bracket
            assert sum(ode_work) <= max_rhs

    @pytest.mark.parametrize("triple", [(3, 1.0, 1.0), (6, 0.0, 2.0)], ids=str)
    def test_flat_angle_is_linear(self, ode_work, triple):
        """V is constant, so lam - V is S^2 up to the bracket's padding and
        the index-2 angle grows linearly in z: a few DOP853 steps per shot.  Measured: at most 86 and 98 right-hand-side evaluations per
        angle shot; with the fixed scale S = pi / D, 832 and 937."""
        eigen_shoot(triple, 2)
        angle_shots = ode_work[:-1]  # the last solve is the eigenfunction's
        assert max(angle_shots) <= 150

    def test_wide_potential_angle_rhs_count(self, ode_work):
        """At (8, 12, 0.5) V runs from -42 at z = 0 to 103 at z = D/2.
        Measured for index 2 with S the wavenumber at z = 0: 913
        right-hand-side evaluations, 519 in the stacked pass and 394 in the
        check shot.  With Brent from the seeded interval, the angle shots
        took 2829; 6168 with S^2 = hi - max V, 4922 with the fixed
        S = pi / D."""
        eigen_shoot((8, 12.0, 0.5), 2)
        assert sum(ode_work) <= 1400


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
            delta = max(10.0 * ladder, 1e-9 * max(abs(ref), (math.pi / D) ** 2))
            assert abs(seed - ref) <= delta

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
    def test_fallback(self, monkeypatch, ode_work, case, extra):
        for idx in (1, 2):
            monkeypatch.setattr(spectral, "_colloc_seed", lambda p, i: (math.nan, 0.0))
            ode_work.clear()
            unseeded = eigen_shoot((5, 1.0, 1.0), idx)
            solves = len(ode_work)
            seed = {"nan": math.nan, "off": unseeded.eigenvalue * (1 - 1e-3),
                    "below": -1.0}[case]
            monkeypatch.setattr(spectral, "_colloc_seed", lambda p, i: (seed, 0.0))
            ode_work.clear()
            r = eigen_shoot((5, 1.0, 1.0), idx)
            assert abs(r.eigenvalue - unseeded.eigenvalue) <= r.error_estimate
            assert len(ode_work) == solves + extra


class TestStackedPass:
    """Each branch of eigen_shoot's root: the accepted stacked pass, Brent's
    continuation after it, Brent from a seed too wide for a pass, and the
    comparison bracket."""

    def test_accepted_pass(self, solves):
        for idx in (1, 2):
            solves.clear()
            r = eigen_shoot((5, 1.0, 1.0), idx)
            assert solves == ["pass", "shot"]
            ref = COLLOCATION[(5, 1.0, 1.0)][idx - 1]
            assert abs(r.eigenvalue - ref) <= r.error_estimate <= 1e-11 * max(ref, math.pi**2)

    def test_interpolated_eigenfunction_matches_a_run_at_the_root(self):
        p = ModelParams(5, 1.0, 1.0)
        for idx in (1, 2):
            lam, S, _, passed = spectral._shoot_root(p, idx, "normal")
            sol, w, _, _ = passed
            assert 0 < w < 1
            y = spectral._eigenfunction(sol, w, p, idx).values
            ref = spectral._eigenfunction(spectral._polar_run([lam], p, "normal", S), 0.0,
                                          p, idx).values
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_brent_continues_inside_the_pass(self, monkeypatch, solves):
        # no estimate is accepted: Brent runs between the check shot's lam
        # and the pass's end on the other side of the root, one new shot
        accepted = {idx: eigen_shoot((5, 1.0, 1.0), idx) for idx in (1, 2)}
        monkeypatch.setattr(spectral, "_ACCEPT", 0.0)
        for idx in (1, 2):
            solves.clear()
            r = eigen_shoot((5, 1.0, 1.0), idx)
            assert solves[:3] == ["pass", "shot", "shot"] and solves[-1] == "dense"
            assert "pass" not in solves[1:]
            ref = COLLOCATION[(5, 1.0, 1.0)][idx - 1]
            assert abs(r.eigenvalue - ref) <= r.error_estimate
            assert abs(r.eigenvalue - accepted[idx].eigenvalue) <= r.error_estimate
            # Brent's dict holds theta-only shots alone: an angle of the
            # tighter pass among them reads as a fall of about 1e-11 and
            # inflates the estimate about 1e5-fold
            assert r.error_estimate <= 1e-11 * max(ref, math.pi**2)

    def test_refined_seed(self, solves):
        # the one seed on the measured sweep that gets a pass and is refined
        # while its half-width is far below _PASS_WIDTH: the check shot reads
        # 9e-12 below the pass's angle, too far for the accept rule
        r = eigen_shoot((4, 1.671925, 2.0), 2)
        assert solves[:2] == ["pass", "shot"] and solves[-1] == "dense"
        assert r.error_estimate <= 1e-10 * r.eigenvalue

    def test_accept_on_the_accuracy_scale(self, monkeypatch, solves):
        # with every seed given a pass, the one near the cap is 2e-6 off the
        # root; the bracket's scale there, 1.3e7, would have accepted it
        monkeypatch.setattr(spectral, "_PASS_WIDTH", math.inf)
        r = eigen_shoot((4, 9.86, 1.0), 2)
        assert solves[:2] == ["pass", "shot"] and solves[-1] == "dense"
        ref = eigen_shoot_mp((4, 9.86, 1.0), 2, dps=20)
        assert abs(r.eigenvalue - ref) <= r.error_estimate <= 1e-9 * r.eigenvalue

    def test_wide_seed_goes_straight_to_brent(self, monkeypatch, solves):
        # (4, 9.42, 1) is the benchmark's near-cap slot: its seeds are wider
        # than _PASS_WIDTH, and so is a seed whose ladder is widened
        for idx in (1, 2):
            solves.clear()
            eigen_shoot((4, 9.42, 1.0), idx)
            assert "pass" not in solves and solves[-1] == "dense"
        real = spectral._colloc_seed

        def wide(p, i):
            seed, _ = real(p, i)
            return seed, 1e-6 * seed

        monkeypatch.setattr(spectral, "_colloc_seed", wide)
        solves.clear()
        r = eigen_shoot((5, 1.0, 1.0), 1)
        assert solves[:2] == ["shot", "shot"] and "pass" not in solves
        assert abs(r.eigenvalue - COLLOCATION[(5, 1.0, 1.0)][0]) <= r.error_estimate

    @pytest.mark.parametrize("triple", [(3, 1.0, 1.0), (6, 0.0, 2.0), (1, 5.0, 1.0)], ids=str)
    def test_flat_triples_take_the_comparison_bracket(self, solves, triple):
        for idx in (1, 2):
            solves.clear()
            eigen_shoot(triple, idx)
            assert "pass" not in solves and solves[-1] == "dense"

    def test_nan_seed_takes_the_comparison_bracket(self, monkeypatch, solves):
        monkeypatch.setattr(spectral, "_colloc_seed", lambda p, i: (math.nan, math.nan))
        r = eigen_shoot((5, 1.0, 1.0), 1)
        assert "pass" not in solves and solves[-1] == "dense"
        assert abs(r.eigenvalue - COLLOCATION[(5, 1.0, 1.0)][0]) <= r.error_estimate

    def test_direct_form_takes_the_pass(self, solves):
        r = eigen_shoot((5, 1.0, 1.0), 2, form="direct")
        assert solves == ["pass", "shot"]
        assert abs(r.eigenvalue - COLLOCATION[(5, 1.0, 1.0)][1]) <= r.error_estimate


class TestNearCap:
    """K D^2 = 9.8 and 9.86, just below the cap pi^2."""

    @pytest.mark.parametrize("triple,max_rhs", [
        # measured: 16535, 14585 and 21022 right-hand-side evaluations per
        # gap; at (2, 9.869, 1) a lower end at min V + (pi/D)^2 costs 214k
        ((5, 9.8, 1.0), 40000), ((2, 9.86, 1.0), 40000),
        ((2, 9.869, 1.0), 45000),
    ], ids=str)
    def test_gap_rhs_count(self, ode_work, triple, max_rhs):
        g = gap(triple)
        assert sum(ode_work) <= max_rhs
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


def tan_blowup_dense(fun, t0, t1, y0, rtol, atol, rows, event):
    """dop853_dense with the right-hand side swapped for (1 + y0^2, 0).

    From y(-D/2) = 0 the first component is tan(z + D/2), infinite at
    z = pi/2 - D/2, inside the eigenfunction run's [-D/2, 0] once D > pi.
    """
    def rhs(z, y):
        return [1.0 + y[0] ** 2, 0.0]

    return _scipy.dop853_dense(rhs, t0, t1, y0, rtol, atol, rows, event)


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
                                  atol=1e-12, rows=[0], event=None)
        assert sol.success and sol.t.size > 2
        kept = [c.cell_contents for c in closures[0].__closure__]
        lists = [c for c in kept if isinstance(c, list | array)]
        assert len(lists) == 5 and not any(lists)

    def test_failed_stebz_is_reported(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("stebz failed")

        monkeypatch.setattr(spectral, "tridiagonal_eigenpair", failing)
        with pytest.raises(NonConvergenceError, match="stebz failed"):
            eigen_fd((6, -4.0, 1.0), 1)

    def test_failed_coarse_stebz_is_reported(self, monkeypatch):
        # the coarse grid takes its eigenvalue alone
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("stebz failed")

        monkeypatch.setattr(spectral, "tridiagonal_eigenvalue", failing)
        with pytest.raises(NonConvergenceError, match="stebz failed"):
            eigen_fd((6, -4.0, 1.0), 1)


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

        monkeypatch.setattr(spectral, "tridiagonal_eigenvalue", no_solve)
        for idx in (1, 2):
            with pytest.raises(NonConvergenceError, match="cannot resolve the n = 2 pole"):
                eigen_fd(triple, idx)

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
        assert spectral._shoot_root(p, 1, "normal")[0] < 0
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
