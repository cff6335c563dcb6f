"""Both eigenvalue routes, the gap, the cap problem, and cross-checks."""

import math
import warnings

import numpy as np
import pytest

from gapmodel import _scipy, spectral
from gapmodel.errors import DomainError, NonConvergenceError, PoleError
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
    eigenfunction shots (lsoda_samples) alike.
    """
    nfev = []

    def counting(real):
        def solve(*args, **kwargs):
            sol = real(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol
        return solve

    for name in ("dop853_end", "lsoda_samples"):
        monkeypatch.setattr(spectral, name, counting(getattr(spectral, name)))
    return nfev


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
        # measured: at most 3.7e-12 below K D^2 = 9.4, and 8.4e-10 at
        # (8, 9.4, 1), where the whole-interval shot runs into the large V
        # near both ends
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
        for idx, max_rhs in ((1, 1250), (2, 1700)):
            ode_work.clear()
            eigen_shoot((5, 1.0, 1.0), idx)
            # two seeded bracket ends, Brent's steps, the tighter noise shot
            # and the eigenfunction
            assert len(ode_work) <= 6
            # measured: 6 and 6 solves, 1170 and 1599 right-hand-side
            # evaluations, 206 and 328 of them in the eigenfunction; 8 and 7
            # solves, 1532 and 1864 evaluations from the comparison bracket
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
        Measured: 2829 angle right-hand-side evaluations for index 2 with S
        the wavenumber at z = 0; 6168 with S^2 = hi - max V, 4922 with the
        fixed S = pi / D."""
        eigen_shoot((8, 12.0, 0.5), 2)
        assert sum(ode_work[:-1]) <= 4000


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

    # extra angle shots over the unseeded solve: the seeded interval of a
    # NaN, and of a seed below the bracket's lower end (at least -1e-9 of
    # its scale), fails before any shot; one 1e-3 below the eigenvalue lies
    # inside the bracket, and its two end shots do not straddle the target
    @pytest.mark.parametrize("case,extra", [("nan", 0), ("off", 2), ("below", 0)])
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


def tan_blowup(fun, t0, t1, y0, rtol, atol):
    """dop853_end with the right-hand side swapped for y' = 1 + y^2.

    From y(-D/2) = 0 the solution is tan(z + D/2), which is infinite at
    z = pi/2 - D/2, inside the angle shot's [-D/2, 0] once D > pi.
    """
    return _scipy.dop853_end(lambda z, y: [1.0 + y[0] ** 2], t0, t1, y0, rtol, atol)


def tan_blowup_samples(fun, t, y0, rtol, atol):
    """lsoda_samples with the right-hand side swapped for y' = 1 + y^2.

    From y(-D/2) = 0 the first component is tan(z + D/2), infinite at
    z = pi/2 - D/2, inside the eigenfunction shot's [-D/2, D/2] once
    D > pi/2.  Python floats overflow to inf without a warning.
    """
    def rhs(z, y):
        y0 = float(y[0])
        return [1.0 + y0 * y0, 0.0]

    return _scipy.lsoda_samples(rhs, t, y0, rtol, atol)


class TestCompiledSolvers:
    """Failures of the compiled DOP853, LSODA and stebz calls come back typed."""

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

    def test_lsoda_samples_and_count(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [-2.0 * t * y[0], y[0]]

        t = np.linspace(0.0, 1.0, 11)
        sol = _scipy.lsoda_samples(rhs, t, [1.0, 0.0], rtol=1e-12, atol=1e-14)
        assert sol.success and sol.message == "Integration successful."
        assert sol.t is t and sol.y.shape == (2, 11)
        assert np.max(np.abs(sol.y[0] - np.exp(-t**2))) <= 1e-11
        assert sol.nfev == len(calls)
        # no step passes the last point, where a pole may lie
        assert max(calls) <= t[-1]

    def test_lsoda_reports_blowup_without_warning(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            y0 = float(y[0])
            return [y0 * y0]

        t = np.linspace(0.0, 2.0, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = _scipy.lsoda_samples(rhs, t, [1.0], rtol=1e-12, atol=1e-12)
        # y = 1 / (1 - t) is infinite at t = 1; LSODA steps on towards it
        # until y^2 overflows to inf, and the samples before t = 1 are kept
        assert not sol.success
        assert sol.message == "Illegal input detected (internal error)."
        assert np.array_equal(sol.t, t[:5])
        assert np.max(np.abs(sol.y[0] - 1.0 / (1.0 - sol.t))) <= 1e-9
        assert sol.nfev == len(calls)

    def test_lsoda_step_budget(self, monkeypatch):
        monkeypatch.setattr(_scipy, "LSODA_MAX_STEPS", 5)
        sol = _scipy.lsoda_samples(lambda t, y: [math.cos(40.0 * t)],
                                   np.linspace(0.0, 10.0, 3), [0.0],
                                   rtol=1e-12, atol=1e-12)
        assert not sol.success and sol.message.startswith("Excess work done")
        assert list(sol.t) == [0.0]

    def test_lsoda_passes_on_an_exception_from_fun(self):
        def pole(t, y):
            if t > 0.5:
                raise PoleError("pole at t = 0.5")
            return [1.0]

        with pytest.raises(PoleError, match="pole at t = 0.5"):
            _scipy.lsoda_samples(pole, np.linspace(0.0, 1.0, 5), [0.0],
                                 rtol=1e-12, atol=1e-12)

    def test_failed_eigenfunction_shot_is_reported(self, monkeypatch):
        monkeypatch.setattr(spectral, "lsoda_samples", tan_blowup_samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError,
                               match="eigenfunction integration failed: "):
                eigen_shoot((2, 0.01, 4.0), 1)

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

    def test_validation(self):
        with pytest.raises(DomainError):
            ball_first_eigen(2, math.pi)
        with pytest.raises(DomainError):
            ball_first_eigen(1, 1.0)


class TestHighPrecision:
    def test_matches_double_shooting(self, monkeypatch):
        # the seed is the float root alone: no eigenfunction shot, no node check
        def failing(*args, **kwargs):
            raise AssertionError("eigenfunction shot")

        monkeypatch.setattr(spectral, "lsoda_samples", failing)
        lam = eigen_shoot_mp((2, 1.0, 1.0), 1, dps=30)
        assert float(lam) == pytest.approx(LAM_2_1_1[0], rel=1e-12)

    def test_second_index(self):
        lam = eigen_shoot_mp((5, 1.0, 1.0), 2, dps=30)
        assert float(lam) == pytest.approx(LAM_5_1_1[1], rel=1e-12)
