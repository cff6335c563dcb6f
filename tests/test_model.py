"""Parameter validation, the potential, and the gauge between the two forms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapmodel import _scipy
from gapmodel.errors import DomainError, PoleError
from gapmodel.kernels import cs
from gapmodel.model import (
    GridFunction,
    ModelParams,
    gauge_factor,
    gauge_transform,
    model_rhs,
    potential,
    potential_array,
    potential_at,
    validate,
)


class TestParams:
    def test_accepts_valid(self):
        p = ModelParams(n=3, K=1.0, D=1.0)
        assert p.half == 0.5
        assert validate((3, 1.0, 1.0)) == p

    @pytest.mark.parametrize("params", [(1, 2), (3, 1.0, 1.0, 0.0), None, 5, "nKD?"])
    def test_validate_refuses_what_is_no_triple(self, params):
        # (1, 2) raised ValueError and None TypeError from the unpacking
        with pytest.raises(DomainError, match="a ModelParams or an \\(n, K, D\\) triple"):
            validate(params)

    def test_integer_like_dimension(self):
        assert ModelParams(n=4.0, K=0.0, D=1.0).n == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    def test_flat_truth_table(self, n, K):
        # V is constant exactly at n = 1, n = 3 or K = 0
        p = ModelParams(n=n, K=K, D=1.0)
        assert p.flat is (n in (1, 3) or K == 0.0)
        z = np.linspace(-p.half, p.half, 9)
        assert bool(np.ptp(potential_array(z, p)) == 0.0) is p.flat

    @pytest.mark.parametrize(
        "n,K,D",
        [(0, 1.0, 1.0), (-2, 1.0, 1.0), (2.5, 1.0, 1.0), (3, 1.0, 0.0),
         (3, 1.0, -1.0), (3, float("nan"), 1.0), (3, 1.0, float("inf"))],
    )
    def test_rejects_bad_domain(self, n, K, D):
        with pytest.raises(DomainError):
            ModelParams(n=n, K=K, D=D)

    def test_pole_cap_is_strict(self):
        with pytest.raises(PoleError):
            ModelParams(n=3, K=1.0, D=math.pi)
        with pytest.raises(PoleError):
            ModelParams(n=3, K=4.0, D=math.pi / 2)
        # just inside is fine
        ModelParams(n=3, K=1.0, D=math.pi * (1 - 1e-12))

    @pytest.mark.parametrize("K,D", [(-5.2e5, 1.0), (-1e8, 1.0), (-1.3e5, 2.0)])
    def test_rejects_overflowing_cs(self, K, D):
        # cs_K(D/2)^2 = cosh(sqrt(-K) D/2)^2 passes the largest double near
        # K D^2 = -5.058e5
        with pytest.raises(DomainError, match="K D\\^2 above about -5.058e5"):
            ModelParams(n=2, K=K, D=D)

    @pytest.mark.parametrize("K", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("D", [1e200, 1.4e154, 2.3e-154, 1e-200, 5e-324])
    def test_rejects_d_with_overflowing_scales(self, K, D):
        # D^2 or (pi/D)^2 overflows a double; D**2 used to raise OverflowError
        with pytest.raises(DomainError, match="D\\^2 and \\(pi/D\\)\\^2 finite"):
            ModelParams(n=5, K=K, D=D)

    @pytest.mark.parametrize("n,K,D", [(5, 9.8e306, 1e-153), (10**200, 1.0, 1.0),
                                       (10**320, 1.0, 1.0), (10**5000, 1.0, 1.0)],
                             ids=["K", "n1e200", "n1e320", "n1e5000"])
    def test_rejects_overflowing_potential(self, n, K, D):
        # K D^2 = 9.8 passes the cap but V(D/2) overflows a double; at n =
        # 1e200 V's coefficients do, 10**320 converts to no float at all,
        # and 10**5000 to no str
        with _scipy.ledger() as work:
            with pytest.raises(DomainError, match="potential V finite at z = 0 and z = D/2"):
                ModelParams(n=n, K=K, D=D)
        assert work == []

    @pytest.mark.parametrize("D", [1.3e154, 2.4e-154, 1e-100])
    def test_accepts_d_with_finite_scales(self, D):
        p = ModelParams(n=5, K=0.0, D=D)
        assert math.isfinite(p.D**2) and math.isfinite((math.pi / p.D) ** 2)

    def test_accepts_large_negative_curvature(self):
        for K, D in ((-4e5, 1.0), (-5.05e5, 1.0), (-1.26e5, 2.0)):
            p = ModelParams(n=5, K=K, D=D)
            assert math.isfinite(cs(p.half, p.K) ** 2)

    def test_frozen(self):
        p = ModelParams(n=3, K=1.0, D=1.0)
        with pytest.raises(Exception):
            p.n = 4


class TestPotential:
    def test_flat_case_vanishes(self):
        p = ModelParams(n=5, K=0.0, D=2.0)
        assert potential(0.3, p) == 0.0

    def test_n3_is_constant(self):
        # at n = 3 the cs^-2 term drops and V = -(n-1)^2 K / 4 = -K
        p = ModelParams(n=3, K=0.7, D=1.0)
        for z in (-0.5, -0.1, 0.0, 0.4):
            assert potential(z, p) == pytest.approx(-0.7, rel=1e-15)

    def test_n1_identically_zero(self):
        p = ModelParams(n=1, K=-2.0, D=1.5)
        z = np.linspace(-0.75, 0.75, 11)
        assert np.all(potential_array(z, p) == 0.0)

    @given(
        z=st.floats(min_value=-0.7, max_value=0.7),
        K=st.floats(min_value=-3.0, max_value=3.0),
        n=st.integers(min_value=1, max_value=12),
    )
    def test_closed_form(self, z, K, n):
        p = ModelParams(n=n, K=K, D=1.5)
        c = cs(z, K)
        want = (n - 1) * K / 4.0 * ((n - 3) / c**2 - (n - 1))
        assert potential(z, p) == pytest.approx(want, rel=1e-14, abs=1e-300)
        # math.cosh and np.cosh may differ in the last ulp
        assert potential_array(np.array([z]), p)[0] == pytest.approx(
            potential(z, p), rel=1e-14, abs=1e-300
        )


    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize(
        "K", [0.0, 1e-9, -1e-9, 1e-3, -1e-3, 1.0, -1.0, -1600.0, math.pi**2 * (1 - 1e-9)]
    )
    def test_closure_matches_potential_exactly(self, n, K):
        # D = 1: K = +-1e-3 puts |K z^2| on both sides of W_SERIES in [0, 1/2]
        p = ModelParams(n=n, K=K, D=1.0)
        V = potential_at(p)
        for z in (0.0, 0.5, -0.5, 0.1, -0.3162, 0.3163, -0.4999):
            for x in (z, np.float64(z)):
                assert V(x) == potential(x, p)

    @given(
        z=st.floats(min_value=-1.0, max_value=1.0),
        kappa=st.floats(min_value=-40.0, max_value=9.8),
        D=st.floats(min_value=0.01, max_value=2.0),
        n=st.integers(min_value=1, max_value=12),
    )
    def test_closure_matches_potential_on_the_box(self, z, kappa, D, n):
        p = ModelParams(n=n, K=kappa / D**2, D=D)
        x = z * p.half
        assert potential_at(p)(x) == potential(x, p)


class TestGauge:
    def test_round_trip(self):
        p = ModelParams(n=5, K=1.2, D=1.4)
        z = np.linspace(-0.7, 0.7, 101)
        gf = GridFunction(z=z, values=np.cos(z))
        back = gauge_transform(gauge_transform(gf, p, "to_direct"), p, "to_normal")
        assert gf.sup_distance(back) < 1e-14

    def test_scalar_matches_array(self):
        p = ModelParams(n=4, K=-0.8, D=2.0)
        z = np.array([-0.9, 0.0, 0.3])
        vals = np.array([1.0, 2.0, -1.0])
        direct = gauge_transform(GridFunction(z=z, values=vals), p, "to_direct")
        for i in range(3):
            assert direct.values[i] == pytest.approx(vals[i] * gauge_factor(z[i], p), rel=1e-15)
        np.testing.assert_allclose(gauge_transform(direct, p, "to_normal").values, vals,
                                   rtol=1e-15)

    def test_flat_gauge_is_identity(self):
        p = ModelParams(n=7, K=0.0, D=1.0)
        z = np.linspace(-0.5, 0.5, 17)
        gf = GridFunction(z=z, values=np.sin(3 * z))
        out = gauge_transform(gf, p, "to_direct")
        assert gf.sup_distance(out) == 0.0

    def test_bad_direction(self):
        p = ModelParams(n=2, K=0.0, D=1.0)
        gf = GridFunction(z=np.array([0.0]), values=np.array([1.0]))
        with pytest.raises(DomainError):
            gauge_transform(gf, p, "sideways")

    def test_conjugation_preserves_the_equation(self):
        """If psi solves the normal form then cs^{-(n-1)/2} psi solves the
        direct form; check the direct-form residual of a shot normal-form
        solution by finite differences."""
        from scipy.integrate import solve_ivp

        p = ModelParams(n=6, K=0.9, D=1.6)
        lam = 11.0

        def normal_rhs(z, y):
            return (y[1], (potential(z, p) - lam) * y[0])

        sol = solve_ivp(
            normal_rhs, (-p.half, p.half), [0.0, 1.0],
            method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True,
        )
        h = 1e-5
        worst = 0.0
        for z in np.linspace(-0.6, 0.6, 25):
            phi = [
                sol.sol(z + d)[0] * gauge_factor(z + d, p)
                for d in (-h, 0.0, h)
            ]
            d2 = (phi[0] - 2 * phi[1] + phi[2]) / h**2
            d1 = (phi[2] - phi[0]) / (2 * h)
            resid = d2 - model_rhs(z, phi[1], d1, lam, p)
            worst = max(worst, abs(resid))
        assert worst < 5e-5


class TestGridFunction:
    def test_sup_distance(self):
        z = np.linspace(0, 1, 5)
        a = GridFunction(z=z, values=np.zeros(5))
        b = GridFunction(z=z, values=np.array([0.0, 0.1, -0.3, 0.0, 0.2]))
        assert a.sup_distance(b) == pytest.approx(0.3)
        assert a.sup_distance(b.values) == pytest.approx(0.3)

    def test_grid_mismatch(self):
        a = GridFunction(z=np.linspace(0, 1, 5), values=np.zeros(5))
        b = GridFunction(z=np.linspace(0, 2, 5), values=np.zeros(5))
        with pytest.raises(DomainError):
            a.sup_distance(b)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            GridFunction(z=np.zeros(3), values=np.zeros(4))
