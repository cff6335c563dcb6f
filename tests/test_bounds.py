"""Two-sided eigenvalue bounds: the comparison floor, the variational ceiling,
and the explicit n = 2 closed forms."""

import math

import pytest

from gapmodel.bounds import (
    bound_report,
    explicit_n2_bounds,
    lambda_lower,
    lambda_upper_rayleigh,
)
from gapmodel.errors import DomainError, HypothesisError
from gapmodel.model import ModelParams
from gapmodel.spectral import eigen_shoot
from conftest import random_valid_pair

P211 = ModelParams(n=2, K=1.0, D=1.0)


class TestLower:
    def test_formula(self):
        p = ModelParams(n=4, K=0.5, D=1.3)
        assert lambda_lower(p, 1) == pytest.approx(
            (math.pi / 1.3) ** 2 - 3 * 0.5 / 2, rel=1e-15
        )
        assert lambda_lower(p, 2) == pytest.approx(
            (2 * math.pi / 1.3) ** 2 - 3 * 0.5 / 2, rel=1e-15
        )

    def test_hypotheses(self):
        with pytest.raises(HypothesisError):
            lambda_lower(ModelParams(n=2, K=1.0, D=1.0), 1)  # needs n >= 3
        with pytest.raises(HypothesisError):
            lambda_lower(ModelParams(n=4, K=-1.0, D=1.0), 1)  # needs K > 0
        with pytest.raises(DomainError, match="index must be 1 or 2"):
            lambda_lower(ModelParams(n=4, K=1.0, D=1.0), 3)


class TestIndex:
    """Every bound takes the index as spectral does: 1 or 2, from an int or an
    integral float, and DomainError for anything else, a bool included."""

    P = ModelParams(n=5, K=1.0, D=1.0)

    @pytest.mark.parametrize("bound", [lambda_lower, lambda_upper_rayleigh, bound_report])
    @pytest.mark.parametrize("index", [True, 1.5, "1", 3, 0])
    def test_rejected(self, bound, index):
        with pytest.raises(DomainError, match="index must be 1 or 2"):
            bound(self.P, index)

    def test_integral_float(self):
        assert lambda_upper_rayleigh(self.P, 2.0) == lambda_upper_rayleigh(self.P, 2)
        assert lambda_lower(self.P, 2.0) == lambda_lower(self.P, 2)
        report = bound_report(self.P, 2.0)
        assert report == bound_report(self.P, 2)
        assert type(report.target) is int


class TestRayleigh:
    def test_frozen_values(self):
        assert lambda_upper_rayleigh(P211, 1) == pytest.approx(
            9.360979699189178, rel=1e-13
        )
        assert lambda_upper_rayleigh(P211, 2) == pytest.approx(
            38.959472820782999, rel=1e-13
        )

    def test_is_an_upper_bound(self):
        for n in (2, 4, 6):
            p = ModelParams(n=n, K=0.8, D=1.2)
            for idx in (1, 2):
                lam = eigen_shoot(p, idx).eigenvalue
                assert lam <= lambda_upper_rayleigh(p, idx) + 1e-10

    def test_small_curvature_slope(self):
        # the trial function is exact at K = 0, so the bound's K-slope matches
        # the eigenvalue's -(n-1)/2 there
        for n in (2, 5, 8):
            p = ModelParams(n=n, K=1e-8, D=1.0)
            slope = (lambda_upper_rayleigh(p, 1) - math.pi**2) / 1e-8
            assert slope == pytest.approx(-(n - 1) / 2.0, rel=1e-6)


class TestSandwich:
    def test_saturates_at_n3(self):
        p = ModelParams(n=3, K=1.0, D=1.0)
        lo = lambda_lower(p, 1)
        hi = lambda_upper_rayleigh(p, 1)
        exact = math.pi**2 - 1.0
        assert lo == pytest.approx(exact, rel=1e-15)
        assert hi == pytest.approx(exact, rel=1e-12)

    def test_random_parameters(self, rng):
        for n in (3, 4, 5, 8):
            for _ in range(3):
                D = rng.uniform(0.4, 2.5)
                K = rng.uniform(0.05, 0.9) * math.pi**2 / D**2
                p = ModelParams(n=n, K=K, D=D)
                for idx in (1, 2):
                    rep = bound_report(p, idx)
                    lam = eigen_shoot(p, idx).eigenvalue
                    slack = 1e-9 * max(1.0, abs(lam))
                    assert rep.lower - slack <= lam <= rep.upper + slack
                    assert rep.lower_method == "comparison"
                    assert rep.upper_method == "rayleigh"

    def test_report_target(self):
        rep = bound_report(ModelParams(n=5, K=1.0, D=1.0), 2)
        assert rep.target == 2
        assert rep.lower < rep.upper


class TestExplicitN2:
    def test_pair_of_reports(self):
        first, second = explicit_n2_bounds(P211)
        assert first.target == 1 and second.target == 2
        assert first.lower == -math.inf
        assert first.upper_method == "quartic minorant"
        assert "n >= 3" in first.lower_method

    def test_frozen_values(self):
        first, second = explicit_n2_bounds(P211)
        assert first.upper == pytest.approx(9.3609816411619562, rel=1e-14)
        assert second.upper == pytest.approx(38.959479360281136, rel=1e-14)

    # (K, D) -> the bits of both quartic bounds, from the two formulas that
    # _n2_upper's rows of constants replaced
    N2_UPPER_HEX = {
        (0.5, 1.0): ("0x1.33c29e6e88475p+3", "0x1.39ca705c56884p+5"),
        (1.0, 1.0): ("0x1.2b8d295ee7e78p+3", "0x1.37ad0383ccc18p+5"),
        (2.0, 2.0): ("0x1.413b8db41e8a3p+0", "0x1.0b32cce68795ap+3"),
        (9.8, 1.0): ("0x1.c4e12c173e32cp+1", "0x1.effac0e85396dp+4"),
        (0.01, 3.0): ("0x1.17741a18aac3fp+0", "0x1.186a157acfab3p+2"),
        (3.7, 0.4): ("0x1.de8850d991b5dp+5", "0x1.e9b319fb41f1bp+7"),
    }

    @pytest.mark.parametrize("K,D", list(N2_UPPER_HEX))
    def test_pinned_bits(self, K, D):
        first, second = explicit_n2_bounds(ModelParams(n=2, K=K, D=D))
        assert (first.upper.hex(), second.upper.hex()) == self.N2_UPPER_HEX[K, D]

    def test_ordering_against_other_routes(self):
        # eigenvalue <= variational bound <= quartic closed form
        lam1 = eigen_shoot(P211, 1).eigenvalue
        lam2 = eigen_shoot(P211, 2).eigenvalue
        first, second = explicit_n2_bounds(P211)
        assert lam1 <= lambda_upper_rayleigh(P211, 1) <= first.upper
        assert lam2 <= lambda_upper_rayleigh(P211, 2) <= second.upper

    def test_upper_bound_over_kappa_range(self):
        for kappa in (0.1, 1.0, 3.0, 6.0):
            D = 1.4
            p = ModelParams(n=2, K=kappa / D**2, D=D)
            first, second = explicit_n2_bounds(p)
            assert eigen_shoot(p, 1).eigenvalue <= first.upper
            assert eigen_shoot(p, 2).eigenvalue <= second.upper

    def test_wrong_dimension_rejected(self):
        with pytest.raises(HypothesisError):
            explicit_n2_bounds(ModelParams(n=3, K=1.0, D=1.0))
        with pytest.raises(HypothesisError):
            explicit_n2_bounds(ModelParams(n=2, K=-1.0, D=1.0))
