"""The exact expansion engine: coefficient values, the reference comparison,
the fifth-order analysis, and consistency with the numeric solvers."""

import hashlib
import json
import math
from fractions import Fraction

import mpmath
import pytest

from gapmodel import exact, series
from gapmodel.errors import DomainError
from gapmodel.exact import A_POLY, NPoly, PiLaurent, TrigPoly
from gapmodel.series import (
    check_reference,
    coefficient_sign,
    eval_gap_series,
    eval_series,
    eval_series_mp,
    gap5_factors,
    gap_order5_sign_change,
    gap_series,
    lambda_series,
    modulus_expansion,
)
from gapmodel.spectral import eigen_shoot


def factor_decomposition(coeff, m, linear_weight):
    """Split a kappa^m coefficient into the A^2/576 and A/weight convention.

    The coefficient is quadratic in A = (n-1)(n-3) with no constant term;
    evaluating at A = 3 (n = 0) and A = 8 (n = 5) determines both weights.
    The fourth-order factors are quoted against A/24, the fifth against
    A/(2 pi).
    """
    v1 = coeff.eval_n(0)
    v2 = coeff.eval_n(5)
    det = Fraction(9 * 8 - 3 * 64)
    alpha = (v1 * 8 - v2 * 3) / det
    beta = (v2 * 9 - v1 * 64) / det
    assert A_POLY * A_POLY * alpha + A_POLY * beta == coeff
    shift = PiLaurent.pi_power(2 * m - 2)
    w = PiLaurent.pi_power(1, 2) if linear_weight == "2pi" else PiLaurent.from_rational(24)
    return ((alpha * shift * 576).evalf(), (beta * shift * w).evalf())


class TestLowOrders:
    def test_order_zero(self):
        assert lambda_series("first", 0).kappa_coefficient(0) == NPoly(
            {0: PiLaurent.pi_power(2)}
        )
        assert lambda_series("second", 0).kappa_coefficient(0) == NPoly(
            {0: PiLaurent.pi_power(2, 4)}
        )

    def test_linear_coefficient(self):
        # both branches share the same linear-in-kappa term -(n-1)/2
        want = NPoly({1: Fraction(-1, 2), 0: Fraction(1, 2)})
        assert lambda_series("first", 1).kappa_coefficient(1) == want
        assert lambda_series("second", 1).kappa_coefficient(1) == want

    def test_gap_through_order_three(self):
        gs = gap_series(3)
        assert gs.kappa_coefficient(0) == NPoly({0: PiLaurent.pi_power(2, 3)})
        assert gs.kappa_coefficient(1).is_zero()
        assert gs.kappa_coefficient(2) == A_POLY * PiLaurent({-2: Fraction(3, 32)})
        assert not gs.kappa_coefficient(3).is_zero()

    def test_reference_agreement_low_orders(self):
        report = check_reference(3)
        assert report["matches"], "no comparisons ran"
        assert all(report["matches"].values())

    def test_branch_validation(self):
        with pytest.raises(DomainError):
            lambda_series("third", 2)
        with pytest.raises(DomainError):
            lambda_series("first", -1)
        with pytest.raises(DomainError):
            lambda_series("first", 9)

    def test_integral_float_order(self):
        # an integral float is the int it equals, and shares its cache
        assert lambda_series("first", 3.0) == lambda_series("first", 3)
        assert gap_series(2.0) == gap_series(2)
        assert eval_series((5, 1.0, 1.0), 3.0) == eval_series((5, 1.0, 1.0), 3)
        assert eval_gap_series((5, 1.0, 1.0), 2.0) == eval_gap_series((5, 1.0, 1.0), 2)

    @pytest.mark.parametrize("bad", [True, False, 2.5, "3", 9.0], ids=repr)
    def test_order_is_an_int(self, bad):
        # a bool or a non-integer order is a DomainError, not a TypeError
        # or the order the bool equals
        with pytest.raises(DomainError):
            lambda_series("first", bad)
        with pytest.raises(DomainError):
            gap_series(bad)


class TestOrderFour:
    def test_reference_agreement(self):
        report = check_reference(4)
        assert all(report["matches"].values())
        assert "lambda_gap_4" in report["matches"]

    @pytest.mark.parametrize(
        "branch,want",
        [
            ("first", (-0.64, 0.61)),
            ("second", (-0.603, 1.912)),
            ("gap", (0.037, 1.301)),
        ],
    )
    def test_decimal_factors(self, branch, want):
        if branch == "gap":
            coeff = gap_series(4).kappa_coefficient(4)
        else:
            coeff = lambda_series(branch, 4).kappa_coefficient(4)
        a2, a1 = factor_decomposition(coeff, 4, "24")
        assert a2 == pytest.approx(want[0], abs=5e-3)
        assert a1 == pytest.approx(want[1], abs=5e-3)


class TestOrderFive:
    def test_inner_products_match(self):
        report = check_reference(5)
        inner = {k: v for k, v in report["matches"].items() if k.startswith("inner_")}
        assert len(inner) == 6
        assert all(inner.values())

    def test_second_branch_discrepancy_is_characterized(self):
        report = check_reference(5)
        d = report["discrepancies"]["lambda_second_5"]
        assert d["printed_matches_engine"] is False
        assert d["difference_is_12_over_pi_times_y22_y23"] is True
        # the decimal typo note names both printed values
        joined = " ".join(report["decimal_notes"])
        assert "0.36024" in joined and "0.35024" in joined

    def test_gap_factors(self):
        g = gap5_factors()
        assert g["A2_factor"] == pytest.approx(-0.2836359657074432, rel=1e-12)
        assert g["A_factor"] == pytest.approx(0.2528990877987356, rel=1e-12)
        # decomposition helper agrees with the dedicated routine
        a2, a1 = factor_decomposition(gap_series(5).kappa_coefficient(5), 5, "2pi")
        assert a2 == pytest.approx(g["A2_factor"], rel=1e-13)
        assert a1 == pytest.approx(g["A_factor"], rel=1e-13)

    def test_sign_change_location(self):
        assert gap_order5_sign_change() == (12, 11)

    def test_individual_signs(self):
        c5 = gap_series(5).kappa_coefficient(5)
        assert coefficient_sign(c5, 11) == 1
        assert coefficient_sign(c5, 12) == -1
        # the coefficient vanishes identically when A = 0
        assert coefficient_sign(c5, 1) == 0
        assert coefficient_sign(c5, 3) == 0


class TestEvaluation:
    def test_collapse_at_n3(self):
        # every correction past the linear one vanishes at n = 3
        for M in (1, 2, 5):
            got = eval_series((3, 0.7, 1.3), M)
            assert got == pytest.approx(math.pi**2 / 1.3**2 - 0.7, rel=1e-14)
            got2 = eval_series((3, 0.7, 1.3), M, branch="second")
            assert got2 == pytest.approx(4 * math.pi**2 / 1.3**2 - 0.7, rel=1e-14)

    def test_frozen_gap_value(self):
        assert eval_gap_series((2, 0.5, 1.0), 5) == pytest.approx(
            29.6063398067523, rel=1e-12
        )

    def test_mp_matches_float(self):
        for branch in ("first", "second"):
            f = eval_series((5, 1.2, 1.1), 4, branch=branch)
            m = float(eval_series_mp((5, 1.2, 1.1), 4, branch=branch))
            assert f == pytest.approx(m, rel=1e-13)

    @pytest.mark.parametrize("dps", [-3, 0, 2.5, True, "50"])
    def test_mp_refuses_a_bad_precision(self, dps):
        # dps = -3 and 0 once returned 16.0 and 6.0 here, against about 7.938
        with pytest.raises(DomainError, match="dps must be an integer >= 1"):
            eval_series_mp((5, 1.0, 1.0), 3, dps=dps)
        assert eval_series_mp((5, 1.0, 1.0), 3, dps=50.0) == eval_series_mp((5, 1.0, 1.0), 3)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_coefficients_are_correctly_rounded(self, n):
        """Every kappa^m coefficient to order 12 is the float nearest its
        exact value, here within 1e-15 of a 60-digit evaluation."""
        g = gap_series(12, cap=12)
        for branch in (g.first, g.second, g):
            for m in range(13):
                c = branch.kappa_coefficient(m)
                with mpmath.workdps(60):
                    ref = float(c.eval_mp(n, mpmath))
                assert c.evalf(n) == pytest.approx(ref, rel=1e-15, abs=0), (branch, m)

    def test_truncation_error_scaling(self):
        """Halving kappa divides the truncation error by ~2^(M+1)."""
        D = 1.0
        for M in (1, 2):
            errs = []
            for kappa in (1e-2, 5e-3):
                K = kappa / D**2
                lam = eigen_shoot((2, K, D), 1).eigenvalue
                errs.append(abs(lam - eval_series((2, K, D), M)))
            ratio = errs[0] / errs[1]
            expect = 2.0 ** (M + 1)
            assert expect / 3.0 < ratio < expect * 3.0


def kappa_digest(M):
    """sha256 of every exact kappa^m coefficient of both branches through
    order M, as JSON."""
    g = gap_series(M, cap=20)
    doc = json.dumps(
        {b: [getattr(g, b).kappa_coefficient(m).to_json() for m in range(M + 1)]
         for b in ("first", "second")},
        sort_keys=True,
    )
    return hashlib.sha256(doc.encode()).hexdigest()


def test_order_twelve_coefficients_are_frozen():
    """The digest of the Fraction-per-term engine."""
    assert kappa_digest(12) == (
        "fd65a0ab41234d458902ebeae6a51a7092dcc1ae83afdae8085f82f4133ae065"
    )


def test_order_sixteen_coefficients_are_frozen():
    """The digest of the engine that solved in n, before it solved in
    A = (n-1)(n-3)."""
    assert kappa_digest(16) == (
        "46338af911afe39c16e2067455c6717139faba8fe8d50f40f75d3574a09d1757"
    )


def clear_memo_caches():
    """Empty every memo cache in series and exact, as a new process has them."""
    for module in (series, exact):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


_LAM = NPoly({1: PiLaurent({0: Fraction(1, 4), -2: 3})})


@pytest.mark.parametrize("F", [
    TrigPoly({("cos", 1, 0): 2, ("cos", 1, 2): Fraction(-1, 3), ("cos", 3, 0): 1}),
    TrigPoly({("cos", 1, 2): NPoly({1: 5}), ("sin", 2, 1): 1}),
    TrigPoly({("cos", 1, 0): _LAM, ("cos", 1, 2): 1}),
    TrigPoly({("cos", 1, 0): _LAM}),
    TrigPoly(),
], ids=["key held", "key absent", "key cancels", "only the key", "zero"])
def test_base_update_equals_subtracting_the_mode(F):
    # the engine changes only F's base-mode term, in place of F - lam * base
    base = TrigPoly.basis("cos", 1)
    before = dict(F.terms)
    got = series._minus_base(F, ("cos", 1, 0), _LAM)
    assert got == F - base.scale(_LAM)
    assert all(c for c in got.terms.values())
    assert F.terms == before  # F itself is left as it was


class TestOrderCache:
    """Each order of each branch is solved once, whatever M, cap or caller
    asks for it; a longer expansion extends the cached shorter one."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = series.solve_resonant

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(series, "solve_resonant", counting)
        clear_memo_caches()
        return calls

    def test_each_order_is_solved_once(self, solves):
        gap_series(8)
        assert len(solves) == 16
        gap_series(5)
        gap_series(3)
        lambda_series("first", 8, cap=20)
        check_reference(5)
        assert len(solves) == 16

    def test_cleared_caches_start_cold(self, solves):
        gap_series(8)
        clear_memo_caches()
        solves.clear()
        gap_series(5)
        assert len(solves) == 10

    def test_prefixes_equal_cold_results(self, solves):
        gap_series(8)
        prefixes = {M: gap_series(M) for M in range(9)}
        for M in (0, 3, 5, 8):
            clear_memo_caches()
            assert gap_series(M) == prefixes[M]
            assert lambda_series("second", M) == prefixes[M].second


class TestModulusExpansion:
    def test_vanishes_at_n3(self):
        rep = modulus_expansion((3, 1.0, 1.0))
        assert rep["identically_zero"]
        assert max(abs(v) for v in rep["k2_term"]) == 0.0

    def test_zero_at_origin_and_negative_inside(self):
        rep = modulus_expansion((2, 1.0, 1.0))
        assert rep["value_at_zero"] == 0.0
        assert rep["negative_interior"]
        assert rep["sign_changes"] == 0
        # near the end the bracket returns to zero from below, no blowup
        assert -1e-3 < rep["endpoint_value"] < 0.0

    def test_sign_flips_with_dimension_factor(self):
        # (n-1)(n-3) < 0 at n = 2 makes the correction positive; > 0 at n = 7
        low = modulus_expansion((2, 1.0, 1.0))
        high = modulus_expansion((7, 0.5, 2.0))
        assert min(low["k2_term"][1:-1]) > 0.0
        assert max(high["k2_term"][1:-1]) < 0.0
