"""Kernel correctness: closed forms, the series crossover, and pole handling."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gapmodel.errors import PoleError
from gapmodel.kernels import (
    W_SERIES,
    collocation_ladder,
    cs,
    cs_array,
    cs_at,
    sn,
    tn,
    tn_array,
)


def mp_sn(s, K):
    s, K = mpmath.mpf(s), mpmath.mpf(K)
    if K > 0:
        r = mpmath.sqrt(K)
        return mpmath.sin(r * s) / r
    if K < 0:
        r = mpmath.sqrt(-K)
        return mpmath.sinh(r * s) / r
    return s


def mp_cs(s, K):
    s, K = mpmath.mpf(s), mpmath.mpf(K)
    if K > 0:
        return mpmath.cos(mpmath.sqrt(K) * s)
    if K < 0:
        return mpmath.cosh(mpmath.sqrt(-K) * s)
    return mpmath.mpf(1)


def test_reference_values():
    assert sn(1.0, -1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert sn(1.0, -1.0) == pytest.approx(1.1752011936438014, rel=1e-15)
    assert cs(2.0, -1.0) == pytest.approx(3.7621956910836314, rel=1e-15)
    assert tn(1.0, -1.0) == pytest.approx(-0.7615941559557649, rel=1e-15)
    assert sn(0.5, 4.0) == pytest.approx(math.sin(1.0) / 2.0, rel=1e-15)
    assert cs(0.5, 4.0) == pytest.approx(math.cos(1.0), rel=1e-15)
    assert tn(0.5, 4.0) == pytest.approx(2.0 * math.tan(1.0), rel=1e-15)
    # flat case is polynomial
    assert sn(0.7, 0.0) == 0.7
    assert cs(0.7, 0.0) == 1.0
    assert tn(0.7, 0.0) == 0.0


@given(
    s=st.floats(min_value=-3.0, max_value=3.0),
    K=st.floats(min_value=-4.0, max_value=4.0),
)
def test_high_precision_oracle(s, K):
    """Relative error <= 1e-12 against 50-digit evaluation, both K signs."""
    if K > 0 and abs(s) >= math.pi / (2 * math.sqrt(K)) * 0.999:
        return
    with mpmath.workdps(50):
        ref_sn = float(mp_sn(s, K))
        ref_cs = float(mp_cs(s, K))
    assert sn(s, K) == pytest.approx(ref_sn, rel=1e-12, abs=1e-300)
    assert cs(s, K) == pytest.approx(ref_cs, rel=1e-12)


@given(
    s=st.floats(min_value=0.0, max_value=3.0),
    K=st.floats(min_value=-4.0, max_value=4.0),
)
@example(s=3.0, K=-4.0)
@example(s=2.75, K=-3.0)
def test_pythagorean_identity(s, K):
    """cs^2 + K sn^2 = 1 holds to a few ulps of cs^2 + |K| sn^2, for every K sign.

    For K < 0 the two terms are each of size cosh^2(sqrt(-K) s), up to about
    4e4 here, and cancel down to 1; their rounding alone leaves an absolute
    residual of order eps (cs^2 + |K| sn^2). The bound is therefore relative
    to that scale: one ulp in each of cs and sn plus the roundings of the
    division by sqrt(|K|), the squarings and the sum come to about 2.5 eps,
    and 4 eps leaves headroom. For K >= 0 the scale is about 1, so the bound
    is about 1e-15 absolute. The pinned examples sit in the ill-conditioned
    corner (large s, K < 0), so it runs every time whatever the search draws.
    The relative accuracy of sn and cs themselves is checked by
    test_high_precision_oracle.
    """
    if K > 0 and abs(s) >= math.pi / (2 * math.sqrt(K)):
        return
    c, n = cs(s, K), sn(s, K)
    scale = c**2 + abs(K) * n**2
    assert abs(c**2 + K * n**2 - 1.0) <= 4 * 2.0**-52 * scale


@given(s=st.floats(min_value=1e-3, max_value=3.0))
def test_continuity_across_flat_case(s):
    """Crossing K = 0 is smooth: |sn(s, eps) - sn(s, -eps)| ~ eps s^3 / 3.

    The difference of the two branches is exactly eps s^3/3 + O(eps^2), so
    the sharp bound is that, not an absolute constant.
    """
    eps = 1e-9
    gap = abs(sn(s, eps) - sn(s, -eps))
    assert gap <= eps * s**3 / 3.0 * (1.0 + 1e-6) + 1e-15


def test_series_window_agrees_with_closed_form():
    # straddle the switch: w just below and just above W_SERIES
    for K in (0.9, -0.9):
        s_lo = math.sqrt(W_SERIES / abs(K)) * 0.99
        s_hi = math.sqrt(W_SERIES / abs(K)) * 1.01
        with mpmath.workdps(50):
            for s in (s_lo, s_hi):
                assert sn(s, K) == pytest.approx(float(mp_sn(s, K)), rel=1e-14)
                assert cs(s, K) == pytest.approx(float(mp_cs(s, K)), rel=1e-14)
                ref_tn = float(K * mp_sn(s, K) / mp_cs(s, K))
                assert tn(s, K) == pytest.approx(ref_tn, rel=1e-13)


def test_tn_is_K_sn_over_cs():
    for s in (0.2, 0.9, 1.4):
        for K in (1.1, -2.0, 0.3, -1e-6, 1e-6):
            if K > 0 and s >= math.pi / (2 * math.sqrt(K)):
                continue
            assert tn(s, K) == pytest.approx(K * sn(s, K) / cs(s, K), rel=1e-13, abs=1e-18)


def test_pole_raises():
    with pytest.raises(PoleError):
        tn(math.pi / 2, 1.0)
    with pytest.raises(PoleError):
        tn(2.0, 1.0)
    # cs itself is entire; the scalar form only guards tn
    assert cs(2.0, 1.0) == pytest.approx(math.cos(2.0), rel=1e-15)


def test_array_forms_match_scalar():
    s = np.linspace(-1.4, 1.4, 401)
    for K in (1.1, -1.1, 0.0, 1e-7):
        cref = np.array([cs(x, K) for x in s])
        tref = np.array([tn(x, K) for x in s])
        np.testing.assert_allclose(cs_array(s, K), cref, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(tn_array(s, K), tref, rtol=1e-15, atol=0.0)


def test_array_pole_guard():
    with pytest.raises(PoleError):
        tn_array(np.array([0.0, 1.6]), 1.0)
    # empty input should not trip the guard
    assert tn_array(np.array([]), 1.0).size == 0


# K = 0, +-1e-9, +-1e-3 (|K s^2| crosses W_SERIES at s = 0.316 inside [0, 1/2]),
# +-1, -1600 and just below the cap pi^2 for D = 1
@pytest.mark.parametrize(
    "K", [0.0, 1e-9, -1e-9, 1e-3, -1e-3, 1.0, -1.0, -1600.0, math.pi**2 * (1 - 1e-9)]
)
def test_cs_at_matches_cs_exactly(K):
    points = [0.0, 0.5, -0.5, 0.1, -0.27, 0.4999]
    if K != 0.0:
        edge = math.sqrt(W_SERIES / abs(K))
        points += [edge * (1 - 1e-12), edge, edge * (1 + 1e-12)]
    cs_K = cs_at(K)
    for s in points:
        for x in (s, np.float64(s)):
            assert cs_K(x) == cs(x, K)


class TestCollocationLadder:
    """collocation_ladder, the one ladder rule of both collocation seeds."""

    def test_seed_is_the_larger_size_and_ladder_the_difference(self):
        sizes = []

        def eigenvalue(N):
            sizes.append(N)
            return {32: 3.0, 48: 2.5}[N]

        assert collocation_ladder(eigenvalue) == (2.5, 0.5)
        assert sizes == [32, 48]

    @pytest.mark.parametrize("at", [32, 48])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    def test_a_value_that_is_not_finite_gives_nan(self, at, bad):
        seed, ladder = collocation_ladder(lambda N: bad if N == at else 1.0)
        assert math.isnan(seed) and math.isnan(ladder)

    @pytest.mark.parametrize("at", [32, 48])
    def test_a_failed_eigensolve_gives_nan(self, at):
        sizes = []

        def eigenvalue(N):
            sizes.append(N)
            if N == at:
                raise np.linalg.LinAlgError("singular matrix")
            return 1.0

        seed, ladder = collocation_ladder(eigenvalue)
        assert math.isnan(seed) and math.isnan(ladder)
        assert sizes[-1] == at  # no size after the failed one is solved

    def test_other_errors_propagate(self):
        def eigenvalue(N):
            raise ValueError("not a LinAlgError")

        with pytest.raises(ValueError, match="not a LinAlgError"):
            collocation_ladder(eigenvalue)
