"""Exact arithmetic layer: ring axioms, symbolic calculus, and the ODE solver
for trig-polynomial right-hand sides."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gapmodel import exact
from gapmodel.errors import DomainError, GapModelError, SolvabilityError
from gapmodel.exact import (
    A_POLY,
    N_MINUS_1,
    NPoly,
    PiLaurent,
    TrigPoly,
    sec2_coeffs,
    solve_resonant,
    trig_integrate,
)

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)

pilaurent_st = st.dictionaries(
    st.integers(min_value=-5, max_value=5), fractions_st, max_size=4
).map(PiLaurent)

npoly_st = st.dictionaries(
    st.integers(min_value=0, max_value=4), pilaurent_st, max_size=3
).map(NPoly)


class TestPiLaurent:
    @given(a=pilaurent_st, b=pilaurent_st, c=pilaurent_st)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + PiLaurent() == a
        assert a * PiLaurent.from_rational(1) == a
        assert a - a == PiLaurent()

    @given(a=pilaurent_st, b=pilaurent_st)
    def test_evaluation_is_a_homomorphism(self, a, b):
        with mpmath.workdps(60):
            lhs = (a * b + a).eval_mp(mpmath)
            rhs = a.eval_mp(mpmath) * b.eval_mp(mpmath) + a.eval_mp(mpmath)
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -40

    @given(a=pilaurent_st)
    def test_float_agrees_with_mp(self, a):
        with mpmath.workdps(40):
            ref = float(a.eval_mp(mpmath))
        assert a.evalf() == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_float_through_deep_cancellation(self):
        # q pi - p with p/q a close rational approximation of pi: the two
        # terms, near 1e20, cancel to near 1e-20
        with mpmath.workdps(60):
            approx = Fraction(str(+mpmath.pi)).limit_denominator(10**20)
        x = PiLaurent({1: approx.denominator, 0: -approx.numerator})
        with mpmath.workdps(80):
            ref = float(x.eval_mp(mpmath))
        assert 0 < abs(ref) < 1e-15
        assert x.evalf() == ref

    def test_division_by_rational(self):
        x = PiLaurent({2: Fraction(3, 4), 0: Fraction(-1, 2)})
        assert x / 2 == PiLaurent({2: Fraction(3, 8), 0: Fraction(-1, 4)})
        assert (x / Fraction(3, 4)) * Fraction(3, 4) == x

    def test_repr_examples(self):
        x = PiLaurent({0: Fraction(3, 8), -2: Fraction(-45, 16)})
        assert repr(x) == "3/8 - 45/16*pi^-2"
        assert repr(PiLaurent()) == "0"
        assert repr(PiLaurent.pi_power(1)) == "1*pi"

    def test_json_is_sorted_and_exact(self):
        x = PiLaurent({2: Fraction(1, 3), -4: Fraction(-7, 5)})
        assert x.to_json() == {"-4": [-7, 5], "2": [1, 3]}

    def test_pi_power_constructor(self):
        assert PiLaurent.pi_power(-1, 2).evalf() == pytest.approx(2 / math.pi)

    @pytest.mark.parametrize("exponent", [1.5, 2.0, "2", True, Fraction(2)], ids=repr)
    def test_non_int_exponent_rejected(self, exponent):
        # 1.5 used to print as 1*pi and "2" as 1*pi^2
        with pytest.raises(DomainError, match="exponents"):
            PiLaurent({exponent: 1})


def mp_value(x, bits=4000):
    """The exact value of a PiLaurent in mpmath at bits of precision."""
    with mpmath.workprec(bits):
        return x.eval_mp(mpmath)


def near_pi_terms(den_max):
    """q pi - p with p/q the best rational approximation of pi with
    q <= den_max: two terms of size about q that cancel to about 1/q."""
    with mpmath.workprec(1000):
        approx = Fraction(int(mpmath.pi * 2**900), 2**900).limit_denominator(den_max)
    return PiLaurent({1: approx.denominator, 0: -approx.numerator})


# values near the midpoint between two doubles: (2 m + 1) / 2^54 lies halfway
# between m / 2^53 and (m + 1) / 2^53, and c pi^e / 2^shift moves it off the tie
near_midpoint_st = st.builds(
    lambda m, c, e, shift, scale: PiLaurent({
        0: Fraction(2 * m + 1, 2**54) * Fraction(2) ** scale,
        e: Fraction(c, 2**shift) * Fraction(2) ** scale}),
    st.integers(min_value=2**52, max_value=2**53 - 1),
    st.integers(min_value=-5, max_value=5).filter(bool),
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=56, max_value=400),
    st.integers(min_value=-60, max_value=60),
)
near_pi_st = st.builds(near_pi_terms, st.integers(min_value=1, max_value=10**40))
wide_pilaurent_st = st.dictionaries(
    st.integers(min_value=-20, max_value=20),
    st.fractions(max_denominator=10**30).filter(bool).map(lambda q: q * 10**30),
    min_size=1, max_size=6,
).map(PiLaurent)


class TestIntegerEvaluation:
    """evalf and sign from the integer pi, against mpmath at 4,000 bits."""

    def test_near_midpoint_example_rounds_up(self):
        # 1 + 2^-53 is the tie between 1 and 1 + 2^-52, and pi / 2^100 lifts
        # the value above it; summing in 96-bit floats rounded to 1.0
        x = PiLaurent({0: Fraction(2**53 + 1, 2**53), 1: Fraction(1, 2**100)})
        assert x.evalf() == 1.0000000000000002
        assert (-x).evalf() == -1.0000000000000002

    @pytest.mark.parametrize("P", [8, 53, 128, 1000, 4096])
    def test_machin_pi_within_its_bound(self, P):
        p, err = exact._pi_fixed(P)
        with mpmath.workprec(P + 200):
            assert abs(p - mpmath.pi * mpmath.mpf(2) ** P) < err <= 2

    @pytest.mark.parametrize("e", [-30, -7, -1, 0, 1, 2, 9, 31])
    def test_pi_power_bounds_enclose(self, e):
        lo, hi = exact._pi_power_bounds(e, 128)
        with mpmath.workprec(800):
            exact_value = mpmath.pi**e * mpmath.mpf(2) ** 128
            assert lo <= exact_value <= hi
        # a few units of 2^-128 in the value, relative to pi^e where it exceeds 1
        assert hi - lo <= (4 * abs(e) + 4) * max(1, hi >> 128)

    @pytest.mark.parametrize("x, expected", [
        (PiLaurent({0: Fraction(3, 7)}), 3 / 7),
        (PiLaurent({0: 2**53 + 1}), 9007199254740992.0),
        (PiLaurent({0: 10**400}), math.inf),
        (PiLaurent({0: -(10**400), 1: 1}), -math.inf),
        (PiLaurent({700: 1}), math.inf),
        (PiLaurent({-700: -1}), -0.0),
    ], ids=["rational", "rational-tie", "overflow", "overflow-negative",
            "pi-power-overflow", "underflow"])
    def test_exact_edges(self, x, expected):
        got = x.evalf()
        assert got == expected and math.copysign(1, got) == math.copysign(1, expected)

    @given(x=st.one_of(pilaurent_st, wide_pilaurent_st, near_pi_st, near_midpoint_st))
    @example(x=PiLaurent({0: Fraction(2**53 + 1, 2**53), 1: Fraction(-1, 2**100)}))
    def test_evalf_is_correctly_rounded(self, x):
        # float() rounds an mpf to the nearest double
        assert x.evalf() == float(mp_value(x))

    @given(x=st.one_of(pilaurent_st, wide_pilaurent_st, near_pi_st, near_midpoint_st))
    def test_sign_matches_mpmath(self, x):
        value = mp_value(x)
        assert x.sign() == (0 if x.is_zero() else 1 if value > 0 else -1)
        assert value != 0 or x.is_zero()

    @given(x=npoly_st, n=st.integers(min_value=-50, max_value=200))
    def test_coefficient_sign_matches_mpmath(self, x, n):
        from gapmodel.series import coefficient_sign

        value = x.eval_n(n)
        expected = 0 if value.is_zero() else 1 if mp_value(value) > 0 else -1
        assert coefficient_sign(x, n) == expected

    @given(den_max=st.integers(min_value=10, max_value=10**60))
    def test_sign_of_near_cancelling_terms(self, den_max):
        # q pi - p has the sign of pi - p/q, which the convergents alternate
        x = near_pi_terms(den_max)
        with mpmath.workprec(4000):
            expected = 1 if mpmath.pi * x.num[1] > -x.num[0] else -1
        assert x.sign() == expected == (1 if x.evalf() > 0 else -1)


# denominators built from a few small primes, so that terms share factors
# and sums and products reduce
shared_fraction_st = st.builds(
    lambda a, i, j, k: Fraction(a, 2**i * 3**j * 5**k),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)
shared_dict_st = st.dictionaries(
    st.integers(min_value=-4, max_value=4), shared_fraction_st, max_size=4
)
nonzero_fraction_st = shared_fraction_st.filter(bool)


def _as_dict(x):
    """A PiLaurent read back as a plain {e: Fraction} dict."""
    return {int(e): Fraction(p, q) for e, (p, q) in x.to_json().items()}


def _ref_add(a, b, c):
    """a + c * b for term dicts and a rational c, zero terms dropped."""
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + c * v
    return {e: v for e, v in out.items() if v}


def _ref_mul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _assert_normal(x, ref):
    """x equals the dict-of-Fraction reference and is in lowest terms."""
    ref = {e: v for e, v in ref.items() if v}
    assert _as_dict(x) == ref
    assert x.to_json() == {str(e): [v.numerator, v.denominator]
                           for e, v in sorted(ref.items())}
    assert x == PiLaurent(ref) and hash(x) == hash(PiLaurent(ref))
    assert bool(x) == bool(ref)
    assert x.den > 0 and 0 not in x.num.values()
    assert math.gcd(x.den, *x.num.values()) == 1


class TestPiLaurentNormalForm:
    """Integer numerators over one denominator give the same values as
    plain dict-of-Fraction arithmetic, in one canonical form."""

    @given(a=shared_dict_st, b=shared_dict_st, q=nonzero_fraction_st,
           e=st.integers(min_value=-3, max_value=3))
    @example(a={0: Fraction(1, 2), 1: Fraction(1, 6)},
             b={0: Fraction(-1, 2), 1: Fraction(1, 3)}, q=Fraction(-3, 2), e=0)
    @example(a={2: Fraction(1, 4)}, b={2: Fraction(-1, 4)}, q=Fraction(1, 4), e=-2)
    @example(a={}, b={-1: Fraction(5, 6)}, q=Fraction(-1), e=1)
    @example(a={1: Fraction(3, 10)}, b={0: Fraction(1, 6), -2: Fraction(-5, 4)},
             q=Fraction(10, 3), e=-1)
    @example(a={0: Fraction(2, 3), 3: Fraction(4, 9)}, b={0: Fraction(-2, 3)},
             q=Fraction(6, 5), e=3)
    def test_arithmetic_matches_fractions(self, a, b, q, e):
        x, y = PiLaurent(a), PiLaurent(b)
        _assert_normal(x, a)
        _assert_normal(x + y, _ref_add(a, b, 1))
        _assert_normal(x - y, _ref_add(a, b, -1))
        _assert_normal(q - x, _ref_add({0: q}, a, -1))
        _assert_normal(-x, {k: -v for k, v in a.items()})
        _assert_normal(x * y, _ref_mul(a, b))
        _assert_normal(x * q, {k: v * q for k, v in a.items()})
        _assert_normal(x / q, {k: v / q for k, v in a.items()})
        _assert_normal(x / PiLaurent.pi_power(e, q),
                       {k - e: v / q for k, v in a.items()})

    @given(a=shared_dict_st, b=shared_dict_st, q=nonzero_fraction_st)
    @example(a={0: Fraction(1, 2)}, b={0: Fraction(1, 2)}, q=Fraction(2))
    @example(a={1: Fraction(1, 3), -1: Fraction(2, 9)},
             b={1: Fraction(2, 3), 0: Fraction(1, 5)}, q=Fraction(-9, 4))
    def test_equal_values_are_equal_objects(self, a, b, q):
        x, y = PiLaurent(a), PiLaurent(b)
        for other in ((x + y) - y, x * q / q, (x * y + x) - x * y):
            assert other == x and hash(other) == hash(x)
            assert other.num == x.num and other.den == x.den

    @given(a=shared_dict_st)
    @example(a={0: Fraction(7, 10), 2: Fraction(-3, 20)})
    def test_zero_results_are_falsy(self, a):
        x = PiLaurent(a)
        for zero in (x - x, x + (-x), x * 0, x * PiLaurent()):
            assert not zero and zero.is_zero()
            assert zero == PiLaurent() == 0
            assert hash(zero) == hash(PiLaurent())
            assert zero.to_json() == {} and repr(zero) == "0"


# NPoly terms n^d pi^e as a plain {(d, e): Fraction} dict
npoly_dict_st = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=-3, max_value=3)),
    shared_fraction_st, max_size=5,
)


def _npoly(terms):
    by_degree = {}
    for (d, e), v in terms.items():
        by_degree.setdefault(d, {})[e] = v
    return NPoly({d: PiLaurent(c) for d, c in by_degree.items()})


def _npoly_dict(x):
    """An NPoly read back as a plain {(d, e): Fraction} dict."""
    return {(int(d), int(e)): Fraction(p, q)
            for d, c in x.to_json().items() for e, (p, q) in c.items()}


def _ref_npoly_mul(a, b):
    out = {}
    for (d1, e1), v1 in a.items():
        for (d2, e2), v2 in b.items():
            k = (d1 + d2, e1 + e2)
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _ref_npoly_eval(a, n):
    out = {}
    for (d, e), v in a.items():
        out[e] = out.get(e, 0) + v * Fraction(n) ** d
    return out


def _assert_npoly_normal(x, ref):
    """x equals the dict-of-Fraction reference and is in lowest terms."""
    ref = {k: v for k, v in ref.items() if v}
    assert isinstance(x, NPoly) and _npoly_dict(x) == ref
    assert x == _npoly(ref) and hash(x) == hash(_npoly(ref))
    assert bool(x) == bool(ref)
    assert x.degree() == max((d for d, _ in ref), default=-1)
    assert x.den > 0 and 0 not in x.num.values()
    assert math.gcd(x.den, *x.num.values()) == 1


class TestNPolyNormalForm:
    """The flat NPoly form gives the same values as dict-of-Fraction
    arithmetic over the terms n^d pi^e, in one canonical form."""

    @given(a=npoly_dict_st, b=npoly_dict_st, p=shared_dict_st, q=nonzero_fraction_st,
           e=st.integers(min_value=-3, max_value=3), n=st.integers(min_value=-3, max_value=12))
    @example(a={(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 6)},
             b={(0, 0): Fraction(-1, 2), (1, 1): Fraction(1, 3)},
             p={0: Fraction(1, 2), 1: Fraction(1, 3)}, q=Fraction(-3, 2), e=0, n=2)
    @example(a={(2, 2): Fraction(1, 4)}, b={(2, 2): Fraction(-1, 4)},
             p={-2: Fraction(3, 4)}, q=Fraction(1, 4), e=-2, n=5)
    @example(a={}, b={(3, -1): Fraction(5, 6)}, p={}, q=Fraction(-1), e=1, n=0)
    @example(a={(1, 0): Fraction(1), (0, 0): Fraction(-1)},
             b={(1, 0): Fraction(1), (0, 0): Fraction(-3)},
             p={0: Fraction(1, 6), -2: Fraction(-5, 4)}, q=Fraction(10, 3), e=-1, n=3)
    @example(a={(0, 3): Fraction(2, 3), (2, 3): Fraction(4, 9), (1, -3): Fraction(-8, 45)},
             b={(0, 3): Fraction(-2, 3)}, p={3: Fraction(6, 5), -3: Fraction(-6, 5)},
             q=Fraction(6, 5), e=3, n=-3)
    def test_arithmetic_matches_fractions(self, a, b, p, q, e, n):
        x, y = _npoly(a), _npoly(b)
        _assert_npoly_normal(x, a)
        _assert_npoly_normal(x + y, _ref_add(a, b, 1))
        _assert_npoly_normal(x - y, _ref_add(a, b, -1))
        _assert_npoly_normal(q - x, _ref_add({(0, 0): q}, a, -1))
        _assert_npoly_normal(-x, {k: -v for k, v in a.items()})
        _assert_npoly_normal(x * y, _ref_npoly_mul(a, b))
        _assert_npoly_normal(x * q, {k: v * q for k, v in a.items()})
        _assert_npoly_normal(x / q, {k: v / q for k, v in a.items()})
        _assert_npoly_normal(x * PiLaurent.pi_power(e, q),
                             {(d, k + e): v * q for (d, k), v in a.items()})
        pd = {(0, k): v for k, v in p.items()}
        _assert_npoly_normal(PiLaurent(p) * x, _ref_npoly_mul(a, pd))
        # mixed sums coerce to NPoly from either side
        _assert_npoly_normal(PiLaurent(p) + x, _ref_add(pd, a, 1))
        _assert_npoly_normal(x + PiLaurent(p), _ref_add(a, pd, 1))
        _assert_npoly_normal(PiLaurent(p) - x, _ref_add(pd, a, -1))
        _assert_npoly_normal(x - PiLaurent(p), _ref_add(a, pd, -1))
        _assert_normal(x.eval_n(n), _ref_npoly_eval(a, n))

    @given(a=npoly_dict_st, b=npoly_dict_st, q=nonzero_fraction_st)
    @example(a={(0, 0): Fraction(1, 2)}, b={(0, 0): Fraction(1, 2)}, q=Fraction(2))
    @example(a={(1, 1): Fraction(1, 3), (2, -1): Fraction(2, 9)},
             b={(1, 1): Fraction(2, 3), (0, 0): Fraction(1, 5)}, q=Fraction(-9, 4))
    def test_equal_values_are_equal_objects(self, a, b, q):
        x, y = _npoly(a), _npoly(b)
        for other in ((x + y) - y, x * q / q, (x * y + x) - x * y, y * x - (y - 1) * x):
            assert other == x and hash(other) == hash(x)
            assert other.num == x.num and other.den == x.den
        # a degree-0 NPoly and its PiLaurent coefficient are one value
        c = PiLaurent({e: v for (d, e), v in a.items() if d == 0})
        assert NPoly.from_scalar(c) == c and hash(NPoly.from_scalar(c)) == hash(c)

    @given(a=npoly_dict_st)
    @example(a={(0, 0): Fraction(7, 10), (2, 2): Fraction(-3, 20)})
    def test_zero_results_are_falsy(self, a):
        x = _npoly(a)
        for zero in (x - x, x + (-x), x * 0, x * NPoly(), x * PiLaurent(), x * Fraction(0)):
            assert not zero and zero.is_zero()
            assert zero == NPoly() == 0
            assert hash(zero) == hash(NPoly())
            assert zero.to_json() == {} and repr(zero) == "0"
            assert zero.degree() == -1 and zero.eval_n(4) == PiLaurent()


def _fold(terms, mul):
    """sum of x * y * (a / b) over dict-of-Fraction terms, y None for 1,
    one partial sum at a time; mul multiplies two term dicts."""
    total = {}
    for x, y, a, b in terms:
        xy = x if y is None else mul(x, y)
        total = _ref_add(total, xy, Fraction(a, b))
    return total


def _assert_kernel_matches_fold(cls, terms, ref, key):
    """_lincomb over terms equals the reference dict ref, whose term keys
    key() maps to the flat ones, in its canonical flat form."""
    got = exact._lincomb(cls, terms)
    den = math.lcm(*(v.denominator for v in ref.values()))
    num = {key(k): v.numerator * (den // v.denominator) for k, v in ref.items()}
    want = exact._make(cls, num, den)
    assert type(got) is cls
    assert got == want and hash(got) == hash(want)
    assert got.num == want.num and got.den == want.den
    assert got.den > 0 and 0 not in got.num.values()
    assert math.gcd(got.den, *got.num.values()) == 1


kernel_scale_st = st.tuples(st.integers(min_value=-20, max_value=20),
                            st.integers(min_value=-12, max_value=12).filter(bool))
pl_term_st = st.tuples(shared_dict_st, st.none() | shared_dict_st, kernel_scale_st)
# an NPoly term's y factor: None, an NPoly {(d, e): q} or a PiLaurent ("pi", {e: q})
np_term_st = st.tuples(
    npoly_dict_st,
    st.none() | npoly_dict_st | shared_dict_st.map(lambda d: ("pi", d)),
    kernel_scale_st,
)


def _np_factor(y):
    """An NPoly term's y factor as a value and as a {(d, e): q} dict."""
    if y is None:
        return None, None
    if isinstance(y, tuple):
        return PiLaurent(y[1]), {(0, e): v for e, v in y[1].items()}
    return _npoly(y), y


def _npoly_key(de):
    return (de[0] << 32) + de[1]


class TestLinearCombinationKernel:
    """_lincomb equals a fold of dict-of-Fraction sums and products over its
    terms and returns the canonical form: lowest terms, no zero numerator."""

    @given(terms=st.lists(pl_term_st, max_size=6))
    @example(terms=[({0: Fraction(1, 3), 1: Fraction(2)}, None, (1, 2)),
                    ({0: Fraction(1, 3), 1: Fraction(2)}, None, (-1, 2))])
    @example(terms=[({0: Fraction(1, 6), -2: Fraction(-5, 4)}, {2: Fraction(5, 9)}, (3, 1))])
    @example(terms=[({1: Fraction(3, 10)}, None, (1, -3)),
                    ({1: Fraction(1, 10), 0: Fraction(2)}, {0: Fraction(1, 2), 1: Fraction(1)},
                     (-4, -7))])
    @example(terms=[({0: Fraction(1, 2)}, None, (1, 1)), ({0: Fraction(1, 2)}, None, (1, 1)),
                    ({2: Fraction(1, 3)}, None, (6, 4))])
    @example(terms=[])
    # one term with a = 0, with and without a single-term y
    @example(terms=[({0: Fraction(1, 3), 1: Fraction(2)}, None, (0, 5))])
    @example(terms=[({0: Fraction(1, 6), -2: Fraction(-5, 4)}, {2: Fraction(5, 9)}, (0, 3))])
    # one term whose y is a single term, with b < 0
    @example(terms=[({0: Fraction(1, 6), -2: Fraction(-5, 4)}, {1: Fraction(-2, 9)}, (3, -4))])
    # a zero x, alone and beside another term
    @example(terms=[({}, {1: Fraction(1, 2)}, (3, 2))])
    @example(terms=[({}, None, (1, 1)), ({1: Fraction(1, 4)}, {0: Fraction(2), 1: Fraction(1)}, (1, 3))])
    def test_pilaurent_sums_match_fold(self, terms):
        ref = _fold([(x, y, a, b) for x, y, (a, b) in terms], _ref_mul)
        _assert_kernel_matches_fold(PiLaurent, [
            (PiLaurent(x), None if y is None else PiLaurent(y), a, b)
            for x, y, (a, b) in terms], ref, int)

    @given(terms=st.lists(np_term_st, max_size=5))
    @example(terms=[({(1, 0): Fraction(1), (0, 0): Fraction(-1)}, None, (1, 4)),
                    ({(1, 0): Fraction(-1), (0, 0): Fraction(1)}, None, (1, 4))])
    @example(terms=[({(2, 2): Fraction(1, 4), (0, -1): Fraction(2, 3)}, ("pi", {-1: Fraction(3)}),
                     (5, 2))])
    @example(terms=[({(0, 3): Fraction(2, 3)}, {(1, 0): Fraction(1), (0, 0): Fraction(-3)},
                     (1, -5)), ({(1, 3): Fraction(2, 3)}, None, (-2, -3))])
    @example(terms=[({(0, 0): Fraction(1, 4)}, None, (2, 1)), ({(0, 0): Fraction(1, 4)}, None, (2, 1))])
    # one term with a = 0; a single-term y with b < 0; a zero x
    @example(terms=[({(2, 2): Fraction(1, 4)}, {(1, -1): Fraction(3)}, (0, 7))])
    @example(terms=[({(2, 2): Fraction(1, 4), (0, 1): Fraction(5, 6)}, {(1, -1): Fraction(3, 4)},
                     (2, -9))])
    @example(terms=[({}, ("pi", {2: Fraction(1, 3)}), (4, 3))])
    def test_npoly_sums_match_fold(self, terms):
        dicts, values = [], []
        for x, y, (a, b) in terms:
            y_value, y_dict = _np_factor(y)
            dicts.append((x, y_dict, a, b))
            values.append((_npoly(x), y_value, a, b))
        _assert_kernel_matches_fold(NPoly, values, _fold(dicts, _ref_npoly_mul), _npoly_key)

    @given(a=npoly_dict_st)
    @example(a={(0, 0): Fraction(7, 10), (2, 2): Fraction(-3, 20), (2, 0): Fraction(1, 5)})
    @example(a={(1, 0): Fraction(1), (0, 0): Fraction(-3)})
    @example(a={})
    def test_one_pass_eval_n_matches_per_degree_path(self, a):
        x = _npoly(a)
        for n in (0, 2, 5, Fraction(7, 2)):
            want = PiLaurent()
            for d, v in x.by_degree().items():
                want = want + v * Fraction(n) ** d
            got = x.eval_n(n)
            assert got == want and got.num == want.num and got.den == want.den
            assert got.den > 0 and 0 not in got.num.values()


class TestNPoly:
    @given(a=npoly_st, b=npoly_st, c=npoly_st)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == NPoly()

    @given(a=npoly_st, b=npoly_st, n=st.integers(min_value=-3, max_value=12))
    def test_eval_n_is_a_homomorphism(self, a, b, n):
        assert (a * b).eval_n(n) == a.eval_n(n) * b.eval_n(n)
        assert (a + b).eval_n(n) == a.eval_n(n) + b.eval_n(n)

    def test_named_polynomials(self):
        # (n-1)(n-3) and n-1, used all over the series
        assert A_POLY.eval_n(1) == PiLaurent()
        assert A_POLY.eval_n(3) == PiLaurent()
        assert A_POLY.eval_n(5) == PiLaurent.from_rational(8)
        assert N_MINUS_1.eval_n(4) == PiLaurent.from_rational(3)
        assert A_POLY.degree() == 2

    @pytest.mark.parametrize("coeffs", [{-1: 1}, {2: 1, -1: 1}, {1.5: 1}, {Fraction(2): 1},
                                        {True: 1}])
    def test_non_polynomial_degree_rejected(self, coeffs):
        with pytest.raises(DomainError, match="degrees"):
            NPoly(coeffs)

    def test_repr(self):
        p = NPoly({2: Fraction(1, 2), 0: Fraction(-3)})
        r = repr(p)
        assert "n^2" in r and "1/2" in r


class TestSubstitution:
    """The series engine solves in A = (n-1)(n-3) and rewrites into n by
    substitute(A_POLY); the rewrite must commute with evaluation."""

    @given(p=npoly_st, q=fractions_st)
    @example(p=NPoly(), q=Fraction(2))
    @example(p=NPoly({3: PiLaurent({-2: 1})}), q=Fraction(1))
    def test_rewrite_into_n_matches_evaluation_at_A(self, p, q):
        in_n = p.substitute(A_POLY)
        assert in_n.eval_n(q) == p.eval_n((q - 1) * (q - 3))
        assert in_n.degree() == 2 * p.degree() if p else not in_n
        assert in_n.den > 0 and 0 not in in_n.num.values()


def _mp_eval_trigpoly(coeffs, x):
    """Independent high-precision evaluation of a TrigPoly at x, from its
    term map with each coefficient already evaluated at one n."""
    total = mpmath.mpf(0)
    for (kind, m, j), c in coeffs.items():
        trig = mpmath.cos(m * x) if kind == "cos" else mpmath.sin(m * x)
        total += c * x**j * trig
    return total


def trig_terms(parity):
    """Strategy for a TrigPoly of definite parity (small degrees)."""

    def build(entries):
        t = TrigPoly()
        for kind, m, j, coeff in entries:
            # x^j cos(mx) is even iff j even; x^j sin(mx) even iff j odd
            if parity == "even":
                j = 2 * j if kind == "cos" else 2 * j + 1
            else:
                j = 2 * j + 1 if kind == "cos" else 2 * j
            t = t + TrigPoly({(kind, m, j): coeff})
        return t

    entry = st.tuples(
        st.sampled_from(["cos", "sin"]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )
    return st.lists(entry, min_size=1, max_size=4).map(build)


any_trig_st = st.one_of(trig_terms("even"), trig_terms("odd"))


class TestTrigPoly:
    @given(t=trig_terms("even"))
    def test_integral_matches_quadrature(self, t):
        exact = trig_integrate(t)
        with mpmath.workdps(40):
            for n in (2, 5):
                coeffs = {key: c.eval_mp(n, mpmath) for key, c in t.terms.items()}
                ref = mpmath.quad(
                    lambda x: _mp_eval_trigpoly(coeffs, x),
                    [-mpmath.pi / 2, 0, mpmath.pi / 2],
                )
                got = exact.eval_mp(n, mpmath)
                assert abs(got - ref) < mpmath.mpf(10) ** -25

    @given(t=trig_terms("odd"))
    def test_derivative_inverts_under_integration(self, t):
        """Fundamental theorem: integral of t' over the interval equals the
        boundary difference; for odd t that is 2 t(pi/2)."""
        val = trig_integrate(t.derivative())
        end = t.eval_at_half_pi()
        assert val == end * 2

    def test_product_reduction(self):
        # cos^2 x = (1 + cos 2x)/2, integrated over the interval: pi/2
        c = TrigPoly.basis("cos", 1)
        assert trig_integrate(c * c) == NPoly({0: PiLaurent.pi_power(1, Fraction(1, 2))})
        s = TrigPoly.basis("sin", 2)
        assert trig_integrate(s * s) == NPoly({0: PiLaurent.pi_power(1, Fraction(1, 2))})
        # orthogonality of the two base modes
        assert trig_integrate(c * s).is_zero()

    @given(t=any_trig_st, kind=st.sampled_from(["cos", "sin"]),
           mode=st.integers(min_value=1, max_value=5))
    @example(t=TrigPoly({("cos", 1, 2): 1}), kind="cos", mode=1)
    @example(t=TrigPoly({("sin", 3, 1): 1}), kind="sin", mode=3)
    def test_projection_equals_integral_of_product(self, t, kind, mode):
        assert t.project(kind, mode) == trig_integrate(t * TrigPoly.basis(kind, mode))

    @given(t=any_trig_st, kind=st.sampled_from(["cos", "sin"]),
           mode=st.integers(min_value=1, max_value=5), power=st.integers(0, 4))
    @example(t=TrigPoly({("cos", 0, 8): Fraction(62, 315)}), kind="cos", mode=1, power=0)
    def test_weighted_projection_equals_integral_of_product(self, t, kind, mode, power):
        weight = TrigPoly({(kind, mode, power): 1})
        assert t.project(kind, mode, power) == trig_integrate(t * weight)

    @given(a=any_trig_st, b=any_trig_st)
    @example(a=TrigPoly.basis("cos", 1), b=TrigPoly.basis("cos", 1))
    @example(a=TrigPoly(), b=TrigPoly.basis("sin", 2))
    def test_pairing_equals_integral_of_product(self, a, b):
        assert a.pair(b) == trig_integrate(a * b)
        assert b.pair(a) == a.pair(b)

    @given(t=trig_terms("even"))
    def test_parity_detection(self, t):
        if not t.is_zero():
            assert t.parity() == "even"

    def test_float_evaluation(self):
        t = TrigPoly({("cos", 1, 2): Fraction(3)})
        assert t.evalf(0.7, 2) == pytest.approx(3 * 0.7**2 * math.cos(0.7), rel=1e-15)


def _assert_trig_normal(t):
    """t stores only nonzero NPoly coefficients and no sin(0x) key."""
    for (kind, m, j), c in t.terms.items():
        assert kind in ("cos", "sin") and m >= 0 and j >= 0
        assert (kind, m) != ("sin", 0)
        assert isinstance(c, NPoly) and not c.is_zero()


class TestTrigPolyNormalForm:
    """Every result keeps the term map canonical, so equal values have
    equal term maps whatever path built them."""

    @given(a=any_trig_st, b=any_trig_st, q=nonzero_fraction_st)
    @example(a=TrigPoly.basis("sin", 2), b=TrigPoly.basis("cos", 2), q=Fraction(1, 2))
    @example(a=TrigPoly({("cos", 1, 2): 1}), b=TrigPoly.basis("cos", 1).scale(-1),
             q=Fraction(-3))
    def test_results_are_normal(self, a, b, q):
        for t in (a + b, a - b, a * b, b * a, a.scale(q), a.scale(A_POLY),
                  a.derivative(), (a * b).derivative()):
            _assert_trig_normal(t)
        assert (a - a).terms == {} and (a * b - b * a).terms == {}
        assert a.scale(0).terms == {}

    @given(a=any_trig_st, b=any_trig_st, c=any_trig_st)
    @example(a=TrigPoly.basis("sin", 1), b=TrigPoly.basis("cos", 1),
             c=TrigPoly.basis("cos", 1).scale(-1))
    def test_one_value_built_in_two_orders(self, a, b, c):
        assert (a + b) - b == a
        assert (a + b) * c == a * c + b * c
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    def test_sin_zero_and_zero_coefficients_dropped(self):
        assert TrigPoly({("sin", 0, 2): 5, ("cos", 1, 0): 0}).terms == {}
        s, c = TrigPoly.basis("sin", 2), TrigPoly.basis("cos", 2)
        assert (s * c).terms == {("sin", 4, 0): NPoly.from_scalar(Fraction(1, 2))}

    @pytest.mark.parametrize("key", [("tan", 1, 0), ("cos", -1, 0), ("sin", 1, -1),
                                     ("cos", 1), ("cos", 1.5, 0), ("cos", True, 0),
                                     ("sin", 1, 2.0), ("cos", 0, False), ("sin", "1", 0)])
    def test_bad_basis_key_rejected(self, key):
        # a float frequency used to build cos(1.5*x), and True to read as 1
        with pytest.raises(DomainError):
            TrigPoly({key: 1})


@pytest.mark.parametrize("build", [
    lambda c: PiLaurent({0: c}),
    lambda c: NPoly({0: c}),
    lambda c: TrigPoly({("cos", 1, 0): c}),
], ids=["PiLaurent", "NPoly", "TrigPoly"])
@pytest.mark.parametrize("coeff", [True, False, 1.0], ids=repr)
def test_non_rational_coefficient_rejected(build, coeff):
    # a bool is rejected like a float; True used to read as the coefficient 1
    with pytest.raises(TypeError):
        build(coeff)


class TestResonantSolver:
    @given(F=trig_terms("even"))
    def test_even_solutions(self, F):
        self._check(F, 1, "even", "cos")

    @given(F=trig_terms("odd"))
    def test_odd_solutions(self, F):
        self._check(F, 2, "odd", "sin")

    @staticmethod
    def _check(F, mode, parity, kind):
        base = TrigPoly.basis(kind, mode)
        lam = trig_integrate(F * base) * PiLaurent.pi_power(-1, 2)
        rhs = F - base.scale(lam)
        y = solve_resonant(rhs, mode, parity)
        # the ODE holds exactly
        assert (y.derivative().derivative() + y.scale(mode * mode) - rhs).is_zero()
        # boundary and normalization
        assert y.eval_at_half_pi().is_zero()
        deg0 = y.terms.get((kind, mode, 0), NPoly())
        assert deg0.is_zero()

    @given(y=trig_terms("even"), rhs=trig_terms("even"),
           mode=st.integers(min_value=1, max_value=4))
    @example(y=TrigPoly({("cos", 1, 3): 2, ("sin", 1, 2): 1}),
             rhs=TrigPoly({("cos", 0, 2): 1}), mode=1)
    def test_one_pass_residual_even(self, y, rhs, mode):
        self._check_residual(y, rhs, mode)

    @given(y=trig_terms("odd"), rhs=trig_terms("odd"),
           mode=st.integers(min_value=1, max_value=4))
    @example(y=TrigPoly({("sin", 2, 2): 3, ("cos", 2, 1): 1}),
             rhs=TrigPoly.basis("sin", 2), mode=2)
    def test_one_pass_residual_odd(self, y, rhs, mode):
        self._check_residual(y, rhs, mode)

    @staticmethod
    def _check_residual(y, rhs, mode):
        # the residual solve_resonant checks, against the operators' own
        want = y.derivative().derivative() + y.scale(mode * mode) - rhs
        got = exact._residual(y, rhs, mode)
        assert got == want
        _assert_trig_normal(got)

    @pytest.mark.parametrize("solver", ["_solve_offresonant", "_solve_onresonant"])
    def test_perturbed_solution_is_caught(self, solver, monkeypatch):
        # one wrong coefficient in either recurrence must not reach a caller
        real = getattr(exact, solver)

        def perturbed(*args):
            u, v = real(*args)
            u[-1] = u[-1] + Fraction(1, 7)
            return u, v

        F = TrigPoly({("cos", 1, 2): 1, ("cos", 3, 2): Fraction(2, 3), ("sin", 3, 1): 5})
        base = TrigPoly.basis("cos", 1)
        rhs = F - base.scale(F.project("cos", 1) * PiLaurent.pi_power(-1, 2))
        solve_resonant(rhs, 1, "even")
        monkeypatch.setattr(exact, solver, perturbed)
        with pytest.raises(GapModelError, match="residual"):
            solve_resonant(rhs, 1, "even")

    def test_resonant_forcing_rejected(self):
        with pytest.raises(SolvabilityError):
            solve_resonant(TrigPoly.basis("cos", 1), 1, "even")

    def test_parity_mismatch_rejected(self):
        rhs = TrigPoly.basis("sin", 3)  # odd, orthogonal to cos(x)
        with pytest.raises(DomainError):
            solve_resonant(rhs, 1, "even")


def test_sec2_series():
    a = sec2_coeffs(5)
    assert list(a[:5]) == [
        Fraction(1),
        Fraction(1),
        Fraction(2, 3),
        Fraction(17, 45),
        Fraction(62, 315),
    ]
    # numeric check at a point inside the radius of convergence
    x = 0.4
    approx = sum(float(ai) * x ** (2 * i) for i, ai in enumerate(a))
    assert approx == pytest.approx(1 / math.cos(x) ** 2, abs=2e-6)
    with pytest.raises(DomainError):
        sec2_coeffs(-1)


def test_sec2_series_extends_the_reciprocal():
    # each order extends the cached shorter series; the result equals the
    # whole reciprocal of the cos^2 series taken from scratch at every M
    cos2 = [Fraction(1)] + [Fraction((-1) ** j * 4**j, 2 * math.factorial(2 * j))
                            for j in range(1, 25)]
    for M in range(25):
        sec2_coeffs.cache_clear()
        a = [Fraction(1)]
        for m in range(1, M + 1):
            a.append(-sum(a[i] * cos2[m - i] for i in range(m)))
        assert sec2_coeffs(M) == tuple(a)
