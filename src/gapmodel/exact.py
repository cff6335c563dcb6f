"""Exact arithmetic for the curvature-expansion engine.

Three small algebraic types:

  PiLaurent  -- finite sums  sum_e  q_e * pi^e  with rational q_e and
                integer (possibly negative) exponents e.
  NPoly      -- polynomials in one symbol with PiLaurent coefficients,
                i.e. finite sums of q * s^d * pi^e.  The dimension n enters
                the expansion only through the coupling A = (n-1)(n-3), so
                the series engine works in s = A, where every coefficient
                has half its degree in n, and rewrites its results into
                s = n with substitute(A_POLY).  Methods named for n (eval_n,
                the n in repr) evaluate or print whichever symbol is held.
  TrigPoly   -- finite sums of  c x^j cos(m x)  and  c x^j sin(m x)  with
                NPoly coefficients c, held as one sparse map from
                (kind, m, j) to c.  Houses the eigenfunction corrections.

PiLaurent and NPoly share one flat form: a map from each term to an integer
numerator over one positive denominator, in lowest terms.  A PiLaurent term
is its exponent e; an NPoly term s^d pi^e is the single integer d * 2^32 + e,
so multiplying two terms adds their keys and a PiLaurent is an NPoly of
degree 0.  Every sum and product of these values, from the operators of
both types to the series engine's integrals, projections, derivatives,
resonant recurrences and order-m forcing, goes through one linear-combination
kernel, _lincomb, which puts  sum x_i * y_i * (a_i / b_i)  over one common
denominator and reduces it to lowest terms once.

Everything here is exact: no floats enter until an eval method is called.
PiLaurent.evalf and PiLaurent.sign stay in integers: pi comes from Machin's
formula as an integer with a proven error bound at P bits, each value as
an integer interval, and P doubles until the interval's ends round to the
same double (evalf, correctly rounded) or share a sign (sign).  Only
eval_mp, for the callers that want mpmath numbers, uses mpmath.
The definite integrals over [-pi/2, pi/2] are done by recursive integration
by parts, so quantities like  int x^2 cos^2 x = pi^3/24 - pi/4  come out as
exact PiLaurent values.

solve_resonant solves  y'' + mode^2 y = rhs  in trig-polynomials with the
Dirichlet and normalization conventions the series engine needs; the
Fredholm condition <rhs, base mode> = 0 is checked exactly first.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, GapModelError, SolvabilityError

# an NPoly key is (d << _SHIFT) + e for the term n^d pi^e, with |e| < _HALF
_SHIFT = 32
_HALF = 1 << (_SHIFT - 1)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if _is_int(x):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _is_int(x):
    """True for an int that is not a bool: the only exponents, degrees,
    frequencies and powers these types take."""
    return isinstance(x, int) and not isinstance(x, bool)


def _make(cls, num, den):
    """A cls value from numerators and a denominator already in lowest terms."""
    out = cls.__new__(cls)
    out.num = num
    out.den = den
    return out


def _reduced(cls, num, den):
    """A cls value from nonzero numerators over den > 0, brought to lowest terms."""
    if not num:
        return _make(cls, num, 1)
    g = math.gcd(den, *num.values())
    if g != 1:
        num = {k: v // g for k, v in num.items()}
        den //= g
    return _make(cls, num, den)


def _lincomb(cls, terms):
    """sum of x * y * (a / b) over terms (x, y, a, b), as one cls value.

    x and y are PiLaurent or NPoly values, y None stands for 1, and a and b
    are integers with b != 0.  Every term goes onto the least common
    denominator of all of them and the sum is reduced to lowest terms once.
    """
    if len(terms) == 1:
        # a lone term whose y is absent or a single term, or whose x is a
        # single term, is a scaled, shifted copy of its other factor
        x, y, a, b = terms[0]
        src = None
        if y is None:
            src, shift, den = x.num, 0, x.den * b
        elif len(y.num) == 1:
            (shift, c), = y.num.items()
            src, a, den = x.num, a * c, x.den * y.den * b
        elif len(x.num) == 1:
            (shift, c), = x.num.items()
            src, a, den = y.num, a * c, x.den * y.den * b
        if src is not None:
            if not a:
                return _make(cls, {}, 1)
            if den < 0:
                a, den = -a, -den
            return _reduced(cls, {k + shift: v * a for k, v in src.items()}, den)
    elif not terms:
        return _make(cls, {}, 1)
    parts = []
    for x, y, a, b in terms:
        den = x.den * b if y is None else x.den * y.den * b
        parts.append((x.num, None if y is None else y.num, a, den))
    # lcm is never negative, so a negative b carries its sign into f below
    common = math.lcm(*[den for _, _, _, den in parts])
    acc = {}
    get = acc.get
    for xnum, ynum, a, den in parts:
        f = a * (common // den)
        if ynum is None:
            for k, v in xnum.items():
                acc[k] = get(k, 0) + v * f
        else:
            for k1, v1 in xnum.items():
                v1 *= f
                for k2, v2 in ynum.items():
                    k = k1 + k2
                    acc[k] = get(k, 0) + v1 * v2
    return _reduced(cls, {k: v for k, v in acc.items() if v}, common)


def _pl(x):
    if isinstance(x, PiLaurent):
        return x
    if isinstance(x, (int, Fraction)) and type(x) is not bool:
        return _make(PiLaurent, {0: x.numerator} if x else {}, x.denominator)
    return NotImplemented


def _np(x):
    if isinstance(x, NPoly):
        return x
    x = _pl(x)
    if x is NotImplemented:
        return x
    if x.num and not -_HALF <= min(x.num) <= max(x.num) < _HALF:
        raise DomainError("NPoly coefficients need pi exponents below 2^31 in size")
    return _make(NPoly, x.num, x.den)


class _Terms:
    """Integer numerators num[key] over one positive denominator den.

    Kept in lowest terms: gcd(den, *num.values()) == 1 and no numerator is
    zero.  The form is canonical, so equal values compare and hash equal
    whatever path built them.  Each subclass names its coercer _coerce;
    a mixed PiLaurent and NPoly operation coerces to NPoly through the
    NPoly operand's reflected operator.
    """

    __slots__ = ("num", "den")

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _lincomb(type(self), [(self, None, 1, 1), (other, None, 1, 1)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _lincomb(type(self), [(self, None, 1, 1), (other, None, -1, 1)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _lincomb(type(self), [(other, None, 1, 1), (self, None, -1, 1)])

    def __neg__(self):
        return _lincomb(type(self), [(self, None, -1, 1)])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _lincomb(type(self), [(self, other, 1, 1)])

    __rmul__ = __mul__


class PiLaurent(_Terms):
    """An exact number sum_e coeff[e] * pi^e (finitely many integer e),
    stored as numerators num[e] over the denominator den."""

    __slots__ = ()
    _coerce = staticmethod(_pl)
    # perfbench's tracer counts PiLaurent operations by rebinding these names
    # in PiLaurent.__dict__, so they are bound here and not only inherited
    __add__ = _Terms.__add__
    __sub__ = _Terms.__sub__
    __rsub__ = _Terms.__rsub__
    __mul__ = _Terms.__mul__
    __neg__ = _Terms.__neg__

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        for e in coeffs:
            if not _is_int(e):
                raise DomainError(f"PiLaurent exponents must be ints, got {e!r}")
        fracs = {e: _as_fraction(v) for e, v in coeffs.items()}
        fracs = {e: v for e, v in fracs.items() if v}
        den = math.lcm(*(v.denominator for v in fracs.values()))
        self.num = {e: v.numerator * (den // v.denominator) for e, v in fracs.items()}
        self.den = den

    @classmethod
    def from_rational(cls, q):
        return cls({0: q})

    @classmethod
    def pi_power(cls, e, coeff=1):
        return cls({e: coeff})

    def _terms(self):
        """(e, coeff[e]) pairs, each coefficient a Fraction in lowest terms."""
        den = self.den
        return [(e, Fraction(v, den)) for e, v in self.num.items()]

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero rational")
            return _lincomb(PiLaurent, [(self, None, other.denominator, other.numerator)])
        if isinstance(other, PiLaurent) and len(other.num) == 1:
            # division by a pure monomial (a/b)*pi^e is exact
            (e, a), = other.num.items()
            return _lincomb(PiLaurent, [(self, _make(PiLaurent, {-e: 1}, 1), other.den, a)])
        raise TypeError("PiLaurent division only by rationals or pi-monomials")

    def evalf(self):
        """The float nearest the exact value, correctly rounded.

        A lone rational term is one correctly rounded int / int division.
        Otherwise the value lies in the integer interval of _bounds at P
        bits, and P doubles until both ends of that interval round to the
        same double; rounding is monotone, so the value rounds there too.
        A term pi^e with e != 0 makes the value transcendental, hence never
        a double nor halfway between two, and some P always settles it.
        """
        num, den = self.num, self.den
        if not num:
            return 0.0
        if len(num) == 1 and 0 in num:
            return _ratio(num[0], den)
        P = _START_BITS
        while True:
            lo, hi = _bounds(num, P)
            a, b = _ratio(lo, den << P), _ratio(hi, den << P)
            # a == b == 0.0 also when the interval holds zero and both ends
            # underflow, so the sign is checked as well
            if a == b and (lo > 0) == (hi > 0):
                return a
            P *= 2

    def sign(self):
        """-1, 0 or +1, the sign of the exact value.

        Zero only for the empty sum; otherwise P doubles until the interval
        of _bounds excludes 0, which it does at some P since pi is
        transcendental.
        """
        num = self.num
        if not num:
            return 0
        P = _START_BITS
        while True:
            lo, hi = _bounds(num, P)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            P *= 2

    def eval_mp(self, mp):
        """Evaluate with an mpmath context (arbitrary precision)."""
        total = mp.mpf(0)
        for e, v in self._terms():
            total += mp.mpf(v.numerator) / mp.mpf(v.denominator) * mp.pi**e
        return total

    def to_json(self):
        return {str(e): [v.numerator, v.denominator] for e, v in sorted(self._terms())}

    def __repr__(self):
        return _format(self.num.items(), self.den) if self.num else "0"


def _format(terms, den):
    """(e, v) terms as ' + '-joined q*pi^e, highest e first, q = v / den in
    lowest terms by one gcd each, written as Fraction writes it."""
    parts = []
    for e, v in sorted(terms, reverse=True):
        g = math.gcd(v, den)
        q = f"{v // g}" if g == den else f"{v // g}/{den // g}"
        parts.append(q if e == 0 else f"{q}*pi" if e == 1 else f"{q}*pi^{e}")
    return " + ".join(parts).replace("+ -", "- ")


def _ratio(a, b):
    """a / b for ints a and b > 0, correctly rounded to a double (int / int
    in CPython), or the infinity of a's sign where the double overflows."""
    try:
        return a / b
    except OverflowError:
        return math.inf if a > 0 else -math.inf


def _arctan_inv(x, W):
    """(s, k): |s - 2^W arctan(1/x)| < k + 1 for the integer x >= 2.

    Sums the first k terms of the Taylor series, each floor(2^W / x^(2j+1))
    // (2j + 1) with an error in [0, 1), up to the first that is 0; the
    alternating tail after it is below that term's true value, under 1.
    """
    power, x2 = (1 << W) // x, x * x
    s = k = 0
    while power:
        term = power // (2 * k + 1)
        s += -term if k & 1 else term
        power //= x2
        k += 1
    return s, k


@lru_cache(maxsize=None)
def _pi_fixed(P):
    """(p, err): integers with |p - 2^P pi| < err, from Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239) at P plus guard bits.

    With _arctan_inv's bounds the guarded sum is off by less than
    E = 16 (k5 + 1) + 4 (k239 + 1) units, and the floor that drops the
    G guard bits adds less than one unit more, so err = 1 + ceil(E / 2^G).
    """
    G = P.bit_length() + 8
    a, k5 = _arctan_inv(5, P + G)
    b, k239 = _arctan_inv(239, P + G)
    E = 16 * (k5 + 1) + 4 * (k239 + 1)
    return (16 * a - 4 * b) >> G, 1 - (-E >> G)


@lru_cache(maxsize=None)
def _pi_power_bounds(e, P):
    """(lo, hi) with lo <= 2^P pi^e <= hi, for an integer e and P >= 8.

    pi^e is the square of pi^(e // 2), times pi if e is odd, and 1/pi
    lies between 2^(2P) over the ends of pi's interval; each product
    rounds its lower end down and its upper end up.
    """
    if e == 0:
        return 1 << P, 1 << P
    if e in (1, -1):
        p, err = _pi_fixed(P)
        if e == 1:
            return p - err, p + err
        sq = 1 << 2 * P
        return sq // (p + err), -(-sq // (p - err))
    lo, hi = _pi_power_bounds(e // 2, P)
    lo, hi = lo * lo >> P, -(-hi * hi >> P)
    if e % 2:
        a, b = _pi_power_bounds(1, P)
        lo, hi = lo * a >> P, -(-hi * b >> P)
    return lo, hi


# the first precision evalf and sign try; it settles every coefficient that
# gapmodel series prints or signs through order 8 in one pass
_START_BITS = 128


def _bounds(num, P):
    """(lo, hi) with lo <= 2^P sum_e num[e] pi^e <= hi, integers."""
    lo = hi = 0
    for e, v in num.items():
        a, b = _pi_power_bounds(e, P)
        if v > 0:
            lo += v * a
            hi += v * b
        else:
            lo += v * b
            hi += v * a
    return lo, hi


class NPoly(_Terms):
    """A polynomial in one symbol with PiLaurent coefficients.

    The symbol is the dimension n in every value the package returns, and
    the coupling A = (n-1)(n-3) inside the series engine.  Stored flat, as
    numerators num[(d << 32) + e] of the terms n^d pi^e over the one
    denominator den; the coefficient of n^d is read back from the terms of
    that degree.  Degrees are ints >= 0 and pi exponents must stay below
    2^31 in size.
    """

    __slots__ = ()
    _coerce = staticmethod(_np)

    def __init__(self, coeffs=None):
        terms = []
        for d, v in (coeffs or {}).items():
            if not _is_int(d) or d < 0:
                raise DomainError(f"NPoly degrees must be ints >= 0, got {d!r}")
            v = _pl(v)
            if v is NotImplemented:
                raise TypeError("NPoly coefficients must be PiLaurent or rational")
            terms.append((_np(v), _make(NPoly, {d << _SHIFT: 1}, 1), 1, 1))
        total = _lincomb(NPoly, terms)
        self.num, self.den = total.num, total.den

    @classmethod
    def from_scalar(cls, v):
        return cls({0: v})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _as_fraction(other))
        raise TypeError("NPoly division only by rationals")

    def degree(self):
        # the largest key holds the largest degree
        return (max(self.num) + _HALF) >> _SHIFT if self.num else -1

    def _degrees(self):
        """{d: {e: numerator of n^d pi^e}} over the one denominator den."""
        parts = {}
        for k, v in self.num.items():
            d = (k + _HALF) >> _SHIFT
            parts.setdefault(d, {})[k - (d << _SHIFT)] = v
        return parts

    def by_degree(self):
        """{d: the PiLaurent coefficient of n^d}, for the nonzero ones."""
        return {d: _reduced(PiLaurent, num, self.den) for d, num in self._degrees().items()}

    def substitute(self, inner):
        """self(inner), the NPoly inner put for the symbol, by Horner's rule."""
        coeffs = self.by_degree()
        out = NPoly()
        for d in range(self.degree(), -1, -1):
            step = [(out, inner, 1, 1)]
            if d in coeffs:
                # a PiLaurent is an NPoly of degree 0, term for term
                step.append((coeffs[d], None, 1, 1))
            out = _lincomb(NPoly, step)
        return out

    def eval_n(self, n):
        """Exact evaluation at a rational n: returns a PiLaurent.

        One pass over the terms: n = p/q puts the term n^d pi^e over the
        denominator q^top of the top degree as p^d q^(top - d) pi^e.
        """
        n = _as_fraction(n)
        p, q = n.numerator, n.denominator
        top = self.degree()
        weight = [p**d * q**(top - d) for d in range(top + 1)]
        acc = {}
        for k, v in self.num.items():
            d = (k + _HALF) >> _SHIFT
            e = k - (d << _SHIFT)
            acc[e] = acc.get(e, 0) + v * weight[d]
        return _reduced(PiLaurent, {e: v for e, v in acc.items() if v}, self.den * q**max(top, 0))

    def evalf(self, n):
        return self.eval_n(n).evalf()

    def eval_mp(self, n, mp):
        return self.eval_n(n).eval_mp(mp)

    def to_json(self):
        return {str(d): v.to_json() for d, v in sorted(self.by_degree().items())}

    def __repr__(self):
        if not self.num:
            return "0"
        parts = []
        for d, num in sorted(self._degrees().items(), reverse=True):
            v = _format(num.items(), self.den)
            parts.append(f"({v})" if d == 0 else f"({v})*n" if d == 1 else f"({v})*n^{d}")
        return " + ".join(parts)


# (n-1)(n-3) = n^2 - 4n + 3, the coupling polynomial of the perturbation
A_POLY = NPoly({2: 1, 1: -4, 0: 3})
N_MINUS_1 = NPoly({1: 1, 0: -1})


# sin(m pi/2), cos(m pi/2) as exact integers, by m mod 4
_SIN_HALF = (0, 1, 0, -1)
_COS_HALF = (1, 0, -1, 0)


@lru_cache(maxsize=None)
def _int_x_cos(j, m):
    """Exact integral of x^j cos(m x) over [-pi/2, pi/2] (m >= 0)."""
    if j % 2 == 1:
        return PiLaurent()
    if m == 0:
        return PiLaurent({j + 1: Fraction(2, (j + 1) * 2**(j + 1))})
    # by parts: [x^j sin(mx)/m] - (j/m) int x^{j-1} sin(mx)
    out = PiLaurent({j: Fraction(2 * _SIN_HALF[m % 4], m * 2**j)})
    if j > 0:
        out = out - _int_x_sin(j - 1, m) * Fraction(j, m)
    return out


@lru_cache(maxsize=None)
def _int_x_sin(j, m):
    """Exact integral of x^j sin(m x) over [-pi/2, pi/2] (m >= 1)."""
    if j % 2 == 0:
        return PiLaurent()
    # by parts: [-x^j cos(mx)/m] + (j/m) int x^{j-1} cos(mx)
    out = PiLaurent({j: Fraction(-2 * _COS_HALF[m % 4], m * 2**j)})
    out = out + _int_x_cos(j - 1, m) * Fraction(j, m)
    return out


def _int_x_trig(kind, j, m):
    """Exact integral of x^j trig(m x) over [-pi/2, pi/2]."""
    return (_int_x_cos if kind == "cos" else _int_x_sin)(j, m)


@lru_cache(maxsize=None)
def _int_x_trig_trig(k1, m1, j, k2, m2):
    """Exact integral of x^j trig1(m1 x) trig2(m2 x) over [-pi/2, pi/2]."""
    return _lincomb(PiLaurent, [(_int_x_trig(kind, j, m), None, sign, 2)
                                for kind, m, sign in _product_to_sum(k1, m1, k2, m2)])


class TrigPoly:
    """sum of c * x^j cos(mx) and c * x^j sin(mx) terms with NPoly coefficients c.

    terms maps ("cos", m >= 0, j) or ("sin", m >= 1, j), m and j ints
    (not bools) with j >= 0, to the coefficient of x^j cos(mx) or
    x^j sin(mx).  Only nonzero coefficients are stored and
    the constructor drops sin(0x) keys, so the form is canonical and equal
    values have equal term maps.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for key, c in (terms or {}).items():
            if (len(key) != 3 or key[0] not in ("cos", "sin")
                    or not all(_is_int(i) and i >= 0 for i in key[1:])):
                raise DomainError(f"bad trig basis {key!r}")
            c = _np(c)
            if c is NotImplemented:
                raise TypeError("TrigPoly coefficients must be NPoly-compatible")
            if c and (key[0] == "cos" or key[1] > 0):
                self.terms[key] = c

    @classmethod
    def basis(cls, kind, m, coeff=1):
        return cls({(kind, m, 0): coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return _trig_lincomb(((self, 1), (other, 1)))

    def __neg__(self):
        return _trig({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return _trig_lincomb(((self, 1), (other, -1)))

    def scale(self, f):
        """Multiply by an NPoly / PiLaurent / rational scalar."""
        f = _np(f)
        if not f:
            return TrigPoly()
        return _trig({key: c * f for key, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        pieces = {}
        for (k1, m1, i), a in self.terms.items():
            for (k2, m2, j), b in other.terms.items():
                for kind, m, sign in _product_to_sum(k1, m1, k2, m2):
                    pieces.setdefault((kind, m, i + j), []).append((a, b, sign, 2))
        return _trig_sum(pieces)

    def derivative(self):
        pieces = {}
        for (kind, m, j), c in self.terms.items():
            if j:
                pieces.setdefault((kind, m, j - 1), []).append((c, None, j, 1))
            if m:
                if kind == "cos":
                    pieces.setdefault(("sin", m, j), []).append((c, None, -m, 1))
                else:
                    pieces.setdefault(("cos", m, j), []).append((c, None, m, 1))
        return _trig_sum(pieces)

    def integrate(self):
        """Exact definite integral over [-pi/2, pi/2]; returns an NPoly."""
        return _lincomb(NPoly, [(c, _int_x_trig(kind, j, m), 1, 1)
                                for (kind, m, j), c in self.terms.items()])

    def project(self, kind, mode, power=0):
        """Exact integral of x^power self(x) trig(mode x) over [-pi/2, pi/2]; an NPoly.

        Equals (self * TrigPoly({(kind, mode, power): 1})).integrate()
        without building the product.
        """
        return _lincomb(NPoly, [(c, _int_x_trig_trig(k, m, j + power, kind, mode), 1, 1)
                                for (k, m, j), c in self.terms.items()])

    def pair(self, other):
        """Exact integral of self(x) other(x) over [-pi/2, pi/2]; an NPoly.

        Equals (self * other).integrate() without building the product:
        one combination of other's projections on self's terms.
        """
        return _lincomb(NPoly, [(c, other.project(kind, m, j), 1, 1)
                                for (kind, m, j), c in self.terms.items()])

    def eval_at_half_pi(self):
        """Exact value at x = pi/2; returns an NPoly."""
        terms = []
        for (kind, m, j), c in self.terms.items():
            tv = (_COS_HALF if kind == "cos" else _SIN_HALF)[m % 4]
            if tv:
                terms.append((c, _make(PiLaurent, {j: 1}, 1), tv, 2**j))
        return _lincomb(NPoly, terms)

    def parity(self):
        """"even", "odd", or None if mixed."""
        # x^j cos(mx) is even iff j is even, x^j sin(mx) iff j is odd
        seen = {"even" if (kind == "cos") == (j % 2 == 0) else "odd"
                for kind, _, j in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def evalf(self, x, n):
        """Float evaluation at point x and integer dimension n."""
        total = 0.0
        for (kind, m, j), c in self.terms.items():
            trig = math.cos(m * x) if kind == "cos" else math.sin(m * x)
            total += c.evalf(n) * x**j * trig
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for kind, m, j in sorted(self.terms):
            xj = "" if j == 0 else "*x" if j == 1 else f"*x^{j}"
            arg = "" if m == 1 else f"{m}*"
            bits.append(f"({self.terms[kind, m, j]!r}){xj}*{kind}({arg}x)")
        return " + ".join(bits)


def _trig(terms):
    """A TrigPoly from a term map already in normal form."""
    out = TrigPoly.__new__(TrigPoly)
    out.terms = terms
    return out


def _trig_sum(pieces):
    """A TrigPoly from {key: _lincomb terms of its coefficient}; zeros dropped."""
    terms = {}
    for key, parts in pieces.items():
        c = _lincomb(NPoly, parts)
        if c:
            terms[key] = c
    return _trig(terms)


def _trig_lincomb(pairs):
    """sum of t * a over (TrigPoly t, integer a) pairs."""
    pieces = {}
    for t, a in pairs:
        for key, c in t.terms.items():
            pieces.setdefault(key, []).append((c, None, a, 1))
    return _trig_sum(pieces)


def _product_to_sum(k1, m1, k2, m2):
    """Expand trig(m1 x)*trig(m2 x) as half-sum pieces (kind, m, sign).

    A sin factor has m >= 1, so no piece is sin(0x).
    """
    if k1 == k2:
        # 2 cos a cos b = cos(a-b) + cos(a+b), 2 sin a sin b = cos(a-b) - cos(a+b)
        return (("cos", abs(m1 - m2), 1), ("cos", m1 + m2, 1 if k1 == "cos" else -1))
    # 2 sin a cos b = sin(a+b) + sin(a-b), with the sin carrying ms
    ms, mc = (m1, m2) if k1 == "sin" else (m2, m1)
    if ms == mc:
        return (("sin", ms + mc, 1),)
    return (("sin", ms + mc, 1), ("sin", abs(ms - mc), 1 if ms > mc else -1))


def trig_integrate(t):
    """Exact integral of a TrigPoly over [-pi/2, pi/2] (public name)."""
    return t.integrate()


def solve_resonant(rhs, mode, parity):
    """Solve y'' + mode^2 y = rhs in trig-polynomials.

    Requirements enforced exactly: <rhs, base mode> = 0 (else SolvabilityError),
    the stated parity, Dirichlet y(+-pi/2) = 0, and the normalization that the
    degree-0 coefficient on the base-mode pair is zero.  Each frequency's
    coefficients come from a triangular recurrence, top degree down, and the
    result is checked exactly before it is returned: the residual
    y'' + mode^2 y - rhs, formed in one pass with one _lincomb per term
    (_residual), must vanish, and so must y(pi/2), and y must keep the parity.
    """
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    base_kind = "cos" if parity == "even" else "sin"
    proj = rhs.project(base_kind, mode)
    if not proj.is_zero():
        raise SolvabilityError(
            f"resonant forcing: <rhs, {base_kind}({mode}x)> = {proj!r} != 0"
        )
    if not rhs.is_zero() and rhs.parity() != parity:
        raise DomainError(f"rhs parity {rhs.parity()!r} does not match {parity!r}")

    degree = {}
    for _, m, j in rhs.terms:
        degree[m] = max(degree.get(m, 0), j)
    terms = {}
    zero = _make(NPoly, {}, 1)
    for m in sorted(degree):
        d = degree[m]
        p = [rhs.terms.get(("cos", m, j), zero) for j in range(d + 1)]
        s = [rhs.terms.get(("sin", m, j), zero) for j in range(d + 1)]
        if m != mode:
            u, v = _solve_offresonant(p, s, d, m, mode)
        else:
            u, v = _solve_onresonant(p, s, d, m)
        for j in range(len(u)):
            if u[j]:
                terms["cos", m, j] = u[j]
            if v[j] and m:
                terms["sin", m, j] = v[j]
    y = _trig(terms)

    # exact verification: the construction is triangular, so check everything
    if not _residual(y, rhs, mode).is_zero():
        raise GapModelError("internal: solve_resonant residual not identically zero")
    if not y.eval_at_half_pi().is_zero():
        raise GapModelError("internal: solve_resonant violates the Dirichlet condition")
    if not y.is_zero() and y.parity() != parity:
        raise GapModelError("internal: solve_resonant parity drift")
    return y


def _residual(y, rhs, mode):
    """y'' + mode^2 y - rhs, one _lincomb per term of the result.

    (x^j cos mx)'' = j(j-1) x^(j-2) cos mx - 2jm x^(j-1) sin mx - m^2 x^j cos mx,
    and the same with sin for cos and +2jm, so each term of y adds to at
    most three terms of the residual.
    """
    pieces = {}
    for (kind, m, j), c in y.terms.items():
        if j > 1:
            pieces.setdefault((kind, m, j - 2), []).append((c, None, j * (j - 1), 1))
        if j and m:
            if kind == "cos":
                pieces.setdefault(("sin", m, j - 1), []).append((c, None, -2 * j * m, 1))
            else:
                pieces.setdefault(("cos", m, j - 1), []).append((c, None, 2 * j * m, 1))
        w = mode * mode - m * m
        if w:
            pieces.setdefault((kind, m, j), []).append((c, None, w, 1))
    for key, c in rhs.terms.items():
        pieces.setdefault(key, []).append((c, None, -1, 1))
    return _trig_sum(pieces)


def _solve_offresonant(p, s, d, m, mode):
    """Coefficients for frequency m != mode, solving top degree down."""
    w = mode * mode - m * m
    u = [None] * (d + 1)
    v = [None] * (d + 1)
    for j in range(d, -1, -1):
        pc = [(p[j], None, 1, w)]
        sc = [(s[j], None, 1, w)]
        if j + 1 <= d:
            t = 2 * m * (j + 1)
            pc.append((v[j + 1], None, -t, w))
            sc.append((u[j + 1], None, t, w))
        if j + 2 <= d:
            t = (j + 2) * (j + 1)
            pc.append((u[j + 2], None, -t, w))
            sc.append((v[j + 2], None, -t, w))
        u[j] = _lincomb(NPoly, pc)
        v[j] = _lincomb(NPoly, sc)
    return u, v


def _solve_onresonant(p, s, d, m):
    """Coefficients for the resonant frequency m == mode (degree raises by one).

    The degree-0 unknowns are the homogeneous pair; the normalization pins
    both to zero (no constant cos(mode x) / sin(mode x) contribution).
    """
    zero = _make(NPoly, {}, 1)
    u = [zero] * (d + 2)
    v = [zero] * (d + 2)
    for j in range(d, -1, -1):
        w = 2 * m * (j + 1)
        pc = [(p[j], None, 1, w)]
        sc = [(s[j], None, -1, w)]
        if j + 2 <= d + 1:
            t = (j + 2) * (j + 1)
            pc.append((u[j + 2], None, -t, w))
            sc.append((v[j + 2], None, t, w))
        v[j + 1] = _lincomb(NPoly, pc)
        u[j + 1] = _lincomb(NPoly, sc)
    return u, v


@lru_cache(maxsize=None)
def sec2_coeffs(M):
    """Exact rationals a_0..a_M with sec^2(x) = sum a_m x^{2m}.

    The reciprocal of the cos^2 power series (cos^2 = (1 + cos 2x)/2, whose
    coefficient of x^{2j} is (-1)^j 4^j / (2 (2j)!) for j >= 1), one order
    at a time: a_M = -sum_{i<M} a_i cos2_{M-i} extends the cached a_0..a_{M-1}.
    """
    if M < 0:
        raise DomainError("order must be >= 0")
    if M == 0:
        return (Fraction(1),)
    a = sec2_coeffs(M - 1)
    acc = Fraction(0)
    for i in range(M):
        j = M - i
        acc += a[i] * Fraction((-1) ** j * 4**j, 2 * math.factorial(2 * j))
    return a + (-acc,)
