"""Curvature expansion of the model eigenvalues, exact to any requested order.

The shifted problem at D = pi reads

    -y'' + (A/4) K sec^2(sqrt(K) x) y = lam~ y,   A = (n-1)(n-3),

with lam~ = lam_bar + (n-1)^2 K / 4.  Expanding sec^2, y, lam~ in powers of K
gives at order m

    y_m'' + mode^2 y_m + lam_m * base = F_m,
    F_m = (A/4) sum_{i+j=m-1} a_i x^{2i} y_j  -  sum_{0<i<m} lam_i y_{m-i},

and projecting on the base mode isolates lam_m = (2/pi) <F_m, base>.  The
corrections y_m come from solve_resonant, normalized so no constant multiple
of the base mode appears, which pins the order >= 4 coefficients.

General D enters through kappa = K D^2:

    D^2 lam_bar = sum_m c_m kappa^m,
    c_0 = mode^2 pi^2,  c_1 = lam_1 - (n-1)^2/4,  c_m = lam_m pi^{2-2m}.

The potential holds n only through A, so every lam_m and every coefficient
of y_m is a polynomial in A, of half its degree in n.  The engine solves in
the symbol A and rewrites each lam_m into n once, when its order is solved;
every coefficient it returns is an NPoly in n (a polynomial over PiLaurent).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, as_integer
from .exact import (
    A_POLY,
    N_MINUS_1,
    NPoly,
    PiLaurent,
    TrigPoly,
    _lincomb,
    _trig,
    sec2_coeffs,
    solve_resonant,
    trig_integrate,  # called by no route; perfbench/tracing.py rebinds it
)

# the functions that take params import model's validate themselves, so the
# exact engine (series and exact) runs without numpy

DEFAULT_ORDER_CAP = 8
# largest n searched for the order-5 sign change, and the sample count of
# modulus_expansion's grid on [0, D/2]
SIGN_CHANGE_N_MAX = 100
MODULUS_SAMPLES = 257

# the engine's symbol, the coupling A = (n-1)(n-3)
_A = NPoly({1: 1})

_BRANCHES = {
    "first": (1, "even", "cos"),
    "second": (2, "odd", "sin"),
}


@dataclass(frozen=True)
class SeriesResult:
    """Expansion of one branch: orders[m] = (lam_m in n, lam_m in A, y_m in A),
    the NPoly lam_m and the TrigPoly y_m, with A = (n-1)(n-3)."""

    branch: str
    mode: int
    orders: tuple

    def order(self):
        return len(self.orders) - 1

    def lam_poly(self, m):
        return self.orders[m][0]

    def lam_in_A(self, m):
        """lam_m as the engine holds it, an NPoly in A = (n-1)(n-3)."""
        return self.orders[m][1]

    def correction_in_A(self, m):
        return self.orders[m][2]

    def correction(self, m):
        """y_m with its coefficients rewritten into n."""
        return TrigPoly({key: c.substitute(A_POLY) for key, c in self.correction_in_A(m).terms.items()})

    def kappa_coefficient(self, m):
        """Coefficient of kappa^m in D^2 lam_bar, as an NPoly."""
        if m == 0:
            return NPoly({0: PiLaurent({2: self.mode**2})})
        if m == 1:
            return self.lam_poly(1) - N_MINUS_1 * N_MINUS_1 * Fraction(1, 4)
        return self.lam_poly(m) * PiLaurent.pi_power(2 - 2 * m)


def _branch_data(branch):
    try:
        return _BRANCHES[branch]
    except KeyError:
        raise DomainError(f"branch must be 'first' or 'second', got {branch!r}") from None


def lambda_series(branch, M, cap=DEFAULT_ORDER_CAP):
    """Exact expansion of one eigenvalue branch through order M."""
    mode, _, _ = _branch_data(branch)
    M = as_integer(M, 0, f"order M must be an integer in [0, {cap}]", maximum=cap)
    return SeriesResult(branch=branch, mode=mode, orders=_orders(branch, M))


@lru_cache(maxsize=None)
def _orders(branch, M):
    """The orders m = 0..M as SeriesResult holds them: the cached orders
    through M - 1 extended by one, so every order is solved once per branch.

    Each coefficient of the forcing F_M is one _lincomb: the sec^2
    convolution terms (A/4) a_i c, c a coefficient of y_{M-1-i} moved up by
    x^{2i}, and the terms -lam_i c, c a coefficient of y_{M-i}, in one list.
    lam_M is F_M's projection on the base mode, and solve_resonant gets F_M
    with only its base-mode term (kind, mode, 0) changed.
    """
    mode, parity, kind = _branch_data(branch)
    if M == 0:
        lam_0 = NPoly.from_scalar(mode * mode)
        return ((lam_0, lam_0, TrigPoly.basis(kind, mode)),)
    prev = _orders(branch, M - 1)
    _, lams, ys = zip(*prev)
    a = sec2_coeffs(M - 1)
    pieces = {}
    for i in range(M):
        q = a[i]
        for (k, m, j), c in ys[M - 1 - i].terms.items():
            pieces.setdefault((k, m, j + 2 * i), []).append(
                (c, _A, q.numerator, 4 * q.denominator))
    for i in range(1, M):
        for key, c in ys[M - i].terms.items():
            pieces.setdefault(key, []).append((c, lams[i], -1, 1))
    forcing = {}
    for key, terms in pieces.items():
        c = _lincomb(NPoly, terms)
        if c:
            forcing[key] = c
    # y_{M-1-i} is in normal form and x^{2i} keeps its frequencies, so F
    # has no zero coefficient and no sin(0x) key
    F = _trig(forcing)
    lam_M = F.project(kind, mode) * PiLaurent.pi_power(-1, 2)
    y_M = solve_resonant(_minus_base(F, (kind, mode, 0), lam_M), mode, parity)
    return prev + ((lam_M.substitute(A_POLY), lam_M, y_M),)


def _minus_base(F, key, lam):
    """F - lam * base, base the term x^0 trig(mode x) at key: F with that one
    coefficient replaced, or dropped where it becomes zero."""
    terms = dict(F.terms)
    c = terms.pop(key) - lam if key in terms else -lam
    if c:
        terms[key] = c
    return _trig(terms)


@dataclass(frozen=True)
class GapSeries:
    """Exact difference of the two branches."""

    first: SeriesResult
    second: SeriesResult

    def order(self):
        return self.first.order()

    def lam_poly(self, m):
        return self.second.lam_poly(m) - self.first.lam_poly(m)

    def kappa_coefficient(self, m):
        return self.second.kappa_coefficient(m) - self.first.kappa_coefficient(m)


def gap_series(M, cap=DEFAULT_ORDER_CAP):
    return GapSeries(first=lambda_series("first", M, cap),
                     second=lambda_series("second", M, cap))


def _horner(series, params, mp=None):
    """sum_m c_m kappa^m / D^2 over the series' orders by Horner's rule, kappa = K D^2.

    c_m is series.kappa_coefficient(m) at params.n.  Floats throughout, or
    mpmath numbers at the working precision when mp is the mpmath module.
    """
    num = float if mp is None else mp.mpf
    D = num(params.D)
    kappa = num(params.K) * D**2
    total = num(0)
    for m in range(series.order(), -1, -1):
        c = series.kappa_coefficient(m)
        total = total * kappa + (c.evalf(params.n) if mp is None else c.eval_mp(params.n, mp))
    return total / D**2


def eval_series(params, M, branch="first"):
    """Float evaluation of the order-M truncation of lam_bar at (n, K, D)."""
    from .model import validate

    return _horner(lambda_series(branch, M), validate(params))


def eval_gap_series(params, M):
    from .model import validate

    return _horner(gap_series(M), validate(params))


def eval_series_mp(params, M, branch="first", dps=50):
    """Arbitrary-precision evaluation (same truncation as eval_series).

    dps, mpmath's working decimal digits, must be an integer of at least 1,
    from an int or an integral float (DomainError otherwise, before any
    work).
    """
    dps = as_integer(dps, 1, "dps must be an integer >= 1")
    import mpmath

    from .model import validate

    with mpmath.workdps(dps):
        return _horner(lambda_series(branch, M), validate(params), mpmath)


def coefficient_sign(npoly, n):
    """Sign of an exact coefficient at integer n (-1, 0, +1).

    The value at n is a PiLaurent; its exact zeros are the empty sum, and
    any other value is signed by integer interval arithmetic on an integer
    pi, refined until the interval excludes 0 (PiLaurent.sign).
    """
    return npoly.eval_n(n).sign()


def gap5_factors():
    """Split the fifth-order gap coefficient into its A^2 and A parts.

    The coefficient is exactly alpha A^2 + beta A with A = (n-1)(n-3),
    read off the engine's polynomial in A; the conventional rendering
    scales these as [(A^2/576) u + (A/(2 pi)) v] / pi^8, so u and v are the
    two decimal factors reported for this order.
    """
    g = gap_series(5)
    c5 = (g.second.lam_in_A(5) - g.first.lam_in_A(5)) * PiLaurent.pi_power(-8)
    parts = c5.by_degree()
    if not set(parts) <= {1, 2}:
        raise DomainError("fifth-order gap coefficient is not quadratic in A")
    alpha, beta = parts.get(2, PiLaurent()), parts.get(1, PiLaurent())
    pi8 = PiLaurent.pi_power(8)
    return {
        "alpha": alpha,
        "beta": beta,
        "A2_factor": (alpha * pi8 * 576).evalf(),
        "A_factor": (beta * pi8 * PiLaurent.pi_power(1, 2)).evalf(),
    }


def gap_order5_sign_change():
    """Smallest integer n > 3 where the kappa^5 gap coefficient turns negative."""
    g5 = gap_series(5).kappa_coefficient(5)
    previous_positive = None
    for n in range(4, SIGN_CHANGE_N_MAX + 1):
        s = coefficient_sign(g5, n)
        if s < 0:
            return n, previous_positive
        previous_positive = n
    raise DomainError(f"no sign change found for n up to {SIGN_CHANGE_N_MAX}")


# -- published closed forms ---------------------------------------------------
#
# Hard-coded reference values for the comparison report (and the test suite):
# the expansion coefficients in shifted D=pi units, the kappa-form
# coefficients, the printed eigenfunction corrections, and the order-5
# inner products.  A is the coupling polynomial (n-1)(n-3).


def _pl(d):
    return PiLaurent(d)


def _A_times(pl):
    return A_POLY * pl


def _A2_times(pl):
    return A_POLY * A_POLY * pl


F = Fraction

PUBLISHED_LAMBDA = {
    ("first", 1): _A_times(_pl({0: F(1, 4)})),
    ("first", 2): _A_times(_pl({2: F(1, 48), 0: F(-3, 24)})),
    ("first", 3): _A_times(_pl({4: F(1, 480), 2: F(-20, 480), 0: F(120, 480)})),
    ("first", 4): _A2_times(_pl({4: F(1, 11520), 2: F(-75, 11520), 0: F(630, 11520)}))
    + _A_times(_pl({6: F(17, 80640), 4: F(-42 * 17, 80640), 2: F(840 * 17, 80640), 0: F(-5040 * 17, 80640)})),
    ("first", 5): _A2_times(_pl({6: F(1, 40320), 4: F(-147, 40320), 2: F(4410, 40320), 0: F(-30240, 40320)}))
    + _A_times(_pl({8: F(31, 1451520), 6: F(-72 * 31, 1451520), 4: F(3024 * 31, 1451520),
                    2: F(-60480 * 31, 1451520), 0: F(362880 * 31, 1451520)})),
    ("second", 1): _A_times(_pl({0: F(1, 4)})),
    ("second", 2): _A_times(_pl({2: F(1, 48), 0: F(-3, 96)})),
    ("second", 3): _A_times(_pl({4: F(1, 480), 2: F(-5, 480), 0: F(15, 960)})),
    ("second", 4): _A2_times(_pl({4: F(8, 368640), 2: F(-150, 368640), 0: F(315, 368640)}))
    + _A_times(_pl({6: F(4 * 17, 322560), 4: F(-42 * 17, 322560), 2: F(210 * 17, 322560), 0: F(-315 * 17, 322560)})),
    ("second", 5): _A2_times(_pl({0: F(-2241, 1024 * 2304), 2: F(171, 128 * 2304),
                                  4: F(-27, 128 * 2304), 6: F(23, 1792 * 2304), 8: F(-1, 1050 * 2304)}))
    + _A_times(_pl({8: F(2 * 31, 2 * 1451520), 6: F(-36 * 31, 2 * 1451520), 4: F(378 * 31, 2 * 1451520),
                    2: F(-1890 * 31, 2 * 1451520), 0: F(2835 * 31, 2 * 1451520)})),
}

PUBLISHED_KAPPA = {
    ("first", 0): NPoly({0: _pl({2: 1})}),
    ("first", 1): N_MINUS_1 * F(-1, 2),
    ("first", 2): _A_times(_pl({0: F(1, 48), -2: F(-6, 48)})),
    ("first", 3): _A_times(_pl({0: F(1, 480), -2: F(-20, 480), -4: F(120, 480)})),
    ("second", 0): NPoly({0: _pl({2: 4})}),
    ("second", 1): N_MINUS_1 * F(-1, 2),
    ("second", 2): _A_times(_pl({0: F(1, 48), -2: F(-3, 96)})),
    ("second", 3): _A_times(_pl({0: F(1, 480), -2: F(-5, 480), -4: F(15, 960)})),
    ("gap", 0): NPoly({0: _pl({2: 3})}),
    ("gap", 1): NPoly(),
    ("gap", 2): _A_times(_pl({-2: F(3, 32)})),
    ("gap", 3): _A_times(_pl({-2: F(15, 480), -4: F(-225, 960)})),
}

# printed gap coefficient at order 4 (shifted D=pi lambda-units)
PUBLISHED_GAP4 = _A2_times(_pl({2: F(3 * 750, 368640), 4: F(-3 * 8, 368640), 0: F(-3 * 6615, 368640)})) + _A_times(
    _pl({4: F(51 * 2, 15360), 2: F(-51 * 50, 15360), 0: F(51 * 315, 15360)})
)


def _printed_y12():
    A24 = A_POLY * F(1, 24)
    return TrigPoly({("sin", 1, 1): A24 * _pl({2: F(-1, 4)}), ("cos", 1, 2): A24 * F(3, 2),
                     ("sin", 1, 3): A24})


def _printed_y13():
    A24 = A_POLY * F(1, 24)
    return TrigPoly({("sin", 1, 1): A24 * _pl({4: F(-1, 40), 2: F(1, 2)}),
                     ("cos", 1, 2): A24 * (-3), ("sin", 1, 3): A24 * (-2),
                     ("cos", 1, 4): A24, ("sin", 1, 5): A24 * F(2, 5)})


def _printed_y23():
    A120 = A_POLY * F(-1, 120)
    return TrigPoly({("cos", 2, 1): A120 * _pl({2: F(5, 16), 4: F(-1, 16)}),
                     ("sin", 2, 2): A120 * F(15, 16), ("cos", 2, 3): A120 * F(-5, 4),
                     ("sin", 2, 4): A120 * F(-5, 4), ("cos", 2, 5): A120})


PUBLISHED_CORRECTIONS = {
    ("first", 2): _printed_y12,
    ("first", 3): _printed_y13,
    ("second", 3): _printed_y23,
}

# order-5 inner products as printed (exact PiLaurent forms, NPoly overall)
PUBLISHED_INNER = {
    "y12_y13": _A2_times(
        _pl({1: F(-15570, 576 * 160), 3: F(2220, 576 * 160), 5: F(-67, 576 * 160),
             7: F(13, 168 * 576 * 160), 9: F(4, 315 * 576 * 160)})
    ),
    "dy12_dy13": _A2_times(
        _pl({1: F(1710, 576 * 160), 3: F(-300, 576 * 160), 5: F(17, 576 * 160),
             7: F(-83, 168 * 576 * 160), 9: F(4, 315 * 576 * 160)})
    ),
    "y22_y23": _A2_times(
        _pl({1: F(-7785, 128 * 4608 * 80), 3: F(555, 16 * 4608 * 80), 5: F(-67, 16 * 4608 * 80),
             7: F(13, 672 * 4608 * 80), 9: F(4, 315 * 4608 * 80)})
    ),
    "dy22_dy23": _A2_times(
        _pl({1: F(855, 32 * 2304 * 160), 3: F(-75, 4 * 2304 * 160), 5: F(17, 4 * 2304 * 160),
             7: F(-83, 168 * 2304 * 160), 9: F(16, 315 * 2304 * 160)})
    ),
    # (62/315) int x^8 cos^2 x   and   (62/315) int x^8 sin^2 2x
    "x8cos2_weighted": NPoly(
        {0: _pl({1: F(62 * 362880, 315 * 4608), 3: F(-62 * 60480, 315 * 4608),
                 5: F(62 * 3024, 315 * 4608), 7: F(-62 * 72, 315 * 4608), 9: F(62, 315 * 4608)})}
    ),
    "x8sin2_weighted": NPoly(
        {0: _pl({1: F(31 * 2835, 1451520), 3: F(-31 * 1890, 1451520), 5: F(31 * 378, 1451520),
                 7: F(-31 * 36, 1451520), 9: F(31 * 2, 1451520)})}
    ),
}

# decimals as printed next to the closed forms (the 0.35024 entry conflicts
# with the engine's exact value; see the comparison report)
PUBLISHED_DECIMALS = {
    ("first", 4): (-0.64, 0.61),
    ("second", 4): (-0.603, 1.912),
    ("gap", 4): (0.037, 1.301),
    ("first", 5): (-1.039, 0.10734),
    ("second", 5): (-1.561, 0.35024),
    ("gap", 5): (-0.522, 0.2429),
}


def engine_inner_products():
    """The order-5 inner products recomputed from the engine's own corrections,
    formed in A and returned in n."""
    s1 = lambda_series("first", 3)
    s2 = lambda_series("second", 3)
    y12, y13 = s1.correction_in_A(2), s1.correction_in_A(3)
    y22, y23 = s2.correction_in_A(2), s2.correction_in_A(3)
    weight = F(62, 315)  # (62/315) x^8 weights the last two
    inner = {
        "y12_y13": y12.pair(y13),
        "dy12_dy13": y12.derivative().pair(y13.derivative()),
        "y22_y23": y22.pair(y23),
        "dy22_dy23": y22.derivative().pair(y23.derivative()),
        "x8cos2_weighted": TrigPoly.basis("cos", 1, weight).project("cos", 1, 8),
        "x8sin2_weighted": TrigPoly.basis("sin", 2, weight).project("sin", 2, 8),
    }
    return {name: v.substitute(A_POLY) for name, v in inner.items()}


def check_reference(M=5):
    """Compare the engine against every hard-coded published form up to order M.

    Returns a dict with named booleans for the comparisons expected to agree,
    a "discrepancies" section for the known fifth-order disagreement (with an
    exact characterization of the difference), and decimal notes.
    """
    M = min(M, 5)
    report = {"order": M, "matches": {}, "discrepancies": {}, "decimal_notes": []}
    res = {b: lambda_series(b, M) for b in ("first", "second")}
    for (branch, m), ref in PUBLISHED_LAMBDA.items():
        if m > M:
            continue
        if (branch, m) == ("second", 5):
            continue
        report["matches"][f"lambda_{branch}_{m}"] = res[branch].lam_poly(m) == ref
    for (branch, m), ref in PUBLISHED_KAPPA.items():
        if m > M:
            continue
        if branch == "gap":
            got = gap_series(min(M, 3)).kappa_coefficient(m)
        else:
            got = res[branch].kappa_coefficient(m)
        report["matches"][f"kappa_{branch}_{m}"] = got == ref
    if M >= 4:
        got4 = res["second"].lam_poly(4) - res["first"].lam_poly(4)
        report["matches"]["lambda_gap_4"] = got4 == PUBLISHED_GAP4
    for (branch, m), maker in PUBLISHED_CORRECTIONS.items():
        if m > M:
            continue
        report["matches"][f"y_{branch}_{m}"] = res[branch].correction(m) == maker()
    if M >= 5:
        engine = engine_inner_products()
        for name, ref in PUBLISHED_INNER.items():
            report["matches"][f"inner_{name}"] = engine[name] == ref
        exact_val = PUBLISHED_INNER["x8sin2_weighted"].evalf(0)
        report["decimal_notes"].append(
            f"(62/315) int x^8 sin^2(2x): exact value {exact_val:.5f}; the text prints"
            f" 0.36024 beside the closed form but 0.35024 inside the fifth-order"
            f" eigenvalue, so the 0.35024 is a decimal typo."
        )
        # The printed fifth-order value for the second branch disagrees with the
        # engine.  Projecting the recurrence on the base mode and applying the
        # Green identity twice gives
        #   lam_5 = (2/pi) [ 2 mode^2 <y_2,y_3> - 2 <y_2',y_3'>
        #                    + (A/4) a_4 <x^8 base^2> ],
        # so the eigenfunction cross-term carries weight 2 mode^2 (= 8 for the
        # sin 2x branch), while the printed value used weight 2.  The exact
        # difference is therefore (12/pi) <y22, y23>, and independent
        # high-accuracy shooting on the shifted equation confirms the engine.
        got = res["second"].lam_poly(5)
        diff = got - PUBLISHED_LAMBDA[("second", 5)]
        expected_diff = PUBLISHED_INNER["y22_y23"] * PiLaurent.pi_power(-1, 12)
        report["discrepancies"]["lambda_second_5"] = {
            "printed_matches_engine": got == PUBLISHED_LAMBDA[("second", 5)],
            "difference_is_12_over_pi_times_y22_y23": diff == expected_diff,
            "note": "cross-term weight is 2*mode^2, not 2; printed value kept "
                    "weight 2 from the first branch",
        }
        report["decimal_notes"].append(
            "fifth-order gap factors from the exact engine: "
            "(A^2/576)*(-0.28364) + (A/(2 pi))*(0.25290); the printed -0.522 and "
            "0.2429 inherit the two fifth-order errors above."
        )
    return report


def modulus_expansion(params):
    """Compare the two one-dimensional log-gradient models through order K^2.

    Both models share -(pi/D) tan(pi x/D) + ((n-1)/2) tn_K(x); the difference
    appears at order K^2 with coefficient ((n-1)(n-3)/24) B(x),

      B(x) = (pi^2/D^2) x^3 sec^2(pi x/D) + (3 pi/D) x^2 tan(pi x/D) + 3x
             - (pi^2/4) x sec^2(pi x/D) - (D pi/4) tan(pi x/D).

    Returns sample data and summary facts (value at 0, sign pattern,
    endpoint behavior).  For n = 3 the difference vanishes identically.
    """
    from .model import validate

    params = validate(params)
    n, D = params.n, params.D
    An = (n - 1) * (n - 3) / 24.0
    xs = [0.5 * D * j / (MODULUS_SAMPLES - 1) for j in range(MODULUS_SAMPLES)]
    # at the endpoint the closed form is a 0*inf cancellation (the true limit
    # is 0 from below); keep the last sample far enough inside that doubles
    # still resolve the sign through the sec^2 blowup
    xs[-1] = 0.5 * D * (1.0 - 1e-4)

    def bracket(x):
        t = math.pi * x / D
        sec2 = 1.0 / math.cos(t) ** 2
        tan = math.tan(t)
        return (
            (math.pi / D) ** 2 * x**3 * sec2
            + 3.0 * math.pi / D * x**2 * tan
            + 3.0 * x
            - (math.pi**2 / 4.0) * x * sec2
            - (D * math.pi / 4.0) * tan
        )

    bvals = [bracket(x) for x in xs]
    k2 = [An * b for b in bvals]
    interior = bvals[1:-1]
    return {
        "x": xs,
        "bracket": bvals,
        "k2_term": k2,
        "identically_zero": n == 3,
        "value_at_zero": bvals[0],
        "negative_interior": all(b < 0 for b in interior),
        "sign_changes": sum(
            1 for a, b in zip(interior, interior[1:]) if (a < 0) != (b < 0)
        ),
        "endpoint_value": bvals[-1],
    }
