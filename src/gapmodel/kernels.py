"""Constant-curvature trigonometric kernels.

The three kernels sn, cs, tn interpolate between circular (K > 0),
flat (K = 0) and hyperbolic (K < 0) trigonometry:

    sn(s, K) = sin(sqrt(K) s)/sqrt(K) | s       | sinh(sqrt(-K) s)/sqrt(-K)
    cs(s, K) = cos(sqrt(K) s)         | 1       | cosh(sqrt(-K) s)
    tn(s, K) = sqrt(K) tan(sqrt(K) s) | 0       | -sqrt(-K) tanh(sqrt(-K) s)

All three are real-analytic in K at fixed s. tn is the negative logarithmic
derivative of cs, i.e. tn = -cs'/cs = K sn/cs, which is the combination the
model operator uses.

Near K = 0 the closed forms lose digits to cancellation, so for |K s^2|
below W_SERIES each kernel switches to a truncated Taylor series in
w = K s^2. One series covers both signs of K, which also guarantees the
crossover is seamless. With |w| < 1e-4 the first omitted term is below
1e-19 relative, well under double rounding.

For K > 0, cs has zeros at |s| = pi/(2 sqrt(K)); tn (and the model's
potential) blow up there. Evaluation at or beyond the pole raises PoleError
rather than returning a garbage float.

cs_at(K) returns s -> cs(s, K) with K's square root and branch bound once,
for right-hand sides that an ODE solver calls many times at one K; cs itself
evaluates through it, so the two agree bit for bit.

chebyshev(N) is the one Chebyshev differentiation matrix, and
chebyshev_fold(N, parity) its one fold onto even or odd functions on
[0, 1], behind both collocation seeds: spectral's Dirichlet eigenvalues
(even and odd, without the x = 1 column) and pruefer's Robin constant
(even, with the Robin row at x = 1).  collocation_ladder is the one
ladder rule both seeds follow, at the sizes _COLLOC_SIZES.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import PoleError

W_SERIES = 1e-4
_COLLOC_SIZES = (32, 48)  # Chebyshev collocation ladder of both seeds


def _check_pole(s, K):
    if K > 0.0:
        half_period = math.pi / (2.0 * math.sqrt(K))
        if abs(s) >= half_period:
            raise PoleError(
                f"kernel pole: |s| = {abs(s)!r} >= pi/(2 sqrt(K)) = {half_period!r} for K = {K!r}"
            )


def sn(s, K):
    """Generalized sine. Solves u'' + K u = 0, u(0) = 0, u'(0) = 1."""
    s = float(s)
    K = float(K)
    w = K * s * s
    if abs(w) < W_SERIES:
        # s (1 - w/6 (1 - w/20 (1 - w/42)))
        return s * (1.0 - w / 6.0 * (1.0 - w / 20.0 * (1.0 - w / 42.0)))
    if K > 0.0:
        r = math.sqrt(K)
        return math.sin(r * s) / r
    r = math.sqrt(-K)
    return math.sinh(r * s) / r


def cs(s, K):
    """Generalized cosine. Solves u'' + K u = 0, u(0) = 1, u'(0) = 0."""
    return cs_at(K)(float(s))


def cs_at(K):
    """s -> cs(s, K) for one K, with sqrt(+-K) and cos/cosh bound once.

    The |K s^2| < W_SERIES test is still made on each call.
    """
    K = float(K)
    r, closed = (math.sqrt(K), math.cos) if K > 0.0 else (math.sqrt(-K), math.cosh)

    def cs_K(s):
        w = K * s * s
        if abs(w) < W_SERIES:
            return 1.0 - w / 2.0 * (1.0 - w / 12.0 * (1.0 - w / 30.0))
        return closed(r * s)

    return cs_K


def tn(s, K):
    """Generalized tangent, tn = K sn/cs = -(log cs)'.

    Raises PoleError for K > 0 once |s| reaches the cs zero.
    """
    s = float(s)
    K = float(K)
    w = K * s * s
    if abs(w) < W_SERIES:
        # K s (1 + w/3 (1 + 2w/5 (1 + 17w/42)))
        return K * s * (1.0 + w / 3.0 * (1.0 + 2.0 * w / 5.0 * (1.0 + 17.0 * w / 42.0)))
    if K > 0.0:
        _check_pole(s, K)
        r = math.sqrt(K)
        return r * math.tan(r * s)
    r = math.sqrt(-K)
    return -r * math.tanh(r * s)


def cs_array(s, K):
    """Vectorized cs over a float array (K scalar). No pole handling: cs is entire."""
    s = np.asarray(s, dtype=float)
    K = float(K)
    w = K * s * s
    out = np.empty_like(s)
    small = np.abs(w) < W_SERIES
    ws = w[small]
    out[small] = 1.0 - ws / 2.0 * (1.0 - ws / 12.0 * (1.0 - ws / 30.0))
    big = ~small
    if K > 0.0:
        out[big] = np.cos(math.sqrt(K) * s[big])
    elif K < 0.0:
        out[big] = np.cosh(math.sqrt(-K) * s[big])
    else:
        out[big] = 1.0
    return out


def tn_array(s, K):
    """Vectorized tn over a float array (K scalar).

    Raises PoleError if any entry sits at or past a pole (K > 0).
    """
    s = np.asarray(s, dtype=float)
    K = float(K)
    if K > 0.0 and s.size:
        _check_pole(float(np.max(np.abs(s))), K)
    w = K * s * s
    out = np.empty_like(s)
    small = np.abs(w) < W_SERIES
    ws = w[small]
    ss = s[small]
    out[small] = K * ss * (1.0 + ws / 3.0 * (1.0 + 2.0 * ws / 5.0 * (1.0 + 17.0 * ws / 42.0)))
    big = ~small
    if K > 0.0:
        r = math.sqrt(K)
        out[big] = r * np.tan(r * s[big])
    elif K < 0.0:
        r = math.sqrt(-K)
        out[big] = -r * np.tanh(r * s[big])
    else:
        out[big] = 0.0
    return out


@lru_cache(maxsize=None)
def chebyshev(N):
    """Chebyshev points and differentiation matrices on [-1, 1].

    The points are x_j = cos(j pi / N), j = 0 .. N, from x_0 = 1 down to
    x_N = -1; d1 is Trefethen's first-derivative matrix on them (Spectral
    Methods in MATLAB, 2000, ch. 6), with its diagonal the negative row
    sums, and d2 = d1 @ d1.  Returns (x, d1, d2), read-only since the cache
    shares them.
    """
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
    d1 = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    d1 -= np.diag(d1.sum(axis=1))
    d2 = d1 @ d1
    for a in (x, d1, d2):
        a.flags.writeable = False
    return x, d1, d2


@lru_cache(maxsize=None)
def chebyshev_fold(N, parity):
    """chebyshev at N (even), folded onto even (parity 0) or odd (parity 1)
    functions on [-1, 1].

    Such a function is fixed by its values at x_0 = 1 .. x_(N/2) = 0, x = 0
    dropped for the odd class, where the function vanishes; column j
    gathers x_j and its mirror x_(N-j) = -x_j with the sign of the class,
    and x = 0 is its own mirror.  Returns the interior points x_1 ..
    x_(N/2) (x_(N/2-1) for the odd class), the folded first-derivative row
    at x = 1 and the folded second-derivative rows at the interior points,
    column 0 that of x = 1, all read-only since the cache shares them.
    """
    x, d1, d2 = chebyshev(N)
    half = np.arange(N // 2 + 1 - parity)
    sign = (-1.0) ** parity

    def fold(d):
        folded = d[:, half] + sign * d[:, N - half]
        if parity == 0:
            folded[:, -1] = d[:, N // 2]
        return folded

    inner = half[1:]
    x, row, d2 = x[inner], fold(d1[:1])[0], fold(d2[inner])
    for a in (x, row, d2):
        a.flags.writeable = False
    return x, row, d2


def collocation_ladder(eigenvalue):
    """A collocation seed and its ladder: (v_48, |v_48 - v_32|), where
    v_N = eigenvalue(N) at each size N of _COLLOC_SIZES.

    eigenvalue builds its own matrix at N points (chebyshev_fold) and
    solves it.  A value that is not finite, or a numpy.linalg.LinAlgError
    it raises, gives (nan, nan), which no caller's seeded interval uses.
    """
    values = []
    for N in _COLLOC_SIZES:
        try:
            value = eigenvalue(N)
        except np.linalg.LinAlgError:
            return math.nan, math.nan
        if not math.isfinite(value):
            return math.nan, math.nan
        values.append(value)
    return values[-1], abs(values[-1] - values[0])
