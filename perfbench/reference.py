"""Reference computations made apart from gapmodel.

Nothing here imports gapmodel: the point of these values is that they come
from different code and, for the eigenvalues, a different method.

- ``dirichlet_pair``: the two lowest Dirichlet eigenvalues of
  -psi'' + V psi on [-D/2, D/2] by Chebyshev collocation (Trefethen,
  *Spectral Methods in MATLAB*, 2000, ch. 6-9), with V in closed form.
  It runs at two consecutive sizes of a ladder and reports their
  difference as its error estimate.
- ``robin_ck`` / ``robin_profile``: the Robin constant c_k and the
  stationary log-derivative psi = phi'/phi of
  phi'' = -(pi^2/D^2 + c/cs^2) phi, phi(0) = 1, phi'(0) = 0, by direct
  integration of phi (or the closed form nu tan(nu D/2) = k at K = 0).
- ``flat_pair``: the closed forms for exactly flat triples.
- ``gap_kappa2``: the paper's closed form of the gap's kappa^2 coefficient.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

SIZES = (24, 32, 48, 64, 96, 128, 192, 256)
REL_TOL = 1e-12


def cs(z, K):
    """cos(sqrt(K) z), 1, or cosh(sqrt(-K) z), elementwise."""
    z = np.asarray(z, dtype=float)
    if K > 0:
        return np.cos(math.sqrt(K) * z)
    if K < 0:
        return np.cosh(math.sqrt(-K) * z)
    return np.ones_like(z)


def potential(z, n, K):
    """V(z) = ((n-1) K / 4) ((n-3) / cs^2 - (n-1))."""
    c = cs(z, K)
    return (n - 1) * K / 4.0 * ((n - 3) / (c * c) - (n - 1))


def cheb(N):
    """Chebyshev points x_j = cos(j pi / N) and the differentiation matrix."""
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    dX = x[:, None] - x[None, :]
    Dm = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    Dm -= np.diag(Dm.sum(axis=1))
    return x, Dm


def _pair_at(N, n, K, D):
    x, Dm = cheb(N)
    half = D / 2.0
    z = half * x[1:-1]
    A = -(Dm @ Dm)[1:-1, 1:-1] / half**2 + np.diag(potential(z, n, K))
    ev = np.sort(np.linalg.eigvals(A).real)
    return ev[0], ev[1]


def dirichlet_pair(n, K, D):
    """(lambda1, lambda2, error_estimate) by collocation at growing sizes."""
    scale = max(1.0, (math.pi / D) ** 2)
    prev = _pair_at(SIZES[0], n, K, D)
    for N in SIZES[1:]:
        cur = _pair_at(N, n, K, D)
        err = max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1]))
        if err <= REL_TOL * max(scale, abs(cur[1])):
            return cur[0], cur[1], err
        prev = cur
    raise ArithmeticError(
        f"collocation did not settle for (n={n}, K={K}, D={D}): last change {err:.3e}"
    )


def _phi_solution(c, K, D):
    """phi'' = -(pi^2/D^2 + c/cs^2) phi on [0, D/2], phi(0) = 1, phi'(0) = 0."""
    base = (math.pi / D) ** 2

    def rhs(z, y):
        w = base + c / float(cs(z, K)) ** 2
        return [y[1], -w * y[0]]

    return solve_ivp(rhs, (0.0, D / 2.0), [1.0, 0.0], method="DOP853",
                     rtol=1e-13, atol=1e-15, dense_output=True)


def robin_ck(k, K, D):
    """The Robin constant c_k for K >= 0.

    At K = 0, c_k = nu^2 - pi^2/D^2 with nu tan(nu D/2) = k, nu in (0, pi/D).
    For K > 0, c_k is the root in (-pi^2/D^2, 0) of phi'(D/2) + k phi(D/2),
    which is positive at the left end (phi convex) and negative at 0.
    """
    base = (math.pi / D) ** 2
    if K == 0.0:
        nu = brentq(lambda v: v * math.tan(v * D / 2.0) - k,
                    1e-12, math.pi / D * (1.0 - 1e-15), xtol=1e-16, rtol=8.9e-16)
        return nu * nu - base

    def robin_defect(c):
        y = _phi_solution(c, K, D).y[:, -1]
        return y[1] + k * y[0]

    return brentq(robin_defect, -base, 0.0, xtol=1e-15, rtol=8.9e-16)


def robin_psi(k, K, D, ck, z):
    """Stationary log-derivative psi = phi'/phi at c_k on the points z.

    At K = 0 this is -nu tan(nu z); otherwise phi is integrated directly.
    """
    z = np.asarray(z, dtype=float)
    if K == 0.0:
        nu = math.sqrt(ck + (math.pi / D) ** 2)
        return -nu * np.tan(nu * z)
    y = _phi_solution(ck, K, D).sol(z)
    return y[1] / y[0]


def flat_pair(n, K, D):
    """Closed forms where V is constant: (j pi/D)^2, less K when n = 3."""
    shift = -K if n == 3 else 0.0
    if not (n == 1 or n == 3 or K == 0.0):
        raise ValueError(f"(n={n}, K={K}) is not flat")
    return ((math.pi / D) ** 2 + shift, (2.0 * math.pi / D) ** 2 + shift)


def gap_kappa2(n):
    """Closed form of the gap's kappa^2 coefficient: 3 (n-1)(n-3) / (32 pi^2)."""
    return 3.0 * (n - 1) * (n - 3) / (32.0 * math.pi**2)
