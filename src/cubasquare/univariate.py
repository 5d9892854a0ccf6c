"""Univariate orthogonal polynomials, their zeros, and 1-D Gauss quadrature.

All evaluators use forward three-term recurrences, which are stable on
[-1, 1].  Polynomials of negative degree evaluate to 0 throughout the
package.  Zeros and quadrature rules come from the Golub-Welsch
eigenvalue method on the symmetric Jacobi matrix, followed by one Newton
polish step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma as _gamma

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "eval_chebyshev_t",
    "chebyshev_t_table",
    "eval_chebyshev_u",
    "jacobi_recurrence",
    "jacobi_normalized_table",
    "jacobi_normalized_table_with_derivative",
    "jacobi_chebyshev_coeffs",
    "JacobiAngleGrid",
    "jacobi_angle_grid",
    "gauss_rule_1d",
]


def _as_array(x):
    return np.asarray(x, dtype=float)


def _chebyshev(n: int, x, first: float):
    """Degree n of the recurrence p_{k+1} = 2 x p_k - p_{k-1} from p_0 = 1 and
    p_1 = first * x; 0 for n < 0."""
    x = _as_array(x)
    if n < 0:
        return np.zeros_like(x)
    if n == 0:
        return np.ones_like(x)
    pm, p = np.ones_like(x), first * x
    for _ in range(1, n):
        pm, p = p, 2.0 * x * p - pm
    return p


def eval_chebyshev_t(n: int, x):
    """Chebyshev polynomial of the first kind, T_n(x); 0 for n < 0."""
    return _chebyshev(n, x, 1.0)


def chebyshev_t_table(n: int, x) -> np.ndarray:
    """Table of T_0..T_n at x, shape (n+1,) + x.shape; row k equals
    ``eval_chebyshev_t(k, x)`` bit for bit (same recurrence)."""
    x = _as_array(x)
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = x
    for k in range(1, n):
        out[k + 1] = 2.0 * x * out[k] - out[k - 1]
    return out


def eval_chebyshev_u(n: int, x):
    """Chebyshev polynomial of the second kind, U_n(x); 0 for n < 0."""
    return _chebyshev(n, x, 2.0)


def jacobi_recurrence(alpha: float, beta: float, n: int):
    """Monic Jacobi recurrence coefficients (ra, rb), Gautschi convention.

    p_{k+1} = (x - ra[k]) p_k - rb[k] p_{k-1}, with rb[0] set to the
    total mass of (1-x)^alpha (1+x)^beta on [-1, 1].
    """
    if alpha <= -1 or beta <= -1:
        raise ValueError(f"jacobi parameters must exceed -1, got ({alpha}, {beta})")
    ra = np.zeros(max(n, 1))
    rb = np.zeros(max(n, 1))
    apb = alpha + beta
    ra[0] = (beta - alpha) / (apb + 2.0)
    rb[0] = 2.0 ** (apb + 1.0) * _gamma(alpha + 1.0) * _gamma(beta + 1.0) / _gamma(apb + 2.0)
    if n > 1:
        ra[1] = (beta * beta - alpha * alpha) / ((apb + 2.0) * (apb + 4.0))
        rb[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0))
    for k in range(2, n):
        c = 2.0 * k + apb
        ra[k] = (beta * beta - alpha * alpha) / (c * (c + 2.0))
        rb[k] = 4.0 * k * (k + alpha) * (k + beta) * (k + apb) / (c * c * (c + 1.0) * (c - 1.0))
    return ra, rb


def jacobi_normalized_table(alpha: float, beta: float, nmax: int, x) -> np.ndarray:
    """Table of normalized Jacobi polynomials p_0..p_nmax at x.

    Normalization: unit mass, i.e. p_0 = 1 and
    (1/mass) * int p_n^2 (1-x)^alpha (1+x)^beta dx = 1.
    Returns an array of shape (nmax+1,) + x.shape.
    """
    x = _as_array(x)
    ra, rb = jacobi_recurrence(alpha, beta, nmax + 2)
    c = np.sqrt(rb)
    out = np.zeros((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = (x - ra[0]) / c[1]
    for k in range(1, nmax):
        out[k + 1] = ((x - ra[k]) * out[k] - c[k] * out[k - 1]) / c[k + 1]
    return out


def jacobi_normalized_table_with_derivative(alpha: float, beta: float, nmax: int, x):
    """Like jacobi_normalized_table, also returning d/dx of each entry."""
    x = _as_array(x)
    ra, rb = jacobi_recurrence(alpha, beta, nmax + 2)
    c = np.sqrt(rb)
    p = np.zeros((nmax + 1,) + x.shape)
    dp = np.zeros_like(p)
    p[0] = 1.0
    if nmax >= 1:
        p[1] = (x - ra[0]) / c[1]
        dp[1] = 1.0 / c[1]
    for k in range(1, nmax):
        p[k + 1] = ((x - ra[k]) * p[k] - c[k] * p[k - 1]) / c[k + 1]
        dp[k + 1] = (p[k] + (x - ra[k]) * dp[k] - c[k] * dp[k - 1]) / c[k + 1]
    return p, dp


def jacobi_chebyshev_coeffs(alpha: float, beta: float, nmax: int) -> np.ndarray:
    """Lower-triangular C, shape (nmax+1, nmax+1), with p_a = sum_i C[a, i] T_i
    for the normalized Jacobi polynomials of ``jacobi_normalized_table``.

    Runs the same recurrence on Chebyshev coefficient vectors, where
    x T_0 = T_1 and x T_i = (T_{i-1} + T_{i+1}) / 2.
    """
    ra, rb = jacobi_recurrence(alpha, beta, nmax + 2)
    c = np.sqrt(rb)
    out = np.zeros((nmax + 1, nmax + 1))
    out[0, 0] = 1.0
    for k in range(nmax):
        p = out[k]
        xp = np.zeros(nmax + 1)
        xp[1:] = 0.5 * p[:-1]
        xp[1] += 0.5 * p[0]
        xp[:-1] += 0.5 * p[1:]
        out[k + 1] = (xp - ra[k] * p - (c[k] * out[k - 1] if k else 0.0)) / c[k + 1]
    return out


@dataclass(frozen=True)
class JacobiAngleGrid:
    """Angles 0 = thetas[0] < thetas[1] < ... < thetas[m] < pi.

    cos(thetas[k]) for k >= 1 are the zeros of the degree-m Jacobi
    polynomial with parameters (alpha, beta).
    """

    alpha: float
    beta: float
    m: int
    thetas: np.ndarray


def jacobi_angle_grid(alpha: float, beta: float, m: int) -> JacobiAngleGrid:
    """Angle grid from the degree-m Jacobi zeros, the m-point Gauss-Jacobi nodes."""
    z = gauss_rule_1d(alpha, beta, m)[0]
    thetas = np.concatenate([[0.0], np.arccos(z)[::-1]])
    return JacobiAngleGrid(alpha=alpha, beta=beta, m=m, thetas=thetas)


def gauss_rule_1d(alpha: float, beta: float, m: int):
    """m-point Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta.

    Exact for polynomials of degree <= 2m-1; weights are positive and
    sum to the total mass of the weight.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    ra, rb = jacobi_recurrence(alpha, beta, m)
    z, vec = eigh_tridiagonal(ra, np.sqrt(rb[1:m]))
    w = rb[0] * vec[0] ** 2
    p, dp = jacobi_normalized_table_with_derivative(alpha, beta, m, z)
    z = z - p[m] / dp[m]
    order = np.argsort(z)
    return z[order], w[order]
