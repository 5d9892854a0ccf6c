"""Univariate orthogonal polynomials, their zeros, and 1-D Gauss quadrature.

All evaluators use forward three-term recurrences, stable on [-1, 1].  One
kernel for Chebyshev T and U and one for the normalized Jacobi polynomials
(and their derivatives) fill preallocated rows in place, in the operation
order of the plain array recurrence, so each table is bit for bit its values.
Polynomials of negative degree evaluate to 0 throughout the package.  Zeros
and quadrature rules come from the Golub-Welsch eigenvalue method on the
symmetric Jacobi matrix, followed by one Newton polish step.  The eigenvalue
solve is numpy's LAPACK ``dsyevd`` on the dense tridiagonal matrix: its
Householder step is the identity there, so it runs the divide and conquer
(``dstedc``) of LAPACK's tridiagonal ``dstevd``, and the module needs numpy
alone.
"""

from __future__ import annotations

from contextlib import suppress
from math import exp, inf, lgamma, log, gamma as _gamma

import numpy as np

__all__ = [
    "eval_chebyshev_t",
    "chebyshev_t_table",
    "eval_chebyshev_u",
    "jacobi_recurrence",
    "jacobi_normalized_table",
    "jacobi_normalized_table_with_derivative",
    "jacobi_chebyshev_coeffs",
    "gauss_rule_1d",
]


def _chebyshev(n: int, x, first: float) -> np.ndarray:
    """Table of p_0..p_n at x, shape (n+1,) + x.shape, of p_{k+1} = 2 x p_k - p_{k-1},
    p_0 = 1, p_1 = first * x, each row filled in place."""
    out = np.empty((n + 1,) + np.shape(x))
    r = list(out.reshape(n + 1, -1))
    x = np.asarray(x, dtype=float).reshape(-1)
    x2 = 2.0 * x
    r[0].fill(1.0)
    if n >= 1:
        np.multiply(first, x, out=r[1])
    for k in range(1, n):
        np.multiply(x2, r[k], out=r[k + 1])
        np.subtract(r[k + 1], r[k - 1], out=r[k + 1])
    return out


def eval_chebyshev_t(n: int, x):
    """Chebyshev polynomial of the first kind, T_n(x); 0 for n < 0."""
    return _chebyshev(n, x, 1.0)[n] if n >= 0 else np.zeros_like(x, dtype=float)


def chebyshev_t_table(n: int, x) -> np.ndarray:
    """Table of T_0..T_n at x, shape (n+1,) + x.shape; row k equals
    ``eval_chebyshev_t(k, x)`` bit for bit (same recurrence)."""
    return _chebyshev(n, x, 1.0)


def eval_chebyshev_u(n: int, x):
    """Chebyshev polynomial of the second kind, U_n(x); 0 for n < 0."""
    return _chebyshev(n, x, 2.0)[n] if n >= 0 else np.zeros_like(x, dtype=float)


def _jacobi_mass(alpha: float, beta: float) -> float:
    """The mass 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2) of (1-x)^alpha (1+x)^beta
    on [-1, 1]; from logs where a Gamma value or the product leaves the float
    range (alpha + beta >~ 150), and a ValueError where the mass itself does."""
    apb = alpha + beta
    with suppress(OverflowError):
        mass = 2.0 ** (apb + 1.0) * _gamma(alpha + 1.0) * _gamma(beta + 1.0) / _gamma(apb + 2.0)
        if mass < inf:
            return mass
    try:
        return exp((apb + 1.0) * log(2.0) + lgamma(alpha + 1.0) + lgamma(beta + 1.0) - lgamma(apb + 2.0))
    except OverflowError:
        raise ValueError(f"the Jacobi mass at alpha = {alpha}, beta = {beta} is past the float range") from None


def jacobi_recurrence(alpha: float, beta: float, n: int):
    """Monic Jacobi recurrence coefficients (ra, rb), Gautschi convention.

    p_{k+1} = (x - ra[k]) p_k - rb[k] p_{k-1}, with rb[0] set to the
    total mass of (1-x)^alpha (1+x)^beta on [-1, 1].
    """
    if alpha <= -1 or beta <= -1:
        raise ValueError(f"jacobi parameters must exceed -1, got ({alpha}, {beta})")
    ra, rb = np.zeros(max(n, 1)), np.zeros(max(n, 1))
    apb = alpha + beta
    ra[0] = (beta - alpha) / (apb + 2.0)
    rb[0] = _jacobi_mass(alpha, beta)
    if n > 1:
        ra[1] = (beta * beta - alpha * alpha) / ((apb + 2.0) * (apb + 4.0))
        rb[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0))
    k = np.arange(2.0, n)
    c = 2.0 * k + apb
    ra[2:] = (beta * beta - alpha * alpha) / (c * (c + 2.0))
    rb[2:] = 4.0 * k * (k + alpha) * (k + beta) * (k + apb) / (c * c * (c + 1.0) * (c - 1.0))
    return ra, rb


def _jacobi(alpha: float, beta: float, nmax: int, x, derivative: bool):
    """The normalized Jacobi table p_0..p_nmax at x and, if ``derivative``,
    the table of d/dx (else None), their rows filled in place from
    p_{k+1} = ((x - ra[k]) p_k - c[k] p_{k-1}) / c[k+1], c = sqrt(rb), and
    p'_{k+1} = (p_k + (x - ra[k]) p'_k - c[k] p'_{k-1}) / c[k+1]."""
    ra, rb = jacobi_recurrence(alpha, beta, nmax + 2)
    a, c = ra.tolist(), np.sqrt(rb).tolist()
    p = np.empty((nmax + 1,) + np.shape(x))
    dp = np.empty_like(p) if derivative else None
    r = list(p.reshape(nmax + 1, -1))
    dr = list(dp.reshape(nmax + 1, -1)) if derivative else []
    x = np.asarray(x, dtype=float).reshape(-1)
    t, u = np.empty_like(x), np.empty_like(x)
    r[0].fill(1.0)
    if nmax >= 1:
        np.divide(np.subtract(x, a[0], out=r[1]), c[1], out=r[1])
    for row, value in zip(dr, (0.0, 1.0 / c[1])):
        row.fill(value)
    for k in range(1, nmax):
        np.subtract(x, a[k], out=t)
        if derivative:
            np.add(r[k], np.multiply(t, dr[k], out=dr[k + 1]), out=dr[k + 1])
            np.subtract(dr[k + 1], np.multiply(c[k], dr[k - 1], out=u), out=dr[k + 1])
            np.divide(dr[k + 1], c[k + 1], out=dr[k + 1])
        np.subtract(np.multiply(t, r[k], out=r[k + 1]), np.multiply(c[k], r[k - 1], out=u), out=r[k + 1])
        np.divide(r[k + 1], c[k + 1], out=r[k + 1])
    return p, dp


def jacobi_normalized_table(alpha: float, beta: float, nmax: int, x) -> np.ndarray:
    """Table of normalized Jacobi polynomials p_0..p_nmax at x.

    Normalization: unit mass, i.e. p_0 = 1 and
    (1/mass) * int p_n^2 (1-x)^alpha (1+x)^beta dx = 1.
    Returns an array of shape (nmax+1,) + x.shape.
    """
    return _jacobi(alpha, beta, nmax, x, False)[0]


def jacobi_normalized_table_with_derivative(alpha: float, beta: float, nmax: int, x):
    """Like jacobi_normalized_table, also returning d/dx of each entry."""
    return _jacobi(alpha, beta, nmax, x, True)


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


def gauss_rule_1d(alpha: float, beta: float, m: int):
    """m-point Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta.

    Exact for polynomials of degree <= 2m-1; weights are positive and
    sum to the total mass of the weight.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    ra, rb = jacobi_recurrence(alpha, beta, m)
    jac = np.diag(ra)
    np.fill_diagonal(jac[:, 1:], np.sqrt(rb[1:m]))  # the upper diagonal, all that eigh reads
    z, vec = np.linalg.eigh(jac, UPLO="U")
    w = rb[0] * vec[0] ** 2
    p, dp = jacobi_normalized_table_with_derivative(alpha, beta, m, z)
    z = z - p[m] / dp[m]
    order = np.argsort(z)
    return z[order], w[order]
