"""Lagrange interpolation on the node families, Lebesgue constants, and
convergence diagnostics.

Kernel families interpolate through the cardinal functions
K*(., z_k)/K*(z_k, z_k); the Padua family solves the square collocation
system in the product-Chebyshev total-degree basis.  Every interpolant of
degree m keeps one node-side factor in that basis, the rows
T_{d-k}(x) T_k(y) with d <= m: kernel factors are converted to it from the
family's orthonormal basis once, at build time.  Lebesgue constants are
estimated from below on Chebyshev-Lobatto tensor grids (nested when the
resolution goes R -> 2R-1, so the estimate is monotone along that
refinement path); there the cardinal values factor into one x-degree and
one y-degree contraction with the table T_i(g) of the 1-D grid g.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis2d import (
    _BLOCK_BYTES,
    KernelStarSpec,
    _cheb_total_degree_rows,
    _square,
    basis_for,
    dim_upto,
    star_spec_cheb1,
    star_spec_gaussian,
    star_spec_gencheb,
)
from .cubature import _calibrated_rule
from .nodes import NodeSet, gauss_u_nodes, gencheb_nodes, min_t_nodes_even, near_min_t_nodes_odd, padua_points
from .univariate import chebyshev_t_table
from .weights import WeightSpec, cheb1, cheb2, gencheb

__all__ = [
    "Interpolant",
    "interpolate_kernel",
    "interpolate_padua",
    "family_rule",
    "lebesgue_constant",
    "convergence_report",
]

@dataclass(frozen=True)
class Interpolant:
    """Interpolation operator frozen at a node set with sampled values.

    ``factor`` (rows T_{d-k}(x) T_k(y) of degree d <= ``degree``, x nodes) is
    computed once from the nodes; the cardinal functions are
    ell_k(p) = (factor.T @ _cheb_total_degree_rows(degree, x, y))[k].
    """

    nodes: NodeSet
    f_values: np.ndarray
    factor: np.ndarray = field(repr=False)
    degree: int
    collocation_cond: float | None = None  # Padua: 1-norm condition number of the collocation matrix
    coeffs: np.ndarray = field(init=False, repr=False)  # factor @ f_values

    def __post_init__(self):
        object.__setattr__(self, "coeffs", self.factor @ self.f_values)

    def _row_blocks(self, pts: np.ndarray):
        """Basis rows at consecutive blocks of ``pts`` (at least one block)."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        step = max(1, _BLOCK_BYTES // (8 * len(self.factor)))
        for s in range(0, max(len(pts), 1), step):
            yield _cheb_total_degree_rows(self.degree, pts[s:s + step, 0], pts[s:s + step, 1])

    def cardinal_matrix(self, pts: np.ndarray) -> np.ndarray:
        """Matrix L[k, p] = ell_k(pts[p])."""
        return np.hstack([self.factor.T @ rows for rows in self._row_blocks(pts)])

    def __call__(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        pts = np.stack([x.ravel(), y.ravel()], axis=1)
        vals = np.concatenate([self.coeffs @ rows for rows in self._row_blocks(pts)])
        return vals.reshape(x.shape)


def interpolate_kernel(
    nodes: NodeSet, spec: KernelStarSpec, w: WeightSpec, f_values
) -> Interpolant:
    """Kernel interpolant sum_k f(z_k) K*(. , z_k)/K*(z_k, z_k).

    An uncalibrated ``spec`` (sigma > 0, no ``s_matrix``) is calibrated on
    ``nodes`` first; the caller's spec is not changed.
    """
    f_values = np.asarray(f_values, dtype=float)
    if len(f_values) != len(nodes):
        raise ValueError("need one sampled value per node")
    if spec.sigma and spec.s_matrix is None:
        spec = _calibrated_rule(nodes, spec, w)[1]
    # K*(z, p) = G(z) . F(p) / mass with F the basis rows of degrees 0..n and
    # G(z) = [F_low(z); q^T S^-1 Q(z)]; for sigma = 0, K* = K_{n-1} needs no
    # degree-n rows.  The cardinal factor is G(z_k) / (G . F)(z_k).
    basis = basis_for(spec.weight, spec.n)
    deg = spec.n if spec.sigma else spec.n - 1
    G = basis.eval_upto(deg, nodes.points[:, 0], nodes.points[:, 1])
    if spec.sigma:
        lo = dim_upto(spec.n - 1)
        high = spec.q_coeffs.T @ np.linalg.solve(spec.s_matrix, spec.q_coeffs @ G[lo:])
        kdiag = np.einsum("ij,ij->j", G[:lo], G[:lo]) + np.einsum("ij,ij->j", high, G[lo:])
        G[lo:] = high
    else:
        kdiag = np.einsum("ij,ij->j", G, G)
    G /= kdiag
    return Interpolant(nodes=nodes, f_values=f_values, factor=basis.chebyshev_coeffs(deg, G), degree=deg)


def interpolate_padua(n: int, f_values) -> Interpolant:
    """Unique Pi_n^2 interpolant at the Padua points via collocation."""
    nodes = padua_points(n)
    f_values = np.asarray(f_values, dtype=float)
    if len(f_values) != len(nodes):
        raise ValueError(f"need {len(nodes)} values for padua degree {n}")
    V = _cheb_total_degree_rows(n, nodes.points[:, 0], nodes.points[:, 1])  # dim x N, square
    factor = np.linalg.solve(V.T, np.eye(len(V)))  # V^-T, so ||V^-1||_1 = ||factor||_inf
    return Interpolant(nodes=nodes, f_values=f_values, factor=factor, degree=n,
                       collocation_cond=float(np.linalg.norm(V, 1) * np.linalg.norm(factor, np.inf)))


def family_rule(family: str, n: int, alpha: float = 0.5, beta: float = 0.5):
    """Node set, kernel spec calibrated on it, weight, and rule for a named
    interpolation family.

    Families: ``cheb1`` (minimal for even n, near-minimal for odd),
    ``cheb2`` (Gaussian), ``gencheb`` (alpha, beta; gamma = -1/2).
    """
    if family == "cheb1":
        w = cheb1()
        nodes = min_t_nodes_even(n) if n % 2 == 0 else near_min_t_nodes_odd(n)
        spec = star_spec_cheb1(n)
    elif family == "cheb2":
        w = cheb2()
        nodes = gauss_u_nodes(n)
        spec = star_spec_gaussian(w, n)
    elif family == "gencheb":
        w = gencheb(alpha, beta, -0.5)
        nodes = gencheb_nodes(alpha, beta, n)
        spec = star_spec_gencheb(alpha, beta, n)
    else:
        raise ValueError(f"unknown kernel family {family!r}")
    rule, spec = _calibrated_rule(nodes, spec, w)
    return nodes, spec, w, rule


def _lobatto_nodes(resolution: int) -> np.ndarray:
    """Chebyshev-Lobatto points cos(k pi / (R-1)); nested under R -> 2R-1."""
    return np.cos(np.arange(resolution) * np.pi / (resolution - 1))


def _lobatto_grid(resolution: int) -> np.ndarray:
    """Tensor grid of the Lobatto points, x varying slowest."""
    g = _lobatto_nodes(resolution)
    X, Y = np.meshgrid(g, g, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


def lebesgue_constant(
    family: str,
    n: int,
    grid_resolution: int = 256,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> float:
    """Lower estimate of the sup-norm Lebesgue constant on a tensor grid."""
    if grid_resolution < 64:
        raise ValueError("grid_resolution must be >= 64")
    if family == "padua":
        interp = interpolate_padua(n, np.zeros(len(padua_points(n))))
    else:
        nodes, spec, w, _ = family_rule(family, n, alpha, beta)
        interp = interpolate_kernel(nodes, spec, w, np.zeros(len(nodes)))
    # ell_k(g_a, g_b) = sum_i T_i(g_a) sum_j T_j(g_b) factor[(i, j), k]: per
    # block of nodes, contract the x-degree, then the y-degree, and add the
    # |ell_k| into the running sums over k at every grid point.
    m, R = interp.degree, grid_resolution
    tg = chebyshev_t_table(m, _lobatto_nodes(R))
    sums = np.zeros((R, R))
    step = max(1, _BLOCK_BYTES // (8 * R * R))
    for s in range(0, interp.factor.shape[1], step):
        sq = _square(interp.factor[:, s:s + step], m).T            # (k, j, i)
        w = sq.reshape(-1, m + 1) @ tg                             # (k j, a)
        L = np.matmul(tg.T, w.reshape(len(sq), m + 1, R))          # (k, b, a)
        sums += np.abs(L, out=L).sum(axis=0)
    return float(sums.max())


def convergence_report(
    family: str,
    f,
    n_list,
    norm: str = "sup",
    grid_resolution: int = 101,
    alpha: float = 0.5,
    beta: float = 0.5,
):
    """Interpolation errors ||f - L_n f|| over a list of degrees.

    ``sup`` measures on a fixed Lobatto grid; ``L2`` integrates the
    squared error against the family weight with a tensor oracle.
    Returns a list of (n, error) pairs.
    """
    if norm not in ("sup", "L2"):
        raise ValueError("norm must be 'sup' or 'L2'")
    pts = _lobatto_grid(grid_resolution)
    fg = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    out = []
    for n in n_list:
        if family == "padua":
            nodes = padua_points(n)
            fv = f(nodes.points[:, 0], nodes.points[:, 1])
            interp = interpolate_padua(n, fv)
            w = cheb1()
        else:
            nodes, spec, w, _ = family_rule(family, n, alpha, beta)
            fv = f(nodes.points[:, 0], nodes.points[:, 1])
            interp = interpolate_kernel(nodes, spec, w, fv)
        if norm == "sup":
            err = float(np.abs(interp(pts[:, 0], pts[:, 1]) - fg).max())
        else:
            from .weights import tensor_oracle

            X, Y, wts = tensor_oracle(w, 4 * n + 8)
            diff = interp(X, Y) - f(X, Y)
            err = float(np.sqrt((wts * diff * diff).sum()))
        out.append((n, err))
    return out
