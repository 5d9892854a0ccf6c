"""Lagrange interpolation on the node families, Lebesgue constants, and
convergence diagnostics.

Kernel families interpolate through the cardinal functions
K*(., z_k)/K*(z_k, z_k); the Padua family solves the square collocation
system in the product-Chebyshev total-degree basis.  Lebesgue constants
are estimated from below on Chebyshev-Lobatto tensor grids (nested when
the resolution goes R -> 2R-1, so the estimate is monotone along that
refinement path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis2d import (
    KernelStarSpec,
    kernel_star_matrix,
    star_spec_cheb1,
    star_spec_gaussian,
    star_spec_gencheb,
)
from .cubature import _calibrated_rule
from .nodes import NodeSet, gauss_u_nodes, gencheb_nodes, min_t_nodes_even, near_min_t_nodes_odd, padua_points
from .univariate import eval_chebyshev_t
from .weights import WeightSpec, cheb1, cheb2, gencheb

__all__ = [
    "Interpolant",
    "interpolate_kernel",
    "interpolate_padua",
    "family_rule",
    "lebesgue_constant",
    "convergence_report",
]


@dataclass
class Interpolant:
    """Interpolation operator frozen at a node set with sampled values."""

    nodes: NodeSet
    f_values: np.ndarray
    _evaluator: object = field(repr=False)
    collocation_cond: float | None = None  # Padua: condition number of the collocation matrix

    def cardinal_matrix(self, pts: np.ndarray) -> np.ndarray:
        """Matrix L[k, p] = ell_k(pts[p])."""
        return self._evaluator(np.asarray(pts, dtype=float).reshape(-1, 2))

    def __call__(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        pts = np.stack([x.ravel(), y.ravel()], axis=1)
        vals = self.f_values @ self.cardinal_matrix(pts)
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
    kdiag = np.diag(kernel_star_matrix(spec, nodes.points, nodes.points)).copy()

    def evaluator(pts):
        K = kernel_star_matrix(spec, nodes.points, pts)
        return K / kdiag[:, None]

    return Interpolant(nodes=nodes, f_values=f_values, _evaluator=evaluator)


def _cheb_total_degree_rows(n: int, pts: np.ndarray) -> np.ndarray:
    """Rows T_{d-k}(x) T_k(y), ordered by (degree, k), at the points."""
    x, y = pts[:, 0], pts[:, 1]
    tx = np.array([eval_chebyshev_t(k, x) for k in range(n + 1)])
    ty = np.array([eval_chebyshev_t(k, y) for k in range(n + 1)])
    rows = []
    for d in range(n + 1):
        for k in range(d + 1):
            rows.append(tx[d - k] * ty[k])
    return np.array(rows)


def interpolate_padua(n: int, f_values) -> Interpolant:
    """Unique Pi_n^2 interpolant at the Padua points via collocation."""
    nodes = padua_points(n)
    f_values = np.asarray(f_values, dtype=float)
    if len(f_values) != len(nodes):
        raise ValueError(f"need {len(nodes)} values for padua degree {n}")
    V = _cheb_total_degree_rows(n, nodes.points)  # dim x N, square
    cond = float(np.linalg.cond(V))
    lu = np.linalg.inv(V)

    def evaluator(pts):
        B = _cheb_total_degree_rows(n, pts)
        return lu @ B

    return Interpolant(nodes=nodes, f_values=f_values, _evaluator=evaluator, collocation_cond=cond)


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


def _lobatto_grid(resolution: int) -> np.ndarray:
    """Chebyshev-Lobatto tensor grid; nested under R -> 2R-1."""
    g = np.cos(np.arange(resolution) * np.pi / (resolution - 1))
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
    pts = _lobatto_grid(grid_resolution)
    if family == "padua":
        interp = interpolate_padua(n, np.zeros(len(padua_points(n))))
    else:
        nodes, spec, w, _ = family_rule(family, n, alpha, beta)
        interp = interpolate_kernel(nodes, spec, w, np.zeros(len(nodes)))
    L = interp.cardinal_matrix(pts)
    return float(np.abs(L).sum(axis=0).max())


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
