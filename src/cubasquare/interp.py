"""Lagrange interpolation on the node families, Lebesgue constants, and
convergence diagnostics.

Every family, the Padua points included, interpolates through the
cardinal functions K*(., z_k)/K*(z_k, z_k), a kernel sum over the nodes
(Xu, J. Approx. Theory 87, 1996; Caliari, De Marchi, Sommariva, Vianello,
Numer. Algorithms 56, 2011).  So an ``Interpolant`` keeps no dim x N
cardinal factor: its fields are the nodes, ``f_values``, the calibrated
``spec``, ``degree``, the coefficient square ``square`` in the rows
T_i(x) T_j(y) and, for the Padua points, ``collocation_cond``.  The build,
``cardinal_matrix`` and gencheb's Lebesgue factor read the cardinal columns,
the basis rows scaled by ``spec.row_coeffs``, one node block at a time
(``_cardinal_blocks``).

Lebesgue constants are estimated from below on Chebyshev-Lobatto tensor
grids (nested when the resolution goes R -> 2R-1, so the estimate is
monotone along that refinement path), on one point of each orbit of the
folds verified on the nodes; ``lebesgue_constant`` describes its two
routes, from 1-D tables for the product bases and through the cardinal
factor for gencheb.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis2d import (
    _BLOCK_BYTES,
    KernelStarSpec,
    OrthoBasis2D,
    _ProductOrthoBasis2D,
    _degree_pairs,
    _square,
    basis_for,
    dim_upto,
    star_spec_cheb1,
    star_spec_gaussian,
    star_spec_gencheb,
    star_spec_padua,
)
from .cubature import _calibrated_rule
from .nodes import (NodeSet, _cosines, gauss_u_nodes, gencheb_nodes, min_t_nodes_even, near_min_t_nodes_odd,
                    padua_points)
from .univariate import chebyshev_t_table, jacobi_normalized_table
from .weights import WeightSpec, cheb1, cheb2, gencheb, tensor_oracle

__all__ = [
    "Interpolant",
    "interpolate_kernel",
    "interpolate_padua",
    "family_rule",
    "lebesgue_constant",
    "convergence_report",
]


def _cardinal_blocks(spec: KernelStarSpec, pts: np.ndarray, m: int):
    """Per block of at most ``_BLOCK_BYTES`` of the nodes ``pts``: its start, G(z_k) = C F(z_k)
    in the rows F of ``eval_upto(m)`` (C = ``spec.row_coeffs``) and kappa_k = mass K*(z_k, z_k)
    = sum_r C_r F_r(z_k)^2, which give the cardinal functions ell_k(p) = G[:, k] . F(p) / kappa_k."""
    # C = 1 below degree n: only the rows from lo on are weighted and scaled (cheb1 128 builds 1.4x faster)
    basis, C, lo = basis_for(spec.weight), spec.row_coeffs, dim_upto(spec.n - 1)
    step = max(1, _BLOCK_BYTES // (8 * dim_upto(m)))
    for s in range(0, len(pts), step):
        G = basis.eval_upto(m, *pts[s:s + step].T)
        kappa = np.einsum("rk,rk->k", G[:lo], G[:lo]) + np.einsum("r,rk,rk->k", C[lo:], G[lo:], G[lo:])
        G[lo:] *= C[lo:, None]
        yield s, G, kappa
        del G  # before the next block; so must the caller


@dataclass(frozen=True)
class Interpolant:
    """Interpolation operator frozen at a node set with sampled values.

    ``square`` holds C[i, j] of T_i(x) T_j(y), zero above total degree
    ``degree``: the column G (f / kappa) summed over the node blocks of
    ``_cardinal_blocks`` (``spec`` calibrated on the nodes, else a ValueError),
    mapped to the T square by ``chebyshev_coeffs``.  A call reads C and the 1-D
    tables at the points alone: sum_j T_j(y) (C^T T(x))_j.  For the Padua spec (sigma =
    n + 1), ``collocation_cond`` is the 1-norm condition number of the
    collocation matrix V (rows T_{d-k}(x) T_k(y) at the nodes), else None.
    """

    nodes: NodeSet
    f_values: np.ndarray
    spec: KernelStarSpec = field(repr=False)
    degree: int = field(init=False)  # n, or n - 1 for sigma = 0, where K* = K_{n-1}
    collocation_cond: float | None = field(init=False, default=None)
    square: np.ndarray = field(init=False, repr=False)  # C, (degree + 1) x (degree + 1)

    def __post_init__(self):
        f_values = np.asarray(self.f_values, dtype=float)
        if len(f_values) != len(self.nodes):
            raise ValueError("need one sampled value per node")
        spec, pts = self.spec, self.nodes.points
        m = spec.n if spec.sigma else spec.n - 1
        padua = spec.sigma == spec.n + 1
        coeffs, rows, v1 = np.zeros((dim_upto(m), 1)), np.zeros(dim_upto(m)), 0.0
        for s, G, kappa in _cardinal_blocks(spec, pts, m):
            coeffs[:, 0] += G @ (f_values[s:s + len(kappa)] / kappa)
            if padua:  # ||V||_1 = max_k sum_j |T_j(y_k)| sum_{i <= n-j} |T_i(x_k)|, and the row sums of |G / kappa|
                t = np.abs(chebyshev_t_table(m, pts[s:s + len(kappa)].T))
                v1 = max(v1, np.einsum("jk,jk->k", t[:, 1], np.cumsum(t[:, 0], axis=0)[::-1]).max())
                rows += np.abs(G, out=G) @ (1.0 / kappa)
            del G
        object.__setattr__(self, "f_values", f_values)
        object.__setattr__(self, "degree", m)
        object.__setattr__(self, "square", _square(basis_for(spec.weight).chebyshev_coeffs(m, coeffs), m)[:, :, 0])
        if padua:
            # the T-basis cardinal factor is V^-T, and ||V^-1||_1 = ||V^-T||_inf; the
            # Padua rows in T are the cheb1 rows scaled by s_a s_b (s_0 = 1, s_a = sqrt 2)
            sc = np.where(np.arange(m + 1) > 0, np.sqrt(2.0), 1.0)
            dx, dy = _degree_pairs(m)
            object.__setattr__(self, "collocation_cond", float(v1 * (rows * sc[dx] * sc[dy]).max()))

    def cardinal_matrix(self, pts: np.ndarray) -> np.ndarray:
        """Matrix L[k, p] = ell_k(pts[p]): per node block of ``_cardinal_blocks``,
        its columns against the basis rows at blocks of ``pts``."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        basis, m = basis_for(self.spec.weight), self.degree
        L = np.empty((len(self.nodes), len(pts)))
        step = max(1, _BLOCK_BYTES // (8 * dim_upto(m)))
        for s, G, kappa in _cardinal_blocks(self.spec, self.nodes.points, m):
            for p in range(0, len(pts), step):
                L[s:s + len(kappa), p:p + step] = G.T @ basis.eval_upto(m, *pts[p:p + step].T)
            L[s:s + len(kappa)] /= kappa[:, None]
            del G
        return L

    def __call__(self, x, y) -> np.ndarray:
        """Values at (x, y), broadcast together; a ValueError names both shapes if they do not."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        xy = np.stack([x.ravel(), y.ravel()])
        vals = np.empty(xy.shape[1])
        # per block of points: the T table of x and y (2 (m + 1) values a
        # point) and C^T T(x) ((m + 1) more)
        step = max(1, _BLOCK_BYTES // (24 * (self.degree + 1)))
        for s in range(0, len(vals), step):
            t = chebyshev_t_table(self.degree, xy[:, s:s + step])
            vals[s:s + step] = np.einsum("jp,jp->p", t[:, 1], self.square.T @ t[:, 0])
        return vals.reshape(x.shape)


def interpolate_kernel(
    nodes: NodeSet, spec: KernelStarSpec, w: WeightSpec, f_values
) -> Interpolant:
    """Kernel interpolant sum_k f(z_k) K*(. , z_k)/K*(z_k, z_k).

    An uncalibrated ``spec`` (sigma > 0, no ``s_diag``) is calibrated on
    ``nodes`` first; the caller's spec is not changed.
    """
    if spec.sigma and spec.s_diag is None:
        spec = _calibrated_rule(nodes, spec, w)[1]
    return Interpolant(nodes=nodes, f_values=f_values, spec=spec)


def interpolate_padua(n: int, f_values) -> Interpolant:
    """Unique Pi_n^2 interpolant at the Padua points, through the kernel of
    ``family_rule("padua", n)``, with the 1-norm condition number of the
    collocation matrix V (rows T_{d-k}(x) T_k(y) at the nodes)."""
    nodes, spec, _, _ = family_rule("padua", n)
    return Interpolant(nodes=nodes, f_values=f_values, spec=spec)


def _family_parts(family: str, n: int, alpha: float = 0.5, beta: float = 0.5):
    """Weight, node set and uncalibrated kernel spec of a named
    interpolation family (see ``family_rule``)."""
    if family == "cheb1":
        return cheb1(), min_t_nodes_even(n) if n % 2 == 0 else near_min_t_nodes_odd(n), star_spec_cheb1(n)
    if family == "cheb2":
        w = cheb2()
        return w, gauss_u_nodes(n), star_spec_gaussian(w, n)
    if family == "gencheb":
        return gencheb(alpha, beta, -0.5), gencheb_nodes(alpha, beta, n), star_spec_gencheb(alpha, beta, n)
    if family == "padua":
        return cheb1(), padua_points(n), star_spec_padua(n)
    raise ValueError(f"unknown kernel family {family!r}")


def family_rule(family: str, n: int, alpha: float = 0.5, beta: float = 0.5):
    """Node set, kernel spec calibrated on it, weight, and rule for a named
    interpolation family.

    Families: ``cheb1`` (minimal for even n, near-minimal for odd),
    ``cheb2`` (Gaussian), ``gencheb`` (alpha, beta; gamma = -1/2),
    ``padua`` (the Padua points, cheb1 weight).
    """
    w, nodes, spec = _family_parts(family, n, alpha, beta)
    rule, spec = _calibrated_rule(nodes, spec, w)
    return nodes, spec, w, rule


def _lobatto_grid(resolution: int) -> np.ndarray:
    """Tensor grid of the Chebyshev-Lobatto points cos(k pi / (R-1)), x
    varying slowest; nested under R -> 2R-1."""
    g = _cosines(resolution - 1)
    X, Y = np.meshgrid(g, g, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


# grid rows per block of the grid route: few enough that the blocks of the
# diagonal's triangle a >= b overshoot it by one block width, enough for
# full-speed GEMMs
_GRID_ROWS = 32

_FOLDS = {  # name: (x sign, y sign, x and y swapped)
    "x": (-1.0, 1.0, False), "y": (1.0, -1.0, False), "central": (-1.0, -1.0, False),
    "diagonal": (1.0, 1.0, True),
}


def _reflections(pts: np.ndarray, same) -> set[str]:
    """The folds of the square, "x" (x -> -x), "y" (y -> -y), "central"
    ((x, y) -> (-x, -y)) and, once "x" and "y" hold, "diagonal"
    ((x, y) -> (y, x)), verified to map the Lebesgue function onto itself.
    The nodes ``pts`` must map onto themselves, z_pi(k) = sigma z_k to 1e-12
    (paired by sorting coordinates rounded to 2^-30), and ``same(name, pi)``
    must confirm that the route's per-node data maps with them.  Then
    ell_k(sigma p) = ell_pi(k)(p), so Lambda(sigma p) = Lambda(p)."""
    def sort(p):
        return np.lexsort(np.rint(p * 2**30).T[::-1])

    order, found = sort(pts), set()
    for name, (sx, sy, swap) in _FOLDS.items():
        if swap and not {"x", "y"} <= found:
            continue
        image = (pts[:, ::-1] if swap else pts) * [sx, sy]
        pi = np.empty(len(pts), dtype=int)
        pi[sort(image)] = order
        if np.abs(pts[pi] - image).max() <= 1e-12 and same(name, pi):
            found.add(name)
    return found


def _kept(g: np.ndarray, folds: set[str]):
    """The x and y points of the 1-D grid g that the folds keep: g >= 0 (the
    zero line included for odd R) on an axis with its reflection, on y for
    the central one alone."""
    half = g[:(len(g) + 1) // 2]
    return half if "x" in folds else g, half if "y" in folds or folds == {"central"} else g


def _factor_match(factor: np.ndarray, m: int):
    """``same`` of ``_reflections`` for the factor route: D factor ==
    factor[:, pi] to 1e-12 relative with D = (-1)^i, (-1)^j or (-1)^(i+j) on the
    rows T_i(x) T_j(y), i + j <= m, compared through one product with a fixed
    random vector (O(dim + N) memory).  This route folds by the reflections alone."""
    i, j = _degree_pairs(m)
    v = np.random.default_rng(0).uniform(-1.0, 1.0, len(factor))
    vf = v @ factor
    tol = 1e-12 * max(factor.max(), -factor.min()) * np.abs(v).sum()

    def same(name, pi):
        sx, sy, swap = _FOLDS[name]
        return not swap and np.abs((v * sx**i * sy**j) @ factor - vf[pi]).max() <= tol
    return same


def _kappa_match(basis: OrthoBasis2D, C: np.ndarray, kappa: np.ndarray):
    """``same`` of ``_reflections`` for the grid route: kappa[pi] == kappa to
    1e-12 of the largest.  The kernel sum_ij C_ij p_i(x) p_i(x') q_j(y) q_j(y')
    is itself invariant under each reflection (p_i(-x) = (-1)^i p_i(x) for
    the symmetric Jacobi axes of a product weight), and under the swap when
    both axes have one basis and C is symmetric, which is checked too."""
    swaps = basis._ax == basis._ay and np.abs(C - C.T).max() <= 1e-12 * np.abs(C).max()

    def same(name, pi):
        return (swaps or not _FOLDS[name][2]) and np.abs(kappa[pi] - kappa).max() <= 1e-12 * kappa.max()
    return same


def _grid_kernel(basis: OrthoBasis2D, spec: KernelStarSpec, pts: np.ndarray):
    """The coefficient square C (``spec.row_coeffs`` on the square; m = n, or
    n - 1 for the Gaussian nodes) and kappa_k = mass K*(z_k, z_k) from the 1-D
    tables at the nodes ``pts`` of a product basis p_i(x) q_j(y):
    mass K*(z_k, p) = sum_ij C_ij p_i(x_k) p_i(x) q_j(y_k) q_j(y), i + j <= m."""
    m = spec.n if spec.sigma else spec.n - 1
    C = _square(spec.row_coeffs[:, None], m)[:, :, 0]
    px, py = (np.square(jacobi_normalized_table(*ab, m, t)) for ab, t in zip((basis._ax, basis._ay), pts.T))
    return C, np.einsum("jk,jk->k", py, C.T @ px)


def _grid_lebesgue(basis: OrthoBasis2D, pts: np.ndarray, C: np.ndarray, kappa: np.ndarray, g: np.ndarray) -> float:
    """max over the grid g x g of sum_k |ell_k|, ell_k = mass K*(z_k, .) / kappa_k
    from ``_grid_kernel``, on the grid points kept by the folds that
    ``_reflections`` verifies (see ``lebesgue_constant``)."""
    m = len(C) - 1
    folds = _reflections(pts, _kappa_match(basis, C, kappa))
    gx, gy = _kept(g, folds)
    pg = jacobi_normalized_table(*basis._ax, m, gx)
    qg = jacobi_normalized_table(*basis._ay, m, gy)
    xs, col = np.unique(pts[:, 0], return_inverse=True)
    px = jacobi_normalized_table(*basis._ax, m, xs)
    columns = {}  # the node columns by their y-coordinates
    for c in range(len(xs)):
        ks = np.flatnonzero(col == c)
        columns.setdefault(pts[ks, 1].tobytes(), []).append((c, ks))
    sums = np.zeros((len(gx), len(gy)))
    for group in columns.values():
        K = len(group[0][1])
        qy = jacobi_normalized_table(*basis._ay, m, pts[group[0][1], 1])
        Y = (qg[:, :, None] * qy[:, None, :]).reshape(m + 1, -1)  # (j, b k): q_j(g_b) q_j(y_k)
        step = max(1, min(_GRID_ROWS, _BLOCK_BYTES // (8 * len(gy) * K)))
        for c, ks in group:
            Z = pg.T @ (px[:, c, None] * C)  # (a, j): sum_i C_ij p_i(x_c) p_i(g_a)
            inv = 1.0 / kappa[ks]
            for a in range(0, len(gx), step):
                e = min(a + step, len(gx))
                b = e if "diagonal" in folds else len(gy)
                L = Z[a:e] @ Y[:, :b * K]  # (a, b, k)
                sums[a:e, :b] += (np.abs(L, out=L).reshape(-1, K) @ inv).reshape(e - a, b)
    return float(sums.max())


def _factor_lebesgue(pts: np.ndarray, factor: np.ndarray, m: int, g: np.ndarray) -> float:
    """max over the grid g x g of sum_k |ell_k| from the cardinal factor (rows
    T_i(x) T_j(y), i + j <= m, one column per node of ``pts``), on the grid points
    kept by the reflections that ``_reflections`` verifies (see ``lebesgue_constant``)."""
    # ell_k(g_a, g_b) = sum_j T_j(g_b) sum_i T_i(g_a) factor[(i, j), k]: per
    # block of nodes, gathered once with the rows of each y-degree j (rows
    # dim_upto(d-1) + j, d = j..m) side by side, contract the x-degree on each
    # j, then the y-degree, and add the |ell_k| into the running sums over k
    # at every grid point.
    R = len(g)
    folds = _reflections(pts, _factor_match(factor, m))
    tx, ty = (chebyshev_t_table(m, t) for t in _kept(g, folds))
    first = dim_upto(np.arange(m + 1) - 1)  # first row of each degree
    # the rows T_i(x) T_j(y) grouped by y-degree j, i = 0..m-j: group j is
    # columns edges[j]:edges[j + 1] of a node-major block
    order = np.concatenate([first[j:] + j for j in range(m + 1)])
    edges = np.concatenate([[0], np.cumsum(np.arange(m + 1, 0, -1))])
    sums = np.zeros((ty.shape[1], tx.shape[1]))
    step = max(1, _BLOCK_BYTES // (8 * R * R))
    for s in range(0, factor.shape[1], step):
        blk = factor[order, s:s + step].T  # node-major: (k, rows)
        W = np.empty((m + 1, len(blk), tx.shape[1]))               # (j, k, a)
        for j in range(m + 1):
            np.matmul(blk[:, edges[j]:edges[j + 1]], tx[:m + 1 - j], out=W[j])
        L = (ty.T @ W.reshape(m + 1, -1)).reshape(len(sums), len(blk), -1)  # (b, k, a)
        sums += np.abs(L, out=L).sum(axis=1)
    return float(sums.max())


def lebesgue_constant(
    family: str,
    n: int,
    grid_resolution: int = 256,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> float:
    """Lower estimate of the sup-norm Lebesgue constant on a tensor grid.

    Lambda = sum_k |ell_k| is evaluated on the R x R Chebyshev-Lobatto grid,
    on one point of each orbit of the folds that ``_reflections`` verifies:
    an x or y reflection keeps the points g >= 0 of that axis, the central
    one alone those of y, and the diagonal swap the triangle a >= b of the
    quarter grid.  The basis type picks the route.

    Product bases (cheb1: minimal, near-minimal and Padua nodes; cheb2:
    Gaussian nodes) go through ``_grid_kernel``'s coefficient square C and
    kappa, from 1-D tables alone: per node column (one x), the A x (m + 1)
    table sum_i C_ij p_i(x) p_i(g_a), one GEMM with the (m + 1) x B x K table
    q_j(g_b) q_j(y_k) of the column's K nodes (one per set of y-coordinates),
    |.| in place, and the 1/kappa-weighted sum over the column as one GEMV.
    That is N A B (m + 1) multiply-adds on the folded A x B grid, and
    O(n^2 R) memory.  For the minimal nodes at n = 64, R = 256 it is 1.4e9
    (the quarter grid's triangle, in blocks of 32 rows), against 2.8e9 for
    the factor route on the quarter grid.

    gencheb, whose basis is no product in x and y, fills its dim x N
    cardinal factor from the node blocks of ``_cardinal_blocks``, maps it to
    the T rows in place and contracts it over node blocks: the x-degree over
    the total-degree triangle, then the y-degree.
    """
    if grid_resolution < 64:
        raise ValueError("grid_resolution must be >= 64")
    nodes, spec, w, _ = family_rule(family, n, alpha, beta)
    basis, g = basis_for(w), _cosines(grid_resolution - 1)
    if isinstance(basis, _ProductOrthoBasis2D):
        return _grid_lebesgue(basis, nodes.points, *_grid_kernel(basis, spec, nodes.points), g)
    factor = np.empty((dim_upto(n), len(nodes)))  # gencheb: sigma > 0, degree n
    for s, G, kappa in _cardinal_blocks(spec, nodes.points, n):
        np.divide(G, kappa, out=factor[:, s:s + len(kappa)])
        del G
    return _factor_lebesgue(nodes.points, basis.chebyshev_coeffs(n, factor), n, g)


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

    ``sup`` measures on the Lobatto grid of ``grid_resolution`` points a side;
    ``L2`` integrates the squared error against the family weight with a
    tensor oracle, and builds no grid.  Returns a list of (n, error) pairs.
    """
    if norm not in ("sup", "L2"):
        raise ValueError("norm must be 'sup' or 'L2'")
    if norm == "sup":
        pts = _lobatto_grid(grid_resolution)
        fg = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    out = []
    for n in n_list:
        nodes, spec, w, _ = family_rule(family, n, alpha, beta)
        interp = interpolate_kernel(nodes, spec, w, f(nodes.points[:, 0], nodes.points[:, 1]))
        if norm == "sup":
            err = float(np.abs(interp(pts[:, 0], pts[:, 1]) - fg).max())
        else:
            X, Y, wts = tensor_oracle(w, 4 * n + 8)
            diff = interp(X, Y) - f(X, Y)
            err = float(np.sqrt((wts * diff * diff).sum()))
        out.append((n, err))
    return out
