"""Orthogonal polynomial bases on the square, reproducing kernels, and
the augmented interpolation kernel.

Basis members are stored orthonormal with respect to the unit-mass
inner product <f, g> = (1/mass) * int f g W.  Reproducing kernels are
returned for the raw measure W dx dy (i.e. the kernel built from the
raw-orthonormal basis), so that cubature weights are 1/K(z, z) without
extra factors.

The augmented kernel used for minimal and near-minimal rules is

    K*_n(z, z') = K_{n-1}(z, z') + sum_i Q_i(z) Q_i(z') / s_i,

where Q collects an orthonormal basis of the complement of the span of
the node-vanishing polynomials inside the degree-n space, and s is the
diagonal of their discrete Gram matrix S under the cubature weights, which
is diagonal on every node family here (Xu, J. Approx. Theory 87, 1996;
Caliari, De Marchi, Sommariva, Vianello, Numer. Algorithms 56, 2011).
s = 1 for Gaussian configurations (sigma = 0); otherwise s is calibrated
from the node set and the weights (``interp.family_rule`` returns it).
Minimal and near-minimal nodes keep about half of the degree-n members
(sigma = floor(n/2) or floor(n/2) + 1); the Padua points keep all of them
(sigma = n + 1), so K*_n is the reproducing kernel of all of Pi_n^2 under
the discrete inner product and no member vanishes on the nodes.
With that s, the weights satisfy
lambda_k = 1/K*_n(z_k, z_k) exactly and the cardinal functions
K*_n(., z_k)/K*_n(z_k, z_k) vanish at the other nodes.

Each formula has one source.  Each basis builds the 1-D tables at the
points once (``_tables``: the two per-axis Jacobi tables, or per gencheb
family one pair of Jacobi tables at z1, z2 = cos(theta -+ phi)) and forms the
rows of a degree from them by one formula (``_rows``: p_{d-k}(x) q_k(y), or
prefactor * ``_core`` / norm per gencheb family).  ``eval_upto``,
``eval_degree`` and ``node_reductions`` (the calibration's |F_low|^2, F_low w
and degree-n rows over node blocks) are built on those two; the vanishing
rows ``p_coeffs @ eval_degree(n)`` of the kernel specs are the generating
polynomials that ``nodes.vanishing_residual`` reads.
The gencheb rows map to T_{d-k}(x) T_k(y) from 1-D Jacobi-to-Chebyshev
coefficients in the angle variables, with no solve.
At a node the kernel is one coefficient per basis row (``KernelStarSpec.row_coeffs``),
which the calibration, the interpolants and the Lebesgue grid route read;
``kernel_star_matrix`` is the dense reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .univariate import (
    jacobi_chebyshev_coeffs,
    jacobi_normalized_table,
    jacobi_normalized_table_with_derivative,
    jacobi_recurrence,
)
from .weights import (
    WeightSpec,
    _axis_params,
    cheb1,
    gencheb,
    mass as weight_mass,
    tensor_oracle,
)

__all__ = [
    "OrthoBasis2D",
    "basis_for",
    "ThreeTermCoefficients",
    "three_term",
    "KernelStarSpec",
    "kernel_star_matrix",
    "star_spec_gaussian",
    "star_spec_cheb1",
    "star_spec_gencheb",
    "star_spec_padua",
]

_DIVDIFF_TOL = 1e-6

# Work arrays over blocks of points or nodes hold at most this many bytes,
# so memory does not grow with the number of points or nodes.
_BLOCK_BYTES = 16 * 2**20


def node_grid(points: np.ndarray, weights: np.ndarray, rows: float | None = None):
    """(u, v, iu, iv, W): the sorted distinct x and y values, each node's indices into
    them and the weights summed onto their grid; None when W would pass ``_BLOCK_BYTES``
    or, given the ``rows`` a per-node route contracts per node, when the grid is the
    dearer contraction: len(u) (len(v) + rows) multiply-adds per table row against rows N."""
    x, y = np.asarray(points, dtype=float).T
    u, v = np.unique(x), np.unique(y)
    size = len(u) * len(v)
    if 8 * size > _BLOCK_BYTES or rows is not None and size > rows * (len(x) - len(u)):
        return None
    iu, iv = np.searchsorted(u, x), np.searchsorted(v, y)
    return u, v, iu, iv, np.bincount(iu * len(v) + iv, weights, minlength=size).reshape(len(u), len(v))


def dim_upto(n: int) -> int:
    """dim of Pi_n^2 = number of members of degrees 0..n."""
    return (n + 1) * (n + 2) // 2


class OrthoBasis2D:
    """Evaluator for an orthonormal basis of the degree-0..n spaces V_d(W).

    Rows of ``eval_upto`` are ordered by (degree, index-in-degree); each
    degree d contributes d+1 members.  A subclass builds its 1-D tables at the
    points once, ``_tables(n, x, y, lo)`` for the rows of ``eval_upto(n)`` from row
    ``lo`` on, and forms the degree-d rows from them by one formula, ``_rows(tables,
    d, out)``, which ``eval_upto``, ``eval_degree`` and ``node_reductions`` read.
    ``node_reductions(n, pts, w_unit)`` yields what ``cubature._checked_calibration``
    reads per block of the nodes (unit-mass weights ``w_unit``) whose work arrays
    hold at most ``_BLOCK_BYTES``: the start, |F_low|^2, the degree-n rows and F_low w
    (F_low the rows of degree <= n-1).  ``chebyshev_coeffs(n, coeffs)`` turns each
    column c of ``coeffs`` (rows of ``eval_upto(n)``) in place into the t with
    c @ eval_upto(n, x, y) == t @ T, T the rows T_{d-k}(x) T_k(y) in the order of
    ``eval_upto``.
    """

    def __init__(self, weight: WeightSpec):
        self.weight = weight
        self.mass = weight_mass(weight)

    def eval_degree(self, n: int, x, y) -> np.ndarray:
        """The degree-n rows of ``eval_upto(n)``, bit for bit, from their tables alone."""
        out = np.empty((n + 1,) + np.broadcast_shapes(np.shape(x), np.shape(y)))
        return self._rows(self._tables(n, x, y, dim_upto(n - 1)), n, out)


class _ProductOrthoBasis2D(OrthoBasis2D):
    """Tensor basis p_(d-k)(x) q_k(y) from per-axis normalized polynomials."""

    def __init__(self, weight: WeightSpec):
        super().__init__(weight)
        self._ax, self._ay = _axis_params(weight)

    def _tables(self, n: int, x, y, lo: int = 0):
        # p_0..p_n at x and q_0..q_n at y: each row of degree n needs both whole
        return (jacobi_normalized_table(self._ax[0], self._ax[1], n, x),
                jacobi_normalized_table(self._ay[0], self._ay[1], n, y))

    @staticmethod
    def _rows(tables, d: int, out: np.ndarray) -> np.ndarray:
        return np.multiply(tables[0][d::-1], tables[1][:d + 1], out=out)  # p_{d-k}(x) q_k(y)

    def eval_upto(self, n: int, x, y) -> np.ndarray:
        return _total_degree_rows(*self._tables(n, x, y))

    def node_reductions(self, n: int, pts: np.ndarray, w_unit: np.ndarray):
        # from the tables at the distinct coordinates (``node_grid``): F_low w = (P_x W P_y^T)[a + b < n]
        # and |F_low|^2 = sum_a p_a(x)^2 C_{n-1-a}(y), C_j = sum_{b <= j} q_b(y)^2, on the grid;
        # per node block the degree-n rows p_{n-k}(x) q_k(y) of ``_rows``, gathered bit for bit
        grid = node_grid(pts, w_unit)
        if grid is None:
            from .cubature import CubatureError  # cubature imports this module
            raise CubatureError(f"node coordinates span a grid past {_BLOCK_BYTES} bytes: no degree-{n} common zeros")
        u, v, iu, iv, W = grid
        px, py = self._tables(n, u, v)
        low_w = ((px[:n] @ W) @ py[:n].T)[_degree_pairs(n - 1)]
        low_sq = (np.square(px[:n]).T @ np.cumsum(np.square(py[:n]), axis=0)[::-1])[iu, iv]
        del grid, W, iu, iv  # the blocks hold no more than the tables and |F_low|^2
        step = max(1, _BLOCK_BYTES // (48 * (n + 1)))
        for s in range(0, len(pts), step):
            rows = px[::-1, np.searchsorted(u, pts[s:s + step, 0])]
            rows *= py[:, np.searchsorted(v, pts[s:s + step, 1])]
            yield s, low_sq[s:s + step], rows, low_w if s == 0 else 0.0

    def chebyshev_coeffs(self, n: int, coeffs: np.ndarray) -> np.ndarray:
        # p_a(x) q_b(y) = sum_ij cx[a, i] cy[b, j] T_i(x) T_j(y): one per-axis
        # map on each side of the (x-degree, y-degree) square, over node blocks
        cx = jacobi_chebyshev_coeffs(self._ax[0], self._ax[1], n)
        cy = jacobi_chebyshev_coeffs(self._ay[0], self._ay[1], n)
        dx, dy = _degree_pairs(n)
        step = max(1, _BLOCK_BYTES // (16 * (n + 1) ** 2))  # two square work arrays
        for s in range(0, coeffs.shape[1], step):
            sq = _square(coeffs[:, s:s + step], n)
            t = (cx.T @ sq.reshape(n + 1, -1)).reshape(sq.shape)
            coeffs[:, s:s + step] = np.matmul(cy.T, t, out=sq)[dx, dy]
        return coeffs


def _degree_pairs(n: int):
    """(x-degree, y-degree) of each row of a degree-<=n basis, ordered by
    (total degree d, y-degree k)."""
    d, k = np.tril_indices(n + 1)
    return d - k, k


def _square(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Columns of degree-<=n coefficients as an (x-degree, y-degree, column)
    array, zero above total degree n."""
    sq = np.zeros((n + 1, n + 1, coeffs.shape[1]))
    sq[_degree_pairs(n)] = coeffs
    return sq


def _stack_rows(rows_of, tables, n: int, shape) -> np.ndarray:
    """The rows of degrees 0..n, each degree's block by rows_of(tables, d, out)."""
    rows = np.empty((dim_upto(n),) + shape)
    for d in range(n + 1):
        rows_of(tables, d, rows[dim_upto(d - 1):dim_upto(d)])
    return rows


def _total_degree_rows(tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Rows tx[d-k] * ty[k] ordered by (degree d, k) from two per-axis tables."""
    return _stack_rows(_ProductOrthoBasis2D._rows, (tx, ty), len(tx) - 1,
                       np.broadcast_shapes(tx.shape[1:], ty.shape[1:]))


def _split_z(x, y):
    """cos(theta -+ phi) as functions of x = cos theta, y = cos phi."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.sqrt(np.maximum((1.0 - x * x) * (1.0 - y * y), 0.0))
    return x * y + s, x * y - s


def _angle_tables(pair: tuple[float, float], gamma: float, deg: int, x: np.ndarray, y: np.ndarray):
    """What ``_core`` reads for core degrees <= ``deg`` at the float arrays x, y:
    the Jacobi(``pair``) tables at z1, z2 = ``_split_z(x, y)``, and for gamma +1/2
    (else None) z1 - z2, set to 1 where |z1 - z2| < ``_DIVDIFF_TOL``, that
    mask and, if it holds anywhere, the value and derivative tables at xy."""
    z1, z2 = _split_z(x, y)
    t1, t2 = (jacobi_normalized_table(*pair, deg + (gamma > 0), z) for z in (z1, z2))
    if gamma < 0:
        return t1, t2, None
    den = z1 - z2
    small = np.abs(den) < _DIVDIFF_TOL
    limit = jacobi_normalized_table_with_derivative(*pair, deg + 1, x * y) if small.any() else None
    return t1, t2, (np.where(small, 1.0, den), small, limit)


def _core(tables, D: int, ks: slice, out: np.ndarray | None = None) -> np.ndarray:
    """P_{k,D}(2xy, x^2+y^2-1) for k in ``ks``, stacked along the first axis of
    ``out`` (or a new array), from ``_angle_tables``: for gamma -1/2 the
    symmetrized product p_D(z1) p_k(z2) + p_k(z1) p_D(z2), for gamma +1/2 the
    divided difference (p_{D+1}(z1) p_k(z2) - p_k(z1) p_{D+1}(z2)) / (z1 - z2),
    with its coincident-argument limit from derivative values at z1 = z2 = xy."""
    t1, t2, divided = tables
    if divided is None:
        out = np.multiply(t1[D], t2[ks], out=out)
        out += t1[ks] * t2[D]
        return out
    den, small, limit = divided
    out = np.multiply(t1[D + 1], t2[ks], out=out)
    out -= t1[ks] * t2[D + 1]
    out /= den
    if limit is not None:
        pm, dpm = limit
        np.copyto(out, dpm[D + 1] * pm[ks] - dpm[ks] * pm[D + 1], where=small)
    return out


_PREFACTORS = {
    "x+y": lambda x, y: x + y,
    "x-y": lambda x, y: x - y,
    "xx-yy": lambda x, y: x * x - y * y,
}


class _GenChebOrthoBasis2D(OrthoBasis2D):
    """Normalized gencheb basis with closed-form norms.  In the angle variables
    (t, s) of the ``weights`` module, z1, z2 = s, t, and a member with Jacobi
    pair (a, b) squares against w_ab(t) w_ab(s) ((s-t)/2)^(2 gamma + 1) dt ds
    (the prefactors square to (1 -+ t)(1 -+ s)), so its squared norm is
    M_ab^2 c / mass, M_ab the Jacobi(a, b) mass, with c = 2 (1 + [k = D]) for
    gamma -1/2 and c = 1/2 for gamma +1/2 (D the core degree)."""

    def families(self, n: int):
        """The rows of ``eval_upto(n)`` by family, as (Jacobi pair, prefactor
        tag or None, core degrees D, indices k <= D, row numbers, norms).
        Degree 2m holds the symmetric family (D = m, k = 0..m), then the
        (x^2 - y^2) family (D = m - 1); degree 2m + 1 the (x + y) family, then
        the (x - y) family (D = m each)."""
        a, b = self.weight.alpha, self.weight.beta
        d, r = np.tril_indices(n + 1)
        second = r > d // 2
        fam, k = 2 * (d % 2) + second, r - (d // 2 + 1) * second
        D = d // 2 - (fam == 1)
        c = 2.0 + 2.0 * (k == D) if self.weight.gamma < 0 else np.full(len(k), 0.5)
        pairs = (((a, b), None), ((a + 1, b + 1), "xx-yy"), ((a, b + 1), "x+y"), ((a + 1, b), "x-y"))
        return [(pair, pref, D[f], k[f], np.flatnonzero(f),
                 jacobi_recurrence(*pair, 1)[1][0] * np.sqrt(c[f] / self.mass))  # M_ab sqrt(c / mass)
                for (pair, pref), f in zip(pairs, (fam == i for i in range(4))) if f.any()]

    def _tables(self, n: int, x, y, lo: int = 0):
        # per family of families(n) with rows from row lo on: the family, where its rows of
        # each degree start in it, its prefactor (1.0 for none) and its _angle_tables
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        firsts = dim_upto(np.arange(n + 2) - 1)
        return [(fam, np.searchsorted(fam[4], firsts).tolist(), _PREFACTORS[fam[1]](x, y) if fam[1] else 1.0,
                 _angle_tables(fam[0], self.weight.gamma, fam[2][-1], x, y))
                for fam in self.families(n) if fam[4][-1] >= lo]

    def _rows(self, tables, d: int, out: np.ndarray) -> np.ndarray:
        # prefactor * P_{k,D} / norm for k = 0..D, per family with rows of degree d
        lo = dim_upto(d - 1)
        for (_, _, D, _, rows, norms), at, f, tabs in tables:
            i, e = at[d], at[d + 1]
            if i < e:
                block = _core(tabs, D[i], slice(0, e - i), out[rows[i] - lo:rows[e - 1] - lo + 1])
                block *= f
                block /= norms[i:e].reshape((-1,) + (1,) * (block.ndim - 1))
        return out

    def eval_upto(self, n: int, x, y) -> np.ndarray:
        return _stack_rows(self._rows, self._tables(n, x, y), n, np.broadcast_shapes(np.shape(x), np.shape(y)))

    def node_reductions(self, n: int, pts: np.ndarray, w_unit: np.ndarray):
        # from one _tables per node block.  gamma -1/2: a family's rows (D, k) below degree n are
        # k <= D < m, with norms nu sqrt(1 + [k = D]).  With prefactor f, it adds f^2 (C(z1) C(z2) + K^2)
        # / nu^2 to |F_low|^2 (C = sum_{d < m} p_d^2, K = sum_{d < m} p_d(z1) p_d(z2)) and the
        # entries (D, k) of A + A^T, A = P(z1) diag(f w) P(z2)^T, to F_low w
        if self.weight.gamma > 0:
            raise NotImplementedError("node reductions of the gamma = +1/2 gencheb basis")
        lo, step = dim_upto(n - 1), max(1, _BLOCK_BYTES // (48 * (n + 1)))
        for s in range(0, len(pts), step):
            tables, w = self._tables(n, *pts[s:s + step].T), w_unit[s:s + step]
            low_sq, low_w = np.zeros(len(w)), np.empty(lo)
            for (_, _, D, k, rows, norms), _, f, (t1, t2, _) in tables:
                low = rows < lo
                m = D[low].max(initial=-1) + 1
                c = np.einsum("ij,ij->j", t1[:m], t2[:m])
                nu2 = norms[0] ** 2 / 2  # row (0, 0) has the norm nu sqrt 2
                low_sq += f * f * (np.square(t1[:m]).sum(axis=0) * np.square(t2[:m]).sum(axis=0) + c * c) / nu2
                a = (t1[:m] * (f * w)) @ t2[:m].T
                low_w[rows[low]] = (a + a.T)[D[low], k[low]] / norms[low]
            yield s, low_sq, self._rows(tables, n, np.empty((n + 1, len(w)))), low_w

    def chebyshev_coeffs(self, n: int, coeffs: np.ndarray) -> np.ndarray:
        # With x = cos(u+v), y = cos(u-v), z1 and z2 are cos 2u and cos 2v and
        # a prefactor is a g(u) g(v) (``_angle_series``), so a family with
        # coefficients c[D, k] is a sum_pq E[p, q] (f_p(u) f_q(v) + f_q(u) f_p(v)),
        # E = C'^T c C', which is +-(T_a(x) T_b(y) +- T_b(x) T_a(y)) at
        # a = (p + q)/2, b = |p - q|/2.
        if self.weight.gamma > 0:
            raise NotImplementedError("T-basis map of the gamma = +1/2 gencheb basis")
        fams, scales = [], np.empty((len(coeffs), 1))
        for pair, pref, D, k, rows, norms in self.families(n):
            C, e, scale, sign = _angle_series(jacobi_chebyshev_coeffs(*pair, D[-1]), pref)
            scales[rows, 0] = scale / norms
            i, j = np.tril_indices(C.shape[1])
            first = (2 * i + e) * (2 * i + e + 1) // 2  # output rows of degree a + b = 2i + e
            fams.append((rows[k == 0].tolist(), C, i, j, first + i - j, first + i + j + e, sign))
        coeffs *= scales
        step = max(1, _BLOCK_BYTES // (32 * (n + 1) ** 2))
        for s in range(0, coeffs.shape[1], step):
            cols = coeffs[:, s:s + step]
            out = np.zeros(cols.shape)
            for starts, C, i, j, r1, r2, sign in fams:
                Y = np.empty((len(C), C.shape[1], cols.shape[1]))  # Y[D] = C'^T c[D]^T
                for d, r in enumerate(starts):
                    np.matmul(C[:d + 1].T, cols[r:r + d + 1], out=Y[d])
                E = (C.T @ Y.reshape(len(C), -1)).reshape(C.shape[1], C.shape[1], -1)
                h = E[i, j]
                h[i != j] += E[j[i != j], i[i != j]]
                out[r1] += h
                out[r2] += h if sign > 0 else -h
            cols[:] = out
        return coeffs


def _angle_series(C: np.ndarray, pref: str | None):
    """(C', e, scale, sign) of a gencheb prefactor a g(u) g(v): x + y = 2 cos u
    cos v, x - y = -2 sin u sin v, x^2 - y^2 = -sin 2u sin 2v.  C'[D, i] is the
    coefficient of f_p(u), p = 2i + e, in g(u) p_D(cos 2u) (f = cos for g = 1
    or cos u, sin otherwise); scale = a times -1 for sin, whose combination is
    sin pu sin qv + sin qu sin pv = -(T_a(x) T_b(y) - T_b(x) T_a(y))."""
    if pref is None:
        return C, 0, 1.0, 1.0
    s, sign = (2, -1.0) if pref == "xx-yy" else (1, 1.0 if pref == "x+y" else -1.0)
    Cp = np.zeros((len(C), len(C) + s - 1))  # g(u) cos 2iu = (f_{2i+s} + sign f_{2i-s}) / 2
    Cp[:, s - 1:] += C
    Cp[:, :len(C) - 1] += sign * C[:, 1:]
    Cp[:, s - 1] += C[:, 0]  # i = 0: sign f_{-s} = f_s
    return Cp / 2, s % 2, 3.0 - s, sign


@functools.lru_cache(maxsize=32)
def basis_for(w: WeightSpec) -> OrthoBasis2D:
    """Orthonormal basis object for a supported weight, valid at every degree;
    shared through a bounded cache keyed by the weight."""
    return _GenChebOrthoBasis2D(w) if w.kind == "gencheb" else _ProductOrthoBasis2D(w)


@dataclass(frozen=True)
class ThreeTermCoefficients:
    """Coefficient matrices of x_i P_n = A_i P_{n+1} + A_{n-1,i}^T P_{n-1}; there
    is no P_n term, as every supported weight is centrally symmetric."""

    n: int
    A1: np.ndarray
    A2: np.ndarray


def three_term(w: WeightSpec, n: int) -> ThreeTermCoefficients:
    """Three-term matrices: closed form for product weights, moment-oracle
    projections otherwise."""
    if w.kind == "gencheb":
        basis = basis_for(w)
        X, Y, wts = tensor_oracle(w, 2 * n + 4)
        Pn = basis.eval_degree(n, X, Y)
        Pn1 = basis.eval_degree(n + 1, X, Y)
        A1 = ((X * Pn) * wts) @ Pn1.T / basis.mass
        A2 = ((Y * Pn) * wts) @ Pn1.T / basis.mass
        return ThreeTermCoefficients(n=n, A1=A1, A2=A2)
    cx, cy = (np.sqrt(jacobi_recurrence(*ab, n + 2)[1]) for ab in _axis_params(w))
    A1, A2, k = np.zeros((n + 1, n + 2)), np.zeros((n + 1, n + 2)), np.arange(n + 1)
    A1[k, k] = cx[n - k + 1]
    A2[k, k + 1] = cy[k + 1]
    return ThreeTermCoefficients(n=n, A1=A1, A2=A2)


@dataclass(frozen=True)
class KernelStarSpec:
    """Degree-n splitting of V_n into node-vanishing members and the complement.

    q_coeffs (sigma x (n+1)) and p_coeffs ((n+1-sigma) x (n+1)) express the
    complement set and the vanishing set in the coordinates of the
    orthonormal degree-n basis; no two complement members share a basis row,
    and each vanishing member combines at most two.
    sigma is 0 (Gaussian), floor(n/2) or floor(n/2)+1 (minimal and
    near-minimal), or n+1 (Padua: no member vanishes).  ``s_diag`` is the
    diagonal of the discrete Gram S of the complement under the cubature
    weights (S is diagonal); ``None`` means the identity (exact for sigma = 0).
    For sigma > 0, ``interp.family_rule`` returns a spec calibrated on its node set.
    """

    weight: WeightSpec
    n: int
    sigma: int
    q_coeffs: np.ndarray
    p_coeffs: np.ndarray
    s_diag: np.ndarray | None = field(default=None)

    def __post_init__(self):
        half = self.n // 2
        if self.sigma not in (0, half, half + 1, self.n + 1):
            raise ValueError(
                f"sigma must be 0, floor(n/2), floor(n/2)+1 or n+1; got {self.sigma} for n={self.n}"
            )
        if self.q_coeffs.shape != (self.sigma, self.n + 1):
            raise ValueError("q_coeffs has wrong shape")
        if np.count_nonzero(self.q_coeffs, axis=0).max(initial=0) > 1:
            raise ValueError("two rows of q_coeffs share a basis row")
        if np.count_nonzero(self.p_coeffs, axis=1).max(initial=0) > 2:
            raise ValueError("a row of p_coeffs combines more than two basis rows")

    @functools.cached_property
    def row_coeffs(self) -> np.ndarray:
        """C_r for each row r of ``eval_upto(m)`` (m = n, or n - 1 for sigma = 0), with
        mass K*(z_k, p) = sum_r C_r F_r(z_k) F_r(p) at the nodes z_k: 1 below degree n,
        1/s_i on the degree-n rows of complement member i, else 0 (at a node, the rows
        of member i's support are q_ir Q_i, as the vanishing members are zero there)."""
        if self.sigma and self.s_diag is None:
            raise ValueError(f"the kernel spec (n = {self.n}, sigma = {self.sigma}) is not calibrated on a node "
                             "set: interp.family_rule or interp.interpolate_kernel calibrates it")
        ones = np.ones(dim_upto(self.n - 1))
        return np.concatenate([ones, (self.q_coeffs != 0).T @ (1.0 / self.s_diag)]) if self.sigma else ones


def star_spec_gaussian(w: WeightSpec, n: int) -> KernelStarSpec:
    """Gaussian configuration: sigma = 0, K* = K_{n-1}.

    The node-vanishing family is quasi-orthogonal (degree n plus a
    degree-(n-1) correction), so no degree-n combination is recorded.
    """
    return KernelStarSpec(
        weight=w,
        n=n,
        sigma=0,
        q_coeffs=np.zeros((0, n + 1)),
        p_coeffs=np.zeros((0, n + 1)),
    )


def star_spec_cheb1(n: int) -> KernelStarSpec:
    """Chebyshev-1 splitting: symmetric/antisymmetric pair combinations.

    Even n: vanishing = symmetric combinations (sigma = n/2 complement).
    Odd n: vanishing = antisymmetric combinations (sigma = (n+1)/2).
    """
    m, rt, k = n // 2, 1.0 / np.sqrt(2.0), np.arange((n + 1) // 2)  # pairs (k, n - k), k < n - k
    plus, minus = np.zeros((2, len(k), n + 1))
    plus[k, k] = plus[k, n - k] = minus[k, k] = rt
    minus[k, n - k] = -rt
    if n % 2:
        return KernelStarSpec(weight=cheb1(), n=n, sigma=m + 1, q_coeffs=plus, p_coeffs=minus)
    middle = np.eye(1, n + 1, m)  # T_m(x) T_m(y), its own symmetric combination
    return KernelStarSpec(weight=cheb1(), n=n, sigma=m, q_coeffs=minus, p_coeffs=np.vstack([plus, middle]))


def star_spec_gencheb(alpha: float, beta: float, n: int) -> KernelStarSpec:
    """Gencheb splitting: one family of degree n vanishes on the nodes, the
    symmetric one (k = 0..n/2) for even n and the (x - y) one for odd n; the
    other is the complement (sigma = floor(n/2) or floor(n/2) + 1)."""
    first, second = np.split(np.eye(n + 1), [n // 2 + 1])
    p, q = (first, second) if n % 2 == 0 else (second, first)
    return KernelStarSpec(weight=gencheb(alpha, beta, -0.5), n=n, sigma=len(q), q_coeffs=q, p_coeffs=p)


def star_spec_padua(n: int) -> KernelStarSpec:
    """Padua splitting for the cheb1 weight: every degree-n member is in the
    complement (sigma = n + 1) and none vanishes on the nodes."""
    return KernelStarSpec(weight=cheb1(), n=n, sigma=n + 1, q_coeffs=np.eye(n + 1),
                          p_coeffs=np.zeros((0, n + 1)))


def kernel_star_matrix(spec: KernelStarSpec, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """Raw augmented-kernel matrix K*_n(a_i, b_j) from the dense basis rows and
    q^T diag(1/s) q, valid at any points: the reference for ``row_coeffs``."""
    basis = basis_for(spec.weight)
    pa = np.asarray(pts_a, dtype=float).reshape(-1, 2)
    pb = np.asarray(pts_b, dtype=float).reshape(-1, 2)
    Fa = basis.eval_upto(spec.n, pa[:, 0], pa[:, 1])
    Fb = basis.eval_upto(spec.n, pb[:, 0], pb[:, 1])
    lo = dim_upto(spec.n - 1)
    K = Fa[:lo].T @ Fb[:lo]
    if spec.sigma:
        s = np.ones(spec.sigma) if spec.s_diag is None else spec.s_diag
        K += (spec.q_coeffs @ Fa[lo:] / s[:, None]).T @ (spec.q_coeffs @ Fb[lo:])
    return K / basis.mass
