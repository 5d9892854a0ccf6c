"""Orthogonal polynomial bases on the square, reproducing kernels, and
the augmented interpolation kernel.

Basis members are stored orthonormal with respect to the unit-mass
inner product <f, g> = (1/mass) * int f g W.  Reproducing kernels are
returned for the raw measure W dx dy (i.e. the kernel built from the
raw-orthonormal basis), so that cubature weights are 1/K(z, z) without
extra factors.

The augmented kernel used for minimal and near-minimal rules is

    K*_n(z, z') = K_{n-1}(z, z') + Q(z)^T S^{-1} Q(z'),

where Q collects an orthonormal basis of the complement of the span of
the node-vanishing polynomials inside the degree-n space, and S is the
discrete Gram matrix of Q under the cubature weights.  S is the
identity for Gaussian configurations (sigma = 0); for the other
configurations it is calibrated from the node set together with the
cubature weights (``interp.family_rule`` returns the calibrated spec).
Minimal and near-minimal nodes keep about half of the degree-n members
(sigma = floor(n/2) or floor(n/2) + 1); the Padua points keep all of them
(sigma = n + 1), so K*_n is the reproducing kernel of all of Pi_n^2 under
the discrete inner product and no member vanishes on the nodes.
With that S, the weights satisfy
lambda_k = 1/K*_n(z_k, z_k) exactly and the cardinal functions
K*_n(., z_k)/K*_n(z_k, z_k) vanish at the other nodes.

Each formula has one source.  ``_gencheb_core`` evaluates the gencheb
members from one pair of Jacobi tables at z1, z2 = cos(theta -+ phi); the
gencheb basis groups its rows in four families of one Jacobi pair and
prefactor, and maps them to the rows T_{d-k}(x) T_k(y) from 1-D
Jacobi-to-Chebyshev coefficients in the angle variables, with no solve.
``_kernel_star_diag`` forms K*(z_k, z_k) for the cubature checks and the
interpolation factor, ``_kernel_star_node_factor`` the node factor
G = [F_low; q^T S^-1 Q], ``kernel_star_matrix`` the dense reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .univariate import (
    chebyshev_t_table,
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
    "p_general",
    "q_m_polynomial",
]

_DIVDIFF_TOL = 1e-6

# Work arrays over blocks of points or nodes hold at most this many bytes,
# so memory does not grow with the number of points or nodes.
_BLOCK_BYTES = 16 * 2**20


def dim_upto(n: int) -> int:
    """dim of Pi_n^2 = number of members of degrees 0..n."""
    return (n + 1) * (n + 2) // 2


class OrthoBasis2D:
    """Evaluator for an orthonormal basis of the degree-0..n spaces V_d(W).

    Rows of ``eval_upto`` are ordered by (degree, index-in-degree); each
    degree d contributes d+1 members.
    """

    def __init__(self, weight: WeightSpec):
        self.weight = weight
        self.mass = weight_mass(weight)

    def eval_upto(self, n: int, x, y) -> np.ndarray:
        raise NotImplementedError

    def chebyshev_coeffs(self, n: int, coeffs: np.ndarray) -> np.ndarray:
        """The same polynomials in the rows T_{d-k}(x) T_k(y) of degree <= n:
        each column c of the float array ``coeffs`` (rows of ``eval_upto(n)``)
        becomes, in place, the t with
        c @ eval_upto(n, x, y) == t @ _cheb_total_degree_rows(n, x, y).
        Returns ``coeffs``."""
        raise NotImplementedError

    def eval_degree(self, n: int, x, y) -> np.ndarray:
        lo = dim_upto(n - 1) if n > 0 else 0
        return self.eval_upto(n, x, y)[lo:]


class _ProductOrthoBasis2D(OrthoBasis2D):
    """Tensor basis p_(d-k)(x) q_k(y) from per-axis normalized polynomials."""

    def __init__(self, weight: WeightSpec):
        super().__init__(weight)
        self._ax, self._ay = _axis_params(weight)

    def axis_tables(self, n: int, x, y):
        """The per-axis tables p_0..p_n at x and q_0..q_n at y."""
        return (jacobi_normalized_table(self._ax[0], self._ax[1], n, x),
                jacobi_normalized_table(self._ay[0], self._ay[1], n, y))

    def eval_upto(self, n: int, x, y) -> np.ndarray:
        return _total_degree_rows(*self.axis_tables(n, x, y))

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


def _total_degree_rows(tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Rows tx[d-k] * ty[k] ordered by (degree d, k) from two per-axis tables."""
    n = len(tx) - 1
    rows = np.empty((dim_upto(n),) + np.broadcast_shapes(tx.shape[1:], ty.shape[1:]))
    for d in range(n + 1):
        r = dim_upto(d - 1)
        np.multiply(tx[d::-1], ty[:d + 1], out=rows[r:r + d + 1])
    return rows


def _cheb_total_degree_rows(n: int, x, y) -> np.ndarray:
    """Rows T_{d-k}(x) T_k(y), ordered by (degree, k), at the points."""
    return _total_degree_rows(chebyshev_t_table(n, x), chebyshev_t_table(n, y))


def _split_z(x, y):
    """cos(theta -+ phi) as functions of x = cos theta, y = cos phi."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.sqrt(np.maximum((1.0 - x * x) * (1.0 - y * y), 0.0))
    return x * y + s, x * y - s


def _gencheb_core(pair: tuple[float, float], gamma: float, blocks, x, y):
    """Yield, for each (d, k0, k1) of ``blocks``, the members P_{k,d}(2xy, x^2+y^2-1)
    for k = k0..k1-1 stacked along a new first axis, all with the Jacobi
    parameter ``pair``, from one pair of normalized Jacobi tables at
    z1, z2 = cos(theta -+ phi).

    gamma -1/2 gives the symmetrized product p_d(z1) p_k(z2) + p_k(z1) p_d(z2);
    gamma +1/2 the divided difference
    (p_{d+1}(z1) p_k(z2) - p_k(z1) p_{d+1}(z2)) / (z1 - z2), whose
    coincident-argument limit is taken from derivative values at z1 = z2 = xy.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z1, z2 = _split_z(x, y)
    up = int(gamma > 0)
    deg = max(max(d + up, k1 - 1) for d, _, k1 in blocks)
    t1 = jacobi_normalized_table(*pair, deg, z1)
    t2 = jacobi_normalized_table(*pair, deg, z2)
    if gamma < 0:
        for d, k0, k1 in blocks:
            core = t1[d] * t2[k0:k1]
            core += t1[k0:k1] * t2[d]
            yield core
        return
    den = z1 - z2
    small = np.abs(den) < _DIVDIFF_TOL
    safe = np.where(small, 1.0, den)
    limit = np.any(small)
    if limit:
        pm, dpm = jacobi_normalized_table_with_derivative(*pair, deg, x * y)
    for d, k0, k1 in blocks:
        core = (t1[d + 1] * t2[k0:k1] - t1[k0:k1] * t2[d + 1]) / safe
        if limit:
            core = np.where(small, dpm[d + 1] * pm[k0:k1] - dpm[k0:k1] * pm[d + 1], core)
        yield core


def p_general(alpha: float, beta: float, sign: float, k: int, n: int, x, y) -> np.ndarray:
    """The symmetric-function polynomial P_{k,n} evaluated at (2xy, x^2+y^2-1).

    sign -1/2 uses the symmetrized product of normalized Jacobi values;
    sign +1/2 uses the divided-difference quotient, with the boundary
    limit (coincident arguments) taken via derivative values.
    """
    if sign not in (-0.5, 0.5):
        raise ValueError("sign must be -1/2 or +1/2")
    return next(_gencheb_core((alpha, beta), sign, [(n, k, k + 1)], x, y))[0]


_PREFACTORS = {
    "x+y": lambda x, y: x + y,
    "x-y": lambda x, y: x - y,
    "xx-yy": lambda x, y: x * x - y * y,
}


def q_m_polynomial(alpha: float, beta: float, m: int):
    """Extra degree-(2m+1) orthogonal polynomial with the (x+y) factor."""
    if alpha <= -1 or beta <= -1:
        raise ValueError("alpha, beta must exceed -1")

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.stack(_split_z(x, y))
        ta = jacobi_normalized_table(alpha, beta + 1, m, z)[m]
        tb = jacobi_normalized_table(alpha + 1, beta, m, z)[m]
        return (x + y) * (ta[0] * tb[1] + ta[1] * tb[0])

    return f


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

    def _eval_raw(self, n: int, x, y) -> np.ndarray:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        rows = np.empty((dim_upto(n),) + np.broadcast(x, y).shape)
        for pair, pref, D, k, r, _ in self.families(n):
            p = _PREFACTORS[pref](x, y) if pref else 1.0
            blocks = [(d, 0, d + 1) for d in D[k == 0].tolist()]  # rows k = 0..D of each core degree D
            for s, core in zip(r[k == 0], _gencheb_core(pair, self.weight.gamma, blocks, x, y)):
                np.multiply(core, p, out=rows[s:s + len(core)])
        return rows

    def eval_upto(self, n: int, x, y) -> np.ndarray:
        rows = self._eval_raw(n, x, y)
        norms = np.empty(len(rows))
        for *_, r, nrm in self.families(n):
            norms[r] = nrm
        rows /= norms.reshape((-1,) + (1,) * (rows.ndim - 1))
        return rows

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
        return _three_term_projected(w, n)
    ax, ay = _axis_params(w)
    _, rbx = jacobi_recurrence(ax[0], ax[1], n + 2)
    _, rby = jacobi_recurrence(ay[0], ay[1], n + 2)
    cx = np.sqrt(rbx)
    cy = np.sqrt(rby)
    A1, A2, k = np.zeros((n + 1, n + 2)), np.zeros((n + 1, n + 2)), np.arange(n + 1)
    A1[k, k] = cx[n - k + 1]
    A2[k, k + 1] = cy[k + 1]
    return ThreeTermCoefficients(n=n, A1=A1, A2=A2)


def _three_term_projected(w: WeightSpec, n: int) -> ThreeTermCoefficients:
    basis = basis_for(w)
    X, Y, wts = tensor_oracle(w, 2 * n + 4)
    Pn = basis.eval_degree(n, X, Y)
    Pn1 = basis.eval_degree(n + 1, X, Y)
    A1 = ((X * Pn) * wts) @ Pn1.T / basis.mass
    A2 = ((Y * Pn) * wts) @ Pn1.T / basis.mass
    return ThreeTermCoefficients(n=n, A1=A1, A2=A2)


@dataclass(frozen=True)
class KernelStarSpec:
    """Degree-n splitting of V_n into node-vanishing members and the complement.

    q_coeffs (sigma x (n+1)) and p_coeffs ((n+1-sigma) x (n+1)) express the
    complement set and the vanishing set in the coordinates of the
    orthonormal degree-n basis.  sigma is 0 (Gaussian), floor(n/2) or
    floor(n/2)+1 (minimal and near-minimal), or n+1 (Padua: no member
    vanishes).  ``s_matrix`` is the discrete Gram of the complement under
    the cubature weights; ``None`` means the identity (exact for sigma = 0).
    For sigma > 0, ``interp.family_rule`` returns a spec calibrated on its
    node set.
    """

    weight: WeightSpec
    n: int
    sigma: int
    q_coeffs: np.ndarray
    p_coeffs: np.ndarray
    s_matrix: np.ndarray | None = field(default=None)

    def __post_init__(self):
        half = self.n // 2
        if self.sigma not in (0, half, half + 1, self.n + 1):
            raise ValueError(
                f"sigma must be 0, floor(n/2), floor(n/2)+1 or n+1; got {self.sigma} for n={self.n}"
            )
        if self.q_coeffs.shape != (self.sigma, self.n + 1):
            raise ValueError("q_coeffs has wrong shape")


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
    """Raw augmented-kernel matrix K*_n(a_i, b_j)."""
    basis = basis_for(spec.weight)
    pa = np.asarray(pts_a, dtype=float).reshape(-1, 2)
    pb = np.asarray(pts_b, dtype=float).reshape(-1, 2)
    Fa = basis.eval_upto(spec.n, pa[:, 0], pa[:, 1])
    Fb = basis.eval_upto(spec.n, pb[:, 0], pb[:, 1])
    lo = dim_upto(spec.n - 1)
    K = Fa[:lo].T @ Fb[:lo]
    if spec.sigma:
        Qa = spec.q_coeffs @ Fa[lo:]
        Qb = spec.q_coeffs @ Fb[lo:]
        S = spec.s_matrix
        if S is None:
            K = K + Qa.T @ Qb
        else:
            K = K + Qa.T @ np.linalg.solve(S, Qb)
    return K / basis.mass


def _kernel_star_node_factor(spec: KernelStarSpec, F: np.ndarray) -> np.ndarray:
    """Turn the basis rows F at the nodes z_j (degrees <= n; <= n-1 suffice for
    sigma = 0) into G = [F_low; q^T S^-1 Q] in place, so that
    K*(z_j, p) = G[:, j] . F(p) / mass, and return the diagonal
    mass * K*(z_j, z_j) = sum_i G[i, j] F[i, j].  ``spec.s_matrix`` must be
    set when sigma > 0."""
    lo = dim_upto(spec.n - 1)
    low_sq = np.einsum("ij,ij->j", F[:lo], F[:lo])
    if not spec.sigma:
        return low_sq
    kdiag, sq = _kernel_star_diag(spec, low_sq, spec.q_coeffs @ F[lo:])
    F[lo:] = spec.q_coeffs.T @ sq
    return kdiag


def _kernel_star_diag(spec: KernelStarSpec, low_sq: np.ndarray, Q: np.ndarray):
    """mass * K*(z_j, z_j) = low_sq[j] + Q[:, j]^T S^-1 Q[:, j] from the squared
    norms ``low_sq`` of the degree <= n-1 rows and the complement rows
    Q = q F_deg at the nodes, together with S^-1 Q."""
    sq = np.linalg.solve(spec.s_matrix, Q)
    return low_sq + np.einsum("ij,ij->j", Q, sq), sq
