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
With that S, the weights satisfy
lambda_k = 1/K*_n(z_k, z_k) exactly and the cardinal functions
K*_n(., z_k)/K*_n(z_k, z_k) vanish at the other nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .nodes import padua_points
from .univariate import (
    chebyshev_t_table,
    jacobi_chebyshev_coeffs,
    jacobi_normalized_table,
    jacobi_normalized_table_with_derivative,
    jacobi_recurrence,
)
from .weights import WeightSpec, mass as weight_mass, parse_weight, tensor_oracle, weight_string

__all__ = [
    "OrthoBasis2D",
    "basis_for",
    "product_basis",
    "ThreeTermCoefficients",
    "three_term",
    "kernel_K",
    "kernel_matrix",
    "KernelStarSpec",
    "kernel_K_star",
    "kernel_star_matrix",
    "star_spec_gaussian",
    "star_spec_cheb1",
    "star_spec_gencheb",
    "star_spec_from_vanishing",
    "p_general",
    "generalized_basis",
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
        each column c of ``coeffs`` (rows of ``eval_upto(n)``) becomes t with
        c @ eval_upto(n, x, y) == t @ _cheb_total_degree_rows(n, x, y)."""
        raise NotImplementedError

    def eval_degree(self, n: int, x, y) -> np.ndarray:
        lo = dim_upto(n - 1) if n > 0 else 0
        return self.eval_upto(n, x, y)[lo:]


class _ProductOrthoBasis2D(OrthoBasis2D):
    """Tensor basis p_(d-k)(x) q_k(y) from per-axis normalized polynomials."""

    def __init__(self, weight: WeightSpec, ax: tuple[float, float], ay: tuple[float, float]):
        super().__init__(weight)
        self._ax = ax
        self._ay = ay

    def eval_upto(self, n: int, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        tx = jacobi_normalized_table(self._ax[0], self._ax[1], n, x)
        ty = jacobi_normalized_table(self._ay[0], self._ay[1], n, y)
        return _total_degree_rows(tx, ty)

    def chebyshev_coeffs(self, n: int, coeffs: np.ndarray) -> np.ndarray:
        # p_a(x) q_b(y) = sum_ij cx[a, i] cy[b, j] T_i(x) T_j(y): one per-axis
        # map on each side of the (x-degree, y-degree) square, over node blocks
        cx = jacobi_chebyshev_coeffs(self._ax[0], self._ax[1], n)
        cy = jacobi_chebyshev_coeffs(self._ay[0], self._ay[1], n)
        dx, dy = _degree_pairs(n)
        out = np.empty_like(coeffs, dtype=float)
        step = max(1, _BLOCK_BYTES // (16 * (n + 1) ** 2))  # two square work arrays
        for s in range(0, coeffs.shape[1], step):
            sq = _square(coeffs[:, s:s + step], n)
            t = (cx.T @ sq.reshape(n + 1, -1)).reshape(sq.shape)
            out[:, s:s + step] = np.matmul(cy.T, t, out=sq)[dx, dy]
        return out


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
    dx, dy = _degree_pairs(len(tx) - 1)
    rows = tx[dx]
    rows *= ty[dy]
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


def p_general(alpha: float, beta: float, sign: float, k: int, n: int, x, y) -> np.ndarray:
    """The symmetric-function polynomial P_{k,n} evaluated at (2xy, x^2+y^2-1).

    sign -1/2 uses the symmetrized product of normalized Jacobi values;
    sign +1/2 uses the divided-difference quotient, with the boundary
    limit (coincident arguments) taken via derivative values.
    """
    if sign not in (-0.5, 0.5):
        raise ValueError("sign must be -1/2 or +1/2")
    z1, z2 = _split_z(x, y)
    if sign < 0:
        deg = max(n, k)
        t1 = jacobi_normalized_table(alpha, beta, deg, z1)
        t2 = jacobi_normalized_table(alpha, beta, deg, z2)
        return t1[n] * t2[k] + t1[k] * t2[n]
    deg = n + 1
    t1 = jacobi_normalized_table(alpha, beta, deg, z1)
    t2 = jacobi_normalized_table(alpha, beta, deg, z2)
    den = z1 - z2
    small = np.abs(den) < _DIVDIFF_TOL
    safe = np.where(small, 1.0, den)
    out = (t1[deg] * t2[k] - t1[k] * t2[deg]) / safe
    if np.any(small):
        zm = np.asarray(x, dtype=float) * np.asarray(y, dtype=float)
        pm, dpm = jacobi_normalized_table_with_derivative(alpha, beta, deg, zm)
        lim = dpm[deg] * pm[k] - dpm[k] * pm[deg]
        out = np.where(small, lim, out)
    return out


def _gencheb_degree_families(alpha: float, beta: float, sign: float, n: int):
    """(family, params, k, extra-degree, prefactor tag) for each degree-n member."""
    if n == 0:
        return [("1", (alpha, beta), 0, 0, "")]
    if n % 2 == 0:
        m = n // 2
        fams = [("1", (alpha, beta), k, m, "") for k in range(m + 1)]
        fams += [("2", (alpha + 1, beta + 1), k, m - 1, "xx-yy") for k in range(m)]
        return fams
    m = (n - 1) // 2
    fams = [("1", (alpha, beta + 1), k, m, "x+y") for k in range(m + 1)]
    fams += [("2", (alpha + 1, beta), k, m, "x-y") for k in range(m + 1)]
    return fams


def generalized_basis(alpha: float, beta: float, sign: float, n: int):
    """Mutually orthogonal degree-n members for the gencheb weight, unnormalized.

    For n = 2m the list is the symmetric family (k = 0..m) followed by the
    (x^2 - y^2)-prefactored family (k = 0..m-1); for n = 2m+1 it is the
    (x+y)-family (k = 0..m) followed by the (x-y)-family (k = 0..m).
    """
    if alpha <= -1 or beta <= -1:
        raise ValueError("alpha, beta must exceed -1")
    polys = []
    for fam, (pa, pb), k, pdeg, pref in _gencheb_degree_families(alpha, beta, sign, n):
        def make(pa=pa, pb=pb, k=k, pdeg=pdeg, pref=pref):
            def f(x, y):
                x = np.asarray(x, dtype=float)
                y = np.asarray(y, dtype=float)
                core = p_general(pa, pb, sign, k, pdeg, x, y)
                if pref == "x+y":
                    return (x + y) * core
                if pref == "x-y":
                    return (x - y) * core
                if pref == "xx-yy":
                    return (x * x - y * y) * core
                return core
            return f
        polys.append(make())
    return polys


def q_m_polynomial(alpha: float, beta: float, m: int):
    """Extra degree-(2m+1) orthogonal polynomial with the (x+y) factor."""
    if alpha <= -1 or beta <= -1:
        raise ValueError("alpha, beta must exceed -1")

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z1, z2 = _split_z(x, y)
        t1a = jacobi_normalized_table(alpha, beta + 1, m, z1)[m]
        t2a = jacobi_normalized_table(alpha, beta + 1, m, z2)[m]
        t1b = jacobi_normalized_table(alpha + 1, beta, m, z1)[m]
        t2b = jacobi_normalized_table(alpha + 1, beta, m, z2)[m]
        return (x + y) * (t1a * t2b + t2a * t1b)

    return f


class _GenChebOrthoBasis2D(OrthoBasis2D):
    """Normalized gencheb basis; norms are fixed once from the moment oracle."""

    def __init__(self, weight: WeightSpec, nmax: int):
        super().__init__(weight)
        self.nmax = nmax
        self._norms = self._compute_norms(nmax)

    def _eval_raw(self, n: int, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        a, b, g = self.weight.alpha, self.weight.beta, self.weight.gamma
        z1, z2 = _split_z(x, y)
        # one normalized-Jacobi table per parameter pair, reused across degrees
        tables: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}
        need: dict[tuple[float, float], int] = {}
        plans = []
        for d in range(n + 1):
            fams = _gencheb_degree_families(a, b, g, d)
            plans.append(fams)
            for _, pp, k, pdeg, _ in fams:
                need[pp] = max(need.get(pp, 0), pdeg + 1, k)
        for pp, deg in need.items():
            tables[pp] = (
                jacobi_normalized_table(pp[0], pp[1], deg, z1),
                jacobi_normalized_table(pp[0], pp[1], deg, z2),
            )
        den = z1 - z2
        small = np.abs(den) < _DIVDIFF_TOL
        safe = np.where(small, 1.0, den)
        dtables = {}
        if g > 0 and np.any(small):
            zm = x * y
            for pp, deg in need.items():
                dtables[pp] = jacobi_normalized_table_with_derivative(pp[0], pp[1], deg, zm)
        rows = np.empty((dim_upto(n),) + np.broadcast(x, y).shape)
        r = 0
        for d in range(n + 1):
            for _, pp, k, pdeg, pref in plans[d]:
                t1, t2 = tables[pp]
                if g < 0:
                    core = t1[pdeg] * t2[k] + t1[k] * t2[pdeg]
                else:
                    core = (t1[pdeg + 1] * t2[k] - t1[k] * t2[pdeg + 1]) / safe
                    if np.any(small):
                        pm, dpm = dtables[pp]
                        lim = dpm[pdeg + 1] * pm[k] - dpm[k] * pm[pdeg + 1]
                        core = np.where(small, lim, core)
                if pref == "x+y":
                    core = (x + y) * core
                elif pref == "x-y":
                    core = (x - y) * core
                elif pref == "xx-yy":
                    core = (x * x - y * y) * core
                rows[r] = core
                r += 1
        return rows

    def _compute_norms(self, nmax: int) -> np.ndarray:
        X, Y, wts = tensor_oracle(self.weight, 2 * nmax + 2)
        raw = self._eval_raw(nmax, X, Y)
        sq = (raw * raw) @ wts / self.mass
        if np.any(sq <= 0):
            raise ValueError("degenerate gencheb basis member (zero norm)")
        return np.sqrt(sq)

    def eval_upto(self, n: int, x, y) -> np.ndarray:
        if n > self.nmax:
            raise ValueError(f"gencheb basis built for degrees <= {self.nmax}; asked for {n}")
        raw = self._eval_raw(n, x, y)
        return raw / self._norms[: raw.shape[0]].reshape((-1,) + (1,) * (raw.ndim - 1))

    def chebyshev_coeffs(self, n: int, coeffs: np.ndarray) -> np.ndarray:
        # collocation at the Padua points of degree n, unisolvent for degree n
        x, y = padua_points(n).points.T
        V = _cheb_total_degree_rows(n, x, y)
        return np.linalg.solve(V.T, self.eval_upto(n, x, y).T @ coeffs)


def basis_for(w: WeightSpec, nmax: int = 16) -> OrthoBasis2D:
    """Orthonormal basis object for a supported weight, valid for degrees
    0..nmax; shared through a bounded cache keyed by (weight string, nmax)."""
    return _cached_basis(weight_string(w), nmax)


@functools.lru_cache(maxsize=32)
def _cached_basis(key: str, nmax: int) -> OrthoBasis2D:
    w = parse_weight(key)
    if w.kind == "const":
        return _ProductOrthoBasis2D(w, (0.0, 0.0), (0.0, 0.0))
    if w.kind == "gegenbauer":
        e = w.alpha - 0.5
        return _ProductOrthoBasis2D(w, (e, e), (e, e))
    if w.kind == "jacobi2":
        return _ProductOrthoBasis2D(w, (w.alpha, w.alpha), (w.beta, w.beta))
    if w.kind == "gencheb":
        return _GenChebOrthoBasis2D(w, nmax)
    raise ValueError(f"unsupported weight kind {w.kind!r}")  # pragma: no cover


def product_basis(w: WeightSpec, n: int):
    """Orthonormal degree-n slice as a list of callables f(x, y).

    Only product-type weights (const, gegenbauer, jacobi2) are supported.
    """
    if w.kind not in ("const", "gegenbauer", "jacobi2"):
        raise ValueError(f"product_basis does not support weight kind {w.kind!r}")
    basis = basis_for(w, n)

    def member(k):
        def f(x, y):
            return basis.eval_degree(n, np.asarray(x, float), np.asarray(y, float))[k]
        return f

    return [member(k) for k in range(n + 1)]


@dataclass(frozen=True)
class ThreeTermCoefficients:
    """Coefficient matrices of x_i P_n = A_i P_{n+1} + B_i P_n + A'_{n-1,i} P_{n-1}."""

    n: int
    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray


def three_term(w: WeightSpec, n: int) -> ThreeTermCoefficients:
    """Three-term matrices: closed form for product weights, moment-oracle
    projections otherwise.

    B1 = B2 = 0 because every supported weight is centrally symmetric.
    """
    if w.kind == "gencheb":
        return _three_term_projected(w, n)
    if w.kind == "jacobi2":
        ax, ay = (w.alpha, w.alpha), (w.beta, w.beta)
    elif w.kind == "const":
        ax = ay = (0.0, 0.0)
    else:
        e = w.alpha - 0.5
        ax = ay = (e, e)
    _, rbx = jacobi_recurrence(ax[0], ax[1], n + 2)
    _, rby = jacobi_recurrence(ay[0], ay[1], n + 2)
    cx = np.sqrt(rbx)
    cy = np.sqrt(rby)
    A1 = np.zeros((n + 1, n + 2))
    A2 = np.zeros((n + 1, n + 2))
    for k in range(n + 1):
        A1[k, k] = cx[n - k + 1]
        A2[k, k + 1] = cy[k + 1]
    Z = np.zeros((n + 1, n + 1))
    return ThreeTermCoefficients(n=n, A1=A1, A2=A2, B1=Z, B2=Z.copy())


def _three_term_projected(w: WeightSpec, n: int) -> ThreeTermCoefficients:
    from .weights import tensor_oracle

    basis = basis_for(w, n + 1)
    X, Y, wts = tensor_oracle(w, 2 * n + 4)
    Pn = basis.eval_degree(n, X, Y)
    Pn1 = basis.eval_degree(n + 1, X, Y)
    A1 = ((X * Pn) * wts) @ Pn1.T / basis.mass
    A2 = ((Y * Pn) * wts) @ Pn1.T / basis.mass
    Z = np.zeros((n + 1, n + 1))
    return ThreeTermCoefficients(n=n, A1=A1, A2=A2, B1=Z, B2=Z.copy())


def kernel_matrix(w: WeightSpec, n: int, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """Raw reproducing-kernel matrix K_n(a_i, b_j) for degrees 0..n."""
    basis = basis_for(w, n)
    pa = np.asarray(pts_a, dtype=float).reshape(-1, 2)
    pb = np.asarray(pts_b, dtype=float).reshape(-1, 2)
    Fa = basis.eval_upto(n, pa[:, 0], pa[:, 1])
    Fb = basis.eval_upto(n, pb[:, 0], pb[:, 1])
    return (Fa.T @ Fb) / basis.mass


def kernel_K(w: WeightSpec, n: int, z, z2) -> float:
    """Raw reproducing kernel K_n(z, z2) by direct summation."""
    return float(kernel_matrix(w, n, np.array([z]), np.array([z2]))[0, 0])


@dataclass(frozen=True)
class KernelStarSpec:
    """Degree-n splitting of V_n into node-vanishing members and the complement.

    q_coeffs (sigma x (n+1)) and p_coeffs ((n+1-sigma) x (n+1)) express the
    complement set and the vanishing set in the coordinates of the
    orthonormal degree-n basis.  ``s_matrix`` is the discrete Gram of the
    complement under the cubature weights; ``None`` means the identity
    (exact for sigma = 0).  For sigma > 0, ``interp.family_rule`` returns
    a spec calibrated on its node set.
    """

    weight: WeightSpec
    n: int
    sigma: int
    q_coeffs: np.ndarray
    p_coeffs: np.ndarray
    s_matrix: np.ndarray | None = field(default=None)

    def __post_init__(self):
        half = self.n // 2
        if self.sigma not in (0, half, half + 1):
            raise ValueError(
                f"sigma must be 0, floor(n/2) or floor(n/2)+1; got {self.sigma} for n={self.n}"
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
    from .weights import cheb1 as _cheb1

    m = n // 2
    rt = 1.0 / np.sqrt(2.0)
    if n % 2 == 0:
        p = np.zeros((m + 1, n + 1))
        for k in range(m):
            p[k, k] = rt
            p[k, n - k] = rt
        p[m, m] = 1.0
        q = np.zeros((m, n + 1))
        for k in range(m):
            q[k, k] = rt
            q[k, n - k] = -rt
        sigma = m
    else:
        nv = m + 1
        p = np.zeros((nv, n + 1))
        q = np.zeros((nv, n + 1))
        for k in range(nv):
            p[k, k] = rt
            p[k, n - k] = -rt
            q[k, k] = rt
            q[k, n - k] = rt
        sigma = m + 1
    return KernelStarSpec(weight=_cheb1(), n=n, sigma=sigma, q_coeffs=q, p_coeffs=p)


def star_spec_gencheb(alpha: float, beta: float, n: int) -> KernelStarSpec:
    """Gencheb splitting: one displayed family vanishes, the other is the complement."""
    from .weights import gencheb as _gencheb

    w = _gencheb(alpha, beta, -0.5)
    if n % 2 == 0:
        m = n // 2
        p = np.eye(n + 1)[: m + 1]          # symmetric family vanishes on the node set
        q = np.eye(n + 1)[m + 1:]           # sigma = m
        sigma = m
    else:
        m = (n - 1) // 2
        p = np.eye(n + 1)[m + 1:]           # (x-y)-family vanishes
        q = np.eye(n + 1)[: m + 1]          # sigma = m+1
        sigma = m + 1
    return KernelStarSpec(weight=w, n=n, sigma=sigma, q_coeffs=q, p_coeffs=p)


def star_spec_from_vanishing(w: WeightSpec, n: int, vanishing_rows: np.ndarray) -> KernelStarSpec:
    """Build a splitting from arbitrary vanishing combinations (orthonormalized)."""
    V = np.asarray(vanishing_rows, dtype=float)
    qv, _ = np.linalg.qr(V.T)
    p = qv.T
    u, s, vt = np.linalg.svd(V)
    sigma = n + 1 - V.shape[0]
    q = vt[V.shape[0]:]
    return KernelStarSpec(weight=w, n=n, sigma=sigma, q_coeffs=q, p_coeffs=p)


def kernel_star_matrix(spec: KernelStarSpec, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
    """Raw augmented-kernel matrix K*_n(a_i, b_j)."""
    basis = basis_for(spec.weight, spec.n)
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


def kernel_K_star(spec: KernelStarSpec, w: WeightSpec, z, z2) -> float:
    """Raw augmented kernel K*_n(z, z2)."""
    if weight_string(w) != weight_string(spec.weight):
        raise ValueError("weight does not match the kernel spec")
    return float(kernel_star_matrix(spec, np.array([z]), np.array([z2]))[0, 0])
