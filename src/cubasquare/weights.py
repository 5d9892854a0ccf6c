"""Weight functions on the square and the exact moment oracle.

Every weight here is centrally symmetric, W(x, y) = W(-x, -y).  Moments
are computed with tensor Gauss rules whose order is chosen so the result
is exact up to roundoff.  The modified moments of ``chebyshev_moments``
(Chebyshev tensor basis) are the ground truth for every exactness
assertion in the package.

Canonical textual forms: ``const``, ``cheb1``, ``cheb2``,
``gegenbauer:L``, ``jacobi2:A:B``, ``gencheb:A:B:G``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .univariate import chebyshev_t_table, gauss_rule_1d

__all__ = [
    "WeightSpec",
    "constant",
    "cheb1",
    "cheb2",
    "gegenbauer_product",
    "jacobi_product",
    "gencheb",
    "parse_weight",
    "weight_string",
    "mass",
    "moment",
    "chebyshev_moments",
    "is_centrally_symmetric",
    "weight_values",
    "tensor_oracle",
]

_KINDS = ("const", "gegenbauer", "jacobi2", "gencheb")
_ORACLE_MARGIN = 2  # extra per-axis quadrature order beyond exactness


@dataclass(frozen=True)
class WeightSpec:
    """Tagged weight function on [-1, 1]^2.

    kind ``const``:      W = 1.
    kind ``gegenbauer``: W = ((1-x^2)(1-y^2))^(lam - 1/2), parameter ``lam``.
    kind ``jacobi2``:    W = (1-x^2)^alpha (1-y^2)^beta, per-axis exponents.
    kind ``gencheb``:    W = |x-y|^(2a+1) |x+y|^(2b+1) ((1-x^2)(1-y^2))^g,
                         parameters (alpha, beta, gamma), gamma in {-1/2, 1/2}.
                         The |x-y| factor carries alpha: with the Jacobi
                         convention (1-t)^a (1+t)^b this is the square-to-angle
                         transplant of w_a,b(cos(th-ph)) w_a,b(cos(th+ph)) |x^2-y^2|,
                         since (1 -+ cos(th-ph))(1 -+ cos(th+ph)) = (x -+ y)^2.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "gegenbauer" and self.alpha <= -0.5:
            raise ValueError("gegenbauer weight needs lam > -1/2")
        if self.kind == "jacobi2" and (self.alpha <= -1 or self.beta <= -1):
            raise ValueError("jacobi2 weight needs alpha, beta > -1")
        if self.kind == "gencheb":
            if self.alpha <= -1 or self.beta <= -1:
                raise ValueError("gencheb weight needs alpha, beta > -1")
            if self.gamma not in (-0.5, 0.5):
                raise ValueError("gencheb gamma must be -1/2 or +1/2")

    @property
    def lam(self) -> float:
        if self.kind != "gegenbauer":
            raise AttributeError("lam is only defined for gegenbauer weights")
        return self.alpha


def constant() -> WeightSpec:
    return WeightSpec("const")


def gegenbauer_product(lam: float) -> WeightSpec:
    return WeightSpec("gegenbauer", alpha=lam)


def cheb1() -> WeightSpec:
    """Product Chebyshev weight of the first kind (gegenbauer lam = 0)."""
    return gegenbauer_product(0.0)


def cheb2() -> WeightSpec:
    """Product Chebyshev weight of the second kind (gegenbauer lam = 1)."""
    return gegenbauer_product(1.0)


def jacobi_product(alpha: float, beta: float) -> WeightSpec:
    return WeightSpec("jacobi2", alpha=alpha, beta=beta)


def gencheb(alpha: float, beta: float, gamma: float = -0.5) -> WeightSpec:
    return WeightSpec("gencheb", alpha=alpha, beta=beta, gamma=gamma)


def _fmt(v: float) -> str:
    return format(v, ".17g")


def weight_string(w: WeightSpec) -> str:
    """Canonical textual form; parse_weight inverts it."""
    if w.kind == "const":
        return "const"
    if w.kind == "gegenbauer":
        if w.alpha == 0.0:
            return "cheb1"
        if w.alpha == 1.0:
            return "cheb2"
        return f"gegenbauer:{_fmt(w.alpha)}"
    if w.kind == "jacobi2":
        return f"jacobi2:{_fmt(w.alpha)}:{_fmt(w.beta)}"
    return f"gencheb:{_fmt(w.alpha)}:{_fmt(w.beta)}:{_fmt(w.gamma)}"


def parse_weight(text: str) -> WeightSpec:
    """Parse the canonical textual form of a weight."""
    parts = text.strip().split(":")
    name = parts[0]
    if name == "const" and len(parts) == 1:
        return constant()
    if name == "cheb1" and len(parts) == 1:
        return cheb1()
    if name == "cheb2" and len(parts) == 1:
        return cheb2()
    try:
        if name == "gegenbauer" and len(parts) == 2:
            return gegenbauer_product(float(parts[1]))
        if name == "jacobi2" and len(parts) == 3:
            return jacobi_product(float(parts[1]), float(parts[2]))
        if name == "gencheb" and len(parts) == 4:
            return gencheb(float(parts[1]), float(parts[2]), float(parts[3]))
    except ValueError as exc:
        raise ValueError(f"bad weight string {text!r}: {exc}") from None
    raise ValueError(f"bad weight string {text!r}")


def is_centrally_symmetric(w: WeightSpec) -> bool:
    """True for every supported weight kind."""
    return w.kind in _KINDS


def _gencheb_halfint(w: WeightSpec) -> tuple[int, int]:
    """Exponents (on |x-y|, on |x+y|) when both are even nonnegative integers."""
    ea = 2.0 * w.alpha + 1.0
    eb = 2.0 * w.beta + 1.0
    ia, ib = round(ea), round(eb)
    if abs(ea - ia) > 1e-12 or abs(eb - ib) > 1e-12 or ia % 2 or ib % 2 or ia < 0 or ib < 0:
        raise ValueError(
            "gencheb moment oracle needs alpha, beta in {-1/2, 1/2, 3/2, ...} "
            f"so the |x+y|, |x-y| factors are polynomial; got ({w.alpha}, {w.beta})"
        )
    return ia, ib


def _axis_params(w: WeightSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-axis Jacobi exponents (a, a), (b, b) for the (1-x^2)-type factors."""
    if w.kind == "const":
        return (0.0, 0.0), (0.0, 0.0)
    if w.kind == "gegenbauer":
        e = w.alpha - 0.5
        return (e, e), (e, e)
    if w.kind == "jacobi2":
        return (w.alpha, w.alpha), (w.beta, w.beta)
    return (w.gamma, w.gamma), (w.gamma, w.gamma)


def _oracle_axes(w: WeightSpec, degree: int):
    """Per-axis Gauss-Jacobi rules (xg, wx), (yg, wy) of the tensor oracle for
    total degree ``degree``, and the gencheb exponents (ia, ib) on
    (x-y, x+y), which are (0, 0) for the product weights."""
    ia = ib = 0
    if w.kind == "gencheb":
        ia, ib = _gencheb_halfint(w)
    m = (degree + ia + ib) // 2 + 1 + _ORACLE_MARGIN
    (pa, _), (pb, _) = _axis_params(w)
    return gauss_rule_1d(pa, pa, m), gauss_rule_1d(pb, pb, m), (ia, ib)


def tensor_oracle(w: WeightSpec, degree: int):
    """Tensor quadrature (X, Y, wts) integrating f*W exactly for f in Pi_degree^2.

    X, Y, wts are flat arrays; sum(wts * f(X, Y)) equals the weighted
    integral of any polynomial f of total degree <= degree.
    """
    (xg, wx), (yg, wy), (ia, ib) = _oracle_axes(w, degree)
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    Wt = np.outer(wx, wy)
    if w.kind == "gencheb":
        Wt = Wt * (X - Y) ** ia * (X + Y) ** ib
    return X.ravel(), Y.ravel(), Wt.ravel()


def chebyshev_moments(w: WeightSpec, degree: int) -> np.ndarray:
    """Modified moments M[i, j] = int T_i(x) T_j(y) W for i, j <= degree.

    |T_i| <= 1 on the square, so |M[i, j]| <= mass at every degree.  The
    tensor oracle's per-axis rules integrate each T_i(x) T_j(y) W exactly
    and are used in factored form, (T(xg) wx) P (T(yg) wy)^T, where P is
    the m x m matrix of the gencheb factor (x_a - y_b)^ia (x_a + y_b)^ib
    and all ones for the product weights (an outer product).
    """
    (xg, wx), (yg, wy), (ia, ib) = _oracle_axes(w, degree)
    tx = chebyshev_t_table(degree, xg) * wx
    ty = chebyshev_t_table(degree, yg) * wy
    if w.kind == "gencheb":
        out = tx @ (np.subtract.outer(xg, yg) ** ia * np.add.outer(xg, yg) ** ib) @ ty.T
    else:
        out = np.outer(tx.sum(axis=1), ty.sum(axis=1))
    # central symmetry: odd total-degree moments vanish identically
    i = np.arange(degree + 1)
    out[(i[:, None] + i[None, :]) % 2 == 1] = 0.0
    return out


def moment_table(w: WeightSpec, degree: int) -> np.ndarray:
    """All monomial moments m[i, j] = int x^i y^j W for i, j <= degree.

    Not used by the exactness oracle (monomial moments of high degree are
    exponentially small and hide a failing rule); kept as a reference.
    """
    X, Y, wts = tensor_oracle(w, 2 * degree)
    xp = np.vander(X, degree + 1, increasing=True)
    yp = np.vander(Y, degree + 1, increasing=True)
    out = np.einsum("p,pi,pj->ij", wts, xp, yp)
    # central symmetry: odd total-degree moments vanish identically
    i = np.arange(degree + 1)
    odd = (i[:, None] + i[None, :]) % 2 == 1
    out[odd] = 0.0
    return out


def moment(w: WeightSpec, i: int, j: int) -> float:
    """Exact moment int_square x^i y^j W(x, y) dx dy."""
    if i < 0 or j < 0:
        raise ValueError("moment orders must be nonnegative")
    if (i + j) % 2 == 1:
        return 0.0
    if w.kind == "gencheb":
        X, Y, wts = tensor_oracle(w, i + j)
        return float((wts * X**i * Y**j).sum())
    # product weights separate into two 1-D integrals
    (pa, _), (pb, _) = _axis_params(w)
    mx = (i // 2) + 1 + _ORACLE_MARGIN
    my = (j // 2) + 1 + _ORACLE_MARGIN
    xg, wx = gauss_rule_1d(pa, pa, mx)
    yg, wy = gauss_rule_1d(pb, pb, my)
    return float((wx * xg**i).sum() * (wy * yg**j).sum())


def mass(w: WeightSpec) -> float:
    """Total mass moment(w, 0, 0)."""
    return moment(w, 0, 0)


def weight_values(w: WeightSpec, x, y) -> np.ndarray:
    """Pointwise values W(x, y); infinite on the boundary for singular kinds."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if w.kind == "const":
        return np.ones_like(x)
    with np.errstate(divide="ignore"):
        if w.kind == "gegenbauer":
            return ((1 - x * x) * (1 - y * y)) ** (w.alpha - 0.5)
        if w.kind == "jacobi2":
            return (1 - x * x) ** w.alpha * (1 - y * y) ** w.beta
        return (
            np.abs(x - y) ** (2 * w.alpha + 1)
            * np.abs(x + y) ** (2 * w.beta + 1)
            * ((1 - x * x) * (1 - y * y)) ** w.gamma
        )
