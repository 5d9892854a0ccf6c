"""Weight functions on the square and the exact moment oracle.

Every weight here is centrally symmetric, W(x, y) = W(-x, -y).  The
modified moments of ``chebyshev_moments`` (Chebyshev tensor basis) are the
ground truth for every exactness assertion in the package.  A product
weight's are closed-form: int T_k(x) (1-x^2)^e dx = int_0^pi cos(k theta)
sin^(2e+1) theta d theta is 0 for odd k and obeys mu_{2p+2} / mu_{2p} =
(p - e - 1/2) / (p + e + 3/2), from the mass, the product of the axes'
closed-form Jacobi masses.  ``moment`` takes the other monomial moments
from tensor Gauss rules, of an order that makes them exact up to roundoff.

The gencheb weight is a product in its angle variables: with
x = cos(u+v), y = cos(u-v), t = cos 2u, s = cos 2v and each integrand
averaged over the images (x, y), (y, x), (-x, -y), (-y, -x) of (t, s),
W dx dy = w(t) w(s) ((s-t)/2)^(2 gamma + 1) dt ds on [-1, 1]^2 with
w = (1-t)^alpha (1+t)^beta.  The average of a polynomial of total degree d
has degree <= d/2 in t and in s, so one Gauss-Jacobi(alpha, beta) rule is
exact for every alpha, beta > -1.

Canonical textual forms: ``const``, ``cheb1``, ``cheb2``,
``gegenbauer:L``, ``jacobi2:A:B``, ``gencheb:A:B:G``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, prod

import numpy as np

from .univariate import _jacobi_mass, chebyshev_t_table, gauss_rule_1d

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
                         The |x-y| factor carries alpha, as (1-t)^a does in the
                         angle variables of the module docstring.
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


def _axis_params(w: WeightSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-axis Jacobi exponents (a, a), (b, b) of a product weight's
    (1-x^2)-type factors."""
    if w.kind == "jacobi2":
        return (w.alpha, w.alpha), (w.beta, w.beta)
    e = w.alpha - 0.5 if w.kind == "gegenbauer" else 0.0
    return (e, e), (e, e)


def _oracle_axes(w: WeightSpec, degree: int):
    """Per-axis Gauss-Jacobi rules (xg, wx), (yg, wy) of the product-weight
    tensor oracle for total degree ``degree``; one rule object serves both
    axes when their exponents agree (every gegenbauer weight)."""
    m = degree // 2 + 1 + _ORACLE_MARGIN
    (pa, _), (pb, _) = _axis_params(w)
    x_rule = gauss_rule_1d(pa, pa, m)
    return x_rule, x_rule if pb == pa else gauss_rule_1d(pb, pb, m)


def _angle_rule(w: WeightSpec, degree: int):
    """The gencheb oracle in the angle variables (t, s) of the module docstring:
    the Gauss-Jacobi(alpha, beta) rule (g, wg) and the factor
    P[a, b] = ((g_b - g_a)/2)^(2 gamma + 1), together exact through ``degree``
    in t and in s.  A ValueError names alpha and beta where the mass, about M^2
    for the Jacobi mass M, is past the float range."""
    g, wg = gauss_rule_1d(w.alpha, w.beta, degree // 2 + 1 + _ORACLE_MARGIN)
    m = float(wg.sum())
    if m * m == inf:
        raise ValueError(f"the gencheb mass at alpha = {w.alpha}, beta = {w.beta} is past the float range")
    return g, wg, ((g[None, :] - g[:, None]) / 2) ** (2 * w.gamma + 1)


def tensor_oracle(w: WeightSpec, degree: int):
    """Tensor quadrature (X, Y, wts) integrating f*W exactly for f in Pi_degree^2.

    X, Y, wts are flat arrays; sum(wts * f(X, Y)) equals the weighted
    integral of any polynomial f of total degree <= degree.  For gencheb the
    points are the four images of the (t, s) grid of ``_angle_rule`` for
    degree/2, each carrying a quarter of the weight.
    """
    if w.kind == "gencheb":
        g, wg, P = _angle_rule(w, degree // 2)
        c, s = np.sqrt((1 + g) / 2), np.sqrt((1 - g) / 2)  # cos u, sin u
        X, Y = (np.outer(c, c) - np.outer(s, s)).ravel(), (np.outer(c, c) + np.outer(s, s)).ravel()
        wts = (np.outer(wg, wg) * P / 4).ravel()
        return np.concatenate([X, Y, -X, -Y]), np.concatenate([Y, X, -Y, -X]), np.tile(wts, 4)
    (xg, wx), (yg, wy) = _oracle_axes(w, degree)
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    return X.ravel(), Y.ravel(), np.outer(wx, wy).ravel()


def chebyshev_moments(w: WeightSpec, degree: int) -> np.ndarray:
    """Modified moments M[i, j] = int T_i(x) T_j(y) W for i, j <= degree.

    |T_i| <= 1 on the square, so |M[i, j]| <= mass at every degree.  A
    product weight gives the outer product of its axes' mu_k = int_0^pi
    cos(k theta) sin^(2e+1) theta d theta (e from ``_axis_params``), by
    mu_{2p+2} = mu_{2p} (p - e - 1/2) / (p + e + 3/2) from M[0, 0] = ``mass``.
    For gencheb and even i + j, T_i(x) T_j(y) averages over the four images
    of (t, s) to (T_p(t) T_q(s) + T_q(t) T_p(s)) / 2 with p = (i+j)/2,
    q = |i-j|/2, so M[i, j] = A[p, q], A = (T(g) wg) P (T(g) wg)^T from ``_angle_rule``.
    """
    if w.kind != "gencheb":
        (ex, _), (ey, _) = _axis_params(w)
        p = np.arange(degree // 2)
        rx, ry = (np.concatenate(([1.0], np.cumprod((p - e - 0.5) / (p + e + 1.5)))) for e in (ex, ey))
        out = np.zeros((degree + 1, degree + 1))
        out[::2, ::2] = mass(w) * np.outer(rx, ry)
        return out
    i = np.arange(degree + 1)
    g, wg, P = _angle_rule(w, degree)
    tg = chebyshev_t_table(degree, g) * wg
    out = (tg @ P @ tg.T)[(i[:, None] + i) // 2, np.abs(i[:, None] - i) // 2]
    # central symmetry: odd total-degree moments vanish identically
    out[(i[:, None] + i) % 2 == 1] = 0.0
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
    if i + j == 0:
        return mass(w)
    # product weights separate into two 1-D integrals
    (xg, wx), (yg, wy) = _oracle_axes(w, max(i, j))
    return float((wx * xg**i).sum() * (wy * yg**j).sum())


def mass(w: WeightSpec) -> float:
    """Total mass moment(w, 0, 0); for a product weight the product of its
    axes' closed-form Jacobi masses."""
    return moment(w, 0, 0) if w.kind == "gencheb" else prod(_jacobi_mass(*ab) for ab in _axis_params(w))

