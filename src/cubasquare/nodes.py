"""Node families on the square and their generating polynomials.

The four cosine families are one rule: the checkerboard of a cosine
lattice (x_a, y_b) with a + b of one parity (``_checkerboard``).

* ``gauss_u``:        (cos(a pi/(n+2)), cos(b pi/(n+1))), 1 <= a <= n+1,
                      1 <= b <= n, a + b even.
* ``min_t_even``:     (cos(a pi/n), cos(b pi/n)), 0 <= a, b <= n, a + b odd
                      (n = 2m).
* ``near_min_t_odd``: the same lattice, a + b even (n = 2m-1): the
                      complement of the minimal checkerboard.
* ``padua``:          (-cos(a pi/n), -cos(b pi/(n+1))), 0 <= a <= n,
                      0 <= b <= n+1, a + b even.
* ``gencheb``:        fourfold symmetrization of the half-angle sums and
                      differences of Jacobi-zero angles.

Every builder makes each point once; ``_finish`` sorts them, and
``_DEDUP_TOL`` only guards: two points that close are an error, not a merge.

The generating polynomials of the minimal, near-minimal and gencheb
families are the vanishing rows ``p_coeffs @ eval_degree(n, x, y)`` of
their kernel specs (``basis2d.star_spec_cheb1``, ``star_spec_gencheb``),
the rows every build checks; ``vanishing_residual`` reads them there.
``gauss_u`` (quasi-orthogonal: its spec records no rows) and ``padua``
(degree n + 1) keep closed forms in Chebyshev U and T.

The published index ranges for the first three lattices contain
typographical inconsistencies; the forms above are the unique variants
that satisfy the cardinality formulas, make the stated generating
polynomials vanish, and pass the moment-oracle exactness checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .basis2d import basis_for, star_spec_cheb1, star_spec_gencheb
from .univariate import _chebyshev, chebyshev_t_table, gauss_rule_1d

__all__ = [
    "NodeSet",
    "gauss_u_nodes",
    "min_t_nodes_even",
    "near_min_t_nodes_odd",
    "padua_points",
    "gencheb_nodes",
    "lissajous_curve_point",
    "vanishing_residual",
    "moeller_count",
]

_DEDUP_TOL = 1e-12


def moeller_count(n: int) -> int:
    """Lower bound n(n+1)/2 + floor(n/2) for centrally symmetric weights."""
    return n * (n + 1) // 2 + n // 2


@dataclass(frozen=True)
class NodeSet:
    """A finite point set in the closed square with its family metadata."""

    points: np.ndarray
    family: str
    n: int
    expected_count: int
    alpha: float | None = None
    beta: float | None = None
    provenance: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "points", pts)
        if len(pts) != self.expected_count:
            raise ValueError(
                f"{self.family}(n={self.n}): got {len(pts)} points, expected {self.expected_count}"
            )

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> str:
        """The node file: family, n, count, the points as 17-significant-digit
        strings, provenance, and alpha, beta when set; the indent-2 text of
        ``json.dumps``."""
        fields = {"family": self.family, "n": self.n, "count": len(self), "points": [],
                  "provenance": self.provenance}
        if self.alpha is not None:
            fields.update(alpha=self.alpha, beta=self.beta)
        return _json_text(fields, points=_strings_json(self.points))


# one point of a points array at its indent-2 depth
_POINT_TEXT = '    [\n      "{}",\n      "{}"\n    ]'.format


def _strings_json(values: np.ndarray) -> str:
    """A 1-D array, or the rows of an N x 2 array, as the indent-2 JSON array
    of 17-significant-digit strings that ``json.dumps`` writes for it as a
    field of an object: the one format of node and rule files.  Each distinct
    value is formatted once; values are told apart by bit pattern, so 0.0
    and -0.0 (equal as floats) keep their own strings."""
    if not values.size:
        return "[]"
    distinct, at = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64), return_inverse=True)
    text = list(map("{:.17g}".format, distinct.view(float).tolist()))
    strings = list(map(text.__getitem__, at.ravel().tolist()))
    if values.ndim == 1:
        return '[\n    "' + '",\n    "'.join(strings) + '"\n  ]'
    return "[\n" + ",\n".join(map(_POINT_TEXT, strings[0::2], strings[1::2])) + "\n  ]"


def _json_text(fields: dict, **arrays: str) -> str:
    """The text of ``json.dumps(fields, indent=2)``, with the fields named in
    ``arrays`` written as their given text."""
    items = []
    for key, value in fields.items():
        # a nested value is indented one level, as json.dumps indents it inside the object
        text = arrays[key] if key in arrays else json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _finish(points: np.ndarray, **kw) -> NodeSet:
    """Sort the rows lexicographically and build the set.  The builders make
    each point once; ``_DEDUP_TOL`` only guards that: a ValueError names the
    family, n, and alpha, beta if two neighbours in the sorted order lie
    within it (max norm)."""
    pts = points[np.lexsort(points.T[::-1])]
    if (np.abs(np.diff(pts, axis=0)) <= _DEDUP_TOL).all(axis=1).any():
        where = ", ".join(f"{key}={kw[key]}" for key in ("n", "alpha", "beta") if key in kw)
        raise ValueError(f"{kw['family']}({where}): two points lie within {_DEDUP_TOL:g} of each other")
    return NodeSet(points=pts, **kw)


def _cosines(d: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """cos(a pi / d) for a = lo..hi (hi = d by default)."""
    return np.cos(np.arange(lo, d + 1 if hi is None else hi + 1) * np.pi / d)


def _checkerboard(xs: np.ndarray, ys: np.ndarray, parity: int, **meta) -> NodeSet:
    """The lattice points (xs[a], ys[b]) with a + b = parity (mod 2), as a
    ``NodeSet``; xs and ys start at the same lattice index, so the array
    indices have the lattice indices' parity."""
    a, b = np.indices((len(xs), len(ys)))
    cut = (a + b) % 2 == parity
    return _finish(np.column_stack([xs[a[cut]], ys[b[cut]]]), **meta)


def gauss_u_nodes(n: int) -> NodeSet:
    """Gaussian nodes of the degree-(2n-2) rule for the Chebyshev-2 weight."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _checkerboard(_cosines(n + 2, 1, n + 1), _cosines(n + 1, 1, n), 0, family="gauss_u", n=n,
                         expected_count=n * (n + 1) // 2,
                         provenance="interior checkerboard a+b even on pi/(n+2) x pi/(n+1) lattice")


def min_t_nodes_even(n: int) -> NodeSet:
    """Minimal-rule nodes of degree 2n-1 for the Chebyshev-1 weight, n even."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    return _checkerboard(_cosines(n), _cosines(n), 1, family="min_t_even", n=n, expected_count=moeller_count(n),
                         provenance="closed checkerboard a+b odd on pi/n lattice")


def near_min_t_nodes_odd(n: int) -> NodeSet:
    """Near-minimal nodes of degree 2n-1 for the Chebyshev-1 weight, n odd:
    the complement of the minimal checkerboard on the pi/n lattice."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    return _checkerboard(_cosines(n), _cosines(n), 0, family="near_min_t_odd", n=n,
                         expected_count=moeller_count(n) + 1,
                         provenance="even-even and odd-odd full grids of cosine multiples of pi/n")


def padua_points(n: int) -> NodeSet:
    """Padua points: dim Pi_n^2 points on the generating Lissajous curve."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _checkerboard(-_cosines(n), -_cosines(n + 1), 0, family="padua", n=n,
                         expected_count=(n + 1) * (n + 2) // 2,
                         provenance="parity lattice j+l even on pi/n x pi/(n+1) grid, both axes negated")


def gencheb_nodes(alpha: float, beta: float, n: int) -> NodeSet:
    """Minimal (n even) or near-minimal (n odd) nodes for the gencheb weight.

    Even n = 2m uses the degree-m Jacobi angles with parameters
    (alpha, beta) over 1 <= j <= k <= m; odd n = 2m+1 uses parameters
    (alpha+1, beta) over 0 <= j <= k <= m, th_0 = 0.  Each pair gives
    s = cos((th_j - th_k)/2), t = cos((th_j + th_k)/2) and the images
    (s, t), (t, s), (-s, -t), (-t, -s); the pairs with th_j = 0 have s == t
    exactly and give (s, t) and (-s, -t) alone, the 2(m+1) points on the
    main diagonal.  Every point is made once.
    """
    if alpha <= -1 or beta <= -1:
        raise ValueError("alpha, beta must exceed -1")
    if n < 2:
        raise ValueError("n must be >= 2")
    odd, m = n % 2, n // 2
    th = np.arccos(gauss_rule_1d(alpha + 1 if odd else alpha, beta, m)[0])[::-1]
    if odd:  # the fixed angle 0 joins the Gauss-Jacobi angles
        th = np.concatenate([[0.0], th])
    j, k = np.triu_indices(len(th))
    s, t = np.cos((th[j] - th[k]) / 2.0), np.cos((th[j] + th[k]) / 2.0)
    pts = np.column_stack([s, t, t, s, -s, -t, -t, -s]).reshape(-1, 2)
    if odd:  # the first m + 1 pairs have th_j = 0: drop their (t, s), (-t, -s)
        pts = np.delete(pts, np.arange(1, 4 * (m + 1), 2), axis=0)
    return _finish(pts, family=("gencheb_even", "gencheb_odd")[odd], n=n, expected_count=moeller_count(n) + odd,
                   alpha=alpha, beta=beta,
                   provenance=f"fourfold symmetrized half-angle lattice, jacobi degree {m}")


def lissajous_curve_point(n: int, t):
    """Point (-cos((n+1)t), -cos(nt)) on the Padua generating curve."""
    t = np.asarray(t, dtype=float)
    return np.stack([-np.cos((n + 1) * t), -np.cos(n * t)], axis=-1)


def vanishing_residual(ns: NodeSet) -> float:
    """Max absolute value of the family's generating polynomials over the node set."""
    x, y = ns.points.T
    n = ns.n
    if ns.family == "gauss_u":  # U_{n-k}(x) U_k(y) - U_k(x) U_{n-1-k}(y), k = 0..n; row -1 is U_{-1} = 0
        ux, uy = (np.vstack([_chebyshev(n, z, 2.0), np.zeros((1, len(z)))]) for z in (x, y))
        k = np.arange(n + 1)
        vals = ux[n - k] * uy[k] - ux[k] * uy[n - 1 - k]
    elif ns.family == "padua":  # T_{n+1}(x) - T_{n-1}(x) and T_{n+1-k}(x) T_k(y) + T_{n+1-k}(y) T_{k-1}(x)
        tx, ty = chebyshev_t_table(n + 1, x), chebyshev_t_table(n + 1, y)
        k = np.arange(1, n + 2)
        vals = np.vstack([tx[n + 1] - tx[n - 1], tx[n + 1 - k] * ty[k] + ty[n + 1 - k] * tx[k - 1]])
    elif ns.family in ("min_t_even", "near_min_t_odd", "gencheb_even", "gencheb_odd"):
        spec = star_spec_gencheb(ns.alpha, ns.beta, n) if ns.family.startswith("gencheb") else star_spec_cheb1(n)
        vals = spec.p_coeffs @ basis_for(spec.weight).eval_degree(n, x, y)
    else:
        raise ValueError(f"unknown family {ns.family!r}")
    return float(np.abs(vals).max())
