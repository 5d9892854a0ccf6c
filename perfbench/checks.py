"""Independent checks of cubasquare's outputs, built on numpy and scipy only.

Nothing here imports ``cubasquare``.  The benchmark compares the program's
answers with these computations:

* rule files: modified moments in a bounded basis, per total degree;
* discovery: the odd and even Hankel systems rebuilt from the closed-form
  Legendre three-term coefficients, and the paper's printed H5;
* Padua Lebesgue constants: the closed-form Padua cardinal functions of
  Bos, De Marchi, Vianello and Xu (2006) on a nested Lobatto grid.

Run this file directly for the checkers' self-test (exit 0 when every
checker accepts the true inputs and rejects the perturbed ones).
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy.special import roots_chebyt

# Relative to the total mass.  True rules up to n = 64 stay below 1e-13;
# a rule read at its declared degree + 1 misses by 0.1 or more.
RULE_TOL = 1e-11


# ---------------------------------------------------------------------------
# rule files


def rule_from_dict(d: dict) -> dict:
    """Weight string, declared degree, nodes (N x 2) and weights of a rule record."""
    return {
        "weight": d["weight"],
        "degree": int(d["degree"]),
        "nodes": np.array([[float(x), float(y)] for x, y in d["nodes"]]),
        "lambdas": np.array([float(v) for v in d["lambdas"]]),
    }


def load_rule(path: str) -> dict:
    with open(path) as fh:
        return rule_from_dict(json.load(fh))


def _three_term_table(d: int, x: np.ndarray, kind: str) -> np.ndarray:
    """Rows 0..d of T_i (cheb), U_i / (i+1) (chebu) or P_i (legendre) at x."""
    out = np.empty((d + 1, x.size))
    out[0] = 1.0
    if d == 0:
        return out
    if kind == "legendre":
        out[1] = x
        for i in range(1, d):
            out[i + 1] = ((2 * i + 1) * x * out[i] - i * out[i - 1]) / (i + 1)
        return out
    out[1] = 2.0 * x if kind == "chebu" else x
    for i in range(1, d):
        out[i + 1] = 2.0 * x * out[i] - out[i - 1]
    if kind == "chebu":
        out /= np.arange(1, d + 2)[:, None]
    return out


def _basis_and_moments(weight: str, d: int):
    """(basis kind, exact moment matrix of basis_i(x) basis_j(y), i, j <= d)."""
    mom = np.zeros((d + 1, d + 1))
    if weight == "cheb1":
        mom[0, 0] = math.pi**2
        return "cheb", mom
    if weight == "cheb2":
        mom[0, 0] = (math.pi / 2.0) ** 2
        return "chebu", mom
    if weight == "const":
        mom[0, 0] = 4.0
        return "legendre", mom
    if weight == "gencheb:0.5:0.5:-0.5":
        # (x-y)^2 (x+y)^2 / sqrt((1-x^2)(1-y^2)); per axis the integrand has
        # degree <= d + 4, so m Gauss-Chebyshev points with 2m - 1 >= d + 4.
        t, wt = roots_chebyt(d // 2 + 4)
        tab = _three_term_table(d, t, "cheb") * wt
        poly = (t[:, None] - t[None, :]) ** 2 * (t[:, None] + t[None, :]) ** 2
        return "cheb", tab @ poly @ tab.T
    raise ValueError(f"no independent moments for weight {weight!r}")


def degree_residuals(weight: str, nodes: np.ndarray, lambdas: np.ndarray, d: int) -> np.ndarray:
    """r[t] = max over i + j = t of |sum_k l_k b_i(x_k) b_j(y_k) - int b_i b_j W| / mass."""
    kind, mom = _basis_and_moments(weight, d)
    bx = _three_term_table(d, nodes[:, 0], kind)
    by = _three_term_table(d, nodes[:, 1], kind)
    err = np.abs((bx * lambdas) @ by.T - mom) / mom[0, 0]
    tot = np.add.outer(np.arange(d + 1), np.arange(d + 1))
    return np.array([err[tot == t].max() for t in range(d + 1)])


def rule_exact(weight: str, nodes, lambdas, degree: int) -> bool:
    return bool(degree_residuals(weight, nodes, lambdas, degree).max() <= RULE_TOL)


def rule_problems(r: dict, declared: int, true_degree: int, count: int) -> list[str]:
    """Problems with a rule record: wrong declared degree or node count,
    a nonpositive weight, not exact through ``true_degree``, or exact at
    ``true_degree + 1``."""
    errs = []
    if r["degree"] != declared:
        errs.append(f"declared degree {r['degree']}, expected {declared}")
    if len(r["nodes"]) != count:
        errs.append(f"{len(r['nodes'])} nodes, expected {count}")
    if np.any(r["lambdas"] <= 0):
        errs.append("nonpositive weight")
    res = degree_residuals(r["weight"], r["nodes"], r["lambdas"], true_degree + 1)
    if res[:-1].max() > RULE_TOL:
        errs.append(f"residual {res[:-1].max():.2e} through degree {true_degree}")
    if res[-1] <= RULE_TOL:
        errs.append(f"exact at degree {true_degree + 1}, beyond its true degree {true_degree}")
    return errs


# ---------------------------------------------------------------------------
# Hankel systems for the constant weight (product Legendre basis)


def _gamma(k: int) -> float:
    """Leading coefficient of the orthonormal Legendre polynomial sqrt(2k+1) P_k."""
    return math.comb(2 * k, k) * math.sqrt(2 * k + 1) / 2.0**k


def _a(k: int) -> float:
    """Three-term coefficient x p_k = a_k p_{k+1} + a_{k-1} p_{k-1}."""
    return (k + 1) / math.sqrt((2 * k + 1) * (2 * k + 3))


def _skew(n: int):
    """M = A1^T A2 - A2^T A1 and C = A1 A2^T - A2 A1^T from A_{n-1,1}, A_{n-1,2}."""
    A1 = np.zeros((n, n + 1))
    A2 = np.zeros((n, n + 1))
    for k in range(n):
        A1[k, k] = _a(n - 1 - k)
        A2[k, k + 1] = _a(k)
    return A1.T @ A2 - A2.T @ A1, A1 @ A2.T - A2 @ A1.T


def _scaling(n: int) -> np.ndarray:
    return np.array([_gamma(n - k) * _gamma(k) for k in range(n + 1)])


def _hankel(h: np.ndarray, rows: int, cols: int) -> np.ndarray:
    i, j = np.indices((rows, cols))
    return np.asarray(h)[i + j]


def odd_system(n: int, h) -> tuple[float, np.ndarray]:
    """(max |W M W|, eigenvalues of W) for W = I - G H G^T."""
    g = _scaling(n)
    W = np.eye(n + 1) - g[:, None] * _hankel(h, n + 1, n + 1) * g[None, :]
    M, _ = _skew(n)
    return float(np.abs(W @ M @ W).max()), np.linalg.eigvalsh(W)


def odd_solution_problems(n: int, h) -> list[str]:
    """W M W = 0, W positive semidefinite of rank floor(n/2)."""
    resid, ev = odd_system(n, h)
    errs = []
    if resid > 1e-9:
        errs.append(f"odd n={n}: |W M W| = {resid:.2e}")
    tol = 1e-8 * max(1.0, float(np.abs(ev).max()))
    if ev.min() < -tol:
        errs.append(f"odd n={n}: W has eigenvalue {ev.min():.2e} < 0")
    rank = int((ev > tol).sum())
    if rank != n // 2:
        errs.append(f"odd n={n}: rank W = {rank}, expected {n // 2}")
    return errs


def even_solution_problems(n: int, h) -> list[str]:
    """Gamma^T M Gamma = C with Gamma = G_n H G_{n-1}^T."""
    Gam = _scaling(n)[:, None] * _hankel(h, n + 1, n) * _scaling(n - 1)[None, :]
    M, C = _skew(n)
    resid = float(np.abs(Gam.T @ M @ Gam - C).max())
    return [f"even n={n}: |Gamma^T M Gamma - C| = {resid:.2e}"] if resid > 1e-9 else []


# The paper's H5: the odd-system solution for n = 5 (17 nodes, degree 9),
# entries h_0 .. h_10 of the 6 x 6 Hankel matrix, in the closed form the
# paper prints.  Written out here, not imported from cubasquare.discover.
_S86, _S43_2 = math.sqrt(86.0), math.sqrt(43.0 / 2.0)
PAPER_H5 = 96.0 / 77875.0 * np.array([
    1151.0 / 2079.0, 10.0 * _S86 / 189.0, -31.0 / 81.0, -_S43_2 / 9.0, 1.0, 0.0,
    1.0, _S43_2 / 9.0, -31.0 / 81.0, -10.0 * _S86 / 189.0, 1151.0 / 2079.0,
])


def odd_orbit_distance(h, ref) -> float:
    """Entrywise distance from ref to the nearest image of h under the odd
    system's symmetries (x -> -x, y -> -y: alternate signs; x <-> y: reverse)."""
    h = np.asarray(h, dtype=float)
    alt = h * np.where(np.arange(h.size) % 2, -1.0, 1.0)
    return min(float(np.abs(v - ref).max()) for v in (h, alt, h[::-1], alt[::-1]))


# ---------------------------------------------------------------------------
# Padua points: closed-form cardinal functions


def lobatto_grid(resolution: int) -> np.ndarray:
    g = np.cos(np.arange(resolution) * np.pi / (resolution - 1))
    X, Y = np.meshgrid(g, g, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


def _padua_indices(n: int):
    """(j, l) with j + l even, 0 <= j <= n, 0 <= l <= n + 1."""
    j, l = np.meshgrid(np.arange(n + 1), np.arange(n + 2), indexing="ij")
    keep = (j + l) % 2 == 0
    return j[keep], l[keep]


def _cheb_rows(n: int, pts: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Rows c_(d-k) T_(d-k)(x) c_k T_k(y) over 0 <= k <= d <= n, with c_0 = 1
    and c_i = scale for i > 0."""
    tx, ty = (_three_term_table(n, pts[:, i], "cheb") for i in (0, 1))
    tx[1:] *= scale
    ty[1:] *= scale
    return np.array([tx[d - k] * ty[k] for d in range(n + 1) for k in range(d + 1)])


def padua_lebesgue_closed_form(n: int, pts: np.ndarray) -> float:
    """max over pts of sum_A |L_A|, with L_A(x) = w_A (K_n(A, x) - T_n(A_1) T_n(x_1)).

    Padua points (cos(j pi/n), cos(l pi/(n+1))), j + l even; K_n is the
    reproducing kernel of Pi_n^2 for the normalised product Chebyshev
    measure, T^_0 = 1 and T^_k = sqrt(2) T_k (Bos, De Marchi, Vianello,
    Xu 2006).  Every Padua family is a reflection of this one, so on a
    grid symmetric under reflections the maximum is the same.
    """
    j, l = _padua_indices(n)
    a = np.stack([np.cos(j * np.pi / n), np.cos(l * np.pi / (n + 1))], axis=1)
    on_x, on_y = (j == 0) | (j == n), (l == 0) | (l == n + 1)
    w = np.where(on_x & on_y, 0.5, np.where(on_x | on_y, 1.0, 2.0)) / (n * (n + 1))
    L = _cheb_rows(n, a, math.sqrt(2.0)).T @ _cheb_rows(n, pts, math.sqrt(2.0))
    L -= np.outer(_three_term_table(n, a[:, 0], "cheb")[n], _three_term_table(n, pts[:, 0], "cheb")[n])
    L *= w[:, None]
    return float(np.abs(L).sum(axis=0).max())


# ---------------------------------------------------------------------------
# self-test


def _tensor_rule(kind: str, m: int):
    """Independent tensor Gauss rule (weight string, nodes, weights), degree 2m - 1."""
    k = np.arange(1, m + 1)
    if kind == "cheb1":
        x, w = np.cos((2 * k - 1) * np.pi / (2 * m)), np.full(m, np.pi / m)
    elif kind == "cheb2":
        th = k * np.pi / (m + 1)
        x, w = np.cos(th), np.pi / (m + 1) * np.sin(th) ** 2
    else:
        x, w = np.polynomial.legendre.leggauss(m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return kind, np.stack([X.ravel(), Y.ravel()], axis=1), np.outer(w, w).ravel()


def self_test(rules) -> list[str]:
    """Problems found when the checkers are run on known inputs.

    ``rules`` lists (weight, nodes, lambdas, true degree) of rules that
    are exact to exactly that degree.  Each must be accepted; it must be
    rejected with its largest weight scaled by 1 + 1e-6, with that node
    moved by 1e-6, or read at degree + 1.
    """
    cases = list(rules) + [_tensor_rule(k, 9) + (17,) for k in ("cheb1", "cheb2", "const")]
    errs = []
    for weight, nodes, lam, deg in cases:
        tag = f"{weight} with {len(nodes)} nodes"
        if not rule_exact(weight, nodes, lam, deg):
            errs.append(f"{tag}: true rule rejected at degree {deg}")
        if rule_exact(weight, nodes, lam, deg + 1):
            errs.append(f"{tag}: accepted at degree {deg + 1}")
        k = int(np.argmax(lam))
        scaled = lam.copy()
        scaled[k] *= 1.0 + 1e-6
        if rule_exact(weight, nodes, scaled, deg):
            errs.append(f"{tag}: accepted with a weight scaled by 1 + 1e-6")
        for axis in (0, 1):
            moved = nodes.copy()
            moved[k, axis] += 1e-6
            if rule_exact(weight, moved, lam, deg):
                errs.append(f"{tag}: accepted with a node moved by 1e-6")
    errs += odd_solution_problems(5, PAPER_H5)
    bumped = PAPER_H5.copy()
    bumped[4] *= 1.0 + 1e-6
    if not odd_solution_problems(5, bumped):
        errs.append("odd n=5: H5 with one entry scaled by 1 + 1e-6 accepted")
    if odd_orbit_distance(PAPER_H5[::-1], PAPER_H5) != 0.0:
        errs.append("odd n=5: orbit distance of reversed H5 is not 0")
    # closed form against cardinal functions from a direct collocation solve
    n, grid = 6, lobatto_grid(31)
    j, l = _padua_indices(n)
    a = np.stack([np.cos(j * np.pi / n), np.cos(l * np.pi / (n + 1))], axis=1)
    direct = float(np.abs(np.linalg.solve(_cheb_rows(n, a), _cheb_rows(n, grid))).sum(axis=0).max())
    if abs(padua_lebesgue_closed_form(n, grid) - direct) > 1e-10 * direct:
        errs.append("padua n=6: closed-form Lebesgue constant disagrees with collocation")
    return errs


if __name__ == "__main__":
    problems = self_test([])
    for p in problems:
        print(p)
    print("self-test", "FAIL" if problems else "PASS")
    sys.exit(1 if problems else 0)
