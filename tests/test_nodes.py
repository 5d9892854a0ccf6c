"""Tests for the node families: cardinalities, vanishing, symmetry, geometry,
and bit equality with the per-point loop builders."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cubasquare.nodes import (
    NodeSet,
    _finish,
    gauss_u_nodes,
    gencheb_nodes,
    lissajous_curve_point,
    min_t_nodes_even,
    moeller_count,
    near_min_t_nodes_odd,
    padua_points,
    vanishing_residual,
)
from cubasquare.univariate import eval_chebyshev_t, gauss_rule_1d, jacobi_normalized_table


def as_set(pts, digits=10):
    return {(round(float(x), digits), round(float(y), digits)) for x, y in pts}


class TestCardinalities:
    def test_figure_counts(self):
        assert len(min_t_nodes_even(18)) == 180
        assert len(near_min_t_nodes_odd(17)) == 162
        assert len(padua_points(11)) == 78
        assert len(gencheb_nodes(0.5, 0.5, 16)) == 144

    def test_counts_up_to_50(self):
        for n in range(1, 51):
            assert len(gauss_u_nodes(n)) == n * (n + 1) // 2
            assert len(padua_points(n)) == (n + 1) * (n + 2) // 2
        for n in range(2, 51, 2):
            assert len(min_t_nodes_even(n)) == moeller_count(n)
        for n in range(3, 51, 2):
            assert len(near_min_t_nodes_odd(n)) == moeller_count(n) + 1

    def test_gencheb_counts(self):
        for n in range(2, 21):
            expect = moeller_count(n) + (0 if n % 2 == 0 else 1)
            assert len(gencheb_nodes(0.5, 0.5, n)) == expect
            assert len(gencheb_nodes(1.5, 0.5, n)) == expect

    def test_small_cases(self):
        assert len(gauss_u_nodes(2)) == 3
        assert len(min_t_nodes_even(2)) == 4

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            min_t_nodes_even(7)
        with pytest.raises(ValueError):
            near_min_t_nodes_odd(8)


def closed_form_residual(ns):
    """Max |p| over the nodes of the paper's closed forms p of the generating
    polynomials of the minimal, near-minimal and gencheb families: a reference
    for the kernel-spec rows that ``vanishing_residual`` reads."""
    x, y = ns.points.T
    n, T = ns.n, eval_chebyshev_t
    if ns.family == "min_t_even":
        polys = [T(n - k, x) * T(k, y) + T(k, x) * T(n - k, y) for k in range(n // 2 + 1)]
    elif ns.family == "near_min_t_odd":
        m = (n + 1) // 2
        polys = [T(2 * m - k, x) * T(k - 1, y) - T(k - 1, x) * T(2 * m - k, y) for k in range(1, m + 1)]
    else:
        # p_m(z1) p_k(z2) + p_k(z1) p_m(z2), k = 0..m, at z1, z2 = xy -+ sqrt((1 - x^2)(1 - y^2)): Jacobi
        # (alpha, beta) for even n = 2m, and (alpha + 1, beta) times (x - y) for odd n = 2m + 1
        odd, m = n % 2, n // 2
        root = np.sqrt(np.maximum((1 - x * x) * (1 - y * y), 0.0))
        p1, p2 = (jacobi_normalized_table(ns.alpha + odd, ns.beta, m, z) for z in (x * y + root, x * y - root))
        polys = [(x - y if odd else 1.0) * (p1[m] * p2[k] + p1[k] * p2[m]) for k in range(m + 1)]
    return max(float(np.abs(p).max()) for p in polys)


VANISHING = {
    "gauss_u": lambda: gauss_u_nodes(20),
    "min_t_even": lambda: min_t_nodes_even(20),
    "near_min_t_odd": lambda: near_min_t_nodes_odd(19),
    "padua": lambda: padua_points(20),
    "gencheb_even": lambda: gencheb_nodes(0.5, -0.5, 20),
    "gencheb_odd": lambda: gencheb_nodes(1.5, 0.5, 19),
}


class TestVanishing:
    def test_all_families(self):
        for n in range(1, 22):
            assert vanishing_residual(gauss_u_nodes(n)) < 1e-10
            assert vanishing_residual(padua_points(n)) < 1e-10
        for n in range(2, 22, 2):
            assert vanishing_residual(min_t_nodes_even(n)) < 1e-10
            assert closed_form_residual(min_t_nodes_even(n)) < 1e-10
        for n in range(3, 22, 2):
            assert vanishing_residual(near_min_t_nodes_odd(n)) < 1e-10
            assert closed_form_residual(near_min_t_nodes_odd(n)) < 1e-10

    def test_gencheb(self):
        for n in range(2, 14):
            for ns in (gencheb_nodes(0.5, 0.5, n), gencheb_nodes(0.5, -0.5, n)):
                assert vanishing_residual(ns) < 1e-10
                assert closed_form_residual(ns) < 1e-10

    @pytest.mark.parametrize("family", sorted(VANISHING))
    def test_moved_node_fails(self, family):
        # one node moved by 1e-6 leaves the common-zero set: the residual rises
        # by orders of magnitude above the 1e-10 of the exact nodes
        ns = VANISHING[family]()
        pts = ns.points.copy()
        pts[len(pts) // 3, 0] += 1e-6
        moved = NodeSet(points=pts, family=ns.family, n=ns.n, expected_count=len(pts), alpha=ns.alpha,
                        beta=ns.beta)
        assert vanishing_residual(ns) < 1e-10
        assert vanishing_residual(moved) > 1e-8
        if family not in ("gauss_u", "padua"):
            assert closed_form_residual(moved) > 1e-8


class TestGeometry:
    def test_all_points_in_closed_square(self):
        sets = [
            gauss_u_nodes(9),
            min_t_nodes_even(10),
            near_min_t_nodes_odd(9),
            padua_points(9),
            gencheb_nodes(0.5, 0.5, 9),
        ]
        for ns in sets:
            assert np.abs(ns.points).max() <= 1.0 + 1e-15

    def test_gauss_u_interior(self):
        for n in (2, 5, 12):
            pts = gauss_u_nodes(n).points
            assert np.abs(pts).max() < 1.0

    def test_pairwise_distinct(self):
        for ns in (min_t_nodes_even(8), near_min_t_nodes_odd(9), padua_points(8)):
            pts = ns.points
            d = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
            np.fill_diagonal(d, 1.0)
            assert d.min() > 1e-12

    def test_central_symmetry(self):
        for ns in (min_t_nodes_even(8), near_min_t_nodes_odd(9), gencheb_nodes(0.5, 0.5, 8)):
            s = as_set(ns.points)
            assert s == as_set(-ns.points)

    def test_swap_symmetry(self):
        for ns in (near_min_t_nodes_odd(9), gencheb_nodes(0.5, 0.5, 8), gencheb_nodes(0.5, 0.5, 9)):
            s = as_set(ns.points)
            assert s == as_set(ns.points[:, ::-1])


class TestPadua:
    def test_on_generating_curve(self):
        for n in (2, 5, 11):
            pts = padua_points(n).points
            t = np.arange(0, 2 * n * (n + 1) + 1) * np.pi / (n * (n + 1))
            curve = lissajous_curve_point(n, t)
            for p in pts:
                d = np.hypot(curve[:, 0] - p[0], curve[:, 1] - p[1]).min()
                assert d < 1e-10

    def test_curve_endpoints(self):
        assert_allclose(lissajous_curve_point(7, 0.0), [-1.0, -1.0], atol=1e-15)
        assert_allclose(lissajous_curve_point(11, np.pi), [-np.cos(12 * np.pi), -np.cos(11 * np.pi)], atol=1e-12)
        assert_allclose(lissajous_curve_point(11, np.pi), [-1.0, 1.0], atol=1e-12)

    def test_curve_closes(self):
        for n in (4, 9):
            assert_allclose(
                lissajous_curve_point(n, 0.0), lissajous_curve_point(n, 2 * np.pi), atol=1e-12
            )


class TestGencheb:
    def test_chebyshev_specialization_matches_min_t(self):
        for m in range(1, 7):
            a = as_set(gencheb_nodes(-0.5, -0.5, 2 * m).points)
            b = as_set(min_t_nodes_even(2 * m).points)
            assert a == b

    def test_even_family_avoids_diagonals(self):
        for a, b, n in [(0.5, 0.5, 8), (0.5, -0.5, 10), (1.5, 0.5, 6)]:
            pts = gencheb_nodes(a, b, n).points
            assert np.abs(pts[:, 0] - pts[:, 1]).min() > 1e-8
            assert np.abs(pts[:, 0] + pts[:, 1]).min() > 1e-8

    def test_odd_family_diagonal_points(self):
        # odd sets contain 2(m+1) points on the main diagonal by construction
        n = 9
        m = (n - 1) // 2
        pts = gencheb_nodes(0.5, 0.5, n).points
        on_diag = np.abs(pts[:, 0] - pts[:, 1]) < 1e-12
        assert on_diag.sum() == 2 * (m + 1)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gencheb_nodes(-1.2, 0.5, 8)


# ---------------------------------------------------------------------------
# The per-point loop builders that the array builders replaced, kept as
# bit-equality references: one scalar np.cos per point, a Python sort of the
# tuples and a greedy dedupe against the last kept point.

def reference_finish(points, **kw):
    out = []
    for p in sorted(points):
        if out and abs(p[0] - out[-1][0]) <= 1e-12 and abs(p[1] - out[-1][1]) <= 1e-12:
            continue
        out.append(p)
    return NodeSet(points=np.array(out), **kw)


def reference_gauss_u(n):
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = [(np.cos(a * np.pi / (n + 2)), np.cos(b * np.pi / (n + 1)))
           for a in range(1, n + 2) for b in range(1, n + 1) if (a + b) % 2 == 0]
    return reference_finish(pts, family="gauss_u", n=n, expected_count=n * (n + 1) // 2,
                            provenance="interior checkerboard a+b even on pi/(n+2) x pi/(n+1) lattice")


def reference_min_t(n):
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    pts = [(np.cos(a * np.pi / n), np.cos(b * np.pi / n))
           for a in range(n + 1) for b in range(n + 1) if (a + b) % 2 == 1]
    return reference_finish(pts, family="min_t_even", n=n, expected_count=moeller_count(n),
                            provenance="closed checkerboard a+b odd on pi/n lattice")


def reference_near_min(n):
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    m = (n + 1) // 2
    ev = [np.cos(2 * i * np.pi / n) for i in range(m)]
    od = [np.cos((2 * i + 1) * np.pi / n) for i in range(m)]
    pts = [(x, y) for x in ev for y in ev] + [(x, y) for x in od for y in od]
    return reference_finish(pts, family="near_min_t_odd", n=n, expected_count=moeller_count(n) + 1,
                            provenance="even-even and odd-odd full grids of cosine multiples of pi/n")


def reference_padua(n):
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = [(-np.cos(j * np.pi / n), -np.cos(l * np.pi / (n + 1)))
           for j in range(n + 1) for l in range(n + 2) if (j + l) % 2 == 0]
    return reference_finish(pts, family="padua", n=n, expected_count=(n + 1) * (n + 2) // 2,
                            provenance="parity lattice j+l even on pi/n x pi/(n+1) grid, both axes negated")


def reference_gencheb(alpha, beta, n):
    if alpha <= -1 or beta <= -1:
        raise ValueError("alpha, beta must exceed -1")
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        m = n // 2
        z = gauss_rule_1d(alpha, beta, m)[0]
        lo, expected, family = 1, moeller_count(n), "gencheb_even"
    else:
        m = (n - 1) // 2
        z = gauss_rule_1d(alpha + 1, beta, m)[0]
        lo, expected, family = 0, moeller_count(n) + 1, "gencheb_odd"
    th = np.concatenate([[0.0], np.arccos(z)[::-1]])  # angle 0, then the Jacobi-zero angles increasing
    pts = []
    for j in range(lo, m + 1):
        for k in range(j, m + 1):
            s = np.cos((th[j] - th[k]) / 2.0)
            t = np.cos((th[j] + th[k]) / 2.0)
            pts.extend([(s, t), (t, s), (-s, -t), (-t, -s)])
    try:
        return reference_finish(pts, family=family, n=n, expected_count=expected, alpha=alpha, beta=beta,
                                provenance=f"fourfold symmetrized half-angle lattice, jacobi degree {m}")
    except ValueError as exc:
        raise ValueError(f"gencheb node count degenerated for ({alpha}, {beta}, {n}): {exc}") from None


def assert_same_set(got, want):
    assert np.array_equal(got.points, want.points)
    meta = ("family", "n", "expected_count", "alpha", "beta", "provenance")
    assert [getattr(got, f) for f in meta] == [getattr(want, f) for f in meta]


def assert_same_error(build, ref, *args):
    with pytest.raises(ValueError) as got:
        build(*args)
    with pytest.raises(ValueError) as want:
        ref(*args)
    assert str(got.value) == str(want.value)


CHECKERBOARDS = {
    "gauss_u": (gauss_u_nodes, reference_gauss_u, range(1, 129), (0, -3)),
    "min_t": (min_t_nodes_even, reference_min_t, range(2, 129, 2), (0, 1, 7, 129)),
    "near_min": (near_min_t_nodes_odd, reference_near_min, range(3, 128, 2), (-1, 1, 2, 64)),
    "padua": (padua_points, reference_padua, range(1, 129), (0, -1)),
}


class TestLoopReferences:
    @pytest.mark.parametrize("family", sorted(CHECKERBOARDS))
    def test_checkerboards_bit_equal(self, family):
        build, ref, ns, bad = CHECKERBOARDS[family]
        for n in ns:
            assert_same_set(build(n), ref(n))
        for n in bad:
            assert_same_error(build, ref, n)

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (-0.5, -0.5), (0.3, -0.2), (1.5, -0.5), (5.0, 5.0),
                                             (-0.9, 3.0)])
    def test_gencheb_bit_equal(self, alpha, beta):
        for n in range(2, 97):
            assert_same_set(gencheb_nodes(alpha, beta, n), reference_gencheb(alpha, beta, n))
        for n in (1, 0):
            assert_same_error(gencheb_nodes, reference_gencheb, alpha, beta, n)

    @pytest.mark.parametrize("alpha, beta", [(-1.0, 0.5), (0.5, -1.0), (-1.2, -3.0)])
    def test_gencheb_bad_parameters(self, alpha, beta):
        assert_same_error(gencheb_nodes, reference_gencheb, alpha, beta, 8)

    def test_points_within_the_guard_are_an_error(self):
        # the builders make each point once; _finish sorts and merges nothing
        pts = np.array([(0.3, -0.1), (-0.5, 0.2), (0.3, -0.1 + 1e-13), (0.9, 0.0)])
        with pytest.raises(ValueError, match=r"^close\(n=1\): two points lie within 1e-12 of each other$"):
            _finish(pts, family="close", n=1, expected_count=4)
        with pytest.raises(ValueError, match=r"^close\(n=5, alpha=0\.3, beta=-0\.2\): "):
            _finish(pts, family="close", n=5, expected_count=4, alpha=0.3, beta=-0.2)
        got = _finish(pts[[3, 2, 1]], family="close", n=1, expected_count=3)
        assert np.array_equal(got.points, pts[[1, 2, 3]])
