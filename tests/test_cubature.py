"""Tests for cubature weights, exactness checking, bounds, serialization."""

import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cubasquare import basis2d, cubature
from cubasquare.basis2d import (
    KernelStarSpec,
    basis_for,
    dim_upto,
    kernel_star_matrix,
    star_spec_cheb1,
    star_spec_gaussian,
    star_spec_gencheb,
)
from cubasquare.cli import main
from cubasquare.cubature import (
    CubatureError,
    CubatureRule,
    exactness_check,
    lower_bounds,
    rule_from_dict,
    rule_from_json,
    rule_to_dict,
    rule_to_json,
    weights_from_kernel,
    weights_from_vandermonde,
)
from cubasquare.discover import KNOWN_ODD_HANKEL, common_zeros
from cubasquare.interp import family_rule
from cubasquare.nodes import (
    NodeSet,
    gauss_u_nodes,
    gencheb_nodes,
    min_t_nodes_even,
    moeller_count,
    near_min_t_nodes_odd,
    padua_points,
)
from cubasquare.univariate import chebyshev_t_table, gauss_rule_1d
from cubasquare.weights import cheb1, cheb2, chebyshev_moments, constant, gencheb, jacobi_product, mass


@pytest.fixture
def no_rows(monkeypatch):
    """Product-basis rows that fail when evaluated: the product builds check
    from the 1-D tables alone."""
    def refuse(*args):
        raise AssertionError("product basis rows evaluated")

    monkeypatch.setattr(basis2d._ProductOrthoBasis2D, "eval_upto", refuse)


@pytest.fixture
def no_gencheb_rows(monkeypatch):
    """gencheb basis rows that fail when evaluated: gencheb builds check from
    the 1-D Jacobi tables in the angle variables alone."""
    def refuse(*args):
        raise AssertionError("gencheb basis rows evaluated")

    monkeypatch.setattr(basis2d._GenChebOrthoBasis2D, "eval_upto", refuse)


def row_reductions(F, n, w_unit):
    """The dense reference for the node reductions of ``_checked_calibration``:
    one block, from the basis rows F of degree <= n at every node."""
    lo = dim_upto(n - 1)
    return [(0, np.einsum("ij,ij->j", F[:lo], F[:lo]), F[lo:], F[:lo] @ w_unit)]


class TestKernelWeights:
    def test_cheb1_minimal_sum_is_pi_squared(self):
        nodes = min_t_nodes_even(4)
        rule = weights_from_kernel(nodes, star_spec_cheb1(4), cheb1())
        assert rule.lambdas.sum() == pytest.approx(np.pi**2, rel=1e-12)

    def test_spec_not_mutated(self):
        spec = star_spec_cheb1(6)
        weights_from_kernel(min_t_nodes_even(6), spec, cheb1())
        assert spec.s_diag is None

    def test_cheb2_gaussian_degrees(self):
        for n in range(2, 13):
            rule = weights_from_kernel(gauss_u_nodes(n), star_spec_gaussian(cheb2(), n), cheb2())
            rep = exactness_check(rule)
            assert rule.degree == 2 * n - 2
            assert rep.passed and rep.max_rel_error < 1e-9

    def test_cheb1_weight_structure_regression(self):
        # two weight levels: interior pi^2/(2m^2), boundary half of that
        m = 4
        rule = weights_from_kernel(min_t_nodes_even(2 * m), star_spec_cheb1(2 * m), cheb1())
        uniq = np.unique(np.round(rule.lambdas, 12))
        assert len(uniq) == 2
        assert_allclose(uniq, [np.pi**2 / (4 * m * m), np.pi**2 / (2 * m * m)], atol=1e-12)
        boundary = (np.abs(rule.nodes.points) > 1 - 1e-12).any(axis=1)
        assert_allclose(rule.lambdas[boundary], np.pi**2 / (4 * m * m), atol=1e-12)
        assert rule.lambdas.min() > 0

    def test_positivity_all_families(self):
        for n in range(2, 17):
            rule = weights_from_kernel(gauss_u_nodes(n), star_spec_gaussian(cheb2(), n), cheb2())
            assert rule.lambdas.min() > 0
        for n in range(2, 17, 2):
            rule = weights_from_kernel(min_t_nodes_even(n), star_spec_cheb1(n), cheb1())
            assert rule.lambdas.min() > 0
        for n in range(3, 16, 2):
            rule = weights_from_kernel(near_min_t_nodes_odd(n), star_spec_cheb1(n), cheb1())
            assert rule.lambdas.min() > 0
        for n in range(2, 17):
            rule = weights_from_kernel(
                gencheb_nodes(0.5, 0.5, n), star_spec_gencheb(0.5, 0.5, n), gencheb(0.5, 0.5, -0.5)
            )
            assert rule.lambdas.min() > 0

    @pytest.mark.parametrize("family,n", [("cheb1", 8), ("cheb1", 9), ("cheb2", 8), ("gencheb", 8), ("gencheb", 9)])
    def test_weights_are_reciprocal_dense_kernel_diagonal(self, family, n):
        # the node factor's diagonal against the dense K* of the calibrated spec
        nodes, spec, _, rule = family_rule(family, n)
        kdiag = np.diag(kernel_star_matrix(spec, nodes.points, nodes.points))
        assert_allclose(rule.lambdas, 1.0 / kdiag, rtol=1e-12)

    def test_wrong_pairing_raises(self):
        with pytest.raises(CubatureError):
            weights_from_kernel(min_t_nodes_even(4), star_spec_cheb1(6), cheb1())

    def test_wrong_weight_raises(self):
        with pytest.raises(CubatureError):
            weights_from_kernel(min_t_nodes_even(4), star_spec_cheb1(4), cheb2())


class TestVandermondeWeights:
    def test_padua_degree_2n_minus_1(self):
        for n in (2, 5, 11):
            rule = weights_from_vandermonde(padua_points(n), cheb1(), 2 * n - 1)
            rep = exactness_check(rule)
            assert rep.passed

    def test_normalization_row(self):
        rule = weights_from_vandermonde(padua_points(6), cheb1(), 11)
        assert rule.lambdas.sum() == pytest.approx(np.pi**2, abs=1e-12)

    def test_unsupported_degree_raises(self):
        # 4 boundary-heavy points cannot integrate to degree 5
        ns = NodeSet(
            points=np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]),
            family="padua", n=1, expected_count=4, provenance="corners",
        )
        with pytest.raises(CubatureError):
            weights_from_vandermonde(ns, constant(), 5)

    def test_agreement_with_kernel_weights(self):
        for n in range(2, 13):
            nodes = min_t_nodes_even(n) if n % 2 == 0 else near_min_t_nodes_odd(n)
            r1 = weights_from_kernel(nodes, star_spec_cheb1(n), cheb1())
            r2 = weights_from_vandermonde(nodes, cheb1(), 2 * n - 1)
            assert np.abs(r1.lambdas - r2.lambdas).max() < 1e-9


def unisolvent_weights(nodes, spec):
    """The dense reference for the weights of a sigma > 0 rule: unit-mass w
    from the N x N unisolvent system [F_low; q F_n] w = e_0, then
    mass / K*(z_k, z_k) from the spec calibrated with w."""
    basis = basis2d.basis_for(spec.weight)
    F = basis.eval_upto(spec.n, *nodes.points.T)
    lo = dim_upto(spec.n - 1)
    rhs = np.zeros(len(nodes))
    rhs[0] = 1.0
    w_unit = np.linalg.solve(np.vstack([F[:lo], spec.q_coeffs @ F[lo:]]), rhs)
    kdiag = cubature._checked_calibration(spec, row_reductions(F, spec.n, w_unit), w_unit)[1]
    return basis.mass / kdiag


class TestClosedFormWeights:
    """The closed-form weights of every family against the dense references,
    and the runtime checks that guard them."""

    @pytest.mark.parametrize("n", range(2, 34))
    def test_cheb1_matches_dense_references(self, n):
        nodes, spec, w, rule = family_rule("cheb1", n)
        assert rule.provenance.startswith("closed-form weights")
        lstsq = weights_from_vandermonde(nodes, w, 2 * n - 1).lambdas
        kdiag = np.diag(kernel_star_matrix(spec, nodes.points, nodes.points))
        assert_allclose(rule.lambdas, lstsq, rtol=1e-12, atol=0)
        assert_allclose(rule.lambdas, 1.0 / kdiag, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", range(1, 34))
    def test_padua_matches_lstsq(self, n):
        rule = family_rule("padua", n)[3]
        assert rule.provenance.startswith("closed-form weights") and rule.degree == 2 * n - 1
        lstsq = weights_from_vandermonde(padua_points(n), cheb1(), 2 * n - 1).lambdas
        assert_allclose(rule.lambdas, lstsq, rtol=1e-12, atol=0)
        # bit for bit the mass times 2 c(x) c(y) / (n (n + 1)), c = 1/2 on the edges
        c = np.where(np.abs(np.abs(rule.nodes.points) - 1.0) <= 1e-12, 0.5, 1.0)
        assert np.array_equal(rule.lambdas, mass(cheb1()) * (2.0 / (n * (n + 1)) * c[:, 0] * c[:, 1]))

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (1.5, -0.5), (0.3, -0.2), (-0.7, 2.1)])
    @pytest.mark.parametrize("n", [8, 9, 32, 33])
    def test_gencheb_matches_dense_references(self, alpha, beta, n):
        nodes, spec, _, rule = family_rule("gencheb", n, alpha, beta)
        lam = rule.lambdas
        assert rule.provenance.startswith("closed-form weights")
        # the dense solve loses digits in the smallest weights as they spread
        rtol = 1e-12 if lam.min() / lam.max() >= 1e-8 else 1e-10
        assert_allclose(lam, unisolvent_weights(nodes, spec), rtol=rtol, atol=0)
        if n % 2 == 0:
            # the Gauss-Jacobi products w_j w_k, a quarter for j = k (an edge
            # node) and a half for j < k, on each of the four images
            gw = gauss_rule_1d(alpha, beta, n // 2)[1]
            j, k = np.triu_indices(n // 2)
            ref = np.repeat(gw[j] * gw[k] * np.where(j == k, 0.25, 0.5), 4)
            assert_allclose(np.sort(lam / lam.sum()), np.sort(ref / ref.sum()), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 3, 16, 33, 64, 65])
    def test_cheb2_is_reciprocal_kernel_diagonal(self, n):
        nodes, spec, w, rule = family_rule("cheb2", n)
        basis = basis2d.basis_for(w)
        F = basis.eval_upto(n - 1, *nodes.points.T)
        assert_allclose(rule.lambdas, basis.mass / np.einsum("ij,ij->j", F, F), rtol=1e-13, atol=0)

    def test_other_weight_has_no_closed_form(self):
        cheb = star_spec_cheb1(4)
        w = jacobi_product(0.2, 0.2)
        spec = KernelStarSpec(weight=w, n=4, sigma=cheb.sigma, q_coeffs=cheb.q_coeffs, p_coeffs=cheb.p_coeffs)
        with pytest.raises(CubatureError, match="no closed-form weights"):
            weights_from_kernel(min_t_nodes_even(4), spec, w)

    @pytest.mark.parametrize("family,n", [("cheb1", 8), ("cheb1", 9), ("padua", 8), ("cheb2", 8), ("gencheb", 8),
                                          ("gencheb", 9)])
    def test_build_carries_the_oracle_report(self, family, n):
        rule = family_rule(family, n)[3]
        assert rule.oracle_report == exactness_check(rule)

    def test_rule_command_computes_the_moments_once(self, tmp_path, monkeypatch):
        degrees, residuals = [], cubature._degree_residuals
        monkeypatch.setattr(cubature, "_degree_residuals", lambda *a: degrees.append(a[3]) or residuals(*a))
        assert main(["rule", "mint", "8", "--out", str(tmp_path / "r.json")]) == 0
        assert degrees == [2 * 8 + 2]

    @pytest.fixture
    def scaled_weight(self, monkeypatch):
        """The closed form with its largest weight scaled by 1 + 1e-6."""
        closed = cubature._closed_form_weights

        def scaled(*args):
            lam = closed(*args)
            lam[np.argmax(lam)] *= 1 + 1e-6
            return lam

        monkeypatch.setattr(cubature, "_closed_form_weights", scaled)

    # every build checks the moments, the unisolvent equations and the
    # reciprocal kernel, and names each check that fails
    @pytest.mark.parametrize("family,n", [("cheb1", 8), ("cheb1", 9), ("cheb2", 8), ("gencheb", 8), ("gencheb", 9)])
    def test_scaled_weight_fails_every_weight_check(self, family, n, scaled_weight, no_rows):
        degree = 2 * n - 2 if family == "cheb2" else 2 * n - 1
        with pytest.raises(CubatureError, match=f"moments through degree {degree}.*"
                                                "unisolvent equations.*reciprocal-kernel"):
            family_rule(family, n)

    def test_scaled_padua_weight_fails_moment_check(self, scaled_weight, tmp_path, no_rows):
        with pytest.raises(CubatureError,
                           match="moments through degree 15.*unisolvent equations.*reciprocal-kernel"):
            family_rule("padua", 8)
        assert main(["rule", "padua", "8", "--out", str(tmp_path / "r.json")]) != 0
        assert not (tmp_path / "r.json").exists()

    def test_moved_node_fails_common_zero_check(self, no_rows):
        nodes = min_t_nodes_even(8)
        pts = nodes.points.copy()
        pts[5, 0] += 1e-6
        with pytest.raises(CubatureError, match="common-zero"):
            weights_from_kernel(replace(nodes, points=pts), star_spec_cheb1(8), cheb1())

    @pytest.mark.parametrize("n", [511, 512])
    def test_common_zero_check_at_511_and_512(self, n):
        # the exact cheb1 nodes leave a rounding residual of 3.1e-12 (n = 511)
        # and 2.0e-12 (n = 512) of the largest degree-n value, which a bound
        # of 1e-12 times it rejected; one node moved by 1e-6 leaves 0.35.  The
        # check alone runs on the degree-n rows over node blocks, the moved
        # node's on its own block
        nodes = min_t_nodes_even(n) if n % 2 == 0 else near_min_t_nodes_odd(n)
        spec, basis = star_spec_cheb1(n), basis_for(cheb1())

        def blocks(pts, step=4096):
            for s in range(0, len(pts), step):
                yield s, None, basis.eval_degree(n, *pts[s:s + step].T), None

        for _ in cubature._common_zero_checked(spec, blocks(nodes.points)):
            pass
        pts = nodes.points[:4096].copy()
        pts[5, 0] += 1e-6
        with pytest.raises(CubatureError, match="common-zero"):
            for _ in cubature._common_zero_checked(spec, blocks(pts)):
                pass

    @pytest.mark.parametrize("spec", [star_spec_cheb1(8), star_spec_cheb1(9), star_spec_gencheb(0.5, 0.5, 8),
                                      star_spec_gencheb(0.3, -0.2, 9)], ids=["cheb1-8", "cheb1-9", "gencheb8", "gencheb9"])
    def test_common_zero_residual_is_the_dense_combination(self, spec):
        # the check gathers the two rows of F_n each vanishing member combines;
        # the residual it reports is that of the dense p_coeffs @ F_n
        basis = basis_for(spec.weight)
        pts = np.random.default_rng(spec.n).uniform(-1, 1, (40, 2))
        Fn = basis.eval_degree(spec.n, *pts.T)
        van = np.abs(spec.p_coeffs @ Fn).max(axis=0)
        ratio = van / (64 * np.finfo(float).eps * spec.n**2 * np.maximum(1.0, np.abs(Fn).max(axis=0)))
        with pytest.raises(CubatureError, match=re.escape(f"residual {van[np.argmax(ratio)]:.2e} at")):
            for _ in cubature._common_zero_checked(spec, [(0, None, Fn[:, :25], None), (25, None, Fn[:, 25:], None)]):
                pass

    def test_moved_gaussian_pair_fails_every_weight_check(self, no_rows):
        # (x0, y0) and (-x0, y0) both moved by +1e-6 in x: the moment of
        # degree 0 cancels to first order, the one of degree 1 does not
        nodes = gauss_u_nodes(6)
        pts = nodes.points.copy()
        i = 0
        j = int(np.argmin(np.abs(pts - [-pts[i, 0], pts[i, 1]]).sum(axis=1)))
        assert j != i and np.allclose(pts[j], [-pts[i, 0], pts[i, 1]], rtol=0, atol=1e-15)
        pts[[i, j], 0] += 1e-6
        with pytest.raises(CubatureError, match="moments through degree 10.*unisolvent equations.*"
                                                "reciprocal-kernel"):
            weights_from_kernel(replace(nodes, points=pts), star_spec_gaussian(cheb2(), 6), cheb2())

    def test_cheb1_128_memory(self):
        # the dense N x N calibration matrix alone is 562 MB at n = 128, and
        # the two T tables of the moment residuals at degree 258 on all nodes
        # 34 MB; the build peaks at about 21 MB in its blocked calibration
        tracemalloc.start()
        try:
            rule = family_rule("cheb1", 128)[3]
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert exactness_check(rule).passed
            check_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 22 * 2**20
        assert check_peak < 20 * 2**20
        assert len(rule.lambdas) == moeller_count(128)

    def test_gencheb_128_memory(self):
        # the dense dim x N basis rows alone were 558 MB at n = 128; the
        # angle-variable build peaks at about 18 MB
        tracemalloc.start()
        try:
            rule = family_rule("gencheb", 128)[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert len(rule.lambdas) == dim_upto(127) + 64

    def test_cheb1_64_memory(self):
        # the dense dim x N basis rows alone are 35 MB at n = 64
        tracemalloc.start()
        try:
            family_rule("cheb1", 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestSeparableCalibration:
    """The calibration from 1-D tables, in x and y for the product bases and
    in the angle variables for gencheb, against the dense path on the basis
    rows."""

    @pytest.mark.parametrize("family,n", [("cheb1", 8), ("cheb1", 9), ("cheb1", 32), ("cheb1", 33), ("cheb1", 64),
                                          ("padua", 8), ("padua", 9), ("padua", 48),
                                          ("cheb2", 20), ("cheb2", 21)])
    def test_matches_dense_rows(self, family, n, monkeypatch):
        nodes, spec, w, rule = family_rule(family, n)
        raw, pts, basis = replace(spec, s_diag=None), nodes.points, basis2d.basis_for(w)
        w_unit = rule.lambdas / basis.mass
        F = basis.eval_upto(n, pts[:, 0], pts[:, 1])
        dense = cubature._checked_calibration(raw, row_reductions(F, n, w_unit), w_unit)
        # blocks of 7 nodes, or of as few as leave room for the grid of distinct
        # coordinates (10 at cheb1 64, 8 at padua 48), so the last block is partial
        grid = 8 * len(np.unique(pts[:, 0])) * len(np.unique(pts[:, 1]))
        monkeypatch.setattr(basis2d, "_BLOCK_BYTES", max(48 * (n + 1) * 7, grid))
        sep = cubature._checked_calibration(raw, basis.node_reductions(n, pts, w_unit), w_unit)
        if spec.sigma:
            s = dense[0].s_diag
            assert np.abs(sep[0].s_diag - s).max() <= 1e-13 * s.max()
        assert_allclose(sep[1], dense[1], rtol=1e-13, atol=0)  # mass * K*(z_k, z_k)
        assert_allclose(rule.lambdas, basis.mass / dense[1], rtol=1e-13, atol=0)

    def test_product_calibration_refuses_nodes_off_a_grid(self, monkeypatch):
        # every node of mint 64 moved: 2,112 distinct values per axis, whose grid
        # (35.7 MB) passes the block budget; refused before any Jacobi table is built
        def refuse(*args):
            raise AssertionError("Jacobi table built")

        rule = RULE_BUILDERS["mint-moved"](64)
        monkeypatch.setattr(basis2d, "jacobi_normalized_table", refuse)
        with pytest.raises(CubatureError, match="coordinates span a grid past"):
            list(basis_for(cheb1()).node_reductions(64, rule.nodes.points, rule.lambdas / mass(cheb1())))

    @pytest.mark.parametrize("family,n", [("cheb1", 9), ("padua", 8), ("cheb2", 8)])
    def test_product_builds_use_no_rows(self, family, n, no_rows):
        assert family_rule(family, n)[3].lambdas.min() > 0

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (1.5, -0.5), (0.3, -0.2), (-0.7, 2.1)])
    @pytest.mark.parametrize("n", [2, 3, 8, 9, 32, 33, 47, 48])
    def test_gencheb_matches_dense_rows(self, alpha, beta, n, monkeypatch):
        nodes, spec, w, rule = family_rule("gencheb", n, alpha, beta)
        raw, pts, basis = replace(spec, s_diag=None), nodes.points, basis2d.basis_for(w)
        w_unit = rule.lambdas / basis.mass
        F = basis.eval_upto(n, pts[:, 0], pts[:, 1])
        dense = cubature._checked_calibration(raw, row_reductions(F, n, w_unit), w_unit)
        # blocks of 7 nodes, so the last block is partial
        monkeypatch.setattr(basis2d, "_BLOCK_BYTES", 48 * (n + 1) * 7)
        ang = cubature._checked_calibration(raw, basis.node_reductions(n, pts, w_unit), w_unit)
        s = dense[0].s_diag
        assert np.abs(ang[0].s_diag - s).max() <= 1e-13 * s.max()
        assert_allclose(ang[1], dense[1], rtol=1e-13, atol=0)  # mass * K*(z_k, z_k)
        assert_allclose(rule.lambdas, basis.mass / ang[1], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [8, 9, 64, 65])
    def test_gencheb_builds_use_no_rows(self, n, no_gencheb_rows):
        assert family_rule("gencheb", n)[3].lambdas.min() > 0

    @pytest.mark.parametrize("n", [64, 65, 128])
    def test_gencheb_minus_half_is_cheb1(self, n):
        # gencheb(-1/2, -1/2) is the cheb1 weight and builds the same rule and
        # kernel through the other basis: a reference at large n without rows
        rules = {}
        for family in ("gencheb", "cheb1"):
            nodes, spec, w, rule = family_rule(family, n, -0.5, -0.5)
            basis, w_unit = basis2d.basis_for(w), rule.lambdas / mass(w)
            kdiag = cubature._checked_calibration(replace(spec, s_diag=None),
                                                  basis.node_reductions(n, nodes.points, w_unit), w_unit)[1]
            order = np.lexsort(np.round(nodes.points, 12).T[::-1])
            rules[family] = nodes.points[order], rule.lambdas, kdiag[order] / basis.mass
        (pg, lg, kg), (pc, lc, kc) = rules["gencheb"], rules["cheb1"]
        assert np.abs(pg - pc).max() <= 1e-13
        # the gencheb side reads its Jacobi tables at z1, z2 = cos(theta -+ phi)
        # rounded from the nodes, and sums of m = n/2 squares p_k(z)^2 move by
        # about m^2 eps for that rounding: 5.5e-14 at n = 64, 2.2e-13 at 128
        tol = 1e-13 * max(1.0, (n / 80) ** 2)
        assert_allclose(kg, kc, rtol=tol, atol=0)
        assert np.abs(np.sort(lg) - np.sort(lc)).max() <= tol * lc.max()


def gencheb_rule(alpha, beta, n):
    return weights_from_kernel(gencheb_nodes(alpha, beta, n), star_spec_gencheb(alpha, beta, n),
                               gencheb(alpha, beta, -0.5))


def moved_rule(rule):
    """``rule`` with every coordinate moved by up to 1e-9, so that no two nodes share one."""
    pts = rule.nodes.points + np.random.default_rng(0).uniform(-1e-9, 1e-9, rule.nodes.points.shape)
    return replace(rule, nodes=replace(rule.nodes, points=pts), validate=False)


def discovered_rule(n):
    """The degree-(2n - 1) constant-weight rule on the common zeros of the known odd Hankel solution."""
    pts = common_zeros(KNOWN_ODD_HANKEL[n])
    nodes = NodeSet(points=pts, family="discovered_odd", n=n, expected_count=len(pts))
    return weights_from_vandermonde(nodes, constant(), 2 * n - 1)


RULE_BUILDERS = {
    "mint": lambda n: weights_from_kernel(min_t_nodes_even(n), star_spec_cheb1(n), cheb1()),
    "mint-moved": lambda n: moved_rule(RULE_BUILDERS["mint"](n)),
    "odd": discovered_rule,
    "nearmint": lambda n: weights_from_kernel(near_min_t_nodes_odd(n), star_spec_cheb1(n), cheb1()),
    "gaussu": lambda n: weights_from_kernel(gauss_u_nodes(n), star_spec_gaussian(cheb2(), n), cheb2()),
    "padua": lambda n: family_rule("padua", n)[3],
    "gencheb": lambda n: gencheb_rule(0.5, 0.5, n),
    "gencheb0.3,-0.2": lambda n: gencheb_rule(0.3, -0.2, n),
}
SHARP_DEGREE_CASES = (
    [("mint", n) for n in (2, 8, 32, 64)]
    + [("nearmint", n) for n in (3, 9, 33, 63)]
    + [(fam, n) for fam in ("gaussu", "padua", "gencheb") for n in (2, 3, 16, 33, 63, 64)]
    + [("gencheb0.3,-0.2", n) for n in (8, 9, 32, 33)]
)
# the route of the oracle: the rules workload's five files on the grid of distinct
# coordinates, a rule with every node moved and the 17-node discovered rule per node
ORACLE_ROUTES = {("mint", 64): "grid", ("nearmint", 63): "grid", ("gaussu", 64): "grid", ("padua", 48): "grid",
                 ("gencheb", 48): "grid", ("mint-moved", 64): "nodes", ("odd", 5): "nodes"}


def full_square_residuals(w, points, lambdas, degree):
    """The per-degree residuals of ``cubature._degree_residuals`` from the whole
    (degree + 1)^2 square of rule sums, in one block."""
    t, mom = chebyshev_t_table(degree, points.T), chebyshev_moments(w, degree)
    err = np.abs((t[:, 0] * lambdas) @ t[:, 1].T - mom) / mom[0, 0]
    residuals = np.zeros(2 * degree + 1)
    np.maximum.at(residuals, np.add.outer(np.arange(degree + 1), np.arange(degree + 1)), err)
    return residuals[: degree + 1]


class TestExactnessCheck:
    @pytest.mark.parametrize("family,n", SHARP_DEGREE_CASES)
    def test_declared_degree_is_sharp(self, family, n):
        # the true degree passes and the same rule declared one degree
        # higher fails, at even and odd n up to 64
        rule = RULE_BUILDERS[family](n)
        rep = exactness_check(rule)
        assert rep.passed and rep.max_rel_error < 1e-13
        over = exactness_check(replace(rule, degree=rule.degree + 1))
        assert not over.passed
        assert over.first_failure_degree == rule.degree + 1
        assert over.max_rel_error > 0.1

    @pytest.mark.parametrize("n", [8, 9, 32, 33])
    def test_gencheb_far_from_half_integers_is_sharp(self, n):
        # at (alpha, beta) = (-0.7, 2.1) the first failure is still 2n, though
        # the error there is only 0.06-0.08 of the mass
        rule = gencheb_rule(-0.7, 2.1, n)
        assert exactness_check(rule).passed
        over = exactness_check(replace(rule, degree=rule.degree + 1))
        assert not over.passed and over.first_failure_degree == 2 * n

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(alpha=st.floats(-0.95, 3.0), beta=st.floats(-0.95, 3.0), n=st.integers(2, 16))
    def test_gencheb_every_alpha_beta(self, alpha, beta, n):
        # exact through 2n - 1, and no longer once the largest weight moves by 1e-6
        rule = gencheb_rule(alpha, beta, n)
        assert rule.degree == 2 * n - 1 and exactness_check(rule).passed
        lam = rule.lambdas.copy()
        lam[np.argmax(lam)] *= 1 + 1e-6
        assert not exactness_check(replace(rule, lambdas=lam, validate=False)).passed

    @pytest.mark.parametrize("alpha,beta,n", [(5, 5, 64), (-0.9, 3, 64), (10, -0.5, 32), (8, 8, 64),
                                              (20, 20, 32), (3, 3, 128)])
    def test_gencheb_large_parameters_build_and_are_sharp(self, alpha, beta, n):
        # the degree-n values reach 1e6..1e9 here, so a common-zero check
        # against an absolute 1e-8 rejected these correct node sets
        rule = gencheb_rule(alpha, beta, n)
        assert rule.degree == 2 * n - 1 and exactness_check(rule).passed
        over = exactness_check(replace(rule, degree=rule.degree + 1))
        assert not over.passed and over.first_failure_degree == 2 * n

    @pytest.mark.parametrize("alpha,beta", [(5, 5), (-0.9, 3)])
    def test_gencheb_large_parameters_refuse_moved_node(self, alpha, beta):
        nodes = gencheb_nodes(alpha, beta, 64)
        pts = nodes.points.copy()
        pts[5, 0] += 1e-6
        with pytest.raises(CubatureError, match="common-zero"):
            weights_from_kernel(replace(nodes, points=pts), star_spec_gencheb(alpha, beta, 64),
                                gencheb(alpha, beta, -0.5))

    @pytest.mark.parametrize("alpha,beta", [(5, 5), (-0.9, 3)])
    def test_gencheb_large_parameters_refuse_scaled_weight(self, alpha, beta, monkeypatch):
        closed = cubature._closed_form_weights

        def scaled(*args):
            lam = closed(*args)
            lam[np.argmax(lam)] *= 1 + 1e-6
            return lam

        monkeypatch.setattr(cubature, "_closed_form_weights", scaled)
        with pytest.raises(CubatureError, match="moments through degree 127"):
            gencheb_rule(alpha, beta, 64)

    def test_residuals_per_degree(self):
        rule = RULE_BUILDERS["mint"](8)
        rep = exactness_check(rule)
        assert len(rep.residuals) == rep.checked_through + 1 == rule.degree + 4
        assert max(rep.residuals[: rule.degree + 1]) == rep.max_rel_error
        assert rep.residuals[rep.first_failure_degree] > 1e-9
        assert all(r <= 1e-9 for r in rep.residuals[: rep.first_failure_degree])

    def test_node_blocks_match_one_block(self, monkeypatch):
        rule = RULE_BUILDERS["mint"](16)
        one = exactness_check(rule).residuals  # on the grid route
        # the per-node route in blocks of 7 of the 144 nodes, so the last block is partial
        monkeypatch.setattr(cubature, "node_grid", lambda *a: None)
        monkeypatch.setattr(cubature, "_BLOCK_BYTES", 16 * (rule.degree + 4) * 7)
        assert_allclose(exactness_check(rule).residuals, one, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("family,n", SHARP_DEGREE_CASES + [c for c in ORACLE_ROUTES if c not in SHARP_DEGREE_CASES])
    def test_triangle_sums_match_full_square(self, family, n, monkeypatch):
        # an odd and an even degree each where the rule is exact, so that a sum left out shows
        # its moment, and where the report scans past a failure; by the route node_grid picks
        rule = RULE_BUILDERS[family](n)
        grids = []
        monkeypatch.setattr(cubature, "node_grid", lambda *a: grids.append(basis2d.node_grid(*a)) or grids[-1])
        for d in (rule.degree - 1, rule.degree, rule.degree + 3, rule.degree + 4):
            got = cubature._degree_residuals(rule.weight, rule.nodes.points, rule.lambdas, d)
            ref = full_square_residuals(rule.weight, rule.nodes.points, rule.lambdas, d)
            assert_allclose(got, ref, rtol=0, atol=1e-14)
            deg = min(d, rule.degree)
            a, b = cubature._exactness_report(deg, got), cubature._exactness_report(deg, ref)
            assert (a.passed, a.first_failure_degree) == (b.passed, b.first_failure_degree)
        if (family, n) in ORACLE_ROUTES:
            assert {"nodes" if g is None else "grid" for g in grids} == {ORACLE_ROUTES[family, n]}

    def test_moved_nodes_allocate_no_grid(self):
        # the per-node route on the moved mint 64 rule peaks at 4.67 MB traced (4.80 MB
        # before the grid route existed); its 2,112 x 2,112 grid alone would be 35.7 MB
        rule = RULE_BUILDERS["mint-moved"](64)
        tracemalloc.start()
        try:
            rep = exactness_check(rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.residuals[128] > 0.1  # and the moves show as 3e-8 of the mass from degree 14 on
        assert peak <= 4_804_851

    def test_sharp_at_512(self):
        # the closed-form weights on the mint 512 nodes through degree 1023, and not 1024
        pts = min_t_nodes_even(512).points
        lam = mass(cheb1()) * cubature._closed_form_weights(cheb1(), 512, pts)
        rep = cubature._exactness_report(1023, cubature._degree_residuals(cheb1(), pts, lam, 1024))
        assert rep.passed and rep.max_rel_error < 1e-12
        assert rep.first_failure_degree == 1024 and rep.residuals[1024] > 0.1

    @pytest.mark.parametrize("degree", [30, 31])
    def test_triangle_sums_over_partial_blocks(self, degree, monkeypatch):
        rule = RULE_BUILDERS["gencheb0.3,-0.2"](16)  # exact through 31, its even-total moments nonzero
        ref = full_square_residuals(rule.weight, rule.nodes.points, rule.lambdas, degree)
        # blocks of 7 nodes, so the last block is partial (58 x 58 distinct coordinates: the per-node route)
        monkeypatch.setattr(cubature, "_BLOCK_BYTES", 16 * (degree + 1) * 7)
        assert len(rule.nodes) % 7 and basis2d.node_grid(rule.nodes.points, rule.lambdas, 0.75 * (degree + 1)) is None
        got = cubature._degree_residuals(rule.weight, rule.nodes.points, rule.lambdas, degree)
        assert_allclose(got, ref, rtol=0, atol=1e-14)

    def test_nan_weight_fails(self):
        rule = RULE_BUILDERS["mint"](4)
        lam = rule.lambdas.copy()
        lam[0] = np.nan
        rep = exactness_check(replace(rule, lambdas=lam, validate=False))
        assert not rep.passed and rep.first_failure_degree == 0

    def test_midpoint_rule(self):
        ns = NodeSet(points=np.array([[0.0, 0.0]]), family="padua", n=0,
                     expected_count=1, provenance="midpoint")
        rule = CubatureRule(weight=constant(), degree=1, nodes=ns, lambdas=np.array([4.0]))
        rep = exactness_check(rule)
        assert rep.passed
        assert rep.first_failure_degree == 2

    def test_cheb2_failure_degree(self):
        rule = weights_from_kernel(gauss_u_nodes(6), star_spec_gaussian(cheb2(), 6), cheb2())
        rep = exactness_check(rule)
        assert rep.passed
        assert rep.first_failure_degree in (11, 12, 13)

    def test_cheb1_minimal_pass_at_15(self):
        rule = weights_from_kernel(min_t_nodes_even(8), star_spec_cheb1(8), cheb1())
        rep = exactness_check(rule)
        assert rep.passed and rule.degree == 15

    def test_gencheb_rules_exact(self):
        for n in (4, 7, 8):
            rule = weights_from_kernel(
                gencheb_nodes(0.5, 0.5, n), star_spec_gencheb(0.5, 0.5, n), gencheb(0.5, 0.5, -0.5)
            )
            rep = exactness_check(rule)
            assert rep.passed and rule.degree == 2 * n - 1


class TestLowerBounds:
    def test_constant_fixtures(self):
        lb5 = lower_bounds(constant(), 5)
        assert (lb5.dim_bound, lb5.moeller_bound) == (15, 17)
        lb4 = lower_bounds(constant(), 4)
        assert (lb4.dim_bound, lb4.moeller_bound) == (10, 12)

    def test_rank_bound_reduces_to_moeller(self):
        for n in range(2, 9):
            lb = lower_bounds(constant(), n)
            assert lb.rank_bound == lb.moeller_bound

    def test_every_rule_respects_bounds(self):
        cases = [
            (weights_from_kernel(gauss_u_nodes(5), star_spec_gaussian(cheb2(), 5), cheb2()), 5),
            (weights_from_kernel(min_t_nodes_even(6), star_spec_cheb1(6), cheb1()), 6),
            (weights_from_kernel(near_min_t_nodes_odd(7), star_spec_cheb1(7), cheb1()), 7),
        ]
        for rule, n in cases:
            lb = lower_bounds(rule.weight, n)
            assert rule.node_count >= lb.dim_bound
            assert rule.node_count >= lb.moeller_bound or rule.degree == 2 * n - 2

    def test_cheb1_even_attains_moeller(self):
        for n in (4, 8, 12):
            rule = weights_from_kernel(min_t_nodes_even(n), star_spec_cheb1(n), cheb1())
            assert rule.node_count == moeller_count(n)


class TestRuleValidation:
    def test_negative_weight_rejected(self):
        ns = NodeSet(points=np.array([[0.0, 0.0], [0.5, 0.5]]), family="padua", n=0,
                     expected_count=2, provenance="")
        with pytest.raises(CubatureError):
            CubatureRule(weight=constant(), degree=0, nodes=ns, lambdas=np.array([5.0, -1.0]))

    def test_bad_mass_rejected(self):
        ns = NodeSet(points=np.array([[0.0, 0.0]]), family="padua", n=0,
                     expected_count=1, provenance="")
        with pytest.raises(CubatureError):
            CubatureRule(weight=constant(), degree=0, nodes=ns, lambdas=np.array([3.0]))


class TestSerialization:
    def test_round_trip_bit_stable(self):
        rule = weights_from_kernel(min_t_nodes_even(6), star_spec_cheb1(6), cheb1())
        rule.oracle_report = exactness_check(rule)
        text = rule_to_json(rule)
        r2 = rule_from_json(text)
        assert np.array_equal(r2.nodes.points, rule.nodes.points)
        assert np.array_equal(r2.lambdas, rule.lambdas)
        assert rule_to_json(r2) == text

    def test_oracle_report_preserved(self):
        rule = weights_from_vandermonde(padua_points(4), cheb1(), 7)
        rule.oracle_report = exactness_check(rule)
        r2 = rule_from_json(rule_to_json(rule))
        assert r2.oracle_report.passed
        rep = exactness_check(r2)
        assert rep.passed

    def test_report_of_another_degree_dropped(self):
        rule = family_rule("cheb1", 8)[3]
        assert rule.oracle_report.declared_degree == 15
        over = replace(rule, degree=16)
        assert over.oracle_report is None and rule_to_dict(over)["oracle_report"] is None
        assert replace(rule, provenance="copy").oracle_report is rule.oracle_report
        d = rule_to_dict(rule)
        d["degree"] = 16
        assert rule_from_dict(d).oracle_report is None

    def test_report_without_residuals_loads(self):
        rule = weights_from_kernel(min_t_nodes_even(4), star_spec_cheb1(4), cheb1())
        rule.oracle_report = exactness_check(rule)
        d = json.loads(rule_to_json(rule))
        del d["oracle_report"]["residuals"]
        r2 = rule_from_dict(d)
        assert r2.oracle_report.residuals is None
        assert r2.oracle_report.max_rel_error == rule.oracle_report.max_rel_error
        assert rule_to_dict(r2)["oracle_report"]["residuals"] is None

    def test_mass_helper(self):
        assert mass(cheb1()) == pytest.approx(np.pi**2, rel=1e-14)


def reference_rule_text(rule):
    """The rule file as the stdlib writes it: the layout ``rule_to_json`` must reproduce."""
    return json.dumps(rule_to_dict(rule), indent=2)


def float_bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# values the rule-file writer must keep apart, or write as the stdlib does
REPEATED_VALUES = [0.0, -0.0, 5e-324, float("nan"), float("inf"), 1.0000000000000002]

RULES_FAMILIES = [("cheb1", 6, None, None), ("cheb1", 7, None, None), ("cheb2", 8, None, None),
                  ("padua", 6, None, None), ("gencheb", 8, 0.5, 0.5), ("gencheb", 9, 0.3, -0.2)]


class TestRuleFileWriter:
    @pytest.mark.parametrize("family,n,alpha,beta", RULES_FAMILIES, ids=[f"{f}{n}" for f, n, *_ in RULES_FAMILIES])
    def test_family_rules_byte_identical(self, family, n, alpha, beta):
        rule = family_rule(family, n, alpha, beta)[3]
        text = rule_to_json(rule)
        assert text == reference_rule_text(rule)
        assert ("alpha" in json.loads(text)) == (family == "gencheb")

    def test_without_report_and_without_residuals(self):
        rule = family_rule("cheb1", 6)[3]
        unreported = replace(rule, oracle_report=None)
        assert rule_to_json(unreported) == reference_rule_text(unreported)
        bare = replace(rule, oracle_report=replace(rule.oracle_report, residuals=None))
        assert rule_to_json(bare) == reference_rule_text(bare)
        assert '"residuals": null' in rule_to_json(bare)

    def test_loaded_special_values(self):
        # the reader takes signed zeros and subnormals but no nan or inf; the
        # writer still writes those as the stdlib does, say for a rule made in memory
        d = rule_to_dict(family_rule("cheb2", 4)[3])
        d["nodes"][0] = ["0.5", "-0"]
        d["nodes"][1] = ["0.5", "5e-324"]
        d["lambdas"][:4] = ["-0", "0.5", "0.5", "1e-300"]
        d["oracle_report"]["max_rel_error"] = float("nan")
        d["provenance"] = 'quote " backslash \\ newline \n tab \t \u00e9'
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match="^every coordinate and weight must be finite$"):
                rule_from_dict(dict(d, lambdas=d["lambdas"][:1] + [bad] + d["lambdas"][2:]))
        rule = rule_from_dict(d)
        rule.nodes.points[:2, 0] = np.nan, np.inf
        rule.lambdas[1:3] = np.nan, -np.inf
        assert rule_to_json(rule) == reference_rule_text(rule)
        assert rule_to_dict(rule)["nodes"][:2] == [["nan", "-0"], ["inf", "4.9406564584124654e-324"]]

    def test_one_node_rule(self):
        ns = NodeSet(points=np.array([[0.0, -0.0]]), family="padua", n=0, expected_count=1, provenance="")
        rule = CubatureRule(weight=constant(), degree=1, nodes=ns, lambdas=np.array([4.0]))
        assert rule_to_json(rule) == reference_rule_text(rule)
        rule.oracle_report = exactness_check(rule)
        assert rule_to_json(rule) == reference_rule_text(rule)

    def test_empty_arrays_as_the_stdlib_writes_them(self):
        d = rule_to_dict(family_rule("cheb1", 4)[3])
        d["nodes"], d["lambdas"], d["oracle_report"] = [], [], None
        rule = rule_from_dict(d)
        assert rule_to_json(rule) == reference_rule_text(rule)
        assert '"nodes": [],\n  "lambdas": [],' in rule_to_json(rule)

    @pytest.mark.parametrize("family,n,alpha,beta", RULES_FAMILIES, ids=[f"{f}{n}" for f, n, *_ in RULES_FAMILIES])
    def test_reader_arrays_are_float_of_every_string(self, family, n, alpha, beta):
        d = json.loads(rule_to_json(family_rule(family, n, alpha, beta)[3]))
        d["nodes"][0], d["lambdas"][0] = ["-0", "-5e-324"], "1.0000000000000002"
        rule = rule_from_json(json.dumps(d))
        assert rule.nodes.points.shape == (len(d["nodes"]), 2)
        assert np.array_equal(float_bits(rule.nodes.points), float_bits([[float(x), float(y)] for x, y in d["nodes"]]))
        assert np.array_equal(float_bits(rule.lambdas), float_bits([float(v) for v in d["lambdas"]]))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_distinct_values_written_and_read_bit_for_bit(self, data):
        # arrays with repeats, drawn from a small pool of special and random doubles: the
        # writer formats each distinct value once, so equal floats with other bits
        # (0.0 and -0.0) and values one ulp apart must keep their own strings
        pool = REPEATED_VALUES + data.draw(st.lists(st.floats(width=64), max_size=4))
        count = data.draw(st.integers(0, 12))
        values = data.draw(st.lists(st.sampled_from(pool), min_size=3 * count, max_size=3 * count))
        points, lambdas = np.array(values[:2 * count]).reshape(-1, 2), np.array(values[2 * count:])
        ns = NodeSet(points=points, family="padua", n=1, expected_count=count, provenance="drawn")
        rule = CubatureRule(weight=cheb1(), degree=1, nodes=ns, lambdas=lambdas, validate=False)
        text = rule_to_json(rule)
        assert text == reference_rule_text(rule)
        node_fields = {"family": "padua", "n": 1, "count": count,
                       "points": rule_to_dict(rule)["nodes"], "provenance": "drawn"}
        assert ns.to_json() == json.dumps(node_fields, indent=2)
        if not np.isfinite(values).all():
            with pytest.raises(ValueError, match="^every coordinate and weight must be finite$"):
                rule_from_json(text)
            return
        loaded = rule_from_json(text)
        assert np.array_equal(float_bits(loaded.nodes.points), float_bits(points.reshape(-1, 2)))
        assert np.array_equal(float_bits(loaded.lambdas), float_bits(lambdas))

    def test_reader_keeps_the_sign_of_numeric_zeros(self):
        # numbers are not told apart by a dict: -0.0 == 0.0 would share a key
        d = rule_to_dict(family_rule("cheb1", 4)[3])
        d["nodes"][0], d["lambdas"][:3] = [0.0, -0.0], [-0.0, 0, "-0"]
        rule = rule_from_dict(d)
        assert float_bits(rule.nodes.points[0]).tolist() == float_bits([0.0, -0.0]).tolist()
        assert float_bits(rule.lambdas[:3]).tolist() == float_bits([-0.0, 0.0, -0.0]).tolist()

    @pytest.mark.parametrize("where", ["node", "lambda"])
    @pytest.mark.parametrize("bad", [[0.5], {"x": 0.5}, None], ids=["list", "dict", "none"])
    def test_reader_rejects_an_entry_that_is_not_a_number(self, where, bad):
        d = rule_to_dict(family_rule("cheb1", 4)[3])
        if where == "node":
            d["nodes"][3][1] = bad
        else:
            d["lambdas"][3] = bad
        with pytest.raises(ValueError, match="^every coordinate and weight must be a number or a numeric string$"):
            rule_from_dict(d)

    @pytest.mark.parametrize("row", [["0.5"], ["0.5", "0.5", "0.5"], []])
    def test_reader_rejects_a_node_without_two_coordinates(self, row):
        d = rule_to_dict(family_rule("cheb1", 4)[3])
        d["nodes"][3] = row
        with pytest.raises(ValueError):
            rule_from_dict(d)

