"""Tests for the 2-D orthonormal bases, three-term matrices, and kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cubasquare import basis2d
from cubasquare.basis2d import (
    _cheb_total_degree_rows,
    basis_for,
    dim_upto,
    generalized_basis,
    kernel_K,
    kernel_K_star,
    kernel_matrix,
    kernel_star_matrix,
    p_general,
    product_basis,
    q_m_polynomial,
    star_spec_cheb1,
    star_spec_gaussian,
    three_term,
)
from cubasquare.interp import _lobatto_grid
from cubasquare.univariate import jacobi_normalized_table
from cubasquare.weights import cheb1, cheb2, constant, gencheb, jacobi_product, mass, tensor_oracle


def p_general_trig(alpha, beta, sign, k, n, theta, phi) -> np.ndarray:
    """Reference evaluation of P_{k,n} straight from the angle formula."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    z1, z2 = np.cos(theta - phi), np.cos(theta + phi)
    if sign < 0:
        deg = max(n, k)
        t1 = jacobi_normalized_table(alpha, beta, deg, z1)
        t2 = jacobi_normalized_table(alpha, beta, deg, z2)
        return t1[n] * t2[k] + t1[k] * t2[n]
    deg = n + 1
    t1 = jacobi_normalized_table(alpha, beta, deg, z1)
    t2 = jacobi_normalized_table(alpha, beta, deg, z2)
    return (t1[deg] * t2[k] - t1[k] * t2[deg]) / (2.0 * np.sin(theta) * np.sin(phi))


def gram(w, nmax):
    X, Y, wts = tensor_oracle(w, 4 * nmax + 6)
    F = basis_for(w, nmax).eval_upto(nmax, X, Y)
    return (F * wts) @ F.T / mass(w)


class TestOrthonormality:
    @pytest.mark.parametrize("w", [constant(), cheb1(), cheb2()])
    def test_product_gram_identity(self, w):
        G = gram(w, 10)
        assert np.abs(G - np.eye(len(G))).max() < 1e-10

    def test_gencheb_gram_identity(self):
        for w in (gencheb(0.5, 0.5, -0.5), gencheb(0.5, -0.5, -0.5)):
            G = gram(w, 6)
            assert np.abs(G - np.eye(len(G))).max() < 1e-9

    def test_dimension_per_degree(self):
        b = basis_for(constant(), 6)
        x = np.array([0.1, -0.3])
        y = np.array([0.2, 0.9])
        for n in range(7):
            assert b.eval_degree(n, x, y).shape == (n + 1, 2)
        assert b.eval_upto(6, x, y).shape == (dim_upto(6), 2)


class TestBasisCache:
    def test_shared_per_weight_and_degree(self):
        w = gencheb(0.5, 0.5, -0.5)
        assert basis_for(w, 6) is basis_for(gencheb(0.5, 0.5, -0.5), 6)
        assert basis_for(w, 8) is not basis_for(w, 6)

    def test_gencheb_degree_fixed_at_construction(self):
        b = basis_for(gencheb(0.5, -0.5, -0.5), 5)
        x = np.array([0.1, -0.3])
        b.eval_upto(5, x, x[::-1])
        with pytest.raises(ValueError):
            b.eval_upto(6, x, x[::-1])
        basis_for(gencheb(0.5, -0.5, -0.5), 9).eval_upto(9, x, x[::-1])
        assert b.nmax == 5

    @pytest.mark.parametrize("w", [gencheb(0.5, 0.5, -0.5), gencheb(1.5, 0.5, 0.5)])
    def test_gencheb_rows_on_2d_points(self, w):
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-1, 1, (2, 3, 4))
        b = basis_for(w, 4)
        rows = b.eval_upto(4, x, y)
        assert rows.shape == (15, 3, 4)
        assert np.array_equal(rows.reshape(15, -1), b.eval_upto(4, x.ravel(), y.ravel()))

    def test_product_rows_match_degree_loop(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1, 1, (2, 3, 4))
        tx = jacobi_normalized_table(-0.5, -0.5, 7, x)
        ty = jacobi_normalized_table(-0.5, -0.5, 7, y)
        ref = np.array([tx[d - k] * ty[k] for d in range(8) for k in range(d + 1)])
        assert np.array_equal(basis_for(cheb1(), 7).eval_upto(7, x, y), ref)


CONVERSION_WEIGHTS = {"cheb1": cheb1(), "cheb2": cheb2(), "gencheb-1/2,1/2": gencheb(0.5, 0.5),
                      "gencheb-3/2,-1/2": gencheb(1.5, -0.5), "const": constant(),
                      "jacobi2": jacobi_product(0.3, -0.4)}


@pytest.mark.parametrize("m", [1, 8, 47, 48])
@pytest.mark.parametrize("name", list(CONVERSION_WEIGHTS))
def test_chebyshev_coeffs_reproduce_basis(name, m, monkeypatch):
    # three columns per product-basis block, so 20 columns end in a partial block
    monkeypatch.setattr(basis2d, "_BLOCK_BYTES", 16 * (m + 1) ** 2 * 3)
    basis = basis_for(CONVERSION_WEIGHTS[name], m)
    rng = np.random.default_rng(m)
    coeffs = rng.standard_normal((dim_upto(m), 20))
    x, y = np.vstack([rng.uniform(-1, 1, (300, 2)), _lobatto_grid(65)]).T
    want = coeffs.T @ basis.eval_upto(m, x, y)
    got = basis.chebyshev_coeffs(m, coeffs).T @ _cheb_total_degree_rows(m, x, y)
    # relative to the largest value on the square (the 65^2 Lobatto grid holds
    # the boundary, where these polynomials peak), at the 300 random points
    assert np.abs(got - want)[:, :300].max() < 1e-13 * np.abs(want).max()


class TestProductBasis:
    def test_constant_degree1(self):
        # sqrt(3) x and sqrt(3) y up to ordering
        members = product_basis(constant(), 1)
        vals = sorted(abs(m(0.5, 0.25)) for m in members)
        assert_allclose(vals, sorted([np.sqrt(3) * 0.25, np.sqrt(3) * 0.5]), atol=1e-14)

    def test_cheb1_degree0_constant(self):
        (m,) = product_basis(cheb1(), 0)
        assert_allclose(m(np.array([0.3]), np.array([-0.8])), 1.0, atol=1e-14)

    def test_cheb2_members_are_u_products(self):
        from cubasquare.univariate import eval_chebyshev_u

        members = product_basis(cheb2(), 3)
        x, y = np.array([0.37]), np.array([-0.21])
        for k, m in enumerate(members):
            assert_allclose(m(x, y), eval_chebyshev_u(3 - k, x) * eval_chebyshev_u(k, y), atol=1e-12)

    def test_unsupported_weight(self):
        with pytest.raises(ValueError):
            product_basis(gencheb(0.5, 0.5, -0.5), 2)


class TestThreeTerm:
    def test_constant_closed_form(self):
        # Legendre: A1[k, k] = a(n - k), A2[k, k + 1] = a(k), zero elsewhere
        a = lambda k: (k + 1) / np.sqrt((2 * k + 1) * (2 * k + 3))
        for n in range(6):
            tt = three_term(constant(), n)
            A1 = np.zeros((n + 1, n + 2))
            A2 = np.zeros((n + 1, n + 2))
            for k in range(n + 1):
                A1[k, k] = a(n - k)
                A2[k, k + 1] = a(k)
            assert_allclose(tt.A1, A1, atol=1e-14)
            assert_allclose(tt.A2, A2, atol=1e-14)

    def test_a_entries(self):
        n = 5
        tt = three_term(constant(), n)
        a = lambda k: (k + 1) / np.sqrt((2 * k + 1) * (2 * k + 3))
        assert tt.A1[0, 0] == pytest.approx(a(n), abs=1e-15)
        assert tt.A1[n, n] == pytest.approx(a(0), abs=1e-15)
        assert a(0) == pytest.approx(1 / np.sqrt(3), abs=1e-15)

    def test_b_matrices_zero(self):
        for w in (constant(), cheb1(), cheb2()):
            tt = three_term(w, 4)
            assert not tt.B1.any()
            assert not tt.B2.any()

    @pytest.mark.parametrize("w", [constant(), cheb1(), cheb2()])
    def test_recurrence_residual(self, w):
        rng = np.random.default_rng(7)
        x, y = rng.uniform(-1, 1, (2, 50))
        b = basis_for(w, 9)
        for n in range(1, 9):
            tt = three_term(w, n)
            ttm = three_term(w, n - 1)
            Pn = b.eval_degree(n, x, y)
            Pn1 = b.eval_degree(n + 1, x, y)
            Pm1 = b.eval_degree(n - 1, x, y)
            rx = x * Pn - tt.A1 @ Pn1 - ttm.A1.T @ Pm1
            ry = y * Pn - tt.A2 @ Pn1 - ttm.A2.T @ Pm1
            assert np.abs(rx).max() < 1e-10
            assert np.abs(ry).max() < 1e-10


class TestKernel:
    def test_k0_is_reciprocal_mass(self):
        for w in (constant(), cheb1(), cheb2()):
            v = kernel_K(w, 0, (0.3, -0.5), (0.9, 0.1))
            assert v == pytest.approx(1.0 / mass(w), rel=1e-13)

    def test_symmetry(self):
        z, z2 = (0.21, -0.43), (-0.77, 0.52)
        assert kernel_K(cheb1(), 5, z, z2) == pytest.approx(kernel_K(cheb1(), 5, z2, z), rel=1e-13)

    def test_reproducing_property(self):
        # int K_5(z, .) p(.) W = p(z) for p = x^2 y under the constant weight
        w = constant()
        z = (0.3, -0.6)
        X, Y, wts = tensor_oracle(w, 16)
        K = kernel_matrix(w, 5, np.array([z]), np.stack([X, Y], axis=1))[0]
        got = (wts * K * X**2 * Y).sum()
        assert got == pytest.approx(z[0] ** 2 * z[1], abs=1e-10)

    def test_reproducing_all_monomials(self):
        for w in (constant(), cheb1()):
            X, Y, wts = tensor_oracle(w, 20)
            rng = np.random.default_rng(3)
            zs = rng.uniform(-0.9, 0.9, (3, 2))
            for n in (4, 8):
                K = kernel_matrix(w, n, zs, np.stack([X, Y], axis=1))
                for i in range(n + 1):
                    for j in range(n + 1 - i):
                        got = (wts * K * X**i * Y**j).sum(axis=1)
                        assert_allclose(got, zs[:, 0] ** i * zs[:, 1] ** j, atol=1e-10)


class TestKernelStar:
    def test_sigma_zero_equals_plain_kernel(self):
        w = cheb2()
        spec = star_spec_gaussian(w, 6)
        z, z2 = (0.4, 0.3), (-0.2, 0.8)
        assert kernel_K_star(spec, w, z, z2) == pytest.approx(kernel_K(w, 5, z, z2), rel=1e-13)

    def test_symmetry(self):
        spec = star_spec_cheb1(6)
        z, z2 = (0.4, 0.3), (-0.2, 0.8)
        a = kernel_K_star(spec, cheb1(), z, z2)
        b = kernel_K_star(spec, cheb1(), z2, z)
        assert a == pytest.approx(b, rel=1e-13)

    def test_positive_at_nodes(self):
        from cubasquare.interp import family_rule

        nodes, spec, _, _ = family_rule("cheb1", 4)  # min_t_nodes_even(4), calibrated star_spec_cheb1(4)
        d = np.diag(kernel_star_matrix(spec, nodes.points, nodes.points))
        assert d.min() > 0

    def test_weight_mismatch_rejected(self):
        spec = star_spec_cheb1(4)
        with pytest.raises(ValueError):
            kernel_K_star(spec, cheb2(), (0, 0), (0, 0))


class TestGeneralizedFamilies:
    def test_even_symmetries(self):
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-0.95, 0.95, (2, 30))
        for f in generalized_basis(0.5, 0.5, -0.5, 6):
            assert_allclose(f(x, y), f(-x, -y), atol=1e-11)
        m = 3
        for k, f in enumerate(generalized_basis(0.5, 0.5, -0.5, 6)[: m + 1]):
            assert_allclose(f(x, y), f(y, x), atol=1e-11)

    @pytest.mark.parametrize("sign", [-0.5, 0.5])
    def test_mutual_orthogonality(self, sign):
        a, b = 0.5, -0.5
        w = gencheb(a, b, sign)
        for n in range(2, 7):
            fams = generalized_basis(a, b, sign, n)
            X, Y, wts = tensor_oracle(w, 2 * n + 4)
            F = np.array([f(X, Y) for f in fams])
            G = (F * wts) @ F.T
            off = G - np.diag(np.diag(G))
            assert np.abs(off).max() < 1e-9 * max(np.diag(G).max(), 1.0)

    def test_member_count(self):
        for n in range(0, 8):
            assert len(generalized_basis(0.5, 0.5, -0.5, n)) == n + 1
            assert len(generalized_basis(0.5, 0.5, 0.5, n)) == n + 1

    def test_degree0_constant(self):
        (f,) = generalized_basis(0.5, -0.5, -0.5, 0)
        vals = f(np.array([0.1, -0.7]), np.array([0.9, 0.2]))
        assert_allclose(vals, vals[0])

    def test_well_definedness_trig_swap(self):
        # the angle formula is symmetric under (theta, phi) swap
        rng = np.random.default_rng(11)
        th, ph = rng.uniform(0.2, np.pi - 0.2, (2, 40))
        for sign in (-0.5, 0.5):
            v1 = p_general_trig(0.5, -0.5, sign, 2, 4, th, ph)
            v2 = p_general_trig(0.5, -0.5, sign, 2, 4, ph, th)
            assert_allclose(v1, v2, atol=1e-12 * max(1.0, np.abs(v1).max()))

    def test_trig_matches_xy_evaluation(self):
        rng = np.random.default_rng(13)
        th, ph = rng.uniform(0.2, np.pi - 0.2, (2, 40))
        x, y = np.cos(th), np.cos(ph)
        for sign in (-0.5, 0.5):
            ref = p_general_trig(0.3, 0.7, sign, 1, 3, th, ph)
            got = p_general(0.3, 0.7, sign, 1, 3, x, y)
            assert_allclose(got, ref, atol=1e-11 * max(1.0, np.abs(ref).max()))

    def test_plus_half_boundary_limit(self):
        # divided-difference fallback at the boundary stays finite and smooth
        x = np.array([1.0, 0.999999999, 0.5])
        y = np.array([0.3, 0.3, 1.0])
        v = p_general(0.5, 0.5, 0.5, 1, 3, x, y)
        assert np.all(np.isfinite(v))
        assert abs(v[0] - v[1]) < 1e-6


class TestQm:
    def test_vanishes_on_antidiagonal(self):
        q = q_m_polynomial(0.5, 0.5, 3)
        x = np.linspace(-1, 1, 17)
        assert_allclose(q(x, -x), 0.0, atol=1e-13)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.5, -0.5)])
    def test_orthogonal_to_lower_degrees(self, a, b):
        m = 2
        w = gencheb(a, b, -0.5)
        q = q_m_polynomial(a, b, m)
        X, Y, wts = tensor_oracle(w, 4 * m + 6)
        qv = q(X, Y)
        scale = np.sqrt((wts * qv * qv).sum())
        for i in range(2 * m + 1):
            for j in range(2 * m + 1 - i):
                val = (wts * qv * X**i * Y**j).sum()
                assert abs(val) < 1e-9 * scale

    def test_total_degree(self):
        # fitting to a total-degree basis: exact at 2m+1, deficient at 2m
        m = 2
        q = q_m_polynomial(0.5, 0.5, m)
        rng = np.random.default_rng(2)
        x, y = rng.uniform(-1, 1, (2, 200))
        vals = q(x, y)

        def fit_residual(deg):
            cols = [x**i * y**j for i in range(deg + 1) for j in range(deg + 1 - i)]
            A = np.array(cols).T
            _, res, *_ = np.linalg.lstsq(A, vals, rcond=None)
            pred = A @ np.linalg.lstsq(A, vals, rcond=None)[0]
            return np.abs(pred - vals).max()

        assert fit_residual(2 * m + 1) < 1e-10
        assert fit_residual(2 * m) > 1e-3
