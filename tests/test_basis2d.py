"""Tests for the 2-D orthonormal bases, three-term matrices, and kernels."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cubasquare import basis2d
from cubasquare.basis2d import (
    KernelStarSpec,
    _total_degree_rows,
    basis_for,
    dim_upto,
    kernel_star_matrix,
    star_spec_cheb1,
    star_spec_gaussian,
    star_spec_padua,
    three_term,
)
from cubasquare.interp import _lobatto_grid
from cubasquare.nodes import gencheb_nodes, min_t_nodes_even
from cubasquare.univariate import chebyshev_t_table, jacobi_normalized_table
from cubasquare.weights import (cheb1, cheb2, constant, gegenbauer_product, gencheb, jacobi_product, mass,
                                tensor_oracle)


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


def p_general(alpha, beta, sign, k, n, x, y) -> np.ndarray:
    """P_{k,n} at (2xy, x^2+y^2-1) from the basis's own angle tables and core:
    the symmetrized product (sign -1/2) or the divided difference (+1/2)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return basis2d._core(basis2d._angle_tables((alpha, beta), sign, max(n, k), x, y), n, slice(k, k + 1))[0]


def gram(w, nmax):
    X, Y, wts = tensor_oracle(w, 4 * nmax + 6)
    F = basis_for(w).eval_upto(nmax, X, Y)
    return (F * wts) @ F.T / mass(w)


class TestOrthonormality:
    @pytest.mark.parametrize("w", [constant(), cheb1(), cheb2()])
    def test_product_gram_identity(self, w):
        G = gram(w, 10)
        assert np.abs(G - np.eye(len(G))).max() < 1e-10

    def test_gencheb_gram_identity(self):
        # the closed-form norms, at half-integer and other alpha, beta, for both gammas
        for w in (gencheb(0.5, 0.5, -0.5), gencheb(0.5, -0.5, -0.5), gencheb(0.3, -0.2, -0.5),
                  gencheb(1.5, 0.5, 0.5), gencheb(-0.7, 2.1, 0.5)):
            G = gram(w, 12)
            assert np.abs(G - np.eye(len(G))).max() < 1e-12

    def test_dimension_per_degree(self):
        b = basis_for(constant())
        x = np.array([0.1, -0.3])
        y = np.array([0.2, 0.9])
        for n in range(7):
            assert b.eval_degree(n, x, y).shape == (n + 1, 2)
        assert b.eval_upto(6, x, y).shape == (dim_upto(6), 2)


class TestBasisCache:
    def test_shared_per_weight_and_degree(self):
        # one object per weight serves every degree: gencheb norms are closed-form
        w = gencheb(0.3, -0.2, -0.5)
        b = basis_for(w)
        assert b is basis_for(gencheb(0.3, -0.2, -0.5))
        assert b is not basis_for(gencheb(0.3, -0.2, 0.5))
        x = np.array([0.1, -0.3])
        assert np.array_equal(b.eval_upto(40, x, x[::-1])[:dim_upto(5)], b.eval_upto(5, x, x[::-1]))

    @pytest.mark.parametrize("w", [gencheb(0.5, 0.5, -0.5), gencheb(1.5, 0.5, 0.5), constant(), cheb1(), cheb2(),
                                   gegenbauer_product(1.5), jacobi_product(0.3, -0.4)])
    def test_gencheb_rows_on_2d_points(self, w):
        """Rows on a 2-D point array, for every kind of basis: ``eval_upto``
        keeps the array's shape, and ``eval_degree(n)`` is its degree-n block
        bit for bit.  The last four columns hold points on the diagonal x = y
        and on the edges, where z1 = z2 and the gamma = +1/2 rows take their
        coincident-argument limit."""
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-1, 1, (2, 3, 4))
        x = np.hstack([x, [[1.0, -1.0, 0.3, 0.6], [0.25, 1 - 1e-13, -0.7, 1.0], [-1.0, 0.8, 0.999999999, 0.0]]])
        y = np.hstack([y, [[0.3, -0.2, 1.0, 0.6], [0.25, 0.7, -1.0, 1.0], [-1.0, 0.8, 0.3, 0.0]]])
        b = basis_for(w)
        rows = b.eval_upto(4, x, y)
        assert rows.shape == (15, 3, 8)
        assert np.array_equal(rows.reshape(15, -1), b.eval_upto(4, x.ravel(), y.ravel()))
        for n in (0, 1, 2, 5, 8, 13):
            assert np.array_equal(b.eval_degree(n, x, y), b.eval_upto(n, x, y)[dim_upto(n - 1):])

    def test_product_rows_match_degree_loop(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1, 1, (2, 3, 4))
        tx = jacobi_normalized_table(-0.5, -0.5, 7, x)
        ty = jacobi_normalized_table(-0.5, -0.5, 7, y)
        ref = np.array([tx[d - k] * ty[k] for d in range(8) for k in range(d + 1)])
        assert np.array_equal(basis_for(cheb1()).eval_upto(7, x, y), ref)


CONVERSION_WEIGHTS = {"cheb1": cheb1(), "cheb2": cheb2(), "gencheb-1/2,1/2": gencheb(0.5, 0.5),
                      "gencheb-3/2,-1/2": gencheb(1.5, -0.5), "const": constant(),
                      "jacobi2": jacobi_product(0.3, -0.4)}


@pytest.mark.parametrize("m", [1, 8, 47, 48])
@pytest.mark.parametrize("name", list(CONVERSION_WEIGHTS))
def test_chebyshev_coeffs_reproduce_basis(name, m, monkeypatch):
    # three columns per product-basis block, so 20 columns end in a partial block
    monkeypatch.setattr(basis2d, "_BLOCK_BYTES", 16 * (m + 1) ** 2 * 3)
    basis = basis_for(CONVERSION_WEIGHTS[name])
    rng = np.random.default_rng(m)
    coeffs = rng.standard_normal((dim_upto(m), 20))
    x, y = np.vstack([rng.uniform(-1, 1, (300, 2)), _lobatto_grid(65)]).T
    want = coeffs.T @ basis.eval_upto(m, x, y)
    work = coeffs.copy()
    converted = basis.chebyshev_coeffs(m, work)
    assert converted is work  # converted in place
    got = converted.T @ _total_degree_rows(chebyshev_t_table(m, x), chebyshev_t_table(m, y))
    # relative to the largest value on the square (the 65^2 Lobatto grid holds
    # the boundary, where these polynomials peak), at the 300 random points
    assert np.abs(got - want)[:, :300].max() < 1e-13 * np.abs(want).max()


class TestProductBasis:
    def test_constant_degree1(self):
        # sqrt(3) x and sqrt(3) y up to ordering
        vals = sorted(abs(basis_for(constant()).eval_degree(1, np.array(0.5), np.array(0.25))))
        assert_allclose(vals, sorted([np.sqrt(3) * 0.25, np.sqrt(3) * 0.5]), atol=1e-14)

    def test_cheb1_degree0_constant(self):
        (m,) = basis_for(cheb1()).eval_degree(0, np.array([0.3]), np.array([-0.8]))
        assert_allclose(m, 1.0, atol=1e-14)

    def test_cheb2_members_are_u_products(self):
        from cubasquare.univariate import eval_chebyshev_u

        x, y = np.array([0.37]), np.array([-0.21])
        for k, m in enumerate(basis_for(cheb2()).eval_degree(3, x, y)):
            assert_allclose(m, eval_chebyshev_u(3 - k, x) * eval_chebyshev_u(k, y), atol=1e-12)


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
        # the P_n coefficients B_i = <x_i P_n, P_n^T> vanish: there is no P_n term to store
        for w in (constant(), cheb1(), cheb2(), gencheb(0.5, -0.5)):
            b = basis_for(w)
            X, Y, wts = tensor_oracle(w, 12)
            Pn = b.eval_degree(4, X, Y)
            for xi in (X, Y):
                assert np.abs(((xi * Pn) * wts) @ Pn.T / b.mass).max() < 1e-13

    @pytest.mark.parametrize("w", [constant(), cheb1(), cheb2()])
    def test_recurrence_residual(self, w):
        rng = np.random.default_rng(7)
        x, y = rng.uniform(-1, 1, (2, 50))
        b = basis_for(w)
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
    """The plain kernel K_n is the Gaussian-configuration K*_{n+1}."""

    def test_k0_is_reciprocal_mass(self):
        for w in (constant(), cheb1(), cheb2()):
            v = kernel_star_matrix(star_spec_gaussian(w, 1), [(0.3, -0.5)], [(0.9, 0.1)])[0, 0]
            assert v == pytest.approx(1.0 / mass(w), rel=1e-13)

    def test_symmetry(self):
        z = [(0.21, -0.43), (-0.77, 0.52)]
        K = kernel_star_matrix(star_spec_gaussian(cheb1(), 6), z, z)
        assert K[0, 1] == pytest.approx(K[1, 0], rel=1e-13)

    def test_reproducing_property(self):
        # int K_5(z, .) p(.) W = p(z) for p = x^2 y under the constant weight
        w = constant()
        z = (0.3, -0.6)
        X, Y, wts = tensor_oracle(w, 16)
        K = kernel_star_matrix(star_spec_gaussian(w, 6), np.array([z]), np.stack([X, Y], axis=1))[0]
        got = (wts * K * X**2 * Y).sum()
        assert got == pytest.approx(z[0] ** 2 * z[1], abs=1e-10)

    def test_reproducing_all_monomials(self):
        for w in (constant(), cheb1()):
            X, Y, wts = tensor_oracle(w, 20)
            rng = np.random.default_rng(3)
            zs = rng.uniform(-0.9, 0.9, (3, 2))
            for n in (4, 8):
                K = kernel_star_matrix(star_spec_gaussian(w, n + 1), zs, np.stack([X, Y], axis=1))
                for i in range(n + 1):
                    for j in range(n + 1 - i):
                        got = (wts * K * X**i * Y**j).sum(axis=1)
                        assert_allclose(got, zs[:, 0] ** i * zs[:, 1] ** j, atol=1e-10)


class TestKernelStar:
    def test_sigma_zero_equals_plain_kernel(self):
        # K_5(z, z2) summed directly over the orthonormal basis of degree <= 5
        w = cheb2()
        z = np.array([(0.4, 0.3), (-0.2, 0.8)])
        F = basis_for(w).eval_upto(5, z[:, 0], z[:, 1])
        got = kernel_star_matrix(star_spec_gaussian(w, 6), z[:1], z[1:])[0, 0]
        assert got == pytest.approx(F[:, 0] @ F[:, 1] / mass(w), rel=1e-13)

    def test_symmetry(self):
        z = [(0.4, 0.3), (-0.2, 0.8)]
        K = kernel_star_matrix(star_spec_cheb1(6), z, z)
        assert K[0, 1] == pytest.approx(K[1, 0], rel=1e-13)

    def test_sigma_n_plus_1_is_the_only_new_value(self):
        # Padua keeps all n + 1 degree-n members; sigma = n is no node family's
        assert star_spec_padua(4).sigma == 5
        with pytest.raises(ValueError, match="sigma must be"):
            KernelStarSpec(weight=cheb1(), n=4, sigma=4, q_coeffs=np.eye(5)[:4], p_coeffs=np.eye(5)[4:])

    def test_vanishing_member_combines_at_most_two_basis_rows(self):
        p = np.eye(5)[[0, 2]]
        p[0, 4] = p[1, 4] = 0.5
        KernelStarSpec(weight=cheb1(), n=4, sigma=2, q_coeffs=np.eye(5)[[1, 3]], p_coeffs=p)
        p[0, 2] = 0.5
        with pytest.raises(ValueError, match="more than two basis rows"):
            KernelStarSpec(weight=cheb1(), n=4, sigma=2, q_coeffs=np.eye(5)[[1, 3]], p_coeffs=p)

    def test_positive_at_nodes(self):
        from cubasquare.interp import family_rule

        nodes, spec, _, _ = family_rule("cheb1", 4)  # min_t_nodes_even(4), calibrated star_spec_cheb1(4)
        d = np.diag(kernel_star_matrix(spec, nodes.points, nodes.points))
        assert d.min() > 0


@pytest.mark.parametrize("family,n,alpha,beta", [("cheb1", 128, None, None), ("cheb1", 256, None, None),
                                                  ("padua", 64, None, None), ("gencheb", 64, -0.99, 20),
                                                  ("gencheb", 64, 40, 40), ("gencheb", 16, 50, -0.9),
                                                  ("gencheb", 128, 0.5, 0.5)])
def test_kernel_star_diag_matches_solve(family, n, alpha, beta):
    # the calibration's mass K*(z_k, z_k) = |F_low|^2 + sum_i Q_i^2 / s_i against
    # |F_low|^2 + Q^T solve(S, Q) with the full Gram S = (Q w) Q^T formed here from
    # the dense degree-n rows at the nodes, to 1e-13 of K*(z_k, z_k) plus what the
    # rounding of S's off-diagonals moves the solve by: with S = D (I + E) D,
    # D^2 = diag(S), Q^T S^-1 Q is within ||E|| / (1 - ||E||) sum_i Q_i^2 / s_i of
    # sum_i Q_i^2 / s_i (||E|| = 1.7e-11 at gencheb (-0.99, 20), n = 64)
    from cubasquare.cubature import _checked_calibration
    from cubasquare.interp import family_rule

    nodes, spec, w, rule = family_rule(family, n, alpha, beta)
    basis, pts = basis_for(w), nodes.points
    w_unit = rule.lambdas / basis.mass
    got = _checked_calibration(replace(spec, s_diag=None), basis.node_reductions(n, pts, w_unit), w_unit)[1]
    low_sq = np.concatenate([block[1] for block in basis.node_reductions(n, pts, w_unit)])
    Q = spec.q_coeffs @ basis.eval_degree(n, *pts.T)
    S = (Q * w_unit) @ Q.T
    ref = low_sq + np.einsum("ij,ij->j", Q, np.linalg.solve(S, Q))
    s = np.diag(S)
    e = np.linalg.norm(S / np.sqrt(np.outer(s, s)) - np.eye(len(s)), 2)
    assert e < 1e-10
    assert np.all(np.abs(got - ref) <= 1e-13 * ref + e / (1 - e) * np.einsum("ij,ij->j", Q / s[:, None], Q))


def gencheb_members(a, b, n):
    """(Jacobi pair, k, core degree, prefactor) of each degree-n gencheb member, in row order."""
    m = n // 2
    if n % 2 == 0:
        return ([((a, b), k, m, None) for k in range(m + 1)]
                + [((a + 1, b + 1), k, m - 1, lambda x, y: x * x - y * y) for k in range(m)])
    return ([((a, b + 1), k, m, lambda x, y: x + y) for k in range(m + 1)]
            + [((a + 1, b), k, m, lambda x, y: x - y) for k in range(m + 1)])


@pytest.mark.parametrize("a,b,g", [(0.5, 0.5, -0.5), (1.5, 0.5, 0.5), (0.5, -0.5, 0.5)])
def test_gencheb_rows_are_prefactor_times_p_general(a, b, g):
    # boundary points and x = 1 - 1e-13 put z1, z2 within the divided-difference
    # tolerance, so the coincident-argument limit runs for gamma = +1/2
    x = np.concatenate([[1.0, -1.0, 0.3, -0.6, 1 - 1e-13, 0.999999999, 0.4], np.linspace(-0.9, 0.8, 9)])
    y = np.concatenate([[0.3, -0.2, 1.0, -1.0, 0.7, 0.3, 0.4], np.linspace(0.85, -0.95, 9)])
    n = 9
    basis = basis_for(gencheb(a, b, g))
    norms = np.empty(dim_upto(n))
    for *_, r, nrm in basis.families(n):
        norms[r] = nrm
    rows = zip(basis.eval_upto(n, x, y), norms)
    for d in range(n + 1):
        for (pa, pb), k, deg, pref in gencheb_members(a, b, d):
            row, nrm = next(rows)
            want = p_general(pa, pb, g, k, deg, x, y)
            assert np.array_equal(row, (want if pref is None else pref(x, y) * want) / nrm)


@pytest.mark.parametrize("w,nodes", [(cheb1(), lambda: min_t_nodes_even(96)),
                                     (gencheb(0.5, 0.5), lambda: gencheb_nodes(0.5, 0.5, 96))],
                         ids=["cheb1", "gencheb"])
def test_eval_degree_memory(w, nodes):
    # the degree-96 rows at these 4,704 nodes are 3.5 MB; they come from the
    # tables of that degree's rows alone (peaks of 10.5 and 12.3 MB), where a
    # slice of eval_upto(96) peaked at 177.5 and 179.6 MB
    x, y = nodes().points.T
    b = basis_for(w)
    tracemalloc.start()
    try:
        b.eval_degree(96, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class TestGeneralizedFamilies:
    def test_even_symmetries(self):
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-0.95, 0.95, (2, 30))
        b = basis_for(gencheb(0.5, 0.5, -0.5))
        rows = b.eval_degree(6, x, y)
        assert_allclose(rows, b.eval_degree(6, -x, -y), atol=1e-11)
        m = 3
        assert_allclose(rows[: m + 1], b.eval_degree(6, y, x)[: m + 1], atol=1e-11)

    @pytest.mark.parametrize("sign", [-0.5, 0.5])
    def test_mutual_orthogonality(self, sign):
        w = gencheb(0.5, -0.5, sign)
        for n in range(2, 7):
            X, Y, wts = tensor_oracle(w, 2 * n + 4)
            F = basis_for(w).eval_degree(n, X, Y)
            G = (F * wts) @ F.T
            off = G - np.diag(np.diag(G))
            assert np.abs(off).max() < 1e-9 * max(np.diag(G).max(), 1.0)

    def test_member_count(self):
        x = np.array([0.1, -0.7])
        for g in (-0.5, 0.5):
            b = basis_for(gencheb(0.5, 0.5, g))
            for n in range(0, 8):
                assert len(b.eval_degree(n, x, x[::-1])) == n + 1

    def test_degree0_constant(self):
        (vals,) = basis_for(gencheb(0.5, -0.5, -0.5)).eval_degree(0, np.array([0.1, -0.7]), np.array([0.9, 0.2]))
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
