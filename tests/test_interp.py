"""Tests for interpolation, Lebesgue constants, and convergence diagnostics."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cubasquare import cubature
from cubasquare import interp as interp_module
from cubasquare.basis2d import (KernelStarSpec, _degree_pairs, basis_for, dim_upto, kernel_star_matrix,
                                star_spec_cheb1)
from cubasquare.cubature import CubatureError
from cubasquare.interp import (
    Interpolant,
    convergence_report,
    family_rule,
    interpolate_kernel,
    interpolate_padua,
    lebesgue_constant,
)
from cubasquare.nodes import padua_points
from cubasquare.univariate import eval_chebyshev_t, jacobi_normalized_table
from cubasquare.weights import cheb1, tensor_oracle


def sample(f, nodes):
    return f(nodes.points[:, 0], nodes.points[:, 1])


def cheb_rows(n, p):
    """Rows T_{d-k}(x) T_k(y), d <= n, at the points p, one member at a time."""
    return np.array([eval_chebyshev_t(d - k, p[:, 0]) * eval_chebyshev_t(k, p[:, 1])
                     for d in range(n + 1) for k in range(d + 1)])


def build(family, n, f_values=None):
    """Interpolant of a family at degree n, with its dense cardinal-matrix reference."""
    if family == "padua":
        nodes = padua_points(n)
        fv = np.zeros(len(nodes)) if f_values is None else f_values(len(nodes))
        return (interpolate_padua(n, fv),
                lambda p: np.linalg.solve(cheb_rows(n, nodes.points), cheb_rows(n, p)))
    nodes, spec, w, _ = family_rule(family, n)
    fv = np.zeros(len(nodes)) if f_values is None else f_values(len(nodes))
    kdiag = np.diag(kernel_star_matrix(spec, nodes.points, nodes.points))
    return (interpolate_kernel(nodes, spec, w, fv),
            lambda p: kernel_star_matrix(spec, nodes.points, p) / kdiag[:, None])


# folds verified: x+y with the diagonal (cheb1 8), x+y (gencheb 8), central
# only (cheb1 7, gencheb 9), x only (cheb2 8, padua 8), y only (cheb2 9, padua 9)
FAMILIES = [("cheb1", 8), ("cheb1", 7), ("cheb2", 8), ("gencheb", 8), ("padua", 8),
            ("cheb2", 9), ("gencheb", 9), ("padua", 9)]


class TestKernelInterpolation:
    def test_uncalibrated_spec_calibrated_on_a_copy(self):
        nodes, spec, w, _ = family_rule("cheb1", 8)
        assert spec.s_diag is not None
        raw = star_spec_cheb1(8)
        L = interpolate_kernel(nodes, raw, w, np.zeros(len(nodes))).cardinal_matrix(nodes.points)
        assert raw.s_diag is None
        assert np.abs(L - np.eye(len(nodes))).max() < 1e-10

    def test_uncalibrated_spec_refused_by_interpolant(self):
        nodes, _, _, _ = family_rule("cheb1", 8)
        with pytest.raises(ValueError, match="not calibrated"):
            Interpolant(nodes=nodes, f_values=np.zeros(len(nodes)), spec=star_spec_cheb1(8))

    def test_constant_reproduced(self):
        nodes, spec, w, _ = family_rule("cheb1", 6)
        interp = interpolate_kernel(nodes, spec, w, np.ones(len(nodes)))
        g = np.linspace(-1, 1, 30)
        X, Y = np.meshgrid(g, g)
        assert_allclose(interp(X, Y), 1.0, atol=1e-10)

    def test_polynomial_projection(self):
        f = lambda x, y: x**3 * y**2
        nodes, spec, w, _ = family_rule("cheb1", 8)
        interp = interpolate_kernel(nodes, spec, w, sample(f, nodes))
        g = np.linspace(-1, 1, 30)
        X, Y = np.meshgrid(g, g)
        assert np.abs(interp(X, Y) - f(X, Y)).max() < 1e-9

    @pytest.mark.parametrize("family,n", [("cheb1", 6), ("cheb1", 7), ("cheb2", 6), ("gencheb", 6)])
    def test_cardinal_property(self, family, n):
        nodes, spec, w, _ = family_rule(family, n)
        interp = interpolate_kernel(nodes, spec, w, np.zeros(len(nodes)))
        L = interp.cardinal_matrix(nodes.points)
        assert np.abs(L - np.eye(len(nodes))).max() < 1e-9

    def test_cardinal_property_larger_n(self):
        for family, n in [("cheb1", 16), ("gencheb", 12)]:
            nodes, spec, w, _ = family_rule(family, n)
            interp = interpolate_kernel(nodes, spec, w, np.zeros(len(nodes)))
            L = interp.cardinal_matrix(nodes.points)
            assert np.abs(L - np.eye(len(nodes))).max() < 1e-9

    def test_interpolation_at_nodes(self):
        f = lambda x, y: np.exp(x) * np.cos(y)
        nodes, spec, w, _ = family_rule("cheb1", 9)
        fv = sample(f, nodes)
        interp = interpolate_kernel(nodes, spec, w, fv)
        got = interp(nodes.points[:, 0], nodes.points[:, 1])
        assert np.abs(got - fv).max() < 1e-9 * (1 + np.abs(fv).max())

    def test_call_broadcasts_x_against_y(self):
        f = lambda x, y: x**3 * y**2
        nodes, spec, w, _ = family_rule("cheb1", 8)
        interp = interpolate_kernel(nodes, spec, w, sample(f, nodes))
        xs, ys = np.linspace(-1, 1, 3)[:, None], np.linspace(-1, 1, 4)
        X, Y = np.broadcast_arrays(xs, ys)
        assert interp(xs, ys).shape == (3, 4)
        assert np.array_equal(interp(xs, ys), interp(X, Y))
        assert np.array_equal(interp(0.3, ys), interp(np.full(4, 0.3), ys))
        with pytest.raises(ValueError, match=r"\(3, 4\).*\(12,\)"):
            interp(np.zeros((3, 4)), np.zeros(12))

    def test_quadrature_interpolation_consistency(self):
        # integrating L_n f against the weight equals sum(lambda * f)
        f = lambda x, y: np.exp(x + 0.5 * y)
        nodes, spec, w, rule = family_rule("cheb1", 8)
        interp = interpolate_kernel(nodes, spec, w, sample(f, nodes))
        X, Y, wts = tensor_oracle(w, 2 * 8 + 4)
        integral = (wts * interp(X, Y)).sum()
        assert integral == pytest.approx(float(rule.lambdas @ sample(f, nodes)), abs=1e-9)


class TestPaduaInterpolation:
    def test_basis_member_reproduced(self):
        f = lambda x, y: eval_chebyshev_t(3, x) * eval_chebyshev_t(2, y)
        for n in (5, 8):
            nodes = padua_points(n)
            interp = interpolate_padua(n, sample(f, nodes))
            g = np.linspace(-1, 1, 30)
            X, Y = np.meshgrid(g, g)
            assert np.abs(interp(X, Y) - f(X, Y)).max() < 1e-10

    def test_n11_residual_at_nodes(self):
        f = lambda x, y: np.cos(x) * np.exp(y)
        nodes = padua_points(11)
        assert len(nodes) == 78
        interp = interpolate_padua(11, sample(f, nodes))
        got = interp(nodes.points[:, 0], nodes.points[:, 1])
        assert np.abs(got - sample(f, nodes)).max() < 1e-10

    def test_integral_of_constant_interpolant(self):
        nodes = padua_points(7)
        interp = interpolate_padua(7, np.ones(len(nodes)))
        X, Y, wts = tensor_oracle(cheb1(), 20)
        assert (wts * interp(X, Y)).sum() == pytest.approx(np.pi**2, abs=1e-10)

    def test_unisolvence_through_n20(self):
        for n in range(1, 21):
            nodes = padua_points(n)
            interp = interpolate_padua(n, np.zeros(len(nodes)))
            assert np.isfinite(interp.collocation_cond)

    @pytest.mark.parametrize("n", [8, 20])
    def test_collocation_cond_is_the_1_norm_condition_number(self, n):
        nodes = padua_points(n)
        V = cheb_rows(n, nodes.points)
        got = interpolate_padua(n, np.zeros(len(nodes))).collocation_cond
        assert got == pytest.approx(np.linalg.cond(V, 1), rel=1e-10)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_kernel_factor_is_the_collocation_inverse(self, n):
        # the cardinal functions of the Padua kernel interpolant against a
        # dense solve with the collocation matrix V: ell(p) = V^-1 rows(p), at
        # the nodes and at random points
        nodes = padua_points(n)
        V = cheb_rows(n, nodes.points)
        pts = np.vstack([nodes.points, np.random.default_rng(n).uniform(-1, 1, (50, 2))])
        want = np.linalg.solve(V, cheb_rows(n, pts))
        got = interpolate_padua(n, np.zeros(len(nodes))).cardinal_matrix(pts)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_value_count_checked(self):
        with pytest.raises(ValueError):
            interpolate_padua(5, np.zeros(7))

    def test_built_once(self, monkeypatch):
        built, post_init = [], interp_module.Interpolant.__post_init__
        monkeypatch.setattr(interp_module.Interpolant, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        interpolate_padua(8, np.zeros(45))
        assert len(built) == 1


@pytest.mark.parametrize("family,n,alpha,beta,tol", [
    ("cheb1", 128, 0.5, 0.5, 2e-13), ("padua", 128, 0.5, 0.5, 2e-13), ("cheb2", 64, 0.5, 0.5, 2e-13),
    ("gencheb", 48, 0.5, 0.5, 2e-13),
    # the weight's orthonormal polynomials reach 2.5e3 in T coefficients here,
    # and the interpolant of a T polynomial loses digits to that map: 0.5 to
    # 3.8e-12 over four seeds, and through a dim x N T-basis factor 0.5 to 2.3e-12
    ("gencheb", 48, 1.5, -0.5, 2e-11),
])
def test_square_reproduces_polynomials(family, n, alpha, beta, tol):
    # a random T polynomial of total degree <= n - 1 lies in every family's
    # interpolation space, so the square must be its coefficients
    if family == "padua":
        nodes = padua_points(n)
    else:
        nodes, spec, w, _ = family_rule(family, n, alpha, beta)
    m = n - 1 if family == "cheb2" else n
    want = np.zeros((m + 1, m + 1))
    low = _degree_pairs(n - 1)
    want[low] = np.random.default_rng(n).standard_normal(len(low[0]))
    f = np.polynomial.chebyshev.chebval2d(*nodes.points.T, want)
    interp = interpolate_padua(n, f) if family == "padua" else interpolate_kernel(nodes, spec, w, f)
    assert np.abs(interp.square - want).max() <= tol * np.abs(want).max()


class TestLebesgue:
    def test_small_n_order_one(self):
        lam = lebesgue_constant("cheb1", 2, grid_resolution=65)
        assert 1.0 <= lam < 10.0

    def test_log_square_band(self):
        for n in (4, 8, 16):
            lam = lebesgue_constant("cheb1", n, grid_resolution=65)
            assert 0.1 <= lam / np.log(n) ** 2 <= 10.0

    def test_gencheb_power_band(self):
        for n in (4, 8):
            lam = lebesgue_constant("gencheb", n, grid_resolution=65)
            assert 0.2 <= lam / n**2 <= 0.9

    def test_monotone_under_nested_refinement(self):
        for family, n in [("cheb1", 6), ("cheb1", 7), ("padua", 7)]:
            a = lebesgue_constant(family, n, grid_resolution=65)
            b = lebesgue_constant(family, n, grid_resolution=129)
            assert b >= a - 1e-12

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            lebesgue_constant("cheb1", 4, grid_resolution=32)

    def test_padua_lebesgue(self):
        lam = lebesgue_constant("padua", 6, grid_resolution=65)
        assert 1.0 < lam < 20.0

    # Lebesgue constants at R = 256 as computed by the dense evaluation of
    # every cardinal function at every grid point
    @pytest.mark.parametrize("family,n,value", [
        ("cheb1", 16, 7.440772470410582), ("cheb1", 32, 10.042063032581845),
        ("cheb1", 64, 13.033260140565384), ("padua", 16, 8.40743628465043),
        ("padua", 32, 10.993594541100592),
        ("gencheb", 24, 241.24211584659213), ("cheb2", 20, 215.23571149209832),
        # folds and coefficients the CLI defaults do not reach: central fold
        # only, y fold, and c = 0 on degree n
        ("cheb1", 33, 10.166587949722866), ("cheb1", 63, 12.960974222326815),
        ("padua", 33, 11.117523283576132), ("cheb2", 21, 236.90095327527382),
    ])
    def test_fixture_values(self, family, n, value):
        assert lebesgue_constant(family, n, grid_resolution=256) == pytest.approx(value, rel=1e-13)


def lebesgue_factor(n, grid_resolution=65):
    """(node points, T-basis cardinal factor, degree, grid) that gencheb's
    Lebesgue route contracts at degree n."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp_module, "_factor_lebesgue", lambda *args: seen.append(args) or 0.0)
        lebesgue_constant("gencheb", n, grid_resolution)
    return seen[0]


def folds(family, n):
    """The folds ``lebesgue_constant`` applies to a family at degree n."""
    nodes, spec, w, _ = family_rule(family, n)
    if family == "gencheb":
        pts, factor, m, _ = lebesgue_factor(n)
        return set(interp_module._reflections(pts, interp_module._factor_match(factor, m)))
    basis = basis_for(w)
    kernel = interp_module._grid_kernel(basis, spec, nodes.points)
    return set(interp_module._reflections(nodes.points, interp_module._kappa_match(basis, *kernel)))


class TestGridKernel:
    """The coefficient square C and kappa of the grid route."""

    @pytest.mark.parametrize("family", ["cheb1", "padua", "cheb2"])
    def test_degree_n_coefficients_closed_forms(self, family):
        # row_coeffs on the row (n - k, k) of degree n: 1/4 at k = 0, n and 1/2
        # between for the minimal and near-minimal nodes, 0 where T_{n/2}(x)
        # T_{n/2}(y) vanishes on the minimal nodes (Xu 1996); 1/2 at (n, 0)
        # and 1 elsewhere for the Padua points (Caliari et al. 2011); none for
        # the Gaussian nodes (K* = K_{n-1}), which drop degree n.  The grid
        # route's square C holds them at (n - k, k)
        for n in range(2, 13):
            nodes, spec, w, rule = family_rule(family, n)
            basis = basis_for(w)
            C, kappa = interp_module._grid_kernel(basis, spec, nodes.points)
            k = np.arange(n + 1)
            if family == "cheb1":
                want = np.where((k == 0) | (k == n), 0.25, np.where(2 * k == n, 0.0, 0.5))
            else:
                want = np.where(k == 0, 0.5, 1.0) if family == "padua" else np.zeros(0)
            m = n if want.any() else n - 1
            lo = dim_upto(n - 1)
            assert spec.row_coeffs.shape == (dim_upto(m),)
            assert np.array_equal(spec.row_coeffs[:lo], np.ones(lo))
            assert_allclose(spec.row_coeffs[lo:], want, rtol=0, atol=1e-13)
            assert C.shape == (m + 1, m + 1)
            assert np.array_equal(C[_degree_pairs(m)], spec.row_coeffs)
            assert not np.triu(C[::-1], 1).any()  # zero above total degree m
            # mass K*(z_k, z_k) = mass / lambda_k, the calibration's diagonal
            assert_allclose(kappa, basis.mass / rule.lambdas, rtol=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (-0.99, 20), (50, -0.9), (40, 40)])
    @pytest.mark.parametrize("n", [8, 9, 33, 64])
    def test_gencheb_row_coeffs_match_least_squares(self, alpha, beta, n):
        # the degree-n row_coeffs against the grid route's former coefficients: the
        # least-squares ratio, over the nodes, of each row of q^T S^-1 q F_n to
        # that row of F_n, with the full Gram S formed from the degree-n rows.
        # Where the reference's kernel diagonal reproduces the weights to 1e-12,
        # the two agree to 1e-12.  Elsewhere (the extreme pairs at n >= 9) the
        # solve of S loses digits: rows of F_n reach 1e32 at (50, -0.9), so the
        # rounding of S's off-diagonals moves the small rows' ratios by up to 12%,
        # and the coefficients must then reproduce the weights better than it does
        nodes, spec, w, rule = family_rule("gencheb", n, alpha, beta)
        basis, lo = basis_for(w), dim_upto(n - 1)
        F = basis.eval_upto(n, *nodes.points.T)
        Fn, w_unit = F[lo:], rule.lambdas / basis.mass
        Q = spec.q_coeffs @ Fn
        MF = spec.q_coeffs.T @ np.linalg.solve((Q * w_unit) @ Q.T, Q)
        ff = np.einsum("kj,kj->k", Fn, Fn)
        ratio = np.divide(np.einsum("kj,kj->k", MF, Fn), ff, out=np.zeros(n + 1), where=ff > 0)
        low_sq = np.einsum("ij,ij->j", F[:lo], F[:lo])

        def gap(c):  # of mass K*(z_k, z_k) from the degree-n coefficients c, against mass / lambda_k
            return np.abs(w_unit * (low_sq + np.einsum("r,rk,rk->k", c, Fn, Fn)) - 1.0).max()

        got = spec.row_coeffs[lo:]
        assert gap(got) <= 1e-10
        if gap(ratio) <= 1e-12:
            assert_allclose(got, ratio, rtol=0, atol=1e-12 * got.max())
        else:
            assert gap(got) < gap(ratio)

    def test_degree_n_block_not_diagonal_raises(self):
        # weights moved at one node leave a Gram S with off-diagonals, which the
        # calibration names
        nodes, spec, w, rule = family_rule("cheb1", 8)
        basis, pts = basis_for(w), nodes.points
        w_unit = rule.lambdas / basis.mass
        cubature._checked_calibration(spec, basis.node_reductions(8, pts, w_unit), w_unit)
        w_unit[3] *= 1.01
        with pytest.raises(CubatureError, match="discrete Gram S of the complement is not diagonal"):
            cubature._checked_calibration(spec, basis.node_reductions(8, pts, w_unit), w_unit)

    def test_shared_basis_row_raises(self):
        # two complement members on the degree-4 row 3 could not give one kernel
        # coefficient per basis row
        q = np.zeros((2, 5))
        q[0, [0, 3]] = q[1, [1, 3]] = np.sqrt(0.5)
        with pytest.raises(ValueError, match="share a basis row"):
            KernelStarSpec(weight=cheb1(), n=4, sigma=2, q_coeffs=q, p_coeffs=np.eye(5)[[2, 4]])


class TestReflections:
    """The folds of the square that ``lebesgue_constant`` may apply to the
    grid, each verified on the nodes and on kappa (grid route) or on the
    cardinal factor (gencheb's factor route)."""

    @pytest.mark.parametrize("family,n,want", [
        ("cheb1", 8, {"x", "y", "central", "diagonal"}), ("cheb1", 9, {"central"}),
        ("padua", 32, {"x"}), ("padua", 33, {"y"}), ("cheb2", 20, {"x"}), ("cheb2", 21, {"y"}),
        ("gencheb", 24, {"x", "y", "central"}), ("gencheb", 25, {"central"}),
    ], ids=lambda v: "+".join(sorted(v)) if isinstance(v, set) else str(v))
    def test_reflections_found(self, family, n, want):
        assert folds(family, n) == want

    def test_moved_node_refused(self):
        # kappa alone still passes: the node sort pairs the same nodes
        nodes, spec, w, _ = family_rule("cheb1", 8)
        basis = basis_for(w)
        same = interp_module._kappa_match(basis, *interp_module._grid_kernel(basis, spec, nodes.points))
        pts = nodes.points.copy()
        pts[5, 0] += 1e-11
        assert set(interp_module._reflections(nodes.points, same)) == {"x", "y", "central", "diagonal"}
        assert set(interp_module._reflections(pts, same)) == set()

    @pytest.mark.parametrize("scale", [3.0, 1 / 3], ids=["3", "1/3"])
    def test_scaled_kappa_refused(self, scale, monkeypatch):
        # kappa of the node in the x, y < 0 quadrant scaled: ell_k is divided
        # by the scale, and at 1/3 it raises the Lebesgue function there, off
        # the triangle of the quarter grid that the four folds would keep
        nodes, spec, w, _ = family_rule("cheb1", 8)
        basis, grid_kernel = basis_for(w), interp_module._grid_kernel
        k = int(np.argmin(nodes.points.sum(axis=1)))

        def scaled(*args):
            C, kappa = grid_kernel(*args)
            kappa[k] *= scale
            return C, kappa

        monkeypatch.setattr(interp_module, "_grid_kernel", scaled)
        same = interp_module._kappa_match(basis, *scaled(basis, spec, nodes.points))
        assert set(interp_module._reflections(nodes.points, same)) == set()
        kdiag = np.diag(kernel_star_matrix(spec, nodes.points, nodes.points))
        L = kernel_star_matrix(spec, nodes.points, interp_module._lobatto_grid(65)) / kdiag[:, None]
        L[k] /= scale
        ref = np.abs(L).sum(axis=0).max()
        assert lebesgue_constant("cheb1", 8, grid_resolution=65) == pytest.approx(ref, rel=1e-12)
        if scale < 1:
            # the four folds of the nodes forced, with their permutations, on the kappa they do not fit
            reflections = interp_module._reflections
            monkeypatch.setattr(interp_module, "_reflections", lambda pts, same: reflections(pts, lambda *_: True))
            assert lebesgue_constant("cheb1", 8, grid_resolution=65) < 0.9 * ref

    def test_perturbed_column_refused(self, monkeypatch):
        # the factor route: scaling the column of the node in the x, y < 0
        # quadrant raises the Lebesgue function there, off the quarter grid
        # that x+y would keep
        pts, factor, m, _ = lebesgue_factor(8)
        k = int(np.argmin(pts.sum(axis=1)))
        bent = factor.copy()
        bent[:, k] *= 3.0
        assert set(interp_module._reflections(pts, interp_module._factor_match(factor, m))) == {"x", "y", "central"}
        assert set(interp_module._reflections(pts, interp_module._factor_match(bent, m))) == set()
        factor_lebesgue = interp_module._factor_lebesgue
        monkeypatch.setattr(interp_module, "_factor_lebesgue", lambda p, f, m, g: factor_lebesgue(p, bent, m, g))
        ref = np.abs(bent.T @ cheb_rows(m, interp_module._lobatto_grid(65))).sum(axis=0).max()
        assert lebesgue_constant("gencheb", 8, grid_resolution=65) == pytest.approx(ref, rel=1e-12)
        monkeypatch.setattr(interp_module, "_reflections", lambda pts, same: {"x", "y", "central"})
        assert lebesgue_constant("gencheb", 8, grid_resolution=65) < 0.9 * ref


NODE_BLOCK = 11  # nodes per block of the build at degree 8
LEBESGUE_NODE_BLOCK = 7  # nodes per block of the factor route on the 65^2 grid


class TestStreaming:
    """Blocked evaluation against dense references.  The node blocks of the
    build and of ``cardinal_matrix`` hold 9 to 13 nodes (11 at degree 8), and
    their point blocks 9 to 13 points (``cardinal_matrix``) or 16 to 20
    (calls).  The Lebesgue loops run with larger blocks: on the 65^2-point
    grid gencheb's factor route takes blocks of 7 nodes and the grid route
    blocks of 32 of the 33 or 65 grid rows it keeps.  No node count here is
    a multiple of 7 or of its build block, so every loop ends in a partial
    block."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(interp_module, "_BLOCK_BYTES", 8 * dim_upto(8) * NODE_BLOCK)

    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_lebesgue_matches_dense_reference(self, family, n, monkeypatch):
        interp, dense = build(family, n)
        block = interp_module._BLOCK_BYTES // (8 * dim_upto(interp.degree))
        assert 1 < block < len(interp.nodes) and len(interp.nodes) % block
        pts = interp_module._lobatto_grid(65)
        L = dense(pts)
        assert np.abs(interp.cardinal_matrix(pts) - L).max() < 1e-12 * np.abs(L).max()
        ref = np.abs(L).sum(axis=0).max()
        monkeypatch.setattr(interp_module, "_BLOCK_BYTES", 8 * 65**2 * LEBESGUE_NODE_BLOCK)
        assert len(interp.nodes) % LEBESGUE_NODE_BLOCK
        assert lebesgue_constant(family, n, grid_resolution=65) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_call_matches_cardinal_matrix(self, family, n):
        rng = np.random.default_rng(n)
        interp, _ = build(family, n, f_values=rng.standard_normal)
        x, y = rng.uniform(-1, 1, (2, 37, 31))
        want = interp.f_values @ interp.cardinal_matrix(np.stack([x.ravel(), y.ravel()], axis=1))
        got = interp(x, y)
        assert got.shape == x.shape
        assert np.abs(got.ravel() - want).max() < 1e-12 * np.abs(want).max()
        assert interp.cardinal_matrix(np.empty((0, 2))).shape == (len(interp.nodes), 0)


def unpaired_grid_lebesgue(basis, pts, C, kappa, g):
    """The grid route without its node pairs: per node column, all its nodes
    against all y-degrees in one GEMM, in blocks of ``_GRID_ROWS`` rows at
    most, on the grid points kept by the same folds."""
    m = len(C) - 1
    folds = interp_module._reflections(pts, interp_module._kappa_match(basis, C, kappa))
    gx, gy = interp_module._kept(g, folds)
    pg = jacobi_normalized_table(*basis._ax, m, gx)
    qg = jacobi_normalized_table(*basis._ay, m, gy)
    xs, col = np.unique(pts[:, 0], return_inverse=True)
    px = jacobi_normalized_table(*basis._ax, m, xs)
    sums = np.zeros((len(gx), len(gy)))
    for c in range(len(xs)):
        ks = np.flatnonzero(col == c)
        K = len(ks)
        qy = jacobi_normalized_table(*basis._ay, m, pts[ks, 1])
        Y = (qg[:, :, None] * qy[:, None, :]).reshape(m + 1, -1)  # (j, b k)
        step = max(1, min(interp_module._GRID_ROWS, interp_module._BLOCK_BYTES // (8 * len(gy) * K)))
        Z = pg.T @ (px[:, c, None] * C)  # (a, j)
        for a in range(0, len(gx), step):
            e = min(a + step, len(gx))
            b = e if "diagonal" in folds else len(gy)
            L = np.abs(Z[a:e] @ Y[:, :b * K])
            sums[a:e, :b] += (L.reshape(-1, K) @ (1.0 / kappa[ks])).reshape(e - a, b)
    return float(sums.max())


class TestGridPairs:
    """The grid route's loop, its node pairs contracted through the even and
    the odd y-degrees, against the unpaired loop and against the dense
    cardinal matrix at R = 65.  The blocks hold 10560 bytes: 3 to 10 of the
    33 or 65 grid rows kept, so every column ends in a partial block."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(interp_module, "_BLOCK_BYTES", 8 * 33 * 40)

    @pytest.mark.parametrize("family,n,want", [
        ("cheb1", 8, {"x", "y", "central", "diagonal"}), ("cheb1", 16, {"x", "y", "central", "diagonal"}),
        ("padua", 8, {"x"}), ("cheb2", 8, {"x"}),  # the axes swapped
        ("padua", 9, {"y"}), ("cheb2", 9, {"y"}),
        ("cheb1", 7, {"central"}),  # no pairs: one part of all y-degrees
    ], ids=lambda v: "+".join(sorted(v)) if isinstance(v, set) else str(v))
    def test_matches_unpaired_loop_and_dense(self, family, n, want):
        nodes, spec, w, _ = family_rule(family, n)
        basis, pts = basis_for(w), nodes.points
        C, kappa = interp_module._grid_kernel(basis, spec, pts)
        found = interp_module._reflections(pts, interp_module._kappa_match(basis, C, kappa))
        assert set(found) == want
        if want != {"central"}:
            # nodes on the mirror line, each its own pair: the columns with an odd count of nodes
            pi = found["y"] if "y" in found else found["x"]
            assert (pi == np.arange(len(pts))).any()
        g = interp_module._cosines(64)
        got = interp_module._grid_lebesgue(basis, pts, C, kappa, g)
        assert got == pytest.approx(unpaired_grid_lebesgue(basis, pts, C, kappa, g), rel=1e-14)
        L = interpolate_kernel(nodes, spec, w, np.zeros(len(nodes))).cardinal_matrix(interp_module._lobatto_grid(65))
        assert got == pytest.approx(np.abs(L).sum(axis=0).max(), rel=1e-12)


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (1.5, -0.5), (0.3, -0.2), (-0.7, 2.1)])
@pytest.mark.parametrize("n", [8, 9, 32, 33, 47, 48])
def test_gencheb_cardinals_match_dense_kernel(alpha, beta, n):
    # the cardinal columns in the weight's own basis, read over node blocks,
    # against K*(p, z_k) / K*(z_k, z_k) from the dense rows
    nodes, spec, w, _ = family_rule("gencheb", n, alpha, beta)
    kdiag = np.diag(kernel_star_matrix(spec, nodes.points, nodes.points))
    pts = np.vstack([np.random.default_rng(n).uniform(-1, 1, (200, 2)), nodes.points[::7]])
    want = kernel_star_matrix(spec, nodes.points, pts) / kdiag[:, None]
    got = interpolate_kernel(nodes, spec, w, np.zeros(len(nodes))).cardinal_matrix(pts)
    # relative to the largest sum_k |ell_k(p)|, which bounds an interpolant's
    # values: the two paths are at most 4.7e-15 apart on this scale (4e-17 at
    # (-0.7, 2.1) and n = 47, where the cardinal values reach 110 and are
    # 1.3e-12 off the identity at the nodes)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).sum(axis=0).max()


@pytest.mark.parametrize("n", [64, 65])
def test_gencheb_minus_half_lebesgue_is_cheb1(n):
    # gencheb(-1/2, -1/2) is the cheb1 weight on the same nodes, through the
    # other basis and the other T-basis map
    want = lebesgue_constant("cheb1", n, grid_resolution=129)
    assert lebesgue_constant("gencheb", n, 129, -0.5, -0.5) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("family,n", [("cheb1", 32), ("padua", 32), ("gencheb", 24), ("cheb1", 64)])
def test_lebesgue_memory_bounded(family, n):
    # the dense cardinal matrix on the 256^2 grid alone takes 277 / 294 / 164 / 1107 MB;
    # the traced peaks (after a first call) are 1.8 / 2.0 / 9.8 / 4.4 MB, and
    # the bounds leave at least a quarter above them
    bound = {("cheb1", 32): 2.5, ("padua", 32): 5, ("gencheb", 24): 13, ("cheb1", 64): 7.5}[family, n]
    tracemalloc.start()
    try:
        lebesgue_constant(family, n, grid_resolution=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 2**20


def test_lebesgue_memory_at_minimal_64():
    # a 4.4 MB traced peak, in the grid loop (the calibration reaches 3.5 MB);
    # the 36 MB dim x N cardinal factor alone would be nearly five times the
    # bound
    tracemalloc.start()
    try:
        lebesgue_constant("cheb1", 64, grid_resolution=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20


def test_lebesgue_memory_at_minimal_128():
    # 25.2 MB traced, from the degree-n rows and the 1-D tables at the 8,385
    # nodes; the 554 MB dim x N cardinal factor is never formed
    tracemalloc.start()
    try:
        lebesgue_constant("cheb1", 128, grid_resolution=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def build_peak(n):
    """tracemalloc peak of ``interpolate_kernel`` at cheb1 n, the spec calibrated beforehand."""
    nodes, spec, w, _ = family_rule("cheb1", n)
    tracemalloc.start()
    try:
        interpolate_kernel(nodes, spec, w, np.zeros(len(nodes)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_interpolant_memory_at_minimal_64():
    # 17.1 MB traced: one node block of the cardinal columns (at most 16 MB)
    # and its tables; a dim x N cardinal factor alone would take 36 MB
    assert build_peak(64) < 21.5 * 2**20


def test_interpolant_memory_at_minimal_128():
    # 16.7 MB traced; the dim x N cardinal factor alone would take 554 MB
    assert build_peak(128) < 64 * 2**20


def test_call_memory():
    # 256^2 points at cheb1 64: the 1-D tables of a point block hold 16 MB;
    # evaluating the total-degree rows of each block instead peaks at 34.5 MB
    nodes, spec, w, _ = family_rule("cheb1", 64)
    interp = interpolate_kernel(nodes, spec, w, np.ones(len(nodes)))
    x, y = np.meshgrid(np.linspace(-1, 1, 256), np.linspace(-1, 1, 256))
    tracemalloc.start()
    try:
        vals = interp(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 34.5 * 2**20
    assert np.abs(vals - 1.0).max() < 1e-11


class TestConvergence:
    def test_exponential_decay(self):
        f = lambda x, y: np.exp(x + y)
        rows = dict(convergence_report("cheb1", f, [4, 8, 16]))
        assert rows[16] < 1e-8
        assert rows[8] / rows[4] <= 0.5
        assert rows[16] / rows[8] <= 0.5

    def test_projection_error_tiny(self):
        f = lambda x, y: x**4 - 2 * x * y**3
        rows = dict(convergence_report("cheb1", f, [5, 6]))
        assert rows[5] < 1e-9 and rows[6] < 1e-9

    def test_abs_x_decays_slowly(self):
        f = lambda x, y: np.abs(x)
        rows = dict(convergence_report("cheb1", f, [4, 8, 16]))
        assert rows[16] < rows[8] < rows[4]
        assert rows[16] > 1e-4  # genuinely slow

    def test_l2_norm_variant(self):
        f = lambda x, y: np.exp(x + y)
        rows = dict(convergence_report("cheb1", f, [4, 8], norm="L2"))
        assert rows[8] < rows[4]

    def test_l2_norm_builds_no_grid(self, monkeypatch):
        f = lambda x, y: np.exp(x + y)
        want = convergence_report("gencheb", f, [8, 9], norm="L2")

        def no_grid(resolution):
            raise AssertionError("the L2 norm built a grid")
        monkeypatch.setattr(interp_module, "_lobatto_grid", no_grid)
        assert convergence_report("gencheb", f, [8, 9], norm="L2", grid_resolution=5) == want
        with pytest.raises(AssertionError, match="built a grid"):
            convergence_report("gencheb", f, [8], norm="sup")

    def test_padua_family(self):
        f = lambda x, y: np.exp(x + y)
        rows = dict(convergence_report("padua", f, [4, 8]))
        assert rows[8] < 1e-3 * rows[4]
