"""Tests for interpolation, Lebesgue constants, and convergence diagnostics."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cubasquare import interp as interp_module
from cubasquare.basis2d import kernel_star_matrix, star_spec_cheb1
from cubasquare.interp import (
    convergence_report,
    family_rule,
    interpolate_kernel,
    interpolate_padua,
    lebesgue_constant,
)
from cubasquare.nodes import padua_points
from cubasquare.univariate import eval_chebyshev_t
from cubasquare.weights import cheb1, tensor_oracle


def sample(f, nodes):
    return f(nodes.points[:, 0], nodes.points[:, 1])


def build(family, n, f_values=None):
    """Interpolant of a family at degree n, with its dense cardinal-matrix reference."""
    if family == "padua":
        nodes = padua_points(n)
        fv = np.zeros(len(nodes)) if f_values is None else f_values(len(nodes))

        def rows(p):
            return np.array([eval_chebyshev_t(d - k, p[:, 0]) * eval_chebyshev_t(k, p[:, 1])
                             for d in range(n + 1) for k in range(d + 1)])

        return interpolate_padua(n, fv), lambda p: np.linalg.solve(rows(nodes.points), rows(p))
    nodes, spec, w, _ = family_rule(family, n)
    fv = np.zeros(len(nodes)) if f_values is None else f_values(len(nodes))
    kdiag = np.diag(kernel_star_matrix(spec, nodes.points, nodes.points))
    return (interpolate_kernel(nodes, spec, w, fv),
            lambda p: kernel_star_matrix(spec, nodes.points, p) / kdiag[:, None])


FAMILIES = [("cheb1", 8), ("cheb1", 7), ("cheb2", 8), ("gencheb", 8), ("padua", 8)]


class TestKernelInterpolation:
    def test_uncalibrated_spec_calibrated_on_a_copy(self):
        nodes, spec, w, _ = family_rule("cheb1", 8)
        assert spec.s_matrix is not None
        raw = star_spec_cheb1(8)
        L = interpolate_kernel(nodes, raw, w, np.zeros(len(nodes))).cardinal_matrix(nodes.points)
        assert raw.s_matrix is None
        assert np.abs(L - np.eye(len(nodes))).max() < 1e-10

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
        V = np.array([eval_chebyshev_t(d - k, nodes.points[:, 0]) * eval_chebyshev_t(k, nodes.points[:, 1])
                      for d in range(n + 1) for k in range(d + 1)])
        got = interpolate_padua(n, np.zeros(len(nodes))).collocation_cond
        assert got == pytest.approx(np.linalg.cond(V, 1), rel=1e-10)

    def test_value_count_checked(self):
        with pytest.raises(ValueError):
            interpolate_padua(5, np.zeros(7))


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
        a = lebesgue_constant("cheb1", 6, grid_resolution=65)
        b = lebesgue_constant("cheb1", 6, grid_resolution=129)
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
        ("cheb1", 64, 13.033260140565384), ("padua", 32, 10.993594541100592),
        ("gencheb", 24, 241.24211584659213), ("cheb2", 20, 215.23571149209832),
    ])
    def test_fixture_values(self, family, n, value):
        assert lebesgue_constant(family, n, grid_resolution=256) == pytest.approx(value, rel=1e-12)


NODE_BLOCK = 7


class TestStreaming:
    """Blocked evaluation against dense references.  On the 65^2-point grid
    the Lebesgue loop takes blocks of 7 nodes, which no node count here is
    a multiple of, and point blocks hold 657 or 821 points, so both loops
    end in a partial block."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(interp_module, "_BLOCK_BYTES", 8 * 65**2 * NODE_BLOCK)

    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_lebesgue_matches_dense_reference(self, family, n):
        interp, dense = build(family, n)
        assert len(interp.nodes) % NODE_BLOCK
        pts = interp_module._lobatto_grid(65)
        L = dense(pts)
        assert np.abs(interp.cardinal_matrix(pts) - L).max() < 1e-12 * np.abs(L).max()
        ref = np.abs(L).sum(axis=0).max()
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


@pytest.mark.parametrize("family,n", [("cheb1", 32), ("padua", 32), ("gencheb", 24), ("cheb1", 64)])
def test_lebesgue_memory_bounded(family, n):
    # the dense cardinal matrix on the 256^2 grid alone takes 277 / 294 / 164 / 1107 MB
    tracemalloc.start()
    try:
        lebesgue_constant(family, n, grid_resolution=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


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

    def test_padua_family(self):
        f = lambda x, y: np.exp(x + y)
        rows = dict(convergence_report("padua", f, [4, 8]))
        assert rows[8] < 1e-3 * rows[4]
