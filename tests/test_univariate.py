"""Tests for univariate polynomial evaluation, zeros, and Gauss rules."""

from math import exp, gamma, lgamma, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

from cubasquare.univariate import (
    chebyshev_t_table,
    eval_chebyshev_t,
    eval_chebyshev_u,
    gauss_rule_1d,
    jacobi_normalized_table,
    jacobi_normalized_table_with_derivative,
    jacobi_recurrence,
)

PARAM_PAIRS = [(-0.5, -0.5), (0.5, 0.5), (0.5, -0.5), (0.0, 0.0)]


# The three-term recurrences as plain array expressions, one temporary per
# operation: the references the in-place tables must equal bit for bit.

def ref_chebyshev(n, x, first):
    x = np.asarray(x, dtype=float)
    if n < 0:
        return np.zeros_like(x)
    if n == 0:
        return np.ones_like(x)
    pm, p = np.ones_like(x), first * x
    for _ in range(1, n):
        pm, p = p, 2.0 * x * p - pm
    return p


def ref_chebyshev_t_table(n, x):
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = x
    for k in range(1, n):
        out[k + 1] = 2.0 * x * out[k] - out[k - 1]
    return out


def ref_jacobi_recurrence(alpha, beta, n):
    ra = np.zeros(max(n, 1))
    rb = np.zeros(max(n, 1))
    apb = alpha + beta
    ra[0] = (beta - alpha) / (apb + 2.0)
    rb[0] = 2.0 ** (apb + 1.0) * gamma(alpha + 1.0) * gamma(beta + 1.0) / gamma(apb + 2.0)
    if n > 1:
        ra[1] = (beta * beta - alpha * alpha) / ((apb + 2.0) * (apb + 4.0))
        rb[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0))
    for k in range(2, n):
        c = 2.0 * k + apb
        ra[k] = (beta * beta - alpha * alpha) / (c * (c + 2.0))
        rb[k] = 4.0 * k * (k + alpha) * (k + beta) * (k + apb) / (c * c * (c + 1.0) * (c - 1.0))
    return ra, rb


def ref_jacobi_table_with_derivative(alpha, beta, nmax, x):
    x = np.asarray(x, dtype=float)
    ra, rb = ref_jacobi_recurrence(alpha, beta, nmax + 2)
    c = np.sqrt(rb)
    p = np.zeros((nmax + 1,) + x.shape)
    dp = np.zeros_like(p)
    p[0] = 1.0
    if nmax >= 1:
        p[1] = (x - ra[0]) / c[1]
        dp[1] = 1.0 / c[1]
    for k in range(1, nmax):
        p[k + 1] = ((x - ra[k]) * p[k] - c[k] * p[k - 1]) / c[k + 1]
        dp[k + 1] = (p[k] + (x - ra[k]) * dp[k] - c[k] * dp[k - 1]) / c[k + 1]
    return p, dp


def assert_identical(got, ref):
    assert np.shape(got) == np.shape(ref)
    assert np.array_equal(got, ref)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    x=st.sampled_from([(), (0,), (7,), (3, 5)]).flatmap(
        lambda shape: arrays(float, shape, elements=st.sampled_from([-1.0, 1.0]) | st.floats(-1.5, 1.5))),
    n=st.integers(0, 140),
    alpha=st.floats(-1.0, 3.0, exclude_min=True),
    beta=st.floats(-1.0, 3.0, exclude_min=True),
)
@example(x=np.array([-1.0, -0.5, 0.0, 0.3, 1.0, 1.5, -1.5]), n=140, alpha=-0.5, beta=-0.5)
@example(x=np.linspace(-1.0, 1.0, 15).reshape(3, 5), n=1, alpha=-0.5, beta=-0.5)
@example(x=np.array(0.7), n=2, alpha=3.0, beta=-0.5)
def test_tables_equal_the_reference_recurrences(x, n, alpha, beta):
    assert_identical(chebyshev_t_table(n, x), ref_chebyshev_t_table(n, x))
    assert_identical(eval_chebyshev_t(n, x), ref_chebyshev(n, x, 1.0))
    assert_identical(eval_chebyshev_u(n, x), ref_chebyshev(n, x, 2.0))
    p, dp = ref_jacobi_table_with_derivative(alpha, beta, n, x)
    assert_identical(jacobi_normalized_table(alpha, beta, n, x), p)
    got_p, got_dp = jacobi_normalized_table_with_derivative(alpha, beta, n, x)
    assert_identical(got_p, p)
    assert_identical(got_dp, dp)
    for got, ref in zip(jacobi_recurrence(alpha, beta, n), ref_jacobi_recurrence(alpha, beta, n)):
        assert_identical(got, ref)


class TestChebyshev:
    def test_t0_is_one(self):
        assert eval_chebyshev_t(0, 0.3) == 1.0

    def test_t2_value(self):
        # T_2(x) = 2x^2 - 1
        assert_allclose(eval_chebyshev_t(2, 0.5), -0.5, atol=1e-15)

    def test_negative_degree_is_zero(self):
        assert eval_chebyshev_t(-1, 0.7) == 0.0
        assert eval_chebyshev_u(-1, 0.7) == 0.0

    def test_u1(self):
        assert_allclose(eval_chebyshev_u(1, 0.25), 0.5, atol=1e-15)

    def test_u0(self):
        assert eval_chebyshev_u(0, -0.9) == 1.0

    def test_u3_at_cos_pi_over_4(self):
        # sin(4 * pi/4) / sin(pi/4) = 0
        assert_allclose(eval_chebyshev_u(3, np.cos(np.pi / 4)), 0.0, atol=1e-14)

    def test_t_table_matches_evaluator_bitwise(self):
        rng = np.random.default_rng(5)
        for x in (0.3, rng.uniform(-1, 1, 7), rng.uniform(-1, 1, (3, 4))):
            tab = chebyshev_t_table(20, x)
            assert tab.shape == (21,) + np.shape(x)
            for k in range(21):
                assert np.array_equal(tab[k], eval_chebyshev_t(k, x))

    def test_trig_identity_on_grid(self):
        th = np.linspace(0.05, np.pi - 0.05, 40)
        x = np.cos(th)
        for n in (1, 5, 12):
            assert_allclose(eval_chebyshev_t(n, x), np.cos(n * th), atol=1e-12)
            assert_allclose(eval_chebyshev_u(n, x), np.sin((n + 1) * th) / np.sin(th), atol=1e-11)


class TestJacobiNormalized:
    def test_p0_is_one(self):
        for a, b in PARAM_PAIRS:
            assert jacobi_normalized_table(a, b, 0, 0.37)[0] == 1.0

    def test_chebyshev_case_is_sqrt2_cos(self):
        th = np.linspace(0.1, 3.0, 25)
        for n in (1, 2, 7):
            assert_allclose(
                jacobi_normalized_table(-0.5, -0.5, n, np.cos(th))[n],
                np.sqrt(2) * np.cos(n * th),
                atol=1e-12,
            )

    def test_odd_vanishes_at_origin(self):
        assert_allclose(jacobi_normalized_table(0.5, 0.5, 1, 0.0)[1], 0.0, atol=1e-15)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_orthonormality_gram(self, a, b):
        x, w = gauss_rule_1d(a, b, 12)
        mass = w.sum()
        tab = jacobi_normalized_table(a, b, 10, x)
        gram = (tab * w) @ tab.T / mass
        assert np.abs(gram - np.eye(11)).max() < 1e-10

    @pytest.mark.parametrize("a,b", [(0.5, -0.5), (0.0, 0.0), (1.5, 0.5)])
    def test_against_classical_jacobi(self, a, b):
        # independent oracle: scipy's classical P_n^(a,b) with closed-form norms
        from math import gamma
        from scipy.special import eval_jacobi

        x = np.linspace(-0.95, 0.95, 21)
        mass = 2.0 ** (a + b + 1) * gamma(a + 1) * gamma(b + 1) / gamma(a + b + 2)
        for n in (1, 3, 6):
            h = (
                2.0 ** (a + b + 1)
                * gamma(n + a + 1)
                * gamma(n + b + 1)
                / ((2 * n + a + b + 1) * gamma(n + a + b + 1) * gamma(n + 1))
            )
            expected = eval_jacobi(n, a, b, x) * np.sqrt(mass / h)
            assert_allclose(jacobi_normalized_table(a, b, n, x)[n], expected, atol=1e-12)


def test_recurrence_mass_past_the_gamma_range():
    # Gamma(202) overflows a float, so rb[0] = 2^201 Gamma(101)^2 / Gamma(202)
    # comes through lgamma; where the gamma expression is finite it is kept
    # bit for bit
    rb0 = jacobi_recurrence(100.0, 100.0, 4)[1][0]
    assert np.isfinite(rb0)
    assert rb0 == pytest.approx(exp(201.0 * log(2.0) + 2 * lgamma(101.0) - lgamma(202.0)), rel=1e-13, abs=0)
    assert jacobi_recurrence(0.5, -0.5, 4)[1][0] == 2.0 ** (0.0 + 1.0) * gamma(1.5) * gamma(0.5) / gamma(0.0 + 2.0)


def test_recurrence_mass_past_the_float_range():
    # at alpha = 160 every Gamma value is a float but 2^161 Gamma(161) is not,
    # so the mass 2^161 / 161 comes through lgamma too; at alpha = 1100 the
    # mass 2^1101 / 1101 is itself past the float range
    assert jacobi_recurrence(160.0, 0.0, 4)[1][0] == pytest.approx(2.0 ** 161 / 161, rel=1e-12, abs=0)
    with pytest.raises(ValueError, match=r"alpha = 1100\.0, beta = 0\.0"):
        jacobi_recurrence(1100.0, 0.0, 4)


class TestRecurrenceConsistency:
    """Recomputing p_{n+1} from the recurrence matches the table for n <= 50."""

    def test_chebyshev_t(self):
        x = np.linspace(-1, 1, 100)
        for n in range(1, 50):
            resid = eval_chebyshev_t(n + 1, x) - (2 * x * eval_chebyshev_t(n, x) - eval_chebyshev_t(n - 1, x))
            assert np.abs(resid).max() < 1e-12

    def test_chebyshev_u(self):
        x = np.linspace(-1, 1, 100)
        for n in range(1, 50):
            resid = eval_chebyshev_u(n + 1, x) - (2 * x * eval_chebyshev_u(n, x) - eval_chebyshev_u(n - 1, x))
            assert np.abs(resid).max() < 1e-12

    def test_jacobi_normalized_table_consistency(self):
        x = np.linspace(-1, 1, 100)
        tab = jacobi_normalized_table(0.5, -0.5, 51, x)
        for n in (10, 30, 50):
            assert np.abs(tab[n]).max() < 1e3  # stable, no blowup


def jacobi_angles(a, b, m):
    """The angles arccos z of the m Gauss-Jacobi zeros z, increasing, as
    ``gencheb_nodes`` reads them."""
    return np.arccos(gauss_rule_1d(a, b, m)[0])[::-1]


class TestJacobiAngleGrid:
    def test_chebyshev_case(self):
        assert_allclose(jacobi_angles(-0.5, -0.5, 2), [np.pi / 4, 3 * np.pi / 4], atol=1e-14)

    def test_u1_case(self):
        assert_allclose(jacobi_angles(0.5, 0.5, 1), [np.pi / 2], atol=1e-14)

    def test_legendre_case(self):
        assert_allclose(jacobi_angles(0.0, 0.0, 2), [np.arccos(1 / np.sqrt(3)), np.arccos(-1 / np.sqrt(3))],
                        atol=1e-14)

    def test_ordering_invariant(self):
        th = jacobi_angles(0.5, -0.5, 9)
        assert th[0] > 0.0
        assert np.all(np.diff(th) > 0)
        assert th[-1] < np.pi

    def test_zero_residual(self):
        for a, b in PARAM_PAIRS:
            z = gauss_rule_1d(a, b, 14)[0]
            vals = jacobi_normalized_table(a, b, 14, z)[14]
            assert np.abs(vals).max() < 1e-12

    def test_interlacing(self):
        for a, b in PARAM_PAIRS:
            zm = gauss_rule_1d(a, b, 8)[0]
            zm1 = gauss_rule_1d(a, b, 9)[0]
            for k in range(8):
                assert zm1[k] < zm[k] < zm1[k + 1]


class TestGaussRule:
    def test_midpoint(self):
        x, w = gauss_rule_1d(0.0, 0.0, 1)
        assert_allclose(x, [0.0], atol=1e-15)
        assert_allclose(w, [2.0], atol=1e-15)

    def test_chebyshev_equal_weights(self):
        for m in (3, 7, 10):
            _, w = gauss_rule_1d(-0.5, -0.5, m)
            assert_allclose(w, np.pi / m, atol=1e-13)

    def test_monomial_x8(self):
        x, w = gauss_rule_1d(0.0, 0.0, 5)
        assert abs((w * x**8).sum() - 2.0 / 9.0) < 1e-14

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_pairwise_products_exact(self, a, b):
        m = 8
        x, w = gauss_rule_1d(a, b, m)
        tab = jacobi_normalized_table(a, b, m, x)
        mass = w.sum()
        for i in range(m):
            for j in range(m - i):
                got = (w * tab[i] * tab[j]).sum() / mass
                assert abs(got - (1.0 if i == j else 0.0)) < 1e-12

    def test_weights_positive_and_mass(self):
        x, w = gauss_rule_1d(0.5, 0.5, 9)
        assert w.min() > 0
        assert_allclose(w.sum(), np.pi / 2, atol=1e-13)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            gauss_rule_1d(0.0, 0.0, 0)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (-0.5, -0.5), (0.3, -0.2), (1.5, -0.5), (5.0, 5.0), (-0.9, 3.0),
                                     (-0.99, 20.0), (20.0, -0.99), (100.0, 100.0), (170.0, 0.0)])
    def test_matches_the_tridiagonal_reference(self, a, b):
        # the dense symmetric solve against scipy's tridiagonal one, with the same
        # weights and Newton step: a few ulps apart at most, so that another
        # LAPACK build may round differently
        eps = np.finfo(float).eps
        for m in (1, 2, 3, 8, 17, 64, 65, 129, 130, 260, 520):
            ra, rb = jacobi_recurrence(a, b, m)
            z, vec = eigh_tridiagonal(ra, np.sqrt(rb[1:m]))
            w = rb[0] * vec[0] ** 2
            p, dp = jacobi_normalized_table_with_derivative(a, b, m, z)
            z = z - p[m] / dp[m]
            order = np.argsort(z)
            x, wx = gauss_rule_1d(a, b, m)
            assert_allclose(x, z[order], rtol=0, atol=4 * eps)
            assert_allclose(wx, w[order], rtol=4 * eps, atol=4 * eps * w.max())
