"""Tests for the weight registry and moment oracle."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.integrate import quad

from cubasquare.univariate import chebyshev_t_table, gauss_rule_1d
from cubasquare.weights import (
    WeightSpec,
    cheb1,
    cheb2,
    chebyshev_moments,
    constant,
    gegenbauer_product,
    gencheb,
    jacobi_product,
    mass,
    moment,
    moment_table,
    parse_weight,
    tensor_oracle,
    weight_string,
)

ALL_WEIGHTS = [
    constant(),
    cheb1(),
    cheb2(),
    gegenbauer_product(1.5),
    jacobi_product(0.5, 1.0),
    gencheb(0.5, 0.5, -0.5),
    gencheb(0.5, -0.5, -0.5),
    gencheb(1.5, 0.5, 0.5),
]


class TestMoments:
    def test_constant_area(self):
        assert moment(constant(), 0, 0) == pytest.approx(4.0, abs=1e-14)

    def test_cheb1_mass_pi_squared(self):
        assert moment(cheb1(), 0, 0) == pytest.approx(np.pi**2, rel=1e-14)

    def test_product_mass_is_closed_form(self):
        # the product of the axes' Jacobi masses 2^(2e+1) Gamma(e+1)^2 / Gamma(2e+2),
        # which moment(w, 0, 0) returns too: the area is 4 exactly
        assert mass(constant()) == moment(constant(), 0, 0) == 4.0
        for w, want in [(cheb2(), np.pi**2 / 4), (gegenbauer_product(1.5), (4 / 3) ** 2),
                        (jacobi_product(0.5, 1.0), np.pi / 2 * 4 / 3)]:
            assert mass(w) == moment(w, 0, 0) == pytest.approx(want, rel=4e-16)

    def test_odd_symmetry(self):
        assert moment(constant(), 1, 4) == 0.0

    def test_all_odd_moments_vanish(self):
        for w in ALL_WEIGHTS:
            for i in range(5):
                for j in range(5):
                    if (i + j) % 2:
                        assert moment(w, i, j) == 0.0

    def test_constant_closed_form(self):
        for i in range(0, 8, 2):
            for j in range(0, 8, 2):
                assert moment(constant(), i, j) == pytest.approx(
                    4.0 / ((i + 1) * (j + 1)), rel=1e-14
                )

    def test_gencheb_swap_symmetry(self):
        w = gencheb(0.5, -0.5, -0.5)
        for i, j in [(2, 0), (4, 2), (6, 0), (3, 1)]:
            assert moment(w, i, j) == pytest.approx(moment(w, j, i), abs=1e-13)

    def test_moment_table_matches_moment(self):
        for w in (cheb2(), gencheb(0.5, 0.5, -0.5)):
            tbl = moment_table(w, 6)
            for i in range(7):
                for j in range(7):
                    assert tbl[i, j] == pytest.approx(moment(w, i, j), abs=1e-12)



class TestChebyshevMoments:
    @pytest.mark.parametrize("d", [1, 6, 12])
    @pytest.mark.parametrize("w", ALL_WEIGHTS, ids=weight_string)
    def test_match_monomial_moments(self, w, d):
        # B[k, i]: coefficient of T_i in x^k (entries in [0, 1]), so the
        # monomial moments are B M B^T for the Chebyshev moments M
        B = np.zeros((d + 1, d + 1))
        for k in range(d + 1):
            c = chebyshev.poly2cheb(np.eye(d + 1)[k])
            B[k, : len(c)] = c
        err = np.abs(B @ chebyshev_moments(w, d) @ B.T - moment_table(w, d)).max()
        assert err <= 1e-13 * mass(w)

    @pytest.mark.parametrize("w", [gencheb(0.5, 0.5, -0.5), gencheb(0.5, -0.5, -0.5), gencheb(1.5, 0.5, 0.5)],
                             ids=weight_string)
    def test_gencheb_factored_matches_tensor_sum(self, w):
        d = 40
        X, Y, wts = tensor_oracle(w, 2 * d)
        ref = (chebyshev_t_table(d, X) * wts) @ chebyshev_t_table(d, Y).T
        assert np.abs(chebyshev_moments(w, d) - ref).max() <= 1e-13 * mass(w)


PRODUCT_WEIGHTS = [constant(), cheb1(), cheb2(), gegenbauer_product(1.5), gegenbauer_product(-0.4),
                   jacobi_product(0.5, 1.0), jacobi_product(40.0, 3.0), jacobi_product(-0.9, 25.0)]


@pytest.mark.parametrize("d", [40, 260])
@pytest.mark.parametrize("w", PRODUCT_WEIGHTS, ids=weight_string)
def test_product_moments_agree_with_two_axis_rules(w, d):
    # the closed-form moments against the sums of one Gauss-Jacobi rule per axis
    from cubasquare.weights import _ORACLE_MARGIN, _axis_params, _oracle_axes

    (pa, _), (pb, _) = _axis_params(w)
    (xg, wx), (yg, wy) = (gauss_rule_1d(p, p, d // 2 + 1 + _ORACLE_MARGIN) for p in (pa, pb))
    ref = np.outer((chebyshev_t_table(d, xg) * wx).sum(axis=1), (chebyshev_t_table(d, yg) * wy).sum(axis=1))
    i = np.arange(d + 1)
    ref[(i[:, None] + i) % 2 == 1] = 0.0
    # on an axis with exponent -0.9 the Gauss sums themselves are off: by 2.1e-14 (d = 40)
    # and 1.2e-13 (d = 260) of the mass against a 40-digit evaluation of the ratio, which
    # the closed form meets to 1.0e-15
    tol = 2e-13 if min(pa, pb) < -0.5 else 2e-14
    assert np.abs(chebyshev_moments(w, d) - ref).max() <= tol * mass(w)
    x_rule, y_rule = _oracle_axes(w, d)
    assert (x_rule is y_rule) == (pa == pb)


def test_product_moments_exact_values():
    # d = 1030: int T_2p = 2 / (1 - 4 p^2) for the constant weight, only M[0, 0] for cheb1,
    # and per-axis ratios (1, 0, -1/2, 0, 0, ...) for cheb2
    d = 1030
    const, cheb2_axis = np.zeros(d + 1), np.zeros(d + 1)
    const[::2] = 1.0 / (1.0 - np.arange(0, d + 1, 2.0) ** 2)
    cheb2_axis[[0, 2]] = 1.0, -0.5
    cheb1_only = np.zeros((d + 1, d + 1))
    cheb1_only[0, 0] = 1.0
    for w, ref in ((constant(), np.outer(const, const)), (cheb1(), cheb1_only),
                   (cheb2(), np.outer(cheb2_axis, cheb2_axis))):
        assert np.abs(chebyshev_moments(w, d) - mass(w) * ref).max() <= 1e-15 * mass(w)


def halfint_oracle(w, degree):
    """The gencheb oracle for half-integer alpha, beta, independent of the angle
    variables: |x-y|^ia |x+y|^ib with ia = 2 alpha + 1, ib = 2 beta + 1 even is a
    polynomial factor on per-axis Gauss-Jacobi(gamma, gamma) rules exact through
    degree + ia + ib."""
    ia, ib = round(2 * w.alpha + 1), round(2 * w.beta + 1)
    xg, wx = gauss_rule_1d(w.gamma, w.gamma, (degree + ia + ib) // 2 + 3)
    X, Y = np.meshgrid(xg, xg, indexing="ij")
    return X.ravel(), Y.ravel(), (np.outer(wx, wx) * (X - Y) ** ia * (X + Y) ** ib).ravel()


HALF_INTEGER = [gencheb(a, b, g) for a, b, g in
                [(0.5, 0.5, -0.5), (0.5, -0.5, -0.5), (1.5, 0.5, 0.5), (-0.5, 1.5, -0.5), (1.5, 1.5, 0.5)]]


@pytest.mark.parametrize("w", HALF_INTEGER, ids=weight_string)
class TestHalfIntegerReference:
    """The angle-variable oracle against the polynomial-factor one."""

    def test_chebyshev_moments(self, w):
        d = 98
        X, Y, wts = halfint_oracle(w, 2 * d)
        ref = (chebyshev_t_table(d, X) * wts) @ chebyshev_t_table(d, Y).T
        assert np.abs(chebyshev_moments(w, d) - ref).max() <= 1e-13 * mass(w)

    def test_moment_table(self, w):
        X, Y, wts = halfint_oracle(w, 24)
        ref = np.einsum("p,pi,pj->ij", wts, np.vander(X, 13, increasing=True), np.vander(Y, 13, increasing=True))
        assert np.abs(moment_table(w, 12) - ref).max() <= 1e-13 * mass(w)

    def test_tensor_oracle(self, w):
        # every T_i(x) T_j(y) with i + j <= d, odd sums included
        d = 31
        got = [(chebyshev_t_table(d, X) * wts) @ chebyshev_t_table(d, Y).T
               for X, Y, wts in (tensor_oracle(w, d), halfint_oracle(w, d))]
        i = np.arange(d + 1)
        low = i[:, None] + i <= d
        assert np.abs(got[0] - got[1])[low].max() <= 1e-13 * mass(w)


def test_gencheb_moments_off_half_integers():
    # nested adaptive quadrature in x = cos(th), y = cos(ph), with breakpoints on
    # the kinks of |x - y|^1.6 |x + y|^0.6 at ph = th and ph = pi - th
    w = gencheb(0.3, -0.2, -0.5)

    def inner(th, i, j):
        f = lambda ph: (np.cos(ph) ** j * abs(np.cos(th) - np.cos(ph)) ** 1.6
                        * abs(np.cos(th) + np.cos(ph)) ** 0.6)
        return quad(f, 0, np.pi, points=sorted({th, np.pi - th}), epsabs=1e-13, epsrel=1e-10)[0]

    for i, j in [(0, 0), (3, 1)]:
        ref = quad(lambda th: np.cos(th) ** i * inner(th, i, j), 0, np.pi, epsabs=1e-13, epsrel=1e-10)[0]
        assert moment(w, i, j) == pytest.approx(ref, rel=1e-10)


class TestAdaptiveQuadratureAgreement:
    """Independent oracle: nested 1-D adaptive quadrature with algebraic weights."""

    @pytest.mark.parametrize("w", [constant(), cheb1(), cheb2(), jacobi_product(0.5, 1.0)])
    def test_product_weights(self, w):
        rng = np.random.default_rng(42)
        if w.kind == "const":
            expo = (0.0, 0.0)
        elif w.kind == "gegenbauer":
            expo = (w.alpha - 0.5, w.alpha - 0.5)
        else:
            expo = (w.alpha, w.beta)
        pairs = {tuple(2 * rng.integers(0, 6, 2)) for _ in range(20)}
        for i, j in pairs:
            ref_x = quad(lambda x: x**i, -1, 1, weight="alg", wvar=(expo[0], expo[0]))[0]
            ref_y = quad(lambda y: y**j, -1, 1, weight="alg", wvar=(expo[1], expo[1]))[0]
            got = moment(w, int(i), int(j))
            assert got == pytest.approx(ref_x * ref_y, rel=1e-12, abs=1e-13)

    def test_gencheb_weight(self):
        w = gencheb(0.5, 0.5, -0.5)

        def inner(x, j):
            return quad(
                lambda y: y**j * (x + y) ** 2 * (x - y) ** 2,
                -1, 1, weight="alg", wvar=(-0.5, -0.5),
            )[0]

        for i, j in [(0, 0), (2, 0), (2, 2), (4, 0)]:
            ref = quad(lambda x: x**i * inner(x, j), -1, 1, weight="alg", wvar=(-0.5, -0.5))[0]
            assert moment(w, i, j) == pytest.approx(ref, rel=1e-11)


class TestCanonicalStrings:
    @pytest.mark.parametrize(
        "text", ["const", "cheb1", "cheb2", "gegenbauer:1.5", "jacobi2:0.5:1", "gencheb:0.5:0.5:-0.5"]
    )
    def test_round_trip(self, text):
        w = parse_weight(text)
        assert parse_weight(weight_string(w)) == w

    def test_cheb_aliases(self):
        assert weight_string(gegenbauer_product(0.0)) == "cheb1"
        assert weight_string(gegenbauer_product(1.0)) == "cheb2"

    def test_bad_strings(self):
        for text in ["chebX", "gegenbauer", "gencheb:0.5:0.5", "jacobi2:a:b"]:
            with pytest.raises(ValueError):
                parse_weight(text)


class TestValidation:
    def test_gegenbauer_range(self):
        with pytest.raises(ValueError):
            gegenbauer_product(-0.6)

    def test_gencheb_gamma(self):
        with pytest.raises(ValueError):
            WeightSpec("gencheb", alpha=0.5, beta=0.5, gamma=0.0)

    def test_mass_positive(self):
        for w in ALL_WEIGHTS:
            assert mass(w) > 0
