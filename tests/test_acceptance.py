"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
summary lines.
"""

import numpy as np

from cubasquare.basis2d import star_spec_cheb1, star_spec_gaussian, star_spec_gencheb
from cubasquare.cubature import (
    exactness_check,
    lower_bounds,
    weights_from_kernel,
    weights_from_vandermonde,
)
from cubasquare.discover import (
    KNOWN_EVEN_HANKEL,
    KNOWN_ODD_HANKEL,
    CommonZeroError,
    align_to_reference,
    common_zeros,
    odd_system_search,
    solve_even_system,
)
from cubasquare.interp import convergence_report, interpolate_padua, lebesgue_constant
from cubasquare.nodes import (
    NodeSet,
    gauss_u_nodes,
    gencheb_nodes,
    min_t_nodes_even,
    moeller_count,
    near_min_t_nodes_odd,
    padua_points,
)
from cubasquare.univariate import eval_chebyshev_t
from cubasquare.weights import cheb1, cheb2, constant, gencheb


def report(num: int, text: str):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_cardinality_fixtures():
    assert len(min_t_nodes_even(18)) == 180
    assert len(near_min_t_nodes_odd(17)) == 162
    assert len(padua_points(11)) == 78
    assert len(gencheb_nodes(0.5, 0.5, 16)) == 144
    report(1, "cardinalities 180 / 162 / 78 / 144 exact")


def test_criterion_02_cheb2_gaussian_exactness():
    worst = 0.0
    for n in range(2, 13):
        nodes = gauss_u_nodes(n)
        assert len(nodes) == n * (n + 1) // 2  # attains the dimension bound
        rule = weights_from_kernel(nodes, star_spec_gaussian(cheb2(), n), cheb2())
        assert rule.degree == 2 * n - 2
        rep = exactness_check(rule)
        assert rep.passed
        worst = max(worst, rep.max_rel_error)
    report(2, f"chebyshev-2 Gaussian rules exact for n=2..12, worst rel err {worst:.2e}")


def test_criterion_03_cheb1_minimal_and_near_minimal():
    worst = 0.0
    for n in range(2, 17, 2):
        rule = weights_from_kernel(min_t_nodes_even(n), star_spec_cheb1(n), cheb1())
        assert rule.node_count == moeller_count(n)
        assert rule.degree == 2 * n - 1
        rep = exactness_check(rule)
        assert rep.passed
        worst = max(worst, rep.max_rel_error)
    for n in range(3, 16, 2):
        rule = weights_from_kernel(near_min_t_nodes_odd(n), star_spec_cheb1(n), cheb1())
        assert rule.node_count == moeller_count(n) + 1
        assert rule.degree == 2 * n - 1
        rep = exactness_check(rule)
        assert rep.passed
        worst = max(worst, rep.max_rel_error)
    report(3, f"chebyshev-1 minimal (even<=16) and near-minimal (odd<=15), worst {worst:.2e}")


def test_criterion_04_padua():
    g = np.linspace(-1, 1, 30)
    X, Y = np.meshgrid(g, g)
    for n in range(1, 21):
        nodes = padua_points(n)
        # unisolvence + projection property on a degree-n polynomial
        f = lambda x, y: eval_chebyshev_t(n, x) + eval_chebyshev_t(n - 1, x) * eval_chebyshev_t(1, y)
        interp = interpolate_padua(n, f(nodes.points[:, 0], nodes.points[:, 1]))
        assert np.isfinite(interp.collocation_cond)
        assert np.abs(interp(X, Y) - f(X, Y)).max() < 1e-9
        # a degree-(2n-1) rule exists with tiny moment residual
        rule = weights_from_vandermonde(nodes, cheb1(), 2 * n - 1)
        assert exactness_check(rule).passed
    report(4, "padua unisolvence, projection, and degree-(2n-1) rules for n<=20")


def test_criterion_05_moeller_consistency():
    rules = []
    for n in range(2, 13, 2):
        rules.append((n, weights_from_kernel(min_t_nodes_even(n), star_spec_cheb1(n), cheb1())))
    for n in range(3, 12, 2):
        rules.append((n, weights_from_kernel(near_min_t_nodes_odd(n), star_spec_cheb1(n), cheb1())))
    for n in range(2, 11):
        rules.append((n, weights_from_kernel(
            gencheb_nodes(0.5, 0.5, n), star_spec_gencheb(0.5, 0.5, n), gencheb(0.5, 0.5, -0.5))))
    for n, rule in rules:
        lb = lower_bounds(rule.weight, n)
        assert rule.node_count >= lb.moeller_bound
    for n in range(2, 13, 2):
        rule = weights_from_kernel(min_t_nodes_even(n), star_spec_cheb1(n), cheb1())
        assert rule.node_count == moeller_count(n)
    report(5, "all rules respect the Moller bound; chebyshev-1 even attains it")


def test_criterion_06_hankel_fixtures_and_pipelines():
    # printed even H3 satisfies the even system
    assert np.abs(KNOWN_EVEN_HANKEL[3].residual()).max() <= 1e-10
    # odd solver reproduces the reference H3 and H5 entrywise after alignment
    sols3 = odd_system_search(3, seeds=20, rng_seed=1).verified
    d3 = min(align_to_reference(s, KNOWN_ODD_HANKEL[3])[1] for s in sols3)
    assert d3 < 1e-8
    sols5 = odd_system_search(5, seeds=60, rng_seed=0).verified
    d5 = min(align_to_reference(s, KNOWN_ODD_HANKEL[5])[1] for s in sols5)
    assert d5 < 1e-8
    # odd n=5 pipeline: exactly 17 real common zeros and a verified degree-9 rule
    best5 = min(sols5, key=lambda s: align_to_reference(s, KNOWN_ODD_HANKEL[5])[1])
    pts = common_zeros(best5)
    ns = NodeSet(points=pts, family="discovered_odd", n=5, expected_count=17)
    rule = weights_from_vandermonde(ns, constant(), 9)
    assert exactness_check(rule).passed
    # odd n=4: a 12-node solution with all nodes inside the square
    sols4 = odd_system_search(4, seeds=30, rng_seed=0).verified
    inside = False
    for s in sols4:
        try:
            p4 = common_zeros(s)
        except CommonZeroError:
            continue
        if np.all(np.abs(p4) <= 1.0 + 1e-12):
            ns4 = NodeSet(points=p4, family="discovered_odd", n=4, expected_count=12)
            rule4 = weights_from_vandermonde(ns4, constant(), 7)
            inside = exactness_check(rule4).passed
            break
    assert inside
    # even n=5: a rule with exactly one node outside the square
    sols_e5 = solve_even_system(5, seeds=40, rng_seed=0)
    pts = common_zeros(sols_e5[0])
    outside = int((~np.all(np.abs(pts) <= 1 + 1e-10, axis=1)).sum())
    assert outside == 1
    ns5 = NodeSet(points=pts, family="discovered_even", n=5, expected_count=15)
    rule5 = weights_from_vandermonde(ns5, constant(), 8)
    assert exactness_check(rule5).passed
    report(6, f"fixtures verified (H3 odd dist {d3:.1e}, H5 dist {d5:.1e}); pipelines reproduce 17/12/15-node rules")


def test_criterion_07_negative_results():
    sols6 = solve_even_system(6, seeds=200, rng_seed=0)
    assert sols6 == []
    rep7 = odd_system_search(7, seeds=200, rng_seed=0)
    assert rep7.verified == []
    assert rep7.status == "not-found"  # flagged as not found, not nonexistent
    report(7, "even n=6 and odd n=7: no solution found with 200 seeds (not a nonexistence proof)")


def test_criterion_08_lebesgue_growth_bands():
    for n in (4, 8, 16, 32):
        lam = lebesgue_constant("cheb1", n, grid_resolution=129)
        ratio = lam / np.log(n) ** 2
        assert 0.1 <= ratio <= 10.0
    # regression-locked band for the gencheb family (alpha = beta = 1/2)
    for n in (4, 8, 16, 32):
        lam = lebesgue_constant("gencheb", n, grid_resolution=129)
        ratio = lam / n**2
        assert 0.2 <= ratio <= 0.9
    report(8, "Lebesgue growth: cheb1 within [0.1,10]x(log n)^2; gencheb within [0.2,0.9]xn^2")


def test_criterion_09_convergence_proxy():
    f = lambda x, y: np.exp(x + y)
    rows = dict(convergence_report("cheb1", f, [4, 8, 16]))
    assert rows[16] < 1e-8
    assert rows[16] / rows[8] <= 0.5
    assert rows[8] / rows[4] <= 0.5
    report(9, f"exp(x+y): sup errors {rows[4]:.1e} -> {rows[8]:.1e} -> {rows[16]:.1e}")


def test_criterion_10_cross_method_weights():
    worst = 0.0
    for n in range(2, 13):
        nodes = min_t_nodes_even(n) if n % 2 == 0 else near_min_t_nodes_odd(n)
        r1 = weights_from_kernel(nodes, star_spec_cheb1(n), cheb1())
        r2 = weights_from_vandermonde(nodes, cheb1(), 2 * n - 1)
        worst = max(worst, float(np.abs(r1.lambdas - r2.lambdas).max()))
    assert worst < 1e-9
    report(10, f"kernel and vandermonde weights agree, worst gap {worst:.2e}")
