"""Build rules for every family and verify them against the moment oracle.

Each rule's weights come from the reciprocal of the augmented reproducing
kernel on the diagonal; verification compares the rule with the exact
moments of every Chebyshev tensor product T_i(x) T_j(y) up to three
degrees past the declared one and reports where exactness first fails.

Run:  python3 demos/cubature_verification.py
"""

from cubasquare import (
    cheb1,
    cheb2,
    exactness_check,
    gauss_u_nodes,
    gencheb,
    gencheb_nodes,
    lower_bounds,
    min_t_nodes_even,
    near_min_t_nodes_odd,
    padua_points,
    star_spec_cheb1,
    star_spec_gaussian,
    star_spec_gencheb,
    weights_from_kernel,
    weights_from_vandermonde,
)

print("rule                         N    degree  pass  max-rel-err  fails-at")
print("-" * 72)


def show(label, rule):
    rep = exactness_check(rule)
    print(
        f"{label:<28} {rule.node_count:<4} {rule.degree:<7} {str(rep.passed):<5} "
        f"{rep.max_rel_error:<12.2e} {rep.first_failure_degree}"
    )


for n in (4, 8, 12):
    show(f"chebyshev-2 gaussian n={n}", weights_from_kernel(
        gauss_u_nodes(n), star_spec_gaussian(cheb2(), n), cheb2()))

for n in (8, 16):
    show(f"chebyshev-1 minimal n={n}", weights_from_kernel(
        min_t_nodes_even(n), star_spec_cheb1(n), cheb1()))

for n in (9, 15):
    show(f"chebyshev-1 near-min n={n}", weights_from_kernel(
        near_min_t_nodes_odd(n), star_spec_cheb1(n), cheb1()))

for n in (8, 16):
    show(f"singular family n={n}", weights_from_kernel(
        gencheb_nodes(0.5, 0.5, n), star_spec_gencheb(0.5, 0.5, n), gencheb(0.5, 0.5, -0.5)))

for n in (6, 11):
    show(f"padua n={n}", weights_from_vandermonde(padua_points(n), cheb1(), 2 * n - 1))

print()
print("Node-count lower bounds for the constant weight (degree 2n-1):")
for n in range(2, 9):
    lb = lower_bounds(cheb1(), n)
    print(f"  n={n}: dim bound {lb.dim_bound:<3} rank bound {lb.rank_bound:<3} "
          f"central-symmetry bound {lb.moeller_bound}")
print("The chebyshev-1 minimal family attains the last column exactly.")
