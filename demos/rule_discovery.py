"""Discover low-degree rules for the constant weight by solving the
Hankel-parameterized matrix systems, then rebuild and verify the rules
from the common zeros of the resulting orthogonal polynomials.

Run:  python3 demos/rule_discovery.py
"""

import numpy as np

from cubasquare.cubature import exactness_check, weights_from_vandermonde
from cubasquare.discover import (
    KNOWN_ODD_HANKEL,
    align_to_reference,
    common_zeros,
    odd_system_search,
    solve_even_system,
)
from cubasquare.nodes import NodeSet
from cubasquare.weights import constant

print("odd system, n = 3 (degree-5 rule on 7 nodes)")
sols = odd_system_search(3, seeds=20, rng_seed=1).verified
best = min(sols, key=lambda s: align_to_reference(s, KNOWN_ODD_HANKEL[3])[1])
pts = common_zeros(best)
rule = weights_from_vandermonde(
    NodeSet(points=pts, family="discovered_odd", n=3, expected_count=7), constant(), 5
)
print("  nodes:")
for (x, y), lam in zip(pts, rule.lambdas):
    print(f"    ({x:+.12f}, {y:+.12f})   weight {lam:.12f}")
print("  exactness:", exactness_check(rule).passed)
print()

print("odd system, n = 5 (degree-9 rule on 17 nodes)")
sols = odd_system_search(5, seeds=60, rng_seed=0).verified
best = min(sols, key=lambda s: align_to_reference(s, KNOWN_ODD_HANKEL[5])[1])
_, dist = align_to_reference(best, KNOWN_ODD_HANKEL[5])
print(f"  entrywise distance to the stored reference matrix: {dist:.2e}")
pts = common_zeros(best)
rule = weights_from_vandermonde(
    NodeSet(points=pts, family="discovered_odd", n=5, expected_count=17), constant(), 9
)
print(f"  17 common zeros, all inside the square: {bool(np.all(np.abs(pts) <= 1))}")
print("  exactness at degree 9:", exactness_check(rule).passed)
print()

print("even system, n = 5 (degree-8 rule on 15 nodes, one outside the square)")
sols = solve_even_system(5, seeds=40, rng_seed=0)
pts = common_zeros(sols[0])
outside = pts[~np.all(np.abs(pts) <= 1 + 1e-10, axis=1)]
print(f"  outside node(s): {outside}")
rule = weights_from_vandermonde(
    NodeSet(points=pts, family="discovered_even", n=5, expected_count=15), constant(), 8
)
print("  exactness at degree 8:", exactness_check(rule).passed)
print()

print("even system, n = 6: searching with 60 seeds ...")
print("  solutions:", solve_even_system(6, seeds=60, rng_seed=0) or "none found "
      "(consistent with the search limit; nonexistence is not established)")
