"""More searchers, less trust: convergence to probability matching
===================================================================

With many competitors, following the pointer means sharing with everyone
else who followed it. Equilibrium trust therefore falls with the population
size (once past a small-n threshold) and lands exactly on the pointer
reliability in the limit. Trusting a signal with the probability that it is
right is called probability matching, and here it is the rational endpoint.
"""

import math

from starsearch import (
    GameParams,
    check_probability_matching,
    solve_equilibrium,
    sweep_n,
    trust_decrease_threshold,
)

K, P = 3, 0.5

# Below this population size the trust sequence may wiggle; above it, the
# decrease is guaranteed.
threshold = trust_decrease_threshold(P, K)
print(f"k={K}, p={P}: trust starts strictly decreasing past n* = {threshold:.4f}")

first = math.ceil(threshold)
curve = sweep_n(K, P, range(max(first - 4, 2), first + 10))
print("\n  n    q_bar")
for n, q in curve.points:
    marker = "  <- decrease guaranteed from here" if n == first + 1 else ""
    print(f"{int(n):4d}  {q:.8f}{marker}")

# Decades of n: the gap to p shrinks toward zero.
print("\nconvergence toward p:")
print(f"{'n':>8} {'q_bar - p':>12}")
for exponent in range(1, 6):
    n = 10**exponent
    gap = solve_equilibrium(GameParams(n, K, P)).q_bar - P
    print(f"{n:8d} {gap:12.3e}")

# The packaged check asserts all of it at once: positive gaps, eventual
# decrease to within one cell of the solver's grid, and a final gap under
# 1e-3.
report = check_probability_matching(K, P, [10, 100, 1000, 10_000, 100_000])
print(
    "\ncheck_probability_matching:",
    "PASS" if report.passed else "FAIL",
    f"(final gap {report.final_gap:.2e})",
)
