"""More decoy rays make the pointer more valuable
=================================================

Knowing which of eleven rays to try is worth more than knowing which of two,
so equilibrium trust rises with the ray count k. A lone searcher who only
wants to arrive quickly behaves the other way around: their optimal trust
falls with k.
"""

from starsearch import single_searcher_optimal_trust, sweep_k

N, P = 5, 0.6

competitive = sweep_k(N, P, range(1, 11))
print(f"n={N} searchers, reliability p={P}")
print(f"{'k':>4} {'equilibrium q_bar':>18} {'lone-searcher trust':>20}")
for (k, q_bar) in competitive.points:
    lone = single_searcher_optimal_trust(P, k)
    print(f"{k:4d} {q_bar:18.6f} {lone:20.6f}")

print(
    "\ncompetition pushes trust up with k, solo time-minimization pushes it down"
)
