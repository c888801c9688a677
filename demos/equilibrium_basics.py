"""Solving for the equilibrium trust
=====================================

Five searchers race on a star with four rays (k = 3 decoys). A shared
pointer marks the treasure ray with reliability p. How much should everyone
trust it?
"""

from starsearch import (
    GameParams,
    TrustProfile,
    expected_payoff,
    reliability_from_trust,
    solve_equilibrium,
)

# Solve the classic trio of reliabilities. The equilibrium trust always
# exceeds the reliability itself: a pointer right half the time earns more
# than half trust.
print("n=5 searchers, k=3 decoy rays")
print(f"{'p':>8} {'q_bar':>10} {'q_bar - p':>10}")
for p in (1 / 2, 2 / 3, 3 / 4):
    solution = solve_equilibrium(GameParams(5, 3, p))
    print(f"{p:8.4f} {solution.q_bar:10.6f} {solution.q_bar - p:10.6f}")

# The solver inverts a monotone map: reliability_from_trust(q_bar) must give
# back p. Round-trip error is about one cell of the solver's grid (1e-13).
p = 2 / 3
q_bar = solve_equilibrium(GameParams(5, 3, p)).q_bar
print("\nround trip |F(q_bar) - p| =", abs(reliability_from_trust(5, 3, q_bar) - p))

# At the equilibrium everyone earns the symmetric share 1/n, and no unilateral
# trust change improves on it.
params = GameParams(5, 3, p)
symmetric = expected_payoff(params, TrustProfile(q_bar, q_bar))
print(f"symmetric payoff: {symmetric:.15f}  (1/n = {1 / 5})")
for r in (0.0, 0.4, q_bar, 0.9, 1.0):
    payoff = expected_payoff(params, TrustProfile(q_bar, r))
    print(f"  deviate to r={r:.4f}: payoff {payoff:.9f}  (gain {payoff - 0.2:+.2e})")
