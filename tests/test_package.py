"""The package's public names."""

import starsearch

# All 28 of them. Change this list in the same commit that adds or removes one.
PUBLIC_NAMES = [
    "BestResponseScan", "CurveSamples", "DEFAULT_MAX_TURNS", "EquilibriumCheck",
    "EquilibriumSolution", "GameParams", "ProbabilityMatchingReport", "RoundResult",
    "SimulationConfig", "SimulationReport", "TrustProfile", "best_response_scan",
    "check_equilibrium", "check_probability_matching", "equilibrium_residual",
    "estimate_payoff", "expected_payoff", "per_turn_share", "reliability_curve",
    "reliability_from_trust", "residual_curve", "series_payoff", "simulate_round",
    "single_searcher_optimal_trust", "solve_equilibrium", "sweep_k", "sweep_n",
    "trust_decrease_threshold",
]


def test_public_names_are_pinned():
    assert starsearch.__all__ == PUBLIC_NAMES
