"""Trust equilibria for competitive search on a star graph.

n searchers race from the hub of a (k+1)-ray star to a treasure at the end of
one ray, guided by a shared pointer that is right with probability p. Each
searcher picks how often to trust the pointer; first arrivers split the
prize. The package solves for the unique symmetric-equilibrium trust,
reproduces the standard curves, and cross-checks every closed form against a
turn-by-turn series and Monte Carlo play.
"""

from .equilibrium import (
    CurveSamples,
    EquilibriumSolution,
    SolverError,
    reliability_curve,
    residual_curve,
    solve_equilibrium,
    sweep_k,
    sweep_n,
)
from .model import (
    GameParams,
    TrustProfile,
    equilibrium_residual,
    expected_payoff,
    expected_payoff_large_n,
    reliability_from_trust,
    single_searcher_optimal_trust,
    trust_decrease_threshold,
)
from .simulate import (
    DEFAULT_MAX_TURNS,
    RoundResult,
    SimulationConfig,
    SimulationReport,
    estimate_payoff,
    per_turn_share,
    series_payoff,
    simulate_round,
)
from .verify import (
    BestResponseScan,
    EquilibriumCheck,
    ProbabilityMatchingReport,
    best_response_scan,
    check_equilibrium,
    check_probability_matching,
)

__version__ = "0.1.0"

__all__ = [
    "BestResponseScan",
    "CurveSamples",
    "DEFAULT_MAX_TURNS",
    "EquilibriumCheck",
    "EquilibriumSolution",
    "GameParams",
    "ProbabilityMatchingReport",
    "RoundResult",
    "SimulationConfig",
    "SimulationReport",
    "SolverError",
    "TrustProfile",
    "best_response_scan",
    "check_equilibrium",
    "check_probability_matching",
    "equilibrium_residual",
    "estimate_payoff",
    "expected_payoff",
    "expected_payoff_large_n",
    "per_turn_share",
    "reliability_curve",
    "reliability_from_trust",
    "residual_curve",
    "series_payoff",
    "simulate_round",
    "single_searcher_optimal_trust",
    "solve_equilibrium",
    "sweep_k",
    "sweep_n",
    "trust_decrease_threshold",
]
