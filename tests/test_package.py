"""The package's public names and the command line's flags."""

import argparse

import starsearch
from starsearch.cli import _build_parser

# All 28 of them. Change this list in the same commit that adds or removes one.
PUBLIC_NAMES = [
    "BestResponseScan", "CurveSamples", "EquilibriumCheck", "EquilibriumSolution",
    "GameParams", "MAX_TURNS", "ProbabilityMatchingReport", "RoundResult",
    "SimulationConfig", "SimulationReport", "TrustProfile", "best_response_scan",
    "check_equilibrium", "check_probability_matching", "equilibrium_residual",
    "estimate_payoff", "expected_payoff", "per_turn_share", "reliability_curve",
    "reliability_from_trust", "residual_curve", "series_payoff", "simulate_round",
    "single_searcher_optimal_trust", "solve_equilibrium", "sweep_k", "sweep_n",
    "trust_decrease_threshold",
]

# Each subcommand's flags besides --help, 36 in all. Change this table in the
# same commit that adds or removes one.
FLAGS = {
    "solve": ["--n", "--k", "--p"],
    "curve-e": ["--n", "--k", "--p", "--q-min", "--q-max", "--steps"],
    "curve-f": ["--n", "--k", "--q-min", "--q-max", "--steps"],
    "sweep-n": ["--k", "--p", "--n-from", "--n-to", "--log"],
    "sweep-k": ["--n", "--p", "--k-from", "--k-to"],
    "simulate": ["--n", "--k", "--p", "--q", "--r", "--rounds", "--seed"],
    "best-response": ["--n", "--k", "--p", "--q"],
    "verify": [],
    "single-searcher": ["--p", "--k"],
}


def test_public_names_are_pinned():
    assert starsearch.__all__ == PUBLIC_NAMES


def test_flags_are_pinned():
    (subcommands,) = (
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        name: [flag for action in parser._actions for flag in action.option_strings
               if flag not in ("-h", "--help")]
        for name, parser in subcommands.choices.items()
    }
    assert flags == FLAGS
    assert sum(map(len, FLAGS.values())) == 36
