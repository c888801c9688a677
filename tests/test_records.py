"""The package's record types: immutable namedtuples with fixed reprs, and
validation that no constructor path skips."""

import pickle
from fractions import Fraction

import pytest

from starsearch import (
    BestResponseScan,
    CurveSamples,
    EquilibriumCheck,
    GameParams,
    ProbabilityMatchingReport,
    RoundResult,
    SimulationConfig,
    SimulationReport,
    TrustProfile,
    estimate_payoff,
    solve_equilibrium,
    sweep_n,
)
from starsearch.acceptance import CriterionResult

PARAMS = GameParams(5, 3, 0.5)
SOLUTION = solve_equilibrium(PARAMS)
SCAN = BestResponseScan(0.5, ((0.0, 0.125), (1.0, 0.25)), 1.0, 0.25)
CONFIG = SimulationConfig(PARAMS, TrustProfile(0.6, 0.7), rounds=10, seed=1)
SOLUTION_REPR = (
    "EquilibriumSolution(q_bar=0.5304777185066314, residual=2.942091015256665e-14, "
    "e_residual=5.023759186428833e-15, iterations=5, bracket_lo=0.5304777185065177, "
    "bracket_hi=0.5304777185066314)"
)
SCAN_REPR = (
    "BestResponseScan(q_fixed=0.5, grid=((0.0, 0.125), (1.0, 0.25)), argmax_r=1.0, "
    "max_payoff=0.25)"
)

# Each record with its repr, as the package printed it when the records were
# frozen dataclasses.
RECORDS = [
    (PARAMS, "GameParams(n=5, k=3, p=0.5)"),
    (TrustProfile(0.6, 0.7), "TrustProfile(q=0.6, r=0.7)"),
    (SOLUTION, SOLUTION_REPR),
    (sweep_n(3, 0.5, [2, 5]),
     "CurveSamples(abscissa_name='n', ordinate_name='q_bar', "
     "points=((2, 0.5635083268963399), (5, 0.5304777185066314)))"),
    (CONFIG,
     "SimulationConfig(params=GameParams(n=5, k=3, p=0.5), "
     "profile=TrustProfile(q=0.6, r=0.7), rounds=10, seed=1)"),
    (estimate_payoff(CONFIG),
     "SimulationReport(rounds_completed=10, capped_rounds=0, focal_mean_payoff=0.075, "
     "focal_std_error=0.053359368645273735, mean_finish_turn=2.2, seed_echo=1, "
     "warning=None)"),
    (SimulationReport(10, 0, 0.25, 0.0, 1.5, 1),  # warning defaults to None
     "SimulationReport(rounds_completed=10, capped_rounds=0, focal_mean_payoff=0.25, "
     "focal_std_error=0.0, mean_finish_turn=1.5, seed_echo=1, warning=None)"),
    (SCAN, SCAN_REPR),
    (EquilibriumCheck(PARAMS, SOLUTION, SCAN, 0.0, True, -1e-17, True, True),
     f"EquilibriumCheck(params=GameParams(n=5, k=3, p=0.5), solution={SOLUTION_REPR}, "
     f"scan={SCAN_REPR}, argmax_gap=0.0, argmax_ok=True, best_payoff_excess=-1e-17, "
     "no_profitable_deviation=True, e_residual_ok=True)"),
    (ProbabilityMatchingReport(3, 0.5, (2, 5), (0.1, 0.05), 4.5, True, True, 0.05, True),
     "ProbabilityMatchingReport(k=3, p=0.5, n_values=(2, 5), gaps=(0.1, 0.05), "
     "threshold=4.5, all_gaps_positive=True, decreasing_above_threshold=True, "
     "final_gap=0.05, final_gap_ok=True)"),
    (CriterionResult(1, "figure roots", True, "ok", 0.25),
     "CriterionResult(number=1, name='figure roots', passed=True, detail='ok', "
     "elapsed=0.25)"),
    (RoundResult(0.5, [Fraction(1, 2), Fraction(1, 2)], 3),
     "RoundResult(focal_payoff=0.5, payoffs=[Fraction(1, 2), Fraction(1, 2)], "
     "finish_turn=3)"),
]
RECORD_IDS = [f"{type(record).__name__}-{i}" for i, (record, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("record,text", RECORDS, ids=RECORD_IDS)
class TestRecord:
    def test_repr(self, record, text):
        assert repr(record) == text

    def test_fields_cannot_be_assigned(self, record, text):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.no_such_field = 0

    def test_keyword_construction(self, record, text):
        assert type(record)(**record._asdict()) == record

    def test_pickle_round_trip(self, record, text):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record

    def test_hash_is_the_hash_of_the_field_values(self, record, text):
        values = tuple(getattr(record, name) for name in record._fields)
        if isinstance(record, RoundResult):  # its payoffs are a list
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(values)


# A valid record of each validating type, and a field change its constructor
# refuses.
INVALID_CHANGES = [
    (PARAMS, {"p": 0.1}),
    (PARAMS, {"n": 1}),
    (PARAMS, {"k": 0}),
    (PARAMS, {"k": 10**400}),
    (TrustProfile(0.6, 0.7), {"r": 1.5}),
    (TrustProfile(0.6, 0.7), {"q": float("nan")}),
    (CONFIG, {"rounds": 0}),
    (CONFIG, {"seed": -1}),
    (CONFIG, {"seed": 2**64}),
    (CurveSamples("n", "q_bar", ((2, 0.5), (3, 0.4))), {"points": ((3, 0.5), (2, 0.4))}),
    (CurveSamples("n", "q_bar", ((2, 0.5), (3, 0.4))), {"points": ((2, float("inf")),)}),
]


@pytest.mark.parametrize("record,change", INVALID_CHANGES)
def test_replace_and_make_validate_like_the_constructor(record, change):
    values = {**record._asdict(), **change}
    with pytest.raises(ValueError) as built:
        type(record)(**values)
    with pytest.raises(ValueError) as replaced:
        record._replace(**change)
    with pytest.raises(ValueError) as made:
        type(record)._make(values.values())
    assert str(replaced.value) == str(made.value) == str(built.value)


def test_replace_with_valid_values_keeps_the_type():
    changed = PARAMS._replace(p=0.75)
    assert type(changed) is GameParams
    assert changed == GameParams(5, 3, 0.75)


def test_a_record_is_a_tuple_of_its_values():
    assert PARAMS == (5, 3, 0.5)
    n, k, p = PARAMS
    assert (n, k, p, len(PARAMS)) == (5, 3, 0.5, 3)
