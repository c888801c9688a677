"""The harness behind the acceptance criteria: registration, running, budgets."""

import numpy as np
import pytest

from starsearch import acceptance


def test_criteria_registered_in_order():
    expected = tuple(getattr(acceptance, f"criterion_{i}") for i in range(1, 11))
    assert acceptance.CRITERIA == expected
    assert [c.__name__ for c in acceptance.CRITERIA] == [
        f"criterion_{i}" for i in range(1, 11)
    ]


def test_run_all_calls_every_criterion_once_in_order(monkeypatch):
    # Stubs stand in for the checks; tests/test_acceptance.py runs the real
    # ones at their sizes.
    calls = []

    def stub(number):
        def criterion():
            calls.append(number)
            return acceptance.CriterionResult(number, "stub", True, "", 0.0)
        return criterion

    monkeypatch.setattr(acceptance, "CRITERIA", tuple(map(stub, range(1, 11))))
    results = acceptance.run_all()
    assert calls == list(range(1, 11))
    assert [r.number for r in results] == list(range(1, 11))


def test_budget_fails_a_slow_check_and_reports_the_total(monkeypatch):
    monkeypatch.setattr(acceptance, "_CRITERIA", [])
    seen = []

    @acceptance._criterion("unbudgeted")
    def first():
        seen.append("ran")
        yield True, "fine"
        yield True, "also fine"

    @acceptance._criterion("over budget", budget_s=0.0)
    def second():
        yield True, "fine"

    assert acceptance._CRITERIA == [first, second]
    plain = first()
    assert (plain.number, plain.name, plain.passed, plain.detail) == (
        1, "unbudgeted", True, "fine; also fine",
    )
    assert seen == ["ran"]
    late = second()
    assert (late.number, late.name, late.passed) == (2, "over budget", False)
    assert late.detail.startswith("fine; total ")
    assert late.elapsed >= 0.0


def _python_sign_changes(values):
    """The count criterion 9 made before it took arrays, exact zeros skipped."""
    signs = [1 if v > 0 else -1 for v in values if v != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@pytest.mark.parametrize("values", [
    (0.0, 0.0, 1.0, 0.0, -2.0, 0.0),
    (-0.0, 3.0, 0.0, 0.0, 2.0, -1.0, 0.0, -0.0),
    (1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0),
    (0.0, -5e-324, 5e-324, 0.0),
    (0.0, 0.0, 0.0),
    (0.0,),
    (),
    (2.0, 1.0, 0.5),
])
def test_sign_changes_count_as_the_python_loop_did(values):
    count = acceptance._sign_changes(np.array(values, dtype=float))
    assert count == _python_sign_changes(values)
    assert isinstance(count, int)
