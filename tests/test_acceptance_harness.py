"""The harness behind the acceptance criteria: registration, budgets, quick mode."""

from starsearch import acceptance


def test_criteria_registered_in_order():
    expected = tuple(getattr(acceptance, f"criterion_{i}") for i in range(1, 11))
    assert acceptance.CRITERIA == expected
    assert [c.__name__ for c in acceptance.CRITERIA] == [
        f"criterion_{i}" for i in range(1, 11)
    ]


def test_quick_run_passes_at_the_quick_sizes():
    results = acceptance.run_all(quick=True)
    assert [r.number for r in results] == list(range(1, 11))
    failed = [(r.number, r.detail) for r in results if not r.passed]
    assert not failed
    detail = {r.number: r.detail for r in results}
    assert detail[2].endswith("over 120 tuples")
    assert "over 100 triples" in detail[3]
    assert detail[6].startswith("12 tuples x 100000 rounds")
    assert detail[9] == "0 of 60 grids failed the single-crossing check"


def test_budget_fails_a_slow_check_and_reports_the_total(monkeypatch):
    monkeypatch.setattr(acceptance, "_CRITERIA", [])
    seen = []

    @acceptance._criterion("unbudgeted")
    def first(quick):
        seen.append(quick)
        yield True, "fine"
        yield True, "also fine"

    @acceptance._criterion("over budget", budget_s=0.0)
    def second(quick):
        yield True, "fine"

    assert acceptance._CRITERIA == [first, second]
    plain = first(quick=True)
    assert (plain.number, plain.name, plain.passed, plain.detail) == (
        1, "unbudgeted", True, "fine; also fine",
    )
    assert seen == [True]
    late = second()
    assert (late.number, late.name, late.passed) == (2, "over budget", False)
    assert late.detail.startswith("fine; total ")
    assert late.elapsed >= 0.0
