"""The harness behind the acceptance criteria: registration, running, budgets,
and the faults that criteria 9 and 10 must report as failures."""

import subprocess
from types import SimpleNamespace

import numpy as np
import pytest

from starsearch import acceptance, equilibrium
from starsearch.equilibrium import residual_curve


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


def test_criterion_9_reads_the_residual_curves_points(monkeypatch):
    grids = []  # the arguments and arrays of each grid criterion 9 reads
    real = acceptance._residual_sampler

    def recording(*args):
        sample = real(*args)

        def grid():
            grids.append((args, sample.grid()))
            return grids[-1][1]

        return SimpleNamespace(grid=grid)

    monkeypatch.setattr(acceptance, "_residual_sampler", recording)
    result = acceptance.criterion_9()
    assert result.passed
    assert len(grids) == 200
    for i in np.random.default_rng(9).choice(len(grids), 20, replace=False):
        args, (xs, ys) = grids[i]
        assert args[3] == 2000
        points = np.array(residual_curve(*args).points)
        assert np.array_equal(np.stack([xs, ys], axis=1).view(np.int64),
                              points.view(np.int64))


def test_criterion_9_fails_grids_with_two_sign_changes(monkeypatch):
    real = equilibrium._residual

    def flipped(k, p, q, landing):
        values = real(k, p, q, landing)
        if isinstance(values, np.ndarray):  # a grid, not a scalar solve
            values = values.copy()
            values[-20:] *= -1.0
        return values

    monkeypatch.setattr(equilibrium, "_residual", flipped)
    result = acceptance.criterion_9()
    assert result.passed is False
    assert result.detail == "200 of 200 grids failed the single-crossing check"


def test_criterion_9_fails_a_crossing_two_spacings_from_q_bar(monkeypatch):
    real = acceptance.solve_equilibrium

    def shifted(params):
        solution = real(params)
        spacing = (1.0 - 1e-6 - (1.0 / (params.k + 1) + 1e-6)) / 1999
        return solution._replace(q_bar=solution.q_bar + 2 * spacing)

    monkeypatch.setattr(acceptance, "solve_equilibrium", shifted)
    result = acceptance.criterion_9()
    assert result.passed is False
    assert result.detail == "200 of 200 grids failed the single-crossing check"


def test_criterion_10_fails_on_a_failing_child(monkeypatch):
    def failing(argv, check=False, **kwargs):
        if check:
            raise subprocess.CalledProcessError(3, argv)
        return subprocess.CompletedProcess(
            argv, 3, b"", b"Traceback (most recent call last):\nRuntimeError: boom\n")

    monkeypatch.setattr(acceptance.subprocess, "run", failing)
    result = acceptance.criterion_10()
    assert result.passed is False
    assert result.detail == (
        "starsearch simulate --n 2 --k 1 --p 0.6667 --q 0.7 --rounds 100000"
        " --seed 42 exited 3: RuntimeError: boom"
    )
