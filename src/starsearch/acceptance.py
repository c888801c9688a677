"""Self-contained acceptance suite.

Ten numbered checks covering the whole stack: solved roots against the known
two-decimal values, the symmetric-payoff identity, the strict trust-above-
reliability property, monotone behavior in the population size and the ray
count, agreement between the closed form, the turn-by-turn series, and Monte
Carlo, brute-force equilibrium verification, the large-population best-
response trichotomy, uniqueness of the residual root, and byte determinism of
the command line.

Each check is registered in order by the _criterion decorator, which times
it, combines the verdicts it yields, applies its wall-time budget if it has
one, and returns a CriterionResult; run_all executes them in order.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from collections import namedtuple
from collections.abc import Iterator

import numpy as np

from .equilibrium import _residual_sampler, solve_equilibrium, sweep_k, sweep_n
from .model import (
    GameParams,
    TrustProfile,
    expected_payoff,
    trust_decrease_threshold,
)
from .simulate import SimulationConfig, estimate_payoff, series_payoff
from .verify import best_response_scan, check_equilibrium

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


class CriterionResult(namedtuple("CriterionResult", "number name passed detail elapsed")):
    __slots__ = ()


_CRITERIA = []


def _criterion(name: str, budget_s: float | None = None):
    """Register a check as the next numbered criterion.

    The check yields (passed, detail) verdicts, one per case. The criterion
    times it and passes when every verdict does, with the details joined by
    "; "; with a budget it fails at budget_s seconds or more, and its detail
    ends with the total time.
    """

    def register(check):
        number = len(_CRITERIA) + 1

        def criterion() -> CriterionResult:
            start = time.perf_counter()
            verdicts = list(check())
            elapsed = time.perf_counter() - start
            passed = all(ok for ok, _ in verdicts)
            detail = "; ".join(text for _, text in verdicts)
            if budget_s is not None:
                passed = passed and elapsed < budget_s
                detail += f"; total {elapsed:.2f}s"
            return CriterionResult(number, name, passed, detail, elapsed)

        criterion.__name__ = criterion.__qualname__ = check.__name__
        criterion.__doc__ = check.__doc__
        _CRITERIA.append(criterion)
        return criterion

    return register


def _random_game(
    rng: np.random.Generator, n_max: int, k_max: int, margin: float = 0.02
) -> GameParams:
    """n in 2..n_max, k in 1..k_max and p inside (1/(k+1), 1), drawn in that order."""
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    floor = 1.0 / (k + 1)
    return GameParams(n, k, floor + (1.0 - floor) * rng.uniform(margin, 1.0 - margin))


@_criterion("figure roots")
def criterion_1() -> Iterator[tuple[bool, str]]:
    """Solved roots match the known two-decimal values, under 1 ms each."""
    cases = [(0.5, 0.53), (2.0 / 3.0, 0.70), (3.0 / 4.0, 0.78)]
    solve_equilibrium(GameParams(5, 3, 0.5))  # warm-up outside the timing
    for p, expected in cases:
        params = GameParams(5, 3, p)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            solution = solve_equilibrium(params)
            best = min(best, time.perf_counter() - t0)
        yield abs(solution.q_bar - expected) <= 0.005 and best < 1e-3, (
            f"p={p:.4f}: q_bar={solution.q_bar:.4f} in {best * 1e6:.0f}us"
        )


@_criterion("symmetric payoff identity")
def criterion_2() -> Iterator[tuple[bool, str]]:
    """Symmetric profile pays exactly 1/n to within 1e-12."""
    rng = np.random.default_rng(1002)
    count = 500
    worst = 0.0
    for _ in range(count):
        params = _random_game(rng, 100, 10)
        q = float(rng.uniform(0.01, 0.99))
        payoff = expected_payoff(params, TrustProfile(q, q))
        worst = max(worst, abs(payoff - 1.0 / params.n))
    yield worst <= 1e-12, f"max |payoff - 1/n| = {worst:.3e} over {count} tuples"


@_criterion("trust exceeds reliability")
def criterion_3() -> Iterator[tuple[bool, str]]:
    """Equilibrium trust strictly exceeds reliability; zero violations."""
    rng = np.random.default_rng(1003)
    count = 300
    violations = 0
    smallest = math.inf
    for _ in range(count):
        params = _random_game(rng, 100, 10)
        gap = solve_equilibrium(params).q_bar - params.p
        smallest = min(smallest, gap)
        if gap <= 0.0:
            violations += 1
    yield violations == 0, (
        f"{violations} violations over {count} triples; smallest gap {smallest:.3e}"
    )


@_criterion("eventually decreasing in n", budget_s=10.0)
def criterion_4() -> Iterator[tuple[bool, str]]:
    """Trust strictly decreasing past the threshold and converging, under 10 s."""
    for k, p in ((1, 0.9), (3, 0.5), (10, 0.75)):
        first = math.ceil(trust_decrease_threshold(p, k)) + 1
        values = sweep_n(k, p, range(first, first + 50)).ys
        strictly_down = all(b < a for a, b in zip(values, values[1:]))
        limit_gap = solve_equilibrium(GameParams(100_000, k, p)).q_bar - p
        yield strictly_down and abs(limit_gap) < 1e-3, (
            f"k={k},p={p}: n={first}..{first + 49} "
            f"{'down' if strictly_down else 'NOT down'}, gap(1e5)={limit_gap:.2e}"
        )


@_criterion("increasing in k")
def criterion_5() -> Iterator[tuple[bool, str]]:
    """Equilibrium trust strictly increasing in the ray count."""
    for n, p in ((5, 0.6), (20, 0.51)):
        values = sweep_k(n, p, range(1, 11)).ys
        increasing = all(b > a for a, b in zip(values, values[1:]))
        yield increasing, (
            f"n={n},p={p}: {'up' if increasing else 'NOT up'} "
            f"({values[0]:.4f}..{values[-1]:.4f})"
        )


@_criterion("oracle triangle", budget_s=60.0)
def criterion_6() -> Iterator[tuple[bool, str]]:
    """Series, closed form and Monte Carlo agree on a random tuple grid, under 60 s."""
    rng = np.random.default_rng(1006)
    count = 50
    rounds = 1_000_000
    worst_series = 0.0
    worst_z = 0.0
    ok = True
    for i in range(count):
        params = _random_game(rng, 10, 5, margin=0.05)
        q = float(rng.uniform(0.2, 0.85))
        r = float(rng.uniform(0.05, 0.95))
        profile = TrustProfile(q, r)
        exact = expected_payoff(params, profile)
        series_gap = abs(series_payoff(params, profile) - exact)
        worst_series = max(worst_series, series_gap)
        report = estimate_payoff(
            SimulationConfig(params, profile, rounds=rounds, seed=60_000 + i)
        )
        z = abs(report.focal_mean_payoff - exact) / report.focal_std_error
        worst_z = max(worst_z, z)
        ok = ok and series_gap < 1e-10 and z < 4.0 and not report.capped_rounds
    yield ok, (
        f"{count} tuples x {rounds} rounds: max series gap {worst_series:.2e}, "
        f"max |z| {worst_z:.2f}"
    )


@_criterion("equilibrium verification")
def criterion_7() -> Iterator[tuple[bool, str]]:
    """Brute-force equilibrium verification at the reference instances."""
    for i, (n, k, p) in enumerate(
        ((5, 3, 0.5), (5, 3, 2.0 / 3.0), (5, 3, 0.75), (2, 1, 2.0 / 3.0))
    ):
        params = GameParams(n, k, p)
        check = check_equilibrium(params)
        q_bar = check.solution.q_bar
        report = estimate_payoff(
            SimulationConfig(
                params, TrustProfile(q_bar, q_bar), rounds=1_000_000, seed=70_000 + i
            )
        )
        z = abs(report.focal_mean_payoff - 1.0 / n) / report.focal_std_error
        case_ok = check.passed and z < 3.0
        yield case_ok, (
            f"({n},{k},{p:.3f}): q_bar={q_bar:.4f} "
            f"excess={check.best_payoff_excess:.1e} z={z:.2f}"
            + ("" if case_ok else " FAIL")
        )


@_criterion("best-response trichotomy")
def criterion_8() -> Iterator[tuple[bool, str]]:
    """Large-population best response: all-or-nothing away from matching."""
    params = GameParams(1000, 3, 0.5)
    step = 1.0 / 2000
    high = best_response_scan(params, 0.6).argmax_r
    low = best_response_scan(params, 0.4).argmax_r
    matched = best_response_scan(params, 0.5).argmax_r
    ok = high == 0.0 and low == 1.0 and abs(matched - 0.5) <= step
    yield ok, f"argmax(q=0.6)={high}, argmax(q=0.4)={low}, argmax(q=0.5)={matched}"


def _sign_changes(values: np.ndarray) -> int:
    """Sign changes along the array values, exact zeros skipped."""
    positive = values[values != 0.0] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


@_criterion("unique residual root")
def criterion_9() -> Iterator[tuple[bool, str]]:
    """The residual has exactly one interior sign change, at the solved root."""
    rng = np.random.default_rng(1009)
    count = 200
    bad = 0
    for _ in range(count):
        params = _random_game(rng, 50, 10)
        lo = 1.0 / (params.k + 1) + 1e-6
        hi = 1.0 - 1e-6
        xs, ys = _residual_sampler(params, lo, hi, 2000).grid()
        if _sign_changes(ys) != 1:
            bad += 1
            continue
        # The first step between a positive value and one <= 0, either way.
        positive = ys > 0.0
        crossing = xs[np.argmax(positive[:-1] != positive[1:])]
        spacing = (hi - lo) / 1999
        if abs(crossing - solve_equilibrium(params).q_bar) > spacing:
            bad += 1
    yield bad == 0, f"{bad} of {count} grids failed the single-crossing check"


@_criterion("byte determinism")
def criterion_10() -> Iterator[tuple[bool, str]]:
    """Repeated CLI invocations produce byte-identical output."""
    # The child runs this package's CLI, whether or not it is on the inherited
    # PYTHONPATH (as under pytest's pythonpath setting).
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = (package_root, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    simulate_args = [
        "simulate", "--n", "2", "--k", "1", "--p", "0.6667",
        "--q", "0.7", "--rounds", "100000", "--seed", "42",
    ]
    solve_args = ["solve", "--n", "5", "--k", "3", "--p", "0.5"]
    outputs = []
    for args in (simulate_args, simulate_args, solve_args, solve_args):
        proc = subprocess.run(
            [sys.executable, "-m", "starsearch", *args], capture_output=True, env=env
        )
        if proc.returncode:  # a failed check, named with its last stderr line
            last = (proc.stderr.decode(errors="replace").splitlines() or ["no stderr"])[-1]
            yield False, f"starsearch {' '.join(args)} exited {proc.returncode}: {last}"
            return
        outputs.append(proc.stdout)
    sim_same, solve_same = outputs[0] == outputs[1], outputs[2] == outputs[3]
    yield sim_same and solve_same, (
        f"simulate identical: {sim_same}; solve identical: {solve_same}"
    )


CRITERIA = tuple(_CRITERIA)


def run_all() -> list[CriterionResult]:
    """Run every acceptance criterion in order."""
    return [criterion() for criterion in CRITERIA]
