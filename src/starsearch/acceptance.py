"""Self-contained acceptance suite.

Ten numbered checks covering the whole stack: solved roots against the known
two-decimal values, the symmetric-payoff identity, the strict trust-above-
reliability property, monotone behavior in the population size and the ray
count, agreement between the closed form, the turn-by-turn series, and Monte
Carlo, brute-force equilibrium verification, the large-population best-
response trichotomy, uniqueness of the residual root, and byte determinism of
the command line.

Each check returns a CriterionResult; run_all executes them in order. quick
mode shrinks the random grids and Monte Carlo sizes for a fast smoke run and
is not the normative configuration.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from .equilibrium import residual_curve, solve_equilibrium, sweep_k, sweep_n
from .model import (
    GameParams,
    TrustProfile,
    expected_payoff,
    trust_decrease_threshold,
)
from .simulate import SimulationConfig, estimate_payoff, series_payoff
from .verify import best_response_scan, check_equilibrium

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _random_valid_p(rng: np.random.Generator, k: int, margin: float = 0.02) -> float:
    floor = 1.0 / (k + 1)
    return floor + (1.0 - floor) * rng.uniform(margin, 1.0 - margin)


def criterion_1(quick: bool = False) -> CriterionResult:
    """Solved roots match the known two-decimal values, under 1 ms each."""
    start = time.perf_counter()
    cases = [(0.5, 0.53), (2.0 / 3.0, 0.70), (3.0 / 4.0, 0.78)]
    failures = []
    details = []
    solve_equilibrium(GameParams(5, 3, 0.5))  # warm-up outside the timing
    for p, expected in cases:
        params = GameParams(5, 3, p)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            solution = solve_equilibrium(params)
            best = min(best, time.perf_counter() - t0)
        ok = abs(solution.q_bar - expected) <= 0.005 and best < 1e-3
        if not ok:
            failures.append((p, solution.q_bar, best))
        details.append(f"p={p:.4f}: q_bar={solution.q_bar:.4f} in {best * 1e6:.0f}us")
    return CriterionResult(
        1, "figure roots", not failures, "; ".join(details), time.perf_counter() - start
    )


def criterion_2(quick: bool = False) -> CriterionResult:
    """Symmetric profile pays exactly 1/n to within 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    count = 120 if quick else 500
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 101))
        k = int(rng.integers(1, 11))
        p = _random_valid_p(rng, k)
        q = float(rng.uniform(0.01, 0.99))
        payoff = expected_payoff(GameParams(n, k, p), TrustProfile(q, q))
        worst = max(worst, abs(payoff - 1.0 / n))
    return CriterionResult(
        2,
        "symmetric payoff identity",
        worst <= 1e-12,
        f"max |payoff - 1/n| = {worst:.3e} over {count} tuples",
        time.perf_counter() - start,
    )


def criterion_3(quick: bool = False) -> CriterionResult:
    """Equilibrium trust strictly exceeds reliability; zero violations."""
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    count = 100 if quick else 300
    violations = 0
    smallest = math.inf
    for _ in range(count):
        n = int(rng.integers(2, 101))
        k = int(rng.integers(1, 11))
        p = _random_valid_p(rng, k)
        gap = solve_equilibrium(GameParams(n, k, p)).q_bar - p
        smallest = min(smallest, gap)
        if gap <= 0.0:
            violations += 1
    return CriterionResult(
        3,
        "trust exceeds reliability",
        violations == 0,
        f"{violations} violations over {count} triples; smallest gap {smallest:.3e}",
        time.perf_counter() - start,
    )


def criterion_4(quick: bool = False) -> CriterionResult:
    """Trust strictly decreasing past the threshold and converging, under 10 s."""
    start = time.perf_counter()
    problems = []
    details = []
    for k, p in ((1, 0.9), (3, 0.5), (10, 0.75)):
        first = math.ceil(trust_decrease_threshold(p, k)) + 1
        values = sweep_n(k, p, range(first, first + 50)).ys
        strictly_down = all(b < a for a, b in zip(values, values[1:]))
        limit_gap = solve_equilibrium(GameParams(100_000, k, p)).q_bar - p
        converged = abs(limit_gap) < 1e-3
        if not (strictly_down and converged):
            problems.append((k, p, strictly_down, limit_gap))
        details.append(
            f"k={k},p={p}: n={first}..{first + 49} "
            f"{'down' if strictly_down else 'NOT down'}, gap(1e5)={limit_gap:.2e}"
        )
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 10.0
    return CriterionResult(
        4,
        "eventually decreasing in n",
        not problems and in_budget,
        "; ".join(details) + f"; total {elapsed:.2f}s",
        elapsed,
    )


def criterion_5(quick: bool = False) -> CriterionResult:
    """Equilibrium trust strictly increasing in the ray count."""
    start = time.perf_counter()
    ok = True
    details = []
    for n, p in ((5, 0.6), (20, 0.51)):
        values = sweep_k(n, p, range(1, 11)).ys
        increasing = all(b > a for a, b in zip(values, values[1:]))
        ok = ok and increasing
        details.append(
            f"n={n},p={p}: {'up' if increasing else 'NOT up'} "
            f"({values[0]:.4f}..{values[-1]:.4f})"
        )
    return CriterionResult(
        5, "increasing in k", ok, "; ".join(details), time.perf_counter() - start
    )


def criterion_6(quick: bool = False) -> CriterionResult:
    """Series, closed form and Monte Carlo agree on a random tuple grid."""
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    count = 12 if quick else 50
    rounds = 100_000 if quick else 1_000_000
    worst_series = 0.0
    worst_z = 0.0
    failures = 0
    for i in range(count):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, 6))
        p = _random_valid_p(rng, k, margin=0.05)
        q = float(rng.uniform(0.2, 0.85))
        r = float(rng.uniform(0.05, 0.95))
        params = GameParams(n, k, p)
        profile = TrustProfile(q, r)
        exact = expected_payoff(params, profile)
        series_gap = abs(series_payoff(params, profile) - exact)
        worst_series = max(worst_series, series_gap)
        report = estimate_payoff(
            SimulationConfig(params, profile, rounds=rounds, seed=60_000 + i)
        )
        z = abs(report.focal_mean_payoff - exact) / report.focal_std_error
        worst_z = max(worst_z, z)
        if series_gap >= 1e-10 or z >= 4.0 or report.capped_rounds:
            failures += 1
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 60.0
    return CriterionResult(
        6,
        "oracle triangle",
        failures == 0 and in_budget,
        f"{count} tuples x {rounds} rounds: max series gap {worst_series:.2e}, "
        f"max |z| {worst_z:.2f}, total {elapsed:.1f}s",
        elapsed,
    )


def criterion_7(quick: bool = False) -> CriterionResult:
    """Brute-force equilibrium verification at the reference instances."""
    start = time.perf_counter()
    rounds = 100_000 if quick else 1_000_000
    ok = True
    details = []
    for i, (n, k, p) in enumerate(
        ((5, 3, 0.5), (5, 3, 2.0 / 3.0), (5, 3, 0.75), (2, 1, 2.0 / 3.0))
    ):
        params = GameParams(n, k, p)
        check = check_equilibrium(params, payoff_tol=1e-9)
        q_bar = check.solution.q_bar
        report = estimate_payoff(
            SimulationConfig(
                params, TrustProfile(q_bar, q_bar), rounds=rounds, seed=70_000 + i
            )
        )
        z = abs(report.focal_mean_payoff - 1.0 / n) / report.focal_std_error
        case_ok = check.passed and z < 3.0
        ok = ok and case_ok
        details.append(
            f"({n},{k},{p:.3f}): q_bar={q_bar:.4f} "
            f"excess={check.best_payoff_excess:.1e} z={z:.2f}"
            + ("" if case_ok else " FAIL")
        )
    return CriterionResult(
        7,
        "equilibrium verification",
        ok,
        "; ".join(details),
        time.perf_counter() - start,
    )


def criterion_8(quick: bool = False) -> CriterionResult:
    """Large-population best response: all-or-nothing away from matching."""
    start = time.perf_counter()
    params = GameParams(1000, 3, 0.5)
    step = 1.0 / 2000
    high = best_response_scan(params, 0.6).argmax_r
    low = best_response_scan(params, 0.4).argmax_r
    matched = best_response_scan(params, 0.5).argmax_r
    ok = high == 0.0 and low == 1.0 and abs(matched - 0.5) <= step
    return CriterionResult(
        8,
        "best-response trichotomy",
        ok,
        f"argmax(q=0.6)={high}, argmax(q=0.4)={low}, argmax(q=0.5)={matched}",
        time.perf_counter() - start,
    )


def _sign_changes(values: tuple[float, ...]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def criterion_9(quick: bool = False) -> CriterionResult:
    """The residual has exactly one interior sign change, at the solved root."""
    start = time.perf_counter()
    rng = np.random.default_rng(1009)
    count = 60 if quick else 200
    bad = 0
    for _ in range(count):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 11))
        p = _random_valid_p(rng, k)
        params = GameParams(n, k, p)
        lo = 1.0 / (k + 1) + 1e-6
        hi = 1.0 - 1e-6
        curve = residual_curve(params, lo, hi, 2000)
        ys = curve.ys
        if _sign_changes(ys) != 1:
            bad += 1
            continue
        crossing = next(
            curve.xs[i]
            for i in range(len(ys) - 1)
            if (ys[i] > 0.0 >= ys[i + 1]) or (ys[i] <= 0.0 < ys[i + 1])
        )
        spacing = (hi - lo) / 1999
        if abs(crossing - solve_equilibrium(params).q_bar) > spacing:
            bad += 1
    return CriterionResult(
        9,
        "unique residual root",
        bad == 0,
        f"{bad} of {count} grids failed the single-crossing check",
        time.perf_counter() - start,
    )


def _cli_bytes(args: list[str]) -> bytes:
    # The child runs this package's CLI, whether or not it is on the inherited
    # PYTHONPATH (as under pytest's pythonpath setting).
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = (package_root, os.environ.get("PYTHONPATH"))
    proc = subprocess.run(
        [sys.executable, "-m", "starsearch", *args],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    return proc.stdout


def criterion_10(quick: bool = False) -> CriterionResult:
    """Repeated CLI invocations produce byte-identical output."""
    start = time.perf_counter()
    rounds = "20000" if quick else "100000"
    simulate_args = [
        "simulate", "--n", "2", "--k", "1", "--p", "0.6667",
        "--q", "0.7", "--rounds", rounds, "--seed", "42",
    ]
    solve_args = ["solve", "--n", "5", "--k", "3", "--p", "0.5"]
    sim_same = _cli_bytes(simulate_args) == _cli_bytes(simulate_args)
    solve_same = _cli_bytes(solve_args) == _cli_bytes(solve_args)
    return CriterionResult(
        10,
        "byte determinism",
        sim_same and solve_same,
        f"simulate identical: {sim_same}; solve identical: {solve_same}",
        time.perf_counter() - start,
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Run every acceptance criterion in order."""
    return [criterion(quick=quick) for criterion in CRITERIA]
