"""Brute-force equilibrium verification.

Nothing here trusts the solver: best-response scans maximize the payoff over
a dense deviation grid, equilibrium checks confirm that no scanned deviation
beats the symmetric share, and the probability-matching check watches the
equilibrium trust sink toward the pointer reliability as the population
grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .equilibrium import _GRID_BITS, EquilibriumSolution, solve_equilibrium, sweep_n
from .model import (
    GameParams,
    _as_int,
    _as_probability,
    _payoff,
    _require_interior_q,
    trust_decrease_threshold,
)

__all__ = [
    "BestResponseScan",
    "EquilibriumCheck",
    "ProbabilityMatchingReport",
    "best_response_scan",
    "check_equilibrium",
    "check_probability_matching",
]

# Payoffs within this many ulps of the scan maximum count as tied. The payoff
# is strictly concave in the deviation trust, so ties form an interval around
# the true maximizer; reporting the middle of that interval keeps the argmax
# meaningful even where the curve is flat to double precision (population
# trust equal to reliability at large n).
_TIE_ULPS = 64.0


@dataclass(frozen=True)
class BestResponseScan:
    """Payoff of every scanned deviation against a fixed population trust."""

    q_fixed: float
    grid: tuple[tuple[float, float], ...]
    argmax_r: float
    max_payoff: float


@dataclass(frozen=True)
class EquilibriumCheck:
    """Pass/fail record for the three equilibrium assertions."""

    params: GameParams
    solution: EquilibriumSolution
    scan: BestResponseScan
    argmax_gap: float
    argmax_ok: bool
    best_payoff_excess: float
    no_profitable_deviation: bool
    e_residual_ok: bool

    @property
    def passed(self) -> bool:
        return self.argmax_ok and self.no_profitable_deviation and self.e_residual_ok


@dataclass(frozen=True)
class ProbabilityMatchingReport:
    """Trust-minus-reliability gaps along a population sweep."""

    k: int
    p: float
    n_values: tuple[int, ...]
    gaps: tuple[float, ...]
    threshold: float
    all_gaps_positive: bool
    decreasing_above_threshold: bool
    final_gap: float
    final_gap_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.all_gaps_positive
            and self.decreasing_above_threshold
            and self.final_gap_ok
        )


def best_response_scan(
    params: GameParams, q: float, r_steps: int = 2001
) -> BestResponseScan:
    """Evaluate the focal payoff on a uniform deviation grid over [0, 1].

    The payoff is continuous in the deviation trust r including both
    endpoints, so the full closed interval is scanned. Grid points whose
    payoff sits within a few ulps of the maximum are treated as tied and the
    middle of the tying range is reported (see _TIE_ULPS). Every grid value
    is the one expected_payoff gives at that r, to the bit.
    """
    q = _as_probability(q, "q")
    _require_interior_q(q)
    r_steps = _as_int(r_steps, "r_steps", 2)
    import numpy as np

    r = np.linspace(0.0, 1.0, r_steps)
    payoff = _payoff(params.n, params.k, params.p, q, r)
    peak = float(payoff.max())
    tie_tol = _TIE_ULPS * np.finfo(float).eps * abs(peak)
    tied = np.nonzero(payoff >= peak - tie_tol)[0]
    best = int((tied[0] + tied[-1]) // 2)
    return BestResponseScan(
        q_fixed=q,
        grid=tuple(zip(r.tolist(), payoff.tolist())),
        argmax_r=float(r[best]),
        max_payoff=float(payoff[best]),
    )


# check_equilibrium's bounds: on the best scanned payoff above the symmetric
# share 1/n, and on the equilibrium residual at the solved trust. Then
# check_probability_matching's bound on the gap q_bar - p at the largest n.
_PAYOFF_TOL = 1e-9
_RESIDUAL_TOL = 1e-10
_FINAL_GAP_TOL = 1e-3


def check_equilibrium(params: GameParams) -> EquilibriumCheck:
    """Solve, then verify the solution by brute force.

    Asserts that (a) the scanned best response lands within one grid step of
    the solved trust, (b) no scanned deviation earns more than the symmetric
    share 1/n plus _PAYOFF_TOL, and (c) the equilibrium residual at the
    solution is at most _RESIDUAL_TOL. Failures are recorded, not raised.
    """
    solution = solve_equilibrium(params)
    scan = best_response_scan(params, solution.q_bar)
    spacing = 1.0 / (len(scan.grid) - 1)
    argmax_gap = abs(scan.argmax_r - solution.q_bar)
    excess = scan.max_payoff - 1.0 / params.n
    return EquilibriumCheck(
        params=params,
        solution=solution,
        scan=scan,
        argmax_gap=argmax_gap,
        argmax_ok=argmax_gap <= spacing,
        best_payoff_excess=excess,
        no_profitable_deviation=excess <= _PAYOFF_TOL,
        e_residual_ok=solution.e_residual <= _RESIDUAL_TOL,
    )


def check_probability_matching(
    k: int, p: float, n_values: Iterable[int]
) -> ProbabilityMatchingReport:
    """Check that equilibrium trust stays above p and sinks toward it.

    For each population size the gap q_bar(n) - p must be strictly positive;
    between consecutive entries that both exceed the decrease threshold the
    gap must not grow by more than one cell of the solver's grid,
    2**_GRID_BITS ulps of the earlier q_bar (consecutive roots are only
    located to a cell, so smaller decreases cannot be resolved); and the
    final gap must fall below _FINAL_GAP_TOL.
    """
    curve = sweep_n(k, p, n_values)
    ns, q_bars = curve.xs, curve.ys
    threshold = trust_decrease_threshold(p, k)
    decreasing = all(
        later <= earlier + 2.0**_GRID_BITS * math.ulp(earlier)
        for n, earlier, later in zip(ns, q_bars, q_bars[1:])
        if n > threshold
    )
    gaps = tuple(q_bar - p for q_bar in q_bars)
    return ProbabilityMatchingReport(
        k=k,
        p=float(p),
        n_values=ns,
        gaps=gaps,
        threshold=threshold,
        all_gaps_positive=all(g > 0.0 for g in gaps),
        decreasing_above_threshold=decreasing,
        final_gap=gaps[-1],
        final_gap_ok=gaps[-1] < _FINAL_GAP_TOL,
    )
