"""Brute-force equilibrium verification.

Nothing here trusts the solver: best-response scans maximize the payoff over
a dense deviation grid, equilibrium checks confirm that no scanned deviation
beats the symmetric share, and the probability-matching check watches the
equilibrium trust sink toward the pointer reliability as the population
grows.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable

from .equilibrium import _GRID_BITS, solve_equilibrium, sweep_n
from .model import (
    GameParams,
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
# Deviations scanned, both ends of [0, 1] included.
_R_STEPS = 2001


class BestResponseScan(namedtuple("BestResponseScan", "q_fixed grid argmax_r max_payoff")):
    """Payoff of every scanned deviation against a fixed population trust:
    grid holds the (r, payoff) pairs."""

    __slots__ = ()


class EquilibriumCheck(namedtuple("EquilibriumCheck", "params solution scan argmax_gap"
                                  " argmax_ok best_payoff_excess no_profitable_deviation"
                                  " e_residual_ok")):
    """Pass/fail record for the three equilibrium assertions."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.argmax_ok and self.no_profitable_deviation and self.e_residual_ok


class ProbabilityMatchingReport(namedtuple("ProbabilityMatchingReport", "k p n_values gaps"
                                           " threshold all_gaps_positive"
                                           " decreasing_above_threshold final_gap"
                                           " final_gap_ok")):
    """Trust-minus-reliability gaps along a population sweep."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.all_gaps_positive
            and self.decreasing_above_threshold
            and self.final_gap_ok
        )


def best_response_scan(params: GameParams, q: float) -> BestResponseScan:
    """Evaluate the focal payoff on _R_STEPS evenly spaced deviations over
    [0, 1].

    The payoff is continuous in the deviation trust r including both
    endpoints, so the full closed interval is scanned. Grid points whose
    payoff sits within a few ulps of the maximum are treated as tied and the
    middle of the tying range is reported (see _TIE_ULPS). Every grid value
    is the one expected_payoff gives at that r, to the bit.
    """
    q = _as_probability(q, "q")
    _require_interior_q(q)
    # numpy.linspace(0, 1, _R_STEPS)'s points: i times the step, then 1.0.
    step = 1.0 / (_R_STEPS - 1)
    r = [i * step for i in range(_R_STEPS - 1)]
    r.append(1.0)
    payoff = list(map(_payoff(params.n, params.k, params.p, q), r))
    peak = max(payoff)
    tie_tol = _TIE_ULPS * sys.float_info.epsilon * abs(peak)
    tied = [i for i, value in enumerate(payoff) if value >= peak - tie_tol]
    best = (tied[0] + tied[-1]) // 2
    return BestResponseScan(
        q_fixed=q,
        grid=tuple(zip(r, payoff)),
        argmax_r=r[best],
        max_payoff=payoff[best],
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
    The payoff is undefined at q = 1, so where q_bar is 1.0 the scan runs
    against bracket_lo, the other end of the root's cell.
    """
    solution = solve_equilibrium(params)
    q = solution.q_bar if solution.q_bar < 1.0 else solution.bracket_lo
    scan = best_response_scan(params, q)
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
