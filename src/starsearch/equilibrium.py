"""Equilibrium solver and curve sampling.

Root finding runs on the reliability map rather than the raw residual: the
map is strictly increasing on (1/(k+1), 1), so plain bisection inherits a
correctness guarantee, whereas the residual has a second, spurious zero at
q = 1. Curve samplers back the standard pictures: residual curves crossing
zero at the equilibrium, the reliability map against the diagonal, and
equilibrium-trust sweeps in the population size and the ray count.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .model import (
    GameParams,
    _as_int,
    _as_probability,
    _reliability_excess,
    equilibrium_residual,
    reliability_from_trust,
)

__all__ = [
    "EquilibriumSolution",
    "CurveSamples",
    "SolverError",
    "solve_equilibrium",
    "residual_curve",
    "reliability_curve",
    "sweep_n",
    "sweep_k",
]

# Offset of the bisection bracket from the open-interval endpoints, where the
# reliability map only attains its limits.
_BRACKET_MARGIN = 1e-9


class SolverError(RuntimeError):
    """Internal solver failure that validated parameters should never trigger."""


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium trust plus solver diagnostics."""

    q_bar: float
    residual: float
    e_residual: float
    iterations: int
    bracket_lo: float
    bracket_hi: float


@dataclass(frozen=True)
class CurveSamples:
    """Ordered (abscissa, ordinate) pairs, e.g. for writing figure data."""

    abscissa_name: str
    ordinate_name: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        xs = [x for x, _ in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("abscissa values must be strictly increasing")
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in self.points):
            raise ValueError("curve values must be finite")

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.points)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(y for _, y in self.points)


def solve_equilibrium(
    params: GameParams, q_tol: float = 1e-12, max_iter: int = 200
) -> EquilibriumSolution:
    """Find the unique symmetric-equilibrium trust by bisection.

    Brackets [1/(k+1) + 1e-9, 1 - 1e-9] and halves until the bracket is
    narrower than q_tol. Deterministic: identical inputs give bit-identical
    solutions.

    The reported trust is the upper end of the final bracket. The bracket
    always satisfies excess(lo) <= 0 < excess(hi) with a sign function that
    is reliable down to the floating-point grid, so the true root lies in
    (lo, hi] and the strict inequality q_bar > p survives rounding: for very
    large populations the true gap can be far below double precision, and a
    bracket midpoint would land on either side of p.

    Raises SolverError if the bracket endpoints do not straddle the root
    (possible only when p sits within about 1e-9 of its domain boundary) or
    if max_iter bisections cannot reach q_tol.
    """
    if not q_tol > 0.0:
        raise ValueError("q_tol must be positive")
    max_iter = _as_int(max_iter, "max_iter", 1)
    n, k, p = params.n, params.k, params.p
    lo = 1.0 / (k + 1) + _BRACKET_MARGIN
    hi = 1.0 - _BRACKET_MARGIN
    f_lo = _reliability_excess(n, k, p, lo)
    f_hi = _reliability_excess(n, k, p, hi)
    if not (f_lo < 0.0 < f_hi):
        raise SolverError(
            "internal error: no sign change across the bisection bracket "
            f"[{lo!r}, {hi!r}] for n={n}, k={k}, p={p!r}; "
            "p is too close to its domain boundary"
        )
    # Aim a little below q_tol so the residual in reliability units also
    # lands within q_tol (the map's slope stays of order one).
    width_target = 0.25 * q_tol
    iterations = 0
    while hi - lo > width_target:
        if iterations >= max_iter:
            raise SolverError(
                f"internal error: bisection did not reach tolerance {q_tol!r} "
                f"after {max_iter} iterations; best bracket [{lo!r}, {hi!r}]"
            )
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # bracket already at the resolution of the float grid
        if _reliability_excess(n, k, p, mid) > 0.0:
            hi = mid
        else:
            lo = mid
        iterations += 1
    q_bar = hi
    residual = abs(reliability_from_trust(n, k, q_bar) - p)
    e_residual = abs(equilibrium_residual(params, q_bar))
    return EquilibriumSolution(
        q_bar=q_bar,
        residual=residual,
        e_residual=e_residual,
        iterations=iterations,
        bracket_lo=lo,
        bracket_hi=hi,
    )


def _uniform_grid(lo: float, hi: float, steps: int) -> list[float]:
    last = steps - 1
    return [lo * (1.0 - i / last) + hi * (i / last) for i in range(steps)]


def residual_curve(
    params: GameParams, q_lo: float, q_hi: float, steps: int
) -> CurveSamples:
    """Equilibrium residual sampled on a uniform trust grid (endpoints included)."""
    q_lo = _as_probability(q_lo, "q_lo")
    q_hi = _as_probability(q_hi, "q_hi")
    steps = _as_int(steps, "steps", 2)
    if not 0.0 <= q_lo < q_hi <= 1.0:
        raise ValueError("need 0 <= q_lo < q_hi <= 1")
    points = tuple(
        (q, equilibrium_residual(params, q)) for q in _uniform_grid(q_lo, q_hi, steps)
    )
    return CurveSamples("q", "E", points)


def reliability_curve(
    n: int, k: int, q_lo: float, q_hi: float, steps: int
) -> CurveSamples:
    """Reliability map sampled on a uniform trust grid inside its open domain."""
    n = _as_int(n, "n", 2)
    k = _as_int(k, "k", 1)
    q_lo = _as_probability(q_lo, "q_lo")
    q_hi = _as_probability(q_hi, "q_hi")
    steps = _as_int(steps, "steps", 2)
    if not 1.0 / (k + 1) < q_lo < q_hi < 1.0:
        raise ValueError("need 1/(k+1) < q_lo < q_hi < 1")
    points = tuple(
        (q, reliability_from_trust(n, k, q)) for q in _uniform_grid(q_lo, q_hi, steps)
    )
    return CurveSamples("q", "F", points)


def _sorted_unique(values: Iterable[int], name: str) -> list[int]:
    out = sorted(_as_int(v, name) for v in values)
    if not out:
        raise ValueError(f"{name} must not be empty")
    if any(b == a for a, b in zip(out, out[1:])):
        raise ValueError(f"{name} must not contain duplicates")
    return out


def sweep_n(k: int, p: float, n_values: Iterable[int]) -> CurveSamples:
    """Equilibrium trust against population size at fixed (k, p)."""
    curve = tuple(
        (float(n), solve_equilibrium(GameParams(n, k, p)).q_bar)
        for n in _sorted_unique(n_values, "n_values")
    )
    return CurveSamples("n", "q_bar", curve)


def sweep_k(n: int, p: float, k_values: Iterable[int]) -> CurveSamples:
    """Equilibrium trust against ray count at fixed (n, p).

    Every entry must satisfy p > 1/(k+1); an entry below the signal floor
    raises rather than being silently dropped.
    """
    curve = tuple(
        (float(k), solve_equilibrium(GameParams(n, k, p)).q_bar)
        for k in _sorted_unique(k_values, "k_values")
    )
    return CurveSamples("k", "q_bar", curve)
