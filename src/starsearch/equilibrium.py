"""Equilibrium solver and curve sampling.

Root finding runs on the reliability map rather than the raw residual: the
map is strictly increasing on (1/(k+1), 1), so plain bisection inherits a
correctness guarantee, whereas the residual has a second, spurious zero at
q = 1. Curve samplers back the standard pictures: residual curves crossing
zero at the equilibrium, the reliability map against the diagonal, and
equilibrium-trust sweeps in the population size and the ray count. Curves
evaluate the model's formulas once on the whole grid, and long sweeps bisect
every point at once as numpy lanes of the same kernel.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    GameParams,
    _as_int,
    _as_probability,
    _reliability,
    _reliability_excess,
    _residual,
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

# Default width of the final bisection bracket, shared by scalar and lane
# solves so that both stop at the same bracket.
_Q_TOL = 1e-12

# Batches of at least this many solves run as numpy lanes; smaller ones are
# cheaper as per-point scalar solves (the measured crossover).
_LANE_MIN = 30


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
        last = -math.inf
        for x, y in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("curve values must be finite")
            if x <= last:
                raise ValueError("abscissa values must be strictly increasing")
            last = x

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.points)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(y for _, y in self.points)


def solve_equilibrium(
    params: GameParams, q_tol: float = _Q_TOL
) -> EquilibriumSolution:
    """Find the unique symmetric-equilibrium trust by bisection.

    Brackets [1/(k+1) + 1e-9, 1 - 1e-9] and halves until the bracket is
    narrower than q_tol or at the resolution of the float grid, which ends
    any bisection of that bracket within about 82 halvings. Deterministic:
    identical inputs give bit-identical solutions.

    The reported trust is the upper end of the final bracket. The bracket
    always satisfies excess(lo) <= 0 < excess(hi) with a sign function that
    is reliable down to the floating-point grid, so the true root lies in
    (lo, hi] and the strict inequality q_bar > p survives rounding: for very
    large populations the true gap can be far below double precision, and a
    bracket midpoint would land on either side of p.

    Raises SolverError if the bracket endpoints do not straddle the root
    (possible only when p sits within about 1e-9 of its domain boundary).
    """
    if not q_tol > 0.0:
        raise ValueError("q_tol must be positive")
    n, k, p = params.n, params.k, params.p
    lo = 1.0 / (k + 1) + _BRACKET_MARGIN
    hi = 1.0 - _BRACKET_MARGIN
    f_lo = _reliability_excess(n, k, p, lo)
    f_hi = _reliability_excess(n, k, p, hi)
    if not (f_lo < 0.0 < f_hi):
        raise _bracket_error(n, k, p, lo, hi)
    # Aim a little below q_tol so the residual in reliability units also
    # lands within q_tol (the map's slope stays of order one).
    width_target = 0.25 * q_tol
    iterations = 0
    while hi - lo > width_target:
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


def _bracket_error(n: int, k: int, p: float, lo: float, hi: float) -> SolverError:
    return SolverError(
        "internal error: no sign change across the bisection bracket "
        f"[{lo!r}, {hi!r}] for n={n}, k={k}, p={p!r}; "
        "p is too close to its domain boundary"
    )


def _q_bars(ns: Sequence[int], ks: Sequence[int], p: float) -> list[float]:
    """solve_equilibrium(GameParams(n, k, p)).q_bar for each pair of ns, ks.

    The caller validates the strictest pair. From _LANE_MIN pairs on, every
    pair is a lane of one numpy bisection on the same excess kernel, bracket,
    width target and float-grid stop as solve_equilibrium; a finished lane is
    masked, so it stops where the scalar loop would, and each lane reports
    its upper bracket end.
    """
    if len(ns) < _LANE_MIN:
        return [solve_equilibrium(GameParams(n, k, p)).q_bar for n, k in zip(ns, ks)]
    n = np.array(ns, dtype=float)
    k = np.array(ks, dtype=float)
    lo = 1.0 / (k + 1.0) + _BRACKET_MARGIN
    hi = np.full_like(lo, 1.0 - _BRACKET_MARGIN)
    straddles = (_reliability_excess(n, k, p, lo, np) < 0.0) & (
        0.0 < _reliability_excess(n, k, p, hi, np)
    )
    if not straddles.all():
        i = int(np.argmin(straddles))
        raise _bracket_error(ns[i], ks[i], p, float(lo[i]), float(hi[i]))
    while True:
        mid = 0.5 * (lo + hi)
        active = (hi - lo > 0.25 * _Q_TOL) & (lo < mid) & (mid < hi)
        if not active.any():
            return hi.tolist()
        up = _reliability_excess(n, k, p, mid, np) > 0.0
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid, lo)


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
    qs = _uniform_grid(q_lo, q_hi, steps)
    with np.errstate(divide="ignore"):
        es = _residual(params.n, params.k, params.p, np.array(qs), np)
    return CurveSamples("q", "E", tuple(zip(qs, es.tolist())))


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
    qs = _uniform_grid(q_lo, q_hi, steps)
    fs = _reliability(n, k, np.array(qs), np)
    return CurveSamples("q", "F", tuple(zip(qs, fs.tolist())))


def _sorted_unique(values: Iterable[int], name: str) -> list[int]:
    out = sorted(_as_int(v, name) for v in values)
    if not out:
        raise ValueError(f"{name} must not be empty")
    if any(b == a for a, b in zip(out, out[1:])):
        raise ValueError(f"{name} must not contain duplicates")
    return out


def sweep_n(k: int, p: float, n_values: Iterable[int]) -> CurveSamples:
    """Equilibrium trust against population size at fixed (k, p)."""
    ns = _sorted_unique(n_values, "n_values")
    params = GameParams(ns[0], k, p)  # the smallest n is the strictest
    q_bars = _q_bars(ns, [params.k] * len(ns), params.p)
    return CurveSamples("n", "q_bar", tuple(zip(map(float, ns), q_bars)))


def sweep_k(n: int, p: float, k_values: Iterable[int]) -> CurveSamples:
    """Equilibrium trust against ray count at fixed (n, p).

    Every entry must satisfy p > 1/(k+1); an entry below the signal floor
    raises rather than being silently dropped.
    """
    ks = _sorted_unique(k_values, "k_values")
    params = GameParams(n, ks[0], p)  # the smallest k is the strictest
    q_bars = _q_bars([params.n] * len(ks), ks, params.p)
    return CurveSamples("k", "q_bar", tuple(zip(map(float, ks), q_bars)))
