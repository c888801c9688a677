"""Equilibrium solver and curve sampling.

Root finding runs on the reliability map rather than the raw residual: the
map is strictly increasing on (1/(k+1), 1), so its sign change on a fixed
grid defines the answer uniquely, whereas the residual has a second,
spurious zero at q = 1. Curve samplers back the standard pictures: residual
curves crossing zero at the equilibrium, the reliability map against the
diagonal, and equilibrium-trust sweeps in the population size and the ray
count. Curves evaluate the model's formulas once on the whole grid, and long
sweeps solve every point at once as numpy lanes of the same kernel and step
rule.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .model import (
    _DOUBLE_MAX,
    GameParams,
    _as_count,
    _as_int,
    _as_probability,
    _reliability,
    _reliability_excess,
    _residual,
)

__all__ = [
    "EquilibriumSolution",
    "CurveSamples",
    "solve_equilibrium",
    "residual_curve",
    "reliability_curve",
    "sweep_n",
    "sweep_k",
]

# The solver's grid is the doubles whose bit pattern is a multiple of
# 2**_GRID_BITS: cells of 1,024 ulps (at most 2**-42 relative), far wider
# than the band around the root, 1 ulp where measured, in which rounding
# flips the sign function's sign. _FREE_STEPS is the steps a solve may
# spend beyond plain bisection's count (see _probe).
_GRID_BITS = 10
_FREE_STEPS = 12

# Batches of at least this many solves run as numpy lanes; smaller ones are
# cheaper as per-point scalar solves (the measured crossover).
_LANE_MIN = 16

_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium trust plus solver diagnostics.

    q_bar equals bracket_hi, the upper end of the final grid cell.
    iterations counts the sign-function evaluations after the one at the
    lower end of the initial bracket.
    """

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
            # Compared, not converted: an int past the doubles is not finite.
            if not (abs(x) <= _DOUBLE_MAX and abs(y) <= _DOUBLE_MAX):
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


def solve_equilibrium(params: GameParams) -> EquilibriumSolution:
    """Find the unique symmetric-equilibrium trust on a fixed grid of doubles.

    Bit patterns of positive doubles are ordered like their values; grid
    point j is the double whose bit pattern is j * 2**_GRID_BITS, so cells
    are 1,024 ulps wide at every scale. q_bar = bracket_hi is the first grid
    point where the sign function is positive and bracket_lo the one below
    it, so the root lies in (lo, hi]. The sign function is
    _reliability_excess, the reliability map's excess over p scaled to keep
    clear of underflow. The initial bracket runs from p's grid point at or
    below p to 1.0, and neither end's sign is evaluated: the paper's theorem
    q_bar > p makes the excess negative at every q <= p, and towards q = 1
    the sign function tends to (1-p)(n-1)/p > 0. So q_bar > p holds by
    construction, and for every valid p. Only signs at grid points decide
    the answer, so lanes equal scalar solves. Regula falsi on the grid, from
    the secant through the bracket ends (_probe, _step), takes at most
    L + _FREE_STEPS evaluations after the lower end's, L the bit length of the
    bracket's width in cells (at most 52), and typically 1.
    """
    n, k, p = params.n, params.k, params.p
    jl, jh = _index(p), _index(1.0)
    lo, hi = _point(jl), 1.0
    # The lower end's value only steers the first secant.
    fl, fh = min(_reliability_excess(n, k, p, lo), 0.0), (1.0 - p) * (n - 1) / p
    last, deadline, iterations = 0, _first_deadline(jl, jh), 0
    while jh - jl > 1:
        jm = _probe(jl, jh, lo, hi, fl, fh, deadline)
        x = _point(jm)
        fm = _reliability_excess(n, k, p, x)
        jl, jh, fl, fh, last = _step(jl, jh, fl, fh, last, jm, fm)
        lo, hi = (x, hi) if jl == jm else (lo, x)
        deadline /= 2
        iterations += 1
    return EquilibriumSolution(
        q_bar=hi,
        residual=abs(_reliability(n, k, hi) - p),
        e_residual=abs(_residual(n, k, p, hi)),
        iterations=iterations,
        bracket_lo=lo,
        bracket_hi=hi,
    )


def _index(x, xp=math):
    """Index of the grid point at or below the positive double x; with
    xp=numpy, x is an array of them."""
    if xp is math:
        return _INT64.unpack(_DOUBLE.pack(x))[0] >> _GRID_BITS
    return x.view(xp.int64) >> _GRID_BITS


def _point(j, xp=math):
    """The grid point of index j; with xp=numpy, j is an int64 array."""
    if xp is math:
        return _DOUBLE.unpack(_INT64.pack(j << _GRID_BITS))[0]
    return (j << _GRID_BITS).view(xp.float64)


def _first_deadline(jl: int, jh: int) -> float:
    """2**(L + _FREE_STEPS - 1), L the bit length of jh - jl (see _probe).
    A float, as it can pass the int64 range of lane indices."""
    return 2.0 ** ((jh - jl).bit_length() + _FREE_STEPS - 1)


def _probe(jl, jh, lo, hi, fl, fh, deadline, xp=math):
    """Next grid index to probe, strictly inside (jl, jh): the grid point at
    or below the regula falsi guess between lo and hi, clamped, or the
    midpoint where the bracket is wider than deadline. The loops start
    deadline at _first_deadline and halve it each step, so the bracket never
    exceeds what bisection begun _FREE_STEPS steps late would leave: at most
    L + _FREE_STEPS probes.
    """
    midpoint, bisect = jl + (jh - jl) // 2, jh - jl > deadline
    guess = _index(lo + fl / (fl - fh) * (hi - lo), xp)
    if xp is math:
        return midpoint if bisect else min(max(guess, jl + 1), jh - 1)
    return xp.where(bisect, midpoint, xp.clip(guess, jl + 1, jh - 1))


def _step(jl, jh, fl, fh, last, jm, fm, xp=math):
    """Bracket (jl, jh), end values fl <= 0 < fh and last end moved (+1
    upper, -1 lower) after probing jm with value fm. Illinois weighting:
    when one end moves twice in a row the other end's value is halved (kept
    positive), so guesses cannot stall on one side.
    """
    where = (lambda c, a, b: a if c else b) if xp is math else xp.where
    up, half = fm > 0.0, 0.5 * fh
    jl, fl = where(up, jl, jm), where(up, where(last > 0, 0.5 * fl, fl), fm)
    fh = where((last < 0) & (half > 0.0), half, fh)
    jh, fh = where(up, jm, jh), where(up, fm, fh)
    return jl, jh, fl, fh, where(up, 1, -1)


def _q_bars(ns: Sequence[int], ks: Sequence[int], p: float) -> list[float]:
    """solve_equilibrium(GameParams(n, k, p)).q_bar for each pair of ns, ks.

    The caller validates the strictest pair. From _LANE_MIN pairs on, they
    are lanes of one numpy solve with the same grid and step rule, so each
    ends on its scalar solve's cell; p is shared, so every lane starts from
    the same bracket and deadline. Finished lanes leave the arrays.
    """
    if len(ns) < _LANE_MIN:
        return [solve_equilibrium(GameParams(n, k, p)).q_bar for n, k in zip(ns, ks)]
    import numpy as np

    n, k = np.array(ns, dtype=float), np.array(ks, dtype=float)
    jl, jh = _index(p), _index(1.0)
    deadline = _first_deadline(jl, jh)
    jl, jh = (np.full(len(ns), j, dtype=np.int64) for j in (jl, jh))
    lo, hi = _point(jl, np), np.ones(len(ns))
    fl = np.minimum(_reliability_excess(n, k, p, lo, np), 0.0)
    fh = (1.0 - p) * (n - 1) / p
    q_bars, lane, last = hi.copy(), np.arange(len(ns)), np.zeros(len(ns))
    while True:
        done = jh - jl <= 1
        if done.any():
            q_bars[lane[done]] = hi[done]
            if done.all():
                return q_bars.tolist()
            lane, n, k, jl, jh, lo, hi, fl, fh, last = (
                a[~done] for a in (lane, n, k, jl, jh, lo, hi, fl, fh, last)
            )
        jm = _probe(jl, jh, lo, hi, fl, fh, deadline, np)
        x = _point(jm, np)
        fm = _reliability_excess(n, k, p, x, np)
        jl, jh, fl, fh, last = _step(jl, jh, fl, fh, last, jm, fm, np)
        lo, hi = np.where(jl == jm, x, lo), np.where(jh == jm, x, hi)
        deadline /= 2


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
    import numpy as np

    qs = _uniform_grid(q_lo, q_hi, steps)
    with np.errstate(divide="ignore"):
        es = _residual(params.n, params.k, params.p, np.array(qs), np)
    return CurveSamples("q", "E", tuple(zip(qs, es.tolist())))


def reliability_curve(
    n: int, k: int, q_lo: float, q_hi: float, steps: int
) -> CurveSamples:
    """Reliability map sampled on a uniform trust grid inside its open domain."""
    n = _as_count(n, "n", 2)
    k = _as_count(k, "k", 1)
    q_lo = _as_probability(q_lo, "q_lo")
    q_hi = _as_probability(q_hi, "q_hi")
    steps = _as_int(steps, "steps", 2)
    if not 1.0 / (k + 1) < q_lo < q_hi < 1.0:
        raise ValueError("need 1/(k+1) < q_lo < q_hi < 1")
    import numpy as np

    qs = _uniform_grid(q_lo, q_hi, steps)
    fs = _reliability(n, k, np.array(qs), np)
    return CurveSamples("q", "F", tuple(zip(qs, fs.tolist())))


def _sorted_unique(values: Iterable[int], name: str) -> list[int]:
    try:
        out = sorted(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if not out:
        raise ValueError(f"{name} must not be empty")
    _as_count(out[-1], name)  # only the largest entry can overflow a double
    if len(set(out)) != len(out):
        raise ValueError(f"{name} must not contain duplicates")
    return out


def sweep_n(k: int, p: float, n_values: Iterable[int]) -> CurveSamples:
    """Equilibrium trust against population size at fixed (k, p); the
    abscissae are the requested n, as ints."""
    ns = _sorted_unique(n_values, "n_values")
    params = GameParams(ns[0], k, p)  # the smallest n is the strictest
    q_bars = _q_bars(ns, [params.k] * len(ns), params.p)
    return CurveSamples("n", "q_bar", tuple(zip(ns, q_bars)))


def sweep_k(n: int, p: float, k_values: Iterable[int]) -> CurveSamples:
    """Equilibrium trust against ray count at fixed (n, p); the abscissae are
    the requested k, as ints.

    Every entry must satisfy p > 1/(k+1); an entry below the signal floor
    raises rather than being silently dropped.
    """
    ks = _sorted_unique(k_values, "k_values")
    params = GameParams(n, ks[0], p)  # the smallest k is the strictest
    q_bars = _q_bars([params.n] * len(ks), ks, params.p)
    return CurveSamples("k", "q_bar", tuple(zip(ks, q_bars)))
