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
    "SolverError",
    "solve_equilibrium",
    "residual_curve",
    "reliability_curve",
    "sweep_n",
    "sweep_k",
]

# Offset of the solver's bracket from the open-interval endpoints, where the
# reliability map only attains its limits.
_BRACKET_MARGIN = 1e-9

# Default resolution of the solver's grid, shared by scalar and lane solves.
_Q_TOL = 1e-12

# Finest grid exponent (indices up to 2**1020 convert to doubles), and the
# steps a solve may spend beyond plain bisection's count (see _probe).
_MAX_BITS = 1020
_FREE_STEPS = 12

# Batches of at least this many solves run as numpy lanes; smaller ones are
# cheaper as per-point scalar solves (the measured crossover).
_LANE_MIN = 16


class SolverError(RuntimeError):
    """Internal solver failure that validated parameters should never trigger."""


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium trust plus solver diagnostics.

    q_bar equals bracket_hi, the upper end of the final grid cell.
    iterations counts the sign-function evaluations after the two at the
    ends of the initial bracket.
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


def solve_equilibrium(
    params: GameParams, q_tol: float = _Q_TOL
) -> EquilibriumSolution:
    """Find the unique symmetric-equilibrium trust on a fixed dyadic grid.

    The grid is the ends of [1/(k+1) + 1e-9, 1 - 1e-9] and the multiples of
    2**-M between them, M the least exponent with 2**-M <= q_tol/4 (at most
    _MAX_BITS). q_bar = bracket_hi is the first grid point where the excess
    is positive, bracket_lo the one below it, so the root lies in (lo, hi] and
    q_bar > p survives rounding. Where the grid is finer than the doubles
    (above 1/16 from q_tol = 1e-16) the two are adjacent doubles. Only signs
    at grid points decide the answer, so lanes equal scalar solves. Regula
    falsi on grid indices, from the grid point just below p (_probe, _step),
    takes at most M + _FREE_STEPS evaluations (54 at the default q_tol) and
    typically 2 to 10. Raises SolverError if the bracket ends do not
    straddle the root (only when p is within about 1e-9 of its bounds).
    """
    if not q_tol > 0.0:
        raise ValueError("q_tol must be positive")
    n, k, p = params.n, params.k, params.p
    bits, lo, jl, jh = _grid(k, q_tol)
    scale, hi = 2.0**-bits, 1.0 - _BRACKET_MARGIN
    fl, fh = _excess(n, k, p, lo), _excess(n, k, p, hi)
    if not (fl < 0.0 < fh):
        raise _bracket_error(n, k, p, lo, hi)
    guess, last, deadline = p / scale, 0, 1 << (bits + _FREE_STEPS - 1)
    iterations = 0
    while jh - jl > 1 and math.nextafter(lo, 1.0) < hi:
        jm = _probe(jl, jh, guess, deadline)
        x = jm * scale
        fm = _excess(n, k, p, x)
        jl, jh, fl, fh, last, guess = _step(jl, jh, fl, fh, last, jm, fm)
        lo, hi = (x, hi) if jl == jm else (lo, x)
        deadline //= 2
        iterations += 1
    return EquilibriumSolution(
        q_bar=hi,
        residual=abs(_reliability(n, k, hi) - p),
        e_residual=abs(_residual(n, k, p, hi)),
        iterations=iterations,
        bracket_lo=lo,
        bracket_hi=hi,
    )


def _grid(k, q_tol: float, xp=math):
    """M, the bracket's lower end, and the indices of its two ends.

    Grid point j is j * 2**-M strictly between the ends, which themselves
    take the indices floor(lower * 2**M) and ceil(upper * 2**M). M does not
    depend on k, so all lanes share it; with xp=numpy, k, the lower end and
    its index are arrays.
    """
    bits = max(1 - math.frexp(max(0.25 * q_tol, 2.0**-_MAX_BITS))[1], 0)
    lower = 1.0 / (k + 1.0) + _BRACKET_MARGIN
    top = math.ceil((1.0 - _BRACKET_MARGIN) * 2.0**bits)
    return bits, lower, xp.floor(lower * 2.0**bits), top


def _excess(n, k, p: float, q, xp=math):
    """The solver's sign function: _reliability_excess over 1 - q. Dividing
    keeps the sign; the numerator alone vanishes at q = 1 and would pull the
    first secants to the top of the bracket."""
    return _reliability_excess(n, k, p, q, xp) / (1.0 - q)


def _probe(jl, jh, guess, deadline, xp=math):
    """Next grid index to probe, strictly inside (jl, jh): the real-valued
    guess rounded down and clamped, or the midpoint where the bracket is
    wider than deadline. The loops start deadline at 2**(M + _FREE_STEPS - 1)
    and halve it each step, so the bracket never exceeds what bisection
    begun _FREE_STEPS steps late would leave: at most M + _FREE_STEPS probes.
    """
    midpoint, bisect = jl + (jh - jl) // 2, jh - jl > deadline
    if xp is math:
        return midpoint if bisect else min(max(math.floor(guess), jl + 1), jh - 1)
    return xp.where(bisect, midpoint, xp.clip(xp.floor(guess), jl + 1, jh - 1))


def _step(jl, jh, fl, fh, last, jm, fm, xp=math):
    """Bracket (jl, jh), end values fl <= 0 < fh, last end moved (+1 upper,
    -1 lower) and next regula falsi guess after probing jm with value fm.
    Illinois weighting: when one end moves twice in a row the other end's
    value is halved (kept positive), so guesses cannot stall on one side.
    """
    where = (lambda c, a, b: a if c else b) if xp is math else xp.where
    up, half = fm > 0.0, 0.5 * fh
    jl, fl = where(up, jl, jm), where(up, where(last > 0, 0.5 * fl, fl), fm)
    fh = where((last < 0) & (half > 0.0), half, fh)
    jh, fh = where(up, jm, jh), where(up, fm, fh)
    return jl, jh, fl, fh, where(up, 1, -1), jl + fl / (fl - fh) * (jh - jl) + 0.5


def _bracket_error(n: int, k: int, p: float, lo: float, hi: float) -> SolverError:
    return SolverError(
        "internal error: no sign change across the solver's bracket "
        f"[{lo!r}, {hi!r}] for n={n}, k={k}, p={p!r}; "
        "p is too close to its domain boundary"
    )


def _q_bars(ns: Sequence[int], ks: Sequence[int], p: float) -> list[float]:
    """solve_equilibrium(GameParams(n, k, p)).q_bar for each pair of ns, ks.

    The caller validates the strictest pair. From _LANE_MIN pairs on, they
    are lanes of one numpy solve with the same grid and step rule, so each
    ends on its scalar solve's cell; finished lanes leave the arrays.
    """
    if len(ns) < _LANE_MIN:
        return [solve_equilibrium(GameParams(n, k, p)).q_bar for n, k in zip(ns, ks)]
    import numpy as np

    n, k = np.array(ns, dtype=float), np.array(ks, dtype=float)
    bits, lo, jl, top = _grid(k, _Q_TOL, np)
    scale, jh = 2.0**-bits, np.full_like(jl, top)
    hi = np.full_like(lo, 1.0 - _BRACKET_MARGIN)
    fl, fh = _excess(n, k, p, lo, np), _excess(n, k, p, hi, np)
    straddles = (fl < 0.0) & (0.0 < fh)
    if not straddles.all():
        i = int(np.argmin(straddles))
        raise _bracket_error(ns[i], ks[i], p, float(lo[i]), float(hi[i]))
    q_bars, lane = hi.copy(), np.arange(len(ns))
    guess, last = np.full_like(lo, p / scale), np.zeros_like(lo)
    deadline = 1 << (bits + _FREE_STEPS - 1)
    while True:
        done = (jh - jl <= 1) | (np.nextafter(lo, 1.0) >= hi)
        if done.any():
            q_bars[lane[done]] = hi[done]
            if done.all():
                return q_bars.tolist()
            lane, n, k, jl, jh, lo, hi, fl, fh, last, guess = (
                a[~done] for a in (lane, n, k, jl, jh, lo, hi, fl, fh, last, guess)
            )
        jm = _probe(jl, jh, guess, deadline, np)
        x = jm * scale
        jl, jh, fl, fh, last, guess = _step(
            jl, jh, fl, fh, last, jm, _excess(n, k, p, x, np), np
        )
        lo, hi = np.where(jl == jm, x, lo), np.where(jh == jm, x, hi)
        deadline //= 2


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
