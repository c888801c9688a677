"""Equilibrium solver and curve sampling.

Root finding runs on the reliability map rather than the raw residual: the
map is strictly increasing on (1/(k+1), 1), so its sign change on a fixed
grid defines the answer uniquely, whereas the residual has a second,
spurious zero at q = 1. Curve samplers back the standard pictures: residual
curves crossing zero at the equilibrium, the reliability map against the
diagonal, and equilibrium-trust sweeps in the population size and the ray
count. The library's curves evaluate the model's formulas once on the whole
grid as numpy arrays, and its sweeps of _LANE_MIN points or more solve them
all at once as numpy lanes of the same kernels and probe rule. The private
helpers behind both take the route as a flag, never from what the process
has imported; smaller sweeps, and the CLI at every size, take the math
kernels point by point, so each row equals the scalar call at its point.
"""

from __future__ import annotations

import math
import operator
import struct
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .model import (
    _DOUBLE_MAX,
    GameParams,
    _above_floor,
    _as_count,
    _as_int,
    _as_probability,
    _checked_make,
    _excess,
    _landing,
    _newton,
    _reliability,
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
# spend beyond plain bisection's count (see _solve).
_GRID_BITS = 10
_FREE_STEPS = 12

# The library's sweeps solve batches of at least this many points as numpy
# lanes, and smaller ones as per-point scalar solves: with numpy loaded,
# lanes overtake scalar solves at about 20 to 30 consecutive n or k. n
# log-spaced to 1e6, most of which take one probe, gain nothing as lanes up
# to 64 points.
_LANE_MIN = 32

_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


class EquilibriumSolution(namedtuple("EquilibriumSolution", "q_bar residual e_residual"
                                     " iterations bracket_lo bracket_hi")):
    """Equilibrium trust plus solver diagnostics.

    q_bar equals bracket_hi, the upper end of the final grid cell.
    iterations counts the solve's sign-function evaluations; neither end of
    the initial bracket is evaluated.
    """

    __slots__ = ()


class CurveSamples(namedtuple("CurveSamples", "abscissa_name ordinate_name points")):
    """Ordered (abscissa, ordinate) pairs, e.g. for writing figure data."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, abscissa_name: str, ordinate_name: str, points) -> CurveSamples:
        last = -math.inf
        for x, y in points:
            # Compared, not converted: an int past the doubles is not finite.
            if not (abs(x) <= _DOUBLE_MAX and abs(y) <= _DOUBLE_MAX):
                raise ValueError("curve values must be finite")
            if x <= last:
                raise ValueError("abscissa values must be strictly increasing")
            last = x
        return tuple.__new__(cls, (abscissa_name, ordinate_name, points))

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.points)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(y for _, y in self.points)


def _prechecked(abscissa_name: str, ordinate_name: str, points) -> CurveSamples:
    """CurveSamples without the walk, for points known to be valid: a curve's
    grid checked on its arrays, or a sweep's distinct ints (_sorted_unique)
    and their q_bars, grid points in (p, 1]."""
    return tuple.__new__(CurveSamples, (abscissa_name, ordinate_name, points))


def solve_equilibrium(params: GameParams) -> EquilibriumSolution:
    """Find the unique symmetric-equilibrium trust on a fixed grid of doubles.

    Bit patterns of positive doubles are ordered like their values; grid
    point j is the double whose bit pattern is j * 2**_GRID_BITS, so cells
    are 1,024 ulps wide at every scale. q_bar = bracket_hi is the first grid
    point where the sign function is positive and bracket_lo the one below
    it, so the float sign function's root lies in (lo, hi]; in about 2 of
    100,000 games rounding flips its sign just above the exact root, which
    then lies one cell lower. The sign function is _excess, the reliability
    map's excess over p scaled to keep clear of underflow. The initial
    bracket runs from p's grid point at or below p to 1.0, and neither
    end's sign is evaluated: the paper's theorem q_bar > p makes the excess
    negative at every q <= p, and towards q = 1 the sign function tends to
    (1-p)(n-1)/p > 0. So q_bar > p holds by construction, and for every
    valid p. Only signs at grid points decide the answer, so a lane of a
    sweep gives the same q_bar as a scalar solve wherever numpy's and
    math's exp/log1p/expm1, which can differ in the last bit, give the sign
    function the same sign. The first probe is the grid point above p's,
    where the answer lies for every n past a few hundred, and the solve
    returns at once if its sign is positive. Each later probe is the grid
    point at or below the last probe's Newton target for F(q) = p
    (model._newton, from that probe's powers), clamped into the bracket. A
    deadline bisects where the bracket is wider than bisection begun
    _FREE_STEPS probes late would leave it, so a solve takes at most
    L + _FREE_STEPS evaluations, L the bit length of the bracket's width in
    cells (at most 52), typically 1 and on random games at most 6. The
    diagnostics take both residuals from the powers of the probe that set
    bracket_hi, and evaluate powers afresh only where that end is 1.0 and
    was never probed.
    """
    n, k, p = params.n, params.k, params.p
    iterations, lo, hi, landing = _solve(n, k, p)
    if landing is None:
        landing = _landing(n, k, hi)
    return EquilibriumSolution(
        hi, abs(_reliability(n, hi, landing) - p), abs(_residual(k, p, hi, landing)),
        iterations, lo, hi,
    )


def _solve(n: int, k: int, p: float):
    """solve_equilibrium's evaluation count, final cell (lo, hi] and
    _landing(n, k, hi), None where hi = 1.0 was never probed, for a game the
    caller has validated. A probe falls back to the midpoint where the
    bracket is wider than the deadline, 2**(L + _FREE_STEPS - 2) after the
    first probe and halved at each, or the Newton target is not in (0, 2)."""
    jl = _index(p)
    lo = _point(jl)
    if _TOP - jl <= 1:
        return 0, lo, 1.0, None
    jl += 1
    x = _point(jl)
    probed = _landing(n, k, x)
    e = _excess(n, k, p, x, probed)
    if e > 0.0:
        return 1, lo, x, probed
    deadline = 1 << ((_TOP - jl + 1).bit_length() + _FREE_STEPS - 2)
    jh, lo, hi, landing, iterations = _TOP, x, 1.0, None, 1
    while jh - jl > 1:
        t = _newton(n, k, p, x, probed, e)
        if jh - jl > deadline or not 0.0 < t < 2.0:
            jm = jl + (jh - jl) // 2
        else:
            jm = _INT64.unpack(_DOUBLE.pack(t))[0] >> _GRID_BITS
            if jm <= jl:
                jm = jl + 1
            elif jm >= jh:
                jm = jh - 1
        x = _DOUBLE.unpack(_INT64.pack(jm << _GRID_BITS))[0]
        probed = _landing(n, k, x)
        e = _excess(n, k, p, x, probed)
        if e > 0.0:
            jh, hi, landing = jm, x, probed
        else:
            jl, lo = jm, x
        deadline >>= 1
        iterations += 1
    return iterations, lo, hi, landing


def _index(x, xp=math):
    """Index of the grid point at or below the positive double x; with
    xp=numpy, x is an array of them."""
    if xp is math:
        return _INT64.unpack(_DOUBLE.pack(x))[0] >> _GRID_BITS
    return x.view(xp.int64) >> _GRID_BITS


_TOP = _index(1.0)  # the grid index of 1.0, every bracket's upper end


def _point(j, xp=math):
    """The grid point of index j; with xp=numpy, j is an int64 array."""
    if xp is math:
        return _DOUBLE.unpack(_INT64.pack(j << _GRID_BITS))[0]
    return (j << _GRID_BITS).view(xp.float64)


def _q_bars(
    axis: str, values: Sequence[int], fixed: int, p: float, arrays: bool
) -> list[float]:
    """solve_equilibrium(GameParams(n, k, p)).q_bar for each of values, the
    n (axis "n") or the k (axis "k"), with the other one fixed.

    The caller validates the strictest pair, which covers the rest, so no
    pair is checked again. Without arrays each value is one _solve, so each
    q_bar is solve_equilibrium's to the bit. With arrays they are lanes of
    one numpy solve with the same grid and probe rule, so each ends on its
    scalar solve's cell wherever numpy and math give the sign function the
    same sign (see solve_equilibrium); p is shared, so every lane starts
    from the same bracket and deadline. Finished lanes leave the arrays.
    """
    if not arrays:
        if axis == "n":
            return [_solve(n, fixed, p)[2] for n in values]
        return [_solve(fixed, k, p)[2] for k in values]
    import numpy as np

    swept, other = np.array(values, dtype=float), np.full(len(values), float(fixed))
    n, k = (swept, other) if axis == "n" else (other, swept)
    jl = _index(p)
    if _TOP - jl <= 1:
        return [1.0] * len(values)
    # As _solve's deadline after its first probe; a float, as it can pass int64.
    deadline = 2.0 ** ((_TOP - jl).bit_length() + _FREE_STEPS - 2)
    jl, jh = (np.full(len(n), j, dtype=np.int64) for j in (jl, _TOP))
    q_bars, lane, jm = np.ones(len(n)), np.arange(len(n)), jl + 1
    while True:
        x = _point(jm, np)
        probed = _landing(n, k, x, np)
        e = _excess(n, k, p, x, probed, np)
        up = e > 0.0
        jl, jh = np.where(up, jl, jm), np.where(up, jm, jh)
        live = jh - jl > 1
        if not live.all():
            q_bars[lane[~live]] = _point(jh[~live], np)
            if not live.any():
                return q_bars.tolist()
            lane, n, k, jl, jh, x, e = (a[live] for a in (lane, n, k, jl, jh, x, e))
            probed = tuple(a[live] for a in probed)
        t, width = _newton(n, k, p, x, probed, e, np), jh - jl
        bisect = (width > deadline) | ~((t > 0.0) & (t < 2.0))
        guess = np.minimum(np.maximum(_index(t, np), jl + 1), jh - 1)
        jm = np.where(bisect, jl + width // 2, guess)
        deadline /= 2


def _sampler(name: str, q_lo: float, q_hi: float, steps: int, kernel):
    """sample(start, stop, arrays): the CurveSamples of kernel(q, xp) at
    points i = start to stop - 1 of the grid q_lo (1 - i/last) + q_hi i/last,
    last = steps - 1, by default all of them. With arrays the kernel runs
    once on a numpy array, else point by point with xp=math; the two can
    differ in the last bit, as numpy's and math's exp/log1p/expm1 do. More
    than 2**53 + 1 points raise ValueError before any is built, so on the
    whole grids sampled on arrays numpy divides i by last as Python does. An
    array grid is checked on the arrays; only a faulty one walks CurveSamples."""
    last = steps - 1

    def sample(start: int = 0, stop: int = steps, arrays: bool = True) -> CurveSamples:
        if stop - start > 2**53 + 1:
            raise ValueError("steps must be at most 2**53 + 1")
        if not arrays:
            qs = [q_lo * (1.0 - i / last) + q_hi * (i / last) for i in range(start, stop)]
            return CurveSamples("q", name, tuple(zip(qs, [kernel(q, math) for q in qs])))
        import numpy as np

        t = np.arange(start, stop) / last
        qs = q_lo * (1.0 - t) + q_hi * t
        with np.errstate(divide="ignore"):
            ys = kernel(qs, np)
        points = tuple(zip(qs.tolist(), ys.tolist()))
        if np.isfinite(ys).all() and (qs[1:] > qs[:-1]).all():
            return _prechecked("q", name, points)
        return CurveSamples("q", name, points)

    return sample


def residual_curve(
    params: GameParams, q_lo: float, q_hi: float, steps: int
) -> CurveSamples:
    """Equilibrium residual sampled on a uniform trust grid (endpoints included)."""
    return _residual_sampler(params, q_lo, q_hi, steps)()


def _residual_sampler(params, q_lo, q_hi, steps):
    """residual_curve's _sampler, from its validated arguments."""
    q_lo = _as_probability(q_lo, "q_lo")
    q_hi = _as_probability(q_hi, "q_hi")
    steps = _as_int(steps, "steps", 2)
    if not 0.0 <= q_lo < q_hi <= 1.0:
        raise ValueError("need 0 <= q_lo < q_hi <= 1")
    n, k, p = params.n, params.k, params.p
    return _sampler("E", q_lo, q_hi, steps,
                    lambda q, xp: _residual(k, p, q, _landing(n, k, q, xp)))


def reliability_curve(
    n: int, k: int, q_lo: float, q_hi: float, steps: int
) -> CurveSamples:
    """Reliability map sampled on a uniform trust grid inside its open domain."""
    return _reliability_sampler(n, k, q_lo, q_hi, steps)()


def _reliability_sampler(n, k, q_lo, q_hi, steps):
    """reliability_curve's _sampler, from its validated arguments."""
    n = _as_count(n, "n", 2)
    k = _as_count(k, "k", 1)
    q_lo = _as_probability(q_lo, "q_lo")
    q_hi = _as_probability(q_hi, "q_hi")
    steps = _as_int(steps, "steps", 2)
    if not (_above_floor(q_lo, k) and q_lo < q_hi < 1.0):
        raise ValueError("need 1/(k+1) < q_lo < q_hi < 1")
    return _sampler("F", q_lo, q_hi, steps,
                    lambda q, xp: _reliability(n, q, _landing(n, k, q, xp), xp))


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
    q_bars = _q_bars("n", ns, params.k, params.p, len(ns) >= _LANE_MIN)
    return _prechecked("n", "q_bar", tuple(zip(ns, q_bars)))


def sweep_k(n: int, p: float, k_values: Iterable[int]) -> CurveSamples:
    """Equilibrium trust against ray count at fixed (n, p); the abscissae are
    the requested k, as ints.

    Every entry must satisfy p > 1/(k+1); an entry below the signal floor
    raises rather than being silently dropped.
    """
    ks = _sorted_unique(k_values, "k_values")
    params = GameParams(n, ks[0], p)  # the smallest k is the strictest
    q_bars = _q_bars("k", ks, params.n, params.p, len(ks) >= _LANE_MIN)
    return _prechecked("k", "q_bar", tuple(zip(ks, q_bars)))
