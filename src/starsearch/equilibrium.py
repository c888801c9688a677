"""Equilibrium solver and curve sampling.

Root finding runs on the reliability map rather than the raw residual: the
map is strictly increasing on (1/(k+1), 1), so its sign change on a fixed
grid defines the answer uniquely, whereas the residual has a second,
spurious zero at q = 1. Curve samplers back the standard pictures: residual
curves crossing zero at the equilibrium, the reliability map against the
diagonal, and equilibrium-trust sweeps in the population size and the ray
count. Curves evaluate the model's formulas once on the whole grid, and long
sweeps solve every point at once as numpy lanes of the same kernel and step
rule. Smaller batches run point by point on the math kernels. Which route a
batch takes depends on its size and on the route passed to the private
helper that runs it, never on what the process has already imported.
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
# spend beyond plain bisection's count (see _probe).
_GRID_BITS = 10
_FREE_STEPS = 12

# The library's sweeps solve batches of at least this many points as numpy
# lanes, and smaller ones as per-point scalar solves: with numpy loaded, the
# measured crossover is about 20 points for consecutive n or k and about 40
# for n log-spaced to 1e6. Its curves always take numpy arrays. The private
# helpers behind both take the route as an argument: _q_bars the batch size
# from which it uses lanes, a curve's sampler whether it uses arrays.
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
    it, so the root lies in (lo, hi]. The sign function is _excess, the
    reliability map's excess over p scaled to keep clear of underflow. The
    initial bracket runs from p's grid point at or below p to 1.0, and
    neither end's sign is evaluated: the paper's theorem
    q_bar > p makes the excess negative at every q <= p, and towards q = 1
    the sign function tends to (1-p)(n-1)/p > 0. So q_bar > p holds by
    construction, and for every valid p. Only signs at grid points decide
    the answer, so a lane of a sweep gives the same q_bar as a scalar solve
    wherever numpy's and math's exp/log1p/expm1, which can differ in the
    last bit, give the sign function the same sign. Regula falsi on the
    grid, from the secant through the bracket ends (_probe, _step), takes at
    most L + _FREE_STEPS evaluations, L the bit length of the bracket's
    width in cells (at most 52), and typically 1. The lower end's value
    starts at 0, so the first probe is always the grid point above p's,
    where the answer lies for every n past a few hundred: _solve evaluates
    it directly and enters the loop only if its sign is not positive. The
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
    caller has validated. With fl = 0 the first secant guess is lo, clamped
    up to jl + 1, and the first deadline exceeds the bracket's width, so that
    probe is taken directly, and the loop, _probe and _step written out on
    floats, starts from the state the step leaves."""
    jl = _index(p)
    lo = _point(jl)
    if _TOP - jl <= 1:
        return 0, lo, 1.0, None
    jl += 1
    x = _point(jl)
    landing = _landing(n, k, x)
    fl = _excess(n, k, p, x, landing)
    if fl > 0.0:
        return 1, lo, x, landing
    deadline = _first_deadline(jl - 1, _TOP) / 2
    jh, lo, hi, fh = _TOP, x, 1.0, (1.0 - p) * (n - 1) / p
    last, landing, iterations = -1, None, 1
    while jh - jl > 1:
        if jh - jl > deadline:
            jm = jl + (jh - jl) // 2
        else:
            guess = _INT64.unpack(_DOUBLE.pack(lo + fl / (fl - fh) * (hi - lo)))[0]
            jm = min(max(guess >> _GRID_BITS, jl + 1), jh - 1)
        x = _DOUBLE.unpack(_INT64.pack(jm << _GRID_BITS))[0]
        probed = _landing(n, k, x)
        fm = _excess(n, k, p, x, probed)
        if fm > 0.0:
            if last == 1:
                m = 1.0 - fm / fh if fh else 0.0
                fl = (m if m > 0.0 else 0.5) * fl or fl
            jh, hi, fh, landing, last = jm, x, fm, probed, 1
        else:
            if last == -1:
                m = 1.0 - fm / fl if fl else 0.0
                fh = (m if m > 0.0 else 0.5) * fh or fh
            jl, lo, fl, last = jm, x, fm, -1
        deadline /= 2
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


def _first_deadline(jl: int, jh: int) -> float:
    """2**(L + _FREE_STEPS - 1), L the bit length of jh - jl (see _probe).
    A float, as it can pass the int64 range of lane indices."""
    return 2.0 ** ((jh - jl).bit_length() + _FREE_STEPS - 1)


def _probe(jl, jh, lo, hi, fl, fh, deadline, xp):
    """Next grid index to probe for each lane (xp is numpy), strictly inside
    (jl, jh): the grid point at or below the regula falsi guess between lo
    and hi, clamped, or the midpoint where the bracket is wider than
    deadline. The loops start deadline at _first_deadline and halve it each
    step, so the bracket never exceeds what bisection begun _FREE_STEPS steps
    late would leave: at most L + _FREE_STEPS probes. _solve inlines it on floats.
    """
    midpoint, bisect = jl + (jh - jl) // 2, jh - jl > deadline
    guess = _index(lo + fl / (fl - fh) * (hi - lo), xp)
    return xp.where(bisect, midpoint, xp.clip(guess, jl + 1, jh - 1))


def _step(jl, jh, fl, fh, last, jm, fm, xp):
    """Bracket (jl, jh), end values fl <= 0 < fh and last end moved (+1
    upper, -1 lower, 0 none) for each lane (xp is numpy) after probing jm
    with value fm. Anderson-Bjorck weighting: when one end moves twice in a
    row, the other end's value is scaled by m = 1 - fm / (the moved end's
    old value), or by 1/2 where m <= 0 or that old value is 0, so guesses
    cannot stall on one side. Both values share a sign, so m <= 1 and no
    value grows; one that would underflow to 0 is kept. fm / old may
    overflow to -inf at a subnormal end, which gives 1/2. _solve inlines it on floats.
    """
    up = fm > 0.0
    old, other = xp.where(up, fh, fl), xp.where(up, fl, fh)
    with xp.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = 1.0 - fm / old
    scaled = xp.where((old != 0.0) & (m > 0.0), m, 0.5) * other
    moved = xp.where(up, 1, -1)
    other = xp.where((last == moved) & (scaled != 0.0), scaled, other)
    return (xp.where(up, jl, jm), xp.where(up, jm, jh),
            xp.where(up, other, fm), xp.where(up, fm, other), moved)


def _q_bars(
    axis: str, values: Sequence[int], fixed: int, p: float, array_min: int
) -> list[float]:
    """solve_equilibrium(GameParams(n, k, p)).q_bar for each of values, the
    n (axis "n") or the k (axis "k"), with the other one fixed.

    The caller validates the strictest pair, which covers the rest, so no
    pair is checked again. Below array_min values each is one _solve; from
    array_min on they are lanes of one numpy solve with the same grid and
    step rule, so each ends on its scalar solve's cell wherever numpy and
    math give the sign function the same sign (see solve_equilibrium); p is
    shared, so every lane starts from the same bracket and deadline.
    Finished lanes leave the arrays.
    """
    if len(values) < array_min:
        if axis == "n":
            return [_solve(n, fixed, p)[2] for n in values]
        return [_solve(fixed, k, p)[2] for k in values]
    import numpy as np

    swept, other = np.array(values, dtype=float), np.full(len(values), float(fixed))
    n, k = (swept, other) if axis == "n" else (other, swept)
    jl, jh = _index(p), _TOP
    deadline = _first_deadline(jl, jh)
    jl, jh = (np.full(len(n), j, dtype=np.int64) for j in (jl, jh))
    lo, hi = _point(jl, np), np.ones(len(n))
    fl, fh = np.zeros(len(n)), (1.0 - p) * (n - 1) / p
    q_bars, lane, last = hi.copy(), np.arange(len(n)), np.zeros(len(n))
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
        fm = _excess(n, k, p, x, _landing(n, k, x, np), np)
        jl, jh, fl, fh, last = _step(jl, jh, fl, fh, last, jm, fm, np)
        lo, hi = np.where(jl == jm, x, lo), np.where(jh == jm, x, hi)
        deadline /= 2


def _sampler(name: str, q_lo: float, q_hi: float, steps: int, kernel):
    """sample(start, stop, arrays): the CurveSamples of kernel(q, xp) at
    points i = start to stop - 1 of the grid q_lo (1 - i/last) + q_hi i/last,
    last = steps - 1, by default all of them. With arrays the kernel runs
    once on a numpy array, else point by point with xp=math; the two can
    differ in the last bit, as numpy's and math's exp/log1p/expm1 do. numpy
    divides i by last as Python does up to 2**53, past which Python does. An
    array grid is checked on the arrays; only a faulty one walks CurveSamples."""
    last = steps - 1

    def sample(start: int = 0, stop: int = steps, arrays: bool = True) -> CurveSamples:
        if not arrays:
            qs = [q_lo * (1.0 - i / last) + q_hi * (i / last) for i in range(start, stop)]
            return CurveSamples("q", name, tuple(zip(qs, [kernel(q, math) for q in qs])))
        import numpy as np

        if last <= 2**53:
            t = np.arange(start, stop) / last
        else:
            t = np.array([i / last for i in range(start, stop)])
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
    q_bars = _q_bars("n", ns, params.k, params.p, _LANE_MIN)
    return _prechecked("n", "q_bar", tuple(zip(ns, q_bars)))


def sweep_k(n: int, p: float, k_values: Iterable[int]) -> CurveSamples:
    """Equilibrium trust against ray count at fixed (n, p); the abscissae are
    the requested k, as ints.

    Every entry must satisfy p > 1/(k+1); an entry below the signal floor
    raises rather than being silently dropped.
    """
    ks = _sorted_unique(k_values, "k_values")
    params = GameParams(n, ks[0], p)  # the smallest k is the strictest
    q_bars = _q_bars("k", ks, params.n, params.p, _LANE_MIN)
    return _prechecked("k", "q_bar", tuple(zip(ks, q_bars)))
