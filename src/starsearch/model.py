"""Closed-form payoff model for competitive search on a star graph.

The game: ``n`` searchers start at the hub of a star with ``k + 1`` rays and
race to a treasure sitting at the far end of one ray. A shared pointer marks
the treasure ray with probability ``p`` and one of the other rays otherwise,
and whichever ray it marks stays marked for the whole game. Every turn each
searcher independently either follows the pointer (with a personal trust
probability) or walks down one of the ``k`` unmarked rays chosen uniformly at
random; a wrong ray costs the turn and the searcher tries again from the hub.
The first searchers to step onto the treasure ray split the unit prize
equally.

Because the leaves are interchangeable, only the pointer's correctness
matters. A searcher who trusts with probability ``x`` reaches the treasure on
a given turn with probability ``x`` when the pointer is right and with the
per-ray complement ``(1 - x) / k`` when it is wrong.

This module holds the parameter types and every closed form the solver,
simulator and verifier build on: the focal searcher's expected share, the
equilibrium residual, the monotone map from equilibrium trust back to pointer
reliability, the population size past which equilibrium trust starts
falling, and the optimal trust of a lone searcher used as a baseline. Each
closed form takes its powers (1 - x)^n and their complements from one
exp/log1p kernel, so all of them keep full double accuracy at trusts near 0
or 1 and at any n. All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

__all__ = [
    "GameParams",
    "TrustProfile",
    "expected_payoff",
    "equilibrium_residual",
    "reliability_from_trust",
    "trust_decrease_threshold",
    "single_searcher_optimal_trust",
]


def _as_int(value, name: str, least: int | None = None) -> int:
    try:
        x = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if least is not None and x < least:
        raise ValueError(f"{name} must be at least {least}")
    return x


_DOUBLE_MAX = sys.float_info.max


def _as_count(value, name: str, least: int | None = None) -> int:
    """A population or ray count: an integer the closed forms can use as a double."""
    x = _as_int(value, name, least)
    if x > _DOUBLE_MAX:
        raise ValueError(f"{name} must fit in a double")
    return x


def _as_probability(value, name: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    return x


def _as_unit(value, name: str) -> float:
    x = _as_probability(value, name)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")
    return x


def _as_reliability(value, k: int) -> float:
    """p for a valid ray count k, checked to lie strictly inside (1/(k+1), 1)."""
    p = _as_probability(value, "p")
    if p <= 1.0 / (k + 1):
        raise ValueError("p must exceed 1/(k+1)")
    if p >= 1.0:
        raise ValueError("p must be strictly less than 1")
    return p


def _require_interior_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0, 1)")


def _powers(x, n, xp=math):
    """(1-x)^n, (1-x)^(n-1) and their complements 1-(1-x)^n, 1-(1-x)^(n-1).

    One log1p serves all four, on one route for any n >= 2, and they stay
    accurate for x near 0 or 1. The complements come from expm1, and
    1-(1-x)^n is built as (1-(1-x)^(n-1)) + x(1-x)^(n-1), a sum of
    nonnegative terms, so no term loses digits to cancellation. With
    xp=numpy, x and n may be arrays; there log1p(-1) = -inf already gives
    (0, 0, 1, 1) at x = 1, under np.errstate(divide="ignore").
    """
    if xp is math and x >= 1.0:
        return 0.0, 0.0, 1.0, 1.0
    log_power = (n - 1) * xp.log1p(-x)
    power1 = xp.exp(log_power)
    complement1 = -xp.expm1(log_power)
    return power1 * (1.0 - x), power1, complement1 + x * power1, complement1


@dataclass(frozen=True)
class GameParams:
    """One game instance: n searchers, k + 1 rays, pointer reliability p.

    Requires n >= 2 (a single searcher is an optimization problem, not a
    game), k >= 1, and 1/(k+1) < p < 1 strictly: a pointer at or below the
    uniform-guess rate carries no usable signal, and a perfect pointer
    leaves nothing to decide.
    """

    n: int
    k: int
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_count(self.n, "n", 2))
        object.__setattr__(self, "k", _as_count(self.k, "k", 1))
        object.__setattr__(self, "p", _as_reliability(self.p, self.k))


@dataclass(frozen=True)
class TrustProfile:
    """Population trust q (the n - 1 others) and focal trust r."""

    q: float
    r: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _as_unit(self.q, "q"))
        object.__setattr__(self, "r", _as_unit(self.r, "r"))


def _branch_payoff(n: int, x: float, y):
    """One pointer branch of the payoff: focal trust-rate y against others' x.

    The per-turn share y (1-(1-x)^n) / (n x) summed over the turns in which
    nobody has landed, whose chance per turn is (1-x)^(n-1) (1-y); the
    series' denominator 1 - (1-x)^(n-1) (1-y) is written as the positive sum
    y + (1-y)(1-(1-x)^(n-1)). Only arithmetic operators touch y, so y may
    be a numpy array.
    """
    _, _, complement, complement1 = _powers(x, n)
    return y * complement / (n * x) / (y + (1.0 - y) * complement1)


def _payoff(n: int, k: int, p: float, q: float, r):
    """expected_payoff without validation; r may be a numpy array."""
    right = _branch_payoff(n, q, r)
    wrong = _branch_payoff(n, (1.0 - q) / k, (1.0 - r) / k)
    return p * right + (1.0 - p) * wrong


def expected_payoff(params: GameParams, profile: TrustProfile) -> float:
    """Expected prize share of the focal searcher with trust r against q.

    Sums, for each pointer branch, the geometric series of per-turn expected
    shares: per turn the focal searcher lands with m co-arrivers and takes
    1/(m+1), and play repeats while nobody lands. q must be interior: at
    q = 0 the pointer-right branch is 0/0 and at q = 1 the pointer-wrong
    branch is, so neither endpoint is given a value here. The symmetric
    profile r = q is deliberately not special-cased; it must come out as
    1/n from the arithmetic alone.
    """
    _require_interior_q(profile.q)
    return _payoff(params.n, params.k, params.p, profile.q, profile.r)


def equilibrium_residual(params: GameParams, q: float) -> float:
    """Residual whose unique interior root is the symmetric equilibrium trust.

    Positive residual means trust q is too low to be self-consistent for
    reliability p, negative means too high. Also vanishes at q = 1, which is
    why the solver brackets on the monotone reliability map instead.
    """
    return _residual(params.n, params.k, params.p, _as_unit(q, "q"))


def _residual(n: int, k: int, p: float, q, xp=math):
    """equilibrium_residual without validation; q may be a numpy array."""
    p_star = (1.0 - p) / k
    q_star = (1.0 - q) / k
    _, _, a_complement, a1_complement = _powers(q_star, n, xp)
    _, _, b_complement, b1_complement = _powers(q, n, xp)
    return p * q_star * a_complement * b1_complement - (
        p_star * q * b_complement * a1_complement
    )


def reliability_from_trust(n: int, k: int, q: float) -> float:
    """Pointer reliability for which trust q is the symmetric equilibrium.

    The inverse of the equilibrium map: strictly increasing in q, with value
    tending to 1/(k+1) as q approaches 1/(k+1) and to 1 as q approaches 1.
    Only the open interval is accepted; the endpoint values are limits, not
    function values.
    """
    n = _as_count(n, "n", 2)
    k = _as_count(k, "k", 1)
    q = _as_probability(q, "q")
    if not 1.0 / (k + 1) < q < 1.0:
        raise ValueError("q must lie strictly inside (1/(k+1), 1)")
    return _reliability(n, k, q)


def _reliability(n: int, k: int, q, xp=math):
    """reliability_from_trust without validation; q may be a numpy array.

    own / (own + other), with own = q B A1 and other = (1-q) A B1 as in
    _reliability_excess, both divided by q q q* so that neither underflows
    where q and q* are near 1e-300. A float q = 1 gives the limit 1.
    """
    if xp is math and q >= 1.0:
        return 1.0
    q_star = (1.0 - q) / k
    _, _, a_complement, a1_complement = _powers(q_star, n, xp)
    _, _, b_complement, b1_complement = _powers(q, n, xp)
    own = b_complement / q * (a1_complement / q_star)
    other = (1.0 - q) / q * (a_complement / q_star) * (b1_complement / q)
    return own / (own + other)


def _reliability_excess(n, k, p: float, q, xp=math):
    """reliability_from_trust(n, k, q) - p times a positive factor, with a
    sign to trust.

    The difference's numerator is q(1-p) B A1 - p(1-q) A B1, where
    A, A1 = 1-(1-q*)^n, 1-(1-q*)^(n-1) with q* = (1-q)/k, and B, B1 are the
    same for q. That is (q - p) B A1 + p(1-q) D, where D = B A1 - A B1 is
    d (1-q)^(n-1) A1 + q* (1-q*)^(n-1) expm1((n-1) log1p(-d/(1-q*))) with
    d = q - q* = ((k+1)q - 1)/k. This returns it divided by p q q*, from the
    ratios B/q, A1/q* and d/q, none of which underflows even where p and q*
    are near 1e-300. Near the root the numerator's two products agree in
    nearly all their digits; this form subtracts no such pair, so its sign
    stays right next to the signal floor (where q* is close to q and D
    vanishes), where k is far above n and where the equilibrium gap
    underflows. Needs q < 1; towards q = 1 it tends to (1-p)(n-1)/p. With
    xp=numpy, n, k and q may be arrays.
    """
    q_star = (1.0 - q) / k
    _, a1, _, a1_complement = _powers(q_star, n, xp)
    _, b1, b_complement, _ = _powers(q, n, xp)
    d = (q * (k + 1.0) - 1.0) / k
    a_ratio = a1_complement / q_star
    shrink = xp.expm1((n - 1) * xp.log1p(-d / (1.0 - q_star)))
    cross = (d * b1 * a_ratio + a1 * shrink) / q  # D / (q q*)
    return (q - p) / p * (b_complement / q) * a_ratio + (1.0 - q) * cross


def trust_decrease_threshold(p: float, k: int) -> float:
    """Population size beyond which equilibrium trust strictly falls with n.

    Returns 3 + 2 ln(k) / ln((k-1+p) / (k(1-p))); exactly 3 for k = 1, and
    diverging as p approaches the 1/(k+1) signal floor. Below the threshold
    trust may move either way with n.
    """
    k = _as_count(k, "k", 1)
    p = _as_reliability(p, k)
    if k == 1:
        return 3.0
    return 3.0 + 2.0 * math.log(k) / math.log((k - 1.0 + p) / (k * (1.0 - p)))


def single_searcher_optimal_trust(p: float, k: int) -> float:
    """Optimal trust of a lone searcher minimizing expected time to arrive.

    Comparison baseline for the competitive game: 1 / (1 + sqrt(k(1-p)/p)),
    decreasing in k. It equals (p - sqrt(k p (1-p))) / (1 - (k+1)(1-p)),
    whose numerator and denominator both vanish at p = k/(k+1), where the
    value is 1/2; this form has no such point.
    """
    k = _as_count(k, "k", 1)
    p = _as_reliability(p, k)
    return 1.0 / (1.0 + math.sqrt(k * (1.0 - p)) / math.sqrt(p))
