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
closed form reads its per-turn landing chances from one function, _landing,
which takes the powers (1 - x)^(n-1) and their complements from one
exp/log1p kernel, so all of them keep full double accuracy at trusts near 0
or 1 and at any n. All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple

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
    try:
        x = float(value)
    except OverflowError:  # an int past the largest double
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    return x


def _as_unit(value, name: str) -> float:
    x = _as_probability(value, name)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")
    return x


def _above_floor(x: float, k: int) -> bool:
    """Whether the finite double x exceeds 1/(k+1), decided exactly.

    With x = a/b, b > 0, x > 1/(k+1) exactly when (k+1) a > b, in plain
    ints at any k. The double 1.0 / (k + 1) is the floor rounded, twice past
    k + 1 = 2**53, to either side of it: 0.2 lies above 1/5.
    """
    a, b = x.as_integer_ratio()
    return (k + 1) * a > b


def _as_reliability(value, k: int) -> float:
    """p for a valid ray count k, checked to lie strictly inside (1/(k+1), 1)."""
    p = _as_probability(value, "p")
    if not _above_floor(p, k):
        raise ValueError("p must exceed 1/(k+1)")
    if p >= 1.0:
        raise ValueError("p must be strictly less than 1")
    return p


def _require_interior_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0, 1)")


def _powers(x, n, xp=math):
    """(1-x)^(n-1) and the complements 1-(1-x)^n and 1-(1-x)^(n-1).

    One log1p serves all three, on one route for any n >= 2, and they stay
    accurate for x near 0 or 1. The complements come from expm1, and
    1-(1-x)^n is built as (1-(1-x)^(n-1)) + x(1-x)^(n-1), a sum of
    nonnegative terms, so no term loses digits to cancellation. With
    xp=numpy, x and n may be arrays; there log1p(-1) = -inf already gives
    (0, 1, 1) at x = 1, under np.errstate(divide="ignore").
    """
    if xp is math and x >= 1.0:
        return 0.0, 1.0, 1.0
    log_power = (n - 1) * xp.log1p(-x)
    power1 = xp.exp(log_power)
    complement1 = -xp.expm1(log_power)
    return power1, complement1 + x * power1, complement1


def _per_rate(complement, x, limit, xp=math):
    """complement / x, or its limit where the rate x is 0."""
    if xp is math:
        return complement / x if x else float(limit)
    return xp.where(x > 0.0, complement / x, float(limit))


def _checked_make(cls, values):
    """namedtuple._make, and so _replace, through the record's validating __new__."""
    return cls(*values)


class GameParams(namedtuple("GameParams", "n k p")):
    """One game instance: n searchers, k + 1 rays, pointer reliability p.

    Requires n >= 2 (a single searcher is an optimization problem, not a
    game), k >= 1, and 1/(k+1) < p < 1 strictly: a pointer at or below the
    uniform-guess rate carries no usable signal, and a perfect pointer
    leaves nothing to decide.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, n: int, k: int, p: float) -> GameParams:
        n = _as_count(n, "n", 2)
        k = _as_count(k, "k", 1)
        return tuple.__new__(cls, (n, k, _as_reliability(p, k)))


class TrustProfile(namedtuple("TrustProfile", "q r")):
    """Population trust q (the n - 1 others) and focal trust r."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, q: float, r: float) -> TrustProfile:
        return tuple.__new__(cls, (_as_unit(q, "q"), _as_unit(r, "r")))


def _branch_payoff(n: int, x: float, complement: float, complement1: float):
    """One pointer branch of the payoff, as a function of the focal
    trust-rate y against others' x, and of t = y/x, from the complements
    1-(1-x)^n and 1-(1-x)^(n-1) that _landing gives for x.

    The per-turn share y (1-(1-x)^n) / (n x) summed over the turns in which
    nobody has landed, whose chance per turn is (1-x)^(n-1) (1-y); the
    series' denominator 1 - (1-x)^(n-1) (1-y) is written as the positive sum
    y + (1-y)(1-(1-x)^(n-1)). Divided through by x, the branch is
    t S / (t + (1-y) S1), with S = (1-(1-x)^n) / (n x) and
    S1 = (1-(1-x)^(n-1)) / x taken once, for every y. The caller forms t
    from ratios that do not underflow, so where x is 0, as (1-q)/k is when
    k is huge and q near 1, S and S1 take their limits 1 and n - 1 and the
    branch stays defined. Where t overflows, the branch is its limit S.
    """
    share = _per_rate(complement, n * x, 1.0)
    share1 = _per_rate(complement1, x, n - 1.0)

    def branch(y: float, t: float) -> float:
        if t > _DOUBLE_MAX:
            return share
        return t * share / (t + (1.0 - y) * share1)

    return branch


def _payoff(n: int, k: int, p: float, q: float):
    """expected_payoff without validation, as a function of the focal trust r."""
    q_star, _, a_complement, a1_complement, _, b_complement, b1_complement = (
        _landing(n, k, q)
    )
    right = _branch_payoff(n, q, b_complement, b1_complement)
    wrong = _branch_payoff(n, q_star, a_complement, a1_complement)
    miss = 1.0 - q

    def payoff(r: float) -> float:
        return p * right(r, r / q) + (1.0 - p) * wrong((1.0 - r) / k, (1.0 - r) / miss)

    return payoff


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
    return _payoff(params.n, params.k, params.p, profile.q)(profile.r)


def equilibrium_residual(params: GameParams, q: float) -> float:
    """Residual whose unique interior root is the symmetric equilibrium trust.

    Positive residual means trust q is too low to be self-consistent for
    reliability p, negative means too high. Also vanishes at q = 1, which is
    why the solver brackets on the monotone reliability map instead.
    """
    n, k, p = params.n, params.k, params.p
    q = _as_unit(q, "q")
    return _residual(k, p, q, _landing(n, k, q))


def _landing(n, k, q, xp=math):
    """q*, a1, A, A1, b1, B, B1: q* = (1-q)/k, a1, A, A1 = (1-q*)^(n-1),
    1-(1-q*)^n, 1-(1-q*)^(n-1), and b1, B, B1 the same for q. A and B are the
    chances that someone lands in a turn. Every closed form reads its powers
    from here, the only caller of _powers. q, n and k may be numpy arrays."""
    q_star = (1.0 - q) / k
    a1, a_complement, a1_complement = _powers(q_star, n, xp)
    b1, b_complement, b1_complement = _powers(q, n, xp)
    return q_star, a1, a_complement, a1_complement, b1, b_complement, b1_complement


def _residual(k, p: float, q, landing):
    """equilibrium_residual without validation, from _landing(n, k, q)."""
    q_star, _, a_complement, a1_complement, _, b_complement, b1_complement = landing
    p_star = (1.0 - p) / k
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
    if not (_above_floor(q, k) and q < 1.0):
        raise ValueError("q must lie strictly inside (1/(k+1), 1)")
    return _reliability(n, q, _landing(n, k, q))


def _reliability(n, q, landing, xp=math):
    """reliability_from_trust without validation, from _landing(n, k, q).

    1 / (1 + r), r = other/own = (1-q) (A/A1) (B1/q/B) for own = q B A1 and
    other = (1-q) A B1 as in _excess. A/A1 lies in (1, n/(n-1)] and B1/B in
    (0, 1], and the one large factor, 1/q, multiplies no other large term, so
    r overflows nowhere in the domain. Where q* is 0 (k huge and q near 1, or
    q = 1), A/A1 takes its limit n/(n-1). With xp=numpy, q is an array.
    """
    _, _, a_complement, a1_complement, _, b_complement, b1_complement = landing
    ratio = _per_rate(a_complement, a1_complement, n / (n - 1.0), xp)
    return 1.0 / (1.0 + (1.0 - q) * ratio * (b1_complement / q / b_complement))


def _excess(n, k, p: float, q, landing, xp=math):
    """reliability_from_trust(n, k, q) - p times a positive factor, with a
    sign to trust, from _landing(n, k, q).

    The difference's numerator is q(1-p) B A1 - p(1-q) A B1, with A, A1, B
    and B1 as in _landing. That is (q - p) B A1 + p(1-q) D, where D = B A1 -
    A B1 is d (1-q)^(n-1) A1 + q* (1-q*)^(n-1) expm1((n-1) log1p(-d/(1-q*))) with
    d = q - q* = ((k+1)q - 1)/k. This returns it divided by p q q*, from the
    ratios B/q, A1/q* and d/q, none of which underflows even where p and q*
    are near 1e-300. Near the root the numerator's two products agree in
    nearly all their digits; this form subtracts no such pair, so its sign
    stays right next to the signal floor (where q* is close to q and D
    vanishes), where k is far above n and where the equilibrium gap
    underflows. Needs q < 1; towards q = 1 it tends to (1-p)(n-1)/p. With
    xp=numpy, n, k and q may be arrays.
    """
    q_star, a1, _, a1_complement, b1, b_complement, _ = landing
    d = (q * (k + 1.0) - 1.0) / k
    a_ratio = a1_complement / q_star
    shrink = xp.expm1((n - 1) * xp.log1p(-d / (1.0 - q_star)))
    cross = (d * b1 * a_ratio + a1 * shrink) / q  # D / (q q*)
    return (q - p) / p * (b_complement / q) * a_ratio + (1.0 - q) * cross


def _newton(n, k, p: float, q, landing, excess, xp=math):
    """The Newton target for F(q) = p, F the reliability map, from
    _landing(n, k, q) and excess = _excess(n, k, p, q, landing). With
    u = B A1/q* and v = (1-q) A B1/(q q*), so that _reliability's ratio r
    is v/u, F - p = excess p/(u + v) and F' = u v s/(u + v)^2, with
    s = -d log(r)/dq, so the target is q - excess p (u + v)/(u v s).
    It is NaN where u v s is not positive or a term divides by 0, and
    neither raises nor warns. With xp=numpy, n, k, q and excess are arrays."""
    if xp is math:
        try:
            scale, slope = _newton_terms(n, k, q, landing)
        except ZeroDivisionError:
            return math.nan
        return q - excess * p * scale / slope if slope > 0.0 else math.nan
    with xp.errstate(all="ignore"):
        scale, slope = _newton_terms(n, k, q, landing)
        return xp.where(slope > 0.0, q - excess * p * scale / slope, xp.nan)


def _newton_terms(n, k, q, landing):
    """u + v and u v s of _newton from the landing tuple, on floats or arrays:
    s = 1/(q(1-q)) + n b1/B - (n-1) b1/((1-q) B1) - (n-1) a1/(k (1-q*) A1) + n a1/(k A)."""
    q_star, a1, a_complement, a1_complement, b1, b_complement, b1_complement = landing
    miss = 1.0 - q
    u = b_complement * (a1_complement / q_star)
    v = miss * (a_complement / q_star) * (b1_complement / q)
    s = (1.0 / (q * miss) + n * b1 / b_complement - (n - 1) * b1 / (miss * b1_complement)
         - (n - 1) * a1 / (k * (1.0 - q_star) * a1_complement) + n * a1 / (k * a_complement))
    return u + v, u * v * s


def trust_decrease_threshold(p: float, k: int) -> float:
    """Population size beyond which equilibrium trust strictly falls with n.

    Returns 3 + 2 ln(k) / ln((k-1+p) / (k(1-p))); exactly 3 for k = 1, and
    diverging as p approaches the 1/(k+1) signal floor. Below the threshold
    trust may move either way with n. The log is taken as
    log1p(d / (k(1-p))) with d = (k+1)p - 1, that ratio divided once from
    the integers of p's exact ratio: near the floor the quotient
    (k-1+p)/(k(1-p)) rounds to within a few ulps of 1, and its log keeps
    none of its digits. Where the ratio underflows to 0 the threshold is
    inf.
    """
    k = _as_count(k, "k", 1)
    p = _as_reliability(p, k)
    a, b = p.as_integer_ratio()
    log_ratio = math.log1p(((k + 1) * a - b) / (k * (b - a)))
    if log_ratio == 0.0:
        return math.inf
    return 3.0 + 2.0 * math.log(k) / log_ratio


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
