"""Monte Carlo simulation of the star-search race.

This module is the model-independent check on the closed forms: it plays the
game instead of evaluating the payoff formula. Round semantics:

1. The pointer's correctness is drawn once per round (leaf symmetry makes the
   identity of the marked ray irrelevant).
2. Turns are synchronous. Each turn every searcher redraws its choice: follow
   the pointer (probability r for the focal searcher, q for the others) or
   pick one of the k unmarked rays uniformly. Given a correct pointer a
   searcher lands with probability equal to its trust; given a wrong one,
   with the per-ray complement (1 - trust) / k.
3. The round ends on the first turn somebody lands; all same-turn arrivers
   split the unit prize equally.
4. A round with no arrival within MAX_TURNS turns is capped: everybody scores
   0 and the round is flagged (never resampled, which would bias the
   estimate). The paper's race has no cap; it is there so that both
   simulators finish, and both play the same capped game.

Choices are redrawn every turn with no memory of visited rays; that is the
process whose payoff the closed form describes.

simulate_round plays these semantics literally, turn by turn. estimate_payoff
samples the same law without stepping turns. Turns are i.i.d., so on a
pointer branch where the focal searcher lands with probability f and each
other searcher with probability o:

- a turn has no landing with probability s = (1 - f)(1 - o)^(n - 1);
- the landing turn is Geometric(1 - s), and the round is capped with
  probability s^MAX_TURNS;
- given a landing, the focal searcher is among the arrivers with probability
  f / (1 - s), independently of the landing turn;
- given that it is, the number of co-arrivers is Binomial(n - 1, o).

So a call draws the number of correct-pointer rounds, Binomial(rounds, p),
and then for each branch, correct first: the capped count,
Binomial(rounds, s^MAX_TURNS); the finish turns' total; the focal-in count,
Binomial(finished, f / (1 - s)); and the co-arriver counts of the focal-in
rounds as one multinomial tally. Where the cap's chance is below the
doubles' resolution and numpy's range allows, the finish turns' total is
finished plus one NegativeBinomial(finished, 1 - s) draw. Otherwise it is
drawn exactly at a cost that does not grow with the rounds, from this
identity: a turn T ~ Geometric(1 - s) conditioned on T <= 2^b has
independent bits in T - 1, bit j set with chance s^(2^j) / (1 + s^(2^j)).
(Given T <= 2h, T > h has chance s^h / (1 + s^h), and given that, T - h has
the law of T given T <= h; recurse on the halves.) So one multinomial
spreads the rounds over the dyadic blocks of 1..MAX_TURNS, one per set bit
of MAX_TURNS, and one vector of binomials counts each bit's set rounds.

Determinism: a call draws from one counter-based Philox stream keyed by the
seed, in the order above, so a config's report is bit-identical on every
run.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING

from .model import (
    GameParams,
    TrustProfile,
    _as_count,
    _as_int,
    _checked_make,
    _require_interior_q,
)

if TYPE_CHECKING:  # imported where an array is built
    import numpy as np

__all__ = [
    "MAX_TURNS",
    "SimulationConfig",
    "SimulationReport",
    "RoundResult",
    "simulate_round",
    "estimate_payoff",
    "series_payoff",
    "per_turn_share",
]

MAX_TURNS = 1_000_000
# The turns 1..MAX_TURNS split into one dyadic block per set bit b of
# MAX_TURNS, widest first: the turns offset + 1 .. offset + 2**b.
_WIDTH_BITS = tuple(b for b in reversed(range(MAX_TURNS.bit_length())) if MAX_TURNS >> b & 1)
_OFFSETS = tuple((MAX_TURNS >> (b + 1)) << (b + 1) for b in _WIDTH_BITS)
# Bit j of turn - offset - 1 can be set only in the blocks wider than 2**j,
# the first _BIT_BLOCKS[j] + 1.
_BIT_BLOCKS = tuple(sum(b > j for b in _WIDTH_BITS) - 1 for j in range(_WIDTH_BITS[0]))
_SEED_LIMIT = 1 << 64
_ROUNDS_LIMIT = 1 << 63  # numpy's binomial takes counts below this
_NEGBIN_MEAN_LIMIT = 2.0**50  # numpy's negative binomial fails from a mean ~2**59.5
# A co-arrival window holds at most _WINDOW_LIMIT counts, all below
# _EXACT_COUNT_LIMIT, from which doubles skip integers.
_WINDOW_LIMIT = 1 << 22
_EXACT_COUNT_LIMIT = 1 << 53


class SimulationConfig(namedtuple("SimulationConfig", "params profile rounds seed")):
    """Everything needed to reproduce one payoff estimate of rounds capped
    at MAX_TURNS turns.

    n is refused where a pointer branch's co-arriver window does not fit
    (_coarrival_window): at trust 1/2, from about n = 1.1e10.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(
        cls, params: GameParams, profile: TrustProfile, rounds: int, seed: int
    ) -> SimulationConfig:
        rounds = _as_int(rounds, "rounds", 1)
        seed = _as_int(seed, "seed")
        if rounds >= _ROUNDS_LIMIT:
            raise ValueError("rounds must be below 2**63")
        if not 0 <= seed < _SEED_LIMIT:
            raise ValueError("seed must be an unsigned 64-bit integer")
        for correct in (True, False):
            other_p = _branch_probabilities(params, profile, correct)[1]
            _coarrival_window(other_p, params.n)
        return tuple.__new__(cls, (params, profile, rounds, seed))


class SimulationReport(namedtuple("SimulationReport", "rounds_completed capped_rounds"
                                  " focal_mean_payoff focal_std_error mean_finish_turn"
                                  " seed_echo warning", defaults=(None,))):
    """Focal payoff statistics from independent rounds.

    mean_finish_turn averages over uncapped rounds only (NaN if every round
    was capped). warning, None by default, is set whenever capped rounds
    occurred, since capped rounds score zero and drag the estimate low.
    """

    __slots__ = ()


class RoundResult(namedtuple("RoundResult", "focal_payoff payoffs finish_turn")):
    """One round: the focal payoff, every searcher's payoff as a Fraction
    (the focal searcher's first) and the landing turn, None if capped."""

    __slots__ = ()


def _branch_probabilities(
    params: GameParams, profile: TrustProfile, correct: bool
) -> tuple[float, float]:
    if correct:
        return profile.r, profile.q
    k = params.k
    return (1.0 - profile.r) / k, (1.0 - profile.q) / k


def simulate_round(
    params: GameParams, profile: TrustProfile, rng: np.random.Generator
) -> RoundResult:
    """Play one round; returns the focal payoff, all payoffs, and the turn.

    payoffs[0] is the focal searcher, payoffs[1:] the others, as exact
    fractions so that every uncapped round splits the prize to total exactly
    one. finish_turn is None when nobody lands within MAX_TURNS turns
    (all payoffs 0). Draw order per turn is fixed: one uniform for the focal
    searcher, then a vector of n - 1 uniforms for the others.
    """
    from fractions import Fraction

    n = params.n
    correct = bool(rng.random() < params.p)
    focal_p, other_p = _branch_probabilities(params, profile, correct)
    zero = Fraction(0)
    if focal_p == 0.0 and other_p == 0.0:
        # Nobody can ever land on this branch; the round is capped without
        # burning MAX_TURNS of draws.
        return RoundResult(0.0, [zero] * n, None)
    for turn in range(1, MAX_TURNS + 1):
        focal_in = bool(rng.random() < focal_p)
        others_in = rng.random(n - 1) < other_p
        arrived = int(focal_in) + int(others_in.sum())
        if arrived:
            share = Fraction(1, arrived)
            payoffs = [share if focal_in else zero]
            payoffs.extend(share if hit else zero for hit in others_in)
            return RoundResult(float(share) if focal_in else 0.0, payoffs, turn)
    return RoundResult(0.0, [zero] * n, None)


def _log_no_landing(focal_p: float, other_p: float, n: int) -> float:
    """log s, where s = (1 - focal_p)(1 - other_p)^(n - 1) is the chance that
    nobody lands in a turn; -inf when somebody lands for sure.

    Built from log1p so that s^t and 1 - s stay accurate to the last bits
    when every landing chance is tiny.
    """
    if focal_p >= 1.0 or other_p >= 1.0:
        return -math.inf
    return math.log1p(-focal_p) + (n - 1) * math.log1p(-other_p)


def _coarrival_window(other_p: float, n: int) -> tuple[int, int]:
    """The first and last counts m of Binomial(n - 1, other_p) co-arrivers
    whose chance is not negligible: all of them within the mean +- (40 sd +
    800), outside of which Bernstein's inequality leaves less than e^-400 of
    the mass on either side.

    The window is O(sqrt(n)) counts wide; one of more than 2**22 counts, or
    one that reaches counts past the doubles' integers, is refused.
    """
    others = n - 1
    if other_p == 0.0 or other_p == 1.0:
        m = 0 if other_p == 0.0 else others
        return m, m
    mean = others * other_p
    half = 40.0 * math.sqrt(mean * (1.0 - other_p)) + 800.0
    lo, hi = max(0, math.floor(mean - half)), min(others, math.ceil(mean + half))
    if hi - lo >= _WINDOW_LIMIT or hi >= _EXACT_COUNT_LIMIT:
        raise ValueError(
            "n is too large to simulate: a pointer branch's co-arriver counts"
            " span more than 2**22 values or reach 2**53"
        )
    return lo, hi


def _coarrival_law(other_p: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The shares 1/(m + 1) and the chances of Binomial(n - 1, other_p)
    co-arrivers m, over the counts m of _coarrival_window.

    Log chances relative to the window's first count are a running sum of
    log ratios of neighbouring chances, and the chances are normalised over
    the window.
    """
    import numpy as np

    lo, hi = _coarrival_window(other_p, n)
    if lo == hi:
        return np.array([1.0 / (1.0 + lo)]), np.ones(1)
    others = n - 1
    m = np.arange(lo, hi + 1.0)
    log_odds = math.log(other_p) - math.log1p(-other_p)
    log_chance = np.zeros_like(m)
    np.cumsum(np.log((others - m[:-1]) / (m[:-1] + 1.0)) + log_odds, out=log_chance[1:])
    chance = np.exp(log_chance - log_chance.max())
    chance /= chance.sum()
    return 1.0 / (1.0 + m), chance


def _sample_branch(
    rng: np.random.Generator, rounds: int, focal_p: float, other_p: float, n: int
) -> tuple[float, float, float, int]:
    """Play `rounds` rounds of one pointer branch, each capped at MAX_TURNS
    turns, in the module docstring's draw order, without stepping turns.

    Returns the sum of focal shares, the sum of their squares, the sum of
    finish turns and the number of uncapped rounds.
    """
    if focal_p == 0.0 and other_p == 0.0:
        # Nobody can ever land on this branch: every round is capped.
        return 0.0, 0.0, 0.0, 0
    import numpy as np

    log_s = _log_no_landing(focal_p, other_p, n)
    log_capped = MAX_TURNS * log_s  # log s^MAX_TURNS
    landing = -math.expm1(log_s)  # 1 - s
    finished = rounds - int(rng.binomial(rounds, math.exp(log_capped)))
    # Untruncated turns: m finished rounds last m + NegativeBinomial(m, 1 - s)
    # turns, where numpy's range allows that draw's mean, m s / (1 - s).
    if not finished:
        turn_total = 0.0
    elif math.expm1(log_capped) == -1.0 and (
        finished * math.exp(log_s) < _NEGBIN_MEAN_LIMIT * landing
    ):
        turn_total = finished + float(rng.negative_binomial(finished, landing))
    else:
        # Exact at any count: a turn falls in the block of 2^b turns after
        # turn o with chance proportional to s^o (1 - s^(2^b)), and bit j of
        # its turn - o - 1 is then set with chance s^(2^j) / (1 + s^(2^j)).
        offsets = np.array(_OFFSETS, dtype=float)
        weights = np.exp(offsets * log_s) * -np.expm1(np.ldexp(log_s, _WIDTH_BITS))
        in_block = rng.multinomial(finished, weights / weights.sum())
        bit_values = np.ldexp(1.0, range(len(_BIT_BLOCKS)))
        kept = np.exp(bit_values * log_s)  # s^(2^j)
        bits = rng.binomial(np.cumsum(in_block)[list(_BIT_BLOCKS)], kept / (1.0 + kept))
        turn_total = finished + float(in_block @ offsets) + float(bits @ bit_values)
    focal_in = int(rng.binomial(finished, min(focal_p / landing, 1.0)))
    # Co-arriver counts of the focal-in rounds, tallied by count: their law
    # is that of focal_in independent Binomial(n - 1, o) draws, at a cost
    # that does not grow with the rounds.
    shares, chances = _coarrival_law(other_p, n)
    tally = rng.multinomial(focal_in, chances).astype(float)
    share_total = float(tally @ shares)
    share_sq = float(tally @ (shares * shares))
    return share_total, share_sq, turn_total, finished


def estimate_payoff(config: SimulationConfig) -> SimulationReport:
    """Estimate the focal searcher's expected share over many rounds.

    Samples the law of repeated simulate_round calls as the module docstring
    describes. Standard error is the sample standard deviation over all
    rounds divided by sqrt(rounds); mean_finish_turn averages the uncapped
    rounds.
    """
    import numpy as np

    params, profile = config.params, config.profile
    rounds = config.rounds

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    correct = int(rng.binomial(rounds, params.p))
    total = total_sq = finish_total = 0.0
    finished = 0
    for branch_rounds, is_correct in ((correct, True), (rounds - correct, False)):
        focal_p, other_p = _branch_probabilities(params, profile, is_correct)
        share, share_sq, turns, done = _sample_branch(
            rng, branch_rounds, focal_p, other_p, params.n
        )
        total += share
        total_sq += share_sq
        finish_total += turns
        finished += done
    capped = rounds - finished

    mean = total / rounds
    if rounds > 1:
        variance = max(total_sq - total * total / rounds, 0.0) / (rounds - 1)
    else:
        variance = 0.0
    std_error = math.sqrt(variance / rounds)
    mean_finish = finish_total / finished if finished else math.nan
    warning = None
    if capped:
        warning = (
            f"{capped} of {rounds} rounds hit the {MAX_TURNS}-turn cap; "
            "capped rounds score 0, so the payoff estimate is biased low"
        )
    return SimulationReport(
        rounds_completed=rounds,
        capped_rounds=capped,
        focal_mean_payoff=mean,
        focal_std_error=std_error,
        mean_finish_turn=mean_finish,
        seed_echo=config.seed,
        warning=warning,
    )


def per_turn_share(focal_p: float, other_p: float, n: int) -> float:
    """Expected share the focal searcher collects from a single turn.

    Direct enumeration over the number m of co-arriving others: the focal
    searcher lands with probability focal_p and takes 1/(m+1). Kept as an
    explicit binomial sum on purpose; the closed form it must agree with is
    focal_p * (1 - (1 - other_p)**n) / (n * other_p). The Binomial(n - 1,
    other_p) chances are taken relative to the chance of m = floor((n - 1)
    other_p), within one count of the most likely m, and stepped outward by
    the ratios of neighbouring chances until they fall below the normal
    doubles, as a subnormal chance times a ratio near 1 can round back to
    itself; the sum is divided by the mass they cover. So no term overflows
    at any n, and the cost grows like sqrt(n).
    """
    if not 0.0 <= focal_p <= 1.0:
        raise ValueError("focal_p must lie in [0, 1]")
    if not 0.0 <= other_p <= 1.0:
        raise ValueError("other_p must lie in [0, 1]")
    others = _as_count(n, "n", 2) - 1
    miss = 1.0 - other_p
    anchor = math.floor(others * other_p)
    mass = chance = 1.0
    total = 1.0 / (anchor + 1)
    for m in range(anchor, others):  # chance of m + 1 from that of m
        chance *= (others - m) * other_p / ((m + 1) * miss)
        if chance < sys.float_info.min:
            break
        mass += chance
        total += chance / (m + 2)
    chance = 1.0
    for m in range(anchor, 0, -1):  # chance of m - 1 from that of m
        chance *= m * miss / ((others - m + 1) * other_p)
        if chance < sys.float_info.min:
            break
        mass += chance
        total += chance / m
    return focal_p * total / mass


# series_payoff stops a branch once its remaining mass is at most this.
_TAIL_TOL = 1e-14


def series_payoff(params: GameParams, profile: TrustProfile) -> float:
    """Expected focal share by summing the game turn by turn.

    Independent route to the same number as the closed-form payoff: for each
    pointer branch, sum share * s**t over turns t = 0, 1, ..., where share
    is the enumerated per-turn expected share and s the probability that
    nobody lands in a turn, stopping once the remaining mass drops below
    _TAIL_TOL. The sum runs in doubling blocks, S_2T = S_T (1 + s**T), so
    its cost grows with log(1/(1 - s)) rather than 1/(1 - s). Neither the
    binomial sum nor the geometric series uses its closed form.
    """
    _require_interior_q(profile.q)
    n, p = params.n, params.p
    total = 0.0
    for weight, correct in ((p, True), (1.0 - p, False)):
        focal_p, other_p = _branch_probabilities(params, profile, correct)
        share = per_turn_share(focal_p, other_p, n)
        if share == 0.0:
            continue
        log_s = _log_no_landing(focal_p, other_p, n)
        landing = -math.expm1(log_s)
        # branch is S_T, the sum of the first T = 2**doublings terms
        # share * s**t, and S_2T = S_T (1 + s**T). ldexp scales log s by T
        # exactly and never overflows, so s**T reaches 0 within about 1100
        # doublings even for subnormal trusts.
        branch, doublings = share, 0
        while True:
            power = math.exp(math.ldexp(log_s, doublings))
            # Remaining mass is share * power / (1 - s); dividing first keeps
            # the bound from underflowing when share is subnormal.
            if power <= _TAIL_TOL * (landing / share):
                break
            branch *= 1.0 + power
            doublings += 1
        total += weight * branch
    return total
