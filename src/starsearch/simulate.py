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
4. A round with no arrival within max_turns is capped: everybody scores 0 and
   the round is flagged (never resampled, which would bias the estimate).

Choices are redrawn every turn with no memory of visited rays; that is the
process whose payoff the closed form describes.

simulate_round plays these semantics literally, turn by turn. estimate_payoff
samples the same law without stepping turns. Turns are i.i.d., so on a
pointer branch where the focal searcher lands with probability f and each
other searcher with probability o:

- a turn has no landing with probability s = (1 - f)(1 - o)^(n - 1);
- the landing turn is Geometric(1 - s), and the round is capped with
  probability s^max_turns;
- given a landing, the focal searcher is among the arrivers with probability
  f / (1 - s), independently of the landing turn;
- given that it is, the number of co-arrivers is Binomial(n - 1, o).

Only the finish turn is drawn round by round. The capped and focal-in
counts are single binomial draws per branch, and the co-arriver counts of
the focal-in rounds are drawn as one multinomial tally over the counts. So
every round costs the same one uniform whatever the trusts.

Determinism: rounds are processed in fixed blocks of 65536, block b drawing
from a counter-based Philox stream keyed by (seed, b), and block results are
reduced in block order. Reports are therefore bit-identical for identical
configs no matter how blocks might be scheduled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .model import GameParams, TrustProfile, _as_int, _require_interior_q

__all__ = [
    "SimulationConfig",
    "SimulationReport",
    "RoundResult",
    "simulate_round",
    "estimate_payoff",
    "series_payoff",
    "per_turn_share",
]

DEFAULT_MAX_TURNS = 1_000_000
_BLOCK_ROUNDS = 1 << 16
_SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce one payoff estimate."""

    params: GameParams
    profile: TrustProfile
    rounds: int
    seed: int
    max_turns: int = DEFAULT_MAX_TURNS

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", _as_int(self.rounds, "rounds", 1))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        object.__setattr__(self, "max_turns", _as_int(self.max_turns, "max_turns", 1))
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class SimulationReport:
    """Focal payoff statistics from independent rounds.

    mean_finish_turn averages over uncapped rounds only (NaN if every round
    was capped). warning is set whenever capped rounds occurred, since capped
    rounds score zero and drag the estimate low.
    """

    rounds_completed: int
    capped_rounds: int
    focal_mean_payoff: float
    focal_std_error: float
    mean_finish_turn: float
    seed_echo: int
    warning: str | None = None


class RoundResult(NamedTuple):
    focal_payoff: float
    payoffs: list[Fraction]
    finish_turn: int | None


def _branch_probabilities(
    params: GameParams, profile: TrustProfile, correct: bool
) -> tuple[float, float]:
    if correct:
        return profile.r, profile.q
    k = params.k
    return (1.0 - profile.r) / k, (1.0 - profile.q) / k


def simulate_round(
    params: GameParams,
    profile: TrustProfile,
    rng: np.random.Generator,
    max_turns: int = DEFAULT_MAX_TURNS,
) -> RoundResult:
    """Play one round; returns the focal payoff, all payoffs, and the turn.

    payoffs[0] is the focal searcher, payoffs[1:] the others, as exact
    fractions so that every uncapped round splits the prize to total exactly
    one. finish_turn is None when the round hits max_turns (all payoffs 0).
    Draw order per turn is fixed: one uniform for the focal searcher, then a
    vector of n - 1 uniforms for the others.
    """
    n = params.n
    correct = bool(rng.random() < params.p)
    focal_p, other_p = _branch_probabilities(params, profile, correct)
    zero = Fraction(0)
    if focal_p == 0.0 and other_p == 0.0:
        # Nobody can ever land on this branch; the round is capped without
        # burning max_turns of draws.
        return RoundResult(0.0, [zero] * n, None)
    for turn in range(1, max_turns + 1):
        focal_in = bool(rng.random() < focal_p)
        others_in = rng.random(n - 1) < other_p
        arrived = int(focal_in) + int(np.count_nonzero(others_in))
        if arrived:
            share = Fraction(1, arrived)
            payoffs = [share if focal_in else zero]
            payoffs.extend(share if hit else zero for hit in others_in)
            return RoundResult(float(share) if focal_in else 0.0, payoffs, turn)
    return RoundResult(0.0, [zero] * n, None)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _log_no_landing(focal_p: float, other_p: float, n: int) -> float:
    """log s, where s = (1 - focal_p)(1 - other_p)^(n - 1) is the chance that
    nobody lands in a turn; -inf when somebody lands for sure.

    Built from log1p so that s^t and 1 - s stay accurate to the last bits
    when every landing chance is tiny.
    """
    if focal_p >= 1.0 or other_p >= 1.0:
        return -math.inf
    return math.log1p(-focal_p) + (n - 1) * math.log1p(-other_p)


def _coarrival_law(other_p: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The shares 1/(m + 1) and the chances of Binomial(n - 1, other_p)
    co-arrivers m, over the counts m whose chance is not negligible.

    The window is the mean +- (40 sd + 800), outside of which Bernstein's
    inequality leaves less than e^-400 of the mass on either side, so the
    cost stays O(sqrt(n)) at large n. Log chances relative to the window's
    first count are a running sum of log ratios of neighbouring chances,
    and the chances are normalised over the window.
    """
    others = n - 1
    if other_p == 0.0 or other_p == 1.0:
        m = 0.0 if other_p == 0.0 else float(others)
        return np.array([1.0 / (1.0 + m)]), np.ones(1)
    mean = others * other_p
    half = 40.0 * math.sqrt(mean * (1.0 - other_p)) + 800.0
    lo, hi = max(0, math.floor(mean - half)), min(others, math.ceil(mean + half))
    m = np.arange(lo, hi + 1.0)
    log_odds = math.log(other_p) - math.log1p(-other_p)
    log_chance = np.zeros_like(m)
    np.cumsum(np.log((others - m[:-1]) / (m[:-1] + 1.0)) + log_odds, out=log_chance[1:])
    chance = np.exp(log_chance - log_chance.max())
    chance /= chance.sum()
    return 1.0 / (1.0 + m), chance


def _sample_branch(
    rng: np.random.Generator,
    rounds: int,
    focal_p: float,
    other_p: float,
    n: int,
    max_turns: float,
    coarrivals: tuple[np.ndarray, np.ndarray],
) -> tuple[float, float, float, int]:
    """Play `rounds` rounds of one pointer branch without stepping turns.

    Returns the sum of focal shares, the sum of their squares, the sum of
    finish turns and the number of uncapped rounds. coarrivals is
    _coarrival_law(other_p, n). Draw order is fixed: the capped count, one
    uniform per uncapped round for its finish turn, the count of rounds the
    focal searcher lands in, then how many of those have each co-arriver
    count, as one multinomial draw.
    """
    if focal_p == 0.0 and other_p == 0.0:
        # Nobody can ever land on this branch: every round is capped.
        return 0.0, 0.0, 0.0, 0
    log_s = _log_no_landing(focal_p, other_p, n)
    log_capped = max_turns * log_s  # log s^max_turns
    finished = rounds - int(rng.binomial(rounds, math.exp(log_capped)))
    # Inverse CDF of the landing turn, Geometric(1 - s) given it is at most
    # max_turns: the smallest t with 1 - s^t >= u (1 - s^max_turns). The
    # arrays are updated in place because fresh block-sized temporaries cost
    # as much as the arithmetic.
    turns = rng.random(finished)
    turns *= math.expm1(log_capped)
    np.log1p(turns, out=turns)
    turns /= log_s
    np.clip(np.ceil(turns, out=turns), 1.0, max_turns, out=turns)
    focal_in = int(rng.binomial(finished, min(focal_p / -math.expm1(log_s), 1.0)))
    # Co-arriver counts of the focal-in rounds, tallied by count: their law
    # is that of focal_in independent Binomial(n - 1, o) draws, at a cost
    # that does not grow with the rounds.
    shares, chances = coarrivals
    tally = rng.multinomial(focal_in, chances).astype(float)
    share_total = float(tally @ shares)
    share_sq = float(tally @ (shares * shares))
    return share_total, share_sq, float(np.sum(turns)), finished


def estimate_payoff(config: SimulationConfig) -> SimulationReport:
    """Estimate the focal searcher's expected share over many rounds.

    Samples the law of repeated simulate_round calls at a cost per round
    that does not depend on the trusts. Per block, the number of rounds with
    a correct pointer is Binomial(block rounds, p). On each branch, with
    landing chances f (focal) and o (each other) and s = (1 - f)(1 - o)^(n-1):
    Binomial(rounds, s^max_turns) rounds are capped and score 0; each other
    round finishes on a turn drawn from Geometric(1 - s) truncated at
    max_turns; the focal searcher is among its arrivers with probability
    f / (1 - s) and then shares with Binomial(n - 1, o) co-arrivers, whose
    counts over the focal-in rounds are drawn as one multinomial tally. Standard
    error is the sample standard deviation over all rounds divided by
    sqrt(rounds); mean_finish_turn averages the uncapped rounds.
    """
    params, profile = config.params, config.profile
    rounds = config.rounds
    # A cap beyond the float range never binds.
    max_turns = config.max_turns if config.max_turns <= sys.float_info.max else math.inf

    branches = []
    for is_correct in (True, False):
        focal_p, other_p = _branch_probabilities(params, profile, is_correct)
        branches.append((focal_p, other_p, _coarrival_law(other_p, params.n)))

    total = 0.0
    total_sq = 0.0
    finish_total = 0.0
    finished = 0
    n_blocks = (rounds + _BLOCK_ROUNDS - 1) // _BLOCK_ROUNDS
    for block in range(n_blocks):
        count = min(_BLOCK_ROUNDS, rounds - block * _BLOCK_ROUNDS)
        rng = _block_rng(config.seed, block)
        correct = int(rng.binomial(count, params.p))
        for branch_rounds, (focal_p, other_p, coarrivals) in zip(
            (correct, count - correct), branches
        ):
            share, share_sq, turns, done = _sample_branch(
                rng, branch_rounds, focal_p, other_p, params.n, max_turns, coarrivals
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
            f"{capped} of {rounds} rounds hit the {config.max_turns}-turn cap; "
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
    the ratios of neighbouring chances until they underflow; the sum is
    divided by the mass they cover. So no term overflows at any n, and the
    cost grows like sqrt(n).
    """
    if not 0.0 <= focal_p <= 1.0:
        raise ValueError("focal_p must lie in [0, 1]")
    if not 0.0 <= other_p <= 1.0:
        raise ValueError("other_p must lie in [0, 1]")
    others = _as_int(n, "n", 2) - 1
    miss = 1.0 - other_p
    anchor = math.floor(others * other_p)
    mass = chance = 1.0
    total = 1.0 / (anchor + 1)
    for m in range(anchor, others):  # chance of m + 1 from that of m
        chance *= (others - m) * other_p / ((m + 1) * miss)
        if chance == 0.0:
            break
        mass += chance
        total += chance / (m + 2)
    chance = 1.0
    for m in range(anchor, 0, -1):  # chance of m - 1 from that of m
        chance *= m * miss / ((others - m + 1) * other_p)
        if chance == 0.0:
            break
        mass += chance
        total += chance / m
    return focal_p * total / mass


def series_payoff(
    params: GameParams, profile: TrustProfile, tail_tol: float = 1e-14
) -> float:
    """Expected focal share by summing the game turn by turn.

    Independent route to the same number as the closed-form payoff: for each
    pointer branch, sum share * s**t over turns t = 0, 1, ..., where share
    is the enumerated per-turn expected share and s the probability that
    nobody lands in a turn, stopping once the remaining mass drops below
    tail_tol. The sum runs in doubling blocks, S_2T = S_T (1 + s**T), so
    its cost grows with log(1/(1 - s)) rather than 1/(1 - s). Neither the
    binomial sum nor the geometric series uses its closed form.
    """
    if not tail_tol > 0.0:
        raise ValueError("tail_tol must be positive")
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
            if power <= tail_tol * (landing / share):
                break
            branch *= 1.0 + power
            doublings += 1
        total += weight * branch
    return total
