import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from starsearch import (
    MAX_TURNS,
    GameParams,
    SimulationConfig,
    TrustProfile,
    estimate_payoff,
    expected_payoff,
    per_turn_share,
    series_payoff,
    simulate_round,
)
from starsearch.model import _powers
from starsearch.simulate import (
    _OFFSETS,
    _WIDTH_BITS,
    _coarrival_law,
    _log_no_landing,
    _sample_branch,
)


# Child interpreters import the package from this checkout.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def first_uniform(seed):
    return np.random.default_rng(seed).random()


def finish_turn_moments(params, profile):
    """Mean and variance of an uncapped round's finish turn: a mixture,
    over the pointer branches, of geometrics with landing chance 1 - s."""
    n, k, p = params.n, params.k, params.p
    q, r = profile.q, profile.r
    s_right = (1 - r) * (1 - q) ** (n - 1)
    s_wrong = (1 - (1 - r) / k) * (1 - (1 - q) / k) ** (n - 1)
    mean = second = 0.0
    for weight, s in ((p, s_right), (1 - p, s_wrong)):
        mean += weight / (1 - s)
        second += weight * (1 + s) / (1 - s) ** 2
    return mean, second - mean**2


class TestSimulationConfig:
    def test_validation(self):
        params = GameParams(2, 1, 0.6)
        profile = TrustProfile(0.5, 0.5)
        with pytest.raises(ValueError, match="rounds"):
            SimulationConfig(params, profile, rounds=0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            SimulationConfig(params, profile, rounds=1, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            SimulationConfig(params, profile, rounds=1, seed=2**64)

    def test_rounds_below_two_to_the_63(self):
        # numpy's binomial takes counts below 2**63, and estimate_payoff
        # draws the correct-pointer rounds as one binomial of all rounds.
        params, profile = GameParams(2, 1, 0.6), TrustProfile(0.5, 0.5)
        with pytest.raises(ValueError, match=r"^rounds must be below 2\*\*63$"):
            SimulationConfig(params, profile, rounds=2**63, seed=1)
        assert SimulationConfig(params, profile, rounds=2**63 - 1, seed=1).rounds == 2**63 - 1

    # At o = 1/2 a co-arrival window of 80 sd + 1,601 counts passes 2**22
    # counts from about n = 1.1e10; with the others' trust one ulp below 1
    # and n = 1e20 its counts are not all doubles.
    @pytest.mark.parametrize(
        "n, q", [(10**17, 0.5), (10**300, 0.5), (10**20, 1 - 2**-53)],
        ids=["1e17", "1e300", "1e20-near-certain"],
    )
    def test_population_past_the_co_arrival_window_rejected(self, n, q):
        with pytest.raises(ValueError, match=r"^n is too large to simulate"):
            SimulationConfig(GameParams(n, 1, 0.6), TrustProfile(q, q), rounds=1, seed=1)

    def test_million_searchers_simulate(self):
        params, profile = GameParams(10**6, 1, 0.6), TrustProfile(0.5, 0.5)
        report = estimate_payoff(SimulationConfig(params, profile, rounds=10**4, seed=1))
        exact = expected_payoff(params, profile)
        assert abs(report.focal_mean_payoff - exact) < 4 * report.focal_std_error


class TestSimulateRound:
    def test_full_trust_correct_pointer_splits_on_turn_one(self):
        # Pick p above the generator's first uniform so the pointer comes up
        # correct; with everyone fully trusting, all n land on turn 1.
        seed = 0
        p = min(0.99, first_uniform(seed) + 0.05)
        params = GameParams(4, 1, p)
        result = simulate_round(params, TrustProfile(1.0, 1.0), np.random.default_rng(seed))
        assert result.finish_turn == 1
        assert result.focal_payoff == 0.25
        assert result.payoffs == [Fraction(1, 4)] * 4

    def test_zero_trust_correct_pointer_caps(self):
        # Correct pointer, nobody ever follows it, and the single other ray
        # is wrong forever.
        seed = 0
        p = min(0.99, first_uniform(seed) + 0.05)
        params = GameParams(3, 1, p)
        result = simulate_round(params, TrustProfile(0.0, 0.0), np.random.default_rng(seed))
        assert result.finish_turn is None
        assert result.focal_payoff == 0.0
        assert result.payoffs == [Fraction(0)] * 3

    def test_zero_trust_wrong_pointer_wins_immediately(self):
        # Wrong pointer with k=1: ignoring it walks straight to the treasure.
        seed = 0
        p = max(0.51, first_uniform(seed) - 0.05)
        params = GameParams(3, 1, p)
        result = simulate_round(params, TrustProfile(0.0, 0.0), np.random.default_rng(seed))
        assert result.finish_turn == 1
        assert result.payoffs == [Fraction(1, 3)] * 3

    def test_uncapped_rounds_are_constant_sum(self):
        rng = np.random.default_rng(123)
        params = GameParams(6, 3, 0.5)
        profile = TrustProfile(0.4, 0.7)
        for _ in range(300):
            result = simulate_round(params, profile, rng)
            assert result.finish_turn is not None
            assert sum(result.payoffs) == 1
            assert len(result.payoffs) == 6

    def test_symmetric_two_player_mean_near_half(self):
        rng = np.random.default_rng(99)
        params = GameParams(2, 1, 2 / 3)
        q_bar = 0.7320508  # equilibrium trust for this instance
        profile = TrustProfile(q_bar, q_bar)
        rounds = 20_000
        total = sum(
            simulate_round(params, profile, rng).focal_payoff for _ in range(rounds)
        )
        mean = total / rounds
        # Payoffs live in {0, 1/2, 1}; the standard error is below 0.004.
        assert abs(mean - 0.5) < 3 * 0.004


class TestEstimatePayoff:
    def test_symmetric_profile_hits_equal_share(self):
        config = SimulationConfig(
            GameParams(2, 1, 2 / 3), TrustProfile(0.6, 0.6), rounds=10**6, seed=21
        )
        report = estimate_payoff(config)
        assert report.capped_rounds == 0
        z = abs(report.focal_mean_payoff - 0.5) / report.focal_std_error
        assert z < 3.0

    def test_deviation_matches_closed_form(self):
        params = GameParams(5, 3, 0.5)
        profile = TrustProfile(0.53, 0.70)
        report = estimate_payoff(
            SimulationConfig(params, profile, rounds=10**6, seed=22)
        )
        exact = expected_payoff(params, profile)
        assert abs(report.focal_mean_payoff - exact) < 4 * report.focal_std_error

    def test_equilibrium_share_at_figure_root(self):
        params = GameParams(5, 3, 0.5)
        report = estimate_payoff(
            SimulationConfig(params, TrustProfile(0.53, 0.53), rounds=10**6, seed=23)
        )
        assert abs(report.focal_mean_payoff - 0.2) < 3 * report.focal_std_error

    def test_reports_are_bit_identical(self):
        config = SimulationConfig(
            GameParams(5, 3, 0.5), TrustProfile(0.53, 0.53), rounds=200_000, seed=42
        )
        assert estimate_payoff(config) == estimate_payoff(config)

    def test_geometric_finish_turns(self):
        # With a symmetric population the finish turn is a mixture of two
        # geometrics, one per pointer branch.
        n, k, p, q = 4, 2, 0.6, 0.5
        rounds = 400_000
        report = estimate_payoff(
            SimulationConfig(GameParams(n, k, p), TrustProfile(q, q), rounds=rounds, seed=31)
        )
        q_star = (1 - q) / k
        success_right = _powers(q, n)[1]
        success_wrong = _powers(q_star, n)[1]
        mean = p / success_right + (1 - p) / success_wrong
        second = p * (2 - success_right) / success_right**2 + (1 - p) * (
            2 - success_wrong
        ) / success_wrong**2
        spread = math.sqrt((second - mean**2) / rounds)
        assert report.capped_rounds == 0
        assert abs(report.mean_finish_turn - mean) < 3 * spread

    def test_capped_rounds_flagged(self):
        # Zero trust on a single-decoy star: correct-pointer rounds can never
        # end, wrong-pointer rounds end on turn one.
        config = SimulationConfig(
            GameParams(3, 1, 0.7), TrustProfile(0.0, 0.0), rounds=4_000, seed=8
        )
        report = estimate_payoff(config)
        assert report.capped_rounds > 0
        assert report.warning is not None and "biased low" in report.warning
        expected_share = (1 - 0.7) / 3
        assert report.focal_mean_payoff == pytest.approx(expected_share, abs=0.02)
        assert report.mean_finish_turn == 1.0

    def test_turn_cap_respected(self):
        # Trusts of 1e-6 leave a correct-pointer round of this winnable game
        # a chance of about e**-2 to outlast the cap.
        config = SimulationConfig(
            GameParams(2, 3, 0.5), TrustProfile(1e-6, 1e-6), rounds=2_000, seed=9
        )
        report = estimate_payoff(config)
        assert report.capped_rounds > 0
        assert report.rounds_completed == 2_000
        assert f"the {MAX_TURNS}-turn cap" in report.warning

    def test_long_rounds_take_bounded_time(self):
        # Correct-pointer rounds last about 5000 turns here; the sampler's
        # cost must not follow them.
        params = GameParams(2, 3, 0.5)
        profile = TrustProfile(1e-4, 1e-4)
        start = time.perf_counter()
        report = estimate_payoff(SimulationConfig(params, profile, rounds=10**5, seed=41))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert report.capped_rounds == 0
        exact = expected_payoff(params, profile)
        assert abs(report.focal_mean_payoff - exact) < 4 * report.focal_std_error

    @pytest.mark.parametrize(
        "profile, untruncated",
        [(TrustProfile(0.02, 0.03), True), (TrustProfile(1e-5, 1e-5), False)],
        ids=["negative-binomial", "dyadic"],
    )
    def test_finish_turns_on_both_routes(self, profile, untruncated):
        # Where the cap's mass is below the doubles' resolution a branch's
        # turn total is one negative binomial draw; at landing rates of 3e-5
        # a turn the correct-pointer branch keeps s**MAX_TURNS, about e**-30,
        # so its turns are drawn by dyadic block and bit. Both must give the
        # geometric-mixture mean.
        params = GameParams(3, 2, 0.9)
        rounds = 10**6
        s_right = (1 - profile.r) * (1 - profile.q) ** 2
        assert (math.expm1(MAX_TURNS * math.log(s_right)) == -1.0) == untruncated
        report = estimate_payoff(SimulationConfig(params, profile, rounds=rounds, seed=44))
        mean, variance = finish_turn_moments(params, profile)
        assert report.capped_rounds == 0
        assert abs(report.mean_finish_turn - mean) < 4 * math.sqrt(variance / rounds)

    # A correct-pointer round lasts about 5,000 turns, so 10**12 rounds'
    # turn total has a mean past the negative binomial's range and is drawn
    # by dyadic block and bit.
    @pytest.mark.parametrize("rounds", [10**8, 10**12], ids=["long-rounds", "dyadic-turn-total"])
    def test_cost_does_not_grow_with_the_rounds(self, rounds):
        params, profile = GameParams(2, 3, 0.5), TrustProfile(1e-4, 1e-4)
        start = time.perf_counter()
        report = estimate_payoff(SimulationConfig(params, profile, rounds=rounds, seed=46))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert report.capped_rounds == 0
        exact = expected_payoff(params, profile)
        assert abs(report.focal_mean_payoff - exact) < 4 * report.focal_std_error
        mean, variance = finish_turn_moments(params, profile)
        assert abs(report.mean_finish_turn - mean) < 4 * math.sqrt(variance / rounds)

    def test_dyadic_blocks_tile_the_turns(self):
        # One block per set bit of MAX_TURNS, widest first, each starting
        # where the one before it ends and the last ending at MAX_TURNS.
        widths = [2**b for b in _WIDTH_BITS]
        assert widths == [2**19, 2**18, 2**17, 2**16, 2**14, 2**9, 2**6]
        assert list(_OFFSETS) == [0, 524288, 786432, 917504, 983040, 999424, 999936]
        assert [o + w for o, w in zip(_OFFSETS, widths)] == [*_OFFSETS[1:], MAX_TURNS]

    # Targets for log s, s the chance of no landing in a turn: a cap mass
    # s**MAX_TURNS near e**-1 and near e**-30, and an untruncated branch
    # whose 2**41 rounds' turn total has a mean past the negative binomial's
    # range.
    @pytest.mark.parametrize(
        "target, rounds",
        [(-1e-6, 1_000), (-3e-5, 1_000), (-1e-3, 2**41)],
        ids=["cap-mass-e-1", "cap-mass-e-30", "past-negative-binomial"],
    )
    def test_turn_total_has_the_truncated_geometric_moments(self, target, rounds):
        # A finished round's turn is Geometric(1 - s) given it is at most
        # C = MAX_TURNS, with mean 1/(1 - s) - C s^C / (1 - s^C) and
        # variance s / (1 - s)^2 - C^2 s^C / (1 - s^C)^2. Given m finished
        # rounds, (total - m mean) / sqrt(m) has mean 0 and that variance.
        n, landing = 2, -math.expm1(target / 2)
        log_s = _log_no_landing(landing, landing, n)
        s, cap = math.exp(log_s), math.exp(MAX_TURNS * log_s)
        if cap < 2**-54:  # untruncated, so drawn by block only past this mean
            assert rounds * s > 2**50 * -math.expm1(log_s)
        mean = 1 / -math.expm1(log_s) - MAX_TURNS * cap / -math.expm1(MAX_TURNS * log_s)
        variance = s / math.expm1(log_s) ** 2 - (
            MAX_TURNS**2 * cap / math.expm1(MAX_TURNS * log_s) ** 2
        )
        rng = np.random.Generator(np.random.Philox(key=48))
        draws = 4_000
        scaled = np.empty(draws)
        for i in range(draws):
            _, _, turns, finished = _sample_branch(rng, rounds, landing, landing, n)
            scaled[i] = (turns - finished * mean) / math.sqrt(finished)
        assert abs(scaled.mean()) < 4 * math.sqrt(variance / draws)
        assert abs(np.mean(scaled**2) / variance - 1) < 4 * math.sqrt(2 / draws)

    @staticmethod
    def run_two_to_the_62_rounds(params, profile):
        """Seconds, mean, standard error and capped count of a 2**62-round
        call, made in a child process that is killed after 30 s, so that a
        cost that grows with the rounds fails the test instead of hanging it."""
        child = (
            "import json, time\n"
            "from starsearch import *\n"
            f"config = SimulationConfig({params!r}, {profile!r}, rounds=2**62, seed=62)\n"
            "start = time.perf_counter()\n"
            "report = estimate_payoff(config)\n"
            "elapsed = time.perf_counter() - start\n"
            "print(json.dumps([elapsed, report.focal_mean_payoff,"
            " report.focal_std_error, report.capped_rounds]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=CHILD_ENV,
            timeout=30.0, check=True,
        )
        return json.loads(proc.stdout)

    def test_two_to_the_62_rounds_take_bounded_time(self):
        # Rounds of about 1.2 turns: the turn total is one negative binomial.
        params, profile = GameParams(4, 2, 0.6), TrustProfile(0.5, 0.6)
        elapsed, mean, std_error, capped = self.run_two_to_the_62_rounds(params, profile)
        assert elapsed < 1.0
        assert capped == 0
        assert abs(mean - expected_payoff(params, profile)) < 4 * std_error

    def test_two_to_the_62_rounds_of_long_play_take_bounded_time(self):
        # Rounds of about 2,500 turns on the pointer-right branch: its turn
        # total has a mean past the negative binomial's range, so it is one
        # multinomial over the cap's dyadic blocks and one vector of
        # binomials over their bits, at a cost that does not grow with the
        # rounds.
        params, profile = GameParams(2, 3, 0.5), TrustProfile(1e-4, 1e-4)
        elapsed, mean, std_error, capped = self.run_two_to_the_62_rounds(params, profile)
        assert elapsed < 1.0
        assert capped == 0
        assert abs(mean - expected_payoff(params, profile)) < 4 * std_error

    def test_two_to_the_62_rounds_under_a_binding_cap_take_bounded_time(self):
        # Landing rates of 3e-5 a turn leave the pointer-right branch a cap
        # mass of about e**-30, so about 2.6e5 of the rounds are capped and
        # the others' turns are drawn by dyadic block and bit. Drawn round by
        # round at about 9 ns each, this call would take over a thousand
        # years.
        params, profile = GameParams(3, 2, 0.6), TrustProfile(1e-5, 1e-5)
        elapsed, mean, std_error, capped = self.run_two_to_the_62_rounds(params, profile)
        assert elapsed < 1.0
        assert abs(mean - expected_payoff(params, profile)) < 4 * std_error
        s_right = (1 - 1e-5) ** 3
        s_wrong = (1 - (1 - 1e-5) / 2) ** 3
        chance = 0.6 * s_right**MAX_TURNS + 0.4 * s_wrong**MAX_TURNS
        expected = 2**62 * chance
        assert abs(capped - expected) < 4 * math.sqrt(expected * (1 - chance))

    def test_capped_count_matches_its_law(self):
        # A round is capped when nobody lands in MAX_TURNS turns, which on a
        # branch with no-landing chance s happens with probability
        # s**MAX_TURNS: about e**-3 on the correct-pointer branch here.
        n, k, p, q, r = 2, 1, 0.7, 1e-6, 2e-6
        rounds = 10**5
        report = estimate_payoff(
            SimulationConfig(GameParams(n, k, p), TrustProfile(q, r), rounds=rounds, seed=43)
        )
        s_right = (1 - r) * (1 - q) ** (n - 1)
        s_wrong = (1 - (1 - r) / k) * (1 - (1 - q) / k) ** (n - 1)
        chance = p * s_right**MAX_TURNS + (1 - p) * s_wrong**MAX_TURNS
        expected = rounds * chance
        spread = math.sqrt(rounds * chance * (1 - chance))
        assert abs(report.capped_rounds - expected) < 4 * spread
        assert report.mean_finish_turn <= MAX_TURNS

    @pytest.mark.parametrize(
        "n, other_p", [(2, 0.3), (7, 0.05), (7, 0.95), (40, 0.5), (40, 1e-9)]
    )
    def test_coarrival_law_is_the_binomial(self, n, other_p):
        shares, chances = _coarrival_law(other_p, n)
        counts = [round(1 / share) - 1 for share in shares]
        assert counts == list(range(n))
        exact = [
            math.comb(n - 1, m) * other_p**m * (1 - other_p) ** (n - 1 - m)
            for m in counts
        ]
        assert chances == pytest.approx(exact, rel=1e-12, abs=1e-300)

    def test_coarrival_law_window_at_large_n(self):
        # Only the counts within 40 sd + 800 of the mean are kept; the mass
        # beyond them is below e^-400.
        n, other_p = 10**6, 0.3
        shares, chances = _coarrival_law(other_p, n)
        counts = 1 / shares - 1
        mean = (n - 1) * other_p
        assert len(chances) < 50_000
        assert counts[0] > 0 and counts[-1] < n - 1
        assert chances.sum() == pytest.approx(1.0, rel=1e-14)
        assert chances @ counts == pytest.approx(mean, rel=1e-12)
        variance = chances @ (counts - mean) ** 2
        assert variance == pytest.approx(mean * (1 - other_p), rel=1e-9)

    def test_large_population_matches_closed_form(self):
        params, profile = GameParams(10**5, 2, 0.6), TrustProfile(0.3, 0.35)
        report = estimate_payoff(SimulationConfig(params, profile, rounds=10**5, seed=47))
        exact = expected_payoff(params, profile)
        assert report.capped_rounds == 0
        assert abs(report.focal_mean_payoff - exact) < 4 * report.focal_std_error

    def test_share_sums_are_correctly_rounded(self):
        # BLAS splits a dot product of more than about 10,000 terms across
        # threads, in an order set by the host; the share sums are the
        # correctly rounded sums of the products, whatever the host.
        n, other_p = 10**5, 0.3
        tallies = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def multinomial(self, *args):
                tallies.append(self.rng.multinomial(*args))
                return tallies[-1]

        rng = Recording(np.random.Generator(np.random.Philox(key=49)))
        share, share_sq, _, _ = _sample_branch(rng, 10**5, 0.3, other_p, n)
        shares = _coarrival_law(other_p, n)[0].tolist()
        tally = tallies[-1].tolist()  # the co-arriver tally is the last draw
        assert len(shares) > 10_000
        assert share == math.fsum(t * s for t, s in zip(tally, shares))
        assert share_sq == math.fsum(t * (s * s) for t, s in zip(tally, shares))

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs",
    )
    def test_report_does_not_depend_on_the_blas_thread_count(self):
        argv = [sys.executable, "-m", "starsearch", "simulate", "--n", "100000",
                "--k", "3", "--p", "0.5", "--q", "0.3", "--rounds", "100000",
                "--seed", "1"]
        outputs = {
            subprocess.run(argv, capture_output=True, check=True,
                           env={**CHILD_ENV, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")
        }
        assert len(outputs) == 1


class TestSamplerAgainstTurnByTurnOracle:
    """estimate_payoff skips turns; simulate_round steps them. Both must
    describe one law, so criterion 6 does not rest on the sampler alone."""

    @pytest.mark.parametrize(
        "params, profile",
        [
            (GameParams(4, 2, 0.6), TrustProfile(0.5, 0.6)),  # about 1.2 turns
            (GameParams(3, 2, 0.9), TrustProfile(0.02, 0.03)),  # about 13 turns
        ],
    )
    def test_payoff_and_finish_turn_agree(self, params, profile):
        oracle_rounds, sampler_rounds = 20_000, 10**6
        rng = np.random.default_rng(1234)
        results = [simulate_round(params, profile, rng) for _ in range(oracle_rounds)]
        assert all(result.finish_turn is not None for result in results)
        payoffs = np.array([result.focal_payoff for result in results])
        turns = np.array([result.finish_turn for result in results], dtype=float)
        report = estimate_payoff(
            SimulationConfig(params, profile, rounds=sampler_rounds, seed=4321)
        )
        assert report.capped_rounds == 0

        payoff_se = math.hypot(
            payoffs.std(ddof=1) / math.sqrt(oracle_rounds), report.focal_std_error
        )
        assert abs(payoffs.mean() - report.focal_mean_payoff) < 4 * payoff_se
        # Under the shared law the finish turns of both sides have the
        # oracle's spread.
        turn_se = turns.std(ddof=1) * math.sqrt(1 / oracle_rounds + 1 / sampler_rounds)
        assert abs(turns.mean() - report.mean_finish_turn) < 4 * turn_se


class TestPerTurnShare:
    def test_binomial_sum_matches_closed_form(self):
        # The enumerated share must reproduce r (1 - (1-q)^n) / (n q) for
        # every population size up to 30.
        rng = np.random.default_rng(17)
        for n in range(2, 31):
            q = float(rng.uniform(0.05, 0.95))
            r = float(rng.uniform(0.0, 1.0))
            closed = r * (1 - (1 - q) ** n) / (n * q)
            assert per_turn_share(r, q, n) == pytest.approx(closed, abs=1e-12)

    def test_large_population_stops_where_the_chances_go_subnormal(self):
        # A subnormal chance times a ratio near 1 rounds back to itself, so
        # a walk that waited for 0.0 took O(n) steps: 10 s at n = 1e8.
        n, q, r = 10**8, 0.5, 0.5
        start = time.perf_counter()
        share = per_turn_share(r, q, n)
        elapsed = time.perf_counter() - start
        assert share == pytest.approx(r * -math.expm1(n * math.log1p(-q)) / (n * q),
                                      rel=1e-12)
        assert elapsed < 2.0

    def test_certain_co_arrivals(self):
        # Nobody else lands, or everybody does.
        assert per_turn_share(0.7, 0.0, 5) == 0.7
        assert per_turn_share(0.7, 1.0, 5) == pytest.approx(0.7 / 5, rel=1e-15)

    @pytest.mark.parametrize(
        "focal_p,other_p,name",
        [
            (0.5, -0.2, "other_p"),
            (0.5, 1.5, "other_p"),
            (0.5, math.nan, "other_p"),
            (2.0, 0.5, "focal_p"),
            (-0.5, 0.5, "focal_p"),
            (math.nan, 0.5, "focal_p"),
        ],
    )
    def test_probabilities_outside_the_unit_interval_rejected(
        self, focal_p, other_p, name
    ):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\]$"):
            per_turn_share(focal_p, other_p, 3)


class TestSeriesPayoff:
    def test_matches_closed_form_on_random_tuples(self):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, 6))
            floor = 1 / (k + 1)
            p = floor + (1 - floor) * rng.uniform(0.05, 0.95)
            profile = TrustProfile(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 1)))
            params = GameParams(n, k, p)
            assert series_payoff(params, profile) == pytest.approx(
                expected_payoff(params, profile), abs=1e-10
            )

    def test_symmetric_profile(self):
        params = GameParams(7, 2, 0.45)
        assert series_payoff(params, TrustProfile(0.3, 0.3)) == pytest.approx(
            1 / 7, abs=1e-10
        )

    def test_two_player_hand_arithmetic(self):
        # n=2, k=1, p=2/3, q=1/2, r=1, worked by hand before coding:
        # correct branch: per-turn share 1*(1/2 + 1/2*1/2) = 3/4 and nobody-
        # lands probability (1-q)(1-r) = 0, so the branch pays 3/4 once;
        # wrong branch: the focal trust complement is 0, so it pays nothing.
        # Total: (2/3)(3/4) = 1/2.
        params = GameParams(2, 1, 2 / 3)
        value = series_payoff(params, TrustProfile(0.5, 1.0))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_tiny_trust_returns_quickly(self):
        # About 1/(n q) turns carry the mass; summed one by one they took
        # seconds at q = 1e-7.
        params = GameParams(3, 2, 0.6)
        profile = TrustProfile(1.1e-7, 0.9e-7)
        start = time.perf_counter()
        value = series_payoff(params, profile)
        assert time.perf_counter() - start < 0.1
        assert value == pytest.approx(expected_payoff(params, profile), abs=1e-10)

    @pytest.mark.parametrize("trust", [1e-12, 1e-310])
    def test_extreme_trust_is_finite(self, trust):
        # At 1e-310 the doubling needs T beyond the float range and the
        # per-turn share is subnormal.
        params = GameParams(4, 3, 0.5)
        start = time.perf_counter()
        value = series_payoff(params, TrustProfile(trust, trust))
        assert time.perf_counter() - start < 0.1
        assert math.isfinite(value)
        assert value == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n", [1100, 2000, 10**5])
    def test_large_population(self, n):
        # Binomial coefficients of n - 1 do not fit a float here.
        params = GameParams(n, 3, 0.5)
        profile = TrustProfile(0.5, 0.5)
        assert series_payoff(params, profile) == pytest.approx(
            expected_payoff(params, profile), abs=1e-10
        )

    def test_domain(self):
        params = GameParams(2, 1, 0.6)
        with pytest.raises(ValueError, match="strictly inside"):
            series_payoff(params, TrustProfile(1.0, 0.5))
