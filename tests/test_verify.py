import numpy as np
import pytest

from starsearch import (
    GameParams,
    SimulationConfig,
    TrustProfile,
    best_response_scan,
    check_equilibrium,
    check_probability_matching,
    estimate_payoff,
    expected_payoff,
    solve_equilibrium,
)


class TestBestResponseScan:
    def test_peak_at_equilibrium(self):
        params = GameParams(5, 3, 0.5)
        q_bar = solve_equilibrium(params).q_bar
        scan = best_response_scan(params, q_bar)
        assert abs(scan.argmax_r - q_bar) <= 1 / 2000
        assert scan.max_payoff == pytest.approx(0.2, abs=1e-6)

    def test_large_population_overtrusting_crowd(self):
        scan = best_response_scan(GameParams(1000, 3, 0.5), 0.6)
        assert scan.argmax_r == 0.0

    def test_large_population_undertrusting_crowd(self):
        scan = best_response_scan(GameParams(1000, 3, 0.5), 0.4)
        assert scan.argmax_r == 1.0

    def test_large_population_matched_crowd_is_flat(self):
        # At q = p and large n every deviation earns the same to double
        # precision; the tie rule must land in the middle, not at an edge.
        scan = best_response_scan(GameParams(1000, 3, 0.5), 0.5)
        assert abs(scan.argmax_r - 0.5) <= 1 / 2000

    def test_grid_contract(self):
        scan = best_response_scan(GameParams(5, 3, 0.5), 0.53)
        assert len(scan.grid) == 2001
        assert scan.grid[0][0] == 0.0 and scan.grid[-1][0] == 1.0
        assert (scan.argmax_r, scan.max_payoff) in scan.grid

    def test_no_deviation_beats_equal_share(self):
        for n, k, p in ((5, 3, 0.5), (3, 2, 0.6), (12, 5, 0.3)):
            params = GameParams(n, k, p)
            q_bar = solve_equilibrium(params).q_bar
            scan = best_response_scan(params, q_bar)
            assert max(v for _, v in scan.grid) <= 1 / n + 1e-9

    @pytest.mark.parametrize(
        "n,k,p,q",
        [
            (5, 3, 0.5, 0.53),
            (2, 1, 0.6, 1e-9),
            (40, 7, 0.7, 1 - 1e-12),
            (1000, 3, 0.5, 0.5),
        ],
    )
    def test_grid_is_the_scalar_payoff(self, n, k, p, q):
        # A scan is expected_payoff on a batch of deviations, to the bit.
        params = GameParams(n, k, p)
        scan = best_response_scan(params, q)
        for r, payoff in scan.grid:
            assert payoff == expected_payoff(params, TrustProfile(q, r))

    @pytest.mark.parametrize("steps", [2001])
    def test_grid_is_numpy_linspace(self, steps):
        # The deviations are built without numpy, to linspace's bits.
        scan = best_response_scan(GameParams(5, 3, 0.5), 0.53)
        r = np.array([r for r, _ in scan.grid])
        assert r.tobytes() == np.linspace(0.0, 1.0, steps).tobytes()

    def test_endpoint_q_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            best_response_scan(GameParams(5, 3, 0.5), 0.0)


class TestCheckEquilibrium:
    @pytest.mark.parametrize(
        "n,k,p,expected_q",
        [
            (5, 3, 0.5, 0.53),
            (5, 3, 2 / 3, 0.70),
            (5, 3, 3 / 4, 0.78),
            (2, 1, 2 / 3, None),
            # q_bar is 1.0 within one grid cell of p = 1, where the payoff
            # is undefined; the scan runs against the cell's lower end.
            (2, 1, 1 - 2**-53, 1.0),
            (5, 3, 1 - 2**-50, 1.0),
        ],
    )
    def test_reference_instances_pass(self, n, k, p, expected_q):
        check = check_equilibrium(GameParams(n, k, p))
        assert check.passed
        assert check.argmax_ok and check.no_profitable_deviation and check.e_residual_ok
        if expected_q is not None:
            assert check.solution.q_bar == pytest.approx(expected_q, abs=0.005)

    def test_boundary_reliability_rejected(self):
        # p exactly at the signal floor is invalid input, not a failed check.
        with pytest.raises(ValueError, match=r"p must exceed 1/\(k\+1\)"):
            check_equilibrium(GameParams(5, 2, 1 / 3))

    def test_simulated_deviation_cannot_beat_share(self):
        # The scanned best deviation, played out in the simulator, still
        # earns at most the symmetric share (within Monte Carlo noise).
        for seed, (n, k, p) in enumerate(
            ((5, 3, 0.5), (2, 1, 2 / 3), (4, 2, 0.55), (6, 4, 0.35), (3, 3, 0.4))
        ):
            params = GameParams(n, k, p)
            check = check_equilibrium(params)
            report = estimate_payoff(
                SimulationConfig(
                    params,
                    TrustProfile(check.solution.q_bar, check.scan.argmax_r),
                    rounds=200_000,
                    seed=900 + seed,
                )
            )
            limit = 1 / n + 4 * report.focal_std_error
            assert report.focal_mean_payoff <= limit


class TestCheckProbabilityMatching:
    def test_decades_sweep(self):
        report = check_probability_matching(3, 0.5, [10, 100, 1000, 10_000, 100_000])
        assert report.passed
        assert report.all_gaps_positive
        assert report.decreasing_above_threshold
        assert report.final_gap < 1e-3
        assert report.threshold == pytest.approx(7.3013, abs=1e-3)

    def test_single_decoy_decreasing_from_four(self):
        # Small populations only: the claim is the decrease from n=4 onward,
        # not closeness to p (the final gap, 4.1e-3, is above the bound).
        report = check_probability_matching(1, 0.9, list(range(4, 13)))
        assert report.threshold == 3.0
        assert report.all_gaps_positive
        assert report.decreasing_above_threshold
        assert not report.final_gap_ok
        gaps = report.gaps
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_invalid_input(self):
        with pytest.raises(ValueError, match="duplicates"):
            check_probability_matching(3, 0.5, [10, 10])
        with pytest.raises(ValueError, match=r"p must exceed 1/\(k\+1\)"):
            check_probability_matching(1, 0.3, [4, 5])


class TestTrichotomyStructure:
    def test_interior_argmax_only_near_matching(self):
        # For n >= 1000 the best response is at an edge unless the population
        # trust sits essentially on the reliability.
        params = GameParams(1000, 3, 0.5)
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = float(rng.uniform(0.3, 0.7))
            scan = best_response_scan(params, q)
            if abs(q - 0.5) > 1e-3:
                assert scan.argmax_r in (0.0, 1.0)
                assert scan.argmax_r == (1.0 if q < 0.5 else 0.0)
