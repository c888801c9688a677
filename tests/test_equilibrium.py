import math
import re
from fractions import Fraction

import numpy as np
import pytest

from starsearch import (
    CurveSamples,
    GameParams,
    SolverError,
    TrustProfile,
    check_probability_matching,
    equilibrium_residual,
    expected_payoff,
    reliability_curve,
    reliability_from_trust,
    residual_curve,
    solve_equilibrium,
    sweep_k,
    sweep_n,
    trust_decrease_threshold,
)
from starsearch.equilibrium import _FREE_STEPS, _LANE_MIN, _grid
from starsearch.model import _reliability_excess


def scalar_q_bar(n, k, p):
    return solve_equilibrium(GameParams(n, k, p)).q_bar


def grid_bisection(n, k, p):
    """q_bar by its definition: the first point where the excess is positive
    among the multiples of 2**-42 (the largest power of two at most a
    quarter of the default 1e-12 tolerance) inside [1/(k+1) + 1e-9,
    1 - 1e-9] and that bracket's upper end, found by plain bisection on the
    excess's sign alone."""
    top = math.ceil((1 - 1e-9) * 2**42)
    lo, hi = math.floor((1 / (k + 1.0) + 1e-9) * 2**42), top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _reliability_excess(n, k, p, mid / 2**42) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi / 2**42 if hi < top else 1 - 1e-9


def exact_excess(n, k, p, q):
    """The excess numerator (1-p) q B A1 - p (1-q) A B1, in exact rationals."""
    p, q = Fraction(p), Fraction(q)
    other = (1 - q) / k
    a, a1 = 1 - (1 - other) ** n, 1 - (1 - other) ** (n - 1)
    b, b1 = 1 - (1 - q) ** n, 1 - (1 - q) ** (n - 1)
    return (1 - p) * q * b * a1 - p * (1 - q) * a * b1


def sign_changes(values):
    signs = [1 if v > 0 else -1 for v in values if v != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class TestSolveEquilibrium:
    @pytest.mark.parametrize(
        "p,expected",
        [(0.5, 0.53), (2 / 3, 0.70), (3 / 4, 0.78)],
    )
    def test_figure_roots(self, p, expected):
        solution = solve_equilibrium(GameParams(5, 3, p))
        assert solution.q_bar == pytest.approx(expected, abs=0.005)

    def test_solution_invariants(self):
        params = GameParams(5, 3, 0.5)
        solution = solve_equilibrium(params)
        assert 1 / 4 < solution.q_bar < 1
        assert solution.q_bar > params.p
        assert solution.residual <= 1e-12
        assert solution.e_residual <= 1e-10
        assert solution.bracket_hi - solution.bracket_lo <= 1e-12
        assert solution.bracket_lo <= solution.q_bar <= solution.bracket_hi

    def test_huge_population_converges_from_above(self):
        gap = solve_equilibrium(GameParams(10**5, 3, 0.5)).q_bar - 0.5
        assert 0 < gap < 1e-3

    def test_deterministic(self):
        a = solve_equilibrium(GameParams(17, 4, 0.61))
        b = solve_equilibrium(GameParams(17, 4, 0.61))
        assert a == b

    def test_custom_tolerance_respected(self):
        solution = solve_equilibrium(GameParams(5, 3, 0.5), q_tol=1e-6)
        assert solution.bracket_hi - solution.bracket_lo <= 1e-6

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="q_tol"):
            solve_equilibrium(GameParams(5, 3, 0.5), q_tol=0.0)

    def test_trust_exceeds_reliability_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 101))
            k = int(rng.integers(1, 11))
            floor = 1 / (k + 1)
            p = floor + (1 - floor) * rng.uniform(0.02, 0.98)
            solution = solve_equilibrium(GameParams(n, k, p))
            assert solution.q_bar > p
            assert solution.q_bar > floor

    def test_increasing_in_reliability(self):
        k, n = 4, 7
        values = [
            solve_equilibrium(GameParams(n, k, p)).q_bar
            for p in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_stationary_at_root(self):
        # Central difference of the payoff in r at the solved trust.
        for n, k, p in ((5, 3, 0.5), (5, 3, 2 / 3), (2, 1, 2 / 3), (9, 6, 0.4)):
            params = GameParams(n, k, p)
            q_bar = solve_equilibrium(params).q_bar
            step = 1e-6
            up = expected_payoff(params, TrustProfile(q_bar, q_bar + step))
            down = expected_payoff(params, TrustProfile(q_bar, q_bar - step))
            assert abs(up - down) / (2 * step) < 1e-5


class TestGridAnswer:
    """Scalar solves and lanes both end on the grid cell that defines q_bar,
    whichever points they probed on the way."""

    def test_sweep_n(self):
        ns = range(2, 2002)
        expected = tuple(grid_bisection(n, 3, 0.5) for n in ns)
        assert sweep_n(3, 0.5, ns).ys == expected
        assert tuple(scalar_q_bar(n, 3, 0.5) for n in ns) == expected

    @pytest.mark.parametrize("k,p", [(1, 0.6), (3, 0.5), (10, 0.75)])
    def test_log_spaced_sweep_to_a_million(self, k, p):
        ns = sorted({int(round(n)) for n in np.geomspace(2, 1e6, 50)})
        expected = tuple(grid_bisection(n, k, p) for n in ns)
        assert sweep_n(k, p, ns).ys == expected
        assert tuple(scalar_q_bar(n, k, p) for n in ns) == expected

    @pytest.mark.parametrize("n,p,ks", [
        (5, 0.9, range(1, 41)), (1000, 0.9, range(1, 41)),
        (3, 0.6, range(10**9, 10**9 + 40)),
    ])
    def test_sweep_k(self, n, p, ks):
        expected = tuple(grid_bisection(n, k, p) for k in ks)
        assert sweep_k(n, p, ks).ys == expected
        assert tuple(scalar_q_bar(n, k, p) for k in ks) == expected


# Grid exponent M for each tolerance: the least M >= 0 with 2**-M <= q_tol / 4,
# at most 1020.
GRID_BITS = {
    10.0: 0, 1e-3: 12, 1e-6: 22, 1e-12: 42, 1e-16: 56, 1e-300: 999, 5e-324: 1020,
}

EDGE_TRIPLES = [
    (n, k, p)
    for n in (2, 10**6)
    for k in (1, 3, 10**30)
    for p in (1 / (k + 1) + 1e-6, 0.5 * (1 / (k + 1) + 1), 1 - 1e-6)
]


class TestStepRule:
    @pytest.mark.parametrize("q_tol", sorted(GRID_BITS))
    def test_evaluations_within_the_bound_at_the_edges(self, q_tol):
        bits = GRID_BITS[q_tol]
        assert _grid(3, q_tol)[0] == bits
        for n, k, p in EDGE_TRIPLES:
            solution = solve_equilibrium(GameParams(n, k, p), q_tol=q_tol)
            lo, hi = solution.bracket_lo, solution.bracket_hi
            assert solution.iterations <= bits + _FREE_STEPS
            assert solution.q_bar == hi > p
            assert _reliability_excess(n, k, p, lo) <= 0.0
            assert _reliability_excess(n, k, p, hi) > 0.0
            adjacent = math.nextafter(lo, 1.0) == hi
            assert adjacent or hi - lo <= q_tol / 4
            if lo >= 2.0 ** (52 - bits):  # the grid holds every double here
                assert adjacent

    def test_exact_signs_at_the_final_bracket(self):
        # excess(lo) <= 0 < excess(hi) in exact arithmetic proves that the
        # root lies in (lo, hi].
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 101))
            k = int(rng.integers(1, 11))
            floor = 1 / (k + 1)
            p = floor + (1 - floor) * rng.uniform(0.02, 0.98)
            solution = solve_equilibrium(GameParams(n, k, p))
            assert exact_excess(n, k, p, solution.bracket_lo) <= 0
            assert exact_excess(n, k, p, solution.bracket_hi) > 0


class TestCurveSamples:
    def test_strictly_increasing_abscissa_required(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CurveSamples("x", "y", ((0.2, 1.0), (0.2, 2.0)))

    def test_finite_values_required(self):
        with pytest.raises(ValueError, match="finite"):
            CurveSamples("x", "y", ((0.1, math.inf), (0.2, 0.0)))

    @pytest.mark.parametrize("point", [
        (10**400, 0.5), (2, -10**400), (math.nan, 0.5), (2, -math.inf),
    ])
    def test_values_past_the_doubles_are_not_finite(self, point):
        # An int past the largest double is rejected like inf, not with the
        # OverflowError that converting it to a float raises.
        with pytest.raises(ValueError, match="curve values must be finite"):
            CurveSamples("n", "q", (point,))


class TestResidualCurve:
    def test_crosses_zero_near_figure_root(self):
        params = GameParams(5, 3, 0.5)
        curve = residual_curve(params, 1 / 3, 0.8, 100)
        assert sign_changes(curve.ys) == 1
        crossing = next(
            x for (x, y), (_, y2) in zip(curve.points, curve.points[1:]) if y > 0 >= y2
        )
        assert crossing == pytest.approx(0.53, abs=0.01)

    def test_full_trust_endpoint_is_zero(self):
        curve = residual_curve(GameParams(5, 3, 0.5), 0.5, 1.0, 11)
        assert curve.points[-1] == (1.0, 0.0)

    def test_higher_reliability_lifts_the_curve(self):
        low = residual_curve(GameParams(5, 3, 0.5), 1 / 3 + 1e-6, 1 - 1e-6, 50)
        high = residual_curve(GameParams(5, 3, 0.75), 1 / 3 + 1e-6, 1 - 1e-6, 50)
        assert all(h > l for l, h in zip(low.ys, high.ys))

    def test_grid_contract(self):
        curve = residual_curve(GameParams(5, 3, 0.5), 0.2, 0.9, 8)
        assert len(curve.points) == 8
        assert curve.xs[0] == 0.2 and curve.xs[-1] == 0.9
        assert (curve.abscissa_name, curve.ordinate_name) == ("q", "E")

    def test_unit_interval_endpoints(self):
        # q = 1 puts log1p(-1) into the kernel, and so does q = 0 when k = 1;
        # both endpoints are zeros of the residual.
        for k, p in ((1, 0.7), (3, 0.5)):
            params = GameParams(5, k, p)
            curve = residual_curve(params, 0.0, 1.0, 101)
            assert curve.points[0] == (0.0, 0.0)
            assert curve.points[-1] == (1.0, 0.0)
            for q, e in curve.points:
                assert e == pytest.approx(equilibrium_residual(params, q), abs=1e-15)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="q_lo < q_hi"):
            residual_curve(GameParams(5, 3, 0.5), 0.9, 0.2, 10)
        with pytest.raises(ValueError, match="steps"):
            residual_curve(GameParams(5, 3, 0.5), 0.2, 0.9, 1)


class TestReliabilityCurve:
    def test_below_the_diagonal(self):
        curve = reliability_curve(5, 3, 0.26, 0.99, 200)
        assert all(y < x for x, y in curve.points)

    def test_ordered_in_population(self):
        # Larger populations push the curve up, which is why the solved trust
        # falls with n.
        small = reliability_curve(2, 3, 0.3, 0.95, 60)
        large = reliability_curve(4, 3, 0.3, 0.95, 60)
        assert all(b > s for s, b in zip(small.ys, large.ys))

    def test_approaches_one(self):
        curve = reliability_curve(5, 3, 0.9, 1 - 1e-9, 10)
        assert curve.ys[-1] > 1 - 1e-7

    def test_strictly_increasing_ordinates(self):
        curve = reliability_curve(5, 3, 0.26, 0.99, 150)
        assert all(b > a for a, b in zip(curve.ys, curve.ys[1:]))

    def test_domain_rejected(self):
        with pytest.raises(ValueError, match=r"1/\(k\+1\)"):
            reliability_curve(5, 3, 0.2, 0.9, 10)

    def test_doubles_next_to_the_open_ends(self):
        for n, k in ((2, 1), (5, 3), (10**6, 10)):
            lo = math.nextafter(1 / (k + 1), 1.0)
            curve = reliability_curve(n, k, lo, math.nextafter(1.0, 0.0), 101)
            for q, f in curve.points:
                assert f == pytest.approx(reliability_from_trust(n, k, q), rel=1e-14)


class TestSweeps:
    def test_sweep_n_strictly_decreasing_past_threshold(self):
        threshold = trust_decrease_threshold(0.5, 3)
        start = math.ceil(threshold)
        curve = sweep_n(3, 0.5, range(start, start + 21))
        assert all(b < a for a, b in zip(curve.ys, curve.ys[1:]))

    def test_decrease_past_threshold_across_k_p_grid(self):
        # Full grid of decoy counts and reliabilities; for k=1 the 0.5 entry
        # sits below the signal floor and is bumped to the nearest valid value.
        for k in (1, 3, 10):
            for p in (0.55 if k == 1 else 0.5, 0.75, 0.9):
                start = math.ceil(trust_decrease_threshold(p, k)) + 1
                curve = sweep_n(k, p, range(start, start + 13))
                assert all(
                    b < a for a, b in zip(curve.ys, curve.ys[1:])
                ), f"not decreasing for k={k}, p={p}"

    def test_sweep_n_decades_converge(self):
        curve = sweep_n(3, 0.5, [100, 1000, 10_000])
        gaps = [y - 0.5 for y in curve.ys]
        assert all(g > 0 for g in gaps)
        # Consecutive roots are only located to the solver tolerance, so the
        # decrease is asserted with that much slack.
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_sweep_entries_exceed_reliability(self):
        curve = sweep_n(3, 0.5, [2, 5, 20, 81])
        assert all(y > 0.5 for y in curve.ys)

    def test_sweep_n_contract(self):
        curve = sweep_n(3, 0.5, [4, 2, 9])  # any order in, sorted out
        assert curve.xs == (2.0, 4.0, 9.0)
        assert (curve.abscissa_name, curve.ordinate_name) == ("n", "q_bar")
        with pytest.raises(ValueError, match="duplicates"):
            sweep_n(3, 0.5, [2, 2, 3])

    @pytest.mark.parametrize("values", [
        [9, 2, 4], np.arange(2, 40), [2, 2**53 + 3],
    ])
    def test_abscissae_are_the_requested_ints(self, values):
        # Exact past 2**53, where a double would round the last entry.
        expected = tuple(sorted(values))
        for curve in (sweep_n(3, 0.6, values), sweep_k(5, 0.6, values)):
            assert curve.xs == expected
            assert all(type(x) is int for x in curve.xs)

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError, match="^n_values must not be empty$"):
            sweep_n(3, 0.5, [])
        with pytest.raises(ValueError, match="^k_values must not be empty$"):
            sweep_k(5, 0.6, [])

    def test_sweep_k_strictly_increasing(self):
        curve = sweep_k(5, 0.6, range(1, 11))
        assert all(b > a for a, b in zip(curve.ys, curve.ys[1:]))

    def test_sweep_k_admits_every_valid_entry(self):
        curve = sweep_k(5, 0.4, range(2, 11))  # k=2 valid: 0.4 > 1/3
        assert curve.xs[0] == 2.0
        assert all(b > a for a, b in zip(curve.ys, curve.ys[1:]))

    def test_sweep_k_rejects_invalid_entry(self):
        with pytest.raises(ValueError, match=r"p must exceed 1/\(k\+1\)"):
            sweep_k(5, 0.3, [1])

    def test_entries_beyond_the_doubles_rejected(self):
        with pytest.raises(ValueError, match="^n_values must fit in a double$"):
            sweep_n(3, 0.5, [2, 10**400])
        with pytest.raises(ValueError, match="^k_values must fit in a double$"):
            sweep_k(5, 0.6, [1, 10**400])


class TestLaneSolver:
    """Sweeps of _LANE_MIN or more points bisect all of them as numpy lanes;
    every lane must equal the scalar solve to the bit."""

    def test_tested_sizes_straddle_the_crossover(self):
        assert 10 < _LANE_MIN <= 40

    def test_sweep_n_matches_scalar_solves(self):
        curve = sweep_n(3, 0.5, range(2, 2002))
        assert curve.ys == tuple(scalar_q_bar(n, 3, 0.5) for n in range(2, 2002))
        assert all(q_bar > 0.5 for q_bar in curve.ys)

    @pytest.mark.parametrize("k,p", [(1, 0.6), (3, 0.5), (10, 0.75)])
    def test_log_spaced_sweep_to_a_million_matches_scalar_solves(self, k, p):
        ns = sorted({int(round(n)) for n in np.geomspace(2, 1e6, 50)})
        curve = sweep_n(k, p, ns)
        assert curve.ys == tuple(scalar_q_bar(n, k, p) for n in ns)
        assert all(q_bar > p for q_bar in curve.ys)

    @pytest.mark.parametrize("k_to", [40, 10])
    def test_sweep_k_matches_scalar_solves(self, k_to):
        for n in (5, 1000):
            curve = sweep_k(n, 0.9, range(1, k_to + 1))
            assert curve.ys == tuple(scalar_q_bar(n, k, 0.9) for k in range(1, k_to + 1))
            assert all(q_bar > 0.9 for q_bar in curve.ys)

    def test_probability_matching_gaps_match_scalar_solves(self):
        ns = range(2, 62)
        report = check_probability_matching(3, 0.5, ns)
        assert report.gaps == tuple(scalar_q_bar(n, 3, 0.5) - 0.5 for n in ns)

    def test_invalid_smallest_entry_names_the_invariant(self):
        with pytest.raises(ValueError, match="^n must be at least 2$"):
            sweep_n(3, 0.5, range(1, 40))
        floor = r"^p must exceed 1/\(k\+1\)$"
        with pytest.raises(ValueError, match=floor):
            sweep_n(1, 0.5, range(2, 40))
        with pytest.raises(ValueError, match=floor):
            sweep_k(5, 0.5, range(1, 40))
        with pytest.raises(ValueError, match=floor):
            check_probability_matching(1, 0.5, range(2, 40))

    def test_bracket_failure_names_the_lane(self):
        # Within 1e-9 of the k = 1 floor only that lane's bracket fails.
        p = 0.5 + 1e-13
        with pytest.raises(SolverError, match=re.escape(f"n=5, k=1, p={p!r}")):
            sweep_k(5, p, range(1, 40))


class TestLargeRayCount:
    """k much larger than n, where the excess's sum form cancels."""

    @pytest.mark.parametrize(
        "n,k",
        [(2, 2 * 10**7), (5, 10**8), (100, 2 * 10**9), (10**4, 2 * 10**11),
         (10**6, 2 * 10**13), (2, 10**30)],
    )
    def test_solves_where_the_sum_form_cancels(self, n, k):
        solution = solve_equilibrium(GameParams(n, k, 0.5))
        assert solution.q_bar > 0.5
        assert solution.residual <= 1e-10

    @pytest.mark.parametrize("k", [10**6, 10**7])
    def test_residual_stays_small(self, k):
        assert solve_equilibrium(GameParams(2, k, 0.5)).residual <= 1e-10

    def test_sweep_k_near_a_billion_matches_scalar_solves(self):
        ks = range(10**9, 10**9 + 40)
        curve = sweep_k(3, 0.6, ks)
        assert curve.ys == tuple(scalar_q_bar(3, k, 0.6) for k in ks)
        assert all(q_bar > 0.6 for q_bar in curve.ys)


class TestUniquenessProbe:
    def test_single_sign_change_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 51))
            k = int(rng.integers(1, 11))
            floor = 1 / (k + 1)
            p = floor + (1 - floor) * rng.uniform(0.02, 0.98)
            params = GameParams(n, k, p)
            curve = residual_curve(params, floor + 1e-6, 1 - 1e-6, 2000)
            assert sign_changes(curve.ys) == 1
            crossing = next(
                x
                for (x, y), (_, y2) in zip(curve.points, curve.points[1:])
                if y > 0 >= y2
            )
            spacing = curve.xs[1] - curve.xs[0]
            assert abs(crossing - solve_equilibrium(params).q_bar) <= spacing
