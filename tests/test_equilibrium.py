import math
import os
import resource
import statistics
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from starsearch import (
    CurveSamples,
    GameParams,
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
from starsearch import equilibrium
from starsearch.acceptance import _random_game
from starsearch.equilibrium import _FREE_STEPS, _GRID_BITS, _LANE_MIN
from starsearch.model import _excess, _landing, _newton, _reliability, _residual


def scalar_q_bar(n, k, p):
    return solve_equilibrium(GameParams(n, k, p)).q_bar


def bits(x):
    """The bit pattern of a double, as an int."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def double(pattern):
    return struct.unpack("<d", struct.pack("<q", pattern))[0]


CELL = 2**_GRID_BITS  # grid points are the doubles whose bits are multiples of CELL


def grid_bisection(n, k, p):
    """q_bar by its definition: the first point where the excess is positive
    among the doubles whose bit pattern is a multiple of CELL, above the one
    at or below p (where the excess is negative) and up to 1.0 (where the
    solver's sign function tends to (1-p)(n-1)/p > 0), found by plain
    bisection on the excess's sign alone."""
    lo, hi = bits(p) // CELL, bits(1.0) // CELL
    while hi - lo > 1:
        mid = (lo + hi) // 2
        q = double(mid * CELL)
        if _excess(n, k, p, q, _landing(n, k, q)) > 0.0:
            hi = mid
        else:
            lo = mid
    return double(hi * CELL)


def exact_excess(n, k, p, q):
    """The excess numerator (1-p) q B A1 - p (1-q) A B1, in exact rationals."""
    p, q = Fraction(p), Fraction(q)
    other = (1 - q) / k
    a, a1 = 1 - (1 - other) ** n, 1 - (1 - other) ** (n - 1)
    b, b1 = 1 - (1 - q) ** n, 1 - (1 - q) ** (n - 1)
    return (1 - p) * q * b * a1 - p * (1 - q) * a * b1


def exact_sign_function(n, k, p, q):
    """exact_excess / (1 - q), which has the solver's sign function's sign,
    and its limit (1-p)(n-1)/k at q = 1, where the numerator vanishes."""
    if q == 1.0:
        return (1 - Fraction(p)) * (n - 1) / k
    return exact_excess(n, k, p, q) / (1 - Fraction(q))


def assert_exact_bracket(n, k, p, solution):
    """The sign function is exactly <= 0 at bracket_lo and > 0 at bracket_hi,
    which proves that the root lies in (lo, hi]."""
    assert exact_sign_function(n, k, p, solution.bracket_lo) <= 0
    assert exact_sign_function(n, k, p, solution.bracket_hi) > 0


ONE_CELL_HIGH = pytest.mark.xfail(strict=True, reason="ends one cell above the exact root's")


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


EDGE_TRIPLES = [
    (n, k, p)
    for n in (2, 10**6)
    for k in (1, 3, 10**30)
    for p in (1 / (k + 1) + 1e-6, 0.5 * (1 / (k + 1) + 1), 1 - 1e-6)
]


# Distances of p from the ends of its domain, relative to the domain's width,
# from well inside it (10.0: 1/11 of the way from an end) to one ulp from it.
EDGE_GAPS = (10.0, 1e-3, 1e-6, 1e-12, 1e-16, 1e-300, 5e-324)


def edge_reliabilities(k, gap):
    """The two valid p at relative distance gap/(1+gap) from the ends of
    (1/(k+1), 1), each clamped to the double next to its end."""
    floor = 1 / (k + 1)
    share = (1 - floor) * (gap / (1 + gap))
    return max(floor + share, math.nextafter(floor, 1.0)), min(1 - share, 1 - 2**-53)


def scattered_games(seed, count):
    """count seeded games: n log-uniform from 2 to 1e6, k from 1 to 10 and p
    uniform over the middle 98% of its domain."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(round(math.exp(rng.uniform(math.log(2), math.log(1e6)))))
        k = int(rng.integers(1, 11))
        floor = 1 / (k + 1)
        yield n, k, floor + (1 - floor) * rng.uniform(0.01, 0.99)


def assert_within_the_bound(n, k, p):
    solution = solve_equilibrium(GameParams(n, k, p))
    lo, hi = solution.bracket_lo, solution.bracket_hi
    span = bits(1.0) // CELL - bits(p) // CELL
    assert solution.iterations <= span.bit_length() + _FREE_STEPS
    assert solution.q_bar == hi > p
    assert bits(lo) % CELL == 0 and bits(hi) - bits(lo) == CELL
    assert _excess(n, k, p, lo, _landing(n, k, lo)) <= 0.0
    # At q = 1 the sign function is its limit (1-p)(n-1)/k > 0.
    assert hi == 1.0 or _excess(n, k, p, hi, _landing(n, k, hi)) > 0.0


class TestStepRule:
    @pytest.mark.parametrize("gap", EDGE_GAPS)
    def test_evaluations_within_the_bound_at_the_edges(self, gap):
        for n in (2, 5, 10**6):
            for k in (1, 3, 10**12, 10**30):
                for p in edge_reliabilities(k, gap):
                    assert_within_the_bound(n, k, p)

    def test_evaluations_within_the_bound_on_the_edge_triples(self):
        for n, k, p in EDGE_TRIPLES + [(5, 10**12, 1e-10)]:
            assert_within_the_bound(n, k, p)

    def test_evaluation_counts_on_scattered_games(self):
        # Counts, not times, so they are the same on every run.
        counts = [
            solve_equilibrium(GameParams(n, k, p)).iterations
            for n, k, p in scattered_games(2024, 1000)
        ]
        assert statistics.median(counts) <= 1
        assert max(counts) <= 6

    def test_iterations_count_every_evaluation(self, monkeypatch):
        # The scalar solve evaluates the sign function through _excess, once
        # per evaluation, the first probe included.
        calls = []

        def counted(*args):
            calls.append(args)
            return _excess(*args)

        monkeypatch.setattr(equilibrium, "_excess", counted)
        for n, k, p in EDGE_TRIPLES:
            calls.clear()
            assert solve_equilibrium(GameParams(n, k, p)).iterations == len(calls)
        # The first probe alone, none (p's grid point is the one below 1.0),
        # and the loop.
        for (n, k, p), expected in [
            ((5000, 4, 0.6), 1), ((2, 1, 1 - 2**-53), 0), ((5, 3, 0.5), 5),
        ]:
            calls.clear()
            solution = solve_equilibrium(GameParams(n, k, p))
            assert solution.iterations == len(calls) == expected

    def test_diagnostics_equal_a_fresh_evaluation(self):
        # residual and e_residual come from the powers of the probe that set
        # bracket_hi; they must equal both residuals computed afresh there.
        games = EDGE_TRIPLES + list(scattered_games(2025, 1000))
        for n in (2, 5, 10**6):
            for k in (1, 3, 10**12, 10**30):
                games += [(n, k, p) for p in edge_reliabilities(k, 5e-324)]
        for n, k, p in games:
            solution = solve_equilibrium(GameParams(n, k, p))
            hi = solution.bracket_hi
            landing = _landing(n, k, hi)
            assert solution.residual == abs(_reliability(n, hi, landing) - p)
            assert solution.e_residual == abs(_residual(k, p, hi, landing))

    def test_newton_targets_at_extreme_values(self, monkeypatch):
        # Zero, subnormal, huge and infinite landing terms and excess values,
        # on both routes: _newton neither raises nor warns and the routes
        # agree, as it takes no exp or log. Solves that probe from such
        # targets keep every probe strictly inside the bracket and end on the
        # same cell as an unpatched solve.
        tiny = 5e-324
        values = (0.0, tiny, 1e-300, 0.5, 1.0, 1e300, math.inf)
        excesses = (-math.inf, -1e300, -0.5, -tiny, -0.0, 0.0, tiny, 0.5, 1e300, math.inf)
        rng = np.random.default_rng(27)
        cases = [
            (rng.choice([2, 5, 10**6]), rng.choice([1, 3, 1e300]),
             rng.choice([tiny, 0.25, 0.5, 1 - 2**-53]), rng.choice(excesses),
             tuple(rng.choice(values, 7)))
            for _ in range(4000)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = [_newton(int(n), int(k), 0.5, float(q), tuple(map(float, landing)),
                              float(e)) for n, k, q, e, landing in cases]
            n, k, q, e, landing = zip(*cases)
            lanes = _newton(np.array(n, dtype=float), np.array(k), 0.5, np.array(q),
                            tuple(np.array(column) for column in zip(*landing)),
                            np.array(e), np)
        assert np.array_equal(scalar, lanes, equal_nan=True)
        finite = sorted({t for t in scalar if t == t})
        assert any(map(math.isnan, scalar)) and len(finite) > 5
        # Those targets, outside (0, 2), below and above the bracket, and in it.
        targets = finite + [math.nan, 2.0, -tiny, 0.7, 0.95]

        probes = {}

        def recorded(n, k, p, q, landing, xp=math):
            value = _excess(n, k, p, q, landing, xp)
            if xp is math:
                probes.setdefault(n, []).append((q, value > 0.0))
            else:
                for lane_n, x, v in zip(n.tolist(), q.tolist(), value.tolist()):
                    probes.setdefault(int(lane_n), []).append((x, v > 0.0))
            return value

        def extreme(n, k, p, q, landing, excess, xp=math):
            if xp is math:
                extreme.calls += 1
                return targets[extreme.calls % len(targets)]
            return np.array(targets)[(n.astype(np.int64) + len(q)) % len(targets)]

        ns = range(2, 2 + _LANE_MIN)
        expected = [solve_equilibrium(GameParams(n, 3, 0.6)) for n in ns]
        monkeypatch.setattr(equilibrium, "_excess", recorded)
        monkeypatch.setattr(equilibrium, "_newton", extreme)
        extreme.calls = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = [equilibrium._solve(n, 3, 0.6)[1:3] for n in ns]
            scalar_probes = dict(probes)
            probes.clear()
            lanes = sweep_n(3, 0.6, ns).ys
        assert scalar == [(s.bracket_lo, s.bracket_hi) for s in expected]
        assert lanes == tuple(s.q_bar for s in expected)
        for route in (scalar_probes, probes):
            for n in ns:
                jl, jh = bits(0.6) // CELL, bits(1.0) // CELL
                for x, up in route[n]:
                    assert jl < bits(x) // CELL < jh and bits(x) % CELL == 0
                    jl, jh = (jl, bits(x) // CELL) if up else (bits(x) // CELL, jh)
                assert jh - jl == 1

    def test_scalar_and_lane_solves_probe_alike(self, monkeypatch):
        # The scalar loop and the numpy lanes write the probe rule once each.
        # Each game's probes, with the sign the sign function took there, must
        # be the same on both routes up to the first probe where math and
        # numpy give it different signs; past that probe they may part.
        probes = {}

        def record(sign):
            def recorded(n, k, p, q, landing, xp=math):
                value = sign(n, k, p, q, landing, xp)
                if xp is math:
                    probes.setdefault(n, []).append((q, value > 0.0))
                else:
                    for lane_n, x, v in zip(n.tolist(), q.tolist(), value.tolist()):
                        probes.setdefault(int(lane_n), []).append((x, v > 0.0))
                # Past the bound a solve whose deadline broke fails, not hangs.
                assert max(map(len, probes.values())) <= 53 + _FREE_STEPS
                return value

            monkeypatch.setattr(equilibrium, "_excess", recorded)

        def splits(k, p, ns):
            """The ns whose two routes take a probe's sign differently."""
            probes.clear()
            sweep_n(k, p, ns)
            lanes = dict(probes)
            probes.clear()
            for n in ns:
                equilibrium._solve(n, k, p)
            split = []
            for n in ns:
                for j, (scalar, lane) in enumerate(zip(probes[n], lanes[n])):
                    if scalar != lane:
                        assert scalar[0] == lane[0], (n, k, p, j)
                        split.append(n)
                        break
                else:
                    assert probes[n] == lanes[n], (n, k, p)
            return split

        record(_excess)
        rng = np.random.default_rng(2626)
        games, split = 0, []
        for _ in range(5):
            k = int(rng.integers(1, 41))
            floor = 1 / (k + 1)
            p = floor + (1 - floor) * rng.uniform(0.001, 0.999)
            ns = sorted(int(n) for n in rng.choice(np.arange(2, 1001), 40, replace=False))
            games += len(ns)
            split += splits(k, p, ns)
        assert games == 200
        print(f"{len(split)} of {games} games probe a point where math and numpy disagree")
        # The one game known to split (see TestLaneSolver.SPLIT) is found.
        n, k, p = TestLaneSolver.SPLIT
        assert splits(k, p, range(2, 42)) == [n]

        # No game above reaches the deadline's bisection, so sign functions
        # whose values stall the Newton targets stand in for the excess: a
        # tiny value leaves the target at the probe, so the next probe is one
        # cell further in, and a huge one throws it out of (0, 2), to the
        # midpoint. They take the same values on both routes, which must then
        # probe alike throughout.
        tiny, span = 5e-324, bits(1.0) // CELL - bits(0.5) // CELL
        for below, above in ((-tiny, tiny), (-1e300, tiny), (-tiny, 1e300)):
            def stalling(n, k, p, q, landing, xp=math, below=below, above=above):
                root = p + (1.0 - p) / (n + 0.5)
                if xp is math:
                    return below if q < root else above
                return xp.where(q < root, below, above)

            record(stalling)
            assert splits(3, 0.5, range(2, 42)) == []
            # Every game spends the whole bound, which only the deadline's
            # bisection keeps; the excess takes at most 6.
            assert set(map(len, probes.values())) == {span.bit_length() + _FREE_STEPS}

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

    def test_relative_resolution_at_a_tiny_reliability(self):
        # A cell is 1,024 ulps, at most 2**-42 (2.3e-13) of its upper end, at
        # every scale, so however small p is the root is located that finely.
        n, k, p = 5, 10**8, 1.5e-8
        solution = solve_equilibrium(GameParams(n, k, p))
        assert_exact_bracket(n, k, p, solution)
        assert solution.bracket_hi - solution.bracket_lo <= 2**-42 * solution.q_bar


class TestBracketEnds:
    """The bracket runs from p's grid point to 1.0, so every valid p solves."""

    def test_excess_negative_at_p_on_criterion_3s_grid(self):
        # The paper's theorem q_bar > p, which lets the solver start at p
        # without evaluating a sign there, checked in exact arithmetic on
        # the acceptance suite's own triples.
        rng = np.random.default_rng(1003)
        for _ in range(300):
            params = _random_game(rng, 100, 10)
            assert exact_excess(params.n, params.k, params.p, params.p) < 0

    def test_p_next_to_the_signal_floor(self):
        for k in range(1, 200):
            p = 1 / (k + 1)
            for _ in range(3):
                p = math.nextafter(p, 1.0)
                for n in (2, 5, 100):
                    solution = solve_equilibrium(GameParams(n, k, p))
                    assert solution.q_bar > p
                    assert_exact_bracket(n, k, p, solution)

    def test_floor_rounded_up_solves(self):
        # The double 1.0 / (k + 1) lies above 1/(k+1) at these k below 52,
        # so it is a valid p, one rounding error above the floor.
        rounded_up = [
            k for k in range(1, 52) if Fraction(1.0 / (k + 1)) > Fraction(1, k + 1)
        ]
        assert rounded_up == [
            4, 9, 10, 12, 19, 21, 24, 25, 32, 36, 39, 40, 43, 44, 49, 51,
        ]
        for k in rounded_up:
            p = 1.0 / (k + 1)
            for n in (2, 3, 5, 100, 10**4, 10**6):
                solution = solve_equilibrium(GameParams(n, k, p))
                assert solution.q_bar > p
                assert solution.residual <= 1e-12
                if n <= 100:
                    assert_exact_bracket(n, k, p, solution)

    def test_p_next_to_one(self):
        p = 1 - 2**-53
        for n in (2, 5, 100, 10**6):
            for k in (1, 3, 10**30):
                solution = solve_equilibrium(GameParams(n, k, p))
                assert solution.q_bar == 1.0
                assert solution.residual == 1 - p
                if n <= 100:
                    assert_exact_bracket(n, k, p, solution)


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

    def test_collapsing_grid_rejected(self):
        # 1,000 points in a window 1e-15 wide round onto fewer doubles.
        with pytest.raises(ValueError, match="^abscissa values must be strictly increasing$"):
            residual_curve(GameParams(5, 3, 0.5), 0.5, 0.5 + 1e-15, 1000)

    def test_curve_past_the_array_grid_is_refused(self):
        # Past 2**53 + 1 steps the grid would be built in a Python list until
        # memory ran out; under a 1 GiB address-space cap both curves refuse
        # such steps by name instead, before building anything.
        code = (
            "from starsearch import GameParams, reliability_curve, residual_curve\n"
            "for curve in (lambda: residual_curve(GameParams(5, 3, 0.5), 0.2, 0.9, 10**400),\n"
            "              lambda: reliability_curve(5, 3, 0.3, 0.9, 2**53 + 2)):\n"
            "    try:\n"
            "        curve()\n"
            "    except ValueError as error:\n"
            "        print(error)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2),
        )
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout == "steps must be at most 2**53 + 1\n" * 2

    @pytest.mark.parametrize("steps", [400, 80_000, 10**12])
    def test_array_abscissae_are_the_formulas_bits(self, steps):
        # The grid is q_lo (1 - i/last) + q_hi (i/last), i/last rounded once,
        # at the first and the last points.
        q_lo, q_hi, last = 0.0, 1.0, steps - 1
        sample = equilibrium._residual_sampler(GameParams(5, 3, 0.5), q_lo, q_hi, steps)
        for start in (0, steps - 8):
            xs = sample(start, start + 8, True).xs
            expected = [q_lo * (1.0 - i / last) + q_hi * (i / last)
                        for i in range(start, start + 8)]
            assert list(map(bits, xs)) == list(map(bits, expected))


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

    def test_collapsing_grid_rejected(self):
        with pytest.raises(ValueError, match="^abscissa values must be strictly increasing$"):
            reliability_curve(5, 3, 0.5, 0.5 + 1e-15, 1000)

    def test_trust_below_the_floor_at_huge_k_rejected(self):
        # 1.0 / (k + 1) lies below the floor here, and q_lo above it.
        k, q_lo = 10**16 + 10, 9.999999999999989e-17
        assert Fraction(q_lo) < Fraction(1, k + 1)
        with pytest.raises(ValueError, match=r"need 1/\(k\+1\) < q_lo"):
            reliability_curve(5, k, q_lo, 0.5, 3)

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
        # Consecutive roots are only located to a grid cell (1,024 ulps), so
        # the decrease is asserted with 1e-12 of slack.
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

    def test_random_sweeps_match_scalar_solves(self):
        rng = np.random.default_rng(1414)
        for _ in range(300):
            k = int(rng.integers(1, 41))
            floor = 1 / (k + 1)
            p = floor + (1 - floor) * rng.uniform(0.001, 0.999)
            lo = math.exp(rng.uniform(math.log(2), math.log(1e4)))
            hi = lo * math.exp(rng.uniform(math.log(100), math.log(1e5)))
            ns = sorted({int(round(n)) for n in np.geomspace(lo, hi, 50)})
            assert len(ns) >= _LANE_MIN
            curve = sweep_n(k, p, ns)
            assert curve.ys == tuple(scalar_q_bar(n, k, p) for n in ns)
        for _ in range(100):
            n = int(round(math.exp(rng.uniform(math.log(2), math.log(1e6)))))
            p = 0.5 + 0.5 * rng.uniform(0.001, 0.999)
            curve = sweep_k(n, p, range(1, 41))
            assert curve.ys == tuple(scalar_q_bar(n, k, p) for k in range(1, 41))

    # At this (n, k, p) numpy's kernels and math's give the sign function
    # different signs next to the root, and the scalar solve ends one cell
    # above the lanes. Exact signs of the excess would settle it.
    SPLIT = (3, 9, 0.7169403197093437)

    def test_lane_answer_is_the_exact_roots_cell(self):
        n, k, p = self.SPLIT
        q_bar = sweep_k(n, p, range(1, 41)).ys[k - 1]
        assert q_bar == sweep_n(k, p, range(2, 42)).ys[n - 2] == 0.7832758327390366
        assert exact_excess(n, k, p, q_bar) > 0
        assert exact_excess(n, k, p, math.nextafter(q_bar, 0.0)) < 0

    @pytest.mark.xfail(strict=True, reason="the scalar solve ends one cell high here")
    def test_scalar_solve_equals_the_lanes_where_the_kernels_disagree(self):
        n, k, p = self.SPLIT
        assert scalar_q_bar(n, k, p) == sweep_k(n, p, range(1, 41)).ys[k - 1]

    # Games where the float sign function is <= 0 at the scalar solve's
    # bracket_lo, though the exact excess there is positive, so that solve
    # ends one cell above the exact root's; some lanes end there too.
    @pytest.mark.parametrize("n,k,p", [
        pytest.param(32, 168626, 0.0512806421024794, marks=ONE_CELL_HIGH),
        pytest.param(5, 1163, 0.3261288008123302, marks=ONE_CELL_HIGH),
        pytest.param(3, 2, 0.6960085208425162, marks=ONE_CELL_HIGH),
        pytest.param(4, 67214, 0.6179153146021227, marks=ONE_CELL_HIGH),
    ])
    def test_scalar_solve_ends_on_the_exact_roots_cell(self, n, k, p):
        assert_exact_bracket(n, k, p, solve_equilibrium(GameParams(n, k, p)))

    @pytest.mark.parametrize("n,k,p", [
        pytest.param(32, 168626, 0.0512806421024794, marks=ONE_CELL_HIGH),
        (5, 1163, 0.3261288008123302),
        pytest.param(3, 2, 0.6960085208425162, marks=ONE_CELL_HIGH),
        (4, 67214, 0.6179153146021227),
    ])
    def test_lane_ends_on_the_exact_roots_cell(self, n, k, p):
        # A lane of a sweep_k that starts at k.
        q_bar = sweep_k(n, p, range(k, k + _LANE_MIN)).ys[0]
        assert exact_sign_function(n, k, p, q_bar) > 0
        assert exact_sign_function(n, k, p, double(bits(q_bar) - CELL)) <= 0

    def test_p_one_ulp_above_the_first_floor(self):
        # Every lane shares the bracket that starts at p, even the k = 1 lane
        # whose signal floor lies one ulp below it.
        p = math.nextafter(0.5, 1.0)
        for n in (2, 5, 100):
            curve = sweep_k(n, p, range(1, 40))
            assert curve.ys == tuple(scalar_q_bar(n, k, p) for k in range(1, 40))
            assert all(q_bar > p for q_bar in curve.ys)


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

    @pytest.mark.parametrize("k", [10**150, 10**300])
    def test_p_next_to_a_tiny_signal_floor(self, k):
        # p, q and q* are all near 1/k, where the excess's products would
        # underflow.
        for n in (2, 5):
            p = 2 / k
            solution = solve_equilibrium(GameParams(n, k, p))
            assert_exact_bracket(n, k, p, solution)
            assert solution.residual <= 1e-12 * p

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
