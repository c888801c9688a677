import decimal
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsearch import (
    GameParams,
    TrustProfile,
    equilibrium_residual,
    expected_payoff,
    reliability_from_trust,
    single_searcher_optimal_trust,
    solve_equilibrium,
    trust_decrease_threshold,
)
from starsearch.model import _powers, _reliability_excess

# Strategies for valid game parameters: p drawn inside (1/(k+1), 1) with a
# margin so hypothesis shrinking cannot land on the open boundary.
valid_n = st.integers(min_value=2, max_value=100)
valid_k = st.integers(min_value=1, max_value=10)
unit_margin = st.floats(min_value=0.01, max_value=0.99)


def make_params(n: int, k: int, u: float) -> GameParams:
    floor = 1.0 / (k + 1)
    return GameParams(n, k, floor + u * (1.0 - floor))


class TestGameParams:
    def test_valid_instance(self):
        params = GameParams(5, 3, 0.5)
        assert (params.n, params.k, params.p) == (5, 3, 0.5)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            GameParams(1, 3, 0.5)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            GameParams(5, 0, 0.5)

    def test_p_at_signal_floor_rejected(self):
        # The boundary itself is excluded: a pointer at the uniform-guess
        # rate carries no signal.
        with pytest.raises(ValueError, match=r"p must exceed 1/\(k\+1\)"):
            GameParams(5, 3, 0.25)
        with pytest.raises(ValueError, match=r"p must exceed 1/\(k\+1\)"):
            GameParams(5, 2, 1.0 / 3.0)
        GameParams(5, 3, 0.25 + 1e-9)

    def test_p_one_rejected(self):
        with pytest.raises(ValueError, match="strictly less than 1"):
            GameParams(5, 3, 1.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_p_rejected(self, p):
        with pytest.raises(ValueError, match="^p must be finite$"):
            GameParams(5, 3, p)

    def test_non_integer_n_rejected(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            GameParams(2.5, 3, 0.5)

    def test_counts_beyond_the_doubles_rejected(self):
        # The closed forms compute with n and k as doubles.
        huge = 10**400
        with pytest.raises(ValueError, match="^n must fit in a double$"):
            GameParams(huge, 3, 0.5)
        with pytest.raises(ValueError, match="^k must fit in a double$"):
            GameParams(5, huge, 0.5)
        with pytest.raises(ValueError, match="^n must fit in a double$"):
            reliability_from_trust(huge, 3, 0.5)
        with pytest.raises(ValueError, match="^k must fit in a double$"):
            reliability_from_trust(5, huge, 0.5)

    def test_largest_counts_that_fit_solve(self):
        largest = int(sys.float_info.max)
        for n, k in ((largest, 1), (2, largest), (largest, largest)):
            solution = solve_equilibrium(GameParams(n, k, 0.6))
            assert solution.q_bar > 0.6


class TestTrustProfile:
    def test_bounds(self):
        TrustProfile(0.0, 1.0)
        with pytest.raises(ValueError, match="q must lie in"):
            TrustProfile(-0.1, 0.5)
        with pytest.raises(ValueError, match="r must lie in"):
            TrustProfile(0.5, 1.1)


class TestPowOneMinus:
    def test_small_exponent_matches_pow(self):
        assert _powers(0.3, 5)[0] == pytest.approx(0.7**5, rel=1e-14)

    @pytest.mark.parametrize("x,n", [(0.3, 800), (0.3, 1500), (1e-7, 5000), (0.97, 2000)])
    def test_matches_exact_rational_power(self, x, n):
        # Exact oracle: 1 - x for the stored double x, raised to n in
        # rational arithmetic and rounded back to float at the end.
        exact = float((1 - Fraction(x)) ** n)
        if exact > 0.0:
            assert _powers(x, n)[0] == pytest.approx(exact, rel=1e-11)
        else:
            assert _powers(x, n)[0] == 0.0

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_powers_match_exact_rationals_at_1024_and_1025(self, n):
        # One route for every n, so no seam in accuracy between these two.
        x = 0.3
        power, power1, _, _ = _powers(x, n)
        for value, m in ((power, n), (power1, n - 1)):
            exact = (1 - Fraction(x)) ** m
            assert abs(Fraction(value) - exact) <= Fraction(4e-14) * exact

    def test_complements_of_a_tiny_rate(self):
        # 1 - (1 - x)^m cancels catastrophically if formed directly.
        x, n = 1e-13, 5
        _, _, complement, complement1 = _powers(x, n)
        for value, m in ((complement, n), (complement1, n - 1)):
            exact = 1 - (1 - Fraction(x)) ** m
            assert abs(Fraction(value) - exact) <= Fraction(1e-15) * exact

    def test_tiny_rate_large_exponent(self):
        # (1 - 1e-7) ** 10**6 tracks exp(-0.1) to the second-order term.
        assert _powers(1e-7, 10**6)[0] == pytest.approx(math.exp(-0.1), rel=1e-6)
        assert _powers(1e-7, 10**6)[0] < math.exp(-0.1)

    def test_edge_cases(self):
        assert _powers(0.0, 10**6) == (1.0, 1.0, 0.0, 0.0)
        assert _powers(1.0, 7) == (0.0, 0.0, 1.0, 1.0)
        assert _powers(1.0, 10**6) == (0.0, 0.0, 1.0, 1.0)
        assert _powers(0.5, 2) == (0.25, 0.5, 0.75, 0.5)


def exact_payoff(n, k, p, q, r):
    """expected_payoff's formula in rational arithmetic from the given doubles."""
    p, q, r = Fraction(p), Fraction(q), Fraction(r)

    def branch(x, y):
        return y * (1 - (1 - x) ** n) / (n * x) / (1 - (1 - x) ** (n - 1) * (1 - y))

    return p * branch(q, r) + (1 - p) * branch((1 - q) / k, (1 - r) / k)


def exact_residual(n, k, p, q):
    """equilibrium_residual's formula in rational arithmetic from the given doubles."""
    p, q = Fraction(p), Fraction(q)
    p_star, q_star = (1 - p) / k, (1 - q) / k
    return p * q_star * (1 - (1 - q_star) ** n) * (1 - (1 - q) ** (n - 1)) - (
        p_star * q * (1 - (1 - q) ** n) * (1 - (1 - q_star) ** (n - 1))
    )


class TestExpectedPayoff:
    def test_two_player_symmetric_half(self):
        payoff = expected_payoff(GameParams(2, 1, 0.6), TrustProfile(0.5, 0.5))
        assert payoff == pytest.approx(0.5, abs=1e-12)

    def test_figure_root_symmetric_share(self):
        payoff = expected_payoff(GameParams(5, 3, 0.5), TrustProfile(0.53, 0.53))
        assert payoff == pytest.approx(0.2, abs=1e-12)

    def test_asymmetric_matches_series(self):
        # Independent check: sum the turn-by-turn series until the geometric
        # tail drops below 1e-14.
        from starsearch import series_payoff

        params = GameParams(2, 1, 0.6)
        profile = TrustProfile(0.5, 0.8)
        assert expected_payoff(params, profile) == pytest.approx(
            series_payoff(params, profile), abs=1e-10
        )

    @pytest.mark.parametrize(
        "n,k,p,q,r",
        [
            (3, 2, 0.6, 1e-12, 0.5),
            (5, 3, 0.5, 1e-13, 1e-12),
            (5, 3, 0.5, 1 - 1e-13, 1 - 3e-13),
            (40, 7, 0.7, 1e-9, 0.3),
        ],
    )
    def test_matches_exact_rationals_at_extreme_trusts(self, n, k, p, q, r):
        exact = exact_payoff(n, k, p, q, r)
        value = expected_payoff(GameParams(n, k, p), TrustProfile(q, r))
        assert abs(Fraction(value) - exact) <= Fraction(1e-15) * exact

    def test_endpoint_q_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            expected_payoff(GameParams(5, 3, 0.5), TrustProfile(0.0, 0.5))
        with pytest.raises(ValueError, match="strictly inside"):
            expected_payoff(GameParams(5, 3, 0.5), TrustProfile(1.0, 0.5))

    @given(n=valid_n, k=valid_k, u=unit_margin, q=st.floats(0.01, 0.99))
    @settings(max_examples=200)
    def test_symmetric_identity(self, n, k, u, q):
        # Playing the population trust must earn exactly the symmetric share;
        # the identity is not special-cased anywhere.
        params = make_params(n, k, u)
        payoff = expected_payoff(params, TrustProfile(q, q))
        assert abs(payoff - 1.0 / n) <= 1e-12

    @given(
        n=valid_n,
        k=valid_k,
        u=unit_margin,
        q=st.floats(0.01, 0.99),
        r=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_payoff_is_a_probability_share(self, n, k, u, q, r):
        payoff = expected_payoff(make_params(n, k, u), TrustProfile(q, r))
        assert 0.0 <= payoff <= 1.0


class TestEquilibriumResidual:
    def test_zero_at_full_trust(self):
        # q = 1 is the spurious root: the off-ray rate vanishes and both
        # residual terms die.
        for p in (0.4, 0.6, 0.9):
            assert equilibrium_residual(GameParams(5, 3, p), 1.0) == 0.0

    def test_small_near_figure_root(self):
        residual = equilibrium_residual(GameParams(5, 3, 0.5), 0.53)
        scale = max(
            abs(equilibrium_residual(GameParams(5, 3, 0.5), q / 100))
            for q in range(34, 100)
        )
        assert abs(residual) <= 5e-3 * scale

    def test_self_consistent_with_solver(self):
        params = GameParams(5, 3, 2 / 3)
        q_bar = solve_equilibrium(params).q_bar
        assert abs(equilibrium_residual(params, q_bar)) < 1e-10

    @pytest.mark.parametrize(
        "n,k,p,q", [(5, 3, 0.5, 1e-12), (5, 3, 0.5, 1 - 1e-12), (40, 7, 0.7, 1e-9)]
    )
    def test_matches_exact_rationals_at_extreme_trusts(self, n, k, p, q):
        exact = exact_residual(n, k, p, q)
        value = equilibrium_residual(GameParams(n, k, p), q)
        assert abs(Fraction(value) - exact) <= Fraction(1e-15) * abs(exact)

    def test_domain(self):
        with pytest.raises(ValueError):
            equilibrium_residual(GameParams(5, 3, 0.5), 1.2)


def exact_excess_terms(n, k, p, q):
    """The two products whose difference _reliability_excess evaluates
    divided by p q q*, and p q q*, all exact."""
    p, q = Fraction(p), Fraction(q)
    q_star = (1 - q) / k
    a, a1 = 1 - (1 - q_star) ** n, 1 - (1 - q_star) ** (n - 1)
    b, b1 = 1 - (1 - q) ** n, 1 - (1 - q) ** (n - 1)
    return q * (1 - p) * b * a1, p * (1 - q) * a * b1, p * q * q_star


# (n, k, q) at p = 0.6: the first four have k far above n, where every term
# of the excess scales with q* = (1-q)/k; the others have k near n.
EXCESS_POINTS = [
    (2, 10**7, 0.65), (2, 10**7, 0.6483), (5, 10**9, 0.62),
    (3, 2000, 0.75), (5, 3, 0.7), (5, 3, 0.631), (40, 7, 0.72), (2, 1, 0.9),
]


class TestReliabilityExcess:
    """The error stays a few ulps of the products it is the difference of."""

    @pytest.mark.parametrize("n,k,q", EXCESS_POINTS)
    def test_scalar_matches_exact_rationals(self, n, k, q):
        own, other, scale = exact_excess_terms(n, k, 0.6, q)
        value = Fraction(_reliability_excess(n, k, 0.6, q)) * scale
        assert abs(value - (own - other)) <= Fraction(1e-14) * (own + other)

    def test_lanes_mixing_both_forms_match_exact_rationals(self):
        n, k, q = (np.array(column, dtype=float) for column in zip(*EXCESS_POINTS))
        values = _reliability_excess(n, k, 0.6, q, np)
        for (n, k, q), value in zip(EXCESS_POINTS, values.tolist()):
            own, other, scale = exact_excess_terms(n, k, 0.6, q)
            value = Fraction(value) * scale
            assert abs(value - (own - other)) <= Fraction(1e-14) * (own + other)


class TestReliabilityFromTrust:
    @pytest.mark.parametrize("n,k,q", [(2, 10**300, 3e-300), (5, 10**150, 1.5e-150)])
    def test_matches_exact_rationals_where_its_terms_underflow(self, n, k, q):
        # Both products are near 1/k**3, below the smallest double.
        own, other, _ = exact_excess_terms(n, k, 0.5, q)
        own, other = own / Fraction(0.5), other / Fraction(0.5)
        exact = own / (own + other)
        value = reliability_from_trust(n, k, q)
        assert abs(Fraction(value) - exact) <= Fraction(1e-15) * exact

    def test_limit_toward_full_trust(self):
        assert reliability_from_trust(5, 3, 1 - 1e-9) > 1 - 1e-7

    def test_limit_toward_signal_floor(self):
        value = reliability_from_trust(5, 3, 0.25 + 1e-9)
        assert value == pytest.approx(0.25, abs=1e-6)

    def test_figure_value(self):
        assert reliability_from_trust(5, 3, 0.70) == pytest.approx(2 / 3, abs=5e-3)

    def test_open_domain_enforced(self):
        with pytest.raises(ValueError, match="strictly inside"):
            reliability_from_trust(5, 3, 0.25)
        with pytest.raises(ValueError, match="strictly inside"):
            reliability_from_trust(5, 3, 1.0)

    def test_strictly_increasing_on_grid(self):
        lo, hi = 0.25 + 1e-6, 1 - 1e-6
        values = [
            reliability_from_trust(5, 3, lo + (hi - lo) * i / 119) for i in range(120)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_consistency_with_residual(self):
        # Feeding F(q) back in as the reliability must zero the residual.
        for n, k in ((5, 3), (2, 1), (40, 7)):
            floor = 1.0 / (k + 1)
            for i in range(1, 50):
                q = floor + (1 - floor - 2e-6) * i / 50 + 1e-6
                p = reliability_from_trust(n, k, q)
                assert abs(equilibrium_residual(GameParams(n, k, p), q)) < 1e-10


class TestTrustDecreaseThreshold:
    def test_single_decoy_is_three(self):
        assert trust_decrease_threshold(0.9, 1) == 3.0

    def test_direct_evaluation(self):
        # 3 + 2 ln 3 / ln(2.5/1.5), evaluated independently.
        assert trust_decrease_threshold(0.5, 3) == pytest.approx(
            7.301320206174247, rel=1e-12
        )

    def test_diverges_toward_signal_floor(self):
        values = [trust_decrease_threshold(0.25 + eps, 3) for eps in (1e-2, 1e-4, 1e-6)]
        assert values[0] < values[1] < values[2]
        assert values[2] > 1e4

    def test_domain(self):
        with pytest.raises(ValueError, match=r"p must exceed 1/\(k\+1\)"):
            trust_decrease_threshold(0.25, 3)


class TestSingleSearcherBaseline:
    def test_single_decoy(self):
        assert single_searcher_optimal_trust(0.9, 1) == pytest.approx(0.75, abs=1e-12)

    def test_two_decoys(self):
        # (0.9 - sqrt(2)*0.3) / 0.7 evaluated independently.
        assert single_searcher_optimal_trust(0.9, 2) == pytest.approx(
            0.6796227589829592, rel=1e-12
        )

    @pytest.mark.parametrize("p,k", [(0.75, 3), (2 / 3, 2)])
    def test_one_half_at_k_over_k_plus_one(self, p, k):
        # Where the textbook form is 0/0.
        assert single_searcher_optimal_trust(p, k) == pytest.approx(0.5, rel=1e-15)

    def test_accurate_next_to_k_over_k_plus_one(self):
        # Against the textbook form in 60-digit decimals: next to its 0/0 it
        # cancels about 16 digits, which leaves 40.
        with decimal.localcontext() as context:
            context.prec = 60
            for k in (2, 3, 7, 100, 10**6):
                center = k / (k + 1)
                for p in (center + i * math.ulp(center) for i in range(-3, 4)):
                    x = decimal.Decimal(p)
                    denominator = 1 - (k + 1) * (1 - x)
                    if denominator == 0:  # p = 3/4 exactly, tested above
                        continue
                    textbook = (x - (k * x * (1 - x)).sqrt()) / denominator
                    value = decimal.Decimal(single_searcher_optimal_trust(p, k))
                    assert abs(value - textbook) <= decimal.Decimal(4e-16) * textbook

    def test_signal_floor_rejected(self):
        # For k=1 the point p = k/(k+1) = 0.5 is the signal floor.
        with pytest.raises(ValueError, match=r"p must exceed 1/\(k\+1\)"):
            single_searcher_optimal_trust(0.5, 1)
        with pytest.raises(ValueError, match=r"p must exceed 1/\(k\+1\)"):
            single_searcher_optimal_trust(0.2, 1)

    def test_decreasing_in_rays(self):
        values = [single_searcher_optimal_trust(0.9, k) for k in range(1, 9)]
        assert all(b < a for a, b in zip(values, values[1:]))
