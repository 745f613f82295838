import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealhash.combinatorics import binom, compositions, ln_fraction
from idealhash.distributions import (
    binomial_marginal_le,
    binomial_tail_lb,
    conditioned_poisson_pmf,
    hypergeometric_marginal_le,
    min_product_factorials_check,
    multinomial_pmf,
    p_tmax_le,
    tmax_lower_bound,
)


class TestHypergeometricMarginal:
    def test_full_support_is_one(self):
        assert hypergeometric_marginal_le(6, 3, 4, 3) == 1
        assert hypergeometric_marginal_le(6, 3, 2, 2) == 1

    def test_pair_in_half_universe(self):
        assert hypergeometric_marginal_le(4, 2, 2, 1) == Fraction(5, 6)

    def test_three_term_sum(self):
        assert hypergeometric_marginal_le(8, 4, 4, 2) == Fraction(53, 70)


class TestMultinomial:
    def test_all_in_one_cell(self):
        assert multinomial_pmf((3, 0), 3, 2) == Fraction(1, 8)

    def test_split_pair(self):
        assert multinomial_pmf((1, 1), 2, 2) == Fraction(1, 2)

    @given(
        n=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=4),
    )
    def test_normalization(self, n, m):
        total = sum(multinomial_pmf(lv, n, m) for lv in compositions(n, m, n))
        assert total == 1


class TestConditionedPoisson:
    def test_equals_multinomial_on_small_grid(self):
        for m in range(1, 5):
            for n in range(1, 9):
                for lv in compositions(n, m, n):
                    assert conditioned_poisson_pmf(lv, n, m) == multinomial_pmf(
                        lv, n, m
                    )

    def test_split_pair(self):
        assert conditioned_poisson_pmf((1, 1), 2, 2) == Fraction(1, 2)

    def test_double_hit(self):
        assert conditioned_poisson_pmf((2, 0), 2, 2) == Fraction(1, 4)


@pytest.mark.parametrize("pmf", [multinomial_pmf, conditioned_poisson_pmf])
@pytest.mark.parametrize("lv", [(3, -1)], ids=["negative"])
def test_pmfs_reject_malformed_load_vectors(pmf, lv):  # math.factorial refuses a negative load
    with pytest.raises(ValueError):
        pmf(lv, 2, 2)


def reference_p_tmax_le(n, m, cap):
    """The row DP over cells that computed the throw probability before the
    power-series recurrence."""
    row = [1] + [0] * n
    for _ in range(m):
        nxt = [0] * (n + 1)
        for s in range(n + 1):
            if row[s] == 0:
                continue
            for l in range(0, min(cap, n - s) + 1):
                nxt[s + l] += row[s] * binom(s + l, l)
        row = nxt
    return Fraction(row[n], m**n)


class TestPTmax:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 5), cap=st.integers(0, 8))
    def test_matches_row_dp(self, n, m, cap):
        assert p_tmax_le(n, m, cap) == reference_p_tmax_le(n, m, cap)

    def test_two_balls_two_cells(self):
        assert p_tmax_le(2, 2, 1) == Fraction(1, 2)

    def test_cap_at_n_is_certain(self):
        assert p_tmax_le(5, 3, 5) == 1

    def test_balanced_sequences_of_four(self):
        assert p_tmax_le(4, 2, 2) == Fraction(6, 16)

    def test_injective_case_is_factorial_ratio(self):
        for n in (2, 3, 4, 5, 6):
            assert p_tmax_le(n, n, 1) == Fraction(math.factorial(n), n**n)

    def test_matches_summed_multinomial_mass(self):
        for n, m in ((4, 2), (5, 3), (6, 3)):
            for cap in range(1, n + 1):
                summed = sum(
                    multinomial_pmf(lv, n, m)
                    for lv in compositions(n, m, n)
                    if max(lv) <= cap
                )
                assert p_tmax_le(n, m, cap) == summed


class TestBinomialTailLowerBound:
    def test_frozen_anchor_value(self):
        # (1 - 1/2)^4 * (2/3)^3 = 1/54
        lb = binomial_tail_lb(4, 2, 1)
        assert math.exp(lb) == pytest.approx(1 / 54, rel=1e-12)

    def test_anchor_stays_below_exact_tail(self):
        exact = 1 - binomial_marginal_le(4, 2, 2)
        assert exact == Fraction(5, 16)
        assert math.exp(binomial_tail_lb(4, 2, 1)) <= float(exact)

    def test_below_exact_tail_on_grid(self):
        for m in range(2, 6):
            for alpha in range(1, 4):
                for c in (Fraction(1), Fraction(3, 2), Fraction(2)):
                    n = m * alpha
                    ca = c * Fraction(n, m)
                    if ca + 1 > n:
                        continue
                    lb = binomial_tail_lb(n, m, c)
                    exact = 1 - binomial_marginal_le(n, m, math.floor(ca))
                    assert lb <= ln_fraction(exact) + 1e-9


class TestTmaxLowerBound:
    def test_below_exact_probability_on_grid(self):
        for m in range(2, 6):
            for alpha in range(1, 4):
                for c in (Fraction(1), Fraction(2)):
                    n = m * alpha
                    d = math.floor(c * Fraction(n, m))
                    lower = tmax_lower_bound(n, m, c)
                    exact = p_tmax_le(n, m, d)
                    assert lower <= ln_fraction(exact) + 1e-9

    def test_injective_comparison(self):
        # c = 1, alpha = 1: exact value is n!/n^n
        for n in (3, 4, 5, 6):
            lower = tmax_lower_bound(n, n, 1)
            exact = Fraction(math.factorial(n), n**n)
            assert lower <= ln_fraction(exact) + 1e-9

    def test_nonincreasing_in_n_at_fixed_m_c(self):
        # regression expectation, not a proven guarantee
        for m in (2, 3):
            values = [
                tmax_lower_bound(m * alpha, m, 1) for alpha in range(1, 6)
            ]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestNegativeDependence:
    def test_hypergeometric_product_dominates_joint(self):
        from idealhash.hashspace import Params, balanced_fiber_sizes
        from idealhash.oracle import exact_ideal_probability

        for u in (6, 8, 10, 12):
            for m in (2, 3):
                for c in (Fraction(1), Fraction(3, 2), Fraction(2)):
                    for n in range(m, min(u, 8) + 1):
                        p = Params(u, m, n, c)
                        joint = exact_ideal_probability(p).probability
                        prod = Fraction(1)
                        for beta in balanced_fiber_sizes(u, m):
                            prod *= hypergeometric_marginal_le(u, beta, n, p.load_cap)
                        assert joint <= prod

    def test_binomial_product_dominates_joint(self):
        for n, m in ((4, 2), (6, 2), (6, 3), (9, 3), (8, 2)):
            for cap in range(1, n):
                assert p_tmax_le(n, m, cap) <= binomial_marginal_le(n, m, cap) ** m


class TestReplacement:
    def test_throw_probability_lower_bounds_exact(self):
        from idealhash.hashspace import Params
        from idealhash.oracle import exact_ideal_probability

        for u in (6, 8, 10, 12):
            for m in (2, 3):
                for c in (Fraction(1), Fraction(3, 2), Fraction(2)):
                    for n in range(m, min(u, 8) + 1):
                        p = Params(u, m, n, c)
                        assert (
                            p_tmax_le(n, m, p.load_cap)
                            <= exact_ideal_probability(p).probability
                        )


class TestMinProductFactorials:
    def test_four_into_four_capped_at_two(self):
        assert min_product_factorials_check(4, 4, 2)

    def test_forced_single_composition(self):
        assert min_product_factorials_check(2, 2, 1)
        assert min_product_factorials_check(4, 2, 2)
