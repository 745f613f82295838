import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idealhash.combinatorics import (
    LogReal,
    binom,
    composition_count,
    compositions,
    ln_fraction,
)


class TestBinom:
    def test_small_values(self):
        assert binom(4, 2) == 6
        assert binom(8, 4) == 70

    def test_b_larger_than_a_is_zero(self):
        assert binom(4, 5) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binom(-1, 0)
        with pytest.raises(ValueError):
            binom(3, -2)

    def test_pascal_recurrence_and_symmetry_exhaustive(self):
        for a in range(31):
            for b in range(a + 1):
                assert binom(a, b) == binom(a, a - b)
                if 0 < b:
                    assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


class TestCompositionCount:
    def test_three_ways_to_split_two(self):
        # (0,2), (1,1), (2,0)
        assert composition_count(2, 2, 2) == 3

    @pytest.mark.parametrize("n,m", [(3, 2), (5, 3), (7, 4), (4, 1)])
    def test_uncapped_matches_stars_and_bars(self, n, m):
        assert composition_count(n, m, n) == binom(n + m - 1, m - 1)

    @pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (9, 3), (8, 4)])
    def test_tight_cap_forces_all_equal(self, n, m):
        assert composition_count(n, m, n // m) == 1

    def test_impossible_sum_is_zero(self):
        assert composition_count(7, 3, 2) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            composition_count(0, 2, 2)
        with pytest.raises(ValueError):
            composition_count(2, 0, 2)
        with pytest.raises(ValueError):
            composition_count(2, 2, -1)

    @given(
        n=st.integers(min_value=1, max_value=10),
        m=st.integers(min_value=1, max_value=5),
        d=st.integers(min_value=0, max_value=10),
    )
    def test_matches_brute_force_enumeration(self, n, m, d):
        brute = sum(
            1 for tup in product(range(d + 1), repeat=m) if sum(tup) == n
        )
        assert composition_count(n, m, d) == brute

    def test_dominates_crude_power_lower_bound(self):
        # d = c*alpha with integer alpha: count >= (alpha+1)^(m*(1-1/c))
        for m in range(2, 7):
            for alpha in range(1, 5):
                for c in (1, 2):
                    n = m * alpha
                    crude = (alpha + 1) ** (m * (1 - 1 / c))
                    assert composition_count(n, m, c * alpha) >= crude


class TestCompositions:
    def test_count_matches_composition_count(self):
        for n, m, d in product(range(1, 9), range(1, 5), range(0, 10)):
            assert sum(1 for _ in compositions(n, m, d)) == composition_count(n, m, d)

    @pytest.mark.parametrize("n,m,d", [(4, 3, 2), (6, 3, 6), (5, 1, 5), (5, 1, 4), (0, 3, 1), (7, 4, 3)])
    def test_matches_brute_force_in_lexicographic_order(self, n, m, d):
        brute = [tup for tup in product(range(d + 1), repeat=m) if sum(tup) == n]
        assert list(compositions(n, m, d)) == brute

    def test_rejects_no_parts(self):
        with pytest.raises(ValueError):
            list(compositions(2, 0, 2))


class TestLogReal:
    def test_from_int_and_fraction_agree(self):
        a = LogReal.from_value(70)
        b = LogReal.from_value(Fraction(140, 2))
        assert a.log_value == pytest.approx(b.log_value)
        assert a.to_float() == pytest.approx(70.0)

    def test_huge_int_does_not_overflow(self):
        big = math.factorial(500)
        lr = LogReal.from_value(big)
        assert lr.log_value == pytest.approx(math.log(big))

    def test_zero_sign_and_arithmetic(self):
        z = LogReal.zero()
        assert z.sign == 0
        assert z.to_float() == 0.0
        assert (z * LogReal.from_value(3)).sign == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LogReal.from_value(-1)
        with pytest.raises(ValueError):
            LogReal.from_value(Fraction(-1, 2))

    def test_mul_div_pow(self):
        a = LogReal.from_value(6)
        b = LogReal.from_value(2)
        assert (a * b).to_float() == pytest.approx(12.0)

    def test_ordering_follows_values(self):
        assert LogReal.from_value(2) < LogReal.from_value(3)
        assert LogReal.zero() < LogReal.from_value(Fraction(1, 10**6))

    def test_overflow_is_flagged_not_raised(self):
        lr = LogReal.from_ln(1000.0)
        assert lr.to_float() == math.inf
        assert lr.ceil_int() is None

    def test_log2_conversion(self):
        assert LogReal.from_value(1024).log2() == pytest.approx(10.0)


def test_ln_fraction_handles_huge_terms():
    q = Fraction(math.factorial(300), math.factorial(299))
    assert ln_fraction(q) == pytest.approx(math.log(300))
    with pytest.raises(ValueError):
        ln_fraction(Fraction(0))
