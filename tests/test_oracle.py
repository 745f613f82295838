import itertools
from fractions import Fraction

import pytest

from idealhash import hashspace
from idealhash.combinatorics import binom, compositions
from idealhash.errors import BudgetExceededError
from idealhash.hashspace import (
    Family,
    HashFunction,
    KeySet,
    Params,
    balanced_fiber_sizes,
)
from idealhash.oracle import (
    balance_extremality_check,
    cap_binds,
    count_ideal_sets,
    cover_mask,
    exact_ideal_probability,
    min_family_size_exact,
    verify_family,
)


def naive_count(betas, n, cap):
    """Per-subset enumeration against the blocked function with the given fibers."""
    u = sum(betas)
    cells = []
    for cell, b in enumerate(betas, start=1):
        cells.extend([cell] * b)
    hits = 0
    for combo in itertools.combinations(range(1, u + 1), n):
        loads = [0] * len(betas)
        for key in combo:
            loads[cells[key - 1] - 1] += 1
        if max(loads) <= cap:
            hits += 1
    return hits


class TestCountIdealSets:
    def test_balanced_square_case(self):
        assert count_ideal_sets((4, 4), 4, 2) == 36  # C(4,2)^2

    def test_tiny_cases(self):
        assert count_ideal_sets((2, 2), 2, 1) == 4
        assert count_ideal_sets((3, 1), 2, 1) == 3

    def test_cap_at_least_n_counts_everything(self):
        assert count_ideal_sets((5, 3), 4, 4) == binom(8, 4)
        assert count_ideal_sets((7, 2, 3), 5, 7) == binom(12, 5)

    def test_closed_form_when_divisible(self):
        for u, m in ((6, 2), (6, 3), (8, 2), (12, 3)):
            for n in range(m, min(u, 8) + 1, m):
                alpha = n // m
                expected = binom(u // m, alpha) ** m
                assert count_ideal_sets(balanced_fiber_sizes(u, m), n, alpha) == expected

    def test_dp_matches_naive_enumeration_everywhere(self):
        grids = []
        for u in range(2, 11):
            for m in (2, 3):
                if u < m:
                    continue
                grids.append(tuple(balanced_fiber_sizes(u, m)))
                grids.append(tuple([u - m + 1] + [1] * (m - 1)))  # ragged
        for betas in grids:
            u = sum(betas)
            for n in range(1, min(u, 6) + 1):
                for cap in range(1, n + 1):
                    assert count_ideal_sets(betas, n, cap) == naive_count(
                        betas, n, cap
                    ), (betas, n, cap)


class TestExactIdealProbability:
    def test_eight_choose_four_anchor(self):
        ic = exact_ideal_probability(Params(8, 2, 4, 1))
        assert (ic.m_c, ic.total) == (36, 70)
        assert ic.probability == Fraction(18, 35)

    def test_four_two_two(self):
        ic = exact_ideal_probability(Params(4, 2, 2, 1))
        assert (ic.m_c, ic.total) == (4, 6)

    def test_c_at_least_m_gives_probability_one(self):
        for u, m, n in ((4, 2, 2), (6, 3, 3), (9, 2, 4)):
            ic = exact_ideal_probability(Params(u, m, n, m))
            assert ic.probability == 1

    def test_monotone_in_c(self):
        last = Fraction(0)
        for c in (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)):
            cur = exact_ideal_probability(Params(10, 2, 4, c)).probability
            assert cur >= last
            last = cur

    def test_saturates_once_cap_reaches_n(self):
        p = Params(10, 2, 4, Fraction(2))  # cap = 4 = n
        assert exact_ideal_probability(p).probability == 1


class TestBalanceExtremality:
    def test_square_anchor_with_strict_ordering(self):
        counts = {
            part: count_ideal_sets(part, 4, 2) for part in compositions(8, 2, 8)
        }
        assert counts[(4, 4)] == 36
        for part in ((5, 3), (6, 2), (7, 1), (8, 0)):
            assert counts[part] < 36
        assert balance_extremality_check(8, 2, 4, 1)

    def test_three_cells(self):
        assert balance_extremality_check(6, 3, 3, 1)

    def test_degenerate_tie_when_cap_exceeds_n(self):
        # c >= m: every decomposition ties at C(u,n); balanced is among them
        assert balance_extremality_check(4, 2, 2, 2)

    def test_degenerate_tie_when_fibers_fit_under_cap(self):
        # cap 3 >= ceil(10/3)... all-small-fiber decompositions tie
        assert not cap_binds(6, 3, 5, Fraction(2))
        assert balance_extremality_check(6, 3, 5, Fraction(2))

    def test_cap_binds_predicate(self):
        assert cap_binds(8, 2, 4, 1)
        assert not cap_binds(8, 2, 4, 2)  # cap = n
        assert not cap_binds(14, 3, 4, 1)  # m*cap < n


class TestVerifyFamily:
    def test_two_function_family_covers_all_six(self):
        p = Params(4, 2, 2, 1)
        fam = Family((HashFunction((1, 1, 2, 2), 2), HashFunction((1, 2, 1, 2), 2)))
        rep = verify_family(fam, p)
        assert rep.is_ideal_family
        assert rep.covered == 6
        assert rep.uncovered_witness is None

    def test_singleton_misses_its_own_fiber_pair(self):
        p = Params(4, 2, 2, 1)
        rep = verify_family(Family((HashFunction((1, 1, 2, 2), 2),)), p)
        assert not rep.is_ideal_family
        assert rep.covered == 4
        assert rep.uncovered_witness == KeySet((1, 2))

    def test_any_family_verifies_at_c_equal_m(self):
        p = Params(4, 2, 2, 2)
        rep = verify_family(Family((HashFunction((1, 1, 1, 1), 2),)), p)
        assert rep.is_ideal_family

    def test_budget_guard(self):
        p = Params(30, 2, 15)
        with pytest.raises(BudgetExceededError):
            verify_family(Family((HashFunction((1,) * 30, 2),)), p, budget=100)


class TestMinFamilySize:
    def test_pair_splitting_anchor(self):
        assert min_family_size_exact(Params(4, 2, 2, 1)) == 2

    def test_six_key_universe_needs_three(self):
        # universe lower bound ln6/ln2 = 2.58 forces 3; an explicit 3-family exists
        assert min_family_size_exact(Params(6, 2, 2, 1)) == 3

    def test_c_at_least_m_needs_one(self):
        for u, m, n in ((4, 2, 2), (6, 3, 3), (6, 2, 3)):
            assert min_family_size_exact(Params(u, m, n, m)) == 1

    def test_m_equal_one_needs_one(self):
        assert min_family_size_exact(Params(5, 1, 3, 1)) == 1

    def test_infeasible_cap_returns_none(self):
        # alpha = 3/2, cap = 1 < ceil(alpha): nothing is ever ideal
        assert min_family_size_exact(Params(6, 2, 3, 1)) is None

    def test_function_budget_checked_before_enumeration(self, monkeypatch):
        # C(12,2) = 66 key sets fit the budget; 2**12 = 4096 functions do not
        built = []
        monkeypatch.setattr(hashspace, "HashFunction", lambda *args: built.append(args))
        with pytest.raises(BudgetExceededError):
            min_family_size_exact(Params(12, 2, 2, 1), budget=1000)
        assert built == []

    def test_volume_bound_respected_on_tiny_grid(self):
        for u in range(2, 7):
            for m in (2, 3):
                for n in range(m, min(u, 4) + 1):
                    for c in (Fraction(1), Fraction(3, 2)):
                        p = Params(u, m, n, c)
                        ic = exact_ideal_probability(p)
                        if ic.m_c == 0:
                            continue
                        h = min_family_size_exact(p, size_limit=8)
                        assert h is not None
                        assert h >= -(-ic.total // ic.m_c)

    def test_restriction_to_balanced_is_lossless_for_the_max(self):
        for u, m, n, c in ((8, 2, 4, 1), (6, 3, 3, 1), (9, 3, 4, Fraction(3, 2))):
            cap = Params(u, m, n, c).load_cap
            best = max(
                count_ideal_sets(part, n, cap) for part in compositions(u, m, u)
            )
            assert best == count_ideal_sets(balanced_fiber_sizes(u, m), n, cap)


def test_cover_mask_bit_per_lexicographic_set():
    p = Params(4, 2, 2, 1)
    h = HashFunction((1, 1, 2, 2), 2)
    mask = cover_mask(h, p)
    # sets: (1,2) (1,3) (1,4) (2,3) (2,4) (3,4) -> covered except first and last
    assert mask == 0b011110
