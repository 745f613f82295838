import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealhash import oracle
from idealhash.bounds import AdviceReport, BoundEntry, BoundReport
from idealhash.checks import CheckResult
from idealhash.construct import ConstructionLog
from idealhash.errors import BudgetExceededError, DimensionMismatchError
from idealhash.hashspace import (
    HashFunction,
    Params,
    balanced_fiber_sizes,
    balanced_functions,
    family_from_text,
    family_to_text,
    function_to_text,
    set_partitions,
)
from idealhash.oracle import CoverageReport, IdealCount, cover_mask, verify_family
from idealhash.simulate import Estimate


def max_load(h, keys):
    """Max cell load of one key set under h, read off the coverage kernel cap by cap.

    Restricted to the set's own keys, h sees one n-subset of n keys, rank 0.
    """
    cells = [h.cells[key - 1] for key in keys]
    table = oracle._key_table(len(keys), len(keys))
    return sum(oracle._exceed_mask(cells, max(h.cells), cap, table) for cap in range(len(keys)))


class TestParams:
    def test_alpha_and_cap_are_exact(self):
        p = Params(8, 2, 4, Fraction(3, 2))
        assert p.alpha == Fraction(2)
        assert p.load_cap == 3  # floor(3/2 * 2)

    def test_fractional_cap_floors(self):
        p = Params(9, 2, 3, Fraction(1))
        assert p.alpha == Fraction(3, 2)
        assert p.load_cap == 1

    def test_validation(self):
        # each point also fails every later check, so the order of the checks is pinned
        for args, message in [
            ((1, 0, 2, 0), "need m >= 1"),
            ((1, 3, 2, 0), "need n >= m"),
            ((1, 2, 2, 0), "need u >= n"),
            ((4, 2, 2, Fraction(1, 2)), "need c >= 1"),
        ]:
            with pytest.raises(ValueError) as exc:
                Params(*args)
            assert str(exc.value) == message

    def test_c_accepts_string_and_decimal(self):
        assert Params(4, 2, 2, "3/2").c == Fraction(3, 2)
        assert Params(4, 2, 2, 1.5).c == Fraction(3, 2)

    def test_an_int_c_becomes_a_fraction(self):
        assert type(Params(4, 2, 2, 2).c) is Fraction
        assert type(Params(4, 2, 2).c) is Fraction

    def test_repr_names_every_field(self):
        assert repr(Params(8, 2, 4, Fraction(3, 2))) == "Params(u=8, m=2, n=4, c=Fraction(3, 2))"


class TestLoadProfile:
    def test_constant_function_piles_everything(self):
        h = HashFunction((1, 1, 1, 1))
        assert max_load(h, (1, 2, 3)) == 3

    def test_split_pair(self):
        h = HashFunction((1, 1, 2, 2))
        assert max_load(h, (1, 3)) == 1

    def test_even_spread_reaches_ceil_alpha(self):
        h = HashFunction((1, 1, 1, 1, 2, 2, 2, 2))  # blocked balanced, u=8, m=2
        assert max_load(h, (1, 2, 5, 6)) == 2  # ceil(4/2)


class TestIsCIdeal:
    def test_c_at_least_m_accepts_everything(self):
        p = Params(4, 2, 2, Fraction(2))
        for cells in itertools.product((1, 2), repeat=4):
            assert cover_mask(HashFunction(cells), p) == (1 << p.total_sets) - 1

    def test_colliding_pair_rejected_at_c1(self):
        p = Params(4, 2, 2, Fraction(1))
        h = HashFunction((1, 1, 2, 2))
        mask = cover_mask(h, p)
        assert not mask >> 0 & 1  # rank 0 is (1, 2), both in cell 1
        assert mask >> 1 & 1  # rank 1 is (1, 3), split

    def test_monotone_in_c(self):
        h = HashFunction((1, 1, 2, 2))
        masks = [
            cover_mask(h, Params(4, 2, 2, c))
            for c in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
        ]
        # a set ideal at some c stays ideal at every larger c
        assert all(lo & ~hi == 0 for lo, hi in zip(masks, masks[1:]))
        assert masks[0] != masks[-1]


class TestFamilyCost:
    def test_singleton_constant_costs_n(self):
        fam = (HashFunction((1, 1, 1, 1)),)
        assert not verify_family(fam, Params(4, 2, 2, 1)).is_ideal_family  # cap 1
        assert verify_family(fam, Params(4, 2, 2, 2)).is_ideal_family  # cap 2 = n

    def test_two_function_family_splits_every_pair(self):
        p = Params(4, 2, 2)
        fam = (HashFunction((1, 1, 2, 2)), HashFunction((1, 2, 1, 2)))
        rep = verify_family(fam, p)
        assert rep.covered == 6
        assert rep.uncovered_witness is None

    def test_never_above_n(self):
        p = Params(5, 2, 3, Fraction(2))  # cap 3 = n
        for h in balanced_functions(p):
            assert verify_family((h,), p).is_ideal_family

    def test_budget_guard(self):
        p = Params(30, 2, 15)
        with pytest.raises(BudgetExceededError):
            verify_family((HashFunction((1,) * 30),), p, budget=1000)


class TestBalancedFunctions:
    def test_count_at_4_2_is_three(self):
        # {12|34}, {13|24}, {14|23}: one of the two labellings of each
        assert [h.cells for h in balanced_functions(Params(4, 2, 2))] == [(1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1)]

    @pytest.mark.parametrize("u,m", [(4, 2), (5, 2), (7, 3), (9, 4), (6, 6)])
    def test_budget_is_the_exact_count(self, u, m):
        # one function per partition; the guard counts every labelling of every partition
        p = Params(u, m, m)
        r = u % m
        labelled = math.factorial(u) // math.prod(math.factorial(b) for b in balanced_fiber_sizes(u, m))
        count = sum(1 for _ in balanced_functions(p))
        assert count == labelled // (math.factorial(r) * math.factorial(m - r))
        assert sum(1 for _ in balanced_functions(p, budget=labelled)) == count
        with pytest.raises(BudgetExceededError):
            next(balanced_functions(p, budget=labelled - 1))

    def test_ragged_fibers_stay_within_one(self):
        p = Params(5, 2, 2)
        for h in balanced_functions(p):
            betas = sorted(h.cells.count(c) for c in range(1, p.m + 1))
            assert betas == [2, 3]

    def test_every_yield_is_balanced(self):
        for h in balanced_functions(Params(7, 3, 3)):
            sizes = [h.cells.count(c) for c in range(1, 4)]
            assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("u,m", [(1, 1), (6, 1), (5, 2), (8, 2), (6, 3), (7, 3), (8, 3), (9, 4), (10, 4), (5, 5)])
    def test_order_is_the_ordered_partition_order(self, u, m):
        def ordered_partitions(keys, sizes):
            # head fiber in combinations order, then the rest of the keys recursively
            if not sizes:
                yield ()
                return
            for head in itertools.combinations(keys, sizes[0]):
                rest = tuple(k for k in keys if k not in head)
                for tail in ordered_partitions(rest, sizes[1:]):
                    yield (head,) + tail

        want, seen = [], set()
        for parts in ordered_partitions(tuple(range(1, u + 1)), balanced_fiber_sizes(u, m)):
            cells = [0] * u
            for cell, part in enumerate(parts, start=1):
                for key in part:
                    cells[key - 1] = cell
            sig = HashFunction(tuple(cells)).partition_signature()
            if sig not in seen:  # the first labelling of each partition, in this order
                seen.add(sig)
                want.append(tuple(cells))
        assert [h.cells for h in balanced_functions(Params(u, m, m))] == want

    def test_first_yield_is_blocked(self):
        p = Params(5, 2, 2)
        assert next(iter(balanced_functions(p))) == HashFunction((1, 1, 1, 2, 2))

    def test_sizes_vector(self):
        assert balanced_fiber_sizes(7, 3) == (3, 2, 2)
        assert balanced_fiber_sizes(6, 3) == (2, 2, 2)


def first_class_members(u, m):
    """The first of each partition class among all m**u functions in lexicographic order."""
    seen, firsts = set(), []
    for cells in itertools.product(range(1, m + 1), repeat=u):
        fibers = {}
        for key, cell in enumerate(cells, start=1):
            fibers.setdefault(cell, set()).add(key)
        partition = frozenset(map(frozenset, fibers.values()))
        if partition not in seen:
            seen.add(partition)
            firsts.append(cells)
    return firsts


def stirling2(u, k):
    """Partitions of u keys into exactly k non-empty fibers: S(u,k) = k S(u-1,k) + S(u-1,k-1)."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(u):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


class TestSetPartitions:
    def test_first_members_of_the_partition_classes_in_order(self):
        for u in range(9):
            for m in range(1, 6):
                assert [h.cells for h in set_partitions(u, m)] == first_class_members(u, m), (u, m)

    def test_count_is_a_sum_of_stirling_numbers(self):
        for u in range(11):
            for m in range(1, 7):
                count = sum(1 for _ in set_partitions(u, m, budget=m**u))
                assert count == sum(stirling2(u, k) for k in range(m + 1)), (u, m)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(set_partitions(30, 3, budget=1000))


class TestAllFunctions:
    """The m**u functions U -> [m] are the partition classes times their cell labellings."""

    @pytest.mark.parametrize("u,m", [(3, 2), (4, 2), (8, 2), (4, 3), (8, 3)])
    def test_counts_m_to_the_u(self, u, m):
        # a class with k non-empty fibers has m!/(m-k)! injective labellings
        labelled = sum(math.perm(m, len(set(h.cells))) for h in set_partitions(u, m))
        assert labelled == m**u


class TestKeyRanks:
    def test_enumeration_is_lexicographic_and_complete(self):
        assert [oracle._unrank(r, 4, 2) for r in range(Params(4, 2, 2).total_sets)] == list(
            itertools.combinations(range(1, 5), 2)
        )


class TestSerialization:
    def test_function_round_trip(self):
        h = HashFunction((1, 2, 1, 2))
        assert family_from_text(function_to_text(h), Params(4, 2, 2)) == (h,)

    def test_family_round_trip(self):
        fam = (HashFunction((1, 1, 2, 2)), HashFunction((1, 2, 1, 2)))
        assert family_from_text(family_to_text(fam), Params(4, 2, 2)) == fam

    def test_function_text_shape(self):
        assert function_to_text(HashFunction((1, 1, 2, 2))) == "1 1 2 2"

    def test_rejects_out_of_range_cells(self):
        with pytest.raises(DimensionMismatchError, match=r"^every function must map keys 1\.\.3 into cells 1\.\.2$"):
            family_from_text("1 2 3", Params(3, 2, 2))


def test_partition_signature_ignores_cell_labels():
    a = HashFunction((1, 1, 2, 2))
    b = HashFunction((2, 2, 1, 1))
    assert a.partition_signature() == b.partition_signature()
    c = HashFunction((1, 2, 1, 2))
    assert a.partition_signature() != c.partition_signature()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_partition_signature_is_the_sorted_non_empty_fibers(data):
    m = data.draw(st.integers(min_value=1, max_value=5))
    cells = data.draw(st.lists(st.integers(min_value=1, max_value=m), min_size=1, max_size=12))
    fibers = [tuple(key for key, c in enumerate(cells, start=1) if c == cell) for cell in range(1, m + 1)]
    assert HashFunction(tuple(cells)).partition_signature() == tuple(sorted(f for f in fibers if f))


READER_MESSAGE = r"^every function must map keys 1\.\.4 into cells 1\.\.2$"


def test_family_requires_consistent_dimensions():
    # the reader checks each non-blank line against Params: exactly u cells, and at least one line
    p = Params(4, 2, 2)
    for text in ["1 2 1\n", "1 2 1 2 1\n", "1 2 1 2\n1 2 1\n", "1 2 1 2\n\n1 2 1 2 2\n"]:
        with pytest.raises(DimensionMismatchError, match=READER_MESSAGE):
            family_from_text(text, p)
    for text in ["", "\n", " \n\t\n"]:
        with pytest.raises(ValueError, match="^a family holds at least one function$"):
            family_from_text(text, p)
    with pytest.raises(ValueError, match="invalid literal for int"):
        family_from_text("1 2 x 2\n", p)
    assert family_from_text("\n 1 2 1 2 \n\n2 2 1 1\n", p) == (HashFunction((1, 2, 1, 2)), HashFunction((2, 2, 1, 1)))


def test_hash_function_cells_lie_in_one_to_m():
    p = Params(4, 2, 2)
    for text in ["1 2 1 3\n", "0 1 2 1\n", "1 2 1 2\n2 1 2 -1\n"]:
        with pytest.raises(DimensionMismatchError, match=READER_MESSAGE):
            family_from_text(text, p)


def test_ideal_count_lies_in_zero_to_total():
    assert IdealCount(0, 4).probability == 0 and IdealCount(4, 4).probability == 1


def test_every_record_field_is_read_only():
    p = Params(8, 2, 4)
    h = HashFunction((1, 2, 1, 2, 1, 2, 1, 2))
    records = [
        p,
        h,
        IdealCount(1, 2),
        CoverageReport(3, None),
        BoundEntry("lower.volume", 1.0),
        BoundReport(p, ()),
        AdviceReport(0.0, 0.0, 0.0, 0.0, 0.0),
        CheckResult("check", 1, 0),
        Estimate(0.5, 0.1, 10, 1),
        ConstructionLog("greedy", None, 1, 1, (0,), (h,), True),
    ]
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
