"""The coverage kernel against direct per-set load loops that live only here."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idealhash import oracle
from idealhash.construct import greedy_cover, random_balanced_family, yao_family
from idealhash.errors import BudgetExceededError
from idealhash.hashspace import (
    HashFunction,
    Params,
    balanced_functions,
)
from idealhash.oracle import (
    cover_mask,
    exceed_masks,
    min_family_size_exact,
    verify_family,
)


def direct_exceed_mask(cells, combos, cap):
    """Bit i set when the i-th set puts more than cap of its keys in one cell."""
    mask = 0
    for i, combo in enumerate(combos):
        loads = {}
        for key in combo:
            loads[cells[key]] = loads.get(cells[key], 0) + 1
        if max(loads.values()) > cap:
            mask |= 1 << i
    return mask


def kernel_masks(rows, m, u, n, cap):
    """The kernel's bitset per row of 0-based cells."""
    table = oracle._key_table(u, n)
    return [oracle._exceed_mask([c + 1 for c in row], m, cap, table) for row in rows]


@st.composite
def kernel_cases(draw):
    u = draw(st.integers(min_value=1, max_value=9))
    n = draw(st.integers(min_value=1, max_value=u))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=m - 1), min_size=u, max_size=u),
            min_size=1,
            max_size=6,
        )
    )
    cap = draw(st.integers(min_value=0, max_value=n + 1))
    return u, n, m, rows, cap


class TestExceedMasks:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_every_row_matches_the_direct_loop(self, case):
        # rows are arbitrary maps: unbalanced, and non-surjective when a cell is never drawn
        u, n, m, rows, cap = case
        combos = list(itertools.combinations(range(u), n))
        assert kernel_masks(rows, m, u, n, cap) == [direct_exceed_mask(row, combos, cap) for row in rows]

    @pytest.mark.parametrize(
        "u, n, m",
        [
            (20, 18, 16),  # n near u: the table is built through 17 levels
            (42, 40, 40),  # past C(41, 20) keys per level if built by subset size at fixed u
            (257, 2, 2),  # 256 blocks of one to 256 ranks
        ],
    )
    def test_wide_tables_and_universes(self, u, n, m):
        rng = random.Random(u)
        combos = list(itertools.combinations(range(u), n))
        rows = [[rng.randrange(m) for _ in range(u)] for _ in range(3)]
        for cap in (1, 2, n // 2):
            assert kernel_masks(rows, m, u, n, cap) == [direct_exceed_mask(row, combos, cap) for row in rows]

    def test_masks_follow_the_pool_repeats_included(self):
        p = Params(6, 3, 3)
        pool = list(balanced_functions(p))
        pool += [HashFunction(tuple(4 - c for c in h.cells)) for h in pool[::7]]  # relabelled repeats
        combos = list(itertools.combinations(range(6), 3))
        got = exceed_masks(pool, p, budget=10**6)
        assert got == [direct_exceed_mask([c - 1 for c in h.cells], combos, p.load_cap) for h in pool]

    @pytest.mark.parametrize("u, m, n, c", [(11, 3, 5, 1), (7, 2, 3, 1), (7, 3, 4, 1), (8, 2, 4, 4), (5, 1, 2, 3)])
    def test_decided_caps_build_no_key_table(self, monkeypatch, u, m, n, c):
        def forbidden(u, n):
            raise AssertionError("key table built where the cap decides every set")

        monkeypatch.setattr(oracle, "_key_table", forbidden)
        p = Params(u, m, n, c)
        pool = list(itertools.islice(balanced_functions(p), 5))
        full = (1 << p.total_sets) - 1
        assert exceed_masks(pool, p, budget=10**6) == [full if m * p.load_cap < n else 0] * len(pool)

    def test_unranking_follows_the_kernel_bit_order(self):
        # the witness of verify is unranked directly; the cached table is immutable
        for u, n in ((1, 1), (5, 2), (9, 4)):
            total = len(list(itertools.combinations(range(u), n)))
            assert [oracle._unrank(r, u, n) for r in range(total)] == list(
                itertools.combinations(range(1, u + 1), n)
            )
            keys, lengths = oracle._key_table(u, n)
            assert isinstance(keys, tuple) and isinstance(lengths, tuple)
            assert sum(lengths) == total


class TestCallers:
    def test_verify_witness_is_the_first_uncovered_set(self):
        rng = random.Random(5)
        for _ in range(40):
            u, m = rng.randint(3, 8), rng.randint(1, 3)
            n = rng.randint(m, u)
            p = Params(u, m, n)
            fam = tuple(HashFunction(tuple(rng.randint(1, m) for _ in range(u))) for _ in range(rng.randint(1, 3)))
            uncovered = [
                combo
                for combo in itertools.combinations(range(1, u + 1), n)
                if all(
                    max(sum(1 for key in combo if h.cells[key - 1] == c) for c in range(1, m + 1))
                    > p.load_cap
                    for h in fam
                )
            ]
            rep = verify_family(fam, p)
            assert rep.covered == p.total_sets - len(uncovered)
            assert rep.uncovered_witness == (uncovered[0] if uncovered else None)

    def test_budget_is_checked_before_any_set_array_is_built(self, monkeypatch):
        def forbidden(u, n):
            raise AssertionError("key table built past the budget")

        monkeypatch.setattr(oracle, "_key_table", forbidden)
        p = Params(30, 2, 15)
        h = HashFunction((1, 2) * 15)
        calls = [
            lambda: verify_family((h,), p, budget=100),
            lambda: cover_mask(h, p, budget=100),
            lambda: greedy_cover(p, [h], budget=100),
            lambda: yao_family(p, t=2.0, pool=[h], budget=100),
            lambda: random_balanced_family(p, seed=1, budget=100),
            lambda: min_family_size_exact(p, budget=100),
        ]
        for call in calls:
            with pytest.raises(BudgetExceededError):
                call()

    @pytest.mark.parametrize("u, m", [(1414, 2), (100, 3)])
    def test_large_universes_match_closed_forms(self, u, m):
        # at n = m and c = 1 a set is covered when it puts one key in each cell: prod(beta)
        # sets; at n = 2 that is every pair but those inside one fiber
        rng = random.Random(u)
        h = HashFunction(tuple(rng.randint(1, m) for _ in range(u)))
        betas = [h.cells.count(c) for c in range(1, m + 1)]
        p = Params(u, m, m)
        rep = verify_family((h,), p)
        assert rep.covered == math.prod(betas)
        if m == 2:
            assert rep.covered == math.comb(u, 2) - sum(math.comb(b, 2) for b in betas)
        cells = [h.cells[key - 1] for key in rep.uncovered_witness]
        assert len(set(cells)) < m

    def test_pool_budget_refuses_at_the_first_function_past_it(self, monkeypatch):
        def forbidden(u, n):
            raise AssertionError("key table built for a refused pool")

        def set_partitions(u, m, budget):
            yield from [HashFunction((1, 2, 1, 2))] * 3
            raise AssertionError("drew past the first function over the budget")

        monkeypatch.setattr(oracle, "_key_table", forbidden)
        monkeypatch.setattr(oracle, "set_partitions", set_partitions)
        with pytest.raises(BudgetExceededError, match="candidate pool exceeds budget 2"):
            min_family_size_exact(Params(4, 2, 2), pool_budget=2)

    @pytest.mark.parametrize("u, m, n, c, classes", [(6, 2, 2, 1, 32), (5, 3, 3, 1, 41), (6, 2, 3, Fraction(3, 2), 32)])
    def test_pool_budget_admits_exactly_the_partition_classes(self, u, m, n, c, classes):
        p = Params(u, m, n, c)
        assert min_family_size_exact(p, pool_budget=classes) == min_family_size_exact(p)
        with pytest.raises(BudgetExceededError, match=f"candidate pool exceeds budget {classes - 1}"):
            min_family_size_exact(p, pool_budget=classes - 1)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(min_value=1, max_value=3), data=st.data())
def test_one_mask_per_drawn_function(m, data):
    # repeats and relabellings of one partition each get their own mask, at caps
    # where m*cap < n (every set exceeds; needs m not dividing n, since c >= 1),
    # cap >= n (none does) and in between
    u = data.draw(st.integers(min_value=m, max_value=6))
    n = data.draw(st.integers(min_value=m, max_value=u))
    regime = data.draw(st.sampled_from(["m*cap < n", "cap >= n", "kernel"]))
    lo, hi = {"m*cap < n": (n // m, -(-n // m) - 1), "cap >= n": (n, n + 2), "kernel": (-(-n // m), n - 1)}[regime]
    assume(lo <= hi)
    cap = data.draw(st.integers(min_value=lo, max_value=hi))
    # c in [cap/alpha, (cap+1)/alpha) in quarter steps of 1/n, no lower than 1: floor(c*alpha) = cap
    step = data.draw(st.integers(min_value=max(0, 4 * (n - m * cap)), max_value=4 * m - 1))
    p = Params(u, m, n, Fraction(4 * m * cap + step, 4 * n))
    assert p.load_cap == cap
    every_function = [HashFunction(cells) for cells in itertools.product(range(1, m + 1), repeat=u)]
    pool = data.draw(st.lists(st.sampled_from(every_function), min_size=1, max_size=12))
    exceed = exceed_masks(pool, p, budget=10**6)
    combos = list(itertools.combinations(range(u), n))
    assert exceed == [direct_exceed_mask([c - 1 for c in h.cells], combos, cap) for h in pool]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_join_tails_matches_one_block_at_a_time(data):
    top = data.draw(st.integers(min_value=1, max_value=80))
    blocks = data.draw(
        st.lists(st.tuples(st.integers(0, 2**top - 1), st.integers(0, top)), max_size=33)
    )
    acc = shift = 0
    for x, length in blocks:
        acc |= (x >> (top - length)) << shift
        shift += length
    assert oracle._join_tails([x for x, _ in blocks], [length for _, length in blocks], top) == acc
