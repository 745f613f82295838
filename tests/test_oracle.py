import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealhash import combinatorics, hashspace, oracle
from idealhash.combinatorics import binom, compositions
from idealhash.errors import BudgetExceededError
from idealhash.hashspace import (
    HashFunction,
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


def reference_count(betas, n, cap):
    """The per-cell convolution that counted before the power-series recurrence."""
    if n < 0 or cap < 0:
        raise ValueError("need n >= 0 and cap >= 0")
    acc = [1]
    for beta in betas:
        top = min(cap, beta, n)
        cell = [binom(beta, l) for l in range(top + 1)]
        limit = min(n, len(acc) + top)
        nxt = [0] * (limit + 1)
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for l, w in enumerate(cell):
                if i + l > limit:
                    break
                nxt[i + l] += a * w
        acc = nxt
    return acc[n] if n < len(acc) else 0


class TestCountIdealSets:
    @settings(max_examples=300, deadline=None)
    @given(
        betas=st.lists(st.sampled_from([0, 1, 2, 3, 5, 8, 13]), max_size=9),
        n=st.integers(0, 40),
        cap_step=st.integers(0, 41),
    )
    def test_matches_per_cell_convolution(self, betas, n, cap_step):
        cap = cap_step % (n + 2)  # 0..n+1
        assert count_ideal_sets(betas, n, cap) == reference_count(betas, n, cap)

    def test_two_fiber_sizes_at_scale_match_per_cell_convolution(self):
        betas = balanced_fiber_sizes(10**4 + 3, 8)  # three fibers of 1251, five of 1250
        for n, cap in ((40, 7), (40, 5), (41, 40)):
            assert count_ideal_sets(betas, n, cap) == reference_count(betas, n, cap)

    def test_two_fiber_sizes_through_the_chain_match_per_cell_convolution(self, monkeypatch):
        chained = []
        chain = combinatorics._chain_power

        def spy(p, a, b, k, top):
            chained.append(k)
            return chain(p, a, b, k, top)

        monkeypatch.setattr(combinatorics, "_chain_power", spy)
        betas = balanced_fiber_sizes(10**4 + 3, 8)  # three fibers of 1251, five of 1250
        assert count_ideal_sets(betas, 60, 11) == reference_count(betas, 60, 11)
        assert sorted(chained) == [3, 5]  # both group powers took the chain

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
        assert balance_extremality_check(Params(8, 2, 4, 1))

    def test_three_cells(self):
        assert balance_extremality_check(Params(6, 3, 3, 1))

    def test_degenerate_tie_when_cap_exceeds_n(self):
        # c >= m: every decomposition ties at C(u,n); balanced is among them
        assert balance_extremality_check(Params(4, 2, 2, 2))

    def test_degenerate_tie_when_fibers_fit_under_cap(self):
        # cap 3 >= ceil(10/3)... all-small-fiber decompositions tie
        assert not cap_binds(Params(6, 3, 5, Fraction(2)))
        assert balance_extremality_check(Params(6, 3, 5, Fraction(2)))

    def test_cap_binds_predicate(self):
        assert cap_binds(Params(8, 2, 4, 1))
        assert not cap_binds(Params(8, 2, 4, 2))  # cap = n
        assert not cap_binds(Params(14, 3, 4, 1))  # m*cap < n


class TestVerifyFamily:
    def test_two_function_family_covers_all_six(self):
        p = Params(4, 2, 2, 1)
        fam = (HashFunction((1, 1, 2, 2)), HashFunction((1, 2, 1, 2)))
        rep = verify_family(fam, p)
        assert rep.is_ideal_family
        assert rep.covered == 6
        assert rep.uncovered_witness is None

    def test_singleton_misses_its_own_fiber_pair(self):
        p = Params(4, 2, 2, 1)
        rep = verify_family((HashFunction((1, 1, 2, 2)),), p)
        assert not rep.is_ideal_family
        assert rep.covered == 4
        assert rep.uncovered_witness == (1, 2)

    def test_any_family_verifies_at_c_equal_m(self):
        p = Params(4, 2, 2, 2)
        rep = verify_family((HashFunction((1, 1, 1, 1)),), p)
        assert rep.is_ideal_family

    def test_budget_guard(self):
        p = Params(30, 2, 15)
        with pytest.raises(BudgetExceededError):
            verify_family((HashFunction((1,) * 30),), p, budget=100)


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

    @pytest.mark.parametrize("size_limit", [0, -1])
    def test_size_limit_below_one_is_refused(self, size_limit):
        # refused before the c >= m shortcut (m = 1 implies it), which would answer 1
        for p in (Params(8, 2, 4, 1), Params(4, 2, 2, 2), Params(5, 1, 3, 1)):
            with pytest.raises(ValueError, match=r"^need size_limit >= 1$"):
                min_family_size_exact(p, size_limit=size_limit)

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


def every_function(u, m):
    """All m**u functions from 1..u to 1..m, in lexicographic order."""
    return (HashFunction(cells) for cells in itertools.product(range(1, m + 1), repeat=u))


def first_members(u, m):
    """Each partition signature with its first function among every_function(u, m)."""
    classes = {}
    for h in every_function(u, m):
        classes.setdefault(h.partition_signature(), h)
    return classes


def search_without_orbits(p, size_limit):
    """The deepening loop before orbital branching: every root candidate is tried."""
    if p.c >= p.m or p.m == 1:
        return 1
    if p.m * p.load_cap < p.n:
        return None
    exceed = oracle.exceed_masks(first_members(p.u, p.m).values(), p, budget=10**6)
    full = (1 << p.total_sets) - 1
    masks = sorted((full ^ mk for mk in exceed if full ^ mk), key=lambda mk: -mk.bit_count())
    for k in range(1, size_limit + 1):
        if oracle._cover_dfs(full, masks, k):
            return k
    return None


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from([2, 3]),
    c=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]),
    data=st.data(),
)
def test_orbital_branching_matches_the_full_search(m, c, data):
    u = data.draw(st.integers(min_value=m, max_value=8 if m == 2 else 7))  # m**u <= 4096
    n = data.draw(st.integers(min_value=m, max_value=u))
    size_limit = data.draw(st.integers(min_value=1, max_value=6))
    p = Params(u, m, n, c)
    assert min_family_size_exact(p, size_limit=size_limit) == search_without_orbits(p, size_limit)


@pytest.mark.parametrize(
    "p", [Params(7, 2, 3, Fraction(3, 2)), Params(7, 3, 4, Fraction(3, 2)), Params(7, 3, 5, Fraction(3, 2))]
)
def test_root_tries_one_candidate_per_orbit_of_the_first_set(monkeypatch, p):
    # Orbits of Sym(S0) x Sym(rest), S0 = {1..n}, found here by applying every
    # permutation.  Every covering mask's orbit must hold a root (else the
    # pruning is unsound), and there are no more roots than partition orbits.
    full = (1 << p.total_sets) - 1
    inner, depth, roots = oracle._cover_dfs, [0], set()

    def spy(uncovered, masks, slots):
        if depth[0] == 0:
            roots.add(full ^ uncovered)
        depth[0] += 1
        try:
            return inner(uncovered, masks, slots)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(oracle, "_cover_dfs", spy)
    assert min_family_size_exact(p) >= 2  # so every root is tried at k = 1
    perms = [
        (0, *inside, *rest)
        for inside in itertools.permutations(range(1, p.n + 1))
        for rest in itertools.permutations(range(p.n + 1, p.u + 1))
    ]
    sets = list(itertools.combinations(range(1, p.u + 1), p.n))
    rank = {s: i for i, s in enumerate(sets)}
    moved = [[rank[tuple(sorted(perm[k] for k in s))] for s in sets] for perm in perms]

    def mask_orbit(mask):
        bits = [i for i in range(len(sets)) if mask >> i & 1]
        return min(sum(1 << to[i] for i in bits) for to in moved)

    def partition_orbit(sig):
        return min(tuple(sorted(tuple(sorted(perm[k] for k in f)) for f in sig)) for perm in perms)

    classes = first_members(p.u, p.m)
    exceed = oracle.exceed_masks(classes.values(), p, budget=10**6)
    covering = {sig: full ^ mk for sig, mk in zip(classes, exceed) if (full ^ mk) & 1}
    assert {mask_orbit(r) for r in roots} == {mask_orbit(mk) for mk in set(covering.values())}
    assert len(roots) <= len({partition_orbit(sig) for sig in covering})


def test_orbital_branching_returns_none_below_the_minimum():
    p = Params(9, 2, 4, 1)  # H = 4
    assert [min_family_size_exact(p, size_limit=k) for k in (3, 4)] == [None, 4]


def test_cover_mask_bit_per_lexicographic_set():
    p = Params(4, 2, 2, 1)
    h = HashFunction((1, 1, 2, 2))
    mask = cover_mask(h, p)
    # sets: (1,2) (1,3) (1,4) (2,3) (2,4) (3,4) -> covered except first and last
    assert mask == 0b011110
