"""Exact brute-force ground truth: ideality counts, coverage, minimal family sizes.

Everything here is exact integer/rational arithmetic.  The counting core is a
product of polynomials: cell i with fiber size beta_i contributes the capped
polynomial sum_{l<=cap} C(beta_i, l) x^l, and the number of key sets hashed
with every load at most cap is the coefficient of x^n in the product.  Equal
fibers share one polynomial, raised to its power by
`combinatorics._power_coeffs` (hypergeometric cell, so one big product per
coefficient where that is cheaper than Miller's recurrence); where all fibers
are equal, `combinatorics.power_coeff` reads the coefficient, off half the
power where their number is even and that is cheaper.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .combinatorics import _power_coeffs, binom, binom_steps, exceeds, partitions, power_coeff
from .errors import BudgetExceededError
from .hashspace import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_POOL_BUDGET,
    HashFunction,
    Params,
    balanced_fiber_sizes,
    set_partitions,
)


class IdealCount(NamedTuple):
    """How many of the C(u,n) key sets one balanced function hashes within cap."""

    m_c: int
    total: int

    @property
    def probability(self) -> Fraction:
        return Fraction(self.m_c, self.total)


class CoverageReport(NamedTuple):
    """Result of checking a family against every key set."""

    covered: int
    uncovered_witness: tuple[int, ...] | None

    @property
    def is_ideal_family(self) -> bool:
        return self.uncovered_witness is None


def count_ideal_sets(betas: Sequence[int], n: int, cap: int) -> int:
    """Exact number of n-subsets whose per-fiber intersections all stay <= cap,
    for fiber sizes betas.

    The x^n coefficient of the product of the capped cell polynomials
    sum_{l<=cap} C(beta, l) x^l.  Cells of one size share a polynomial, so
    each group of k equal fibers is raised to its power by `_power_coeffs`,
    the binomial cell (1, beta, -1, d) with d = min(cap, beta, n), in about
    min(n*d, n*n/(2d)) big products whatever k is; a balanced decomposition
    has at most two groups.  One group is read by `power_coeff`, which may
    square half the power where k is even.  Otherwise the groups are
    multiplied truncated at degree n, the last product read as one dot
    product.  Needs n, cap >= 0.
    """
    groups = Counter(betas)
    if len(groups) == 1:
        ((beta, k),) = groups.items()
        return power_coeff(1, beta, -1, min(cap, beta, n), k, n)
    polys = [_power_coeffs(1, beta, -1, min(cap, beta, n), k, n) for beta, k in groups.items()]
    *head, last = polys or [[1]]
    acc = [1]
    for poly in head:
        nxt = [0] * min(n + 1, len(acc) + len(poly) - 1)
        for i, a in enumerate(acc):
            for l, w in enumerate(poly[: len(nxt) - i]):
                nxt[i + l] += a * w
        acc = nxt
    lo = max(0, n - len(last) + 1)
    return sum(acc[i] * last[n - i] for i in range(lo, min(n, len(acc) - 1) + 1))


def exact_ideal_probability(p: Params) -> IdealCount:
    """M_c and M_c / C(u,n) for the balanced decomposition of p, cap = floor(c*alpha)."""
    betas = balanced_fiber_sizes(p.u, p.m)
    m_c = count_ideal_sets(betas, p.n, p.load_cap)
    return IdealCount(m_c=m_c, total=binom(p.u, p.n))


def cap_binds(p: Params) -> bool:
    """True when the load cap genuinely constrains the balanced decomposition.

    Three degenerate regimes produce ties instead of a unique maximizer:
    m*cap < n (every count is 0), cap >= n (no load can exceed the cap), and
    cap >= ceil(u/m) (every balanced fiber already fits under the cap, so the
    balanced function hashes every set ideally and any all-small-fiber
    decomposition ties with it).
    """
    cap = p.load_cap
    return p.m * cap >= p.n and cap < p.n and cap < -(-p.u // p.m)


def balance_extremality_check(p: Params) -> bool:
    """Check that the balanced decomposition is exactly the argmax of the ideal count.

    Where the cap binds (see `cap_binds`) the argmax must be the balanced
    decomposition alone; in the degenerate tie regimes the check degrades to
    `balanced is among the argmax`.
    """
    balanced = tuple(sorted(balanced_fiber_sizes(p.u, p.m), reverse=True))
    n, cap = p.n, p.load_cap
    counts = {part: count_ideal_sets(part, n, cap) for part in partitions(p.u, p.m)}
    best = max(counts.values())
    argmax = {part for part, v in counts.items() if v == best}
    if not cap_binds(p):
        return balanced in argmax
    return argmax == {balanced}


# --- coverage kernel --------------------------------------------------------
#
# Every coverage question (verify a family, score a construction pool, search
# the minimal family) asks, per function, which ranked key sets it hashes with
# a max load above the cap.  The answer is a Python-int bitset per function:
# bit i stands for the n-subset of keys 0..u-1 of lexicographic rank i.  The
# pools repeat no partition, and where the cap decides every set no table is built.
#
# The sets whose smallest key is a hold consecutive ranks, C(u-a-1, n-1) of
# them, and their other keys run over the last that many ranks of the
# (n-1)-subsets of 1..u-1 (the combinatorial number system, Knuth TAOCP Vol.
# 4A 7.2.1.3).  So one table, per key, of the (n-1)-subsets holding it gives
# every block of every function's bitset by a right shift.


def check_set_budget(p: Params, budget: int) -> None:
    """Raise before any work when the C(u,n) key sets exceed the enumeration budget."""
    if exceeds(budget, binom_steps(p.u, p.n)):
        raise BudgetExceededError(f"C({p.u},{p.n}) exceeds enumeration budget {budget}")


@functools.lru_cache(maxsize=4)
def _key_table(u: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per key 0..u-1, the bitset of lex-ranked (n-1)-subsets of 1..u-1 holding it;
    and per least key a = 0..u-n, the number of n-subsets of 0..u-1 in its block.

    About n*C(u,n) bits in all.  The (n-1)-subsets of 1..u-1 are the table
    one level down, for u-1 keys and subsets of n-1: the block rule the
    kernel uses builds each level from the next smaller, down to the
    1-subsets, where key k's bitset is 1 << k.
    """
    if n == 1:
        return (0,) * u, (1,) * u  # one empty subset, holding no key
    keys = [1 << k for k in range(u - n + 1)]
    for r in range(2, n):  # level r: r-subsets of 0..v-1
        v = u - n + r
        lengths = [binom(v - b - 1, r - 1) for b in range(v - r + 1)]
        ones = (1 << lengths[0]) - 1
        keys = [_join_tails([keys[k - 1]] * k + [ones], lengths, lengths[0]) for k in range(v)]
    return (0, *keys), tuple(binom(u - a - 1, n - 1) for a in range(u - n + 1))


def _join_tails(blocks: Iterable[int], lengths: Sequence[int], top: int) -> int:
    """Concatenate, lowest ranks first, the last lengths[i] ranks of each `top`-rank bitset blocks[i].

    Neighbours merge pairwise, so each bit is shifted O(log(blocks)) times, not once per block.
    """
    parts = [(x >> (top - length), length) for x, length in zip(blocks, lengths)]
    while len(parts) > 1:
        pairs = [(a | b << wa, wa + wb) for (a, wa), (b, wb) in zip(parts[::2], parts[1::2])]
        parts = pairs + parts[2 * len(pairs):]
    return parts[0][0] if parts else 0


def _exceed_mask(
    cells: Sequence[int], m: int, cap: int, table: tuple[tuple[int, ...], tuple[int, ...]]
) -> int:
    """Bitset of the ranked n-subsets that `cells` (cell 1..m of each key) loads above cap.

    Per cell, at[j] collects the (n-1)-subsets of 1..u-1 with more than j-1
    keys in its fiber (key 0 is in none of them).  The block with least key
    a exceeds where some fiber holds more than cap of the other keys, or the
    fiber of a holds more than cap-1.  Right for any cap >= 0, but costs
    O(cap) per key, so callers skip cap >= n, where nothing exceeds.
    """
    keys, lengths = table
    top = lengths[0]
    counters = [[(1 << top) - 1] + [0] * (cap + 1) for _ in range(m + 1)]
    levels = range(cap + 1, 0, -1)
    for c, b in zip(cells, keys):
        at = counters[c]
        for j in levels:
            at[j] |= at[j - 1] & b
    over = 0
    for at in counters:
        over |= at[cap + 1]
    by_cell = [over | at[cap] for at in counters]
    return _join_tails([by_cell[c] for c in cells], lengths, top)


def exceed_masks(pool: Sequence[HashFunction], p: Params, budget: int) -> list[int]:
    """The exceed bitset of each function at cap p.load_cap, in order, repeats included.

    Each function must map keys 1..p.u into cells 1..p.m (`family_from_text`
    checks a file).  Checks the C(u,n) budget first.  Where cap >= n no set exceeds,
    and where m*cap < n every set does (some cell gets more than cap of its keys): no key table.
    """
    check_set_budget(p, budget)
    cap = p.load_cap
    if cap >= p.n:
        return [0] * len(pool)
    if p.m * cap < p.n:
        return [(1 << p.total_sets) - 1] * len(pool)
    table = _key_table(p.u, p.n)
    return [_exceed_mask(h.cells, p.m, cap, table) for h in pool]


def _unrank(rank: int, u: int, n: int) -> tuple[int, ...]:
    """The 1-based keys of the n-subset of 1..u of lexicographic rank `rank`."""
    keys = []
    key = 0
    for left in range(n, 0, -1):
        while rank >= (size := binom(u - key - 1, left - 1)):
            rank -= size
            key += 1
        key += 1
        keys.append(key)
    return tuple(keys)


def verify_family(f: tuple[HashFunction, ...], p: Params, budget: int = DEFAULT_ENUM_BUDGET) -> CoverageReport:
    """Count the key sets covered by some family member; witness the first miss.

    f is non-empty and maps keys 1..p.u into cells 1..p.m, as `family_from_text` checks.
    """
    uncovered = functools.reduce(operator.and_, exceed_masks(f, p, budget))
    witness = _unrank((uncovered & -uncovered).bit_length() - 1, p.u, p.n) if uncovered else None
    return CoverageReport(covered=p.total_sets - uncovered.bit_count(), uncovered_witness=witness)


def cover_mask(h: HashFunction, p: Params, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Bitmask over lexicographically ranked key sets that h hashes within cap."""
    (exceed,) = exceed_masks([h], p, budget)
    return ((1 << p.total_sets) - 1) ^ exceed


def _cover_dfs(uncovered: int, masks: list[int], slots: int) -> bool:
    if uncovered == 0:
        return True
    if slots == 0:
        return False
    best_gain = 0
    for mk in masks:
        gain = (mk & uncovered).bit_count()
        if gain > best_gain:
            best_gain = gain
    if best_gain == 0 or uncovered.bit_count() > slots * best_gain:
        return False
    lowest = uncovered & -uncovered
    for mk in masks:
        if mk & lowest:
            if _cover_dfs(uncovered & ~mk, masks, slots - 1):
                return True
    return False


def min_family_size_exact(
    p: Params,
    size_limit: int = 8,
    budget: int = DEFAULT_ENUM_BUDGET,
    pool_budget: int = DEFAULT_POOL_BUDGET,
) -> int | None:
    """Smallest family size covering every key set, by exhaustive search.

    Candidates are one function per set partition (max load is
    relabeling-invariant), at most `pool_budget` of them, those covering no
    set dropped, sorted by descending single-function coverage with ties
    broken on `partition_signature()`; the search branches on the lowest-ranked
    uncovered set.  Returns None when no family of size <= size_limit exists.

    The root branches once per symmetry orbit (orbital branching, Ostrowski,
    Linderoth, Rossi & Smriglio, Math. Program. 2011).  The lowest-ranked
    set is S0 = {1..n}.  A permutation s of the keys that fixes S0 as a set
    (Stab(S0) = Sym(S0) x Sym(rest)) maps key sets to key sets, so it maps a
    covering family to a covering family of the same size, and it maps the
    candidate pool onto itself (coverage counts are invariant).  If F is a
    minimal family and g is in the orbit of its member h covering S0, say
    g = h o s^-1, then s(F) is a minimal family holding g.  So it suffices
    to open the search with one member of each orbit that covers S0.  Two
    partitions lie in one orbit exactly when they have the same multiset of
    (|f & S0|, |f|) over their fibers f; the first of each in candidate
    order stands for it.  Below the root the search is unchanged.
    """
    if size_limit < 1:
        raise ValueError("need size_limit >= 1")
    if p.c >= p.m:
        return 1
    check_set_budget(p, budget)  # the budget check comes before the early exit
    if p.m * p.load_cap < p.n:
        return None  # no function is ideal for any set
    pool = list(itertools.islice(set_partitions(p.u, p.m, budget), pool_budget + 1))
    if len(pool) > pool_budget:
        raise BudgetExceededError(f"candidate pool exceeds budget {pool_budget}")
    full = (1 << p.total_sets) - 1
    scored = sorted(
        ((full ^ mk, h.partition_signature()) for mk, h in zip(exceed_masks(pool, p, budget), pool) if full ^ mk),
        key=lambda pair: (-pair[0].bit_count(), pair[1]),
    )
    masks = [mk for mk, _sig in scored]
    roots: dict[tuple[tuple[int, int], ...], int] = {}
    for mk, sig in scored:
        if mk & 1:  # covers S0, of rank 0; fibers are ascending, so bisect counts f & S0
            roots.setdefault(tuple(sorted((bisect.bisect_right(f, p.n), len(f)) for f in sig)), mk)
    for k in range(1, size_limit + 1):
        if any(_cover_dfs(full & ~root, masks, k - 1) for root in roots.values()):
            return k
    return None
