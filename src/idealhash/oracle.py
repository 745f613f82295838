"""Exact brute-force ground truth: ideality counts, coverage, minimal family sizes.

Everything here is exact integer/rational arithmetic.  The counting core is a
product of polynomials: cell i with fiber size beta_i contributes the capped
polynomial sum_{l<=cap} C(beta_i, l) x^l, and the number of key sets hashed
with every load at most cap is the coefficient of x^n in the product.  Equal
fibers share one polynomial, raised to its power by the power-series
recurrence (`combinatorics._power_coeffs`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .combinatorics import _power_coeffs, binom, compositions
from .errors import BudgetExceededError, DimensionMismatchError
from .hashspace import (
    DEFAULT_ENUM_BUDGET,
    Family,
    HashFunction,
    KeySet,
    Params,
    all_functions,
    balanced_fiber_sizes,
    partition_classes,
)

if TYPE_CHECKING:  # numpy is imported where the kernel runs, so counting starts without it
    import numpy as np

DEFAULT_POOL_BUDGET = 10**4


@dataclass(frozen=True)
class IdealCount:
    """How many of the C(u,n) key sets one balanced function hashes within cap."""

    m_c: int
    total: int

    def __post_init__(self) -> None:
        if not 0 <= self.m_c <= self.total:
            raise ValueError("count must lie in [0, total]")

    @property
    def probability(self) -> Fraction:
        return Fraction(self.m_c, self.total)


@dataclass(frozen=True)
class CoverageReport:
    """Result of checking a family against every key set."""

    covered: int
    uncovered_witness: KeySet | None

    @property
    def is_ideal_family(self) -> bool:
        return self.uncovered_witness is None


def count_ideal_sets(betas: Sequence[int], n: int, cap: int) -> int:
    """Exact number of n-subsets whose per-fiber intersections all stay <= cap,
    for fiber sizes betas.

    The x^n coefficient of the product of the capped cell polynomials
    sum_{l<=cap} C(beta, l) x^l.  Cells of one size share a polynomial, so
    each group of k > 1 equal fibers is raised to its power by the
    power-series recurrence, O(n*cap) whatever k is; a balanced
    decomposition has at most two groups.  Groups are multiplied truncated
    at degree n, the last product read as one dot product.
    """
    if n < 0 or cap < 0:
        raise ValueError("need n >= 0 and cap >= 0")
    polys = []
    for beta, k in Counter(betas).items():
        cell = [binom(beta, l) for l in range(min(cap, beta, n) + 1)]
        polys.append(cell if k == 1 else _power_coeffs(cell, k, n))
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


def cap_binds(u: int, m: int, n: int, c: Fraction | int) -> bool:
    """True when the load cap genuinely constrains the balanced decomposition.

    Three degenerate regimes produce ties instead of a unique maximizer:
    m*cap < n (every count is 0), cap >= n (no load can exceed the cap), and
    cap >= ceil(u/m) (every balanced fiber already fits under the cap, so the
    balanced function hashes every set ideally and any all-small-fiber
    decomposition ties with it).
    """
    cap = math.floor(Fraction(c) * Fraction(n, m))
    return m * cap >= n and cap < n and cap < -(-u // m)


def balance_extremality_check(u: int, m: int, n: int, c: Fraction | int) -> bool:
    """Check that the balanced decomposition is exactly the argmax of the ideal count.

    Where the cap binds (see `cap_binds`) the argmax must be the balanced
    decomposition alone; in the degenerate tie regimes the check degrades to
    `balanced is among the argmax`.
    """
    c = Fraction(c)
    cap = math.floor(c * Fraction(n, m))
    balanced = tuple(sorted(balanced_fiber_sizes(u, m), reverse=True))
    counts = {
        part: count_ideal_sets(part, n, cap)
        for part in compositions(u, m, u)
        if all(a >= b for a, b in zip(part, part[1:]))
    }
    best = max(counts.values())
    argmax = {part for part, v in counts.items() if v == best}
    if not cap_binds(u, m, n, c):
        return balanced in argmax
    return argmax == {balanced}


# --- coverage kernel --------------------------------------------------------
#
# Every coverage question (verify a family, score a construction pool, search
# the minimal family) asks, per function, which ranked key sets it hashes with
# a max load above the cap.  One numpy kernel answers it as a Python-int
# bitset per function: bit i stands for the key set of lexicographic rank i.

BLOCK_ELEMENTS = 1 << 16  # functions x sets x n keys gathered per kernel block


def ranked_key_sets(p: Params, budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """All C(u,n) key sets as a (T x n) array of 0-based keys, row i of rank i.

    Checks the enumeration budget before anything is built.  The array is
    cached, read-only, and column-major, so the kernel reads one key position
    of many sets contiguously.
    """
    total = binom(p.u, p.n)
    if total > budget:
        raise BudgetExceededError(
            f"C({p.u},{p.n}) = {total} exceeds enumeration budget {budget}"
        )
    return _ranked_sets(p.u, p.n)


@functools.lru_cache(maxsize=4)
def _ranked_sets(u: int, n: int) -> np.ndarray:
    import numpy as np

    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(u), n)),
        dtype=np.min_scalar_type(u - 1),
        count=binom(u, n) * n,
    )
    sets = np.asfortranarray(flat.reshape(-1, n))
    sets.flags.writeable = False
    return sets


def cell_matrix(functions: Sequence[HashFunction], p: Params) -> np.ndarray:
    """(k x u) matrix of 0-based cells, one row per function, dtype sized to m."""
    if any(h.u != p.u or h.m != p.m for h in functions):
        raise DimensionMismatchError(
            f"every function must map keys 1..{p.u} into cells 1..{p.m}"
        )
    import numpy as np

    cells = np.array([h.cells for h in functions], dtype=np.min_scalar_type(p.m))
    return cells.reshape(len(functions), p.u) - 1


def exceed_masks(cells: np.ndarray, sets: np.ndarray, cap: int) -> Iterator[int]:
    """Per row of `cells`, the bitset of the rows of `sets` whose max load exceeds cap.

    Loads are counted as W-bit fields packed into unsigned words, one field
    per cell: summing one word per key of a set adds up every cell's load at
    once, and adding 2^(W-1) - 1 - cap to each field sets its top bit exactly
    when that load exceeds cap (W is wide enough that no field carries).
    Cells beyond one word's worth of fields go to further words.  The work
    runs in blocks of at most BLOCK_ELEMENTS gathered keys, so scratch memory
    stays flat whatever the number of functions and sets; results are yielded
    one function at a time, as blocks complete.
    """
    import numpy as np

    k = cells.shape[0]
    total, n = sets.shape
    if k == 0:
        return
    if cap >= n:  # no set can overflow
        yield from itertools.repeat(0, k)
        return
    width = n.bit_length() + 1  # 2^(width-1) > n >= every load: no field carries
    per_word = 64 // width
    m = int(cells.max()) + 1
    fields = min(m, per_word)
    word = np.dtype(f"uint{max(8, 1 << (fields * width - 1).bit_length())}")
    ones = sum(1 << (c * width) for c in range(fields))  # a 1 in every field
    offset = word.type(((1 << (width - 1)) - 1 - cap) * ones)
    high = word.type((1 << (width - 1)) * ones)
    if total * n <= BLOCK_ELEMENTS:
        rows, chunk = BLOCK_ELEMENTS // (total * n), total
    else:
        rows, chunk = 1, max(8, BLOCK_ELEMENTS // n // 8 * 8)
    for lo in range(0, k, rows):
        block = cells[lo : lo + rows]
        weight = np.left_shift(word.type(1), (block % per_word).astype(word) * word.type(width))
        weights = [  # one word per group of per_word cells
            np.where(block // per_word == g, weight, word.type(0))
            for g in range(-(-m // per_word))
        ]
        packed = []
        for start in range(0, total, chunk):
            cols = sets[start : start + chunk]
            hit = np.zeros((block.shape[0], cols.shape[0]), dtype=bool)
            for w in weights:
                acc = w[:, cols[:, 0]]
                for j in range(1, n):
                    acc += w[:, cols[:, j]]
                hit |= (acc + offset) & high != 0
            packed.append(np.packbits(hit, axis=1, bitorder="little"))
        for row in np.concatenate(packed, axis=1):
            yield int.from_bytes(row.tobytes(), "little")


def class_exceed_masks(
    functions: Iterable[HashFunction], p: Params, cap: int, budget: int, pool_budget: int | None = None
) -> tuple[list[HashFunction], list[int]]:
    """The first function of each partition class, in order, and its exceed bitset.

    Checks the C(u,n) budget first; at most `pool_budget` classes may appear.
    """
    sets = ranked_key_sets(p, budget)
    reps = partition_classes(functions, budget=pool_budget)
    return reps, list(exceed_masks(cell_matrix(reps, p), sets, cap))


def verify_family(
    f: Family, p: Params, budget: int = DEFAULT_ENUM_BUDGET
) -> CoverageReport:
    """Count the key sets covered by some family member; witness the first miss."""
    _, masks = class_exceed_masks(f.functions, p, p.load_cap, budget)
    uncovered = functools.reduce(operator.and_, masks)
    witness = None
    if uncovered:
        rank = (uncovered & -uncovered).bit_length() - 1
        witness = KeySet(tuple(int(key) + 1 for key in _ranked_sets(p.u, p.n)[rank]))
    return CoverageReport(covered=p.total_sets - uncovered.bit_count(), uncovered_witness=witness)


def cover_mask(h: HashFunction, p: Params, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Bitmask over lexicographically ranked key sets that h hashes within cap."""
    _, (exceed,) = class_exceed_masks([h], p, p.load_cap, budget)
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

    Candidates are all functions deduplicated by fiber partition (max load is
    relabeling-invariant), sorted by descending single-function coverage with
    fiber-signature tie-breaks; the search branches on the lowest-ranked
    uncovered set.  Returns None when no family of size <= size_limit exists.
    """
    if p.c >= p.m or p.m == 1:
        return 1
    ranked_key_sets(p, budget)  # the budget check comes before the early exit
    if p.m * p.load_cap < p.n:
        return None  # no function is ideal for any set
    candidates, exceed = class_exceed_masks(
        all_functions(p.u, p.m, budget), p, p.load_cap, budget, pool_budget
    )
    full = (1 << p.total_sets) - 1
    scored = sorted(
        ((full ^ mk, h.partition_signature()) for mk, h in zip(exceed, candidates)),
        key=lambda pair: (-pair[0].bit_count(), pair[1]),
    )
    masks = [mk for mk, _sig in scored if mk]
    for k in range(1, size_limit + 1):
        if _cover_dfs(full, masks, k):
            return k
    return None
