"""Core domain model: universes, hash functions, key sets, and families.

Keys are dense 1-based integers 1..u, cells are 1..m.  The ideality factor c
is an exact rational throughout; a function is c-ideal for a key set when its
maximum cell load is at most c*alpha with alpha = n/m (integer loads make
this the same as load <= floor(c*alpha)).
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterator, NamedTuple

from .combinatorics import binom, binom_steps, exceeds
from .errors import BudgetExceededError, DimensionMismatchError

DEFAULT_ENUM_BUDGET = 10**6
DEFAULT_POOL_BUDGET = 10**4

# Params checks its fields in __new__; NamedTuple's _replace and _make skip
# __new__, so none calls them.  family_from_text checks a family file; a
# function built in the package matches its Params by construction.


class _ParamsFields(NamedTuple):
    u: int
    m: int
    n: int
    c: Fraction = Fraction(1)


class Params(_ParamsFields):
    """Problem parameters: universe size u, table size m, key-set size n, factor c.

    Standing assumptions: n >= m >= 1 and u >= n.
    """

    __slots__ = ()

    def __new__(cls, u: int, m: int, n: int, c: Fraction = Fraction(1)) -> Params:
        c = Fraction(c)
        if m < 1:
            raise ValueError("need m >= 1")
        if n < m:
            raise ValueError("need n >= m")
        if u < n:
            raise ValueError("need u >= n")
        if c < 1:
            raise ValueError("need c >= 1")
        return super().__new__(cls, u, m, n, c)

    @property
    def alpha(self) -> Fraction:
        """Average load n/m, exact."""
        return Fraction(self.n, self.m)

    @property
    def load_cap(self) -> int:
        """floor(c * alpha): the largest integer load a c-ideal function allows."""
        return (self.c.numerator * self.n) // (self.c.denominator * self.m)

    @property
    def total_sets(self) -> int:
        return binom(self.u, self.n)


class HashFunction(NamedTuple):
    """Total map from keys 1..u to cells 1..m, stored as the cell of each key."""

    cells: tuple[int, ...]

    def partition_signature(self) -> tuple[tuple[int, ...], ...]:
        """Cell-label-free identity: the non-empty fibers, ascending within
        each, in order of their least key (the sorted tuple of fibers).

        Max load is invariant under relabeling cells, so greedy orders its
        candidates, and the exact search breaks ties, by this signature.
        """
        fibers: dict[int, list[int]] = {}
        for key, cell in enumerate(self.cells, start=1):
            fibers.setdefault(cell, []).append(key)
        return tuple(map(tuple, fibers.values()))


def balanced_fiber_sizes(u: int, m: int) -> tuple[int, ...]:
    """Canonical balanced size vector: ceil(u/m) repeated (u mod m) times, then floor."""
    q, r = divmod(u, m)
    return tuple([q + 1] * r + [q] * (m - r))


def balanced_functions(p: Params, budget: int = DEFAULT_ENUM_BUDGET) -> Iterator[HashFunction]:
    """One function per partition of 1..u into fibers of the canonical balanced sizes; budget-guarded.

    Of the r!(m-r)! labellings of a partition (r = u mod m; max load ignores
    labels), the one whose equal-size cells take increasing least keys: the
    first in ordered-partition order (head fiber in combinations order, then
    the rest of the keys recursively), yielded in that order, blocked first.
    The guard counts all u!/prod(beta_i!) labellings against the budget
    before the first is built: the product over cells of C(keys left, beta).
    """
    sizes = balanced_fiber_sizes(p.u, p.m)
    left = itertools.accumulate(sizes, operator.sub, initial=p.u)
    if exceeds(budget, itertools.chain.from_iterable(map(binom_steps, left, sizes))):
        raise BudgetExceededError(f"u!/prod(beta_i!) balanced functions exceed budget {budget}")
    cells = [0] * p.u

    def fill(cell: int, free: tuple[int, ...], least: int) -> Iterator[HashFunction]:
        # keys in `free` go to cells cell..m (rewritten before the next yield); cell - 1's least key is `least`
        if cell == p.m:
            for key in free:
                cells[key - 1] = cell
            yield HashFunction(tuple(cells))
            return
        size = sizes[cell - 1]
        if size == sizes[-1]:  # the cells left all have this size: this one takes the least free key
            heads = (free[:1] + rest for rest in itertools.combinations(free[1:], size - 1))
        else:  # a cell of size q+1 takes keys above the least key of the one before
            heads = itertools.combinations([k for k in free if k > least], size)
        for head in heads:
            for key in head:
                cells[key - 1] = cell
            yield from fill(cell + 1, tuple(k for k in free if k not in head), head[0])

    yield from fill(1, tuple(range(1, p.u + 1)), 0)


def set_partitions(u: int, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> Iterator[HashFunction]:
    """One function per partition of 1..u into at most m fibers, cells numbered
    by least key (restricted growth strings, Knuth, TAOCP Vol. 4A, 7.2.1.5), in
    lexicographic order: the first member of each partition class among all
    m**u functions.  m**u bounds their number and is checked against the
    budget before the first is built.
    """
    if exceeds(budget, itertools.repeat((m, 1), u if m > 1 else 0)):  # 1**u = 1: no steps
        raise BudgetExceededError(f"m**u = {m}**{u} exceeds budget {budget}")

    def grow(prefix: tuple[int, ...], used: int) -> Iterator[HashFunction]:
        if used == m or len(prefix) == u:  # every tail keeps the prefix's numbering
            for tail in itertools.product(range(1, m + 1), repeat=u - len(prefix)):
                yield HashFunction(prefix + tail)
        else:
            for cell in range(1, used + 2):
                yield from grow(prefix + (cell,), max(used, cell))

    yield from grow((), 0)


# --- text serialization -----------------------------------------------------
#
# A hash function is one line of whitespace-separated cell indices; a family
# is one function per line.  Used by the CLI verify/construct round trips.


def function_to_text(h: HashFunction) -> str:
    return " ".join(str(c) for c in h.cells)


def family_to_text(f: tuple[HashFunction, ...]) -> str:
    return "\n".join(function_to_text(h) for h in f) + "\n"


def family_from_text(text: str, p: Params) -> tuple[HashFunction, ...]:
    """The one check of a family file: one function per non-blank line, at least one
    (else ValueError), each mapping keys 1..p.u into cells 1..p.m (else DimensionMismatchError).
    """
    family = tuple(HashFunction(tuple(map(int, ln.split()))) for ln in text.splitlines() if ln.strip())
    if not family:
        raise ValueError("a family holds at least one function")
    if any(len(h.cells) != p.u or min(h.cells) < 1 or max(h.cells) > p.m for h in family):
        raise DimensionMismatchError(f"every function must map keys 1..{p.u} into cells 1..{p.m}")
    return family
