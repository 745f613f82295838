"""Core domain model: universes, hash functions, key sets, and families.

Keys are dense 1-based integers 1..u, cells are 1..m.  The ideality factor c
is an exact rational throughout; a function is c-ideal for a key set when its
maximum cell load is at most c*alpha with alpha = n/m (integer loads make
this the same as load <= floor(c*alpha)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .combinatorics import binom
from .errors import BudgetExceededError, DimensionMismatchError

DEFAULT_ENUM_BUDGET = 10**6


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, float):
        return Fraction(c).limit_denominator(10**12)
    return Fraction(c)


@dataclass(frozen=True)
class Params:
    """Problem parameters: universe size u, table size m, key-set size n, factor c.

    Standing assumptions: n >= m >= 1 and u >= n.
    """

    u: int
    m: int
    n: int
    c: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _as_fraction(self.c))
        if self.m < 1:
            raise ValueError("need m >= 1")
        if self.n < self.m:
            raise ValueError("need n >= m")
        if self.u < self.n:
            raise ValueError("need u >= n")
        if self.c < 1:
            raise ValueError("need c >= 1")

    @property
    def alpha(self) -> Fraction:
        """Average load n/m, exact."""
        return Fraction(self.n, self.m)

    @property
    def load_cap(self) -> int:
        """floor(c * alpha): the largest integer load a c-ideal function allows."""
        return math.floor(self.c * self.alpha)

    @property
    def total_sets(self) -> int:
        return binom(self.u, self.n)


@dataclass(frozen=True)
class HashFunction:
    """Total map from keys 1..u to cells 1..m, stored as the cell of each key."""

    cells: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need m >= 1")
        if any(c < 1 or c > self.m for c in self.cells):
            raise DimensionMismatchError(f"cell indices must lie in 1..{self.m}")

    @property
    def u(self) -> int:
        return len(self.cells)

    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """Keys per cell, 1-based, ascending within each fiber."""
        parts: list[list[int]] = [[] for _ in range(self.m)]
        for key, cell in enumerate(self.cells, start=1):
            parts[cell - 1].append(key)
        return tuple(tuple(p) for p in parts)

    def partition_signature(self) -> tuple[tuple[int, ...], ...]:
        """Cell-label-free identity: the sorted tuple of non-empty fibers.

        Max load is invariant under relabeling cells, so exhaustive searches
        deduplicate candidates by this signature.
        """
        return tuple(sorted(f for f in self.fibers() if f))


@dataclass(frozen=True)
class KeySet:
    """A strictly increasing tuple of distinct keys."""

    keys: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(k < 1 for k in self.keys):
            raise ValueError("keys are 1-based positive integers")
        if any(a >= b for a, b in zip(self.keys, self.keys[1:])):
            raise ValueError("keys must be strictly increasing")


@dataclass(frozen=True)
class Family:
    """An ordered family of hash functions with a provenance tag."""

    functions: tuple[HashFunction, ...]
    provenance: str = "explicit"

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("a family holds at least one function")
        m = self.functions[0].m
        u = self.functions[0].u
        if any(h.m != m or h.u != u for h in self.functions):
            raise DimensionMismatchError("family members disagree on u or m")

    @property
    def size(self) -> int:
        return len(self.functions)


def balanced_fiber_sizes(u: int, m: int) -> tuple[int, ...]:
    """Canonical balanced size vector: ceil(u/m) repeated (u mod m) times, then floor."""
    q, r = divmod(u, m)
    return tuple([q + 1] * r + [q] * (m - r))


def _ordered_partitions(
    keys: tuple[int, ...], sizes: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not sizes:
        yield ()
        return
    head_size, rest = sizes[0], sizes[1:]
    for head in itertools.combinations(keys, head_size):
        chosen = set(head)
        remaining = tuple(k for k in keys if k not in chosen)
        for tail in _ordered_partitions(remaining, rest):
            yield (head,) + tail


def balanced_functions(p: Params) -> Iterator[HashFunction]:
    """All functions whose fibers carry the canonical balanced size vector.

    One function per ordered partition of 1..u into fibers of those sizes;
    the first yielded is the lexicographic blocked function (cell 1 gets the
    lowest keys, and so on).
    """
    sizes = balanced_fiber_sizes(p.u, p.m)
    keys = tuple(range(1, p.u + 1))
    for parts in _ordered_partitions(keys, sizes):
        cells = [0] * p.u
        for cell_index, part in enumerate(parts, start=1):
            for key in part:
                cells[key - 1] = cell_index
        yield HashFunction(tuple(cells), p.m)


def blocked_function(p: Params) -> HashFunction:
    """The lexicographic blocked balanced function: 1..s1 -> 1, next s2 -> 2, ..."""
    sizes = balanced_fiber_sizes(p.u, p.m)
    cells: list[int] = []
    for cell_index, size in enumerate(sizes, start=1):
        cells.extend([cell_index] * size)
    return HashFunction(tuple(cells), p.m)


def all_functions(u: int, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> Iterator[HashFunction]:
    """Every function from 1..u to 1..m (m**u of them); budget-guarded."""
    if m**u > budget:
        raise BudgetExceededError(f"m**u = {m**u} exceeds budget {budget}")
    for cells in itertools.product(range(1, m + 1), repeat=u):
        yield HashFunction(cells, m)


def partition_classes(
    functions: Iterable[HashFunction], budget: int | None = None
) -> tuple[list[HashFunction], list[int]]:
    """Group functions by partition signature.

    Returns the first function of each class in order of appearance, and the
    class index of every input.  Max load is invariant under relabeling
    cells, so coverage needs one member per class.  Two functions share a
    signature exactly when numbering their cells in order of first
    appearance gives the same sequence, which is the cheaper key used here.
    Raises once more than `budget` classes have appeared.
    """
    reps: list[HashFunction] = []
    index: list[int] = []
    seen: dict[tuple[int, ...], int] = {}
    for h in functions:
        labels: dict[int, int] = {}
        key = tuple([labels.setdefault(c, len(labels)) for c in h.cells])
        i = seen.setdefault(key, len(reps))
        if i == len(reps):
            reps.append(h)
            if budget is not None and len(reps) > budget:
                raise BudgetExceededError(f"candidate pool exceeds budget {budget}")
        index.append(i)
    return reps, index


# --- text serialization -----------------------------------------------------
#
# A hash function is one line of whitespace-separated cell indices; a family
# is one function per line.  Used by the CLI verify/construct round trips.


def function_to_text(h: HashFunction) -> str:
    return " ".join(str(c) for c in h.cells)


def function_from_text(line: str, m: int) -> HashFunction:
    cells = tuple(int(tok) for tok in line.split())
    if not cells:
        raise ValueError("empty hash-function line")
    return HashFunction(cells, m)


def family_to_text(f: Family) -> str:
    return "\n".join(function_to_text(h) for h in f.functions) + "\n"


def family_from_text(text: str, m: int, provenance: str = "explicit") -> Family:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return Family(tuple(function_from_text(ln, m) for ln in lines), provenance)
