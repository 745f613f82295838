"""Exact counting primitives and log-scale carriers used by every other module.

Counts are plain Python integers (already arbitrary precision) and exact
probabilities are `fractions.Fraction`.  Quantities on the Stirling scale,
which overflow floats long before the interesting parameter ranges end,
travel as `LogReal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

_LN2 = math.log(2.0)


def binom(a: int, b: int) -> int:
    """Exact binomial coefficient C(a, b); returns 0 when b > a."""
    if a < 0 or b < 0:
        raise ValueError("binom expects non-negative arguments")
    if b > a:
        return 0
    return math.comb(a, b)


def ln_fraction(q: Fraction) -> float:
    """Natural log of a positive rational, safe for huge numerator/denominator."""
    if q <= 0:
        raise ValueError("ln_fraction needs a positive rational")
    return math.log(q.numerator) - math.log(q.denominator)


@dataclass(frozen=True, order=True)
class LogReal:
    """A non-negative real r carried as ln(r); log_value == -inf encodes r = 0.

    Ordering and multiplication act on the log scale, so values like exp(m)
    for m in the hundreds stay representable.
    """

    log_value: float

    @property
    def sign(self) -> int:
        """1 for positive values, 0 for exact zero."""
        return 0 if self.log_value == -math.inf else 1

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(-math.inf)

    @classmethod
    def from_ln(cls, log_value: float) -> "LogReal":
        return cls(float(log_value))

    @classmethod
    def from_value(cls, x) -> "LogReal":
        """Build from an int, Fraction, or float; ints/Fractions of any size work."""
        if x < 0:
            raise ValueError("LogReal represents non-negative reals only")
        if x == 0:
            return cls.zero()
        if isinstance(x, (int, Fraction)):
            return cls(ln_fraction(Fraction(x)))
        return cls(math.log(float(x)))

    def to_float(self) -> float:
        """exp(log_value); math.inf flags overflow past the float range."""
        if self.log_value == -math.inf:
            return 0.0
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    def log2(self) -> float:
        """log2 of the represented value (-inf for zero)."""
        return self.log_value / _LN2

    def ceil_int(self) -> int | None:
        """Ceiling of the represented value, or None when it overflows floats."""
        f = self.to_float()
        if math.isinf(f):
            return None
        return math.ceil(f)

    def __mul__(self, other: "LogReal") -> "LogReal":
        if self.sign == 0 or other.sign == 0:
            return LogReal.zero()
        return LogReal(self.log_value + other.log_value)


def composition_count(n: int, m: int, d: int) -> int:
    """Number of tuples (l_1..l_m) with 0 <= l_i <= d and sum n, exactly.

    Dynamic program over parts with a prefix-sum window, O(n*m): the row for
    j parts at sum s is the window sum of the previous row over [s-d, s].
    """
    if n < 1 or m < 1:
        raise ValueError("composition_count needs n >= 1 and m >= 1")
    if d < 0:
        raise ValueError("composition_count needs d >= 0")
    if n > m * d:
        return 0
    row = [1] + [0] * n
    for _ in range(m):
        prefix = list(accumulate(row))
        row = [
            prefix[s] - (prefix[s - d - 1] if s - d - 1 >= 0 else 0)
            for s in range(n + 1)
        ]
    return row[n]


def compositions(n: int, m: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every tuple (l_1..l_m) with 0 <= l_i <= cap and sum n, in lexicographic order.

    `composition_count(n, m, cap)` is the number of tuples yielded.  Each part
    ranges only over values that leave the remaining parts a feasible sum.
    """
    if m < 1:
        raise ValueError("compositions needs m >= 1")

    def tails(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            if 0 <= total <= cap:
                yield (total,)
            return
        for first in range(max(0, total - (parts - 1) * cap), min(total, cap) + 1):
            for rest in tails(total - first, parts - 1):
                yield (first,) + rest

    return tails(n, m)
