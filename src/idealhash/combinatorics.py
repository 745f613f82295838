"""Exact counting primitives used by every other module.

Counts are plain Python integers (already arbitrary precision) and exact
probabilities are `fractions.Fraction`.  Quantities on the Stirling scale,
which overflow floats long before the interesting parameter ranges end,
travel as their natural log, a float (-inf for zero).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence


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


def _power_coeffs(p: Sequence[int], k: int, n: int) -> list[int]:
    """Coefficients 0..min(n, k*deg p) of the polynomial p^k; the rest are zero.

    J.C.P. Miller's recurrence for the power of a power series (Knuth, TAOCP
    Vol. 2, 4.7): with Q = p^k and d = deg p,
        j * p_0 * Q_j = sum_{i=1..min(j,d)} ((k+1)*i - j) * p_i * Q_{j-i},
    O(n*d) integer steps whatever k is.  The division is exact because Q has
    integer coefficients; it needs p_0 != 0.
    """
    if not p or p[0] == 0:
        raise ValueError("_power_coeffs needs a nonzero constant term")
    if k < 0 or n < 0:
        raise ValueError("_power_coeffs needs k >= 0 and n >= 0")
    d = len(p) - 1
    p0 = p[0]
    top = min(n, k * d)
    q = [p0**k] + [0] * top
    for j in range(1, top + 1):
        s = 0
        for i in range(1, min(j, d) + 1):
            s += ((k + 1) * i - j) * p[i] * q[j - i]
        q[j] = s // (j * p0)
    return q


def composition_count(n: int, m: int, d: int) -> int:
    """Number of tuples (l_1..l_m) with 0 <= l_i <= d and sum n, exactly.

    [x^n] (1 + x + ... + x^d)^m by the power-series recurrence, O(n*d).
    """
    if n < 1 or m < 1:
        raise ValueError("composition_count needs n >= 1 and m >= 1")
    if d < 0:
        raise ValueError("composition_count needs d >= 0")
    if n > m * d:
        return 0
    return _power_coeffs([1] * (d + 1), m, n)[n]


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
