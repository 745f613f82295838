"""Exact counting primitives used by every other module, and the float kernel.

Counts are plain Python integers (already arbitrary precision) and exact
probabilities are `fractions.Fraction`.  Quantities on the Stirling scale,
which overflow floats long before the interesting parameter ranges end,
travel as their natural log, a finite float.  Every float mass and Stirling
correction in the package reads Loader's kernel (_stirlerr, _bd0,
_poisson_pmf, _binomial_pmf), which subtracts no two lgamma totals; the
tests hold its masses within 5e-14 relative.  No helper here checks the
precondition its docstring states: its callers pass values that meet it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


def binom(a: int, b: int) -> int:
    """Exact binomial coefficient C(a, b); 0 when b > a, ValueError on a negative argument."""
    return math.comb(a, b)


def binom_steps(a: int, b: int) -> Iterator[tuple[int, int]]:
    """Steps (num, den) whose running products are C(a, 1), C(a, 2), ..., C(a, k)
    with k = min(b, a - b), so every step is >= 1 and their product is C(a, b)."""
    return ((a - t, t + 1) for t in range(min(b, a - b)))


def exceeds(bound: int, steps: Iterable[tuple[int, int]]) -> bool:
    """Whether the product of the steps num/den, taken from 1 as acc * num // den,
    is larger than bound.  The caller guarantees each partial is an exact integer
    no smaller than the last, so a count is never built far past the bound."""
    acc = 1
    for num, den in steps:
        if acc > bound:
            return True
        acc = acc * num // den
    return acc > bound


def ln_fraction(q: Fraction) -> float:
    """Natural log of a positive rational, safe for huge numerator/denominator."""
    return math.log(q.numerator) - math.log(q.denominator)


def _stirlerr(k: int) -> float:
    """ln k! - ((k + 1/2) ln k - k + ln sqrt(2 pi)), 1 <= k < 2^1024; Stirling's series past k = 15 (Loader)."""
    if k <= 15:
        return math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
    kk = 1.0 / (k * float(k))  # a float square: the int k * k leaves the float range past k = 1.3e154
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - kk / 1188) * kk) * kk) * kk) / k


def _bd0(x: float, mean: float, d: float) -> float:
    """x ln(x/mean) + mean - x, given d = x - mean rounded once, by Loader's
    series where d is small against x + mean."""
    s = x + mean
    if abs(d) >= 0.1 * s:
        return x * math.log(x / mean) - d
    v = d / s
    total, term, j = d * v, 2 * x * v, 1
    while True:
        term *= v * v
        step = total + term / (2 * j + 1)
        if step == total:
            return total
        total, j = step, j + 1


def _poisson_pmf(j: int, n: int, m: int) -> float:
    """P(Poisson(n/m) = j) for j >= 0 (Loader)."""
    if j == 0:
        return math.exp(-n / m)
    return math.exp(-_stirlerr(j) - _bd0(j, n / m, (j * m - n) / m)) / math.sqrt(2 * math.pi * j)


def _binomial_pmf(k: int, n: int, m: int) -> float:
    """P(Bin(n, 1/m) = k) for 0 < k <= n and m >= 2 (Loader)."""
    if k == n:
        return math.exp(-n * math.log(m))
    dev = (k * m - n) / m  # k - n/m
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n / m, dev) - _bd0(n - k, n * (m - 1) / m, -dev)
    return math.exp(lc) * math.sqrt(n / (2 * math.pi * k * (n - k)))


def _power_coeffs(p0: int, a: int, b: int, d: int, k: int, n: int) -> list[int]:
    """Coefficients 0..min(n, k*d) of p^k; the rest are zero.  k = 1 returns p
    itself (truncated at n) and k = 0 returns [1], with no recurrence run.

    p is the degree-d polynomial with p_0 = p0 != 0 and (l+1) p_{l+1} =
    (a + b*l) p_l for l < d, whose coefficients the caller guarantees are
    integers: the binomial cell (1, beta, -1, d), the exponential cell
    (d!, 1, 0, d) and the all-ones cell (1, 1, 1, d); d, k, n >= 0.  Two
    exact evaluation orders give the same list; this one picks the cheaper by
    their step counts, which depend on (d, k, n) alone.  Miller's order does
    min(j, d) big products per coefficient; the chain does one, but over
    about top/(d+1) levels.  On a 2-core VM (Python 3.11) the two took equal
    time where Miller's steps were 1.6-1.9 times the chain's, so the chain
    runs below half Miller's count.
    """
    p = [p0]
    for l in range(d):
        p.append(p[l] * (a + b * l) // (l + 1))
    top = min(n, k * d)
    if k < 2:
        return p[: top + 1] if k else [1]
    short = min(top, d)  # one big product per step, over Miller's coefficients and the chain's levels
    levels = top // (d + 1) + 1
    miller_steps = short * (short + 1) // 2 + (top - short) * d
    chain_steps = levels * (top + 1) - (d + 1) * levels * (levels - 1) // 2
    if 2 * chain_steps < miller_steps:
        return _chain_power(p, a, b, k, top)
    return _miller_power(p, k, top)


def power_coeff(p0: int, a: int, b: int, d: int, k: int, n: int) -> int:
    """[x^n] p^k for the hypergeometric p of `_power_coeffs`; 0 when n > k*d.

    For even k the half power q = p^(k/2) may be taken instead, up to degree
    top = min(n, k*d/2), and [x^n] q^2 = 2 * sum_{i<n/2} q_i q_{n-i} +
    q_{n/2}^2 (the last term where n is even) read with one product per
    pair (i, n-i): T = top - floor(n/2) pairs.  q's coefficients have about
    half the bits of p^k's, so its power costs less, but each pair is a
    product of two large coefficients.  The half runs where 2(k+3) T <= k n,
    that is T/n at most 0.2, 0.29, 0.36 and 0.42 at k = 2, 4, 8 and 16.  On
    a 2-core VM (Python 3.11, fibers of 10^3-10^6 keys, n = 64-3000) it was
    faster at every point measured up to T/n = 0.20, 0.27, 0.31 and 0.39,
    and slower at some point from 0.25, 0.31, 0.37 and 0.5 on, by up to 3.6
    times (k = 2, T/n = 1/2).  At c = 3/2, T/n is about 1/4; at c = 2,
    about 1/2.  Odd k keeps the full power: halves p^((k-1)/2) and
    p^((k+1)/2) would be two powers, which measured 1.2-1.9 times slower at
    c = 3/2 (k = 3-15, n = 1000).
    """
    if n > k * d:
        return 0
    half = n // 2
    top = min(n, k // 2 * d)
    if k % 2 or 2 * (k + 3) * (top - half) > k * n:
        return _power_coeffs(p0, a, b, d, k, n)[n]
    q = _power_coeffs(p0, a, b, d, k // 2, n)
    pairs = sum(q[i] * q[n - i] for i in range(n - top, n - half))
    return 2 * pairs + (0 if n % 2 else q[half] ** 2)


def _miller_power(p: Sequence[int], k: int, top: int) -> list[int]:
    """Coefficients 0..top of p^k by J.C.P. Miller's recurrence.

    Knuth, TAOCP Vol. 2, 4.7: with Q = p^k and d = deg p,
        j * p_0 * Q_j = sum_{i=1..min(j,d)} ((k+1)*i - j) * p_i * Q_{j-i}.
    The division is exact because Q has integer coefficients.
    """
    d = len(p) - 1
    p0 = p[0]
    q = [p0**k] + [0] * top
    for j in range(1, top + 1):
        s = 0
        for i in range(1, min(j, d) + 1):
            s += ((k + 1) * i - j) * p[i] * q[j - i]
        q[j] = s // (j * p0)
    return q


def _chain_power(p: Sequence[int], a: int, b: int, k: int, top: int) -> list[int]:
    """Coefficients 0..top of p^k by the chain of powers p^r, r <= k.

    p is hypergeometric as in `_power_coeffs`, so (1 - b*x) p' = a*p - E*x^d
    with E = (a + b*d) p_d, and Q_r = p^r satisfies
        (j+1) Q_{r,j+1} = (r*a + b*j) Q_{r,j} - r*E*Q_{r-1,j-d}:
    one small and one big product and an exact division per coefficient.
    Level r is needed only up to degree top - (k-r)(d+1), and only two levels
    are held at a time.
    """
    d = len(p) - 1
    e = (a + b * d) * p[d]
    prev: list[int] = []
    first = k - top // (d + 1)
    c0 = p[0] ** first
    for r in range(first, k + 1):
        ra, re = r * a, r * e
        cur = [c0]
        c = c0
        for j in range(top - (k - r) * (d + 1)):
            c = (ra + b * j) * c
            if j >= d:
                c -= re * prev[j - d]
            c //= j + 1
            cur.append(c)
        prev = cur
        c0 *= p[0]
    return prev


def composition_count(n: int, m: int, d: int) -> int:
    """Number of tuples (l_1..l_m) with 0 <= l_i <= d and sum n, exactly.

    [x^n] (1 + x + ... + x^d)^m, the all-ones cell's power read by
    `power_coeff`; needs n, m >= 1 and d >= 0.
    """
    return power_coeff(1, 1, 1, d, m, n)


def compositions(n: int, m: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every tuple (l_1..l_m) with 0 <= l_i <= cap and sum n, in lexicographic order.

    `composition_count(n, m, cap)` is the number of tuples yielded.  Each part
    ranges only over values that leave the remaining parts a feasible sum.
    Needs m >= 1.
    """

    def tails(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            if 0 <= total <= cap:
                yield (total,)
            return
        for first in range(max(0, total - (parts - 1) * cap), min(total, cap) + 1):
            for rest in tails(total - first, parts - 1):
                yield (first,) + rest

    return tails(n, m)


def partitions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Every non-increasing tuple (l_1 >= ... >= l_m >= 0) with sum n, in lexicographic order.

    The members of `compositions(n, m, n)` whose parts never rise, generated
    directly: each part runs from ceil(rest / parts left), the least that
    lets the parts after it (none above it) reach the sum, up to the part
    before it.  Needs n >= 0 and m >= 1.
    """

    def tails(total: int, parts: int, cap: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for first in range(-(-total // parts), min(total, cap) + 1):
            for rest in tails(total - first, parts - 1, first):
                yield (first,) + rest

    return tails(n, m, n)
