"""Exact load distributions: hypergeometric marginals, multinomial joint,
sum-conditioned Poisson form, and the closed-form tail estimates around them.

Exact probabilities are `fractions.Fraction`; load vectors are plain integer
tuples.  The Poisson-conditioned mass is computed through the cancelled
rational chain (the e^alpha factors and alpha powers cancel symbolically), so
no transcendental constants ever enter the exact paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .combinatorics import _power_coeffs, binom, compositions, ln_fraction

LoadVector = Sequence[int]


def hypergeometric_marginal_le(u: int, beta_i: int, n: int, cap: int) -> Fraction:
    """P(one fiber of size beta_i receives at most cap of the n sampled keys)."""
    if not 0 <= beta_i <= u:
        raise ValueError("need 0 <= beta_i <= u")
    if not 0 <= n <= u:
        raise ValueError("need 0 <= n <= u")
    total = binom(u, n)
    hits = sum(
        binom(beta_i, l) * binom(u - beta_i, n - l)
        for l in range(0, min(cap, beta_i, n) + 1)
    )
    return Fraction(hits, total)


def _load_vector(lv: LoadVector, n: int, m: int) -> tuple[int, ...]:
    """lv as a tuple, checked to hold m non-negative loads summing to n."""
    ells = tuple(lv)
    if len(ells) != m:
        raise ValueError("load vector length must equal m")
    if any(l < 0 for l in ells):
        raise ValueError("loads must be non-negative")
    if sum(ells) != n:
        raise ValueError("loads must sum to n")
    return ells


def multinomial_pmf(lv: LoadVector, n: int, m: int) -> Fraction:
    """P((T_1..T_m) = lv) for n independent uniform throws into m cells."""
    ells = _load_vector(lv, n, m)
    ways = math.factorial(n)
    for l in ells:
        ways //= math.factorial(l)
    return Fraction(ways, m**n)


def conditioned_poisson_pmf(lv: LoadVector, n: int, m: int) -> Fraction:
    """P((Y_1..Y_m) = lv | Y = n) for independent mean-alpha Poisson cell loads.

    Computed along the cancelled chain: alpha^n * n! / (n^n * prod l_i!) with
    alpha = n/m exact; equals the multinomial mass identically.
    """
    ells = _load_vector(lv, n, m)
    alpha = Fraction(n, m)
    denom = n**n
    for l in ells:
        denom *= math.factorial(l)
    return alpha**n * Fraction(math.factorial(n), denom)


def p_tmax_le(n: int, m: int, cap: int) -> Fraction:
    """P(max cell load <= cap) for n independent uniform throws into m cells.

    The admissible throw sequences number n! [x^n] (sum_{l<=cap} x^l/l!)^m.
    With d = min(cap, n) the power is taken of E = sum_{l<=d} (d!/l!) x^l,
    which has integer coefficients, by `_power_coeffs` (the exponential cell
    (d!, 1, 0, d)); the count is then n! [x^n] E^m / (d!)^m, an exact
    division, over m^n.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if cap < 0:
        raise ValueError("need cap >= 0")
    d = min(cap, n)
    top = math.factorial(d)
    q = _power_coeffs(top, 1, 0, d, m, n)
    if len(q) <= n:  # m * cap < n: no sequence fits
        return Fraction(0)
    return Fraction(q[n] * math.factorial(n) // top**m, m**n)


def binomial_marginal_le(n: int, m: int, cap: int) -> Fraction:
    """P(Bin(n, 1/m) <= cap), exact."""
    if m < 1:
        raise ValueError("need m >= 1")
    hits = sum(binom(n, k) * (m - 1) ** (n - k) for k in range(0, min(cap, n) + 1))
    return Fraction(hits, m**n)


def binomial_tail_lb(n: int, m: int, c: Fraction | int) -> float:
    """Natural log of a closed-form lower bound on P(Bin(n, 1/m) > c*alpha).

    Value: (1 - alpha/n)^n * (alpha / (c*alpha + 1))^(c*alpha + 1), keeping
    only the first term of the tail.  Requires c*alpha + 1 <= n so the tail
    is non-empty.
    """
    c = Fraction(c)
    alpha = Fraction(n, m)
    ca1 = c * alpha + 1
    if ca1 > n:
        raise ValueError("need c*alpha + 1 <= n: the tail would be empty")
    # 1 - alpha/n == 1 - 1/m exactly
    if m == 1:
        raise ValueError("m == 1 leaves no tail")
    return n * ln_fraction(Fraction(m - 1, m)) + float(ca1) * ln_fraction(alpha / ca1)


def tmax_lower_bound(n: int, m: int, c: Fraction | int) -> float:
    """Natural log of a closed-form lower bound on P(max load <= c*alpha) under uniform throws.

    With d = floor(c*alpha):
        sqrt(2*pi*n) * (alpha/d)^n * (alpha+1)^(m*(1-1/c))
        / ((2*pi*d)^(n/(2d)) * e^(n/(12*d^2)))
    For integral c*alpha this is exactly
        sqrt(2*pi*n)/(2*pi*d)^(m/(2c)) * c^-n * e^(-m/(12*c*d)) *
        (alpha+1)^(m*(1-1/c));
    otherwise the d-derived exponents replace m/c by the real n/d.
    """
    c = Fraction(c)
    alpha = Fraction(n, m)
    d = math.floor(c * alpha)
    if d < 1:
        raise ValueError("need floor(c*alpha) >= 1")
    n_over_d = n / d
    return (
        0.5 * math.log(2.0 * math.pi * n)
        - (n_over_d / 2.0) * math.log(2.0 * math.pi * d)
        + n * ln_fraction(alpha / d)
        - n_over_d / (12.0 * d)
        + float(m * (1 - 1 / c)) * ln_fraction(alpha + 1)
    )


def min_product_factorials_check(n: int, m: int, d: int) -> bool:
    """Brute-force check that min of prod 1/l_i! over capped compositions is
    1/(d!)^(n/d), attained exactly at vectors with entries in {0, d}.

    Requires d | n so the extreme pattern fits the sum constraint.
    """
    if d < 1 or n % d != 0:
        raise ValueError("need d >= 1 and d | n")
    prods = {ells: math.prod(map(math.factorial, ells)) for ells in compositions(n, m, d)}
    best = max(prods.values(), default=0)
    # min of prod 1/l! corresponds to max of prod l!
    return best == math.factorial(d) ** (n // d) and all(
        l in (0, d) for ells, prod in prods.items() if prod == best for l in ells
    )
