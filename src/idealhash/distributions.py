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

from .combinatorics import binom, compositions, ln_fraction, power_coeff

LoadVector = Sequence[int]


def hypergeometric_marginal_le(u: int, beta_i: int, n: int, cap: int) -> Fraction:
    """P(one fiber of size beta_i receives at most cap of the n sampled keys);
    needs 0 <= beta_i <= u and 0 <= n <= u."""
    total = binom(u, n)
    hits = sum(
        binom(beta_i, l) * binom(u - beta_i, n - l)
        for l in range(0, min(cap, beta_i, n) + 1)
    )
    return Fraction(hits, total)


def multinomial_pmf(lv: LoadVector, n: int, m: int) -> Fraction:
    """P((T_1..T_m) = lv) for n independent uniform throws into m cells;
    lv holds m non-negative loads summing to n."""
    ways = math.factorial(n)
    for l in lv:
        ways //= math.factorial(l)
    return Fraction(ways, m**n)


def conditioned_poisson_pmf(lv: LoadVector, n: int, m: int) -> Fraction:
    """P((Y_1..Y_m) = lv | Y = n) for independent mean-alpha Poisson cell loads.

    Computed along the cancelled chain: alpha^n * n! / (n^n * prod l_i!) with
    alpha^n = n^n / m^n, as one integer numerator over one integer
    denominator, so one gcd reduces it; equals `multinomial_pmf` at the same
    lv identically.
    """
    scale = n**n
    denom = m**n * scale
    for l in lv:
        denom *= math.factorial(l)
    return Fraction(scale * math.factorial(n), denom)


def p_tmax_le(n: int, m: int, cap: int) -> Fraction:
    """P(max cell load <= cap) for n independent uniform throws into m cells.

    The admissible throw sequences number n! [x^n] (sum_{l<=cap} x^l/l!)^m.
    With d = min(cap, n) the coefficient is read of E^m, E = sum_{l<=d}
    (d!/l!) x^l with integer coefficients, by `power_coeff` (the exponential
    cell (d!, 1, 0, d); 0 where m * cap < n and no sequence fits); the count
    is then n! [x^n] E^m / (d!)^m, an exact division, over m^n.  Needs
    n, m >= 1 and cap >= 0.
    """
    d = min(cap, n)
    top = math.factorial(d)
    return Fraction(power_coeff(top, 1, 0, d, m, n) * math.factorial(n) // top**m, m**n)


def binomial_marginal_le(n: int, m: int, cap: int) -> Fraction:
    """P(Bin(n, 1/m) <= cap), exact; needs m >= 1."""
    hits = sum(binom(n, k) * (m - 1) ** (n - k) for k in range(0, min(cap, n) + 1))
    return Fraction(hits, m**n)


def binomial_tail_lb(n: int, m: int, c: Fraction | int) -> float:
    """Natural log of a closed-form lower bound on P(Bin(n, 1/m) > c*alpha).

    Value: (1 - alpha/n)^n * (alpha / (c*alpha + 1))^(c*alpha + 1), keeping
    only the first term of the tail.  Requires m >= 2 and c*alpha + 1 <= n
    so the tail is non-empty.
    """
    c = Fraction(c)
    alpha = Fraction(n, m)
    ca1 = c * alpha + 1
    # 1 - alpha/n == 1 - 1/m exactly
    return n * ln_fraction(Fraction(m - 1, m)) + float(ca1) * ln_fraction(alpha / ca1)


def tmax_lower_bound(n: int, m: int, c: Fraction | int) -> float:
    """Natural log of a closed-form lower bound on P(max load <= c*alpha) under uniform throws.

    With d = floor(c*alpha):
        sqrt(2*pi*n) * (alpha/d)^n * (alpha+1)^(m*(1-1/c))
        / ((2*pi*d)^(n/(2d)) * e^(n/(12*d^2)))
    For integral c*alpha this is exactly
        sqrt(2*pi*n)/(2*pi*d)^(m/(2c)) * c^-n * e^(-m/(12*c*d)) *
        (alpha+1)^(m*(1-1/c));
    otherwise the d-derived exponents replace m/c by the real n/d; d >= 1.
    """
    c = Fraction(c)
    alpha = Fraction(n, m)
    d = math.floor(c * alpha)
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

    Requires d >= 1 and d | n so the extreme pattern fits the sum constraint.
    """
    prods = {ells: math.prod(map(math.factorial, ells)) for ells in compositions(n, m, d)}
    best = max(prods.values(), default=0)
    # min of prod 1/l! corresponds to max of prod l!
    return best == math.factorial(d) ** (n // d) and all(
        l in (0, d) for ells, prod in prods.items() if prod == best for l in ells
    )
