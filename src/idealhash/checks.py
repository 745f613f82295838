"""The inequality battery behind `check-lemmas`: every finitely checkable
relation between the exact distributions, the counting oracle, and the
closed-form estimates, evaluated on small grids with exact arithmetic
(log-scale comparisons carry an explicit tolerance).

Shared by the CLI and the acceptance suite so both verdicts agree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, product
from typing import Iterable, NamedTuple

from .bounds import upper_main_base_nats
from .combinatorics import composition_count, compositions, ln_fraction
from .distributions import (
    binomial_marginal_le,
    binomial_tail_lb,
    conditioned_poisson_pmf,
    hypergeometric_marginal_le,
    min_product_factorials_check,
    multinomial_pmf,
    p_tmax_le,
    tmax_lower_bound,
)
from .hashspace import Params, balanced_fiber_sizes
from .oracle import balance_extremality_check, cap_binds, exact_ideal_probability

LOG_TOL = 1e-9

# Printed floor for the per-cell coefficient of the main upper bound at the
# perfect-hashing corner; reproduced numerically rather than assumed.
UPPER_BASE_CLAIMED_FLOOR = 1.002

C_GRID = (Fraction(1), Fraction(3, 2), Fraction(2))


class CheckResult(NamedTuple):
    name: str
    instances: int
    failures: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _tally(name: str, verdicts: Iterable[bool], note: str = "") -> CheckResult:
    """The result over one verdict per instance, true where the relation held."""
    verdicts = list(verdicts)
    return CheckResult(name, len(verdicts), sum(not ok for ok in verdicts), note)


def check_poissonization_identity() -> CheckResult:
    """Sum-conditioned Poisson mass equals the multinomial mass, exactly, for n <= 12 and m <= 4."""
    return _tally("poissonization-identity", (
        not (conditioned_poisson_pmf(lv, n, m) != multinomial_pmf(lv, n, m))
        for m in range(1, 5)
        for n in range(1, 13)
        for lv in compositions(n, m, n)
    ))


def _mass_by_max_load(n: int, m: int) -> list[Fraction]:
    """Conditioned Poisson mass of the load vectors of n keys in m cells,
    bucketed by their max load 1..n.  Each bucket sums integer numerators
    over the lcm of its denominators, exactly, and reduces once."""
    by_max: list[list[Fraction]] = [[] for _ in range(n)]
    for lv in compositions(n, m, n):
        by_max[max(lv) - 1].append(conditioned_poisson_pmf(lv, n, m))
    sums = []
    for masses in by_max:
        den = math.lcm(*(q.denominator for q in masses))
        sums.append(Fraction(sum(q.numerator * (den // q.denominator) for q in masses), den))
    return sums


def check_conditioned_indicator() -> CheckResult:
    """Conditioned expectation of the cap indicator matches the throw DP, for n <= 10 and m <= 4.

    The expectation at cap d is the mass of the load vectors with max load
    at most d, a prefix sum of the buckets, so each vector is weighed once.
    """
    return _tally("conditioned-indicator", (
        not (total != p_tmax_le(n, m, cap))
        for m in range(1, 5)
        for n in range(1, 11)
        for cap, total in enumerate(accumulate(_mass_by_max_load(n, m)), start=1)
    ))


def _hyper_grid():
    for u, m, c in product((6, 8, 10, 12), (2, 3), C_GRID):
        for n in range(m, min(u, 8) + 1):
            yield Params(u, m, n, c)


def check_negdep_hypergeometric() -> CheckResult:
    """Exact joint ideality probability <= product of hypergeometric marginals."""
    return _tally("negdep-hypergeometric", (
        not (
            exact_ideal_probability(p).probability
            > math.prod(hypergeometric_marginal_le(p.u, beta, p.n, cap) for beta in balanced_fiber_sizes(p.u, p.m))
        )
        for p in _hyper_grid()
        for cap in (p.load_cap,)
    ))


def check_negdep_binomial() -> CheckResult:
    """Joint throw probability <= product of binomial marginals."""
    return _tally("negdep-binomial", (
        not (p_tmax_le(p.n, p.m, p.load_cap) > binomial_marginal_le(p.n, p.m, p.load_cap) ** p.m)
        for p in _hyper_grid()
    ))


def check_replacement_direction() -> CheckResult:
    """Throw probability lower-bounds the exact ideality probability."""
    return _tally("replacement-direction", (
        not (p_tmax_le(p.n, p.m, p.load_cap) > exact_ideal_probability(p).probability)
        for p in _hyper_grid()
    ))


def _sandwich_holds(n: int, m: int, c: Fraction) -> bool:
    d = math.floor(c * Fraction(n, m))
    exact = p_tmax_le(n, m, d)
    # the upper side is evaluated only where the lower side held
    return not (
        tmax_lower_bound(n, m, c) > ln_fraction(exact) + LOG_TOL
        or exact > min(Fraction(1), binomial_marginal_le(n, m, d) ** m)
    )


def check_tmax_sandwich() -> CheckResult:
    """Closed-form lower bound <= throw probability <= min(1, marginal product)."""
    return _tally("tmax-sandwich", (
        _sandwich_holds(m * alpha, m, c)
        for m in range(2, 6)
        for alpha in range(1, 4)
        for c in (Fraction(1), Fraction(2))
    ), f"log tolerance {LOG_TOL}")


def check_tail_lower_bound() -> CheckResult:
    """First-term tail estimate stays below the exact binomial tail."""
    return _tally("binomial-tail-lb", (
        not (binomial_tail_lb(m * alpha, m, c) > ln_fraction(1 - binomial_marginal_le(m * alpha, m, math.floor(c * alpha))) + LOG_TOL)
        for m in range(2, 6)
        for alpha in range(1, 4)
        for c in C_GRID
        if c * alpha + 1 <= m * alpha
    ), f"log tolerance {LOG_TOL}")


def check_balance_extremality() -> CheckResult:
    """Balanced decompositions are exactly the ideal-count maximizers when the cap binds."""
    grid = (Params(u, m, n, c) for m in (2, 3) for n in range(m, 7) for u in range(n, 15) for c in C_GRID)
    # the verdict depends on (u, m, n, load cap) alone, and 117 of the 148 points are distinct
    verdicts: dict[tuple[int, int, int, int], bool] = {}

    def verdict(p: Params) -> bool:
        key = (p.u, p.m, p.n, p.load_cap)
        if key not in verdicts:
            verdicts[key] = balance_extremality_check(p)
        return verdicts[key]

    # the points where the cap does not bind are the degenerate tie regime
    return _tally("balance-extremality", (verdict(p) for p in grid if cap_binds(p)))


def check_composition_crude_lower() -> CheckResult:
    """Bounded-composition count dominates (alpha+1)^(m(1-1/c)) at d = c*alpha."""
    return _tally("composition-crude-lower", (
        not (composition_count(m * alpha, m, c * alpha) < (alpha + 1) ** (m * (1 - 1 / c)))
        for m in range(2, 7)
        for alpha in range(1, 5)
        for c in (1, 2)
    ))


def check_min_product_factorials() -> CheckResult:
    """Capped-composition factorial products bottom out at the {0, d} patterns."""
    return _tally("min-product-factorials", (
        min_product_factorials_check(n, m, d)
        for n, m, d in ((2, 2, 1), (4, 2, 2), (4, 4, 2), (6, 3, 2), (6, 4, 3), (8, 4, 2))
    ))


def check_upper_base_constant() -> CheckResult:
    """Reproduce the printed floor of the per-cell upper-bound coefficient.

    Evaluates the coefficient at the perfect-hashing corner (c = alpha = 1)
    and searches the integer grid 1 <= alpha, c <= 8 for anything smaller.
    Informational: the corner value is asserted above the printed floor; a
    smaller grid point elsewhere is reported in the note, not failed.
    """
    corner = upper_main_base_nats(Fraction(1), Fraction(1))
    # ties go to the first grid point in (alpha, c) order, the corner included
    best, best_alpha, best_c = min(
        (upper_main_base_nats(Fraction(alpha), Fraction(c)), alpha, c)
        for alpha in range(1, 9)
        for c in range(1, 9)
    )
    note = (
        f"corner {corner:.6f} vs printed floor "
        f"{UPPER_BASE_CLAIMED_FLOOR}; grid min {best:.6f} at "
        f"(alpha={best_alpha}, c={best_c})"
    )
    if best != corner:
        note += " [smaller than the corner: minimality claim not reproduced]"
    return _tally("upper-base-constant", [corner > UPPER_BASE_CLAIMED_FLOOR], note)


ALL_CHECKS = (
    check_poissonization_identity,
    check_conditioned_indicator,
    check_negdep_hypergeometric,
    check_negdep_binomial,
    check_replacement_direction,
    check_tmax_sandwich,
    check_tail_lower_bound,
    check_balance_extremality,
    check_composition_crude_lower,
    check_min_product_factorials,
    check_upper_base_constant,
)


def run_all_checks() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
