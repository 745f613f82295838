"""The inequality battery behind `check-lemmas`: every finitely checkable
relation between the exact distributions, the counting oracle, and the
closed-form estimates, evaluated on small grids with exact arithmetic
(log-scale comparisons carry an explicit tolerance).

Shared by the CLI and the acceptance suite so both verdicts agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .bounds import upper_main_base_nats
from .combinatorics import composition_count, compositions, ln_fraction
from .distributions import (
    binomial_marginal_le,
    binomial_tail_lb,
    binomial_tail_tail_exact,
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    failures: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


def check_poissonization_identity(n_max: int = 12, m_max: int = 4) -> CheckResult:
    """Sum-conditioned Poisson mass equals the multinomial mass, exactly."""
    instances = failures = 0
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            for lv in compositions(n, m, n):
                instances += 1
                if conditioned_poisson_pmf(lv, n, m) != multinomial_pmf(lv, n, m):
                    failures += 1
    return CheckResult("poissonization-identity", instances, failures)


def check_conditioned_indicator(n_max: int = 10, m_max: int = 4) -> CheckResult:
    """Conditioned expectation of the cap indicator matches the throw DP."""
    instances = failures = 0
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            for cap in range(1, n + 1):
                instances += 1
                total = sum(
                    conditioned_poisson_pmf(lv, n, m)
                    for lv in compositions(n, m, n)
                    if max(lv) <= cap
                )
                if total != p_tmax_le(n, m, cap):
                    failures += 1
    return CheckResult("conditioned-indicator", instances, failures)


def _hyper_grid():
    for u, m, c in product((6, 8, 10, 12), (2, 3), C_GRID):
        for n in range(m, min(u, 8) + 1):
            yield u, m, n, c


def check_negdep_hypergeometric() -> CheckResult:
    """Exact joint ideality probability <= product of hypergeometric marginals."""
    instances = failures = 0
    for u, m, n, c in _hyper_grid():
        instances += 1
        p = Params(u, m, n, c)
        joint = exact_ideal_probability(p).probability
        prod_marg = Fraction(1)
        for beta in balanced_fiber_sizes(u, m):
            prod_marg *= hypergeometric_marginal_le(u, beta, n, p.load_cap)
        if joint > prod_marg:
            failures += 1
    return CheckResult("negdep-hypergeometric", instances, failures)


def check_negdep_binomial() -> CheckResult:
    """Joint throw probability <= product of binomial marginals."""
    instances = failures = 0
    for u, m, n, c in _hyper_grid():
        instances += 1
        cap = math.floor(c * Fraction(n, m))
        if p_tmax_le(n, m, cap) > binomial_marginal_le(n, m, cap) ** m:
            failures += 1
    return CheckResult("negdep-binomial", instances, failures)


def check_replacement_direction() -> CheckResult:
    """Throw probability lower-bounds the exact ideality probability."""
    instances = failures = 0
    for u, m, n, c in _hyper_grid():
        instances += 1
        p = Params(u, m, n, c)
        if p_tmax_le(n, m, p.load_cap) > exact_ideal_probability(p).probability:
            failures += 1
    return CheckResult("replacement-direction", instances, failures)


def check_tmax_sandwich() -> CheckResult:
    """Closed-form lower bound <= throw probability <= min(1, marginal product)."""
    instances = failures = 0
    for m in range(2, 6):
        for alpha in range(1, 4):
            for c in (Fraction(1), Fraction(2)):
                n = m * alpha
                d = math.floor(c * Fraction(n, m))
                instances += 1
                exact = p_tmax_le(n, m, d)
                lower = tmax_lower_bound(n, m, c)
                if lower > ln_fraction(exact) + LOG_TOL:
                    failures += 1
                    continue
                marg = binomial_marginal_le(n, m, d) ** m
                if exact > min(Fraction(1), marg):
                    failures += 1
    return CheckResult("tmax-sandwich", instances, failures, f"log tolerance {LOG_TOL}")


def check_tail_lower_bound() -> CheckResult:
    """First-term tail estimate stays below the exact binomial tail."""
    instances = failures = 0
    for m in range(2, 6):
        for alpha in range(1, 4):
            for c in (Fraction(1), Fraction(3, 2), Fraction(2)):
                n = m * alpha
                ca = c * Fraction(n, m)
                if ca + 1 > n:
                    continue
                instances += 1
                lb = binomial_tail_lb(n, m, c)
                exact = binomial_tail_tail_exact(n, m, math.floor(ca))
                if lb > ln_fraction(exact) + LOG_TOL:
                    failures += 1
    return CheckResult("binomial-tail-lb", instances, failures, f"log tolerance {LOG_TOL}")


def check_balance_extremality(u_max: int = 14) -> CheckResult:
    """Balanced decompositions are exactly the ideal-count maximizers when the cap binds."""
    instances = failures = 0
    for m in (2, 3):
        for n in range(m, 7):
            for u in range(n, u_max + 1):
                for c in C_GRID:
                    if not cap_binds(u, m, n, c):
                        continue  # degenerate tie regime
                    instances += 1
                    if not balance_extremality_check(u, m, n, c):
                        failures += 1
    return CheckResult("balance-extremality", instances, failures)


def check_composition_crude_lower() -> CheckResult:
    """Bounded-composition count dominates (alpha+1)^(m(1-1/c)) at d = c*alpha."""
    instances = failures = 0
    for m in range(2, 7):
        for alpha in range(1, 5):
            for c in (1, 2):
                n = m * alpha
                d = c * alpha
                instances += 1
                crude = (alpha + 1) ** (m * (1 - 1 / c))
                if composition_count(n, m, d) < crude:
                    failures += 1
    return CheckResult("composition-crude-lower", instances, failures)


def check_min_product_factorials() -> CheckResult:
    """Capped-composition factorial products bottom out at the {0, d} patterns."""
    instances = failures = 0
    for n, m, d in ((2, 2, 1), (4, 2, 2), (4, 4, 2), (6, 3, 2), (6, 4, 3), (8, 4, 2)):
        instances += 1
        if not min_product_factorials_check(n, m, d):
            failures += 1
    return CheckResult("min-product-factorials", instances, failures)


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
    failures = 0 if corner > UPPER_BASE_CLAIMED_FLOOR else 1
    note = (
        f"corner {corner:.6f} vs printed floor "
        f"{UPPER_BASE_CLAIMED_FLOOR}; grid min {best:.6f} at "
        f"(alpha={best_alpha}, c={best_c})"
    )
    if best != corner:
        note += " [smaller than the corner: minimality claim not reproduced]"
    return CheckResult("upper-base-constant", 1, failures, note)


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
