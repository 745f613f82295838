"""Worst-case hashing laboratory.

Exact ideality counts and probabilities, closed-form bounds on minimal
ideal-family sizes, verified family constructions, Monte Carlo estimates,
and the advice-bit consequences, behind one CLI (`idealhash`).
"""

from .combinatorics import binom, composition_count, compositions
from .hashspace import (
    Family,
    HashFunction,
    KeySet,
    Params,
    balanced_fiber_sizes,
    balanced_functions,
)
from .oracle import (
    CoverageReport,
    IdealCount,
    balance_extremality_check,
    count_ideal_sets,
    exact_ideal_probability,
    min_family_size_exact,
    verify_family,
)

__all__ = [
    "binom",
    "composition_count",
    "compositions",
    "Family",
    "HashFunction",
    "KeySet",
    "Params",
    "balanced_fiber_sizes",
    "balanced_functions",
    "CoverageReport",
    "IdealCount",
    "balance_extremality_check",
    "count_ideal_sets",
    "exact_ideal_probability",
    "min_family_size_exact",
    "verify_family",
]

__version__ = "0.1.0"
