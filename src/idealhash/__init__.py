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

# The oracle names load on first use (PEP 562), so a command that neither
# counts nor verifies, such as simulate, starts without the oracle.
_ORACLE_NAMES = (
    "CoverageReport",
    "IdealCount",
    "balance_extremality_check",
    "count_ideal_sets",
    "exact_ideal_probability",
    "min_family_size_exact",
    "verify_family",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    *_ORACLE_NAMES,
]

__version__ = "0.1.0"
