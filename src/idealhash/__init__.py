"""Worst-case hashing laboratory.

Exact ideality counts and probabilities, closed-form bounds on minimal
ideal-family sizes, verified family constructions, Monte Carlo estimates,
and the advice-bit consequences, behind one CLI (`idealhash`).
"""

__version__ = "0.1.0"
