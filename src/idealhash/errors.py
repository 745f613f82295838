"""Exceptions shared across the package."""


class DimensionMismatchError(ValueError):
    """A family file holds a function that does not map keys 1..u into cells 1..m."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class BoundNotApplicableError(ValueError):
    """A closed-form bound was requested outside its domain of validity."""
