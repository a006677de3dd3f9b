"""Exception types shared across the package."""


class EmptyPeriodSetError(ValueError):
    """A period set was constructed from no values."""


class InvalidPeriodError(ValueError):
    """A period is not a positive integer."""


class OutOfRangeError(ValueError):
    """A position or prefix length exceeds the word it refers to."""


class EmptyGeneratorError(ValueError):
    """A positive-length periodic extension was requested from an empty word."""
