"""The package's exception classes, in a module that imports nothing.

The CLI maps each to an exit code without loading the layers that raise
them.
"""


class ExpressionError(ValueError):
    """A time-function expression cannot be parsed or leaves the grammar."""


class PreconditionError(ValueError):
    """Input violates a documented contract of an operation."""


class ResidualCheckError(RuntimeError):
    """A mandatory numerical self-check exceeded its tolerance."""
