"""Exception hierarchy shared across the package.

The CLI maps ``ConfigurationError`` (and subclasses) to exit code 2 and
``NumericalInconsistencyError`` to exit code 3.
"""


class ConfigurationError(ValueError):
    """Invalid dimensions, index ranges, or experiment parameters."""


class RegimeError(ConfigurationError):
    """Operation called outside its (n, p) or exponent validity domain."""


class StructureError(ConfigurationError):
    """Grid lacks the divisibility structure (n | D, n | p) the rate bound needs."""


class SingularConstantError(RegimeError):
    """Concentration constant is undefined for the requested exponents."""


class UnknownTargetError(ConfigurationError):
    """Requested a built-in target function that does not exist."""


class NumericalInconsistencyError(ArithmeticError):
    """A computed quantity violates a mathematical guarantee beyond tolerance."""
