"""Error types shared across the package, and the size check they guard."""

import numbers


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes; the message names both."""


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


class DegenerateRegion(ValueError):
    """A normalization slice has no valid entries left."""


class NumericFault(ArithmeticError):
    """A computation produced non-finite values."""


def positive_int(value):
    """Whether ``value`` is an int above zero; a bool does not count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value > 0
