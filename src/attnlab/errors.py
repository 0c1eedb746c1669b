"""Error types shared across the package, and the size checks they guard."""

import math
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


def at_least(value, low, kind=numbers.Real):
    """Whether ``value`` is a finite number of the given kind, no less than
    ``low``; a bool does not count, and NaN fails the comparison."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and low <= value < math.inf)


def check_sizes(**sizes):
    """Raise ContractViolation naming every size that is not a positive int."""
    bad = [f"{name}={value!r}" for name, value in sizes.items() if not positive_int(value)]
    if bad:
        raise ContractViolation(f"sizes must be positive ints: {', '.join(bad)}")
