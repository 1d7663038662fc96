"""Exception hierarchy shared across the package, and its one integer rule."""

import numbers


class MultipriceError(Exception):
    """Base class for all package errors."""


class InvalidPriceSet(MultipriceError):
    """Prices are not strictly increasing and positive."""


class DomainError(MultipriceError):
    """A function argument lies outside its domain."""


class InvalidRange(MultipriceError):
    """A price range or ratio parameter is degenerate."""


class ValidationError(MultipriceError):
    """A config, instance file, or CSV failed validation."""


class SolverLimitError(MultipriceError):
    """An iteration / size guard of a solver was exceeded."""


def as_int(x, least, name, error=DomainError):
    """x as a Python int: raises `error` unless x is an integer of at least
    `least`, numpy integers included, bools not (a bool's type is not int)."""
    integer = type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)
    if not integer or x < least:
        raise error("%s must be an integer >= %d, got %r" % (name, least, x))
    return int(x)
