"""Exception hierarchy shared across the package, and its integer, real and sequence rules."""

import math
import numbers
from collections.abc import Set as AbstractSet


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


def as_real(x, least, name, error=DomainError, strict=False):
    """x as a Python float: raises `error` unless x is a finite real number of
    at least `least`, or above it if `strict`, numpy scalars included, bools not."""
    real = type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)
    try:
        y = float(x) if real else math.nan
    except OverflowError:  # an integer past the largest float
        y = math.nan
    if not ((y > least if strict else y >= least) and abs(y) < math.inf):
        raise error("%s must be a finite number %s %r, got %r"
                    % (name, ">" if strict else ">=", least, x))
    return y


def as_tuple(xs, name, error=DomainError):
    """xs as a tuple: raises `error` unless xs is an iterable with an order,
    a string or a set not, so that a single number or string given for a
    sequence is refused."""
    if not isinstance(xs, (str, AbstractSet)):
        try:
            return tuple(xs)
        except TypeError:
            pass
    raise error("%s must be a sequence, got %r" % (name, xs))
