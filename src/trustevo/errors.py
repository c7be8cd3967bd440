"""Exception types shared across the package, each an ``InputError`` or a ``NumericalError``,
the number checks and the stack locator."""

import contextlib
import math
import numbers

import numpy as np


class InputError(ValueError):
    """A refused input: parameter, table, configuration or usage; command line exit code 1."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result; command line exit code 2."""


class ParameterDomainError(InputError):
    """A numeric parameter lies outside its admissible domain."""


class DilemmaViolationError(InputError):
    """The one-shot payoff table violates the prisoner's dilemma ordering."""


class AlternationDominanceError(InputError):
    """Alternating unilateral defection would beat mutual cooperation."""


class ConfigError(InputError):
    """A sweep configuration file or CLI invocation is malformed."""


class StateSpaceError(NumericalError):
    """Internal guard: exact match enumeration exceeded its state budget."""


def require_int(name: str, value, minimum: int, maximum=None) -> int:
    """``value`` as an int if it is integral (a numpy int too), at least ``minimum`` and at
    most ``maximum``; a bool is refused.  An exact int skips the ``numbers.Integral`` check."""
    if type(value) not in (int, bool) and isinstance(value, numbers.Integral):
        value = int(value)
    if type(value) is not int or value < minimum:
        raise ParameterDomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ParameterDomainError(f"{name} must be at most {maximum}, got {value!r}")
    return value


def require_real(name: str, value):
    """``value`` as a Python number: an int or a float as it is, another integral (a numpy
    int) as an int and another real (a numpy float, a ``Fraction``) as the float it rounds
    to.  One no float holds is refused as not finite: ``float()`` raises on such a fraction
    and gives inf for such a long double.  A bool, or anything that is not a real scalar, is
    refused.  An exact int or float skips the ``numbers.Real`` check (some 0.5 us)."""
    if type(value) in (int, float):
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterDomainError(f"{name} must be a real number, got {value!r}")
    if isinstance(value, numbers.Integral):
        return int(value)
    with contextlib.suppress(OverflowError):
        if not math.isinf(number := float(value)) or abs(value) == math.inf:
            return number
    raise ParameterDomainError(f"{name} must be finite, got {value!s}")


def first_failure(failing: np.ndarray) -> tuple[tuple[int, ...], str]:
    """Index of the first true entry of a mask over a stack of problems, and a
    message suffix naming it, which a stack of one goes without."""
    index = tuple(int(i) for i in np.argwhere(failing)[0])
    return index, f" at stack index {', '.join(map(str, index))}" if failing.size > 1 else ""
