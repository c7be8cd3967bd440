"""Exception types shared across the package, the number checks and the stack locator."""

import numbers

import numpy as np


class ParameterDomainError(ValueError):
    """A numeric parameter lies outside its admissible domain."""


class DilemmaViolationError(ValueError):
    """The one-shot payoff table violates the prisoner's dilemma ordering."""


class AlternationDominanceError(ValueError):
    """Alternating unilateral defection would beat mutual cooperation."""


class StateSpaceError(RuntimeError):
    """Internal guard: exact match enumeration exceeded its state budget."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class ConfigError(ValueError):
    """A sweep configuration file or CLI invocation is malformed."""


def require_int(name: str, value, minimum: int, maximum=None):
    """``value`` if it is an int of at least ``minimum`` and at most ``maximum``;
    bool is refused."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterDomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ParameterDomainError(f"{name} must be at most {maximum}, got {value!r}")
    return value


def require_real(name: str, value):
    """``value`` if it is a real number, such as a Python int or a numpy float;
    bool, and anything that is not a real scalar, is refused.  An exact int or
    float skips the ``numbers.Real`` check, which costs some 0.5 us a call."""
    if type(value) not in (int, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ParameterDomainError(f"{name} must be a real number, got {value!r}")
    return value


def first_failure(failing: np.ndarray) -> tuple[tuple[int, ...], str]:
    """Index of the first true entry of a mask over a stack of problems, and a
    message suffix naming it, which a stack of one goes without."""
    index = tuple(int(i) for i in np.argwhere(failing)[0])
    return index, f" at stack index {', '.join(map(str, index))}" if failing.size > 1 else ""
