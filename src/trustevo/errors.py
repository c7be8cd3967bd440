"""Exception types shared across the package, the integer check and the stack locator."""

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


def require_int(name: str, value, minimum: int):
    """``value`` if it is an int of at least ``minimum``; bool is refused."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterDomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def first_failure(failing: np.ndarray) -> tuple[tuple[int, ...], str]:
    """Index of the first true entry of a mask over a stack of problems, and a
    message suffix naming it, which a stack of one goes without."""
    index = tuple(int(i) for i in np.argwhere(failing)[0])
    return index, f" at stack index {', '.join(map(str, index))}" if failing.size > 1 else ""
