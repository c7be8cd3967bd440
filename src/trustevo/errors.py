"""Exception types shared across the package, and the integer check."""


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
