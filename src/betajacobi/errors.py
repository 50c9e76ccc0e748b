"""Shared exception and warning types."""


class ParameterError(ValueError):
    """Parameters outside the admissible domain."""


class PoleError(ParameterError):
    """An exact pole (gamma function or series denominator) was hit."""


class UnsupportedRegionError(ValueError):
    """Argument lies outside the implemented evaluation regions.

    Callers that can do so should fall back to the continued-fraction
    route, which has no region restriction away from the support.
    """


class ConvergenceError(RuntimeError):
    """An iterative computation failed to converge."""


class ConvergenceWarning(UserWarning):
    """A result was returned but an internal convergence check was loose."""


def as_count(name: str, value, minimum: int = 0) -> int:
    """value as an int >= minimum, for sizes, orders, degrees, depths and
    trial counts.

    Python ints, numpy integers and integral floats are accepted; a
    non-integral, non-finite or too-small value raises ParameterError
    instead of being truncated or leaking TypeError, ValueError or
    OverflowError.
    """
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value or out < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return out
