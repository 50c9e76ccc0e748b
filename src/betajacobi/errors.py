"""Shared exception and warning types, and the count and real guards."""

import math
import reprlib
from numbers import Real

import numpy as np

__all__ = [
    "ParameterError",
    "PoleError",
    "UnsupportedRegionError",
    "ConvergenceError",
    "ConvergenceWarning",
]


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


# reprs in error messages: a long list, array or string is elided, so a
# message stays short at every input size; a number shows in full
_REPR = reprlib.Repr()
_REPR.maxstring = _REPR.maxother = 80


def _shown(value) -> str:
    """The repr of value that every error message shows."""
    return _REPR.repr(value)


def _bound(m: int) -> str:
    """A bound as a message shows it: a power of two from 2**10 on with
    its exponent, as 2**22 = 4194304."""
    return f"2**{m.bit_length() - 1} = {m}" if m >= 1024 and not m & (m - 1) else str(m)


def as_count(name: str, value, minimum: int = 0, maximum: int | None = None) -> int:
    """value as an int in [minimum, maximum], for sizes, orders, degrees,
    depths, indices and trial counts: the one check of a count's range.

    Python ints, numpy integers and integral floats are accepted; a
    non-integral, non-finite or out-of-range value raises ParameterError
    instead of being truncated or leaking TypeError, ValueError or
    OverflowError.
    """
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value or out < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    if maximum is not None and out > maximum:
        raise ParameterError(f"{name} must be <= {_bound(maximum)}, got {out}")
    return out


def as_real(name: str, value) -> float:
    """value as a finite Python float: ints, floats and numpy integer and
    floating scalars pass; a bool, str, complex, None, any array, NaN or
    +-inf raise ParameterError.  An exact float comes back as itself at one
    test (value - value is 0.0 exactly when it is finite, NaN otherwise);
    np.float64, a float subclass and the rest take the general path."""
    if type(value) is float and value - value == 0.0:
        return value
    real = isinstance(value, float) or isinstance(value, Real) and not isinstance(value, bool)
    try:
        out = float(value) if real else math.nan
    except OverflowError:  # an int past the largest double
        out = math.inf
    if not math.isfinite(out):
        raise ParameterError(f"{name} must be a finite real, got {_shown(value)}")
    return out


def as_real_array(name: str, value) -> np.ndarray:
    """value as a finite float array of its own shape: a real number or an
    array of them (integer or floating dtype); a str, bytes, bool, complex
    or object dtype, NaN or +-inf raise ParameterError.  The one way a
    real array enters the package; callers check shape and range."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must be a real or an array of reals, got {_shown(value)}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} must be finite, got {_shown(value)}")
    return arr
