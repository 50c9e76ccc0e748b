"""Recurrence coefficients for classical and associated Jacobi measures.

The parameter triple (a, b, c) enters everything downstream through two
coefficient streams lambda_n, mu_n and a modified head coefficient
lambda_hat0.  Three tridiagonal (Jacobi) operators are assembled from them,
differing only in the top-left entry and first off-diagonal:

* ``ASSOC_I``   : diag starts at lambda_0 + mu_0,
* ``ASSOC_II``  : diag starts at lambda_0,
* ``ASSOC_III`` : diag starts at lambda_hat0 (off-diagonal uses lambda_hat0
  too).

``CLASSICAL`` is ``ASSOC_I`` pinned at c = 0, whose spectral measure is
Beta(a+1, b+1).  The spectral measure of ``ASSOC_III`` is the one the
tridiagonal beta ensembles converge to in the beta*N -> 2c regime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _shown, as_count, as_real, as_real_array

__all__ = [
    "JacobiParams",
    "ModelKind",
    "lambda_hat0",
    "lambda_n",
    "mu_n",
    "tridiag_entries",
    "validate_model",
]


@dataclass(frozen=True)
class JacobiParams:
    """Parameter triple (a, b, c); requires a > -1 and b > -1."""

    a: float
    b: float
    c: float = 0.0

    def __post_init__(self) -> None:
        vars(self).update({n: as_real(n, getattr(self, n)) for n in ("a", "b", "c")})
        if self.a <= -1.0 or self.b <= -1.0:
            raise ParameterError(
                f"need a > -1 and b > -1, got a={self.a}, b={self.b}"
            )

    @property
    def gamma(self) -> float:
        """The combination a + b + 1 that recurs in every formula."""
        return self.a + self.b + 1.0

    def shifted(self, dc: float) -> "JacobiParams":
        """Same (a, b) with c moved by dc."""
        return JacobiParams(self.a, self.b, self.c + as_real("dc", dc))


class ModelKind(enum.Enum):
    """Which spectral measure a Jacobi matrix represents."""

    CLASSICAL = "classical"
    ASSOC_I = "assoc-i"
    ASSOC_II = "assoc-ii"
    ASSOC_III = "assoc-iii"


def validate_model(kind: ModelKind, p: JacobiParams) -> None:
    """Check the constraint set of the given model; raise ParameterError.

    CLASSICAL pins c = 0.  ASSOC_I and ASSOC_II need c >= 0, c+a > 0,
    c+b > 0.  ASSOC_III only needs the shifted constraints c+1 > 0,
    c+a+1 > 0, c+b+1 > 0 (so that ASSOC_I at c+1 is always valid, which
    the m-function identity uses).
    """
    if kind is ModelKind.CLASSICAL:
        if p.c != 0.0:
            raise ParameterError(f"classical model requires c = 0, got c={p.c}")
    elif kind in (ModelKind.ASSOC_I, ModelKind.ASSOC_II):
        if p.c < 0.0 or p.c + p.a <= 0.0 or p.c + p.b <= 0.0:
            raise ParameterError(
                f"{kind.value} requires c >= 0, c+a > 0, c+b > 0; "
                f"got (a, b, c) = ({p.a}, {p.b}, {p.c})"
            )
    elif kind is ModelKind.ASSOC_III:
        if p.c + 1.0 <= 0.0 or p.c + p.a + 1.0 <= 0.0 or p.c + p.b + 1.0 <= 0.0:
            raise ParameterError(
                f"{kind.value} requires c+1 > 0, c+a+1 > 0, c+b+1 > 0; "
                f"got (a, b, c) = ({p.a}, {p.b}, {p.c})"
            )
    else:  # pragma: no cover - enum is closed
        raise ParameterError(f"unknown model kind {kind!r}")


def lambda_hat0(p: JacobiParams) -> float:
    """Head coefficient (c+a+1) / (2c+a+b+2) of the third model."""
    den = 2.0 * p.c + p.a + p.b + 2.0
    if den == 0.0:
        raise ParameterError("lambda_hat0 denominator 2c+a+b+2 vanishes")
    return (p.c + p.a + 1.0) / den


# largest truncation tridiag_entries builds (two 32 MiB arrays), far above
# the continued-fraction depths in use (12000 at density_numeric's default
# eps)
_MAX_SIZE = 1 << 22
# the streams' largest term is 2 (n + c), finite while |n + c| <= _MAX_T
_MAX_T = np.finfo(float).max / 2.0


def _as_index(n, c: float) -> tuple[np.ndarray, bool]:
    """(t, scalar) with t = n + c, for a real index n >= 0, or an array of
    them, at which 2 (n + c) does not overflow."""
    arr = as_real_array("n", n)
    top = _MAX_T - max(c, 0.0) if c >= -_MAX_T else -1.0
    if not np.all((arr >= 0) & (arr <= top)):
        raise ParameterError(
            f"coefficient index must be >= 0 and keep 2(n + c) finite, "
            f"got n={_shown(n)} at c={c!r}"
        )
    return arr + c, arr.ndim == 0


def _lambda_terms(t, a, b):
    """(num1, den1, num2, den2) with lambda_n = (num1 / den1) * (num2 / den2)
    at t = n + c.

    Arithmetic only, so t may be a Python float (the recurrence loop of
    analytic._rn_steps) or an array (lambda_n); the caller checks the
    denominators before it divides.
    """
    den1 = 2.0 * t + a + b + 2.0
    return t + a + 1.0, den1, t + a + b + 1.0, den1 - 1.0


def _mu_terms(t, a, b):
    """(num1, den1, num2, den2) with mu_n = (num1 / den1) * (num2 / den2)
    at t = n + c, for floats and arrays like _lambda_terms.  At t = 0 the
    value is exactly 0: only den1 must not vanish there."""
    den1 = 2.0 * t + a + b + 1.0
    return t, den1, t + b, den1 - 1.0


def lambda_n(p: JacobiParams, n) -> float | np.ndarray:
    """Coefficient stream lambda_n(c), n >= 0.

    lambda_n = (n+c+a+1)/(2n+2c+a+b+2) * (n+c+a+b+1)/(2n+2c+a+b+1).
    Accepts a scalar index or an integer array.
    """
    t, scalar = _as_index(n, p.c)
    num1, den1, num2, den2 = _lambda_terms(t, p.a, p.b)
    if np.any(den1 == 0.0) or np.any(den2 == 0.0):
        raise ParameterError("lambda_n denominator vanishes for some index")
    out = (num1 / den1) * (num2 / den2)
    return float(out) if scalar else out


def mu_n(p: JacobiParams, n) -> float | np.ndarray:
    """Coefficient stream mu_n(c), n >= 0.

    mu_n = (n+c)/(2n+2c+a+b+1) * (n+c+b)/(2n+2c+a+b).  The first factor
    vanishes exactly at n = 0, c = 0 and the second is then never
    evaluated (its denominator can vanish there too, e.g. a = -b).
    """
    t, scalar = _as_index(n, p.c)
    num1, den1, num2, den2 = _mu_terms(t, p.a, p.b)
    zero = t == 0.0
    if np.any(den1 == 0.0) or np.any((den2 == 0.0) & ~zero):
        raise ParameterError("mu_n denominator vanishes for some index")
    safe_den2 = np.where(zero, 1.0, den2)
    out = np.where(zero, 0.0, (num1 / den1) * (num2 / safe_den2))
    return float(out) if scalar else out


def _streams(p: JacobiParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_j, mu_j) for j = 1..size-1, bit for bit lambda_n and mu_n
    there, in one pass over t = j + c with no check per element.

    For parameters that pass validate_model, t >= 1 + c > 0, so mu_n's
    exact zero at t = 0 never applies, and one check of the top index
    (2(n + c) finite) and one test of each denominator array stand in
    for theirs, raising the ParameterError theirs raise.  The
    denominators are positive in exact arithmetic but not always after
    rounding: at a = b = -1 + 2**-53, c = 0 that of mu_1 comes out 0.
    """
    _as_index(size - 1, p.c)
    t = np.arange(1, size, dtype=float) + p.c
    ln1, ld1, ln2, ld2 = _lambda_terms(t, p.a, p.b)
    mn1, md1, mn2, md2 = _mu_terms(t, p.a, p.b)
    if not (ld1.all() and ld2.all()):
        raise ParameterError("lambda_n denominator vanishes for some index")
    if not (md1.all() and md2.all()):
        raise ParameterError("mu_n denominator vanishes for some index")
    return (ln1 / ld1) * (ln2 / ld2), (mn1 / md1) * (mn2 / md2)


def tridiag_entries(
    kind: ModelKind, p: JacobiParams, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the size-by-size Jacobi truncation.

    Rows n >= 2 are shared by all kinds: diag lambda_{n-1} + mu_{n-1},
    off-diagonal sqrt(lambda_{n-1} mu_n), the streams taken in one
    checked pass (_streams), bit for bit lambda_n and mu_n.  The first
    row depends on the kind as described in the module docstring.

    Returns
    -------
    (diag, offdiag) : arrays of length size and size-1.

    A size above 2**22 raises ParameterError before anything is allocated.
    """
    validate_model(kind, p)
    size = as_count("size", size, 1, _MAX_SIZE)

    first_lam = lambda_hat0(p) if kind is ModelKind.ASSOC_III else lambda_n(p, 0)

    diag = np.empty(size)
    if kind in (ModelKind.CLASSICAL, ModelKind.ASSOC_I):
        diag[0] = first_lam + mu_n(p, 0)
    else:
        diag[0] = first_lam

    if size == 1:
        return diag, np.empty(0)

    lam, mu = _streams(p, size)
    diag[1:] = lam + mu

    rad = np.concatenate(([first_lam], lam[:-1])) * mu
    if np.any(rad < 0.0):
        raise ParameterError(
            "negative radicand in off-diagonal entries; parameters leave "
            "the positive-definite regime"
        )
    return diag, np.sqrt(rad)
