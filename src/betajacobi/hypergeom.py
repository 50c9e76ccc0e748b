"""Gauss hypergeometric function and log-gamma with sign tracking.

ln_gamma takes log|Gamma| from the standard library's math.lgamma and
the sign from the parity of floor(x), turning poles into PoleError and
non-finite arguments into ParameterError; gamma_ratio and the connection
formula work in its log space.

Only the regions needed by the closed-form Stieltjes transforms and the
explicit polynomial formulas are implemented: the direct power series for
moduli up to 0.7, the Pfaff map x -> x/(x-1) when it shrinks the modulus
under that cap, and the gamma-function connection formula in powers of
1 - x.  Terminating series evaluate exactly everywhere.  Anything else
raises UnsupportedRegionError so the caller can switch to the
continued-fraction route, which needs no special-function machinery.
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    ConvergenceError,
    PoleError,
    UnsupportedRegionError,
    as_count,
    as_real,
)

__all__ = ["ln_gamma", "pochhammer", "gamma_ratio", "hyp2f1"]

_SERIES_CAP = 0.7
_MAX_TERMS = 100_000
_STOP_REL = 1e-16


def ln_gamma(x: float) -> tuple[float, int]:
    """Return (log|Gamma(x)|, sign) so that sign*exp(log) == Gamma(x).

    Raises PoleError at the poles x = 0, -1, -2, ...  Gamma is negative
    exactly where x < 0 and floor(x) is odd; past x = 2.5e305 or so
    log|Gamma(x)| overflows, and inf is returned.
    """
    x = as_real("x", x)
    if _is_nonpos_int(x):
        raise PoleError(f"gamma pole at x = {x}")
    try:
        log = math.lgamma(x)
    except OverflowError:
        log = math.inf
    return log, -1 if x < 0.0 and math.floor(x) % 2 else 1


def pochhammer(q: float, n: int) -> float:
    """Rising factorial (q)_n = q (q+1) ... (q+n-1), with (q)_0 = 1; a
    product past the largest double raises ConvergenceError."""
    q = as_real("q", q)
    out = 1.0
    for j in range(as_count("pochhammer order", n)):
        out *= q + j
    return _finite(out, "rising factorial")


def gamma_ratio(nums, dens) -> float:
    """prod Gamma(nums) / prod Gamma(dens), computed in log space.

    A pole in the denominator makes the ratio exactly 0; a pole in the
    numerator raises PoleError.  A log total past 700, or not finite
    (log-gammas that overflowed on both sides), raises ConvergenceError.
    """
    total = 0.0
    sign = 1
    for v in nums:
        l, s = ln_gamma(v)
        total += l
        sign *= s
    for v in dens:
        try:
            l, s = ln_gamma(v)
        except PoleError:
            return 0.0
        total -= l
        sign *= s
    if not total <= 700.0:  # inf - inf is NaN: both overflowed
        raise ConvergenceError("gamma ratio overflows double precision")
    return sign * math.exp(total)


def _is_nonpos_int(v: float) -> bool:
    return v <= 0.0 and v == math.floor(v)


def _series(alpha: float, beta: float, gamma: float, x):
    """Direct power series; caller guarantees |x| is under the cap.

    Bit-identical to the textbook loop (tests/oracles.py textbook_series):
    the term update and the running sum are the same operations in the
    same order, so value and err keep their bits.  The index k is a float,
    stepped by 1.0: float(k) is exact below 2**53, and float + int
    converts the int exactly before it adds, so alpha + k and the others
    are the same bits, while float + float takes CPython's fast path.

    Per term the loop does four additions (k + 1.0, the next index, among
    them), four multiplications and one division for the update, two
    additions for the sums, two abs calls (|term|, taken once for both
    sum_abs and the stop test, and |total|) and one multiply-compare for
    the stop test, whose 1e-300 floor is an inline conditional, plus one
    NaN compare for a term that is not small; no module global is read
    inside the loop.  A sum that is not finite raises ConvergenceError:
    the stop test takes inf <= 1e-16 * inf as converged, and a NaN sum
    (complex inf * 0, say) ends the loop at once, not at the term cap.
    """
    stop_rel = _STOP_REL
    term = 1.0 * (x * 0 + 1)  # one, in the dtype of x
    total = term
    sum_abs = 1.0
    small_run = 0
    k = 0.0
    for _ in range(_MAX_TERMS):
        k1 = k + 1.0
        term = term * ((alpha + k) * (beta + k)) / ((gamma + k) * k1) * x
        k = k1
        total += term
        size = abs(term)
        sum_abs += size
        scale = abs(total)
        # max(scale, 1e-300) inline, NaN kept as max keeps it
        if size <= stop_rel * (1e-300 if scale < 1e-300 else scale):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
            if scale != scale:  # a NaN sum never turns finite again
                break
    else:
        raise ConvergenceError("hypergeometric series hit the term cap")
    _finite(total, "hypergeometric sum")
    scale = max(abs(total), 1e-300)
    err = (3.0 * abs(term) + 1e-16 * sum_abs) / scale
    return total, err


def _series_terminating(alpha: float, beta: float, gamma: float, x, n_top: int):
    """The polynomial of degree n_top, summed in full with the float index
    of _series; past the term cap of _series it raises ConvergenceError
    before summing, and a sum that is not finite raises it after."""
    if n_top > _MAX_TERMS:
        raise ConvergenceError("hypergeometric series hit the term cap")
    term = 1.0 * (x * 0 + 1)
    total = term
    sum_abs = 1.0
    k = 0.0
    for _ in range(n_top):
        k1 = k + 1.0
        term = term * ((alpha + k) * (beta + k)) / ((gamma + k) * k1) * x
        k = k1
        total += term
        sum_abs += abs(term)
    _finite(total, "hypergeometric sum")
    err = 1e-16 * sum_abs / max(abs(total), 1e-300)
    return total, err


def _finite(value, what: str):
    """value, a real or complex result; one that overflowed (inf or NaN)
    raises ConvergenceError naming what it is."""
    if not cmath.isfinite(value):
        raise ConvergenceError(f"{what} is not finite: it overflows double precision")
    return value


def _power(base, exponent):
    """base ** exponent, raising ConvergenceError where the power overflows
    and Python raises OverflowError."""
    try:
        return base**exponent
    except OverflowError:
        raise ConvergenceError(
            "hypergeometric prefactor is not finite: it overflows double precision"
        ) from None


def hyp2f1(alpha: float, beta: float, gamma: float, x):
    """Gauss hypergeometric 2F1(alpha, beta; gamma; x) with error estimate.

    Parameters are real; the argument may be real or complex (principal
    branch).  Returns (value, err) where err estimates the relative
    truncation and cancellation error.

    Raises
    ------
    ParameterError
        a parameter not a finite real, or an argument not a finite number.
    PoleError
        gamma at a nonpositive integer not rescued by earlier termination.
    UnsupportedRegionError
        argument on the cut [1, inf), or outside the direct/Pfaff/1-x
        regions, or gamma-alpha-beta within 1e-8 of an integer when only
        the 1-x connection would apply.
    ConvergenceError
        a series past its term cap, or a value that overflows double
        precision (never a non-finite value).
    """
    alpha, beta = as_real("alpha", alpha), as_real("beta", beta)
    gamma = as_real("gamma", gamma)
    if isinstance(x, complex):  # np.complex128 too
        x = complex(as_real("x.real", x.real), as_real("x.imag", x.imag))
    else:
        x = as_real("x", x)

    term_n = None
    for par in (alpha, beta):
        if _is_nonpos_int(par):
            n = int(-par)
            if term_n is None or n < term_n:
                term_n = n
    if _is_nonpos_int(gamma):
        # (gamma)_k dies at k = 1 - gamma; a series terminating sooner is fine
        if term_n is None or term_n > int(-gamma):
            raise PoleError(f"third parameter {gamma} at a nonpositive integer")
    if term_n is not None:
        return _series_terminating(alpha, beta, gamma, x, term_n)

    if x.imag == 0.0 and x.real >= 1.0:
        raise UnsupportedRegionError(f"argument {x!r} on the branch cut [1, inf)")
    if x == 0.0:
        return x * 0 + 1.0, 0.0

    if abs(x) <= _SERIES_CAP:
        return _series(alpha, beta, gamma, x)

    x_pfaff = x / (x - 1.0)
    if abs(x_pfaff) <= _SERIES_CAP:
        val, err = _series(alpha, gamma - beta, gamma, x_pfaff)
        pref = _power(1.0 - x, -alpha)
        return _finite(pref * val, "hypergeometric value"), err + 1e-15

    if abs(1.0 - x) <= _SERIES_CAP:
        gab = gamma - alpha - beta
        if abs(gab - round(gab)) <= 1e-8:
            raise UnsupportedRegionError(
                "gamma-alpha-beta within 1e-8 of an integer near x = 1; "
                "the connection formula is ill-conditioned there"
            )
        w = 1.0 - x
        c1 = gamma_ratio((gamma, gab), (gamma - alpha, gamma - beta))
        c2 = gamma_ratio((gamma, -gab), (alpha, beta))
        f1, e1 = _series(alpha, beta, alpha + beta - gamma + 1.0, w)
        f2, e2 = _series(gamma - alpha, gamma - beta, gab + 1.0, w)
        t1 = c1 * f1
        t2 = c2 * _power(w, gab) * f2
        val = _finite(t1 + t2, "hypergeometric value")
        cond = (abs(t1) + abs(t2)) / max(abs(val), 1e-300)
        return val, cond * (e1 + e2 + 5e-16)

    raise UnsupportedRegionError(
        f"argument {x!r} outside the direct/Pfaff/1-x evaluation regions; "
        "use the continued-fraction route"
    )
