"""Closed-form spectral analysis: Stieltjes transforms, density, polynomials.

Everything here is hypergeometric.  Each quantity also has an independent
operator-side route (continued fraction, three-term recurrence, Gauss
quadrature), and the test suite leans on those cross-checks; keep both
sides intact when modifying formulas.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import (
    _MAX_SIZE,
    JacobiParams,
    ModelKind,
    _lambda_terms,
    _mu_terms,
    _streams,
    lambda_hat0,
    validate_model,
)
from .errors import (
    ConvergenceError,
    ParameterError,
    PoleError,
    UnsupportedRegionError,
    _shown,
    as_count,
    as_real,
    as_real_array,
)
from .hypergeom import _finite, gamma_ratio, hyp2f1, ln_gamma
from .spectral import DEFAULT_RTOL, _cf_depth, _cf_values, _support_distance

__all__ = [
    "DensityProfile",
    "stieltjes_closed",
    "stieltjes_auto",
    "u_of_x",
    "v_of_x",
    "density_closed",
    "density_numeric",
    "density_profile",
    "recurrence_rn",
    "wimp_rn",
    "pn_recurrence",
    "pn_combination",
    "pn_explicit",
    "zeta_n",
    "zeta_asymptotic",
]


def stieltjes_closed(kind: ModelKind, p: JacobiParams, z: complex) -> complex:
    """Closed hypergeometric form of the Stieltjes transform at z.

    All three associated models share the numerator 2F1(c+1, c+a+1;
    2c+a+b+2; 1/z); they differ in the denominator series.  Principal
    branch.  A z that is not a number, a non-finite z or a real z in
    [0, 1] raises ParameterError, as in stieltjes_cf, and so does an
    array z of any shape but 0-d (stieltjes_cf takes arrays);
    UnsupportedRegionError is raised when 1/z falls outside the
    implemented 2F1 regions, when a series hits its term cap or when the
    value is not finite (fall back to stieltjes_cf then).
    """
    validate_model(kind, p)
    _support_distance(z)
    if np.ndim(z) != 0:
        raise ParameterError(
            f"stieltjes_closed takes one z, got shape {np.shape(z)}; "
            "use stieltjes_cf for arrays"
        )
    z = complex(z)
    a, b, c = p.a, p.b, p.c
    x = 1.0 / z
    try:
        num, _ = hyp2f1(c + 1.0, c + a + 1.0, 2.0 * c + a + b + 2.0, x)
        if kind in (ModelKind.CLASSICAL, ModelKind.ASSOC_I):
            den, _ = hyp2f1(c, c + a, 2.0 * c + a + b, x)
        elif kind is ModelKind.ASSOC_II:
            den, _ = hyp2f1(c, c + a + 1.0, 2.0 * c + a + b + 1.0, x)
        else:
            den, _ = hyp2f1(c, c + a + 1.0, 2.0 * c + a + b + 2.0, x)
    except ConvergenceError as exc:
        raise UnsupportedRegionError(f"closed form fails at z = {z}: {exc}") from exc
    if den == 0.0:
        raise PoleError(f"denominator series vanishes at z = {z}")
    s = -num / (z * den)
    if not cmath.isfinite(s):
        raise UnsupportedRegionError(f"closed form is not finite at z = {z}")
    return s


def stieltjes_auto(kind: ModelKind, p: JacobiParams, z: complex) -> tuple[complex, str]:
    """Stieltjes transform by the closed form when its region allows,
    otherwise by the continued fraction at spectral._cf_depth's depth for
    z: max(400, 12 / sqrt(d)) at distance d from the support where Re z
    lies within 1000 d of 0 or 1, or outside [0, 1], and
    max(400, 3 / sqrt(d)) elsewhere, the tail seeded at the next level's
    own coefficients.  Returns (value, route)."""
    values, routes, _ = _stieltjes_routes(kind, p, [z])
    return values[0], routes[0]


def _stieltjes_routes(kind: ModelKind, p: JacobiParams, zs: list) -> tuple[list, list, np.ndarray]:
    """stieltjes_auto at each point of the list zs: (values, routes, the
    fraction depths of the cf rows).  The closed form is tried point by
    point; the points it refuses share one truncation, each at its own
    depth, with one ConvergenceWarning at most (spectral._cf_values).  A
    fraction's bits do not depend on the points evaluated with it."""
    values, routes = [], []
    for z in zs:
        try:
            values.append(stieltjes_closed(kind, p, z))
            routes.append("closed")
        except UnsupportedRegionError:
            values.append(None)
            routes.append("cf")
    refused = [i for i, route in enumerate(routes) if route == "cf"]
    cf_z = np.array([zs[i] for i in refused], dtype=complex)
    depths = _cf_depth(cf_z)
    if refused:
        for i, s in zip(refused, _cf_values(kind, p, cf_z, depths, DEFAULT_RTOL).tolist()):
            values[i] = s
    return values, routes, depths


def u_of_x(p: JacobiParams, x: float) -> float:
    """Boundary solution U(x) = G * 2F1(c, -c-a-b-1; -a; x), G the gamma
    normalizer; requires a away from the integers."""
    x = as_real("x", x)
    a, b, c = p.a, p.b, p.c
    coef = gamma_ratio((c + 1.0, a + 1.0), (c + a + 1.0,))
    val, _ = hyp2f1(c, -(c + a + b + 1.0), -a, x)
    return coef * val


def v_of_x(p: JacobiParams, x: float) -> float:
    """Companion solution carrying the x^(1+a) (1-x)^(1+b) prefactor;
    identically zero at c = 0.  Defined for x in [0, 1], where a, b > -1
    make both powers real and at most 1; any other x raises ParameterError."""
    x = as_real("x", x)
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"v_of_x needs x in [0, 1], got {_shown(x)}")
    a, b, c = p.a, p.b, p.c
    if c == 0.0:
        return 0.0
    angle = math.pi * a
    # pi a overflows only past 5.7e307, where every float is an integer
    sin_a = math.sin(angle) if math.isfinite(angle) else 0.0
    if sin_a == 0.0:
        raise ParameterError("v_of_x needs a away from the integers")
    coef = (
        -math.pi
        * c
        / sin_a
        * gamma_ratio((c + a + b + 2.0,), (1.0 + c + b, 2.0 + a))
    )
    val, _ = hyp2f1(1.0 - c, 2.0 + c + a + b, 2.0 + a, x)
    return _finite(coef * (1.0 - x) ** (1.0 + b) * x ** (1.0 + a) * val, "V(x)")


def _uv_denominator(p: JacobiParams, x: float) -> float:
    """|U(x) + e^{i pi a} V(x)|^2 = U^2 + 2 U V cos(pi a) + V^2."""
    u = u_of_x(p, x)
    v = v_of_x(p, x)
    return u * u + 2.0 * math.cos(math.pi * p.a) * u * v + v * v


def _require_noninteger_a(a: float, what: str) -> None:
    if abs(a - round(a)) <= 1e-8:
        raise ParameterError(f"{what} needs a away from the integers")


def _density_norm(p: JacobiParams) -> float:
    """Normalizer Z = Gamma(c+1) Gamma(c+a+b+2) / (Gamma(c+a+1) Gamma(c+b+1))
    of the limiting density."""
    return gamma_ratio(
        (p.c + 1.0, p.c + p.a + p.b + 2.0), (p.c + p.a + 1.0, p.c + p.b + 1.0)
    )


def _open_unit(x) -> np.ndarray:
    """x as a 1-d float array, each point inside (0, 1): the one domain
    of both density routes."""
    xs = np.atleast_1d(as_real_array("x", x))
    if not np.all((xs > 0.0) & (xs < 1.0)):
        raise ParameterError("density is defined on the open interval (0, 1)")
    return xs


def density_closed(p: JacobiParams, x) -> float | np.ndarray:
    """Limiting spectral density at x in (0,1).

    nu(x) = Z * x^a (1-x)^b / |U(x) + e^{i pi a} V(x)|^2 with
    |.|^2 = U^2 + 2 U V cos(pi a) + V^2 (everything real).  At c = 0 this
    collapses to the Beta(a+1, b+1) density.  Needs a non-integer; for
    integer a (or arguments past the hypergeometric regions) use
    density_numeric.  A 2F1 series past its term cap, or a value that is
    not finite, raises UnsupportedRegionError, as the regions do.
    """
    # the density's c conditions are exactly the ASSOC_I constraint set
    validate_model(ModelKind.ASSOC_I, p)
    _require_noninteger_a(p.a, "closed-form density")
    a, b = p.a, p.b
    xs = _open_unit(x)
    try:
        norm = _density_norm(p)
        out = np.empty_like(xs)
        for i, xi in enumerate(xs):
            out[i] = norm * xi**a * (1.0 - xi) ** b / _uv_denominator(p, float(xi))
    except ConvergenceError as exc:
        raise UnsupportedRegionError(f"closed-form density fails at {p}: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise UnsupportedRegionError(f"closed-form density is not finite at {p}")
    return float(out[0]) if np.ndim(x) == 0 else out


def density_numeric(
    kind: ModelKind, p: JacobiParams, x, eps: float = 1e-6
) -> float | np.ndarray:
    """Density by Stieltjes inversion, Im S(x + i eps) / pi.

    Each point's continued fraction runs at spectral._cf_depth's depth
    for x + i eps, whose distance to the support is eps:
    max(400, 3 / sqrt(eps)) levels, or max(400, 12 / sqrt(eps)) within
    1000 eps of 0 or 1; all of them are read off one truncation, and
    each tail is seeded with the fixed point of its next level's own
    coefficients (spectral._cf_values).  The seeded tail keeps the
    imaginary part from collapsing between the truncation's atoms at
    distance eps.  The smoothing bias is linear in eps (the next term of
    Im S(x + i eps) is eps * Re S'(x)).  Like density_closed, it takes x
    inside (0, 1) only.  A value that comes out non-finite raises
    ConvergenceError.
    """
    eps = as_real("eps", eps)
    if eps <= 0.0:
        raise ParameterError(f"eps must be positive, got {eps!r}")
    xs = _open_unit(x)
    z = xs + 1j * eps
    depths = _cf_depth(z)
    out = np.imag(_cf_values(kind, p, z, depths, None)) / math.pi
    if not np.isfinite(out).all():
        raise ConvergenceError(
            f"inverted transform is not finite at {p} "
            f"(eps = {eps!r}, depth {int(depths.max())})"
        )
    return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class DensityProfile:
    """Density sampled on a grid inside (0, 1)."""

    params: JacobiParams
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        g = as_real_array("grid", self.grid)
        v = as_real_array("values", self.values)
        if g.shape != v.shape or g.ndim != 1 or len(g) < 2:
            raise ParameterError("grid and values must be matching 1d arrays")
        if np.any(np.diff(g) <= 0.0) or g[0] <= 0.0 or g[-1] >= 1.0:
            raise ParameterError("grid must increase strictly inside (0, 1)")
        if np.any(v < 0.0):
            raise ParameterError("density values must be nonnegative")
        vars(self).update(grid=g, values=v)

    @property
    def mass(self) -> float:
        """Trapezoid mass over the grid; near 1 when the grid resolves
        the density (endpoint singularities are not captured)."""
        return float(np.trapezoid(self.values, self.grid))


def density_profile(
    p: JacobiParams,
    grid,
    *,
    method: str = "auto",
    eps: float = 1e-6,
) -> tuple[DensityProfile, str]:
    """Evaluate the density on a grid; returns (profile, route used)."""
    eps = as_real("eps", eps)
    grid = as_real_array("density grid", grid)
    if method not in ("auto", "closed", "numeric"):
        raise ParameterError(f"unknown density method {_shown(method)}")
    if method in ("auto", "closed"):
        try:
            vals = density_closed(p, grid)
            return DensityProfile(p, grid, vals), "closed"
        except (ParameterError, UnsupportedRegionError):
            if method == "closed":
                raise
    vals = density_numeric(ModelKind.ASSOC_III, p, grid, eps=eps)
    return DensityProfile(p, grid, vals), "numeric"


# ---------------------------------------------------------------------------
# associated polynomials


def _rn_steps(p: JacobiParams, x: float, j0: int, n: int, r_prev: float, r: float) -> float:
    """Steps j = j0..n-1 of the shared three-term recurrence

    (j+c+1)/(j+c+a+1) lambda_j R_{j+1}
        = (x - lambda_j - mu_j) R_j - (j+c+a)/(j+c) mu_j R_{j-1},

    from (R_{j0-1}, R_{j0}) = (r_prev, r); returns R_n.

    Everything runs on Python floats: a degree-n call takes a few
    microseconds, where two numpy calls for the coefficient arrays took
    about 80.  Each step forms lambda_j and mu_j from the terms of
    coeffs._lambda_terms and coeffs._mu_terms, with the operations and
    the denominator checks of lambda_n and mu_n, so the values are the
    same bits and a vanishing denominator raises ParameterError; mu_j is
    exactly 0 at j + c = 0.  At j = 0 the trailing term multiplies
    R_{-1} = 0, so the (j+c) denominator is never touched there; a
    vanishing lambda_j, or j + c = 0 past j = 0, raises ParameterError,
    and an R_n that overflows double precision raises ConvergenceError.

    The index runs as the float jf, stepped by 1.0 (j is kept only for
    the error message): float(j) is exact below 2**53 and float + int
    converts the int exactly before it adds, so every sum is the same
    bits, while float + float takes CPython's fast path.
    """
    a, b, c = p.a, p.b, p.c
    jf = float(j0)
    try:
        for j in range(j0, n):
            t = jf + c
            ln1, ld1, ln2, ld2 = _lambda_terms(t, a, b)
            mn1, md1, mn2, md2 = _mu_terms(t, a, b)
            if ld1 == 0.0 or ld2 == 0.0 or md1 == 0.0 or (md2 == 0.0 and t != 0.0):
                raise ParameterError(f"a coefficient denominator vanishes at index {j}")
            lam = (ln1 / ld1) * (ln2 / ld2)
            mu = (mn1 / md1) * (mn2 / md2) if t != 0.0 else 0.0
            rhs = (x - lam - mu) * r
            if r_prev != 0.0:
                rhs -= (jf + c + a) / (jf + c) * mu * r_prev
            r_prev, r = r, rhs * (jf + c + a + 1.0) / ((jf + c + 1.0) * lam)
            jf += 1.0
    except ZeroDivisionError:
        raise ParameterError(f"a recurrence denominator vanishes at index {j}") from None
    return _finite(r, "R_n")


def recurrence_rn(p: JacobiParams, n: int, x: float) -> float:
    """R_n(x) by the three-term recurrence from R_{-1} = 0, R_0 = 1."""
    n = as_count("polynomial degree", n)
    x = as_real("x", x)
    return _rn_steps(p, x, 0, n, 0.0, 1.0)


@functools.lru_cache(maxsize=4)
def _degree_free_2f1(alpha: float, beta: float, gamma: float, x: float) -> float:
    """Value of 2F1(alpha, beta; gamma; x), memoized for the last four
    argument tuples.

    wimp_rn and pn_explicit each have two 2F1 factors free of the degree
    n.  A degree sweep n = 0, 1, ... at one (p, x), as the polynomial
    checks run, evaluates these four factors once instead of once per
    degree; four entries hold one point's factors, so only the most
    recent point is kept.  No exception is stored, so every input raises
    the same first exception as without the memo.  Keys compare floats by
    ==, so 0.0 and -0.0 share an entry; hyp2f1 gives both the same bits.
    """
    return hyp2f1(alpha, beta, gamma, x)[0]


def wimp_rn(p: JacobiParams, n: int, x: float) -> float:
    """R_n(x) by the explicit two-by-two hypergeometric formula.

    Independent of the recurrence; used to cross-check it.  Requires a
    away from the integers and the generic-parameter conditions of the
    formula (gamma + 2c - 1 nonzero).
    """
    n = as_count("polynomial degree", n)
    x = as_real("x", x)
    a, b, c = p.a, p.b, p.c
    g = p.gamma
    _require_noninteger_a(a, "explicit R_n formula")
    if g + 2.0 * c - 1.0 == 0.0:
        raise ParameterError("explicit R_n formula breaks at gamma + 2c = 1")

    # coefficient of the first product, gamma factors premerged
    c1 = gamma_ratio(
        (c + 1.0, g + c, n + a + c + 1.0),
        (a + c, g + c - 1.0, n + c + 1.0),
    ) / (a * (g + 2.0 * c - 1.0))
    f1a = _degree_free_2f1(c, 2.0 - g - c, 1.0 - a, x)
    f1b, _ = hyp2f1(-n - c, n + g + c, a + 1.0, x)

    c2 = gamma_ratio(
        (c + 1.0, g + c, n + g + c - a),
        (g + c - a - 1.0, c, n + c + g),
    ) / (a * (g + 2.0 * c - 1.0))
    f2a = _degree_free_2f1(1.0 - c, g + c - 1.0, a + 1.0, x)
    f2b, _ = hyp2f1(n + c + 1.0, 1.0 - n - g - c, 1.0 - a, x)

    sign = 1.0 if n % 2 == 0 else -1.0
    return _finite(sign * (c1 * f1a * f1b - c2 * f2a * f2b), "R_n")


def pn_recurrence(p: JacobiParams, n: int, x: float) -> float:
    """P_n(x): same recurrence as R_n but seeded by the modified head,
    (c+1)/(c+a+1) lambda_hat0 P_1 = (x - lambda_hat0) P_0."""
    n = as_count("polynomial degree", n)
    x = as_real("x", x)
    if n == 0:
        return 1.0
    a, c = p.a, p.c
    lam0 = lambda_hat0(p)
    den = (c + 1.0) * lam0
    if den == 0.0:
        raise ParameterError("P_1 denominator (c+1) lambda_hat0 vanishes")
    p1 = (x - lam0) * (c + a + 1.0) / den
    return _rn_steps(p, x, 1, n, 1.0, p1)


def pn_combination(p: JacobiParams, n: int, x: float) -> float:
    """P_n(x) as R_n(x; c) plus an affine-in-x multiple of R_{n-1}(x; c+1).

    P_n = R_n + [ c(c+b)(2c+gamma+1) / ((c+1)(2c+gamma-1)(c+gamma))
                  - x c(2c+gamma+1) / ((c+1)(c+gamma)) ] R_{n-1}(.; c+1).
    """
    n = as_count("polynomial degree", n)
    x = as_real("x", x)
    if n == 0:
        return 1.0
    b, c = p.b, p.c
    g = p.gamma
    den1 = (c + 1.0) * (2.0 * c + g - 1.0) * (c + g)
    den2 = (c + 1.0) * (c + g)
    if den1 == 0.0 or den2 == 0.0:
        raise ParameterError("combination formula denominator vanishes")
    coef = (
        c * (c + b) * (2.0 * c + g + 1.0) / den1
        - x * c * (2.0 * c + g + 1.0) / den2
    )
    return _finite(
        recurrence_rn(p, n, x) + coef * recurrence_rn(p.shifted(1.0), n - 1, x), "P_n"
    )


def pn_explicit(p: JacobiParams, n: int, x: float) -> float:
    """P_n(x) by the explicit two-product hypergeometric formula.

    (-1)^n P_n = G1 * 2F1(c, -c-gamma; -a; x) 2F1(-c-n, c+n+gamma; 1+a; x)
               - G2 * x(1-x) 2F1(1-c, 1+c+gamma; 2+a; x)
                          * 2F1(1+c+n, -c-n-a-b; 1-a; x)
    with gamma-factor coefficients G1, G2.  Needs a away from the integers
    (and a != -1 in G2).
    """
    n = as_count("polynomial degree", n)
    x = as_real("x", x)
    a, b, c = p.a, p.b, p.c
    g = p.gamma
    _require_noninteger_a(a, "explicit P_n formula")

    g1 = gamma_ratio((c + 1.0, n + c + a + 1.0), (n + c + 1.0, c + a + 1.0))
    f1a = _degree_free_2f1(c, -(c + g), -a, x)
    f1b, _ = hyp2f1(-(c + n), c + n + g, 1.0 + a, x)

    g2 = gamma_ratio(
        (g + c + 1.0, n + c + b + 1.0), (g + n + c, c + b + 1.0)
    ) * (c / (a * (a + 1.0)))
    f2a = _degree_free_2f1(1.0 - c, 1.0 + c + g, 2.0 + a, x)
    f2b, _ = hyp2f1(1.0 + c + n, -(c + n + a + b), 1.0 - a, x)

    sign = 1.0 if n % 2 == 0 else -1.0
    return _finite(sign * (g1 * f1a * f1b - g2 * x * (1.0 - x) * f2a * f2b), "P_n")


def zeta_n(p: JacobiParams, n: int) -> float:
    """Normalizer turning P_n into an orthonormal family: P_n / zeta_n.

    zeta_n = sqrt(mu_1..mu_n / (lambda_hat0 lambda_1..lambda_{n-1}))
             * (c+a+1)_n / (c+1)_n, computed in log space.
    """
    validate_model(ModelKind.ASSOC_III, p)
    # the coefficient arrays below are O(n): the truncation size cap
    n = as_count("index", n, 0, _MAX_SIZE)
    if n == 0:
        return 1.0
    a, c = p.a, p.c
    # lambda_j and mu_j at j = 1..n in one checked pass; the product
    # takes lambda_1..lambda_{n-1}
    lams, mus = _streams(p, n + 1)
    lams = lams[:-1]
    if np.any(mus <= 0.0) or np.any(lams <= 0.0):
        raise ParameterError("zeta_n needs positive coefficient streams")
    half = 0.5 * (
        np.sum(np.log(mus)) - math.log(lambda_hat0(p)) - np.sum(np.log(lams))
    )
    lp = (
        ln_gamma(c + a + 1.0 + n)[0]
        - ln_gamma(c + a + 1.0)[0]
        - ln_gamma(c + 1.0 + n)[0]
        + ln_gamma(c + 1.0)[0]
    )
    try:
        # NaN where log-gammas past 2.5e305 overflowed on both sides
        return _finite(math.exp(half + lp), "zeta_n")
    except OverflowError:
        raise ConvergenceError("zeta_n is not finite: it overflows double precision") from None


def zeta_asymptotic(p: JacobiParams, n: int) -> float:
    """Large-n shape (2n)^(-1/2) * sqrt(G), the constant zeta_n levels to.
    p must satisfy the ASSOC_III constraints, as in zeta_n; there every
    Gamma argument of G is positive."""
    validate_model(ModelKind.ASSOC_III, p)
    n = as_real("n", n)
    if n < 1.0:
        raise ParameterError(f"need n >= 1, got {n!r}")
    return math.sqrt(_density_norm(p) / (2.0 * n))
