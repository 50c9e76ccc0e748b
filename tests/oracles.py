"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against different machinery than
the package: exact rationals instead of floats, mpmath instead of the
homegrown series, Sturm bisection instead of LAPACK, dense products
instead of tridiagonal assembly.  Agreement between the two stacks is
the point of the tests.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# exact rational coefficient streams


def frac_lambda_hat0(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    return (c + a + 1) / (2 * c + a + b + 2)


def frac_lambda_n(a: Fraction, b: Fraction, c: Fraction, n: int) -> Fraction:
    t = n + c
    return ((t + a + 1) / (2 * t + a + b + 2)) * (
        (t + a + b + 1) / (2 * t + a + b + 1)
    )


def frac_mu_n(a: Fraction, b: Fraction, c: Fraction, n: int) -> Fraction:
    t = n + c
    if t == 0:
        return Fraction(0)
    return (t / (2 * t + a + b + 1)) * ((t + b) / (2 * t + a + b))


def frac_beta_moment(alpha: Fraction, beta: Fraction, k: int) -> Fraction:
    """E[X^k] = (alpha)_k / (alpha+beta)_k for X ~ Beta(alpha, beta)."""
    out = Fraction(1)
    for j in range(k):
        out *= (alpha + j) / (alpha + beta + j)
    return out


# ---------------------------------------------------------------------------
# the float streams composed through the public, fully checked lambda_n and
# mu_n, as tridiag_entries and zeta_n first took them


def textbook_tridiag_entries(kind, p, size: int):
    """coeffs.tridiag_entries with rows n >= 2 from lambda_n and mu_n over
    the index array, the reference its one-pass streams must match bit
    for bit, errors included."""
    from betajacobi.coeffs import ModelKind, lambda_hat0, lambda_n, mu_n, validate_model
    from betajacobi.errors import ParameterError

    validate_model(kind, p)
    first_lam = lambda_hat0(p) if kind is ModelKind.ASSOC_III else lambda_n(p, 0)
    diag = np.empty(size)
    if kind in (ModelKind.CLASSICAL, ModelKind.ASSOC_I):
        diag[0] = first_lam + mu_n(p, 0)
    else:
        diag[0] = first_lam
    if size == 1:
        return diag, np.empty(0)
    idx = np.arange(1, size, dtype=float)
    lam = lambda_n(p, idx)
    mu = mu_n(p, idx)
    diag[1:] = lam + mu
    rad = np.concatenate(([first_lam], lam[:-1])) * mu
    if np.any(rad < 0.0):
        raise ParameterError("negative radicand in off-diagonal entries")
    return diag, np.sqrt(rad)


def textbook_zeta_n(p, n: int) -> float:
    """analytic.zeta_n with its products over lambda_n and mu_n of index
    arrays, the reference for the one-pass streams."""
    from betajacobi.coeffs import ModelKind, lambda_hat0, lambda_n, mu_n, validate_model
    from betajacobi.errors import ParameterError
    from betajacobi.hypergeom import ln_gamma

    validate_model(ModelKind.ASSOC_III, p)
    if n == 0:
        return 1.0
    a, c = p.a, p.c
    idx = np.arange(1, n + 1, dtype=float)
    mus = mu_n(p, idx)
    lams = lambda_n(p, idx[:-1]) if n > 1 else np.empty(0)
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
    return math.exp(half + lp)


# ---------------------------------------------------------------------------
# Sturm-sequence bisection eigensolver (no LAPACK anywhere)


def sturm_count(diag, off, x: float) -> int:
    """Number of eigenvalues strictly below x, by the LDL^T sign count."""
    count = 0
    q = diag[0] - x
    if q < 0.0:
        count += 1
    for i in range(1, len(diag)):
        if q == 0.0:
            q = 1e-300
        q = (diag[i] - x) - off[i - 1] ** 2 / q
        if q < 0.0:
            count += 1
    return count


def sturm_eigenvalues(diag, off, tol: float = 1e-14) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending."""
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = len(diag)
    radius = np.zeros(n)
    if n > 1:
        radius[:-1] += np.abs(off)
        radius[1:] += np.abs(off)
    lo_all = float(np.min(diag - radius)) - tol
    hi_all = float(np.max(diag + radius)) + tol
    vals = np.empty(n)
    for k in range(n):
        lo, hi = lo_all, hi_all
        # invariant: count(lo) <= k < count(hi)
        while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if sturm_count(diag, off, mid) <= k:
                lo = mid
            else:
                hi = mid
        vals[k] = 0.5 * (lo + hi)
    return vals


# ---------------------------------------------------------------------------
# Beta distribution facts


def beta_density(a1: float, b1: float, x: float) -> float:
    """Density of Beta(a1, b1) at x."""
    lg = mpmath.loggamma
    norm = mpmath.e ** (lg(a1 + b1) - lg(a1) - lg(b1))
    return float(norm * mpmath.mpf(x) ** (a1 - 1) * mpmath.mpf(1 - x) ** (b1 - 1))


def beta_moment(a1: float, b1: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= (a1 + j) / (a1 + b1 + j)
    return out


# ---------------------------------------------------------------------------
# mpmath references


def mp_ln_gamma(x: float) -> tuple[float, int]:
    """(log |Gamma(x)|, sign) by mpmath."""
    g = mpmath.gamma(x)
    return float(mpmath.log(abs(g))), (1 if g > 0 else -1)


def mp_hyp2f1(alpha: float, beta: float, gamma: float, x) -> complex:
    return complex(mpmath.hyp2f1(alpha, beta, gamma, x))


def mp_gamma_ratio(nums, dens) -> float:
    out = mpmath.mpf(1)
    for v in nums:
        out *= mpmath.gamma(v)
    for v in dens:
        out /= mpmath.gamma(v)
    return float(out)


# ---------------------------------------------------------------------------
# the direct 2F1 series as first written


def textbook_series(alpha: float, beta: float, gamma: float, x):
    """hypergeom._series as first written, the reference its tuned loop
    must match bit for bit in value and err."""
    from betajacobi.errors import ConvergenceError

    _MAX_TERMS = 100_000
    _STOP_REL = 1e-16
    term = 1.0 * (x * 0 + 1)  # one, in the dtype of x
    total = term
    sum_abs = 1.0
    small_run = 0
    for k in range(_MAX_TERMS):
        term = term * ((alpha + k) * (beta + k)) / ((gamma + k) * (k + 1.0)) * x
        total += term
        sum_abs += abs(term)
        if abs(term) <= _STOP_REL * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
    else:
        raise ConvergenceError("hypergeometric series hit the term cap")
    scale = max(abs(total), 1e-300)
    err = (3.0 * abs(term) + 1e-16 * sum_abs) / scale
    return total, err


def textbook_series_terminating(alpha: float, beta: float, gamma: float, x, n_top: int):
    """hypergeom._series_terminating with an int index, the reference its
    float-indexed loop must match bit for bit in value and err."""
    from betajacobi.errors import ConvergenceError

    _MAX_TERMS = 100_000
    if n_top > _MAX_TERMS:
        raise ConvergenceError("hypergeometric series hit the term cap")
    term = 1.0 * (x * 0 + 1)
    total = term
    sum_abs = 1.0
    for k in range(n_top):
        term = term * ((alpha + k) * (beta + k)) / ((gamma + k) * (k + 1.0)) * x
        total += term
        sum_abs += abs(term)
    err = 1e-16 * sum_abs / max(abs(total), 1e-300)
    return total, err


# ---------------------------------------------------------------------------
# the three-term recurrence with an int index


def textbook_rn_steps(p, x: float, j0: int, n: int, r_prev: float, r: float) -> float:
    """analytic._rn_steps with an int index, the reference its
    float-indexed loop must match bit for bit: steps j = j0..n-1 of
    (j+c+1)/(j+c+a+1) lambda_j R_{j+1}
        = (x - lambda_j - mu_j) R_j - (j+c+a)/(j+c) mu_j R_{j-1}."""
    from betajacobi.coeffs import _lambda_terms, _mu_terms
    from betajacobi.errors import ParameterError

    a, b, c = p.a, p.b, p.c
    for j in range(j0, n):
        t = j + c
        ln1, ld1, ln2, ld2 = _lambda_terms(t, a, b)
        mn1, md1, mn2, md2 = _mu_terms(t, a, b)
        if ld1 == 0.0 or ld2 == 0.0 or md1 == 0.0 or (md2 == 0.0 and t != 0.0):
            raise ParameterError(f"a coefficient denominator vanishes at index {j}")
        lam = (ln1 / ld1) * (ln2 / ld2)
        mu = (mn1 / md1) * (mn2 / md2) if t != 0.0 else 0.0
        rhs = (x - lam - mu) * r
        if r_prev != 0.0:
            rhs -= (j + c + a) / (j + c) * mu * r_prev
        r_prev, r = r, rhs * (j + c + a + 1.0) / ((j + c + 1.0) * lam)
    return r


# ---------------------------------------------------------------------------
# measure transforms


def uniform_stieltjes(z: complex) -> complex:
    """integral over [0,1] of dx/(x - z) for the uniform measure.

    The path x - z keeps a constant nonzero imaginary part for Im z != 0,
    so principal logs apply without branch adjustments.
    """
    import cmath

    return cmath.log(1.0 - z) - cmath.log(-z)


def backward_cf(diag, offdiag, z: complex, tail: str = "zero") -> complex:
    """Truncated Jacobi continued fraction by the plain backward recursion

        s_j = -1 / (z - diag[j] + offdiag[j]^2 s_{j+1}),

    one level at a time in Python complex arithmetic, from the tail s_L
    below the L = len(diag) - 1 levels: zero; "limit", the Herglotz root
    of S = -1/(z - 1/2 + S/16), the fixed point of constant coefficients
    d = 1/2, e^2 = 1/16; or "local", off the real axis and within
    |z - 1/2| <= 1e153 the Herglotz root of S = -1/(z - diag[L] +
    offdiag[L]^2 S), the fixed point of the next level's own
    coefficients, and "limit" elsewhere.  `offdiag` has length L, or
    L + 1 for "local".
    """
    import cmath

    z = complex(z)
    levels = len(diag) - 1
    if tail == "zero":
        s = 0j
    else:
        # S^2 e^2 + (z - d) S + 1 = 0; of its two roots take the one in
        # the half plane of z (a transform maps C+ into C+), on the real
        # axis the one that decays like -1/z
        d, e2 = 0.5, 0.0625
        if tail == "local" and z.imag != 0.0 and abs(z - 0.5) <= 1e153:
            d, e2 = float(diag[levels]), float(offdiag[levels]) ** 2
        w = z - d
        root = cmath.sqrt(w * w - 4.0 * e2)
        pair = ((-w + root) / (2.0 * e2), (-w - root) / (2.0 * e2))
        if z.imag != 0.0:
            s = next(r for r in pair if r.imag * z.imag > 0.0)
        else:
            s = min(pair, key=abs)
    for j in range(levels - 1, -1, -1):
        s = -1.0 / (z - float(diag[j]) + float(offdiag[j]) ** 2 * s)
    return s


def limit_tail(zc: np.ndarray) -> np.ndarray:
    """Herglotz fixed point of the deep-level map, vectorised: the tail
    seed of real z and of the far field as spectral._limit_tail formed it
    before spectral._tail_seed formed every seed per point, kept
    verbatim.

    The coefficient streams tend to 1/4, so levels far down look like the
    constant-coefficient operator with d = 1/2, e^2 = 1/16, whose
    transform solves S = -1/(z - 1/2 + S/16).  Seeding the tail with this
    root keeps the approximated spectrum continuous for z within an
    eigenvalue spacing of the support, where a zero tail would converge
    to the purely atomic measure of the truncation.

    Past |w| = 1e153, w = z - 1/2, the root is -1/w to double precision
    (the next term is 1/(16 w^2) relative), and it is taken so, because
    w * w overflows from |w| = 1.3e154 on.
    """
    w = zc - 0.5
    far = np.abs(w) > 1e153
    w_near = np.where(far, 0.0, w)
    disc = np.sqrt(w_near * w_near - 0.25 + 0j)
    s = 8.0 * (-w_near + disc)
    alt = 8.0 * (-w_near - disc)
    off_axis = zc.imag != 0.0
    pick_alt = np.where(
        off_axis,
        s.imag * np.sign(zc.imag) <= 0.0,
        np.abs(alt) < np.abs(s),
    )
    root = np.where(pick_alt, alt, s)
    # halved first: the complex division overflows for a w near the
    # largest double in both parts
    root[far] = -0.5 / (0.5 * w[far])
    return root


def two_pass_tail_seed(d, e2, zc: np.ndarray, limit: np.ndarray, level: int) -> np.ndarray:
    """Tail seeds as spectral._tail_seed formed them while the limit
    root came from a pass of its own, kept verbatim: `limit`
    (limit_tail's root at every point) copied, then every off-axis point
    below the far field overwritten with the Herglotz root of its next
    level's own coefficients, 2 / q with q the root-sum of larger
    modulus."""
    import cmath

    dl, e2l = float(d[level]), float(e2[level])
    seed = limit.copy()
    for i, zi in enumerate(zc.tolist()):
        if zi.imag != 0.0 and abs(zi - 0.5) <= 1e153:
            w = zi - dl
            disc = cmath.sqrt(w * w - 4.0 * e2l)
            flip = w.real * disc.real + w.imag * disc.imag < 0.0
            seed[i] = -2.0 / (w - disc if flip else w + disc)
    return seed


def two_pass_cf_values(kind, p, zc, depths, warn_tol):
    """spectral._cf_values as it was while its seeds took two passes, kept
    verbatim but for the seeds: per depth group, limit_tail's root at
    every point, then two_pass_tail_seed's next-level overwrite, at the
    depth and, with a ``warn_tol``, at the halved depth."""
    import warnings

    from betajacobi.coeffs import tridiag_entries
    from betajacobi.errors import ConvergenceError, ConvergenceWarning
    from betajacobi.spectral import _cf_eval

    levels = sorted(set(depths.tolist()))
    d, e = tridiag_entries(kind, p, max(levels, default=2) + 2)
    e2 = e**2
    out = np.empty(len(zc), dtype=complex)
    worst, worst_depth = 0.0, 0
    for depth in levels:
        at = depths == depth if len(levels) > 1 else slice(None)
        z_at = zc[at]
        limit = limit_tail(z_at)
        s = _cf_eval(d, e2, two_pass_tail_seed(d, e2, z_at, limit, depth), z_at, depth, depth)
        finite = np.isfinite(s)
        if not finite.all():
            raise ConvergenceError(
                f"the {depth}-level continued fraction is not finite at "
                f"z = {complex(z_at[np.argmin(finite)])}"
            )
        out[at] = s
        if warn_tol is not None:
            half = depth // 2
            seed = two_pass_tail_seed(d, e2, z_at, limit, half)
            s_half = _cf_eval(d, e2, seed, z_at, half, depth)
            rel = np.max(np.abs(s - s_half) / np.maximum(np.abs(s), 1e-300))
            if rel > worst:
                worst, worst_depth = rel, depth
    if warn_tol is not None and worst > warn_tol:
        warnings.warn(
            f"continued fraction not converged at depth {worst_depth} "
            f"(depth-halving delta {worst:.3e}); increase depth or move z "
            "away from the support",
            ConvergenceWarning,
            stacklevel=3,
        )
    return out


def limit_tail_cf(kind, p, z):
    """The fraction at each point of z as stieltjes_auto and
    density_numeric took it before each tail was seeded at its own next
    level: the limit root (limit_tail) below
    max(400, 12 / sqrt(d)) levels, d the point's distance to the support,
    off one truncation per depth."""
    from betajacobi.coeffs import tridiag_entries
    from betajacobi.spectral import _cf_eval, _support_distance

    zc = np.asarray(z, dtype=complex).ravel()
    depths = np.maximum(400, (12.0 / np.sqrt(_support_distance(zc))).astype(np.int64))
    out = np.empty(len(zc), dtype=complex)
    for depth in np.unique(depths).tolist():
        at = depths == depth
        d, e = tridiag_entries(kind, p, depth + 1)
        out[at] = _cf_eval(d, e**2, limit_tail(zc[at]), zc[at], depth, depth)
    return out


def zgtsv_cf_eval(d, e2, seed, zc, levels: int, depth: int) -> np.ndarray:
    """The levels-deep fraction at each point of zc by a full LAPACK
    tridiagonal solve (zgtsv) of (T - z) x = e_n per point, reading x_n:
    spectral._cf_eval as it was before it read x_n off zgttrf's last
    pivot, kept verbatim (the solver from scipy.linalg.lapack)."""
    from scipy.linalg.lapack import zgtsv

    from betajacobi.errors import ConvergenceError

    # Rows deepest first.  The off-diagonal pair (e2, 1) has the
    # products e_j^2 of the symmetric pair (e, e), hence the same (1, 1)
    # resolvent entry, without a square root.  The wrapper wants both
    # off-diagonals at least one long, also at levels = 1 where LAPACK
    # never reads them.
    diag = d[levels - 1 :: -1]
    sub = np.zeros(max(levels - 1, 1), dtype=complex)
    sub[: levels - 1] = e2[: levels - 1][::-1]
    # buffers the solver overwrites, refilled for every point
    dl, du = np.empty_like(sub), np.empty_like(sub)
    dg = np.empty(levels, dtype=complex)
    rhs = np.empty((levels, 1), dtype=complex)
    out = np.empty(len(zc), dtype=complex)
    for i, zi in enumerate(zc):
        np.subtract(diag, zi, out=dg)
        dg[0] -= e2[levels - 1] * seed[i]
        dl[:] = sub
        du[:] = 1.0
        rhs[:] = 0.0
        rhs[-1] = 1.0
        x, info = zgtsv(
            dl, dg, du, rhs,
            overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )[3:]
        if info > 0:
            raise ConvergenceError(
                f"z = {complex(zi)} is a pole of the {levels}-level "
                f"continued fraction (depth {depth})"
            )
        out[i] = x[-1, 0]
    return out


def per_order_moment11(kind, p, k: int) -> float:
    """<e1, J^k e1> by its own walk at size k // 2 + 2: spectral.moment11
    as it was before it read entry k of the whole-row walk, kept
    verbatim."""
    from betajacobi.coeffs import tridiag_entries
    from betajacobi.spectral import _matvec

    size = k // 2 + 2
    d, e = tridiag_entries(kind, p, size)
    v = np.zeros(size)
    v[0] = 1.0
    for _ in range(k):
        v = _matvec(d, e, v)
    return float(v[0])


# ---------------------------------------------------------------------------
# dense matrix oracle


def dense_bbt(s, t) -> np.ndarray:
    """B B^T for the lower bidiagonal B with diagonal s, subdiagonal t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    n = len(s)
    bmat = np.zeros((n, n))
    bmat[np.arange(n), np.arange(n)] = s
    if n > 1:
        bmat[np.arange(1, n), np.arange(n - 1)] = t
    return bmat @ bmat.T


def dense_interaction(x, eps_div: float = 1e-12, *, magnitude: bool = False):
    """sum_{j != i} 1 / (x_i - x_j) over the full (..., N, N) gap matrix:
    reciprocals clipped at +-1/eps_div, exactly tied pairs (the diagonal
    included) set to zero, summed along the last axis.  With `magnitude`,
    the sum of the terms' absolute values, the scale of the rounding
    error of any summation order."""
    x = np.asarray(x, dtype=float)
    gaps = x[..., :, None] - x[..., None, :]
    ties = gaps == 0.0
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / gaps
    inv = np.clip(inv, -1.0 / eps_div, 1.0 / eps_div)
    inv[ties] = 0.0
    return (np.abs(inv) if magnitude else inv).sum(axis=-1)


def pair_buffer_interaction(x, eps_div: float = 1e-12):
    """sum_{j != i} 1 / (x_i - x_j) by the half-pair kernel on one
    (N(N-1)/2, ...) buffer of all pair gaps: every gap, then the tie
    mask, the reciprocal, the clip at +-1/eps_div and the zeroing of ties
    as whole-buffer passes, then each offset block added to the upper
    particle of its pairs and subtracted from the lower one, offsets in
    increasing order.  The offset-block kernel must match it bit for bit."""
    xt = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    n = xt.shape[0]
    # rows lo:hi of block o hold the gaps x_{i+o} - x_i, i = 0..N-o-1
    blocks, lo = [], 0
    for o in range(1, n):
        blocks.append((o, lo, lo + n - o))
        lo += n - o
    inv = np.empty((lo,) + xt.shape[1:])
    for o, lo, hi in blocks:
        np.subtract(xt[o:], xt[:-o], out=inv[lo:hi])
    ties = inv == 0.0
    # ties give +-inf and subnormal gaps overflow; the clip and the tie
    # mask below settle both
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, inv, out=inv)
    np.clip(inv, -1.0 / eps_div, 1.0 / eps_div, out=inv)
    np.copyto(inv, 0.0, where=ties)
    total = np.zeros(xt.shape)
    for o, lo, hi in blocks:
        total[o:] += inv[lo:hi]
        total[:-o] -= inv[lo:hi]
    return np.moveaxis(total, 0, -1)


def convolve_hierarchy(m, a: float, b: float, c: float, *, magnitude: bool = False):
    """Right side of the moment hierarchy by one np.convolve of m with
    itself, on (K+1,) arrays: row k is -k (2c+a+b+k+1) m_k + k (a+k) m_{k-1}
    + c k conv[k-1] - c k (conv[k] - 2 m_k), row 0 is zero.  With
    `magnitude`, the same rows with every term and every product of the
    convolutions taken in absolute value, the scale of the rounding error
    of any evaluation order."""
    m = np.asarray(m, dtype=float)
    k_max = len(m) - 1
    out = np.zeros_like(m)
    if k_max == 0:
        return out
    k = np.arange(1, k_max + 1, dtype=float)
    decay, feed, quad = -k * (2.0 * c + a + b + k + 1.0), k * (a + k), c * k
    if magnitude:
        am = np.abs(m)
        conv = np.convolve(am, am)
        high = conv[1 : k_max + 1] + 2.0 * am[1:]
        out[1:] = (np.abs(decay * m[1:]) + np.abs(feed * m[:-1])
                   + np.abs(quad) * (conv[:k_max] + high))
        return out
    conv = np.convolve(m, m)
    high = conv[1 : k_max + 1] - 2.0 * m[1:]
    out[1:] = decay * m[1:] + feed * m[:-1] + quad * conv[:k_max] - quad * high
    return out


def finite_n_drift(moments, k: int, a: float, b: float, c: float, n: int) -> float:
    """Expected instantaneous drift of m_k for the N-particle system: row k
    of the package's ode_rhs minus the finite-N correction
    (c/N) (k^2 m_{k-1} - k (k+1) m_k), which vanishes as N grows.  The
    particle scheme is tested against this generator without taking any
    limit.  Row k reads m_0..m_k alone; the inputs are unchecked."""
    from betajacobi import JacobiParams, ode_rhs

    m = [float(x) for x in moments[: k + 1]]
    corr = (c / n) * (k**2 * m[k - 1] - k * (k + 1) * m[k])
    return float(ode_rhs(m, JacobiParams(a, b, c))[k] - corr)


# ---------------------------------------------------------------------------
# the moment hierarchy's RK4 on float lists, one loop per right side


def textbook_hierarchy_rhs(m: list, coef) -> list:
    """ode_rhs at the float list m with the factors of
    _hierarchy_coefficients; returns a float list.

    The self-convolution conv[j] = sum_{i=0}^{j} m_i m_{j-i} is formed
    once per j, each pair i < j - i once and doubled.  Row k then reads
    sum_{i+j=k-1} m_i m_j = conv[k-1] and, with the i = 0 and i = k terms
    stripped, sum_{j=1}^{k-1} m_j m_{k-j} = conv[k] - 2 m_k.

    The loop is O(K^2) in Python.  The np.convolve kernel it replaced
    cost 40-50 us per RK4 step at every K <= 20, mostly per-call
    overhead.  Per RK4 step on a 2-vCPU host, loop against numpy: 6.5
    against 41 us at K = 1, 14 against 43 at K = 4, 39 against 41 at
    K = 12 and 72 against 37 at K = 20, so the two cross between K = 12
    and 16.  The package's own calls use K <= 6 and `dynamics --kmax`
    defaults to 4, so there is one kernel and no switch on K.

    The package's kernel until its generated straight-line step; that
    step must match this loop bit for bit.
    """
    decay, feed, quad = coef
    k_max = len(m) - 1
    conv = []
    for j in range(k_max + 1):
        s = 0.0
        for i in range((j + 1) // 2):
            s += m[i] * m[j - i]
        s += s
        if not j & 1:
            mid = m[j >> 1]
            s += mid * mid
        conv.append(s)
    out = [0.0]
    for k in range(1, k_max + 1):
        q = quad[k - 1]
        out.append(
            decay[k - 1] * m[k] + feed[k - 1] * m[k - 1] + q * conv[k - 1]
            - q * (conv[k] - 2.0 * m[k])
        )
    return out


def textbook_integrate_moments(m0, p, t_end: float, dt: float):
    """(times, moments) of integrate_moments by its float-list RK4 loop
    over textbook_hierarchy_rhs: the stages as list comprehensions, the
    |m_k| <= 10 check after every step.  The input checks, the step
    schedule and the factors are the package's own."""
    from betajacobi.dynamics import (
        ConvergenceError,
        _hierarchy_coefficients,
        _moment_list,
        _schedule,
    )

    m = _moment_list(m0, "m0")
    dt, steps, stride = _schedule(t_end, dt)
    coef = _hierarchy_coefficients(p, len(m) - 1)
    rhs = textbook_hierarchy_rhs
    half, sixth = 0.5 * dt, dt / 6.0
    times = [0.0]
    rows = [m]
    for step in range(1, steps + 1):
        k1 = rhs(m, coef)
        k2 = rhs([x + half * d for x, d in zip(m, k1)], coef)
        k3 = rhs([x + half * d for x, d in zip(m, k2)], coef)
        k4 = rhs([x + dt * d for x, d in zip(m, k3)], coef)
        m = [
            x + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            for x, d1, d2, d3, d4 in zip(m, k1, k2, k3, k4)
        ]
        # a NaN fails the comparison too
        if not all(-10.0 <= x <= 10.0 for x in m):
            raise ConvergenceError(
                f"moment hierarchy blew up at t = {step * dt:.6g}"
            )
        if step % stride == 0 or step == steps:
            times.append(step * dt)
            rows.append(m)
    return np.array(times), np.array(rows)


# ---------------------------------------------------------------------------
# tensor-quadrature oracle for the exact finite-N moment


def _beta_rule(alpha: float, beta: float, m: int):
    """m-point Gauss rule for the Beta(alpha, beta) probability measure
    on [0, 1], built from Jacobi-weight nodes on [-1, 1]."""
    from scipy.special import roots_jacobi

    u, w = roots_jacobi(m, beta - 1.0, alpha - 1.0)
    return (1.0 + u) / 2.0, w / w.sum()


def quadrature_moment(n: int, kappa: float, a: float, b: float, k: int):
    """E[(1/N) tr((B B^T)^k)] by tensor Gauss quadrature over the 2N - 1
    independent variables p_i ~ Beta((N-i) kappa + a + 1, (N-i) kappa + b + 1),
    i = 1..N, and q_i ~ Beta((N-i) kappa, (N-i-1) kappa + a + b + 2),
    i = 1..N-1.  tr J^k has degree <= k in each variable, so floor(k/2) + 1
    nodes per variable (exact through degree k + 1) make the rule exact."""
    m = k // 2 + 1
    rules = [
        _beta_rule((n - i) * kappa + a + 1.0, (n - i) * kappa + b + 1.0, m)
        for i in range(1, n + 1)
    ] + [
        _beta_rule((n - i) * kappa, (n - i - 1) * kappa + a + b + 2.0, m)
        for i in range(1, n)
    ]
    total = 0.0
    for idx in itertools.product(range(m), repeat=len(rules)):
        x = [rule[0][j] for rule, j in zip(rules, idx)]
        w = math.prod(rule[1][j] for rule, j in zip(rules, idx))
        p, q = np.array(x[:n]), np.array(x[n:])
        s = np.sqrt(p * (1.0 - np.r_[0.0, q]))
        t = np.sqrt(q * (1.0 - p[:-1]))
        j_mat = dense_bbt(s, t)
        total += w * np.trace(np.linalg.matrix_power(j_mat, k))
    return total / n


def all_start_moment(shapes, k: int) -> float:
    """E[(1/N) tr J^k] as the mean of tr C^(2k) / (2N), summed over the
    closed walks from every vertex, for the Beta shapes (alpha_p, beta_p,
    alpha_q, beta_q) of all N sites.

    The chain y_0..y_{2N-1} = 0, p_1, q_1, ..., p_N (y_0 = 0 is Beta(0, 1))
    gives C the off-diagonal sqrt(y_j (1 - y_{j-1})), and J is the
    even-vertex block of C^2.  A closed walk crossing edge j 2 m_j times
    has mean prod_v (alpha_v)_{m_v} (beta_v)_{m_{v+1}}
    / (alpha_v + beta_v)_{m_v + m_{v+1}}, and from a start s there are
    C(m_s + m_{s+1}, m_s) such walks at s times
    C(m_parent + m_child - 1, m_child) at every other vertex.  One pass
    over the vertices carries two states, the start ahead and behind, and
    sums every term, all positive, in O(N k^3).  Uses the trace alone, not
    the Dirichlet weights at e1 that the package's rooted walks rest on."""
    n = len(shapes[0])
    if k == 0:
        return 1.0
    alpha, beta = np.zeros(2 * n), np.ones(2 * n)  # y_0 = 0 is Beta(0, 1)
    alpha[1::2], beta[1::2], alpha[2::2], beta[2::2] = shapes
    m = np.arange(k + 1)

    def ratio(x, y):  # (x)_j / (y)_j for j = 0..k on a new last axis
        steps = (x[..., None] + m[:-1]) / (y[..., None] + m[:-1])
        return np.cumprod(np.concatenate([np.ones_like(steps[..., :1]), steps], -1), -1)

    # mean[v, m_v, m_{v+1}] of y_v^m_v (1 - y_v)^m_{v+1}; ratios stay finite
    ab = alpha + beta
    mean = ratio(alpha, ab)[:, :, None] * ratio(beta[:, None], ab[:, None] + m)
    # walks per vertex [m_v, m_{v+1}]: at the start, right of it (.T: left of it)
    at_start = np.array([[math.comb(i + j, i) for j in m] for i in m], float)
    past = np.array([[math.comb(i + j - 1, j) if i + j else 1 for j in m] for i in m], float)
    # spend[u, m', u'] = [u' == u + m']: crossings used before and after
    spend = (m[:, None, None] + m[:, None] == m).astype(float)
    step = "mu,mp,upw->pw"
    # [m_v, crossings used] with the start ahead of v, and behind it
    ahead, behind = np.zeros((2, k + 1, k + 1))
    ahead[0, 0] = 1.0
    for f in mean:
        ahead, behind = (
            np.einsum(step, ahead, f * past.T, spend),
            np.einsum(step, ahead, f * at_start, spend)
            + np.einsum(step, behind, f * past, spend),
        )
    return float(behind[0, k]) / (2 * n)


def per_order_rooted_walks(alpha, beta, k: int) -> float:
    """Mean of (C^(2k))_00 by a pass of its own over the first k
    variables: ensemble._rooted_walks as it was before it returned the
    whole row, kept verbatim."""
    alpha, beta = alpha[:k], beta[:k]
    m = np.arange(k + 1)

    def ratio(x, y):  # (x)_j / (y)_j for j = 0..k on a new last axis
        steps = (x[..., None] + m[:-1]) / (y[..., None] + m[:-1])
        return np.cumprod(np.concatenate([np.ones_like(steps[..., :1]), steps], -1), -1)

    ab = alpha + beta
    mean = ratio(alpha, ab)[:, :, None] * ratio(beta[:, None], ab[:, None] + m)
    past = np.array([[math.comb(i + j - 1, j) if i + j else 1 for j in m] for i in m], float)
    spend = (m[:, None, None] + m[:, None] == m).astype(float)
    state = np.eye(k + 1)
    for f in mean:
        state = np.einsum("mu,mp,upw->pw", state, f * past, spend)
    return float(state[0, k])


# ---------------------------------------------------------------------------
# per-trial sampled spectrum, one matrix at a time


def textbook_squares(shapes, rng, m: int):
    """m draws of the bidiagonal squares (s^2, t^2) from one stream, as
    (m, N) and (m, N-1) arrays, written out from the model: p ~ Beta as
    X / (X + Y), all X gammas first, then all Y gammas, then the pairs
    whose X + Y underflowed to 0 at a positive X shape redrawn until none
    is left; then the same for q; s_n^2 = p_n (1 - q_{n-1}) with q_0 = 0
    and t_n^2 = q_n (1 - p_n).  A shape-0 variable is the point mass at 0.
    The package's draw kernel must match it bit for bit."""
    alpha_p, beta_p, alpha_q, beta_q = shapes

    def beta_block(al, be):
        size = (m, len(al))
        al, be = np.broadcast_to(al, size), np.broadcast_to(be, size)
        x = rng.standard_gamma(al)
        y = rng.standard_gamma(be)
        for _ in range(100):
            empty = (x + y == 0.0) & (al > 0.0)
            if not empty.any():
                break
            x[empty] = rng.standard_gamma(al[empty])
            y[empty] = rng.standard_gamma(be[empty])
        else:
            raise AssertionError("gamma draws kept underflowing")
        tot = x + y
        with np.errstate(invalid="ignore"):
            return np.where(tot > 0.0, x / tot, 0.0)

    p = beta_block(alpha_p, beta_p)
    q = beta_block(alpha_q, beta_q)
    s2 = p * (1.0 - np.concatenate([np.zeros((m, 1)), q], axis=1))
    t2 = q * (1.0 - p[:, :-1])
    return s2, t2


def per_trial_spectrum(cfg, seed: int, i: int) -> np.ndarray:
    """Sorted, clamped spectrum of trial i under seed, drawn and solved one
    matrix at a time: the textbook squares of substream(seed, i), J from
    them, and scipy's own tridiagonal eigensolver wrapper (its
    full-spectrum driver, stevd).  The block kernel of the package must
    match it bit for bit."""
    import scipy.linalg

    from betajacobi.ensemble import _shape_arrays, _tridiagonal_from_squares, substream

    s2, t2 = textbook_squares(_shape_arrays(cfg), substream(seed, i), 1)
    d, e = _tridiagonal_from_squares(s2[0], t2[0])
    vals = np.sort(scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="stevd"))
    vals[(vals < 0.0) & (vals >= -1e-12)] = 0.0
    vals[(vals > 1.0) & (vals <= 1.0 + 1e-12)] = 1.0
    return vals
