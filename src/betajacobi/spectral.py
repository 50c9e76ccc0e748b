"""Spectral tools for symmetric tridiagonal operators.

Moments of the spectral measure at the first basis vector, Gauss
quadrature rules read off eigen-decompositions, and the resolvent
(Stieltjes transform) evaluated as a finite continued fraction.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .coeffs import _MAX_SIZE, JacobiParams, ModelKind, tridiag_entries
from .errors import ConvergenceError, ConvergenceWarning, ParameterError
from .errors import _shown, as_count, as_real, as_real_array

__all__ = [
    "DEFAULT_RTOL",
    "DEFAULT_DEPTH",
    "SymmetricTridiagonal",
    "DiscreteMeasure",
    "MomentVector",
    "jacobi_matrix",
    "moment11",
    "gauss_quadrature",
    "stieltjes_cf",
]


def _lapack_routines():
    """(dstevd, zgttrf): scipy's compiled LAPACK wrappers, bound without
    importing scipy.linalg.

    dstevd is the tridiagonal eigensolver; zgttrf is the LU factorization
    of a complex tridiagonal matrix with partial pivoting, whose last
    pivot gives stieltjes_cf its resolvent entry.  scipy.linalg.lapack
    re-exports both from the extension module
    scipy.linalg._flapack, but importing it runs all of scipy.linalg's
    __init__, about half the package's import time.  The extension file
    is loaded alone instead, under its real name and registered in
    sys.modules, so these are the very objects scipy.linalg.lapack
    re-exports after a later import of scipy.linalg.  A scipy whose
    file is missing or does not load gets the public import.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        try:
            import scipy

            paths = [
                os.path.join(root, "linalg", "_flapack" + suffix)
                for suffix in importlib.machinery.EXTENSION_SUFFIXES
                for root in scipy.__path__
            ]
            path = next(f for f in paths if os.path.isfile(f))
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            spec = importlib.util.spec_from_file_location(name, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            sys.modules[name] = module
        except (StopIteration, ImportError, OSError):
            module = None
    if module is None:
        from scipy.linalg import lapack as module
    return module.dstevd, module.zgttrf


_dstevd, _zgttrf = _lapack_routines()

# default relative tolerance for deterministic identity checks
DEFAULT_RTOL = 1e-10

# largest moment order of moment11 and dynamics.stationary_uk: both take
# time quadratic in it, about 0.66 and 0.53 s at 2**14 on a 2-vCPU host,
# 2.3 and 2.0 s at 2**15
_MAX_MOMENT_ORDER = 1 << 14

# continued-fraction depth of stieltjes_cf when the caller gives none,
# and the least depth _cf_depth picks
DEFAULT_DEPTH = 400


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        d = np.atleast_1d(as_real_array("diag", self.diag))
        e = np.atleast_1d(as_real_array("offdiag", self.offdiag))
        if d.ndim != 1 or e.ndim != 1 or len(e) != max(len(d) - 1, 0):
            raise ParameterError("need diag of length n and offdiag of length n-1")
        vars(self).update(diag=d, offdiag=e)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure (nodes ascending)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_1d(as_real_array("nodes", self.nodes))
        w = np.atleast_1d(as_real_array("weights", self.weights))
        if x.shape != w.shape or x.ndim != 1 or len(x) == 0:
            raise ParameterError("nodes and weights must be matching 1d arrays")
        if np.any(w < -1e-15):
            raise ParameterError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError(f"weights sum to {w.sum()!r}, expected 1")
        # nondecreasing, not strictly increasing: empirical spectra may tie
        # after the boundary clamp
        if np.any(np.diff(x) < 0.0):
            raise ParameterError("nodes must be sorted ascending")
        vars(self).update(nodes=x, weights=w)

    def moment(self, k: int) -> float:
        return float(np.sum(self.weights * self.nodes ** as_count("moment order", k)))


@dataclass(frozen=True)
class MomentVector:
    """Moment sequence m_0..m_K with m_0 = 1."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.atleast_1d(as_real_array("values", self.values))
        if v.ndim != 1 or len(v) == 0:
            raise ParameterError("moment vector must be a nonempty 1d array")
        if abs(v[0] - 1.0) > 1e-9:
            raise ParameterError(f"m_0 must be 1, got {v[0]!r}")
        vars(self).update(values=v)

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


def jacobi_matrix(kind: ModelKind, p: JacobiParams, size: int) -> SymmetricTridiagonal:
    """Size-by-size truncation of the model's Jacobi operator."""
    d, e = tridiag_entries(kind, p, size)
    return SymmetricTridiagonal(d, e)


def moment11(kind: ModelKind, p: JacobiParams, k: int) -> float:
    """k-th moment of the spectral measure at e_1, <e1, J^k e1>: entry k of
    _operator_moments, the one walk, quadratic in k, whose whole row
    `moments --kmax` and every caller wanting m_0..m_k read."""
    k = as_count("moment order", k, 0, _MAX_MOMENT_ORDER)
    return float(_operator_moments(kind, p, k)[k])


def _operator_moments(kind: ModelKind, p: JacobiParams, k_max: int) -> np.ndarray:
    """m_0..m_k_max at e_1, k_max checked: v[0] after each step of v <- J v from
    e_1 on the truncation at k_max // 2 + 2, exact as no closed walk leaves it;
    out of a walk's reach entries stay exact zeros, so m_k has its own walk's bits."""
    d, e = tridiag_entries(kind, p, k_max // 2 + 2)
    v, out = np.zeros(len(d)), np.ones(k_max + 1)
    v[0] = 1.0
    for k in range(1, k_max + 1):
        v = _matvec(d, e, v)
        out[k] = v[0]
    return out


def _matvec(d: np.ndarray, e: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T v for the tridiagonal T with diagonal d and off-diagonal e,
    unchecked: the step of _operator_moments."""
    out = d * v
    if len(e):
        out[:-1] += e * v[1:]
        out[1:] += e * v[:-1]
    return out


def _stevd(d: np.ndarray, e: np.ndarray, *, compute_v: bool = False):
    """(eigenvalues ascending, eigenvectors as columns) of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e; the vectors
    only with ``compute_v``.

    The package's one tridiagonal eigensolver call: LAPACK dstevd, the
    driver scipy's eigh_tridiagonal takes for a full spectrum, called
    directly, so the same bits without that wrapper's per-call checks.
    Callers check that d and e are finite.
    """
    if not len(e):
        e = np.zeros(1)  # the wrapper wants e at least one long
    vals, vecs, info = _dstevd(d, e, compute_v=compute_v)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolver failed: dstevd info = {info}")
    return vals, vecs


def gauss_quadrature(kind: ModelKind, p: JacobiParams, m: int) -> DiscreteMeasure:
    """M-point Gauss rule for the model's spectral measure.

    Nodes are the eigenvalues of the M-by-M truncation; the weight at a
    node is the squared first component of its normalized eigenvector.
    Exact for polynomials of degree <= 2M-1.  The eigenvectors take M^2
    doubles, so M is capped at 2**12 = 4096 (128 MiB; the package uses
    M <= 60).
    """
    m = as_count("quadrature points m", m, 1, 1 << 12)
    t = jacobi_matrix(kind, p, m)
    nodes, vecs = _stevd(t.diag, t.offdiag, compute_v=True)
    if np.any(np.diff(nodes) <= 0.0):
        raise ConvergenceError("quadrature nodes are not strictly increasing")
    return DiscreteMeasure(nodes, vecs[0] ** 2)


def _support_distance(z) -> np.ndarray:
    """Distance (> 0) of each point of z, flattened, to the support [0, 1].

    The transform's one domain test: z must be a number or an array of
    numbers (no str, bytes, bool or object dtype), and a non-finite z,
    or a real z in [0, 1], has no value; each raises ParameterError.
    """
    zc = np.asarray(z)
    if zc.dtype.kind not in "iufc":
        raise ParameterError(f"z must be a number or an array of numbers, got {_shown(z)}")
    zc = zc.astype(complex, copy=False).ravel()
    if not np.all(np.isfinite(zc)):
        raise ParameterError(f"z must be finite and not on the support [0, 1], got {_shown(z)}")
    gap = np.maximum(np.maximum(-zc.real, zc.real - 1.0), 0.0)
    on_support = zc.real[(zc.imag == 0.0) & (gap == 0.0)]
    if len(on_support):
        raise ParameterError(f"z = {on_support[0]} is real and on the support [0, 1]")
    return np.hypot(gap, zc.imag)


def _cf_depth(z) -> np.ndarray:
    """Fraction depth of each point of z, flattened, as an int array.

    The tail's error is the seed's error damped like
    exp(-C depth sqrt(d)), d the point's distance to the support
    [0, 1].  The seed at the next level's own coefficients (_tail_seed)
    errs far less than the limit root's O(1/depth^2), so a point runs
    max(DEFAULT_DEPTH, 3 / sqrt(d)) levels deep, a quarter of the depth
    the limit root needed, and is as accurate or more.  Where Re z lies
    within 1000 d of 0 or 1, or outside [0, 1], the next level's band
    [d - 2e, d + 2e] can overhang the support, and the point keeps
    max(DEFAULT_DEPTH, 12 / sqrt(d)); past d = 1.8e305 the zone 1000 d
    is inf, which holds every Re z, and the depth is the 400 floor either
    way.  A point whose depth + 2 rows would pass the 2**22 size cap
    raises ParameterError naming it, its distance and its depth.
    """
    zc = np.asarray(z, dtype=complex).ravel()
    dist = _support_distance(zc)
    with np.errstate(over="ignore"):
        zone = 1000.0 * dist
    edge = (zc.real <= zone) | (zc.real >= 1.0 - zone)
    want = np.where(edge, 12.0, 3.0) / np.sqrt(dist)
    if len(want) and int(want.max()) + 2 > _MAX_SIZE:
        i = int(np.argmax(want))
        raise ParameterError(
            f"a point {dist[i]:.3g} from the support [0, 1], z = {complex(zc[i])}, needs "
            f"continued-fraction depth {int(want[i])}, past the 2**22 = {_MAX_SIZE} size cap"
        )
    return np.maximum(want.astype(np.int64), DEFAULT_DEPTH)


def _cf_eval(d, e2, seed, zc, levels: int, depth: int) -> np.ndarray:
    """The levels-deep fraction at each point of zc: the entry
    (T - z)^{-1}_{11} of the levels-by-levels truncation, diagonal d and
    squared off-diagonal e2, with the tail seed folded into its deepest
    row.  A zero pivot raises ConvergenceError naming the point, the
    levels and the depth of the call.

    The rows are taken deepest first, so the wanted entry is the last
    one of the solution of (T - z) x = e_n, and the last step of
    Gaussian elimination gives it alone: x_n = b_n / u_nn, where u_nn is
    U's last pivot and b_n is 1, or -l_{n-1} when the last step swapped
    rows.  LAPACK's zgtsv, which back-substitutes all of x, forms its x_n
    by the same elimination (partial pivoting on |re| + |im|) and the
    same quotient, so the value is that x_n bit for bit
    (tests/oracles.py::zgtsv_cf_eval).  The quotient is taken in Python,
    whose complex division is Smith's, like the Fortran one; numpy's
    multiplies by a reciprocal and can be an ulp off.
    """
    # The off-diagonal pair (e2, 1) has the products e_j^2 of the
    # symmetric pair (e, e), hence the same (1, 1) resolvent entry,
    # without a square root.  The wrapper takes three rows at least, so a
    # shallower fraction gets rows of the identity, coupled to nothing,
    # ahead of its deepest level: their elimination steps subtract exact
    # zeros and keep the pivots of the others, and their own diagonal
    # stays 1 through every call.
    pad = max(3 - levels, 0)
    n = levels + pad
    diag = d[levels - 1 :: -1]
    sub = np.zeros(n - 1, dtype=complex)
    sub[pad:] = e2[: levels - 1][::-1]
    up = np.ones(n - 1, dtype=complex)
    up[:pad] = 0.0
    # buffers the factorization overwrites, refilled for every point
    dl, du = np.empty_like(sub), np.empty_like(up)
    dg = np.ones(n, dtype=complex)
    rows = dg[pad:]  # the diagonal of the fraction's own rows
    out = np.empty(len(zc), dtype=complex)
    for i, zi in enumerate(zc):
        np.subtract(diag, zi, out=rows)
        rows[0] -= e2[levels - 1] * seed[i]
        dl[:] = sub
        du[:] = up
        low, piv, _, _, ipiv, info = _zgttrf(
            dl, dg, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1
        )
        if info > 0:
            raise ConvergenceError(
                f"z = {complex(zi)} is a pole of the {levels}-level "
                f"continued fraction (depth {depth})"
            )
        # b_n as zgtsv forms it: 1 - l_{n-1} * 0, or 0 - l_{n-1} * 1
        b = 0j - complex(low[-1]) * (1 + 0j) if ipiv[-2] == n else 1 + 0j
        out[i] = b / complex(piv[-1])
    return out


def _tail_seed(d, e2, zc: np.ndarray, level: int) -> np.ndarray:
    """Tail seeds of fractions cut after `level` levels, one per point of
    zc: the transform of the operator from row `level` down.

    - Off the real axis, the Herglotz root of
      S = -1/(z - d_level + e2_level S), the fixed point of that row's
      own coefficients (the classical tail modification of a
      limit-periodic continued fraction): the streams tend to their
      limits only like 1/n^2, so it tracks the true tail where the limit
      root leaves an O(1/level^2) mismatch.  It is the root of smaller
      modulus, 2 / q with q the root-sum of larger modulus: no cancelling.
    - Real z, the limit root, of S = -1/(z - 1/2 + S/16) that the streams
      tend to: of 8(-w +- sqrt(w^2 - 1/4)), w = z - 1/2, the one of
      smaller modulus.  One level's band [d - 2e, d + 2e] can overhang
      [0, 1], and a real z there would read a spurious density.
    - Past |w| = 1e153, -1/w, the root to double precision (the next
      term is 1/(16 w^2) relative), since w * w overflows from 1.3e154.

    Either root keeps the spectrum continuous for z within an eigenvalue
    spacing of the support, where a zero tail sees the truncation's
    atoms.  The seeds are formed in Python complex arithmetic, a
    microsecond a point where numpy's per-call overhead was ten.
    """
    dl, e2l = float(d[level]), float(e2[level])
    seed = np.empty(len(zc), dtype=complex)
    for i, zi in enumerate(zc.tolist()):
        w = zi - 0.5
        if abs(w) > 1e153:
            # halved first: the complex division overflows for a w near
            # the largest double in both parts
            seed[i] = -0.5 / (0.5 * w)
        elif zi.imag == 0.0:
            disc = cmath.sqrt(w * w - 0.25)
            s, alt = 8.0 * (-w + disc), 8.0 * (-w - disc)
            seed[i] = alt if abs(alt) < abs(s) else s
        else:
            w = zi - dl
            disc = cmath.sqrt(w * w - 4.0 * e2l)
            flip = w.real * disc.real + w.imag * disc.imag < 0.0
            seed[i] = -2.0 / (w - disc if flip else w + disc)
    return seed


def _cf_values(kind: ModelKind, p: JacobiParams, zc: np.ndarray, depths, warn_tol):
    """The fraction at each point of zc (1-d, checked) at its own depth
    in `depths`, off one truncation deep enough for the deepest point
    (depth + 2 rows: the seed reads the row below the last level), the
    points grouped by depth and each group's tails seeded by one
    _tail_seed call at that depth.

    With a ``warn_tol``, each point's depth-halved fraction, its tail
    seeded by _tail_seed at the halved depth, is evaluated too, and a
    relative difference past ``warn_tol`` emits one ConvergenceWarning,
    attributed to the caller of stieltjes_cf or of
    analytic._stieltjes_routes.  A value that comes out non-finite
    raises ConvergenceError.
    """
    # a set, not np.unique, whose first call imports numpy.ma (about 16 ms)
    levels = sorted(set(depths.tolist()))
    d, e = tridiag_entries(kind, p, max(levels, default=2) + 2)
    e2 = e**2
    out = np.empty(len(zc), dtype=complex)
    worst, worst_depth = 0.0, 0
    for depth in levels:
        at = depths == depth if len(levels) > 1 else slice(None)
        z_at = zc[at]
        s = _cf_eval(d, e2, _tail_seed(d, e2, z_at, depth), z_at, depth, depth)
        finite = np.isfinite(s)
        if not finite.all():
            raise ConvergenceError(
                f"the {depth}-level continued fraction is not finite at "
                f"z = {complex(z_at[np.argmin(finite)])}"
            )
        out[at] = s
        if warn_tol is not None:
            half = depth // 2
            s_half = _cf_eval(d, e2, _tail_seed(d, e2, z_at, half), z_at, half, depth)
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


def stieltjes_cf(
    kind: ModelKind,
    p: JacobiParams,
    z,
    depth: int = DEFAULT_DEPTH,
    *,
    warn_tol: float | None = DEFAULT_RTOL,
):
    """Stieltjes transform S(z) = integral d nu(x) / (x - z), truncated
    continued fraction of the given depth.

    Satisfies -1/S_J(z) = z - d_1 + e_1^2 S_J'(z) level by level.  The
    tail below `depth` is seeded by _tail_seed: off the real axis with
    the Herglotz fixed point of the next level's own coefficients
    d_depth, e_depth^2, on it with that of the constant-coefficient
    operator the streams tend to, and past |z - 1/2| = 1e153 with
    -1/(z - 1/2); so z closer to the support than the truncation's
    eigenvalue spacing still sees a continuous spectrum.  The fraction
    is evaluated as the resolvent entry (T - z)^{-1}_{11} of the
    depth-by-depth truncation T, tail folded into its last diagonal
    entry, by one LAPACK LU factorization (zgttrf) per point; the rows
    are taken deepest first, so the elimination runs up the levels like
    the backward recursion and equals it up to rounding, and the entry
    is read off the last pivot (_cf_eval).  It reads depth + 2 rows of
    the operator, so depth is at most 2**22 - 2.

    Accepts scalar or array z (finite numbers off the support): a z of
    str, bytes, bool or object dtype, or a real z in [0, 1], raises
    ParameterError, and a z the solver finds singular, or a value that
    comes out non-finite, raises ConvergenceError.  When the depth-halved
    value, its tail seeded at the halved depth, differs by more than
    ``warn_tol`` (relative, a real >= 0), a ConvergenceWarning is
    emitted; pass ``warn_tol=None`` to skip that second evaluation.
    """
    depth = as_count("depth", depth, 2, _MAX_SIZE - 2)  # depth + 2 rows
    if warn_tol is not None and as_real("warn_tol", warn_tol) < 0.0:
        raise ParameterError(f"warn_tol must be >= 0, got {warn_tol!r}")
    _support_distance(z)
    zc = np.asarray(z, dtype=complex)
    shape = zc.shape
    zc = zc.ravel()
    s = _cf_values(kind, p, zc, np.full(len(zc), depth), warn_tol)
    return complex(s[0]) if not shape else s.reshape(shape)
