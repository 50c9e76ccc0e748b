"""Spectral tools for symmetric tridiagonal operators.

Moments of the spectral measure at the first basis vector, Gauss
quadrature rules read off eigen-decompositions, and the resolvent
(Stieltjes transform) evaluated as a finite continued fraction.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
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
    """(dstevd, zgtsv): scipy's compiled LAPACK wrappers, bound without
    importing scipy.linalg.

    scipy.linalg.lapack re-exports both from the extension module
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
    return module.dstevd, module.zgtsv


_dstevd, _zgtsv = _lapack_routines()

# default relative tolerance for deterministic identity checks
DEFAULT_RTOL = 1e-10

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

    @property
    def size(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The product T v, for a finite 1-d real vector v of length size."""
        v = as_real_array("v", v)
        if v.shape != (self.size,):
            raise ParameterError(
                f"v must be a 1-d vector of length {self.size}, got shape {v.shape}"
            )
        return _matvec(self.diag, self.offdiag, v)

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        n = self.size
        if n > 1:
            m[np.arange(n - 1), np.arange(1, n)] = self.offdiag
            m[np.arange(1, n), np.arange(n - 1)] = self.offdiag
        return m


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

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


def jacobi_matrix(kind: ModelKind, p: JacobiParams, size: int) -> SymmetricTridiagonal:
    """Size-by-size truncation of the model's Jacobi operator."""
    d, e = tridiag_entries(kind, p, size)
    return SymmetricTridiagonal(d, e)


def moment11(kind: ModelKind, p: JacobiParams, k: int) -> float:
    """k-th moment of the spectral measure at e_1, via <e1, J^k e1>.

    A walk of length k from index 1 cannot pass floor(k/2)+2, so the
    truncation at that size is exact.
    """
    k = as_count("moment order", k)
    size = k // 2 + 2
    t = jacobi_matrix(kind, p, size)
    v = np.zeros(size)
    v[0] = 1.0
    for _ in range(k):
        v = _matvec(t.diag, t.offdiag, v)
    return float(v[0])


def _matvec(d: np.ndarray, e: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T v for the tridiagonal T with diagonal d and off-diagonal e,
    unchecked: the step of SymmetricTridiagonal.matvec and moment11."""
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
    Exact for polynomials of degree <= 2M-1.
    """
    m = as_count("quadrature points m", m, 1)
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


def _cf_depth(dist) -> int:
    """Fraction depth max(DEFAULT_DEPTH, 12 / sqrt(d)) for points at least
    d = min(dist) from the support (DEFAULT_DEPTH for none): the tail's
    error is damped like exp(-C depth sqrt(d)).  A depth whose depth + 1
    rows would pass the 2**22 size cap raises ParameterError."""
    d = float(np.min(dist, initial=math.inf))
    depth = max(DEFAULT_DEPTH, int(12.0 / math.sqrt(d)))
    if depth + 1 > _MAX_SIZE:
        raise ParameterError(
            f"a point {d:.3g} from the support [0, 1] needs continued-fraction "
            f"depth {depth}, past the 2**22 = {_MAX_SIZE} size cap"
        )
    return depth


def _limit_tail(zc: np.ndarray) -> np.ndarray:
    """Herglotz fixed point of the deep-level map, every fraction's tail.

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

    Satisfies -1/S_J(z) = z - d_1 + e_1^2 S_J'(z) level by level, with the
    tail below `depth` set to the constant-coefficient fixed point
    (_limit_tail), so that z closer to the support than the truncation's
    eigenvalue spacing still sees a continuous spectrum.  The fraction is
    evaluated as the resolvent entry (T - z)^{-1}_{11} of the
    depth-by-depth truncation T, tail folded into its last diagonal
    entry, by one LAPACK tridiagonal solve per point; the rows are taken
    deepest first, so the elimination runs up the levels like the
    backward recursion and equals it up to rounding.

    Accepts scalar or array z (finite numbers off the support): a z of
    str, bytes, bool or object dtype, or a real z in [0, 1], raises
    ParameterError, and a z the solver finds singular, or a value that
    comes out non-finite, raises ConvergenceError.  When the depth-halved
    value differs by more than ``warn_tol`` (relative, a real >= 0), a
    ConvergenceWarning is emitted; pass ``warn_tol=None`` to skip that
    second evaluation.
    """
    depth = as_count("depth", depth, 2)
    if warn_tol is not None and as_real("warn_tol", warn_tol) < 0.0:
        raise ParameterError(f"warn_tol must be >= 0, got {warn_tol!r}")
    _support_distance(z)
    zc = np.asarray(z, dtype=complex)
    shape = zc.shape
    zc = zc.ravel()

    # one extra row so the deepest level can couple to the tail
    d, e = tridiag_entries(kind, p, depth + 1)
    e2 = e**2
    seed = _limit_tail(zc)

    def _eval(levels: int) -> np.ndarray:
        # Rows deepest first.  The off-diagonal pair (e2, 1) has the
        # products e_j^2 of the symmetric pair (e, e), hence the same
        # (1, 1) resolvent entry, without a square root.  The wrapper
        # wants both off-diagonals at least one long, also at levels = 1
        # where LAPACK never reads them.
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
            x, info = _zgtsv(
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

    s_full = _eval(depth)
    finite = np.isfinite(s_full)
    if not finite.all():
        raise ConvergenceError(
            f"the {depth}-level continued fraction is not finite at "
            f"z = {complex(zc[np.argmin(finite)])}"
        )
    if warn_tol is not None:
        s_half = _eval(depth // 2)
        rel = np.max(
            np.abs(s_full - s_half) / np.maximum(np.abs(s_full), 1e-300), initial=0.0
        )
        if rel > warn_tol:
            warnings.warn(
                f"continued fraction not converged at depth {depth} "
                f"(depth-halving delta {rel:.3e}); increase depth or move z "
                "away from the support",
                ConvergenceWarning,
                stacklevel=2,
            )
    return complex(s_full[0]) if not shape else s_full.reshape(shape)
