"""Finite-N tridiagonal beta ensembles and their kappa -> infinity limit.

The N-point ensemble with density proportional to
prod |l_j - l_i|^beta * prod l^a (1-l)^b on (0,1)^N is realized as
J = B B^T for a lower bidiagonal B built from independent Beta variates;
J is symmetric tridiagonal, so a tridiagonal eigensolver gives a sampled
spectrum in O(N^2), and a Sturm count gives how many eigenvalues lie
below a point in O(N).  Every sampler draws its Beta variates as gamma
ratios from keyed streams, one trial per stream or a block of trials
per stream.  Neither `sample` histograms nor Monte Carlo moments need
the spectrum: up to _COUNT_BINS_PER_SITE bins per site, histogram counts
are differences of Sturm counts at the bin edges, and (1/N) tr J^k is
read from the tridiagonal entries by band powers of J.  Sampled spectra,
the eigensolve route, stay behind empirical_measure, `sample --bins 0`
and histograms with more bins.
Exact mean moments at every N sum the closed walks of J from its first
site: the spectral weights of J at e1 are Dirichlet(kappa, ..., kappa)
and independent of the eigenvalues (Killip and Nenciu, IMRN 2004:50),
so E[(1/N) tr J^k] = E[(J^k)_11], and each walk's mean factors into
Beta moments of the independent variables it crosses.  Sending
kappa = beta/2 to infinity with a = A kappa, b = B kappa freezes the
matrix onto deterministic entries.
"""

from __future__ import annotations

import queue
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .coeffs import _MAX_SIZE, JacobiParams
from .errors import ConvergenceError, ParameterError, as_count, as_real, as_real_array
from .spectral import DiscreteMeasure, MomentVector, SymmetricTridiagonal, _stevd

__all__ = [
    "EnsembleConfig",
    "BidiagonalFactor",
    "substream",
    "sample_model",
    "to_tridiagonal",
    "empirical_measure",
    "mc_moments",
    "exact_moment",
    "limit_pq",
    "limit_bidiagonal_squares",
    "MAX_EXACT_K",
]

# the k exact_moment is tested to; its cost does not grow with N
MAX_EXACT_K = 8

_CLAMP_TOL = 1e-12
_FAIL_TOL = 1e-10
# Monte Carlo chunks: at most _CHUNK trials and _CHUNK_ENTRIES matrix
# entries (trials times N) each, so memory stays bounded at every N
_CHUNK = 65536
_CHUNK_ENTRIES = 1 << 20
_CHUNK_KEY_BASE = 1 << 62
# largest thread count of mc_moments (and `verify --threads`): a call
# starts that many threads at most and allocates as many work sets
# (_ChunkWork), 6.0 MiB each at a full chunk at N = 3, k_max = 3 and
# 24.3 MiB at N = 200, k_max = 8, so 0.4 and 1.5 GiB here
_MAX_THREADS = 64
# matrix entries (trials times N) per block of sampled spectra
_SPECTRUM_BLOCK = 1 << 16
# bins per site up to which a `sample` histogram takes Sturm counts at
# its bin edges instead of the eigenvalues (_histogram)
_COUNT_BINS_PER_SITE = 4
# matrix entries per block of a Monte Carlo chunk whose squares, J and
# band powers are formed at once, at the least: small enough for L2 and
# the heap, not fresh mmaps; a chunk's blocks grow to fill the buffer its
# gamma totals take (_ChunkWork)
_TRACE_BLOCK = 1 << 13


@dataclass(frozen=True)
class EnsembleConfig:
    """Finite ensemble: N points, Dyson parameter beta, weights (a, b)."""

    N: int
    beta: float
    a: float
    b: float

    def __post_init__(self) -> None:
        n = as_count("N", self.N, 1, _MAX_SIZE)
        beta = as_real("beta", self.beta)
        if beta < 0.0:
            raise ParameterError(f"beta must be >= 0, got {beta!r}")
        w = JacobiParams(self.a, self.b)  # the weight rule, and a, b as floats
        # (N - 1) beta + |a| + |b| + 2 bounds every shape sum; twice it
        # finite, no shape and no gamma total X + Y overflows
        if 2.0 * ((n - 1) * beta + abs(w.a) + abs(w.b) + 2.0) == np.inf:
            raise ParameterError(
                f"beta = {beta!r}, a = {w.a!r}, b = {w.b!r} overflow the Beta "
                f"shapes at N = {n}"
            )
        vars(self).update(N=n, beta=beta, a=w.a, b=w.b)

    @property
    def kappa(self) -> float:
        return self.beta / 2.0

    @property
    def c(self) -> float:
        """The c = kappa * N combination the limit regime holds fixed."""
        return self.kappa * self.N


@dataclass(frozen=True)
class BidiagonalFactor:
    """Lower bidiagonal factor B: diagonal s (length N), subdiagonal t."""

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        s = np.atleast_1d(as_real_array("s", self.s))
        t = np.atleast_1d(as_real_array("t", self.t))
        if s.ndim != 1 or t.ndim != 1 or len(t) != len(s) - 1:
            raise ParameterError("need 1d s and t with len(t) == len(s) - 1")
        for name, arr in (("s", s), ("t", t)):
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ParameterError(f"{name} entries must lie in [0, 1]")
        vars(self).update(s=s, t=t)


def _fold_seed(seed: int) -> int:
    sequence = np.random.SeedSequence(as_count("seed", seed))
    return int(sequence.generate_state(1, np.uint64)[0])


def _stream(folded: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(folded << 64) | index))


class _TrialStreams:
    """_stream(folded, i) for each i in indices, as one generator re-keyed
    in place before each yield: key [i, folded] with a zero counter and
    an empty buffer, the state Philox(key=...) starts from, at a fraction
    of the cost of building one.  Each yield is spent before the next.
    restart(j) is a new generator at the start of the j-th trial's
    stream, so a draw can replay one trial without saving the state of
    every trial."""

    def __init__(self, folded: int, indices: range):
        self.folded, self.indices = folded, indices

    def __iter__(self):
        bitgen = np.random.Philox(key=self.folded << 64)
        rng = np.random.Generator(bitgen)
        state = bitgen.state
        for i in self.indices:
            state["state"] = {
                "counter": np.zeros(4, np.uint64),
                "key": np.array([i, self.folded], np.uint64),
            }
            state.update(buffer_pos=4, has_uint32=0, uinteger=0)
            bitgen.state = state
            yield rng

    def restart(self, j: int) -> np.random.Generator:
        return _stream(self.folded, self.indices[j])


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for trial `index` under `seed`.

    Streams are keyed, not jumped, so any trial can be regenerated in
    isolation and results do not depend on scheduling.  The index stays
    below 2**62, where the keys of mc_moments' chunk streams start.
    """
    return _stream(_fold_seed(seed), as_count("stream index", index, 0, _CHUNK_KEY_BASE - 1))


def _redraw_empty(x, tot, alpha, beta, rng: np.random.Generator) -> None:
    """Redraw in place the pairs whose total tot = X + Y underflowed to 0
    at a positive alpha (0/0 ratios from tiny shapes), until none is left:
    all their X gammas, then all their Y gammas."""
    for _ in range(100):
        bad = (tot == 0.0) & (alpha > 0.0)
        if not np.any(bad):
            return
        x[bad] = rng.standard_gamma(np.broadcast_to(alpha, x.shape)[bad])
        tot[bad] = x[bad] + rng.standard_gamma(np.broadcast_to(beta, x.shape)[bad])
    raise ConvergenceError("beta sampler kept underflowing; shapes too small")


def _views(buf: np.ndarray, *shapes) -> list:
    """Arrays of `shapes` laid end to end from the start of the flat
    buffer buf."""
    views, start = [], 0
    for shape in shapes:
        size = prod(shape)
        views.append(buf[start : start + size].reshape(shape))
        start += size
    return views


def _beta_rows(alpha, beta, rng: np.random.Generator, rows: int, out=None) -> np.ndarray:
    """`rows` rows of Beta(alpha, beta) variates as gamma ratios X / (X + Y),
    drawn from one stream: all X gammas of the rows, then all Y gammas,
    then the pairs whose total underflowed are redrawn (_redraw_empty).

    The one Beta draw behind every sampler; that order fixes every seeded
    byte.  Shape 0 is taken as the degenerate point mass at 0 (the
    kappa -> 0 edge of the q variables).  `out`, if given, is the pair of
    flat buffers (variates, totals) the (rows, len(alpha)) arrays are
    laid on (_ChunkWork).
    """
    shape = (rows, len(alpha))
    if out is None:
        x, tot = np.empty(shape), np.empty(shape)
    else:
        x, tot = (_views(buf, shape)[0] for buf in out)
    rng.standard_gamma(alpha, out=x)
    rng.standard_gamma(beta, out=tot)
    tot += x  # the totals X + Y, drawn Y first
    if not tot.all():
        _redraw_empty(x, tot, alpha, beta, rng)
    return _ratios(x, tot)


def _ratios(x: np.ndarray, tot: np.ndarray) -> np.ndarray:
    """X / (X + Y) in place in x, from the totals tot = X + Y; x is 0
    wherever its total is."""
    if tot.all():
        return np.divide(x, tot, out=x)
    return np.divide(x, tot, out=x, where=tot > 0.0)


def _shape_arrays(cfg: EnsembleConfig, sites: int | None = None):
    """Beta shapes (alpha_p, beta_p, alpha_q, beta_q) of p_n, n = 1..N,
    and q_n, n = 1..N-1; of the first `sites` sites only, if given."""
    n = np.arange(1, min(cfg.N, sites or cfg.N) + 1, dtype=float)
    alpha_p = (cfg.N - n) * cfg.kappa + cfg.a + 1.0
    beta_p = (cfg.N - n) * cfg.kappa + cfg.b + 1.0
    m = n[: cfg.N - 1]
    alpha_q = (cfg.N - m) * cfg.kappa
    beta_q = (cfg.N - m - 1.0) * cfg.kappa + cfg.a + cfg.b + 2.0
    return alpha_p, beta_p, alpha_q, beta_q


def _bidiagonal_squares(p: np.ndarray, q: np.ndarray, out=None):
    """Squares of the bidiagonal entries from (..., N) p and (..., N-1) q:
    s_n^2 = p_n (1 - q_{n-1}) with q_0 = 0, t_n^2 = q_n (1 - p_n).
    Returns (s2, t2), into the arrays of `out` if given."""
    s2, t2 = (np.empty_like(p), np.empty_like(q)) if out is None else out
    np.copyto(s2, p)
    s2[..., 1:] *= np.subtract(1.0, q, out=t2)
    np.subtract(1.0, p[..., :-1], out=t2)
    t2 *= q
    return s2, t2


def _draw_pq(shapes, rng: np.random.Generator, rows: int, work=None):
    """(p, q) of `rows` trials from one stream, as (rows, N) and
    (rows, N-1) arrays: all the p variables of the rows, then all their q
    variables.  With a _ChunkWork `work` they are drawn into its p and q,
    their gamma totals into its tot."""
    alpha_p, beta_p, alpha_q, beta_q = shapes
    out_p, out_q = (None, None) if work is None else ((work.p, work.tot), (work.q, work.tot))
    p = _beta_rows(alpha_p, beta_p, rng, rows, out_p)
    return p, _beta_rows(alpha_q, beta_q, rng, rows, out_q)


def _draw_each(shapes, streams: _TrialStreams):
    """(p, q) of one trial per stream, bit for bit _draw_pq(shapes, rng, 1)
    on each: X_p, Y_p, then X_q, Y_q, each underflow redrawn before the
    next variable.

    With no pair to redraw, those are one standard_gamma call on the four
    shape arrays end to end, so each trial takes that one call into its
    row of a block buffer, and the ratios run once for the block.  A trial
    with an empty total (0/0 at a positive shape) is drawn again the
    two-step way, whose redraw of the p pairs comes before the q draws,
    from the start of its stream (_TrialStreams.restart).
    """
    alpha_p, beta_p, alpha_q, beta_q = shapes
    n = len(alpha_p)
    every = np.concatenate(shapes)
    gammas = np.empty((len(streams.indices), len(every)))
    for row, rng in zip(gammas, streams):
        rng.standard_gamma(every, out=row)
    x_p, tot_p, x_q, tot_q = np.hsplit(gammas, [n, 2 * n, 3 * n - 1])
    tot_p += x_p  # the totals X + Y, in place of the Y gammas
    tot_q += x_q
    empty = ((tot_p == 0.0) & (alpha_p > 0.0)).any(axis=1)
    empty |= ((tot_q == 0.0) & (alpha_q > 0.0)).any(axis=1)
    p, q = _ratios(x_p, tot_p), _ratios(x_q, tot_q)
    for i in np.flatnonzero(empty):
        p[i : i + 1], q[i : i + 1] = _draw_pq(shapes, streams.restart(i), 1)
    return p, q


def _tridiagonal_from_squares(s2: np.ndarray, t2: np.ndarray, out=None):
    """J = B B^T from the squared entries of B, on (..., N) s^2 and
    (..., N-1) t^2: diagonal s_n^2 + t_{n-1}^2 with t_0 = 0, off-diagonal
    s_n t_n = sqrt(s_n^2 t_n^2).  Returns (diag, off), into the arrays of
    `out` if given."""
    diag, off = (np.empty_like(s2), np.empty_like(t2)) if out is None else out
    np.sqrt(np.multiply(s2[..., :-1], t2, out=off), out=off)
    np.copyto(diag, s2)
    diag[..., 1:] += t2
    return diag, off


def sample_model(cfg: EnsembleConfig, rng: np.random.Generator) -> BidiagonalFactor:
    """Draw the bidiagonal factor: s_n^2 = p_n (1 - q_{n-1}),
    t_n^2 = q_n (1 - p_n), with p_n, q_n the graded Beta variables."""
    s2, t2 = _bidiagonal_squares(*_draw_pq(_shape_arrays(cfg), rng, 1))
    return BidiagonalFactor(np.sqrt(s2[0]), np.sqrt(t2[0]))


def to_tridiagonal(factor: BidiagonalFactor) -> SymmetricTridiagonal:
    """J = B B^T: diagonal s_i^2 + t_{i-1}^2, off-diagonal s_i t_i, by
    the same assembly from the squares that the samplers use."""
    return SymmetricTridiagonal(*_tridiagonal_from_squares(factor.s**2, factor.t**2))


def _sampled_j(p: np.ndarray, q: np.ndarray):
    """(diag, off) of J for each row of drawn (p, q), as (m, N) and
    (m, N-1) arrays, assembled and checked finite once for the block:
    the J that both kernels of `sample` read."""
    diag, off = _tridiagonal_from_squares(*_bidiagonal_squares(p, q))
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ParameterError("tridiagonal entries must be finite")
    return diag, off


def _escape_error(vals: np.ndarray) -> ConvergenceError:
    return ConvergenceError(
        f"sampled spectrum escapes [0,1] beyond {_FAIL_TOL}: "
        f"[{vals[0]!r}, {vals[-1]!r}]"
    )


def _spectra(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Sorted spectra of the (m, N) rows of J (_sampled_j), as an (m, N)
    array.

    The eigensolve kernel behind empirical_measure and the `sample`
    command: one LAPACK call per row, and the escape check and the clamp
    on the whole block.
    Eigenvalues more than _FAIL_TOL outside [0, 1] raise
    ConvergenceError; roundoff-level ones within _CLAMP_TOL are clamped.
    """
    vals = np.empty_like(diag)
    for i in range(len(vals)):
        vals[i] = _stevd(diag[i], off[i])[0]
    vals.sort(axis=1)
    escaped = (vals[:, 0] < -_FAIL_TOL) | (vals[:, -1] > 1.0 + _FAIL_TOL)
    if escaped.any():
        raise _escape_error(vals[np.argmax(escaped)])
    vals[(vals < 0.0) & (vals >= -_CLAMP_TOL)] = 0.0
    vals[(vals > 1.0) & (vals <= 1.0 + _CLAMP_TOL)] = 1.0
    return vals


def _bin_counts(diag: np.ndarray, off: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.histogram counts, over the bins of `edges` (np.histogram's equal
    bins of [0, 1]), of the clamped spectra _spectra gives on the same
    rows of J, without them.

    A histogram needs only how many eigenvalues lie below each bin edge,
    and a Sturm count reads that from the entries of J (Barth, Martin and
    Wilkinson 1967): the number of pivots q_j <= 0 in the LDL^T
    factorisation of J - wI, q_1 = d_1 - w, q_j = d_j - e_{j-1}^2 / q_{j-1}
    - w, is the number of eigenvalues at or below w.  The pivots run
    along the sites, vectorised over the trials times the points w.  A
    pivot smaller than pivmin in size is set to -pivmin, as LAPACK's
    dlaebz does; this keeps beta = 0, whose off-diagonal is exactly 0,
    finite.  "Below e" is "at or below the float just under e", so an
    eigenvalue on an edge counts in the bin to its right, np.histogram's
    rule.  The points are -_FAIL_TOL and -_CLAMP_TOL (both just under),
    the interior bin edges (just under), 1 + _CLAMP_TOL and
    1 + _FAIL_TOL: the first and last test the escape, the bins between
    them hold what the clamp puts in [0, 1], and what lies in the gaps
    between the two tolerances is left out, as np.histogram drops it.
    A trial that escapes raises the ConvergenceError of _spectra, with
    the [lo, hi] of its own eigensolve.
    """
    m, n = diag.shape
    below = np.nextafter(np.r_[-_FAIL_TOL, -_CLAMP_TOL, edges[1:-1]], -np.inf)
    w = np.r_[below, 1.0 + _CLAMP_TOL, 1.0 + _FAIL_TOL]
    # dlaebz's pivmin, safe minimum times max(1, max e^2); here e^2 <= 1
    pivmin = np.finfo(float).tiny
    d = np.ascontiguousarray(diag.T)[:, :, None]
    e2 = np.ascontiguousarray((off * off).T)[:, :, None]
    q = np.empty((m, len(w)))
    tmp = np.empty_like(q)
    small = np.empty(q.shape, bool)
    count = np.zeros(q.shape, np.int32)
    for j in range(n):
        if j:
            np.divide(e2[j - 1], q, out=tmp)
            np.subtract(d[j], tmp, out=q)
            q -= w
        else:
            np.subtract(d[0], w, out=q)
        np.less(np.abs(q, out=tmp), pivmin, out=small)
        np.copyto(q, -pivmin, where=small)
        count += np.less_equal(q, 0.0, out=small)
    escaped = (count[:, 0] > 0) | (count[:, -1] < n)
    if escaped.any():
        i = np.argmax(escaped)
        raise _escape_error(np.sort(_stevd(diag[i], off[i])[0]))
    return np.diff(count[:, 1:-1].sum(axis=0, dtype=np.int64))


def _trial_blocks(cfg: EnsembleConfig, seed: int, trials: int):
    """The streams of trials 0..trials-1 under `seed` (checked at the
    call), in order, one re-keyed generator (_TrialStreams) per block of
    about _SPECTRUM_BLOCK matrix entries."""
    folded = _fold_seed(seed)
    step = max(1, _SPECTRUM_BLOCK // cfg.N)
    return (
        _TrialStreams(folded, range(lo, min(lo + step, trials)))
        for lo in range(0, trials, step)
    )


def _spectrum_blocks(cfg: EnsembleConfig, seed: int, trials: int):
    """Spectra of trials 0..trials-1 under `seed` (checked at the call),
    in order as (m, N) blocks of about _SPECTRUM_BLOCK entries; row for
    trial i is bit for bit empirical_measure(cfg, substream(seed, i)).nodes."""
    shapes = _shape_arrays(cfg)
    return (
        _spectra(*_sampled_j(*_draw_each(shapes, streams)))
        for streams in _trial_blocks(cfg, seed, trials)
    )


def _histogram(cfg: EnsembleConfig, seed: int, trials: int, bins: int):
    """(counts, edges) of np.histogram over `bins` equal bins of [0, 1] of
    every eigenvalue of trials 0..trials-1 under `seed`, as
    _spectrum_blocks gives them, the counts summed block by block.

    Up to _COUNT_BINS_PER_SITE bins per site the counts come from Sturm
    counts at the bin edges (_bin_counts), with no eigensolve; past it,
    from the eigenvalues (_spectra).  Sturm counts cost O(N bins) per
    trial, the eigensolve O(N^2).  Per trial on a 2-vCPU host, draws
    included, counts against eigenvalues: 39 against 124 us at N = 60
    and 40 bins, 111 against 129 at 240 bins (4N), 204 against 137 at
    480; 158 against 987 us at N = 200 and 40 bins, 931 against 1058 at
    800 bins, 2146 against 1020 at 1600.  So the two cross between 4N and
    8N bins (at N = 10, between 8N and 16N), and 4N bins per site is the
    rule.  It also keeps the count arrays of a block near
    _COUNT_BINS_PER_SITE * _SPECTRUM_BLOCK entries.
    """
    shapes = _shape_arrays(cfg)
    edges = np.linspace(0.0, 1.0, bins + 1)  # np.histogram's, for range (0, 1)
    counts = np.zeros(bins, dtype=np.int64)
    for streams in _trial_blocks(cfg, seed, trials):
        j = _sampled_j(*_draw_each(shapes, streams))
        if bins <= _COUNT_BINS_PER_SITE * cfg.N:
            counts += _bin_counts(*j, edges)
        else:
            counts += np.histogram(_spectra(*j), bins, (0.0, 1.0))[0]
    return counts, edges


def empirical_measure(
    cfg: EnsembleConfig, rng: np.random.Generator
) -> DiscreteMeasure:
    """One sampled spectrum as a uniform-weight measure.

    Draws the squares (s^2, t^2) from the same stream, in the same
    order, as sample_model and assembles J from them directly;
    roundoff-level excursions past [0, 1] are clamped, larger ones raise.
    This is the one-trial block of the `sample` kernel, _spectra.
    """
    vals = _spectra(*_sampled_j(*_draw_pq(_shape_arrays(cfg), rng, 1)))[0]
    return DiscreteMeasure(vals, np.full(cfg.N, 1.0 / cfg.N))


def _band_step(band: list, d: np.ndarray, e: np.ndarray, into: np.ndarray,
               tmp: np.ndarray) -> list:
    """Upper diagonals of A J from those of a symmetric banded A.

    band[o] holds (A)_{r, r+o} as an (N - o, m) array; d (N, m) and
    e (N - 1, m) are the diagonal and off-diagonal of J.  Row r of
    diagonal o of A J is A_{r, r+o-1} e_{r+o-1} + A_{r, r+o} d_{r+o}
    + A_{r, r+o+1} e_{r+o}; on the main diagonal the first term reads
    the lower neighbour A_{r, r-1} = A_{r-1, r} by symmetry.  Diagonal o
    of the result is into[o, :N - o]; tmp, (N, m), holds the products.
    """
    n = d.shape[0]
    width = len(band) - 1
    out = []
    for o in range(min(width + 1, n - 1) + 1):
        res = into[o, : n - o]
        if o <= width:
            np.multiply(band[o], d[o:], out=res)
        else:
            res.fill(0.0)
        if o + 1 <= width:
            res[:-1] += np.multiply(band[o + 1], e[o:], out=tmp[: n - o - 1])
        if o == 0:
            if width >= 1:
                res[1:] += np.multiply(band[1], e, out=tmp[: n - 1])
        else:
            res += np.multiply(band[o - 1][: n - o], e[o - 1 :], out=tmp[: n - o])
        out.append(res)
    return out


def _frobenius(x: list, y: list) -> np.ndarray:
    """<X, Y>_F per column for symmetric banded X, Y given by upper diagonals."""
    acc = np.einsum("ij,ij->j", x[0], y[0])
    for o in range(1, min(len(x), len(y))):
        acc += 2.0 * np.einsum("ij,ij->j", x[o], y[o])
    return acc


def _band_traces(d: np.ndarray, e: np.ndarray, k_max: int, scratch: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """(1/N) tr J^k for k = 0..k_max into the (m, k_max + 1) out, for m
    tridiagonal matrices given site-major: d (N, m) is the diagonal and
    e (N - 1, m) the off-diagonal, so every pass runs over the trials.

    J^j is symmetric with bandwidth j, so only its upper diagonals are
    kept, stepped up to j = ceil(k_max / 2) by the three-term product
    with J, and each trace is read as a Frobenius inner product,
    tr J^(i+j) = <J^i, J^j>_F.  J^j has min(j, N - 1) + 1 diagonals, so
    the work is O(m N k_max min(k_max, N)); the products (N, m) and the
    band powers, three sets of (ceil(k_max / 2) + 1, N, m) taken in turn,
    are laid on the flat buffer scratch.  Returns out.  A row's bits do
    not depend on the rows stacked with it while m >= 2; einsum sums a
    lone row in another order.  exact_moment gives the mean of these
    traces by the closed walks from the first site.
    """
    n, m = d.shape
    half = (k_max + 1) // 2
    tmp, bands = _views(scratch, (n, m), (3, half + 1, n, m))
    bands[0, 0].fill(1.0)
    prev, cur = None, [bands[0, 0]]
    for j in range(half + 1):
        if j >= 1:
            out[:, 2 * j - 1] = _frobenius(prev, cur) / n
        if 2 * j <= k_max:
            out[:, 2 * j] = _frobenius(cur, cur) / n
        if j < half:
            prev, cur = cur, _band_step(cur, d, e, bands[(j + 1) % 3], tmp)
    return out


class _ChunkWork:
    """Work arrays of Monte Carlo chunks of up to `rows` trials at N = n
    and orders up to k_max, flat buffers each sized once: the draws p
    (rows, N) and q (rows, N - 1), their gamma totals, a block's
    site-major J, squares and band powers, and the moments
    (rows, k_max + 1).

    The totals are dead once p and q are drawn, so a block's arrays
    are laid on their buffer (_mc_chunk), and a block holds
    max(2, _TRACE_BLOCK // N, rows N // trace_size(1, N, k_max)) trials:
    as many as the totals leave room for, and at least about
    _TRACE_BLOCK entries.  The buffer outgrows the totals by more than
    the one trial a lone last trial adds only when the floor sets the
    block, so the peak grows with k_max only then (apart, a call at
    N = 200, 2000 trials peaked at 9.7 MB traced at k = 1 and 10.0 at
    k = 16).

    mc_moments allocates min(threads, chunks) of them in the calling
    thread and hands one to each chunk for its run.  Arrays a worker
    thread allocates come from its own malloc arena, which keeps their
    pages when they are freed, so each call's new threads would add to
    the process's peak RSS.
    """

    def __init__(self, rows: int, n: int, k_max: int):
        # trials per block of squares, J and band powers; a lone last
        # trial joins the block before it, so a block holds one more at most
        self.block = max(2, _TRACE_BLOCK // n, rows * n // self.trace_size(1, n, k_max))
        block = min(rows, self.block + 1)
        self.p, self.q = np.empty(rows * n), np.empty(rows * (n - 1))
        self.tot = np.empty(max(rows * n, self.trace_size(block, n, k_max)))
        self.moments = np.empty(rows * (k_max + 1))

    @staticmethod
    def trace_size(m: int, n: int, k_max: int) -> int:
        """Doubles a block of m trials takes: J's diagonals, then the
        products and three sets of band diagonals of _band_traces."""
        return m * ((3 * ((k_max + 1) // 2) + 6) * n - 1)


def _mc_chunk(shapes, rng, lo, hi, k_max, work: _ChunkWork):
    """(count, mean, M2) of the trace moments of trials lo..hi-1, drawn in
    bulk from the chunk's stream rng, M2 the sum of squared deviations
    from the chunk mean, every array on the work set `work`.

    The trials are traced one block of work.block at a time, on the
    buffer of the dead gamma totals.  A block's p and q are copied
    site-major, as (N, m) and (N - 1, m), and the one assembly
    (_bidiagonal_squares, _tridiagonal_from_squares) runs on their .T
    views, whose [..., 1:] walks memory in trial order: the squares go
    behind them, then J in their place, then the band powers over the
    squares (_band_traces).  A block holds one trial only if the chunk
    does (a lone last trial joins the block before it), so every row
    keeps the bits of the whole chunk traced at once.
    """
    rows, n = hi - lo, len(shapes[0])
    p, q = _draw_pq(shapes, rng, rows, work)
    starts = list(range(0, rows, work.block))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    (moments,) = _views(work.moments, (rows, k_max + 1))
    for a, b in zip(starts, starts[1:] + [rows]):
        site_major = ((n, b - a), (n - 1, b - a))
        # d and e hold the block's p and q, then J's diagonals
        d, e = _views(work.tot, *site_major)
        scratch = work.tot[d.size + e.size :]
        s2, t2 = _views(scratch, *site_major)
        np.copyto(d, p[a:b].T)
        np.copyto(e, q[a:b].T)
        _bidiagonal_squares(d.T, e.T, out=(s2.T, t2.T))
        _tridiagonal_from_squares(s2.T, t2.T, out=(d.T, e.T))
        _band_traces(d, e, k_max, scratch, moments[a:b])
    if not np.isfinite(moments).all():
        raise ConvergenceError(
            f"non-finite trace moment in trials {lo}..{hi - 1}; "
            "refusing to report moments"
        )
    mean = moments.mean(axis=0)
    dev = np.subtract(moments, mean, out=moments)
    return rows, mean, np.einsum("ij,ij->j", dev, dev)


def _merge_moments(left, right):
    """Pooled (count, mean, M2) of two disjoint samples (Chan, Golub and
    LeVeque's update).  (0, 0.0, 0.0) is its identity, bit for bit."""
    n_l, mean_l, m2_l = left
    n_r, mean_r, m2_r = right
    n = n_l + n_r
    delta = mean_r - mean_l
    return (
        n,
        mean_l + delta * (n_r / n),
        m2_l + m2_r + delta * delta * (n_l * n_r / n),
    )


def mc_moments(
    cfg: EnsembleConfig,
    k_max: int,
    trials: int,
    seed: int,
    *,
    threads: int = 1,
) -> tuple[MomentVector, np.ndarray]:
    """Monte Carlo estimate of the mean empirical moments m_k, k <= k_max.

    Each trial draws the tridiagonal entries of J and reads its moments
    (1/N) tr J^k straight from them by band powers (_band_traces), formed
    a block of trials at a time with the trials on the fast axis
    (_mc_chunk); no eigensolve is done, so every trial counts.  Sampled spectra, the
    independent route, come from empirical_measure.  Trials are drawn in
    chunks of at most _CHUNK trials and _CHUNK_ENTRIES matrix entries, each
    from its own keyed stream, and reduce to (count, mean, M2), merged in
    chunk order: reruns are identical whatever the thread count.  At most
    2 * threads chunks are in flight, and at most `threads` run, each on
    one of the min(threads, chunks) work sets (_ChunkWork) this call
    allocates in its own thread, with (rows, k_max + 1) moments and band
    buffers linear in k_max: memory grows with k_max, and with the
    trials until a chunk is full; each trial costs O(N k_max min(k_max, N)).
    `threads` is at most 64 (_MAX_THREADS).
    The sets are freed when the call returns, and the worker threads
    allocate none: the `ensemble` benchmark's peak RSS read 68.0-68.3 MB
    over twenty runs on a 2-vCPU host, and 80.1-88.7 MB when each worker
    kept its own.
    Returns (means, standard errors); means[0] is exactly 1, stderr[0] is
    0.  A non-finite trace raises ConvergenceError.
    """
    trials = as_count("trials", trials, 2)
    k_max = as_count("k_max", k_max)
    threads = as_count("threads", threads, 1, _MAX_THREADS)
    folded = _fold_seed(seed)
    shapes = _shape_arrays(cfg)
    step = min(_CHUNK, max(1, _CHUNK_ENTRIES // cfg.N))
    chunks = range(0, trials, step)
    # at most `threads` chunks run at once, so a chunk never waits for a set
    works = queue.SimpleQueue()
    for _ in range(min(threads, len(chunks))):
        works.put(_ChunkWork(min(step, trials), cfg.N, k_max))

    def run(lo: int):
        # one stream per chunk; keys are offset so they never collide
        # with the per-trial substream keys used by empirical_measure
        rng = _stream(folded, _CHUNK_KEY_BASE + lo // step)
        work = works.get()
        try:
            return _mc_chunk(shapes, rng, lo, min(lo + step, trials), k_max, work)
        finally:
            works.put(work)

    total = (0, 0.0, 0.0)
    with ThreadPoolExecutor(threads) as pool:
        # two chunks per thread in flight keep the workers busy while
        # this thread merges
        ahead = deque()
        for lo in chunks:
            ahead.append(pool.submit(run, lo))
            if len(ahead) == 2 * threads:
                total = _merge_moments(total, ahead.popleft().result())
        for future in ahead:
            total = _merge_moments(total, future.result())
    _, means, m2 = total
    stderr = np.sqrt(m2 / (trials - 1)) / np.sqrt(trials)
    means[0] = 1.0
    stderr[0] = 0.0
    return MomentVector(means), stderr


# ---------------------------------------------------------------------------
# exact mean moments: closed walks from the first site over the Beta chain


def _rooted_walks(alpha: np.ndarray, beta: np.ndarray, k: int) -> np.ndarray:
    """Means of (C^(2j))_00, j = 0..k, for the zero-diagonal path matrix C on
    vertices 0, 1, ... with off-diagonal sqrt(y_j (1 - y_{j-1})), where
    y_0 = 0 and y_1, y_2, ... are independent Beta(alpha_j, beta_j).

    A closed walk from vertex 0 crossing edge j 2 m_j times has mean
    prod_{v>=1} E[y_v^m_v (1 - y_v)^m_{v+1}] = prod_{v>=1} (alpha_v)_{m_v}
    (beta_v)_{m_{v+1}} / (alpha_v + beta_v)_{m_v + m_{v+1}}, and there are
    prod_{v>=1} C(m_v + m_{v+1} - 1, m_{v+1}) such walks.  The state [m_v,
    crossings used] starts as the identity, since y_0 = 0 pins the walk
    to vertex 0, and takes one step per variable; a walk of 2j steps
    crosses no edge past the j-th, so only the first j variables enter
    entry j (later ones add it exact zeros).  Every term is positive.
    """
    alpha, beta = alpha[:k], beta[:k]
    m = np.arange(k + 1)

    def ratio(x, y):  # (x)_j / (y)_j for j = 0..k on a new last axis
        steps = (x[..., None] + m[:-1]) / (y[..., None] + m[:-1])
        return np.cumprod(np.concatenate([np.ones_like(steps[..., :1]), steps], -1), -1)

    # mean[v, m_v, m_{v+1}] of y_v^m_v (1 - y_v)^m_{v+1}; ratios stay finite
    ab = alpha + beta
    mean = ratio(alpha, ab)[:, :, None] * ratio(beta[:, None], ab[:, None] + m)
    # walks per vertex [m_v, m_{v+1}] past the start
    past = np.array([[comb(i + j - 1, j) if i + j else 1 for j in m] for i in m], float)
    # spend[u, m', u'] = [u' == u + m']: crossings used before and after
    spend = (m[:, None, None] + m[:, None] == m).astype(float)
    state = np.eye(k + 1)
    for f in mean:
        state = np.einsum("mu,mp,upw->pw", state, f * past, spend)
    return state[0]


def exact_moment(n: int, kappa: float, a: float, b: float, k: int) -> float:
    """Exact ensemble-mean moment E[(1/N) tr J^k] at finite N.

    The spectral weights of J at e1 are Dirichlet(kappa, ..., kappa) and
    independent of its eigenvalues (Killip and Nenciu, IMRN 2004:50), so
    the mean of (1/N) tr J^k is that of (J^k)_11.  The sampler's Beta
    variables form one chain y_1..y_{2N-1} = p_1, q_1, p_2, ..., p_N, with
    y_0 = 0 and the shapes of _shape_arrays (whose EnsembleConfig(n,
    2 kappa, a, b) validates the parameters).  The squares
    w_j = y_j (1 - y_{j-1}) are s_n^2 (odd j) and t_n^2 (even j), and J
    is the even-vertex block of C^2 for the zero-diagonal path matrix C
    with off-diagonal sqrt(w_j), so (J^k)_11 = (C^(2k))_00, the closed
    walks from vertex 0 that _rooted_walks sums.  They reach only the
    first k variables, so neither time nor memory grows with N.
    """
    cfg = EnsembleConfig(n, 2.0 * as_real("kappa", kappa), a, b)
    k = as_count("k", k, 0, MAX_EXACT_K)
    return float(_exact_moments(cfg, k)[k])


def _exact_moments(cfg: EnsembleConfig, k_max: int) -> np.ndarray:
    """E[(1/N) tr J^k], k = 0..k_max, for a validated cfg: exact_moment's row."""
    alpha_p, beta_p, alpha_q, beta_q = _shape_arrays(cfg, k_max // 2 + 1)
    alpha, beta = np.empty((2, len(alpha_p) + len(alpha_q)))
    alpha[0::2], beta[0::2], alpha[1::2], beta[1::2] = alpha_p, beta_p, alpha_q, beta_q
    return _rooted_walks(alpha, beta, k_max)


# ---------------------------------------------------------------------------
# kappa -> infinity limit


def limit_pq(size: int, n_param: float, a_slope: float, b_slope: float):
    """Limits of the Beta means: p_n -> (n-N-A)/(2n-2N-A-B),
    q_n -> (n-N)/(2n-2N-A-B+1), for n = 1..size (q stops at size-1).

    `n_param` is the N appearing in the formulas; it usually equals
    `size` but may be any real (the formulas continue analytically, which
    is how the substitution identity against the third model is checked).
    """
    size = as_count("size", size, 1, _MAX_SIZE)
    n_param = as_real("n_param", n_param)
    a_slope, b_slope = as_real("a_slope", a_slope), as_real("b_slope", b_slope)
    n = np.arange(1, size + 1, dtype=float)
    den = 2.0 * n - 2.0 * n_param - a_slope - b_slope
    if np.any(den == 0.0) or np.any(den + 1.0 == 0.0):
        raise ParameterError("limit formulas hit a vanishing denominator")
    p_lim = (n - n_param - a_slope) / den
    q_lim = ((n - n_param) / (den + 1.0))[: size - 1]
    return p_lim, q_lim


def limit_bidiagonal_squares(
    size: int, n_param: float, a_slope: float, b_slope: float
):
    """Deterministic limits of (s_n^2, t_n^2) under a = A kappa, b = B kappa.

    Assembled from limit_pq by the sampler's own kernel (with q_0 = 0),
    so the finite-kappa and limit pipelines share their arithmetic.
    """
    return _bidiagonal_squares(*limit_pq(size, n_param, a_slope, b_slope))
