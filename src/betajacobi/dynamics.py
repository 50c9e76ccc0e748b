"""Interacting particle dynamics on [0, 1] and the moment hierarchy.

N particles follow coupled Jacobi-type diffusions with electrostatic
repulsion; their empirical power moments obey, in the c = beta N / 2
regime, an autonomous quadratic ODE hierarchy whose fixed point matches
the spectral moments of the third associated model.  Both levels are
implemented: an Euler-Maruyama particle scheme and an RK4 integrator for
the hierarchy, plus the recursion generating the stationary moments.
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass

import numpy as np

from .coeffs import _MAX_SIZE, JacobiParams, ModelKind, lambda_hat0, validate_model
from .ensemble import EnsembleConfig, substream
from .errors import ConvergenceError, ParameterError, as_count, as_real, as_real_array
from .spectral import _MAX_MOMENT_ORDER, MomentVector

__all__ = [
    "MomentPath",
    "simulate_moments",
    "ode_rhs",
    "integrate_moments",
    "stationary_uk",
]

# pairwise gaps below this are treated as hard collisions
EPS_DIV = 1e-12


@dataclass(frozen=True)
class MomentPath:
    """Moment trajectories: times (T,), moments (T, k_max+1), m_0 = 1."""

    times: np.ndarray
    moments: np.ndarray

    def __post_init__(self) -> None:
        t = as_real_array("times", self.times)
        m = as_real_array("moments", self.moments)
        if t.ndim != 1 or m.ndim != 2 or len(t) != m.shape[0]:
            raise ParameterError("need 1d times and moments of shape (len(times), k_max + 1)")
        if not np.all(np.abs(m[:, 0] - 1.0) <= 1e-9):
            raise ParameterError("column 0 must be the constant 1")
        vars(self).update(times=t, moments=m)


class _StepWork:
    """Work arrays for Euler-Maruyama steps of one (..., N) batch shape,
    and the one pair kernel (interaction), drift and step on them.

    simulate_moments keeps one for all its steps, so a step allocates
    nothing.  At N = 40 and 400 paths the arrays take about 0.9 MiB, and
    the offset-block gap array 125 KB, which stays in cache.  At N = 40
    on a 2-vCPU host (medians of interleaved runs) the pair kernel took
    0.82 ms at 400 paths and 0.28 ms at 100, against 1.24 and 0.39 ms
    for one buffer of all N(N-1)/2 pair gaps (2.4 MiB at 400 paths) with
    the fix-ups on every gap (tests/oracles.py::pair_buffer_interaction);
    300 steps from a point mass took 1.63 ms a step at 400 paths and
    0.48 ms at 100, against 2.58 and 0.63 ms for the step on fresh
    arrays with the whole-buffer kernel.  At 400 paths the pair kernel
    is about half of the step and the normals about a fifth.
    """

    def __init__(self, shape: tuple):
        n, batch = shape[-1], tuple(shape[:-1])
        # particle-first, so every pass of the pair kernel runs
        # contiguously over the batch
        self.xt = np.empty((n,) + batch)
        self.total = np.empty((n,) + batch)
        self.gap = np.empty((max(n - 1, 0),) + batch)
        self.ties = np.empty(self.gap.shape, dtype=bool)
        self.xx, self.mu, self.sigma, self.noise = (np.empty(shape) for _ in range(4))
        # per offset o: the upper and lower particles of its pairs, its
        # rows of the gap block and of the tie mask, and the rows of
        # total they add to and subtract from; built once, since at 100
        # paths making these views every step cost about a fifth of the
        # pair kernel
        xt, total = self.xt, self.total
        self.offsets = [
            (xt[o:], xt[:-o], self.gap[: n - o], self.ties[: n - o], total[o:], total[:-o])
            for o in range(1, n)
        ]

    def interaction(self, x: np.ndarray) -> np.ndarray:
        """sum_{j != i} 1 / (x_i - x_j) for each particle i of (..., N)
        positions x, as a (..., N) view of the work array total.

        Offsets o = 1..N-1 run one at a time through one (N-1, ...) gap
        block: the gaps x_{i+o} - x_i of each unordered pair, taken once,
        then their reciprocals, clipped at +-1/EPS_DIV.  Clipping the
        reciprocal equals flooring a nonzero |gap| at EPS_DIV with the
        sign kept.  Exactly coincident pairs (a point-mass start,
        particles clamped to the same wall) contribute zero: a tie has
        no well-defined repulsion direction, and one noise step
        separates the pair.  By antisymmetry each block is added to the
        upper particle of its pairs and subtracted from the lower one,
        offsets in increasing order, so a row of a batch gets the same
        bits as the same configuration alone.

        The tie mask, the clip and the zeroing of ties run only on the
        offsets that can need them.  When the smallest offset-1 gap is
        >= 0, every row is sorted; correct rounding is monotone, so then
        fl(x_{i+o+1} - x_i) >= fl(x_{i+o} - x_i), and no offset's
        smallest gap is below the one before it.  Once an offset's
        smallest gap g is >= EPS_DIV, that offset and every later one
        has no tie, and 0 < fl(1/g) <= fl(1/EPS_DIV), so the clip changes
        nothing.  Unsorted rows and NaN (the minimum is NaN, and no
        comparison holds) keep the fix-ups on every offset.  Each
        element thus takes the operations of the whole-buffer kernel in
        the same order, bit for bit
        (tests/oracles.py::pair_buffer_interaction).
        """
        np.copyto(self.xt, np.moveaxis(x, -1, 0))
        self.total.fill(0.0)
        fixups, ordered = True, False
        # ties give +-inf and subnormal gaps overflow; the clip and the
        # tie mask below settle both
        with np.errstate(divide="ignore", over="ignore"):
            for o, (upper, lower, g, ties, up, down) in enumerate(self.offsets, 1):
                np.subtract(upper, lower, out=g)
                if fixups and (o == 1 or ordered):
                    low = g.min(initial=np.inf)
                    ordered = low >= 0.0
                    fixups = not low >= EPS_DIV
                if fixups:
                    np.equal(g, 0.0, out=ties)
                    np.divide(1.0, g, out=g)
                    np.clip(g, -1.0 / EPS_DIV, 1.0 / EPS_DIV, out=g)
                    np.copyto(g, 0.0, where=ties)
                else:
                    np.divide(1.0, g, out=g)
                np.add(up, g, out=up)
                np.subtract(down, g, out=down)
        return np.moveaxis(self.total, 0, -1)

    def drift(self, x: np.ndarray, a: float, b: float, beta: float):
        """(mu, sigma) of the (..., N) positions x in the work arrays:
        mu = (a + 1) - (a + b + 2) x + beta x (1 - x) I(x) with I the
        repulsion of interaction, sigma = sqrt(2 max(x (1 - x), 0)),
        each element by the operations of that expression in its order."""
        xx, mu, sigma = self.xx, self.mu, self.sigma
        total = self.interaction(x)
        np.subtract(1.0, x, out=xx)
        xx *= x
        np.multiply(a + b + 2.0, x, out=mu)
        np.subtract(a + 1.0, mu, out=mu)
        np.multiply(beta, xx, out=sigma)
        sigma *= total
        mu += sigma
        np.maximum(xx, 0.0, out=sigma)
        sigma *= 2.0
        np.sqrt(sigma, out=sigma)
        return mu, sigma

    def step(self, x: np.ndarray, a: float, b: float, beta: float, dt: float, rng):
        """Euler-Maruyama step of the (..., N) positions x, in place:
        x + mu dt + sigma (sqrt(dt) Z) with Z drawn in x's shape, then
        clamped to [0, 1] and each configuration re-sorted.  Returns x."""
        mu, sigma = self.drift(x, a, b, beta)
        z = self.noise
        rng.standard_normal(out=z)
        z *= np.sqrt(dt)
        z *= sigma
        mu *= dt
        mu += x
        mu += z
        np.clip(mu, 0.0, 1.0, out=x)
        x.sort(axis=-1)
        return x


def _schedule(t_end: float, dt: float):
    """(dt, steps, stride): dt as a float, fixed steps of dt up to t_end,
    and the steps between records, for about 200 records and at least 1.

    t_end must be a whole number of steps, to 1e-9 relative: a run that
    stopped short of t_end, or ran no step at all, would report its last
    record as the state at t_end."""
    t_end, dt = as_real("t_end", t_end), as_real("dt", dt)
    if not (t_end > 0.0 and dt > 0.0):
        raise ParameterError(f"t_end and dt must be positive, got {t_end!r}, {dt!r}")
    ratio = t_end / dt
    if not np.isfinite(ratio):
        raise ParameterError(f"t_end / dt overflows: t_end = {t_end!r}, dt = {dt!r}")
    steps = int(round(ratio))
    if abs(steps * dt - t_end) > 1e-9 * t_end:
        raise ParameterError(
            f"t_end = {t_end!r} is not a whole number of steps dt = {dt!r}: "
            f"the nearest is {steps} steps, to t = {steps * dt!r}"
        )
    return dt, steps, max(1, steps // 200)


def _power_means(x: np.ndarray, k_max: int) -> np.ndarray:
    """(paths, k_max + 1) means over the particles of x^k, k = 0..k_max,
    for (paths, N) positions, by running products."""
    out = np.empty((x.shape[0], k_max + 1))
    out[:, 0] = 1.0
    pw = np.ones_like(x)
    for k in range(1, k_max + 1):
        pw *= x
        out[:, k] = pw.mean(axis=1)
    return out


def simulate_moments(
    n: int,
    a: float,
    b: float,
    beta: float,
    x0: float | np.ndarray,
    t_end: float,
    dt: float,
    paths: int,
    k_max: int,
    seed: int,
) -> tuple[MomentPath, np.ndarray]:
    """Path-averaged empirical moments of the N-particle SDE.

    x0 is one position for every particle or a length-N array, each in
    [0, 1]; the start is sorted.  All paths step together as a
    (paths, N) batch on one substream, so the run is reproducible from
    (seed,) alone.  Returns (path, stderr) where stderr[t, k] is the
    across-path standard error at each record time: t = 0, about 200
    evenly spaced steps, and the final step.  t_end must be a whole
    number of steps dt.
    """
    n, beta, a, b = astuple(EnsembleConfig(n, beta, a, b))  # the ensemble's checks
    # the (paths, N) positions, at most the package's largest truncation
    paths = as_count("paths", paths, 2, _MAX_SIZE // n)
    k_max = as_count("k_max", k_max, 0, _MAX_MOMENT_ORDER)
    dt, steps, stride = _schedule(t_end, dt)

    start = as_real_array("x0", x0) if np.ndim(x0) else np.full(n, as_real("x0", x0))
    if start.shape != (n,):
        raise ParameterError("x0 must be a scalar or a length-N array")
    if not np.all((start >= 0.0) & (start <= 1.0)):
        raise ParameterError("positions must lie in [0, 1]")
    x = np.tile(np.sort(start), (paths, 1))
    work = _StepWork(x.shape)

    rng = substream(seed, 0)
    times = [0.0]

    def record(xb):
        per_path = _power_means(xb, k_max)
        return per_path.mean(axis=0), per_path.std(axis=0, ddof=1) / np.sqrt(paths)

    m0, s0 = record(x)
    mom_rows, err_rows = [m0], [s0]
    for step in range(1, steps + 1):
        work.step(x, a, b, beta, dt, rng)
        if step % stride == 0 or step == steps:
            mk, sk = record(x)
            mom_rows.append(mk)
            err_rows.append(sk)
            times.append(step * dt)
    path = MomentPath(np.array(times), np.vstack(mom_rows))
    return path, np.vstack(err_rows)


def _hierarchy_coefficients(p: JacobiParams, k_max: int):
    """The k-dependent factors of ode_rhs for k = 1..k_max, as float
    lists: -k (2c + a + b + k + 1), k (a + k) and c k."""
    a, b, c = p.a, p.b, p.c
    ks = [float(k) for k in range(1, k_max + 1)]
    return (
        [-k * (2.0 * c + a + b + k + 1.0) for k in ks],
        [k * (a + k) for k in ks],
        [c * k for k in ks],
    )


# The highest order K that ode_rhs and integrate_moments take.  The
# kernel's source grows like K^2, and so do its build and its memory: on
# a 2-vCPU host, 7-10 ms, 21 kB of source and a 2 MiB compile peak at
# K = 20; 30-44 ms, 110 kB and 10.7 MiB at K = 64; 0.2-0.3 s, 0.8 MB and
# 58 MiB at K = 200.  RK4 on the hierarchy is stable only for dt below
# about 2.8 / (K (K + 2c + a + b + 1)), which at K = 64 is 7e-4 or less.
# The package's own calls use K <= 6.
_MAX_ORDER = 64


def _rhs_lines(xs: list, out: str) -> list:
    """Source lines that set {out}k, k = 1..K, to the hierarchy's right
    side at the moments named xs[0..K], with the k-th factors of
    _hierarchy_coefficients in the locals Dk, Fk and Qk.

    The self-convolution c_j = sum_{i=0}^{j} x_i x_{j-i} is formed once
    per j: a sum that starts at 0.0 and adds each pair i < j - i once, is
    doubled, and takes the middle square when j is even.  Row k then reads
    sum_{i+j=k-1} x_i x_j = c_{k-1} and, with the i = 0 and i = k terms
    stripped, sum_{j=1}^{k-1} x_j x_{k-j} = c_k - 2 x_k.
    """
    lines = []
    for j in range(len(xs)):
        pairs = [f"{xs[i]} * {xs[j - i]}" for i in range((j + 1) // 2)]
        lines.append(f"c{j} = " + " + ".join(["0.0"] + pairs))
        twice = f"c{j} + c{j}"
        if not j & 1:
            twice += f" + {xs[j >> 1]} * {xs[j >> 1]}"
        lines.append(f"c{j} = {twice}")
    for k in range(1, len(xs)):
        lines.append(
            f"{out}{k} = D{k} * {xs[k]} + F{k} * {xs[k - 1]} + Q{k} * c{k - 1}"
            f" - Q{k} * (c{k} - 2.0 * {xs[k]})"
        )
    return lines


def _hierarchy_source(k_max: int) -> str:
    """Source of the hierarchy kernel of order k_max: two functions of the
    moments m0..mK, as straight-line Python that depends on k_max alone.

    Both first unpack the factor lists D, F and Q into locals.
    rhs(m0, ..., mK) returns ode_rhs as a float list.  step(m0, ..., mK)
    returns the RK4 step m + sixth (k1 + 2 k2 + 2 k3 + k4) as a tuple,
    with the stage inputs m + half k1, m + half k2 and m + dt k3, or None
    when some |m_k| of the result is not <= 10 (NaN included).  Row 0 of
    the right side is 0.0, so m0 + h * 0.0 is m0 for the positive m0 that
    _moment_list admits, and the stages hold m0 as it is.
    """
    ks = range(1, k_max + 1)
    ms = [f"m{k}" for k in range(k_max + 1)]
    xs = ["m0"] + [f"x{k}" for k in ks]
    unpack = [", ".join(f"{f}{k}" for k in ks) + f", = {f}" for f in "DFQ" if k_max]
    step = unpack + _rhs_lines(ms, "d1_")
    for s, h in enumerate(("half", "half", "dt"), 1):
        step += [f"x{k} = m{k} + {h} * d{s}_{k}" for k in ks]
        step += _rhs_lines(xs, f"d{s + 1}_")
    step += [
        f"n{k} = m{k} + sixth * (d1_{k} + 2.0 * d2_{k} + 2.0 * d3_{k} + d4_{k})"
        for k in ks
    ]
    bounded = " and ".join(f"-10.0 <= n{k} <= 10.0" for k in ks) or "True"
    step += [
        f"if {bounded}:",
        "    return (" + ", ".join(["m0"] + [f"n{k}" for k in ks]) + ",)",
        "return None",
    ]
    rhs = unpack + _rhs_lines(ms, "r")
    rhs.append("return [" + ", ".join(["0.0"] + [f"r{k}" for k in ks]) + "]")
    head = ", ".join(ms)
    return "\n".join(
        f"def {name}({head}):\n" + "".join(f"    {line}\n" for line in body)
        for name, body in (("rhs", rhs), ("step", step))
    )


@functools.lru_cache(maxsize=8)
def _hierarchy_code(k_max: int):
    """_hierarchy_source(k_max), compiled once per order."""
    return compile(_hierarchy_source(k_max), f"<moment hierarchy K={k_max}>", "exec")


def _hierarchy_kernel(p: JacobiParams, k_max: int, dt: float = 0.0):
    """(rhs, step) of _hierarchy_source(k_max) at p and step dt.

    The three lists of _hierarchy_coefficients and dt, dt / 2 and dt / 6
    are the functions' globals, bound at each call, as the standard library's
    dataclasses builds __init__: no parameter value is formatted into the
    source, which is compiled once per order (_hierarchy_code).

    Every float operation is the one of the float loop this replaced
    (tests/oracles.py::textbook_integrate_moments), in the same order, so
    every bit is kept.  Per RK4 step on a 2-vCPU host (medians of eleven
    interleaved runs in one process), against that loop: 2.1 against
    17.3 us at K = 1, 6.7 against 33 at K = 4, 9.8 against 43 at K = 6,
    20 against 68 at K = 12, 35 against 104 at K = 20 and 196 against
    451 at K = 64.  An RK4 step on np.convolve with the factors as arrays
    took 85-111 us at every K <= 64 on the same host, so it overtakes
    this kernel between K = 32 and 40; the package's calls use K <= 6,
    so there is one kernel and no switch on K.  Building the kernel
    (_hierarchy_code) takes about 1 ms at K = 4, once per process.
    """
    as_count("moment hierarchy order k_max", k_max, 0, _MAX_ORDER)
    decay, feed, quad = _hierarchy_coefficients(p, k_max)
    names = dict(D=decay, F=feed, Q=quad, dt=dt, half=0.5 * dt, sixth=dt / 6.0)
    exec(_hierarchy_code(k_max), names)
    return names["rhs"], names["step"]


def _moment_list(m, name: str) -> list:
    """m as a float list after the checks shared by ode_rhs and
    integrate_moments: a nonempty 1-d finite vector with m[0] = 1."""
    arr = as_real_array(name, m)
    if arr.ndim != 1 or len(arr) < 1:
        raise ParameterError(f"{name} must be a nonempty 1-d array")
    if abs(arr[0] - 1.0) > 1e-9:
        raise ParameterError(f"{name}[0] must be 1")
    return arr.tolist()


def ode_rhs(m: np.ndarray, p: JacobiParams) -> np.ndarray:
    """Right side of the autonomous moment hierarchy.

    m_k' = -k (2c + a + b + k + 1) m_k + k (a + k) m_{k-1}
           + c k sum_{i=0}^{k-1} m_i m_{k-1-i} - c k sum_{j=1}^{k-1} m_j m_{k-j}

    with m_0 = 1 held fixed.  Both quadratic sums come from one
    self-convolution of m.  m must be a nonempty, finite 1-d vector with
    m[0] = 1, as for integrate_moments.
    """
    m = _moment_list(m, "m")
    rhs, _ = _hierarchy_kernel(p, len(m) - 1)
    return np.array(rhs(*m))


def integrate_moments(
    m0: np.ndarray,
    p: JacobiParams,
    t_end: float,
    dt: float,
) -> MomentPath:
    """Fixed-step RK4 for the moment hierarchy from m0 (with m0[0] = 1),
    recorded like simulate_moments; t_end must be a whole number of
    steps dt.

    One call of the generated step of _hierarchy_kernel per RK4 step,
    m + (dt / 6)(k1 + 2 k2 + 2 k3 + k4) on the right side of ode_rhs;
    every step checks |m_k| <= 10.  K = len(m0) - 1 is at most _MAX_ORDER.
    """
    m = _moment_list(m0, "m0")
    dt, steps, stride = _schedule(t_end, dt)
    _, advance = _hierarchy_kernel(p, len(m) - 1, dt)
    times = [0.0]
    rows = [m]
    for step in range(1, steps + 1):
        m = advance(*m)
        if m is None:
            raise ConvergenceError(
                f"moment hierarchy blew up at t = {step * dt:.6g}"
            )
        if step % stride == 0 or step == steps:
            times.append(step * dt)
            rows.append(m)
    return MomentPath(np.array(times), np.array(rows))


def stationary_uk(p: JacobiParams, k_max: int) -> MomentVector:
    """Fixed point of the hierarchy by recursion:

    u_k = [ (a + k) u_{k-1} + c sum_{i=0}^{k-1} u_i u_{k-1-i}
            - c sum_{j=1}^{k-1} u_j u_{k-j} ] / (2c + a + b + k + 1),

    u_0 = 1.  The j-sum never touches u_k, so the recursion is closed.
    u_1 reproduces the spectral head coefficient.  The u_k are the
    moments of the ASSOC_III spectral measure, so p must satisfy that
    model's constraints, as in moment11.  The two sums make the time
    quadratic in k_max, about 0.53 s at the largest, k_max = 2**14, as
    for moment11 (2-vCPU host).
    """
    k_max = as_count("k_max", k_max, 0, _MAX_MOMENT_ORDER)
    validate_model(ModelKind.ASSOC_III, p)
    a, b, c = p.a, p.b, p.c
    u = np.empty(k_max + 1)
    u[0] = 1.0
    for k in range(1, k_max + 1):
        den = 2.0 * c + a + b + k + 1.0
        if den == 0.0:
            raise ParameterError(f"stationary recursion hits zero divisor at k={k}")
        low = float(np.dot(u[:k], u[k - 1 :: -1]))
        high = float(np.dot(u[1:k], u[k - 1 : 0 : -1]))
        u[k] = ((a + k) * u[k - 1] + c * low - c * high) / den
    if k_max >= 1:
        expect = lambda_hat0(JacobiParams(a, b, c))
        if not abs(u[1] - expect) <= 1e-12 * max(1.0, abs(expect)):
            raise ConvergenceError(
                f"stationary u_1 = {u[1]!r} misses the spectral head "
                f"coefficient {expect!r}"
            )
    return MomentVector(u)

