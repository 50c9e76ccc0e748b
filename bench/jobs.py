"""The three workloads as fixed job lists built from a seed.

A job computes one quantity by the route under test and by an
independent route, and returns its outputs (arrays, or the text a CLI
command printed) and its checks.  Jobs call the package through module
attributes looked up at call time (`bj.mc_moments`, `cli.main`), so the
tracer's wrappers, when installed, see every call.

Check tolerances are those of the matching `verify` criterion.  A check
is a *gate* when the package claims it: a stochastic 4-sigma gate, a
structural or determinism check, or a cross-route tolerance at the
criterion's own pinned point.  The same tolerance applied anywhere else
(drawn points, other pinned points, the README parameters) is a *margin*
check.  Both kinds count as job failures in `pass_ratio`; only gates
decide `correct` and the result line's `failed`.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import betajacobi as bj
import betajacobi.cli as cli

III = bj.ModelKind.ASSOC_III

# (a, b, c) points the verify criteria pin, and which criteria pin each
PINNED = {
    (0.5, 0.5, 1.0): {"density"},
    (0.3, 0.7, 1.2): {"mfunction"},
    (0.3, 0.7, 1.5): {"polynomials"},
    (-0.3, 0.8, 2.0): {"density"},
}
MFUNCTION_Z = (0.5 + 0.5j, 2.0 + 1.0j, -1.0 + 0.25j)


@dataclass
class Check:
    name: str
    value: float  # measured: a deviation, a sigma, or 1.0 for a broken invariant
    tol: float
    gate: bool = True
    # deterministic cross-route checks only: "pinned" at seed-independent
    # inputs (these make err_over_tol) or "drawn" at seed-drawn points
    where: str = ""

    @property
    def ok(self) -> bool:
        return bool(math.isfinite(self.value)) and self.value <= self.tol


@dataclass
class Job:
    name: str
    params: dict
    run: Callable[[], tuple[dict, list]]
    cli: bool = False


@dataclass
class Sizes:
    weak_trials: int
    trend_trials: int
    thread_trials: int
    big_n: int
    big_trials: int
    sample_trials: int
    sde_t_end: float
    sde_paths: int
    cli_sde_paths: int
    drawn_points: int
    poly_degree: int
    poly_xs: tuple
    gauss_size: int
    density_grid: int
    stieltjes_points: int
    rk4_t_end: float
    rk4_dt: float


FULL = Sizes(
    weak_trials=4000, trend_trials=10**6, thread_trials=4 * 65536,
    big_n=200, big_trials=2000, sample_trials=2000,
    sde_t_end=0.03, sde_paths=400, cli_sde_paths=100,
    drawn_points=12, poly_degree=10, poly_xs=tuple(np.arange(1, 10) / 10.0),
    gauss_size=40, density_grid=201, stieltjes_points=61, rk4_t_end=10.0, rk4_dt=1e-3,
)
# seconds for all three workloads; the harness self-test runs this
TINY = Sizes(
    weak_trials=400, trend_trials=70000, thread_trials=70000,
    big_n=40, big_trials=200, sample_trials=50,
    sde_t_end=0.005, sde_paths=40, cli_sde_paths=20,
    drawn_points=2, poly_degree=3, poly_xs=(0.2, 0.7),
    gauss_size=12, density_grid=21, stieltjes_points=7, rk4_t_end=10.0, rk4_dt=0.05,
)


# ---------------------------------------------------------------------------
# helpers


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"betajacobi {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _column(header, rows, name, cond=None) -> np.ndarray:
    j = header.index(name)
    return np.array([float(r[j]) for r in rows if cond is None or cond(r)])


def _sigma(got, ref, se) -> float:
    return float(abs(got - ref) / se) if se > 0 else math.inf


def _limit_moments(p: bj.JacobiParams, k_max: int) -> list[float]:
    return [bj.moment11(III, p, k) for k in range(k_max + 1)]


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=n)]


def draw_point(rng: np.random.Generator) -> tuple[float, float, float]:
    """(a, b, c) with a at least 0.05 from an integer, c > 0 and
    c + a, c + b > 0.1, so the closed density and both explicit
    polynomial formulas are defined."""
    while True:
        a = float(rng.uniform(-0.8, 1.9))
        b = float(rng.uniform(-0.8, 1.9))
        c = float(rng.uniform(0.2, 2.5))
        if abs(a - round(a)) > 0.05 and c + a > 0.1 and c + b > 0.1:
            return (round(a, 6), round(b, 6), round(c, 6))


# ---------------------------------------------------------------------------
# ensemble: bulk Beta draws and the batched eigensolve


def ensemble_jobs(seed: int, sz: Sizes, threads: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    s_weak, s_trend, s_thr, s_big, s_sample = _seeds(rng, 5)
    big_a, big_b = (round(float(v), 6) for v in rng.uniform(0.0, 1.0, size=2))
    jobs = []

    def weak():
        # weak-convergence: N=60 within 4 sigma of the limit, and closer
        # to it than N=15 up to noise
        p = bj.JacobiParams(0.5, 0.5, 1.0)
        ref = _limit_moments(p, 4)
        m60, se60 = bj.mc_moments(bj.EnsembleConfig(60, 2.0 / 60, 0.5, 0.5), 4, sz.weak_trials, s_weak)
        m15, se15 = bj.mc_moments(bj.EnsembleConfig(15, 2.0 / 15, 0.5, 0.5), 4, sz.weak_trials, s_weak)
        checks = [Check(f"sigma60_k{k}", _sigma(m60[k], ref[k], se60[k]), 4.0) for k in range(1, 5)]
        for k in (1, 2):
            lhs = abs(m60[k] - ref[k])
            rhs = abs(m15[k] - ref[k]) + 4.0 * math.hypot(se60[k], se15[k])
            checks.append(Check(f"gap_k{k}", lhs / rhs, 1.0))
        return {"m60": m60.values, "se60": se60, "m15": m15.values, "se15": se15}, checks

    jobs.append(Job("mc-weak", {"N": [60, 15], "trials": sz.weak_trials, "K": 4, "seed": s_weak}, weak))

    def trend():
        # moment-trend: exact finite-N means drift toward the limit, and
        # the sampled N=3 mean matches the exact one
        p = bj.JacobiParams(0.5, 0.5, 1.0)
        ref = _limit_moments(p, 4)
        devs = {n: [abs(bj.exact_moment(n, 1.0 / n, 0.5, 0.5, k) - ref[k]) for k in range(1, 5)]
                for n in (2, 8)}
        broken = sum(devs[8][i] >= devs[2][i] + 1e-13 for i in range(4))
        exact = [bj.exact_moment(3, 0.7, 0.2, 0.4, k) for k in range(4)]
        m, se = bj.mc_moments(bj.EnsembleConfig(3, 1.4, 0.2, 0.4), 3, sz.trend_trials, s_trend,
                              threads=threads)
        checks = [Check("exact_trend_broken", float(broken), 0.5)]
        checks += [Check(f"sigma_k{k}", _sigma(m[k], exact[k], se[k]), 4.0) for k in range(1, 4)]
        return {"m": m.values, "se": se, "exact": np.array(exact)}, checks

    jobs.append(Job("mc-trend", {"N": 3, "trials": sz.trend_trials, "K": 3, "threads": threads,
                                 "seed": s_trend}, trend))

    def thread_check():
        cfg = bj.EnsembleConfig(3, 1.4, 0.2, 0.4)
        one = bj.mc_moments(cfg, 3, sz.thread_trials, s_thr, threads=1)
        many = bj.mc_moments(cfg, 3, sz.thread_trials, s_thr, threads=threads)
        same = one[0].values.tobytes() == many[0].values.tobytes() and one[1].tobytes() == many[1].tobytes()
        return {"m": one[0].values, "se": one[1]}, [Check("threads_differ", float(not same), 0.5)]

    jobs.append(Job("mc-threads", {"N": 3, "trials": sz.thread_trials, "threads": [1, threads],
                                   "seed": s_thr}, thread_check))

    def big():
        p = bj.JacobiParams(big_a, big_b, 1.0)
        ref = _limit_moments(p, 8)
        m, se = bj.mc_moments(bj.EnsembleConfig(sz.big_n, 2.0 / sz.big_n, big_a, big_b), 8,
                              sz.big_trials, s_big)
        return {"m": m.values, "se": se}, [
            Check(f"sigma_k{k}", _sigma(m[k], ref[k], se[k]), 4.0) for k in range(1, 9)
        ]

    jobs.append(Job("mc-big", {"N": sz.big_n, "trials": sz.big_trials, "K": 8, "a": big_a,
                               "b": big_b, "c": 1.0, "seed": s_big}, big))

    def sample():
        n = 60
        text = run_cli(["sample", "--n", str(n), "--c", "1", "--a", "0.5", "--b", "0.5",
                        "--trials", str(sz.sample_trials), "--bins", "40", "--seed", str(s_sample)])
        _, header, rows = parse_csv(text)
        counts = _column(header, rows, "count")
        left = _column(header, rows, "bin_left")
        right = _column(header, rows, "bin_right")
        mass = _column(header, rows, "mass")
        centers = 0.5 * (left + right)
        total = n * sz.sample_trials
        mean = float(np.dot(mass, centers))
        var = float(np.dot(mass, (centers - mean) ** 2)) + float(np.max(right - left)) ** 2 / 12.0
        # eigenvalues of one matrix repel, so the iid error bar is an
        # upper bound; binning moves the mean by at most half a bin
        ref = bj.moment11(III, bj.JacobiParams(0.5, 0.5, 1.0), 1)
        allowed = 4.0 * math.sqrt(var / total) + 0.5 * float(np.max(right - left))
        checks = [
            Check("count_total", abs(float(counts.sum()) - total), 0.5),
            Check("mass_sum", abs(float(mass.sum()) - 1.0), 1e-12),
            Check("mean_vs_limit", abs(mean - ref) / allowed, 1.0),
        ]
        return {"text": text}, checks

    jobs.append(Job("cli-sample", {"n": 60, "trials": sz.sample_trials, "bins": 40,
                                   "seed": s_sample}, sample, cli=True))

    def regime():
        # regime-chain: finite-kappa Beta means approach the frozen
        # entries, and (N, A, B) -> (-c, -a, -b) lands on the third model
        kappa, big_a_, big_b_, n = 1e6, 0.7, 1.3, 6
        p_lim, q_lim = bj.limit_pq(n, float(n), big_a_, big_b_)
        idx = np.arange(1, n + 1, dtype=float)
        mean_p = ((n - idx) * kappa + big_a_ * kappa + 1.0) / (
            2.0 * (n - idx) * kappa + (big_a_ + big_b_) * kappa + 2.0)
        jdx = idx[:-1]
        mean_q = ((n - jdx) * kappa) / ((2.0 * (n - jdx) - 1.0) * kappa + (big_a_ + big_b_) * kappa + 2.0)
        dev_mean = max(float(np.max(np.abs(mean_p - p_lim))), float(np.max(np.abs(mean_q - q_lim))))
        p = bj.JacobiParams(0.3, 0.7, 1.2)
        s2, t2 = bj.limit_bidiagonal_squares(8, -p.c, -p.a, -p.b)
        tri = bj.to_tridiagonal(bj.BidiagonalFactor(np.sqrt(s2), np.sqrt(t2)))
        d_ref, e_ref = bj.tridiag_entries(III, p, 8)
        dev_sub = max(float(np.max(np.abs(tri.diag - d_ref))), float(np.max(np.abs(tri.offdiag - e_ref))))
        checks = [Check("mean_vs_limit", dev_mean, 1e-4, where="pinned"),
                  Check("substitution_residual", dev_sub, 1e-12, where="pinned")]
        return {"diag": tri.diag, "off": tri.offdiag}, checks

    jobs.append(Job("regime-chain", {"a": 0.3, "b": 0.7, "c": 1.2}, regime))
    return jobs


# ---------------------------------------------------------------------------
# particles: the pairwise-drift SDE


def particle_jobs(seed: int, sz: Sizes, threads: int) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    s_sde, s_cli = _seeds(rng, 2)
    jobs = []

    def sde():
        # the dynamics criterion's shape, cut to sde_t_end
        p = bj.JacobiParams(0.0, 0.0, 1.0)
        path, se = bj.simulate_moments(40, 0.0, 0.0, 1.0 / 20.0, 0.5, sz.sde_t_end, 1e-4,
                                       sz.sde_paths, 1, s_sde)
        ode = bj.integrate_moments(0.5 ** np.arange(2), p, sz.sde_t_end, 1e-3)
        u = bj.stationary_uk(p, 6)
        resid = float(np.max(np.abs(bj.ode_rhs(u.values, p))))
        checks = [
            Check("sde_m1_sigma", _sigma(path.moments[-1][1], ode.moments[-1][1], se[-1][1]), 4.0),
            Check("fixed_point_residual", resid, 1e-12, where="pinned"),
        ]
        return {"moments": path.moments, "se": se, "ode": ode.moments}, checks

    jobs.append(Job("sde", {"N": 40, "paths": sz.sde_paths, "beta": 0.05, "dt": 1e-4,
                            "t_end": sz.sde_t_end, "seed": s_sde}, sde))

    def cli_sde():
        text = run_cli(["dynamics", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--kmax", "4",
                        "--t-end", str(sz.sde_t_end), "--sde", "--sde-n", "40",
                        "--paths", str(sz.cli_sde_paths), "--seed", str(s_cli)])
        _, header, rows = parse_csv(text)
        ode_m1 = _column(header, rows, "m_1", lambda r: r[0] == "ode")[-1]
        sde_m1 = _column(header, rows, "m_1", lambda r: r[0] == "sde")[-1]
        sde_se = _column(header, rows, "se_1", lambda r: r[0] == "sde")[-1]
        # only m_1: at N = 40 the higher moments carry an O(c/N) drift the
        # limit hierarchy omits
        return {"text": text}, [Check("sde_m1_sigma", _sigma(sde_m1, ode_m1, sde_se), 4.0)]

    jobs.append(Job("cli-dynamics-sde", {"a": 0.3, "b": 0.7, "c": 1.2, "t_end": sz.sde_t_end,
                                         "paths": sz.cli_sde_paths, "seed": s_cli}, cli_sde, cli=True))
    return jobs


# ---------------------------------------------------------------------------
# routes: closed forms, continued fractions, recurrences, RK4


def _point_jobs(abc: tuple, sz: Sizes, drawn: bool) -> list[Job]:
    p = bj.JacobiParams(*abc)
    claims = PINNED.get(abc, set())
    where = "drawn" if drawn else "pinned"
    params = {"a": abc[0], "b": abc[1], "c": abc[2], "drawn": drawn}
    tag = f"{abc[0]:g},{abc[1]:g},{abc[2]:g}"

    def moments():
        u = bj.stationary_uk(p, 12)
        op = np.array([bj.moment11(III, p, k) for k in range(13)])
        dev = float(np.max(np.abs(u.values - op)))
        return {"u": u.values, "op": op}, [
            Check("stationary_vs_operator", dev, 1e-10, gate="stationary-moments" in claims, where=where)]

    def stieltjes():
        head = bj.lambda_hat0(p)
        m1 = bj.mu_n(p, 1)
        vals, worst_id, worst_cf = [], 0.0, 0.0
        for z in MFUNCTION_Z:
            s3, _ = bj.stieltjes_auto(III, p, z)
            s1, _ = bj.stieltjes_auto(bj.ModelKind.ASSOC_I, p.shifted(1.0), z)
            worst_id = max(worst_id, abs(-1.0 / s3 - (z - head + head * m1 * s1)))
            vals += [s3, s1]
            for kind, pp in ((III, p), (bj.ModelKind.ASSOC_I, p.shifted(1.0))):
                try:
                    sc = bj.stieltjes_closed(kind, pp, z)
                except bj.UnsupportedRegionError:
                    continue
                worst_cf = max(worst_cf, abs(sc - bj.stieltjes_cf(kind, pp, z, depth=400)))
        gate = "mfunction" in claims
        return {"s": np.array(vals)}, [
            Check("identity_residual", worst_id, 1e-8, gate=gate, where=where),
            Check("closed_vs_cf", worst_cf, 1e-8, gate=gate, where=where)]

    def density():
        xs = np.arange(1, 10) / 10.0
        closed = bj.density_closed(p, xs)
        numeric = bj.density_numeric(III, p, xs, eps=1e-6)
        worst = float(np.max(np.abs(closed - numeric) / np.maximum(1e-4, 1e-3 * np.abs(closed))))
        return {"closed": closed, "numeric": numeric}, [
            Check("closed_vs_numeric_over_tol", worst, 1.0, gate="density" in claims, where=where)]

    def polynomials():
        worst_r = worst_p = 0.0
        vals = []
        for x in sz.poly_xs:
            x = float(x)
            for n in range(sz.poly_degree + 1):
                rw, rr = bj.wimp_rn(p, n, x), bj.recurrence_rn(p, n, x)
                pe, pc, pr = bj.pn_explicit(p, n, x), bj.pn_combination(p, n, x), bj.pn_recurrence(p, n, x)
                vals += [rw, rr, pe, pc, pr]
                # for a = b the odd degrees vanish at x = 1/2, where a
                # relative deviation is undefined
                if abs(p.a - p.b) < 1e-15 and x == 0.5 and n % 2:
                    continue
                worst_r = max(worst_r, abs(rw - rr) / max(abs(rw), abs(rr)))
                worst_p = max(worst_p, (max(pe, pc, pr) - min(pe, pc, pr)) / max(abs(pe), abs(pc), abs(pr)))
        rule = bj.gauss_quadrature(III, p, sz.gauss_size)
        worst_on = 0.0
        for n in range(7):
            v = np.array([bj.pn_recurrence(p, n, float(t)) for t in rule.nodes]) / bj.zeta_n(p, n)
            worst_on = max(worst_on, abs(float(np.sum(rule.weights * v**2)) - 1.0))
        gate = "polynomials" in claims
        return {"values": np.array(vals), "nodes": rule.nodes, "weights": rule.weights}, [
            Check("r_route_disagreement", worst_r, 1e-8, gate=gate, where=where),
            Check("p_route_disagreement", worst_p, 1e-8, gate=gate, where=where),
            Check("orthonormality_deviation", worst_on, 1e-6, gate=gate, where=where)]

    return [Job(f"{kind}@{tag}", params, fn) for kind, fn in (
        ("moments", moments), ("stieltjes", stieltjes), ("density", density),
        ("polynomials", polynomials))]


def route_jobs(seed: int, sz: Sizes, threads: int) -> list[Job]:
    rng = np.random.default_rng([seed, 3])
    points = [(pt, False) for pt in PINNED] + [(draw_point(rng), True) for _ in range(sz.drawn_points)]
    jobs = []
    for abc, drawn in points:
        jobs += _point_jobs(abc, sz, drawn)

    grid = str(sz.density_grid)
    dens_args = ["density", "--a", "0.5", "--b", "0.5", "--c", "1.2", "--grid", grid]
    texts = {}

    def density_closed():
        texts["closed"] = run_cli(dens_args)
        meta, header, rows = parse_csv(texts["closed"])
        return {"text": texts["closed"]}, [Check("route_closed", float(meta["route"] != "closed"), 0.5)]

    def density_numeric():
        text = run_cli(dens_args + ["--method", "numeric"])
        _, header, rows = parse_csv(text)
        numeric = _column(header, rows, "density")
        _, header_c, rows_c = parse_csv(texts["closed"])
        closed = _column(header_c, rows_c, "density")
        worst = float(np.max(np.abs(closed - numeric) / np.maximum(1e-4, 1e-3 * np.abs(closed))))
        return {"text": text}, [Check("closed_vs_numeric_over_tol", worst, 1.0, gate=False, where="pinned")]

    def stieltjes():
        text = run_cli(["stieltjes", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--im", "0.5",
                        "--points", str(sz.stieltjes_points)])
        _, header, rows = parse_csv(text)
        z = _column(header, rows, "re_z") + 1j * _column(header, rows, "im_z")
        s = _column(header, rows, "re_s") + 1j * _column(header, rows, "im_s")
        closed = np.array([r[header.index("route")] == "closed" for r in rows])
        p = bj.JacobiParams(0.3, 0.7, 1.2)
        # closed rows against a depth-400 fraction, fallback rows against
        # one twice as deep as the CLI's
        ref = np.where(closed, bj.stieltjes_cf(III, p, z, depth=400, warn_tol=None),
                       bj.stieltjes_cf(III, p, z, depth=4000, warn_tol=None))
        return {"text": text}, [
            Check("rows_vs_cf", float(np.max(np.abs(s - ref))), 1e-8, gate=False, where="pinned")]

    def moments():
        text = run_cli(["moments", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--kmax", "12"])
        _, header, rows = parse_csv(text)
        dev = float(np.max(_column(header, rows, "abs_diff")))
        return {"text": text}, [Check("stationary_vs_operator", dev, 1e-10, gate=False, where="pinned")]

    def dynamics():
        text = run_cli(["dynamics", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--kmax", "4",
                        "--t-end", str(sz.rk4_t_end), "--dt", str(sz.rk4_dt)])
        meta, header, rows = parse_csv(text)
        last = rows[-1]
        m = np.array([float(last[header.index(f"m_{k}")]) for k in range(5)])
        u = np.array([float(meta[f"u_{k}"]) for k in range(5)])
        dev = float(np.max(np.abs(m - u)))
        return {"text": text}, [Check("relaxation_deviation", dev, 1e-6, gate=False, where="pinned")]

    jobs += [
        Job("cli-density-closed", {"a": 0.5, "b": 0.5, "c": 1.2, "grid": sz.density_grid}, density_closed, cli=True),
        Job("cli-density-numeric", {"a": 0.5, "b": 0.5, "c": 1.2, "grid": sz.density_grid}, density_numeric, cli=True),
        Job("cli-stieltjes", {"a": 0.3, "b": 0.7, "c": 1.2, "points": sz.stieltjes_points}, stieltjes, cli=True),
        Job("cli-moments", {"a": 0.3, "b": 0.7, "c": 1.2, "kmax": 12}, moments, cli=True),
        Job("cli-dynamics", {"a": 0.3, "b": 0.7, "c": 1.2, "t_end": sz.rk4_t_end, "dt": sz.rk4_dt}, dynamics, cli=True),
    ]
    return jobs


WORKLOADS = {"ensemble": ensemble_jobs, "particles": particle_jobs, "routes": route_jobs}
