"""Built-in verification harness.

Each criterion cross-checks independent routes to the same quantity
(operator moments vs closed forms vs sampling vs dynamics) at pinned
parameters and tolerances, and carries a runtime budget.  `run_all`
executes them in order; the CLI `verify` command and the acceptance test
suite are thin wrappers around this module.

A criterion passes only if every sub-check passes AND the wall-clock
runtime stays under its budget.  `measured` is the worst observed value
of the headline check, directly comparable to `tolerance`; everything
else lands in `detail`.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    _density_norm,
    _uv_denominator,
    density_closed,
    density_numeric,
    pn_combination,
    pn_explicit,
    pn_recurrence,
    recurrence_rn,
    stieltjes_auto,
    stieltjes_closed,
    wimp_rn,
    zeta_asymptotic,
    zeta_n,
)
from .coeffs import JacobiParams, ModelKind, mu_n, tridiag_entries
from .dynamics import integrate_moments, ode_rhs, simulate_moments, stationary_uk
from .ensemble import (
    BidiagonalFactor,
    EnsembleConfig,
    _exact_moments,
    _rooted_walks,
    _shape_arrays,
    exact_moment,
    limit_bidiagonal_squares,
    limit_pq,
    mc_moments,
    to_tridiagonal,
)
from .errors import ParameterError, UnsupportedRegionError, _shown
from .hypergeom import pochhammer
from .spectral import _operator_moments, gauss_quadrature, moment11, stieltjes_cf

__all__ = ["CriterionResult", "slugs", "run_criterion", "run_all", "format_line"]

# fixed seeds keep the statistical criteria reproducible run to run
_SEED_WEAK = 20091
_SEED_TREND = 40093
_SEED_SDE = 60097

# two deviations both at rounding level count as a tie, not a regression
_TIE = 1e-13


@dataclass(frozen=True)
class CriterionResult:
    slug: str
    title: str
    passed: bool
    measured: float
    tolerance: float
    runtime: float
    limit: float
    detail: dict = field(default_factory=dict)


# slug -> (title, runtime budget in seconds, body), in run order
_REGISTRY: dict = {}


def _criterion(slug: str, title: str, limit: float):
    def deco(fn):
        _REGISTRY[slug] = (title, limit, fn)
        return fn

    return deco


def slugs() -> list[str]:
    return list(_REGISTRY)


def run_criterion(slug: str, *, threads: int = 1) -> CriterionResult:
    if slug not in _REGISTRY:
        raise ParameterError(f"unknown criterion {_shown(slug)}; known: {slugs()}")
    title, limit, body = _REGISTRY[slug]
    t0 = time.perf_counter()
    ok, measured, tolerance, detail = body(threads)
    runtime = time.perf_counter() - t0
    detail = dict(detail)
    detail["runtime_s"] = round(runtime, 3)
    return CriterionResult(
        slug=slug,
        title=title,
        passed=bool(ok) and runtime < limit,
        measured=float(measured),
        tolerance=float(tolerance),
        runtime=runtime,
        limit=limit,
        detail=detail,
    )


def run_all(only=None, *, threads: int = 1) -> list[CriterionResult]:
    wanted = list(slugs()) if only is None else list(only)
    unknown = [s for s in wanted if s not in slugs()]
    if unknown:
        raise ParameterError(f"unknown criteria {unknown}; known: {slugs()}")
    return [run_criterion(s, threads=threads) for s in wanted]


def format_line(r: CriterionResult) -> str:
    verdict = "PASS" if r.passed else "FAIL"
    return (
        f"{verdict} {r.slug:<20s} measured {r.measured:9.3e} "
        f"tol {r.tolerance:8.1e}  {r.runtime:6.2f}s/{r.limit:g}s  {r.title}"
    )


# ---------------------------------------------------------------------------
# criteria, in fixed order


@_criterion(
    "c0-beta-moments",
    "at c=0 operator moments equal Beta(a+1,b+1) moments",
    1.0,
)
def _c0_beta_moments(threads):
    grid = (-0.5, 0.3, 1.7)
    worst = 0.0
    for a in grid:
        for b in grid:
            got = _operator_moments(ModelKind.ASSOC_III, JacobiParams(a, b, 0.0), 20)
            for k in range(21):
                ref = pochhammer(a + 1.0, k) / pochhammer(a + b + 2.0, k)
                worst = max(worst, abs(got[k] - ref) / abs(ref))
    return worst <= 1e-10, worst, 1e-10, {"k_max": 20, "ab_grid": list(grid)}


@_criterion(
    "stationary-moments",
    "hierarchy fixed point reproduces operator moments",
    1.0,
)
def _stationary_moments(threads):
    # the fixed point u, and the N = infinity Beta chain, whose shapes are
    # constant at N kappa = c: p ~ Beta(c + a + 1, c + b + 1),
    # q ~ Beta(c, c + a + b + 2); both against the operator moments
    worst = chain = 0.0
    for a in (-0.5, 0.3, 1.7):
        for b in (-0.5, 0.3, 1.7):
            for c in (0.0, 1.0, 2.5):
                p = JacobiParams(a, b, c)
                u = stationary_uk(p, 12)
                op = _operator_moments(ModelKind.ASSOC_III, p, 12)
                alpha = np.resize([c + a + 1.0, c], 12)
                beta = np.resize([c + b + 1.0, c + a + b + 2.0], 12)
                worst = max(worst, float(np.abs(u.values - op).max()))
                chain = max(chain, float(np.abs(_rooted_walks(alpha, beta, 12) - op).max()))
    detail = {"k_max": 12, "c_grid": [0.0, 1.0, 2.5], "chain_gap": chain}
    return worst <= 1e-10 and chain <= 1e-10, worst, 1e-10, detail


@_criterion(
    "mfunction",
    "one-step shift identity of the Stieltjes transform",
    1.0,
)
def _mfunction(threads):
    p = JacobiParams(0.3, 0.7, 1.2)
    head = moment11(ModelKind.ASSOC_III, p, 1)  # m_1 = d_1 = lambda_hat0, bit for bit
    m1 = mu_n(p, 1)
    points = (0.5 + 0.5j, 2.0 + 1.0j, -1.0 + 0.25j)
    routes = {}
    worst_id = 0.0
    for z in points:
        s3, r3 = stieltjes_auto(ModelKind.ASSOC_III, p, z)
        s1, r1 = stieltjes_auto(ModelKind.ASSOC_I, p.shifted(1.0), z)
        resid = abs(-1.0 / s3 - (z - head + head * m1 * s1))
        routes[f"{z}"] = f"third={r3}, stripped={r1}, residual={resid:.3e}"
        worst_id = max(worst_id, resid)

    # closed form against the depth-400 continued fraction where defined;
    # that comparison is the fraction's check, so no depth-halving one
    worst_cf = 0.0
    defined = 0
    for z in points:
        for kind, pp in (
            (ModelKind.ASSOC_III, p),
            (ModelKind.ASSOC_I, p.shifted(1.0)),
        ):
            try:
                sc = stieltjes_closed(kind, pp, z)
            except UnsupportedRegionError:
                continue
            defined += 1
            scf = stieltjes_cf(kind, pp, z, depth=400, warn_tol=None)
            worst_cf = max(worst_cf, abs(sc - scf))
    ok = worst_id <= 1e-8 and worst_cf <= 1e-8 and defined >= 2
    detail = {
        "identity_residual": worst_id,
        "closed_vs_cf": worst_cf,
        "closed_defined_at": defined,
        "routes": routes,
    }
    return ok, max(worst_id, worst_cf), 1e-8, detail


@_criterion(
    "moment-expansion",
    "large-z expansion of the transform matches the moments",
    1.0,
)
def _moment_expansion(threads):
    p = JacobiParams(0.3, 0.7, 1.2)
    m = _operator_moments(ModelKind.ASSOC_III, p, 8).tolist()
    worst = 0.0
    for phase in (0.25, 0.75, 1.25, 1.75):
        z = 10.0 * cmath.exp(1j * math.pi * phase)
        s = stieltjes_closed(ModelKind.ASSOC_III, p, z)
        tail = sum(m[k] / z ** (k + 1) for k in range(9))
        worst = max(worst, abs(-s - tail))
    return worst <= 1e-8, worst, 1e-8, {"radius": 10.0, "k_max": 8}


@_criterion(
    "density",
    "closed-form density: mass, moments, inversion cross-check",
    10.0,
)
def _density(threads):
    # the only scipy.integrate user; importing it here keeps it off the
    # import path of the CLI
    from scipy.integrate import quad

    worst_mass = 0.0
    worst_mom = 0.0
    worst_point = 0.0
    for p in (JacobiParams(0.5, 0.5, 1.0), JacobiParams(-0.3, 0.8, 2.0)):
        norm = _density_norm(p)

        def smooth(x, k=0):
            # density with the x^a (1-x)^b factor peeled off (and x^k on),
            # matching quad's algebraic weight; QAWSE samples the exact
            # endpoints, where the 2F1 form of U sits on its cut, so nudge
            # inward (the peeled factor is continuous there)
            x = min(max(x, 1e-12), 1.0 - 1e-12)
            return x**k * norm / _uv_denominator(p, x)

        mass, _ = quad(smooth, 0.0, 1.0, weight="alg", wvar=(p.a, p.b), limit=200)
        worst_mass = max(worst_mass, abs(mass - 1.0))
        for k, ref in enumerate(_operator_moments(ModelKind.ASSOC_III, p, 8).tolist()):
            mom, _ = quad(
                smooth, 0.0, 1.0, args=(k,), weight="alg", wvar=(p.a, p.b), limit=200
            )
            worst_mom = max(worst_mom, abs(mom - ref))

        xs = np.arange(1, 10) / 10.0
        closed = density_closed(p, xs)
        numeric = density_numeric(ModelKind.ASSOC_III, p, xs, eps=1e-6)
        for f_cl, f_nu in zip(closed, numeric):
            tol_here = max(1e-4, 1e-3 * abs(f_cl))
            worst_point = max(worst_point, abs(f_cl - f_nu) / tol_here)
    ok = worst_mass <= 1e-6 and worst_mom <= 1e-6 and worst_point <= 1.0
    detail = {
        "mass_deviation": worst_mass,
        "moment_deviation": worst_mom,
        "pointwise_over_tolerance": worst_point,
    }
    return ok, max(worst_mass, worst_mom), 1e-6, detail


@_criterion(
    "weak-convergence",
    "sampled spectra reproduce the limit moments within noise",
    60.0,
)
def _weak_convergence(threads):
    ref = _operator_moments(ModelKind.ASSOC_III, JacobiParams(0.5, 0.5, 1.0), 4).tolist()
    (m60, se60), (m15, se15) = [  # beta N / 2 = 1 at both sizes
        mc_moments(EnsembleConfig(n, 2.0 / n, 0.5, 0.5), 4, 4000, _SEED_WEAK, threads=threads)
        for n in (60, 15)
    ]
    worst_sigma = max(abs(m60[k] - ref[k]) / se60[k] for k in range(1, 5))
    gap_ok = True
    gaps = {}
    for k in (1, 2):
        combined = math.hypot(se60[k], se15[k])
        lhs = abs(m60[k] - ref[k])
        rhs = abs(m15[k] - ref[k]) + 4.0 * combined
        gaps[f"k={k}"] = f"|dev60|={lhs:.3e} vs |dev15|+4se={rhs:.3e}"
        gap_ok = gap_ok and lhs < rhs
    ok = worst_sigma <= 4.0 and gap_ok
    detail = {"trials": 4000, "sizes": [60, 15], "gap_check": gaps}
    return ok, worst_sigma, 4.0, detail


@_criterion(
    "regime-chain",
    "frozen-entry limit: finite means converge, sign-flip map lands on the third model",
    1.0,
)
def _regime_chain(threads):
    # finite-parameter Beta means against the limit entries
    kappa = 1e6
    big_a, big_b = 0.7, 1.3
    n = 6
    p_lim, q_lim = limit_pq(n, float(n), big_a, big_b)
    # the shapes the sampler draws from, at beta = 2 kappa, a = A kappa,
    # b = B kappa; a Beta(alpha, beta) variable has mean alpha / (alpha + beta)
    alpha_p, beta_p, alpha_q, beta_q = _shape_arrays(
        EnsembleConfig(n, 2.0 * kappa, big_a * kappa, big_b * kappa)
    )
    mean_p = alpha_p / (alpha_p + beta_p)
    mean_q = alpha_q / (alpha_q + beta_q)
    worst_mean = max(
        float(np.max(np.abs(mean_p - p_lim))), float(np.max(np.abs(mean_q - q_lim)))
    )

    # substitution (N, A, B) -> (-c, -a, -b) must reproduce the third model
    p = JacobiParams(0.3, 0.7, 1.2)
    s2, t2 = limit_bidiagonal_squares(8, -p.c, -p.a, -p.b)
    tri = to_tridiagonal(BidiagonalFactor(np.sqrt(s2), np.sqrt(t2)))
    d_ref, e_ref = tridiag_entries(ModelKind.ASSOC_III, p, 8)
    worst_sub = max(
        float(np.max(np.abs(tri.diag - d_ref))),
        float(np.max(np.abs(tri.offdiag - e_ref))),
    )
    ok = worst_mean <= 1e-4 and worst_sub <= 1e-12
    detail = {
        "mean_vs_limit": worst_mean,
        "substitution_residual": worst_sub,
        "kappa": kappa,
    }
    return ok, worst_sub, 1e-12, detail


@_criterion(
    "moment-trend",
    "finite-size exact moments drift toward the limit; sampling corroborates",
    60.0,
)
def _moment_trend(threads):
    ref = _operator_moments(ModelKind.ASSOC_III, JacobiParams(0.5, 0.5, 1.0), 4)
    devs = {
        n: np.abs(_exact_moments(EnsembleConfig(n, 2.0 / n, 0.5, 0.5), 4) - ref)[1:].tolist()
        for n in (2, 4, 6, 8)
    }
    # ties at rounding level (the k=1 deviation is exactly 0 for a=b) pass
    trend_ok = all(devs[8][i] < devs[2][i] + _TIE for i in range(4))

    ex = exact_moment(3, 0.7, 0.2, 0.4, 3)
    cfg = EnsembleConfig(3, 1.4, 0.2, 0.4)  # kappa = 0.7
    means, se = mc_moments(cfg, 3, 10**6, _SEED_TREND, threads=threads)
    sigma = abs(means[3] - ex) / se[3]
    ok = trend_ok and sigma <= 4.0
    detail = {
        "dev_N2": devs[2],
        "dev_N8": devs[8],
        "exact_k3": ex,
        "mc_k3": means[3],
        "mc_se": se[3],
    }
    return ok, sigma, 4.0, detail


@_criterion(
    "dynamics",
    "hierarchy relaxes to its fixed point; particle system follows it",
    120.0,
)
def _dynamics(threads):
    p = JacobiParams(0.0, 0.0, 1.0)
    u = stationary_uk(p, 6)
    m0 = 0.5 ** np.arange(7)
    path = integrate_moments(m0, p, 50.0, 1e-3)
    worst_relax = float(np.max(np.abs(path.moments[-1] - u.values)))
    worst_fixed = float(np.max(np.abs(ode_rhs(u.values, p))))

    sde_path, sde_se = simulate_moments(
        40, 0.0, 0.0, 1.0 / 20.0, 0.5, 2.0, 1e-4, 400, 1, _SEED_SDE
    )
    ode_short = integrate_moments(m0, p, 2.0, 1e-3)
    m1_ode = ode_short.moments[-1][1]
    m1_sde = sde_path.moments[-1][1]
    sigma = abs(m1_sde - m1_ode) / sde_se[-1][1]
    ok = worst_relax <= 1e-6 and worst_fixed <= 1e-12 and sigma <= 4.0
    detail = {
        "relaxation_deviation": worst_relax,
        "fixed_point_residual": worst_fixed,
        "sde_m1": m1_sde,
        "ode_m1": m1_ode,
        "sde_sigma": sigma,
    }
    return ok, worst_relax, 1e-6, detail


@_criterion(
    "polynomials",
    "polynomial routes agree; normalized family is orthonormal",
    5.0,
)
def _polynomials(threads):
    p = JacobiParams(0.3, 0.7, 1.5)
    xs = np.arange(1, 10) / 10.0
    worst_r = 0.0
    worst_p = 0.0
    for x in xs:
        for n in range(11):
            rw = wimp_rn(p, n, float(x))
            rr = recurrence_rn(p, n, float(x))
            worst_r = max(worst_r, abs(rw - rr) / max(abs(rw), abs(rr)))
            pe = pn_explicit(p, n, float(x))
            pc = pn_combination(p, n, float(x))
            pr = pn_recurrence(p, n, float(x))
            scale = max(abs(pe), abs(pc), abs(pr))
            spread = max(pe, pc, pr) - min(pe, pc, pr)
            worst_p = max(worst_p, spread / scale)

    rule = gauss_quadrature(ModelKind.ASSOC_III, p, 40)
    worst_on = 0.0
    for n in range(7):
        zn = zeta_n(p, n)
        vals = np.array([pn_recurrence(p, n, float(t)) for t in rule.nodes]) / zn
        worst_on = max(worst_on, abs(float(np.sum(rule.weights * vals**2)) - 1.0))

    # the coefficient-stream normalizer against its Gamma-ratio large-n
    # constant; the gap falls like 1/n, about 1.4e-4 at n = 10^4
    gap = abs(zeta_n(p, 10_000) / zeta_asymptotic(p, 10_000) - 1.0)
    ok = worst_r <= 1e-8 and worst_p <= 1e-8 and worst_on <= 1e-6 and gap <= 1e-3
    detail = {
        "r_route_disagreement": worst_r,
        "p_route_disagreement": worst_p,
        "orthonormality_deviation": worst_on,
        "zeta_asymptotic_gap": gap,
    }
    return ok, max(worst_r, worst_p), 1e-8, detail


@_criterion(
    "gauss-exactness",
    "quadrature rules integrate power moments exactly",
    1.0,
)
def _gauss_exactness(threads):
    cases = (
        (ModelKind.ASSOC_III, JacobiParams(0.3, 0.7, 1.2)),
        (ModelKind.CLASSICAL, JacobiParams(-0.5, 1.7, 0.0)),
    )
    worst = 0.0
    for kind, p in cases:
        ops = _operator_moments(kind, p, 19)
        for m in (1, 3, 5, 10):
            rule = gauss_quadrature(kind, p, m)
            for k in range(2 * m):
                worst = max(worst, abs(rule.moment(k) - ops[k]))
    return worst <= 1e-12, worst, 1e-12, {"rule_sizes": [1, 3, 5, 10]}
