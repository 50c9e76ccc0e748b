"""Command-line surface.

Subcommands map one-to-one onto the library layers: `sample` (random
matrices), `density` / `stieltjes` / `moments` (limit measure), `dynamics`
(hierarchy + particles), `verify` (the acceptance harness).  Output is a
plot-ready table on stdout or in a file, CSV or JSON, with the full
parameter set in the metadata and no timestamps, so identical invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np

from . import __version__
from .acceptance import format_line, run_all, slugs
from .analytic import _stieltjes_routes, density_profile
from .coeffs import _MAX_SIZE, JacobiParams, ModelKind
from .dynamics import integrate_moments, simulate_moments, stationary_uk
from .ensemble import _MAX_THREADS, EnsembleConfig, _histogram, _sampled_blocks, _spectra
from .errors import ConvergenceError, ParameterError, UnsupportedRegionError, as_count
from .spectral import DEFAULT_DEPTH, _operator_moments

DEFAULT_SEED = 20177

_KINDS = [k.value for k in ModelKind]


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _clean(v):
    """Plain Python scalars for json."""
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _emit(meta: dict, columns: list[str], rows, args) -> None:
    """Write the table: CSV row by row as `rows` yields them, so a
    generator of rows is never held whole; JSON as one document."""
    out = open(args.output, "w", newline="\n") if args.output else nullcontext(sys.stdout)
    with out as fh:
        if args.format == "csv":
            fh.writelines(f"# {k}={_fmt(v)}\n" for k, v in meta.items())
            fh.write(",".join(columns) + "\n")
            fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
        else:
            doc = {
                "meta": {k: _clean(v) for k, v in meta.items()},
                "data": {"columns": columns, "rows": [list(map(_clean, row)) for row in rows]},
            }
            fh.write(json.dumps(doc, indent=2) + "\n")


def _base_meta(command: str, p: JacobiParams | None = None) -> dict:
    meta = {"tool": "betajacobi", "version": __version__, "command": command}
    if p is not None:
        meta.update(a=p.a, b=p.b, c=p.c)
    return meta


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    as_count("--n", args.n, 1)
    as_count("--trials", args.trials, 1)
    as_count("--bins", args.bins, 0, _MAX_SIZE)
    beta = args.beta if args.beta is not None else 2.0 * args.c / args.n
    cfg = EnsembleConfig(args.n, beta, args.a, args.b)
    meta = _base_meta("sample")
    meta.update(
        n=args.n, beta=beta, c=cfg.c, a=args.a, b=args.b,
        trials=args.trials, seed=args.seed, bins=args.bins,
    )
    if args.bins > 0:
        counts, edges = _histogram(cfg, args.seed, args.trials, args.bins)
        total = counts.sum()
        rows = [
            [float(edges[i]), float(edges[i + 1]), int(counts[i]), counts[i] / total]
            for i in range(args.bins)
        ]
        _emit(meta, ["bin_left", "bin_right", "count", "mass"], rows, args)
    else:
        blocks = _sampled_blocks(cfg, args.seed, args.trials)
        spectra = (nodes for j in blocks for nodes in _spectra(*j))
        rows = (
            [trial, i, float(v)]
            for trial, nodes in enumerate(spectra)
            for i, v in enumerate(nodes)
        )
        _emit(meta, ["trial", "index", "eigenvalue"], rows, args)
    return 0


def cmd_density(args) -> int:
    p = JacobiParams(args.a, args.b, args.c)
    # a DensityProfile needs two points
    xs = np.arange(1, as_count("--grid", args.grid, 2, _MAX_SIZE) + 1) / (args.grid + 1.0)
    profile, route = density_profile(p, xs, method=args.method, eps=args.eps)
    meta = _base_meta("density", p)
    meta.update(grid=args.grid, method=args.method, eps=args.eps, route=route)
    if route == "numeric" and args.method == "auto":
        meta["note"] = "closed form unavailable here; inverted transform used"
    meta["trapezoid_mass"] = profile.mass
    rows = [[float(x), float(v)] for x, v in zip(profile.grid, profile.values)]
    _emit(meta, ["x", "density"], rows, args)
    return 0


def cmd_stieltjes(args) -> int:
    p = JacobiParams(args.a, args.b, args.c)
    kind = ModelKind(args.kind)
    as_count("--points", args.points, 1, _MAX_SIZE)
    zs = [complex(re, args.im) for re in np.linspace(args.re0, args.re1, args.points)]
    values, routes, depths = _stieltjes_routes(kind, p, zs)
    rows = [[z.real, args.im, s.real, s.imag, route] for z, s, route in zip(zs, values, routes)]
    meta = _base_meta("stieltjes", p)
    meta.update(
        kind=args.kind, re0=args.re0, re1=args.re1, points=args.points, im=args.im,
        # the deepest fraction a cf row used (the least depth when none did)
        depth=int(np.max(depths, initial=DEFAULT_DEPTH)),
    )
    _emit(meta, ["re_z", "im_z", "re_s", "im_s", "route"], rows, args)
    return 0


def cmd_moments(args) -> int:
    p = JacobiParams(args.a, args.b, args.c)
    u = stationary_uk(p, args.kmax).values.tolist()  # checks --kmax
    op = _operator_moments(ModelKind.ASSOC_III, p, args.kmax).tolist()
    meta = _base_meta("moments", p)
    meta.update(kmax=args.kmax, kind=ModelKind.ASSOC_III.value)
    rows = [[k, op[k], u[k], abs(op[k] - u[k])] for k in range(args.kmax + 1)]
    _emit(meta, ["k", "operator_moment", "stationary_uk", "abs_diff"], rows, args)
    return 0


def cmd_dynamics(args) -> int:
    p = JacobiParams(args.a, args.b, args.c)
    u = stationary_uk(p, args.kmax)
    if not 0.0 <= args.x0 <= 1.0:
        raise ParameterError(f"--x0 must lie in [0, 1], got {args.x0!r}")
    m0 = float(args.x0) ** np.arange(args.kmax + 1)
    ode = integrate_moments(m0, p, args.t_end, args.dt)
    meta = _base_meta("dynamics", p)
    meta.update(kmax=args.kmax, t_end=args.t_end, dt=args.dt, x0=args.x0)
    for k in range(args.kmax + 1):
        meta[f"u_{k}"] = u[k]

    cols = ["series", "time"]
    cols += [f"m_{k}" for k in range(args.kmax + 1)]
    cols += [f"se_{k}" for k in range(args.kmax + 1)]
    zeros = [0.0] * (args.kmax + 1)
    rows = [
        ["ode", float(t), *map(float, m), *zeros]
        for t, m in zip(ode.times, ode.moments)
    ]
    if args.sde:
        as_count("--sde-n", args.sde_n, 1)
        beta = 2.0 * args.c / args.sde_n
        meta.update(
            sde_n=args.sde_n, sde_beta=beta, sde_dt=args.sde_dt,
            paths=args.paths, seed=args.seed,
        )
        path, se = simulate_moments(
            args.sde_n, args.a, args.b, beta, args.x0,
            args.t_end, args.sde_dt, args.paths, args.kmax, args.seed,
        )
        rows += [
            ["sde", float(t), *map(float, m), *map(float, s)]
            for t, m, s in zip(path.times, path.moments, se)
        ]
    _emit(meta, cols, rows, args)
    return 0


def cmd_verify(args) -> int:
    threads = as_count("--threads", args.threads, 1, _MAX_THREADS)
    only = args.only if args.only else None
    results = run_all(only, threads=threads)
    for r in results:
        print(format_line(r))
    all_passed = all(r.passed for r in results)
    print(f"{'ALL PASS' if all_passed else 'FAILURES PRESENT'} "
          f"({sum(r.passed for r in results)}/{len(results)})")
    if args.output:
        report = {
            "tool": "betajacobi",
            "version": __version__,
            "all_passed": all_passed,
            "criteria": [asdict(r) for r in results],
        }
        with open(args.output, "w", newline="\n") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(sp) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="table format (default csv)")
    sp.add_argument("--output", default=None, metavar="PATH",
                    help="write to PATH instead of stdout")


def _add_params(sp, with_c: bool = True) -> None:
    sp.add_argument("--a", type=float, required=True, help="weight exponent a > -1")
    sp.add_argument("--b", type=float, required=True, help="weight exponent b > -1")
    if with_c:
        sp.add_argument("--c", type=float, default=0.0,
                        help="association shift c (default 0)")


def _add_seed(sp) -> None:
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"RNG seed (default {DEFAULT_SEED})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="betajacobi",
        description="Tridiagonal beta ensembles, their limit measure, and the "
                    "moment hierarchy; see `verify` for the built-in cross-checks.",
    )
    ap.add_argument("--version", action="version", version=f"betajacobi {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample spectra of the random matrix model")
    _add_params(sp, with_c=False)
    # beta = 2c/N, so one of the two fixes the other
    shape = sp.add_mutually_exclusive_group()
    shape.add_argument("--c", type=float, default=0.0,
                       help="association shift c (default 0)")
    shape.add_argument("--beta", type=float, default=None,
                       help="Dyson beta (default: derived as 2c/N)")
    sp.add_argument("--n", type=int, required=True, help="matrix size N")
    sp.add_argument("--trials", type=int, default=1, help="number of matrices")
    sp.add_argument("--bins", type=int, default=0,
                    help="histogram bin count; 0 emits raw eigenvalues")
    _add_seed(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("density", help="limit spectral density on a grid")
    _add_params(sp)
    sp.add_argument("--grid", type=int, default=201, help="interior grid points")
    sp.add_argument("--method", choices=("auto", "closed", "numeric"), default="auto")
    sp.add_argument("--eps", type=float, default=1e-6,
                    help="offset for the numeric (inversion) route")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("stieltjes", help="Stieltjes transform along a horizontal line")
    _add_params(sp)
    sp.add_argument("--kind", choices=_KINDS, default=ModelKind.ASSOC_III.value)
    sp.add_argument("--re0", type=float, default=-1.0)
    sp.add_argument("--re1", type=float, default=2.0)
    sp.add_argument("--points", type=int, default=61)
    sp.add_argument("--im", type=float, default=0.5,
                    help="imaginary offset (at 0, points with re_z in [0, 1] are refused)")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_stieltjes)

    sp = sub.add_parser("moments", help="operator moments next to the recursion values")
    _add_params(sp)
    sp.add_argument("--kmax", type=int, default=12)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("dynamics", help="moment hierarchy flow, optional particle overlay")
    _add_params(sp)
    sp.add_argument("--kmax", type=int, default=4)
    sp.add_argument("--t-end", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=1e-3, help="hierarchy step")
    sp.add_argument("--x0", type=float, default=0.5, help="common start point in [0,1]")
    sp.add_argument("--sde", action="store_true",
                    help="add a particle-system overlay (beta = 2c/N)")
    sp.add_argument("--sde-n", type=int, default=40, help="particle count")
    sp.add_argument("--sde-dt", type=float, default=1e-4)
    sp.add_argument("--paths", type=int, default=100)
    _add_seed(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_dynamics)

    sp = sub.add_parser("verify", help="run the built-in acceptance checks")
    sp.add_argument("--only", nargs="+", metavar="SLUG", default=None,
                    help=f"subset of checks; known: {', '.join(slugs())}")
    sp.add_argument("--output", default=None, metavar="PATH",
                    help="also write a JSON report")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker threads for sampling checks (default 1)")
    sp.set_defaults(func=cmd_verify)

    return ap


def _check_output(path: str) -> None:
    """Open `path` for writing before anything is computed, so a path that
    cannot be written costs no computation; an existing file is opened
    without truncating it, and a file the check made is removed again."""
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        open(path, "a").close()
    else:
        os.remove(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.output:  # every subcommand takes --output
            _check_output(args.output)
        return args.func(args)
    except (ConvergenceError, ParameterError, UnsupportedRegionError, OSError) as exc:
        # a failed computation exits 1; a refused input or --output path, 2
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConvergenceError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
