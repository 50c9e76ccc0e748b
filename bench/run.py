"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload {ensemble,particles,routes} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Each run starts fresh processes with
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1: the workload process, which
times its own set-up and then runs the job list (bench/worker.py), and
six set-up probes, three before it and three after, that only import
the package and warm up.  `setup_s` is the median of the seven set-up
times.

Prints a readable report, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from
a traced pass.  `failed` counts the job runs that missed a gate check;
margin misses count only against `pass_ratio` (see bench/jobs.py).  The
full result (every job's digest and time, every failed check, the
environment) goes to bench/out/, and the spans of a traced run next to
it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 6
DEADLINE_S = 170.0  # every run must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "1",
    "err_over_tol": "1",
}


def _worker(args, mode: str, extra: list[str], env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode] + extra
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(res: dict, metrics: dict, setups: list[float]) -> None:
    env = res["env"]
    print(f"workload {res['workload']}  seed {res['seed']}  tiny {res['tiny']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    print("pass wall_s " + " ".join(f"{w:.4f}" for w in res["pass_wall_s"])
          + ("  traced " + " ".join(f"{w:.4f}" for w in res["traced_wall_s"])
             if res["traced_wall_s"] else "")
          + f"  scaled to the reference speed {res['scaled_wall_s']:.4f}")
    print(f"reference computation median {1e3 * res['reference_s']:.3f} ms")
    print(f"{'job':<36s} {'median_s':>9s}  digest (CLI jobs)")
    for j in res["jobs"]:
        digest = j["digest"][:16] if j["cli"] and j["digest"] else ""
        print(f"{j['job']:<36s} {j['time_s']:9.4f}  {digest}")
    seen = {}
    for f in res["failures"]:
        key = (f["job"], tuple(f["reasons"]))
        seen.setdefault(key, [f, 0])[1] += 1
    print(f"failed jobs: {res['failed']} of {res['attempted']} "
          f"({res['gate_failed']} on a gate check)")
    for (job, reasons), (f, count) in seen.items():
        print(f"  FAIL {job} x{count} params={json.dumps(f['params'])}")
        for r in reasons:
            print(f"       {r}")
    for name, m in metrics.items():
        print(f"  {name:<48s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ensemble", "particles", "routes"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="seconds-long sizes for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "betajacobi" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'betajacobi'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()
    env = dict(os.environ)
    # every process compiles the package from source and writes no
    # bytecode cache, so set-up does not depend on what earlier runs left
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    try:
        # half the probes before the workload and half after, so the
        # median spans the run's whole stretch of machine time
        probes = [_worker(args, "setup", [], env, left())["setup"]
                  for _ in range(SETUP_PROBES // 2)]
        if args.trace:
            extra = ["--spans", str(out_dir / f"spans-{stem}.jsonl")]
            res = _worker(args, "traced", extra, env, left())
        else:
            res = _worker(args, "untraced", [], env, left())
        probes += [_worker(args, "setup", [], env, left())["setup"]
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = probes + [res["setup"]]

    if args.trace:
        values = dict(res["layers"])
        values["setup.import_pkg_s"] = statistics.median(s["import_pkg_s"] for s in setups)
        values["setup.import_cli_extra_s"] = statistics.median(s["import_cli_extra_s"] for s in setups)
        sys.path.insert(0, str(BENCH))
        from spans import LAYER_METRICS

        metrics = {k: {"value": values[k], "unit": u} for k, (u, _) in LAYER_METRICS.items()}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": res["scaled_wall_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_ratio": 1.0 - res["fail_ratio"],
            "err_over_tol": res["err_over_tol"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}

    correct = res["gate_failed"] == 0 and res["wrappers_removed"]
    res["setup_probes"] = probes
    res["metrics"] = metrics
    res["correct"] = correct
    (out_dir / f"result-{stem}.json").write_text(json.dumps(res, indent=1) + "\n")

    _report(res, metrics, [s["setup_s"] for s in setups])
    if not res["wrappers_removed"]:
        print("module attributes differ from the originals after the run")
    # an operation fails when it misses a gate; margin misses are the
    # known precision defects, counted in pass_ratio and listed above
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["gate_failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
