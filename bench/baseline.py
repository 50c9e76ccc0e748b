"""Summarize the result files in bench/out/ into bench/baseline.json.

    python3 bench/baseline.py [--note TEXT]

For every workload: median and quartiles of each end-to-end metric over
the untraced runs, and the median of each per-layer metric over the
traced runs, with the seeds used.  Tiny runs are skipped.  Compare two
commits by running the same seeds on both and summarizing each.
"""

import argparse
import json
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent

# which end-to-end metric each per-layer metric should move, and where
MOVES = {
    "setup.*": "setup_s on every workload",
    "cli.main.*": "wall_s on routes and ensemble",
    "ensemble.mc_moments.*": "wall_s and peak_rss_mb on ensemble",
    "ensemble.empirical_measure.*, ensemble.sample_model.*, ensemble.exact_moment.*": "wall_s on ensemble",
    "spectral.eigen_tridiagonal.*": "wall_s on ensemble, a little on routes",
    "spectral.stieltjes_cf.*, spectral.moment11.*, coeffs.tridiag_entries.*": "wall_s on routes",
    "hypergeom.hyp2f1.*": "wall_s and err_over_tol on routes",
    "analytic.*": "wall_s on routes",
    "dynamics.simulate_moments.*": "wall_s on particles",
    "dynamics.integrate_moments.*, dynamics.stationary_uk.*": "wall_s on routes, a little on particles",
    "layer.*, trace.wall_s, trace.unattributed_s, trace.spans": "the attribution of wall_s",
    "process.*": "whether a wall_s gain on ensemble came from parallelism",
    "checks.*": "pass_ratio on routes",
    "trace.overhead_s": "nothing; the cost of tracing",
    "host.reference_ms": "nothing; the host's speed during the run",
}


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "iqr_over_median": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--note", default="", help="where and on what the runs were made")
    args = ap.parse_args()

    runs: dict = {}
    for path in sorted((BENCH / "out").glob("result-*.json")):
        res = json.loads(path.read_text())
        if not res["tiny"]:
            runs.setdefault(res["workload"], {0: [], 1: []})["layers" in res].append(res)

    out = {"note": args.note, "moves": MOVES, "workloads": {}}
    for workload, by_trace in sorted(runs.items()):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rs = by_trace[trace]
            if not rs:
                continue
            names = rs[0]["metrics"]
            entry[key] = {
                name: {"unit": names[name]["unit"],
                       **_stats([r["metrics"][name]["value"] for r in rs])}
                for name in names
            }
            entry[f"{key}_seeds"] = sorted(r["seed"] for r in rs)
        entry["env"] = (by_trace[0] or by_trace[1])[0]["env"]
        out["workloads"][workload] = entry
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
