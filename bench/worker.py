"""One workload process: import the package, warm up, run the job list.

    python3 bench/worker.py --workload W --seed S --seconds T --mode M [--tiny]

Modes: `setup` stops after the timed import and warm-up; `untraced`
repeats the job list for T seconds (at least twice, so every job is
rerun and its bytes compared); `traced` alternates an untraced and a
traced pass of the job list for T seconds.  A pass (or pair) that
would end past T seconds is not started.
Prints one JSON object as its last stdout line.  Run by bench/run.py,
which sets PYTHONPATH and the thread variables.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time


def _setup() -> dict:
    t0 = time.perf_counter()
    import betajacobi
    t1 = time.perf_counter()
    import betajacobi.cli
    t2 = time.perf_counter()
    _warm_up(betajacobi)
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "import_pkg_s": t1 - t0, "import_cli_extra_s": t2 - t1,
            "warm_up_s": t3 - t2}


def _warm_up(bj) -> None:
    """One small call per layer, so first-call costs (lazy imports,
    LAPACK workspace queries) land in set-up, not in the first job."""
    import contextlib
    import io

    p = bj.JacobiParams(0.3, 0.7, 1.2)
    bj.moment11(bj.ModelKind.ASSOC_III, p, 4)
    bj.stieltjes_cf(bj.ModelKind.ASSOC_III, p, 0.5 + 0.5j, depth=50, warn_tol=None)
    bj.stieltjes_auto(bj.ModelKind.ASSOC_III, p, 2.0 + 1.0j)
    bj.density_closed(p, 0.5)
    bj.pn_explicit(p, 2, 0.5)
    bj.gauss_quadrature(bj.ModelKind.ASSOC_III, p, 4)
    cfg = bj.EnsembleConfig(4, 0.5, 0.5, 0.5)
    bj.mc_moments(cfg, 2, 8, 1)
    bj.empirical_measure(cfg, bj.substream(1, 0))
    bj.simulate_moments(4, 0.0, 0.0, 0.5, 0.5, 2e-3, 1e-3, 2, 1, 1)
    bj.integrate_moments([1.0, 0.5], p, 2e-3, 1e-3)
    with contextlib.redirect_stdout(io.StringIO()):
        bj.cli.main(["moments", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--kmax", "2"])


def _digest(outputs: dict) -> tuple[str, bool]:
    """sha256 over the outputs, and whether every number in them is finite."""
    import numpy as np

    h = hashlib.sha256()
    finite = True
    for key in sorted(outputs):
        val = outputs[key]
        h.update(key.encode())
        if isinstance(val, str):
            h.update(val.encode())
            cells = [c for line in val.splitlines() if not line.startswith("#")
                     for c in line.split(",")]
            finite &= not any(c in ("nan", "inf", "-inf") for c in cells)
        else:
            arr = np.ascontiguousarray(np.asarray(val))
            h.update(arr.tobytes())
            finite &= bool(np.all(np.isfinite(arr)))
    return h.hexdigest(), finite


# the reference computation's median time on the machine of
# bench/baseline.json; it sets the scale of the speed-scaled job times
REFERENCE_S = 0.0055
SPEED_EVERY_S = 0.5


class Speed:
    """The host's current speed, read from a fixed reference computation.

    A shared host's speed can drift by ±15% over seconds to minutes,
    for the interpreter, memory-bound numpy and LAPACK alike (seen on
    the 2-vCPU VM of bench/baseline.json).  Timing the same reference
    work between jobs and scaling each job's time by REFERENCE_S over
    the reference's time around it takes that drift out of the job
    times while keeping every change in the program's own cost."""

    def __init__(self):
        import numpy as np

        self.items = [((i * 7919) % 1000) / 1000.0 for i in range(45000)]
        self.lookup = {v: v for v in self.items[:500]}
        self.x = np.linspace(0.0, 1.0, 320 * 40 * 40)
        self.y = np.empty_like(self.x)
        self.a = np.diag(np.arange(1.0, 121.0)) + 0.1
        self.samples = []
        self.last = -math.inf
        self.spent_s = self.spent_cpu_s = 0.0  # inside sample(), to take out of pass times

    def _kernel(self) -> float:
        import numpy as np

        # nothing here allocates: an allocation would time the heap the
        # last job left behind, not the host
        t0 = time.perf_counter()
        get = self.lookup.get
        for v in self.items:
            if v < 0.5 and get(v) is not None:
                pass
        np.multiply(self.x, 1.0001, out=self.y)
        np.add(self.y, 1.0, out=self.y)
        np.sqrt(self.y, out=self.y)
        np.linalg.eigvalsh(self.a)
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median of three timed runs after an untimed one, so the
        reference starts from warm caches whatever the last job left."""
        t0, c0 = time.perf_counter(), _cpu()
        self._kernel()
        ref = statistics.median(self._kernel() for _ in range(3))
        self.samples.append(ref)
        self.last = time.perf_counter()
        self.spent_s += self.last - t0
        self.spent_cpu_s += _cpu() - c0
        return ref


class Pass:
    """Results of one pass over the job list.  An untraced pass reads
    the host's speed before its first job, after its last and between
    jobs at least SPEED_EVERY_S apart, and gives each job the mean of
    the readings just before and just after it."""

    def __init__(self, jobs, tracer=None, speed=None):
        self.records = []
        waiting = []
        ref = speed.sample() if speed is not None else None
        spent = speed.spent_s if speed is not None else 0.0
        t0 = time.perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            rec = {"job": job.name, "error": None, "checks": [], "digest": None, "finite": True}
            j0 = time.perf_counter()
            try:
                outputs, checks = job.run()
                rec["digest"], rec["finite"] = _digest(outputs)
                rec["checks"] = checks
            except Exception as exc:  # a raising job is a failed job, not a crash
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["time_s"] = time.perf_counter() - j0
            self.records.append(rec)
            if speed is not None:
                rec["ref_s"] = ref
                waiting.append(rec)
                if time.perf_counter() - speed.last >= SPEED_EVERY_S or job is jobs[-1]:
                    ref = speed.sample()
                    for r in waiting:
                        r["ref_s"] = 0.5 * (r["ref_s"] + ref)
                    waiting = []
        # the readings after the first are taken out of the pass's time
        self.wall_s = time.perf_counter() - t0 - ((speed.spent_s - spent) if speed is not None else 0.0)


def _failures(passes, jobs) -> list[dict]:
    """Every failed job execution, with why it failed."""
    first = {r["job"]: r["digest"] for r in passes[0].records}
    params = {j.name: j.params for j in jobs}
    out = []
    for i, ps in enumerate(passes):
        for r in ps.records:
            reasons, gate = [], False
            if r["error"]:
                reasons.append(f"raised {r['error']}")
                gate = True
            if not r["finite"]:
                reasons.append("non-finite output")
                gate = True
            if r["digest"] != first[r["job"]]:
                reasons.append("bytes differ from the first pass")
                gate = True
            for c in r["checks"]:
                if not c.ok:
                    kind = "gate" if c.gate else "margin"
                    reasons.append(f"{kind} {c.name} = {c.value:.3e} > tol {c.tol:.1e}")
                    gate |= c.gate
            if reasons:
                out.append({"pass": i, "job": r["job"], "params": params[r["job"]],
                            "gate": gate, "reasons": reasons})
    return out


def _err_over_tol(passes) -> tuple[float, float]:
    """Worst deviation / tolerance over the pinned deterministic checks,
    each floored at 0.01; and the same over the checks at drawn points."""
    pinned, drawn = 0.01, 0.01
    for ps in passes:
        for r in ps.records:
            for c in r["checks"]:
                ratio = max(c.value / c.tol, 0.01) if c.value == c.value else float("inf")
                if c.where == "pinned":
                    pinned = max(pinned, ratio)
                elif c.where == "drawn":
                    drawn = max(drawn, ratio)
    return pinned, drawn


def _scaled_wall(passes) -> float:
    """The job list's time at the reference speed: for every job the
    median over the untraced passes of its time scaled by REFERENCE_S
    over the reference's time around it, summed over the jobs."""
    return sum(statistics.median(ps.records[i]["time_s"] * REFERENCE_S / ps.records[i]["ref_s"]
                                 for ps in passes)
               for i in range(len(passes[0].records)))


def _env(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "mc_threads": threads,
    }


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None, help="write the spans of the reported traced pass here")
    args = ap.parse_args(argv)

    setup = _setup()
    if args.mode == "setup":
        print(json.dumps({"setup": setup}))
        return 0

    import jobs as J
    import spans as S

    threads = min(2, len(os.sched_getaffinity(0)))
    jobs = J.WORKLOADS[args.workload](args.seed, J.TINY if args.tiny else J.FULL, threads)
    snapshot = S.attribute_snapshot()

    speed = Speed()
    passes, traced, layer_runs = [], [], []
    cpu_s = cpu_wall = 0.0
    deadline = time.perf_counter() + args.seconds
    while True:
        r0 = time.perf_counter()
        c0, r0_cpu = _cpu(), speed.spent_cpu_s
        ps = Pass(jobs, speed=speed)
        cpu_s += _cpu() - c0 - (speed.spent_cpu_s - r0_cpu)
        cpu_wall += ps.wall_s
        passes.append(ps)
        if args.mode == "traced":
            tracer = S.Tracer()
            tracer.install()
            try:
                tps = Pass(jobs, tracer)
            finally:
                tracer.remove()
            passes.append(tps)
            traced.append(tps)
            layer_runs.append((S.layer_metrics(tracer, tps.wall_s, ps.wall_s), tracer))
        # stop before a round that would end past the deadline, once
        # every job has run twice
        now = time.perf_counter()
        if len(passes) >= 2 and now + (now - r0) > deadline:
            break

    failures = _failures(passes, jobs)
    err, drawn_err = _err_over_tol(passes[:1])
    attempted = sum(len(ps.records) for ps in passes)
    n_failed = len(failures)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "setup": setup,
        "env": _env(threads),
        "pass_wall_s": [ps.wall_s for ps in passes if ps not in traced],
        "scaled_wall_s": _scaled_wall([ps for ps in passes if ps not in traced]),
        "reference_s": statistics.median(speed.samples),
        "traced_wall_s": [ps.wall_s for ps in traced],
        "attempted": attempted,
        "failed": n_failed,
        "gate_failed": sum(f["gate"] for f in failures),
        "fail_ratio": n_failed / attempted,
        "err_over_tol": err,
        "drawn_err_over_tol": drawn_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": cpu_s,
        "cpu_util": cpu_s / cpu_wall,
        "wrappers_removed": S.attribute_snapshot() == snapshot,
        "jobs": [
            {"job": j.name, "params": j.params, "cli": j.cli,
             "time_s": statistics.median(ps.records[i]["time_s"] for ps in passes
                                         if ps not in traced),
             "digest": passes[0].records[i]["digest"]}
            for i, j in enumerate(jobs)
        ],
        "failures": failures,
    }
    if layer_runs:
        # one whole traced pass (the median by wall time), so its self
        # times still add up to its wall time
        layers, tracer = sorted(layer_runs, key=lambda r: r[0]["trace.wall_s"])[(len(layer_runs) - 1) // 2]
        if args.spans:
            tracer.write(args.spans)
        layers["process.cpu_s"] = cpu_s / len(layer_runs)
        layers["process.cpu_util"] = cpu_s / cpu_wall
        layers["checks.fail_ratio"] = n_failed / attempted
        layers["checks.drawn_err_over_tol"] = drawn_err
        layers["host.reference_ms"] = 1e3 * result["reference_s"]
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
