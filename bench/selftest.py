"""Self-test of the benchmark harness, at tiny sizes (about a minute).

    python3 bench/selftest.py

Runs every workload untraced and traced with --tiny and asserts:
- the last stdout line has exactly correct/attempted/failed/metrics;
- every metric BENCHMARK.json names appears with its unit, and no other;
- the workload process found every package attribute to be the original
  function after its passes (untraced: no wrapper was ever installed;
  traced: every wrapper was removed);
- per-layer self times are non-negative and, with the unattributed
  remainder, add up to the traced wall time;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} trace={trace}"
            proc = _run(ROOT, w["name"], trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(line)}")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != units[trace]:
                missing = set(units[trace]) - set(got)
                extra = set(got) - set(units[trace])
                wrong = {k for k in set(got) & set(units[trace]) if got[k] != units[trace][k]}
                problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            if not line["correct"]:
                problems.append(f"{label}: correct is false\n{proc.stdout}")
            stem = f"{w['name']}-seed7-trace{trace}-tiny"
            res = json.loads((BENCH / "out" / f"result-{stem}.json").read_text())
            if not res["wrappers_removed"]:
                problems.append(f"{label}: package attributes were left wrapped")
            if trace:
                m = {k: v["value"] for k, v in line["metrics"].items()}
                layers = sum(v for k, v in m.items() if k.startswith("layer."))
                gap = layers + m["trace.unattributed_s"] - m["trace.wall_s"]
                if abs(gap) > 1e-6:
                    problems.append(f"{label}: self times miss the traced wall by {gap:.3e} s")
                negative = [k for k, v in m.items()
                            if (k.startswith("layer.") or k == "trace.unattributed_s") and v < 0]
                if negative:
                    problems.append(f"{label}: negative self time in {negative}")
            print(f"ok   {label}: {line['attempted']} jobs, {line['failed']} failed")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = _run(bare, "routes", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok   bare directory: exit {proc.returncode} without a result")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
