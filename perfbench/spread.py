#!/usr/bin/env python3
"""Run the benchmark over ten seeds and summarise each end-to-end metric.

Usage (from the repository root):

    python3 perfbench/spread.py [WORKLOAD ...]

For every workload (default: all in BENCHMARK.json) it runs seeds 1-10, one
untraced run of run_seconds each, in sequence. For every metric it prints the
median, the first and third quartiles (statistics.quantiles(values, n=4)), the
spread (Q3 - Q1) / median, and the metric's bound from BENCHMARK.json. The
`raw.*` rows summarise the run's `raw` lines the same way: the call's wall
time before host-speed scaling, and the reference kernel's time.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    stamp = next((l[6:] for l in lines if l.startswith("stamp ")), "{}")
    raw = {f"raw.{l.split()[1]}": float(l.split()[2]) for l in lines if l.startswith("raw ")}
    return json.loads(lines[-1]), json.loads(stamp), raw


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values = {}
        cores = []
        for seed in SEEDS:
            result, stamp, raw = run_once(workload, seed, spec["run_seconds"])
            assert result["correct"] and result["failed"] == 0, result
            cores.append(stamp.get("effective_cores", 0.0))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in raw.items():
                values.setdefault(name, []).append(value)
        print(f"== {workload}: seeds {SEEDS.start}..{SEEDS.stop - 1}, "
              f"effective cores median {statistics.median(cores):.2f}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{(q3 - q1) / med:8.3f} {bounds.get(name, '-'):>6}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
