#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a results record.

    python3 perfbench/record.py --out perfbench/baseline.json

Each run is `run.py` in its own process, called as by any harness: seeds
1-10 on every workload, then one traced run with seed 1. For every workload
and end-to-end metric the record holds each run's value, the median, and the
spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. The record also states
the machine: CPU count, RAM, Python, numpy and BLAS, and the commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

SEEDS = range(1, 11)
TRACE_SEED = 1


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    with open("/proc/meminfo") as f:
        mem_kib = int(next(line for line in f if line.startswith("MemTotal")).split()[1])
    return {
        "nproc": os.cpu_count(),
        "ram_gib": round(mem_kib / 2**20, 2),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "commit": commit,
        "dtype": "float32",
    }


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["run_s"] = time.monotonic() - start
    print(f"{workload} seed {seed} trace {trace}: {result['run_s']:.1f} s, "
          f"correct={result['correct']}", flush=True)
    return result


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                          "spread": (q3 - q1) / statistics.median(values),
                          "bound": m["bound"], "values": values}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description="record benchmark results over seeds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    record = {"machine": machine(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [one_run(workload, s, bench["run_seconds"], 0) for s in SEEDS]
        entry = {"definition": workloads.WORKLOADS[workload].describe(),
                 "summary": summary(runs, bench["end_to_end"]), "runs": runs,
                 "traced": one_run(workload, TRACE_SEED, bench["run_seconds"], 1)}
        record["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            print(f"  {name}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.4f} "
                  f"(bound {s['bound']})", flush=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
