#!/usr/bin/env python3
"""The lsaf benchmark: one closed-loop client driving the `lsaf` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Each lsaf command runs in a fresh process (`child.py`), one at a
time, with BLAS threads pinned through LSAF_THREADS. The workload's inputs
are generated from `--seed` (modulo 16, the input sets whose outputs are
stored in `reference.json`) into a directory under `.perfbench/` that is
removed at the end of the run. map-dense and eval-sparse also read a world
checkpoint checked in under `perfbench/worlds/`.

--trace 0 repeats the workload's command for about `--seconds` and reports
the end-to-end metrics as medians over the commands of the run. --trace 1
runs the command once untraced and once traced, and reports the per-layer
metrics of the traced command. Every command's outputs are checked; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train-paper", "map-dense", "eval-sparse")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lsaf benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lsaf", "cli.py")):
        print(f"perfbench: no lsaf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # This process only generates inputs and checks outputs: one BLAS thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import harness

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         bench, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
