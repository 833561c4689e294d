#!/usr/bin/env python3
"""Write the world checkpoints and reference.json, the fixed inputs and
stored outputs the benchmark checks against.

    python3 perfbench/calibrate.py

Run from the root of a source checkout, at a commit whose outputs are
trusted; it rewrites every file it makes. It
- trains the world checkpoint of map-dense and eval-sparse with `lsaf train`
  on the world scene and writes it, without its optimizer state, to
  `perfbench/worlds/<workload>.lsfw`;
- records the sha256 of each world file and checkpoint;
- for every workload and each input seed 0 .. REFERENCE_SEEDS−1, records the
  timed command's outputs: final loss, OA and per-parameter Adam
  first-moment norms for train-paper, the map for map-dense, OA and the
  correct test pixels of each class for eval-sparse.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from lsaf import storage  # noqa: E402

WORLD_TIMEOUT = 1200  # seconds for training one world checkpoint


def main() -> int:
    ref = {}
    for wl in workloads.WORKLOADS.values():
        entry = {} if wl.world is None else {"world_sha256": make_world(wl)}
        entry["per_seed"] = {str(seed): reference_outputs(wl, seed)
                             for seed in range(workloads.REFERENCE_SEEDS)}
        ref[wl.name] = entry
    workloads.write_json(os.path.join(HERE, "reference.json"), ref)
    return 0


def make_world(wl) -> dict:
    """Train the world checkpoint of `wl`, keep its weights and
    preprocessing constants, and return the sha256 of every world file."""
    w = wl.world
    work = os.path.join(harness.WORK, "calibrate", wl.name)
    shutil.rmtree(work, ignore_errors=True)
    paths = workloads.write_world(wl, work)
    cfg = os.path.join(work, "train.json")
    out = os.path.join(work, "model")
    workloads.write_json(cfg, workloads.config(
        paths["hsi"], paths["lidar"], paths["train_labels"], out, seed=0, lr=w.lr,
        epochs=w.epochs, train_fraction=w.train_fraction))
    cmd = harness.Command(["train", "--config", cfg], wl.threads,
                          os.path.join(work, "report.json"), timeout=WORLD_TIMEOUT)
    if cmd.failures:
        raise SystemExit(f"{wl.name} world: {cmd.failures}")
    print(f"{wl.name} world losses: {checks.read_losses(os.path.join(out, 'trace.csv'))}",
          flush=True)
    state = storage.read_checkpoint(os.path.join(out, "checkpoint.lsfw"))
    os.makedirs(os.path.dirname(paths["checkpoint"]), exist_ok=True)
    storage.write_checkpoint(paths["checkpoint"],
                             {k: v for k, v in state.items() if not k.startswith("opt.")})
    digests = {name: checks.sha256(path) for name, path in paths.items()}
    shutil.rmtree(work)
    return digests


def reference_outputs(wl, seed: int) -> dict:
    run = harness.Run(wl, seed, None)
    run.main()
    if run.failures:
        raise SystemExit(f"{wl.name} seed {seed}: {run.failures}")
    out = run.inputs.out_dir
    if wl.command == "train":
        entry = {"final_loss": checks.read_losses(os.path.join(out, "trace.csv"))[-1],
                 "oa": checks.read_metrics(os.path.join(out, "metrics.csv"))["oa"],
                 "moment_norms": checks.moment_norms(os.path.join(out, "checkpoint.lsfw"))}
    elif wl.command == "map":
        entry = {"map": checks.encode_map(checks.read_map(out, wl.classes))}
    else:
        metrics = checks.read_metrics(os.path.join(out, "metrics.csv"))
        entry = {"oa": metrics["oa"], "correct": metrics["correct"]}
    run.close()
    print(f"{wl.name} seed {seed}: {entry.get('oa', '')}", flush=True)
    return entry


if __name__ == "__main__":
    sys.exit(main())
