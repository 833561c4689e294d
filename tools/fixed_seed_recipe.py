#!/usr/bin/env python3
"""Run the fixed-seed recipe and print the sha256 of every file its lsaf commands write.

    python3 tools/fixed_seed_recipe.py

A refactor that must not change behaviour should leave every printed hash
as it was. In a temporary directory, at one BLAS thread, with the `lsaf`
package of this checkout, it runs:
- `synth`: a 24×24 scene of 4 classes and 48 bands, seed 0 (`scene/`);
- `train`: 2 epochs, batch 64, seed 0, paper geometry (`run1/`);
- `train --resume` from run1 to 3 epochs (`run2/`);
- `train` in hsi mode, patch 7, 13 PCA dims, hidden width 16 (`hsi/`);
- `eval` and `map` of run1's checkpoint (`eval/`, `map/`);
- the same `eval` and `map` in strips of one TILE row, the least strip
  budget, `cli.STRIP_BYTES` set to 0 (`strips/`): 3 strips of the 24 rows,
  whose outputs must equal those of `eval/` and `map/`;
- `eval` and `map` of run1's checkpoint with most labels zeroed (`sparse/`):
  only pixels whose row and column are multiples of 3, in rows 0-12, keep
  their labels. That keeps corner pixel (0, 0) and at least 3 pixels of
  each class, and leaves rows 18-23 outside every 11×11 window;
- the same sparse `eval` and `map` in strips of one TILE row
  (`sparse_strips/`), whose outputs must equal those of `sparse/`; its third
  strip, rows 22-23, has nothing to predict;
- `train` of a new model on that sparse label map (`sparse_train/`), whose
  constants are fitted on every pixel while only the window pixels are
  projected for its patches.

The lsaf commands write into sub-directories, and only their files are
hashed; the recipe's own inputs (configs, the sparse label map) are not.
The recipe prints every hash, then exits 1 if a strip run's outputs differ
from those of the run that projects the whole scene, or if `eval/`'s
`metrics.csv` differs from the one `train` wrote in `run1/`.

The trained outputs depend on the BLAS build and the CPU, so compare hashes
only between runs on the same machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads its BLAS
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from lsaf import cli, storage  # noqa: E402


def _lsaf(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"lsaf {argv[0]} exited {code}")


def _write_config(path: str, scene: str, **keys) -> str:
    config = {name: os.path.join(scene, f"{name}.lsaf") for name in ("hsi", "lidar", "labels")}
    config.update(epochs=2, batch=64, seed=0, **keys)
    with open(path, "w") as f:
        json.dump(config, f)
    return path


def run(work: str) -> None:
    scene = os.path.join(work, "scene")
    _lsaf("synth", "--classes", 4, "--height", 24, "--width", 24, "--bands", 48,
          "--seed", 0, "--out", scene)
    config = _write_config(os.path.join(work, "run.json"), scene)
    hsi_config = _write_config(os.path.join(work, "hsi.json"), scene, mode="hsi", patch=7,
                               pca_dims=13, hidden=16)
    run1 = os.path.join(work, "run1", "checkpoint.lsfw")
    _lsaf("train", "--config", config, "--out", os.path.join(work, "run1"))
    _lsaf("train", "--config", config, "--epochs", 3, "--resume", run1,
          "--out", os.path.join(work, "run2"))
    _lsaf("train", "--config", hsi_config, "--out", os.path.join(work, "hsi"))
    _lsaf("eval", "--config", config, "--checkpoint", run1, "--out", os.path.join(work, "eval"))
    _lsaf("map", "--config", config, "--checkpoint", run1, "--out", os.path.join(work, "map"))
    _in_strips(config, run1, os.path.join(work, "strips"))
    labels = storage.read_labels(os.path.join(scene, "labels.lsaf"))
    sparse_labels = os.path.join(work, "sparse_labels.lsaf")
    sparse = np.zeros_like(labels)
    sparse[:13:3, ::3] = labels[:13:3, ::3]
    storage.write_labels(sparse_labels, sparse)
    sparse_config = _write_config(os.path.join(work, "sparse.json"), scene,
                                  labels=sparse_labels)
    for command in ("eval", "map"):
        _lsaf(command, "--config", sparse_config, "--checkpoint", run1,
              "--out", os.path.join(work, "sparse"))
    _in_strips(sparse_config, run1, os.path.join(work, "sparse_strips"))
    _lsaf("train", "--config", sparse_config, "--out", os.path.join(work, "sparse_train"))


def _in_strips(config: str, checkpoint: str, out: str) -> None:
    """`eval` and `map` of `checkpoint` in strips of one TILE row, the least
    strip budget."""
    budget, cli.STRIP_BYTES = cli.STRIP_BYTES, 0
    try:
        for command in ("eval", "map"):
            _lsaf(command, "--config", config, "--checkpoint", checkpoint, "--out", out)
    finally:
        cli.STRIP_BYTES = budget


# Each strip run, and the run of the whole scene whose outputs it must equal.
_SAME = {"strips": ("eval", "map"), "sparse_strips": ("sparse",)}


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        stdout = sys.stdout
        sys.stdout = open(os.devnull, "w")  # the commands' reports
        try:
            run(work)
        finally:
            sys.stdout.close()
            sys.stdout = stdout
        digests = {}
        for directory, _, files in sorted(os.walk(work)):
            if directory == work:
                continue
            for name in sorted(files):
                path = os.path.relpath(os.path.join(directory, name), work)
                with open(os.path.join(work, path), "rb") as f:
                    digests[path] = hashlib.sha256(f.read()).hexdigest()
                print(f"{digests[path]}  {path}")
    code = 0
    for strips, whole in _SAME.items():
        want = {os.path.basename(path): digest for path, digest in digests.items()
                if os.path.dirname(path) in whole}
        got = {os.path.basename(path): digest for path, digest in digests.items()
               if os.path.dirname(path) == strips}
        if got != want:
            print(f"{strips}/ differs from {', '.join(d + '/' for d in whole)}", file=sys.stderr)
            code = 1
    if digests["eval/metrics.csv"] != digests["run1/metrics.csv"]:
        print("eval/metrics.csv differs from run1/metrics.csv", file=sys.stderr)
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
