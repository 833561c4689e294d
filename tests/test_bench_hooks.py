"""The benchmark's hooks still reach the library.

`perfbench/spans.py` wraps lsaf's functions by name, on `lsaf.cli` where the
commands look them up, and reads `PatchSet` fields; a renamed or bypassed
function would leave its span empty and its metric reading 0. Each command
runs traced through `perfbench/child.py` in a subprocess on a tiny scene, and
every span the hooks install for that command must record time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lsaf import cli

ROOT = Path(__file__).resolve().parents[1]

BLOCKS = ("hsi.block1", "hsi.block2", "hsi.block3", "hsi.block4",
          "lidar.block1", "lidar.block2", "lidar.block3")

# Per-layer metrics that each command's spans and counters feed.
INFERENCE = ["cli.command_s", "cli.apply_preprocessing_s", "data.pca_transform_s",
             "data.extract_patches_s", "data.patch_mb", "train.predict_s",
             "train.predict_batches", "storage.read_raster_s", "storage.read_labels_s",
             "model.bn_relu_s", "model.attention_fwd_s", "model.heads_fwd_s",
             "tensor.conv_fwd_gflop"] + [f"tensor.conv_fwd_s.{b}" for b in BLOCKS]
METRICS = {
    "train": INFERENCE + ["cli.fit_preprocessing_s", "data.pca_fit_s", "data.split_s",
                          "train.forward_s", "train.loss_s", "train.adam_step_s",
                          "train.data_wait_s", "train.steps", "train.samples",
                          "tensor.backward_s", "tensor.tape_nodes",
                          "storage.write_checkpoint_s", "storage.checkpoint_mb"]
                         + [f"tensor.conv_bwd_s.{b}" for b in BLOCKS],
    "eval": INFERENCE + ["data.split_s", "storage.read_checkpoint_s"],
    "map": INFERENCE + ["storage.read_checkpoint_s", "storage.write_ppm_s"],
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The trace report of each command: train on a 12×12 scene, then eval
    and map its checkpoint."""
    work = tmp_path_factory.mktemp("hooks")
    assert cli.main(["synth", "--classes", "3", "--height", "12", "--width", "12",
                     "--bands", "16", "--seed", "4", "--out", str(work / "scene")]) == 0
    config = {name: str(work / "scene" / f"{name}.lsaf") for name in ("hsi", "lidar", "labels")}
    config.update(patch=7, pca_dims=13, hidden=16, epochs=1, batch=32, train_fraction=0.5)
    (work / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LSAF_THREADS="1")
    reports = {}
    for command in ("train", "eval", "map"):
        out = work / command
        argv = [command, "--config", str(work / "config.json"), "--out", str(out)]
        if command != "train":
            argv += ["--checkpoint", str(work / "train" / "checkpoint.lsfw")]
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), "--report",
             str(work / f"{command}.json"), "--trace", "--", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
        reports[command] = (proc, json.loads((work / f"{command}.json").read_text()))
    return reports


@pytest.mark.parametrize("command", sorted(METRICS))
def test_every_hooked_span_records(traced, command):
    proc, report = traced[command]
    assert proc.returncode == 0, proc.stderr
    assert report["exit_code"] == 0
    empty = [name for name in METRICS[command] if not report["layers"][name] > 0]
    assert empty == []
