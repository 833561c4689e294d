"""Output checks. Each returns a list of failure messages; empty means pass.

Reference values live in `reference.json` next to this file and were made
by `calibrate.py` at the commit that introduced the benchmark: the sha256 of
each world input, and per input seed the outputs of the timed command. A
kernel that is fast because it computes something else moves the
train-paper loss, OA or Adam moments, the map-dense map or the eval-sparse
accuracy out of the tolerances below.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

from lsaf import storage
from lsaf.cli import palette_color
from workloads import split_sizes

# train-paper: relative tolerance of the final loss.
TRAIN_LOSS_RTOL = 1e-3
# train-paper: relative tolerance of the norm of each parameter's first
# Adam moment in the written checkpoint. After two steps the moment is
# 0.09·g1 + 0.1·g2, so it checks the gradients, conv backward included.
# Reordering the conv sums moves the batch-norm parameters' norms by up to
# 0.5%; see NOTES.md.
MOMENT_NORM_RTOL = 2e-2
# map-dense: share of map pixels that must have the stored class.
MAP_MIN_AGREEMENT = 0.995
# OA (train-paper, eval-sparse) may differ from the stored value by the
# weight of one test pixel, and eval-sparse's correct count of each class
# by one pixel.


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 24), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_world(paths: dict, want: dict) -> list[str]:
    """The world scene this run generated and the checked-in checkpoint,
    against the sha256 stored when the checkpoint was made."""
    return [f"world file {name} has sha256 {got}, reference {want[name]}"
            for name, path in sorted(paths.items())
            if (got := sha256(path)) != want[name]]


def expected_test_size(labels: np.ndarray, fraction: float) -> int:
    """Test-split size of a label map under lsaf's documented split rule."""
    counts = np.bincount(labels[labels != 0])
    return sum(split_sizes(int(n), fraction)[1] for n in counts)


def read_losses(path: str) -> list[float]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return [float(r[1]) for r in rows[1:]]


def read_metrics(path: str) -> dict:
    """OA (percent), its support total and the correct test pixels of each
    class from metrics.csv."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    named = {r[0]: r for r in rows}
    per_class = [r for r in rows[1:] if r[0].startswith("Class ")]
    return {"oa": float(named["OA"][1]), "support": int(named["OA"][2]),
            "correct": [round(float(r[1]) * int(r[2]) / 100.0) for r in per_class]}


def check_losses(losses: list[float], epochs: int) -> list[str]:
    if len(losses) != epochs:
        return [f"trace.csv has {len(losses)} epochs, expected {epochs}"]
    if not all(math.isfinite(x) for x in losses):
        return [f"trace.csv has non-finite losses {losses}"]
    return []


def check_checkpoint(path: str, epochs: int) -> list[str]:
    try:
        state = storage.read_checkpoint(path)
    except Exception as e:  # any failure to read back is a failed output
        return [f"checkpoint {path} does not read back: {e}"]
    got = float(state.get("meta.epochs_trained", -1))
    if got != epochs:
        return [f"checkpoint records {got} epochs trained, expected {epochs}"]
    return []


def moment_norms(checkpoint: str) -> dict:
    """Norm of each parameter's first Adam moment stored in a checkpoint."""
    state = storage.read_checkpoint(checkpoint)
    return {k[len("opt.m."):]: float(np.linalg.norm(v.astype(np.float64)))
            for k, v in state.items() if k.startswith("opt.m.")}


def check_oa(oa: float, want: float, test: int) -> list[str]:
    if abs(oa - want) > 100.0 / test + 1e-6:
        return [f"OA {oa} vs reference {want}, more than one of {test} test pixels apart"]
    return []


def check_train(out_dir: str, labels, wl, ref: dict | None) -> list[str]:
    fails = []
    losses = read_losses(os.path.join(out_dir, "trace.csv"))
    fails += check_losses(losses, wl.epochs)
    checkpoint = os.path.join(out_dir, "checkpoint.lsfw")
    fails += check_checkpoint(checkpoint, wl.epochs)
    metrics = read_metrics(os.path.join(out_dir, "metrics.csv"))
    test = expected_test_size(labels, wl.train_fraction)
    if metrics["support"] != test:
        fails.append(f"metrics.csv support {metrics['support']}, test split has {test}")
    if fails or ref is None:
        return fails
    if abs(losses[-1] - ref["final_loss"]) > TRAIN_LOSS_RTOL * ref["final_loss"]:
        fails.append(f"final loss {losses[-1]} vs reference {ref['final_loss']}")
    fails += check_oa(metrics["oa"], ref["oa"], test)
    norms = moment_norms(checkpoint)
    if norms.keys() != ref["moment_norms"].keys():
        return fails + ["checkpoint holds other Adam moments than the reference"]
    off = [name for name, want in ref["moment_norms"].items()
           if abs(norms[name] - want) > MOMENT_NORM_RTOL * want]
    if off:
        fails.append(f"Adam first-moment norms of {len(off)} parameters differ from the "
                     f"reference by more than {MOMENT_NORM_RTOL:g} relative, e.g. {off[0]}: "
                     f"{norms[off[0]]} vs {ref['moment_norms'][off[0]]}")
    return fails


def check_finetune(out_dir: str, epochs: int) -> list[str]:
    return (check_losses(read_losses(os.path.join(out_dir, "trace.csv")), 1)
            + check_checkpoint(os.path.join(out_dir, "checkpoint.lsfw"), epochs))


def decode_map(rgb: np.ndarray, classes: int) -> np.ndarray:
    """Class per pixel from palette colours; 0 for black, -1 for a colour
    outside the palette of the first `classes` classes."""
    out = np.full(rgb.shape[:2], -1, dtype=np.int64)
    for cls in range(classes, -1, -1):  # lower classes win shared colours
        out[np.all(rgb == palette_color(cls), axis=-1)] = cls
    return out


def encode_map(pred: np.ndarray) -> list[str]:
    """A class map as one base-36 digit per pixel, one string per row."""
    return ["".join(np.base_repr(int(v), 36).lower() for v in row) for row in pred]


def decode_stored_map(rows: list[str]) -> np.ndarray:
    return np.array([[int(ch, 36) for ch in row] for row in rows])


def read_map(out_dir: str, classes: int) -> np.ndarray:
    return decode_map(storage.read_ppm(os.path.join(out_dir, "map.ppm")), classes)


def check_map(out_dir: str, labels, classes: int, ref: dict | None) -> list[str]:
    pred = read_map(out_dir, classes)
    if pred.shape != labels.shape:
        return [f"map.ppm is {pred.shape}, scene is {labels.shape}"]
    labelled = labels != 0
    fails = []
    if np.any(pred[labelled] <= 0):
        fails.append(f"{int(np.sum(pred[labelled] <= 0))} labelled pixels are black "
                     "or off the palette")
    if np.any(pred[~labelled] != 0):
        fails.append("unlabelled pixels are not black")
    if fails or ref is None:
        return fails
    agree = float(np.mean(pred == decode_stored_map(ref["map"])))
    if agree < MAP_MIN_AGREEMENT:
        fails.append(f"map matches the stored map on {agree:.4f} of pixels, "
                     f"below {MAP_MIN_AGREEMENT}")
    return fails


def check_eval(out_dir: str, labels, wl, ref: dict | None) -> list[str]:
    metrics = read_metrics(os.path.join(out_dir, "metrics.csv"))
    test = expected_test_size(labels, wl.train_fraction)
    if metrics["support"] != test:
        return [f"metrics.csv support {metrics['support']}, test split has {test}"]
    if ref is None:
        return []
    fails = check_oa(metrics["oa"], ref["oa"], test)
    off = [i + 1 for i, (got, want) in enumerate(zip(metrics["correct"], ref["correct"]))
           if abs(got - want) > 1]
    if len(metrics["correct"]) != len(ref["correct"]) or off:
        fails.append(f"correct test pixels per class {metrics['correct']} vs reference "
                     f"{ref['correct']}, more than one apart for classes {off}")
    return fails
