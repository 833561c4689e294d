"""Adam optimization, the mini-batch training loop, and evaluation metrics.

Determinism contract: with a fixed seed and a fixed thread count, repeated
runs produce bit-identical parameters and loss traces. Each epoch's shuffle
is drawn from a generator seeded with (config.seed, epoch), so epoch k is
reproducible without replaying epochs 0..k-1.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import storage
from . import tensor as T
from .data import PatchSet
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .model import LsafModel
from .tensor import Tensor

# Side, in pixels, of the square scene tiles that `predict` may convolve
# whole. It bounds the largest buffers of a tile's forward, the column
# buffers of HSI blocks 2 and 3: block3's is 144 rows by the 20×15×15
# positions of a full tile at the paper geometry, about 2.5 MiB of float32.
# HSI block4's tap products are 576 rows by the tile's 15×15 map positions,
# not by its 121 windows' 3,025.
TILE = 11

# Patches per forward in inference (`evaluate`, `predict`).
BATCH = 256


@dataclass
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 110
    batch: int = 128
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError(f"learning rate must be non-negative, got {self.lr}")
        if self.batch < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch}")
        if self.epochs < 0:
            raise ConfigError(f"epoch count must be >= 0, got {self.epochs}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= b < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {b}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], config: TrainConfig):
        self.params = params
        self.config = config
        self.moment1 = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.moment2 = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.steps = 0

    def step(self) -> None:
        """One update; every parameter must carry a gradient."""
        cfg = self.config
        self.steps += 1
        correction1 = 1.0 - cfg.beta1 ** self.steps
        correction2 = 1.0 - cfg.beta2 ** self.steps
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"adam step with no gradient on '{name}'")
            g = p.grad
            m = self.moment1[name]
            v = self.moment2[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_dict(self) -> dict:
        out = {"opt.steps": np.array(float(self.steps))}
        for name in self.params:
            out[f"opt.m.{name}"] = self.moment1[name]
            out[f"opt.v.{name}"] = self.moment2[name]
        return out

    def load_state(self, state: dict) -> None:
        if "opt.steps" not in state:
            raise ContractError("checkpoint carries no optimizer state to resume from")
        self.steps = storage.checkpoint_count(state, "opt.steps")
        for name in self.params:
            for table, key in ((self.moment1, f"opt.m.{name}"), (self.moment2, f"opt.v.{name}")):
                if key not in state:
                    raise ContractError(f"optimizer state is missing '{key}'")
                incoming = np.asarray(state[key])
                if incoming.shape != table[name].shape:
                    raise ContractError(
                        f"optimizer moment '{key}' has shape {incoming.shape}, "
                        f"expected {table[name].shape}"
                    )
                table[name] = incoming.astype(table[name].dtype)


# ----------------------------------------------------------------------
# training loop


def _batch_tensors(patches: PatchSet, idx: np.ndarray, dtype):
    hsi, lidar = (Tensor(a.astype(dtype, copy=False)) for a in patches.cut(idx))
    labels = patches.labels[idx].astype(np.int64) - 1  # classes 1..K → 0..K-1
    return hsi, lidar, labels


def _nan_diagnostic(model: LsafModel, epoch: int, batch_index: int) -> str:
    broken = []
    for name, p in model.params().items():
        if not np.all(np.isfinite(p.data)) or (
            p.grad is not None and not np.all(np.isfinite(p.grad))
        ):
            broken.append(name.split(".")[0])
    groups = sorted(set(broken)) or ["loss"]
    return (
        f"non-finite loss at epoch {epoch}, batch {batch_index}; "
        f"affected parameter group(s): {', '.join(groups)}"
    )


def train(
    model: LsafModel,
    train_set: PatchSet,
    config: TrainConfig,
    callbacks=(),
    optimizer: Adam | None = None,
    start_epoch: int = 0,
):
    """Optimize `model` on `train_set`; returns (params, per-epoch losses).

    Callbacks run after every epoch as cb(epoch, model, epoch_loss). Pass an
    existing optimizer and `start_epoch` to resume a checkpointed run with
    its moments and shuffle sequence intact.
    """
    if len(train_set) == 0:
        raise ConfigError("training set is empty")
    if np.max(train_set.labels) > model.config.num_classes:
        raise ConfigError(
            f"training labels reach {int(np.max(train_set.labels))}, "
            f"model has {model.config.num_classes} classes"
        )
    params = model.params()
    opt = optimizer or Adam(params, config)
    dtype = T.default_dtype()
    n = len(train_set)
    losses: list[float] = []

    for epoch in range(start_epoch, config.epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(n)
        epoch_loss = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch)):
            idx = order[start : start + config.batch]
            hsi, lidar, labels = _batch_tensors(train_set, idx, dtype)
            logits = model.forward(hsi, lidar, training=True)
            loss = T.cross_entropy(logits, labels)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericError(_nan_diagnostic(model, epoch, batch_index))
            opt.zero_grads()
            loss.backward()
            opt.step()
            epoch_loss += loss_value * idx.size
        epoch_loss /= n
        losses.append(epoch_loss)
        for cb in callbacks:
            cb(epoch, model, epoch_loss)
    return params, losses


# ----------------------------------------------------------------------
# evaluation


@dataclass
class MetricsReport:
    """Confusion matrix (rows = true class, cols = predicted) plus the
    derived accuracy figures, all in percent except kappa."""

    confusion: np.ndarray
    per_class: np.ndarray = field(init=False)
    oa: float = field(init=False)
    aa: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        conf = np.asarray(self.confusion, dtype=np.int64)
        if conf.ndim != 2 or conf.shape[0] != conf.shape[1]:
            raise ConfigError(f"confusion matrix must be square, got {conf.shape}")
        self.confusion = conf
        total = conf.sum()
        if total == 0:
            raise ConfigError("confusion matrix is empty")
        support = conf.sum(axis=1)
        with np.errstate(invalid="ignore"):
            per_class = np.where(support > 0, np.diag(conf) / np.maximum(support, 1), 0.0)
        self.per_class = per_class * 100.0
        self.oa = float(np.trace(conf) / total * 100.0)
        covered = support > 0
        self.aa = float(self.per_class[covered].mean()) if covered.any() else 0.0
        observed = np.trace(conf) / total
        expected = float((support * conf.sum(axis=0)).sum()) / float(total) ** 2
        if expected >= 1.0:
            self.kappa = 1.0 if observed == 1.0 else 0.0
        else:
            self.kappa = float((observed - expected) / (1.0 - expected))

    @property
    def num_classes(self) -> int:
        return self.confusion.shape[0]


def evaluate(model: LsafModel, test_set: PatchSet) -> MetricsReport:
    """Argmax predictions over the test set, tallied into a MetricsReport."""
    if len(test_set) == 0:
        raise ConfigError("evaluation set is empty")
    preds = predict(model, test_set)
    return MetricsReport(
        confusion=confusion_matrix(test_set.labels, preds, model.config.num_classes)
    )


class Tile(NamedTuple):
    """A scene tile: its top-left pixel, its extent, and which pixels of the
    predicted set lie inside it (indices into the set, in set order)."""

    row: int
    col: int
    height: int
    width: int
    members: np.ndarray


def plan_tiles(pixels: np.ndarray, height: int, width: int,
               tile_flops: Callable[[int, int], int]):
    """Choose, per scene tile, between shared and per-patch inference.

    The height×width scene is cut into TILE×TILE tiles, the last row and
    column ragged. A tile holding n of `pixels` is shared when convolving it
    whole costs fewer FLOPs than n single patches do:
    `tile_flops(h, w) < n · tile_flops(1, 1)`. Returns the shared tiles and,
    in set order, the indices of all other pixels.
    """
    pixels = np.asarray(pixels, dtype=np.int64).reshape(-1, 2)
    tile_flops = functools.lru_cache(maxsize=None)(tile_flops)  # 4 tile shapes at most
    tile_cols = -(-width // TILE)
    tile_of = (pixels[:, 0] // TILE) * tile_cols + pixels[:, 1] // TILE
    order = np.argsort(tile_of, kind="stable")
    ids, starts, counts = np.unique(tile_of[order], return_index=True, return_counts=True)
    patch_flops = tile_flops(1, 1)
    shared = []
    per_patch = np.ones(len(pixels), dtype=bool)
    for tile_id, start, count in zip(ids.tolist(), starts.tolist(), counts.tolist()):
        row, col = tile_id // tile_cols * TILE, tile_id % tile_cols * TILE
        h, w = min(TILE, height - row), min(TILE, width - col)
        if tile_flops(h, w) < count * patch_flops:
            members = order[start:start + count]
            shared.append(Tile(row, col, h, w, members))
            per_patch[members] = False
    return shared, np.flatnonzero(per_patch)


def predict(model: LsafModel, patches: PatchSet) -> np.ndarray:
    """Predicted labels (1..K) for every patch, in the set's order.

    The set may hold the whole scene or a strip of its rows, as the
    commands pass it, already projected: `predict` reads no file and projects
    nothing. Inference may convolve tiles of the set's rasters once and
    share the results between pixels: `plan_tiles` picks per tile by a FLOP
    count from layer shapes, and a strip's tiles are the scene's. A shared
    tile is one forward over its `tensor.MapWindows`. Its valid convolutions
    run once, and so does HSI block4's tap GEMM, whose products each pixel's
    window then sums as if zero-padded on its own; the LiDAR features are
    gathered per window. The pixels of all other tiles go through plain
    per-patch batches of `BATCH`, pooled across tiles, a batch of fewer than
    8 padded with repeats: at the paper geometry (patch 11, hidden width 128)
    no batch changes a pixel's bytes, at others a small one still may. The
    logits agree with per-patch inference within the convolution tolerance
    of `tensor.py`, not bit for bit, so a label can differ only at a
    near-tie; repeated calls agree bit for bit.
    """
    return predict_logits(model, patches).argmax(axis=1) + 1


def predict_logits(model: LsafModel, patches: PatchSet) -> np.ndarray:
    """Class logits (n, K) for every patch, in the set's order: the scores
    behind `predict`, computed the same way."""
    if patches.patch != model.config.patch:
        raise ShapeError(
            f"patches are {patches.patch}x{patches.patch}, model expects {model.config.patch}"
        )
    dtype = T.default_dtype()
    out = np.empty((len(patches), model.config.num_classes))  # float64 holds either dtype
    shared, per_patch = plan_tiles(patches.pixels, *patches.lidar.shape[1:], model.tile_conv_flops)
    with T.no_grad():
        for start in range(0, len(per_patch), BATCH):
            idx = per_patch[start : start + BATCH]
            # OpenBLAS 0.3.31 gives a GEMM row other bytes in a small product:
            # at the paper geometry, of 1 row (any linear layer), 1-4 (the
            # heads' 1600 inputs) or 1-2 (3200), so fewer than 8 run as 8; at
            # patch 9 products of up to 13 rows differ, at hidden 16 up to 39.
            rows = np.resize(idx, max(len(idx), 8))
            hsi, lidar, _ = _batch_tensors(patches, rows, dtype)
            out[idx] = model.forward(hsi, lidar, training=False).data[:len(idx)]
        for tile in shared:
            index = np.zeros((len(tile.members), 3), dtype=np.intp)
            index[:, 1:] = patches.pixels[tile.members] - (tile.row, tile.col)
            hsi, lidar = (T.MapWindows(Tensor(a[None].astype(dtype, copy=False)), index,
                                       patches.patch)
                          for a in patches.area(tile.row, tile.col, tile.height, tile.width))
            out[tile.members] = model.forward(hsi, lidar, training=False).data
    return out


def confusion_matrix(true_labels: np.ndarray, predicted: np.ndarray, k: int) -> np.ndarray:
    """K×K tally of (true 1..K, predicted 1..K) pairs."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true_labels.shape != predicted.shape:
        raise ConfigError(
            f"label arrays disagree: {true_labels.shape} vs {predicted.shape}"
        )
    if true_labels.min() < 1 or true_labels.max() > k:
        raise ConfigError(f"true labels must lie in 1..{k}")
    if predicted.min() < 1 or predicted.max() > k:
        raise ConfigError(f"predictions must lie in 1..{k}")
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (true_labels - 1, predicted - 1), 1)
    return conf


# ----------------------------------------------------------------------
# reporting


def render_report(report: MetricsReport) -> str:
    """Per-class accuracy table plus the three summary rows."""
    names = [f"Class {i}" for i in range(1, report.num_classes + 1)]
    width = max(len(n) for n in names + ["Class"])
    lines = [f"{'No.':>3}  {'Class':<{width}}  {'Accuracy':>8}"]
    lines.append("-" * len(lines[0]))
    for i, name in enumerate(names):
        lines.append(f"{i + 1:>3}  {name:<{width}}  {report.per_class[i]:>8.2f}")
    lines.append("-" * len(lines[0]))
    lines.append(f"{'':>3}  {'OA':<{width}}  {report.oa:>8.2f}")
    lines.append(f"{'':>3}  {'AA':<{width}}  {report.aa:>8.2f}")
    lines.append(f"{'':>3}  {'Kappa':<{width}}  {report.kappa:>8.4f}")
    return "\n".join(lines)


def write_metrics_csv(path, report: MetricsReport) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["class", "accuracy_percent", "support"])
        support = report.confusion.sum(axis=1)
        for i in range(report.num_classes):
            writer.writerow([f"Class {i + 1}", f"{report.per_class[i]:.4f}", int(support[i])])
        writer.writerow(["OA", f"{report.oa:.4f}", int(report.confusion.sum())])
        writer.writerow(["AA", f"{report.aa:.4f}", ""])
        writer.writerow(["kappa", f"{report.kappa:.6f}", ""])


def write_trace_csv(path, losses, start_epoch: int) -> None:
    """One row per epoch, numbered from `start_epoch`, the epoch the run
    started or resumed at."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(losses, start=start_epoch):
            writer.writerow([epoch, f"{loss:.10f}"])
