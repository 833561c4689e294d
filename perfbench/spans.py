"""In-memory span recording and the per-layer metrics derived from it.

A span is `[name, start, end, parent]`, where `parent` is the index of the
enclosing span in the same list (-1 at the top). Spans are recorded by
wrapping the library's public functions from the outside (see
`instrument`); nothing inside `src/` records anything. The spans stay in a
list until the traced process exits and are then written out whole.

Self time of a span = its duration minus the part of that interval its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import counters

BLOCKS = counters.BLOCKS


class Tracer:
    """Records nested spans and named counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.predicted_pixels: list = []  # (pixels array, patch size) per predict call
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def wrap(self, fn, name: str):
        """`fn` with every call recorded as a span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced


def self_times(spans: list) -> list[float]:
    """Self time of every span, in list order."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def totals(spans: list) -> tuple[dict, dict, dict]:
    """Per span name: summed duration, summed self time, and call count."""
    duration: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        duration[name] += end - start
        self_time[name] += own
        calls[name] += 1
    return duration, self_time, calls


# ----------------------------------------------------------------------
# wrapping the library where its callers look names up


def instrument(tracer: Tracer) -> None:
    """Wrap lsaf's public functions so that each call records a span.

    `lsaf.cli` imports pca_fit, pca_transform, extract_patches, split,
    predict, evaluate and train by name, so those are wrapped on `lsaf.cli`
    (and predict also on `lsaf.train`, where evaluate looks it up). Each
    ConvBlock binds its conv function at construction, so the block
    instances' `_conv` are wrapped after every model is built.
    """
    # `lsaf.train` the attribute is the train() function, so modules are
    # looked up in the module table rather than by attribute access.
    cli = importlib.import_module("lsaf.cli")
    train_mod = importlib.import_module("lsaf.train")
    model_mod = importlib.import_module("lsaf.model")
    storage = importlib.import_module("lsaf.storage")
    tensor = importlib.import_module("lsaf.tensor")

    for attr, span in (
        ("cmd_train", "cli.command"),
        ("cmd_eval", "cli.command"),
        ("cmd_map", "cli.command"),
        ("_fit_preprocessing", "cli.fit_preprocessing"),
        ("_apply_preprocessing", "cli.apply_preprocessing"),
        ("pca_fit", "data.pca_fit"),
        ("pca_transform", "data.pca_transform"),
        ("split", "data.split"),
        ("evaluate", "train.evaluate"),
        ("train", "train.train"),
    ):
        setattr(cli, attr, tracer.wrap(getattr(cli, attr), span))

    extract = cli.extract_patches

    def extract_patches(*args, **kwargs):
        index = tracer.begin("data.extract_patches")
        try:
            patches = extract(*args, **kwargs)
        finally:
            tracer.end(index)
        tracer.counters["data.patch_bytes"] += sum(
            a.nbytes for a in (patches.hsi, patches.lidar, patches.labels, patches.pixels))
        return patches

    cli.extract_patches = extract_patches

    def traced_predict(fn):
        def predict(model, patches, *args, **kwargs):
            tracer.predicted_pixels.append((patches.pixels.copy(), patches.patch))
            index = tracer.begin("train.predict")
            try:
                return fn(model, patches, *args, **kwargs)
            finally:
                tracer.end(index)
        return predict

    cli.predict = traced_predict(cli.predict)
    train_mod.predict = traced_predict(train_mod.predict)

    for attr in ("read_raster", "read_labels", "read_checkpoint"):
        def reader(path, _fn=getattr(storage, attr), _span=f"storage.{attr}"):
            tracer.counters["storage.read_bytes"] += os.path.getsize(path)
            index = tracer.begin(_span)
            try:
                return _fn(path)
            finally:
                tracer.end(index)
        setattr(storage, attr, reader)

    write_ckpt = storage.write_checkpoint

    def write_checkpoint(path, tensors):
        index = tracer.begin("storage.write_checkpoint")
        try:
            write_ckpt(path, tensors)
        finally:
            tracer.end(index)
        tracer.counters["storage.checkpoint_bytes"] = os.path.getsize(path)

    storage.write_checkpoint = write_checkpoint
    storage.write_ppm = tracer.wrap(storage.write_ppm, "storage.write_ppm")

    tensor.cross_entropy = tracer.wrap(tensor.cross_entropy, "train.loss")
    train_mod.Adam.step = tracer.wrap(train_mod.Adam.step, "train.adam_step")

    backward = tensor.Tensor.backward

    def traced_backward(self):
        tracer.counters["tensor.tape_nodes"] += tape_nodes(self)
        tracer.counters["tensor.backward_calls"] += 1
        index = tracer.begin("tensor.backward")
        try:
            backward(self)
        finally:
            tracer.end(index)

    tensor.Tensor.backward = traced_backward

    forward = model_mod.LsafModel.forward

    def traced_forward(self, hsi_patches, lidar_patches, training=False):
        n = len(hsi_patches.data) if hasattr(hsi_patches, "data") else len(hsi_patches)
        if training:
            tracer.counters["train.steps"] += 1
            tracer.counters["train.samples"] += n
        else:
            tracer.counters["train.predict_batches"] += 1
        index = tracer.begin("train.forward" if training else "model.forward_infer")
        try:
            return forward(self, hsi_patches, lidar_patches, training)
        finally:
            tracer.end(index)

    model_mod.LsafModel.forward = traced_forward

    block_names: dict[int, str] = {}
    init = model_mod.LsafModel.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        blocks = list(self.hsi_extractor.blocks3d) + [self.hsi_extractor.block2d]
        blocks += list(self.lidar_extractor.blocks)
        for name, block in zip(BLOCKS, blocks):
            block_names[id(block)] = name
            block._conv = _traced_conv(tracer, block._conv, name)

    model_mod.LsafModel.__init__ = traced_init

    block_call = model_mod.ConvBlock.__call__

    def traced_block(self, x, training):
        index = tracer.begin(f"model.block.{block_names.get(id(self), '?')}")
        try:
            return block_call(self, x, training)
        finally:
            tracer.end(index)

    model_mod.ConvBlock.__call__ = traced_block
    model_mod.LinearSelfAttention.__call__ = tracer.wrap(
        model_mod.LinearSelfAttention.__call__, "model.attention")
    model_mod.DecisionFusion.__call__ = tracer.wrap(
        model_mod.DecisionFusion.__call__, "model.heads")


def _traced_conv(tracer: Tracer, conv, block: str):
    """Time one block's conv forward, count its work from the shapes, and
    wrap the grad closure of the node it returns to time its backward."""

    def traced(x, kernels, stride=1, padding=0):
        index = tracer.begin(f"tensor.conv_fwd.{block}")
        try:
            out = conv(x, kernels, stride=stride, padding=padding)
        finally:
            tracer.end(index)
        flop, nbytes = counters.conv_work(x.shape, kernels.shape, out.shape,
                                          out.data.itemsize)
        tracer.counters[f"tensor.conv_fwd_flop.{block}"] += flop
        tracer.counters[f"tensor.conv_fwd_bytes.{block}"] += nbytes
        if out._grad_fn is not None:
            out._grad_fn = tracer.wrap(out._grad_fn, f"tensor.conv_bwd.{block}")
        return out

    return traced


def tape_nodes(root) -> int:
    """Recorded operations reachable from `root` (nodes with a grad closure)."""
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        node = stack.pop()
        if node._grad_fn is not None:
            count += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


# ----------------------------------------------------------------------
# per-layer metrics


MIB = 1024.0 * 1024.0


def layer_metrics(spans: list, counts: dict, predicted: list) -> dict[str, float]:
    """Every per-layer metric of one traced command, keyed by metric name.

    Layers the command never ran report 0. Times are totals over the
    command, except `tensor.backward_s` and `tensor.tape_nodes`, which are
    per training step.
    """
    duration, self_time, calls = totals(spans)
    out: dict[str, float] = {}
    flop = nbytes = conv_s = 0.0
    for block in BLOCKS:
        fwd = duration.get(f"tensor.conv_fwd.{block}", 0.0)
        out[f"tensor.conv_fwd_s.{block}"] = fwd
        out[f"tensor.conv_bwd_s.{block}"] = duration.get(f"tensor.conv_bwd.{block}", 0.0)
        block_flop = counts.get(f"tensor.conv_fwd_flop.{block}", 0.0)
        block_bytes = counts.get(f"tensor.conv_fwd_bytes.{block}", 0.0)
        out[f"tensor.conv_fwd_gflop.{block}"] = block_flop / 1e9
        out[f"tensor.conv_fwd_mb_moved.{block}"] = block_bytes / MIB
        flop += block_flop
        nbytes += block_bytes
        conv_s += fwd
    steps = counts.get("tensor.backward_calls", 0.0)
    out["tensor.backward_s"] = duration.get("tensor.backward", 0.0) / steps if steps else 0.0
    out["tensor.tape_nodes"] = counts.get("tensor.tape_nodes", 0.0) / steps if steps else 0.0
    out["tensor.conv_fwd_gflop"] = flop / 1e9
    out["tensor.conv_fwd_mb_moved"] = nbytes / MIB
    out["tensor.conv_fwd_gflop_per_s"] = flop / 1e9 / conv_s if conv_s else 0.0

    out["model.bn_relu_s"] = sum(self_time.get(f"model.block.{b}", 0.0) for b in BLOCKS)
    out["model.attention_fwd_s"] = duration.get("model.attention", 0.0)
    out["model.heads_fwd_s"] = duration.get("model.heads", 0.0)
    ratios = counters.useful_ratios(predicted)
    for block in BLOCKS:
        out[f"model.conv_useful_ratio.{block}"] = ratios[block]

    out["train.forward_s"] = duration.get("train.forward", 0.0)
    out["train.loss_s"] = duration.get("train.loss", 0.0)
    out["train.adam_step_s"] = duration.get("train.adam_step", 0.0)
    out["train.data_wait_s"] = self_time.get("train.train", 0.0)
    out["train.steps"] = counts.get("train.steps", 0.0)
    out["train.samples"] = counts.get("train.samples", 0.0)
    out["train.predict_s"] = duration.get("train.predict", 0.0)
    out["train.predict_batches"] = counts.get("train.predict_batches", 0.0)

    for name in ("pca_fit", "pca_transform", "extract_patches", "split"):
        out[f"data.{name}_s"] = duration.get(f"data.{name}", 0.0)
    out["data.patch_mb"] = counts.get("data.patch_bytes", 0.0) / MIB

    for name in ("read_raster", "read_labels", "read_checkpoint", "write_checkpoint",
                 "write_ppm"):
        out[f"storage.{name}_s"] = duration.get(f"storage.{name}", 0.0)
    out["storage.read_mb"] = counts.get("storage.read_bytes", 0.0) / MIB
    out["storage.checkpoint_mb"] = counts.get("storage.checkpoint_bytes", 0.0) / MIB

    out["cli.fit_preprocessing_s"] = duration.get("cli.fit_preprocessing", 0.0)
    out["cli.apply_preprocessing_s"] = duration.get("cli.apply_preprocessing", 0.0)
    out["cli.command_s"] = duration.get("cli.command", 0.0)
    return out
