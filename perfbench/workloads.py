"""Workload definitions and the inputs each one generates from its seed.

The program under test only ever receives files: `.lsaf` rasters and label
maps, JSON configs and, for map-dense and eval-sparse, a checkpoint. All
scenes come from `lsaf.data.synth_generate`; label masks are drawn here.

map-dense and eval-sparse each evaluate a checkpoint that was trained once
on a fixed "world" scene and is checked in under `worlds/`; every run
regenerates the world scene (`write_world`). A run's seed then picks the
part of that world the run classifies: a 40×40 crop for map-dense, a 0.2%
label mask for eval-sparse.

Inputs are drawn from the seed modulo `REFERENCE_SEEDS`, so every run has
reference outputs stored with the benchmark (`reference.json`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from lsaf import storage
from lsaf.data import synth_generate

HERE = os.path.dirname(os.path.abspath(__file__))

PATCH = 11
PCA_DIMS = 30
BATCH = 128
DTYPE = "float32"
REFERENCE_SEEDS = 16  # distinct input sets; seed n uses set n mod 16


@dataclass(frozen=True)
class World:
    """A fixed scene, and how its checked-in checkpoint was trained."""

    classes: int
    height: int
    width: int
    bands: int
    seed: int
    train_per_class: int = 24
    epochs: int = 8
    lr: float = 1e-3
    train_fraction: float = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # lsaf subcommand timed by the run
    threads: int  # LSAF_THREADS
    classes: int
    height: int
    width: int
    bands: int
    train_fraction: float
    # Labels: every pixel when both are None, else a seeded mask grown until
    # the stratified split holds exactly this many train / test samples.
    n_train: int | None = None
    n_test: int | None = None
    lr: float = 1e-4
    epochs: int = 1
    world: World | None = None
    min_commands: int = 1  # timed commands per run, at least
    finetune_train: int = 2 * BATCH  # training samples of the per-run fine-tune

    def describe(self) -> dict:
        return {
            "command": f"lsaf {self.command}",
            "scene": f"{self.height}x{self.width}x{self.bands}, {self.classes} classes",
            "labels": ("all pixels" if self.n_train is None and self.n_test is None else
                       f"seeded mask, train split {self.n_train}, test split {self.n_test}"),
            "patch": PATCH, "pca_dims": PCA_DIMS, "batch": BATCH, "dtype": DTYPE,
            "LSAF_THREADS": self.threads, "lr": self.lr, "epochs": self.epochs,
            "train_fraction": self.train_fraction,
            "world": None if self.world is None else vars(self.world),
            "finetune_train": None if self.world is None else self.finetune_train,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-paper", "train", threads=2, classes=15, height=32, width=32,
                 bands=48, train_fraction=0.8, n_train=2 * BATCH, min_commands=2),
        Workload("map-dense", "map", threads=1, classes=15, height=40, width=40,
                 bands=48, train_fraction=0.9,
                 world=World(classes=15, height=96, width=96, bands=48, seed=2104)),
        # Houston 2013 is 349x1905x144; 1,197 test pixels is 0.2% labelled.
        Workload("eval-sparse", "eval", threads=1, classes=15, height=349, width=1905,
                 bands=144, train_fraction=0.1, n_test=1197,
                 world=World(classes=15, height=349, width=1905, bands=144, seed=2013)),
    )
}


def config(hsi, lidar, labels, out, *, seed, lr, epochs, train_fraction) -> dict:
    return {"hsi": hsi, "lidar": lidar, "labels": labels, "out": out,
            "patch": PATCH, "pca_dims": PCA_DIMS, "batch": BATCH, "dtype": DTYPE,
            "lr": lr, "epochs": epochs, "train_fraction": train_fraction, "seed": seed}


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)


def split_sizes(n: int, fraction: float) -> tuple[int, int]:
    """(train, test) sizes of a class of `n` samples under lsaf's stratified
    split: round(fraction·n) to train, at least one on each side. A class
    with fewer than 2 samples cannot be split."""
    if n < 2:
        return 0, 0
    n_train = min(max(int(round(fraction * n)), 1), n - 1)
    return n_train, n - n_train


def grow_mask(labels: np.ndarray, eligible: np.ndarray, fraction: float, rng, *,
              n_train: int | None = None, n_test: int | None = None) -> np.ndarray:
    """Label eligible pixels in a seeded random order until the stratified
    split has exactly `n_train` training or `n_test` test samples, so that
    every seed gives the program the same amount of work."""
    flat = labels.reshape(-1)
    out = np.zeros_like(flat)
    counts: dict[int, int] = {}
    train = test = 0
    for index in rng.permutation(np.flatnonzero(eligible.reshape(-1) & (flat != 0))):
        cls = int(flat[index])
        n = counts.get(cls, 0)
        before, after = split_sizes(n, fraction), split_sizes(n + 1, fraction)
        train += after[0] - before[0]
        test += after[1] - before[1]
        counts[cls] = n + 1
        out[index] = cls
        if train == n_train or test == n_test:
            break
    else:
        raise ValueError(f"too few labelled pixels for {n_train} train / {n_test} test")
    out[np.isin(out, [c for c, n in counts.items() if n < 2])] = 0
    return out.reshape(labels.shape)


# ----------------------------------------------------------------------
# set-up: the world scene, regenerated by every run


def checkpoint_path(wl: Workload) -> str:
    """The world checkpoint of `wl`, a fixed input checked in with the
    benchmark (weights and preprocessing only, no optimizer state)."""
    return os.path.join(HERE, "worlds", f"{wl.name}.lsfw")


def write_world(wl: Workload, directory: str) -> dict:
    """Write the world scene of `wl` into `directory` and return the paths
    of its files and of the world checkpoint. `train_labels` marks the
    pixels the checkpoint was trained on."""
    w = wl.world
    os.makedirs(directory, exist_ok=True)
    pair = synth_generate(w.classes, w.height, w.width, w.bands, seed=w.seed)
    rng = np.random.default_rng([w.seed, 0])
    train_labels = np.zeros_like(pair.labels)
    for cls in range(1, w.classes + 1):
        idx = np.flatnonzero(pair.labels.reshape(-1) == cls)
        pick = rng.choice(idx, size=w.train_per_class, replace=False)
        train_labels.reshape(-1)[pick] = cls
    paths = {k: os.path.join(directory, f"{k}.lsaf")
             for k in ("hsi", "lidar", "labels", "train_labels")}
    storage.write_raster(paths["hsi"], pair.hsi)
    storage.write_raster(paths["lidar"], pair.lidar)
    storage.write_labels(paths["labels"], pair.labels)
    storage.write_labels(paths["train_labels"], train_labels)
    paths["checkpoint"] = checkpoint_path(wl)
    return paths


# ----------------------------------------------------------------------
# per-run inputs


@dataclass
class RunInputs:
    main_args: list  # lsaf arguments of the timed command
    finetune_args: list | None  # lsaf arguments of the per-run fine-tune
    labels: np.ndarray  # label map the timed command reads
    out_dir: str


def make_inputs(wl: Workload, seed: int, run_dir: str, world: dict | None) -> RunInputs:
    """Write the run's input files, all drawn from `seed`."""
    rng = np.random.default_rng([seed, 7])
    out = os.path.join(run_dir, "out")
    if wl.command == "train":
        pair = synth_generate(wl.classes, wl.height, wl.width, wl.bands, seed=seed)
        labels = grow_mask(pair.labels, pair.labels != 0, wl.train_fraction, rng,
                           n_train=wl.n_train)
        paths = {k: os.path.join(run_dir, f"{k}.lsaf") for k in ("hsi", "lidar", "labels")}
        storage.write_raster(paths["hsi"], pair.hsi)
        storage.write_raster(paths["lidar"], pair.lidar)
        storage.write_labels(paths["labels"], labels)
        cfg = os.path.join(run_dir, "train.json")
        write_json(cfg, config(paths["hsi"], paths["lidar"], paths["labels"], out, seed=seed,
                               lr=wl.lr, epochs=wl.epochs, train_fraction=wl.train_fraction))
        return RunInputs(["train", "--config", cfg], None, labels, out)

    world_labels = storage.read_labels(world["labels"]).astype(np.int64)
    if wl.command == "map":
        h, w = world_labels.shape
        crop = (int(rng.integers(0, h - wl.height + 1)), int(rng.integers(0, w - wl.width + 1)))
        window = (slice(crop[0], crop[0] + wl.height), slice(crop[1], crop[1] + wl.width))
        hsi_path = os.path.join(run_dir, "hsi.lsaf")
        lidar_path = os.path.join(run_dir, "lidar.lsaf")
        storage.write_raster(hsi_path, storage.read_raster(world["hsi"])[(slice(None),) + window])
        storage.write_raster(lidar_path,
                             storage.read_raster(world["lidar"])[(slice(None),) + window])
        scene_labels = labels = world_labels[window]
        ft_eligible = labels != 0
    else:
        hsi_path, lidar_path = world["hsi"], world["lidar"]
        scene_labels = world_labels
        held_out = storage.read_labels(world["train_labels"]) == 0
        labels = grow_mask(scene_labels, held_out, wl.train_fraction, rng, n_test=wl.n_test)
        ft_eligible = held_out & (labels == 0)

    labels_path = os.path.join(run_dir, "labels.lsaf")
    storage.write_labels(labels_path, labels)
    cfg = os.path.join(run_dir, f"{wl.command}.json")
    write_json(cfg, config(hsi_path, lidar_path, labels_path, out, seed=seed, lr=wl.lr,
                           epochs=wl.epochs, train_fraction=wl.train_fraction))
    main_args = [wl.command, "--config", cfg, "--checkpoint", world["checkpoint"]]

    # One more epoch of the world checkpoint on pixels of this run's scene.
    ft_fraction = 0.9
    ft_labels_path = os.path.join(run_dir, "finetune_labels.lsaf")
    storage.write_labels(ft_labels_path, grow_mask(scene_labels, ft_eligible, ft_fraction, rng,
                                                   n_train=wl.finetune_train))
    ft_cfg = os.path.join(run_dir, "finetune.json")
    write_json(ft_cfg, config(hsi_path, lidar_path, ft_labels_path,
                              os.path.join(run_dir, "finetune"), seed=seed, lr=wl.lr,
                              epochs=wl.world.epochs + 1, train_fraction=ft_fraction))
    ft_args = ["train", "--config", ft_cfg, "--resume", world["checkpoint"]]
    return RunInputs(main_args, ft_args, labels, out)
