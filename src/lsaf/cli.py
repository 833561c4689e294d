"""Command-line entry point: `lsaf synth | train | eval | map`.

Configuration comes from a UTF-8 JSON file (`--config`), whose keys are
the rows of `_KEYS`; flags override them. Every command accepts every config
key, but takes only the flags it reads: `train` --seed --epochs --lr
--batch, `eval` --seed, and all three --patch --pca-dims --out. Unknown keys
and flags (abbreviations included), wrong types, non-finite numbers, a seed
outside 0..2**53 and a negative `checkpoint_every` are configuration errors.

Exit codes: 0 success, 1 usage or configuration problem, 2 data or format
problem (unreadable files, bad headers, non-finite rasters, incompatible
checkpoints, I/O), 3 numeric failure (non-finite values during compute).

Environment: `LSAF_THREADS` caps the linear-algebra thread pools (read at
package import), `LSAF_LOG_LEVEL` sets logging verbosity (DEBUG, INFO,
WARNING, ERROR), and `LSAF_CHECKED=1` asserts that every tensor operation
yields finite values (read at import of `lsaf.tensor`).
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import storage
from . import tensor as T
from .data import (
    PcaModel,
    RasterPair,
    check_patch_size,
    extract_patches,
    fit_minmax,
    load_raster,
    pca_fit,
    pca_transform,
    rescale,
    save_raster,
    split,
    synth_generate,
    window_pixels,
)
from .errors import ConfigError, ContractError, FormatError, LsafError, NumericError
from .model import MODES, LsafModel, ModelConfig, check_state_geometry
from .train import (
    TILE,
    Adam,
    MetricsReport,
    TrainConfig,
    evaluate,
    predict,
    render_report,
    train,
    write_metrics_csv,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

log = logging.getLogger("lsaf")

# Fixed classification-map palette (see docs/formats.md); class k uses
# entry (k-1) mod 20, label 0 renders black.
PALETTE = [
    (0, 128, 0), (124, 252, 0), (46, 139, 87), (0, 100, 0), (160, 82, 45),
    (0, 191, 255), (255, 255, 255), (211, 211, 211), (255, 0, 0), (169, 169, 169),
    (255, 99, 71), (139, 69, 19), (255, 215, 0), (220, 20, 60), (128, 0, 128),
    (70, 130, 180), (244, 164, 96), (32, 178, 170), (255, 20, 147), (105, 105, 105),
]


def palette_color(label: int) -> tuple:
    if label == 0:
        return (0, 0, 0)
    return PALETTE[(label - 1) % len(PALETTE)]


# ----------------------------------------------------------------------
# configuration

# Every config key: (JSON type, default, the commands whose `--key-name` flag
# sets it, its help), in `--help` order. Geometry and mode default to None:
# ModelConfig's default (mode "full") for a new model, the checkpoint's value
# in eval, map and --resume. Training keys default as in TrainConfig.
_Key = collections.namedtuple("_Key", "type default commands help", defaults=((), None))
_MODEL_COMMANDS = ("train", "eval", "map")
_KEYS = {
    "hsi": _Key(str, None),
    "lidar": _Key(str, None),
    "labels": _Key(str, None),
    "patch": _Key(int, None, _MODEL_COMMANDS, "patch size (odd)"),
    "pca_dims": _Key(int, None, _MODEL_COMMANDS, "spectral dimensions kept by PCA"),
    "hidden": _Key(int, None),
    "se_reduction": _Key(int, None),
    "mode": _Key(str, None),
    "dtype": _Key(str, "float32"),
    "out": _Key(str, ".", _MODEL_COMMANDS, "output directory"),
    "seed": _Key(int, TrainConfig.seed, ("train", "eval"),
                 "seed of the train/test split, and in train of the weights and shuffles"),
    "epochs": _Key(int, TrainConfig.epochs, ("train",), "training epochs"),
    "lr": _Key(float, TrainConfig.lr, ("train",), "learning rate"),
    "batch": _Key(int, TrainConfig.batch, ("train",), "mini-batch size"),
    "beta1": _Key(float, TrainConfig.beta1),
    "beta2": _Key(float, TrainConfig.beta2),
    "eps": _Key(float, TrainConfig.eps),
    "train_fraction": _Key(float, 0.2),
    "pca_on_labeled": _Key(bool, False),
    "checkpoint_every": _Key(int, 0),
}

_TYPE_NAMES = {str: "a string", bool: "a boolean", int: "an integer", float: "a number"}

DEFAULT_MODE = "full"

# The `meta.*` geometry entries, in checkpoint order, and those a config sets.
_GEOMETRY = tuple(field.name for field in dataclasses.fields(ModelConfig))
_CONFIG_GEOMETRY = tuple(key for key in _GEOMETRY if key in _KEYS)

# The `pre.*` constants in checkpoint order: `PcaModel`'s fields, then the
# min-max scaling of the projected bands and of the LiDAR band.
_PRE_KEYS = ("pre.pca.mean", "pre.pca.components", "pre.pca.explained_variance",
             "pre.norm.hsi_min", "pre.norm.hsi_span", "pre.norm.lidar_min", "pre.norm.lidar_span")


def load_config(path: str | None, overrides: dict) -> dict:
    """Merge defaults ← config file ← CLI overrides, validating keys/types."""
    config = {key: row.default for key, row in _KEYS.items()}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}")
        except (ValueError, RecursionError) as e:
            # not UTF-8, not JSON, an integer past Python's digit limit, or nested too deep
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, value in raw.items():
            if key not in _KEYS:
                raise ConfigError(f"unknown config key '{key}' in {path}")
            config[key] = _validate_key(key, value)
    for key, value in overrides.items():
        if value is not None:
            config[key] = _validate_key(key, value)
    if config["dtype"] not in ("float32", "float64"):
        raise ConfigError(f"dtype must be float32 or float64, got '{config['dtype']}'")
    return config


def _validate_key(key: str, value):
    kind = _KEYS[key].type
    # JSON's true and false are Python ints too, but only a boolean key takes them.
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)):
        raise ConfigError(f"config key '{key}' must be {_TYPE_NAMES[kind]}, got {value!r}")
    # meta.seed stores the seed as a float64, exact up to 2**53
    if key == "seed" and not 0 <= value <= 2**53:
        raise ConfigError(f"config key 'seed' must be an integer in 0..2**53, got {value}")
    if key == "checkpoint_every" and value < 0:
        raise ConfigError(f"config key 'checkpoint_every' must be >= 0, got {value}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"config key '{key}' must be a finite number, got {value!r}")
    return value


def _train_config(config: dict) -> TrainConfig:
    return TrainConfig(**{field.name: config[field.name]
                          for field in dataclasses.fields(TrainConfig)})


# ----------------------------------------------------------------------
# preprocessing shared by train / eval / map


def _fit_preprocessing(pair: RasterPair, config: dict) -> dict:
    """A new model's seven `pre.*` constants: its PCA, fitted on the cube read
    whole, which is freed on return, then the min-max of the float64
    projection of every pixel, streamed from the row reader, and of every
    LiDAR pixel."""
    labels = pair.labels if config["pca_on_labeled"] else None
    pca = pca_fit(pair.hsi[:, :], config["pca_dims"], labels=labels)
    norm = fit_minmax(pca_transform(pca, pair.hsi)) + fit_minmax(pair.lidar)
    return dict(zip(_PRE_KEYS, (pca.mean, pca.components, pca.explained_variance) + norm))


def _apply_preprocessing(pair: RasterPair, pre: dict, needed: np.ndarray) -> RasterPair:
    """Project and scale the rows of a scene that `pair` holds with the seven
    `pre.*` constants into the float32 arrays that a patch set keeps. The
    min-max constants are applied chunk by chunk as the rows are projected
    straight into float32, and only the pixels of the bool mask `needed` are
    projected; the others hold 0.0, and every row is still read and checked
    finite."""
    pca = PcaModel(*(pre[key].astype(np.float64) for key in _PRE_KEYS[:3]))
    hsi = pca_transform(pca, pair.hsi, scale=(pre["pre.norm.hsi_min"], pre["pre.norm.hsi_span"]),
                        needed=needed)
    lidar = rescale(pair.lidar, pre["pre.norm.lidar_min"], pre["pre.norm.lidar_span"])
    return RasterPair(hsi=hsi, lidar=lidar.astype(np.float32), labels=pair.labels)


# Bytes of the float32 projection of one strip's held rows that `eval`,
# `map` and `train`'s scoring hold at once: a strip is the most whole TILE
# rows that fit, one at least. At the Houston 2013 size (1,905 columns, 30
# PCA dimensions, patch 11) that is 66 rows held as 82, 17.9 MiB, where the
# whole scene is 76 MiB.
STRIP_BYTES = 18 << 20


def _strips(pair: RasterPair, pre: dict, patch: int, predicted: np.ndarray,
            rows: int | None = None):
    """`(lo, set)` per strip of `rows` scene rows, top to bottom, that holds
    a pixel the (H, W) label map `predicted` marks: the set of those pixels,
    in the coordinates of the strip's held rows, the first of which is scene
    row `lo`. By default a strip is as many whole TILE rows as `STRIP_BYTES`
    allows; `train` asks for the whole scene, one strip, to train on.

    A strip holds the whole TILE rows above it that its windows reach into,
    and s // 2 rows below, so `lo` is a multiple of TILE and the strip's
    tiles are the scene's. It reads those rows from `pair.hsi`, a
    `storage.RasterRows` reader, and projects with the `pre.*` constants
    only the pixels its own pixels' windows read (`window_pixels`), so no
    strip depends on another. A strip with no pixel to predict is read and
    checked finite all the same, and gives no set."""
    height, width = predicted.shape
    half = patch // 2
    above = -(-half // TILE) * TILE
    if rows is None:
        fit = STRIP_BYTES // (4 * pre["pre.pca.components"].shape[1] * width) - above - half
        rows = max(fit // TILE, 1) * TILE
    for top in range(0, height, rows):
        stop = min(top + rows, height)
        lo, hi = max(top - above, 0), min(stop + half, height)
        own = np.zeros((hi - lo, width), dtype=predicted.dtype)
        own[top - lo:stop - lo] = predicted[top:stop]
        scaled = _apply_preprocessing(RasterPair(pair.hsi.rows(lo, hi), pair.lidar[:, lo:hi], own),
                                      pre, window_pixels(own, patch))
        if own.any():
            yield lo, extract_patches(scaled, patch)
        del scaled, own  # free the strip before the next is projected


def _model_meta(model: LsafModel, config: dict, epochs_trained: int) -> dict:
    meta = {f"meta.{key}": getattr(model.config, key) for key in _GEOMETRY}
    meta["meta.epochs_trained"] = epochs_trained
    meta["meta.seed"] = config["seed"]
    meta["meta.mode"] = MODES.index(model.mode)
    return {key: np.array(float(value)) for key, value in meta.items()}


def _adopt(config: dict, key: str, stored) -> None:
    if config[key] not in (None, stored):
        raise ConfigError(f"config key '{key}' is {config[key]!r}, but the checkpoint "
                          f"was trained with meta.{key} {stored!r}")
    config[key] = stored


def _sync_config_with_meta(config: dict, state: dict) -> ModelConfig:
    """The checkpoint's geometry, which the config adopts with its mode: the
    stored weights fix the architecture and which of them were trained, so
    eval/map/resume must cut patches, project spectra and run the branches
    exactly as the training run did. A config key or flag that names another
    value is an error; a checkpoint older than `meta.mode` runs the config's."""
    for key in _GEOMETRY + ("epochs_trained",):
        if f"meta.{key}" not in state:
            raise ContractError(f"checkpoint is missing 'meta.{key}'")
    storage.checkpoint_count(state, "meta.epochs_trained")
    try:
        geometry = ModelConfig(**{key: storage.checkpoint_count(state, f"meta.{key}")
                                  for key in _GEOMETRY})
    except ConfigError as e:
        raise FormatError(f"checkpoint meta.{e.key} is invalid: {e}")
    check_state_geometry(geometry, state)
    for key in _CONFIG_GEOMETRY:
        _adopt(config, key, getattr(geometry, key))
    if "meta.mode" not in state:
        config["mode"] = config["mode"] or DEFAULT_MODE
        log.warning("checkpoint has no meta.mode; running it in the config's mode '%s'",
                    config["mode"])
        return geometry
    code = storage.checkpoint_count(state, "meta.mode")
    if code >= len(MODES):
        raise FormatError(f"checkpoint meta.mode {code} is not one of the mode codes "
                          f"0-{len(MODES) - 1} ({', '.join(MODES)})")
    _adopt(config, "mode", MODES[code])
    return geometry


def _setup(args, checkpoint: str | None):
    """What train, eval and map start from: (config, scene, `pre.*`
    constants, model, checkpoint state or None). The scene is the pair that
    `load_raster` gives, its HSI still in its file; `_strips` projects it.

    With a checkpoint, the config adopts its geometry and mode, the stored
    `pre.*` constants are checked for the shapes that geometry needs, and the
    model loads the stored weights. Without one, the geometry is new and all
    seven constants are fitted: the PCA on the cube read whole, the min-max
    on a float64 projection of every pixel."""
    config = load_config(args.config, _overrides(args))
    T.set_default_dtype(np.float32 if config["dtype"] == "float32" else np.float64)
    os.makedirs(config["out"], exist_ok=True)
    for key in ("hsi", "lidar", "labels"):
        if not config[key]:
            raise ConfigError(f"config is missing required data path '{key}'")
    state = None
    if checkpoint is not None:
        state = storage.read_checkpoint(checkpoint)
        geometry = _sync_config_with_meta(config, state)
        trained = int(state["meta.epochs_trained"])
        if args.command == "train" and config["epochs"] <= trained:
            raise ConfigError(f"epochs {config['epochs']} does not exceed the checkpoint's "
                              f"meta.epochs_trained {trained}; nothing to resume")
        # The seed draws the train/test split, which eval scores and resume
        # trains on; meta.seed is not adopted, only reported.
        if args.command != "map" and "meta.seed" in state:
            stored_seed = storage.checkpoint_count(state, "meta.seed")
            if stored_seed != config["seed"]:
                log.warning("seed %d differs from the checkpoint's meta.seed %d: this run "
                            "splits the scene unlike the run that trained it",
                            config["seed"], stored_seed)
        for key in _PRE_KEYS:
            if key not in state:
                raise FormatError(f"{checkpoint}: checkpoint is missing '{key}'")
        pre = {key: state[key] for key in _PRE_KEYS}
        bands, dims = pre["pre.pca.components"].shape[:1], geometry.pca_dims
        shapes = (bands, bands + (dims,), (dims,), (dims,), (dims,), (1,), (1,))
        for (key, value), shape in zip(pre.items(), shapes):
            if value.shape != shape:
                raise FormatError(f"{checkpoint}: checkpoint {key} has shape {value.shape}, "
                                  f"expected {shape}")
    pair = load_raster(config["hsi"], config["lidar"], config["labels"])
    if args.command == "train" and pair.num_classes < 2:
        raise ConfigError(f"scene has {pair.num_classes} labeled class(es); need at least 2")
    # eval and resume score the labels, so a label the model cannot predict is
    # refused before the scene is projected.
    if state is not None and args.command != "map" and pair.num_classes > geometry.num_classes:
        raise ConfigError(f"{config['labels']}: scene labels reach {pair.num_classes}, "
                          f"checkpoint has meta.num_classes {geometry.num_classes}")
    if state is None:
        # The config's geometry keys, ModelConfig's defaults for the unset
        # ones, which the config then holds too.
        geometry = ModelConfig(num_classes=pair.num_classes, **{
            key: config[key] for key in _CONFIG_GEOMETRY if config[key] is not None})
        for key in _CONFIG_GEOMETRY:
            config[key] = getattr(geometry, key)
        config["mode"] = config["mode"] or DEFAULT_MODE
    check_patch_size(geometry.patch, pair.height, pair.width)  # before the PCA fit and the model
    if state is None:
        pre = _fit_preprocessing(pair, config)
    model = LsafModel(geometry, seed=config["seed"], mode=config["mode"])
    if state is not None:
        model.load_state(state)
        # A resumed run's weights are exempt: its first loss is then
        # non-finite, which exits 3 naming their parameter groups.
        resumed = model.params() if args.command == "train" else {}
        for name, value in state.items():
            bad = np.count_nonzero(~np.isfinite(value))
            if bad and name not in resumed:
                raise FormatError(f"{checkpoint}: tensor '{name}' holds {bad} "
                                  f"non-finite value(s) (NaN or Inf)")
    return config, pair, pre, model, state


# ----------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    _validate_key("seed", args.seed)
    out_dir = args.out
    pair = synth_generate(args.classes, args.height, args.width, args.bands,
                          seed=args.seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, f"{name}.lsaf")
             for name in ("hsi", "lidar", "labels")}
    save_raster(pair, *paths.values())
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, pair, pre, model, state = _setup(args, args.resume)
    out_dir = config["out"]
    checkpoint_path = os.path.join(out_dir, "checkpoint.lsfw")
    train_map, test_map = split(pair.labels, config["train_fraction"], config["seed"])
    # one strip: the whole scene, projected once at the training pixels' windows
    (_, train_set), = _strips(pair, pre, config["patch"], train_map, rows=pair.height)
    log.info("scene %dx%d, %d classes, %d train / %d test patches", pair.height,
             pair.width, pair.num_classes, len(train_set), np.count_nonzero(test_map))
    start_epoch = 0
    if state is not None:
        start_epoch = int(state["meta.epochs_trained"])
        log.info("resuming from %s", args.resume)
    log.info("model mode=%s, %d parameters", model.mode, model.num_params)

    train_cfg = _train_config(config)
    optimizer = Adam(model.params(), train_cfg)
    if state is not None and "opt.steps" in state:
        optimizer.load_state(state)
    elif state is not None:
        log.warning("checkpoint %s holds no optimizer state (opt.*): Adam restarts "
                    "from zero moments, unlike an uninterrupted run", args.resume)

    def save_checkpoint(epochs_done: int) -> None:
        entries = dict(model.state_dict())
        entries.update(pre)
        entries.update(optimizer.state_dict())
        entries.update(_model_meta(model, config, epochs_done))
        storage.write_checkpoint(checkpoint_path, entries)

    callbacks = [lambda epoch, m, loss: log.info("epoch %d loss %.6f", epoch, loss)]
    every = config["checkpoint_every"]
    if every > 0:
        callbacks.append(
            lambda epoch, m, loss: save_checkpoint(epoch + 1)
            if (epoch + 1) % every == 0 else None
        )

    _, losses = train(model, train_set, train_cfg, callbacks=callbacks,
                      optimizer=optimizer, start_epoch=start_epoch)
    del train_set  # free the training strip before the test strips are projected
    save_checkpoint(train_cfg.epochs)
    write_trace_csv(os.path.join(out_dir, "trace.csv"), losses, start_epoch)
    _score(model, pair, pre, config, test_map)
    print(f"checkpoint: {checkpoint_path}")
    return EXIT_OK


def _score(model: LsafModel, pair: RasterPair, pre: dict, config: dict,
           test_map: np.ndarray) -> None:
    """Write and print the metrics of `model` on the pixels of the label map
    `test_map`, the test side of the split, which `train` and `eval` both
    score this way: strip by strip, each strip's confusion matrix summed."""
    k = model.config.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    for _, patches in _strips(pair, pre, config["patch"], test_map):
        confusion += evaluate(model, patches).confusion
        del patches  # free the strip before the next is projected
    report = MetricsReport(confusion)
    write_metrics_csv(os.path.join(config["out"], "metrics.csv"), report)
    print(render_report(report))


def cmd_eval(args) -> int:
    # [:4] keeps no reference to the checkpoint state once the model holds it
    config, pair, pre, model = _setup(args, args.checkpoint)[:4]
    test_map = split(pair.labels, config["train_fraction"], config["seed"])[1]
    _score(model, pair, pre, config, test_map)
    return EXIT_OK


def cmd_map(args) -> int:
    # [:4] keeps no reference to the checkpoint state once the model holds it
    config, pair, pre, model = _setup(args, args.checkpoint)[:4]
    image = np.zeros((pair.height, pair.width, 3), dtype=np.uint8)
    palette = np.array(PALETTE, dtype=np.uint8)
    for lo, patches in _strips(pair, pre, config["patch"], pair.labels):
        rows, cols = patches.pixels.T
        image[lo + rows, cols] = palette[(predict(model, patches) - 1) % len(PALETTE)]
        del patches  # free the strip before the next is projected
    out_path = os.path.join(config["out"], "map.ppm")
    storage.write_ppm(out_path, image)
    print(f"map: {out_path} ({pair.width}x{pair.height})")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code and takes flags
    only as spelt in full, so an abbreviation is an unknown flag (the
    subcommand parsers are of this class too)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _overrides(args) -> dict:
    """The config keys the subcommand's flags set."""
    return {key: value for key, value in vars(args).items() if key in _KEYS}


def _add_model_flags(parser, command: str) -> None:
    """--config, then the flag of each config key that `command` reads."""
    parser.add_argument("--config", help="JSON config file")
    for key, row in _KEYS.items():
        if command in row.commands:
            parser.add_argument("--" + key.replace("_", "-"), type=row.type, help=row.help)


def build_parser() -> _Parser:
    parser = _Parser(prog="lsaf",
                     description="Hyperspectral + LiDAR fusion classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--classes", type=int, default=15, help="number of classes")
    p_synth.add_argument("--height", type=int, default=32)
    p_synth.add_argument("--width", type=int, default=32)
    p_synth.add_argument("--bands", type=int, default=48)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", default=".", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train a model")
    _add_model_flags(p_train, "train")
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_model_flags(p_eval, "eval")
    p_eval.add_argument("--checkpoint", required=True, help="trained checkpoint")
    p_eval.set_defaults(func=cmd_eval)

    p_map = sub.add_parser("map", help="render a classification map")
    _add_model_flags(p_map, "map")
    p_map.add_argument("--checkpoint", required=True, help="trained checkpoint")
    p_map.set_defaults(func=cmd_map)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("LSAF_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    # Commands switch the global tensor dtype per the config; put it back so
    # in-process callers (tests, notebooks) are not left with our choice.
    prev_dtype = T.default_dtype()
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"lsaf: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as e:
        print(f"lsaf: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except LsafError as e:
        print(f"lsaf: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"lsaf: i/o error: {e}", file=sys.stderr)
        return EXIT_DATA
    finally:
        T.set_default_dtype(prev_dtype)


if __name__ == "__main__":
    sys.exit(main())
