"""Command-line entry point: `lsaf synth | train | eval | map`.

Configuration comes from a JSON file (`--config`); the command-line flags
override file keys. Every command accepts every config key, but takes only
the flags it reads: `train` --seed --epochs --lr --batch, `eval` --seed,
and all three --patch --pca-dims --out. Unknown config keys and unknown
flags (abbreviations of known ones included) are errors, and so is a
non-finite number.

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
    extract_patches,
    fit_minmax,
    load_raster,
    pca_fit,
    pca_transform,
    rescale,
    save_raster,
    split,
    synth_generate,
)
from .errors import ConfigError, ContractError, FormatError, LsafError, NumericError
from .model import MODES, LsafModel, ModelConfig, check_state_geometry
from .train import (
    Adam,
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

_CONFIG_DEFAULTS: dict = {
    "hsi": None,
    "lidar": None,
    "labels": None,
    "out": ".",
    # Geometry and mode: None takes ModelConfig's default (mode "full") for a
    # new model, and the checkpoint's value in eval, map and --resume.
    "patch": None,
    "pca_dims": None,
    "hidden": None,
    "se_reduction": None,
    "mode": None,
    "dtype": "float32",
    **{field.name: field.default for field in dataclasses.fields(TrainConfig)},
    "train_fraction": 0.2,
    "pca_on_labeled": False,
    "checkpoint_every": 0,
}

DEFAULT_MODE = "full"

# The `meta.*` geometry entries, in checkpoint order, and those a config sets.
_GEOMETRY = tuple(field.name for field in dataclasses.fields(ModelConfig))
_CONFIG_GEOMETRY = tuple(key for key in _GEOMETRY if key in _CONFIG_DEFAULTS)

# The `pre.*` constants in checkpoint order: `PcaModel`'s fields, then the
# min-max scaling of the projected bands and of the LiDAR band.
_PRE_KEYS = ("pre.pca.mean", "pre.pca.components", "pre.pca.explained_variance",
             "pre.norm.hsi_min", "pre.norm.hsi_span", "pre.norm.lidar_min", "pre.norm.lidar_span")

_STR_KEYS = {"hsi", "lidar", "labels", "out", "mode", "dtype"}
_INT_KEYS = {"patch", "pca_dims", "hidden", "se_reduction", "epochs", "batch",
             "seed", "checkpoint_every"}
_FLOAT_KEYS = {"lr", "beta1", "beta2", "eps", "train_fraction"}
_BOOL_KEYS = {"pca_on_labeled"}


def load_config(path: str | None, overrides: dict) -> dict:
    """Merge defaults ← config file ← CLI overrides, validating keys/types."""
    config = dict(_CONFIG_DEFAULTS)
    if path is not None:
        try:
            with open(path) as f:
                raw = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, value in raw.items():
            if key not in _CONFIG_DEFAULTS:
                raise ConfigError(f"unknown config key '{key}' in {path}")
            config[key] = _validate_key(key, value)
    for key, value in overrides.items():
        if value is not None:
            config[key] = _validate_key(key, value)
    if config["dtype"] not in ("float32", "float64"):
        raise ConfigError(f"dtype must be float32 or float64, got '{config['dtype']}'")
    return config


def _validate_key(key: str, value):
    if key in _STR_KEYS:
        if not isinstance(value, str):
            raise ConfigError(f"config key '{key}' must be a string, got {value!r}")
    elif key in _BOOL_KEYS:
        if not isinstance(value, bool):
            raise ConfigError(f"config key '{key}' must be a boolean, got {value!r}")
    elif key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key '{key}' must be an integer, got {value!r}")
        if key == "seed" and value < 0:
            raise ConfigError(f"config key 'seed' must be a non-negative integer, got {value}")
    elif key in _FLOAT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key '{key}' must be a number, got {value!r}")
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
    """A new model's PCA, as its `pre.pca.*` constants."""
    labels = pair.labels if config["pca_on_labeled"] else None
    pca = pca_fit(pair.hsi, config["pca_dims"], labels=labels)
    return dict(zip(_PRE_KEYS, (pca.mean, pca.components, pca.explained_variance)))


def _apply_preprocessing(pair: RasterPair, pre: dict) -> RasterPair:
    """Project and scale a scene with the `pre.*` constants. A new model's
    `pre` holds the PCA only: the min-max constants are then fitted on the
    projection and added to `pre`, so the scene is projected once."""
    pca = PcaModel(*(pre[key].astype(np.float64) for key in _PRE_KEYS[:3]))
    hsi = pca_transform(pca, pair.hsi)
    if "pre.norm.hsi_min" not in pre:
        pre.update(zip(_PRE_KEYS[3:], fit_minmax(hsi) + fit_minmax(pair.lidar)))
    hsi = rescale(hsi, pre["pre.norm.hsi_min"], pre["pre.norm.hsi_span"])
    lidar = rescale(pair.lidar, pre["pre.norm.lidar_min"], pre["pre.norm.lidar_span"])
    return RasterPair(hsi=hsi.astype(np.float32), lidar=lidar.astype(np.float32),
                      labels=pair.labels)


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
    """What train, eval and map start from: (config, scene, patch set, `pre.*`
    constants, model, checkpoint state or None).

    With a checkpoint, the config adopts its geometry and mode, the stored
    `pre.*` constants are checked for the shapes that geometry needs, and the
    model loads the stored weights. Without one, the geometry is new and the
    constants are fitted. Either way the scene is read and projected once,
    after every check on the checkpoint."""
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
    if state is None:
        # The config's geometry keys, ModelConfig's defaults for the unset
        # ones, which the config then holds too.
        geometry = ModelConfig(num_classes=pair.num_classes, **{
            key: config[key] for key in _CONFIG_GEOMETRY if config[key] is not None})
        for key in _CONFIG_GEOMETRY:
            config[key] = getattr(geometry, key)
        config["mode"] = config["mode"] or DEFAULT_MODE
        pre = _fit_preprocessing(pair, config)
    model = LsafModel(geometry, seed=config["seed"], mode=config["mode"])
    if state is not None:
        model.load_state(state)
    patches = extract_patches(_apply_preprocessing(pair, pre), s=config["patch"])
    return config, pair, patches, pre, model, state


# ----------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    _validate_key("seed", args.seed)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    pair = synth_generate(args.classes, args.height, args.width, args.bands,
                          seed=args.seed)
    paths = {name: os.path.join(out_dir, f"{name}.lsaf")
             for name in ("hsi", "lidar", "labels")}
    save_raster(pair, *paths.values())
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, pair, patches, pre, model, state = _setup(args, args.resume)
    out_dir = config["out"]
    checkpoint_path = os.path.join(out_dir, "checkpoint.lsfw")
    train_set, test_set = split(patches, config["train_fraction"], config["seed"])
    log.info("scene %dx%d, %d classes, %d train / %d test patches",
             pair.height, pair.width, pair.num_classes, len(train_set), len(test_set))
    start_epoch = 0
    if state is not None:
        start_epoch = int(state["meta.epochs_trained"])
        log.info("resuming from %s", args.resume)
    log.info("model mode=%s, %d parameters", model.mode, model.num_params)

    train_cfg = _train_config(config)
    optimizer = Adam(model.params(), train_cfg)
    if state is not None and "opt.steps" in state:
        optimizer.load_state(state)

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
    save_checkpoint(train_cfg.epochs)
    write_trace_csv(os.path.join(out_dir, "trace.csv"), losses)

    report = evaluate(model, test_set)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), report)
    print(render_report(report))
    print(f"checkpoint: {checkpoint_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    # [:5] keeps no reference to the checkpoint state once the model holds it
    config, _, patches, _, model = _setup(args, args.checkpoint)[:5]
    _, test_set = split(patches, config["train_fraction"], config["seed"])
    report = evaluate(model, test_set)
    write_metrics_csv(os.path.join(config["out"], "metrics.csv"), report)
    print(render_report(report))
    return EXIT_OK


def cmd_map(args) -> int:
    # [:5] keeps no reference to the checkpoint state once the model holds it
    config, pair, patches, _, model = _setup(args, args.checkpoint)[:5]
    image = np.zeros((pair.height, pair.width, 3), dtype=np.uint8)
    if len(patches):
        preds = predict(model, patches)
        rows, cols = patches.pixels.T
        image[rows, cols] = np.array(PALETTE, dtype=np.uint8)[(preds - 1) % len(PALETTE)]
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
    return {key: value for key, value in vars(args).items() if key in _CONFIG_DEFAULTS}


def _add_common_flags(parser) -> None:
    """The flags of every model command: config file, geometry, output."""
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--patch", type=int, help="patch size (odd)")
    parser.add_argument("--pca-dims", dest="pca_dims", type=int,
                        help="spectral dimensions kept by PCA")
    parser.add_argument("--out", help="output directory")


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
    _add_common_flags(p_train)
    p_train.add_argument("--seed", type=int, help="random seed (weights, split, shuffles)")
    p_train.add_argument("--epochs", type=int, help="training epochs")
    p_train.add_argument("--lr", type=float, help="learning rate")
    p_train.add_argument("--batch", type=int, help="mini-batch size")
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common_flags(p_eval)
    p_eval.add_argument("--seed", type=int, help="seed of the train/test split")
    p_eval.add_argument("--checkpoint", required=True, help="trained checkpoint")
    p_eval.set_defaults(func=cmd_eval)

    p_map = sub.add_parser("map", help="render a classification map")
    _add_common_flags(p_map)
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
