"""Command-line entry point: `lsaf synth | train | eval | map`.

Configuration comes from a JSON file (`--config`); the command-line flags
override file keys. Unknown config keys and unknown flags are errors.

Exit codes: 0 success, 1 usage or configuration problem, 2 data or format
problem (unreadable files, bad headers, incompatible checkpoints, I/O), 3
numeric failure (non-finite values during compute).

Environment: `LSAF_THREADS` caps the linear-algebra thread pools (read at
package import), `LSAF_LOG_LEVEL` sets logging verbosity (DEBUG, INFO,
WARNING, ERROR).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import storage
from . import tensor as T
from .data import (
    DEFAULT_PATCH,
    DEFAULT_PCA_DIMS,
    PcaModel,
    RasterPair,
    extract_patches,
    load_raster,
    normalize,
    pca_fit,
    pca_transform,
    split,
    synth_generate,
)
from .errors import ConfigError, ContractError, FormatError, LsafError, NumericError
from .model import LsafModel, ModelConfig
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
    "patch": DEFAULT_PATCH,
    "pca_dims": DEFAULT_PCA_DIMS,
    "hidden": 128,
    "se_reduction": 4,
    "mode": "full",
    "dtype": "float32",
    "lr": 1e-4,
    "epochs": 110,
    "batch": 128,
    "beta1": 0.9,
    "beta2": 0.999,
    "eps": 1e-8,
    "seed": 0,
    "train_fraction": 0.2,
    "pca_on_labeled": False,
    "checkpoint_every": 0,
}

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
    elif key in _FLOAT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key '{key}' must be a number, got {value!r}")
        value = float(value)
    return value


def _require_paths(config: dict) -> None:
    for key in ("hsi", "lidar", "labels"):
        if not config[key]:
            raise ConfigError(f"config is missing required data path '{key}'")


def _train_config(config: dict, epochs: int | None = None) -> TrainConfig:
    return TrainConfig(
        lr=config["lr"],
        epochs=config["epochs"] if epochs is None else epochs,
        batch=config["batch"],
        beta1=config["beta1"],
        beta2=config["beta2"],
        eps=config["eps"],
        seed=config["seed"],
    )


# ----------------------------------------------------------------------
# preprocessing shared by train / eval / map


def _fit_preprocessing(pair: RasterPair, config: dict) -> dict:
    """PCA + min-max constants, keyed for checkpoint storage."""
    labels = pair.labels if config["pca_on_labeled"] else None
    pca = pca_fit(pair.hsi, config["pca_dims"], labels=labels)
    reduced = pca_transform(pca, pair.hsi)
    flat_h = reduced.reshape(reduced.shape[0], -1)
    flat_l = pair.lidar.reshape(1, -1).astype(np.float64)
    pre = {
        "pre.pca.mean": pca.mean,
        "pre.pca.components": pca.components,
        "pre.pca.explained_variance": pca.explained_variance,
        "pre.norm.hsi_min": flat_h.min(axis=1),
        "pre.norm.hsi_span": flat_h.max(axis=1) - flat_h.min(axis=1),
        "pre.norm.lidar_min": flat_l.min(axis=1),
        "pre.norm.lidar_span": flat_l.max(axis=1) - flat_l.min(axis=1),
    }
    return pre


def _apply_preprocessing(pair: RasterPair, pre: dict) -> RasterPair:
    """Project and scale a scene with stored constants."""
    pca = PcaModel(
        mean=pre["pre.pca.mean"].astype(np.float64),
        components=pre["pre.pca.components"].astype(np.float64),
        explained_variance=pre["pre.pca.explained_variance"].astype(np.float64),
    )
    reduced = pca_transform(pca, pair.hsi)

    def scale(cube, lo, span):
        flat = cube.reshape(cube.shape[0], -1)
        safe = np.where(span > 0, span, 1.0)[:, None]
        out = np.where(span[:, None] > 0, (flat - lo[:, None]) / safe, 0.0)
        return out.reshape(cube.shape)

    hsi = scale(reduced, pre["pre.norm.hsi_min"], pre["pre.norm.hsi_span"])
    lidar = scale(pair.lidar.astype(np.float64),
                  pre["pre.norm.lidar_min"], pre["pre.norm.lidar_span"])
    return RasterPair(hsi=hsi.astype(np.float32), lidar=lidar.astype(np.float32),
                      labels=pair.labels)


def _model_meta(model: LsafModel, config: dict, epochs_trained: int) -> dict:
    cfg = model.config
    return {
        "meta.num_classes": np.array(float(cfg.num_classes)),
        "meta.pca_dims": np.array(float(cfg.pca_dims)),
        "meta.patch": np.array(float(cfg.patch)),
        "meta.hidden": np.array(float(cfg.hidden)),
        "meta.se_reduction": np.array(float(cfg.se_reduction)),
        "meta.epochs_trained": np.array(float(epochs_trained)),
        "meta.seed": np.array(float(config["seed"])),
    }


def _sync_config_with_meta(config: dict, state: dict) -> None:
    """Checkpoint metadata wins over config for model geometry: the stored
    weights fix the architecture, so eval/map/resume must cut patches and
    project spectra exactly as the training run did."""
    for key in ("meta.num_classes", "meta.pca_dims", "meta.patch",
                "meta.hidden", "meta.se_reduction", "meta.epochs_trained"):
        if key not in state:
            raise ContractError(f"checkpoint is missing '{key}'")
    for key in ("pca_dims", "patch", "hidden", "se_reduction"):
        config[key] = int(state[f"meta.{key}"])


def _model_from_checkpoint(state: dict, config: dict) -> LsafModel:
    model_config = ModelConfig(
        num_classes=int(state["meta.num_classes"]),
        pca_dims=int(state["meta.pca_dims"]),
        patch=int(state["meta.patch"]),
        hidden=int(state["meta.hidden"]),
        se_reduction=int(state["meta.se_reduction"]),
    )
    model = LsafModel(model_config, seed=config["seed"], mode=config["mode"])
    model.load_state(state)
    return model


def _load_scene(config: dict) -> RasterPair:
    _require_paths(config)
    return load_raster(config["hsi"], config["lidar"], config["labels"])


# ----------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    pair = synth_generate(args.classes, args.height, args.width, args.bands,
                          seed=args.seed)
    paths = {name: os.path.join(out_dir, f"{name}.lsaf")
             for name in ("hsi", "lidar", "labels")}
    storage.write_raster(paths["hsi"], pair.hsi)
    storage.write_raster(paths["lidar"], pair.lidar)
    storage.write_labels(paths["labels"], pair.labels)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def _prepare_patches(config: dict, pair: RasterPair, pre: dict):
    scaled = _apply_preprocessing(pair, pre)
    return extract_patches(scaled, s=config["patch"])


def cmd_train(args) -> int:
    config = load_config(args.config, _overrides(args))
    T.set_default_dtype(np.float32 if config["dtype"] == "float32" else np.float64)
    out_dir = config["out"]
    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, "checkpoint.lsfw")

    pair = _load_scene(config)
    num_classes = pair.num_classes
    if num_classes < 2:
        raise ConfigError(f"scene has {num_classes} labeled class(es); need at least 2")

    resume_state = None
    if args.resume:
        resume_state = storage.read_checkpoint(args.resume)
        _sync_config_with_meta(config, resume_state)
        trained = int(resume_state["meta.epochs_trained"])
        if config["epochs"] <= trained:
            raise ConfigError(
                f"epochs {config['epochs']} does not exceed the checkpoint's "
                f"meta.epochs_trained {trained}; nothing to resume"
            )
        pre = {k: v for k, v in resume_state.items() if k.startswith("pre.")}
        if not pre:
            raise FormatError(f"{args.resume}: no preprocessing constants stored")
        log.info("resuming from %s", args.resume)
    else:
        pre = _fit_preprocessing(pair, config)

    patches = _prepare_patches(config, pair, pre)
    train_set, test_set = split(patches, config["train_fraction"], config["seed"])
    log.info("scene %dx%d, %d classes, %d train / %d test patches",
             pair.height, pair.width, num_classes, len(train_set), len(test_set))

    if resume_state is not None:
        model = _model_from_checkpoint(resume_state, config)
        start_epoch = trained
    else:
        model_config = ModelConfig(
            num_classes=num_classes,
            pca_dims=config["pca_dims"],
            patch=config["patch"],
            hidden=config["hidden"],
            se_reduction=config["se_reduction"],
        )
        model = LsafModel(model_config, seed=config["seed"], mode=config["mode"])
        start_epoch = 0
    log.info("model mode=%s, %d parameters", model.mode, model.num_params)

    train_cfg = _train_config(config)
    optimizer = Adam(model.params(), train_cfg)
    if resume_state is not None and "opt.steps" in resume_state:
        optimizer.load_state(resume_state)

    def save_checkpoint(epochs_done: int) -> None:
        state = dict(model.state_dict())
        state.update(pre)
        state.update(optimizer.state_dict())
        state.update(_model_meta(model, config, epochs_done))
        storage.write_checkpoint(checkpoint_path, state)

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
    config = load_config(args.config, _overrides(args))
    T.set_default_dtype(np.float32 if config["dtype"] == "float32" else np.float64)
    out_dir = config["out"]
    os.makedirs(out_dir, exist_ok=True)

    state = storage.read_checkpoint(args.checkpoint)
    _sync_config_with_meta(config, state)
    pair = _load_scene(config)
    pre = {k: v for k, v in state.items() if k.startswith("pre.")}
    if not pre:
        raise FormatError(f"{args.checkpoint}: no preprocessing constants stored")
    model = _model_from_checkpoint(state, config)

    patches = _prepare_patches(config, pair, pre)
    _, test_set = split(patches, config["train_fraction"], config["seed"])
    report = evaluate(model, test_set)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), report)
    print(render_report(report))
    return EXIT_OK


def cmd_map(args) -> int:
    config = load_config(args.config, _overrides(args))
    T.set_default_dtype(np.float32 if config["dtype"] == "float32" else np.float64)
    out_dir = config["out"]
    os.makedirs(out_dir, exist_ok=True)

    state = storage.read_checkpoint(args.checkpoint)
    _sync_config_with_meta(config, state)
    pair = _load_scene(config)
    pre = {k: v for k, v in state.items() if k.startswith("pre.")}
    if not pre:
        raise FormatError(f"{args.checkpoint}: no preprocessing constants stored")
    model = _model_from_checkpoint(state, config)

    patches = _prepare_patches(config, pair, pre)
    image = np.zeros((pair.height, pair.width, 3), dtype=np.uint8)
    if len(patches):
        preds = predict(model, patches)
        for (row, col), label in zip(patches.pixels, preds):
            image[row, col] = palette_color(int(label))
    out_path = os.path.join(out_dir, "map.ppm")
    storage.write_ppm(out_path, image)
    print(f"map: {out_path} ({pair.width}x{pair.height})")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _overrides(args) -> dict:
    return {
        "seed": args.seed,
        "epochs": args.epochs,
        "lr": args.lr,
        "batch": args.batch,
        "patch": args.patch,
        "pca_dims": args.pca_dims,
        "out": args.out,
    }


def _add_common_flags(parser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--epochs", type=int, help="training epochs")
    parser.add_argument("--lr", type=float, help="learning rate")
    parser.add_argument("--batch", type=int, help="mini-batch size")
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
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common_flags(p_eval)
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
