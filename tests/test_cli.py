"""End-to-end command-line tests, run in-process through cli.main."""

import json
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from lsaf import cli, storage
from lsaf.model import LsafModel, ModelConfig


def run(argv):
    return cli.main([str(a) for a in argv])


def with_keys(config_path, name, **keys):
    config = json.loads(config_path.read_text())
    config.update(keys)
    path = config_path.parent / name
    path.write_text(json.dumps(config))
    return path


@pytest.fixture()
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    assert run(["synth", "--classes", 4, "--height", 20, "--width", 20,
                "--bands", 16, "--seed", 3, "--out", out]) == 0
    return out


@pytest.fixture()
def config_path(scene_dir, tmp_path):
    out_dir = tmp_path / "run"
    config = {
        "hsi": str(scene_dir / "hsi.lsaf"),
        "lidar": str(scene_dir / "lidar.lsaf"),
        "labels": str(scene_dir / "labels.lsaf"),
        "patch": 7,
        "pca_dims": 13,
        "hidden": 16,
        "epochs": 2,
        "batch": 64,
        "lr": 1e-3,
        "train_fraction": 0.5,
        "seed": 1,
        "out": str(out_dir),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# ----------------------------------------------------------------------
# synth


class TestSynth:
    def test_writes_three_files(self, tmp_path):
        out = tmp_path / "s"
        assert run(["synth", "--height", 16, "--width", 16, "--bands", 8,
                    "--classes", 3, "--out", out]) == 0
        for name in ("hsi.lsaf", "lidar.lsaf", "labels.lsaf"):
            assert (out / name).exists()

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["synth", "--height", 16, "--width", 16, "--bands", 8,
                 "--classes", 3, "--seed", 7, "--out", out])
        for name in ("hsi.lsaf", "lidar.lsaf", "labels.lsaf"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_default_class_count_is_fifteen(self, tmp_path):
        out = tmp_path / "d"
        assert run(["synth", "--out", out]) == 0
        labels = storage.read_labels(out / "labels.lsaf")
        assert labels.max() == 15


# ----------------------------------------------------------------------
# argument handling


class TestArgs:
    def test_help_exits_zero_and_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--seed", "--epochs", "--lr", "--batch",
                     "--patch", "--pca-dims", "--out", "--resume"):
            assert flag in text

    @pytest.mark.parametrize("command,flag,value", [
        (command, flag, value)
        for command, flags in [("eval", ["--epochs", "--lr", "--batch"]),
                               ("map", ["--epochs", "--lr", "--batch", "--seed"])]
        for flag, value in [("--epochs", 3), ("--lr", 1e-3), ("--batch", 8), ("--seed", 1)]
        if flag in flags
    ])
    def test_eval_and_map_reject_flags_they_do_not_read(self, config_path, tmp_path, capsys,
                                                        command, flag, value):
        """Training flags would be ignored by eval and map, and map's split
        needs no seed; their config-file keys stay accepted."""
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", config_path, "--checkpoint", tmp_path / "c.lsfw",
                 flag, value])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags", [
        ("eval", ["--config", "--seed", "--patch", "--pca-dims", "--out", "--checkpoint"]),
        ("map", ["--config", "--patch", "--pca-dims", "--out", "--checkpoint"]),
    ])
    def test_help_lists_exactly_the_flags_read(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert listed == set(flags)

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [["--epoch", 1], ["--pca", 20], ["--see", 3]])
    def test_abbreviated_flag_is_usage_error(self, capsys, argv):
        """A prefix of a flag is not that flag: a later flag sharing the
        prefix cannot silently change what a command line means."""
        with pytest.raises(SystemExit) as exc:
            run(["train"] + argv)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lsaf.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "map" in proc.stdout


# ----------------------------------------------------------------------
# config validation


class TestConfig:
    def test_missing_data_path_named(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"lidar": "x", "labels": "y"}))
        assert run(["train", "--config", path]) == 1
        assert "'hsi'" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"hsi": "a", "learning_rate": 0.1}))
        assert run(["train", "--config", path]) == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_wrong_type_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epochs": "ten"}))
        assert run(["train", "--config", path]) == 1
        assert "epochs" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert run(["train", "--config", path]) == 1

    @pytest.mark.parametrize("keys,flags", [
        ({}, ["--lr", "nan"]),
        ({}, ["--lr", "inf"]),
        ({}, ["--lr=-inf"]),
        ({"eps": float("nan")}, []),
        ({"beta1": float("inf")}, []),
        ({"train_fraction": 10 ** 400}, []),
    ], ids=["lr-nan-flag", "lr-inf-flag", "lr-neg-inf-flag", "eps-nan", "beta1-inf",
            "train_fraction-huge-int"])
    def test_nonfinite_number_rejected(self, tmp_path, config_path, capsys, keys, flags):
        """A non-finite float key is a config error naming it, before any
        training step."""
        path = with_keys(config_path, "nonfinite.json", **keys, out=str(tmp_path / "nf"))
        assert run(["train", "--config", path, *flags]) == 1
        key = next(iter(keys), "lr")
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "nf" / "checkpoint.lsfw").exists()

    @pytest.mark.parametrize("command,flags", [
        ("train", ["--seed", -1]),
        ("eval", ["--seed", -1, "--checkpoint", "absent.lsfw"]),
        ("train", []),  # "seed": -1 in the config file
        ("synth", ["--seed", -2]),
    ], ids=["train-flag", "eval-flag", "config-key", "synth-flag"])
    def test_negative_seed_is_config_error(self, tmp_path, config_path, capsys, command,
                                           flags):
        """A seed below zero, which numpy's generators refuse, is a config
        error naming it, before any file is read."""
        argv = [command, *flags, "--out", tmp_path / "neg"]
        if command != "synth":
            argv += ["--config", config_path if flags else
                     with_keys(config_path, "seed.json", seed=-1)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'seed'" in err
        assert not (tmp_path / "neg" / "checkpoint.lsfw").exists()

    def test_missing_config_file(self, tmp_path):
        assert run(["train", "--config", tmp_path / "absent.json"]) == 1

    def test_flag_overrides_file(self, tmp_path, config_path, capsys):
        """--epochs overrides the config file value."""
        out = tmp_path / "ov"
        assert run(["train", "--config", config_path, "--epochs", 1,
                    "--out", out]) == 0
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 2  # header + 1 epoch


# ----------------------------------------------------------------------
# train


class TestTrain:
    def test_smoke_run_writes_artifacts(self, config_path, tmp_path):
        assert run(["train", "--config", config_path]) == 0
        out = tmp_path / "run"
        assert (out / "checkpoint.lsfw").exists()
        assert (out / "trace.csv").exists()
        assert (out / "metrics.csv").exists()
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 3  # header + 2 epochs
        state = storage.read_checkpoint(out / "checkpoint.lsfw")
        assert "hsi.block1.kernels" in state
        assert "pre.pca.components" in state
        assert "opt.steps" in state
        assert int(state["meta.epochs_trained"]) == 2

    def test_idempotent_given_same_inputs(self, config_path, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run(["train", "--config", config_path, "--out", out]) == 0
        for name in ("checkpoint.lsfw", "trace.csv", "metrics.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_resume_matches_straight_run(self, config_path, tmp_path):
        straight = tmp_path / "straight"
        assert run(["train", "--config", config_path, "--out", straight,
                    "--epochs", 2]) == 0

        stage = tmp_path / "stage"
        assert run(["train", "--config", config_path, "--out", stage,
                    "--epochs", 1]) == 0
        resumed = tmp_path / "resumed"
        assert run(["train", "--config", config_path, "--out", resumed,
                    "--epochs", 2, "--resume", stage / "checkpoint.lsfw"]) == 0

        a = storage.read_checkpoint(straight / "checkpoint.lsfw")
        b = storage.read_checkpoint(resumed / "checkpoint.lsfw")
        assert list(a) == list(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_checkpoint_every_writes_midrun(self, config_path, tmp_path):
        out = tmp_path / "ck"
        config = json.loads(config_path.read_text())
        config["checkpoint_every"] = 1
        config["out"] = str(out)
        path = config_path.parent / "ck.json"
        path.write_text(json.dumps(config))
        assert run(["train", "--config", path, "--epochs", 1]) == 0
        state = storage.read_checkpoint(out / "checkpoint.lsfw")
        assert int(state["meta.epochs_trained"]) == 1

    def test_checkpoint_entry_order(self, config_path, tmp_path):
        """Weights and running statistics, the seven `pre.*` constants in the
        order docs/formats.md gives, `opt.*`, then `meta.*`."""
        assert run(["train", "--config", config_path, "--epochs", 1]) == 0
        names = list(storage.read_checkpoint(tmp_path / "run" / "checkpoint.lsfw"))
        model = LsafModel(ModelConfig(num_classes=4, pca_dims=13, patch=7, hidden=16))
        weights = list(model.state_dict())
        pre = ["pre.pca.mean", "pre.pca.components", "pre.pca.explained_variance",
               "pre.norm.hsi_min", "pre.norm.hsi_span", "pre.norm.lidar_min",
               "pre.norm.lidar_span"]
        rest = names[len(weights) + len(pre):]
        opt = [name for name in rest if name.startswith("opt.")]
        meta = [name for name in rest if name.startswith("meta.")]
        assert names[:len(weights)] == weights
        assert names[len(weights):len(weights) + len(pre)] == pre
        assert rest == opt + meta
        assert opt[0] == "opt.steps" and len(opt) == 1 + 2 * len(model.params())

    def test_each_command_projects_the_scene_once(self, config_path, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return transform(*args, **kwargs)

        transform = cli.pca_transform
        monkeypatch.setattr(cli, "pca_transform", counted)
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        for out, argv in [("run", ["train"]),
                          ("resumed", ["train", "--epochs", 3, "--resume", ckpt]),
                          ("eval", ["eval", "--checkpoint", ckpt]),
                          ("map", ["map", "--checkpoint", ckpt])]:
            calls.clear()
            assert run(argv + ["--config", config_path, "--out", tmp_path / out]) == 0
            assert len(calls) == 1, argv

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_resume_without_new_epochs_is_config_error(self, config_path, tmp_path,
                                                      capsys, epochs):
        assert run(["train", "--config", config_path]) == 0  # 2 epochs
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        before = ckpt.read_bytes()
        capsys.readouterr()
        out = tmp_path / "resumed"
        assert run(["train", "--config", config_path, "--out", out,
                    "--epochs", epochs, "--resume", ckpt]) == 1
        assert "meta.epochs_trained" in capsys.readouterr().err
        assert not (out / "checkpoint.lsfw").exists()
        assert ckpt.read_bytes() == before


# ----------------------------------------------------------------------
# eval


class TestEval:
    def test_reproduces_train_time_metrics(self, config_path, tmp_path, capsys):
        assert run(["train", "--config", config_path]) == 0
        train_out = capsys.readouterr().out
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        eval_dir = tmp_path / "eval"
        assert run(["eval", "--config", config_path, "--checkpoint", ckpt,
                    "--out", eval_dir]) == 0
        eval_out = capsys.readouterr().out
        # the rendered metrics table must match line for line
        table = [l for l in eval_out.splitlines() if l.strip()]
        for line in table:
            assert line in train_out
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == \
            (eval_dir / "metrics.csv").read_bytes()

    def test_corrupt_checkpoint_magic_is_data_error(self, config_path, tmp_path, capsys):
        assert run(["train", "--config", config_path]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        blob = bytearray(ckpt.read_bytes())
        blob[1] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        assert run(["eval", "--config", config_path, "--checkpoint", ckpt]) == 2

    def test_hostile_checkpoint_shape_is_data_error(self, config_path, tmp_path, capsys):
        # rank 8 with 2^31 in every dimension: 2^248 elements wrap to 0 in int64
        ckpt = tmp_path / "hostile.lsfw"
        blob = storage.CHECKPOINT_MAGIC + struct.pack("<II", storage.FORMAT_VERSION, 1)
        blob += struct.pack("<H", 1) + b"w" + struct.pack("<B", 8)
        blob += struct.pack("<8I", *(2**31,) * 8) + struct.pack("<B", 1)
        ckpt.write_bytes(blob)
        assert run(["eval", "--config", config_path, "--checkpoint", ckpt]) == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_weights_are_numeric_error(self, config_path, tmp_path, capsys):
        assert run(["train", "--config", config_path]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        state = storage.read_checkpoint(ckpt)
        state["fusion.head_fused.fc2.weight"] = np.full_like(
            state["fusion.head_fused.fc2.weight"], np.inf
        )
        storage.write_checkpoint(ckpt, state)
        code = run(["train", "--config", config_path, "--resume", ckpt,
                    "--epochs", 3, "--out", tmp_path / "post"])
        assert code == 3

    def test_fifteen_class_report_rows(self, tmp_path, capsys):
        scene = tmp_path / "s15"
        assert run(["synth", "--classes", 15, "--height", 26, "--width", 26,
                    "--bands", 16, "--seed", 5, "--out", scene]) == 0
        out = tmp_path / "r15"
        config = {
            "hsi": str(scene / "hsi.lsaf"),
            "lidar": str(scene / "lidar.lsaf"),
            "labels": str(scene / "labels.lsaf"),
            "patch": 7, "pca_dims": 13, "hidden": 16,
            "epochs": 1, "batch": 128, "train_fraction": 0.5,
            "out": str(out),
        }
        path = tmp_path / "c15.json"
        path.write_text(json.dumps(config))
        assert run(["train", "--config", path]) == 0
        capsys.readouterr()
        assert run(["eval", "--config", path,
                    "--checkpoint", out / "checkpoint.lsfw"]) == 0
        text = capsys.readouterr().out
        rows = [l for l in text.splitlines() if l.strip().startswith(tuple("0123456789"))]
        assert len(rows) == 15


# ----------------------------------------------------------------------
# map


class TestMap:
    def test_dimensions_and_palette(self, config_path, tmp_path, capsys):
        assert run(["train", "--config", config_path]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        map_dir = tmp_path / "map"
        assert run(["map", "--config", config_path, "--checkpoint", ckpt,
                    "--out", map_dir]) == 0
        image = storage.read_ppm(map_dir / "map.ppm")
        labels = storage.read_labels(tmp_path / "scene" / "labels.lsaf")
        assert image.shape == labels.shape + (3,)
        allowed = {(0, 0, 0)} | {cli.palette_color(k) for k in range(1, 5)}
        seen = {tuple(px) for px in image.reshape(-1, 3)}
        assert seen <= allowed

    def test_pixels_take_palette_color_of_their_label(self, config_path, tmp_path, capsys,
                                                       monkeypatch):
        """Labels past the 20 palette entries wrap round."""
        assert run(["train", "--config", config_path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "predict", lambda model, patches: np.arange(len(patches)) % 25 + 1)
        map_dir = tmp_path / "map"
        assert run(["map", "--config", config_path,
                    "--checkpoint", tmp_path / "run" / "checkpoint.lsfw", "--out", map_dir]) == 0
        image = storage.read_ppm(map_dir / "map.ppm")
        labels = storage.read_labels(tmp_path / "scene" / "labels.lsaf")
        for i, (row, col) in enumerate(np.argwhere(labels != 0)):
            assert tuple(image[row, col]) == cli.palette_color(i % 25 + 1)

    def test_unlabeled_pixels_black(self, config_path, tmp_path, capsys):
        assert run(["train", "--config", config_path]) == 0
        capsys.readouterr()
        # blank out a corner of the label map
        labels_path = tmp_path / "scene" / "labels.lsaf"
        labels = storage.read_labels(labels_path)
        labels[:5, :5] = 0
        storage.write_labels(labels_path, labels)
        map_dir = tmp_path / "map2"
        assert run(["map", "--config", config_path,
                    "--checkpoint", tmp_path / "run" / "checkpoint.lsfw",
                    "--out", map_dir]) == 0
        image = storage.read_ppm(map_dir / "map.ppm")
        assert not image[:5, :5].any()
        assert image[10:, 10:].any()

    def test_map_idempotent(self, config_path, tmp_path, capsys):
        assert run(["train", "--config", config_path]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        dirs = [tmp_path / "m1", tmp_path / "m2"]
        for d in dirs:
            assert run(["map", "--config", config_path, "--checkpoint", ckpt,
                        "--out", d]) == 0
        assert (dirs[0] / "map.ppm").read_bytes() == (dirs[1] / "map.ppm").read_bytes()


# ----------------------------------------------------------------------
# non-finite rasters


class TestNonFiniteRaster:
    @pytest.mark.parametrize("command", ["train", "eval", "map"])
    @pytest.mark.parametrize("raster,value", [("hsi", np.nan), ("lidar", np.inf)])
    def test_is_data_error_naming_the_file(self, config_path, tmp_path, capsys,
                                           command, raster, value):
        assert run(["train", "--config", config_path]) == 0
        path = tmp_path / "scene" / f"{raster}.lsaf"
        cube = storage.read_raster(path)
        cube[0, 3, 4] = value
        storage.write_raster(path, cube)
        capsys.readouterr()
        out = tmp_path / "after"
        argv = [command, "--config", config_path, "--out", out]
        if command != "train":
            argv += ["--checkpoint", tmp_path / "run" / "checkpoint.lsfw"]
        assert run(argv) == 2
        assert f"{path}: raster holds 1 non-finite value" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


# ----------------------------------------------------------------------
# the checkpoint fixes the mode


class TestCheckpointMode:
    @pytest.fixture()
    def hsi_run(self, config_path, tmp_path, capsys):
        """An hsi-mode training run: its output directory."""
        out = tmp_path / "hsi"
        path = with_keys(config_path, "hsi.json", mode="hsi", out=str(out))
        assert run(["train", "--config", path]) == 0
        capsys.readouterr()
        return out

    def test_train_writes_mode(self, hsi_run):
        state = storage.read_checkpoint(hsi_run / "checkpoint.lsfw")
        assert float(state["meta.mode"]) == 1.0  # code 1 = hsi

    def test_eval_map_and_resume_adopt_it(self, hsi_run, config_path, tmp_path):
        ckpt = hsi_run / "checkpoint.lsfw"
        eval_dir = tmp_path / "eval"
        assert run(["eval", "--config", config_path, "--checkpoint", ckpt,
                    "--out", eval_dir]) == 0
        assert (eval_dir / "metrics.csv").read_bytes() == \
            (hsi_run / "metrics.csv").read_bytes()
        assert run(["map", "--config", config_path, "--checkpoint", ckpt,
                    "--out", tmp_path / "map"]) == 0
        resumed = tmp_path / "resumed"
        assert run(["train", "--config", config_path, "--resume", ckpt,
                    "--epochs", 3, "--out", resumed]) == 0
        state = storage.read_checkpoint(resumed / "checkpoint.lsfw")
        assert float(state["meta.mode"]) == 1.0
        assert not any(name.startswith("opt.m.lidar") for name in state)

    @pytest.mark.parametrize("command,key,value,stored", [
        pytest.param(command, key, value, stored,
                     id=command if key == "mode" else f"{command}-{key}")
        for key, value, stored in [("mode", "full", "'hsi'"), ("patch", 9, "7"),
                                   ("pca_dims", 20, "13"), ("hidden", 32, "16"),
                                   ("se_reduction", 8, "4")]
        for command in ["eval", "map", "train"]
    ])
    def test_conflicting_config_mode_is_config_error(self, hsi_run, config_path, tmp_path,
                                                      capsys, command, key, value, stored):
        path = with_keys(config_path, "other.json", **{key: value}, out=str(tmp_path / "x"))
        flag = "--resume" if command == "train" else "--checkpoint"
        argv = [command, "--config", path, flag, hsi_run / "checkpoint.lsfw"]
        assert run(argv + (["--epochs", 3] if command == "train" else [])) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err and f"meta.{key} {stored}" in err
        assert not (tmp_path / "x" / "checkpoint.lsfw").exists()

    def test_legacy_checkpoint_runs_config_mode(self, config_path, tmp_path, capsys, caplog):
        assert run(["train", "--config", config_path]) == 0
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        state = storage.read_checkpoint(ckpt)
        del state["meta.mode"]
        storage.write_checkpoint(ckpt, state)
        capsys.readouterr()
        eval_dir = tmp_path / "eval"
        with caplog.at_level("WARNING", logger="lsaf"):
            assert run(["eval", "--config", config_path, "--checkpoint", ckpt,
                        "--out", eval_dir]) == 0
        assert "meta.mode" in caplog.text
        assert (eval_dir / "metrics.csv").read_bytes() == \
            (tmp_path / "run" / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("key,value", [
        ("meta.mode", 3.0), ("meta.mode", 0.5), ("meta.mode", np.nan),
        ("meta.mode", [1.0, 1.0]), ("meta.patch", [7.0, 7.0]), ("meta.epochs_trained", np.inf),
        ("meta.patch", 8.0), ("meta.num_classes", 1.0), ("meta.se_reduction", 0.0),
        ("pre.pca.components", None), ("pre.norm.hsi_min", np.zeros(5)),
        ("opt.steps", [2.0, 2.0]), ("opt.steps", np.nan),
    ])
    def test_malformed_meta_entry_is_data_error(self, hsi_run, config_path, tmp_path, capsys,
                                                key, value):
        """A malformed meta.*, pre.* or opt.* entry (None: a missing one) exits
        2 naming it; only --resume reads opt.*."""
        ckpt = hsi_run / "checkpoint.lsfw"
        state = storage.read_checkpoint(ckpt)
        if value is None:
            del state[key]
        else:
            state[key] = np.array(value)
        storage.write_checkpoint(ckpt, state)
        if key.startswith("opt."):
            argv = ["train", "--config", config_path, "--resume", ckpt, "--epochs", 3,
                    "--out", tmp_path / "resumed"]
        else:
            argv = ["eval", "--config", config_path, "--checkpoint", ckpt]
        assert run(argv) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("meta.hidden", 1e12), ("meta.patch", 1e12 + 1), ("meta.num_classes", 1e12),
    ])
    def test_hostile_geometry_is_data_error(self, hsi_run, config_path, tmp_path, key, value):
        """A geometry entry that disagrees with the stored tensor dimension it
        fixes exits 2 before any weights are allocated, without a traceback."""
        ckpt = hsi_run / "checkpoint.lsfw"
        state = storage.read_checkpoint(ckpt)
        state[key] = np.array(value)
        storage.write_checkpoint(ckpt, state)
        config = json.loads(config_path.read_text())
        for unset in ("patch", "pca_dims", "hidden"):
            del config[unset]
        path = tmp_path / "unset.json"
        path.write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "lsaf.cli", "eval", "--config", str(path),
             "--checkpoint", str(ckpt)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert key in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command,seed,warns", [
        ("eval", 1, False), ("eval", 2, True), ("train", 2, True), ("map", 2, False),
    ])
    def test_seed_other_than_meta_seed_warns(self, hsi_run, config_path, tmp_path, caplog,
                                             command, seed, warns):
        """eval and resume split the scene by the run's seed, which meta.seed
        does not override; a differing one is logged. map splits nothing."""
        path = with_keys(config_path, "seed.json", seed=seed, out=str(tmp_path / "x"))
        flag = "--resume" if command == "train" else "--checkpoint"
        argv = [command, "--config", path, flag, hsi_run / "checkpoint.lsfw"]
        with caplog.at_level("WARNING", logger="lsaf"):
            assert run(argv + (["--epochs", 3] if command == "train" else [])) == 0
        assert ("meta.seed" in caplog.text) == warns
