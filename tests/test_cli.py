"""End-to-end command-line tests, run in-process through cli.main."""

import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from lsaf import cli, storage


def run(argv):
    return cli.main([str(a) for a in argv])


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

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--frobnicate"])
        assert exc.value.code == 1

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
