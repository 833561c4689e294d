"""End-to-end command-line tests, run in-process through cli.main."""

import importlib
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from lsaf import cli, data, storage
from lsaf import tensor as T
from lsaf.model import LsafModel, ModelConfig


def run(argv):
    return cli.main([str(a) for a in argv])


def command_argv(command, ckpt):
    """The argv of `command`, one of train, resume, eval and map, where all
    but train read `ckpt`."""
    return {"train": ["train"], "resume": ["train", "--epochs", 3, "--resume", ckpt],
            "eval": ["eval", "--checkpoint", ckpt], "map": ["map", "--checkpoint", ckpt]}[command]


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

    def test_class_count_past_the_label_range_writes_nothing(self, tmp_path, capsys):
        """A usage error: exit 1, naming the limit, and no file written."""
        assert run(["synth", "--classes", 70000, "--height", 4, "--width", 4,
                    "--bands", 4, "--out", tmp_path / "s"]) == 1
        assert "2..65535 classes" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.lsaf")) == []


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
        ("train", ["--config", "--patch", "--pca-dims", "--out", "--seed", "--epochs", "--lr",
                   "--batch", "--resume"]),
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

    @pytest.mark.parametrize("imports,warnings", [("numpy, lsaf", 1), ("lsaf, numpy", 0)])
    def test_lsaf_threads_after_numpy_is_logged(self, imports, warnings):
        """LSAF_THREADS caps the BLAS threads only when lsaf is imported
        before numpy loads its BLAS; the other order logs one warning."""
        proc = subprocess.run([sys.executable, "-c", f"import {imports}"],
                              env=dict(os.environ, LSAF_THREADS="1"),
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr.count("LSAF_THREADS=1 does not cap") == warnings


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

    WRONG_TYPES = {
        "hsi": 1, "lidar": ["a"], "labels": None, "patch": "7", "pca_dims": 13.0,
        "hidden": True, "se_reduction": None, "mode": 0, "dtype": 64, "out": False,
        "seed": 1.5, "epochs": "ten", "lr": "1e-3", "batch": [64], "beta1": True,
        "beta2": None, "eps": "1e-8", "train_fraction": {}, "pca_on_labeled": 1,
        "checkpoint_every": 2.0,
    }

    @pytest.mark.parametrize("key", sorted(cli._KEYS))
    def test_wrong_type_rejected(self, tmp_path, capsys, key):
        """Every config key, each with a value written out here: a key added
        to the table without one fails."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: self.WRONG_TYPES[key]}))
        assert run(["train", "--config", path, "--out", tmp_path / "wt"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"config key '{key}' must be" in err
        assert not (tmp_path / "wt").exists()

    def test_malformed_json_rejected(self, tmp_path, capsys):
        """Bytes that are not UTF-8, a syntax error, an integer past Python's
        digit limit and an array nested past the recursion limit are all
        config errors, not tracebacks."""
        path = tmp_path / "c.json"
        for blob in (b"{not json", b'\xff\xfe{"seed": 1}', b'{"seed": ' + b"1" * 5000 + b"}",
                     b"[" * 100_000 + b"]" * 100_000):
            path.write_bytes(blob)
            assert run(["train", "--config", path]) == 1
            assert "config error" in capsys.readouterr().err

    def test_negative_checkpoint_every_is_config_error(self, tmp_path, config_path, capsys):
        path = with_keys(config_path, "every.json", checkpoint_every=-3,
                         out=str(tmp_path / "every"))
        assert run(["train", "--config", path]) == 1
        assert "'checkpoint_every'" in capsys.readouterr().err
        assert not (tmp_path / "every" / "checkpoint.lsfw").exists()

    def test_patch_past_the_scene_is_config_error_before_the_model(self, tmp_path, config_path,
                                                                  capsys, monkeypatch):
        """A patch far past the scene is refused by the scene check, not by
        numpy while the heads are sized for it, and before PCA is fitted."""
        monkeypatch.setattr(cli, "LsafModel", None)  # neither is to be reached
        monkeypatch.setattr(cli, "_fit_preprocessing", None)
        path = with_keys(config_path, "patch.json", patch=2**61 + 1)
        assert run(["train", "--config", path]) == 1
        assert "patch size 2305843009213693953 exceeds" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["train", "eval", "synth", "config-key"])
    def test_seed_past_2_pow_53_is_config_error(self, tmp_path, config_path, capsys, command):
        """meta.seed is a float64, which holds every seed up to 2**53 exactly
        and not 2**53 + 1, so a larger seed is a config error naming it."""
        seed = 2**53 + 1
        if command == "config-key":
            argv = ["train", "--config", with_keys(config_path, "seed.json", seed=seed)]
        else:
            argv = [command, "--seed", seed]
            if command != "synth":
                argv += ["--config", config_path]
            if command == "eval":
                argv += ["--checkpoint", "absent.lsfw"]
        assert run(argv + ["--out", tmp_path / "big"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'seed'" in err
        assert not (tmp_path / "big").exists()

    def test_seed_2_pow_53_round_trips_meta_seed(self, tmp_path, config_path, caplog):
        """The largest seed trains, is stored exactly, and eval with it logs
        no meta.seed mismatch."""
        seed = 2**53
        out = tmp_path / "big"
        assert run(["train", "--config", config_path, "--epochs", 1, "--seed", seed,
                    "--out", out]) == 0
        state = storage.read_checkpoint(out / "checkpoint.lsfw")
        assert int(state["meta.seed"]) == seed
        caplog.clear()
        assert run(["eval", "--config", config_path, "--seed", seed, "--checkpoint",
                    out / "checkpoint.lsfw", "--out", tmp_path / "eval"]) == 0
        assert "meta.seed" not in caplog.text

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
        # the resumed epochs keep their absolute numbers and their text
        whole = (straight / "trace.csv").read_text().splitlines()
        tail = (resumed / "trace.csv").read_text().splitlines()
        assert tail[0] == "epoch,loss" and len(tail) == 2
        assert tail[1:] == whole[-1:]

    def test_resume_without_optimizer_state_warns(self, config_path, tmp_path, caplog):
        """A checkpoint with no `opt.*` entries resumes with Adam's moments at
        zero, which the run logs; one with them resumes silently."""
        stage = tmp_path / "stage"
        assert run(["train", "--config", config_path, "--out", stage, "--epochs", 1]) == 0
        state = storage.read_checkpoint(stage / "checkpoint.lsfw")
        bare = tmp_path / "bare.lsfw"
        storage.write_checkpoint(bare, {name: value for name, value in state.items()
                                        if not name.startswith("opt.")})
        for ckpt, warns in ((bare, True), (stage / "checkpoint.lsfw", False)):
            caplog.clear()
            with caplog.at_level("WARNING", logger="lsaf"):
                assert run(["train", "--config", config_path, "--out", tmp_path / "resumed",
                            "--epochs", 2, "--resume", ckpt]) == 0
            assert ("holds no optimizer state" in caplog.text) == warns

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
        """Every command projects each of its strips once, scaled and masked
        to the pixels the windows read: `eval` and `map` in strips of one
        TILE row, the least strip budget, each of which projects the rows it
        holds. The first strip, rows 0-10, holds rows 0-13, and the second,
        rows 11-19, holds the TILE row above it too, rows 0-19, so rows 0-13
        are read by both. `train` and `--resume` project the training map's
        whole 20-row scene as one strip, then score the test map in `eval`'s
        strips. A new model's `train` first projects the scene once more,
        unscaled and whole, to fit the min-max constants."""
        calls = []

        def counted(pca, hsi, scale=None, needed=None):
            calls.append((scale is not None, needed is not None, hsi.shape[1]))
            return transform(pca, hsi, scale, needed)

        transform = cli.pca_transform
        monkeypatch.setattr(cli, "pca_transform", counted)
        monkeypatch.setattr(cli, "STRIP_BYTES", 0)
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        for out, argv, want in [
                ("run", ["train"], [(False, False, 20), (True, True, 20), (True, True, 14),
                                    (True, True, 20)]),
                ("resumed", ["train", "--epochs", 3, "--resume", ckpt],
                 [(True, True, 20), (True, True, 14), (True, True, 20)]),
                ("eval", ["eval", "--checkpoint", ckpt], [(True, True, 14), (True, True, 20)]),
                ("map", ["map", "--checkpoint", ckpt], [(True, True, 14), (True, True, 20)])]:
            calls.clear()
            assert run(argv + ["--config", config_path, "--out", tmp_path / out]) == 0
            assert calls == want, argv

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


class TestPreprocessing:
    def test_stored_constants_project_in_chunks(self):
        """With the seven `pre.*` constants, the scene is projected chunk by
        chunk straight into float32: the peak is the output plus one chunk's
        float64 pixels, projection and rescale temporaries, not float64 copies
        of the cube."""
        bands, dims, height, width = 144, 30, 128, 256
        r = np.random.default_rng(0)
        pair = data.RasterPair(hsi=r.random((bands, height, width), dtype=np.float32),
                               lidar=r.random((1, height, width), dtype=np.float32),
                               labels=np.ones((height, width), dtype=np.int64))
        pre = cli._fit_preprocessing(pair, {"pca_dims": dims, "pca_on_labeled": False})
        assert list(pre) == list(cli._PRE_KEYS)
        assert height * width >= 4 * data.CHUNK_PIXELS
        chunk = data.CHUNK_PIXELS * (bands + 3 * dims) * 8
        needed = data.window_pixels(pair.labels, 7)
        tracemalloc.start()
        try:
            scaled = cli._apply_preprocessing(pair, pre, needed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scaled.hsi.dtype == np.float32
        assert peak <= 1.25 * (scaled.hsi.nbytes + scaled.lidar.nbytes + chunk)

    def test_fitted_constants_project_the_window_pixels(self):
        """With the constants `_fit_preprocessing` returns, `_apply_preprocessing`
        holds the bytes of `rescale(pca_transform(pca, cube), lo, span)` cast
        to float32 on every pixel that `window_pixels` marks, and exactly 0.0
        on the others; it does not change `pre`. Its peak is the float32
        output plus one chunk's temporaries, with no float64 copy of the
        scene."""
        bands, dims, height, width = 144, 30, 128, 256
        r = np.random.default_rng(0)
        labels = np.zeros((height, width), dtype=np.int64)
        labels[::16, ::16], labels[8::16, 8::16] = 1, 2
        pair = data.RasterPair(hsi=r.random((bands, height, width), dtype=np.float32),
                               lidar=r.random((1, height, width), dtype=np.float32),
                               labels=labels)
        pre = cli._fit_preprocessing(pair, {"pca_dims": dims, "pca_on_labeled": False})
        before = {key: value.copy() for key, value in pre.items()}
        chunk = data.CHUNK_PIXELS * (bands + 3 * dims) * 8
        needed = data.window_pixels(labels, 7)
        tracemalloc.start()
        try:
            scaled = cli._apply_preprocessing(pair, pre, needed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(pre) == list(before)
        assert all(np.array_equal(pre[key], before[key]) for key in pre)
        pca = data.PcaModel(*(pre[key] for key in cli._PRE_KEYS[:3]))
        hsi = data.rescale(data.pca_transform(pca, pair.hsi), pre["pre.norm.hsi_min"],
                           pre["pre.norm.hsi_span"]).astype(np.float32)
        lidar = data.rescale(pair.lidar, pre["pre.norm.lidar_min"],
                             pre["pre.norm.lidar_span"]).astype(np.float32)
        assert needed.any() and not needed.all()
        assert scaled.hsi.dtype == np.float32 and scaled.hsi.shape == hsi.shape
        assert scaled.hsi[:, needed].tobytes() == hsi[:, needed].tobytes()
        assert not scaled.hsi[:, ~needed].any()
        assert scaled.lidar.tobytes() == lidar.tobytes()
        assert peak <= 1.25 * (scaled.hsi.nbytes + scaled.lidar.nbytes + chunk)

    def test_setup_streams_the_cube_from_its_file(self, tmp_path, monkeypatch):
        """With a checkpoint, `_setup` and then eval's first strip, here the
        whole 128-row scene, project HSI row blocks read from the file as
        they go, straight into the float32 array the patch set keeps: the
        peak is that projection, one read block, one chunk's temporaries (its
        float32 needed pixels, then their float64 copy, projection and
        rescale) and the checkpoint's tensors twice (the state and the
        model's weights). That is well under the raw cube it never holds,
        and under a second, padded copy of the projection."""
        monkeypatch.setattr(data, "CHUNK_PIXELS", 512)
        monkeypatch.setattr(data, "_READ_BYTES", 1 << 20)
        bands, dims, height, width = 144, 30, 128, 256
        r = np.random.default_rng(0)
        cube = r.random((bands, height, width), dtype=np.float32)
        paths = {name: tmp_path / f"{name}.lsaf" for name in ("hsi", "lidar", "labels")}
        storage.write_raster(paths["hsi"], cube)
        storage.write_raster(paths["lidar"], r.random((1, height, width), dtype=np.float32))
        labels = np.zeros((height, width), dtype=np.uint16)
        labels[::16, ::16], labels[8::16, 8::16] = 1, 2
        storage.write_labels(paths["labels"], labels)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**{k: str(v) for k, v in paths.items()},
                                      "out": str(tmp_path / "out"), "pca_dims": dims,
                                      "patch": 7, "hidden": 16}))
        model = LsafModel(ModelConfig(num_classes=2, pca_dims=dims, patch=7, hidden=16), seed=0)
        pca = data.pca_fit(cube, dims)
        lo, span = data.fit_minmax(data.pca_transform(pca, cube))
        entries = {key: value.astype(np.float32) for key, value in model.state_dict().items()}
        entries.update(zip(cli._PRE_KEYS, (pca.mean, pca.components, pca.explained_variance,
                                           lo, span, np.zeros(1), np.ones(1))))
        entries.update(cli._model_meta(model, {"seed": 0}, 1))
        ckpt = tmp_path / "checkpoint.lsfw"
        storage.write_checkpoint(ckpt, entries)
        del cube, model, entries
        args = cli.build_parser().parse_args(["eval", "--config", str(config),
                                              "--checkpoint", str(ckpt)])
        projection = dims * height * width * 4
        chunk = data.CHUNK_PIXELS * (bands * 4 + (bands + 3 * dims) * 8)
        kept = projection + data._READ_BYTES + chunk + 2 * ckpt.stat().st_size
        prev_dtype = T.default_dtype()  # `_setup` sets the config's; `main` restores it
        tracemalloc.start()
        try:
            config, pair, pre = cli._setup(args, str(ckpt))[:3]
            test_map = cli.split(pair.labels, config["train_fraction"], config["seed"])[1]
            lo, patches = next(cli._strips(pair, pre, 7, test_map))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            T.set_default_dtype(prev_dtype)
        # one strip of the test side of the split: 102 of each class's 128 pixels
        assert patches.hsi.shape == (dims, height, width) and lo == 0
        assert patches.hsi.dtype == np.float32 and len(patches) == 204
        assert peak <= 1.05 * kept
        assert peak < bands * height * width * 4


class TestSetupFreesTheProjection:
    @pytest.mark.parametrize("command,strips,projections", [
        pytest.param(command, strips, projections, id=command)
        for command, strips, projections in [("train", 3, 4), ("resume", 3, 3),
                                             ("eval", 2, 2), ("map", 2, 2)]])
    def test_unpadded_projection_is_dead_once_the_model_runs(self, config_path, tmp_path,
                                                             monkeypatch, command, strips,
                                                             projections):
        """Each patch set keeps one projected strip, and only the one being
        run is alive: when `train` or `predict` runs, the set's `hsi` is the
        array that `_apply_preprocessing` returned for it, every array that
        `pca_transform` wrote is freed or is that array (the float64
        projection that a new model's min-max constants are fitted on is
        freed), and the strips before it are freed. `eval` and `map` run the
        20-row scene in two strips of one TILE row, the least strip budget,
        each with one projection. `train` and `--resume` train on the whole
        scene as one strip, after one projection more for a new model's fit,
        then score the test map in `eval`'s two strips."""
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        if command != "train":
            assert run(["train", "--config", config_path]) == 0
        monkeypatch.setattr(cli, "STRIP_BYTES", 0)
        train_mod = importlib.import_module("lsaf.train")
        made, kept, alive = [], [], []

        def pca_transform(*args, _fn=cli.pca_transform, **kwargs):
            out = _fn(*args, **kwargs)
            made.append(weakref.ref(out.base if out.base is not None else out))
            return out

        def extract_patches(pair, s, _fn=cli.extract_patches):
            patches = _fn(pair, s)
            assert patches.hsi.base is pair.hsi
            kept.append(weakref.ref(pair.hsi))
            return patches

        def checked(fn):
            def call(*args, **kwargs):
                scene = kept[-1]()
                alive.append(scene is not None
                             and all(ref() is None or ref() is scene for ref in made)
                             and all(ref() is None for ref in kept[:-1]))
                del scene
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(cli, "pca_transform", pca_transform)
        monkeypatch.setattr(cli, "extract_patches", extract_patches)
        monkeypatch.setattr(cli, "train", checked(cli.train))
        monkeypatch.setattr(cli, "predict", checked(cli.predict))
        monkeypatch.setattr(train_mod, "predict", checked(train_mod.predict))
        out = tmp_path / "after"
        assert run(command_argv(command, ckpt) + ["--config", config_path, "--out", out]) == 0
        assert len(made) == projections and len(kept) == strips
        # train and --resume: `train`, then `evaluate`'s predict per test strip;
        # eval and map: a predict per strip
        assert len(alive) == (3 if command in ("train", "resume") else 2) and all(alive)


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

    @pytest.mark.parametrize("name, value", [
        ("fusion.head_fused.fc2.bias", np.nan),
        ("hsi.block1.bn.running_var", -1.0),
        ("pre.norm.hsi_span", np.inf),
    ])
    def test_hostile_checkpoint_entry_is_data_error(self, config_path, tmp_path, capsys,
                                                    name, value):
        """A NaN or Inf entry, or a negative running variance, is refused
        before any pixel is scored: exit 2, naming the tensor."""
        assert run(["train", "--config", config_path]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        state = storage.read_checkpoint(ckpt)
        state[name].flat[0] = value
        storage.write_checkpoint(ckpt, state)
        out = tmp_path / "eval"
        assert run(["eval", "--config", config_path, "--checkpoint", ckpt, "--out", out]) == 2
        assert f"'{name}'" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_label_map_without_labelled_pixels_is_config_error(self, config_path, tmp_path,
                                                               capsys):
        assert run(["train", "--config", config_path]) == 0
        capsys.readouterr()
        labels_path = tmp_path / "scene" / "labels.lsaf"
        storage.write_labels(labels_path, np.zeros_like(storage.read_labels(labels_path)))
        out = tmp_path / "eval"
        assert run(["eval", "--config", config_path,
                    "--checkpoint", tmp_path / "run" / "checkpoint.lsfw", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "no labelled pixels" in err
        assert "Traceback" not in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_scene_with_more_classes_than_the_checkpoint_is_refused_first(
            self, tmp_path, capsys, monkeypatch, command):
        """eval and resume score the scene's labels: a scene whose labels
        reach past `meta.num_classes` exits 1, naming the label map and both
        counts, before its pixels are projected, trained on or predicted, and
        writes no metrics."""
        configs = {}
        for classes in (4, 6):
            scene = tmp_path / f"s{classes}"
            assert run(["synth", "--classes", classes, "--height", 24, "--width", 24,
                        "--bands", 16, "--seed", 2, "--out", scene]) == 0
            configs[classes] = tmp_path / f"c{classes}.json"
            configs[classes].write_text(json.dumps(
                {name: str(scene / f"{name}.lsaf") for name in ("hsi", "lidar", "labels")}))
        ckpt_dir = tmp_path / "run"
        assert run(["train", "--config", configs[4], "--patch", 7, "--pca-dims", 13,
                    "--epochs", 1, "--out", ckpt_dir]) == 0
        capsys.readouterr()

        def unreached(*args, **kwargs):
            raise AssertionError("the scene was projected, trained on or predicted")

        for name in ("pca_transform", "train", "evaluate", "predict"):
            monkeypatch.setattr(cli, name, unreached)
        out = tmp_path / command
        assert run(command_argv(command, ckpt_dir / "checkpoint.lsfw")
                   + ["--config", configs[6], "--out", out]) == 1
        err = capsys.readouterr().err
        labels = tmp_path / "s6" / "labels.lsaf"
        assert f"{labels}: scene labels reach 6, checkpoint has meta.num_classes 4" in err
        assert "Traceback" not in err
        assert not (out / "metrics.csv").exists() and not (out / "checkpoint.lsfw").exists()

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

    @pytest.mark.parametrize("command", ["train", "resume", "eval", "map"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_in_the_last_row_block(self, config_path, tmp_path, capsys, monkeypatch,
                                   command, value):
        """The projection reads the 20-row HSI cube in blocks of 3 rows; a bad
        cell in the last block, which is ragged, is found there, before any
        output is written. A new model's PCA fit, which reads the cube whole,
        finds it first."""
        assert run(["train", "--config", config_path]) == 0
        path = tmp_path / "scene" / "hsi.lsaf"
        cube = storage.read_raster(path)
        cube[5, -1, 7] = value
        storage.write_raster(path, cube)
        monkeypatch.setattr(data, "CHUNK_PIXELS", 3 * 20)
        capsys.readouterr()
        out = tmp_path / "after"
        ckpt = tmp_path / "run" / "checkpoint.lsfw"
        assert run(command_argv(command, ckpt) + ["--config", config_path, "--out", out]) == 2
        assert f"{path}: raster holds 1 non-finite value" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


# ----------------------------------------------------------------------
# eval, map and resume project only the pixels the windows read


def write_scene(tmp_path, cube, lidar, labels, patch, **keys):
    """Write a scene's three files into `tmp_path`, a config that names them
    with `patch`, 13 PCA dims, hidden width 16 and `keys`, and the checkpoint
    of an untrained model of that geometry for 4 classes, with the scene's
    own `pre.*` constants. Returns (config, checkpoint)."""
    paths = {name: tmp_path / f"{name}.lsaf" for name in ("hsi", "lidar", "labels")}
    storage.write_raster(paths["hsi"], cube)
    storage.write_raster(paths["lidar"], lidar)
    storage.write_labels(paths["labels"], labels)
    config = tmp_path / "scene.json"
    config.write_text(json.dumps({**{k: str(v) for k, v in paths.items()},
                                  "patch": patch, "pca_dims": 13, "hidden": 16, **keys}))
    model = LsafModel(ModelConfig(num_classes=4, pca_dims=13, patch=patch, hidden=16), seed=0)
    pca = data.pca_fit(cube, 13)
    entries = {key: value.astype(np.float32) for key, value in model.state_dict().items()}
    entries.update(zip(cli._PRE_KEYS, (pca.mean, pca.components, pca.explained_variance,
                                       *data.fit_minmax(data.pca_transform(pca, cube)),
                                       *data.fit_minmax(lidar))))
    entries.update(cli._model_meta(model, {"seed": 0}, 1))
    ckpt = tmp_path / "checkpoint.lsfw"
    storage.write_checkpoint(ckpt, entries)
    return config, ckpt


@pytest.fixture()
def sparse_run(tmp_path):
    """A 30×40 scene labelled sparsely: a dense 12×10 block at the top-left
    corner, which `predict` convolves as a shared tile, the other three
    corners, a pixel on each border and one inside; every class holds at
    least 2 of them. With a checkpoint of an untrained patch-7 model and the
    scene's stored `pre.*` constants. Returns (config, checkpoint, the
    (H, W) mask of pixels that those patches' windows read)."""
    height, width, bands, half = 30, 40, 16, 3
    r = np.random.default_rng(0)
    cube = (r.normal(size=(bands, height, width))
            * r.uniform(0.5, 3.0, (bands, 1, 1))).astype(np.float32)
    lidar = r.random((1, height, width), dtype=np.float32)
    keep = np.zeros((height, width), dtype=bool)
    keep[:12, :10] = True
    for row, col in [(0, 39), (29, 0), (29, 39), (0, 24), (14, 39), (29, 20), (20, 0),
                     (20, 25)]:
        keep[row, col] = True
    labels = np.zeros((height, width), dtype=np.uint16)
    labels[keep] = np.arange(keep.sum()) % 4 + 1
    config, ckpt = write_scene(tmp_path, cube, lidar, labels, 2 * half + 1)
    needed = np.zeros((height, width), dtype=bool)
    for row, col in np.argwhere(keep):
        needed[max(row - half, 0):row + half + 1, max(col - half, 0):col + half + 1] = True
    return config, ckpt, needed


def strips_of(argv):
    """For a command line, the `(lo, set)` that `cli._strips` gives it, one
    per strip, with `cli._setup`'s model and `pre.*` constants: `map`'s of
    every labelled pixel, `eval`'s of the test map, and `train`'s of the
    training map as one whole-scene strip, then of the test map as `eval`'s.
    The tensor dtype is restored afterwards, as `main` does."""
    args = cli.build_parser().parse_args([str(a) for a in argv])
    prev_dtype = T.default_dtype()
    try:
        config, pair, pre, model, _ = cli._setup(args, args.resume if args.command == "train"
                                                 else args.checkpoint)
        train_map, test_map = cli.split(pair.labels, config["train_fraction"], config["seed"])
        strips = list(cli._strips(pair, pre, config["patch"],
                                  pair.labels if args.command == "map" else test_map))
        if args.command == "train":
            strips[:0] = cli._strips(pair, pre, config["patch"], train_map, pair.height)
        return strips, model, pre
    finally:
        T.set_default_dtype(prev_dtype)


# The sparse scene's 30 rows in strips of one TILE row: the first row each
# set holds, and the rows each predicts. `train` and `--resume` first train
# on the whole scene as one strip.
STRIP_TOPS = {"eval": [0, 0, 11], "map": [0, 0, 11], "resume": [0, 0, 0, 11],
              "train": [0, 0, 0, 11]}
STRIP_ROWS = {"eval": [(0, 11), (11, 22), (22, 30)], "map": [(0, 11), (11, 22), (22, 30)],
              "resume": [(0, 30), (0, 11), (11, 22), (22, 30)],
              "train": [(0, 30), (0, 11), (11, 22), (22, 30)]}


class TestNeededPixels:
    @pytest.mark.parametrize("command", ["eval", "map", "resume", "train"])
    def test_windows_and_logits_equal_the_full_projection(self, sparse_run, tmp_path,
                                                          monkeypatch, command):
        """Every window's HSI and LiDAR bytes, and the logits of `predict` with
        its shared tile, equal those of a projection of every pixel, with
        stored constants and with a new model's fitted ones alike; each pixel
        that no window of the strip's own predicted pixels reads holds
        exactly 0.0. `eval` and `map` run in strips of one TILE row, the
        least strip budget, and `eval` predicts only its 104 test pixels;
        `train` trains on the other 24 as one strip, then predicts the 104
        as `eval` does. The projection runs in blocks of 4 rows, the last one
        ragged."""
        config, ckpt, labelled = sparse_run
        monkeypatch.setattr(data, "CHUNK_PIXELS", 4 * 40)
        monkeypatch.setattr(cli, "STRIP_BYTES", 0)
        argv = command_argv(command, ckpt) + ["--config", config, "--out", tmp_path / "out"]
        strips, model, _ = strips_of(argv)
        transform = cli.pca_transform
        monkeypatch.setattr(cli, "pca_transform",
                            lambda pca, hsi, scale=None, needed=None: transform(pca, hsi, scale))
        full, _, _ = strips_of(argv)

        assert [lo for lo, _ in strips] == [lo for lo, _ in full] == STRIP_TOPS[command]
        pixels = np.concatenate([p.pixels + (lo, 0) for lo, p in strips])
        assert np.array_equal(pixels, np.concatenate([p.pixels + (lo, 0) for lo, p in full]))
        assert len(pixels) == (104 if command == "eval" else 128)
        predicted = np.zeros(labelled.shape, dtype=bool)
        predicted[tuple(pixels.T)] = True
        needed = data.window_pixels(predicted, 7)
        assert command == "eval" or np.array_equal(needed, labelled)
        train_mod = importlib.import_module("lsaf.train")
        half, shared = 3, []
        prev_dtype = T.default_dtype()
        T.set_default_dtype(np.float32)
        try:
            for (lo, patches), (_, whole) in zip(strips, full):
                every = np.arange(len(patches))
                for got, want in zip(patches.cut(every), whole.cut(every)):
                    assert got.tobytes() == want.tobytes()
                own = np.zeros(patches.hsi.shape[1:], dtype=bool)
                own[tuple(patches.pixels.T)] = True
                held = data.window_pixels(own, 7)
                scene, want = patches.hsi, whole.hsi
                assert not held.all() and not scene[:, ~held].any()
                assert scene[:, held].tobytes() == want[:, held].tobytes()
                tiles = train_mod.plan_tiles(patches.pixels, *own.shape, model.tile_conv_flops)[0]
                shared += [tile._replace(row=tile.row + lo) for tile in tiles]
                got, want = (train_mod.predict_logits(model, p) for p in (patches, whole))
                assert got.tobytes() == want.tobytes()
        finally:
            T.set_default_dtype(prev_dtype)
        assert [(t.row, t.col) for t in shared] == [(0, 0)]
        assert not needed[:shared[0].height + half, :shared[0].width + half].all()

    @pytest.mark.parametrize("command", ["eval", "map", "resume", "train"])
    def test_padded_scene_equals_padding_the_projection(self, sparse_run, tmp_path,
                                                        monkeypatch, command):
        """Each patch set's HSI and LiDAR hold the bytes of its rows of the
        scaled float32 projection, masked to the pixels the windows of its
        own predicted pixels read, whether the constants come from a
        checkpoint or a new model's fit, and the padded rows its windows
        read, the `area` of its predicted rows, hold those of
        `np.pad(mode="reflect")` over that whole projection: a row above or
        below inside the scene, a mirrored one at its top and bottom. `eval`
        and `map` run in strips of one TILE row, and so do `train`'s test
        strips after its whole-scene training strip."""
        config, ckpt, _ = sparse_run
        monkeypatch.setattr(cli, "STRIP_BYTES", 0)
        strips, _, pre = strips_of(command_argv(command, ckpt)
                                   + ["--config", config, "--out", tmp_path / "out"])
        cube, lidar = (storage.read_raster(tmp_path / f"{name}.lsaf") for name in ("hsi", "lidar"))
        pca = data.PcaModel(*(pre[key].astype(np.float64) for key in cli._PRE_KEYS[:3]))
        hsi_scale = (pre["pre.norm.hsi_min"], pre["pre.norm.hsi_span"])
        lidar = data.rescale(lidar, pre["pre.norm.lidar_min"],
                             pre["pre.norm.lidar_span"]).astype(np.float32)
        half = 3
        assert [lo for lo, _ in strips] == STRIP_TOPS[command]
        for (lo, patches), (first, stop) in zip(strips, STRIP_ROWS[command], strict=True):
            rows = patches.pixels[:, 0] + lo
            assert first <= rows.min() and rows.max() < stop
            predicted = np.zeros(cube.shape[1:], dtype=bool)
            predicted[rows, patches.pixels[:, 1]] = True
            hsi = data.pca_transform(pca, cube, scale=hsi_scale,
                                     needed=data.window_pixels(predicted, 7))
            held = slice(lo, min(stop + half, 30))
            padded = patches.area(first - lo, 0, stop - first, 40)
            for kept, got, scene in zip((patches.hsi, patches.lidar), padded, (hsi, lidar)):
                assert kept.dtype == np.float32 and kept.tobytes() == scene[:, held].tobytes()
                want = np.pad(scene, ((0, 0), (half, half), (half, half)), mode="reflect")
                want = want[:, first:stop + 2 * half]
                assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    # NaNs at the first row of the second 4-row block and further on in it,
    # and one in a later block; an Inf in the last row, of a ragged block
    @pytest.mark.parametrize("bad,count", [([(3, 4, 5), (0, 7, 39), (1, 12, 0)], 2),
                                           ([(15, 29, 17)], 1)], ids=["second", "last"])
    @pytest.mark.parametrize("command", ["eval", "map", "resume"])
    def test_nonfinite_value_in_a_later_read_block_fails_the_run(
            self, sparse_run, tmp_path, monkeypatch, capsys, command, bad, count):
        """A 30-row scene read in blocks of 4 rows, so the last holds 2: a
        non-finite value exits 2 with the count of the first block that holds
        one, and writes nothing."""
        config, ckpt, _ = sparse_run
        monkeypatch.setattr(data, "CHUNK_PIXELS", 2 * 40)
        monkeypatch.setattr(data, "_READ_BYTES", 4 * 16 * 40 * 4)
        path = tmp_path / "hsi.lsaf"
        cube = storage.read_raster(path)
        for index in bad:
            cube[index] = np.inf if index[1] == 29 else np.nan
        storage.write_raster(path, cube)
        out = tmp_path / "out"
        assert run(command_argv(command, ckpt) + ["--config", config, "--out", out]) == 2
        assert f"{path}: raster holds {count} non-finite value" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["eval", "map", "resume", "train"])
    def test_nonfinite_pixel_no_window_reads_fails_the_run(self, sparse_run, tmp_path,
                                                          capsys, command):
        """The whole cube is still read and checked: a NaN in a pixel that no
        window reads exits 2 with the reader's message and writes nothing. A
        new model's `train` finds it in the PCA fit, which reads the cube
        whole."""
        config, ckpt, needed = sparse_run
        assert not needed[8, 30]
        path = tmp_path / "hsi.lsaf"
        cube = storage.read_raster(path)
        cube[2, 8, 30] = np.nan
        storage.write_raster(path, cube)
        out = tmp_path / "out"
        assert run(command_argv(command, ckpt) + ["--config", config, "--out", out]) == 2
        assert f"{path}: raster holds 1 non-finite value" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


# ----------------------------------------------------------------------
# eval and map in strips


def scene_cube(height, width, bands, seed):
    """A float32 (bands, H, W) cube whose bands differ in scale, and a
    (1, H, W) LiDAR raster."""
    r = np.random.default_rng(seed)
    cube = (r.normal(size=(bands, height, width))
            * r.uniform(0.5, 3.0, (bands, 1, 1))).astype(np.float32)
    return cube, r.random((1, height, width), dtype=np.float32)


def strip_scene(tmp_path, patch):
    """A 37×24 scene of 16 bands, which strips of one TILE row cut into four:
    rows 0-10, 11-21, 22-32 and 33-36. Three pixels of every row are
    labelled, so every halo row and every row whose windows mirror at the
    scene's top or bottom holds some, and rows 11-21 of columns 0-10 are
    labelled whole, a tile that `predict` shares. With the checkpoint of an
    untrained model of patch `patch`. Returns (config, checkpoint, labels)."""
    height, width = 37, 24
    cube, lidar = scene_cube(height, width, 16, seed=1)
    keep = np.zeros((height, width), dtype=bool)
    for row in range(height):
        keep[row, [(5 * row) % width, (5 * row + 8) % width, (5 * row + 16) % width]] = True
    keep[11:22, :11] = True
    labels = np.zeros((height, width), dtype=np.uint16)
    labels[keep] = np.arange(keep.sum()) % 4 + 1
    config, ckpt = write_scene(tmp_path, cube, lidar, labels, patch)
    return config, ckpt, labels


@pytest.fixture()
def strip_run(tmp_path):
    """`strip_scene` with a patch-7 model."""
    return strip_scene(tmp_path, 7)


def strips_and_one_strip(config, ckpt, tmp_path, monkeypatch):
    """`eval` and `map` of a checkpoint in strips of one TILE row, the least
    strip budget, then as one strip. Per run: the first held row `lo` of
    each set that `predict` runs, the bytes of every predicted pixel's
    logits per command and scene pixel, as `predict` computes them, and the
    bytes of `metrics.csv` and `map.ppm`."""
    train_mod = importlib.import_module("lsaf.train")
    runs = []
    for budget in (0, 1 << 40):
        monkeypatch.setattr(cli, "STRIP_BYTES", budget)
        logits, tops = {}, []

        def strips(*args, _fn=cli._strips):
            for lo, patches in _fn(*args):
                tops.append(lo)
                yield lo, patches

        for command in ("eval", "map"):
            def predict_logits(model, patches, _fn=train_mod.predict_logits, _command=command):
                rows = _fn(model, patches)
                logits.update(((_command, tops[-1] + row, col), logit.tobytes())
                              for (row, col), logit in zip(patches.pixels.tolist(), rows))
                return rows

            with monkeypatch.context() as patch:
                patch.setattr(cli, "_strips", strips)
                patch.setattr(train_mod, "predict_logits", predict_logits)
                assert run([command, "--config", config, "--checkpoint", ckpt,
                            "--out", tmp_path / str(budget)]) == 0
        out = tmp_path / str(budget)
        runs.append((tops, logits, (out / "metrics.csv").read_bytes(),
                     (out / "map.ppm").read_bytes()))
    return runs


class TestStrips:
    def test_outputs_and_logits_equal_one_strip(self, strip_run, tmp_path, monkeypatch):
        """`eval` and `map` in strips of one TILE row, the least strip
        budget, write the bytes of a run that projects the whole scene as one
        strip, and every strip's logits are those of that run. Their
        predicted pixels lie in every row within a window of a strip's edge
        and every mirrored row."""
        config, ckpt, _ = strip_run
        (tops, logits, *files), (whole_tops, whole_logits, *whole_files) = \
            strips_and_one_strip(config, ckpt, tmp_path, monkeypatch)
        assert tops == [0, 0, 11, 22] * 2 and whole_tops == [0, 0]
        assert logits == whole_logits and files == whole_files
        edges = set(range(8, 14)) | set(range(19, 25)) | set(range(30, 37)) | {0, 1, 2}
        for command in ("eval", "map"):
            assert edges <= {row for name, row, _ in logits if name == command}

    def test_paper_patch_strips_equal_one_strip(self, tmp_path, monkeypatch):
        """At the paper's patch 11, pixel (35, 23) is the only pixel of its
        strip's per-patch batch: its logits still have the one-strip run's
        bytes, as do both output files."""
        config, ckpt, labels = strip_scene(tmp_path, 11)
        (tops, logits, *files), (whole_tops, whole_logits, *whole_files) = \
            strips_and_one_strip(config, ckpt, tmp_path, monkeypatch)
        assert tops == [0, 0, 11, 22] * 2 and whole_tops == [0, 0]
        assert labels[35, 23] and ("map", 35, 23) in logits
        assert logits == whole_logits and files == whole_files

    def test_train_scores_its_test_map_in_the_strips_of_eval(self, tmp_path, monkeypatch):
        """At the paper geometry (patch 11, 30 PCA dimensions, hidden 128,
        batch 128), in strips of one TILE row, `train` predicts its test map
        a strip at a time, as three sets, and writes the `metrics.csv` that
        `eval` of its checkpoint writes with the same seed and strip budget,
        after predicting the same sets."""
        scene = tmp_path / "scene"
        assert run(["synth", "--classes", 4, "--height", 24, "--width", 24, "--bands", 32,
                    "--seed", 5, "--out", scene]) == 0
        config = tmp_path / "paper.json"
        config.write_text(json.dumps({
            **{name: str(scene / f"{name}.lsaf") for name in ("hsi", "lidar", "labels")},
            "patch": 11, "pca_dims": 30, "batch": 128, "epochs": 1, "seed": 2}))
        monkeypatch.setattr(cli, "STRIP_BYTES", 0)
        train_mod = importlib.import_module("lsaf.train")
        sets = {}

        def predict(model, patches, _fn=train_mod.predict):
            sets[command].append(patches.pixels.tolist())
            return _fn(model, patches)

        monkeypatch.setattr(train_mod, "predict", predict)
        ckpt = tmp_path / "train" / "checkpoint.lsfw"
        for command, argv in [("train", []), ("eval", ["--checkpoint", ckpt])]:
            sets[command] = []
            assert run([command, "--config", config, "--out", tmp_path / command] + argv) == 0
        assert len(sets["train"]) == 3 and sets["train"] == sets["eval"]
        labels = storage.read_labels(scene / "labels.lsaf")
        assert sum(map(len, sets["train"])) == np.count_nonzero(cli.split(labels, 0.2, 2)[1])
        assert ((tmp_path / "train" / "metrics.csv").read_bytes()
                == (tmp_path / "eval" / "metrics.csv").read_bytes())

    def test_strips_shorter_than_their_halo_equal_one_strip(self, tmp_path, monkeypatch):
        """With patch 25 a strip holds the two TILE rows above it that its
        12-row windows reach into, and 12 rows below: the second strip, rows
        11-21, holds rows 0-33, which reach into the fourth strip's, the
        third, rows 22-32, holds rows 0-36, and the fourth, rows 33-36, holds
        rows 11-36. `eval` and `map` still write the bytes of one strip, and
        every strip's logits are that run's."""
        config, ckpt, _ = strip_scene(tmp_path, 25)
        (tops, logits, *files), (whole_tops, whole_logits, *whole_files) = \
            strips_and_one_strip(config, ckpt, tmp_path, monkeypatch)
        assert tops == [0, 0, 0, 11] * 2 and whole_tops == [0, 0]
        assert logits == whole_logits and files == whole_files

    @pytest.mark.parametrize("command", ["eval", "map"])
    def test_strip_with_nothing_to_predict_is_read_and_gives_no_set(
            self, strip_run, tmp_path, monkeypatch, capsys, command):
        """With no labelled pixel in rows 11-21, the second strip is read and
        checked like the others, but projects no pixel and gives no patch
        set: the four strips pass the rows they hold, 0-13, 0-24, 11-35 and
        22-36, to `pca_transform`, and `predict` runs the sets of the other
        three, at `lo` 0, 11 and 22. A NaN in row 16 still exits 2 before any
        output is written."""
        config, ckpt, labels = strip_run
        monkeypatch.setattr(cli, "STRIP_BYTES", 0)
        labels[11:22] = 0
        storage.write_labels(tmp_path / "labels.lsaf", labels)
        calls, tops = [], []

        def counted(pca, hsi, *args, _fn=cli.pca_transform, **kwargs):
            calls.append(hsi.shape[1])
            return _fn(pca, hsi, *args, **kwargs)

        def strips(*args, _fn=cli._strips):
            for lo, patches in _fn(*args):
                yield lo, patches
                tops.append(lo)  # once `predict` has run the set

        monkeypatch.setattr(cli, "pca_transform", counted)
        monkeypatch.setattr(cli, "_strips", strips)
        argv = [command, "--config", config, "--checkpoint", ckpt]
        assert run(argv + ["--out", tmp_path / "clean"]) == 0
        assert calls == [14, 25, 25, 15] and tops == [0, 11, 22]
        path = tmp_path / "hsi.lsaf"
        cube = storage.read_raster(path)
        cube[4, 16, 5] = np.nan
        storage.write_raster(path, cube)
        calls.clear()
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(argv + ["--out", out]) == 2
        assert f"{path}: raster holds 1 non-finite value" in capsys.readouterr().err
        assert calls == [14, 25] and not any(out.iterdir())

    def test_each_strip_projects_its_own_windows_on_the_scene_tiles(self, strip_run, tmp_path,
                                                                   monkeypatch):
        """`map` in strips of one TILE row, with no labelled pixel in rows
        11-21 and rows 22-32 of columns 0-10 labelled whole, a shared tile.
        Each strip's first held row `lo` is a multiple of TILE; each strip
        reads every row it holds, and together they read every row of the
        scene; each projects exactly the pixels within a window of its own
        pixels, so the strip with nothing to predict projects none and calls
        `data._project` for none of its chunks, which the others call. Each
        strip's tiles and per-patch pixels, shifted by `lo`, are those of the
        run that holds the scene as one strip."""
        config, ckpt, labels = strip_run
        tile = cli.TILE
        labels[11:22] = 0
        labels[22:33, :tile] = np.arange(tile * tile).reshape(tile, tile) % 4 + 1
        storage.write_labels(tmp_path / "labels.lsaf", labels)
        train_mod = importlib.import_module("lsaf.train")
        read, transform, plan = storage._read_rows, cli.pca_transform, train_mod.plan_tiles
        project = data._project
        height, width, half = 37, 24, 3
        runs = []
        for budget in (0, 1 << 40):
            projections, los, tiles = [], [], []

            def counted(pca, hsi, scale=None, needed=None):
                reads, chunks = [], []
                with monkeypatch.context() as patch:
                    patch.setattr(storage, "_read_rows",
                                  lambda *args: reads.append(args[2:]) or read(*args))
                    patch.setattr(data, "_project",
                                  lambda *args: chunks.append(args) or project(*args))
                    out = transform(pca, hsi, scale, needed)
                projections.append((needed.copy(), reads, len(chunks)))
                return out

            def strips(*args, _fn=cli._strips):
                for lo, patches in _fn(*args):
                    los.append(lo)
                    yield lo, patches

            def planned(pixels, *args):
                shared, per_patch = plan(pixels, *args)
                shift = np.array([los[-1], 0])
                tiles.extend((t.row + los[-1], t.col, t.height, t.width,
                              (pixels[t.members] + shift).tolist()) for t in shared)
                tiles.extend(("patch", (pixels[i] + shift).tolist()) for i in per_patch)
                return shared, per_patch

            with monkeypatch.context() as patch:
                patch.setattr(cli, "STRIP_BYTES", budget)
                patch.setattr(cli, "pca_transform", counted)
                patch.setattr(cli, "_strips", strips)
                patch.setattr(train_mod, "plan_tiles", planned)
                assert run(["map", "--config", config, "--checkpoint", ckpt,
                            "--out", tmp_path / str(budget)]) == 0
            runs.append((projections, los, sorted(tiles, key=str)))

        (projections, los, tiles), (_, whole_los, whole_tiles) = runs
        assert los == [0, 11, 22] and whole_los == [0]
        assert tiles == whole_tiles and sum(len(t) == 5 for t in tiles) == 1
        covered = np.zeros(height, dtype=bool)
        for top, (needed, reads, chunks) in zip(range(0, height, tile), projections,
                                                strict=True):
            lo, hi = reads[0][0], reads[-1][1]
            assert lo % tile == 0 and lo <= top
            assert [stop for _, stop in reads[:-1]] == [start for start, _ in reads[1:]]
            covered[lo:hi] = True
            want = np.zeros((height, width), dtype=bool)
            for row, col in np.argwhere(labels[top:top + tile]):
                row += top
                want[max(row - half, 0):row + half + 1, max(col - half, 0):col + half + 1] = True
            assert needed.shape == (hi - lo, width) and want.sum() == want[lo:hi].sum()
            assert np.array_equal(needed, want[lo:hi])
            assert needed.any() == (top != tile) == (chunks > 0)
        assert covered.all()

    def test_eval_holds_one_strip_not_the_scene(self, tmp_path, monkeypatch):
        """Under tracemalloc, `eval` of a 330×600 scene in 30 strips of one
        TILE row peaks, above what it holds once its test pixels are drawn,
        within one strip with its label map and mask, one read block, one
        chunk's temporaries and the largest cost of one strip's `predict`,
        which runs batches of a few dozen patches. A projection of the whole
        scene alone is larger than all of those together."""
        height, width, bands, dims = 330, 600, 32, 13
        monkeypatch.setattr(cli, "STRIP_BYTES", 0)
        monkeypatch.setattr(data, "CHUNK_PIXELS", width)
        monkeypatch.setattr(data, "_READ_BYTES", 4 * bands * width * 4)
        cube, lidar = scene_cube(height, width, bands, seed=2)
        labels = np.zeros((height, width), dtype=np.uint16)
        labels[::2, ::60] = np.arange(height // 2 * width // 60).reshape(height // 2, -1) % 4 + 1
        config, ckpt = write_scene(tmp_path, cube, lidar, labels, 7)
        del cube, lidar
        marks = {"peak": 0, "predict": 0, "strip": 0}

        def mark(key, value):
            marks[key] = max(marks[key], value)

        def strips(*args, _fn=cli._strips):
            marks["base"] = tracemalloc.get_traced_memory()[0]
            return _fn(*args)

        def predict(model, patches, _fn=cli.predict):
            before, peak = tracemalloc.get_traced_memory()
            mark("peak", peak)
            mark("strip", patches.hsi.nbytes + patches.lidar.nbytes)
            tracemalloc.reset_peak()
            try:
                return _fn(model, patches)
            finally:
                mark("predict", tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(cli, "_strips", strips)
        # `evaluate` looks `predict` up in `lsaf.train`
        monkeypatch.setattr(importlib.import_module("lsaf.train"), "predict", predict)
        tracemalloc.start()
        try:
            assert run(["eval", "--config", config, "--checkpoint", ckpt,
                        "--out", tmp_path / "out"]) == 0
            mark("peak", tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # a strip holds 11 rows, the TILE row above and 3 rows below; its
        # 16-bit label map and its mask are 3 bytes a pixel of those rows
        held = 25
        chunk = data.CHUNK_PIXELS * (bands * 4 + (bands + 3 * dims) * 8)
        bound = 3 * held * width + marks["strip"] + data._READ_BYTES + chunk + marks["predict"]
        assert marks["strip"] == held * width * (dims + 1) * 4
        assert marks["peak"] - marks["base"] <= bound
        assert dims * height * width * 4 > bound


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
