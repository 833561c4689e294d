"""Acceptance checks, one test per shipping criterion.

Each test prints a single `ACCEPTANCE <name>: PASS|FAIL (...)` line (visible
with `pytest -s`) and then asserts, so the suite both documents and enforces
the release bar. The two training checks run real optimizations and take a
couple of minutes on one core.
"""

import time

import numpy as np
import pytest

from lsaf import cli, storage
from lsaf import tensor as T
from lsaf.data import (
    RasterPair,
    extract_patches,
    fit_minmax,
    pca_fit,
    pca_transform,
    rescale,
    split,
    synth_generate,
)
from lsaf.errors import ConfigError
from lsaf.model import (
    DecisionFusion,
    LinearSelfAttention,
    LsafModel,
    ModelConfig,
    SqueezeExcite,
    spatial_attention,
)
from lsaf.tensor import Tensor
from lsaf.train import MetricsReport, TrainConfig, evaluate, predict, train

from gradcheck import finite_diff_check


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture()
def float64():
    prev = T.default_dtype()
    T.set_default_dtype(np.float64)
    try:
        yield
    finally:
        T.set_default_dtype(prev)


@pytest.fixture()
def float32():
    prev = T.default_dtype()
    T.set_default_dtype(np.float32)
    try:
        yield
    finally:
        T.set_default_dtype(prev)


def unit_scaled(raster):
    """Each band min-max scaled to [0, 1], as float32."""
    return rescale(raster, *fit_minmax(raster)).astype(np.float32)


def prepared_scene(num_classes, size, bands, seed, pca_dims=13, patch=7, fraction=0.5):
    """Synthetic scene through the real preprocessing chain, as the patch
    sets of its training and test maps."""
    pair = synth_generate(num_classes, size, size, bands, seed=seed)
    pca = pca_fit(pair.hsi, pca_dims)
    hsi, lidar = unit_scaled(pca_transform(pca, pair.hsi)), unit_scaled(pair.lidar)
    return tuple(extract_patches(RasterPair(hsi=hsi, lidar=lidar, labels=side), s=patch)
                 for side in split(pair.labels, fraction, seed=seed))


# ----------------------------------------------------------------------


def test_gradient_integrity(float64):
    """Tape gradients match central differences for every parameter tensor,
    relative error < 1e-4 in 64-bit on a 2-sample batch, within 2 minutes."""
    started = time.monotonic()
    model = LsafModel(ModelConfig(3, pca_dims=13, patch=7, hidden=8), seed=0)
    rng = np.random.default_rng(42)
    hsi = rng.normal(size=(2, 13, 7, 7))
    lidar = rng.normal(size=(2, 1, 7, 7))
    labels = np.array([0, 2])

    def loss(_theta):
        logits = model.forward(Tensor(hsi), Tensor(lidar), training=True)
        return T.cross_entropy(logits, labels)

    params = model.params()
    names = set(params)
    assert "fusion.weight_hsi" in names and "fusion.weight_lidar" in names
    assert any(".bn.gamma" in n for n in names)
    assert any(n.startswith("attention.se.") for n in names)

    worst, worst_name = 0.0, ""
    for i, (name, theta) in enumerate(params.items()):
        err = finite_diff_check(loss, theta, max_coords=4, seed=i)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.monotonic() - started

    ok = worst < 1e-4 and elapsed < 120.0
    report(
        "gradient-integrity",
        ok,
        f"{len(params)} tensors, max rel err {worst:.3e} at {worst_name}, {elapsed:.0f}s",
    )
    assert ok


def test_equation_oracles(float64):
    """The four fusion building blocks match straight-line numpy references
    to 1e-10 on random 2-4 channel inputs, 20 seeds. The attention blocks
    take position-major (n, hw, c) maps."""

    def dense(layer, x):
        return x @ layer.weight.data + layer.bias.data

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    def soft(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    errs = {"channel_attention": 0.0, "se_block": 0.0, "spatial_attention": 0.0,
            "decision_fusion": 0.0}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = 2 + seed % 3
        n, hw = 3, 5
        att = LinearSelfAttention(rng, c, se_reduction=2)
        se = SqueezeExcite(rng, 2 * c, reduction=2)
        fusion = DecisionFusion(rng, c * hw, hidden=4, num_classes=3)
        fusion.weight_hsi.data = np.array(0.7)
        fusion.weight_lidar.data = np.array(1.3)

        hat_h = rng.normal(size=(n, hw, c))
        hat_l = rng.normal(size=(n, hw, c))
        joint = rng.normal(size=(n, hw, 2 * c))

        got_h, got_l = att.channel_attention(Tensor(hat_h), Tensor(hat_l))
        gate = sig(dense(att.gate_out, dense(att.gate_hsi, hat_h) + dense(att.gate_lidar, hat_l)))
        errs["channel_attention"] = max(
            errs["channel_attention"],
            np.abs(got_h.data - gate * hat_h).max(),
            np.abs(got_l.data - gate * hat_l).max(),
        )

        got_se = se(Tensor(joint))
        excite = sig(dense(se.fc2, np.maximum(dense(se.fc1, joint.mean(axis=1)), 0.0)))
        errs["se_block"] = max(
            errs["se_block"], np.abs(got_se.data - joint * excite[:, None, :]).max()
        )

        fused = rng.normal(size=(n, hw, 2 * c))
        got_sp = spatial_attention(Tensor(joint), Tensor(fused))
        errs["spatial_attention"] = max(
            errs["spatial_attention"], np.abs(got_sp.data - joint * soft(fused)).max()
        )

        feat_h = rng.normal(size=(n, c * hw))
        feat_l = rng.normal(size=(n, c * hw))
        feat_f = rng.normal(size=(n, 2 * c * hw))
        got = fusion(Tensor(feat_h), Tensor(feat_l), Tensor(feat_f))
        heads = (fusion.head_hsi, fusion.head_lidar, fusion.head_fused)
        feats = (feat_h, feat_l, feat_f)

        def head(block, x):
            return dense(block.fc2, np.maximum(dense(block.fc1, x), 0.0))

        refs = [head(block, x) for block, x in zip(heads, feats)]
        ref_combined = 0.7 * refs[0] + 1.3 * refs[1] + refs[2]
        errs["decision_fusion"] = max(
            errs["decision_fusion"],
            np.abs(got.data - ref_combined).max(),
            max(np.abs(block(Tensor(x)).data - r).max()
                for block, x, r in zip(heads, feats, refs)),
        )

    worst = max(errs.values())
    ok = worst < 1e-10
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    report("equation-oracles", ok, detail)
    assert ok


def test_shape_contract():
    """Both extractors emit identical feature-map shapes for patch sizes
    9, 11, 13; an infeasible geometry fails at construction, before any
    forward pass."""
    agreed = []
    for patch in (9, 11, 13):
        config = ModelConfig(5, pca_dims=16, patch=patch, hidden=8)
        model = LsafModel(config, seed=0)
        rng = np.random.default_rng(patch)
        map_h = model.hsi_extractor(
            Tensor(rng.normal(size=(2, 16, patch, patch)).astype(np.float32)), False)
        map_l = model.lidar_extractor(
            Tensor(rng.normal(size=(2, 1, patch, patch)).astype(np.float32)), False)
        side = config.feature_side
        agreed.append(
            side == patch - 6
            and map_h.shape == map_l.shape == (2, 64, side, side)
        )

    with pytest.raises(ConfigError):
        ModelConfig(5, pca_dims=16, patch=5, hidden=8)  # spatial underflow
    with pytest.raises(ConfigError):
        ModelConfig(5, pca_dims=12, patch=9, hidden=8)  # spectral underflow
    with pytest.raises(ConfigError):
        ModelConfig(5, pca_dims=16, patch=10, hidden=8)  # no center pixel

    ok = all(agreed)
    report("shape-contract", ok, f"patches 9/11/13 agree: {agreed}, violations raise")
    assert ok


def test_normalizations():
    """Spatial softmax over the 17 positions of (n, hw, c) maps sums to one
    per channel (1e-6); PCA components are orthonormal (1e-8) with
    non-increasing explained variance."""
    softmax_err = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fused = Tensor(rng.normal(scale=3.0, size=(2, 17, 3)).astype(np.float32))
        weights = spatial_attention(Tensor(np.ones((2, 17, 3), np.float32)), fused)
        softmax_err = max(softmax_err, np.abs(weights.data.sum(axis=1) - 1.0).max())

    ortho_err, monotone = 0.0, True
    cubes = [np.random.default_rng(s).normal(size=(12, 15, 14)) for s in range(5)]
    cubes.append(synth_generate(15, 24, 24, 32, seed=3).hsi)
    for cube in cubes:
        pca = pca_fit(cube, min(8, cube.shape[0]))
        gram = pca.components.T @ pca.components
        ortho_err = max(ortho_err, np.abs(gram - np.eye(pca.dims)).max())
        monotone = monotone and bool(np.all(np.diff(pca.explained_variance) <= 0))

    ok = softmax_err < 1e-6 and ortho_err < 1e-8 and monotone
    report(
        "normalizations",
        ok,
        f"softmax sum err {softmax_err:.1e}, gram err {ortho_err:.1e}, "
        f"variance non-increasing {monotone}",
    )
    assert ok


def test_learning_capacity(float32):
    """The full model reaches 99% training accuracy on the 15-class scene
    within 300 epochs at lr 1e-4, batch 128, in under 10 minutes."""
    started = time.monotonic()
    train_set, _ = prepared_scene(15, 26, 32, seed=7)
    model = LsafModel(ModelConfig(15, pca_dims=13, patch=7, hidden=32), seed=0)
    config = TrainConfig(lr=1e-4, epochs=150, batch=128, seed=0)
    train(model, train_set, config)
    accuracy = float((predict(model, train_set) == train_set.labels).mean() * 100.0)
    elapsed = time.monotonic() - started

    ok = accuracy >= 99.0 and elapsed < 600.0
    report(
        "learning-capacity",
        ok,
        f"train accuracy {accuracy:.2f}% after {config.epochs} epochs, {elapsed:.0f}s",
    )
    assert ok


def test_fusion_benefit(float32):
    """On the scene with one HSI-only and one LiDAR-only separable class
    pair, the fused model beats each single-branch model by >= 5 points of
    test overall accuracy, averaged over 3 seeds."""
    train_set, test_set = prepared_scene(4, 24, 24, seed=11)
    oas = {"full": [], "hsi": [], "lidar": []}
    for seed in (0, 1, 2):
        for mode in oas:
            model = LsafModel(
                ModelConfig(4, pca_dims=13, patch=7, hidden=16), seed=seed, mode=mode
            )
            config = TrainConfig(lr=1e-3, epochs=60, batch=128, seed=seed)
            train(model, train_set, config)
            oas[mode].append(evaluate(model, test_set).oa)

    means = {mode: float(np.mean(vals)) for mode, vals in oas.items()}
    margin_h = means["full"] - means["hsi"]
    margin_l = means["full"] - means["lidar"]
    ok = margin_h >= 5.0 and margin_l >= 5.0
    report(
        "fusion-benefit",
        ok,
        f"mean OA full {means['full']:.2f} vs hsi {means['hsi']:.2f} "
        f"(+{margin_h:.2f}) and lidar {means['lidar']:.2f} (+{margin_l:.2f})",
    )
    assert ok


def test_determinism(float32):
    """Two runs with the same seed produce bit-identical 5-epoch loss traces
    and final weights."""
    train_set, _ = prepared_scene(4, 20, 16, seed=5)
    traces, states = [], []
    for _run in range(2):
        model = LsafModel(ModelConfig(4, pca_dims=13, patch=7, hidden=16), seed=0)
        _, losses = train(model, train_set, TrainConfig(lr=1e-3, epochs=5, batch=64, seed=0))
        traces.append(losses)
        states.append(model.state_dict())

    same_trace = traces[0] == traces[1]
    same_state = list(states[0]) == list(states[1]) and all(
        np.array_equal(states[0][k], states[1][k]) for k in states[0]
    )
    ok = same_trace and same_state
    report("determinism", ok, f"5-epoch traces identical: {same_trace}, weights: {same_state}")
    assert ok


def test_metrics_oracle():
    """OA/AA/kappa of 50 random confusion matrices equal a loop-based
    recount exactly."""

    def recount(conf):
        k = conf.shape[0]
        rows = [int(conf[i].sum()) for i in range(k)]
        cols = [int(conf[:, j].sum()) for j in range(k)]
        total = sum(rows)
        correct = sum(int(conf[i, i]) for i in range(k))
        oa = correct / total * 100.0
        accs = np.array([conf[i, i] / rows[i] * 100.0 for i in range(k) if rows[i] > 0])
        aa = float(np.mean(accs))
        expected = sum(rows[i] * cols[i] for i in range(k)) / total ** 2
        kappa = (correct / total - expected) / (1.0 - expected)
        return oa, aa, kappa

    mismatches = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 16))
        conf = rng.integers(0, 30, size=(k, k))
        if k > 2 and seed % 5 == 0:
            conf[int(rng.integers(k))] = 0  # an absent class
        if conf.sum() == 0:
            conf[0, 0] = 1
        given = MetricsReport(confusion=conf)
        oa, aa, kappa = recount(given.confusion)
        if not (given.oa == oa and given.aa == aa and given.kappa == kappa):
            mismatches.append(seed)

    ok = not mismatches
    report("metrics-oracle", ok, f"50 matrices, mismatched seeds: {mismatches or 'none'}")
    assert ok


def test_io_round_trips(tmp_path, capsys):
    """Raster and checkpoint files survive write-read-write byte-exactly and
    the rendered map has the scene's dimensions."""
    rng = np.random.default_rng(0)

    cube = rng.normal(size=(5, 9, 11)).astype(np.float32)
    path_a, path_b = tmp_path / "a.lsaf", tmp_path / "b.lsaf"
    storage.write_raster(path_a, cube)
    raster_ok = np.array_equal(storage.read_raster(path_a), cube)
    storage.write_raster(path_b, storage.read_raster(path_a))
    raster_ok = raster_ok and path_a.read_bytes() == path_b.read_bytes()

    state = {
        "layer.weight": rng.normal(size=(3, 4)),
        "layer.running": rng.normal(size=(7,)).astype(np.float32),
        "meta.scalar": np.array(2.0),
        "labels": rng.integers(0, 9, size=(4, 4)).astype(np.uint16),
    }
    ck_a, ck_b = tmp_path / "a.lsfw", tmp_path / "b.lsfw"
    storage.write_checkpoint(ck_a, state)
    loaded = storage.read_checkpoint(ck_a)
    ckpt_ok = list(loaded) == list(state) and all(
        np.array_equal(loaded[k], state[k]) and loaded[k].dtype == state[k].dtype
        for k in state
    )
    storage.write_checkpoint(ck_b, loaded)
    ckpt_ok = ckpt_ok and ck_a.read_bytes() == ck_b.read_bytes()

    scene = tmp_path / "scene"
    run_dir = tmp_path / "run"
    assert cli.main(["synth", "--classes", "4", "--height", "16", "--width", "16",
                     "--bands", "16", "--seed", "2", "--out", str(scene)]) == 0
    config = tmp_path / "config.json"
    config.write_text(
        '{"hsi": "%s", "lidar": "%s", "labels": "%s", "patch": 7, "pca_dims": 13,'
        ' "hidden": 8, "epochs": 1, "batch": 64, "train_fraction": 0.5, "out": "%s"}'
        % (scene / "hsi.lsaf", scene / "lidar.lsaf", scene / "labels.lsaf", run_dir)
    )
    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["map", "--config", str(config), "--checkpoint",
                     str(run_dir / "checkpoint.lsfw"), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    image = storage.read_ppm(run_dir / "map.ppm")
    map_ok = image.shape == (16, 16, 3)

    ok = raster_ok and ckpt_ok and map_ok
    report(
        "io-round-trips",
        ok,
        f"raster {raster_ok}, checkpoint {ckpt_ok}, map 16x16 {map_ok}",
    )
    assert ok
