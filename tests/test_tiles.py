"""Shared scene-tile inference against per-patch inference, and the rule that
picks between them per tile."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from lsaf import tensor as T
from lsaf.data import PatchSet, RasterPair, extract_patches, fit_minmax, rescale, synth_generate
from lsaf.errors import ContractError
from lsaf.model import LsafModel, ModelConfig
from lsaf.tensor import Tensor

# `lsaf.train` the attribute is the train() function.
train_mod = importlib.import_module("lsaf.train")
plan_tiles, predict, predict_logits = (
    train_mod.plan_tiles, train_mod.predict, train_mod.predict_logits)
TILE = train_mod.TILE

# The conv oracle's tolerances (tests/test_tensor.py), here relative to the
# sum of the magnitudes of each pixel's reference logits.
TOL = {np.float32: 1e-5, np.float64: 1e-12}

PAPER = dict(pca_dims=30, patch=11)
ACCEPTANCE = dict(pca_dims=13, patch=7)


@pytest.fixture()
def dtype_switch():
    prev = T.default_dtype()
    yield T.set_default_dtype
    T.set_default_dtype(prev)


def scene_patches(height, width, geometry, seed=0, keep=None):
    """Patches of a normalized synthetic scene, labels zeroed where `keep`
    (an (H, W) bool mask) is False."""
    pair = synth_generate(4, height, width, geometry["pca_dims"], seed=seed)
    labels = pair.labels if keep is None else np.where(keep, pair.labels, 0)
    hsi, lidar = (rescale(r, *fit_minmax(r)).astype(np.float32) for r in (pair.hsi, pair.lidar))
    scaled = RasterPair(hsi=hsi, lidar=lidar, labels=labels)
    return extract_patches(scaled, s=geometry["patch"])


def subset(patches, idx):
    """The pixels of `patches` that `idx` selects, a set on the same rasters."""
    return PatchSet(patches.hsi, patches.lidar, patches.labels[idx], patches.pixels[idx],
                    patches.patch)


def per_patch_logits(model, patches, dtype, chunk=32):
    """Per-patch inference: `model.forward` on the cut patches, in small
    batches (a sample's logits do not depend on its batch)."""
    logits = []
    with T.no_grad():
        for i in range(0, len(patches), chunk):
            hsi, lidar = patches.cut(np.arange(i, min(i + chunk, len(patches))))
            logits.append(model.forward(Tensor(hsi.astype(dtype)), Tensor(lidar.astype(dtype))).data)
    return np.concatenate(logits)


def assert_close_to_per_patch(model, patches, dtype):
    got = predict_logits(model, patches)
    want = per_patch_logits(model, patches, dtype)
    scale = np.abs(want).sum(axis=1, keepdims=True)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= TOL[dtype] * scale)


def tile_plan(model, patches):
    """(shared tiles, per-patch indices) as `predict` plans them."""
    _, height, width = patches.lidar.shape
    return plan_tiles(patches.pixels, height, width, model.tile_conv_flops)


# ----------------------------------------------------------------------
# shared against per-patch logits


CASES = {
    # several tiles, the last row and column of tiles ragged (14 = 11 + 3)
    "paper-ragged": (14, 13, PAPER, "full"),
    "acceptance-ragged": (25, 30, ACCEPTANCE, "full"),
    "smaller-than-a-tile": (8, 9, ACCEPTANCE, "full"),
    # reflect padding reaches across the whole scene
    "smaller-than-the-patch-paper": (6, 6, PAPER, "full"),
    "smaller-than-the-patch-acceptance": (4, 5, ACCEPTANCE, "full"),
    "hsi-mode": (14, 16, ACCEPTANCE, "hsi"),
    "lidar-mode": (14, 16, ACCEPTANCE, "lidar"),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(CASES))
def test_shared_tiles_match_per_patch_logits(case, dtype, dtype_switch):
    height, width, geometry, mode = CASES[case]
    dtype_switch(dtype)
    model = LsafModel(ModelConfig(4, **geometry), seed=1, mode=mode)
    patches = scene_patches(height, width, geometry, seed=2)
    shared, per_patch = tile_plan(model, patches)
    # every pixel is labelled, so every tile runs shared, ragged ones too
    assert len(per_patch) == 0
    assert len(shared) == math.ceil(height / TILE) * math.ceil(width / TILE)
    border = ((patches.pixels == 0) | (patches.pixels == (height - 1, width - 1))).any(axis=1)
    assert border.sum() == 2 * (height + width) - 4
    assert_close_to_per_patch(model, patches, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mixed_shared_and_per_patch_tiles(dtype, dtype_switch):
    """A scene labelled densely on the left and sparsely on the right runs
    both paths in one call."""
    dtype_switch(dtype)
    height, width = 22, 33
    keep = np.zeros((height, width), dtype=bool)
    keep[:, :TILE] = True
    keep[::5, TILE::7] = True
    model = LsafModel(ModelConfig(4, **ACCEPTANCE), seed=3)
    patches = scene_patches(height, width, ACCEPTANCE, seed=4, keep=keep)
    shared, per_patch = tile_plan(model, patches)
    assert len(shared) == 2 and len(per_patch) > 0
    assert_close_to_per_patch(model, patches, dtype)


def test_subsets_keep_the_scene(dtype_switch):
    dtype_switch(np.float64)
    model = LsafModel(ModelConfig(4, **ACCEPTANCE), seed=5)
    patches = scene_patches(20, 20, ACCEPTANCE, seed=6)
    half = subset(patches, np.arange(0, len(patches), 2))
    assert tile_plan(model, half)[0]
    assert_close_to_per_patch(model, half, np.float64)


def test_predict_labels_repeat_exactly(dtype_switch):
    dtype_switch(np.float32)
    model = LsafModel(ModelConfig(4, **PAPER), seed=7)
    patches = scene_patches(14, 13, PAPER, seed=8)
    assert np.array_equal(predict(model, patches), predict(model, patches))


def test_tile_windows_are_eval_only():
    model = LsafModel(ModelConfig(4, **ACCEPTANCE), seed=0)
    tiles = Tensor(np.zeros((1, 13, 9, 9)))
    windows = T.MapWindows(tiles, np.array([[0, 1, 2]]), 7)
    lidar = T.MapWindows(Tensor(np.zeros((1, 1, 9, 9))), windows.index, 7)
    assert model.forward(windows, lidar, training=False).shape == (1, 4)
    with pytest.raises(ContractError):
        model.forward(windows, lidar, training=True)


def test_full_paper_tile_gathers_no_block4_windows(dtype_switch):
    """One full tile's HSI forward at the paper geometry, in float32, peaks
    below the 121x576x5x5 buffer (6.7 MiB) that gathering HSI block4's input
    windows would take alone."""
    dtype_switch(np.float32)
    model = LsafModel(ModelConfig(4, **PAPER), seed=12)
    side = TILE + PAPER["patch"] - 1
    tiles = Tensor(np.random.default_rng(13).standard_normal(
        (1, PAPER["pca_dims"], side, side), dtype=np.float32))
    index = np.zeros((TILE * TILE, 3), dtype=np.intp)
    index[:, 1], index[:, 2] = np.divmod(np.arange(TILE * TILE), TILE)
    with T.no_grad():
        tracemalloc.start()
        try:
            out = model.hsi_extractor(T.MapWindows(tiles, index, PAPER["patch"]),
                                      training=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert out.shape == (TILE * TILE, 64, 5, 5) and out.dtype == np.float32
    assert peak < TILE * TILE * 576 * 5 * 5 * 4


# ----------------------------------------------------------------------
# the tile rule


def paper_model():
    return LsafModel(ModelConfig(15, **PAPER), seed=0)


@pytest.mark.parametrize("seed", range(3))
def test_scattered_sparse_mask_stays_per_patch(seed):
    """0.2% of a Houston-sized grid, labelled uniformly at random."""
    height, width = 349, 1905
    flat = np.random.default_rng(seed).choice(height * width, size=round(0.002 * height * width),
                                              replace=False)
    pixels = np.stack(np.unravel_index(np.sort(flat), (height, width)), axis=1)
    shared, per_patch = plan_tiles(pixels, height, width, paper_model().tile_conv_flops)
    assert shared == []
    assert np.array_equal(per_patch, np.arange(len(pixels)))


def test_fully_labelled_map_shares_every_full_tile():
    height, width = 349, 1905
    pixels = np.argwhere(np.ones((height, width), dtype=bool))
    shared, per_patch = plan_tiles(pixels, height, width, paper_model().tile_conv_flops)
    full = [t for t in shared if t.height == t.width == TILE]
    assert len(full) == (height // TILE) * (width // TILE)
    assert sum(len(t.members) for t in shared) + len(per_patch) == len(pixels)
    for tile in shared:
        rows, cols = pixels[tile.members].T
        assert len(tile.members) == tile.height * tile.width
        assert rows.min() == tile.row and rows.max() == tile.row + tile.height - 1
        assert cols.min() == tile.col and cols.max() == tile.col + tile.width - 1


def test_rule_compares_tile_flops_with_patch_flops():
    """Shared exactly when the tile costs less than its pixels as patches."""
    model = paper_model()
    cost = model.tile_conv_flops(TILE, TILE) / model.tile_conv_flops(1, 1)
    needed = math.floor(cost) + 1
    tile_pixels = np.argwhere(np.ones((TILE, TILE), dtype=bool))
    for n, want in ((needed - 1, 0), (needed, 1)):
        shared, _ = plan_tiles(tile_pixels[:n], TILE, TILE, model.tile_conv_flops)
        assert len(shared) == want


def test_tile_flops_count_the_branches_a_mode_runs():
    full, hsi, lidar = (LsafModel(ModelConfig(4, **PAPER), mode=m) for m in ("full", "hsi", "lidar"))
    for h, w in ((1, 1), (TILE, 3)):
        assert full.tile_conv_flops(h, w) == hsi.tile_conv_flops(h, w) + lidar.tile_conv_flops(h, w)
    # one patch: HSI block1 is 8 kernels of 7x3x3 taps at 24x9x9 positions,
    # and block4's tap GEMM is 64 kernels of 576x3x3 taps at 5x5 positions
    assert hsi.tile_conv_flops(1, 1) == 2 * (8 * 63 * 24 * 81 + 16 * 360 * 20 * 49
                                              + 32 * 432 * 18 * 25 + 64 * 5184 * 25)


def test_per_patch_pixels_pool_across_tiles(dtype_switch):
    """Scattered pixels of many per-patch tiles share ceil(n/256) batches."""
    dtype_switch(np.float32)
    height, width = 60, 60
    rng = np.random.default_rng(9)
    keep = np.zeros(height * width, dtype=bool)
    keep[rng.choice(height * width, size=300, replace=False)] = True
    model = LsafModel(ModelConfig(4, **ACCEPTANCE), seed=10)
    patches = scene_patches(height, width, ACCEPTANCE, seed=11, keep=keep.reshape(height, width))
    shared, per_patch = tile_plan(model, patches)
    assert shared == [] and len(per_patch) == len(patches)
    touched = {(r // TILE, c // TILE) for r, c in patches.pixels}
    assert len(touched) > 30

    calls = []
    forward = model.forward

    def counting_forward(hsi, lidar, training=False):
        calls.append(hsi.shape[0])
        return forward(hsi, lidar, training)

    model.forward = counting_forward
    predict(model, patches)
    assert calls == [256, len(patches) - 256]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_logits_independent_of_batch_composition(dtype, dtype_switch):
    """A pixel's logits from `predict_logits` keep their bytes in a set of
    1-8 per-patch pixels, as in the whole 36-pixel set: one pixel in each
    tile of a 66×66 scene, so no tile is shared and each set is one batch."""
    dtype_switch(dtype)
    keep = np.zeros((6 * TILE, 6 * TILE), dtype=bool)
    offsets = np.arange(36) * 5 % TILE
    tiles = np.arange(6) * TILE
    keep[tiles.repeat(6) + offsets, np.tile(tiles, 6) + offsets[::-1]] = True
    model = LsafModel(ModelConfig(15, **PAPER), seed=12)
    patches = scene_patches(6 * TILE, 6 * TILE, PAPER, seed=13, keep=keep)
    assert len(patches) == 36 and tile_plan(model, patches)[0] == []
    whole = predict_logits(model, patches)
    for n in range(1, 9):
        idx = np.arange(n) * 4 + n - 1
        assert predict_logits(model, subset(patches, idx)).tobytes() == whole[idx].tobytes(), n
