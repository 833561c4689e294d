"""Data pipeline tests: loading, PCA against a brute-force eigen oracle,
normalization, patch extraction, splitting, and synthetic scenes."""

import tracemalloc

import numpy as np
import pytest

from lsaf import data, storage
from lsaf.data import (
    PatchSet,
    RasterPair,
    extract_patches,
    pca_fit,
    fit_minmax,
    pca_transform,
    rescale,
    split,
    split_indices,
    synth_generate,
    window_pixels,
)
from lsaf.errors import ConfigError, FormatError, RegistrationError, ShapeError


def rng(seed):
    return np.random.default_rng(seed)


def make_pair(seed=0, bands=5, height=8, width=9, num_classes=3):
    r = rng(seed)
    labels = r.integers(0, num_classes + 1, size=(height, width))
    return RasterPair(
        hsi=r.normal(size=(bands, height, width)),
        lidar=r.normal(size=(1, height, width)),
        labels=labels,
    )


# ----------------------------------------------------------------------
# loading


class TestLoadRaster:
    def test_zero_scene_round_trip(self, tmp_path):
        paths = [tmp_path / n for n in ("h.lsaf", "l.lsaf", "g.lsaf")]
        storage.write_raster(paths[0], np.zeros((3, 2, 2), dtype=np.float32))
        storage.write_raster(paths[1], np.zeros((1, 2, 2), dtype=np.float32))
        storage.write_labels(paths[2], np.ones((2, 2), dtype=np.uint16))
        pair = data.load_raster(*paths)
        assert not pair.hsi[:, :].any() and not pair.lidar.any()
        assert pair.hsi.shape[0] == 3 and pair.num_classes == 1

    def test_short_file_is_format_error(self, tmp_path):
        paths = [tmp_path / n for n in ("h.lsaf", "l.lsaf", "g.lsaf")]
        storage.write_raster(paths[0], np.zeros((3, 2, 2), dtype=np.float32))
        storage.write_raster(paths[1], np.zeros((1, 2, 2), dtype=np.float32))
        storage.write_labels(paths[2], np.zeros((2, 2), dtype=np.uint16))
        paths[0].write_bytes(paths[0].read_bytes()[:-1])
        with pytest.raises(FormatError):
            data.load_raster(*paths)

    def test_grid_disagreement_is_registration_error(self, tmp_path):
        paths = [tmp_path / n for n in ("h.lsaf", "l.lsaf", "g.lsaf")]
        storage.write_raster(paths[0], np.zeros((3, 2, 2), dtype=np.float32))
        storage.write_raster(paths[1], np.zeros((1, 3, 2), dtype=np.float32))
        storage.write_labels(paths[2], np.zeros((2, 2), dtype=np.uint16))
        with pytest.raises(RegistrationError):
            data.load_raster(*paths)

    def test_save_writes_no_file_for_a_label_past_16_bits(self, tmp_path):
        pair = synth_generate(3, 6, 6, 4, seed=5)
        pair.labels[2, 3] = 70_000
        paths = [tmp_path / n for n in ("h.lsaf", "l.lsaf", "g.lsaf")]
        with pytest.raises(FormatError, match="16-bit"):
            data.save_raster(pair, *paths)
        assert list(tmp_path.iterdir()) == []

    def test_save_load_round_trip(self, tmp_path):
        pair = synth_generate(3, 10, 12, 6, seed=5)
        paths = [tmp_path / n for n in ("h.lsaf", "l.lsaf", "g.lsaf")]
        data.save_raster(pair, *paths)
        back = data.load_raster(*paths)
        assert np.array_equal(back.hsi[:, :], pair.hsi)
        assert np.array_equal(back.lidar, pair.lidar)
        assert np.array_equal(back.labels, pair.labels)


# ----------------------------------------------------------------------
# PCA


def eig_oracle(pixels):
    """Brute-force covariance eigendecomposition, descending order."""
    mean = pixels.mean(axis=0)
    centered = pixels - mean
    cov = centered.T @ centered / (len(pixels) - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    return mean, vals[order], vecs[:, order]


class TestPca:
    def test_full_rank_on_decorrelated_axes_is_permutation(self):
        r = rng(0)
        # independent unit-variance bands with distinct variances broken by scale
        scales = np.array([3.0, 2.0, 1.0])
        pixels = r.normal(size=(4000, 3)) * scales
        cube = pixels.T.reshape(3, 40, 100)
        model = pca_fit(cube, r=3)
        # each component should align with one axis
        alignment = np.abs(model.components)
        assert np.allclose(alignment.max(axis=0), 1.0, atol=0.05)
        assert np.allclose(model.components.T @ model.components, np.eye(3), atol=1e-8)

    def test_collinear_bands_oracle(self):
        r = rng(1)
        x1 = r.normal(size=5000)
        x2 = 2.0 * x1 + r.normal(size=5000) * 1e-6
        cube = np.stack([x1, x2]).reshape(2, 50, 100)
        model = pca_fit(cube, r=2)
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.allclose(np.abs(model.components[:, 0]), expected, atol=1e-4)
        assert model.explained_variance[1] < 1e-9 * model.explained_variance[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_eig_oracle(self, seed):
        r = rng(seed + 10)
        mix = r.normal(size=(6, 6))
        pixels = r.normal(size=(500, 6)) @ mix
        cube = pixels.T.reshape(6, 20, 25)
        model = pca_fit(cube, r=4)
        mean, vals, vecs = eig_oracle(pixels)
        assert np.allclose(model.mean, mean)
        assert np.allclose(model.explained_variance, vals[:4])
        for k in range(4):
            got, want = model.components[:, k], vecs[:, k]
            # sign convention may differ from the oracle's
            assert np.allclose(got, want, atol=1e-8) or np.allclose(got, -want, atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormal_and_sorted(self, seed):
        r = rng(seed + 30)
        cube = r.normal(size=(8, 10, 10)) * r.uniform(0.5, 3.0, size=(8, 1, 1))
        model = pca_fit(cube, r=5)
        gram = model.components.T @ model.components
        assert np.allclose(gram, np.eye(5), atol=1e-8)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_sign_convention_deterministic(self):
        cube = rng(2).normal(size=(4, 12, 12))
        a = pca_fit(cube, r=4)
        b = pca_fit(cube.copy(), r=4)
        assert np.array_equal(a.components, b.components)
        peaks = np.abs(a.components).argmax(axis=0)
        assert np.all(a.components[peaks, np.arange(4)] > 0)

    def test_r_out_of_range_rejected(self):
        cube = rng(3).normal(size=(4, 5, 5))
        with pytest.raises(ConfigError):
            pca_fit(cube, r=5)
        with pytest.raises(ConfigError):
            pca_fit(cube, r=0)

    def test_default_reduction_from_144_bands(self):
        cube = rng(4).normal(size=(144, 6, 7)).astype(np.float32)
        model = pca_fit(cube, r=30)
        out = pca_transform(model, cube)
        assert out.shape == (30, 6, 7)

    def test_labeled_fit_ignores_unlabeled_pixels(self):
        r = rng(5)
        cube = r.normal(size=(3, 4, 4))
        labels = np.zeros((4, 4), dtype=int)
        labels[:2] = 1
        masked = pca_fit(cube, r=2, labels=labels)
        manual = pca_fit(cube[:, :2, :], r=2)
        assert np.allclose(masked.mean, manual.mean)
        assert np.allclose(np.abs(masked.components), np.abs(manual.components))


    @pytest.mark.parametrize("masked", [False, True], ids=["all", "labeled"])
    def test_matches_the_two_copy_fit_exactly(self, masked):
        """Centring in place, and masking before the float64 cast, keep
        the bytes of a fit that casts the whole cube and centres a copy."""
        r = rng(7)
        cube = (r.normal(size=(12, 30, 40)) * r.uniform(0.5, 3.0, (12, 1, 1))).astype(np.float32)
        labels = r.integers(0, 3, size=(30, 40)) if masked else None
        pixels = cube.reshape(12, -1).T.astype(np.float64)
        if masked:
            pixels = pixels[labels.reshape(-1) != 0]
        mean = pixels.mean(axis=0)
        centered = pixels - mean
        vals, vecs = np.linalg.eigh(centered.T @ centered / (pixels.shape[0] - 1))
        order = np.argsort(vals)[::-1][:5]
        vecs = vecs[:, order]
        vecs = vecs * np.sign(vecs[np.abs(vecs).argmax(axis=0), np.arange(5)])
        model = pca_fit(cube, r=5, labels=labels)
        assert np.array_equal(model.mean, mean)
        assert np.array_equal(model.explained_variance, np.maximum(vals[order], 0.0))
        assert np.array_equal(model.components, vecs)

    @pytest.mark.parametrize("masked", [False, True], ids=["all", "labeled"])
    def test_fit_holds_one_float64_copy(self, masked):
        """The fit's peak is the float64 copy of the pixels it fits (and,
        with labels, their float32 selection), not two float64 copies."""
        cube = rng(8).normal(size=(64, 128, 128)).astype(np.float32)
        labels = np.zeros((128, 128), dtype=np.int64)
        labels[::2] = 1
        fitted = int((labels != 0).sum()) if masked else labels.size
        copies = fitted * cube.shape[0] * (8 + (4 if masked else 0))
        tracemalloc.start()
        try:
            pca_fit(cube, r=30, labels=labels if masked else None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * copies


class TestPcaTransform:
    # chunks of 1, 7, 16 and 33 rows, and one chunk for the whole scene
    @pytest.mark.parametrize("rows", [1, 7, 16, 33, 50])
    def test_chunked_projection_is_byte_identical(self, monkeypatch, rows):
        """Projecting row chunks of a 50-row scene writes the bytes the
        whole-scene formula gives, rescaled and cast to float32 or not."""
        r = rng(9)
        cube = (r.normal(size=(144, 50, 23)) * r.uniform(0.5, 3.0, (144, 1, 1))).astype(np.float32)
        model = pca_fit(cube, r=30)
        pixels = cube.reshape(144, -1).T.astype(np.float64)
        whole = ((pixels - model.mean) @ model.components).T.reshape(30, 50, 23)
        lo, span = fit_minmax(whole)
        span[3] = 0.0  # a constant band rescales to zero
        monkeypatch.setattr(data, "CHUNK_PIXELS", rows * 23)
        projected = pca_transform(model, cube)
        scaled = pca_transform(model, cube, scale=(lo, span))
        assert projected.dtype == np.float64 and np.array_equal(projected, whole)
        assert scaled.dtype == np.float32
        assert np.array_equal(scaled, rescale(whole, lo, span).astype(np.float32))

    # one row per block; blocks of 7 rows, the last one ragged; a scene wider
    # than a block's pixels
    @pytest.mark.parametrize("chunk", [23, 7 * 23, 10], ids=["row", "ragged", "wide"])
    def test_reader_projection_is_byte_identical(self, tmp_path, monkeypatch, chunk):
        """Row blocks read from the file project to the bytes of the cube
        held in memory, rescaled and cast to float32 or not."""
        r = rng(11)
        cube = (r.normal(size=(144, 50, 23)) * r.uniform(0.5, 3.0, (144, 1, 1))).astype(np.float32)
        path = tmp_path / "hsi.lsaf"
        storage.write_raster(path, cube)
        model = pca_fit(cube, r=30)
        lo, span = fit_minmax(pca_transform(model, cube))
        monkeypatch.setattr(data, "CHUNK_PIXELS", chunk)
        rows = storage.RasterRows(path)
        assert np.array_equal(pca_transform(model, rows), pca_transform(model, cube))
        scaled = pca_transform(model, rows, scale=(lo, span))
        assert scaled.dtype == np.float32
        assert np.array_equal(scaled, pca_transform(model, cube, scale=(lo, span)))

    def test_masked_projection_is_byte_identical(self, tmp_path, monkeypatch):
        """Given `needed`, the needed pixels keep the bytes of the projection
        of every pixel and the others are exactly 0.0, in chunks of 7 rows
        that are partly needed, wholly needed or not needed at all."""
        r = rng(12)
        cube = (r.normal(size=(144, 50, 23)) * r.uniform(0.5, 3.0, (144, 1, 1))).astype(np.float32)
        path = tmp_path / "hsi.lsaf"
        storage.write_raster(path, cube)
        model = pca_fit(cube, r=30)
        lo, span = fit_minmax(pca_transform(model, cube))
        needed = r.random((50, 23)) < 0.3
        needed[7:14], needed[21:28] = True, False
        monkeypatch.setattr(data, "CHUNK_PIXELS", 7 * 23)
        rows = storage.RasterRows(path)
        for scale in (None, (lo, span)):
            want = np.where(needed, pca_transform(model, cube, scale=scale), 0)
            got = pca_transform(model, rows, scale=scale, needed=needed)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_one_pixel_projection_is_byte_identical(self, monkeypatch):
        """A chunk with one pixel to project writes the bytes of the
        projection of every pixel, in float64 and rescaled float32, though
        the BLAS gives a one-row product other bytes than a larger one: masks
        of one pixel, and a one-column cube in chunks of 7 rows, whose last
        chunk holds its 50th pixel alone."""
        r = rng(16)
        cube = (r.normal(size=(144, 50, 23)) * r.uniform(0.5, 3.0, (144, 1, 1))).astype(np.float32)
        model = pca_fit(cube, r=30)
        lo, span = fit_minmax(pca_transform(model, cube))
        for scale in (None, (lo, span)):
            whole = pca_transform(model, cube, scale=scale)
            for pixel in r.choice(50 * 23, 40, replace=False):
                needed = np.zeros((50, 23), dtype=bool)
                needed.flat[pixel] = True
                want = np.where(needed, whole, 0)
                got = pca_transform(model, cube, scale=scale, needed=needed)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            with monkeypatch.context() as patch:
                patch.setattr(data, "CHUNK_PIXELS", 7)
                got = pca_transform(model, cube[:, :, 5:6], scale=scale)
            assert got.tobytes() == whole[:, :, 5:6].tobytes()

    # blocks of one 2-row chunk, of three chunks with the last block ragged,
    # and one block for the whole scene
    @pytest.mark.parametrize("budget,rows", [(1, 2), (3 * 2 * 144 * 23 * 4 + 99, 6),
                                             (1 << 24, 50)], ids=["chunk", "ragged", "whole"])
    def test_read_blocks_are_whole_chunks_within_the_budget(self, tmp_path, monkeypatch,
                                                            budget, rows):
        """The cube is read in blocks of rows that tile the scene in order,
        each the most whole chunks that fit in `_READ_BYTES` (one at least),
        and the bytes equal those of the cube held whole."""
        r = rng(13)
        cube = (r.normal(size=(144, 50, 23)) * r.uniform(0.5, 3.0, (144, 1, 1))).astype(np.float32)
        path = tmp_path / "hsi.lsaf"
        storage.write_raster(path, cube)
        model = pca_fit(cube, r=30)
        lo, span = fit_minmax(pca_transform(model, cube))
        monkeypatch.setattr(data, "CHUNK_PIXELS", 2 * 23)
        monkeypatch.setattr(data, "_READ_BYTES", budget)
        reads = []

        class Recorded(storage.RasterRows):
            def __getitem__(self, key):
                reads.append(key[1].indices(self.shape[1])[:2])
                return super().__getitem__(key)

        for scale in (None, (lo, span)):
            reads.clear()
            got = pca_transform(model, Recorded(path), scale=scale)
            assert got.tobytes() == pca_transform(model, cube, scale=scale).tobytes()
            assert reads == [(top, min(top + rows, 50)) for top in range(0, 50, rows)]

    @pytest.mark.parametrize("needed", [
        (rng(14).random((8, 9)) < 0.5).astype(np.int64),  # 0/1, not bool
        np.ones((8, 10), dtype=bool),  # a column too many
        np.ones((7, 9), dtype=bool),  # a row too few
        rng(14).random((7, 10)) < 0.5,  # partial and mis-shaped
    ], ids=["int", "wide", "short", "partial"])
    def test_needed_mask_must_be_a_bool_scene_mask(self, needed):
        """A `needed` mask that is not a bool (H, W) array is refused: an int
        0/1 mask would index pixels by number, and a mis-shaped one would
        project the wrong pixels or fail with an index error."""
        cube = rng(15).normal(size=(12, 8, 9)).astype(np.float32)
        model = pca_fit(cube, r=4)
        with pytest.raises(ShapeError, match=r"needed must be a \(8, 9\) bool mask"):
            pca_transform(model, cube, needed=needed)

    def test_mean_pixel_maps_to_zero(self):
        cube = rng(0).normal(size=(5, 6, 6))
        model = pca_fit(cube, r=3)
        out = pca_transform(model, model.mean.reshape(5, 1, 1))
        assert np.allclose(out, 0.0, atol=1e-10)

    def test_projected_variance_matches_explained(self):
        r = rng(2)
        pixels = r.normal(size=(800, 5)) @ r.normal(size=(5, 5))
        cube = pixels.T.reshape(5, 20, 40)
        model = pca_fit(cube, r=5)
        out = pca_transform(model, cube).reshape(5, -1)
        assert np.allclose(out.var(axis=1, ddof=1), model.explained_variance, atol=1e-6)

    def test_projected_covariance_is_diagonal(self):
        r = rng(6)
        pixels = r.normal(size=(600, 6)) @ r.normal(size=(6, 6))
        cube = pixels.T.reshape(6, 20, 30)
        model = pca_fit(cube, r=4)
        out = pca_transform(model, cube).reshape(4, -1)
        cov = np.cov(out, ddof=1)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-6

    def test_band_mismatch_rejected(self):
        model = pca_fit(rng(3).normal(size=(4, 5, 5)), r=2)
        with pytest.raises(ShapeError):
            pca_transform(model, np.zeros((5, 5, 5)))


# ----------------------------------------------------------------------
# normalization


class TestNormalize:
    def test_two_point_band(self):
        raster = np.array([[[2.0, 4.0]]])
        assert np.array_equal(rescale(raster, *fit_minmax(raster)), [[[0.0, 1.0]]])

    def test_constant_band_is_zero(self):
        raster = np.full((2, 3, 3), 7.0)
        assert not rescale(raster, *fit_minmax(raster)).any()

    def test_already_unit_range_unchanged(self):
        band = np.array([[[0.0, 0.25], [0.75, 1.0]]])
        assert np.array_equal(rescale(band, *fit_minmax(band)), band)

    def test_output_in_unit_interval(self):
        raster = rng(0).normal(size=(4, 6, 6)) * 100
        out = rescale(raster, *fit_minmax(raster))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_rescale_applies_fitted_constants_to_another_raster(self):
        lo, span = np.array([2.0, 5.0]), np.array([4.0, 0.0])
        raster = np.array([[[0.0, 4.0, 10.0]], [[1.0, 5.0, 9.0]]], dtype=np.float32)
        out = rescale(raster, lo, span)
        assert out.dtype == np.float64
        assert np.array_equal(out, [[[-0.5, 0.5, 2.0]], [[0.0, 0.0, 0.0]]])


# ----------------------------------------------------------------------
# patches


class TestExtractPatches:
    # a 5×8 scene: s = 9 reflects windows across all of its 5 rows
    @pytest.mark.parametrize("s", [1, 3, 5, 9])
    def test_window_pixels_are_what_the_padded_windows_read(self, s):
        """The needed mask is the set of scene pixels that the mirror-padded
        s×s windows of the labelled pixels read, no more and no less."""
        labels = (rng(s).random((5, 8)) < 0.15).astype(np.int64)
        labels[0, 0] = labels[4, 6] = 2
        half = s // 2
        index = np.pad(np.arange(40).reshape(5, 8), half, mode="reflect")
        read = np.zeros(40, dtype=bool)
        for row, col in np.argwhere(labels):
            read[index[row:row + s, col:col + s]] = True
        assert np.array_equal(window_pixels(labels, s), read.reshape(5, 8))

    def test_interior_pixel_is_direct_slice(self):
        pair = make_pair(seed=1)
        pair.labels[:] = 0
        pair.labels[4, 5] = 2
        out = extract_patches(pair, s=3)
        assert len(out) == 1
        hsi, lidar = out.cut([0])
        assert np.array_equal(hsi[0], pair.hsi[:, 3:6, 4:7])
        assert np.array_equal(lidar[0], pair.lidar[:, 3:6, 4:7])
        assert out.labels[0] == 2

    def test_corner_mirror_reflection(self):
        pair = make_pair(seed=2)
        pair.labels[:] = 0
        pair.labels[0, 0] = 1
        patch = extract_patches(pair, s=3).cut([0])[0][0]
        # reflection: index -1 maps to row/col 1, and (-1,-1) to (1,1)
        assert np.array_equal(patch[:, 0, 0], pair.hsi[:, 1, 1])
        assert np.array_equal(patch[:, 0, 1], pair.hsi[:, 1, 0])
        assert np.array_equal(patch[:, 1, 0], pair.hsi[:, 0, 1])
        assert np.array_equal(patch[:, 1, 1], pair.hsi[:, 0, 0])

    def test_one_patch_per_labeled_pixel(self):
        pair = make_pair(seed=3)
        pair.labels[:] = 0
        coords = [(0, 0), (1, 5), (2, 2), (3, 7), (5, 1), (6, 6), (7, 8)]
        for row, col in coords:
            pair.labels[row, col] = 1
        out = extract_patches(pair, s=5)
        assert len(out) == 7
        assert np.array_equal(out.pixels, sorted(coords))

    @pytest.mark.parametrize("seed", range(4))
    def test_all_interior_patches_match_slices(self, seed):
        pair = make_pair(seed=seed + 20, height=10, width=10)
        s, half = 5, 2
        out = extract_patches(pair, s=s)
        hsi, _ = out.cut(np.arange(len(out)))
        for i, (row, col) in enumerate(out.pixels):
            if half <= row < 10 - half and half <= col < 10 - half:
                want = pair.hsi[:, row - half : row + half + 1, col - half : col + half + 1]
                assert np.array_equal(hsi[i], want)

    def test_cut_matches_naive_reflect_pad_and_slice(self):
        """Every pixel of a 6×11 scene, for every odd s that
        `check_patch_size` lets through (up to 11, where every window reaches
        past all four borders), in float32 and float64: each patch holds the
        bytes of `np.pad(mode="reflect")` sliced at its pixel, and the
        patches come back in the order asked for."""
        for dtype in (np.float32, np.float64):
            plain = make_pair(seed=5, height=6, width=11)
            pair = RasterPair(plain.hsi.astype(dtype), plain.lidar.astype(dtype),
                              np.ones((6, 11), dtype=np.int64))
            for s in range(1, 2 * 6, 2):
                half = s // 2
                out = extract_patches(pair, s=s)
                order = np.random.default_rng(s).permutation(len(out))
                hsi, lidar = out.cut(order)
                assert hsi.shape == (66, 5, s, s) and lidar.shape == (66, 1, s, s)
                assert hsi.flags.c_contiguous and lidar.flags.c_contiguous
                for raster, got in ((pair.hsi, hsi), (pair.lidar, lidar)):
                    padded = np.pad(raster, ((0, 0), (half, half), (half, half)), mode="reflect")
                    want = np.stack([padded[:, row:row + s, col:col + s]
                                     for row, col in out.pixels[order]])
                    assert got.dtype == dtype and got.tobytes() == want.tobytes()

    # batches around the 16 windows that `cut` gathers at once; rasters with
    # windows inside them, and rasters shorter than s along one axis, where
    # every window crosses an edge
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("s,height,width", [
        (7, 20, 24), (11, 30, 26), (11, 6, 40), (11, 30, 6), (25, 13, 30)])
    @pytest.mark.parametrize("k", [0, 1, 15, 16, 17, 40])
    def test_cut_of_any_batch_is_the_reflect_padded_windows(self, k, s, height, width, dtype):
        """A batch of k windows, the first five at the centre and across the
        top, bottom, left and right edges, the rest drawn at random, in a
        shuffled order: each patch holds the bytes of `np.pad(mode="reflect")`
        sliced at its pixel, and both batches are C-contiguous."""
        plain = make_pair(seed=s + height, height=height, width=width)
        pair = RasterPair(plain.hsi.astype(dtype), plain.lidar.astype(dtype),
                          np.ones((height, width), dtype=np.int64))
        out = extract_patches(pair, s=s)
        r = rng(k)
        mid, centre = height // 2 * width, width // 2
        first = [mid + centre, centre, (height - 1) * width + centre, mid, mid + width - 1]
        idx = r.permutation(np.concatenate([first, r.integers(0, height * width, 40)])[:k])
        half = s // 2
        for raster, got in zip((pair.hsi, pair.lidar), out.cut(idx)):
            padded = np.pad(raster, ((0, 0), (half, half), (half, half)), mode="reflect")
            want = np.array([padded[:, row:row + s, col:col + s] for row, col in out.pixels[idx]],
                            dtype=dtype).reshape(k, raster.shape[0], s, s)
            assert got.flags.c_contiguous and got.shape == want.shape
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    # a 7×9 scene in tiles of 3×4: all four corners, with the last row and
    # column of tiles ragged, and an interior tile
    @pytest.mark.parametrize("row,col,height,width", [
        (0, 0, 3, 4), (0, 8, 3, 1), (6, 0, 1, 4), (6, 8, 1, 1), (3, 4, 3, 4), (0, 0, 7, 9)])
    @pytest.mark.parametrize("s", [1, 5, 13])
    def test_area_is_the_reflect_padded_slice(self, row, col, height, width, s):
        """`area` of a tile is the slice of `np.pad(mode="reflect")` that its
        windows read, for HSI and LiDAR alike."""
        pair = make_pair(seed=9, height=7, width=9)
        out = extract_patches(pair, s=s)
        half = s // 2
        for raster, got in zip((pair.hsi, pair.lidar), out.area(row, col, height, width)):
            padded = np.pad(raster, ((0, 0), (half, half), (half, half)), mode="reflect")
            want = padded[:, row:row + height + s - 1, col:col + width + s - 1]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_set_holds_the_padded_scene_once(self):
        """The set keeps the pair's own unpadded arrays; the padded scene is
        only read, through `area` and `cut`."""
        pair = make_pair(seed=6)
        out = extract_patches(pair, s=5)
        assert out.patch == 5
        assert out.hsi.base is pair.hsi and out.lidar is pair.lidar  # a view of the whole HSI
        want = np.pad(pair.hsi, ((0, 0), (2, 2), (2, 2)), mode="reflect")
        assert np.array_equal(out.area(0, 0, 8, 9)[0], want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("s", range(1, 2 * 6, 2))
    def test_mirror_rim_equals_reflect_padding(self, dtype, s):
        """Reading a 6×11 scene at mirrored indices, as `area` of the whole
        scene does, gives the bytes of `np.pad(mode="reflect")`, for every
        odd s that `check_patch_size` lets through."""
        raster = rng(s).normal(size=(3, 6, 11)).astype(dtype)
        half = s // 2
        out = PatchSet(hsi=raster, lidar=raster[:1], labels=np.array([1]),
                       pixels=np.array([[0, 0]]), patch=s)
        for got, band in zip(out.area(0, 0, 6, 11), (raster, raster[:1])):
            want = np.pad(band, ((0, 0), (half, half), (half, half)), mode="reflect")
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", [1, 3, 5, 7, 9])
    def test_strip_sets_cut_the_scene_windows(self, s):
        """A 13×9 scene in strips of 4 rows, each held with s // 2 rows above
        and below but at the scene's top and bottom: each strip's set, whose
        pixels are its own rows' shifted by its first held row `lo`, cuts the
        windows that the whole scene's set cuts for them, and gives the same
        `area` of its rows, mirrored at the scene's edges only."""
        pair = make_pair(seed=11, height=13, width=9)
        pair.labels[:] = 1
        whole = extract_patches(pair, s=s)
        half = s // 2
        for top in range(0, 13, 4):
            stop = min(top + 4, 13)
            lo, hi = max(top - half, 0), min(stop + half, 13)
            own = np.zeros((hi - lo, 9), dtype=np.int64)
            own[top - lo:stop - lo] = pair.labels[top:stop]
            strip = extract_patches(RasterPair(pair.hsi[:, lo:hi], pair.lidar[:, lo:hi], own), s=s)
            members = np.flatnonzero((whole.pixels[:, 0] >= top) & (whole.pixels[:, 0] < stop))
            assert np.array_equal(strip.pixels + (lo, 0), whole.pixels[members])
            for got, want in zip(strip.cut(np.arange(len(strip))), whole.cut(members)):
                assert got.tobytes() == want.tobytes()
            for got, want in zip(strip.area(top - lo, 0, stop - top, 9),
                                 whole.area(top, 0, stop - top, 9)):
                assert got.tobytes() == want.tobytes()

    def test_streamed_pair_gives_the_in_memory_set(self, tmp_path):
        """A pair that `load_raster` streams from its files gives the set of
        the same scene held in memory: its HSI is read whole."""
        pair = make_pair(seed=7)
        pair.hsi, pair.lidar = pair.hsi.astype(np.float32), pair.lidar.astype(np.float32)
        paths = [tmp_path / n for n in ("h.lsaf", "l.lsaf", "g.lsaf")]
        data.save_raster(pair, *paths)
        streamed = extract_patches(data.load_raster(*paths), s=5)
        want = extract_patches(pair, s=5)
        assert isinstance(streamed.hsi, np.ndarray)
        for field in ("hsi", "lidar", "labels", "pixels"):
            got, expected = getattr(streamed, field), getattr(want, field)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        every = np.arange(len(want))
        for got, expected in zip(streamed.cut(every), want.cut(every)):
            assert got.tobytes() == expected.tobytes()

    def test_even_patch_rejected(self):
        with pytest.raises(ConfigError):
            extract_patches(make_pair(), s=4)

    def test_oversize_patch_rejected(self):
        with pytest.raises(ConfigError):
            extract_patches(make_pair(height=8, width=9), s=17)

    def test_unlabeled_scene_yields_empty_set(self):
        pair = make_pair(seed=4)
        pair.labels[:] = 0
        assert len(extract_patches(pair, s=3)) == 0


# ----------------------------------------------------------------------
# split


class TestSplit:
    def labels(self, per_class=10, k=3):
        return np.repeat(np.arange(1, k + 1), per_class)

    def test_half_split_counts(self):
        train, test = split_indices(self.labels(10, 3), 0.5, seed=0)
        assert train.size == test.size == 15
        lab = self.labels(10, 3)
        for cls in (1, 2, 3):
            assert (lab[train] == cls).sum() == 5
            assert (lab[test] == cls).sum() == 5

    def test_seed_determinism(self):
        a = split_indices(self.labels(), 0.3, seed=42)
        b = split_indices(self.labels(), 0.3, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = split_indices(self.labels(), 0.3, seed=43)
        assert not np.array_equal(a[0], c[0])

    def test_pinned_indices(self):
        """The exact split of three interleaved classes of 9, 8 and 7 pixels:
        counts and determinism alone let a changed per-class shuffle pass."""
        lab = np.array([2, 1, 3, 3, 1, 2, 2, 1, 3, 1, 2, 3, 1, 1, 2, 3, 2, 1, 3, 2, 1, 3, 2, 1])
        train, test = split_indices(lab, 0.2, seed=7)
        assert train.tolist() == [1, 6, 10, 15, 23]
        assert test.tolist() == [0, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 14, 16, 17, 18, 19, 20,
                                 21, 22]

    def test_partition(self):
        lab = self.labels(7, 4)
        train, test = split_indices(lab, 0.4, seed=1)
        union = np.union1d(train, test)
        assert np.array_equal(union, np.arange(lab.size))
        assert np.intersect1d(train, test).size == 0

    def test_small_class_rejected(self):
        lab = np.array([1, 1, 2])
        with pytest.raises(ConfigError, match="class 2"):
            split_indices(lab, 0.5, seed=0)

    def test_no_labelled_pixel_rejected(self):
        with pytest.raises(ConfigError, match="no labelled pixels"):
            split_indices(np.zeros(0, dtype=np.uint16), 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                split_indices(self.labels(), frac, seed=0)

    def test_label_map_split_is_the_pinned_split_of_its_pixels(self):
        """`split` of a label map gives a training and a test map of its
        shape and dtype, disjoint, which together are the map: the labelled
        pixels of `test_pinned_indices`, in row-major order among unlabelled
        ones, land on the sides that `split_indices` pins for them."""
        lab = np.array([2, 1, 3, 3, 1, 2, 2, 1, 3, 1, 2, 3, 1, 1, 2, 3, 2, 1, 3, 2, 1, 3, 2, 1])
        labels = np.zeros((5, 8), dtype=np.uint16)
        at = np.flatnonzero(np.arange(labels.size) % 5 != 2)[:lab.size]
        labels.flat[at] = lab
        train, test = split(labels, 0.2, seed=7)
        for side in (train, test):
            assert side.shape == labels.shape and side.dtype == labels.dtype
        assert not np.logical_and(train, test).any()
        assert np.array_equal(train + test, labels)
        assert np.flatnonzero(train).tolist() == at[[1, 6, 10, 15, 23]].tolist()
        assert np.flatnonzero(test).tolist() == at[[0, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 14,
                                                    16, 17, 18, 19, 20, 21, 22]].tolist()


# ----------------------------------------------------------------------
# synthetic scenes


class TestSynthGenerate:
    def test_seed_reproducibility(self):
        a = synth_generate(5, 16, 16, 10, seed=3)
        b = synth_generate(5, 16, 16, 10, seed=3)
        assert np.array_equal(a.hsi, b.hsi)
        assert np.array_equal(a.lidar, b.lidar)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = synth_generate(5, 16, 16, 10, seed=3)
        b = synth_generate(5, 16, 16, 10, seed=4)
        assert not np.array_equal(a.hsi, b.hsi)

    def test_two_class_zero_noise_has_two_signatures(self):
        pair = synth_generate(2, 12, 12, 8, seed=0, noise=0.0)
        spectra = {tuple(pair.hsi[:, i, j]) for i in range(12) for j in range(12)}
        # elevation noise does not touch hsi; zero spectral noise leaves
        # exactly one spectrum per class
        assert len(spectra) == 2

    def test_every_pixel_labeled_and_all_classes_present(self):
        pair = synth_generate(15, 48, 48, 20, seed=1)
        assert pair.labels.min() == 1
        assert set(np.unique(pair.labels)) == set(range(1, 16))

    def test_fusion_margin_by_nearest_centroid(self):
        """HSI alone cannot separate the shared-spectrum pair; adding the
        elevation channel must raise nearest-centroid accuracy."""
        pair = synth_generate(6, 48, 48, 12, seed=2)
        flat_h = pair.hsi.reshape(pair.hsi.shape[0], -1).T
        elev = pair.lidar.reshape(1, -1).T
        y = pair.labels.reshape(-1)

        def centroid_acc(feats):
            cents = np.stack([feats[y == c].mean(axis=0) for c in range(1, 7)])
            d = ((feats[:, None, :] - cents[None]) ** 2).sum(axis=-1)
            return (d.argmin(axis=1) + 1 == y).mean()

        acc_h = centroid_acc(flat_h)
        acc_joint = centroid_acc(np.hstack([flat_h, elev]))
        assert acc_h < 0.999
        assert acc_joint > acc_h + 0.05

    def test_lidar_blind_pair_shares_elevation(self):
        pair = synth_generate(6, 32, 32, 10, seed=8)
        m1 = pair.lidar[0][pair.labels == 1].mean()
        m2 = pair.lidar[0][pair.labels == 2].mean()
        m3 = pair.lidar[0][pair.labels == 3].mean()
        assert abs(m1 - m2) < 0.05
        assert abs(m1 - m3) > 0.5

    def test_hsi_blind_pair_shares_spectrum(self):
        pair = synth_generate(6, 32, 32, 10, seed=8)
        s3 = pair.hsi[:, pair.labels == 3].mean(axis=1)
        s4 = pair.hsi[:, pair.labels == 4].mean(axis=1)
        s5 = pair.hsi[:, pair.labels == 5].mean(axis=1)
        assert np.abs(s3 - s4).max() < 0.05
        assert np.abs(s3 - s5).max() > 0.05

    def test_too_few_classes_rejected(self):
        with pytest.raises(ConfigError):
            synth_generate(1, 16, 16, 8, seed=0)


# ----------------------------------------------------------------------
# container validation


def test_raster_pair_checks_grid():
    with pytest.raises(RegistrationError):
        RasterPair(
            hsi=np.zeros((3, 4, 4)),
            lidar=np.zeros((1, 5, 4)),
            labels=np.zeros((4, 4), dtype=int),
        )


def test_patchset_rejects_zero_labels():
    with pytest.raises(ShapeError):
        PatchSet(
            hsi=np.zeros((3, 5, 5)),
            lidar=np.zeros((1, 5, 5)),
            labels=np.array([1, 0]),
            pixels=np.zeros((2, 2), dtype=int),
            patch=3,
        )


@pytest.mark.parametrize("pixels", [[[0, 0], [3, 0]], [[0, -1], [1, 1]]])
def test_patchset_rejects_centres_off_the_scene(pixels):
    with pytest.raises(ShapeError, match="3x3 scene"):
        PatchSet(
            hsi=np.zeros((3, 3, 3)),
            lidar=np.zeros((1, 3, 3)),
            labels=np.array([1, 2]),
            pixels=np.array(pixels),
            patch=3,
        )


@pytest.mark.parametrize("lidar", [np.zeros((1, 5, 4)), np.zeros((1, 4, 5))])
def test_patchset_rejects_a_lidar_on_another_grid(lidar):
    """Each raster would mirror about its own edges and cut misaligned
    patches, so a LiDAR grid unlike the HSI's is refused."""
    with pytest.raises(ShapeError, match="lidar grid"):
        PatchSet(hsi=np.zeros((3, 5, 5)), lidar=lidar, labels=np.array([1]),
                 pixels=np.zeros((1, 2), dtype=int), patch=3)


def test_patchset_checks_the_patch_size():
    """A window that overhangs the scene by more than n - 1 would mirror to
    negative indices, so `PatchSet` itself checks the patch size."""
    with pytest.raises(ConfigError, match="exceeds twice"):
        PatchSet(hsi=np.zeros((3, 2, 5)), lidar=np.zeros((1, 2, 5)), labels=np.array([1]),
                 pixels=np.zeros((1, 2), dtype=int), patch=5)
