"""Scene loading, PCA spectral reduction, min-max scaling, patch sets,
the train/test split of a label map, and synthetic scene generation.

Everything here is a pure function over numpy arrays; autodiff tensors only
appear once patches reach the model, cut from the mirrored scene per batch.
Pixel order is row-major throughout, so parallel implementations of any step
must preserve that ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import storage
from .errors import ConfigError, RegistrationError, ShapeError


# ----------------------------------------------------------------------
# scene container


@dataclass
class RasterPair:
    """One co-registered scene: spectral cube, elevation raster, label map.

    `hsi` is (bands, H, W) reflectance, an array or a `storage.RasterRows`
    reader of its file, `lidar` is (1, H, W) elevation in meters, `labels`
    is (H, W) with 0 marking unlabeled pixels and 1..K the classes.
    """

    hsi: np.ndarray | storage.RasterRows
    lidar: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.hsi.shape) != 3:
            raise ShapeError(f"hsi must be (bands, H, W), got {self.hsi.shape}")
        if self.lidar.ndim != 3 or self.lidar.shape[0] != 1:
            raise ShapeError(f"lidar must be (1, H, W), got {self.lidar.shape}")
        if self.labels.ndim != 2:
            raise ShapeError(f"labels must be (H, W), got {self.labels.shape}")
        grid = self.hsi.shape[1:]
        if self.lidar.shape[1:] != grid or self.labels.shape != grid:
            raise RegistrationError(
                "rasters disagree on the pixel grid: "
                f"hsi {self.hsi.shape[1:]}, lidar {self.lidar.shape[1:]}, "
                f"labels {self.labels.shape}"
            )
        if self.labels.min() < 0:
            raise ShapeError("labels must be non-negative (0 = unlabeled)")

    @property
    def height(self) -> int:
        return self.hsi.shape[1]

    @property
    def width(self) -> int:
        return self.hsi.shape[2]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max())


def load_raster(hsi_path, lidar_path, labels_path) -> RasterPair:
    """Load the three scene files and validate their co-registration. The
    HSI cube stays in its file: `hsi` is a `storage.RasterRows` reader, which
    `pca_transform` reads a block of rows at a time, and `hsi[:, :]` reads it
    whole. The label map stays 16-bit, as its file stores it."""
    hsi = storage.RasterRows(hsi_path)
    lidar = storage.read_raster(lidar_path)
    labels = storage.read_labels(labels_path)
    return RasterPair(hsi=hsi, lidar=lidar, labels=labels)


def save_raster(pair: RasterPair, hsi_path, lidar_path, labels_path) -> None:
    # The label map first, so that a label past 16 bits is rejected before
    # any file is written; `RasterPair` has checked the rasters' shapes.
    storage.write_labels(labels_path, pair.labels)
    storage.write_raster(hsi_path, pair.hsi)
    storage.write_raster(lidar_path, pair.lidar)


# ----------------------------------------------------------------------
# PCA

# Pixels per chunk of rows that `pca_transform` projects at once (one row
# at least): 4.5 MiB of float64 for 144 bands, whatever the scene width.
CHUNK_PIXELS = 1 << 12

# Bytes of float32 rows that `pca_transform` reads from a cube at once: a
# whole number of chunks, one at least. A row reader pays a file read per
# band per block, so larger blocks cost fewer calls.
_READ_BYTES = 16 << 20


@dataclass
class PcaModel:
    """Orthogonal spectral projection fitted on scene pixels.

    `components` columns are orthonormal eigenvectors of the band covariance
    matrix, ordered by non-increasing `explained_variance`.
    """

    mean: np.ndarray  # (bands,)
    components: np.ndarray  # (bands, r)
    explained_variance: np.ndarray  # (r,)

    @property
    def bands(self) -> int:
        return self.components.shape[0]

    @property
    def dims(self) -> int:
        return self.components.shape[1]


def pca_fit(hsi: np.ndarray, r: int, labels: np.ndarray | None = None) -> PcaModel:
    """Fit PCA on scene pixels; restrict to labeled pixels when `labels` given.

    The sign of each component is fixed by making its largest-magnitude
    entry positive, so fits are deterministic across runs and platforms.
    """
    bands = hsi.shape[0]
    if not 1 <= r <= bands:
        raise ConfigError(f"pca dimensions must lie in 1..{bands}, got {r}")
    pixels = hsi.reshape(bands, -1).T
    if labels is not None:
        mask = np.asarray(labels).reshape(-1) != 0
        if not mask.any():
            raise ConfigError("pca fit restricted to labeled pixels, but none are labeled")
        pixels = pixels[mask]
    if pixels.shape[0] < 2:
        raise ConfigError("pca fit needs at least 2 pixels")

    # the one float64 copy of the fitted pixels, centred in place
    pixels = pixels.astype(np.float64)
    mean = pixels.mean(axis=0)
    pixels -= mean
    cov = pixels.T @ pixels / (pixels.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:r]
    components = eigenvectors[:, order]
    variance = np.maximum(eigenvalues[order], 0.0)

    anchor = np.abs(components).argmax(axis=0)
    signs = np.sign(components[anchor, np.arange(r)])
    signs[signs == 0] = 1.0
    components = components * signs

    return PcaModel(mean=mean, components=np.ascontiguousarray(components),
                    explained_variance=variance)


def pca_transform(model: PcaModel, hsi: np.ndarray, scale=None,
                  needed: np.ndarray | None = None) -> np.ndarray:
    """Project a (bands, H, W) cube to (r, H, W): float64 by default, or,
    given `scale=(lo, span)`, rescaled by those per-band constants (see
    `rescale`) and cast to float32. Given an (H, W) bool mask `needed`, only
    those pixels are projected, and every other pixel holds exactly 0.0.

    The cube is read in blocks of rows of about `_READ_BYTES` of float32,
    and each block is projected in chunks of about `CHUNK_PIXELS` pixels,
    each written straight into the output, so no float64 copy of the whole
    cube exists. `hsi` is read only through its `shape` and `hsi[:, top:stop]`,
    so a `storage.RasterRows` reader streams the cube from its file, and
    checks every row of it, needed or not. Each pixel's row of the projection
    GEMM depends on that pixel alone, and a chunk of one pixel runs as two
    rows, so the bytes equal a whole-cube projection's whatever the block
    and chunk sizes, the row source or the mask (`tests/test_data.py` pins
    this).
    """
    if hsi.shape[0] != model.bands:
        raise ShapeError(
            f"pca model fitted on {model.bands} bands, input has {hsi.shape[0]}"
        )
    height, width = hsi.shape[1:]
    if needed is not None:
        needed = np.asarray(needed)
        if needed.dtype != bool or needed.shape != (height, width):
            raise ShapeError(f"needed must be a ({height}, {width}) bool mask, "
                             f"got {needed.shape} {needed.dtype}")
    out = (np.empty if needed is None else np.zeros)(
        (model.dims, height, width), dtype=np.float64 if scale is None else np.float32)
    step = max(1, CHUNK_PIXELS // max(width, 1))
    rows = step * max(1, _READ_BYTES // (4 * model.bands * max(width, 1) * step))
    for top in range(0, height, rows):
        block = hsi[:, top:top + rows]
        for start in range(0, block.shape[1], step):
            at = slice(top + start, top + start + step)
            keep = slice(None)  # a chunk of needed pixels only is projected whole
            if needed is not None and not needed[at].all():
                keep = needed[at]
                if not keep.any():
                    continue
            chunk = _project(model, block[:, start:start + step][:, keep])
            out[:, at][:, keep] = (
                chunk if scale is None else rescale(chunk, *scale, in_place=True))
    return out


def _project(model: PcaModel, hsi: np.ndarray) -> np.ndarray:
    """The float64 (r, ...) projection of a (bands, ...) block of pixels."""
    pixels = hsi.reshape(model.bands, -1).T.astype(np.float64)
    pixels -= model.mean
    # the BLAS gives a product of one row other bytes than a larger product
    # gives that row, so a lone pixel is projected as two rows, the first kept
    n = pixels.shape[0]
    if n == 1:
        pixels = np.repeat(pixels, 2, axis=0)
    return (pixels @ model.components)[:n].T.reshape((model.dims,) + hsi.shape[1:])


# ----------------------------------------------------------------------
# min-max scaling and patches


def fit_minmax(raster: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-band (lo, span) of a (bands, ...) raster, in float64."""
    flat = raster.reshape(raster.shape[0], -1).astype(np.float64, copy=False)
    lo = flat.min(axis=1)
    return lo, flat.max(axis=1) - lo


def rescale(raster: np.ndarray, lo: np.ndarray, span: np.ndarray,
            in_place: bool = False) -> np.ndarray:
    """Map each band of a (bands, ...) raster from [lo, lo + span] to [0, 1]
    in float64; a band of zero span maps to zero. With `in_place`, a float64
    `raster` is overwritten and returned; otherwise a float64 copy is."""
    out = raster if in_place else raster.astype(np.float64)
    live = span > 0
    per_band = (-1,) + (1,) * (out.ndim - 1)
    out -= lo.reshape(per_band)
    out /= np.where(live, span, 1.0).reshape(per_band)
    out[~live] = 0.0
    return out


@dataclass
class PatchSet:
    """Labelled pixels of one set of rasters, in row-major pixel order.

    `hsi` and `lidar` hold a scene, or a strip of its rows that `cli._strips`
    cuts, and `pixels` and the arguments of `cut` and `area` are in their
    own (row, col) coordinates. The s×s patch centred on pixel (row, col)
    reads the rasters mirrored about their edge rows and columns, which are
    not repeated: the bytes of `np.pad(mode="reflect")` by s // 2, sliced at
    (row, col). So a strip gives the scene's windows only if it holds every
    row they read short of the scene's own top and bottom. `cut` and `area`
    copy out the windows a batch or a tile needs.
    """

    hsi: np.ndarray  # (r, H, W)
    lidar: np.ndarray  # (1, H, W)
    labels: np.ndarray  # (n,) values in 1..K
    pixels: np.ndarray  # (n, 2) (row, col) of each patch centre
    patch: int  # s

    def __post_init__(self):
        n = self.labels.shape[0]
        if self.pixels.shape != (n, 2):
            raise ShapeError("patch arrays disagree on sample count")
        grid = self.hsi.shape[1:]
        if self.lidar.shape[1:] != grid:
            raise ShapeError(f"lidar grid {self.lidar.shape[1:]} differs from hsi's {grid}")
        # an overhang past n - 1 rows would mirror to negative indices
        check_patch_size(self.patch, *grid)
        if n:
            if self.pixels.min() < 0 or np.any(self.pixels.max(axis=0) >= grid):
                raise ShapeError(f"patch centres must lie on the {grid[0]}x{grid[1]} scene")
            if self.labels.min() < 1:
                raise ShapeError("patch labels must be in 1..K; unlabeled pixels are not samples")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def cut(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """C-contiguous (k, r, s, s) HSI and (k, 1, s, s) LiDAR patches of the
        k samples `idx` selects, in its order, each window gathered at its
        mirrored rows and columns as `area` gathers a tile."""
        rows, cols = self.pixels[idx].T
        rows, cols = self._mirrored(rows, 1, 1), self._mirrored(cols, 1, 2)
        batches = tuple(np.empty((len(rows), raster.shape[0], self.patch, self.patch),
                                 dtype=raster.dtype) for raster in (self.hsi, self.lidar))
        # 16 windows per gather keep its (r, 16, s, s) output in cache until
        # it is copied into the batch; one gather of the whole batch does not
        for start in range(0, len(rows), 16):
            at = slice(start, start + 16)
            for raster, batch in zip((self.hsi, self.lidar), batches):
                batch[at] = raster[:, rows[at, :, None], cols[at, None]].swapaxes(0, 1)
        return batches

    def area(self, row: int, col: int, height: int, width: int):
        """The (r, height + s - 1, width + s - 1) HSI and (1, ...) LiDAR
        blocks that the windows centred on the height×width tile at pixel
        (row, col) read, the window of pixel (row + i, col + j) at
        offset (i, j)."""
        rows, cols = self._mirrored(row, height, 1), self._mirrored(col, width, 2)
        return tuple(raster[:, rows[:, None], cols] for raster in (self.hsi, self.lidar))

    def _mirrored(self, start, size: int, axis: int) -> np.ndarray:
        """The indices along `axis` of the size + s - 1 mirrored rows or
        columns from start - s // 2, per `start` (an int or an array): |i|,
        then 2·last - i past `last`, the last row or column."""
        last = self.hsi.shape[axis] - 1
        at = np.add.outer(start, np.arange(size + self.patch - 1)) - self.patch // 2
        return last - np.abs(last - np.abs(at))


def extract_patches(pair: RasterPair, s: int) -> PatchSet:
    """The labelled pixels of a scene, or of a strip of its rows, as a
    PatchSet of s×s patches, mirrored at the pair's borders.

    HSI and LiDAR patches come from identical coordinates; sample order is
    row-major over the label map, and pixels are in the pair's coordinates.
    The set keeps the pair's arrays, and reads the HSI of a pair that
    `load_raster` streams whole.
    """
    coords = np.argwhere(pair.labels != 0)
    labels = pair.labels[coords[:, 0], coords[:, 1]].astype(np.int64)
    return PatchSet(hsi=pair.hsi[:, :], lidar=pair.lidar, labels=labels, pixels=coords, patch=s)


def window_pixels(labels: np.ndarray, s: int) -> np.ndarray:
    """The (H, W) bool mask of the pixels that the s×s windows of a label
    map's labelled pixels read: `labels != 0` grown by s // 2 in each
    direction, clipped to the scene. `check_patch_size` keeps s // 2 below
    each scene side, so a window's mirrored rows and columns lie inside its
    clipped window, and the mask covers them too."""
    half = s // 2
    mask = labels != 0
    for _ in range(2):  # rows, then columns of the transpose
        grown = mask.copy()
        for shift in range(1, half + 1):
            grown[shift:] |= mask[:-shift]
            grown[:-shift] |= mask[shift:]
        mask = grown.T
    return np.ascontiguousarray(mask)


def check_patch_size(s: int, height: int, width: int) -> None:
    if s % 2 == 0 or s < 1:
        raise ConfigError(f"patch size must be odd and positive, got {s}")
    if s > 2 * min(height, width):
        raise ConfigError(
            f"patch size {s} exceeds twice the smaller scene side ({min(height, width)})"
        )


# ----------------------------------------------------------------------
# train/test split


def split_indices(labels: np.ndarray, fraction: float, seed: int):
    """Stratified index split: per class, a seeded shuffle then a
    `fraction` cut (at least one sample lands on each side)."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"split fraction must lie in (0, 1), got {fraction}")
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ConfigError("no labelled pixels to split")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < 2:
            raise ConfigError(
                f"class {int(cls)} has {idx.size} sample(s); stratified split needs >= 2"
            )
        shuffled = idx[rng.permutation(idx.size)]
        n_train = int(round(fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1)
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


def split(labels: np.ndarray, fraction: float, seed: int):
    """Split the labelled pixels of an (H, W) label map into stratified
    (train, test) label maps of its shape, 0 off their side: `split_indices`
    of the labels in row-major pixel order."""
    pixels = np.flatnonzero(labels)
    values = np.ravel(labels)[pixels]
    maps = np.zeros_like(labels), np.zeros_like(labels)
    for side, idx in zip(maps, split_indices(values, fraction, seed)):
        side.flat[pixels[idx]] = values[idx]
    return maps


# ----------------------------------------------------------------------
# synthetic scenes


def synth_generate(
    num_classes: int,
    height: int,
    width: int,
    bands: int,
    seed: int,
    noise: float = 0.02,
) -> RasterPair:
    """Generate a Voronoi-region scene where fusion demonstrably matters.

    Each class owns a few Voronoi cells, a Gaussian-bump spectral signature,
    and a mean elevation. Two class pairs are deliberately degenerate:
    classes 1 and 2 share their elevation (HSI separates them), and classes
    3 and 4 share their spectral signature (LiDAR separates them, needs
    K >= 4). Every pixel is labeled.
    """
    if not 2 <= num_classes <= np.iinfo(np.uint16).max:
        raise ConfigError(f"synthetic scenes need 2..{np.iinfo(np.uint16).max} classes, "
                          f"the 16-bit label range; got {num_classes}")
    if bands < 2 or height < 4 or width < 4:
        raise ConfigError(f"scene too small: bands={bands}, H={height}, W={width}")
    rng = np.random.default_rng(seed)

    # Jittered-grid Voronoi sites, classes dealt round-robin after a shuffle
    # so every class holds the same number of cells.
    sites_per_class = 3
    n_sites = num_classes * sites_per_class
    grid_cols = int(np.ceil(np.sqrt(n_sites * width / height)))
    grid_rows = int(np.ceil(n_sites / grid_cols))
    cell_h, cell_w = height / grid_rows, width / grid_cols
    cells = [(i, j) for i in range(grid_rows) for j in range(grid_cols)][:n_sites]
    site_rc = np.array(
        [
            (
                (i + 0.5) * cell_h + rng.uniform(-0.3, 0.3) * cell_h,
                (j + 0.5) * cell_w + rng.uniform(-0.3, 0.3) * cell_w,
            )
            for i, j in cells
        ]
    )
    site_class = np.tile(np.arange(num_classes), sites_per_class)[:n_sites]
    site_class = site_class[rng.permutation(n_sites)]

    rows, cols = np.mgrid[0:height, 0:width]
    d2 = (rows[..., None] - site_rc[:, 0]) ** 2 + (cols[..., None] - site_rc[:, 1]) ** 2
    labels = site_class[d2.argmin(axis=-1)] + 1  # classes are 1..K

    # Spectral signatures: one Gaussian bump per class, distinct centers.
    centers = bands * (np.arange(num_classes) + 1.0) / (num_classes + 1.0)
    widths = np.maximum(bands / (num_classes + 2.0), 1.5)
    amps = 0.5 + 0.5 * rng.random(num_classes)
    base = 0.1 + 0.05 * rng.random(num_classes)
    band_axis = np.arange(bands)
    signatures = base[:, None] + amps[:, None] * np.exp(
        -((band_axis[None, :] - centers[:, None]) ** 2) / (2.0 * widths ** 2)
    )

    # Elevations: well separated class means.
    elevations = 2.0 + 1.5 * np.arange(num_classes) + rng.uniform(-0.2, 0.2, num_classes)

    # Degenerate pairs: 1&2 share elevation, 3&4 share spectra.
    elevations[1] = elevations[0]
    if num_classes >= 4:
        signatures[3] = signatures[2]

    cls_idx = labels - 1
    hsi = signatures[cls_idx].transpose(2, 0, 1) + rng.normal(0.0, noise, (bands, height, width))
    lidar = elevations[cls_idx][None] + rng.normal(0.0, 0.05, (1, height, width))

    return RasterPair(
        hsi=hsi.astype(np.float32),
        lidar=lidar.astype(np.float32),
        labels=labels.astype(np.int64),
    )
