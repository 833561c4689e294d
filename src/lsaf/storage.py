"""Binary file formats: rasters, label maps, weight checkpoints, PPM images.

All integers are little-endian. Layouts are small and self-describing so
files can be produced or consumed from any language; `docs/formats.md` has
the byte-level reference and a converter recipe for common geo formats.
"""

from __future__ import annotations

import copy
import math
import os
import struct
import sys

import numpy as np

from .errors import ContractError, FormatError

RASTER_MAGIC = b"LSAF"
CHECKPOINT_MAGIC = b"LSFW"
FORMAT_VERSION = 1

# dtype tags shared by rasters and checkpoints
_TAG_F32 = 1
_TAG_U16 = 2
_TAG_F64 = 3

_TAG_TO_DTYPE = {
    _TAG_F32: np.dtype("<f4"),
    _TAG_U16: np.dtype("<u2"),
    _TAG_F64: np.dtype("<f8"),
}
_DTYPE_TO_TAG = {v: k for k, v in _TAG_TO_DTYPE.items()}

_RASTER_HEADER = struct.Struct("<4sIIIIB")  # magic, version, bands, H, W, dtype


def _tag_for(arr: np.ndarray, path: str) -> int:
    key = arr.dtype.newbyteorder("<")
    if key not in _DTYPE_TO_TAG:
        raise FormatError(f"{path}: unsupported dtype {arr.dtype} for this container")
    return _DTYPE_TO_TAG[key]


# ----------------------------------------------------------------------
# rasters


def write_raster(path: str | os.PathLike, cube: np.ndarray) -> None:
    """Write a `(bands, H, W)` float32 cube, band-sequential."""
    cube = np.asarray(cube)
    if cube.ndim != 3:
        raise FormatError(f"{path}: raster cube must be (bands, H, W), got {cube.shape}")
    _write_container(path, cube, _TAG_F32)


def write_labels(path: str | os.PathLike, labels: np.ndarray) -> None:
    """Write an `(H, W)` label map as 16-bit unsigned, 0 = unlabeled."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise FormatError(f"{path}: label map must be (H, W), got {labels.shape}")
    _write_container(path, labels[None], _TAG_U16)


def _write_container(path: str | os.PathLike, array: np.ndarray, tag: int) -> None:
    """Write a `(bands, H, W)` array as a raster of `tag`'s dtype from the
    array itself, refusing what `probe_raster` refuses and labels past 16 bits."""
    if min(array.shape) < 1:
        raise FormatError(f"{path}: degenerate dimensions {array.shape}")
    if tag == _TAG_U16 and (array.min() < 0 or array.max() > np.iinfo(np.uint16).max):
        raise FormatError(f"{path}: label values outside the 16-bit unsigned range")
    payload = np.ascontiguousarray(array, dtype=_TAG_TO_DTYPE[tag])
    with open(path, "wb") as f:
        f.write(_RASTER_HEADER.pack(RASTER_MAGIC, FORMAT_VERSION, *array.shape, tag))
        f.write(payload)


def probe_raster(path: str | os.PathLike) -> dict:
    """Read and validate a raster header without touching the payload.

    Returns {'version', 'bands', 'height', 'width', 'dtype'} after checking
    that the file length matches what the header declares.
    """
    file_size = os.stat(path).st_size
    if file_size < _RASTER_HEADER.size:
        raise FormatError(f"{path}: truncated header ({file_size} bytes)")
    with open(path, "rb") as f:
        raw = f.read(_RASTER_HEADER.size)
    magic, version, bands, height, width, tag = _RASTER_HEADER.unpack(raw)
    if magic != RASTER_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {RASTER_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if tag not in _TAG_TO_DTYPE:
        raise FormatError(f"{path}: unknown dtype tag {tag}")
    dtype = _TAG_TO_DTYPE[tag]
    if bands < 1 or height < 1 or width < 1:
        raise FormatError(f"{path}: degenerate dimensions {(bands, height, width)}")
    expected = _RASTER_HEADER.size + bands * height * width * dtype.itemsize
    if file_size != expected:
        raise FormatError(
            f"{path}: header declares {expected} bytes but file has {file_size}"
        )
    return {
        "version": version,
        "bands": bands,
        "height": height,
        "width": width,
        "dtype": dtype,
    }


class RasterRows:
    """A float32 raster file read one block of rows at a time.

    `rows[:, top:stop]` reads rows `top:stop` of every band into a new
    `(bands, stop - top, W)` float32 array, the one slicing
    `data.pca_transform` does, and `rows[:, :]` reads the whole cube;
    `rows.rows(top, stop)` is a reader of those rows alone. The header is
    checked once, here. Each block must be finite, and no block is kept, so
    the reader holds none of the payload between reads.
    """

    def __init__(self, path: str | os.PathLike):
        info = probe_raster(path)
        if info["dtype"] != np.dtype("<f4"):
            raise FormatError(f"{path}: expected a float32 raster, found {info['dtype']}")
        self.path = path
        self.shape = (info["bands"], info["height"], info["width"])
        self._info = info
        self._first = 0  # the file row of this reader's row 0

    def rows(self, top: int, stop: int) -> "RasterRows":
        """A reader of this one's rows `top:stop`, which reads them from the
        file as this one does."""
        top, stop, _ = slice(top, stop).indices(self.shape[1])
        view = copy.copy(self)
        view._first = self._first + top
        view.shape = (self.shape[0], max(top, stop) - top, self.shape[2])
        return view

    def __getitem__(self, key) -> np.ndarray:
        if (not isinstance(key, tuple) or len(key) != 2 or key[0] != slice(None)
                or not isinstance(key[1], slice) or key[1].step not in (None, 1)):
            raise ContractError(f"a raster reads blocks of rows as [:, top:stop], not {key!r}")
        top, stop, _ = key[1].indices(self.shape[1])
        block = _read_rows(self.path, self._info, self._first + top, self._first + max(top, stop))
        # min and max propagate NaN and reach any ±Inf, so a block is finite
        # exactly when both are, and unlike np.isfinite they need no block-sized mask.
        if block.size and not (np.isfinite(block.min()) and np.isfinite(block.max())):
            bad = np.count_nonzero(~np.isfinite(block))
            raise FormatError(f"{self.path}: raster holds {bad} non-finite value(s) (NaN or Inf)")
        return block


def read_raster(path: str | os.PathLike) -> np.ndarray:
    """Read a float32 raster back as a `(bands, H, W)` array; every value
    must be finite. It is the whole-range read of `RasterRows`."""
    return RasterRows(path)[:, :]


def read_labels(path: str | os.PathLike) -> np.ndarray:
    """Read a label map back as an `(H, W)` uint16 array."""
    info = probe_raster(path)
    if info["dtype"] != np.dtype("<u2"):
        raise FormatError(f"{path}: expected a uint16 label map, found {info['dtype']}")
    if info["bands"] != 1:
        raise FormatError(f"{path}: label map must be single-band, found {info['bands']}")
    return _read_rows(path, info, 0, info["height"])[0]


def _read_rows(path: str | os.PathLike, info: dict, top: int, stop: int) -> np.ndarray:
    """Rows `top:stop` of every band of a probed raster, as one writable
    `(bands, stop - top, W)` array. The payload is band-sequential, so each
    band's rows are one `readinto` at a computed offset, straight into the
    array: the file's bytes are never held a second time."""
    bands, height, width, dtype = info["bands"], info["height"], info["width"], info["dtype"]
    out = np.empty((bands, stop - top, width), dtype=dtype)
    with open(path, "rb", buffering=0) as f:
        for band, rows in enumerate(out):
            f.seek(_RASTER_HEADER.size + (band * height + top) * width * dtype.itemsize)
            view = rows.reshape(-1).view(np.uint8)
            filled = 0
            while filled < view.size:
                got = f.readinto(view[filled:])
                if not got:  # the file shrank since it was probed
                    count = bands * height * width
                    held = max(0, os.fstat(f.fileno()).st_size - _RASTER_HEADER.size)
                    raise FormatError(f"{path}: payload ends after "
                                      f"{min(held // dtype.itemsize, count)} of {count} values")
                filled += got
    return out


# ----------------------------------------------------------------------
# checkpoints (named tensor table)


def write_checkpoint(path: str | os.PathLike, tensors: dict[str, np.ndarray]) -> None:
    """Write named float arrays: magic, version, count, then per entry the
    name, shape, dtype tag, and row-major payload.

    The entries go to `<path>.tmp` first, which replaces `path` only once
    complete, so a write that fails or is killed leaves any previous
    checkpoint at `path` whole."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", FORMAT_VERSION, len(tensors)))
            for name, arr in tensors.items():
                arr = np.asarray(arr)
                tag = _tag_for(arr, str(path))
                encoded = name.encode("utf-8")
                if len(encoded) > 0xFFFF:
                    raise FormatError(f"{path}: tensor name too long ({len(encoded)} bytes)")
                f.write(struct.pack("<H", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<B", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
                f.write(struct.pack("<B", tag))
                f.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a checkpoint back as an ordered name → array mapping."""
    with open(path, "rb") as f:
        blob = f.read()

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(f"{path}: truncated while reading {what}")
        chunk = blob[offset : offset + n]
        offset += n
        return chunk

    offset = 0
    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {CHECKPOINT_MAGIC!r}")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name is not valid UTF-8")
        if name in out:
            raise FormatError(f"{path}: tensor '{name}' appears twice")
        (ndim,) = struct.unpack("<B", take(1, "rank"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape")) if ndim else ()
        (tag,) = struct.unpack("<B", take(1, "dtype tag"))
        if tag not in _TAG_TO_DTYPE:
            raise FormatError(f"{path}: unknown dtype tag {tag} for tensor '{name}'")
        dtype = _TAG_TO_DTYPE[tag]
        # Sized with Python ints, so a hostile shape cannot wrap round to a
        # small byte count. numpy also refuses a shape whose nonzero extents
        # overflow its index type, even when a zero extent leaves no payload.
        if math.prod(n for n in shape if n) * dtype.itemsize > sys.maxsize:
            raise FormatError(f"{path}: tensor '{name}' declares impossible shape {shape}")
        payload = take(math.prod(shape) * dtype.itemsize, f"payload of '{name}'")
        out[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after tensor table")
    return out


def checkpoint_count(state: dict, key: str) -> int:
    """A checkpoint entry that stores a count or a code: a non-negative
    integer scalar, written as a float."""
    value = np.asarray(state[key])
    if value.shape != () or not np.isfinite(value) or value < 0 or value != int(value):
        raise FormatError(f"checkpoint {key} must be a non-negative integer scalar, "
                          f"got {value.tolist()!r}")
    return int(value)


# ----------------------------------------------------------------------
# images


def write_ppm(path: str | os.PathLike, rgb: np.ndarray) -> None:
    """Write an `(H, W, 3)` uint8 image as binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise FormatError(f"{path}: PPM writer needs (H, W, 3) uint8, got {rgb.shape} {rgb.dtype}")
    height, width = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(rgb))


def read_ppm(path: str | os.PathLike) -> np.ndarray:
    """Read a binary PPM (P6) written by `write_ppm`."""
    with open(path, "rb") as f:
        blob = f.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6":
        raise FormatError(f"{path}: not a P6 PPM")
    try:
        width, height = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError:
        raise FormatError(f"{path}: malformed PPM header")
    if width < 0 or height < 0:
        raise FormatError(f"{path}: negative PPM dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: unsupported PPM max value {maxval}")
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    if pixels.size != width * height * 3:
        raise FormatError(f"{path}: PPM payload size mismatch")
    return pixels.reshape(height, width, 3).copy()
