"""Round-trip and validation tests for the binary containers."""

import struct
import tracemalloc

import numpy as np
import pytest

from lsaf import storage
from lsaf.errors import ContractError, FormatError


def test_raster_round_trip_is_byte_exact(tmp_path):
    cube = np.random.default_rng(0).normal(size=(3, 4, 5)).astype(np.float32)
    p1, p2 = tmp_path / "a.lsaf", tmp_path / "b.lsaf"
    storage.write_raster(p1, cube)
    back = storage.read_raster(p1)
    assert np.array_equal(back, cube)
    storage.write_raster(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_raster_loads_as_zeros(tmp_path):
    path = tmp_path / "z.lsaf"
    storage.write_raster(path, np.zeros((3, 2, 2), dtype=np.float32))
    assert not storage.read_raster(path).any()


@pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
def test_nonfinite_raster_rejected_naming_the_file(tmp_path, values):
    cube = np.full((2, 3, 3), np.finfo(np.float32).max, dtype=np.float32)
    cube.reshape(-1)[:len(values)] = values
    path = tmp_path / "bad.lsaf"
    storage.write_raster(path, cube)
    with pytest.raises(FormatError, match=f"bad.lsaf: raster holds {len(values)} non-finite"):
        storage.read_raster(path)


def test_largest_finite_values_load(tmp_path):
    """The float32 extremes and their neighbours are finite, so the finite
    check raises no false alarm on them, and a whole-cube read holds the
    payload once: the check adds no mask (a bool one is a quarter of it)."""
    big = np.finfo(np.float32).max
    cube = np.full((4, 64, 64), big, dtype=np.float32)
    cube[1] = -big
    cube[2] = np.nextafter(big, np.float32(0))
    path = tmp_path / "big.lsaf"
    storage.write_raster(path, cube)
    tracemalloc.start()
    try:
        back = storage.read_raster(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, cube)
    assert peak <= 1.1 * cube.nbytes


def test_labels_round_trip(tmp_path):
    labels = np.random.default_rng(1).integers(0, 16, size=(7, 9)).astype(np.uint16)
    path = tmp_path / "gt.lsaf"
    storage.write_labels(path, labels)
    assert np.array_equal(storage.read_labels(path), labels)


@pytest.mark.parametrize("kind", ["raster", "labels"])
def test_payload_is_held_once(tmp_path, kind):
    """Reading peaks at no more than 1.1 times the payload: the bytes go
    straight into the returned array, with no second copy."""
    path = tmp_path / "p.lsaf"
    if kind == "raster":
        storage.write_raster(path, np.ones((16, 128, 128), dtype=np.float32))
        read = storage.read_raster
    else:
        storage.write_labels(path, np.ones((512, 1024), dtype=np.uint16))
        read = storage.read_labels
    payload = path.stat().st_size - storage._RASTER_HEADER.size
    tracemalloc.start()
    try:
        data = read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.nbytes == payload and data.flags.writeable
    assert peak <= 1.1 * payload


@pytest.mark.parametrize("write,shape", [
    (storage.write_raster, (0, 3, 3)), (storage.write_raster, (2, 0, 3)),
    (storage.write_raster, (2, 3, 0)), (storage.write_labels, (0, 3)),
    (storage.write_labels, (3, 0))])
def test_writers_refuse_what_the_reader_refuses(tmp_path, write, shape):
    """A raster or label map with an empty dimension is a format error, as
    `probe_raster` makes it on reading, and no file is written: the empty
    label map no longer fails on its value range check."""
    path = tmp_path / "empty.lsaf"
    with pytest.raises(FormatError, match="degenerate dimensions"):
        write(path, np.zeros(shape, dtype=np.float32))
    assert not path.exists()


@pytest.mark.parametrize("kind", ["raster", "labels", "checkpoint", "ppm"])
def test_writers_hold_no_copy_of_the_payload(tmp_path, kind):
    """Each writer writes an array already in its file's dtype and layout
    straight from the array, so writing 8 MiB peaks far below a payload."""
    path = tmp_path / "w"
    if kind == "raster":
        payload = np.ones((32, 256, 256), dtype=np.float32)
        write = lambda: storage.write_raster(path, payload)
    elif kind == "labels":
        payload = np.ones((2048, 2048), dtype=np.uint16)
        write = lambda: storage.write_labels(path, payload)
    elif kind == "checkpoint":
        payload = np.ones((1024, 1024))
        write = lambda: storage.write_checkpoint(path, {"w": payload})
    else:
        payload = np.ones((1024, 2731, 3), dtype=np.uint8)
        write = lambda: storage.write_ppm(path, payload)
    tracemalloc.start()
    try:
        write()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > payload.nbytes >= 8 << 20
    assert peak < payload.nbytes / 64


@pytest.mark.parametrize("kind", ["raster", "labels"])
def test_short_payload_read_rejected(tmp_path, monkeypatch, kind):
    """A file that shrinks between the header check and the payload read is
    a format error, not a short array."""
    path = tmp_path / "s.lsaf"
    if kind == "raster":
        storage.write_raster(path, np.ones((2, 3, 3), dtype=np.float32))
    else:
        storage.write_labels(path, np.ones((3, 3), dtype=np.uint16))
    info = storage.probe_raster(path)
    monkeypatch.setattr(storage, "probe_raster", lambda p: dict(info, height=4))
    read = storage.read_raster if kind == "raster" else storage.read_labels
    with pytest.raises(FormatError, match="payload ends after"):
        read(path)


def test_file_shrinking_before_a_block_read_rejected(tmp_path):
    """A row reader probes the header once; a block past where the file
    now ends is a format error counting the values the file still holds."""
    path = tmp_path / "s.lsaf"
    storage.write_raster(path, np.ones((2, 6, 5), dtype=np.float32))
    rows = storage.RasterRows(path)
    path.write_bytes(path.read_bytes()[:-8])
    assert rows[:, 0:2].shape == (2, 2, 5)
    with pytest.raises(FormatError, match="s.lsaf: payload ends after 58 of 60 values"):
        rows[:, 4:6]


def test_row_blocks_are_checked_finite_one_at_a_time(tmp_path):
    """A block reports its own count of non-finite values; blocks without
    any read normally."""
    cube = np.ones((3, 8, 4), dtype=np.float32)
    cube[0, 1, 2] = cube[2, 1, 0] = np.nan
    cube[1, 6, 3] = -np.inf
    path = tmp_path / "bad.lsaf"
    storage.write_raster(path, cube)
    rows = storage.RasterRows(path)
    assert rows.shape == cube.shape
    assert np.array_equal(rows[:, 2:6], cube[:, 2:6])
    with pytest.raises(FormatError, match="bad.lsaf: raster holds 2 non-finite"):
        rows[:, 0:2]
    with pytest.raises(FormatError, match="bad.lsaf: raster holds 1 non-finite"):
        rows[:, 6:]
    with pytest.raises(FormatError, match="bad.lsaf: raster holds 3 non-finite"):
        rows[:, :]


def test_reader_of_some_rows_reads_those_rows(tmp_path):
    """`rows(top, stop)` reads rows top:stop as a raster of their own, and a
    reader of its rows reads from there, whatever rows it is sliced at."""
    cube = np.arange(3 * 9 * 4, dtype=np.float32).reshape(3, 9, 4)
    path = tmp_path / "r.lsaf"
    storage.write_raster(path, cube)
    strip = storage.RasterRows(path).rows(2, 8)
    assert strip.shape == (3, 6, 4)
    assert np.array_equal(strip[:, :], cube[:, 2:8])
    assert np.array_equal(strip[:, 1:4], cube[:, 3:6])
    inner = strip.rows(3, 6)
    assert inner.shape == (3, 3, 4) and np.array_equal(inner[:, 1:], cube[:, 6:8])
    assert strip.rows(6, 6).shape == (3, 0, 4)


@pytest.mark.parametrize("key", [(slice(None),), (0, slice(0, 2)),
                                 (slice(None), slice(0, 4, 2)), (slice(None), 3)])
def test_row_reader_takes_only_row_ranges(tmp_path, key):
    path = tmp_path / "r.lsaf"
    storage.write_raster(path, np.ones((2, 4, 3), dtype=np.float32))
    with pytest.raises(ContractError):
        storage.RasterRows(path)[key]


def test_row_reader_refuses_a_label_map(tmp_path):
    path = tmp_path / "gt.lsaf"
    storage.write_labels(path, np.ones((3, 3), dtype=np.uint16))
    with pytest.raises(FormatError, match="expected a float32 raster"):
        storage.RasterRows(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.lsaf"
    storage.write_raster(path, np.ones((2, 3, 3), dtype=np.float32))
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="bytes"):
        storage.read_raster(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "long.lsaf"
    storage.write_raster(path, np.ones((1, 2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError):
        storage.probe_raster(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.lsaf"
    storage.write_raster(path, np.ones((1, 2, 2), dtype=np.float32))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"WHAT"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        storage.probe_raster(path)


def test_full_scene_header_probe_without_payload_read(tmp_path):
    """A header-sized probe must handle a full 144-band scene file; the
    payload is sparse on disk, so actually reading it would be obvious."""
    path = tmp_path / "scene.lsaf"
    bands, height, width = 144, 349, 1905
    with open(path, "wb") as f:
        import struct

        f.write(struct.pack("<4sIIIIB", b"LSAF", 1, bands, height, width, 1))
        f.truncate(21 + bands * height * width * 4)
    info = storage.probe_raster(path)
    assert (info["bands"], info["height"], info["width"]) == (bands, height, width)
    assert info["dtype"] == np.dtype("<f4")


def test_checkpoint_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {
        "hsi.conv1.kernels": rng.normal(size=(8, 1, 7, 3, 3)),
        "fusion.weight_hsi": np.array(1.0),
        "pre.pca.mean": rng.normal(size=30).astype(np.float32),
    }
    p1, p2 = tmp_path / "w1.lsfw", tmp_path / "w2.lsfw"
    storage.write_checkpoint(p1, tensors)
    loaded = storage.read_checkpoint(p1)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])
        assert loaded[name].dtype == np.asarray(tensors[name]).dtype
    storage.write_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "w.lsfw"
    storage.write_checkpoint(path, {"a": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        storage.read_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "w.lsfw"
    storage.write_checkpoint(path, {"a": np.zeros(8)})
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError, match="truncated"):
        storage.read_checkpoint(path)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path):
    """A write that fails part-way (an int8 entry has no dtype tag) leaves
    the checkpoint already at the path whole, and no temporary file."""
    path = tmp_path / "w.lsfw"
    storage.write_checkpoint(path, {"a": np.arange(4.0)})
    good = path.read_bytes()
    with pytest.raises(FormatError):
        storage.write_checkpoint(path, {"a": np.ones(2, dtype=np.float32),
                                        "b": np.ones(2, dtype=np.int8)})
    assert path.read_bytes() == good
    assert np.array_equal(storage.read_checkpoint(path)["a"], np.arange(4.0))
    assert [p.name for p in tmp_path.iterdir()] == ["w.lsfw"]


def test_checkpoint_duplicate_entry_rejected(tmp_path):
    """A name stored twice is an error naming it: the reader does not
    silently keep the last of the two."""
    path = tmp_path / "w.lsfw"
    storage.write_checkpoint(path, {"a": np.zeros(2), "b": np.ones(3)})
    path.write_bytes(path.read_bytes().replace(b"\x01\x00b", b"\x01\x00a"))
    with pytest.raises(FormatError, match="'a' appears twice"):
        storage.read_checkpoint(path)


def test_ppm_round_trip(tmp_path):
    rgb = np.random.default_rng(3).integers(0, 256, size=(5, 8, 3)).astype(np.uint8)
    path = tmp_path / "map.ppm"
    storage.write_ppm(path, rgb)
    assert np.array_equal(storage.read_ppm(path), rgb)
    header = path.read_bytes()[:15]
    assert header.startswith(b"P6\n8 5\n255\n")


def test_ppm_negative_dimensions_rejected(tmp_path):
    """-1 by -1 declares the payload's 3 bytes, but no image has that shape."""
    path = tmp_path / "map.ppm"
    path.write_bytes(b"P6\n-1 -1\n255\nabc")
    with pytest.raises(FormatError, match="negative PPM dimensions"):
        storage.read_ppm(path)


def hostile_checkpoint(path, shape, name=b"w"):
    """One float32 entry declaring `shape`, with no payload bytes at all."""
    blob = storage.CHECKPOINT_MAGIC + struct.pack("<II", storage.FORMAT_VERSION, 1)
    blob += struct.pack("<H", len(name)) + name
    blob += struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)
    blob += struct.pack("<B", 1)
    path.write_bytes(blob)
    return path


@pytest.mark.parametrize("shape,name,match", [
    # 2^31 in each of 8 dimensions is 2^248 elements, 0 in int64 arithmetic
    ((2**31,) * 8, b"w", "impossible shape"),
    # no payload to read, yet no array of this shape exists
    ((0,) + (2**31,) * 7, b"w", "impossible shape"),
    ((2**20, 2**20), b"w", "truncated"),
    ((), b"\xff\xfe", "UTF-8"),
])
def test_hostile_checkpoint_entry_rejected(tmp_path, shape, name, match):
    path = hostile_checkpoint(tmp_path / "w.lsfw", shape, name)
    with pytest.raises(FormatError, match=match):
        storage.read_checkpoint(path)
