"""Property tests for the raster readers: whatever a file's bytes, reading it
either returns what the header declares or raises `FormatError`.

Each example writes a small valid raster or label map, then may damage it:
cut it short, flip one byte of its header or payload, or append bytes. No
other exception may escape `read_raster`, `RasterRows` or `read_labels`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lsaf import storage
from lsaf.errors import FormatError

HEADER = storage._RASTER_HEADER.size

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

shapes = st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 5))


@st.composite
def damage(draw, size):
    """None, or one way to damage a file of `size` bytes: ("cut", n),
    ("flip", offset, mask) or ("append", n)."""
    kind = draw(st.sampled_from(["none", "cut", "header", "payload", "append"]))
    if kind == "cut":
        return ("cut", draw(st.integers(0, size - 1)))
    if kind in ("header", "payload"):
        lo, hi = (0, HEADER - 1) if kind == "header" else (HEADER, size - 1)
        return ("flip", draw(st.integers(lo, hi)), draw(st.integers(1, 255)))
    if kind == "append":
        return ("append", draw(st.integers(1, 9)))
    return None


def write_damaged(path, write, array, data):
    write(path, array)
    blob = bytearray(path.read_bytes())
    harm = data.draw(damage(len(blob)))
    if harm is not None and harm[0] == "cut":
        blob = blob[:harm[1]]
    elif harm is not None and harm[0] == "flip":
        blob[harm[1]] ^= harm[2]
    elif harm is not None:
        blob += bytes(harm[1])
    path.write_bytes(bytes(blob))
    return harm


def cube_of(shape, seed):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


@SETTINGS
@given(shape=shapes, seed=st.integers(0, 2**16), data=st.data())
def test_read_raster_returns_the_cube_or_a_format_error(tmp_path, shape, seed, data):
    path = tmp_path / "hsi.lsaf"
    cube = cube_of(shape, seed)
    harm = write_damaged(path, storage.write_raster, cube, data)
    try:
        back = storage.read_raster(path)
    except FormatError:
        assert harm is not None
        return
    assert back.dtype == np.float32 and back.shape[0] >= 1 and np.isfinite(back).all()
    if harm is None:
        assert np.array_equal(back, cube)


@SETTINGS
@given(shape=shapes, seed=st.integers(0, 2**16), data=st.data())
def test_row_blocks_are_the_cube_rows_or_a_format_error(tmp_path, shape, seed, data):
    path = tmp_path / "hsi.lsaf"
    cube = cube_of(shape, seed)
    harm = write_damaged(path, storage.write_raster, cube, data)
    try:
        rows = storage.RasterRows(path)
        height = rows.shape[1]
        top = data.draw(st.integers(0, height))
        stop = data.draw(st.integers(top, height))
        block = rows[:, top:stop]
    except FormatError:
        assert harm is not None
        return
    assert block.shape == (rows.shape[0], stop - top, rows.shape[2])
    assert np.isfinite(block).all()
    if harm is None:
        assert np.array_equal(block, cube[:, top:stop])


@SETTINGS
@given(shape=shapes, seed=st.integers(0, 2**16), data=st.data())
def test_read_labels_returns_the_map_or_a_format_error(tmp_path, shape, seed, data):
    path = tmp_path / "labels.lsaf"
    labels = np.random.default_rng(seed).integers(0, 2**16, size=shape[1:]).astype(np.uint16)
    harm = write_damaged(path, storage.write_labels, labels, data)
    try:
        back = storage.read_labels(path)
    except FormatError:
        assert harm is not None
        return
    assert back.dtype == np.uint16 and back.ndim == 2
    if harm is None:
        assert np.array_equal(back, labels)


@pytest.mark.parametrize("cut", range(0, HEADER + 4))
def test_every_short_prefix_is_a_format_error(tmp_path, cut):
    path = tmp_path / "hsi.lsaf"
    storage.write_raster(path, np.ones((1, 1, 1), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:cut])
    for read in (storage.read_raster, storage.RasterRows, storage.read_labels):
        with pytest.raises(FormatError):
            read(path)


@pytest.mark.parametrize("offset", range(HEADER))
def test_every_header_bit_flip_is_a_format_error(tmp_path, offset):
    """Any one flipped header bit breaks the magic, the version, the dtype
    tag or the size the header declares."""
    path = tmp_path / "hsi.lsaf"
    storage.write_raster(path, np.ones((2, 3, 2), dtype=np.float32))
    blob = path.read_bytes()
    for bit in range(8):
        damaged = bytearray(blob)
        damaged[offset] ^= 1 << bit
        path.write_bytes(bytes(damaged))
        for read in (storage.read_raster, storage.RasterRows, storage.read_labels):
            with pytest.raises(FormatError):
                read(path)
