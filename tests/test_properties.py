"""Property tests for the readers of untrusted files: whatever a file's
bytes, reading it either returns what the file declares or raises the
reader's one error, `FormatError` for data files and `ConfigError` for a
config.

Each example writes a small valid raster, label map, checkpoint or PPM
image, then may damage it: cut it short, flip one byte of its header or
payload, or append bytes. No other exception may escape `read_raster`,
`RasterRows`, `read_labels`, `read_checkpoint` or `read_ppm`. A config is
arbitrary bytes, or a JSON object over the config keys and other strings.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lsaf import cli, storage
from lsaf.errors import ConfigError, FormatError

HEADER = storage._RASTER_HEADER.size

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

shapes = st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 5))


@st.composite
def damage(draw, size, header):
    """None, or one way to damage a file of `size` bytes whose first `header`
    bytes are its header: ("cut", n), ("flip", offset, mask) or ("append", n)."""
    kind = draw(st.sampled_from(["none", "cut", "header", "payload", "append"]))
    if kind == "cut":
        return ("cut", draw(st.integers(0, size - 1)))
    if kind in ("header", "payload"):
        lo, hi = (0, header - 1) if kind == "header" else (header, size - 1)
        return ("flip", draw(st.integers(lo, hi)), draw(st.integers(1, 255)))
    if kind == "append":
        return ("append", draw(st.integers(1, 9)))
    return None


def write_damaged(path, write, value, data, header=HEADER):
    write(path, value)
    blob = bytearray(path.read_bytes())
    harm = data.draw(damage(len(blob), header))
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


@SETTINGS
@given(seed=st.integers(0, 2**16), data=st.data())
def test_read_checkpoint_returns_what_the_file_holds_or_a_format_error(tmp_path, seed, data):
    """A checkpoint that reads at all writes back to the same bytes, so no
    entry is dropped or changed on the way."""
    path = tmp_path / "w.lsfw"
    rng = np.random.default_rng(seed)
    entries = {"hsi.w": rng.normal(size=(2, 3)), "hsi.b": rng.normal(size=3).astype(np.float32),
               "meta.mode": np.array(0.0), "labels": np.arange(4, dtype=np.uint16)}
    # the magic, the version and the entry count
    harm = write_damaged(path, storage.write_checkpoint, entries, data, header=12)
    try:
        back = storage.read_checkpoint(path)
    except FormatError:
        assert harm is not None
        return
    storage.write_checkpoint(tmp_path / "again.lsfw", back)
    assert (tmp_path / "again.lsfw").read_bytes() == path.read_bytes()
    if harm is None:
        assert list(back) == list(entries)
        assert all(np.array_equal(back[name], entries[name]) for name in entries)


@SETTINGS
@given(height=st.integers(1, 5), width=st.integers(1, 5), seed=st.integers(0, 2**16),
       data=st.data())
def test_read_ppm_returns_the_image_or_a_format_error(tmp_path, height, width, seed, data):
    path = tmp_path / "map.ppm"
    rgb = np.random.default_rng(seed).integers(0, 256, size=(height, width, 3)).astype(np.uint8)
    header = f"P6\n{width} {height}\n255\n"
    if data.draw(st.booleans()):
        harm = write_damaged(path, storage.write_ppm, rgb, data, header=len(header))
    else:  # the payload's pixel count, declared with both dimensions negated
        harm = "negated"
        path.write_bytes(f"P6\n{-width} {-height}\n255\n".encode() + rgb.tobytes())
    try:
        back = storage.read_ppm(path)
    except FormatError:
        assert harm is not None
        return
    assert back.dtype == np.uint8 and back.ndim == 3 and back.shape[2] == 3
    if harm is None:
        assert np.array_equal(back, rgb)


@SETTINGS
@given(blob=st.binary(max_size=80))
def test_load_config_of_any_bytes_is_a_config_or_a_config_error(tmp_path, blob):
    path = tmp_path / "c.json"
    path.write_bytes(blob)
    try:
        config = cli.load_config(str(path), {})
    except ConfigError:
        return
    assert set(config) == set(cli._KEYS)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["float32", "float64"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


@SETTINGS
@given(raw=st.dictionaries(st.sampled_from(sorted(cli._KEYS)) | st.text(max_size=12),
                           json_values, max_size=6))
def test_load_config_of_any_json_object_is_a_config_or_a_config_error(tmp_path, raw):
    """A config that loads holds every key, with the file's value for each
    key the file sets."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    try:
        config = cli.load_config(str(path), {})
    except ConfigError:
        return
    assert set(config) == set(cli._KEYS)
    assert all(config[key] == value for key, value in raw.items())


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
