"""Tensor and autodiff tests: closed-form oracles, exact conv references,
tolerance oracles for the library's GEMM conv forward and backward, and
finite-difference batteries for every differentiable op."""

import itertools
import re
import threading
import tracemalloc

import numpy as np
import pytest

from lsaf import tensor as T
from lsaf.errors import ConfigError, ContractError, ShapeError
from lsaf.tensor import Tensor

from gradcheck import finite_diff_check, tape_sum


def rng(seed):
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# straight-line references (written against the math, not the library)


def conv2d_naive(x, w, stride=1, padding=0):
    """Accumulates taps in (cin, kh, kw) order, one scalar add at a time."""
    sh = sw = stride if isinstance(stride, int) else None
    if sh is None:
        sh, sw = stride
    ph = pw = padding if isinstance(padding, int) else None
    if ph is None:
        ph, pw = padding
    cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((cout, oh, ow), dtype=x.dtype)
    for co in range(cout):
        for y in range(oh):
            for z in range(ow):
                acc = x.dtype.type(0.0)
                for ci in range(cin):
                    for i in range(kh):
                        for j in range(kw):
                            acc += w[co, ci, i, j] * xp[ci, y * sh + i, z * sw + j]
                out[co, y, z] = acc
    return out


def conv3d_naive(x, w, stride=1, padding=0):
    st = (stride,) * 3 if isinstance(stride, int) else tuple(stride)
    pd = (padding,) * 3 if isinstance(padding, int) else tuple(padding)
    cin, d, h, wd = x.shape
    cout, _, kd, kh, kw = w.shape
    xp = np.pad(x, ((0, 0),) + tuple((p, p) for p in pd))
    od = (d + 2 * pd[0] - kd) // st[0] + 1
    oh = (h + 2 * pd[1] - kh) // st[1] + 1
    ow = (wd + 2 * pd[2] - kw) // st[2] + 1
    out = np.zeros((cout, od, oh, ow), dtype=x.dtype)
    for co in range(cout):
        for u in range(od):
            for y in range(oh):
                for z in range(ow):
                    acc = x.dtype.type(0.0)
                    for ci in range(cin):
                        for a in range(kd):
                            for i in range(kh):
                                for j in range(kw):
                                    acc += (
                                        w[co, ci, a, i, j]
                                        * xp[ci, u * st[0] + a, y * st[1] + i, z * st[2] + j]
                                    )
                    out[co, u, y, z] = acc
    return out


def conv_tap_order(x, w, stride=1, padding=0):
    """Reference conv forward: accumulates one kernel tap at a time in
    channel-major tap order, one multiply and one add per element, so every
    output element is summed in exactly the naive-loop order. `x` is
    `(cin, *spatial)` or `(n, cin, *spatial)`, `w` is `(cout, cin, *kernel)`."""
    nsp = w.ndim - 2
    batched = x.ndim == nsp + 2
    xd = x if batched else x[None]
    strides = (stride,) * nsp if isinstance(stride, int) else tuple(stride)
    pads = (padding,) * nsp if isinstance(padding, int) else tuple(padding)
    batch, cin = xd.shape[0], xd.shape[1]
    cout = w.shape[0]
    ksz = w.shape[2:]
    out_sp = tuple(
        (n + 2 * p - k) // s + 1 for n, k, s, p in zip(xd.shape[2:], ksz, strides, pads)
    )

    xp = np.pad(xd, ((0, 0), (0, 0)) + tuple((p, p) for p in pads))
    taps = list(itertools.product(range(cin), *(range(k) for k in ksz)))
    n_taps = len(taps)
    n_pos = int(np.prod(out_sp))

    cols = np.empty((n_taps, batch * n_pos), dtype=xd.dtype)
    for row, tap in enumerate(taps):
        ci, offsets = tap[0], tap[1:]
        sl = (slice(None), ci) + tuple(
            slice(o, o + s * (n - 1) + 1, s) for o, s, n in zip(offsets, strides, out_sp)
        )
        cols[row] = xp[sl].reshape(-1)

    w2 = np.ascontiguousarray(w.reshape(cout, n_taps))
    out2 = np.zeros((cout, batch * n_pos), dtype=xd.dtype)
    tmp = np.empty_like(out2)
    for row in range(n_taps):
        np.multiply(w2[:, row, None], cols[row], out=tmp)
        out2 += tmp

    out = out2.reshape(cout, batch, *out_sp).swapaxes(0, 1)
    return np.ascontiguousarray(out if batched else out[0])


def conv_backward_reference(x, w, g, stride=1, padding=0):
    """Reference conv backward: the full im2col over every kernel tap (rows
    in channel-major tap order), the kernel gradient `g @ colsᵀ` and the
    column gradient `wᵀ @ g` as one GEMM each, then the column gradient
    scattered back into the input one tap at a time. Returns `(gx, gw)` for
    the output gradient `g` of `conv(x, w, stride, padding)`."""
    nsp = w.ndim - 2
    batched = x.ndim == nsp + 2
    xd = x if batched else x[None]
    gb = g if batched else g[None]
    strides = (stride,) * nsp if isinstance(stride, int) else tuple(stride)
    pads = (padding,) * nsp if isinstance(padding, int) else tuple(padding)
    batch, cin = xd.shape[0], xd.shape[1]
    cout = w.shape[0]
    ksz = w.shape[2:]
    out_sp = gb.shape[2:]
    taps = list(itertools.product(range(cin), *(range(k) for k in ksz)))
    n_pos = int(np.prod(out_sp))

    xp = np.pad(xd, ((0, 0), (0, 0)) + tuple((p, p) for p in pads))
    sp_axes = tuple(range(2, 2 + nsp))
    windows = np.lib.stride_tricks.sliding_window_view(xp, ksz, axis=sp_axes)
    windows = windows[(slice(None), slice(None)) + tuple(slice(None, None, s) for s in strides)]
    cols = windows.transpose(
        (1,) + tuple(range(2 + nsp, 2 + 2 * nsp)) + (0,) + sp_axes
    ).reshape(len(taps), batch * n_pos)

    w2 = np.ascontiguousarray(w.reshape(cout, len(taps)))
    g2 = np.ascontiguousarray(gb.swapaxes(0, 1).reshape(cout, batch * n_pos))
    gw = (g2 @ cols.T).reshape(w.shape)
    gcols = w2.T @ g2
    gxp = np.zeros(xp.shape, dtype=xd.dtype)
    for row, (ci, *offsets) in enumerate(taps):
        sl = (slice(None), ci) + tuple(
            slice(o, o + s * (n - 1) + 1, s) for o, s, n in zip(offsets, strides, out_sp)
        )
        gxp[sl] += gcols[row].reshape((batch,) + out_sp)
    gx = gxp[(slice(None), slice(None)) + tuple(slice(p, p + n) for p, n in zip(pads, xd.shape[2:]))]
    return (gx if batched else gx[0]), gw


def random_conv2d_case(seed):
    r = rng(seed)
    cin = int(r.integers(1, 5))
    cout = int(r.integers(1, 5))
    h, w = (int(r.integers(2, 6)) for _ in range(2))
    kh = int(r.integers(1, h + 1))
    kw = int(r.integers(1, w + 1))
    return r.normal(size=(cin, h, w)), r.normal(size=(cout, cin, kh, kw))


def random_conv3d_case(seed):
    r = rng(seed + 100)
    cin = int(r.integers(1, 4))
    cout = int(r.integers(1, 3))
    d, h, w = (int(r.integers(2, 5)) for _ in range(3))
    kd = int(r.integers(1, d + 1))
    kh = int(r.integers(1, h + 1))
    kw = int(r.integers(1, w + 1))
    return r.normal(size=(cin, d, h, w)), r.normal(size=(cout, cin, kd, kh, kw))


STRIDE_PADDING = [(2, 0), (1, 1), (2, 1), ((1, 2), (2, 1))]


def strided_case():
    r = rng(99)
    return r.normal(size=(3, 5, 5)), r.normal(size=(2, 3, 3, 3))


# Elementwise bound on |library - reference|, relative to the reference
# kernel run on |x| and |w| (the sum of the magnitudes of the products).
CONV_TOL = {np.float32: 1e-5, np.float64: 1e-12}

# (input shape, kernel shape, padding) of the model's seven conv blocks at
# the paper geometry (patch 11, 30 PCA dimensions), batch 2.
MODEL_CONV_SHAPES = [
    ((2, 1, 30, 11, 11), (8, 1, 7, 3, 3), 0),      # hsi.block1
    ((2, 8, 24, 9, 9), (16, 8, 5, 3, 3), 0),       # hsi.block2
    ((2, 16, 20, 7, 7), (32, 16, 3, 3, 3), 0),     # hsi.block3
    ((2, 576, 5, 5), (64, 576, 3, 3), 1),          # hsi.block4
    ((2, 1, 11, 11), (16, 1, 3, 3), 0),            # lidar.block1
    ((2, 16, 9, 9), (32, 16, 3, 3), 0),            # lidar.block2
    ((2, 32, 7, 7), (64, 32, 3, 3), 0),            # lidar.block3
]
MODEL_CONV_BLOCKS = ([f"hsi.block{i}" for i in range(1, 5)]
                     + [f"lidar.block{i}" for i in range(1, 4)])


def reference_padding(k, padding):
    """The library pads h and w only; the references take one padding per axis."""
    return (0, padding, padding) if k.ndim == 5 else padding


def assert_conv_within_tolerance(x, k, dtype, padding=0):
    x = x.astype(dtype)
    k = k.astype(dtype)
    conv = T.conv3d if k.ndim == 5 else T.conv2d
    got = conv(Tensor(x, dtype=dtype), Tensor(k, dtype=dtype), padding=padding).data
    ref_padding = reference_padding(k, padding)
    want = conv_tap_order(x, k, padding=ref_padding)
    scale = conv_tap_order(np.abs(x), np.abs(k), padding=ref_padding)
    assert got.dtype == dtype and got.shape == want.shape
    assert np.all(np.abs(got - want) <= CONV_TOL[dtype] * scale)


def assert_conv_backward_within_tolerance(x, k, g, dtype, padding=0):
    """Both gradients of the conv for output gradient `g` lie within the
    forward's tolerance of the reference backward, relative to that backward
    run on |g|, |x| and |w|."""
    conv = T.conv3d if k.ndim == 5 else T.conv2d
    xt = Tensor(x, requires_grad=True, dtype=dtype)
    kt = Tensor(k, requires_grad=True, dtype=dtype)
    tape_sum(conv(xt, kt, padding=padding) * Tensor(g, dtype=dtype)).backward()
    ref_padding = reference_padding(k, padding)
    want = conv_backward_reference(x, k, g, padding=ref_padding)
    scale = conv_backward_reference(np.abs(x), np.abs(k), np.abs(g), padding=ref_padding)
    for a, b, s in zip((xt.grad, kt.grad), want, scale):
        assert a.dtype == dtype and a.shape == b.shape
        assert np.all(np.abs(a - b) <= CONV_TOL[dtype] * s)


def sigmoid_two_branch(d):
    """The masked two-branch sigmoid: 1/(1 + exp(−x)) where x >= 0, and
    exp(x)/(1 + exp(x)) elsewhere, each branch over its own gathered
    elements."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ----------------------------------------------------------------------
# linear


def no_bias(width):
    return Tensor(np.zeros(width))


def unbroadcast_leading(grad, ndim):
    """Sum `grad` over its leading axes down to `ndim` axes."""
    return grad.sum(axis=tuple(range(grad.ndim - ndim))) if grad.ndim > ndim else grad


class TestLinear:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(T.linear(a, b, no_bias(2)).data, b.data)

    def test_dot_product_oracle(self):
        out = T.linear(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]), no_bias(1))
        assert out.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_zero_left_operand(self):
        a = Tensor(np.zeros((2, 2)))
        b = Tensor(rng(0).normal(size=(2, 2)))
        assert np.array_equal(T.linear(a, b, no_bias(2)).data, np.zeros((2, 2)))

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 2\).*\(3, 2\)"):
            T.linear(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))), no_bias(2))

    def test_batched_broadcast(self):
        a = Tensor(rng(1).normal(size=(4, 2, 3)))
        b = Tensor(rng(2).normal(size=(3, 5)))
        out = T.linear(a, b, no_bias(5))
        assert out.shape == (4, 2, 5)
        assert np.allclose(out.data, a.data @ b.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape", [(5, 4), (3, 5, 4)])
    def test_bit_equals_the_matmul_add_graph(self, x_shape, dtype):
        """The forward and all three gradients keep the bytes of the former
        two-node graph, `x @ weight` then `+ bias`: the add passed `g` on,
        which the sweep deposited on the product node as `zeros + g`."""
        r = rng(3)
        x, w, b = (r.normal(size=shape).astype(dtype) for shape in (x_shape, (4, 6), (6,)))
        g = r.normal(size=x_shape[:-1] + (6,)).astype(dtype)
        leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, w, b)]
        out = T.linear(*leaves)
        tape_sum(out * Tensor(g, dtype=dtype)).backward()

        prod = x @ w
        gp = np.zeros_like(prod) + g
        want = [prod + b, gp @ np.swapaxes(w, -1, -2),
                unbroadcast_leading(np.swapaxes(x, -1, -2) @ gp, 2),
                unbroadcast_leading(g, 1)]
        got = [out.data] + [leaf.grad for leaf in leaves]
        for have, expect in zip(got, want):
            assert have.dtype == expect.dtype == dtype and have.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_gradient_battery(self, wrt):
        r = rng(4)
        operands = [Tensor(r.normal(size=shape)) for shape in ((3, 5, 4), (4, 6), (6,))]
        operands[wrt].requires_grad = True
        cotangent = Tensor(r.normal(size=(3, 5, 6)))

        def loss(t):
            args = list(operands)
            args[wrt] = t
            return tape_sum(T.linear(*args) * cotangent)

        assert finite_diff_check(loss, operands[wrt]) < 1e-7


# ----------------------------------------------------------------------
# convolution


class TestConv2d:
    def test_unit_kernel_identity(self):
        x = Tensor(rng(0).normal(size=(1, 1, 4, 4)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        assert np.array_equal(T.conv2d(x, k).data, x.data)

    def test_summation_oracle(self):
        x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, k)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 10.0

    def test_zero_input(self):
        x = Tensor(np.zeros((1, 2, 5, 5)))
        k = Tensor(rng(3).normal(size=(3, 2, 3, 3)))
        assert not T.conv2d(x, k).data.any()

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ConfigError):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))))

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_match_with_naive_loops(self, seed):
        x, k = random_conv2d_case(seed)
        # bit-for-bit, not approximately: same summation order
        assert np.array_equal(conv_tap_order(x, k), conv2d_naive(x, k))

    @pytest.mark.parametrize("stride,padding", STRIDE_PADDING)
    def test_exact_match_strided_padded(self, stride, padding):
        x, k = strided_case()
        got = conv_tap_order(x, k, stride, padding)
        assert np.array_equal(got, conv2d_naive(x, k, stride, padding))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(12))
    def test_within_tolerance_of_reference(self, seed, dtype):
        x, k = random_conv2d_case(seed)
        assert_conv_within_tolerance(x[None], k, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", [1, 2])
    def test_padded_within_tolerance(self, padding, dtype):
        x, k = strided_case()
        assert_conv_within_tolerance(x[None], k, dtype, padding)

    def test_batched_equals_per_sample(self):
        r = rng(7)
        x = r.normal(size=(3, 2, 4, 4))
        k = r.normal(size=(2, 2, 3, 3))
        full = T.conv2d(Tensor(x), Tensor(k)).data
        for i in range(3):
            single = T.conv2d(Tensor(x[i:i + 1]), Tensor(k)).data
            assert np.array_equal(full[i:i + 1], single)


class TestConv3d:
    def test_unit_kernel_identity(self):
        x = Tensor(rng(0).normal(size=(1, 1, 3, 3, 3)))
        k = Tensor(np.ones((1, 1, 1, 1, 1)))
        assert np.array_equal(T.conv3d(x, k).data, x.data)

    def test_summation_oracle(self):
        x = Tensor(np.ones((1, 1, 2, 2, 2)))
        k = Tensor(np.ones((1, 1, 2, 2, 2)))
        out = T.conv3d(x, k)
        assert out.shape == (1, 1, 1, 1, 1)
        assert out.data[0, 0, 0, 0, 0] == 8.0

    def test_zero_input(self):
        x = Tensor(np.zeros((1, 1, 3, 4, 4)))
        k = Tensor(rng(1).normal(size=(2, 1, 2, 3, 3)))
        assert not T.conv3d(x, k).data.any()

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_match_with_naive_loops(self, seed):
        x, k = random_conv3d_case(seed)
        assert np.array_equal(conv_tap_order(x, k), conv3d_naive(x, k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(8))
    def test_within_tolerance_of_reference(self, seed, dtype):
        x, k = random_conv3d_case(seed)
        assert_conv_within_tolerance(x[None], k, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", [1, 2])
    def test_padded_within_tolerance(self, padding, dtype):
        """Padding reaches h and w only; depth is never padded."""
        r = rng(98)
        x = r.normal(size=(1, 2, 5, 5, 5))
        k = r.normal(size=(3, 2, 3, 3, 3))
        assert_conv_within_tolerance(x, k, dtype, padding)

    def test_batched_equals_per_sample(self):
        r = rng(8)
        x = r.normal(size=(3, 2, 5, 4, 4))
        k = r.normal(size=(2, 2, 3, 3, 3))
        full = T.conv3d(Tensor(x), Tensor(k)).data
        for i in range(3):
            single = T.conv3d(Tensor(x[i:i + 1]), Tensor(k)).data
            assert np.array_equal(full[i:i + 1], single)


# (input shape, kernel shape, padding) of 2-D convs that narrow cin to fewer
# cout at about the same size, so they take the scatter form: padded by 0 to
# 2, and a 3x2 kernel.
SCATTER_CASES = [
    ((8, 48, 7, 7), (4, 48, 3, 3), 1),
    ((8, 48, 7, 6), (6, 48, 3, 2), 2),
    ((8, 48, 7, 8), (4, 48, 3, 3), 0),
]

# The same narrowing as a 3-D conv with a depth-1 kernel: the scatter form is
# 2-D only, so it takes the gather form.
DEPTH1_GATHER_CASES = [
    ((8, 48, 3, 5, 5), (4, 48, 1, 3, 3), 1),
]


def column_bytes(x_shape, k_shape, padding, itemsize):
    """Bytes of the gather form's column buffer, cin·kh·kw × n·d·ho·wo."""
    out_hw = [n + 2 * padding - k + 1 for n, k in zip(x_shape[-2:], k_shape[-2:])]
    depth = x_shape[2] if len(k_shape) == 5 else 1
    return (x_shape[0] * x_shape[1] * int(np.prod(k_shape[-2:])) * depth
            * int(np.prod(out_hw)) * itemsize)


def forward_spreads(monkeypatch, x, k, padding=0):
    """How many times one recorded conv forward spreads its input into
    columns: once per chunk of samples in the gather form, never in the
    scatter form, which multiplies first."""
    conv = T.conv3d if k.ndim == 5 else T.conv2d
    xt, kt = Tensor(x, dtype=x.dtype), Tensor(k, requires_grad=True, dtype=k.dtype)
    calls = []
    spread = T._spread_taps
    with monkeypatch.context() as patch:
        patch.setattr(T, "_spread_taps", lambda *args: (calls.append(args), spread(*args)))
        out = conv(xt, kt, padding=padding)
    assert out.requires_grad
    return len(calls)


def gather_spreads(x_shape, k_shape, padding, itemsize):
    """Chunks of the gather forward over a batch of `x_shape`."""
    return -(-x_shape[0] // gather_chunk(x_shape, k_shape, padding, itemsize))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,padding", SCATTER_CASES,
                         ids=lambda case: str(case).replace(" ", ""))
def test_scatter_form_within_tolerance(x_shape, k_shape, padding, dtype, monkeypatch):
    """The scatter form's output and both its gradients lie within the
    tolerance oracle of the references, and no column buffer is built."""
    assert_form_within_tolerance(x_shape, k_shape, padding, dtype, monkeypatch, scatter=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,padding", DEPTH1_GATHER_CASES,
                         ids=lambda case: str(case).replace(" ", ""))
def test_depth1_conv3d_takes_the_gather_form(x_shape, k_shape, padding, dtype, monkeypatch):
    """A 3-D conv with a depth-1 kernel spreads its input into columns, and
    its output and both its gradients lie within the tolerance oracle."""
    assert_form_within_tolerance(x_shape, k_shape, padding, dtype, monkeypatch, scatter=False)


def assert_form_within_tolerance(x_shape, k_shape, padding, dtype, monkeypatch, scatter):
    """The conv's forward spreads no columns when `scatter`, and one chunk
    at a time otherwise; its output and both gradients lie within the
    tolerance oracle."""
    r = rng(31)
    x = r.normal(size=x_shape).astype(dtype)
    k = (r.normal(size=k_shape) / np.sqrt(np.prod(k_shape[1:]))).astype(dtype)
    chunks = gather_spreads(x_shape, k_shape, padding, np.dtype(dtype).itemsize)
    assert forward_spreads(monkeypatch, x, k, padding) == (0 if scatter else chunks)
    assert_conv_within_tolerance(x, k, dtype, padding)
    conv = T.conv3d if len(k_shape) == 5 else T.conv2d
    g = r.normal(size=conv(Tensor(x), Tensor(k), padding=padding).shape).astype(dtype)
    assert_conv_backward_within_tolerance(x, k, g, dtype, padding)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_form_batched_equals_per_sample(dtype):
    """At HSI block4's shape, a sample's output is the same bytes in a batch
    as alone. The forward is one GEMM over the batch's rows, 25 per sample,
    so this checks that this BLAS gives a row the same bytes whatever the
    row count: every batch up to 16, to cover the GEMM's row tails, then
    primes up to 251, among them 173, eval-sparse's last partial batch, and
    256, `train.BATCH`."""
    r = rng(33)
    x = r.normal(size=(256, 576, 5, 5)).astype(dtype)
    k = Tensor((r.normal(size=(64, 576, 3, 3)) / 48).astype(dtype), dtype=dtype)
    singles = np.concatenate([T.conv2d(Tensor(x[i:i + 1], dtype=dtype), k, padding=1).data
                              for i in range(256)])
    for batch in list(range(1, 17)) + [17, 31, 37, 61, 97, 127, 173, 211, 251, 256]:
        full = T.conv2d(Tensor(x[:batch], dtype=dtype), k, padding=1).data
        assert full.tobytes() == singles[:batch].tobytes(), batch


@pytest.mark.parametrize("block,x_shape,k_shape,padding",
                         [(name,) + shape
                          for name, shape in zip(MODEL_CONV_BLOCKS, MODEL_CONV_SHAPES)],
                         ids=MODEL_CONV_BLOCKS)
def test_only_hsi_block4_takes_the_scatter_form(block, x_shape, k_shape, padding, monkeypatch):
    """The form follows from shapes: at batch 37, only HSI block4 (576
    channels to 64) runs its forward without spreading columns; every other
    block spreads one chunk of samples at a time."""
    r = rng(34)
    x_shape = (37,) + x_shape[1:]
    x = r.standard_normal(x_shape, dtype=np.float32)
    k = r.standard_normal(k_shape, dtype=np.float32)
    chunks = 0 if block == "hsi.block4" else gather_spreads(x_shape, k_shape, padding, 4)
    assert forward_spreads(monkeypatch, x, k, padding=padding) == chunks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,padding", MODEL_CONV_SHAPES)
def test_model_conv_blocks_within_tolerance(x_shape, k_shape, padding, dtype):
    r = rng(len(x_shape) * 100 + k_shape[1])
    x = r.normal(size=x_shape)
    k = r.normal(size=k_shape) / np.sqrt(np.prod(k_shape[1:]))
    assert_conv_within_tolerance(x, k, dtype, padding=padding)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,padding", MODEL_CONV_SHAPES)
def test_model_conv_backward_within_tolerance(x_shape, k_shape, padding, dtype):
    """Both gradients lie within the tolerance oracle of the reference backward."""
    r = rng(len(x_shape) * 100 + k_shape[1] + 7)
    conv = T.conv3d if len(k_shape) == 5 else T.conv2d
    x = r.normal(size=x_shape).astype(dtype)
    k = (r.normal(size=k_shape) / np.sqrt(np.prod(k_shape[1:]))).astype(dtype)
    g = r.normal(size=conv(Tensor(x), Tensor(k), padding=padding).shape).astype(dtype)
    assert_conv_backward_within_tolerance(x, k, g, dtype, padding=padding)


# (input shape, kernel shape, padding): 2-D and 3-D, spectral kernels of
# depth 1 to 7 on deeper inputs, padding 0 to 2 on h and w, batches of one,
# and the scatter form.
CONV_GRAD_CASES = [
    ((2, 2, 5, 6), (3, 2, 3, 2), 0),
    ((2, 2, 5, 5), (2, 2, 3, 3), 1),
    ((2, 2, 5, 7), (2, 2, 3, 3), 2),
    ((1, 2, 4, 4), (3, 2, 3, 3), 1),
] + [
    ((2, 2, kd + 2, 4, 4), (2, 2, kd, 3, 3), 0) for kd in range(1, 8)
] + [
    ((2, 2, 5, 5, 5), (2, 2, 3, 3, 3), 1),
    ((2, 2, 7, 5, 5), (3, 2, 3, 2, 3), 2),
    ((1, 2, 9, 4, 4), (2, 2, 5, 3, 3), 1),
] + [
    ((2, 6, 5, 5), (2, 6, 3, 3), 1),                  # scatter form
    ((2, 6, 3, 5, 5), (2, 6, 1, 3, 3), 1),            # gather form: 3-D never scatters
]


def conv_case_id(case):
    """`x<input>-k<kernel>-s1-p<padding>`: every conv runs at stride 1."""
    x_shape, k_shape, padding = case
    kernel = "x".join(map(str, k_shape[2:]))
    return f"x{'x'.join(map(str, x_shape))}-k{kernel}-s1-p{padding}"


@pytest.mark.parametrize("wrt", ["input", "kernel"])
@pytest.mark.parametrize("x_shape,k_shape,padding", CONV_GRAD_CASES,
                         ids=[conv_case_id(c) for c in CONV_GRAD_CASES])
def test_conv_gradient_battery(x_shape, k_shape, padding, wrt):
    r = rng(13)
    conv = T.conv3d if len(k_shape) == 5 else T.conv2d
    x = Tensor(r.normal(size=x_shape), requires_grad=True)
    k = Tensor(r.normal(size=k_shape) * 0.4, requires_grad=True)
    weights = Tensor(r.normal(size=conv(x, k, padding=padding).shape))

    def loss(c):
        return tape_sum(c * weights) + (c * c).mean()

    if wrt == "input":
        err = finite_diff_check(lambda t: loss(conv(t, k, padding=padding)), x,
                                max_coords=60, seed=1)
    else:
        err = finite_diff_check(lambda t: loss(conv(x, t, padding=padding)), k,
                                max_coords=60, seed=2)
    assert err < 1e-4


def zeros(*shape):
    return Tensor(np.zeros(shape))


def shared_windows():
    """Two overlapping 5x5 windows of one 2-channel 7x7 map."""
    return T.MapWindows(zeros(1, 2, 7, 7), np.array([[0, 0, 0], [0, 1, 2]]), 5)


# Calls outside the convs' contract, and the error and text each must raise:
# stride 1 only, batched inputs only, one int padding >= 0 for h and w.
REFUSED_CONVS = {
    "conv2d-stride-2": (lambda: T.conv2d(zeros(1, 2, 5, 5), zeros(3, 2, 3, 3), stride=2),
                        ConfigError, "stride 2"),
    "conv3d-stride-2": (lambda: T.conv3d(zeros(1, 2, 5, 5, 5), zeros(3, 2, 3, 3, 3), stride=2),
                        ConfigError, "stride 2"),
    "map-windows-stride-2": (
        lambda: T.conv2d(shared_windows(), zeros(3, 2, 3, 3), stride=2, padding=1),
        ConfigError, "stride 2"),
    "conv2d-unbatched": (lambda: T.conv2d(zeros(2, 5, 5), zeros(3, 2, 3, 3)),
                         ShapeError, "(2, 5, 5)"),
    "conv3d-unbatched": (lambda: T.conv3d(zeros(2, 5, 5, 5), zeros(3, 2, 3, 3, 3)),
                         ShapeError, "(2, 5, 5, 5)"),
    "conv2d-negative-padding": (
        lambda: T.conv2d(zeros(1, 2, 5, 5), zeros(3, 2, 3, 3), padding=-1),
        ConfigError, "padding -1"),
    "conv3d-negative-padding": (
        lambda: T.conv3d(zeros(1, 2, 5, 5, 5), zeros(3, 2, 3, 3, 3), padding=-1),
        ConfigError, "padding -1"),
    "map-windows-negative-padding": (
        lambda: T.conv2d(shared_windows(), zeros(3, 2, 3, 3), padding=-1),
        ConfigError, "padding -1"),
    "conv3d-map-windows": (lambda: T.conv3d(shared_windows(), zeros(3, 2, 1, 3, 3), padding=1),
                           ShapeError, "conv3d"),
}


@pytest.mark.parametrize("case", list(REFUSED_CONVS))
def test_conv_refuses_calls_outside_its_contract(case):
    call, error, text = REFUSED_CONVS[case]
    with pytest.raises(error, match=re.escape(text)):
        call()


@pytest.mark.parametrize("x_shape,k_shape", [((2, 3, 7, 5, 5), (4, 3, 3, 3, 3)),
                                             ((2, 3, 5, 5), (4, 3, 3, 3))])
def test_input_without_gradient_gets_none(x_shape, k_shape):
    """A conv whose input needs no gradient leaves `x.grad` unset, with the
    same kernel gradient bit for bit as when the input needs one."""
    r = rng(11)
    conv = T.conv3d if len(k_shape) == 5 else T.conv2d
    x = r.normal(size=x_shape)
    k = r.normal(size=k_shape)
    g = r.normal(size=conv(Tensor(x), Tensor(k), padding=1).shape)
    grads = {}
    for needs in (True, False):
        xt = Tensor(x, requires_grad=needs)
        kt = Tensor(k, requires_grad=True)
        tape_sum(conv(xt, kt, padding=1) * Tensor(g)).backward()
        grads[needs] = xt.grad, kt.grad
    assert grads[True][0] is not None and grads[False][0] is None
    assert np.array_equal(grads[True][1], grads[False][1])


def test_conv3d_forward_holds_a_compact_lowering():
    """At HSI block2's paper shape (batch 128, float32), what one recorded
    forward leaves allocated stays within its output plus one chunk of
    columns: the tape keeps no column buffer, as the backward spreads the
    columns again from the input. The whole batch's columns are 41 MiB, and
    a lowering over all kd·kh·kw taps holds 180 MiB."""
    r = rng(12)
    x_shape, k_shape = (128, 8, 24, 9, 9), (16, 8, 5, 3, 3)
    x = Tensor(r.standard_normal(x_shape, dtype=np.float32), dtype=np.float32)
    k = Tensor(r.standard_normal(k_shape, dtype=np.float32), requires_grad=True,
               dtype=np.float32)
    chunk_bytes = gather_chunk(x_shape, k_shape, 0, 4) * column_bytes(
        (1,) + x_shape[1:], k_shape, 0, 4)
    tracemalloc.start()
    try:
        out = T.conv3d(x, k)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (128, 16, 20, 7, 7) and out.requires_grad
    assert column_bytes(x_shape, k_shape, 0, 4) > 40 * 2 ** 20
    assert held <= out.data.nbytes + chunk_bytes


def test_conv2d_block4_forward_holds_no_column_buffer():
    """At HSI block4's paper shape (batch 128, float32), what one forward
    leaves allocated stays within 16 MiB: the scatter form's tape keeps no
    buffer beyond its (576, 576) kernel matrix. The gather form's column
    buffer alone is 66 MiB."""
    r = rng(35)
    x = Tensor(r.standard_normal((128, 576, 5, 5), dtype=np.float32), dtype=np.float32)
    k = Tensor(r.standard_normal((64, 576, 3, 3), dtype=np.float32), requires_grad=True,
               dtype=np.float32)
    tracemalloc.start()
    try:
        out = T.conv2d(x, k, padding=1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (128, 64, 5, 5) and out.requires_grad
    assert held <= 16 * 2 ** 20


def whole_batch_columns(x, w, padding):
    """The whole-batch lowering's operands: the input padded on h and w as
    `(n, cin, depth, h, w)`, the column buffer `(cin, kh, kw, n, depth, ho,
    wo)`, whose rows are in `(cin, kh, kw)` order, and `wk[a]`, the kernel
    at spectral offset a as a `(cout, cin·kh·kw)` matrix."""
    x5 = x if x.ndim == 5 else x[:, :, None]
    w5 = w if w.ndim == 5 else w[:, :, None]
    n, cin, depth, h, wd = x5.shape
    cout, _, kd, kh, kw = w5.shape
    ho, wo = h + 2 * padding - kh + 1, wd + 2 * padding - kw + 1
    xp = np.pad(x5, [(0, 0)] * 3 + [(padding, padding)] * 2)
    cols = np.zeros((cin, kh, kw, n, depth, ho, wo), dtype=x.dtype)
    for i, j in itertools.product(range(kh), range(kw)):
        cols[:, i, j] = xp[:, :, :, i:i + ho, j:j + wo].swapaxes(0, 1)
    wk = np.ascontiguousarray(w5.transpose(2, 0, 1, 3, 4)).reshape(kd, cout, -1)
    return xp, cols, wk


def gather_whole_batch(x, w, padding):
    """The gather form's forward over the whole batch at once, as it ran
    before it went a chunk of samples at a time: one column buffer, then
    `wk[a] @ cols[:, :, a:a + do]` summed over the `kd` spectral offsets."""
    _, cols, wk = whole_batch_columns(x, w, padding)
    kd, cout, rows = wk.shape
    _, _, _, n, depth, ho, wo = cols.shape
    do = depth - kd + 1
    cols = cols.reshape(rows, n, depth, ho * wo)
    out = wk[0] @ cols[:, :, :do].reshape(rows, n, -1).swapaxes(0, 1)
    for a in range(1, kd):
        out += wk[a] @ cols[:, :, a:a + do].reshape(rows, n, -1).swapaxes(0, 1)
    return out.reshape((n, cout) + ((do,) if x.ndim == 5 else ()) + (ho, wo))


def gather_whole_batch_backward(x, w, g, padding):
    """Both gradients of the whole-batch lowering for output gradient `g`, as
    the sweep deposits them: `gs @ colsᵀ` for the kernel, where block a of
    `gs` is `g` at depth offset a, and `wkᵀ @ gs` for the columns, whose
    taps are then added back onto the padded input in tap order."""
    xp, cols, wk = whole_batch_columns(x, w, padding)
    kd, cout, rows = wk.shape
    cin, kh, kw, n, depth, ho, wo = cols.shape
    do = depth - kd + 1
    gs = np.zeros((kd, cout, n, depth, ho * wo), dtype=g.dtype)
    for a in range(kd):
        gs[a, :, :, a:a + do] = g.reshape(n, cout, do, ho * wo).swapaxes(0, 1)
    gs = gs.reshape(kd * cout, -1)
    gw = (gs @ cols.reshape(rows, -1).T).reshape(kd, cout, cin, kh, kw)
    gcols = (wk.reshape(kd * cout, rows).T @ gs).reshape(cols.shape)
    gxp = np.zeros_like(xp)
    for i, j in itertools.product(range(kh), range(kw)):
        gxp[:, :, :, i:i + ho, j:j + wo] += gcols[:, i, j].swapaxes(0, 1)
    h, wd = xp.shape[-2] - 2 * padding, xp.shape[-1] - 2 * padding
    gx = gxp[:, :, :, padding:padding + h, padding:padding + wd].reshape(x.shape)
    # The sweep deposits `zeros + g`, which turns -0.0 into +0.0.
    return 0.0 + gx, 0.0 + gw.transpose(1, 2, 0, 3, 4).reshape(w.shape)


# The three HSI 3-D blocks at the paper geometry, and HSI block4 at the
# acceptance geometry (32 channels of 1x1, padded by 1), where it takes the
# gather form and reads zero padding on 8 of its 9 taps.
GATHER_CASES = MODEL_CONV_SHAPES[:3] + [((2, 32, 1, 1), (64, 32, 3, 3), 1)]
GATHER_BLOCKS = ["hsi.block1", "hsi.block2", "hsi.block3", "hsi.block4-acceptance"]


def gather_chunk(x_shape, k_shape, padding, itemsize):
    """Samples per chunk of the gather forward: as many as fit their column
    blocks in `T._CHUNK_BYTES`, and at least one."""
    return max(1, T._CHUNK_BYTES // column_bytes((1,) + x_shape[1:], k_shape, padding, itemsize))


@pytest.mark.parametrize("record", [False, True], ids=["no-tape", "tape"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,padding", GATHER_CASES, ids=GATHER_BLOCKS)
def test_gather_form_bit_equals_the_whole_batch_lowering(x_shape, k_shape, padding, dtype,
                                                         record):
    """Over a batch of two whole chunks and a partial third (a third whole
    one when a chunk is one sample), the chunked gather forward, whose
    chunks share one buffer whose padding must stay zero, gives the bytes of
    the whole-batch lowering. With a tape, both gradients, from columns the
    backward spreads again from the input, give the bytes of that
    lowering's backward."""
    chunk = gather_chunk(x_shape, k_shape, padding, np.dtype(dtype).itemsize)
    n = 2 * chunk + chunk // 2 + 1
    r = rng(36)
    x = r.standard_normal((n,) + x_shape[1:]).astype(dtype)
    k = (r.standard_normal(k_shape) / np.sqrt(np.prod(k_shape[1:]))).astype(dtype)
    conv = T.conv3d if len(k_shape) == 5 else T.conv2d
    xt = Tensor(x, requires_grad=record, dtype=dtype)
    kt = Tensor(k, requires_grad=record, dtype=dtype)
    out = conv(xt, kt, padding=padding)
    want = gather_whole_batch(x, k, padding)
    assert out.requires_grad == record
    assert out.data.dtype == want.dtype == dtype and out.data.tobytes() == want.tobytes()
    if record:
        g = r.standard_normal(out.shape).astype(dtype)
        tape_sum(out * Tensor(g, dtype=dtype)).backward()
        for got, ref in zip((xt.grad, kt.grad), gather_whole_batch_backward(x, k, g, padding)):
            assert got.dtype == ref.dtype == dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,k_shape,padding", GATHER_CASES, ids=GATHER_BLOCKS)
def test_gather_form_batched_equals_per_sample(x_shape, k_shape, padding, dtype):
    """A sample's output is the same bytes in a batch of 37, split into
    chunks, as alone."""
    r = rng(37)
    x = r.standard_normal((37,) + x_shape[1:]).astype(dtype)
    k = (r.standard_normal(k_shape) / np.sqrt(np.prod(k_shape[1:]))).astype(dtype)
    conv = T.conv3d if len(k_shape) == 5 else T.conv2d
    with T.no_grad():
        full = conv(Tensor(x, dtype=dtype), Tensor(k, dtype=dtype), padding=padding).data
        for i in range(37):
            single = conv(Tensor(x[i:i + 1], dtype=dtype), Tensor(k, dtype=dtype),
                          padding=padding).data
            assert np.array_equal(full[i:i + 1], single)


def test_conv3d_inference_holds_one_chunk():
    """At HSI block2's paper shape (batch 256, float32), a forward under
    `no_grad` peaks within its output plus a few chunks of columns. The
    whole batch's column buffer alone is 82.7 MiB."""
    r = rng(38)
    x_shape, k_shape = (256, 8, 24, 9, 9), (16, 8, 5, 3, 3)
    x = Tensor(r.standard_normal(x_shape, dtype=np.float32), dtype=np.float32)
    k = Tensor(r.standard_normal(k_shape, dtype=np.float32), dtype=np.float32)
    chunk_bytes = gather_chunk(x_shape, k_shape, 0, 4) * column_bytes(
        (1,) + x_shape[1:], k_shape, 0, 4)
    with T.no_grad():
        tracemalloc.start()
        try:
            out = T.conv3d(x, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert out.shape == (256, 16, 20, 7, 7)
    assert column_bytes(x_shape, k_shape, 0, 4) > 80 * 2 ** 20
    assert peak <= out.data.nbytes + 4 * chunk_bytes


# ----------------------------------------------------------------------
# conv over windows of shared maps


# (channels, window side) of HSI block4's input at the paper geometry, where a
# patch batch takes the scatter form, and at the acceptance geometry (13 PCA
# dimensions, patch 7), where it takes the gather form.
BLOCK4_WINDOWS = {"paper": (576, 5), "acceptance": (32, 1)}

# (tiles, extra rows, extra columns of the maps beyond one window, window
# corners): a full 11x11-window tile's corners, edges, centre and a repeated
# window; every window of a ragged 3x7-window tile; two tiles in one batch.
WINDOW_CASES = {
    "full-tile": (1, 10, 10, [[0, 0, 0], [0, 0, 10], [0, 10, 0], [0, 10, 10], [0, 0, 5],
                              [0, 5, 0], [0, 10, 4], [0, 6, 10], [0, 5, 5], [0, 0, 10]]),
    "ragged-tile": (1, 2, 6, [[0, r, c] for r in range(3) for c in range(7)]),
    "two-tiles": (2, 3, 3, [[1, 2, 0], [0, 0, 3], [1, 3, 3], [0, 1, 1], [1, 2, 0]]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
@pytest.mark.parametrize("geometry", sorted(BLOCK4_WINDOWS))
def test_map_windows_conv_within_tolerance(geometry, case, dtype):
    """HSI block4 over windows of shared maps, each window zero-padded on its
    own, lies within the tolerance oracle of the conv over the gathered
    windows, relative to the reference conv on magnitudes."""
    cin, side = BLOCK4_WINDOWS[geometry]
    tiles, rows, cols, index = WINDOW_CASES[case]
    r = rng(41)
    maps = r.normal(size=(tiles, cin, side + rows, side + cols)).astype(dtype)
    k = (r.normal(size=(64, cin, 3, 3)) / np.sqrt(9 * cin)).astype(dtype)
    index = np.array(index)
    got = T.conv2d(T.MapWindows(Tensor(maps, dtype=dtype), index, side),
                   Tensor(k, dtype=dtype), padding=1).data
    windows = T.gather_windows(Tensor(maps, dtype=dtype), index, side).data
    want = T.conv2d(Tensor(windows, dtype=dtype), Tensor(k, dtype=dtype), padding=1).data
    scale = conv_tap_order(np.abs(windows), np.abs(k), padding=1)
    assert got.dtype == dtype and got.shape == want.shape == (len(index), 64, side, side)
    assert np.all(np.abs(got - want) <= CONV_TOL[dtype] * scale)


def whole_map_windows(x):
    """One window per map, covering it: the layout of a patch batch."""
    index = np.zeros((x.shape[0], 3), dtype=int)
    index[:, 0] = np.arange(x.shape[0])
    return T.MapWindows(x, index, x.shape[2])


def test_whole_map_windows_refuse_a_gradient():
    """Windows that cover their maps whole take the shared-map path like any
    others: a patch batch to train on is a plain `Tensor`."""
    r = rng(42)
    x = Tensor(r.normal(size=(3, 6, 5, 5)), requires_grad=True)
    k = Tensor(r.normal(size=(4, 6, 3, 3)))
    windows = whole_map_windows(x)
    with pytest.raises(ContractError):
        T.conv2d(windows, k, padding=1)
    with pytest.raises(ContractError):
        T.gather_windows(x, windows.index, windows.size)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_whole_map_windows_within_tolerance_of_the_plain_conv(dtype):
    r = rng(44)
    x = r.normal(size=(3, 6, 5, 5)).astype(dtype)
    k = r.normal(size=(4, 6, 3, 3)).astype(dtype)
    got = T.conv2d(whole_map_windows(Tensor(x, dtype=dtype)), Tensor(k, dtype=dtype),
                   padding=1).data
    want = T.conv2d(Tensor(x, dtype=dtype), Tensor(k, dtype=dtype), padding=1).data
    scale = conv_tap_order(np.abs(x), np.abs(k), padding=1)
    assert got.dtype == dtype and got.shape == want.shape == (3, 4, 5, 5)
    assert np.all(np.abs(got - want) <= CONV_TOL[dtype] * scale)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_whole_map_windows_at_block4_are_the_plain_conv(dtype):
    """At HSI block4's paper shape, a patch batch and its whole-sample
    windows run the same scatter forward, so they give the same bytes."""
    r = rng(45)
    x = Tensor(r.standard_normal((37, 576, 5, 5)).astype(dtype), dtype=dtype)
    k = Tensor((r.standard_normal((64, 576, 3, 3)) / 48).astype(dtype), dtype=dtype)
    with T.no_grad():
        got = T.conv2d(whole_map_windows(x), k, padding=1).data
        want = T.conv2d(x, k, padding=1).data
    assert got.dtype == want.dtype == dtype and np.array_equal(got, want)


def test_map_windows_len_and_shape():
    """`perfbench/spans.py` counts a forward's samples with `len` and a
    conv's work from `shape`, the gathered windows' shape."""
    windows = T.MapWindows(zeros(2, 6, 9, 8), np.array([[0, 0, 0], [1, 4, 3], [1, 2, 1]]), 5)
    assert len(windows) == 3
    assert windows.shape == (3, 6, 5, 5)


def test_map_windows_conv_is_inference_only():
    """The shared-map conv records no tape: it refuses kernels that need a
    gradient unless gradients are off."""
    r = rng(43)
    maps = Tensor(r.normal(size=(1, 6, 7, 7)))
    k = Tensor(r.normal(size=(4, 6, 3, 3)), requires_grad=True)
    windows = T.MapWindows(maps, np.array([[0, 0, 0], [0, 1, 2]]), 5)
    with pytest.raises(ContractError):
        T.conv2d(windows, k, padding=1)
    with T.no_grad():
        assert not T.conv2d(windows, k, padding=1).requires_grad


# ----------------------------------------------------------------------
# batch norm


class TestBatchNorm:
    def test_standardized_input_passes_through(self):
        x = np.array([[-1.0, 1.0], [1.0, -1.0]])  # each channel zero-mean, unit-var
        out = T.batch_norm_relu(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, np.maximum(x, 0), atol=np.sqrt(1e-5))

    def test_gamma_zero_gives_beta(self):
        x = Tensor(rng(0).normal(size=(4, 3, 2, 2)))
        beta = np.array([1.0, -2.0, 0.5])
        out = T.batch_norm_relu(x, Tensor(np.zeros(3)), Tensor(beta))
        expected = beta.reshape(1, 3, 1, 1) * np.ones_like(x.data)
        assert np.allclose(out.data, np.maximum(expected, 0))

    def test_two_point_standardization_oracle(self):
        x = Tensor(np.array([[1.0], [3.0]]))  # batch {1, 3}, one channel
        out = T.batch_norm_relu(Tensor(x.data), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                                eps=1e-12)
        assert np.allclose(out.data.ravel(), np.maximum([-1.0, 1.0], 0), atol=1e-5)

    def test_single_sample_zero_variance_is_zero_not_error(self):
        x = Tensor(np.full((1, 2), 7.0))
        out = T.batch_norm_relu(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, 0.0)

    def test_running_stats_momentum(self):
        run_m = np.zeros(1)
        run_v = np.ones(1)
        x = Tensor(np.array([[2.0], [4.0]]))
        T.batch_norm_relu(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                          running_mean=run_m, running_var=run_v, training=True)
        # batch mean 3, biased batch var 1
        assert np.allclose(run_m, [0.9 * 0.0 + 0.1 * 3.0])
        assert np.allclose(run_v, [0.9 * 1.0 + 0.1 * 1.0])

    def test_eval_mode_uses_running_stats(self):
        run_m = np.array([10.0])
        run_v = np.array([4.0])
        x = Tensor(np.array([[12.0]]))
        out = T.batch_norm_relu(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                                running_mean=run_m, running_var=run_v, training=False)
        assert np.allclose(out.data, [(12.0 - 10.0) / np.sqrt(4.0 + 1e-5)])

    @pytest.mark.parametrize("affine", ["gamma", "beta"])
    def test_affine_dtype_other_than_the_input_rejected(self, affine):
        """The scale and shift are applied in place: a float64 `gamma` on
        float32 input would return float32 where the expression gives
        float64, so a dtype mismatch raises instead."""
        x = Tensor(np.ones((2, 3)), dtype=np.float32)
        params = {"gamma": Tensor(np.ones(3), dtype=np.float32),
                  "beta": Tensor(np.zeros(3), dtype=np.float32)}
        params[affine] = Tensor(params[affine].data, dtype=np.float64)
        for training in (True, False):
            with pytest.raises(ShapeError):
                T.batch_norm_relu(x, params["gamma"], params["beta"], np.zeros(3), np.ones(3),
                                  training=training)

    def test_eval_without_running_stats_rejected(self):
        with pytest.raises(ContractError):
            T.batch_norm_relu(Tensor(np.zeros((2, 1))), Tensor(np.ones(1)),
                              Tensor(np.zeros(1)), training=False)


def sub(a, b):
    """`a - b` as its own tape node: the former `Tensor.__sub__`."""
    b = T._wrap(b, a.data.dtype)
    data = T._combine(a.data, b.data, np.subtract, "sub")

    def grad_fn(g):
        return T._unbroadcast(g, a.data.shape), T._unbroadcast(-g, b.data.shape)

    return T._node(data, (a, b), "sub", grad_fn)


def power(x, p):
    """`x ** p` for a constant `p` as its own tape node: the former
    `Tensor.__pow__`."""
    data = x.data ** p

    def grad_fn(g):
        return (g * p * x.data ** (p - 1),)

    return T._node(data, (x,), "pow", grad_fn)


def batch_norm_composed(x, gamma, beta, running_mean=None, running_var=None, training=True,
                        momentum=0.1, eps=1e-5):
    """The former `tensor.batch_norm`, 11 generic tape nodes: with a `relu`
    node after it, the bit-exact reference of `batch_norm_relu`."""
    channels = x.shape[1]
    cshape = (1, channels) + (1,) * (x.ndim - 2)
    axes = (0,) + tuple(range(2, x.ndim))

    if training:
        mean = x.mean(axis=axes, keepdims=True)
        centered = sub(x, mean)
        var = (centered * centered).mean(axis=axes, keepdims=True)
        if running_mean is not None:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean.data.reshape(channels)
        if running_var is not None:
            running_var *= 1.0 - momentum
            running_var += momentum * var.data.reshape(channels)
        inv = power(var + eps, -0.5)
        normalized = centered * inv
    else:
        mean_c = Tensor(running_mean.reshape(cshape), dtype=x.dtype)
        inv_c = Tensor(1.0 / np.sqrt(running_var.reshape(cshape) + eps), dtype=x.dtype)
        normalized = sub(x, mean_c) * inv_c

    return normalized * gamma.reshape(*cshape) + beta.reshape(*cshape)


BN_CASES = {
    "2d": ((16, 3), None),
    "4d": ((6, 3, 5, 5), None),
    "5d": ((4, 3, 6, 5, 5), None),
    "zero-variance-channel": ((6, 3, 5, 5), "constant"),
    "zero-gamma": ((6, 3, 5, 5), "gamma"),
    "x-needs-no-gradient": ((6, 3, 5, 5), "nograd"),
    "dead-channel": ((6, 3, 5, 5), "dead"),
}


@pytest.mark.parametrize("case", list(BN_CASES))
@pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_bit_equals_the_composed_graph(case, training, dtype):
    """Output, the three gradients and both running statistics have the
    bytes of the composed graph followed by a relu node, through a fixed
    cotangent. The fused op gets no outer relu, so the gradients' bytes pin
    its own mask."""
    shape, twist = BN_CASES[case]
    r = rng(21)
    x = (r.normal(size=shape) * 2.0 + 0.5).astype(dtype)
    if twist == "constant":
        x[:, 1] = 3.0
    gamma = (r.normal(size=3) * 0.3 + 1.0).astype(dtype)
    if twist == "gamma":
        gamma[::2] = 0.0
    beta = (r.normal(size=3) * 0.3).astype(dtype)
    stats = (r.normal(size=3).astype(dtype), r.uniform(0.5, 2.0, size=3).astype(dtype))
    cotangent = r.normal(size=shape)
    if twist == "dead":
        # Channel 1 rectifies to zero everywhere under a negative cotangent,
        # so each of its masked gradient entries is -0.0 inside the fused
        # node, where the relu node handed on +0.0: no gradient may show it.
        gamma[1], beta[1] = 0.0, -0.5
        cotangent[:, 1] = -np.abs(cotangent[:, 1])

    def run(norm):
        xt = Tensor(x, requires_grad=twist != "nograd", dtype=dtype)
        gt, bt = (Tensor(a, requires_grad=True, dtype=dtype) for a in (gamma, beta))
        rm, rv = (a.copy() for a in stats)
        out = norm(xt, gt, bt, running_mean=rm, running_var=rv, training=training)
        tape_sum(out * Tensor(cotangent, dtype=dtype)).backward()
        return out.data, xt.grad, gt.grad, bt.grad, rm, rv

    got = run(T.batch_norm_relu)
    want = run(lambda *args, **kw: T.relu(batch_norm_composed(*args, **kw)))
    assert (got[1] is None) == (want[1] is None) == (twist == "nograd")
    for g, w in zip(got, want):
        if w is not None:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_batch_norm_is_one_node_holding_twice_its_input():
    """At HSI block1's paper shape (batch 128, float32), a recorded batch
    norm and its ReLU are one node, and what it leaves allocated, its
    rectified output and the centred input its backward reads, stays within
    2.1× its input. The composed graph of 11 nodes keeps 5×."""
    r = rng(22)
    x = Tensor(r.standard_normal((128, 8, 24, 9, 9), dtype=np.float32), requires_grad=True,
               dtype=np.float32)
    gamma = Tensor(np.ones(8), requires_grad=True, dtype=np.float32)
    beta = Tensor(np.zeros(8), requires_grad=True, dtype=np.float32)
    running = np.zeros(8, dtype=np.float32), np.ones(8, dtype=np.float32)
    tracemalloc.start()
    try:
        out = T.batch_norm_relu(x, gamma, beta, *running)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out._op == "batch_norm_relu" and out._parents == (x, gamma, beta)
    assert held <= 2.1 * x.data.nbytes


def eval_batch_norm_case(dtype, requires_grad=False):
    """An eval-mode batch norm's input, affine tensors and running statistics."""
    r = rng(23)
    x = Tensor((r.normal(size=(6, 3, 5, 5)) * 2.0 + 0.5).astype(dtype),
               requires_grad=requires_grad, dtype=dtype)
    gamma, beta = (Tensor((r.normal(size=3) * 0.3 + c).astype(dtype), requires_grad=True,
                          dtype=dtype) for c in (1.0, 0.0))
    stats = dict(running_mean=r.normal(size=3).astype(dtype),
                 running_var=r.uniform(0.5, 2.0, size=3).astype(dtype))
    return x, gamma, beta, stats


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_batch_norm_leaves_its_argument_without_the_keyword(dtype):
    """A public eval-mode call under no_grad allocates its output: the
    argument keeps its bytes, as `finite_diff_check` needs when it reads a
    conv output again after the loss."""
    x, gamma, beta, stats = eval_batch_norm_case(dtype)
    before = x.data.tobytes()
    with T.no_grad():
        out = T.batch_norm_relu(x, gamma, beta, training=False, **stats)
    assert x.data.tobytes() == before
    assert not np.shares_memory(out.data, x.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_batch_norm_overwrites_only_without_a_tape(dtype):
    """With `overwrite=True`, an eval-mode call under no_grad writes the
    allocating path's bytes over its argument."""
    x, gamma, beta, stats = eval_batch_norm_case(dtype)
    with T.no_grad():
        want = T.batch_norm_relu(x, gamma, beta, training=False, **stats).data
        out = T.batch_norm_relu(x, gamma, beta, training=False, overwrite=True, **stats)
    assert out.data is x.data and out._grad_fn is None
    assert out.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_batch_norm_centres_over_its_argument(dtype):
    """With `overwrite=True` and a tape, a training-mode call writes the
    centred input over its argument and keeps its output apart; the output,
    the running statistics and every gradient keep the bytes of a call
    without the keyword."""

    def run(overwrite):
        x, gamma, beta, stats = eval_batch_norm_case(dtype, requires_grad=True)
        before = x.data.copy()
        out = T.batch_norm_relu(x, gamma, beta, training=True, overwrite=overwrite, **stats)
        centred = before - before.mean(axis=(0, 2, 3), keepdims=True)
        assert x.data.tobytes() == (centred if overwrite else before).tobytes()
        assert not np.shares_memory(out.data, x.data)
        tape_sum(out * Tensor(rng(24).normal(size=x.shape), dtype=dtype)).backward()
        return (out.data, x.grad, gamma.grad, beta.grad) + tuple(stats.values())

    for got, want in zip(run(True), run(False)):
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_needs_grad", [True, False], ids=["x-grad", "affine-grad"])
def test_eval_batch_norm_with_a_tape_ignores_the_keyword(x_needs_grad, dtype):
    """With gradients on and an input that needs one, `overwrite=True` is
    ignored: the argument keeps its bytes, and the output and the gradients
    equal those of a call without the keyword."""

    def run(overwrite):
        x, gamma, beta, stats = eval_batch_norm_case(dtype, requires_grad=x_needs_grad)
        before = x.data.tobytes()
        out = T.batch_norm_relu(x, gamma, beta, training=False, overwrite=overwrite, **stats)
        assert x.data.tobytes() == before
        cotangent = Tensor(rng(24).normal(size=x.shape), dtype=dtype)
        tape_sum(out * cotangent).backward()
        return out.data, x.grad, gamma.grad, beta.grad

    got, want = run(True), run(False)
    assert (got[1] is None) == (want[1] is None) == (not x_needs_grad)
    for g, w in zip(got, want):
        if w is not None:
            assert g.tobytes() == w.tobytes()


# ----------------------------------------------------------------------
# activations


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_extremes_are_finite(self):
        out = T.sigmoid(Tensor([-1e4, 1e4]))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [0.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bit_equals_the_two_branch_form(self, dtype):
        """Same bytes as the masked two-branch form on signed zeros,
        infinities, NaNs of both signs, the float32 exp overflow edges and
        random data at scales 1 to 1000."""
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 88.8, -88.8, 104.0, -104.0]
        r = rng(12)
        d = np.concatenate([np.array(special, dtype=dtype)]
                           + [(r.normal(size=2000) * s).astype(dtype) for s in (1, 10, 100, 1000)])
        r.shuffle(d)
        bits = np.uint32 if dtype == np.float32 else np.uint64
        with np.errstate(over="ignore", invalid="ignore"):
            want = sigmoid_two_branch(d)
        got = T.sigmoid(Tensor(d, dtype=dtype)).data
        assert got.dtype == dtype
        assert np.array_equal(got.view(bits), want.view(bits))

    def test_softmax_uniform(self):
        out = T.softmax(Tensor([5.0, 5.0, 5.0]), axis=0)
        assert np.allclose(out.data, np.full(3, 1 / 3))

    def test_softmax_closed_form_oracle(self):
        out = T.softmax(Tensor([0.0, np.log(2.0)]), axis=0)
        assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_sums_to_one(self, seed):
        x = rng(seed).normal(size=(4, 7)) * 10
        out = T.softmax(Tensor(x), axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_shift_invariant(self, seed):
        x = rng(seed).normal(size=(3, 5))
        a = T.softmax(Tensor(x), axis=1).data
        b = T.softmax(Tensor(x + 123.456), axis=1).data
        assert np.allclose(a, b, atol=1e-9)

    def test_relu_clamps(self):
        out = T.relu(Tensor([-2.0, 0.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 3.0])

    def test_relu_keeps_no_mask(self):
        """A recorded relu holds its output and nothing the size of it: the
        backward reads the mask from the output. A kept boolean mask would
        add 1/8 of the output's float64 bytes."""
        x = Tensor(rng(14).normal(size=(64, 32, 32)), requires_grad=True)
        tracemalloc.start()
        try:
            out = T.relu(x)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out._grad_fn is not None
        assert held <= 1.05 * out.data.nbytes
        tape_sum(out).backward()
        assert np.array_equal(x.grad, (x.data > 0).astype(x.dtype))


# ----------------------------------------------------------------------
# structural ops


class TestStructural:
    def test_transpose_involution(self):
        x = Tensor(rng(0).normal(size=(2, 3, 4)))
        back = x.transpose((1, 0, 2)).transpose((1, 0, 2))
        assert np.array_equal(back.data, x.data)

    def test_concat_row_blocks(self):
        a = Tensor(rng(1).normal(size=(3, 5)))
        b = Tensor(rng(2).normal(size=(3, 5)))
        out = T.concat([a, b], axis=0)
        assert out.shape == (6, 5)

    def test_concat_then_slice_roundtrip(self):
        a = rng(3).normal(size=(2, 4))
        b = rng(4).normal(size=(5, 4))
        out = T.concat([Tensor(a), Tensor(b)], axis=0)
        assert np.array_equal(out.data[:2], a)
        assert np.array_equal(out.data[2:], b)

    def test_concat_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)

    @pytest.mark.parametrize("axis", [3, -4])
    def test_concat_axis_out_of_range_rejected(self, axis):
        """An axis past either end raises rather than wrapping modulo ndim,
        which would join two (2, 3, 4) tensors along axis 0 for axis 3."""
        a, b = Tensor(np.zeros((2, 3, 4))), Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError):
            T.concat([a, b], axis=axis)

    def test_mul_by_ones_identity(self):
        x = Tensor(rng(5).normal(size=(3, 3)))
        out = x * Tensor(np.ones((3, 3)))
        assert np.array_equal(out.data, x.data)

    def test_broadcast_add(self):
        x = Tensor(np.zeros((2, 3)))
        out = x + Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_reshape_bad_size_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))).reshape(4, 2)

    def test_transpose_bad_axes_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))).transpose((0, 0))

    def test_gather_windows_equals_slicing(self):
        x = rng(6).normal(size=(3, 2, 6, 7))
        index = np.array([[0, 0, 0], [2, 3, 4], [1, 1, 2], [2, 3, 4]])
        out = T.gather_windows(Tensor(x), index, 3).data
        assert out.shape == (4, 2, 3, 3)
        for got, (t, r, c) in zip(out, index):
            assert np.array_equal(got, x[t, :, r:r + 3, c:c + 3])

    @pytest.mark.parametrize("index", [[[0, 0, 4]], [[0, 4, 0]], [[2, 0, 0]], [[0, -1, 0]]])
    def test_gather_windows_outside_maps_rejected(self, index):
        with pytest.raises(ShapeError):
            T.gather_windows(Tensor(np.zeros((2, 1, 6, 6))), np.array(index), 3)

    def test_gather_windows_refuses_a_gradient(self):
        """Cutting windows from shared maps records no tape node: it refuses
        maps that need a gradient unless gradients are off."""
        x = Tensor(rng(9).normal(size=(1, 2, 6, 6)), requires_grad=True)
        index = np.array([[0, 0, 0], [0, 2, 3]])
        with pytest.raises(ContractError):
            T.gather_windows(x, index, 3)
        with T.no_grad():
            out = T.gather_windows(x, index, 3)
        assert not out.requires_grad
        assert np.array_equal(out.data[1], x.data[0, :, 2:5, 3:6])


# ----------------------------------------------------------------------
# backward


class TestBackward:
    def test_linear_loss_gives_ones(self):
        theta = Tensor(rng(0).normal(size=(3, 4)), requires_grad=True)
        tape_sum(theta).backward()
        assert np.array_equal(theta.grad, np.ones((3, 4)))

    def test_quadratic_oracle(self):
        theta = Tensor([1.0, 2.0], requires_grad=True)
        tape_sum(theta * theta).backward()
        assert np.allclose(theta.grad, [2.0, 4.0])

    def test_unreachable_parameter_grad_stays_zero(self):
        used = Tensor([1.0], requires_grad=True)
        unused = Tensor([1.0], requires_grad=True)
        tape_sum(used).backward()
        assert unused.grad is None or not unused.grad.any()

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            x.backward()

    def test_repeated_backward_accumulates(self):
        theta = Tensor([2.0], requires_grad=True)
        for _ in range(2):
            loss = tape_sum(theta * theta)
            loss.backward()
        assert np.allclose(theta.grad, [8.0])
        theta.grad = None
        tape_sum(theta * theta).backward()
        assert np.allclose(theta.grad, [4.0])

    def test_shared_subexpression_fanout(self):
        # y = x*x + x*x must double the gradient of x*x
        x = Tensor([3.0], requires_grad=True)
        sq = x * x
        tape_sum(sq + sq).backward()
        assert np.allclose(x.grad, [12.0])

    def test_second_backward_on_a_swept_tape_raises(self):
        theta = Tensor([2.0], requires_grad=True)
        loss = tape_sum(theta * theta)
        loss.backward()
        with pytest.raises(ContractError, match="swept once"):
            loss.backward()
        assert np.allclose(theta.grad, [4.0])

    def test_second_root_sharing_a_swept_node_raises(self):
        theta = Tensor([2.0], requires_grad=True)
        sq = theta * theta
        tape_sum(sq).backward()
        with pytest.raises(ContractError, match="swept once"):
            tape_sum(sq * 3.0).backward()
        assert np.allclose(theta.grad, [4.0])

    def test_shared_map_outputs_never_look_freed(self):
        """The shared-map ops record no closure, so with gradients on they may
        only return tensors that need none: a later sweep through them then
        passes instead of refusing a freed node."""
        r = rng(10)
        maps = Tensor(r.normal(size=(1, 2, 7, 7)))
        index = np.array([[0, 0, 0], [0, 1, 2]])
        k = Tensor(r.normal(size=(3, 2, 3, 3)))
        outs = (T.gather_windows(maps, index, 5),
                T.conv2d(T.MapWindows(maps, index, 5), k, padding=1))
        w = Tensor([2.0], requires_grad=True)
        for out in outs:
            assert not out.requires_grad and out._grad_fn is None
            w.grad = None
            tape_sum(out * w).backward()
            assert np.allclose(w.grad, out.data.sum())

    def test_no_grad_suppresses_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = tape_sum(x * x)
        assert y._grad_fn is None and not y.requires_grad

    def test_no_grad_in_one_thread_leaves_another_recording(self):
        """Two threads enter and leave `no_grad` interleaved: the worker
        enters first and leaves while the main thread is inside its own
        block. Each block stops recording in its own thread only, and each
        thread records again once it has left."""
        x = Tensor([1.0], requires_grad=True)
        entered, main_inside, left = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def worker():
            with T.no_grad():
                entered.set()
                main_inside.wait(10)
                seen["worker inside"] = (x * x).requires_grad
            seen["worker after"] = (x * x).requires_grad
            left.set()

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(10)
        seen["main beside the worker's block"] = (x * x).requires_grad
        with T.no_grad():
            main_inside.set()
            assert left.wait(10)
            seen["main inside, the worker gone"] = (x * x).requires_grad
        thread.join(10)
        seen["main after"] = (x * x).requires_grad
        assert seen == {"worker inside": False, "worker after": True,
                        "main beside the worker's block": True,
                        "main inside, the worker gone": False, "main after": True}


# ----------------------------------------------------------------------
# finite differences


class TestFiniteDiff:
    def test_quadratic_is_nearly_exact(self):
        theta = Tensor(rng(0).normal(size=6), requires_grad=True)
        err = finite_diff_check(lambda t: tape_sum(t * t), theta)
        assert err < 1e-7

    def test_constant_function_zero_gradients(self):
        theta = Tensor(rng(1).normal(size=4), requires_grad=True)
        err = finite_diff_check(lambda t: Tensor(1.0) + tape_sum(t * 0.0), theta)
        assert err == 0.0
        assert not theta.grad.any()

    @pytest.mark.parametrize("seed", range(10))
    def test_every_op_battery(self, seed):
        """A composite touching each differentiable op keeps rel error < 1e-4."""
        r = rng(seed)
        theta = Tensor(r.normal(size=(2, 3, 4, 4)) * 0.5, requires_grad=True)
        w2 = Tensor(r.normal(size=(2, 3, 3, 3)) * 0.3)
        mat = Tensor(r.normal(size=(4, 3)) * 0.4)
        bias = Tensor(np.zeros(3))

        def f(t):
            c = T.conv2d(t, w2, stride=1, padding=1)            # (2,2,4,4)
            c = T.relu(c)
            g = T.sigmoid(c.mean(axis=(2, 3)))                  # (2,2)
            s = T.softmax(c.reshape(2, 32), axis=1)             # (2,32)
            m = T.linear(tape_sum(s.reshape(2, 2, 4, 4), axis=1), mat, bias)  # (2,4,3)
            joined = T.concat([m, m * 2.0], axis=2)             # (2,4,6)
            flip = joined.transpose((0, 2, 1))
            total = tape_sum(flip) + tape_sum(g * g)
            return total + tape_sum(t * t) + 1.0

        err = finite_diff_check(f, theta, max_coords=12, seed=seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_conv3d_and_batchnorm_battery(self, seed):
        """Both modes: batch statistics, and the running ones in eval."""
        r = rng(seed + 50)
        theta = Tensor(r.normal(size=(2, 1, 4, 4, 4)) * 0.5, requires_grad=True)
        k = Tensor(r.normal(size=(2, 1, 2, 2, 2)) * 0.4)
        gamma = Tensor(r.normal(size=2) * 0.2 + 1.0, requires_grad=True)
        beta = Tensor(r.normal(size=2) * 0.2, requires_grad=True)
        run_m, run_v = r.normal(size=2) * 0.3, r.uniform(0.5, 2.0, size=2)

        for training in (True, False):
            def f(t):
                c = T.conv3d(t, k)                               # (2,2,3,3,3)
                if training:
                    b = T.batch_norm_relu(c, gamma, beta)
                else:
                    b = T.batch_norm_relu(c, gamma, beta, run_m, run_v, training=False)
                return (b * b).mean() + tape_sum(T.relu(c)) * 0.1

            err = finite_diff_check(f, theta, max_coords=10, seed=seed)
            assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_cross_entropy_battery(self, seed):
        r = rng(seed + 200)
        theta = Tensor(r.normal(size=(4, 5)), requires_grad=True)
        labels = r.integers(0, 5, size=4)
        err = finite_diff_check(lambda t: T.cross_entropy(t, labels), theta)
        assert err < 1e-4


# ----------------------------------------------------------------------
# cross-entropy values


class TestCrossEntropy:
    def test_uniform_logits_log_k(self):
        logits = Tensor(np.zeros((2, 4)), requires_grad=True)
        loss = T.cross_entropy(logits, np.array([0, 3]))
        assert np.allclose(loss.item(), np.log(4.0))

    def test_matches_manual_log_softmax(self):
        r = rng(4)
        z = r.normal(size=(6, 3))
        labels = r.integers(0, 3, size=6)
        loss = T.cross_entropy(Tensor(z), labels).item()
        logp = z - np.log(np.exp(z - z.max(1, keepdims=True)).sum(1, keepdims=True)) - z.max(1, keepdims=True)
        want = -logp[np.arange(6), labels].mean()
        assert np.allclose(loss, want)

    def test_bad_label_rejected(self):
        with pytest.raises(ContractError):
            T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


# ----------------------------------------------------------------------
# dtype and checked mode


def test_default_dtype_switch():
    T.set_default_dtype(np.float32)
    try:
        assert Tensor([1.0]).dtype == np.float32
    finally:
        T.set_default_dtype(np.float64)
    assert Tensor([1.0]).dtype == np.float64


def test_checked_mode_flags_nonfinite(monkeypatch):
    from lsaf.errors import NumericError

    monkeypatch.setattr(T, "_CHECKED", True)
    with pytest.raises(NumericError):
        Tensor([np.inf])


def test_finite_values_invariant_shape():
    t = Tensor(rng(0).normal(size=(2, 3)))
    assert t.size == 6 and t.shape == (2, 3)
    assert np.all(np.isfinite(t.data))
