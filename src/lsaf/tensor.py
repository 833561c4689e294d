"""Dense tensors with reverse-mode automatic differentiation.

Everything the network needs runs through the `Tensor` class below: values are
contiguous numpy arrays, and every differentiable operation records a gradient
closure so that `Tensor.backward()` can sweep the tape in reverse topological
order. Gradients land on leaves only. The sweep frees the tape as it goes:
each node drops its closure, its parents and its gradient once used, so a
tape can be swept once. Tensors are plain values and safe to pass between
threads; the tape itself is built and consumed on a single thread, and
whether operations record one is set per thread (`no_grad`).

Dense layouts follow the usual deep-learning conventions: convolutions take
batched `(n, cin, *spatial)` inputs with `(cout, cin, *kernel)` weights, at
stride 1 and zero-padded on h and w only; batch norm normalizes axis 1 and
rectifies its output, as every conv block follows it with a ReLU. In eval
mode without a tape, a caller that alone owns its input may hand that buffer
over, and batch norm writes its output there with the same bytes.

Convolutions lower to BLAS over the two spatial axes only, in one of two
forms that `_conv` picks from shapes alone. The gather form copies each
kernel tap's input slice into a column buffer and multiplies after, adding
one batched matrix product per spectral kernel offset. It spreads and
multiplies a few samples at a time, so each chunk's columns are still in
cache when they are multiplied, and inference holds one chunk's columns
where a tape keeps the whole batch's for the backward. The scatter form,
2-D only, multiplies first: one GEMM over the positions of every map in
the batch, then each window adds its taps' shifted products. A 2-D conv
takes it when its product buffer is smaller than the column buffer, as for
a conv that narrows many channels to few; a patch batch is then the case
of one whole-sample window per map.
`conv2d` also takes `MapWindows`, the one window type: overlapping windows
of shared maps, each zero-padded on its own, which always take the scatter
form, so the GEMM runs once over maps that many windows share. That conv
and `gather_windows` serve inference only and record no tape; a training
batch is a plain `Tensor`. BLAS picks its own summation order, so results
are not bit-equal to naive nested loops. Instead convolutions keep three
promises, which the tests check: each output element, and each element of
both gradients, lies within a dtype-dependent tolerance of a reference
computation, relative to the same computation on magnitudes; a sample's
output does not depend on which other samples share its batch; and a fixed
seed and thread count reproduce every result bit for bit from run to run.
In the scatter form the second promise rests on the BLAS build: one GEMM
runs over all the batch's rows, so a row's bytes must not depend on how
many rows share it. The tests check that on the machine that runs them;
other BLAS builds are unchecked.

Precision defaults to float64; switch to float32 with `set_default_dtype`
when training throughput matters more than gradient-check headroom.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "no_grad",
    "set_default_dtype",
    "default_dtype",
    "linear",
    "concat",
    "relu",
    "sigmoid",
    "softmax",
    "conv2d",
    "conv3d",
    "MapWindows",
    "gather_windows",
    "batch_norm_relu",
    "cross_entropy",
]

_DEFAULT_DTYPE = np.float64

_TAPE = threading.local()  # `off` is True in a thread inside `no_grad`
_CHECKED = os.environ.get("LSAF_CHECKED", "") not in ("", "0")
# Bytes of one chunk's columns in the gather-form conv forward: small enough
# that each chunk's GEMMs read its columns from cache, just after they are
# spread.
_CHUNK_BYTES = 2 ** 20


def set_default_dtype(dtype) -> None:
    """Set the element type used for new tensors (float32 or float64)."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigError(f"unsupported tensor dtype {dt}; use float32 or float64")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


def _recording() -> bool:
    """Whether operations record a tape in this thread."""
    return not getattr(_TAPE, "off", False)


class no_grad:
    """Context manager that disables tape recording inside its block, in the
    thread that enters it only."""

    def __enter__(self):
        self._saved = not _recording()
        _TAPE.off = True
        return self

    def __exit__(self, *exc):
        _TAPE.off = self._saved
        return False


def _assert_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by '{op}'")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing trailing-axis broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A dense n-dimensional array with optional gradient tracking.

    `data` is always a numpy array in the library's default precision unless
    an explicit dtype is given. On a leaf, `grad` stays None until
    `backward()` first deposits a gradient; backward passes over fresh tapes
    accumulate into it until the caller sets it back to None. A recorded
    node's `grad` is None once a sweep has passed it: the sweep frees the
    node, and a second sweep through it raises `ContractError`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._grad_fn: Callable | None = None
        self._op = "leaf"
        if _CHECKED:
            _assert_finite(self.data, "tensor")

    # ------------------------------------------------------------------
    # basic introspection

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # ------------------------------------------------------------------
    # autodiff driver

    def backward(self) -> None:
        """Reverse sweep from a scalar: accumulates `grad` on every reachable
        leaf that requires gradients, and frees the tape as it goes.

        Each recorded node is popped off the order and detached (no closure,
        no parents, `grad` None) before its closure runs, so its captured
        buffers and its gradient are freed once used. The tape can thus be
        swept once: sweeping it again, from this root or from another that
        shares a swept node, raises `ContractError`.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar, got shape {self.shape}"
            )
        order = _toposort(self)
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad = self.grad + np.ones_like(self.data)
        while order:
            node = order.pop()
            grad_fn, parents, grad = node._grad_fn, node._parents, node.grad
            if grad_fn is None:
                continue
            node._grad_fn, node._parents, node.grad = None, (), None
            if grad is not None:
                _deposit(parents, grad_fn(grad))

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        other = _wrap(other, self.data.dtype)
        data = _combine(self.data, other.data, np.add, "add")

        def grad_fn(g):
            return _unbroadcast(g, self.data.shape), _unbroadcast(g, other.data.shape)

        return _node(data, (self, other), "add", grad_fn)

    __radd__ = __add__

    def __mul__(self, other):
        other = _wrap(other, self.data.dtype)
        data = _combine(self.data, other.data, np.multiply, "mul")
        a, b = self, other

        def grad_fn(g):
            return (
                _unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape),
            )

        return _node(data, (a, b), "mul", grad_fn)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # shape manipulation

    def reshape(self, *shape) -> "Tensor":
        old = self.data.shape
        try:
            data = self.data.reshape(shape)
        except ValueError:
            raise ShapeError(f"cannot reshape {old} into {shape}")

        def grad_fn(g):
            return (g.reshape(old),)

        return _node(data, (self,), "reshape", grad_fn)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        if sorted(axes) != list(range(self.ndim)):
            raise ShapeError(
                f"transpose axes {axes} are not a permutation for ndim {self.ndim}"
            )
        inverse = tuple(np.argsort(axes))
        data = self.data.transpose(axes)

        def grad_fn(g):
            return (g.transpose(inverse),)

        return _node(data, (self,), "transpose", grad_fn)

    # ------------------------------------------------------------------
    # reductions

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.mean(axis=axis, keepdims=keepdims)
        shape = self.data.shape
        count = self.data.size if axis is None else _axis_count(shape, axis)

        def grad_fn(g):
            return (_spread(g, shape, axis, keepdims) / count,)

        return _node(data, (self,), "mean", grad_fn)


def _wrap(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype), requires_grad=False, dtype=dtype)


def _combine(a: np.ndarray, b: np.ndarray, ufunc, op: str) -> np.ndarray:
    try:
        return ufunc(a, b)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


def _node(data, parents, op, grad_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    if _recording() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
    if _CHECKED:
        _assert_finite(data, op)
    return out


def _deposit(parents: tuple, grads) -> None:
    """Add each parent's gradient into its `grad`, in parent order. A call of
    its own, so that the last gradient is freed on return, not kept alive
    through the next node's closure."""
    for parent, g in zip(parents, grads):
        if g is None or not parent.requires_grad:
            continue
        if parent.grad is None:
            parent.grad = np.zeros_like(parent.data)
        parent.grad += g


def _toposort(root: Tensor) -> list:
    """Every tensor reachable from `root`, parents before children. Raises
    `ContractError` on a recorded node that an earlier sweep freed."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node.requires_grad and node._op != "leaf" and node._grad_fn is None:
            raise ContractError(f"'{node._op}' node was freed by an earlier backward(): "
                                f"a tape can be swept once; run the forward again")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _axis_count(shape: tuple, axis) -> int:
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    n = 1
    for ax in axes:
        n *= shape[ax]
    return n


def _spread(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction gradient back to the input shape."""
    if axis is None:
        return np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g)
    if not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(ax % len(shape) for ax in axes)
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape).copy()


# ----------------------------------------------------------------------
# linear algebra


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """`x @ weight + bias` as one tape node, with numpy-style broadcasting
    over the leading axes of the product. Its gradients are the numpy
    expressions of the product and the sum taken apart, bit for bit."""
    if x.ndim < 2 or weight.ndim < 2:
        raise ShapeError(f"linear needs 2-D or higher operands, got {x.shape} @ {weight.shape}")
    if x.shape[-1] != weight.shape[-2]:
        raise ShapeError(f"linear inner dimensions disagree: {x.shape} @ {weight.shape}")
    data = _combine(x.data @ weight.data, bias.data, np.add, "linear")

    def grad_fn(g):
        gx = _unbroadcast(g @ np.swapaxes(weight.data, -1, -2), x.data.shape)
        gw = _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, weight.data.shape)
        return gx, gw, _unbroadcast(g, bias.data.shape)

    return _node(data, (x, weight, bias), "linear", grad_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along `axis`; all other axes must agree exactly."""
    if not tensors:
        raise ContractError("concat of an empty sequence")
    first = tensors[0]
    if not -first.ndim <= axis < first.ndim:
        raise ShapeError(f"concat axis {axis} is out of range for ndim {first.ndim}")
    ax = axis % first.ndim
    for t in tensors[1:]:
        if t.ndim != first.ndim or any(
            i != ax and t.shape[i] != first.shape[i] for i in range(first.ndim)
        ):
            raise ShapeError(
                f"concat axis {axis}: shapes {[tuple(t.shape) for t in tensors]} disagree"
            )
    data = np.concatenate([t.data for t in tensors], axis=ax)
    offsets = np.cumsum([t.shape[ax] for t in tensors])[:-1]

    def grad_fn(g):
        return tuple(np.split(g, offsets, axis=ax))

    return _node(data, tuple(tensors), "concat", grad_fn)


# ----------------------------------------------------------------------
# activations


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def grad_fn(g):
        return (g * (data > 0),)

    return _node(data, (x,), "relu", grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    # e = exp(−|x|) never overflows: 1/(1 + e) for x >= 0, e/(1 + e) below,
    # the same exp and division as two masked branches, on every element at
    # once. `minimum` returns its first argument when it is NaN, so a NaN
    # keeps its sign, as it does in the branch form; `−abs` would flip it.
    d = x.data
    e = np.exp(np.minimum(d, -d))
    out = np.where(d >= 0, 1.0, e) / (1.0 + e)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _node(out, (x,), "sigmoid", grad_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`, max-shifted for overflow safety."""
    ax = axis if -x.ndim <= axis < x.ndim else None
    if ax is None:
        raise ShapeError(f"softmax axis {axis} is out of range for ndim {x.ndim}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (x,), "softmax", grad_fn)


# ----------------------------------------------------------------------
# convolution


def conv2d(x: Tensor | MapWindows, kernels: Tensor, stride=1, padding=0) -> Tensor:
    """2-D cross-correlation of `(n, cin, h, w)` inputs with `(cout, cin, kh, kw)`
    kernels, stride 1, zero-padded by the int `padding` on h and w. `x` may also
    be `MapWindows`, each window padded on its own, for inference only.
    `stride` stays only because `perfbench/spans.py` passes it; 1 is all that runs."""
    return _conv(x, kernels, stride, padding, nsp=2)


def conv3d(x: Tensor, kernels: Tensor, stride=1, padding=0) -> Tensor:
    """3-D cross-correlation of `(n, cin, d, h, w)` inputs with `(cout, cin,
    kd, kh, kw)` kernels, stride 1, zero-padded by the int `padding` on h and
    w; depth is never padded. `stride` is kept as in `conv2d`."""
    return _conv(x, kernels, stride, padding, nsp=3)


def _out_spatial(nsp: int, in_sp: tuple, ksz: tuple, stride, padding) -> tuple:
    """Output extent of a stride-1 conv that zero-pads the last two axes by
    `padding`: `n + 2·padding − k + 1`, and `n − k + 1` on a 3-D depth."""
    if stride != 1 or not isinstance(padding, int) or padding < 0:
        raise ConfigError(f"conv{nsp}d runs stride 1 with one int padding >= 0 for h and w; "
                          f"got stride {stride}, padding {padding}")
    pads = (0,) * (len(in_sp) - 2) + (padding, padding)
    out_sp = tuple(n + 2 * p - k + 1 for n, k, p in zip(in_sp, ksz, pads))
    if min(out_sp) < 1:
        raise ConfigError(f"conv{nsp}d kernel {ksz} exceeds input {in_sp} padded by {padding}")
    return out_sp


def _links(k: int, pad: int, n: int, m: int) -> list:
    """Along one axis, kernel offset `i` links output `o` to unpadded input
    `o + i − pad`. For each offset whose links are not all padding:
    `(i, outputs, inputs)`, the slice of the `m` outputs whose input lies
    inside the `n` inputs and the slice of those inputs."""
    links = []
    for i in range(k):
        lo, hi = max(0, pad - i), min(m, n + pad - i)
        if hi > lo:
            links.append((i, slice(lo, hi), slice(lo + i - pad, hi + i - pad)))
    return links


def _spread_taps(dst: np.ndarray, src: np.ndarray, taps: list) -> None:
    """`dst[i, j][..., to] = src[..., frm]` for every tap `(i, j, to, frm)`:
    one slice of `src` per tap, into a zeroed `dst` with the taps leading."""
    for i, j, to, frm in taps:
        dst[(i, j, Ellipsis) + to] = src[(Ellipsis,) + frm]


def _fold_taps(dst: np.ndarray, src: np.ndarray, taps: list) -> None:
    """`dst[..., to] += src[i, j][..., frm]` for every tap `(i, j, to, frm)`,
    in tap order: the adjoint of `_spread_taps`."""
    for i, j, to, frm in taps:
        dst[(Ellipsis,) + to] += src[(i, j, Ellipsis) + frm]


def _conv(x: Tensor | MapWindows, w: Tensor, stride, padding, nsp: int) -> Tensor:
    """Stride-1 cross-correlation of batched `x` with `w` over the last `nsp`
    axes, zero-padded on the last two.

    A 2-D conv runs as the depth-1, `kd = 1` case of a 3-D one, and only the
    two spatial axes are lowered, in one of two forms. Both are built from
    the same taps over unpadded positions: `_spread_taps` copies one slice
    per `kh×kw` tap into a buffer with the taps as rows, and `_fold_taps`
    adds the taps' slices back up.

    The gather form spreads the input into `cols`, rows in `(cin, kh, kw)`
    order and one column block of `ho·wo` per (sample, depth). Spectral
    offset `a` of the kernel then reads the column blocks `a … a + do − 1`,
    so the output is the sum over the `kd` offsets of `w[:, :, a]` times
    those columns, each a batched GEMM with one product per sample. It runs
    a chunk of samples at a time, whose columns fit in `_CHUNK_BYTES`: the
    chunk's GEMMs follow its spread while the columns are in cache. With a
    tape, each chunk is spread into the whole batch's `cols`, which the
    backward reads; without one, every chunk reuses one chunk-sized buffer,
    so inference holds one chunk's columns. Either way each sample's GEMMs
    and their summation order are those of a whole-batch lowering. The
    backward stacks the `kd` depth-shifted copies of the output gradient
    into one matrix, which turns the kernel gradient and the column gradient
    into one GEMM each; the column gradient is then folded onto the input's
    `cin` channels.

    The scatter form, 2-D only, multiplies first: one GEMM over the rows of
    every map, `(t·h·w, cin) @ (cin, kh·kw·cout)`, gives every tap's
    products at every map position, `cout` last. Batch independence there
    rests on the BLAS build giving each row the same bytes whatever the
    row count; the batched-equals-per-sample tests check that on the
    machine that runs them. Each window's output then adds, tap by tap,
    the products at its shifted positions where the tap reads inside the
    window: the taps dropped are exactly the window's zero padding. A
    `MapWindows` runs it over windows of shared maps, for inference only; a
    patch batch is the case where each sample is one window of its own map.
    Its backward spreads the output gradient over the taps, so all tap
    shifting happens on `cout` channels: the input gradient is one GEMM per
    sample from it and the kernel gradient one GEMM over the batch.

    The choice follows from shapes alone. `MapWindows` always take the
    scatter form, and a 2-D conv takes it when its product buffer
    (`kh·kw·cout·n·h·w`) is smaller than the gather form's column buffer
    (`cin·kh·kw·n·ho·wo`), as it is for a conv that narrows many channels to
    few at the same size (HSI block4).
    """
    windows = isinstance(x, MapWindows)
    if windows:
        if nsp != 2:
            raise ShapeError(f"conv{nsp}d takes a batched Tensor; only conv2d runs over MapWindows")
        index = _check_windows("conv2d", x.maps, x.index, x.size, w)
    if w.ndim != nsp + 2:
        raise ShapeError(f"conv{nsp}d kernels must be {nsp + 2}-D, got {w.shape}")
    if len(x.shape) != nsp + 2:
        raise ShapeError(f"conv{nsp}d input must be batched (n, cin, ...), got {x.shape}")
    batch, cin = x.shape[0], x.shape[1]
    cout, wcin = w.shape[0], w.shape[1]
    if wcin != cin:
        raise ShapeError(f"conv{nsp}d channel mismatch: input {cin}, kernels {wcin}")
    out_sp = _out_spatial(nsp, x.shape[2:], w.shape[2:], stride, padding)

    # Give a 2-D conv a depth axis of 1: from here on, everything is 3-D.
    lift = (1,) * (3 - nsp)
    kd, kh, kw = lift + w.shape[2:]
    do, ho, wo = lift + out_sp
    depth, h, wd = lift + x.shape[2:]
    # (i, j, output slices, input slices) of every tap that meets the input.
    taps = [(i, j, (oi, oj), (si, sj))
            for i, oi, si in _links(kh, padding, h, ho)
            for j, oj, sj in _links(kw, padding, wd, wo)]
    inward = [(i, j, frm, to) for i, j, to, frm in taps]

    if windows or nsp == 2 and cout * h * wd < cin * ho * wo:
        if windows:
            maps, (tile, row, col) = x.maps.data, index.T
        else:
            maps, tile, row, col = x.data, np.arange(batch), 0, 0
        t, _, mh, mw = maps.shape
        prod_cols = kh * kw * cout
        wt = np.ascontiguousarray(w.data.transpose(1, 2, 3, 0)).reshape(cin, prod_cols)
        # One GEMM over every map position of the batch, whose rows are a
        # view for one map. A window adds products of its own map only, so
        # its output depends on its own rows of this GEMM.
        prods = maps.reshape(t, cin, mh * mw).swapaxes(1, 2).reshape(t * mh * mw, cin) @ wt
        # at[k, r, c] is the row of `prods` that holds window k's input (r, c).
        corner = (tile * mh + row) * mw + col
        at = corner[:, None, None] + np.arange(mh * mw).reshape(mh, mw)[:h, :wd]
        out_data = np.zeros((batch, ho, wo, cout), dtype=prods.dtype)
        for i, j, (oi, oj), (si, sj) in taps:
            tap = (i * kw + j) * cout
            out_data[:, oi, oj] += prods[at[:, si, sj], tap:tap + cout]
        out_data = np.ascontiguousarray(out_data.transpose(0, 3, 1, 2))
        if windows:
            return _node(out_data, (x.maps, w), "conv2d", None)

        def grad_fn(g):
            gp = np.zeros((kh, kw, cout, batch, h, wd), dtype=g.dtype)
            _spread_taps(gp, g.swapaxes(0, 1), inward)
            xc = x.data.reshape(batch, cin, -1).swapaxes(0, 1).reshape(cin, -1)
            gw = (gp.reshape(prod_cols, -1) @ xc.T).reshape(kh, kw, cout, cin)
            gw = gw.transpose(2, 3, 0, 1)
            if not x.requires_grad:
                return None, gw
            return (wt @ gp.reshape(prod_cols, batch, -1).swapaxes(0, 1)).reshape(x.shape), gw
    else:
        x5 = x.data.reshape((batch, cin, depth, h, wd))
        rows = cin * kh * kw
        npos = ho * wo
        # Without a tape, every chunk reuses one buffer: no tap writes its
        # padding, so that stays zero from this one `np.zeros`.
        chunk = max(1, _CHUNK_BYTES // (rows * depth * npos * x5.dtype.itemsize))
        record = _recording() and (x.requires_grad or w.requires_grad)
        cols = np.zeros((cin, kh, kw, batch if record else min(chunk, batch), depth, ho, wo),
                        dtype=x5.dtype)

        # wk[a] is w[:, :, a] as a (cout, rows) matrix; offset a reads column
        # blocks a … a + do − 1, a (rows, m, do·npos) view of a chunk of m
        # samples. Batched GEMMs over that view keep one product per sample,
        # so a sample's output does not depend on what else shares its batch
        # or its chunk.
        wk = np.ascontiguousarray(
            w.data.reshape((cout, cin, kd, kh, kw)).transpose(2, 0, 1, 3, 4)
        ).reshape(kd, cout, rows)
        out_data = np.empty((batch, cout, do * npos), dtype=np.result_type(wk, x5))
        for s in range(0, batch, chunk):
            m = min(chunk, batch - s)
            part = cols[:, :, :, s:s + m] if record else cols[:, :, :, :m]
            _spread_taps(part.transpose(1, 2, 0, 3, 4, 5, 6), x5[s:s + m].swapaxes(0, 1), taps)
            part = part.reshape(rows, m, depth, npos)
            out = out_data[s:s + m]
            np.matmul(wk[0], part[:, :, :do].reshape(rows, m, -1).swapaxes(0, 1), out=out)
            for a in range(1, kd):
                out += wk[a] @ part[:, :, a:a + do].reshape(rows, m, -1).swapaxes(0, 1)

        def grad_fn(g):
            # Block a of gs is the output gradient placed at depth offset a, so
            # `gs @ colsᵀ` stacks the kd kernel-gradient slices and `wkᵀ @ gs`
            # sums the kd offsets' contributions to each column.
            gb = g.reshape((batch, cout, do, npos)).swapaxes(0, 1)
            gs = np.zeros((kd, cout, batch, depth, npos), dtype=g.dtype)
            for a in range(kd):
                gs[a, :, :, a:a + do] = gb
            gs = gs.reshape(kd * cout, batch * depth * npos)
            gw = (gs @ cols.reshape(rows, -1).T).reshape(kd, cout, cin, kh, kw)
            gw = gw.transpose(1, 2, 0, 3, 4).reshape(w.shape)
            if not x.requires_grad:
                return None, gw
            gcols = (wk.reshape(kd * cout, rows).T @ gs).reshape(cin, kh, kw, batch, depth, ho, wo)
            gxd = np.zeros((cin, batch, depth, h, wd), dtype=g.dtype)
            _fold_taps(gxd, gcols.transpose(1, 2, 0, 3, 4, 5, 6), inward)
            return gxd.swapaxes(0, 1).reshape(x.shape), gw

    out_data = out_data.reshape((batch, cout) + out_sp)
    return _node(out_data, (x, w), f"conv{nsp}d", grad_fn)


# ----------------------------------------------------------------------
# map windows


@dataclass(frozen=True)
class MapWindows:
    """Square windows of side `size` in `(t, c, h, w)` maps, left uncut: row i
    of the `(m, 3)` integer `index` is the (tile, row, col) of window i's
    top-left corner. For inference only, `conv2d` convolves them as it would
    `gather_windows(maps, index, size)`, in the scatter form with no gather;
    a patch batch is a plain `Tensor`."""

    maps: Tensor
    index: np.ndarray
    size: int

    def __len__(self) -> int:
        return len(self.index)

    @property
    def shape(self) -> tuple:
        """The shape of the gathered windows, `(m, c, size, size)`."""
        return (len(self.index), self.maps.shape[1], self.size, self.size)


def _check_windows(what: str, x: Tensor, index, size: int, *inputs: Tensor) -> np.ndarray:
    """The index as an array, once every window lies inside the maps and no
    input needs a gradient while gradients are on: window ops record no tape."""
    index = np.asarray(index)
    if x.ndim != 4:
        raise ShapeError(f"windows need (t, c, h, w) maps, got {x.shape}")
    if index.ndim != 2 or index.shape[1] != 3 or not np.issubdtype(index.dtype, np.integer):
        raise ShapeError(f"window index must be (m, 3) integers, got {index.shape} {index.dtype}")
    t, _, h, w = x.shape
    tile, row, col = index.T
    if size < 1 or index.size and (
        tile.min() < 0 or tile.max() >= t or row.min() < 0 or col.min() < 0
        or row.max() + size > h or col.max() + size > w
    ):
        raise ShapeError(f"windows of side {size} fall outside maps of shape {x.shape}")
    if _recording() and any(inp.requires_grad for inp in (x, *inputs)):
        raise ContractError(f"{what} over windows of shared maps is inference-only: "
                            f"run it under no_grad, on inputs that need no gradient")
    return index


def gather_windows(x: Tensor, index, size: int) -> Tensor:
    """Square windows cut from `(t, c, h, w)` maps: `(m, c, size, size)`.

    Row i of the `(m, 3)` integer `index` is `(tile, row, col)`, and output
    i is `x[tile, :, row:row + size, col:col + size]`. Windows may overlap
    or repeat. The gather is inference-only: it records no tape node, and
    it raises `ContractError` if gradients are enabled and `x` needs one.
    """
    index = _check_windows("gather_windows", x, index, size)
    tile, row, col = index.T
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (size, size), axis=(2, 3))
    return _node(windows[tile, :, row, col], (x,), "gather_windows", None)


# ----------------------------------------------------------------------
# batch normalization


def batch_norm_relu(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray | None = None,
    running_var: np.ndarray | None = None,
    training: bool = True,
    momentum: float = 0.1,
    eps: float = 1e-5,
    overwrite: bool = False,
) -> Tensor:
    """Normalize axis 1 of `(n, c, *spatial)` input, then apply ReLU.

    Training mode standardizes with batch statistics and, when running
    buffers are supplied, folds them in with the given momentum. Eval mode
    standardizes with the running buffers. A zero-variance batch is floored
    by `eps`, so single-sample batches normalize to zero rather than fail.

    `overwrite=True` hands `x.data` over to the op, which then writes its
    output there; only a caller that alone owns that buffer may set it, as
    `BatchNorm` does for `ConvBlock`'s conv output. It is ignored, and `x.data` left
    untouched, unless the op runs in eval mode and records no tape (gradients
    off, or none of `x`, `gamma` and `beta` needs one). In-place or not, the
    same expressions run in the same order, so the output keeps its bytes.

    One tape node: the forward evaluates the numpy expressions of the
    composed graph and its `relu`, and the backward replays their steps in
    order, so gradients keep their bytes; it reads the ReLU mask from the
    output. A negative gradient masks to -0.0 where the `relu` node handed
    on +0.0, but no zero's sign survives the channel sums and the sweep's
    `zeros + g`. The tape holds the output, the centred input and channel
    vectors. The scale, shift and rectification run in place, so `gamma` and
    `beta` must share the input's dtype.
    """
    if x.ndim < 2:
        raise ShapeError(f"batch_norm_relu expects (n, c, ...) input, got {x.shape}")
    if eps <= 0:
        raise ConfigError(f"batch_norm_relu eps must be positive, got {eps}")
    channels = x.shape[1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeError(
            f"batch_norm_relu affine shapes {gamma.shape}/{beta.shape} do not match "
            f"{channels} channels"
        )
    if gamma.dtype != x.dtype or beta.dtype != x.dtype:
        raise ShapeError(f"batch_norm_relu affine dtypes {gamma.dtype}/{beta.dtype} differ from "
                         f"the input's {x.dtype}")
    cshape = (1, channels) + (1,) * (x.ndim - 2)
    axes = (0,) + tuple(range(2, x.ndim))
    count = _axis_count(x.shape, axes)
    in_place = overwrite and not training and not (
        _recording() and any(t.requires_grad for t in (x, gamma, beta)))

    if training:
        mean = x.data.mean(axis=axes, keepdims=True)
        centered = x.data - mean
        var = (centered * centered).mean(axis=axes, keepdims=True)
        for running, batch in ((running_mean, mean), (running_var, var)):
            if running is not None:
                running *= 1.0 - momentum
                running += momentum * batch.reshape(channels)
        var_eps = var + x.dtype.type(eps)
        inv = var_eps ** -0.5
    else:
        if running_mean is None or running_var is None:
            raise ContractError("eval-mode batch_norm_relu needs running statistics")
        centered = np.subtract(x.data, running_mean.reshape(cshape).astype(x.dtype),
                               out=x.data if in_place else None)
        inv = (1.0 / np.sqrt(running_var.reshape(cshape) + eps)).astype(x.dtype)
    gain = gamma.data.reshape(cshape)
    data = np.multiply(centered, inv, out=centered if in_place else None)
    data *= gain
    data += beta.data.reshape(cshape)
    np.maximum(data, 0, out=data)
    if in_place:
        return _node(data, (x, gamma, beta), "batch_norm_relu", None)

    def grad_fn(g):
        g = g * (data > 0)
        dgamma = _unbroadcast(g * (centered * inv), cshape).reshape(channels)
        dbeta = _unbroadcast(g, cshape).reshape(channels)
        gn = g * gain
        gx = gn * inv
        if training:
            gsq = _unbroadcast(gn * centered, cshape) * -0.5 * var_eps ** -1.5 / count
            gx += gsq * centered
            gx += gsq * centered
            gx += _unbroadcast(-gx, cshape) / count
        return gx, dgamma, dbeta

    return _node(data, (x, gamma, beta), "batch_norm_relu", grad_fn)


# ----------------------------------------------------------------------
# loss


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of `(n, k)` logits against int labels in 0..k-1."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (n, k) logits, got {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise ContractError(f"cross_entropy labels must lie in 0..{k - 1}")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    lse = np.log(ez.sum(axis=1)) + zmax[:, 0]
    nll = lse - z[np.arange(n), labels]
    data = np.asarray(nll.mean(), dtype=z.dtype)

    probs = ez / ez.sum(axis=1, keepdims=True)

    def grad_fn(g):
        gz = probs.copy()
        gz[np.arange(n), labels] -= 1.0
        gz *= g / n
        return (gz,)

    return _node(data, (logits,), "cross_entropy", grad_fn)
