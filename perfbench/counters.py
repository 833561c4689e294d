"""Work counters computed from shapes and pixel coordinates.

These repeat exactly from run to run, so a later change can cite them as
counts: conv floating-point operations and bytes per block, and the share of
conv output positions that per-patch inference actually needs.
"""

from __future__ import annotations

import math

import numpy as np

# Conv blocks in checkpoint naming order.
BLOCKS = ("hsi.block1", "hsi.block2", "hsi.block3", "hsi.block4",
          "lidar.block1", "lidar.block2", "lidar.block3")


def conv_work(x_shape, w_shape, out_shape, itemsize: int) -> tuple[int, int]:
    """(flop, bytes) of one batched conv forward, computed from shapes.

    flop = 2 · cout · taps · batch · positions, where taps = cin · prod(kernel).
    bytes = input + kernels + output + the (taps × batch·positions) im2col
    buffer, all at `itemsize` bytes per element.
    """
    cout, cin = w_shape[0], w_shape[1]
    taps = cin * math.prod(w_shape[2:])
    batch = x_shape[0] if len(x_shape) == len(w_shape) else 1
    positions = math.prod(out_shape[-(len(w_shape) - 2):])
    flop = 2 * cout * taps * batch * positions
    elements = (math.prod(x_shape) + math.prod(w_shape) + math.prod(out_shape)
                + taps * batch * positions)
    return flop, elements * itemsize


def block_geometry(patch: int) -> dict[str, tuple[int, int, int]]:
    """Per block: (first output offset from the patch centre, output side,
    border width whose outputs read per-patch zero padding).

    HSI blocks 1-3 and the LiDAR blocks are valid 3×3 convs, so block k's
    output side is patch − 2k. HSI block4 is a 3×3 conv with zero padding 1
    on the (patch − 6)-sided maps: its one-pixel output border reads the
    padding, which differs from patch to patch, so it can never be shared.
    """
    half = patch // 2
    geometry = {}
    for k in (1, 2, 3):
        side = patch - 2 * k
        geometry[f"hsi.block{k}"] = (-half + k, side, 0)
        geometry[f"lidar.block{k}"] = (-half + k, side, 0)
    geometry["hsi.block4"] = (-half + 3, patch - 6, 1)
    return geometry


def useful_ratios(predicted) -> dict[str, float]:
    """Distinct conv output positions needed ÷ positions computed, per block.

    `predicted` lists (pixels, patch) for each inference call, `pixels` the
    (n, 2) scene coordinates of the patch centres. Per-patch inference
    computes every output position of every patch; running the conv once
    over the scene would compute each distinct scene position once. The
    spectral axis of the 3-D blocks scales both counts alike and drops out.
    With no inference the ratio is 0.
    """
    predicted = [(np.asarray(p).reshape(-1, 2), s) for p, s in predicted if len(p)]
    out = {}
    for block in BLOCKS:
        needed = computed = 0
        for pixels, patch in predicted:
            offset, side, border = block_geometry(patch)[block]
            computed += len(pixels) * side * side
            inner = side - 2 * border
            needed += len(pixels) * (side * side - inner * inner)
            lo = pixels.min(axis=0) + offset + border
            hi = pixels.max(axis=0) + offset + side - border
            grid = np.zeros(tuple(hi - lo), dtype=bool)
            for row, col in pixels - lo + offset + border:
                grid[row:row + inner, col:col + inner] = True
            needed += int(grid.sum())
        out[block] = needed / computed if computed else 0.0
    return out
