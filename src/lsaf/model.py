"""The fusion network: dual feature extractors, a linear self-attention
module combining channel and spatial attention, and a learned decision
fusion head.

Layer layout (patch size s, spectral depth r after PCA):

  HSI branch    conv3d 1→8 (7,3,3) → conv3d 8→16 (5,3,3) → conv3d 16→32 (3,3,3)
                → reshape to 2-D maps → conv2d →64 (3,3, pad 1)
  LiDAR branch  conv2d 1→16 (3,3) → conv2d 16→32 → conv2d 32→64

Every conv is followed by batch norm and ReLU. Both branches emit
64×(s−6)×(s−6) maps, `ModelConfig.feature_side` being s−6: the two stacks are
fixed, and `ModelConfig` accepts only a patch and spectral depth they fit.

The attention module gates channels with a sigmoid gate shared between the
two modalities (their transposed features pass through per-modality inner
layers, one shared outer layer, and one sigmoid), re-weights the fused
tensor per spatial position with a softmax, and recalibrates the
concatenated features with a squeeze-and-excite bottleneck. The decision
head classifies each path separately and sums the three logit vectors with
two learned scalar weights on the single-modality paths.

The extractors run over `Windows`: a batch of tiles plus the top-left corner
of each patch window in them. HSI blocks 1-3 and the LiDAR blocks are valid
convolutions, so they run once over each tile. HSI block4 runs its tap
products once over the tile too, then sums each window's (s−6)×(s−6) output
from them as if the window were zero-padded on its own (`tensor.MapWindows`);
a gather cuts each window's LiDAR features, and the attention and the heads
run per window. A plain patch batch is the degenerate case, one tile per
patch and one window covering it, and that is what training runs. Inference
may instead pass whole scene tiles (`train.predict` picks per tile by
`tile_conv_flops`); its logits then agree with per-patch inference within
the convolution tolerance of `tensor.py`, not bit for bit.

Every layer is a `Module`, which names the tensors it holds by attribute
path (`attention.se.fc1.weight`, `fusion.weight_hsi`). Only the extractors
and `LsafModel` rename what they hold: the conv stacks become `block1`,
`block2`, ... and the two extractors `hsi` and `lidar`. These names are the
checkpoint names, and `LsafModel.params` selects a mode's trainable tensors
by their prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, FormatError, ShapeError
from .tensor import Tensor

FEATURE_CHANNELS = 64


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters that fix every tensor shape in the network."""

    num_classes: int
    pca_dims: int = 30
    patch: int = 11
    hidden: int = 128
    se_reduction: int = 4

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}",
                              key="num_classes")
        if self.patch % 2 == 0 or self.patch < 7:
            raise ConfigError(
                f"patch size must be odd and >= 7 (three 3x3 reductions), got {self.patch}",
                key="patch")
        if self.pca_dims < 13:
            raise ConfigError(
                "spectral depth must be >= 13: the three spectral kernels (7, 5, 3) "
                f"consume 12 bands, got {self.pca_dims}", key="pca_dims")
        if self.hidden < 1:
            raise ConfigError(f"hidden width must be positive, got {self.hidden}", key="hidden")
        if self.se_reduction < 1 or (2 * FEATURE_CHANNELS) % self.se_reduction:
            raise ConfigError(
                f"squeeze-excite reduction {self.se_reduction} must divide "
                f"{2 * FEATURE_CHANNELS}", key="se_reduction")

    @property
    def feature_side(self) -> int:
        """Side of both extractors' output maps: three valid 3x3 convs."""
        return self.patch - 6


def kaiming_uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """Uniform init on ±sqrt(6/fan_in): empirical variance 2/fan_in."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ----------------------------------------------------------------------
# layers


class Module:
    """Names the tensors a layer holds by attribute path.

    `tensors` walks the layer's attributes in definition order: a trainable
    `Tensor` is a parameter, an `np.ndarray` is state (batch-norm running
    statistics), and a `Module` nests under its attribute name. A layer that
    holds its sublayers under other names overrides `_children`.
    """

    def _children(self):
        """(name, value) pairs to walk, in checkpoint order."""
        return vars(self).items()

    def tensors(self, prefix: str = ""):
        """Yield (dotted name, Tensor or ndarray) for everything this layer
        and its sublayers hold, depth first."""
        for name, value in self._children():
            if isinstance(value, Module):
                yield from value.tensors(f"{prefix}{name}.")
            elif isinstance(value, np.ndarray) or (
                isinstance(value, Tensor) and value.requires_grad
            ):
                yield f"{prefix}{name}", value


def _numbered(blocks) -> list:
    """Checkpoint names of a block stack: block1, block2, ..."""
    return [(f"block{i}", block) for i, block in enumerate(blocks, start=1)]


class Linear(Module):
    """y = x @ weight + bias over the trailing axis."""

    def __init__(self, rng, in_features: int, out_features: int):
        self.weight = Tensor(
            kaiming_uniform(rng, (in_features, out_features), in_features),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.weight.shape[0]:
            raise ShapeError(
                f"linear layer expects {self.weight.shape[0]} input features, got {x.shape}"
            )
        return x @ self.weight + self.bias


class BatchNorm(Module):
    """Channel-axis batch normalization with running statistics."""

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=T.default_dtype())
        self.running_var = np.ones(channels, dtype=T.default_dtype())

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return T.batch_norm(x, self.gamma, self.beta, running_mean=self.running_mean,
                            running_var=self.running_var, training=training)


class ConvBlock(Module):
    """Convolution (2-D or 3-D by kernel rank, stride 1, `padding` zeros on h
    and w only) + batch norm + ReLU."""

    def __init__(self, rng, in_channels: int, out_channels: int, kernel: tuple, padding=0):
        self.kernel = tuple(kernel)
        self.padding = padding
        fan_in = in_channels * int(np.prod(self.kernel))
        self.kernels = Tensor(
            kaiming_uniform(rng, (out_channels, in_channels) + self.kernel, fan_in),
            requires_grad=True,
        )
        self.bn = BatchNorm(out_channels)
        self._conv = T.conv3d if len(self.kernel) == 3 else T.conv2d

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        out = self._conv(x, self.kernels, padding=self.padding)
        return T.relu(self.bn(out, training))


# ----------------------------------------------------------------------
# feature extractors


@dataclass(frozen=True)
class Windows:
    """Patch windows in a batch of tiles: `tiles` is (t, bands, h, w), and
    row i of the (m, 3) `index` is the (tile, row, col) of window i's
    top-left corner. Each window is patch×patch."""

    tiles: Tensor
    index: np.ndarray

    @classmethod
    def of_patches(cls, patches: Tensor) -> "Windows":
        """One tile per patch, holding one window that covers it."""
        index = np.zeros((patches.shape[0], 3), dtype=np.intp)
        index[:, 0] = np.arange(patches.shape[0])
        return cls(patches, index)

    def __len__(self) -> int:
        return len(self.index)


def _valid_convs_flops(blocks, spatial: tuple) -> int:
    """Forward FLOPs of a stack of unpadded conv blocks on one input."""
    flops = 0
    for block in blocks:
        spatial = tuple(n - k + 1 for n, k in zip(spatial, block.kernel))
        flops += 2 * block.kernels.size * math.prod(spatial)
    return flops


class HsiExtractor(Module):
    """Spectral-spatial stack: three 3-D conv blocks, then one 2-D block
    after folding the spectral axis into channels."""

    def __init__(self, rng, config: ModelConfig):
        self.blocks3d = [
            ConvBlock(rng, 1, 8, (7, 3, 3)),
            ConvBlock(rng, 8, 16, (5, 3, 3)),
            ConvBlock(rng, 16, 32, (3, 3, 3)),
        ]
        spectral = config.pca_dims - sum(block.kernel[0] - 1 for block in self.blocks3d)
        self.block2d = ConvBlock(rng, 32 * spectral, FEATURE_CHANNELS, (3, 3), padding=1)
        self._side = config.feature_side

    def __call__(self, windows: Windows, training: bool) -> Tensor:
        tiles = windows.tiles
        if tiles.ndim != 4:
            raise ShapeError(f"expected (n, bands, h, w) tiles, got {tiles.shape}")
        n, bands, h, w = tiles.shape
        x = tiles.reshape(n, 1, bands, h, w)
        for block in self.blocks3d:
            x = block(x, training)
        n_, c, d, h, w = x.shape
        return self.block2d(T.MapWindows(x.reshape(n_, c * d, h, w), windows.index, self._side),
                            training)

    def _children(self):
        return _numbered(self.blocks3d + [self.block2d])


class LidarExtractor(Module):
    """Three 2-D conv blocks over the single-band elevation patch."""

    def __init__(self, rng, config: ModelConfig):
        self.blocks = [
            ConvBlock(rng, 1, 16, (3, 3)),
            ConvBlock(rng, 16, 32, (3, 3)),
            ConvBlock(rng, 32, FEATURE_CHANNELS, (3, 3)),
        ]
        self._side = config.feature_side

    def __call__(self, windows: Windows, training: bool) -> Tensor:
        x = windows.tiles
        if x.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"expected (n, 1, h, w) tiles, got {x.shape}")
        for block in self.blocks:
            x = block(x, training)
        return T.gather_windows(x, windows.index, self._side)

    def _children(self):
        return _numbered(self.blocks)


# ----------------------------------------------------------------------
# attention


def channel_linear(layer: Linear, x: Tensor) -> Tensor:
    """Apply a linear layer to the channel axis of (n, c, hw) features."""
    return layer(x.transpose((0, 2, 1))).transpose((0, 2, 1))


def concat_transpose(gated_h: Tensor, gated_l: Tensor) -> Tensor:
    """Stack two (n, hw, c) gated maps along channels, back to (n, 2c, hw)."""
    if gated_h.shape != gated_l.shape:
        raise ShapeError(
            f"gated features disagree: {gated_h.shape} vs {gated_l.shape}"
        )
    return T.concat([gated_h, gated_l], axis=2).transpose((0, 2, 1))


def spatial_attention(recalibrated: Tensor, fused: Tensor) -> Tensor:
    """Weight each spatial position: recalibrated ⊙ softmax(fused over hw)."""
    if recalibrated.shape != fused.shape:
        raise ShapeError(
            f"spatial attention inputs disagree: {recalibrated.shape} vs {fused.shape}"
        )
    return recalibrated * T.softmax(fused, axis=-1)


class SqueezeExcite(Module):
    """Global-average squeeze, bottleneck excitation, sigmoid channel gate."""

    def __init__(self, rng, channels: int, reduction: int):
        if channels % reduction:
            raise ConfigError(f"reduction {reduction} must divide {channels} channels")
        self.fc1 = Linear(rng, channels, channels // reduction)
        self.fc2 = Linear(rng, channels // reduction, channels)

    def __call__(self, x: Tensor) -> Tensor:
        squeeze = x.mean(axis=2)  # (n, c)
        excite = T.sigmoid(self.fc2(T.relu(self.fc1(squeeze))))
        n, c = excite.shape
        return x * excite.reshape(n, c, 1)


class LinearSelfAttention(Module):
    """Channel gating + spatial softmax weighting over the fused features.

    All inputs and outputs are (n, c, hw) maps. The channel gate is computed
    once from both modalities and applied to both; the outer layer and the
    sigmoid are shared storage, the inner layers are per-modality.
    """

    def __init__(self, rng, channels: int, se_reduction: int):
        self.channels = channels
        self.pre_hsi = Linear(rng, channels, channels)
        self.pre_lidar = Linear(rng, channels, channels)
        self.pre_joint = Linear(rng, 2 * channels, 2 * channels)
        self.gate_hsi = Linear(rng, channels, channels)
        self.gate_lidar = Linear(rng, channels, channels)
        self.gate_out = Linear(rng, channels, channels)
        self.se = SqueezeExcite(rng, 2 * channels, se_reduction)

    def _check(self, x: Tensor, what: str) -> None:
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise ShapeError(f"{what} must be (n, {self.channels}, hw), got {x.shape}")

    def pre_transform(self, feat_h: Tensor, feat_l: Tensor):
        """Per-modality channel transforms plus the transformed concatenation."""
        self._check(feat_h, "hsi features")
        self._check(feat_l, "lidar features")
        if feat_h.shape != feat_l.shape:
            raise ShapeError(f"feature shapes disagree: {feat_h.shape} vs {feat_l.shape}")
        hat_h = channel_linear(self.pre_hsi, feat_h)
        hat_l = channel_linear(self.pre_lidar, feat_l)
        joint = channel_linear(self.pre_joint, T.concat([feat_h, feat_l], axis=1))
        return hat_h, hat_l, joint

    def channel_attention(self, hat_h: Tensor, hat_l: Tensor):
        """One shared sigmoid gate from both modalities, applied to both.

        Returns the gated maps in (n, hw, c) orientation.
        """
        t_h = hat_h.transpose((0, 2, 1))
        t_l = hat_l.transpose((0, 2, 1))
        gate = T.sigmoid(self.gate_out(self.gate_hsi(t_h) + self.gate_lidar(t_l)))
        return gate * t_h, gate * t_l

    def __call__(self, feat_h: Tensor, feat_l: Tensor) -> Tensor:
        hat_h, hat_l, joint = self.pre_transform(feat_h, feat_l)
        gated_h, gated_l = self.channel_attention(hat_h, hat_l)
        fused = concat_transpose(gated_h, gated_l)
        recalibrated = self.se(joint)
        return spatial_attention(recalibrated, fused)


# ----------------------------------------------------------------------
# classifier heads and fusion


class LinearBlock(Module):
    """flatten → linear → ReLU → linear → class logits."""

    def __init__(self, rng, in_features: int, hidden: int, num_classes: int):
        self.fc1 = Linear(rng, in_features, hidden)
        self.fc2 = Linear(rng, hidden, num_classes)

    def __call__(self, x: Tensor) -> Tensor:
        flat = x.reshape(x.shape[0], -1)
        return self.fc2(T.relu(self.fc1(flat)))


class DecisionFusion(Module):
    """Three per-path classifiers whose logits are summed with learned
    scalar weights on the two single-modality paths."""

    def __init__(self, rng, feature_size: int, hidden: int, num_classes: int):
        self.head_hsi = LinearBlock(rng, feature_size, hidden, num_classes)
        self.head_lidar = LinearBlock(rng, feature_size, hidden, num_classes)
        self.head_fused = LinearBlock(rng, 2 * feature_size, hidden, num_classes)
        self.weight_hsi = Tensor(np.array(1.0), requires_grad=True)
        self.weight_lidar = Tensor(np.array(1.0), requires_grad=True)

    def __call__(self, feat_h: Tensor, feat_l: Tensor, feat_fused: Tensor) -> Tensor:
        """Combined logits: weight_hsi·hsi + weight_lidar·lidar + fused."""
        logits_h = self.head_hsi(feat_h)
        logits_l = self.head_lidar(feat_l)
        logits_f = self.head_fused(feat_fused)
        return self.weight_hsi * logits_h + self.weight_lidar * logits_l + logits_f


# ----------------------------------------------------------------------
# the full model


# Name prefixes of the tensors each mode trains; the key order fixes the
# `meta.mode` codes.
MODE_PARAMS = {
    "full": ("",),
    "hsi": ("hsi.", "fusion.head_hsi."),
    "lidar": ("lidar.", "fusion.head_lidar."),
}
MODES = tuple(MODE_PARAMS)


class LsafModel(Module):
    """The complete network, or a single-branch ablation of it.

    `mode` selects what `forward` computes and which parameters train:
    "full" runs both branches, the attention module, and the fusion head;
    "hsi" / "lidar" run one extractor into its own classifier only.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, mode: str = "full"):
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        self.config = config
        self.mode = mode
        rng = np.random.default_rng(seed)
        self.hsi_extractor = HsiExtractor(rng, config)
        self.lidar_extractor = LidarExtractor(rng, config)
        self.attention = LinearSelfAttention(rng, FEATURE_CHANNELS, config.se_reduction)
        self.fusion = DecisionFusion(rng, FEATURE_CHANNELS * config.feature_side ** 2,
                                     config.hidden, config.num_classes)

    def forward(self, hsi, lidar, training: bool = False) -> Tensor:
        """Class logits (n, K) for a batch of co-located patch pairs, or for
        the windows of co-located scene tiles (`Windows`: eval only, and run
        without a tape, since the shared-map ops record none)."""
        if isinstance(hsi, Windows) or isinstance(lidar, Windows):
            with T.no_grad():
                return self._logits(hsi, lidar, training)
        return self._logits(hsi, lidar, training)

    def _logits(self, hsi, lidar, training: bool) -> Tensor:
        if self.mode == "hsi":
            feat = self.hsi_extractor(self._windows(hsi, training), training)
            return self.fusion.head_hsi(feat.reshape(feat.shape[0], -1))
        if self.mode == "lidar":
            feat = self.lidar_extractor(self._windows(lidar, training), training)
            return self.fusion.head_lidar(feat.reshape(feat.shape[0], -1))
        map_h = self.hsi_extractor(self._windows(hsi, training), training)
        map_l = self.lidar_extractor(self._windows(lidar, training), training)
        n, c, h, w = map_h.shape
        feat_h, feat_l = map_h.reshape(n, c, h * w), map_l.reshape(n, c, h * w)
        fused = self.attention(feat_h, feat_l)
        return self.fusion(feat_h.reshape(n, -1), feat_l.reshape(n, -1), fused.reshape(n, -1))

    def _windows(self, x, training: bool) -> Windows:
        """Patches as the degenerate `Windows`; tile windows pass through."""
        if isinstance(x, Windows):
            if training:
                raise ContractError(
                    "scene tiles are eval-only: training batch norm would take its "
                    "statistics over whole tiles instead of patches"
                )
            return x
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
        side = self.config.patch
        if x.ndim != 4 or x.shape[2:] != (side, side):
            raise ShapeError(f"expected (n, bands, {side}, {side}) patches, got {x.shape}")
        return Windows.of_patches(x)

    def tile_conv_flops(self, height: int, width: int) -> int:
        """Forward FLOPs of the convolutions a scene tile shares between its
        windows, for the branches `mode` runs, over a tile of height×width
        window positions: HSI blocks 1-3 and the LiDAR blocks, and HSI
        block4's tap GEMM over the (height + side − 1)×(width + side − 1)
        positions of the block3 maps, `side` being `feature_side`. A single
        patch is the 1×1 tile, its block4 GEMM over side×side positions."""
        rim = self.config.patch - 1
        flops = 0
        if self.mode != "lidar":
            hsi = self.hsi_extractor
            flops += _valid_convs_flops(
                hsi.blocks3d, (self.config.pca_dims, height + rim, width + rim))
            reach = self.config.feature_side - 1
            flops += 2 * hsi.block2d.kernels.size * (height + reach) * (width + reach)
        if self.mode != "hsi":
            flops += _valid_convs_flops(self.lidar_extractor.blocks, (height + rim, width + rim))
        return flops

    # -- tensor access -------------------------------------------------

    def _children(self):
        return [("hsi", self.hsi_extractor), ("lidar", self.lidar_extractor),
                ("attention", self.attention), ("fusion", self.fusion)]

    def params(self) -> dict:
        """Trainable tensors for the current mode, name → Tensor."""
        trained = MODE_PARAMS[self.mode]
        return {name: t for name, t in self.tensors()
                if isinstance(t, Tensor) and name.startswith(trained)}

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.params().values())

    def state_dict(self) -> dict:
        """All weights, then the batch-norm running statistics, name → array."""
        held = list(self.tensors())
        weights = {name: t.data for name, t in held if isinstance(t, Tensor)}
        stats = {name: t for name, t in held if not isinstance(t, Tensor)}
        return {**weights, **stats}

    def load_state(self, state: dict) -> None:
        """Load weights saved by `state_dict`; extra keys (preprocessing,
        optimizer state) are ignored, a missing or mis-shaped model key fails
        naming the first offending tensor."""
        for name, held in self.tensors():
            if name not in state:
                raise ContractError(f"checkpoint is missing tensor '{name}'")
            incoming = np.asarray(state[name])
            if incoming.shape != held.shape:
                raise ShapeError(
                    f"checkpoint tensor '{name}' has shape {incoming.shape}, "
                    f"model expects {held.shape}"
                )
            if isinstance(held, Tensor):
                held.data = incoming.astype(held.data.dtype)
                held.grad = None
            else:
                held[...] = incoming.astype(held.dtype)


def check_state_geometry(config: ModelConfig, state: dict) -> None:
    """Raise FormatError unless each geometry value equals the dimension it
    fixes in a stored tensor of `state`. Checked before a model is built
    from `config`, so that a hostile value (a `hidden` of 1e12) fails here
    instead of allocating weights no checkpoint could hold."""
    features = FEATURE_CHANNELS * config.feature_side ** 2
    spectral = config.pca_dims - 12  # depth left by the (7, 5, 3) spectral kernels
    dims = (
        ("num_classes", "fusion.head_fused.fc2.weight", 1, config.num_classes),
        ("pca_dims", "hsi.block4.kernels", 1, 32 * spectral),  # 32 maps per depth
        ("patch", "fusion.head_hsi.fc1.weight", 0, features),
        ("hidden", "fusion.head_hsi.fc1.weight", 1, config.hidden),
        ("se_reduction", "attention.se.fc1.weight", 1,
         2 * FEATURE_CHANNELS // config.se_reduction),
    )
    for key, name, axis, size in dims:
        if name not in state:
            raise FormatError(f"checkpoint is missing tensor '{name}'")
        shape = np.shape(state[name])
        if len(shape) <= axis or shape[axis] != size:
            raise FormatError(f"checkpoint meta.{key} {getattr(config, key)} does not match "
                              f"tensor '{name}' of shape {shape}")
