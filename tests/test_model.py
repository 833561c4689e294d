"""Network tests: shape contracts, initialization statistics, and
straight-line numpy oracles for each attention and fusion computation."""

import numpy as np
import pytest

from lsaf import tensor as T
from lsaf.errors import ConfigError, ContractError, ShapeError
from lsaf.model import (
    FEATURE_CHANNELS,
    ConvBlock,
    DecisionFusion,
    LinearSelfAttention,
    LsafModel,
    ModelConfig,
    SqueezeExcite,
    spatial_attention,
)
from lsaf.tensor import Tensor

from gradcheck import tape_sum


def rng(seed):
    return np.random.default_rng(seed)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def small_config(**kw):
    defaults = dict(num_classes=3, pca_dims=13, patch=7, hidden=16)
    defaults.update(kw)
    return ModelConfig(**defaults)


def feature_maps(model, h, l, training=True):
    """Both extractors' output maps for a batch of patches."""
    return model.hsi_extractor(h, training), model.lidar_extractor(l, training)


# ----------------------------------------------------------------------
# configuration and shape contract


class TestShapeContract:
    @pytest.mark.parametrize("patch", [9, 11, 13])
    def test_branches_agree_for_supported_patches(self, patch):
        model = LsafModel(ModelConfig(num_classes=4, pca_dims=16, patch=patch), seed=0)
        side = model.config.feature_side
        assert side == patch - 6
        h = Tensor(rng(patch).normal(size=(2, 16, patch, patch)))
        l = Tensor(rng(patch + 1).normal(size=(2, 1, patch, patch)))
        map_h, map_l = feature_maps(model, h, l)
        assert map_h.shape == map_l.shape == (2, FEATURE_CHANNELS, side, side)
        assert model.forward(h, l, training=True).shape == (2, 4)

    def test_default_config_feature_geometry(self):
        model = LsafModel(ModelConfig(num_classes=15), seed=0)
        assert model.config.pca_dims == 30 and model.config.patch == 11
        assert model.config.feature_side == 5
        assert model.fusion.head_hsi.fc1.weight.shape == (64 * 5 * 5, 128)
        assert model.fusion.head_fused.fc1.weight.shape == (2 * 64 * 5 * 5, 128)

    def test_construction_rejects_small_patch(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=3, pca_dims=16, patch=5)

    def test_construction_rejects_shallow_spectra(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=3, pca_dims=12, patch=9)

    def test_construction_rejects_even_patch(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=3, pca_dims=16, patch=8)

    def test_feature_shapes_from_forward(self):
        config = small_config()
        model = LsafModel(config, seed=1)
        h = Tensor(rng(0).normal(size=(2, 13, 7, 7)))
        l = Tensor(rng(1).normal(size=(2, 1, 7, 7)))
        map_h, map_l = feature_maps(model, h, l)
        assert map_h.shape == map_l.shape == (2, 64, 1, 1)
        assert model.forward(h, l, training=True).shape == (2, 3)

    def test_zero_patches_give_zero_features(self):
        model = LsafModel(small_config(), seed=2)
        h = Tensor(np.zeros((2, 13, 7, 7)))
        l = Tensor(np.zeros((2, 1, 7, 7)))
        map_h, map_l = feature_maps(model, h, l)
        assert not map_h.data.any() and not map_l.data.any()


# ----------------------------------------------------------------------
# initialization


class TestInit:
    def test_seed_reproducibility(self):
        a = LsafModel(small_config(), seed=7)
        b = LsafModel(small_config(), seed=7)
        for name, p in a.params().items():
            assert np.array_equal(p.data, b.params()[name].data), name

    def test_seed_sensitivity(self):
        a = LsafModel(small_config(), seed=7)
        b = LsafModel(small_config(), seed=8)
        assert not np.array_equal(
            a.params()["hsi.block1.kernels"].data, b.params()["hsi.block1.kernels"].data
        )

    def test_fusion_weights_start_at_one(self):
        model = LsafModel(small_config(), seed=0)
        assert model.fusion.weight_hsi.item() == 1.0
        assert model.fusion.weight_lidar.item() == 1.0

    def test_kaiming_variance(self):
        model = LsafModel(ModelConfig(num_classes=4, pca_dims=16, patch=9), seed=3)
        kernels = model.params()["hsi.block4.kernels"].data
        fan_in = kernels.shape[1] * 9
        observed = kernels.var()
        expected = 2.0 / fan_in
        assert abs(observed - expected) / expected < 0.2

    def test_biases_and_bn_defaults(self):
        model = LsafModel(small_config(), seed=0)
        params = model.params()
        assert not params["fusion.head_hsi.fc1.bias"].data.any()
        assert np.all(params["hsi.block1.bn.gamma"].data == 1.0)
        assert not params["hsi.block1.bn.beta"].data.any()

    def test_param_count_reported(self):
        model = LsafModel(small_config(), seed=0)
        assert model.num_params == sum(p.size for p in model.params().values())
        assert model.num_params > 10_000


# ----------------------------------------------------------------------
# attention-module oracles


def make_attention(seed, channels=3, reduction=2):
    return LinearSelfAttention(rng(seed), channels, reduction)


def feats(seed, n=2, c=3, hw=4):
    """Two channel-major (n, c, hw) maps: the attention module's inputs."""
    r = rng(seed)
    return Tensor(r.normal(size=(n, c, hw))), Tensor(r.normal(size=(n, c, hw)))


def positions(seed, n=2, hw=4, c=3):
    """Two position-major (n, hw, c) maps: the layout inside the module."""
    r = rng(seed)
    return Tensor(r.normal(size=(n, hw, c))), Tensor(r.normal(size=(n, hw, c)))


def dense(layer, x):
    return x @ layer.weight.data + layer.bias.data


def attention_reference(att, xh, xl, hat_h=None):
    """The attention module in straight-line numpy, (n, c, hw) in and out.
    A given position-major `hat_h` stands in for the `pre_hsi` output."""
    th, tl = xh.transpose(0, 2, 1), xl.transpose(0, 2, 1)
    if hat_h is None:
        hat_h = dense(att.pre_hsi, th)
    hat_l = dense(att.pre_lidar, tl)
    joint = dense(att.pre_joint, np.concatenate([th, tl], axis=2))
    gate = sigmoid(dense(att.gate_out, dense(att.gate_hsi, hat_h) + dense(att.gate_lidar, hat_l)))
    fused = np.concatenate([gate * hat_h, gate * hat_l], axis=2)
    hidden = np.maximum(dense(att.se.fc1, joint.mean(axis=1)), 0.0)
    excite = sigmoid(dense(att.se.fc2, hidden))
    e = np.exp(fused - fused.max(axis=1, keepdims=True))
    out = joint * excite[:, None, :] * (e / e.sum(axis=1, keepdims=True))
    return out.transpose(0, 2, 1)


class TestPreTransform:
    """The pre-transform layers (`pre_hsi`, `pre_lidar`, `pre_joint`), seen
    through the whole module."""

    def test_identity_weights_pass_through(self):
        """With identity `pre_hsi` weights the module equals its straight-line
        form fed the untransformed HSI map."""
        att = make_attention(0, channels=3)
        att.pre_hsi.weight.data = np.eye(3)
        att.pre_hsi.bias.data[:] = 0.0
        x, y = feats(1)
        want = attention_reference(att, x.data, y.data, hat_h=x.data.transpose(0, 2, 1))
        assert np.abs(att(x, y).data - want).max() < 1e-12

    def test_joint_concat_doubles_channels(self):
        att = make_attention(2, channels=3)
        assert att.pre_joint.weight.shape == (6, 6)
        x, y = feats(3)
        assert att(x, y).shape == (2, 6, 4)

    def test_matches_hand_matmul(self):
        """The module equals its straight-line numpy form within 1e-12."""
        att = make_attention(4, channels=4)
        x, y = feats(5, n=3, c=4, hw=6)
        out = att(x, y)
        assert out.shape == (3, 8, 6)
        assert np.abs(out.data - attention_reference(att, x.data, y.data)).max() < 1e-12

    def test_channel_mismatch_rejected(self):
        att = make_attention(6, channels=3)
        with pytest.raises(ShapeError):  # 4 channels where the layers take 3
            att(Tensor(np.zeros((1, 4, 5))), Tensor(np.zeros((1, 4, 5))))
        with pytest.raises(ShapeError):  # the two modalities disagree
            att(Tensor(np.zeros((1, 3, 5))), Tensor(np.zeros((1, 3, 4))))


class TestChannelAttention:
    def zero_gate_layers(self, att):
        for layer in (att.gate_hsi, att.gate_lidar, att.gate_out):
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0

    def test_zero_weights_force_half_gate(self):
        att = make_attention(0)
        self.zero_gate_layers(att)
        hat_h, hat_l = positions(1)
        out_h, out_l = att.channel_attention(hat_h, hat_l)
        assert np.allclose(out_h.data, 0.5 * hat_h.data)
        assert np.allclose(out_l.data, 0.5 * hat_l.data)

    def test_symmetric_inputs_and_layers_give_equal_outputs(self):
        att = make_attention(2)
        att.gate_lidar.weight.data = att.gate_hsi.weight.data.copy()
        att.gate_lidar.bias.data = att.gate_hsi.bias.data.copy()
        x, _ = positions(3)
        out_h, out_l = att.channel_attention(x, Tensor(x.data.copy()))
        assert np.allclose(out_h.data, out_l.data)

    def test_matches_straight_line_reference(self):
        att = make_attention(4, channels=2)
        hat_h, hat_l = positions(5, n=1, hw=2, c=2)
        out_h, out_l = att.channel_attention(hat_h, hat_l)
        th, tl = hat_h.data, hat_l.data
        pre = (th @ att.gate_hsi.weight.data + att.gate_hsi.bias.data) + (
            tl @ att.gate_lidar.weight.data + att.gate_lidar.bias.data
        )
        gate = sigmoid(pre @ att.gate_out.weight.data + att.gate_out.bias.data)
        assert np.allclose(out_h.data, gate * th, atol=1e-12)
        assert np.allclose(out_l.data, gate * tl, atol=1e-12)

    def test_gate_is_shared_between_modalities(self):
        """The multiplicative gate applied to each modality is the same
        tensor: recover it by dividing output by input."""
        att = make_attention(6)
        hat_h, hat_l = positions(7)
        out_h, out_l = att.channel_attention(hat_h, hat_l)
        gate_from_h = out_h.data / hat_h.data
        gate_from_l = out_l.data / hat_l.data
        assert np.allclose(gate_from_h, gate_from_l, atol=1e-9)


class TestSqueezeExcite:
    def test_zero_weights_halve_input(self):
        se = SqueezeExcite(rng(0), channels=4, reduction=2)
        for layer in (se.fc1, se.fc2):
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        x = Tensor(rng(1).normal(size=(2, 3, 4)))
        assert np.allclose(se(x).data, 0.5 * x.data)

    def test_constant_channel_squeeze(self):
        x = Tensor(np.full((1, 5, 2), 3.25))
        assert np.allclose(x.mean(axis=1).data, 3.25)

    def test_matches_reference_computation(self):
        se = SqueezeExcite(rng(2), channels=4, reduction=2)
        x = Tensor(rng(3).normal(size=(2, 3, 4)))
        got = se(x).data
        squeeze = x.data.mean(axis=1)
        hidden = np.maximum(squeeze @ se.fc1.weight.data + se.fc1.bias.data, 0.0)
        excite = sigmoid(hidden @ se.fc2.weight.data + se.fc2.bias.data)
        assert np.allclose(got, x.data * excite[:, None, :], atol=1e-12)

    def test_bad_reduction_rejected(self):
        with pytest.raises(ConfigError):
            SqueezeExcite(rng(4), channels=4, reduction=3)


class TestSpatialAttention:
    def test_constant_rows_give_uniform_weighting(self):
        recal = Tensor(rng(0).normal(size=(1, 5, 3)))
        fused = Tensor(np.repeat(rng(1).normal(size=(1, 1, 3)), 5, axis=1))
        out = spatial_attention(recal, fused)
        assert np.allclose(out.data, recal.data / 5.0)

    def test_softmax_rows_normalized(self):
        fused = Tensor(rng(2).normal(size=(2, 6, 4)))
        weights = spatial_attention(Tensor(np.ones((2, 6, 4))), fused)
        assert np.allclose(weights.data.sum(axis=1), 1.0, atol=1e-6)

    def test_matches_reference(self):
        recal = Tensor(rng(3).normal(size=(1, 3, 2)))
        fused = Tensor(rng(4).normal(size=(1, 3, 2)))
        got = spatial_attention(recal, fused).data
        e = np.exp(fused.data - fused.data.max(axis=1, keepdims=True))
        want = recal.data * (e / e.sum(axis=1, keepdims=True))
        assert np.allclose(got, want, atol=1e-12)


# ----------------------------------------------------------------------
# the former channel-major attention module: the bit-exact reference


def channel_linear(layer, x):
    """Apply a linear layer to the channel axis of (n, c, hw) features."""
    return layer(x.transpose((0, 2, 1))).transpose((0, 2, 1))


def concat_transpose(gated_h, gated_l):
    """Stack two (n, hw, c) gated maps along channels, back to (n, 2c, hw)."""
    if gated_h.shape != gated_l.shape:
        raise ShapeError(
            f"gated features disagree: {gated_h.shape} vs {gated_l.shape}"
        )
    return T.concat([gated_h, gated_l], axis=2).transpose((0, 2, 1))


def pre_transform(att, feat_h, feat_l):
    """Per-modality channel transforms plus the transformed concatenation."""
    hat_h = channel_linear(att.pre_hsi, feat_h)
    hat_l = channel_linear(att.pre_lidar, feat_l)
    joint = channel_linear(att.pre_joint, T.concat([feat_h, feat_l], axis=1))
    return hat_h, hat_l, joint


def channel_attention(att, hat_h, hat_l):
    """One shared sigmoid gate from both modalities, applied to both.

    Returns the gated maps in (n, hw, c) orientation.
    """
    t_h = hat_h.transpose((0, 2, 1))
    t_l = hat_l.transpose((0, 2, 1))
    gate = T.sigmoid(att.gate_out(att.gate_hsi(t_h) + att.gate_lidar(t_l)))
    return gate * t_h, gate * t_l


def squeeze_excite(se, x):
    """Squeeze-excite over (n, c, hw) maps."""
    squeeze = x.mean(axis=2)  # (n, c)
    excite = T.sigmoid(se.fc2(T.relu(se.fc1(squeeze))))
    n, c = excite.shape
    return x * excite.reshape(n, c, 1)


def channel_major_attention(att, feat_h, feat_l):
    """The former `LinearSelfAttention.__call__`, channel-major (n, c, hw)
    throughout: 9 transposes."""
    hat_h, hat_l, joint = pre_transform(att, feat_h, feat_l)
    gated_h, gated_l = channel_attention(att, hat_h, hat_l)
    fused = concat_transpose(gated_h, gated_l)
    recalibrated = squeeze_excite(att.se, joint)
    return recalibrated * T.softmax(fused, axis=-1)


ATTENTION_CASES = {"paper": (4, 64, 25), "small-c": (3, 5, 4)}


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_bit_equals_the_channel_major_module(case, dtype):
    """Output, both input gradients and all 16 parameter gradients have the
    bytes of the channel-major module, through a fixed cotangent."""
    n, c, hw = ATTENTION_CASES[case]
    prev = T.default_dtype()
    T.set_default_dtype(dtype)
    try:
        att = LinearSelfAttention(rng(30), c, se_reduction=2)
    finally:
        T.set_default_dtype(prev)
    params = [t for _, t in att.tensors()]
    assert len(params) == 16 and all(p.dtype == dtype for p in params)
    r = rng(31)
    xh, xl = (r.normal(size=(n, c, hw)).astype(dtype) for _ in range(2))
    cotangent = r.normal(size=(n, 2 * c, hw))

    def run(module):
        for p in params:
            p.grad = None
        fh, fl = (Tensor(a, requires_grad=True, dtype=dtype) for a in (xh, xl))
        out = module(fh, fl)
        tape_sum(out * Tensor(cotangent, dtype=dtype)).backward()
        return [out.data, fh.grad, fl.grad] + [p.grad for p in params]

    got = run(att)
    want = run(lambda fh, fl: channel_major_attention(att, fh, fl))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == dtype and g.tobytes() == w.tobytes()


def test_attention_without_grad_bit_equals_the_channel_major_module():
    att = make_attention(32, channels=64)
    x, y = feats(33, n=3, c=64, hw=25)
    with T.no_grad():
        got = att(x, y)
        want = channel_major_attention(att, x, y)
    assert not got.requires_grad
    assert got.data.tobytes() == want.data.tobytes()


class TestDecisionFusion:
    def make(self, seed=0, feature_size=6, hidden=5, k=4):
        return DecisionFusion(rng(seed), feature_size, hidden, k)

    def inputs(self, seed=1, n=2, feature_size=6):
        r = rng(seed)
        return (
            Tensor(r.normal(size=(n, feature_size))),
            Tensor(r.normal(size=(n, feature_size))),
            Tensor(r.normal(size=(n, 2 * feature_size))),
        )

    def test_zero_weights_leave_fused_only(self):
        fusion = self.make()
        fusion.weight_hsi.data = np.array(0.0)
        fusion.weight_lidar.data = np.array(0.0)
        in_h, in_l, in_f = self.inputs()
        assert np.allclose(fusion(in_h, in_l, in_f).data, fusion.head_fused(in_f).data)

    def test_single_path_identity(self):
        fusion = self.make(seed=2)
        fusion.weight_lidar.data = np.array(0.0)
        fusion.head_fused.fc2.weight.data[:] = 0.0
        fusion.head_fused.fc2.bias.data[:] = 0.0
        in_h, in_l, in_f = self.inputs(seed=3)
        assert not fusion.head_fused(in_f).data.any()
        assert np.allclose(fusion(in_h, in_l, in_f).data, fusion.head_hsi(in_h).data)

    def test_weighted_sum_formula(self):
        fusion = self.make(seed=4)
        fusion.weight_hsi.data = np.array(0.3)
        fusion.weight_lidar.data = np.array(0.7)
        in_h, in_l, in_f = self.inputs(seed=5)
        want = (0.3 * fusion.head_hsi(in_h).data + 0.7 * fusion.head_lidar(in_l).data
                + fusion.head_fused(in_f).data)
        assert np.allclose(fusion(in_h, in_l, in_f).data, want, atol=1e-12)

    def test_matches_straight_line_heads(self):
        fusion = self.make(seed=6)
        in_h, in_l, in_f = self.inputs(seed=7)
        combined = fusion(in_h, in_l, in_f)
        logits_h = fusion.head_hsi(in_h)

        def head(x, block):
            hidden = np.maximum(x @ block.fc1.weight.data + block.fc1.bias.data, 0.0)
            return hidden @ block.fc2.weight.data + block.fc2.bias.data

        want_h = head(in_h.data, fusion.head_hsi)
        want = (fusion.weight_hsi.data * want_h
                + fusion.weight_lidar.data * head(in_l.data, fusion.head_lidar)
                + head(in_f.data, fusion.head_fused))
        assert np.allclose(logits_h.data, want_h, atol=1e-12)
        assert np.allclose(combined.data, want, atol=1e-12)

    def test_fusion_weights_receive_gradients(self):
        fusion = self.make(seed=8)
        combined = fusion(*self.inputs(seed=9))
        tape_sum(combined * combined).backward()
        assert fusion.weight_hsi.grad is not None and fusion.weight_hsi.grad.any()
        assert fusion.weight_lidar.grad is not None and fusion.weight_lidar.grad.any()


# ----------------------------------------------------------------------
# end-to-end forward


class TestForward:
    def batch(self, seed=0, n=2, config=None):
        config = config or small_config()
        r = rng(seed)
        return (
            Tensor(r.normal(size=(n, config.pca_dims, config.patch, config.patch)) * 0.5),
            Tensor(r.normal(size=(n, 1, config.patch, config.patch)) * 0.5),
        )

    def test_logit_shape(self):
        model = LsafModel(small_config(num_classes=5), seed=0)
        h, l = self.batch()
        assert model.forward(h, l, training=True).shape == (2, 5)

    def test_eval_forward_is_pure(self):
        model = LsafModel(small_config(), seed=1)
        h, l = self.batch(seed=2)
        a = model.forward(h, l, training=False)
        b = model.forward(h, l, training=False)
        assert np.array_equal(a.data, b.data)

    def test_eval_forward_does_not_touch_running_stats(self):
        model = LsafModel(small_config(), seed=3)
        before = model.hsi_extractor.blocks3d[0].bn.running_mean.copy()
        h, l = self.batch(seed=4)
        model.forward(h, l, training=False)
        assert np.array_equal(model.hsi_extractor.blocks3d[0].bn.running_mean, before)

    def test_training_forward_updates_running_stats(self):
        model = LsafModel(small_config(), seed=5)
        before = model.hsi_extractor.blocks3d[0].bn.running_mean.copy()
        h, l = self.batch(seed=6)
        model.forward(h, l, training=True)
        assert not np.array_equal(model.hsi_extractor.blocks3d[0].bn.running_mean, before)

    @pytest.mark.parametrize("kernel, x_shape", [((3, 3, 3), (4, 2, 6, 5, 5)),
                                                 ((3, 3), (4, 2, 5, 5))])
    def test_conv_block_records_two_nodes(self, kernel, x_shape):
        """In training, a ConvBlock adds exactly conv and batch_norm_relu to
        the tape above its input."""
        block = ConvBlock(rng(9), 2, 4, kernel, padding=1)
        x = Tensor(rng(10).normal(size=x_shape), requires_grad=True)
        out = block(x, training=True)
        ops = [node._op for node in T._toposort(out) if node._grad_fn is not None]
        assert ops == [f"conv{len(kernel)}d", "batch_norm_relu"]

    def test_training_step_records_59_nodes(self):
        """A full-mode training step, loss included, records 59 tape nodes.
        Each of the 7 conv blocks' batch norm and ReLU is one node, each of
        the 14 linear layers is one node, the attention module transposes
        its two inputs and its output once, and its joint concatenation
        once."""
        model = LsafModel(small_config(), seed=12)
        h, l = self.batch(seed=13)
        loss = T.cross_entropy(model.forward(h, l, training=True), np.array([0, 2]))
        ops = [node._op for node in T._toposort(loss) if node._grad_fn is not None]
        assert len(ops) == 59
        counts = {op: ops.count(op) for op in ("relu", "batch_norm_relu", "linear", "add",
                                               "transpose")}
        assert counts == {"relu": 4, "batch_norm_relu": 7, "linear": 14, "add": 3,
                          "transpose": 4}

    def test_single_branch_modes(self):
        h, l = self.batch(seed=7)
        for mode in ("hsi", "lidar"):
            model = LsafModel(small_config(), seed=8, mode=mode)
            out = model.forward(h, l, training=True)
            assert out.shape == (2, 3)

    def test_mode_filters_params(self):
        full = LsafModel(small_config(), seed=0).params()
        hsi_only = LsafModel(small_config(), seed=0, mode="hsi").params()
        assert set(hsi_only) < set(full)
        assert not any(name.startswith(("lidar.", "attention.")) for name in hsi_only)
        assert "fusion.head_hsi.fc1.weight" in hsi_only

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            LsafModel(small_config(), mode="both")

    def test_parts_sum_matches_forward(self):
        """Forward is the extractors, the attention and the weighted sum of
        the three heads, each head run on its own path's features."""
        model = LsafModel(small_config(), seed=9)
        h, l = self.batch(seed=10)
        map_h, map_l = feature_maps(model, h, l, training=False)
        n, c = map_h.shape[:2]
        feat_h, feat_l = map_h.reshape(n, c, -1), map_l.reshape(n, c, -1)
        fused = model.attention(feat_h, feat_l)
        fusion = model.fusion
        want = (fusion.weight_hsi.data * fusion.head_hsi(feat_h).data
                + fusion.weight_lidar.data * fusion.head_lidar(feat_l).data
                + fusion.head_fused(fused).data)
        assert np.allclose(model.forward(h, l, training=False).data, want, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logits_independent_of_batch_composition(self, dtype):
        """A pixel's logits are the same whichever batch carries it."""
        prev = T.default_dtype()
        T.set_default_dtype(dtype)
        try:
            config = ModelConfig(num_classes=15)
            model = LsafModel(config, seed=11)
            h, l = self.batch(seed=12, n=128, config=config)
            with T.no_grad():
                whole = model.forward(h, l, training=False).data
                chunks = [
                    model.forward(Tensor(h.data[i:i + 37]), Tensor(l.data[i:i + 37]),
                                  training=False).data
                    for i in range(0, 128, 37)
                ]
        finally:
            T.set_default_dtype(prev)
        assert whole.dtype == dtype
        assert np.array_equal(whole, np.concatenate(chunks))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_blocks_keep_the_allocating_bytes(self, dtype):
        """In eval mode under no_grad, each of the 7 conv blocks writes batch
        norm over its own conv output: the output shares that buffer, its
        bytes equal that conv output run through the allocating batch norm,
        and the block's input is left as it was."""
        prev = T.default_dtype()
        T.set_default_dtype(dtype)
        try:
            model = LsafModel(ModelConfig(num_classes=15), seed=13)
        finally:
            T.set_default_dtype(prev)
        blocks = (model.hsi_extractor.blocks3d + [model.hsi_extractor.block2d]
                  + model.lidar_extractor.blocks)
        inputs = [(9, 1, 30, 11, 11), (9, 8, 24, 9, 9), (9, 16, 20, 7, 7), (9, 576, 5, 5),
                  (9, 1, 11, 11), (9, 16, 9, 9), (9, 32, 7, 7)]
        r = rng(14)
        for block, shape in zip(blocks, inputs):
            bn = block.bn
            bn.running_mean[:] = r.normal(size=bn.running_mean.shape)
            bn.running_var[:] = r.uniform(0.5, 2.0, size=bn.running_var.shape)
            x = Tensor(r.normal(size=shape), dtype=dtype)
            before = x.data.tobytes()
            conv_fn, convs = block._conv, []
            block._conv = lambda *args, **kw: convs.append(conv_fn(*args, **kw)) or convs[-1]
            with T.no_grad():
                got = block(x, False).data
                conv = conv_fn(x, block.kernels, padding=block.padding)
                want = T.batch_norm_relu(conv, bn.gamma, bn.beta, bn.running_mean,
                                         bn.running_var, training=False).data
            assert x.data.tobytes() == before
            assert np.shares_memory(got, convs[0].data)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# state round trips


class TestState:
    def test_round_trip_preserves_forward(self):
        config = small_config()
        src = LsafModel(config, seed=11)
        dst = LsafModel(config, seed=12)
        h = Tensor(rng(13).normal(size=(2, 13, 7, 7)))
        l = Tensor(rng(13).normal(size=(2, 1, 7, 7)))
        before = src.forward(h, l).data
        dst.load_state(src.state_dict())
        assert np.array_equal(dst.forward(h, l).data, before)

    def test_extra_keys_ignored(self):
        model = LsafModel(small_config(), seed=0)
        state = model.state_dict()
        state["pre.pca.mean"] = np.zeros(13)
        model.load_state(state)  # must not raise

    def test_missing_key_named(self):
        model = LsafModel(small_config(), seed=0)
        state = model.state_dict()
        del state["attention.se.fc1.weight"]
        with pytest.raises(ContractError, match="attention.se.fc1.weight"):
            model.load_state(state)

    def test_shape_mismatch_names_first_tensor(self):
        model = LsafModel(small_config(), seed=0)
        state = model.state_dict()
        state["hsi.block2.kernels"] = np.zeros((2, 2))
        with pytest.raises(ShapeError, match="hsi.block2.kernels"):
            model.load_state(state)

    def test_state_dict_includes_running_stats(self):
        model = LsafModel(small_config(), seed=0)
        state = model.state_dict()
        assert "hsi.block1.bn.running_mean" in state
        assert "lidar.block3.bn.running_var" in state
