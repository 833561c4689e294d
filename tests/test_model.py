"""Network tests: shape contracts, initialization statistics, and
straight-line numpy oracles for each attention and fusion computation."""

import numpy as np
import pytest

from lsaf import tensor as T
from lsaf.errors import ConfigError, ContractError, ShapeError
from lsaf.model import (
    FEATURE_CHANNELS,
    DecisionFusion,
    LinearSelfAttention,
    LsafModel,
    ModelConfig,
    SqueezeExcite,
    concat_transpose,
    spatial_attention,
)
from lsaf.tensor import Tensor


def rng(seed):
    return np.random.default_rng(seed)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def small_config(**kw):
    defaults = dict(num_classes=3, pca_dims=13, patch=7, hidden=16)
    defaults.update(kw)
    return ModelConfig(**defaults)


# ----------------------------------------------------------------------
# configuration and shape contract


class TestShapeContract:
    @pytest.mark.parametrize("patch", [9, 11, 13])
    def test_branches_agree_for_supported_patches(self, patch):
        model = LsafModel(ModelConfig(num_classes=4, pca_dims=16, patch=patch), seed=0)
        assert model.hsi_extractor.output_shape() == model.lidar_extractor.output_shape()
        assert model.feature_shape == (FEATURE_CHANNELS, patch - 6, patch - 6)

    def test_default_config_feature_geometry(self):
        model = LsafModel(ModelConfig(num_classes=15), seed=0)
        assert model.config.pca_dims == 30 and model.config.patch == 11
        assert model.feature_shape == (64, 5, 5)

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
        feat_h, feat_l = model.extract_features(h, l, training=True)
        assert feat_h.shape == feat_l.shape == (2, 64, 1)

    def test_zero_patches_give_zero_features(self):
        model = LsafModel(small_config(), seed=2)
        h = Tensor(np.zeros((2, 13, 7, 7)))
        l = Tensor(np.zeros((2, 1, 7, 7)))
        feat_h, feat_l = model.extract_features(h, l, training=True)
        assert not feat_h.data.any() and not feat_l.data.any()


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
    r = rng(seed)
    return Tensor(r.normal(size=(n, c, hw))), Tensor(r.normal(size=(n, c, hw)))


class TestPreTransform:
    def test_identity_weights_pass_through(self):
        att = make_attention(0, channels=3)
        att.pre_hsi.weight.data = np.eye(3)
        att.pre_hsi.bias.data[:] = 0.0
        x, y = feats(1)
        hat_h, _, _ = att.pre_transform(x, y)
        assert np.allclose(hat_h.data, x.data)

    def test_joint_concat_doubles_channels(self):
        att = make_attention(2, channels=3)
        x, y = feats(3)
        _, _, joint = att.pre_transform(x, y)
        assert joint.shape == (2, 6, 4)

    def test_matches_hand_matmul(self):
        att = make_attention(4, channels=2)
        x, y = feats(5, n=1, c=2, hw=3)
        hat_h, hat_l, joint = att.pre_transform(x, y)
        want_h = (x.data.transpose(0, 2, 1) @ att.pre_hsi.weight.data
                  + att.pre_hsi.bias.data).transpose(0, 2, 1)
        assert np.allclose(hat_h.data, want_h, atol=1e-12)
        stacked = np.concatenate([x.data, y.data], axis=1)
        want_joint = (stacked.transpose(0, 2, 1) @ att.pre_joint.weight.data
                      + att.pre_joint.bias.data).transpose(0, 2, 1)
        assert np.allclose(joint.data, want_joint, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        att = make_attention(6, channels=3)
        with pytest.raises(ShapeError):
            att.pre_transform(Tensor(np.zeros((1, 4, 5))), Tensor(np.zeros((1, 4, 5))))


class TestChannelAttention:
    def zero_gate_layers(self, att):
        for layer in (att.gate_hsi, att.gate_lidar, att.gate_out):
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0

    def test_zero_weights_force_half_gate(self):
        att = make_attention(0)
        self.zero_gate_layers(att)
        hat_h, hat_l = feats(1)
        out_h, out_l = att.channel_attention(hat_h, hat_l)
        assert np.allclose(out_h.data, 0.5 * hat_h.data.transpose(0, 2, 1))
        assert np.allclose(out_l.data, 0.5 * hat_l.data.transpose(0, 2, 1))

    def test_symmetric_inputs_and_layers_give_equal_outputs(self):
        att = make_attention(2)
        att.gate_lidar.weight.data = att.gate_hsi.weight.data.copy()
        att.gate_lidar.bias.data = att.gate_hsi.bias.data.copy()
        x, _ = feats(3)
        out_h, out_l = att.channel_attention(x, Tensor(x.data.copy()))
        assert np.allclose(out_h.data, out_l.data)

    def test_matches_straight_line_reference(self):
        att = make_attention(4, channels=2)
        hat_h, hat_l = feats(5, n=1, c=2, hw=2)
        out_h, out_l = att.channel_attention(hat_h, hat_l)
        th = hat_h.data.transpose(0, 2, 1)
        tl = hat_l.data.transpose(0, 2, 1)
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
        hat_h, hat_l = feats(7)
        out_h, out_l = att.channel_attention(hat_h, hat_l)
        gate_from_h = out_h.data / hat_h.data.transpose(0, 2, 1)
        gate_from_l = out_l.data / hat_l.data.transpose(0, 2, 1)
        assert np.allclose(gate_from_h, gate_from_l, atol=1e-9)


class TestConcatTranspose:
    def test_rows_recover_first_input(self):
        a = Tensor(rng(0).normal(size=(2, 4, 3)))
        b = Tensor(rng(1).normal(size=(2, 4, 3)))
        out = concat_transpose(a, b)
        assert out.shape == (2, 6, 4)
        assert np.array_equal(out.data[:, :3, :], a.data.transpose(0, 2, 1))
        assert np.array_equal(out.data[:, 3:, :], b.data.transpose(0, 2, 1))

    def test_explicit_tiny_case(self):
        a = Tensor(np.array([[[1.0], [2.0]]]))  # (1, hw=2, c=1)
        b = Tensor(np.array([[[3.0], [4.0]]]))
        out = concat_transpose(a, b)
        assert np.array_equal(out.data, [[[1.0, 2.0], [3.0, 4.0]]])

    def test_zero_inputs(self):
        z = Tensor(np.zeros((1, 5, 2)))
        assert not concat_transpose(z, z).data.any()

    def test_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            concat_transpose(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((1, 4, 3))))


class TestSqueezeExcite:
    def test_zero_weights_halve_input(self):
        se = SqueezeExcite(rng(0), channels=4, reduction=2)
        for layer in (se.fc1, se.fc2):
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        x = Tensor(rng(1).normal(size=(2, 4, 3)))
        assert np.allclose(se(x).data, 0.5 * x.data)

    def test_constant_channel_squeeze(self):
        x = Tensor(np.full((1, 2, 5), 3.25))
        assert np.allclose(x.mean(axis=2).data, 3.25)

    def test_matches_reference_computation(self):
        se = SqueezeExcite(rng(2), channels=4, reduction=2)
        x = Tensor(rng(3).normal(size=(2, 4, 3)))
        got = se(x).data
        squeeze = x.data.mean(axis=2)
        hidden = np.maximum(squeeze @ se.fc1.weight.data + se.fc1.bias.data, 0.0)
        excite = sigmoid(hidden @ se.fc2.weight.data + se.fc2.bias.data)
        assert np.allclose(got, x.data * excite[:, :, None], atol=1e-12)

    def test_bad_reduction_rejected(self):
        with pytest.raises(ConfigError):
            SqueezeExcite(rng(4), channels=4, reduction=3)


class TestSpatialAttention:
    def test_constant_rows_give_uniform_weighting(self):
        recal = Tensor(rng(0).normal(size=(1, 3, 5)))
        fused = Tensor(np.repeat(rng(1).normal(size=(1, 3, 1)), 5, axis=2))
        out = spatial_attention(recal, fused)
        assert np.allclose(out.data, recal.data / 5.0)

    def test_softmax_rows_normalized(self):
        fused = Tensor(rng(2).normal(size=(2, 4, 6)))
        weights = T.softmax(fused, axis=-1)
        assert np.allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_matches_reference(self):
        recal = Tensor(rng(3).normal(size=(1, 2, 3)))
        fused = Tensor(rng(4).normal(size=(1, 2, 3)))
        got = spatial_attention(recal, fused).data
        e = np.exp(fused.data - fused.data.max(axis=-1, keepdims=True))
        want = recal.data * (e / e.sum(axis=-1, keepdims=True))
        assert np.allclose(got, want, atol=1e-12)


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
        combined, _, _, logits_f = fusion(*self.inputs())
        assert np.allclose(combined.data, logits_f.data)

    def test_single_path_identity(self):
        fusion = self.make(seed=2)
        fusion.weight_lidar.data = np.array(0.0)
        fusion.head_fused.fc2.weight.data[:] = 0.0
        fusion.head_fused.fc2.bias.data[:] = 0.0
        combined, logits_h, _, logits_f = fusion(*self.inputs(seed=3))
        assert not logits_f.data.any()
        assert np.allclose(combined.data, logits_h.data)

    def test_weighted_sum_formula(self):
        fusion = self.make(seed=4)
        fusion.weight_hsi.data = np.array(0.3)
        fusion.weight_lidar.data = np.array(0.7)
        combined, logits_h, logits_l, logits_f = fusion(*self.inputs(seed=5))
        want = 0.3 * logits_h.data + 0.7 * logits_l.data + logits_f.data
        assert np.allclose(combined.data, want, atol=1e-12)

    def test_matches_straight_line_heads(self):
        fusion = self.make(seed=6)
        in_h, in_l, in_f = self.inputs(seed=7)
        combined, logits_h, _, _ = fusion(in_h, in_l, in_f)

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
        combined, *_ = fusion(*self.inputs(seed=9))
        (combined * combined).sum().backward()
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
        model = LsafModel(small_config(), seed=9)
        h, l = self.batch(seed=10)
        combined, logits_h, logits_l, logits_f = model.forward_parts(h, l, training=False)
        want = (model.fusion.weight_hsi.data * logits_h.data
                + model.fusion.weight_lidar.data * logits_l.data + logits_f.data)
        assert np.allclose(combined.data, want, atol=1e-12)

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
