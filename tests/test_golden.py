"""Golden guard on checkpoint tensor names and bytes.

The name lists and hashes below were taken from the hand-written naming
code that preceded `model.Module`'s attribute walk; a checkpoint written
today must match them name for name and byte for byte.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from lsaf import cli, storage
from lsaf import tensor as T
from lsaf.model import LsafModel, ModelConfig
from lsaf.train import Adam, TrainConfig

WORLDS = Path(__file__).resolve().parent.parent / "perfbench" / "worlds"

WEIGHTS = [
    "hsi.block1.kernels", "hsi.block1.bn.gamma", "hsi.block1.bn.beta",
    "hsi.block2.kernels", "hsi.block2.bn.gamma", "hsi.block2.bn.beta",
    "hsi.block3.kernels", "hsi.block3.bn.gamma", "hsi.block3.bn.beta",
    "hsi.block4.kernels", "hsi.block4.bn.gamma", "hsi.block4.bn.beta",
    "lidar.block1.kernels", "lidar.block1.bn.gamma", "lidar.block1.bn.beta",
    "lidar.block2.kernels", "lidar.block2.bn.gamma", "lidar.block2.bn.beta",
    "lidar.block3.kernels", "lidar.block3.bn.gamma", "lidar.block3.bn.beta",
    "attention.pre_hsi.weight", "attention.pre_hsi.bias",
    "attention.pre_lidar.weight", "attention.pre_lidar.bias",
    "attention.pre_joint.weight", "attention.pre_joint.bias",
    "attention.gate_hsi.weight", "attention.gate_hsi.bias",
    "attention.gate_lidar.weight", "attention.gate_lidar.bias",
    "attention.gate_out.weight", "attention.gate_out.bias",
    "attention.se.fc1.weight", "attention.se.fc1.bias",
    "attention.se.fc2.weight", "attention.se.fc2.bias",
    "fusion.head_hsi.fc1.weight", "fusion.head_hsi.fc1.bias",
    "fusion.head_hsi.fc2.weight", "fusion.head_hsi.fc2.bias",
    "fusion.head_lidar.fc1.weight", "fusion.head_lidar.fc1.bias",
    "fusion.head_lidar.fc2.weight", "fusion.head_lidar.fc2.bias",
    "fusion.head_fused.fc1.weight", "fusion.head_fused.fc1.bias",
    "fusion.head_fused.fc2.weight", "fusion.head_fused.fc2.bias",
    "fusion.weight_hsi", "fusion.weight_lidar",
]

RUNNING_STATS = [
    "hsi.block1.bn.running_mean", "hsi.block1.bn.running_var",
    "hsi.block2.bn.running_mean", "hsi.block2.bn.running_var",
    "hsi.block3.bn.running_mean", "hsi.block3.bn.running_var",
    "hsi.block4.bn.running_mean", "hsi.block4.bn.running_var",
    "lidar.block1.bn.running_mean", "lidar.block1.bn.running_var",
    "lidar.block2.bn.running_mean", "lidar.block2.bn.running_var",
    "lidar.block3.bn.running_mean", "lidar.block3.bn.running_var",
]

TRAINED = {
    "full": WEIGHTS,
    "hsi": [
        "hsi.block1.kernels", "hsi.block1.bn.gamma", "hsi.block1.bn.beta",
        "hsi.block2.kernels", "hsi.block2.bn.gamma", "hsi.block2.bn.beta",
        "hsi.block3.kernels", "hsi.block3.bn.gamma", "hsi.block3.bn.beta",
        "hsi.block4.kernels", "hsi.block4.bn.gamma", "hsi.block4.bn.beta",
        "fusion.head_hsi.fc1.weight", "fusion.head_hsi.fc1.bias",
        "fusion.head_hsi.fc2.weight", "fusion.head_hsi.fc2.bias",
    ],
    "lidar": [
        "lidar.block1.kernels", "lidar.block1.bn.gamma", "lidar.block1.bn.beta",
        "lidar.block2.kernels", "lidar.block2.bn.gamma", "lidar.block2.bn.beta",
        "lidar.block3.kernels", "lidar.block3.bn.gamma", "lidar.block3.bn.beta",
        "fusion.head_lidar.fc1.weight", "fusion.head_lidar.fc1.bias",
        "fusion.head_lidar.fc2.weight", "fusion.head_lidar.fc2.bias",
    ],
}

# sha256 of the checkpoint of an untrained seed-0 model at the paper geometry
# (15 classes), float32: weights and running statistics, fresh Adam state and
# `meta.*`. Untrained, so no BLAS result enters the bytes.
CHECKPOINT_SHA256 = {
    "full": "7a77a90d7d26a14aa3ce5676c47c4651d48b02a445920993116a0d679312b90f",
    "hsi": "46f781446c776ab4280d2326c75d481f31c1bd90fe8715b79c326b74ce4fdce9",
    "lidar": "fcf1d62c693ca4ffde5d141b1c90d2a5fb4bdef88f71c723790aeb20d8ccf751",
}


@pytest.fixture()
def float32():
    prev = T.default_dtype()
    T.set_default_dtype(np.float32)
    yield
    T.set_default_dtype(prev)


@pytest.mark.parametrize("mode", ["full", "hsi", "lidar"])
def test_names(mode):
    model = LsafModel(ModelConfig(num_classes=15), seed=0, mode=mode)
    assert list(model.state_dict()) == WEIGHTS + RUNNING_STATS
    assert list(model.params()) == TRAINED[mode]


@pytest.mark.parametrize("mode", ["full", "hsi", "lidar"])
def test_checkpoint_bytes(mode, float32, tmp_path):
    model = LsafModel(ModelConfig(num_classes=15), seed=0, mode=mode)
    state = dict(model.state_dict())
    state.update(Adam(model.params(), TrainConfig()).state_dict())
    state.update(cli._model_meta(model, {"seed": 0}, 0))
    path = tmp_path / "checkpoint.lsfw"
    storage.write_checkpoint(path, state)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[mode]


@pytest.mark.parametrize("world", ["map-dense", "eval-sparse"])
def test_world_checkpoint_loads(world, float32):
    state = storage.read_checkpoint(WORLDS / f"{world}.lsfw")
    geometry = ("num_classes", "pca_dims", "patch", "hidden", "se_reduction")
    model = LsafModel(ModelConfig(**{k: int(state[f"meta.{k}"]) for k in geometry}), seed=1)
    model.load_state(state)
    loaded = model.state_dict()
    assert list(loaded) == list(state)[:len(loaded)]
    for name, arr in loaded.items():
        assert np.array_equal(arr, np.asarray(state[name]).astype(arr.dtype)), name
