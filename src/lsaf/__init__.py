"""Joint hyperspectral/LiDAR land-cover classification with linear
self-attention fusion: tensors with autodiff, the data pipeline, the fusion
network, training, and a small CLI."""

import logging as _logging
import os as _os
import sys as _sys

# LSAF_THREADS caps the BLAS thread pools; exporting the knobs here works
# only when this package is imported before numpy pulls in its BLAS.
_threads = _os.environ.get("LSAF_THREADS", "")
if _threads.isdigit() and int(_threads) > 0:
    if "numpy" in _sys.modules:
        _logging.getLogger("lsaf").warning(
            "LSAF_THREADS=%s does not cap this process's BLAS threads: numpy was "
            "imported before lsaf and its BLAS has read its thread count", _threads)
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    LsafError,
    NumericError,
    RegistrationError,
    ShapeError,
)
from .tensor import Tensor
from .data import RasterPair, extract_patches, pca_fit, pca_transform, split, synth_generate
from .model import LsafModel, ModelConfig
from .train import MetricsReport, TrainConfig, evaluate, predict, train

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "RasterPair",
    "extract_patches",
    "pca_fit",
    "pca_transform",
    "split",
    "synth_generate",
    "LsafModel",
    "ModelConfig",
    "TrainConfig",
    "train",
    "evaluate",
    "predict",
    "MetricsReport",
    "LsafError",
    "ShapeError",
    "ConfigError",
    "ContractError",
    "FormatError",
    "RegistrationError",
    "NumericError",
    "__version__",
]
