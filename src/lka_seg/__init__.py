"""Desk-scale bilateral segmentation with large-kernel attention.

A from-scratch float64 stack: differentiable tensor engine, decomposed
large-kernel attention blocks, pyramid context, bilateral model, training
loop, static cost analysis, and bit-exact data formats.
"""

from . import engine
from .engine import Parameter, Tensor, no_grad
from .model import ModelConfig, ModelOutputs, build_model, preset_config
from .training import OhemConfig, TrainConfig, train_model

__version__ = "0.1.0"

__all__ = [
    "engine",
    "Tensor",
    "Parameter",
    "no_grad",
    "ModelConfig",
    "ModelOutputs",
    "build_model",
    "preset_config",
    "OhemConfig",
    "TrainConfig",
    "train_model",
    "__version__",
]
