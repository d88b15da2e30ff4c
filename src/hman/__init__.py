"""Hierarchical multi-scale attention networks for sequence classification."""

from .autodiff import Tensor, backward, no_grad, zero_grad
from .errors import ConfigError, FormatError, TrainingAbort
from .model import HMAN, ModelConfig, batch_sequence_loss

__all__ = [
    "Tensor", "backward", "no_grad", "zero_grad",
    "ConfigError", "FormatError", "TrainingAbort",
    "HMAN", "ModelConfig", "batch_sequence_loss",
]

__version__ = "0.1.0"
