"""A from-scratch numpy neural-network substrate.

This package replaces PyTorch for the Fed-MS reproduction: modules with
explicit forward/backward passes, the layers MobileNet V2 needs (standard and
depthwise convolutions, batch norm, ReLU6), the cross-entropy loss, SGD,
learning-rate schedules (including the form of the Theorem 1 policy) and
flat-vector serialization of model state — the representation every
federated aggregation rule and Byzantine attack in this library operates on.
"""

from . import functional, init
from .layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
)
from .checkpoint import checkpoint_metadata, load_checkpoint, save_checkpoint
from .losses import accuracy, cross_entropy
from .module import DTYPE, Module, Parameter, Sequential, inference
from .optim import SGD
from .schedules import InverseTimeDecay
from .serialization import from_vector, to_vector, vector_size

__all__ = [
    "DTYPE",
    "functional",
    "init",
    "Module",
    "Parameter",
    "Sequential",
    "inference",
    "Linear",
    "Conv2d",
    "DepthwiseConv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "cross_entropy",
    "accuracy",
    "SGD",
    "InverseTimeDecay",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_metadata",
    "to_vector",
    "from_vector",
    "vector_size",
]
