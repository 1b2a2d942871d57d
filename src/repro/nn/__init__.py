"""A from-scratch numpy neural-network substrate.

This package replaces PyTorch for the Fed-MS reproduction: modules with
explicit forward/backward passes, the layers ``SmallCNN`` needs (convolution,
batch norm, ReLU, max pooling), the cross-entropy loss, SGD,
learning-rate schedules (including the form of the Theorem 1 policy) and
flat-vector serialization of model state — the representation every
federated aggregation rule and Byzantine attack in this library operates on.
"""

from . import functional, init
from .layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
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
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "cross_entropy",
    "accuracy",
    "SGD",
    "InverseTimeDecay",
    "to_vector",
    "from_vector",
    "vector_size",
]
