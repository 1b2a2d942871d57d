"""A from-scratch numpy neural-network substrate.

This package replaces PyTorch for the Fed-MS reproduction: modules with
explicit forward/backward passes, the layers MobileNet V2 needs (standard and
depthwise convolutions, batch norm, ReLU6), losses, SGD, learning-rate
schedules (including the exact Theorem 1 policy) and flat-vector
serialization of model state — the representation every federated
aggregation rule and Byzantine attack in this library operates on.
"""

from . import functional, init
from .gradcheck import check_layer_gradients, max_relative_error, numerical_gradient
from .layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    GroupNorm,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
    Sigmoid,
    Tanh,
)
from .checkpoint import checkpoint_metadata, load_checkpoint, save_checkpoint
from .losses import accuracy, cross_entropy, l2_penalty, mse_loss
from .metrics import (
    classification_report,
    confusion_matrix,
    macro_f1,
    per_class_accuracy,
    top_k_accuracy,
)
from .module import Module, Parameter, Sequential, inference
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .schedules import (
    ConstantLR,
    CosineAnnealing,
    InverseTimeDecay,
    LinearWarmup,
    LRSchedule,
    StepDecay,
    theorem1_schedule,
)
from .serialization import (
    clone_module_state,
    from_vector,
    gradient_vector,
    to_vector,
    vector_size,
)

__all__ = [
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
    "GroupNorm",
    "ReLU",
    "ReLU6",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "cross_entropy",
    "mse_loss",
    "l2_penalty",
    "accuracy",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "LRSchedule",
    "ConstantLR",
    "StepDecay",
    "InverseTimeDecay",
    "CosineAnnealing",
    "LinearWarmup",
    "theorem1_schedule",
    "confusion_matrix",
    "per_class_accuracy",
    "top_k_accuracy",
    "macro_f1",
    "classification_report",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_metadata",
    "to_vector",
    "from_vector",
    "vector_size",
    "gradient_vector",
    "clone_module_state",
    "numerical_gradient",
    "check_layer_gradients",
    "max_relative_error",
]
