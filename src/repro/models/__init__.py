"""Training models: small reference models (``SmallCNN`` stands in for the
paper's MobileNet V2, see DESIGN.md)."""

from .simple import MLP, SmallCNN, SoftmaxRegression

__all__ = [
    "SoftmaxRegression",
    "MLP",
    "SmallCNN",
]
