"""Synthetic CIFAR-10 stand-in.

The real CIFAR-10 requires a download, which is unavailable offline, so this
module generates a class-conditional image dataset with the same geometry
(10 classes, 3x32x32, disjoint train/test splits). Each class is defined by a
deterministic *prototype* combining oriented sinusoidal gratings with a
class-specific color cast; samples are noisy, randomly shifted, optionally
flipped draws around the prototype.

The task is calibrated so that the phenomena the paper's evaluation measures
survive the substitution: with the default ``noise_scale=1.5`` a SmallCNN
trained centrally tops out around 76% test accuracy — the same ceiling the
paper reports for MobileNet V2 on the real CIFAR-10 — while a run wrecked by
Byzantine servers collapses to the 10% random-guess floor. See DESIGN.md,
"Substitutions".

If the real CIFAR-10 binary batches are available on disk, prefer
:func:`repro.data.cifar10.load_cifar10`.
"""

from __future__ import annotations

import math
import numbers
from typing import Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..nn.module import DTYPE
from .datasets import ArrayDataset

__all__ = ["SyntheticCifar10Config", "class_prototypes", "make_synthetic_cifar10"]

NUM_CLASSES = 10
IMAGE_SHAPE = (3, 32, 32)
#: Images generated per block. A block is computed in float64 (1.5 MiB
#: at 3x32x32) and rounded once into the split's :data:`DTYPE` array.
GENERATION_BLOCK = 64


class SyntheticCifar10Config:
    """Generation parameters for the synthetic dataset.

    Parameters
    ----------
    noise_scale:
        Standard deviation of the additive Gaussian pixel noise. Larger
        values make the task harder.
    max_shift:
        Maximum absolute circular translation (pixels) applied per sample.
    flip_probability:
        Chance of mirroring a sample horizontally.
    contrast_range:
        Per-sample multiplicative contrast jitter ``(low, high)``.
    """

    def __init__(self, *, noise_scale: float = 1.5, max_shift: int = 3,
                 flip_probability: float = 0.5,
                 contrast_range: Tuple[float, float] = (0.8, 1.2)) -> None:
        if not (math.isfinite(noise_scale) and noise_scale >= 0):
            raise ConfigurationError(
                f"noise_scale must be finite and >= 0, got {noise_scale}")
        if isinstance(max_shift, bool) \
                or not isinstance(max_shift, numbers.Integral) or max_shift < 0:
            raise ConfigurationError(
                f"max_shift must be an integer >= 0, got {max_shift!r}")
        if not 0.0 <= flip_probability <= 1.0:
            raise ConfigurationError(
                f"flip_probability must be in [0, 1], got {flip_probability}"
            )
        low, high = contrast_range
        if not (0 < low <= high and math.isfinite(high)):
            raise ConfigurationError(f"invalid contrast_range {contrast_range}")
        self.noise_scale = float(noise_scale)
        self.max_shift = int(max_shift)
        self.flip_probability = float(flip_probability)
        self.contrast_range = (float(low), float(high))


def class_prototypes() -> np.ndarray:
    """Deterministic class prototype images, shape ``(10, 3, 32, 32)``, in
    the float64 the generator computes in before it rounds.

    Class ``c`` combines a grating at orientation ``c * 18`` degrees with a
    frequency that alternates between classes, and a color cast rotating
    through RGB space. Adjacent classes share similar orientations, so the
    classes are not linearly separable from raw pixels — a useful property
    for making the CNN genuinely learn features.
    """
    height, width = IMAGE_SHAPE[1], IMAGE_SHAPE[2]
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    prototypes = np.zeros((NUM_CLASSES,) + IMAGE_SHAPE, dtype=np.float64)
    for label in range(NUM_CLASSES):
        angle = math.pi * label / NUM_CLASSES
        frequency = 2.0 * math.pi * (2 + label % 3) / width
        phase = 0.7 * label
        axis = xs * math.cos(angle) + ys * math.sin(angle)
        grating = np.sin(frequency * axis + phase)
        # Second, orthogonal component with a different frequency makes the
        # prototype 2-D structured rather than a pure 1-D wave.
        cross_axis = -xs * math.sin(angle) + ys * math.cos(angle)
        grating = grating + 0.5 * np.cos(
            frequency * 1.7 * cross_axis + 1.3 * phase
        )
        for channel in range(3):
            color_gain = 0.6 + 0.4 * math.cos(
                2.0 * math.pi * (label / NUM_CLASSES) + 2.1 * channel
            )
            prototypes[label, channel] = color_gain * grating
    return prototypes


def make_synthetic_cifar10(
    num_train: int = 5000,
    num_test: int = 1000,
    *,
    rng: np.random.Generator,
    config: SyntheticCifar10Config = SyntheticCifar10Config(),
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Generate disjoint train and test splits.

    Labels are balanced (each class receives ``n // 10`` samples, remainders
    spread over the lowest labels). The same generator state never produces
    overlapping train/test samples because all draws are sequential.

    Each split is written once, into one :data:`DTYPE` array,
    ``GENERATION_BLOCK`` rows at a time: a block is built in float64 from
    the float64 draws and rounded once, so the build's transient memory is
    a few blocks, not a second copy of the split.
    """
    if num_train <= 0 or num_test <= 0:
        raise ConfigurationError("num_train and num_test must be positive")
    prototypes = class_prototypes().ravel()
    channels, height, width = IMAGE_SHAPE
    channel_offsets = np.arange(channels)[:, None, None] * (height * width)

    def generate(count: int) -> ArrayDataset:
        labels = np.arange(count) % NUM_CLASSES
        rng.shuffle(labels)
        contrast = rng.uniform(*config.contrast_range, size=(count, 1, 1, 1))
        if config.max_shift > 0:
            shifts = rng.integers(
                -config.max_shift, config.max_shift + 1, size=(count, 2)
            )
        else:
            shifts = np.zeros((count, 2), dtype=np.int64)
        flips = rng.random(count) < config.flip_probability
        # Image i is its prototype circularly shifted by shifts[i] and then,
        # if flipped, mirrored: pixel (y, x) reads prototype pixel
        # ((y - dy) % H, (x' - dx) % W) with x' = W - 1 - x when flipped.
        rows = (np.arange(height) - shifts[:, :1]) % height
        columns = np.where(flips[:, None], np.arange(width)[::-1],
                           np.arange(width))
        columns = (columns - shifts[:, 1:]) % width
        images = np.empty((count,) + IMAGE_SHAPE, dtype=DTYPE)
        scratch = np.empty((min(count, GENERATION_BLOCK),) + IMAGE_SHAPE,
                           dtype=np.float64)
        for start in range(0, count, GENERATION_BLOCK):
            stop = min(start + GENERATION_BLOCK, count)
            block = scratch[:stop - start]
            source = (labels[start:stop, None, None, None]
                      * (channels * height * width)
                      + channel_offsets
                      + (rows[start:stop, :, None] * width
                         + columns[start:stop, None, :])[:, None])
            # Indices are in range by construction; mode="clip" writes
            # straight into ``block`` where "raise" would buffer a copy.
            np.take(prototypes, source, out=block, mode="clip")
            del source  # not alive beside the noise block
            block *= contrast[start:stop]
            # One normal draw per pixel in row order: consecutive blocks
            # consume the stream exactly as one call over the split would.
            block += rng.normal(scale=config.noise_scale, size=block.shape)
            images[start:stop] = block
        return ArrayDataset(images, labels)

    return generate(num_train), generate(num_test)
