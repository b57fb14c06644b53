"""Residual CNN: the reproduction's stand-in for ResNet-18 on CIFAR-10.

A full ResNet-18 (11M parameters) is far too slow to train on CPU inside a
test-suite, so :class:`ResNetCIFAR` keeps the *structure* that matters to the
paper -- a convolutional stem, multiple residual stages with increasing
channel counts, batch normalisation everywhere, and a linear classifier head
-- at a width where a few epochs of training complete in seconds.  The layer
count and the spread of layer sizes (the stem's 3x3 kernels vs. the last
stage's wide convolutions vs. the tiny BatchNorm vectors) are what drive
DEFT's norm-proportional k assignment and bin-packing allocation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import nn
from repro.tensor.conv_ops import global_avg_pool2d
from repro.tensor.tensor import Tensor

__all__ = ["BasicBlock", "ResNetCIFAR", "resnet_cifar"]


class BasicBlock(nn.Module):
    """Two 3x3 convolutions with a residual connection (ResNet v1 basic block)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.conv1 = nn.Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.conv2 = nn.Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(out_channels)
        self.needs_projection = stride != 1 or in_channels != out_channels
        if self.needs_projection:
            self.proj_conv = nn.Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng)
            self.proj_bn = nn.BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x), relu=True)
        out = self.bn2(self.conv2(out))
        shortcut = x
        if self.needs_projection:
            shortcut = self.proj_bn(self.proj_conv(x))
        return (out + shortcut).relu()


class ResNetCIFAR(nn.Module):
    """Residual CNN for small images.

    Parameters
    ----------
    num_classes:
        Number of output classes.
    widths:
        Channel count of each residual stage.
    blocks_per_stage:
        Number of basic blocks in each stage.
    in_channels:
        Input image channels.
    image_size:
        Side length of the (square) input images; must be divisible by
        ``2 ** (len(widths) - 1)`` because each later stage downsamples by 2.
    """

    def __init__(
        self,
        num_classes: int = 10,
        widths: Sequence[int] = (8, 16, 32),
        blocks_per_stage: int = 1,
        in_channels: int = 3,
        image_size: int = 16,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.num_classes = int(num_classes)
        self.widths = tuple(int(w) for w in widths)
        self.image_size = int(image_size)
        self.stem = nn.Conv2d(in_channels, self.widths[0], 3, stride=1, padding=1, bias=False, rng=rng)
        self.stem_bn = nn.BatchNorm2d(self.widths[0])
        stages = nn.ModuleList()
        prev = self.widths[0]
        for stage_index, width in enumerate(self.widths):
            for block_index in range(blocks_per_stage):
                stride = 2 if (stage_index > 0 and block_index == 0) else 1
                stages.append(BasicBlock(prev, width, stride=stride, rng=rng))
                prev = width
        self.stages = stages
        self.head = nn.Linear(prev, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem_bn(self.stem(x), relu=True)
        for block in self.stages:
            out = block(out)
        pooled = global_avg_pool2d(out)
        return self.head(pooled)


def resnet_cifar(
    num_classes: int = 10,
    scale: str = "tiny",
    rng: Optional[np.random.Generator] = None,
    in_channels: int = 3,
    image_size: int = 16,
) -> ResNetCIFAR:
    """Build a residual CNN at one of a few preset scales.

    ``tiny`` is used by unit tests, ``small`` by the examples and benchmark
    harness, ``medium`` by anyone with more CPU time to spend.
    """
    presets = {
        "tiny": dict(widths=(8, 16), blocks_per_stage=1),
        "small": dict(widths=(8, 16, 32), blocks_per_stage=1),
        "medium": dict(widths=(16, 32, 64), blocks_per_stage=2),
    }
    if scale not in presets:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(presets)}")
    config = presets[scale]
    return ResNetCIFAR(
        num_classes=num_classes,
        widths=config["widths"],
        blocks_per_stage=config["blocks_per_stage"],
        in_channels=in_channels,
        image_size=image_size,
        rng=rng,
    )
