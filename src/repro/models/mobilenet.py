"""MobileNetV2-lite: inverted residual blocks with linear bottlenecks.

The paper evaluates MobileNetV2 on CIFAR-10 with 17 inverted-residual building
modules (Table 1).  This lite variant keeps the canonical
(expansion, channels, repeats, stride) schedule of the original architecture
with scaled-down widths so the 17-block structure — and hence the freezing
schedule shape — is preserved.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .. import nn
from .chain import ChainModel

__all__ = ["MobileNetV2", "mobilenet_v2_lite"]

# (expansion factor t, output channels c, repeats n, stride s) per stage,
# mirroring Table 2 of the MobileNetV2 paper with channels divided by 8.
_DEFAULT_SCHEDULE: Tuple[Tuple[int, int, int, int], ...] = (
    (1, 4, 1, 1),
    (2, 6, 2, 1),
    (2, 8, 3, 2),
    (2, 12, 4, 2),
    (2, 16, 3, 1),
    (2, 24, 3, 2),
    (2, 32, 1, 1),
)


class MobileNetV2(ChainModel):
    """MobileNetV2 composed of a stem, inverted-residual stages and a classifier."""

    def __init__(self, num_classes: int = 10, schedule: Sequence[Tuple[int, int, int, int]] = _DEFAULT_SCHEDULE,
                 stem_channels: int = 8, last_channels: int = 40, in_channels: int = 3, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes

        self.stem = nn.ConvBNReLU(in_channels, stem_channels, kernel_size=3, stride=1, relu6=True, rng=rng)
        blocks = []
        channels = stem_channels
        for expansion, out_channels, repeats, stride in schedule:
            for block_idx in range(repeats):
                block_stride = stride if block_idx == 0 else 1
                blocks.append(nn.InvertedResidual(channels, out_channels, stride=block_stride,
                                                  expand_ratio=expansion, rng=rng))
                channels = out_channels
        self.blocks = nn.Sequential(*blocks)
        self.head = nn.ConvBNReLU(channels, last_channels, kernel_size=1, relu6=True, rng=rng)
        self.avgpool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(last_channels, num_classes, rng=rng)

        self.set_stages(["stem", "blocks", "head", ("classifier", ["avgpool", "flatten"])])

    @property
    def num_building_blocks(self) -> int:
        """Number of inverted-residual building modules (17 at default schedule)."""
        return len(self.blocks)


def mobilenet_v2_lite(num_classes: int = 10, seed: int = 0) -> MobileNetV2:
    """The default 17-block MobileNetV2-lite used by the Table 1 benchmark."""
    return MobileNetV2(num_classes=num_classes, seed=seed)
