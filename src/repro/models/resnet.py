"""ResNet models: CIFAR-style ResNet (ResNet-56) and ImageNet-style ResNet-50.

Both keep the exact stage/block decomposition of the original architectures —
that structure is what Egeria parses into *layer modules* and freezes
progressively (Figure 11 in the paper shows the ResNet-56 decomposition:
layer 1 holds ~5% of the parameters, layer 2 ~20%, layer 3 ~75%).  Width and
input resolution are scaled down so the numpy substrate trains them in
seconds, but the relative stage sizes are preserved.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import nn
from .chain import ChainModel

__all__ = ["CifarResNet", "resnet8", "ImageNetResNet"]


class CifarResNet(ChainModel):
    """CIFAR-style ResNet with three stages of :class:`~repro.nn.BasicBlock`.

    ``depth`` must be ``6n + 2`` (e.g. 56 → n = 9, 20 → n = 3, 8 → n = 1).
    ``width`` scales the channel counts (16/32/64 at width 1.0).
    """

    def __init__(self, depth: int = 20, num_classes: int = 10, width: float = 1.0,
                 in_channels: int = 3, seed: int = 0):
        super().__init__()
        if (depth - 2) % 6 != 0:
            raise ValueError(f"CIFAR ResNet depth must be 6n+2, got {depth}")
        blocks_per_stage = (depth - 2) // 6
        rng = np.random.default_rng(seed)
        channels = [max(int(round(c * width)), 4) for c in (16, 32, 64)]

        self.depth = depth
        self.num_classes = num_classes
        self.conv1 = nn.Conv2d(in_channels, channels[0], 3, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(channels[0])
        self.relu = nn.ReLU()
        self.layer1 = self._make_stage(channels[0], channels[0], blocks_per_stage, stride=1, rng=rng)
        self.layer2 = self._make_stage(channels[0], channels[1], blocks_per_stage, stride=2, rng=rng)
        self.layer3 = self._make_stage(channels[1], channels[2], blocks_per_stage, stride=2, rng=rng)
        self.avgpool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.fc = nn.Linear(channels[2], num_classes, rng=rng)

        # The stem BatchNorm runs on the way into ``layer1`` and freezes with its first block.
        self.set_stages(["conv1", ("layer1", ["bn1", "relu"]), "layer2", "layer3", ("fc", ["avgpool", "flatten"])])

    @staticmethod
    def _make_stage(in_channels: int, out_channels: int, num_blocks: int, stride: int,
                    rng: np.random.Generator) -> nn.Sequential:
        blocks = [nn.BasicBlock(in_channels, out_channels, stride=stride, rng=rng)]
        blocks.extend(nn.BasicBlock(out_channels, out_channels, rng=rng) for _ in range(num_blocks - 1))
        return nn.Sequential(*blocks)

    def features(self, x: nn.Tensor) -> nn.Tensor:
        """Backbone features before global pooling."""
        return self.run_stages(x, stop=-1)


def resnet8(num_classes: int = 10, width: float = 1.0, seed: int = 0) -> CifarResNet:
    """ResNet-8: one block per stage — the fast stand-in used in unit tests."""
    return CifarResNet(depth=8, num_classes=num_classes, width=width, seed=seed)


class ImageNetResNet(ChainModel):
    """ImageNet-style ResNet built from :class:`~repro.nn.Bottleneck` blocks.

    ResNet-50 has stages of (3, 4, 6, 3) bottleneck blocks (48 residual
    building blocks counting the three convolutions each, which the paper
    reports as "48 layer modules grouped into four stages").  The lite variant
    keeps the (3, 4, 6, 3) structure with reduced width so the deep stages
    still dominate the parameter count.
    """

    def __init__(self, stage_blocks: Sequence[int] = (3, 4, 6, 3), num_classes: int = 100,
                 base_width: int = 8, in_channels: int = 3, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        widths = [base_width * (2 ** i) for i in range(4)]

        self.conv1 = nn.Conv2d(in_channels, widths[0], 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(widths[0])
        self.relu = nn.ReLU()
        self.maxpool = nn.MaxPool2d(2)

        in_ch = widths[0]
        stages = []
        for stage_idx, (num_blocks, width) in enumerate(zip(stage_blocks, widths)):
            stride = 1 if stage_idx == 0 else 2
            blocks = [nn.Bottleneck(in_ch, width, stride=stride, rng=rng)]
            in_ch = width * nn.Bottleneck.expansion
            blocks.extend(nn.Bottleneck(in_ch, width, rng=rng) for _ in range(num_blocks - 1))
            stages.append(nn.Sequential(*blocks))
        self.layer1, self.layer2, self.layer3, self.layer4 = stages

        self.avgpool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.fc = nn.Linear(in_ch, num_classes, rng=rng)
        self.out_channels = in_ch

        self.set_stages(["conv1", ("layer1", ["bn1", "relu", "maxpool"]), "layer2", "layer3", "layer4",
                         ("fc", ["avgpool", "flatten"])])
