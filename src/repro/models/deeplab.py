"""DeepLabv3-lite for semantic segmentation.

The paper's DeepLabv3 consists of "a backbone module for feature computation
and extraction plus a classifier module that takes the output of the backbone
and returns a dense prediction" (§6.2).  This lite variant uses the CIFAR
ResNet backbone, a simplified ASPP-like head (parallel 1x1 / 3x3 dilated-ish
branches + image pooling) and nearest-neighbour upsampling back to the input
resolution.  The backbone/head split matches the paper's 49 layer modules
("residual blocks and DeepLab head").
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .chain import ChainModel
from .resnet import CifarResNet

__all__ = ["ASPPLite", "DeepLabV3Lite"]


class ASPPLite(nn.Module):
    """Simplified Atrous Spatial Pyramid Pooling head.

    Three parallel branches (1x1 conv, 3x3 conv, global-pool + 1x1 conv)
    concatenated and projected — enough structure to behave like a "classifier
    module" with its own parameters and convergence trajectory.
    """

    def __init__(self, in_channels: int, branch_channels: int = 16, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.branch1 = nn.ConvBNReLU(in_channels, branch_channels, kernel_size=1, rng=rng)
        self.branch2 = nn.ConvBNReLU(in_channels, branch_channels, kernel_size=3, rng=rng)
        self.pool_branch = nn.ConvBNReLU(in_channels, branch_channels, kernel_size=1, rng=rng)
        self.project = nn.ConvBNReLU(branch_channels * 3, branch_channels, kernel_size=1, rng=rng)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        b1 = self.branch1(x)
        b2 = self.branch2(x)
        pooled = x.mean(axis=(2, 3), keepdims=True)
        b3 = self.pool_branch(pooled)
        # Broadcast the pooled branch back to the spatial size of the others.
        b3 = b3 + nn.zeros(*b1.shape)
        merged = nn.concatenate([b1, b2, b3], axis=1)
        return self.project(merged)


class DeepLabV3Lite(ChainModel):
    """Backbone + ASPP head + per-pixel classifier, with output upsampling."""

    def __init__(self, num_classes: int = 8, backbone_depth: int = 20, backbone_width: float = 1.0,
                 head_channels: int = 16, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.backbone = CifarResNet(depth=backbone_depth, num_classes=num_classes, width=backbone_width, seed=seed)
        backbone_out = self.backbone.fc.in_features
        self.head = ASPPLite(backbone_out, branch_channels=head_channels, rng=rng)
        self.classifier = nn.Conv2d(head_channels, num_classes, 1, rng=rng)
        #: Backbone downsamples by 4 (two stride-2 stages); the logits are
        #: upsampled back to the input resolution.
        self.output_stride = 4

        # The backbone's stages (all but its unused fc), then the head.
        self.set_stages(self.backbone.stage_specs("backbone.")[:-1] + ["head", "classifier"])

    def forward_from(self, tail_path, hidden, *inputs) -> nn.Tensor:
        logits = super().forward_from(tail_path, hidden)
        logits = F.upsample_nearest(logits, self.output_stride)
        # Returns (N, num_classes, H, W); the loss flattens spatial dims.
        return logits.transpose(0, 2, 3, 1)
