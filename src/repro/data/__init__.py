"""``repro.data`` — synthetic datasets and the data loader.

Replaces the paper's CIFAR-10/ImageNet/VOC/WMT16/SQuAD with learnable
synthetic surrogates of the same shape, plus a :class:`DataLoader` that knows
its future sample indices (the property the activation prefetcher exploits).
No workload augments its inputs, so a sample's cached activations stay valid
across epochs without the paper's stateless augmentation (§4.3).
"""

from .dataloader import DataLoader
from .datasets import (
    Batch,
    SubsetDataset,
    SyntheticImageClassification,
    SyntheticQuestionAnswering,
    SyntheticSegmentation,
    SyntheticTranslation,
    make_dataset,
)

__all__ = [
    "Batch",
    "SubsetDataset",
    "DataLoader",
    "SyntheticImageClassification",
    "SyntheticSegmentation",
    "SyntheticTranslation",
    "SyntheticQuestionAnswering",
    "make_dataset",
]
