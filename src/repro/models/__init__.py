"""``repro.models`` — the seven evaluation models of the Egeria paper.

Scaled-down (width/resolution) but structurally faithful implementations of
ResNet-50/56, MobileNetV2, DeepLabv3, Transformer-Base/Tiny and BERT-Base.
The seven Table 1 workloads that build them are
:func:`repro.experiments.build_workload`'s table.
"""

from .bert import BertForQuestionAnswering, BertLite, pretrain_bert_lite
from .deeplab import ASPPLite, DeepLabV3Lite
from .mobilenet import MobileNetV2, mobilenet_v2_lite
from .resnet import CifarResNet, ImageNetResNet, resnet8
from .transformer import TransformerMT, transformer_tiny

__all__ = [
    "CifarResNet",
    "ImageNetResNet",
    "resnet8",
    "MobileNetV2",
    "mobilenet_v2_lite",
    "ASPPLite",
    "DeepLabV3Lite",
    "TransformerMT",
    "transformer_tiny",
    "BertLite",
    "BertForQuestionAnswering",
    "pretrain_bert_lite",
]
