"""``repro.models`` — the seven evaluation models of the Egeria paper.

Scaled-down (width/resolution) but structurally faithful implementations of
ResNet-50/56, MobileNetV2, DeepLabv3, Transformer-Base/Tiny and BERT-Base,
plus a registry that maps Table 1's workloads to factories.
"""

from .bert import BertForQuestionAnswering, BertLite, bert_qa_lite, pretrain_bert_lite
from .deeplab import ASPPLite, DeepLabV3Lite, deeplabv3_lite
from .mobilenet import MobileNetV2, mobilenet_v2_lite
from .registry import WORKLOADS, WorkloadSpec, get_workload, list_workloads, register_workload
from .resnet import CifarResNet, ImageNetResNet, resnet8, resnet50_lite, resnet56
from .transformer import TransformerMT, transformer_base_lite, transformer_tiny

__all__ = [
    "CifarResNet",
    "ImageNetResNet",
    "resnet8",
    "resnet56",
    "resnet50_lite",
    "MobileNetV2",
    "mobilenet_v2_lite",
    "ASPPLite",
    "DeepLabV3Lite",
    "deeplabv3_lite",
    "TransformerMT",
    "transformer_base_lite",
    "transformer_tiny",
    "BertLite",
    "BertForQuestionAnswering",
    "bert_qa_lite",
    "pretrain_bert_lite",
    "WorkloadSpec",
    "WORKLOADS",
    "get_workload",
    "list_workloads",
    "register_workload",
]
