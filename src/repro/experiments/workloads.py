"""Pre-configured training workloads for the paper's experiments.

Each builder returns a :class:`Workload` bundling the model factory, task
adapter, data loaders, optimizer/scheduler factories and an Egeria
configuration, sized so the whole experiment runs on a CPU in seconds while
keeping the *shape* of the paper's setup:

* a high initial learning rate with step decay, so validation accuracy only
  stabilises after the LR drops (as in the paper's 200-epoch CIFAR runs) and
  TTA is reached late enough for freezing to pay off;
* the same model structure (stages/blocks) as the paper's models, so the
  layer-module decomposition and freezing schedule look like Figure 11;
* synthetic datasets with a train/eval split drawn from the same distribution.

The ``scale`` knob ("tiny" for unit tests, "small" for benchmarks) controls
sample counts, epochs and model width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .. import models
from ..core.config import EgeriaConfig
from ..core.tasks import (
    ClassificationTask,
    QuestionAnsweringTask,
    SegmentationTask,
    TaskAdapter,
    TranslationTask,
)
from ..data import DataLoader, make_dataset
from ..optim import SGD, Adam, AdamW, InverseSquareRootLR, LinearDecayLR, LambdaLR, MultiStepLR

__all__ = ["Workload", "SCALES", "build_workload", "available_workloads"]


@dataclass
class Workload:
    """Everything needed to train one of the paper's evaluation models."""

    name: str
    paper_model: str
    task: TaskAdapter
    model_factory: Callable[[], object]
    train_dataset: object
    eval_dataset: object
    batch_size: int
    num_epochs: int
    optimizer_factory: Callable[[object], object]
    scheduler_factory: Callable[[object], object]
    egeria_config: EgeriaConfig
    paper_tta_speedup: float = 0.0
    seed: int = 0

    def train_loader(self, seed: Optional[int] = None) -> DataLoader:
        return DataLoader(self.train_dataset, batch_size=self.batch_size, seed=self.seed if seed is None else seed)

    def eval_loader(self) -> DataLoader:
        return DataLoader(self.eval_dataset, batch_size=self.batch_size, shuffle=False)

    def make_model(self):
        return self.model_factory()

    def make_optimizer(self, model):
        return self.optimizer_factory(model)

    def make_scheduler(self, optimizer):
        return self.scheduler_factory(optimizer)


#: Scale presets controlling dataset size, epochs, resolution and difficulty.
SCALES: Dict[str, Dict[str, float]] = {
    "tiny": {"samples": 140, "epochs": 18, "image_size": 8, "noise": 2.5},
    "small": {"samples": 200, "epochs": 30, "image_size": 8, "noise": 2.5},
}


def _cv_config(num_epochs: int, iters_per_epoch: int) -> EgeriaConfig:
    """Egeria hyperparameters for this scale, set by hand.

    §4.2.2's guideline scales ``n`` so that every layer module can be
    evaluated and frozen within the run; at these miniature scales that means
    evaluating every couple of iterations and using a short freeze window
    (``docs/fidelity.md``).
    """
    return EgeriaConfig(
        eval_interval_iters=max(iters_per_epoch // 4, 2),
        freeze_window=2,
        bootstrap_min_evaluations=2,
        reference_update_interval=4,
    )


def _classification_workload(name: str, paper_model: str, model_factory, scale: str, seed: int,
                             paper_speedup: float, num_classes: int = 10) -> Workload:
    preset = SCALES[scale]
    full = make_dataset("synthetic_cifar10", num_samples=int(preset["samples"]), num_classes=num_classes,
                        image_size=int(preset["image_size"]), noise=float(preset["noise"]), seed=seed)
    train_ds, eval_ds = full.split(eval_fraction=0.2)
    batch_size = 16
    num_epochs = int(preset["epochs"])
    iters_per_epoch = len(train_ds) // batch_size
    milestones = [int(num_epochs * 0.6), int(num_epochs * 0.83)]
    return Workload(
        name=name,
        paper_model=paper_model,
        task=ClassificationTask(),
        model_factory=model_factory,
        train_dataset=train_ds,
        eval_dataset=eval_ds,
        batch_size=batch_size,
        num_epochs=num_epochs,
        optimizer_factory=lambda m: SGD(m.parameters(), lr=0.4, momentum=0.9, weight_decay=5e-4),
        scheduler_factory=lambda opt: MultiStepLR(opt, milestones=milestones, gamma=0.1),
        egeria_config=_cv_config(num_epochs, iters_per_epoch),
        paper_tta_speedup=paper_speedup,
        seed=seed,
    )


def _segmentation_workload(scale: str, seed: int) -> Workload:
    preset = SCALES[scale]
    num_classes = 6
    full = make_dataset("synthetic_voc", num_samples=int(preset["samples"] * 0.6), num_classes=num_classes,
                        image_size=16, noise=1.0, seed=seed)
    train_ds, eval_ds = full.split(eval_fraction=0.2)
    batch_size = 8
    num_epochs = max(int(preset["epochs"] * 0.6), 6)
    iters_per_epoch = len(train_ds) // batch_size
    return Workload(
        name="deeplabv3_voc",
        paper_model="DeepLabv3",
        task=SegmentationTask(num_classes=num_classes),
        model_factory=lambda: models.DeepLabV3Lite(num_classes=num_classes, backbone_depth=8, seed=seed),
        train_dataset=train_ds,
        eval_dataset=eval_ds,
        batch_size=batch_size,
        num_epochs=num_epochs,
        optimizer_factory=lambda m: SGD(m.parameters(), lr=0.2, momentum=0.9, weight_decay=1e-4),
        scheduler_factory=lambda opt: LambdaLR(opt, total_epochs=num_epochs, power=0.9),
        egeria_config=_cv_config(num_epochs, iters_per_epoch),
        paper_tta_speedup=0.21,
        seed=seed,
    )


def _translation_workload(name: str, paper_model: str, scale: str, seed: int, tiny: bool,
                          paper_speedup: float) -> Workload:
    preset = SCALES[scale]
    vocab = 32 if tiny else 48
    seq_len = 10
    full = make_dataset("synthetic_wmt16", num_samples=int(preset["samples"] * 1.5), vocab_size=vocab,
                        seq_len=seq_len, seed=seed)
    train_ds, eval_ds = full.split(eval_fraction=0.25)
    batch_size = 16
    num_epochs = int(preset["epochs"])
    iters_per_epoch = len(train_ds) // batch_size

    def model_factory():
        if tiny:
            return models.transformer_tiny(vocab_size=vocab, seed=seed)
        return models.TransformerMT(vocab_size=vocab, d_model=32, num_heads=4, d_ff=48,
                                    num_encoder_layers=4, num_decoder_layers=4, seed=seed)

    return Workload(
        name=name,
        paper_model=paper_model,
        task=TranslationTask(label_smoothing=0.1),
        model_factory=model_factory,
        train_dataset=train_ds,
        eval_dataset=eval_ds,
        batch_size=batch_size,
        num_epochs=num_epochs,
        optimizer_factory=lambda m: Adam(m.parameters(), lr=3e-3),
        scheduler_factory=lambda opt: InverseSquareRootLR(opt, warmup_steps=4),
        egeria_config=_cv_config(num_epochs, iters_per_epoch),
        paper_tta_speedup=paper_speedup,
        seed=seed,
    )


def _qa_workload(scale: str, seed: int) -> Workload:
    preset = SCALES[scale]
    full = make_dataset("synthetic_squad", num_samples=int(preset["samples"]), vocab_size=64, seq_len=12, seed=seed)
    train_ds, eval_ds = full.split(eval_fraction=0.2)
    batch_size = 16
    num_epochs = max(int(preset["epochs"] * 0.55), 6)
    iters_per_epoch = len(train_ds) // batch_size
    num_layers = 4 if scale == "tiny" else 6

    def model_factory():
        encoder = models.BertLite(vocab_size=64, d_model=24, num_heads=4, d_ff=48,
                                  num_layers=num_layers, max_len=16, seed=seed)
        models.pretrain_bert_lite(encoder, num_steps=15, batch_size=8, seq_len=12, seed=seed)
        return models.BertForQuestionAnswering(encoder=encoder, seed=seed)

    return Workload(
        name="bert_squad",
        paper_model="BERT-Base (fine-tuning)",
        task=QuestionAnsweringTask(),
        model_factory=model_factory,
        train_dataset=train_ds,
        eval_dataset=eval_ds,
        batch_size=batch_size,
        num_epochs=num_epochs,
        optimizer_factory=lambda m: AdamW(m.parameters(), lr=5e-4, weight_decay=0.01),
        scheduler_factory=lambda opt: LinearDecayLR(opt, total_steps=num_epochs, warmup_steps=1),
        egeria_config=_cv_config(num_epochs, iters_per_epoch),
        paper_tta_speedup=0.41,
        seed=seed,
    )


_BUILDERS: Dict[str, Callable[[str, int], Workload]] = {
    "resnet56_cifar10": lambda scale, seed: _classification_workload(
        "resnet56_cifar10", "ResNet-56",
        lambda: models.CifarResNet(depth=8 if scale == "tiny" else 20, num_classes=10, width=0.75, seed=seed),
        scale, seed, paper_speedup=0.23),
    "resnet50_imagenet": lambda scale, seed: _classification_workload(
        "resnet50_imagenet", "ResNet-50",
        lambda: models.ImageNetResNet(stage_blocks=(1, 1, 1, 1) if scale == "tiny" else (2, 2, 2, 2),
                                      num_classes=10, base_width=6, seed=seed),
        scale, seed, paper_speedup=0.28),
    "mobilenet_v2_cifar10": lambda scale, seed: _classification_workload(
        "mobilenet_v2_cifar10", "MobileNet V2",
        lambda: models.mobilenet_v2_lite(num_classes=10, seed=seed),
        scale, seed, paper_speedup=0.22),
    "deeplabv3_voc": lambda scale, seed: _segmentation_workload(scale, seed),
    "transformer_base_wmt16": lambda scale, seed: _translation_workload(
        "transformer_base_wmt16", "Transformer-Base", scale, seed, tiny=False, paper_speedup=0.43),
    "transformer_tiny_wmt16": lambda scale, seed: _translation_workload(
        "transformer_tiny_wmt16", "Transformer-Tiny", scale, seed, tiny=True, paper_speedup=0.19),
    "bert_squad": lambda scale, seed: _qa_workload(scale, seed),
}


def available_workloads() -> List[str]:
    """Names of the seven Table 1 workloads."""
    return sorted(_BUILDERS)


def build_workload(name: str, scale: str = "small", seed: int = 0) -> Workload:
    """Build one of the paper's workloads at the given scale ("tiny"/"small")."""
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; known: {sorted(SCALES)}")
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; known: {available_workloads()}")
    return _BUILDERS[name](scale, seed)
