"""``repro.core`` — Egeria itself: plasticity, reference model, freezing, caching.

This package is the paper's primary contribution: the knowledge-guided
training system that evaluates per-layer training plasticity against a
quantized reference model, freezes converged layer modules (skipping their
backward computation and gradient synchronization), and caches/prefetches the
frozen prefix's activations to skip its forward pass as well.
"""

from .cache import ActivationCache, Prefetcher
from .config import EgeriaConfig
from .controller import EgeriaController
from .freezing import FreezingEngine
from .modules import parse_layer_modules
from .plasticity import sp_loss
from .reference import ReferenceModel
from .tasks import ClassificationTask, TaskAdapter
from .trainer import BaseTrainer, EgeriaTrainer
from .worker import EgeriaWorker

__all__ = [
    "EgeriaConfig",
    "EgeriaTrainer",
    "BaseTrainer",
    "EgeriaController",
    "EgeriaWorker",
    "FreezingEngine",
    "ReferenceModel",
    "ActivationCache",
    "Prefetcher",
    "parse_layer_modules",
    "sp_loss",
    "TaskAdapter",
    "ClassificationTask",
]
