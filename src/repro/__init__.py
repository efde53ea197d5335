"""Reproduction of *Egeria: Efficient DNN Training with Knowledge-Guided Layer
Freezing* (EuroSys 2023).

Top-level packages:

* :mod:`repro.nn` -- numpy-backed autograd/NN substrate (tensors, modules,
  hooks, layers, blocks, losses);
* :mod:`repro.optim` -- SGD/Adam/AdamW and the LR schedules the workloads
  use, plus §4.2.2's cyclical schedule;
* :mod:`repro.models` -- the seven evaluation models (ResNet-50/56,
  MobileNetV2, DeepLabv3, Transformer-Base/Tiny, BERT) scaled for CPU;
* :mod:`repro.data` -- synthetic datasets and the look-ahead data loader;
* :mod:`repro.quantization` -- int8/int4/fp16 weight-only fake quantization
  of the reference model's snapshot;
* :mod:`repro.core` -- Egeria itself: plasticity, reference model, freezing
  engine, controller/worker, activation cache, trainers;
* :mod:`repro.baselines` -- vanilla training, static/gradient (AutoFreeze-style)
  freezing, Skip-Conv metric, FreezeOut and ByteScheduler models;
* :mod:`repro.analysis` -- PWCCA post hoc convergence analysis;
* :mod:`repro.sim` -- cost model, cluster topology, all-reduce and schedules;
* :mod:`repro.ckpt` -- freezing-aware incremental checkpointing and
  fault-tolerance storage backends;
* :mod:`repro.metrics` -- accuracy metrics and time-to-accuracy tracking.
"""

__version__ = "1.0.0"

__all__ = [
    "nn",
    "optim",
    "models",
    "data",
    "quantization",
    "core",
    "baselines",
    "analysis",
    "sim",
    "ckpt",
    "metrics",
]
