"""Weight initialisation schemes for the ``repro.nn`` layers.

Provides the Kaiming (He) initialiser along with normal and constant fills.
The random initialisers take an explicit ``numpy.random.Generator`` so model
construction is fully deterministic given a seed — a requirement for
reproducible benchmark runs.

A model built only to receive a snapshot (the reference model) is constructed
under :func:`skip_random_init`: its random initialisers then hand back
uninitialised storage of the right shape and draw nothing, and code that
would train those weights first (BERT-lite's pre-training) checks
:func:`random_init_skipped` and does not.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "kaiming_uniform",
    "normal",
    "zeros",
    "ones",
    "compute_fans",
    "skip_random_init",
    "random_init_skipped",
]

_SKIP_RANDOM = False


@contextmanager
def skip_random_init() -> Iterator[None]:
    """Inside, the random initialisers return ``np.empty`` float32 arrays and touch no generator.

    For building a model whose every parameter is about to be overwritten by
    ``load_state_dict``; the caller must check that the snapshot names them
    all.  The constant fills (:func:`zeros`, :func:`ones`) are unaffected.
    """
    global _SKIP_RANDOM
    previous, _SKIP_RANDOM = _SKIP_RANDOM, True
    try:
        yield
    finally:
        _SKIP_RANDOM = previous


def random_init_skipped() -> bool:
    """Whether a :func:`skip_random_init` block is active: code that would train the new weights can skip it."""
    return _SKIP_RANDOM


def _random(initialiser):
    """Mark ``initialiser(shape, ...)`` as one :func:`skip_random_init` switches off."""
    @functools.wraps(initialiser)
    def wrapper(shape, *args, **kwargs):
        if _SKIP_RANDOM:
            return np.empty(shape, dtype=np.float32)
        return initialiser(shape, *args, **kwargs)
    return wrapper


def compute_fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight tensor shape.

    Linear weights are ``(out, in)``; convolution weights are
    ``(out, in, k, k)`` where the receptive field multiplies both fans.
    """
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    receptive = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


@_random
def kaiming_uniform(shape, rng: Optional[np.random.Generator] = None, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He-uniform initialisation suited to ReLU networks."""
    fan_in, _ = compute_fans(shape)
    bound = gain * math.sqrt(3.0 / max(fan_in, 1))
    return _rng(rng).uniform(-bound, bound, size=shape).astype(np.float32)


@_random
def normal(shape, mean: float = 0.0, std: float = 0.02, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    return (mean + std * _rng(rng).standard_normal(shape)).astype(np.float32)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
