"""Single-producer/single-consumer queues for the controller–worker protocol.

The paper implements non-blocking plasticity evaluation with three
multiprocessing queues (§4.1.2, Figure 6):

* **IQ** (input queue) — the worker puts the mini-batch that should be used
  for the next plasticity evaluation;
* **TOQ** (training-output queue) — the worker puts the training model's
  hooked activation ``A_T`` and continues its loop without blocking;
* **ROQ** (reference-output queue) — the controller puts the reference
  model's activation ``A_R`` after running its forward pass.

Because the reproduction runs in a single process, these are in-memory deques
with the same non-blocking ``put``/``get`` semantics, a bounded capacity and
drop counting — sufficient to preserve (and test) the asynchronous protocol:
the worker never waits on the controller, and evaluations whose data has not
been consumed yet are simply superseded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Generic, Optional, TypeVar

__all__ = ["SPSCQueue", "EvaluationChannels"]

T = TypeVar("T")


class SPSCQueue(Generic[T]):
    """Bounded non-blocking FIFO queue.

    ``put`` returns ``False`` (and counts a drop) when the queue is full
    instead of blocking — the worker must never stall the training loop on
    controller slowness.
    """

    def __init__(self, maxsize: int = 8, name: str = "queue"):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.name = name
        self._items: Deque[T] = deque()
        self.put_count = 0
        self.get_count = 0
        self.dropped = 0

    def put(self, item: T) -> bool:
        """Enqueue without blocking; returns whether the item was accepted."""
        if len(self._items) >= self.maxsize:
            self.dropped += 1
            return False
        self._items.append(item)
        self.put_count += 1
        return True

    def get(self) -> Optional[T]:
        """Dequeue without blocking; returns ``None`` when empty."""
        if not self._items:
            return None
        self.get_count += 1
        return self._items.popleft()

    def peek(self) -> Optional[T]:
        """Look at the head of the queue without removing it."""
        return self._items[0] if self._items else None

    def __len__(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        return not self._items

    def clear(self) -> None:
        self._items.clear()

    def __repr__(self) -> str:
        return f"SPSCQueue({self.name}, size={len(self)}/{self.maxsize}, dropped={self.dropped})"


@dataclass
class EvaluationChannels:
    """The IQ/TOQ/ROQ triple connecting one worker to the controller."""

    input_queue: SPSCQueue = field(default_factory=lambda: SPSCQueue(maxsize=4, name="IQ"))
    training_output_queue: SPSCQueue = field(default_factory=lambda: SPSCQueue(maxsize=4, name="TOQ"))
    reference_output_queue: SPSCQueue = field(default_factory=lambda: SPSCQueue(maxsize=4, name="ROQ"))

    def pending_evaluations(self) -> int:
        """Number of worker-submitted activations awaiting controller matching."""
        return len(self.training_output_queue)

    def clear(self) -> None:
        self.input_queue.clear()
        self.training_output_queue.clear()
        self.reference_output_queue.clear()
