"""Chain models: a forward pass that is one loop over the model's stages.

Every CNN/encoder model of :mod:`repro.models` is a chain — each building
block consumes the previous one's output — so its forward pass can *resume*
past any block from that block's recorded output.  That is what lets the
Egeria trainer serve a frozen prefix from the activation cache (§4.3) and run
only the active suffix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import nn

__all__ = ["ChainModel"]


class ChainModel(nn.Module):
    """A model whose forward pass chains its ``stages``.

    A stage is the dotted path of either one building block or an
    ``nn.Sequential`` of building blocks; subclasses declare them with
    :meth:`set_stages`, which also derives ``module_sequence`` (the building
    blocks in forward order, consumed by
    :func:`repro.core.modules.parse_layer_modules`).  They name in
    ``module_glue`` the parameterised submodules that run between blocks
    (block path -> paths of the glue that executes right after it and freezes
    with it) and override :meth:`before` with what runs on the way into a
    stage.  ``forward`` and ``forward_from`` are then the same loop, entered
    at different blocks.
    """

    stages: List[str]
    module_sequence: List[str]
    module_glue: Dict[str, List[str]] = {}

    def set_stages(self, stages: Sequence[str]) -> None:
        self.stages = list(stages)
        self.module_sequence = []
        for stage in self.stages:
            module = self.get_submodule(stage)
            self.module_sequence.extend(
                [f"{stage}.{i}" for i in range(len(module))] if isinstance(module, nn.Sequential) else [stage])

    def before(self, stage: str, x):
        """Glue applied to the input of ``stage`` (default: none)."""
        return x

    def can_resume_from(self, path: str) -> bool:
        """Whether :meth:`forward_from` accepts ``path`` as its tail."""
        return path in self.module_sequence

    def _entry(self, tail_path: Optional[str]) -> Tuple[int, int]:
        """``(stage index, block offset inside it)`` of the block that follows ``tail_path``."""
        if tail_path is None:
            return 0, 0
        if tail_path in self.stages:
            return self.stages.index(tail_path) + 1, 0
        stage, _, block = tail_path.rpartition(".")
        return self.stages.index(stage), int(block) + 1

    def run_stages(self, hidden, tail_path: Optional[str] = None, stop: Optional[int] = None):
        """Feed ``hidden`` through the stages that follow block ``tail_path``, up to stage ``stop``.

        A stage entered mid-way runs its remaining blocks through its
        container, so hooks on the container still fire (with its usual
        output).
        """
        first, offset = self._entry(tail_path)
        for stage in self.stages[first:stop]:
            module = self.get_submodule(stage)
            if offset:
                hidden, offset = module(hidden, start=offset), 0
            else:
                hidden = module(self.before(stage, hidden))
        return hidden

    def forward_from(self, tail_path: Optional[str], hidden, *inputs):
        """Resume the forward pass just past building block ``tail_path``.

        ``hidden`` is that block's output (for ``None``, the model input);
        ``inputs`` are the model's original inputs, which a chain never needs
        again but which keep the signature uniform across models.
        """
        return self.run_stages(hidden, tail_path)

    def forward(self, x):
        return self.forward_from(None, x)
