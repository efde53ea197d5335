"""Chain models: a forward pass that is one loop over the model's stages.

Every CNN/encoder model of :mod:`repro.models` is a chain — each building
block consumes the previous one's output — so its forward pass can *resume*
past any block from that block's recorded output.  That is what lets the
Egeria trainer serve a frozen prefix from the activation cache (§4.3) and run
only the active suffix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import nn

__all__ = ["ChainModel"]

#: A stage declaration: the dotted path of one building block or of an
#: ``nn.Sequential`` of building blocks, optionally paired with its *entry* —
#: the submodule paths applied, in order, to the stage's input.
Stage = Union[str, Tuple[str, Sequence[str]]]


class ChainModel(nn.Module):
    """A model whose forward pass chains its ``stages``.

    Subclasses declare the chain once, with :meth:`set_stages`; everything
    else is derived from that declaration:

    * ``forward`` / ``forward_from`` — one loop, entered at different blocks:
      each stage's entry runs on its input, then the stage itself;
    * ``module_sequence`` — the building blocks in forward order, consumed by
      :func:`repro.core.modules.parse_layer_modules`;
    * ``module_glue`` — block path -> the parameterised entry submodules that
      freeze with it.  An entry belongs to the first block of the stage it
      feeds: it runs *after* the previous block's output (the tail a resumed
      forward pass starts from), so it stays trainable until the block behind
      it freezes, and no frozen prefix has a trainable tensor upstream of its
      tail.
    """

    stages: List[str]
    stage_entry: Dict[str, List[str]]
    module_sequence: List[str]
    module_glue: Dict[str, List[str]]

    def set_stages(self, stages: Sequence[Stage]) -> None:
        self.stages, self.stage_entry, self.module_sequence, self.module_glue = [], {}, [], {}
        for stage in stages:
            path, entry = (stage, ()) if isinstance(stage, str) else stage
            module = self.get_submodule(path)
            blocks = [f"{path}.{i}" for i in range(len(module))] if isinstance(module, nn.Sequential) else [path]
            self.stages.append(path)
            self.stage_entry[path] = list(entry)
            self.module_sequence.extend(blocks)
            glue = [p for p in entry if any(True for _ in self.get_submodule(p).parameters())]
            if glue:
                self.module_glue[blocks[0]] = glue

    def stage_specs(self, prefix: str) -> List[Stage]:
        """This chain's declaration with every path under ``prefix`` — for a model that embeds it."""
        return [(prefix + path, [prefix + p for p in self.stage_entry[path]]) for path in self.stages]

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
                for path in self.stage_entry[stage]:
                    hidden = self.get_submodule(path)(hidden)
                hidden = module(hidden)
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
