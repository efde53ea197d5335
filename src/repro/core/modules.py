"""Layer-module parsing: turning a model into Egeria's freezable units.

Egeria "obtains the layer modules by parsing the model definition" (§5) and
freezes at the granularity of *layer modules* — consecutive layers defined
together, e.g. residual blocks or Transformer encoder layers (§4.2.1).
Figure 11 additionally shows size-aware grouping for ResNet-56: stage 3 holds
~75% of the parameters and is split into finer similar-sized modules, while
stages 1 and 2 (5% / 20%) are each evaluated as a whole.

:func:`parse_layer_modules` reproduces that behaviour:

1. obtain the ordered building blocks either from the model's
   ``module_sequence`` attribute (all models in :mod:`repro.models` provide
   one) or from its top-level children; parameterised *glue* that runs
   between blocks (a stem BatchNorm, an embedding LayerNorm, the final
   encoder norm) is assigned through the model's ``module_glue`` mapping
   (derived from the stage declaration of a
   :class:`~repro.models.chain.ChainModel`) to the block it freezes with, so
   a frozen prefix has no trainable tensor upstream of its tail and autograd
   builds no graph for it;
2. optionally filter/split by a user regular expression (the paper's
   configuration hook, "e.g. evaluating every convolutional layer");
3. group consecutive blocks so that no group exceeds ``max_fraction`` of the
   total parameters (big stages get split finer), never grouping across a
   stage boundary.

The result is an ordered list of :class:`LayerModule` objects that the
freezing engine walks front-to-back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence

from ..nn.module import Module, Parameter

__all__ = ["LayerModule", "parse_layer_modules", "building_blocks"]


@dataclass
class LayerModule:
    """A freezable group of consecutive building blocks.

    Attributes
    ----------
    name:
        Human-readable name, e.g. ``"layer3.0-layer3.4"``.
    paths:
        Dotted paths of the building blocks inside the model.
    blocks:
        The corresponding submodules, in forward order.
    num_params:
        Total scalar parameter count of the group (blocks and glue).
    index:
        Position of this module in the front-to-back ordering.
    glue:
        Parameterised submodules that execute between building blocks and
        freeze with this group (the model's ``module_glue`` entries of its
        blocks); they are no building blocks, so never a tail.
    """

    name: str
    paths: List[str]
    blocks: List[Module]
    num_params: int
    index: int = 0
    glue: List[Module] = field(default_factory=list)

    @property
    def owned(self) -> List[Module]:
        """Every submodule that freezes with the group: its blocks, then its glue."""
        return self.blocks + self.glue

    def freeze(self) -> None:
        """Set ``requires_grad = False`` on every parameter of the group."""
        for module in self.owned:
            module.freeze()

    def unfreeze(self) -> None:
        """Re-enable gradients for every parameter of the group."""
        for module in self.owned:
            module.unfreeze()

    @cached_property
    def params(self) -> List[Parameter]:
        """Every parameter of the group's blocks and glue, collected once (a model's parameters are fixed)."""
        return [param for module in self.owned for param in module.parameters()]

    def is_frozen(self) -> bool:
        """True when every parameterised block (and glue) in the group is frozen."""
        params = self.params
        return bool(params) and not any(param.requires_grad for param in params)

    @property
    def tail_block(self) -> Module:
        """The last building block — its output activation is what plasticity compares."""
        return self.blocks[-1]

    @property
    def tail_path(self) -> str:
        return self.paths[-1]

    def __repr__(self) -> str:
        return f"LayerModule({self.name}, params={self.num_params}, frozen={self.is_frozen()})"


def building_blocks(model: Module, pattern: Optional[str] = None) -> List[str]:
    """Return the ordered building-block paths of a model.

    Uses the model's ``module_sequence`` attribute when available, otherwise
    its direct children.  ``pattern`` (a regular expression) filters the
    paths — the paper's user-facing granularity hook.
    """
    if hasattr(model, "module_sequence"):
        paths = list(model.module_sequence)
    else:
        paths = [name for name, _ in model.named_children()]
    if pattern is not None:
        matcher = re.compile(pattern)
        paths = [p for p in paths if matcher.search(p)]
    if not paths:
        raise ValueError("no building blocks found (empty module_sequence or over-restrictive pattern)")
    return paths


def _stage_of(path: str) -> str:
    """Stage key of a block path: everything before the final index component."""
    parts = path.split(".")
    if len(parts) == 1:
        return parts[0]
    return ".".join(parts[:-1])


def _param_count(module: Module) -> int:
    return sum(p.size for p in module.parameters())


def parse_layer_modules(model: Module, max_fraction: float = 0.25, pattern: Optional[str] = None,
                        exclude_last: bool = True, min_params: int = 1) -> List[LayerModule]:
    """Parse a model into an ordered list of freezable :class:`LayerModule` groups.

    Parameters
    ----------
    model:
        The model to parse.
    max_fraction:
        Maximum fraction of the total parameter count a single group may hold;
        larger stages are split into several similar-sized groups (Figure 11).
    pattern:
        Optional regular expression applied to block paths before grouping.
    exclude_last:
        Keep the final building block (the classifier/generator head) out of
        the freezable list — Algorithm 1 asserts the monitored layer "is not
        the last layer".
    min_params:
        Blocks with fewer parameters than this are merged into their
        neighbouring group rather than forming one of their own (individual
        small layers "are less stable in SGD training", §4.2.1).
    """
    paths = building_blocks(model, pattern=pattern)
    if exclude_last and len(paths) > 1:
        paths = paths[:-1]

    blocks = [(path, model.get_submodule(path)) for path in paths]
    glue_paths = getattr(model, "module_glue", {})
    glue = [[model.get_submodule(p) for p in glue_paths.get(path, ())] for path in paths]
    counts = [_param_count(block) + sum(_param_count(g) for g in glue[idx])
              for idx, (_, block) in enumerate(blocks)]
    total = sum(counts)
    if total == 0:
        raise ValueError("model has no parameters in its building blocks")
    budget = max(int(total * max_fraction), 1)

    groups: List[List[int]] = []
    current: List[int] = []
    current_params = 0
    current_stage: Optional[str] = None
    for idx, (path, _block) in enumerate(blocks):
        stage = _stage_of(path)
        block_params = counts[idx]
        stage_changed = current_stage is not None and stage != current_stage
        over_budget = current_params + block_params > budget and current_params >= min_params
        if current and (stage_changed or over_budget):
            groups.append(current)
            current, current_params = [], 0
        current.append(idx)
        current_params += block_params
        current_stage = stage
    if current:
        groups.append(current)

    # Merge any group made solely of near-parameterless blocks into the next group.
    merged: List[List[int]] = []
    for group in groups:
        group_params = sum(counts[i] for i in group)
        if merged and group_params < min_params:
            merged[-1].extend(group)
        elif group_params < min_params and not merged:
            # Defer: prepend to the following group once it exists.
            merged.append(group)
        else:
            if merged and sum(counts[i] for i in merged[-1]) < min_params:
                group = merged.pop() + group
            merged.append(group)

    layer_modules: List[LayerModule] = []
    for module_index, group in enumerate(merged):
        group_paths = [blocks[i][0] for i in group]
        group_blocks = [blocks[i][1] for i in group]
        name = group_paths[0] if len(group_paths) == 1 else f"{group_paths[0]}-{group_paths[-1]}"
        layer_modules.append(LayerModule(
            name=name,
            paths=group_paths,
            blocks=group_blocks,
            num_params=sum(counts[i] for i in group),
            index=module_index,
            glue=[module for i in group for module in glue[i]],
        ))
    return layer_modules


def active_parameter_fraction(layer_modules: Sequence[LayerModule], model: Module) -> float:
    """Fraction of the *model's* parameters that currently require gradients.

    This is the quantity plotted on the y-axis of Figure 11.
    """
    total = sum(p.size for p in model.parameters())
    if total == 0:
        return 0.0
    active = sum(p.size for p in model.parameters() if p.requires_grad)
    return active / total
