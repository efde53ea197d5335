"""Module/Parameter abstractions with forward hooks and freezing support.

This is the structural layer of the ``repro.nn`` substrate.  It mirrors the
pieces of ``torch.nn.Module`` that Egeria's paper relies on:

* named submodule traversal (Egeria parses layer modules from the model
  structure, §5 of the paper),
* forward hooks to capture intermediate activations (§4.1.1),
* ``requires_grad`` manipulation through :meth:`Module.freeze` /
  :meth:`Module.unfreeze` (§5: "we essentially set the requires_grad flag of
  all its parameters to false"),
* ``state_dict`` snapshotting, used to generate the quantized reference model.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList", "Identity"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable parameter."""

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad)


HookFn = Callable[["Module", Tuple, Tensor], None]


class RemovableHandle:
    """Handle returned by :meth:`Module.register_forward_hook`."""

    _next_id = 0

    def __init__(self, hooks: Dict[int, HookFn]):
        self._hooks = hooks
        self.id = RemovableHandle._next_id
        RemovableHandle._next_id += 1

    def remove(self) -> None:
        """Detach the hook from its module."""
        self._hooks.pop(self.id, None)


class Module:
    """Base class for all neural network modules.

    Subclasses implement :meth:`forward`.  Calling the module runs the forward
    pass and then fires any registered forward hooks with
    ``hook(module, inputs, output)`` — the mechanism Egeria's worker uses to
    capture intermediate activations for plasticity evaluation.
    """

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._forward_hooks: Dict[int, HookFn] = {}
        self.training: bool = True

    # ------------------------------------------------------------------ #
    # Attribute management
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BatchNorm stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Forward + hooks
    # ------------------------------------------------------------------ #
    def forward(self, *inputs, **kwargs):
        raise NotImplementedError

    def __call__(self, *inputs, **kwargs):
        output = self.forward(*inputs, **kwargs)
        if self._forward_hooks:
            for hook in list(self._forward_hooks.values()):  # a hook may remove itself
                hook(self, inputs, output)
        return output

    def register_forward_hook(self, hook: HookFn) -> RemovableHandle:
        """Register ``hook(module, inputs, output)`` to fire after forward."""
        handle = RemovableHandle(self._forward_hooks)
        self._forward_hooks[handle.id] = hook
        return handle

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (prefix + name if prefix else name), param
        for mod_name, module in self._modules.items():
            sub_prefix = f"{prefix}{mod_name}." if prefix else f"{mod_name}."
            yield from module.named_parameters(sub_prefix)

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for mod_name, module in self._modules.items():
            sub_prefix = f"{prefix}.{mod_name}" if prefix else mod_name
            yield from module.named_modules(sub_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        return iter(self._modules.items())

    def get_submodule(self, path: str) -> "Module":
        """Return a submodule by dotted path (e.g. ``"layer1.0.conv1"``)."""
        module: Module = self
        if not path:
            return module
        for part in path.split("."):
            if part not in module._modules:
                raise KeyError(f"submodule {path!r} not found (missing {part!r})")
            module = module._modules[part]
        return module

    # ------------------------------------------------------------------ #
    # Train / eval, gradients, freezing
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> None:
        """Exclude this module's parameters from gradient computation."""
        for param in self.parameters():
            param.requires_grad = False

    def unfreeze(self) -> None:
        """Re-include this module's parameters in gradient computation."""
        for param in self.parameters():
            param.requires_grad = True

    def is_frozen(self) -> bool:
        """True when no parameter of this module requires grad."""
        params = list(self.parameters())
        return bool(params) and all(not p.requires_grad for p in params)

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in this module."""
        return sum(p.size for p in self.parameters() if p.requires_grad or not trainable_only)

    # ------------------------------------------------------------------ #
    # State dict
    # ------------------------------------------------------------------ #
    def state_dict(self, prefix: str = "") -> "OrderedDict[str, np.ndarray]":
        """Snapshot all parameters and buffers as numpy arrays (copies)."""
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self._parameters.items():
            state[prefix + name] = param.data.copy()
        for name, buf in self._buffers.items():
            state[prefix + name] = np.array(buf, copy=True)
        for mod_name, module in self._modules.items():
            state.update(module.state_dict(prefix=f"{prefix}{mod_name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        """Load a snapshot previously produced by :meth:`state_dict`.

        The module adopts the arrays of ``state`` (float32 parameters and all
        buffers are not copied): :meth:`state_dict`, a checkpoint backend's
        ``read_object`` and ``quantize_state_dict`` each hand out fresh arrays,
        so load one snapshot into one module.
        """
        for name, param in self._parameters.items():
            key = prefix + name
            if key in state:
                param.data = np.asarray(state[key], dtype=np.float32).reshape(param.shape)
        for name in self._buffers:
            key = prefix + name
            if key in state:
                self.register_buffer(name, np.asarray(state[key]))
        for mod_name, module in self._modules.items():
            module.load_state_dict(state, prefix=f"{prefix}{mod_name}.")

    def __repr__(self) -> str:
        child_repr = ", ".join(self._modules.keys())
        return f"{self.__class__.__name__}({child_repr})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for idx, module in enumerate(modules):
            setattr(self, str(idx), module)

    def forward(self, x, start: int = 0):
        """Apply the chain; ``start`` skips the first modules (``x`` is then the output of module ``start - 1``)."""
        for module in islice(self._modules.values(), start, None):
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._modules)


class ModuleList(Module):
    """A list of modules that is properly registered for traversal."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._length = 0
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(self._length), module)
        self._length += 1
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, idx: int) -> Module:
        return self._modules[str(idx)]

    def forward(self, *inputs, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called directly")


class Identity(Module):
    """Pass-through module, handy for optional branches."""

    def forward(self, x):
        return x
