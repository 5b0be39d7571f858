"""Module/Parameter system — the ``torch.nn.Module`` analogue.

A :class:`Module` owns :class:`Parameter` leaves and child modules;
``parameters()`` walks the tree so optimizers and the parameter-counting
analysis (Table V of the paper) see every trainable array exactly once.
State-dict save/load round-trips through plain ``dict[str, np.ndarray]``
for npz checkpointing.

Checkpoint state is *canonical*, not structural: by default a module
contributes its parameters under their registered names, but a module
may override the ``_state_names`` / ``_state_items`` /
``_load_state_items`` trio to present a logical view of its storage —
:class:`repro.nn.layers.Embedding` always checkpoints one ``weight``
table regardless of how its :mod:`repro.store` backend partitions the
rows, which is what makes checkpoints portable across shard counts.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor registered as trainable model state.

    Parameters are pinned to ``float64`` regardless of any active
    ``dtype_scope`` — the dtype policy casts op
    *results*, never trainable state, so a model constructed inside an
    inference scope still trains and gradchecks at full precision.

    ``version`` is a monotonic mutation counter.  Every in-place update
    site in the repo (optimizer steps, state-dict loads, store row
    assignment) bumps it via :meth:`bump_version`; caches derived from
    parameter values (:meth:`repro.nn.layers.Linear.project_blocks` fold
    weights) key their validity on it.  Code that mutates ``.data``
    directly must bump the version itself.
    """

    def __init__(self, data, name: str = "") -> None:
        # dtype passed explicitly so the initial values never round-trip
        # through a narrower scope dtype.
        super().__init__(data, requires_grad=True, name=name, dtype=np.float64)
        self.requires_grad = True
        self.version = 0

    def bump_version(self) -> None:
        """Mark the buffer as mutated (invalidates value-derived caches)."""
        self.version += 1

    def zero_grad(self) -> None:
        """Clear the gradient buffer."""
        self.grad = None


class Module:
    """Base class for all neural components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic via ``__setattr__``.  The
    ``training`` flag is kept for the ``train()``/``eval()`` calls of
    PyTorch-style callers; no layer in this package reads it, so scores
    never depend on the mode.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs over the module tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """All trainable parameters in the tree (deduplicated by identity)."""
        seen = set()
        out: List[Parameter] = []
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                out.append(param)
        return out

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants depth-first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(dotted_path, module)`` pairs depth-first (root is ``""``)."""
        yield prefix[:-1] if prefix else "", self
        for name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total scalar parameter count (Table V's "Para. number")."""
        return sum(p.data.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Train/eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set the ``training`` flag recursively."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Clear the ``training`` flag recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Gradients & state
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear every parameter's gradient buffer."""
        for param in self.parameters():
            param.zero_grad()

    def _state_names(self) -> List[str]:
        """Canonical state-entry names of this module's subtree.

        Defaults to the registered parameter names; modules with a
        non-trivial storage layout override this (with
        ``_state_items``/``_load_state_items``) to present their logical
        entries instead.
        """
        names = list(self._parameters)
        for child_name, child in self._modules.items():
            names.extend(f"{child_name}.{key}" for key in child._state_names())
        return names

    def _state_items(self, exclude=()) -> Dict[str, np.ndarray]:
        """Canonical ``name -> array copy`` state of this subtree.

        ``exclude`` names entries to skip *without materialising them* —
        the per-shard checkpoint writer leaves sharded tables out of the
        main payload this way, so their logical arrays are never built.
        """
        exclude = set(exclude)
        out = {
            name: param.data.copy()
            for name, param in self._parameters.items()
            if name not in exclude
        }
        for child_name, child in self._modules.items():
            prefix = f"{child_name}."
            child_exclude = {
                name[len(prefix):] for name in exclude if name.startswith(prefix)
            }
            for key, value in child._state_items(child_exclude).items():
                out[f"{prefix}{key}"] = value
        return out

    def _load_state_items(self, entries: Dict[str, np.ndarray], dtype=None) -> None:
        """Load (already name-validated) entries into this subtree."""
        per_child: Dict[str, Dict[str, np.ndarray]] = {}
        for name, values in entries.items():
            if name in self._parameters:
                self._assign_parameter_state(self._parameters[name], values, dtype, name)
            else:
                child_name, _, rest = name.partition(".")
                per_child.setdefault(child_name, {})[rest] = values
        for child_name, sub_entries in per_child.items():
            self._modules[child_name]._load_state_items(sub_entries, dtype)

    @staticmethod
    def _assign_parameter_state(param: Parameter, values, dtype, name: str) -> None:
        if param.data.shape != values.shape:
            raise ValueError(
                f"shape mismatch for {name}: {param.data.shape} vs {values.shape}"
            )
        if dtype is None:
            param.data[...] = values
        else:
            # np.array (not asarray): always copy, so the rebound
            # buffer never aliases the caller's state dict or a
            # sibling model loaded from the same checkpoint.
            param.data = np.array(values, dtype=dtype)
            param.grad = None
        param.bump_version()

    def state_dict(self, exclude=()) -> Dict[str, np.ndarray]:
        """Copy the canonical model state into a flat ``name -> array`` map.

        For plain modules this is exactly the parameter tree; modules
        with a storage backend (:class:`repro.nn.layers.Embedding`)
        contribute their *logical* tables, so the mapping is identical
        for every :mod:`repro.store` layout of the same model.

        ``exclude`` optionally names entries to omit without computing
        them (a sharded table's logical view is an O(num_rows·dim)
        materialisation the per-shard checkpoint path must avoid).
        """
        return self._state_items(exclude)

    def load_state_dict(
        self, state: Dict[str, np.ndarray], strict: bool = True, dtype=None
    ) -> None:
        """Load values produced by :meth:`state_dict` back into parameters.

        ``dtype=None`` assigns into the existing buffers (values are cast
        to each parameter's own dtype, the training-safe default).  An
        explicit ``dtype`` instead *rebinds* every loaded parameter's
        buffer to that precision — the float32 serving path of
        :func:`repro.training.checkpoint.restore_model`; gradients then
        also accumulate in that dtype, so only use it for inference.

        Because the state is canonical, a dict saved from one storage
        layout loads into any other (dense ↔ N-shard ↔ M-shard); each
        store re-partitions its logical table on assignment.
        """
        own = set(self._state_names())
        missing = own - set(state)
        unexpected = set(state) - own
        if strict and (missing or unexpected):
            raise KeyError(
                f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        self._load_state_items(
            {name: values for name, values in state.items() if name in own}, dtype
        )

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(self).__name__} does not implement forward()")
