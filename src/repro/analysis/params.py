"""Model-scale analysis — the parameter counts of Table V.

The paper reports per-model trainable-parameter totals; with a
:class:`repro.nn.module.Module` tree this is a walk over
``named_parameters`` with optional per-component grouping, which the
Table V benchmark prints alongside epoch timings.
"""

from __future__ import annotations

from typing import Dict

from repro.nn.module import Module

__all__ = ["count_parameters", "parameter_breakdown", "format_param_table"]


def count_parameters(model: Module) -> int:
    """Total scalar parameter count of ``model``."""
    return model.num_parameters()


def parameter_breakdown(model: Module, depth: int = 1) -> Dict[str, int]:
    """Parameter counts grouped by the first ``depth`` name components.

    ``depth=1`` groups by top-level submodule (encoder / mtl / heads…),
    which attributes MGBR's size to its components.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    groups: Dict[str, int] = {}
    for name, param in model.named_parameters():
        key = ".".join(name.split(".")[:depth])
        groups[key] = groups.get(key, 0) + param.data.size
    return dict(sorted(groups.items(), key=lambda kv: -kv[1]))


def format_param_table(counts: Dict[str, int], title: str = "") -> str:
    """Render a name→count mapping as an aligned text table."""
    lines = []
    if title:
        lines.append(title)
    width = max((len(k) for k in counts), default=10)
    for name, count in counts.items():
        lines.append(f"{name:<{width}}  {count:>12,}")
    lines.append(f"{'TOTAL':<{width}}  {sum(counts.values()):>12,}")
    return "\n".join(lines)
