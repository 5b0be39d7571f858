"""Argument validation shared across the library.

The helpers fail fast with messages naming the offending argument.
"""

from __future__ import annotations

__all__ = ["check_positive"]


def check_positive(name: str, value: float, *, strict: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` is positive (or >= 0 if not strict)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
