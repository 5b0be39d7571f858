"""Shared utilities: deterministic RNG handling, logging, validation."""

from repro.utils.logging import get_logger
from repro.utils.rng import RngMixin, as_rng, spawn_rngs
from repro.utils.validation import check_positive

__all__ = [
    "RngMixin",
    "as_rng",
    "spawn_rngs",
    "get_logger",
    "check_positive",
]
