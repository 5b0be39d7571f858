"""Weight initialisation schemes.

The paper initialises the layer-0 GCN embeddings from a standard Gaussian
(Sec. II-C2); the dense projection weights use Xavier/Glorot, the default
in the PyTorch reference implementations of NGCF/GBGCN that the paper
compares against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "normal_",
    "xavier_uniform",
]


def normal_(shape: Tuple[int, ...], rng: np.random.Generator, std: float = 1.0) -> np.ndarray:
    """Gaussian ``N(0, std²)`` initial values (paper's embedding init)."""
    return rng.normal(0.0, std, size=shape)


def _fan(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight shape."""
    if len(shape) < 1:
        raise ValueError("weight shape must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    return shape[0], shape[1]


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform: ``U(-a, a)`` with ``a = gain * sqrt(6/(fan_in+fan_out))``."""
    fan_in, fan_out = _fan(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)
