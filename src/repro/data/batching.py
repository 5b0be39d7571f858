"""Mini-batch iteration over task samples.

The trainer consumes fixed-size shuffled batches of Task-A pairs and
Task-B triples (paper batch size |B| = 64, Table II).  Batches are plain
``dict[str, np.ndarray]`` so models stay framework-agnostic.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from repro.data.samples import TaskASamples, TaskBSamples
from repro.utils.rng import SeedLike, as_rng

__all__ = ["iter_task_a_batches", "iter_task_b_batches", "n_batches"]


def n_batches(n_samples: int, batch_size: int, drop_last: bool = False) -> int:
    """Number of batches an epoch will produce."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if drop_last:
        return n_samples // batch_size
    return (n_samples + batch_size - 1) // batch_size


def _iter_index_batches(
    n: int, batch_size: int, rng, shuffle: bool, drop_last: bool
) -> Iterator[np.ndarray]:
    order = np.arange(n)
    if shuffle:
        rng.shuffle(order)
    limit = (n // batch_size) * batch_size if drop_last else n
    for start in range(0, limit, batch_size):
        yield order[start : start + batch_size]


def iter_task_a_batches(
    samples: TaskASamples,
    batch_size: int = 64,
    shuffle: bool = True,
    drop_last: bool = False,
    seed: SeedLike = None,
) -> Iterator[Dict[str, np.ndarray]]:
    """Yield ``{"index", "users", "items", "group_index"}`` Task-A batches.

    ``index`` carries each row's position in ``samples``.
    """
    rng = as_rng(seed)
    for idx in _iter_index_batches(len(samples), batch_size, rng, shuffle, drop_last):
        yield {
            "index": idx,
            "users": samples.users[idx],
            "items": samples.items[idx],
            "group_index": samples.group_index[idx],
        }


def iter_task_b_batches(
    samples: TaskBSamples,
    batch_size: int = 64,
    shuffle: bool = True,
    drop_last: bool = False,
    seed: SeedLike = None,
) -> Iterator[Dict[str, np.ndarray]]:
    """Yield ``{"index", "users", "items", "participants", "group_index"}`` batches."""
    rng = as_rng(seed)
    for idx in _iter_index_batches(len(samples), batch_size, rng, shuffle, drop_last):
        yield {
            "index": idx,
            "users": samples.users[idx],
            "items": samples.items[idx],
            "participants": samples.participants[idx],
            "group_index": samples.group_index[idx],
        }
