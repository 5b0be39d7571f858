"""Embedding storage layouts (ROADMAP "sharded embedding tables").

Public surface:

* :class:`EmbeddingStore` — the storage contract behind
  :class:`repro.nn.layers.Embedding`;
* :class:`DenseStore` — the single-table layout (default);
* :class:`ProcessShardedStore` — rows split into N contiguous blocks
  (shards), each owned by a **worker process** answering gathers over
  shared-memory row buffers (the cross-process shard service, see
  :mod:`repro.store.service`);
* :class:`LRUCachedStore` / :func:`cache_hot_rows` — hot-row LRU cache
  decorating any store (serving's skewed id streams hit it instead of
  the shard machinery);
* :class:`Partitioner` / :class:`ShardMap` — id→shard assignment and
  compiled per-shard gather plans (also cached on scoring plans);
* :func:`make_store` — layout factory used by the layer constructors;
* :func:`iter_stores` — find store-backed embeddings in a module tree.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.store.base import EmbeddingStore, Partitioner, ShardMap, iter_stores
from repro.store.dense import DenseStore
from repro.store.lru import LRUCachedStore, cache_hot_rows
from repro.store.quant import QuantizedStore, check_quant_mode, quant_bytes_per_row
from repro.store.service import ProcessShardedStore, RemoteShardParameter

__all__ = [
    "EmbeddingStore",
    "DenseStore",
    "ProcessShardedStore",
    "RemoteShardParameter",
    "LRUCachedStore",
    "QuantizedStore",
    "Partitioner",
    "ShardMap",
    "iter_stores",
    "cache_hot_rows",
    "make_store",
    "quant_bytes_per_row",
]


def make_store(
    values: np.ndarray,
    n_shards: int = 0,
    quantize: Optional[str] = None,
) -> EmbeddingStore:
    """Build the layout for an initial table: ``n_shards`` alone picks it.

    ``n_shards=0`` keeps the single-table :class:`DenseStore` (the
    historical behaviour); ``n_shards >= 1`` partitions the same initial
    values across that many worker *processes*
    (:class:`ProcessShardedStore`) — same contract, same bits, rows
    owned and gathered outside the GIL.  Any layout built from one init
    array therefore scores identically.

    ``quantize="int8"|"fp16"`` adds the quantised memory tier
    (docs/quantization.md): the dense layout gets a
    :class:`QuantizedStore` wrapper over the float master (training
    bypasses it; inference gathers dequantise from the compact shadow),
    while the service quantises the rows *inside* each worker process
    (inference-only).  ``quantize=None`` keeps float rows.
    """
    if n_shards < 0:
        raise ValueError(f"n_shards must be >= 0, got {n_shards}")
    mode = check_quant_mode(quantize)
    if n_shards >= 1:
        return ProcessShardedStore(values, n_shards, quantize=mode)
    store: EmbeddingStore = DenseStore(values)
    if mode is not None:
        store = QuantizedStore(store, mode)
    return store
