"""Hot-row LRU cache in front of any embedding store.

Serving traffic is heavily skewed: a few celebrity users and head items
appear in a large fraction of requests, while a sharded table answers
every gather with a round trip to its shard workers.  An
:class:`LRUCachedStore` decorates any :class:`repro.store.base
.EmbeddingStore` (in practice a :class:`repro.store.ProcessShardedStore`
— a dense table is already one flat buffer) and keeps the most recently
requested ``capacity`` rows resident in a plain id→row map, so a
serving gather only pays the inner store's shard machinery for the
cold tail.

Correctness contract
--------------------
* **Values** — cached rows are copies of exactly what the inner store
  returned; a hit is bit-identical to re-gathering.  The cache is keyed
  on an *epoch* — the sum of the inner parameters' mutation
  ``version``s plus the active default dtype — so any weight update
  (optimizer step, checkpoint load, ``assign_rows``) or a dtype-scope
  switch invalidates every cached row before the next read.
* **Gradients** — the cache serves **inference gathers only**: under
  ``is_grad_enabled()`` every call delegates untouched to the inner
  store, which builds the normal differentiable gather.  Training
  through a cached store is therefore bit-for-bit training through the
  inner store.
* **Quantised payloads** — when the inner store exposes a quantised
  tier (:class:`repro.store.quant.QuantizedStore`, duck-typed on
  ``gather_quantized``), the cache holds the *quantised* rows (int8
  codes + per-row scale/zero, or fp16 rows) instead of float copies, so
  the same cache RAM covers ~4× (int8) / ~2× (fp16) the hot set.  A hit
  dequantises straight into the output block — the buffer planned
  scoring adopts — with no intermediate float allocation, and is
  bit-identical to an inner-store miss gather (single shared codec).
* **Threads** — cache mutations and the hit/miss counters share the
  store's lock, so the serving workers sharing one model and any stats
  reader interleave safely.  The inner fetch runs outside the lock, so
  two workers may both miss a row and fetch it; the first insert wins
  and the byte count stays exact.

``stats`` gains ``cache_hits`` / ``cache_misses`` / ``cache_evictions``
counters, surfaced through ``ServingEngine.shard_stats()`` /
``ServingEngine.stats()`` next to the inner store's gather counters.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, get_default_dtype, is_grad_enabled
from repro.store.base import EmbeddingStore
from repro.store.quant import dequantize_row

__all__ = ["LRUCachedStore", "cache_hot_rows"]


class LRUCachedStore(EmbeddingStore):
    """Keep the hottest ``capacity`` rows of ``inner`` resident.

    Parameters
    ----------
    inner: the decorated store — gathers for rows missing from the
        cache (and every grad-enabled gather) are answered by it.
    capacity: maximum cached rows; least-recently-used rows are evicted
        once exceeded.
    """

    def __init__(self, inner: EmbeddingStore, capacity: int) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if isinstance(inner, LRUCachedStore):
            raise ValueError("refusing to stack LRU caches — wrap the raw store once")
        self.inner = inner
        self.capacity = int(capacity)
        self.num_rows, self.dim = inner.num_rows, inner.dim
        # Quantised inner tier: cache (codes, scale, zero) payloads and
        # dequantise on hit, instead of caching float row copies.
        self._quantized = hasattr(inner, "gather_quantized")
        self._rows: "OrderedDict[int, object]" = OrderedDict()
        self._cache_nbytes = 0
        self._epoch: Optional[Tuple] = None
        self.stats.update({"cache_hits": 0, "cache_misses": 0, "cache_evictions": 0})

    # ------------------------------------------------------------------
    # Layout / parameter delegation (the cache owns no state of its own)
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.inner.n_shards

    def shard_size_of(self, shard: int) -> int:
        return self.inner.shard_size_of(shard)

    def resident_rows(self) -> List[int]:
        return self.inner.resident_rows()

    def named_parameters(self) -> List[Tuple[str, Parameter]]:
        return self.inner.named_parameters()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _current_epoch(self) -> Tuple:
        versions = sum(p.version for _, p in self.inner.named_parameters())
        return (versions, get_default_dtype().str)

    def gather(self, ids) -> Tensor:
        if is_grad_enabled():
            # Differentiable gathers must build the inner store's graph;
            # the cache only ever serves inference reads.
            return self.inner.gather(ids)
        idx = self._check_ids(ids)
        unique = np.unique(idx)
        epoch = self._current_epoch()
        found = {}
        missing: List[int] = []
        with self._lock:
            if epoch != self._epoch:
                self._rows.clear()
                self._cache_nbytes = 0
                self._epoch = epoch
            for i in unique.tolist():
                row = self._rows.get(i)
                if row is None:
                    missing.append(i)
                else:
                    found[i] = row
                    self._rows.move_to_end(i)
            self.stats["cache_hits"] += len(found)
            self.stats["cache_misses"] += len(missing)
        if missing:
            # Inner fetch runs outside the lock (it may touch several
            # shard buffers); per-row copies keep evicted rows from
            # pinning the whole fetched block alive.
            marr = np.asarray(missing, dtype=np.int64)
            if self._quantized:
                fq, fs, fz = self.inner.gather_quantized(marr)
                payloads = [
                    (
                        np.array(fq[k]),
                        None if fs is None else np.float32(fs[k]),
                        None if fz is None else np.float32(fz[k]),
                    )
                    for k in range(len(missing))
                ]
            else:
                fetched = self.inner.gather(marr).data
                payloads = [np.array(fetched[k]) for k in range(len(missing))]
            with self._lock:
                if epoch == self._epoch:  # a writer may have raced the fetch
                    for i, payload in zip(missing, payloads):
                        if i in self._rows:  # another thread's miss got here first
                            continue
                        self._rows[i] = payload
                        self._cache_nbytes += self._payload_nbytes(payload)
                    while len(self._rows) > self.capacity:
                        _, old = self._rows.popitem(last=False)
                        self._cache_nbytes -= self._payload_nbytes(old)
                        self.stats["cache_evictions"] += 1
            for i, payload in zip(missing, payloads):
                found[i] = payload
        self._record_gather(idx.size, 0, 0)
        block = np.empty((len(unique), self.dim), dtype=get_default_dtype())
        if self._quantized:
            # Dequantise each payload straight into its output row — the
            # block planned scoring adopts; no intermediate float
            # allocation, bit-identical to a bulk inner gather.
            for pos, i in enumerate(unique.tolist()):
                q, scale, zero = found[i]
                dequantize_row(q, scale, zero, block[pos])
        else:
            for pos, i in enumerate(unique.tolist()):
                block[pos] = found[i]
        if idx.size == unique.size and np.array_equal(unique, idx):
            return Tensor(block)  # planned gathers pass sorted-unique ids
        return Tensor(block[np.searchsorted(unique, idx)])

    def all(self) -> Tensor:
        return self.inner.all()

    # ------------------------------------------------------------------
    # Writes (delegate, then drop stale rows)
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        with self._lock:
            self._rows.clear()
            self._cache_nbytes = 0
            self._epoch = None

    @staticmethod
    def _payload_nbytes(payload) -> int:
        if isinstance(payload, tuple):
            q, scale, _ = payload
            # int8 payloads carry two float32 side scalars per row.
            return q.nbytes + (0 if scale is None else 8)
        return payload.nbytes

    def logical_state(self) -> np.ndarray:
        return self.inner.logical_state()

    def load_logical(self, values: np.ndarray, dtype=None) -> None:
        self.inner.load_logical(values, dtype)
        self._invalidate()

    def assign_rows(self, ids, values) -> None:
        self.inner.assign_rows(ids, values)
        self._invalidate()

    def rebind_dtype(self, dtype) -> None:
        self.inner.rebind_dtype(dtype)
        self._invalidate()

    def shard_rows(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner.shard_rows(shard)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def cached_rows(self) -> int:
        """Rows currently resident in the cache."""
        with self._lock:
            return len(self._rows)

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)`` over the store's lifetime."""
        with self._lock:
            total = self.stats["cache_hits"] + self.stats["cache_misses"]
            return self.stats["cache_hits"] / total if total else 0.0

    def resident_nbytes(self) -> int:
        """Bytes held by the cache tier itself (payload rows; the inner
        store's buffers are reported by the nested ``inner`` snapshot)."""
        with self._lock:
            return self._cache_nbytes

    def stats_snapshot(self) -> dict:
        out = super().stats_snapshot()
        with self._lock:
            out["cache_rows"] = len(self._rows)
        out["cache_capacity"] = self.capacity
        out["inner"] = self.inner.stats_snapshot()
        return out


def cache_hot_rows(model, capacity: int) -> dict:
    """Wrap every store-backed embedding of a module tree in an LRU cache.

    Walks ``model`` for :class:`repro.nn.layers.Embedding`-style modules
    (anything exposing a ``store`` attribute holding an
    :class:`EmbeddingStore`), replaces each store with an
    :class:`LRUCachedStore` of ``capacity`` rows, and returns
    ``module_path -> cache``.  Already-wrapped stores are left alone, so
    the helper is idempotent.  Wrap **before** building a serving cache
    (``refresh_cache``) so store-backed bundles hand the scoring paths
    the cached store.
    """
    wrapped = {}
    for name, module in model.named_modules():
        store = getattr(module, "store", None)
        if isinstance(store, EmbeddingStore) and not isinstance(store, LRUCachedStore):
            cached = LRUCachedStore(store, capacity)
            module.store = cached
            wrapped[name or "<root>"] = cached
    return wrapped
