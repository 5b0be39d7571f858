"""Embedding-store interface: partitioner and gather contract.

The ROADMAP's sharding item separates *what rows a scoring request
touches* (the id arrays a scorer reads) from *where those rows live*.
This module defines the "where":

* an :class:`EmbeddingStore` owns the rows of one logical
  ``(num_rows, dim)`` embedding table and answers ``gather(ids) ->
  rows`` with a differentiable scatter-add backward, so every consumer
  — the planned scoring paths, the flat trainer, serving — reads
  entity rows without knowing the layout;
* a :class:`Partitioner` splits the logical row ids into contiguous
  shard blocks (a store finds each shard's share of a sorted id array
  with one ``searchsorted`` against the block starts);
* :func:`iter_stores` walks a module tree for store-backed embeddings
  (serving observability, per-shard checkpointing).

Stores are deliberately *not* :class:`repro.nn.module.Module`
subclasses: the owning :class:`repro.nn.layers.Embedding` registers the
store's :class:`repro.nn.module.Parameter` leaves under its own names,
so optimizers and parameter counting see shards directly while the
embedding's canonical checkpoint entry stays the logical ``weight``
table regardless of layout (see ``Embedding._state_items``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.nn.tensor import Tensor

__all__ = ["Partitioner", "EmbeddingStore", "iter_stores"]


@dataclass(frozen=True)
class Partitioner:
    """Maps logical row ids of a ``(num_rows, dim)`` table onto shards.

    Each shard owns one contiguous block (``np.array_split`` boundaries:
    the first ``num_rows % n_shards`` shards hold one extra row, so every
    shard holds at most ``ceil(num_rows / n_shards)`` rows).
    """

    num_rows: int
    n_shards: int
    _starts: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_rows < 0:
            raise ValueError(f"num_rows must be >= 0, got {self.num_rows}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        base, extra = divmod(self.num_rows, self.n_shards)
        sizes = [base + (1 if k < extra else 0) for k in range(self.n_shards)]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        object.__setattr__(self, "_starts", tuple(int(s) for s in starts))

    def shard_size(self, shard: int) -> int:
        """Number of rows shard ``shard`` owns."""
        return self._starts[shard + 1] - self._starts[shard]

    def owned_ids(self, shard: int) -> np.ndarray:
        """The logical row ids shard ``shard`` owns, ascending."""
        return np.arange(self._starts[shard], self._starts[shard + 1], dtype=np.int64)


class EmbeddingStore:
    """Storage strategy behind :class:`repro.nn.layers.Embedding`.

    The contract every consumer relies on:

    * :meth:`gather` returns requested rows *bit-identical* to indexing
      the logical dense table, with a backward that scatter-adds into
      the owning shard parameters in the same per-row accumulation
      order as the dense adjoint — so planned/flat scores and gradients
      cannot depend on the layout;
    * :meth:`all` materialises the logical table as one differentiable
      tensor (full-graph GCN encoders and MF baselines need it);
    * :meth:`logical_state` / :meth:`load_logical` round-trip the
      logical table for canonical (layout-independent) checkpoints;
    * :meth:`assign_rows` writes rows by logical id into whichever
      shard owns them — the streaming restore path for per-shard
      checkpoint files.

    ``stats`` counts gathers for serving observability and the
    shard-gather benchmark.

    Thread-safety: the ``stats`` counters a gather bumps are guarded by
    a per-store lock, so a stats reader (``stats_snapshot``, the serving
    engine's unified ``stats()``) can run concurrently with the engine's
    scorer thread without torn counters.  The gathered *values* need no
    lock (reads of parameter buffers); concurrent
    **writers** (optimizer steps, ``assign_rows``) are still the
    caller's responsibility to serialize against readers.
    """

    num_rows: int
    dim: int

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.stats = {
            "gathers": 0,
            "rows_gathered": 0,
            "max_gather_rows": 0,
            "shard_touches": 0,
            "max_shard_gather_rows": 0,
        }

    # ------------------------------------------------------------------
    # To be provided by concrete stores
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def named_parameters(self) -> List[Tuple[str, Parameter]]:
        """``(name, parameter)`` leaves for the owning module to register."""
        raise NotImplementedError  # pragma: no cover - abstract

    def gather(self, ids) -> Tensor:
        """Rows for logical ``ids`` → differentiable ``(len(ids), dim)``."""
        raise NotImplementedError  # pragma: no cover - abstract

    def all(self) -> Tensor:
        """The logical table as one differentiable tensor."""
        raise NotImplementedError  # pragma: no cover - abstract

    def logical_state(self) -> np.ndarray:
        """Copy of the logical ``(num_rows, dim)`` table."""
        raise NotImplementedError  # pragma: no cover - abstract

    def load_logical(self, values: np.ndarray, dtype=None) -> None:
        """Load a logical table (re-partitioning as needed).

        ``dtype=None`` assigns into the existing buffers; an explicit
        dtype rebinds every shard buffer to that precision (the float32
        serving path) and clears gradients.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def assign_rows(self, ids, values) -> None:
        """Write ``values`` into the logical rows ``ids`` (any layout)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def shard_rows(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(owned_ids, rows)`` of one shard — the per-shard checkpoint unit."""
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _check_table(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != (self.num_rows, self.dim):
            raise ValueError(
                f"expected a ({self.num_rows}, {self.dim}) table, got {values.shape}"
            )
        return values

    def _check_ids(self, ids) -> np.ndarray:
        """``ids`` as a 1-D int64 array of rows in ``[0, num_rows)``.

        Raises ``ValueError`` otherwise, the same on every layout: a
        negative id would silently read a row from the end of a dense
        table.
        """
        idx = np.asarray(ids, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"ids must be a 1-D array, got shape {idx.shape}")
        if idx.size:
            lo, hi = int(idx.min()), int(idx.max())
            if lo < 0 or hi >= self.num_rows:
                raise ValueError(
                    f"ids must lie in [0, {self.num_rows}), got range [{lo}, {hi}]"
                )
        return idx

    def _record_gather(self, n_rows: int, shards_touched: int, max_shard_rows: int) -> None:
        with self._lock:
            self.stats["gathers"] += 1
            self.stats["rows_gathered"] += int(n_rows)
            self.stats["max_gather_rows"] = max(self.stats["max_gather_rows"], int(n_rows))
            self.stats["shard_touches"] += int(shards_touched)
            self.stats["max_shard_gather_rows"] = max(
                self.stats["max_shard_gather_rows"], int(max_shard_rows)
            )

    def stats_snapshot(self) -> dict:
        """Consistent copy of the gather counters (safe from any thread).

        Includes ``resident_bytes`` whenever the store can account for
        its buffers (:meth:`resident_nbytes`), so benchmarks and the
        serving engine read a counter instead of ``sys.getsizeof``
        guesswork.
        """
        with self._lock:
            out = dict(self.stats)
        nbytes = self.resident_nbytes()
        if nbytes is not None:
            out["resident_bytes"] = int(nbytes)
        return out

    def resident_nbytes(self) -> Optional[int]:
        """Bytes permanently held by this store tier (rows + side arrays
        + arenas), or ``None`` when the layout cannot account for them."""
        return None

    @staticmethod
    def _assign_param(param: Parameter, values: np.ndarray, dtype=None) -> None:
        """Assign-or-rebind one parameter buffer (checkpoint-load semantics)."""
        if dtype is None:
            param.data[...] = values
        else:
            # np.array (not asarray): always copy, so the rebound buffer
            # never aliases the caller's arrays.
            param.data = np.array(values, dtype=dtype)
            param.grad = None
        param.bump_version()

    def rebind_dtype(self, dtype) -> None:
        """Rebind every owned buffer to ``dtype`` (float32 serving path)."""
        for _, param in self.named_parameters():
            self._assign_param(param, param.data, dtype)

    def resident_rows(self) -> List[int]:
        """Rows permanently held per shard (the memory-model accounting)."""
        return [self.shard_size_of(k) for k in range(self.n_shards)]

    def shard_size_of(self, shard: int) -> int:
        """Rows shard ``shard`` owns (1 shard = the whole table for dense)."""
        raise NotImplementedError  # pragma: no cover - abstract


def iter_stores(module) -> Iterator[Tuple[str, EmbeddingStore]]:
    """Yield ``(module_path, store)`` for store-backed embeddings in a tree.

    Duck-typed on the ``store`` attribute so this module never imports
    the layer classes (the layers import *us*).
    """
    for name, mod in module.named_modules():
        store = getattr(mod, "store", None)
        if isinstance(store, EmbeddingStore):
            yield (name or "<root>"), store
