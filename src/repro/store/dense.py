"""The single-table store: exactly the pre-sharding behaviour.

One :class:`repro.nn.module.Parameter` named ``weight`` holds the whole
logical table, ``gather`` is a plain row gather and ``all()`` returns
the parameter itself (full-graph encoders feed it to ``spmm`` without a
copy, and ``Embedding.all() is Embedding.weight`` stays true).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, take_rows
from repro.store.base import EmbeddingStore

__all__ = ["DenseStore"]


class DenseStore(EmbeddingStore):
    """All rows in one parameter — the default (and serving-cheapest
    layout while the table fits in one process)."""

    def __init__(self, values: np.ndarray) -> None:
        super().__init__()
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError(f"need a (rows, dim) table, got shape {values.shape}")
        self.num_rows, self.dim = values.shape
        self.weight = Parameter(values, "weight")

    @property
    def n_shards(self) -> int:
        return 1

    def shard_size_of(self, shard: int) -> int:
        if shard != 0:
            raise IndexError(f"dense store has one shard, got index {shard}")
        return self.num_rows

    def named_parameters(self) -> List[Tuple[str, Parameter]]:
        return [("weight", self.weight)]

    def resident_nbytes(self) -> int:
        return self.weight.data.nbytes

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def gather(self, ids) -> Tensor:
        idx = np.asarray(ids, dtype=np.int64)
        self._record_gather(idx.size, 1 if idx.size else 0, idx.size)
        return take_rows(self.weight, idx)

    def all(self) -> Tensor:
        return self.weight

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def logical_state(self) -> np.ndarray:
        return self.weight.data.copy()

    def load_logical(self, values: np.ndarray, dtype=None) -> None:
        self._assign_param(self.weight, self._check_table(values), dtype)

    def assign_rows(self, ids, values) -> None:
        idx = np.asarray(ids, dtype=np.int64)
        self.weight.data[idx] = values
        self.weight.bump_version()

    def shard_rows(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        if shard != 0:
            raise IndexError(f"dense store has one shard, got index {shard}")
        return np.arange(self.num_rows, dtype=np.int64), self.weight.data
