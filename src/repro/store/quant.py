"""Quantised embedding memory tier: int8/fp16 rows, dequantise-on-gather.

The float serving path stores 4–8 bytes per embedding element, so RAM —
not compute — is what caps catalog size × hot-set size (the ROADMAP's
"quantised embedding memory tier" item).  A :class:`QuantizedStore`
wraps any :class:`repro.store.base.EmbeddingStore` and keeps a compact
*shadow* of the logical table:

* ``mode="int8"`` — per-row affine quantisation.  Each row ``v`` stores
  ``q = rint((v - zero) / scale)`` as int8 codes plus two float32 side
  scalars per row (``scale``/``zero``), 1 byte/element + 8 bytes/row —
  about **4×** more rows in the same RAM at dim ≥ 40.
* ``mode="fp16"`` — rows stored as IEEE half floats, 2 bytes/element —
  **2×** more rows, no side arrays.

Codec contract
--------------
``scale = float32((hi - lo) / 254)`` and ``zero = float32((hi + lo)/2)``
map a row's value range onto codes in ``[-127, 127]``; quantisation
computes codes against the *stored* float32 side values (widened to
float64), so dequantisation error is bounded by ``scale / 2`` per
element.  **Degenerate rows** — all-constant or all-zero rows (padding
rows, ``mean_participant_id`` sentinels), or rows whose spread
underflows float32 — would produce ``scale == 0``; the convention is
``scale = 1`` and ``zero = the row midpoint`` with all-zero codes, so
dequantisation is *exact* for constant rows.  Rows whose float64 range
does not fit float32 side scalars raise (quantise before the values
explode, not after).

Dequantisation casts the side scalars to the output dtype first and
then runs one elementwise multiply-add, so bulk gathers, per-row LRU
cache hits and worker-process arena fills all produce **bit-identical**
outputs for the same codes.

Tier semantics
--------------
* **Training bypasses the tier** exactly like the LRU bypass: under
  ``is_grad_enabled()`` every ``gather``/``all`` delegates to the
  full-precision inner store (the float *master*), so gradients and
  optimizer state never see quantised values.
* **Inference reads the shadow**: ``no_grad`` gathers slice the shadow
  and dequantise into a fresh compute-dtype block.  The shadow is
  *version-keyed* — lazily rebuilt from ``inner.logical_state()``
  whenever the sum of the inner parameters' ``version``s moves (an
  optimizer step, a checkpoint load, ``rebind_dtype``).
* **Writes re-quantise**: ``assign_rows`` writes the master, then
  refreshes exactly the written rows' codes and per-row scales (reading
  the rows back from the master so the shadow matches a full rebuild
  bit-for-bit) — ``ServingEngine.refresh()`` live swaps and N→M
  reshard streaming keep working.
* **Checkpoints stay canonical float**: ``logical_state`` /
  ``shard_rows`` come from the master, so a checkpoint written under a
  quantised layout restores under any other.

``LRUCachedStore`` stacks *on top* (cache quantised payloads via
:meth:`QuantizedStore.gather_quantized`); the process-sharded analogue
lives worker-side in :mod:`repro.store.service` (same codec, rows
quantised inside each worker).  See docs/quantization.md.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, get_default_dtype, is_grad_enabled, no_grad
from repro.store.base import EmbeddingStore

__all__ = [
    "QUANT_MODES",
    "QuantizedStore",
    "check_quant_mode",
    "dequantize_row",
    "dequantize_rows",
    "quant_bytes_per_row",
    "quantize_rows",
]

#: Supported shadow precisions (``None`` everywhere means "no tier").
QUANT_MODES = ("int8", "fp16")

# int8 codes span [-127, 127]: symmetric around the row midpoint, so
# zero_point sits at the exact centre and 254 steps cover the range.
_QSTEPS = 254.0
_QMAX = 127


def check_quant_mode(mode: Optional[str]) -> Optional[str]:
    """Validate a ``quantize=`` knob value (``None`` disables the tier)."""
    if mode is None:
        return None
    if mode not in QUANT_MODES:
        raise ValueError(
            f"quantize must be one of {QUANT_MODES} or None, got {mode!r}"
        )
    return mode


def quant_bytes_per_row(dim: int, mode: Optional[str], float_itemsize: int = 4) -> int:
    """Resident bytes per row for one mode (side arrays included)."""
    if mode == "int8":
        return dim + 8  # 1 byte/code + float32 scale + float32 zero
    if mode == "fp16":
        return 2 * dim
    return float_itemsize * dim


def quantize_rows(
    values: np.ndarray, mode: str
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Quantise a ``(rows, dim)`` float block → ``(codes, scale, zero)``.

    ``mode="fp16"`` returns ``(float16 rows, None, None)``.
    ``mode="int8"`` returns int8 codes plus float32 ``(rows,)`` side
    arrays, with the degenerate-row convention described in the module
    docstring.  Codes are computed against the *stored* (float32) side
    values widened to float64, so dequantisation error per element is
    bounded by ``scale / 2``.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"need a (rows, dim) block, got shape {values.shape}")
    if mode == "fp16":
        return values.astype(np.float16), None, None
    if mode != "int8":
        raise ValueError(f"quantize mode must be one of {QUANT_MODES}, got {mode!r}")
    wide = values.astype(np.float64, copy=False)
    lo = wide.min(axis=1) if values.shape[1] else np.zeros(len(values))
    hi = wide.max(axis=1) if values.shape[1] else np.zeros(len(values))
    with np.errstate(over="ignore"):  # out-of-range rows raise just below
        scale = ((hi - lo) / _QSTEPS).astype(np.float32)
        zero = ((hi + lo) / 2.0).astype(np.float32)
    if not (np.isfinite(scale).all() and np.isfinite(zero).all()):
        raise ValueError(
            "row range does not fit float32 quantisation side arrays "
            "(non-finite scale/zero) — quantise before values overflow"
        )
    # Degenerate rows (constant, or spread underflowing float32): scale=1
    # with zero at the row value makes dequantisation exact (codes are 0).
    scale = np.where(scale == 0.0, np.float32(1.0), scale)
    s64 = scale.astype(np.float64)[:, None]
    z64 = zero.astype(np.float64)[:, None]
    q = np.clip(np.rint((wide - z64) / s64), -_QMAX, _QMAX).astype(np.int8)
    return q, scale, zero


def dequantize_rows(
    q: np.ndarray,
    scale: Optional[np.ndarray],
    zero: Optional[np.ndarray],
    out: Optional[np.ndarray] = None,
    dtype=None,
) -> np.ndarray:
    """Dequantise a payload block into ``out`` (or a fresh ``dtype`` array).

    One elementwise multiply-add with the side scalars pre-cast to the
    output dtype — the single codec path every tier shares, so dense
    shadows, LRU hits and worker arena fills are bit-identical.
    """
    if out is None:
        if dtype is None:
            dtype = get_default_dtype()
        out = np.empty(q.shape, dtype=np.dtype(dtype))
    if scale is None:  # fp16: plain widening cast
        out[...] = q
        return out
    s = scale.astype(out.dtype, copy=False)
    z = zero.astype(out.dtype, copy=False)
    np.multiply(q, s[:, None], out=out)
    out += z[:, None]
    return out


def dequantize_row(q: np.ndarray, scale, zero, out: np.ndarray) -> np.ndarray:
    """One payload row into ``out`` ``(dim,)`` — bitwise the bulk path.

    ``out.dtype.type(scale)`` is elementwise-identical to
    ``scale_array.astype(out.dtype)[r]``, so an LRU cache hit filled row
    by row matches a bulk :func:`dequantize_rows` gather bit-for-bit.
    """
    if scale is None:
        out[...] = q
        return out
    np.multiply(q, out.dtype.type(scale), out=out)
    out += out.dtype.type(zero)
    return out


class QuantizedStore(EmbeddingStore):
    """Quantised shadow tier over a full-precision master store.

    Parameters
    ----------
    inner: the decorated store — the float *master*.  Grad-enabled reads,
        checkpoint state and parameter registration all come from it.
    mode: ``"int8"`` (per-row affine codes + scale/zero side arrays) or
        ``"fp16"`` (half-float rows).
    """

    def __init__(self, inner: EmbeddingStore, mode: str = "int8") -> None:
        super().__init__()
        if isinstance(inner, QuantizedStore):
            raise ValueError("refusing to stack quantised tiers — one mode per table")
        if type(inner).__name__ == "LRUCachedStore":
            raise ValueError(
                "stack the LRU cache on top of QuantizedStore "
                "(LRUCachedStore(QuantizedStore(store), ...)), not beneath it"
            )
        if check_quant_mode(mode) is None:
            raise ValueError(f"QuantizedStore needs a mode from {QUANT_MODES}, got None")
        self.inner = inner
        self.mode = mode
        self.num_rows, self.dim = inner.num_rows, inner.dim
        # Separate from self._lock: the shadow sync path runs while the
        # stats lock is taken by concurrent snapshot readers.
        self._qlock = threading.Lock()
        self._q: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None
        self._zero: Optional[np.ndarray] = None
        self._qepoch: Optional[int] = None
        with self._qlock:
            self._sync_locked()  # eager: resident_bytes is correct from birth

    # ------------------------------------------------------------------
    # Layout / parameter delegation (the master owns all trainable state)
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
    # Shadow maintenance
    # ------------------------------------------------------------------
    def _inner_epoch(self) -> int:
        return sum(p.version for _, p in self.inner.named_parameters())

    def _sync_locked(self) -> None:
        """Rebuild the shadow iff the master moved (callers hold _qlock)."""
        epoch = self._inner_epoch()
        if epoch == self._qepoch and self._q is not None:
            return
        self._q, self._scale, self._zero = quantize_rows(
            self.inner.logical_state(), self.mode
        )
        self._qepoch = epoch

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def gather(self, ids) -> Tensor:
        if is_grad_enabled():
            # Training reads the float master — gradients and optimizer
            # state never see quantised values.
            return self.inner.gather(ids)
        idx = np.asarray(ids, dtype=np.int64).ravel()
        with self._qlock:
            self._sync_locked()
            q = self._q[idx]
            scale = None if self._scale is None else self._scale[idx]
            zero = None if self._zero is None else self._zero[idx]
        self._record_gather(idx.size, 1 if idx.size else 0, idx.size)
        return Tensor(dequantize_rows(q, scale, zero, dtype=get_default_dtype()))

    def gather_quantized(
        self, ids
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Raw payload rows for ``ids`` — the LRU cache tier's fetch path.

        Returns fresh (fancy-indexed) arrays, safe for the caller to keep.
        """
        idx = np.asarray(ids, dtype=np.int64).ravel()
        with self._qlock:
            self._sync_locked()
            q = self._q[idx]
            scale = None if self._scale is None else self._scale[idx]
            zero = None if self._zero is None else self._zero[idx]
        return q, scale, zero

    def all(self) -> Tensor:
        if is_grad_enabled():
            return self.inner.all()
        with self._qlock:
            self._sync_locked()
            out = dequantize_rows(
                self._q, self._scale, self._zero, dtype=get_default_dtype()
            )
        return Tensor(out)

    # ------------------------------------------------------------------
    # State (canonical float — always the master's)
    # ------------------------------------------------------------------
    def logical_state(self) -> np.ndarray:
        return self.inner.logical_state()

    def load_logical(self, values: np.ndarray, dtype=None) -> None:
        self.inner.load_logical(values, dtype)
        with self._qlock:
            self._qepoch = None  # next read rebuilds the whole shadow

    def assign_rows(self, ids, values) -> None:
        """Write the master, then re-quantise exactly the written rows.

        The shadow rows are rebuilt from the master's *stored* values
        (read back after the write), so an incremental refresh is
        bit-identical to a full shadow rebuild — per-row scale refresh
        included.  If the shadow was already stale, the write just keeps
        it stale (the next read resyncs in full).
        """
        idx = np.asarray(ids, dtype=np.int64).ravel()
        with self._qlock:
            pre = self._inner_epoch()
            self.inner.assign_rows(idx, values)
            if self._qepoch != pre or self._q is None:
                self._qepoch = None
                return
            with no_grad():
                stored = self.inner.gather(idx).data
            q, scale, zero = quantize_rows(stored, self.mode)
            self._q[idx] = q
            if scale is not None:
                self._scale[idx] = scale
                self._zero[idx] = zero
            self._qepoch = self._inner_epoch()

    def rebind_dtype(self, dtype) -> None:
        self.inner.rebind_dtype(dtype)
        with self._qlock:
            self._qepoch = None

    def shard_rows(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner.shard_rows(shard)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def resident_nbytes(self) -> Optional[int]:
        """Bytes held by the quantised tier itself (codes + side arrays).

        The master's float bytes are reported by the nested ``inner``
        snapshot — the tier's own footprint is what an inference-only
        deployment (e.g. the process-sharded workers, where *only* the
        quantised rows exist) actually pays per row.
        """
        with self._qlock:
            if self._q is None:
                return self.num_rows * quant_bytes_per_row(self.dim, self.mode)
            total = self._q.nbytes
            if self._scale is not None:
                total += self._scale.nbytes + self._zero.nbytes
            return total

    def stats_snapshot(self) -> dict:
        out = super().stats_snapshot()
        out["quant_mode"] = self.mode
        out["quant_bytes_per_row"] = quant_bytes_per_row(self.dim, self.mode)
        out["inner"] = self.inner.stats_snapshot()
        return out
