"""Fused no-tape inference executor support: buffers, stats, resolution.

The planned scoring path normally runs on the autograd tape: every
primitive allocates a fresh result array and a graph node, even under
``no_grad`` where the node is pure overhead.  The *fused executor*
re-runs the exact same primitive sequence through a
:class:`FusedWorkspace` instead — preallocated buffers written in place
(``out=``) with **no** Tensor graph nodes — so a flush's transient
allocations collapse into a reusable pool.

Bit-parity contract
-------------------
At float64 the fused path is bit-identical to the tape (asserted in
tests/test_fused_executor.py and gated in BENCH_eval_throughput): every
workspace op performs the same backend primitive on the same operand
arrays as the tape — ``out=`` variants of NumPy ufuncs, ``matmul``,
``take``, ``stack``/``concatenate`` and axis reductions are bit-identical
to their allocating forms, and fold weights are read through the same
version-keyed caches (``folded_blocks_raw`` / ``stacked_folds_raw``) the
tape uses, so both executors multiply the identical cached arrays.
Under a float32 scope the workspace mirrors the tape's mixed-dtype rule:
an op whose operands are already the scope dtype runs buffered; an op
touching raw float64 parameters runs unbuffered and casts its *result*,
exactly like the Tensor wrapper does.

Buffer lifecycle
----------------
``begin(dtype)`` opens a flush: the slot cursor resets and each buffer
request takes the next slot, which holds one flat buffer sized to the
largest request that slot has seen (geometric growth).  Because the
fused program is deterministic, the same call sequence hits the same
slots on every flush — equal eval chunks reuse the pool exactly, and
serving flushes of *varying* size reuse it by capacity, keeping the
backing pages warm instead of faulting fresh ones inside the ufuncs.
A dtype switch (or blowing the byte cap after a pathological flush)
clears everything and counts an ``invalidation``.  Parameter
updates need no explicit hook: fold caches are version-keyed upstream,
so a bumped version yields a *new* fold array whose identity misses the
workspace's cast cache — invalidation is transitive.

In-place safety: ops only write into arrays the workspace itself
allocated this flush (tracked by identity, with strong references so
ids stay unique) — model parameters, fold caches and entity gathers are
never mutated.  Callers must copy results they hand out
(:meth:`repro.baselines.base.GroupBuyingRecommender.score_item_plan`
does) because buffers are recycled on the next flush.

Worker slots
------------
Window-parallel evaluation (:mod:`repro.eval.windows`) scores several
plan windows of one model at once.  Each participating thread runs
inside :func:`worker_slot` and the model hands it that slot's own
workspace (:meth:`FusedWorkspace.worker`), so buffers, cursors and the
cast cache are never shared between threads, and
``executor_stats()`` sums the counters of every slot.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.nn.backend import get_backend

__all__ = [
    "FusedWorkspace",
    "resolve_executor",
    "VALID_EXECUTORS",
    "current_slot",
    "worker_slot",
]

#: The accepted values of a model's ``executor`` attribute, the one
#: executor switch; gradients always force the tape regardless.
VALID_EXECUTORS = ("fused", "tape")


def resolve_executor(mode: str, grad_enabled: bool = False) -> str:
    """Resolve an executor knob to the concrete ``"fused"``/``"tape"``.

    Gradient recording always wins: the fused path builds no graph, so
    training and gradcheck code transparently stay on the tape even with
    ``executor="fused"`` set on the model.
    """
    if mode not in VALID_EXECUTORS:
        raise ValueError(f"executor must be one of {VALID_EXECUTORS}, got {mode!r}")
    return "tape" if grad_enabled else mode


_WORKERS_LOCK = threading.Lock()


class _SlotState(threading.local):
    """The worker slot the calling thread scores under (0 by default)."""

    def __init__(self) -> None:
        self.slot = 0


_SLOT = _SlotState()


def current_slot() -> int:
    """The calling thread's worker slot (see :func:`worker_slot`)."""
    return _SLOT.slot


@contextlib.contextmanager
def worker_slot(slot: int):
    """Score on worker slot ``slot``'s workspaces inside the block.

    Slots are handed out per parallel run (the caller is slot 0), not
    per thread, so a slot's buffers stay warm across runs whichever
    pool thread happens to take it.
    """
    previous = _SLOT.slot
    _SLOT.slot = slot
    try:
        yield
    finally:
        _SLOT.slot = previous


class FusedWorkspace:
    """Preallocated buffers + counters backing one model's fused scoring.

    One workspace serves one thread at a time.  A model owns a root
    workspace (worker slot 0) plus one child per extra worker slot
    (:meth:`worker`); a thread scoring inside :func:`worker_slot`
    uses its slot's workspace, so concurrent evaluation windows never
    share buffers.
    """

    #: Pool / cast-cache bounds.  The pool is bounded by *bytes*, not
    #: buffer count: slots hold one flat buffer each (capacity = largest
    #: request seen ×2 growth), so only a pathological giant flush can
    #: push it past the cap, and the next ``begin`` drops it.
    MAX_POOL_BYTES = 1 << 28  # 256 MiB
    MAX_CASTS = 256

    def __init__(self) -> None:
        self.dtype: Optional[np.dtype] = None
        self.b = get_backend()
        self.stats: Dict[str, int] = {
            "fused_calls": 0,
            "tape_calls": 0,
            "fallbacks": 0,
            "invalidations": 0,
        }
        # buffer_hits / buffer_misses live as plain ints (incremented on
        # every op — a dict update there is measurable) and are merged
        # into the public view by :meth:`snapshot`.
        self._hits = 0
        self._misses = 0
        # Slot-cursor pool: ``_pool[cursor]`` is one flat 1-D buffer per
        # slot; ``out`` hands back a reshaped prefix view.  Capacity
        # matching (not exact-shape matching) is what keeps the serving
        # path fast: flush sizes vary every time there, and a shape-keyed
        # pool would mmap fresh pages per flush — whose first-touch
        # faults then land *inside* the timed ufuncs (measured ~50-100ms
        # stalls under submitter contention).  One warm buffer per slot
        # serves every flush size up to the largest seen.  Each entry is
        # ``(flat_buffer, {shape: cached_view})``.
        self._pool: List[Optional[Tuple[np.ndarray, Dict]]] = []
        self._pool_bytes = 0
        self._cast_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._cursor = 0
        self._owned_ids: Set[int] = set()
        # Strong refs to every array owned this flush: keeps ids unique
        # (a gc'd temp's id could otherwise be recycled onto a foreign
        # array, which an in-place op would then corrupt).
        self._live: List[np.ndarray] = []
        # Child workspaces for worker slots 1, 2, ... (slot 0 is this
        # workspace), each with its own capacity-pooled buffers, kept
        # for the workspace's lifetime so their pages stay warm.
        self._workers: List["FusedWorkspace"] = []

    def worker(self, slot: int) -> "FusedWorkspace":
        """The workspace owned by worker slot ``slot`` (0 is ``self``).

        Children are created on first use and never dropped; creation
        is locked because several worker threads may ask for new slots
        at once.
        """
        if slot == 0:
            return self
        workers = self._workers
        if slot > len(workers):
            with _WORKERS_LOCK:
                while len(workers) < slot:
                    workers.append(FusedWorkspace())
        return workers[slot - 1]

    def snapshot(self) -> Dict[str, int]:
        """All counters, summed over this workspace and its worker slots."""
        merged = dict(self.stats)
        merged["buffer_hits"] = self._hits
        merged["buffer_misses"] = self._misses
        for child in self._workers:
            for key, value in child.snapshot().items():
                merged[key] += value
        return merged

    # ------------------------------------------------------------------
    # Flush lifecycle
    # ------------------------------------------------------------------
    def begin(self, dtype) -> None:
        """Open a flush under ``dtype``; resets the slot cursor."""
        dt = np.dtype(dtype)
        if self.dtype is not None and dt != self.dtype:
            self._pool.clear()
            self._pool_bytes = 0
            self._cast_cache.clear()
            self.stats["invalidations"] += 1
        elif self._pool_bytes > self.MAX_POOL_BYTES:
            # One pathological giant flush shouldn't pin its buffers
            # forever; steady traffic never gets here.
            self._pool.clear()
            self._pool_bytes = 0
            self.stats["invalidations"] += 1
        self.dtype = dt
        self.b = get_backend()
        self._cursor = 0
        self._owned_ids.clear()
        self._live.clear()

    def _own(self, arr: np.ndarray) -> np.ndarray:
        self._owned_ids.add(id(arr))
        self._live.append(arr)
        return arr

    def owns(self, arr: np.ndarray) -> bool:
        """Whether ``arr`` is workspace-allocated (safe for in-place)."""
        return id(arr) in self._owned_ids

    def out(self, shape: Tuple[int, ...]) -> np.ndarray:
        """A ``shape`` view of the next slot's flat buffer (grown on miss).

        A *hit* means the slot's capacity covered the request — the view
        reuses already-touched pages, which is the entire point (see the
        pool comment in ``__init__``).  Growth is geometric so drifting
        serving flush sizes converge instead of reallocating per flush.
        """
        cursor = self._cursor
        self._cursor = cursor + 1
        pool = self._pool
        if cursor >= len(pool):
            pool.append(None)
        entry = pool[cursor]
        size = 1
        for dim in shape:
            size *= dim
        if entry is None or entry[0].size < size:
            cap = size
            if entry is not None:
                # The replaced buffer (and its cached views) may back
                # arrays handed out earlier this flush — keep them alive
                # so ids stay unique.
                self._live.append(entry[0])
                self._live.extend(entry[1].values())
                self._pool_bytes -= entry[0].nbytes
                cap = max(size, 2 * entry[0].size)
            entry = (self.b.empty((cap,), dtype=self.dtype), {})
            pool[cursor] = entry
            self._pool_bytes += entry[0].nbytes
            self._misses += 1
        else:
            self._hits += 1
        # Views are cached per shape so the steady hit path costs one
        # dict lookup, not a fresh slice+reshape object per op (the eval
        # chunks run ~100+ ops per call; object churn there is real
        # time).  The dict also keeps each view alive, so its id can
        # never be recycled onto a foreign array.
        views = entry[1]
        buf = views.get(shape)
        if buf is None:
            if len(views) >= 256:
                # Serving shape churn: don't grow view caches forever.
                self._live.extend(views.values())
                views.clear()
            buf = entry[0][:size].reshape(shape)
            views[shape] = buf
        self._owned_ids.add(id(buf))
        return buf

    # ------------------------------------------------------------------
    # Parameter-derived operands
    # ------------------------------------------------------------------
    def cast(self, arr: np.ndarray) -> np.ndarray:
        """``arr`` as the flush dtype, cached by array identity.

        Used for fold weights under a float32 scope (the tape casts them
        once per Tensor wrap; the workspace casts once per fold array).
        Identity keying is version-safe transitively: a parameter bump
        produces a new fold array upstream, which misses here.
        """
        dt = self.dtype
        if arr.dtype == dt:
            return arr
        key = id(arr)
        entry = self._cast_cache.get(key)
        if entry is not None and entry[0] is arr:
            return entry[1]
        if len(self._cast_cache) >= self.MAX_CASTS:
            self._cast_cache.clear()
        cast = self.b.asarray(arr, dt)
        self._cast_cache[key] = (arr, cast)
        return cast

    def scalar(self, value):
        """``value`` as a zero-dim scalar of the flush dtype."""
        return self.dtype.type(value)

    # ------------------------------------------------------------------
    # Primitives — each mirrors the tape's op bit-for-bit
    # ------------------------------------------------------------------
    @staticmethod
    def _ew_shape(a_shape: Tuple[int, ...], b_shape: Tuple[int, ...]):
        """Elementwise result shape, fast-pathing the two shapes the
        fused programs actually produce: equal operands and a trailing
        broadcast (bias row, scalar).  ``np.broadcast_shapes`` costs
        ~2µs a call, which at thousands of ops per flush is real time.
        """
        if a_shape == b_shape:
            return a_shape
        la, lb = len(a_shape), len(b_shape)
        if la >= lb and a_shape[la - lb:] == b_shape:
            return a_shape
        return np.broadcast_shapes(a_shape, b_shape)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        dt = self.dtype
        if a.dtype == dt and b.dtype == dt:
            if a.ndim == 2 and b.ndim == 2:
                shape = (a.shape[0], b.shape[1])
            elif a.shape[:-2] == b.shape[:-2]:
                shape = a.shape[:-2] + (a.shape[-2], b.shape[-1])
            else:
                shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
                    a.shape[-2],
                    b.shape[-1],
                )
            return self.b.matmul(a, b, out=self.out(shape))
        # Mixed dtype (raw float64 parameter under a float32 scope):
        # compute raw, cast the result — the Tensor wrapper's rule.
        return self._own(self.b.asarray(self.b.matmul(a, b), dt))

    def matmul_stack(self, a: np.ndarray, mats, out=None) -> np.ndarray:
        """``stack([a @ m for m in mats], axis=1)`` without the stack.

        Each product is written straight into its ``out[:, j, :]`` slice
        of one pooled ``(rows, len(mats), d)`` buffer — bit-identical to
        matmul-then-stack (stack is a pure copy) while skipping a full
        memory pass over the bank.  ``out`` may be a view into a larger
        workspace-owned buffer (the dense MTL layers stack all three
        expert banks into one region so the gates' bank concatenations
        become zero-copy slices); views are only accepted on the
        matched-dtype path, so callers must check ``dtype`` first.
        """
        dt = self.dtype
        if a.dtype == dt and all(m.dtype == dt for m in mats):
            if out is None:
                out = self.out((a.shape[0], len(mats), mats[0].shape[1]))
            for j, m in enumerate(mats):
                self.b.matmul(a, m, out=out[:, j, :])
            return out
        if out is not None:
            raise ValueError("matmul_stack(out=) requires operands in the flush dtype")
        return self.stack([self.matmul(a, m) for m in mats], axis=1)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        dt = self.dtype
        if a.dtype == dt and b.dtype == dt:
            shape = self._ew_shape(a.shape, b.shape)
            if a.shape == shape and id(a) in self._owned_ids:
                return self.b.add(a, b, out=a)
            return self.b.add(a, b, out=self.out(shape))
        return self._own(self.b.asarray(self.b.add(a, b), dt))

    def multiply(self, a: np.ndarray, b) -> np.ndarray:
        dt = self.dtype
        b_dtype = getattr(b, "dtype", None)
        if a.dtype == dt and b_dtype == dt:
            shape = self._ew_shape(a.shape, np.shape(b))
            if a.shape == shape and id(a) in self._owned_ids:
                return self.b.multiply(a, b, out=a)
            return self.b.multiply(a, b, out=self.out(shape))
        return self._own(self.b.asarray(self.b.multiply(a, b), dt))

    def take(self, a: np.ndarray, index) -> np.ndarray:
        if type(index) is not np.ndarray or index.dtype != np.int64:
            index = np.asarray(index, dtype=np.int64)
        if a.dtype == self.dtype:
            out = self.out((index.shape[0],) + a.shape[1:])
            return self.b.take(a, index, out=out)
        return self._own(self.b.asarray(self.b.take(a, index), self.dtype))

    def stack(self, arrays, axis: int) -> np.ndarray:
        dt = self.dtype
        if all(a.dtype == dt for a in arrays):
            shape = list(arrays[0].shape)
            shape.insert(axis, len(arrays))
            return self.b.stack(arrays, axis=axis, out=self.out(tuple(shape)))
        return self._own(self.b.asarray(self.b.stack(arrays, axis=axis), dt))

    def concat(self, arrays, axis: int) -> np.ndarray:
        dt = self.dtype
        if all(a.dtype == dt for a in arrays):
            shape = list(arrays[0].shape)
            shape[axis] = sum(a.shape[axis] for a in arrays)
            return self.b.concatenate(arrays, axis=axis, out=self.out(tuple(shape)))
        return self._own(self.b.asarray(self.b.concatenate(arrays, axis=axis), dt))

    def sum(self, a: np.ndarray, axis: int) -> np.ndarray:
        dt = self.dtype
        if a.dtype == dt:
            axis = axis % a.ndim
            shape = tuple(s for i, s in enumerate(a.shape) if i != axis)
            return self.b.sum(a, axis=axis, out=self.out(shape))
        return self._own(self.b.asarray(self.b.sum(a, axis=axis), dt))

    def mix(self, weights: np.ndarray, bank: np.ndarray) -> np.ndarray:
        """Gate mixing ``(n, K) × (n, K, d) → (n, d)`` in one call.

        Performs exactly the tape's ``reshape → batched matmul →
        reshape`` sequence (the reshapes are views; the matmul is the
        identical primitive), collapsed into a single workspace op to
        keep per-op dispatch off the attend hot path.
        """
        b = self.b
        n, k = weights.shape
        d = bank.shape[2]
        w3 = b.reshape(weights, (n, 1, k))
        dt = self.dtype
        if weights.dtype == dt and bank.dtype == dt:
            out3 = self.out((n, 1, d))
            b.matmul(w3, bank, out=out3)
            out = b.reshape(out3, (n, d))
        else:
            out = b.reshape(self.b.asarray(b.matmul(w3, bank), dt), (n, d))
        self._owned_ids.add(id(out))
        self._live.append(out)
        return out

    def reshape(self, a: np.ndarray, shape) -> np.ndarray:
        out = self.b.reshape(a, shape)
        if self.owns(a):
            self._own(out)
        return out

    def softmax(self, x: np.ndarray) -> np.ndarray:
        """Shift-stabilised softmax over the last axis, in place when owned.

        The exact op sequence of :func:`repro.nn.functional.softmax`:
        ``shifted = x - max; ez = exp(shifted); ez / ez.sum`` — in-place
        ufunc applications of the same chain are bit-identical.  The row
        max is computed by a column sweep of ``maximum`` instead of
        ``amax(axis=-1)`` (NumPy's small-trailing-axis reduce is ~10x
        slower): max is order-independent and ``maximum`` propagates NaN
        exactly like ``amax``, so the sweep is bit-identical.  The exp
        *sum* must stay ``sum(axis=-1)`` — float addition is
        order-dependent and NumPy's pairwise reduction order differs
        from a left-to-right sweep.
        """
        b = self.b
        if x.ndim == 2 and x.shape[1] >= 2 and x.dtype == self.dtype:
            m = self.out((x.shape[0], 1))
            col = m[:, 0]
            b.maximum(x[:, 0], x[:, 1], out=col)
            for j in range(2, x.shape[1]):
                b.maximum(col, x[:, j], out=col)
        else:
            m = b.amax(x, axis=-1, keepdims=True)
        if not self.owns(x):
            x = self._own(b.subtract(x, m))
        else:
            b.subtract(x, m, out=x)
        b.exp(x, out=x)
        s = b.sum(x, axis=-1, keepdims=True)
        return b.divide(x, s, out=x)

    def relu(self, x: np.ndarray) -> np.ndarray:
        """``max(x, 0)`` via the tape's mask-multiply formulation."""
        mask = self.b.greater(x, 0)
        if self.owns(x) and x.dtype == self.dtype:
            return self.b.multiply(x, mask, out=x)
        return self.multiply(x, mask)
