"""Cross-process shard service: multiprocessing workers + shared memory.

A :class:`ProcessShardedStore` is the sharded layout of
:mod:`repro.store` (``make_store(values, n_shards >= 1)``): each shard
of the logical ``(num_rows, dim)`` table lives in a **worker process**
that owns its rows, and every store operation is a batched RPC answered over
**shared-memory row buffers** — no GIL coupling on the row copies, and
no pickling of row data, ever:

* the parent writes one planned call's row ids into a shared id arena
  and rings each touched worker's doorbell (a
  :func:`multiprocessing.Pipe` message carrying three integers);
* each worker gathers its rows with one clipped ``take`` **directly
  into its slice of the shared result arena** — row bytes cross the
  process boundary exactly once, in the worker's copy;
* under ``no_grad`` a gather of sorted ids returns a view of that
  arena, so planned scoring consumes gathered rows with zero re-copies
  (the copy-audit test pins this down).

Result-arena recycling contract
-------------------------------
``no_grad`` gather results live in a recycled arena: a result stays valid while the
returned array object is alive, and in any case for the next 7 store
operations (the allocator refuses to overwrite a live result or any of
the last 8 allocations in place — it grows a fresh segment instead and
*retires* the old one, keeping already-returned views alive until
:meth:`ProcessShardedStore.close`).  The liveness rule is what makes
concurrent readers safe: window-parallel evaluation threads gather
while other threads still compute on their rows.  Callers that keep
rows only through a derived view (a slice of the result) must copy
them — every in-repo consumer (the planned scoring call, the chunked
eval protocol, the LRU row cache) finishes with or copies the rows
within one call.  Grad-enabled gathers always return a
private copy: autograd graphs outlive arbitrarily many forwards.

Bit-identity contract
---------------------
Forward rows are exact copies of the logical table, so scores match the
dense layout bit-for-bit.  Every gather takes one path: unsorted ids
get one stable ``argsort``, one ``searchsorted`` against the shard
starts cuts the sorted ids into per-shard blocks, and the inverse
permutation restores the caller's order.  The backward permutes the
incoming gradient into the same sorted order (the stable sort keeps
each row's occurrence order), ships each shard's slice through the
result arena, and the
**worker** applies the same :func:`repro.nn.tensor._scatter_rows_add` +
zeros-init accumulation the dense table's adjoint runs on those rows —
followed, at ``optimizer.step()``,
by the same per-shard Adam arithmetic on
worker-owned moment buffers.  Training with a ``ProcessShardedStore``
is therefore bit-for-bit the dense run (asserted in
``tests/test_store_service.py``), because every per-row update depends
only on that row's gradient and state.

Memory model
------------
A worker permanently holds its owned block (≤ ``ceil(num_rows /
n_shards)`` rows) and transiently touches at most one RPC's rows (≤ the
gather chunk / ``io_chunk``), so per-process peak resident rows stay
≤ ``ceil(num_rows / n_shards) + chunk`` during gather, training and
reshard.  The logical table is materialised only by the explicitly
logical APIs (:meth:`ProcessShardedStore.logical_state` / ``all()``);
checkpoint streaming (``save_checkpoint(shard_files=True)`` +
:meth:`assign_rows`) moves rows shard-by-shard in ``io_chunk`` slices,
which is the supported transport for shard placement and N→M reshard
(docs/sharding.md has the recipe).

Fault path
----------
A dead worker or an RPC timeout raises
:class:`repro.serving.errors.ShardUnavailable` (shard id + elapsed
diagnostics).  The serving engine's per-task fault isolation converts a
scoring exception into failed tickets for that task only, so one lost
shard degrades the co-batched task, not the engine.

Lifecycle
---------
Workers start on construction (a readiness handshake guarantees the
store is serviceable when ``__init__`` returns) and stop via
:meth:`close` — also wired to a :func:`weakref.finalize` guard, so
garbage collection and interpreter exit reap the processes and unlink
every shared-memory segment even when a caller forgets to close.  The
store is a context manager.
"""

from __future__ import annotations

import multiprocessing
import time
import weakref
from collections import deque
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _wait_connections
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, _scatter_rows_add, is_grad_enabled
from repro.store.base import EmbeddingStore, Partitioner
from repro.store.quant import (
    check_quant_mode,
    dequantize_rows,
    quant_bytes_per_row,
    quantize_rows,
)

__all__ = ["ProcessShardedStore", "RemoteShardParameter"]


# Per-worker slots of the shared stats block (single writer per row —
# the owning worker; the parent reads them without any RPC).
_ST_GATHERS = 0
_ST_ROWS_SERVED = 1
_ST_MAX_RPC_ROWS = 2
_ST_ASSIGNS = 3
_ST_ACCUMS = 4
_ST_STEPS = 5
_ST_READS = 6
_ST_ERRORS = 7
_ST_SLOTS = 8

_MIN_ARENA_ROWS = 1024
#: How many trailing arena allocations stay overwrite-protected — the
#: result-liveness depth of the recycling contract above.
_LIVE_RESULTS = 8


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without adopting cleanup responsibility.

    Python 3.11's ``SharedMemory`` registers the segment with the
    process's resource tracker even on attach, so an exiting worker
    would unlink arenas the parent still owns; unregister immediately
    (the creating parent unlinks everything in ``close()``).
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        # Suppress attach-time registration instead of unregistering
        # afterwards: forked workers share the parent's tracker, so an
        # unregister here would drop the *parent's* registration (and a
        # second worker's unregister would be a tracker error).
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except AttributeError:
        return shared_memory.SharedMemory(name=name)


def _unlink_shm(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink a parent-owned segment without tracker noise.

    Forked workers share the parent's resource tracker, so their
    attach-time ``unregister`` (see :func:`_attach_shm`) also dropped
    the *parent's* registration; re-register right before unlinking so
    the tracker's bookkeeping balances either way (registration is a
    set — re-adding a still-tracked name is a no-op).
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass


class _WorkerState:
    """Everything one shard worker owns (lives only in the worker).

    Unquantised workers hold float ``rows``; quantised workers
    (``quantize="int8"|"fp16"``) hold only the compact payload —
    ``q`` codes plus int8's per-row ``scale``/``zero`` side arrays —
    and ``rows`` stays ``None``, which is what shrinks per-worker
    resident bytes by the tier's factor.  Quantised workers serve
    inference only: the training ops raise instead of touching rows.
    """

    __slots__ = ("rows", "q", "scale", "zero", "grad", "m", "v", "base")

    def __init__(self, rows: Optional[np.ndarray], base: int) -> None:
        self.rows = rows
        self.q: Optional[np.ndarray] = None
        self.scale: Optional[np.ndarray] = None
        self.zero: Optional[np.ndarray] = None
        self.grad: Optional[np.ndarray] = None
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        self.base = base


_QUANT_TRAIN_ERROR = (
    "quantised shards serve inference only — train the full-precision "
    "layout and restore the checkpoint into a quantize= store "
    "(see docs/quantization.md)"
)


def _require_trainable(state: _WorkerState) -> np.ndarray:
    if state.rows is None:
        raise RuntimeError(_QUANT_TRAIN_ERROR)
    return state.rows


def _worker_accumulate(state: _WorkerState, grad: np.ndarray) -> None:
    """Mirror ``Tensor._accumulate``: zeros-init then in-place add."""
    if state.grad is None:
        state.grad = np.zeros_like(_require_trainable(state))
    state.grad += grad


def _worker_adam(state: _WorkerState, lr, b1, b2, eps, wd, t) -> bool:
    """One Adam update on the owned rows — :class:`repro.nn.optim.Adam`
    arithmetic verbatim, so the result is bit-identical to the update
    the same rows receive in the dense table."""
    grad = state.grad
    if grad is None:
        return False
    rows = state.rows
    if state.m is None:
        state.m = np.zeros_like(rows)
        state.v = np.zeros_like(rows)
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    m, v = state.m, state.v
    g = grad
    if wd:
        g = g + wd * rows
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g**2
    rows -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return True


def _shard_worker(shard: int, conn, parent_conn, spec: dict) -> None:
    """Entry point of one shard worker process.

    Owns ``spec["size"]`` rows, answers doorbell RPCs over ``conn`` and
    moves row payloads through the shared arenas named in ``spec``.
    Exits on ``("stop",)`` or on EOF — the inherited parent pipe end is
    closed below, so a vanished parent surfaces as EOF, not a hang.
    """
    if parent_conn is not None:
        parent_conn.close()
    size, dim = spec["size"], spec["dim"]
    dtype = np.dtype(spec["dtype"])
    quantize = spec.get("quantize")
    if quantize:
        # Quantised workers never allocate float rows: codes (+ int8's
        # side arrays) are the whole resident payload.  Zero-init codes
        # with the degenerate convention (scale=1, zero=0) dequantise to
        # exact zeros — matching the unquantised zero-init contract.
        state = _WorkerState(None, spec["base"])
        if quantize == "int8":
            state.q = np.zeros((size, dim), dtype=np.int8)
            state.scale = np.ones(size, dtype=np.float32)
            state.zero = np.zeros(size, dtype=np.float32)
        else:
            state.q = np.zeros((size, dim), dtype=np.float16)
    else:
        state = _WorkerState(np.zeros((size, dim), dtype=dtype), spec["base"])

    def dequant_into(local: np.ndarray, out: np.ndarray) -> None:
        """Worker-side dequantise-on-gather into the shared result arena."""
        q = state.q.take(local, axis=0, mode="clip")
        scale = None if state.scale is None else state.scale.take(local, mode="clip")
        zero = None if state.zero is None else state.zero.take(local, mode="clip")
        dequantize_rows(q, scale, zero, out=out)

    stats_shm = _attach_shm(spec["stats_name"])
    stats = np.ndarray(
        (spec["n_shards"], _ST_SLOTS), dtype=np.int64, buffer=stats_shm.buf
    )[shard]

    ids_shm = _attach_shm(spec["ids_name"])
    res_shm = _attach_shm(spec["res_name"])
    cap = spec["res_cap"]
    ids_np = np.ndarray((cap,), dtype=np.int64, buffer=ids_shm.buf)
    res_np = np.ndarray((cap, dim), dtype=dtype, buffer=res_shm.buf)

    def note_rpc(slot: int, n: int) -> None:
        stats[slot] += 1
        if n > stats[_ST_MAX_RPC_ROWS]:
            stats[_ST_MAX_RPC_ROWS] = n

    conn.send(("ready",))
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            try:
                if op == "gather":
                    _, i0, i1, r0 = msg
                    n = i1 - i0
                    local = ids_np[i0:i1] - state.base
                    if quantize:
                        dequant_into(local, res_np[r0 : r0 + n])
                    else:
                        state.rows.take(
                            local, axis=0, out=res_np[r0 : r0 + n], mode="clip"
                        )
                    note_rpc(_ST_GATHERS, n)
                    stats[_ST_ROWS_SERVED] += n
                    conn.send(("ok",))
                elif op == "read":
                    _, i0, i1, r0 = msg
                    n = i1 - i0
                    if quantize:
                        dequant_into(ids_np[i0:i1], res_np[r0 : r0 + n])
                    else:
                        state.rows.take(
                            ids_np[i0:i1], axis=0, out=res_np[r0 : r0 + n], mode="clip"
                        )
                    note_rpc(_ST_READS, n)
                    conn.send(("ok",))
                elif op == "assign":
                    _, i0, i1, r0 = msg
                    n = i1 - i0
                    local = ids_np[i0:i1]
                    if quantize:
                        # Re-quantise the written rows (per-row scale
                        # refresh) — the live-swap / reshard write path.
                        q, scale, zero = quantize_rows(res_np[r0 : r0 + n], quantize)
                        state.q[local] = q
                        if scale is not None:
                            state.scale[local] = scale
                            state.zero[local] = zero
                    else:
                        state.rows[local] = res_np[r0 : r0 + n]
                    note_rpc(_ST_ASSIGNS, n)
                    conn.send(("ok",))
                elif op == "accum":
                    _, i0, i1, r0 = msg
                    n = i1 - i0
                    local = np.array(ids_np[i0:i1])
                    _worker_accumulate(
                        state,
                        _scatter_rows_add(
                            local, res_np[r0 : r0 + n], size,
                            _require_trainable(state).dtype,
                        ),
                    )
                    note_rpc(_ST_ACCUMS, n)
                    conn.send(("ok",))
                elif op == "accum_all":
                    _, r0 = msg
                    _worker_accumulate(state, res_np[r0 : r0 + size])
                    note_rpc(_ST_ACCUMS, size)
                    conn.send(("ok",))
                elif op == "zero_grad":
                    state.grad = None
                    conn.send(("ok",))
                elif op == "sqsum":
                    value = (
                        None if state.grad is None else float((state.grad**2).sum())
                    )
                    conn.send(("ok", value))
                elif op == "scale":
                    if state.grad is not None:
                        state.grad *= msg[1]
                    conn.send(("ok",))
                elif op == "adam":
                    _, lr, b1, b2, eps, wd, t = msg
                    applied = _worker_adam(state, lr, b1, b2, eps, wd, t)
                    if applied:
                        stats[_ST_STEPS] += 1
                    conn.send(("ok", applied))
                elif op == "rebind":
                    dtype = np.dtype(msg[1])
                    if not quantize:
                        # Quantised payloads are dtype-independent: the
                        # rebind only switches the arena precision the
                        # worker dequantises into (handled by "remap").
                        state.rows = np.array(state.rows, dtype=dtype)
                    state.grad = None
                    conn.send(("ok",))
                elif op == "remap":
                    _, ids_name, res_name, cap, dtype_str = msg
                    dtype = np.dtype(dtype_str)
                    ids_shm.close()
                    res_shm.close()
                    ids_shm = _attach_shm(ids_name)
                    res_shm = _attach_shm(res_name)
                    ids_np = np.ndarray((cap,), dtype=np.int64, buffer=ids_shm.buf)
                    res_np = np.ndarray((cap, dim), dtype=dtype, buffer=res_shm.buf)
                    conn.send(("ok",))
                elif op == "stop":
                    break
                else:  # pragma: no cover - protocol defect
                    conn.send(("err", f"unknown op {op!r}"))
            except Exception as exc:  # keep serving after a bad request
                stats[_ST_ERRORS] += 1
                try:
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
                except (OSError, BrokenPipeError):
                    break
    finally:
        for shm in (ids_shm, res_shm, stats_shm):
            try:
                shm.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


class _Guard:
    """Raw worker/segment resources the finalizer owns.

    Deliberately holds no reference back to the store, so the
    :func:`weakref.finalize` callback can run from garbage collection
    or interpreter exit without resurrecting it.
    """

    __slots__ = ("procs", "conns", "segments")

    def __init__(self) -> None:
        self.procs: list = []
        self.conns: list = []
        self.segments: list = []

    @staticmethod
    def release(guard: "_Guard") -> None:
        for proc, conn in zip(guard.procs, guard.conns):
            if proc.is_alive():
                try:
                    conn.send(("stop",))
                except Exception:
                    pass
        for proc in guard.procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
        for conn in guard.conns:
            try:
                conn.close()
            except Exception:
                pass
        for shm in guard.segments:
            _unlink_shm(shm)


class RemoteShardParameter(Parameter):
    """Parent-side handle for rows owned by a shard worker.

    Registers on the owning :class:`repro.nn.layers.Embedding` like a
    dense table's ``weight``, but holds **no rows** — ``data`` is an
    empty ``(0, dim)`` placeholder.  Gradient and optimizer state live
    in the worker; the ``remote_*`` hooks let
    :func:`repro.nn.optim.clip_grad_norm` and :class:`repro.nn.optim.Adam`
    drive it with the exact per-row arithmetic they apply in process
    (the hooks are duck-typed, so :mod:`repro.nn.optim` never imports
    the store layer).
    """

    def __init__(self, store: "ProcessShardedStore", shard: int, dim: int) -> None:
        super().__init__(np.empty((0, dim)), f"shard{shard}")
        self._store = store
        self._shard = shard

    def zero_grad(self) -> None:
        """Clear the worker-held gradient."""
        super().zero_grad()
        self._store._zero_shard_grad(self._shard)

    # -- duck-typed optimizer hooks ------------------------------------
    def remote_grad_sqsum(self) -> Optional[float]:
        """``float((grad ** 2).sum())`` of the worker-held gradient."""
        return self._store._shard_grad_sqsum(self._shard)

    def remote_scale_grad(self, scale: float) -> None:
        """In-place ``grad *= scale`` inside the worker (clip adjoint)."""
        self._store._scale_shard_grad(self._shard, scale)

    def remote_adam_step(self, *, lr, beta1, beta2, eps, weight_decay, t) -> bool:
        """Apply one Adam update in the worker; True when a grad existed."""
        return self._store._shard_adam_step(
            self._shard, lr, beta1, beta2, eps, weight_decay, t
        )


def _shipping_routes(parents, ship):
    """Routes of a node whose gradient lives in the shard workers.

    The first route's ``ship(g)`` sends every shard its slice in one
    transaction; no route hands the parent process a buffer (each
    returns ``None``), the others only list their shard as a parent.
    """
    return [(parents[0], ship)] + [(p, lambda g: None) for p in parents[1:]]


class ProcessShardedStore(EmbeddingStore):
    """N-way partitioned embedding table served by worker processes.

    Parameters
    ----------
    values: initial logical table, streamed to the workers in
        ``io_chunk`` row slices (so initialisation is bit-identical to
        every other layout built from the same array).  Pass ``None``
        with explicit ``num_rows``/``dim`` — or use :meth:`empty` — and
        place rows via :meth:`assign_rows`/checkpoint streaming to
        avoid ever materialising the table in one process.
    n_shards: worker process count (>= 1); each worker owns one
        contiguous block of rows (see :class:`repro.store.base.Partitioner`).
    io_chunk: row slice size of the streaming APIs (construction,
        ``logical_state``, ``shard_rows``, ``assign_rows`` re-chunking)
        — the transient per-process resident bound on those paths.
    rpc_timeout: seconds to wait on a worker before raising
        :class:`repro.serving.errors.ShardUnavailable`.  Workers start
        with ``fork`` when the platform offers it, else with the
        platform default.
    quantize: ``None`` (float rows — the historical layout) or
        ``"int8"``/``"fp16"``: each worker holds only the *quantised*
        payload of its rows (codes + int8's per-row scale/zero side
        arrays) and dequantises into its disjoint result-arena slice on
        gather, shrinking per-worker resident bytes by ~4×/~2×.
        Quantised stores serve **inference only**: grad-enabled gathers
        raise (train the full-precision layout, then restore the
        canonical float checkpoint into a quantised store).  Writes
        (``assign_rows``, reshard streaming, ``refresh()`` live swaps)
        re-quantise inside the owning worker with a per-row scale
        refresh.
    """

    def __init__(
        self,
        values: Optional[np.ndarray] = None,
        n_shards: int = 2,
        *,
        num_rows: Optional[int] = None,
        dim: Optional[int] = None,
        dtype=np.float64,
        io_chunk: int = 16384,
        rpc_timeout: float = 30.0,
        quantize: Optional[str] = None,
    ) -> None:
        super().__init__()
        if values is not None:
            values = np.asarray(values)
            if values.ndim != 2:
                raise ValueError(f"need a (rows, dim) table, got shape {values.shape}")
            num_rows, dim = values.shape
        if num_rows is None or dim is None:
            raise ValueError("need either values or explicit num_rows and dim")
        if io_chunk < 1:
            raise ValueError(f"io_chunk must be >= 1, got {io_chunk}")
        self.num_rows, self.dim = int(num_rows), int(dim)
        self.partitioner = Partitioner(self.num_rows, n_shards)
        self.quantize = check_quant_mode(quantize)
        self._dtype = np.dtype(dtype)
        self.io_chunk = int(io_chunk)
        self.rpc_timeout = float(rpc_timeout)
        self._failed: Dict[int, str] = {}
        self._starts = np.asarray(self.partitioner._starts, dtype=np.int64)
        self._guard = _Guard()
        self._finalizer = weakref.finalize(self, _Guard.release, self._guard)

        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
        ctx = multiprocessing.get_context(start_method)

        # Shared stats block: one int64 row per worker, written by the
        # worker after each RPC, read by stats_snapshot() without IPC.
        self._stats_shm = shared_memory.SharedMemory(
            create=True, size=max(n_shards, 1) * _ST_SLOTS * 8
        )
        self._guard.segments.append(self._stats_shm)
        self._stats_np = np.ndarray(
            (n_shards, _ST_SLOTS), dtype=np.int64, buffer=self._stats_shm.buf
        )
        self._stats_np[...] = 0

        # Row arenas: id arena + result arena with one shared row
        # capacity and bump cursor, grown geometrically via "remap".
        self._cap = 0
        self._cursor = 0
        self._recent: deque = deque(maxlen=_LIVE_RESULTS)
        # ``(start, stop, weakref)`` of arena views handed out by no-grad
        # gathers; a range stays protected while its view is alive.
        self._held: List[Tuple[int, int, weakref.ref]] = []
        self._ids_shm: Optional[shared_memory.SharedMemory] = None
        self._res_shm: Optional[shared_memory.SharedMemory] = None
        self._ids_np: Optional[np.ndarray] = None
        self._res_np: Optional[np.ndarray] = None
        self._grow_arena(min(self.io_chunk, max(self.num_rows, 1)), notify=False)

        self._conns: list = []
        self._procs: list = []
        for k in range(n_shards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            spec = {
                "size": self.partitioner.shard_size(k),
                "dim": self.dim,
                "dtype": self._dtype.str,
                "base": int(self._starts[k]),
                "n_shards": n_shards,
                "stats_name": self._stats_shm.name,
                "ids_name": self._ids_shm.name,
                "res_name": self._res_shm.name,
                "res_cap": self._cap,
                "quantize": self.quantize,
            }
            proc = ctx.Process(
                target=_shard_worker,
                args=(
                    k,
                    child_conn,
                    parent_conn if start_method == "fork" else None,
                    spec,
                ),
                name=f"repro-shard-{k}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._guard.procs.extend(self._procs)
        self._guard.conns.extend(self._conns)

        # Readiness handshake: the store is serviceable on return.
        for k in range(n_shards):
            reply = self._recv(k, time.monotonic())
            if reply != ("ready",):  # pragma: no cover - defensive
                raise RuntimeError(f"shard {k} worker failed to start: {reply!r}")

        self._params = [
            RemoteShardParameter(self, k, self.dim) for k in range(n_shards)
        ]
        if values is not None:
            self._stream_table(values)

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls,
        num_rows: int,
        dim: int,
        n_shards: int = 2,
        **kwargs,
    ) -> "ProcessShardedStore":
        """Zero-initialised store — the never-materialise-the-table path.

        Combine with :meth:`assign_rows` (or
        :func:`repro.training.checkpoint.restore_model` shard-file
        streaming) to place rows shard-by-shard.
        """
        return cls(None, n_shards, num_rows=num_rows, dim=dim, **kwargs)

    def close(self) -> None:
        """Stop and join the workers, unlink every shared segment.

        Idempotent; the same cleanup runs from the garbage-collection /
        interpreter-exit guard, so a dropped store cannot leak processes
        or shm segments.
        """
        self._finalizer()

    def __enter__(self) -> "ProcessShardedStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` (or the GC guard) already ran."""
        return not self._finalizer.alive

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("ProcessShardedStore is closed")

    def _stream_table(self, values: np.ndarray) -> None:
        """Send each worker its rows, ``io_chunk`` at a time."""
        for k in range(self.n_shards):
            owned = self.partitioner.owned_ids(k)
            for start in range(0, len(owned), self.io_chunk):
                chunk = owned[start : start + self.io_chunk]
                self.assign_rows(chunk, values[chunk])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.partitioner.n_shards

    def shard_size_of(self, shard: int) -> int:
        return self.partitioner.shard_size(shard)

    def named_parameters(self) -> List[Tuple[str, Parameter]]:
        return [(f"shard{k}", p) for k, p in enumerate(self._params)]

    def worker_pids(self) -> List[Optional[int]]:
        """PIDs of the shard workers (lifecycle tests / diagnostics)."""
        return [proc.pid for proc in self._procs]

    def stats_snapshot(self) -> dict:
        """Parent counters plus per-worker counters from shared memory.

        The worker rows are written inside the worker processes (no RPC
        to read them) and aggregated here into the same
        JSON-serializable snapshot ``ServingEngine.shard_stats()`` and
        ``ServingEngine.stats()`` surface for every other layout.
        """
        snap = super().stats_snapshot()
        rows = np.array(self._stats_np, copy=True)
        row_bytes = self._worker_bytes_per_row()
        workers = []
        for k in range(self.n_shards):
            row = rows[k]
            owned = self.partitioner.shard_size(k)
            workers.append(
                {
                    "pid": self._procs[k].pid,
                    "alive": bool(self._procs[k].is_alive()),
                    "gathers": int(row[_ST_GATHERS]),
                    "rows_served": int(row[_ST_ROWS_SERVED]),
                    "max_rpc_rows": int(row[_ST_MAX_RPC_ROWS]),
                    "assigns": int(row[_ST_ASSIGNS]),
                    "grad_accums": int(row[_ST_ACCUMS]),
                    "optimizer_steps": int(row[_ST_STEPS]),
                    "reads": int(row[_ST_READS]),
                    "errors": int(row[_ST_ERRORS]),
                    "resident_rows": int(owned),
                    "peak_resident_rows": int(owned + row[_ST_MAX_RPC_ROWS]),
                    "resident_bytes": int(owned * row_bytes),
                    "peak_resident_bytes": int(
                        (owned + row[_ST_MAX_RPC_ROWS]) * row_bytes
                    ),
                }
            )
        snap["layout"] = "process"
        snap["quant_mode"] = self.quantize
        snap["workers"] = workers
        snap["worker_rows_served"] = int(rows[:, _ST_ROWS_SERVED].sum())
        snap["arena_bytes"] = int(self._arena_nbytes())
        return snap

    def _worker_bytes_per_row(self) -> int:
        """Bytes one worker holds per owned row (payload, side arrays)."""
        return quant_bytes_per_row(self.dim, self.quantize, self._dtype.itemsize)

    def _arena_nbytes(self) -> int:
        """Bytes of the live shared id/result arenas (parent-owned)."""
        return self._cap * 8 + self._cap * self.dim * self._dtype.itemsize

    def resident_nbytes(self) -> int:
        """Worker row payloads plus the live shared arenas."""
        return (
            sum(
                self.partitioner.shard_size(k) * self._worker_bytes_per_row()
                for k in range(self.n_shards)
            )
            + self._arena_nbytes()
        )

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    @property
    def _io_lock(self):
        # The base-class stats lock doubles as the RPC transaction lock:
        # one mutex orders counters and arena traffic alike.
        return self._lock

    def _unavailable(self, shard: int, started: float, why: str) -> Exception:
        # Deferred import: repro.serving imports repro.store at package
        # load; by the time a shard can fail, both packages exist.
        from repro.serving.errors import ShardUnavailable

        elapsed_ms = (time.monotonic() - started) * 1000.0
        return ShardUnavailable(
            f"shard {shard} worker unavailable ({why})",
            shard=shard,
            elapsed_ms=elapsed_ms,
        )

    def _recv(self, shard: int, started: float):
        conn, proc = self._conns[shard], self._procs[shard]
        deadline = started + self.rpc_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._failed[shard] = "rpc timeout"
                raise self._unavailable(shard, started, "rpc timeout")
            try:
                if conn.poll(min(0.1, remaining)):
                    return conn.recv()
            except (EOFError, OSError):
                self._failed[shard] = "pipe closed"
                raise self._unavailable(shard, started, "pipe closed") from None
            if not proc.is_alive():
                try:  # drain a reply that raced the exit
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                self._failed[shard] = "worker died"
                raise self._unavailable(shard, started, "worker died")

    def _collect(self, pending: List[int], started: float):
        """Collect one ack per pending shard via a single ``wait`` loop.

        One :func:`multiprocessing.connection.wait` over every
        outstanding pipe replaces the historical per-shard
        ``poll(0.1)`` loop: acks are drained in arrival order, so one
        slow shard no longer delays noticing that a faster one has
        already answered (or died).  Each wait is capped at 100ms so
        dead workers whose pipes never become readable are still
        detected promptly.  Returns ``(replies, first_error)`` —
        healthy acks are always drained even when some shard fails,
        keeping every surviving pipe in sync.
        """
        deadline = started + self.rpc_timeout
        replies: Dict[int, tuple] = {}
        error: Optional[Exception] = None
        outstanding = {self._conns[k]: k for k in pending}
        while outstanding:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for k in outstanding.values():
                    self._failed[k] = "rpc timeout"
                    if error is None:
                        error = self._unavailable(k, started, "rpc timeout")
                break
            ready = _wait_connections(
                list(outstanding), timeout=min(0.1, remaining)
            )
            for conn in ready:
                k = outstanding.pop(conn)
                try:
                    replies[k] = conn.recv()
                except (EOFError, OSError):
                    self._failed[k] = "pipe closed"
                    if error is None:
                        error = self._unavailable(k, started, "pipe closed")
            if ready:
                continue
            for conn, k in list(outstanding.items()):
                if not self._procs[k].is_alive():
                    del outstanding[conn]
                    try:  # drain a reply that raced the exit
                        if conn.poll(0):
                            replies[k] = conn.recv()
                            continue
                    except (EOFError, OSError):
                        pass
                    self._failed[k] = "worker died"
                    if error is None:
                        error = self._unavailable(k, started, "worker died")
        return replies, error

    def _transact(self, msgs: Dict[int, tuple]) -> Dict[int, tuple]:
        """Ring every touched worker's doorbell, then collect every ack.

        All sends complete before the first ack is read, so workers run
        concurrently; acks are then drained in *arrival* order by one
        :func:`multiprocessing.connection.wait` over all outstanding
        pipes (see :meth:`_collect`) — each pipe carries exactly one
        in-flight reply, so arrival-order draining can never desync
        them.  Callers hold ``_io_lock`` for the whole transaction —
        the arena slices stay reserved until every worker has acked.
        On a dead/late worker the healthy acks are still drained
        (keeping every surviving pipe in sync) before the first
        failure raises.
        """
        started = time.monotonic()
        error: Optional[Exception] = None
        sent: List[int] = []
        for k in sorted(msgs):
            if k in self._failed:
                if error is None:
                    error = self._unavailable(k, started, self._failed[k])
                continue
            try:
                self._conns[k].send(msgs[k])
                sent.append(k)
            except (OSError, BrokenPipeError, ValueError):
                self._failed[k] = "pipe closed"
                if error is None:
                    error = self._unavailable(k, started, "pipe closed")
        replies, recv_error = self._collect(sent, started)
        if error is None:
            error = recv_error
        if error is not None:
            raise error
        for k, reply in replies.items():
            if reply[0] == "err":
                raise RuntimeError(f"shard {k} worker error: {reply[1]}")
        return replies

    def _broadcast(self, msg: tuple) -> Dict[int, tuple]:
        with self._io_lock:
            return self._transact({k: msg for k in range(self.n_shards)})

    def _single(self, shard: int, msg: tuple) -> tuple:
        with self._io_lock:
            return self._transact({shard: msg})[shard]

    # ------------------------------------------------------------------
    # Arena management
    # ------------------------------------------------------------------
    def _grow_arena(self, need_rows: int, notify: bool = True) -> None:
        """Create fresh id/result arenas with >= ``need_rows`` capacity.

        Growing never invalidates returned views: the old result
        segment is *retired* into the guard's segment list (still
        mapped) and only unlinked at :meth:`close`.  The old id arena
        has no external readers and is unlinked immediately.
        """
        cap = max(2 * int(need_rows), 2 * self._cap, _MIN_ARENA_ROWS)
        ids_shm = shared_memory.SharedMemory(create=True, size=cap * 8)
        res_shm = shared_memory.SharedMemory(
            create=True, size=cap * self.dim * self._dtype.itemsize
        )
        self._guard.segments.extend([ids_shm, res_shm])
        old_ids = self._ids_shm
        self._ids_shm, self._res_shm = ids_shm, res_shm
        self._ids_np = np.ndarray((cap,), dtype=np.int64, buffer=ids_shm.buf)
        self._res_np = np.ndarray((cap, self.dim), dtype=self._dtype, buffer=res_shm.buf)
        self._cap = cap
        self._cursor = 0
        self._recent.clear()
        self._held.clear()
        if notify:
            self._transact(
                {
                    k: ("remap", ids_shm.name, res_shm.name, cap, self._dtype.str)
                    for k in range(self.n_shards)
                }
            )
        if old_ids is not None:
            self._guard.segments.remove(old_ids)
            _unlink_shm(old_ids)

    def _alloc(self, n: int) -> int:
        """Reserve ``n`` arena rows (overwrite-safe); returns the offset.

        Refuses to reuse rows belonging to any of the last
        ``_LIVE_RESULTS`` allocations or to a still-alive returned view
        — when the bump cursor would land on one, the arena grows into a
        fresh segment instead (retiring the old one keeps outstanding
        views valid).  This is what makes the zero-copy ``no_grad``
        views safe for planned scoring's multi-role gathers.
        """
        if n > self._cap:
            self._grow_arena(n)
        start = self._cursor
        if start + n > self._cap:
            start = 0
        stop = start + n
        self._held = [entry for entry in self._held if entry[2]() is not None]
        protected = list(self._recent) + [(lo, hi) for lo, hi, _ in self._held]
        if n and any(lo < stop and hi > start for lo, hi in protected):
            self._grow_arena(n)
            start, stop = 0, n
        self._cursor = stop
        if n:
            self._recent.append((start, stop))
        return start

    # ------------------------------------------------------------------
    # Gather (the hot path)
    # ------------------------------------------------------------------
    def _split(
        self, ids
    ) -> Tuple[np.ndarray, Optional[np.ndarray], List[Tuple[int, int, int]]]:
        """Sort ``ids`` and cut them into per-shard blocks.

        Returns ``(sorted_ids, order, pieces)``: ``order`` is the stable
        argsort that sorted the caller's ids (``None`` when they came
        sorted — every plan entity array does, out of ``np.unique``), and
        each ``(shard, b0, b1)`` piece is the slice of ``sorted_ids`` that
        shard owns, found by one ``searchsorted`` against the block starts.
        A stable sort keeps duplicate ids in request order, so each row's
        gradient terms reach the worker's scatter-add in the dense order.
        """
        idx = self._check_ids(ids)
        order = None
        if idx.size > 1 and not (idx[:-1] <= idx[1:]).all():
            order = np.argsort(idx, kind="stable")
            idx = idx[order]
        bounds = np.searchsorted(idx, self._starts)
        pieces = [
            (k, int(bounds[k]), int(bounds[k + 1]))
            for k in range(self.n_shards)
            if bounds[k + 1] > bounds[k]
        ]
        return idx, order, pieces

    def gather(self, ids) -> Tensor:
        self._check_open()
        grad = is_grad_enabled()
        if grad and self.quantize:
            # Fail before any RPC: quantised workers hold no float rows
            # to train (the dense QuantizedStore bypasses to its float
            # master here; this layout deliberately has none).
            raise RuntimeError(_QUANT_TRAIN_ERROR)
        idx, order, pieces = self._split(ids)
        n = idx.size

        # Global ids ship as they are (workers subtract their own base);
        # the rows come back in sorted order.
        with self._io_lock:
            offset = self._alloc(n)
            msgs: Dict[int, tuple] = {}
            for k, b0, b1 in pieces:
                self._ids_np[offset + b0 : offset + b1] = idx[b0:b1]
                msgs[k] = ("gather", offset + b0, offset + b1, offset + b0)
            self._transact(msgs)
            view = self._res_np[offset : offset + n]
            if order is not None:
                # Restore the caller's order (a private copy).
                result = np.empty_like(view)
                result[order] = view
            elif grad:
                result = np.array(view)
            else:
                result = view
                self._held.append((offset, offset + n, weakref.ref(view)))

        max_rows = max((b1 - b0 for _, b0, b1 in pieces), default=0)
        self._record_gather(n, len(pieces), max_rows)
        if not grad:
            # Sorted results are views of the shared result arena — the
            # zero-copy hand-off planned scoring consumes (see the
            # recycling contract in the module docstring).
            return Tensor(result)

        locals_by_shard = [
            (k, b0, b1, idx[b0:b1] - int(self._starts[k])) for k, b0, b1 in pieces
        ]

        # Training path: a private row copy (autograd graphs outlive the
        # recycled arena) and a backward that ships each shard's
        # gradient slice through the arena for the worker-side
        # scatter-add — per row, the dense adjoint's arithmetic.
        store = self

        def ship(g: np.ndarray) -> None:
            if order is not None:
                g = g[order]  # into sorted order: a permutation
            if not locals_by_shard:
                store._accum_empty()
                return
            store._accum_shards(locals_by_shard, g)

        parents = [self._params[k] for k, _, _, _ in locals_by_shard] or [self._params[0]]
        return Tensor._make(result, *_shipping_routes(parents, ship))

    def _accum_shards(
        self, locals_by_shard: List[Tuple[int, int, int, np.ndarray]], g: np.ndarray
    ) -> None:
        """Ship per-shard gradient slices; workers scatter-accumulate."""
        self._check_open()
        g = np.ascontiguousarray(g, dtype=self._dtype)
        with self._io_lock:
            offset = self._alloc(len(g))
            msgs: Dict[int, tuple] = {}
            for k, b0, b1, local in locals_by_shard:
                self._ids_np[offset + b0 : offset + b1] = local
                self._res_np[offset + b0 : offset + b1] = g[b0:b1]
                msgs[k] = ("accum", offset + b0, offset + b1, offset + b0)
            self._transact(msgs)

    def _accum_empty(self) -> None:
        """Zero-row gradient parity: an empty gather still
        materialises a zero gradient on shard 0, as the dense table's
        empty gather does on its weight."""
        self._check_open()
        with self._io_lock:
            offset = self._alloc(0)
            self._transact({0: ("accum", offset, offset, offset)})

    # ------------------------------------------------------------------
    # Logical-table APIs
    # ------------------------------------------------------------------
    def _read_local(self, shard: int, local: np.ndarray) -> np.ndarray:
        """Return a private copy of the worker's rows at shard-local ``local``."""
        with self._io_lock:
            offset = self._alloc(len(local))
            self._ids_np[offset : offset + len(local)] = local
            self._transact({shard: ("read", offset, offset + len(local), offset)})
            return np.array(self._res_np[offset : offset + len(local)])

    def logical_state(self) -> np.ndarray:
        """Materialise the logical table (in the parent) by streaming.

        Workers still touch only ``io_chunk`` rows per RPC; the parent
        holds the full table because that is what this API *is* — the
        shard-preserving alternative is :meth:`shard_rows` / checkpoint
        ``shard_files=True``.
        """
        self._check_open()
        out = np.empty((self.num_rows, self.dim), dtype=self._dtype)
        for k in range(self.n_shards):
            owned = self.partitioner.owned_ids(k)
            for start in range(0, len(owned), self.io_chunk):
                stop = min(start + self.io_chunk, len(owned))
                local = np.arange(start, stop, dtype=np.int64)
                out[owned[start:stop]] = self._read_local(k, local)
        return out

    def all(self) -> Tensor:
        """The logical table as one differentiable tensor (encoder path).

        The forward streams the table into a parent-side array; the
        backward hands each worker its contiguous full-shard gradient
        slice — the exact concat-split adjoint of a per-shard table.
        """
        self._check_open()
        if is_grad_enabled() and self.quantize:
            raise RuntimeError(_QUANT_TRAIN_ERROR)
        value = self.logical_state()
        parents = [
            p for k, p in enumerate(self._params) if self.partitioner.shard_size(k)
        ] or [self._params[0]]
        return Tensor._make(value, *_shipping_routes(parents, self._accum_all))

    def _accum_all(self, g: np.ndarray) -> None:
        """Full-table gradient: one contiguous slice per non-empty shard."""
        self._check_open()
        g = np.ascontiguousarray(g, dtype=self._dtype)
        row0 = 0
        for k in range(self.n_shards):
            size = self.partitioner.shard_size(k)
            gslice = g[row0 : row0 + size]
            row0 += size
            if not size:
                continue
            if size <= self.io_chunk:
                with self._io_lock:
                    arena = self._alloc(size)
                    self._res_np[arena : arena + size] = gslice
                    self._transact({k: ("accum_all", arena)})
            else:
                # io_chunk-bounded variant: each slice is a scatter onto
                # its ascending local range, so the worker-side adds
                # place every row's gradient exactly once.
                for start in range(0, size, self.io_chunk):
                    stop = min(start + self.io_chunk, size)
                    local = np.arange(start, stop, dtype=np.int64)
                    with self._io_lock:
                        arena = self._alloc(stop - start)
                        self._ids_np[arena : arena + stop - start] = local
                        self._res_np[arena : arena + stop - start] = gslice[start:stop]
                        self._transact(
                            {k: ("accum", arena, arena + stop - start, arena)}
                        )

    def assign_rows(self, ids, values) -> None:
        """Scatter logical rows to their owning workers (streaming write).

        Only the owning workers are touched and requests re-chunk to
        ``io_chunk`` rows, so restoring from per-shard checkpoint files
        — including into a store with a *different* shard count (the
        N→M reshard recipe) — never materialises the full table and
        never exceeds the transient chunk bound in any process.
        """
        self._check_open()
        idx = np.asarray(ids, dtype=np.int64)
        values = np.asarray(values)
        if len(idx) > self.io_chunk:
            for start in range(0, len(idx), self.io_chunk):
                self.assign_rows(
                    idx[start : start + self.io_chunk],
                    values[start : start + self.io_chunk],
                )
            return
        idx, order, pieces = self._split(idx)
        if order is not None:
            values = values[order]
        with self._io_lock:
            offset = self._alloc(len(idx))
            msgs: Dict[int, tuple] = {}
            for k, b0, b1 in pieces:
                self._ids_np[offset + b0 : offset + b1] = idx[b0:b1] - self._starts[k]
                self._res_np[offset + b0 : offset + b1] = values[b0:b1]
                msgs[k] = ("assign", offset + b0, offset + b1, offset + b0)
            self._transact(msgs)
        for k in msgs:
            self._params[k].bump_version()

    def shard_rows(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(owned_ids, rows)`` of one shard, streamed ``io_chunk`` rows
        at a time — the per-shard checkpoint unit (parent-transient
        memory stays ≤ one shard + one chunk)."""
        self._check_open()
        owned = self.partitioner.owned_ids(shard)
        rows = np.empty((len(owned), self.dim), dtype=self._dtype)
        for start in range(0, len(owned), self.io_chunk):
            stop = min(start + self.io_chunk, len(owned))
            local = np.arange(start, stop, dtype=np.int64)
            rows[start:stop] = self._read_local(shard, local)
        return owned, rows

    def load_logical(self, values: np.ndarray, dtype=None) -> None:
        self._check_open()
        values = self._check_table(values)
        if dtype is not None:
            self.rebind_dtype(dtype)
        self._stream_table(values)

    def rebind_dtype(self, dtype) -> None:
        """Rebind worker row buffers (and the result arena) to ``dtype``."""
        self._check_open()
        resolved = np.dtype(dtype)
        self._broadcast(("rebind", resolved.str))
        with self._io_lock:
            self._dtype = resolved
            self._grow_arena(max(self._cap // 2, 1))
        for p in self._params:
            p.grad = None
            p.bump_version()

    # ------------------------------------------------------------------
    # Optimizer-side RPCs (driven by the RemoteShardParameter hooks)
    # ------------------------------------------------------------------
    def _zero_shard_grad(self, shard: int) -> None:
        if self.closed or shard in self._failed:
            return
        self._single(shard, ("zero_grad",))

    def _shard_grad_sqsum(self, shard: int) -> Optional[float]:
        self._check_open()
        return self._single(shard, ("sqsum",))[1]

    def _scale_shard_grad(self, shard: int, scale: float) -> None:
        self._check_open()
        self._single(shard, ("scale", float(scale)))

    def _shard_adam_step(self, shard, lr, beta1, beta2, eps, weight_decay, t) -> bool:
        self._check_open()
        reply = self._single(
            shard,
            (
                "adam",
                float(lr),
                float(beta1),
                float(beta2),
                float(eps),
                float(weight_decay),
                int(t),
            ),
        )
        return bool(reply[1])
