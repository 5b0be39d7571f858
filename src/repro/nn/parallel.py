"""``repro.nn.parallel`` — thread-parallel, GIL-releasing array backend.

:class:`ParallelBackend` implements the :data:`repro.nn.backend.PRIMITIVES`
contract with row-chunked formulations that let one flush use every core:
elementwise transcendentals, per-row reductions, ``take`` and sorted
``add_at`` split their leading axis into contiguous row chunks executed
on a persistent :class:`~concurrent.futures.ThreadPoolExecutor` (NumPy
releases the GIL inside ufunc inner loops on large contiguous operands,
so the chunks genuinely overlap), while ``matmul`` stays inherited —
BLAS already drops the GIL and threads itself.

Bit-parity is the design constraint, not an afterthought.  Every
parallelized primitive is *row-independent*: an elementwise ufunc, a
reduction over a non-leading axis (NumPy's pairwise ``np.sum`` order is
preserved because each output row's reduction happens entirely inside
one chunk), a row gather, or a scatter-add whose sorted index makes
chunk destinations disjoint.  Chunking those is bitwise invariant under
*any* chunk grid, so float64 results are identical to
:class:`~repro.nn.backend.NumpyBackend` regardless of thread count —
asserted by the conformance lane and the thread-stress tests.

GEMMs are deliberately **not** row-chunked: OpenBLAS selects kernels and
k-blocking by the full problem shape, so ``(A @ B)[s:e]`` and
``A[s:e] @ B`` differ in last-bit rounding for many shapes (measured on
this container for shapes as small as ``(m, 96) @ (96, 12)`` — every
row changes when ``m`` does).  Full-batch matmul keeps serial parity
and still parallelizes through BLAS's own GIL-free threads.

Two thresholds gate the parallel path (constructor arguments, with
environment defaults for the registered instance):

* ``n_threads`` (``REPRO_PARALLEL_THREADS``, default ``os.cpu_count()``)
  — pool width; ``1`` disables chunking entirely, so a 1-CPU container
  pays only the threshold comparison over the serial backend.
* ``min_parallel_rows`` (``REPRO_PARALLEL_MIN_ROWS``, default 8192) —
  arrays with fewer leading rows take the inherited serial path
  unchanged; each chunk keeps at least half the threshold so dispatch
  overhead stays amortized.

The module registers a default instance under the name ``"parallel"``
at import, so ``backend_scope("parallel")``, the ``backend`` knobs on
the serving engines, and the conformance-parametrized test lane all see
it.  Nothing selects it by default: evaluation parallelizes whole plan
windows instead (:mod:`repro.eval.windows`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.backend import (
    NumpyBackend,
    bind_backend,
    refresh_default_backend,
    register_backend,
)

__all__ = ["ParallelBackend", "THREADS_ENV", "MIN_ROWS_ENV"]

#: Environment default for the registered instance's pool width.
THREADS_ENV = "REPRO_PARALLEL_THREADS"

#: Environment default for the registered instance's row threshold.
MIN_ROWS_ENV = "REPRO_PARALLEL_MIN_ROWS"

# Pool worker threads mark themselves here so a primitive invoked from
# *inside* a chunk task always takes the serial path: nested submission
# could deadlock a saturated pool, and ``run_slabs`` callers rely on
# slab bodies executing serially within their slab.
_IN_WORKER = threading.local()


def _mark_worker() -> None:
    _IN_WORKER.active = True


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        return fallback


class ParallelBackend(NumpyBackend):
    """Reference numerics, row-chunked across a persistent thread pool.

    Inherits every primitive from :class:`NumpyBackend` and overrides
    the row-independent ones with chunked equivalents.  All overrides
    fall back to the inherited serial call whenever the operands do not
    qualify (too few rows, broadcasting that does not carry the full
    leading axis, unsorted scatter indices, non-ndarray inputs), so the
    backend is a strict superset of the reference semantics.
    """

    name = "parallel"

    def __init__(
        self,
        n_threads: Optional[int] = None,
        min_parallel_rows: Optional[int] = None,
    ) -> None:
        if n_threads is None:
            n_threads = _env_int(THREADS_ENV, 0) or (os.cpu_count() or 1)
        if min_parallel_rows is None:
            min_parallel_rows = _env_int(MIN_ROWS_ENV, 8192)
        self.n_threads = max(1, int(n_threads))
        self.min_parallel_rows = max(2, int(min_parallel_rows))
        # With one thread no sweep ever chunks; pre-deciding it here
        # lets every override bail to the inherited call before any
        # shape inspection — the "overhead ≤ threshold check" promise
        # for 1-CPU containers.
        self._serial_only = self.n_threads < 2
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_pid: Optional[int] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _get_pool(self) -> ThreadPoolExecutor:
        """The persistent pool, rebuilt after a fork (pid change)."""
        pool = self._pool
        if pool is not None and self._pool_pid == os.getpid():
            return pool
        with self._pool_lock:
            if self._pool is None or self._pool_pid != os.getpid():
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_threads,
                    thread_name_prefix="repro-parallel",
                    initializer=_mark_worker,
                )
                self._pool_pid = os.getpid()
            return self._pool

    def close(self) -> None:
        """Shut the pool down (tests; the registered instance never needs it)."""
        with self._pool_lock:
            if self._pool is not None and self._pool_pid == os.getpid():
                self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_pid = None

    # ------------------------------------------------------------------
    # Chunk planning / dispatch
    # ------------------------------------------------------------------
    def row_partition(self, n_rows: int) -> Optional[List[Tuple[int, int]]]:
        """Contiguous ``(start, stop)`` slabs for a parallel row sweep.

        ``None`` means "run serial": too few rows, a single-thread
        configuration, or a caller already inside a pool worker.  The
        grid depends only on ``(n_rows, n_threads, min_parallel_rows)``
        — never on runtime load — which is what the scheduling-
        determinism tests pin down.
        """
        if (
            n_rows < self.min_parallel_rows
            or self.n_threads < 2
            or getattr(_IN_WORKER, "active", False)
        ):
            return None
        # Every slab keeps >= min_parallel_rows // 2 rows so barely-over-
        # threshold sweeps split in two instead of shattering.
        max_slabs = max(1, (2 * n_rows) // self.min_parallel_rows)
        n_slabs = min(self.n_threads, max_slabs)
        if n_slabs < 2:
            return None
        step = -(-n_rows // n_slabs)
        return [(s, min(s + step, n_rows)) for s in range(0, n_rows, step)]

    def run_slabs(
        self,
        slabs: Sequence[Tuple[int, int]],
        body: Callable[[int, int, int], None],
    ) -> None:
        """Execute ``body(slab_index, start, stop)`` across the pool.

        Slab 0 runs inline on the calling thread (it would otherwise
        idle on the join); the submitting thread's active backend is
        captured and installed in each worker (``bind_backend``), so
        backend-routed calls inside a slab body resolve exactly as they
        would have on the caller.  The first slab exception is re-raised
        after every slab has finished — no partial writes race a
        propagating error.
        """
        if len(slabs) == 1:
            body(0, *slabs[0])
            return
        pool = self._get_pool()
        bound = bind_backend(body)
        futures = [
            pool.submit(bound, i, s, e)
            for i, (s, e) in enumerate(slabs[1:], start=1)
        ]
        error: Optional[BaseException] = None
        # The inline slab runs under the worker flag too: its body must
        # not re-chunk (and re-submit) while the pool drains the rest.
        prev = getattr(_IN_WORKER, "active", False)
        _IN_WORKER.active = True
        try:
            body(0, *slabs[0])
        except BaseException as exc:  # noqa: BLE001 — must still join
            error = exc
        finally:
            _IN_WORKER.active = prev
        for future in futures:
            try:
                future.result()
            except BaseException as exc:  # noqa: BLE001
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def _run_rows(self, slabs, body: Callable[[int, int], None]) -> None:
        self.run_slabs(slabs, lambda _i, s, e: body(s, e))

    # ------------------------------------------------------------------
    # Elementwise machinery
    # ------------------------------------------------------------------
    def _ew(self, ufunc, args, out, dtype=None):
        """Chunked ``ufunc(*args, out=out)`` when the result is row-wide.

        Operands that carry the full leading axis are sliced per chunk;
        broadcast operands (bias rows, ``(n, 1)`` columns only when they
        match rows, scalars) pass through whole.  Falls back to one
        serial call whenever anything is unusual — a non-ndarray
        sequence, an ``out`` of the wrong shape, 0-d results.
        """
        if self._serial_only:
            return ufunc(*args, out=out) if out is not None else ufunc(*args)
        shapes = []
        for a in args:
            if isinstance(a, np.ndarray):
                shapes.append(a.shape)
            elif np.ndim(a) == 0:
                shapes.append(())
            else:  # list/tuple operand: let NumPy handle it serially
                return ufunc(*args, out=out) if out is not None else ufunc(*args)
        first = shapes[0]
        if all(s == first for s in shapes):
            shape = first
        else:
            shape = np.broadcast_shapes(*shapes)
        slabs = self.row_partition(shape[0]) if shape else None
        if slabs is None or (out is not None and out.shape != shape):
            return ufunc(*args, out=out) if out is not None else ufunc(*args)
        rows, nd = shape[0], len(shape)
        sliced = [
            isinstance(a, np.ndarray) and a.ndim == nd and a.shape[0] == rows
            for a in args
        ]
        if out is None:
            if dtype is None:
                dtype = np.result_type(*args)
            if dtype == object:
                return ufunc(*args)
            out = np.empty(shape, dtype=dtype)

        def body(s, e):
            chunk = [a[s:e] if use else a for a, use in zip(args, sliced)]
            ufunc(*chunk, out=out[s:e])

        self._run_rows(slabs, body)
        return out

    # -- arithmetic -----------------------------------------------------
    def add(self, a, b, out=None):
        return self._ew(np.add, (a, b), out)

    def subtract(self, a, b, out=None):
        return self._ew(np.subtract, (a, b), out)

    def negative(self, a, out=None):
        return self._ew(np.negative, (a,), out)

    def multiply(self, a, b, out=None):
        return self._ew(np.multiply, (a, b), out)

    def divide(self, a, b, out=None):
        return self._ew(np.divide, (a, b), out)

    # ``power`` stays inherited: ``a ** e`` takes NumPy's small-integer
    # fast paths (``np.square`` for 2, ``np.sqrt`` for 0.5) whose results
    # a chunked ``np.power`` call would not reproduce bit-for-bit, and it
    # is nowhere near the planned hot path.

    # -- transcendental / elementwise ----------------------------------
    def exp(self, a, out=None):
        return self._ew(np.exp, (a,), out)

    def log(self, a):
        return self._ew(np.log, (a,), None)

    def log1p(self, a):
        return self._ew(np.log1p, (a,), None)

    def sqrt(self, a):
        return self._ew(np.sqrt, (a,), None)

    def absolute(self, a):
        return self._ew(np.absolute, (a,), None)

    def sign(self, a):
        return self._ew(np.sign, (a,), None)

    def tanh(self, a):
        return self._ew(np.tanh, (a,), None)

    def maximum(self, a, b, out=None):
        return self._ew(np.maximum, (a, b), out)

    def greater(self, a, b):
        return self._ew(np.greater, (a, b), None, dtype=np.bool_)

    def clip(self, a, low, high):
        if self._serial_only or not isinstance(a, np.ndarray) or a.ndim == 0:
            return np.clip(a, low, high)
        slabs = self.row_partition(a.shape[0])
        if slabs is None or np.ndim(low) != 0 or np.ndim(high) != 0:
            return np.clip(a, low, high)
        out = np.empty(a.shape, dtype=np.clip(a[:0], low, high).dtype)

        def body(s, e):
            np.clip(a[s:e], low, high, out=out[s:e])

        self._run_rows(slabs, body)
        return out

    def where(self, cond, a, b):
        if self._serial_only or not isinstance(cond, np.ndarray) or cond.ndim == 0:
            return np.where(cond, a, b)
        for operand in (a, b):
            if not isinstance(operand, np.ndarray) and np.ndim(operand) != 0:
                return np.where(cond, a, b)
        shape = np.broadcast_shapes(
            cond.shape, np.shape(a), np.shape(b)
        )
        slabs = self.row_partition(shape[0]) if shape else None
        if slabs is None:
            return np.where(cond, a, b)
        rows, nd = shape[0], len(shape)
        operands = (cond, a, b)
        sliced = [
            isinstance(x, np.ndarray) and x.ndim == nd and x.shape[0] == rows
            for x in operands
        ]
        dtype = np.result_type(a, b)
        if dtype == object:
            return np.where(cond, a, b)
        out = np.empty(shape, dtype=dtype)

        def body(s, e):
            chunk = [x[s:e] if use else x for x, use in zip(operands, sliced)]
            out[s:e] = np.where(*chunk)

        self._run_rows(slabs, body)
        return out

    # -- reductions -----------------------------------------------------
    def _reduce_rows(self, a, axis, keepdims, out, reducer):
        """Row-chunked reduction over a non-leading axis, or ``None``."""
        if (
            self._serial_only
            or not isinstance(a, np.ndarray)
            or a.ndim < 2
            or axis is None
            or isinstance(axis, tuple)
        ):
            return None
        ax = axis % a.ndim
        if ax == 0:
            return None
        slabs = self.row_partition(a.shape[0])
        if slabs is None:
            return None
        # A zero-row probe yields the exact result dtype/shape NumPy
        # would produce, whatever the input dtype's promotion rules.
        probe = reducer(a[:0], ax, keepdims)
        expected = (a.shape[0],) + probe.shape[1:]
        if out is None:
            out = np.empty(expected, dtype=probe.dtype)
        elif out.shape != expected:
            return None

        def body(s, e):
            reducer(a[s:e], ax, keepdims, out[s:e])

        self._run_rows(slabs, body)
        return out

    def sum(self, a, axis=None, keepdims=False, out=None):
        # Reductions that keep the leading axis intact are per-row
        # independent, and NumPy's pairwise summation order for each row
        # lives entirely inside its chunk — bitwise chunk-invariant.
        done = self._reduce_rows(
            a, axis, keepdims, out,
            lambda x, ax, kd, o=None: x.sum(axis=ax, keepdims=kd)
            if o is None else x.sum(axis=ax, keepdims=kd, out=o),
        )
        if done is not None:
            return done
        return NumpyBackend.sum(self, a, axis=axis, keepdims=keepdims, out=out)

    def amax(self, a, axis=None, keepdims=False):
        done = self._reduce_rows(
            a, axis, keepdims, None,
            lambda x, ax, kd, o=None: x.max(axis=ax, keepdims=kd)
            if o is None else x.max(axis=ax, keepdims=kd, out=o),
        )
        if done is not None:
            return done
        return NumpyBackend.amax(self, a, axis=axis, keepdims=keepdims)

    # -- gather / scatter ----------------------------------------------
    def take(self, a, index, out=None):
        if (
            self._serial_only
            or not isinstance(a, np.ndarray)
            or not isinstance(index, np.ndarray)
            or index.ndim != 1
        ):
            return NumpyBackend.take(self, a, index, out=out)
        slabs = self.row_partition(index.shape[0])
        if slabs is None:
            return NumpyBackend.take(self, a, index, out=out)
        clip = out is not None
        if out is None:
            out = np.empty((index.shape[0],) + a.shape[1:], dtype=a.dtype)
        elif out.shape != (index.shape[0],) + a.shape[1:]:
            return NumpyBackend.take(self, a, index, out=out)

        def body(s, e):
            if clip:
                # Mirror the reference out= contract: in-range ids,
                # bounds checks skipped (mode="clip").
                a.take(index[s:e], axis=0, out=out[s:e], mode="clip")
            else:
                # Default mode raises on out-of-range and accepts
                # negative indices — exactly ``a[index]``.
                np.take(a, index[s:e], axis=0, out=out[s:e])

        self._run_rows(slabs, body)
        return out

    def add_at(self, a, index, values):
        """Chunked ``np.add.at`` when the index is sorted (else serial).

        Sorted indices let chunk boundaries snap to the first occurrence
        of each boundary id, making destination rows disjoint across
        chunks; within a chunk the unbuffered accumulation order is the
        serial order, so every destination row sees the identical
        addition sequence — bitwise parity with one big ``add.at``.
        """
        if (
            self._serial_only
            or not isinstance(a, np.ndarray)
            or not isinstance(index, np.ndarray)
            or index.ndim != 1
            or index.dtype.kind not in "iu"
        ):
            return NumpyBackend.add_at(self, a, index, values)
        n = index.shape[0]
        slabs = self.row_partition(n)
        if slabs is None or not bool((index[1:] >= index[:-1]).all()):
            return NumpyBackend.add_at(self, a, index, values)
        slice_values = (
            isinstance(values, np.ndarray)
            and values.ndim >= 1
            and values.shape[0] == n
        )
        if not slice_values and np.ndim(values) != 0 and not isinstance(
            values, np.ndarray
        ):
            return NumpyBackend.add_at(self, a, index, values)
        edges = {0, n}
        for start, _ in slabs[1:]:
            edges.add(int(np.searchsorted(index, index[start], side="left")))
        bounds = sorted(edges)
        spans = [
            (s, e) for s, e in zip(bounds, bounds[1:]) if e > s
        ]
        if len(spans) < 2:
            return NumpyBackend.add_at(self, a, index, values)

        def body(s, e):
            np.add.at(a, index[s:e], values[s:e] if slice_values else values)

        self._run_rows(spans, body)
        return a


register_backend(ParallelBackend())
# The module imports after repro.nn.backend created the main thread's
# state — re-resolve the env-driven default now that "parallel" exists.
refresh_default_backend()
