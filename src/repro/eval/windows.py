"""Window-parallel execution of planned scoring windows.

:meth:`repro.eval.protocol.EvalProtocol.run` cuts both tasks' unique
pairs into ``chunk_size`` windows and hands them to :func:`run_windows`
as one list.  The windows go onto one shared work queue, and the
calling thread drains it together with ``W - 1`` persistent pool
threads, where ``W`` is the number of CPUs this process may run on.

* **Parity.** The window grid is the serial loop's, and each window
  writes its own slice of a preallocated score buffer.  Every GEMM and
  reduction therefore sees the operands it sees serially, and scores
  are bit-identical for any ``W``.
* **Scopes.** Each participant runs under the caller's ``no_grad``,
  ``dtype_scope`` and ``backend_scope``.
* **No deadlock.** The caller claims windows itself, so a run finishes
  even when every pool thread is busy (a saturated pool, or a run
  started from inside another run's window); it is only slower.
* **Errors.** The first exception stops further claims, waits for the
  windows already running and is re-raised by the caller; the pool
  threads survive it.

With ``W == 1`` (or a single window) the windows run in order on the
caller and no pool thread is created.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
from typing import Callable, List, Optional, Sequence

from repro.nn.backend import backend_scope, get_backend
from repro.nn.tensor import dtype_scope, get_default_dtype, is_grad_enabled, no_grad

__all__ = ["run_windows"]

#: Test hook forcing the pool width; ``None`` derives it from the CPU
#: affinity mask.  Deliberately not a public knob.
_WIDTH: Optional[int] = None


def _width() -> int:
    """Participants per run: the CPUs this process may run on."""
    if _WIDTH is not None:
        return max(1, int(_WIDTH))
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


class _Job:
    """One run's windows, the claim cursor and the completion state."""

    def __init__(self, windows: Sequence[Callable[[], None]]) -> None:
        self.windows = windows
        self.grad = is_grad_enabled()
        self.dtype = get_default_dtype()
        self.backend = get_backend()
        self.error: Optional[BaseException] = None
        self._next = 0
        self._running = 0
        self._cond = threading.Condition()

    def _claim(self) -> Optional[int]:
        with self._cond:
            if self.error is not None or self._next >= len(self.windows):
                return None
            index = self._next
            self._next += 1
            self._running += 1
            return index

    def _finish(self, error: Optional[BaseException]) -> None:
        with self._cond:
            if error is not None and self.error is None:
                self.error = error
            self._running -= 1
            if self._running == 0:
                self._cond.notify_all()

    def drain(self) -> None:
        """Claim and run windows until none are left."""
        grad = contextlib.nullcontext() if self.grad else no_grad()
        with grad, dtype_scope(self.dtype), backend_scope(self.backend):
            while True:
                index = self._claim()
                if index is None:
                    return
                try:
                    self.windows[index]()
                except BaseException as exc:  # re-raised by the caller
                    self._finish(exc)
                else:
                    self._finish(None)

    def wait(self) -> None:
        """Block until every claimed window has finished."""
        with self._cond:
            while self._running:
                self._cond.wait()


class _Pool:
    """Persistent daemon threads that join queued jobs (rebuilt after fork)."""

    def __init__(self) -> None:
        self._tickets: "queue.SimpleQueue[_Job]" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._pid = os.getpid()
        self._lock = threading.Lock()

    def _loop(self, tickets: "queue.SimpleQueue[_Job]") -> None:
        while True:
            job = tickets.get()
            job.drain()

    def submit(self, job: _Job, helpers: int) -> None:
        """Ask ``helpers`` pool threads to join ``job``."""
        with self._lock:
            if self._pid != os.getpid():  # threads do not survive fork
                self._tickets = queue.SimpleQueue()
                self._threads = []
                self._pid = os.getpid()
            while len(self._threads) < helpers:
                thread = threading.Thread(
                    target=self._loop,
                    args=(self._tickets,),
                    name=f"repro-window-{len(self._threads) + 1}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
            for _ in range(helpers):
                self._tickets.put(job)


_POOL = _Pool()


def run_windows(windows: Sequence[Callable[[], None]]) -> None:
    """Run every zero-argument ``windows`` callable, window-parallel.

    Callables must write disjoint outputs; they run under the caller's
    grad mode, dtype and backend.  The first exception raised by any
    window is re-raised here once the windows in flight have finished.
    """
    participants = min(_width(), len(windows))
    if participants <= 1:
        for window in windows:
            window()
        return
    job = _Job(windows)
    _POOL.submit(job, participants - 1)
    try:
        job.drain()
        job.wait()
    finally:
        job.windows = ()  # late pool threads find nothing; free the closures
    if job.error is not None:
        raise job.error
