"""Multi-worker serving: one model, user-partitioned worker engines.

One :class:`repro.serving.engine.ServingEngine` means one flush clock —
one worker thread, one queue, one plan per flush.
:class:`MultiWorkerEngine` runs ``n_workers`` of them over **one**
model and partitions every submit by **initiator user**::

    worker = user % n_workers

Every worker scores the shared model concurrently under ``no_grad``:
flushes only read the encoder cache, and the caches and counters they
write lock (see the threading model in :mod:`repro.serving.engine`).
Partitioning by user keeps each worker's queue and plan dedup local — a
user's requests always co-batch on the same worker.  Each worker's
flush is exactly one single-engine flush over its partition, so scores
are bit-identical at float64 to one direct planned call over that
partition's requests (asserted in ``tests/test_serving_overload.py``).

Overload budgets (``max_queue_rows`` / ``max_queue_age_ms``) and the
degradation hysteresis apply **per worker**; one
:class:`repro.serving.degrade.DegradationPolicy` (fallback model
included) serves every worker.  ``refresh()`` parks every worker
between two flushes, rebuilds the shared caches once and resumes them,
while every queue keeps accepting submits.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.serving.core import PendingScores
from repro.serving.degrade import DegradationPolicy
from repro.serving.engine import ServingEngine

__all__ = ["MultiWorkerEngine"]


class MultiWorkerEngine:
    """Partitions serving traffic by user across workers on one model.

    Parameters
    ----------
    model: the model every worker scores.
    n_workers: how many worker engines (flush clocks) to run.
    dtype, max_pending, max_delay_ms, max_queue_rows, max_queue_age_ms:
        forwarded to every per-worker
        :class:`repro.serving.engine.ServingEngine` (budgets are per
        worker).  Every worker inherits the array backend of the thread
        calling :meth:`start`.
    degradation: ``None`` or one
        :class:`repro.serving.degrade.DegradationPolicy` for every
        worker (each keeps its own pressure streak).

    Usage::

        with MultiWorkerEngine(model, 4, max_delay_ms=2.0) as engine:
            ticket = engine.submit_items(user=3, candidate_items=[1, 2])
            scores = ticket.wait(timeout=1.0)
    """

    def __init__(
        self,
        model,
        n_workers: int,
        dtype: str = "float64",
        max_pending: int = 65536,
        max_delay_ms: float = 2.0,
        max_queue_rows: Optional[int] = None,
        max_queue_age_ms: Optional[float] = None,
        degradation: Optional[DegradationPolicy] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._engines: List[ServingEngine] = [
            ServingEngine(
                model,
                dtype=dtype,
                max_pending=max_pending,
                max_delay_ms=max_delay_ms,
                max_queue_rows=max_queue_rows,
                max_queue_age_ms=max_queue_age_ms,
                degradation=degradation,
            )
            for _ in range(n_workers)
        ]
        # One gate for the fleet: one cache build, and a refresh parks
        # every worker.
        for engine in self._engines[1:]:
            engine._gate = self._engines[0]._gate

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._engines)

    @property
    def engines(self) -> List[ServingEngine]:
        """The per-worker engines (read-only list), worker order."""
        return list(self._engines)

    def worker_of(self, user: int) -> int:
        """Which worker serves ``user`` — the stable hash partition."""
        return int(user) % self.n_workers

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MultiWorkerEngine":
        """Start every per-worker engine (rolls back on partial failure)."""
        started = []
        try:
            for engine in self._engines:
                engine.start()
                started.append(engine)
        except BaseException:
            for engine in started:
                engine.stop(drain=False)
            raise
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop every worker; same ``drain`` semantics as the single engine."""
        for engine in self._engines:
            engine.stop(drain=drain)

    @property
    def running(self) -> bool:
        """Whether every per-worker engine is serving."""
        return all(engine.running for engine in self._engines)

    def __enter__(self) -> "MultiWorkerEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def release(self) -> None:
        """Stop every worker (draining), then drop the serving caches."""
        self.stop()
        self._engines[0].release()

    # ------------------------------------------------------------------
    # Submission (any thread) — routed by initiator user
    # ------------------------------------------------------------------
    def submit_items(self, user: int, candidate_items: Sequence[int]) -> PendingScores:
        """Queue a Task-A request on ``user``'s worker."""
        return self._engines[self.worker_of(user)].submit_items(user, candidate_items)

    def submit_participants(
        self, user: int, item: int, candidate_users: Sequence[int]
    ) -> PendingScores:
        """Queue a Task-B request on the *initiator*'s worker.

        Partitioning by initiator keeps a user's whole session — item
        rankings plus the follow-up participant rankings for the groups
        they launch — in one worker's queue and plan dedup.
        """
        return self._engines[self.worker_of(user)].submit_participants(
            user, item, candidate_users
        )

    def score_items(self, user: int, candidate_items: Sequence[int],
                    timeout: Optional[float] = None) -> np.ndarray:
        """Submit a Task-A request and block until its flush resolves it."""
        return self.submit_items(user, candidate_items).wait(timeout)

    def score_participants(self, user: int, item: int,
                           candidate_users: Sequence[int],
                           timeout: Optional[float] = None) -> np.ndarray:
        """Submit a Task-B request and block until its flush resolves it."""
        return self.submit_participants(user, item, candidate_users).wait(timeout)

    # ------------------------------------------------------------------
    # Drain / weight swap
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every worker has flushed everything submitted so far."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for engine in self._engines:
            remaining = None if deadline is None else deadline - time.monotonic()
            engine.drain(timeout=remaining)

    def refresh(self) -> None:
        """Rebuild the shared serving caches once after a weight swap.

        Load the new weights into the model first, then call this:
        every worker parks between two flushes, the caches rebuild once
        and the workers resume, while all queues keep accepting submits —
        no ticket is dropped or stranded (see
        :meth:`repro.serving.engine.ServingEngine.refresh`).
        """
        self._engines[0].refresh()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-worker snapshots, fleet-level aggregate counters, and the
        shared model's ``stores``, ``cache`` and ``memory`` (reported
        once: every worker reads the same stores)."""
        workers = [engine._worker_stats() for engine in self._engines]
        summed = {
            "engine": ("submitted", "served", "flushes"),
            "overload": ("accepted", "rejected", "shed", "aborted", "degraded"),
            "batcher": ("requests", "flat_rows", "unique_pairs", "tape_calls"),
        }
        aggregate = {
            key: sum(snap[part][key] for snap in workers)
            for part, keys in summed.items()
            for key in keys
        }
        aggregate["pending_rows"] = sum(
            sum(snap["engine"]["pending_rows"].values()) for snap in workers
        )
        aggregate["degraded_active_workers"] = sum(
            snap["overload"]["degraded_active"] for snap in workers
        )
        aggregate["max_flush_seconds"] = max(
            snap["engine"]["max_flush_seconds"] for snap in workers
        )
        return {
            "n_workers": self.n_workers,
            "aggregate": aggregate,
            "workers": workers,
            **self._engines[0]._store_stats(),
        }
