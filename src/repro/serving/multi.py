"""Multi-worker serving: user-partitioned per-worker engines.

One :class:`repro.serving.engine.ServingEngine` means one scorer thread
— one flush pipeline, one encoder/fold cache, one queue.
:class:`MultiWorkerEngine` runs ``n`` of them side by side and
partitions every submit by **initiator user**::

    worker = user % n_workers

Partitioning by user (rather than round-robin) is what keeps the
per-worker caches coherent and hot: a user's requests always land on
the same worker, so that worker's hot-row LRU and encoder cache see the
user's whole stream, and no two workers ever hold conflicting state for
the same request key.  The thread-local autograd mode (PR 5) already
made concurrent ``no_grad`` scoring safe across threads; what it could
*not* make safe is two threads mutating one model's caches — which is
why each worker owns a **model replica** (same weights, distinct
objects).  With identical replicas the composite is bit-identical at
float64 to a single engine serving each user partition (both flush the
same :class:`repro.serving.core.ScoringCore` computation; asserted in
``tests/test_serving_overload.py``).

Replicas are the caller's to provide — construct each model identically
or :func:`repro.training.checkpoint.restore_model` every replica from
one checkpoint.  Overload budgets (``max_queue_rows`` /
``max_queue_age_ms``) apply **per worker**; a single fallback-free
:class:`repro.serving.degrade.DegradationPolicy` may be shared, while
fallback models — being worker-owned mutable state — must come one per
worker (pass a sequence of policies).

``refresh()`` swaps weights on all workers without dropping a ticket:
each per-worker refresh is executed by that worker's thread *between*
flushes, while every queue keeps accepting submits.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.serving.core import PendingScores
from repro.serving.degrade import DegradationPolicy
from repro.serving.engine import ServingEngine

__all__ = ["MultiWorkerEngine"]


class MultiWorkerEngine:
    """Partitions serving traffic by user across per-worker engines.

    Parameters
    ----------
    models: one model replica per worker (``n_workers = len(models)``);
        the replicas must be distinct objects with identical catalogs
        (and, for bit-identical scores, identical weights).
    dtype, max_pending, max_delay_ms, max_queue_rows, max_queue_age_ms:
        forwarded to every per-worker
        :class:`repro.serving.engine.ServingEngine` (budgets are per
        worker).  Every worker inherits the array backend of the thread
        calling :meth:`start`, and each replica serves on the executor
        its own ``executor`` attribute selects.
    degradation: ``None``, one shared fallback-free
        :class:`repro.serving.degrade.DegradationPolicy`, or a sequence
        of per-worker policies (required when policies carry fallback
        models).

    Usage::

        replicas = [build_model(seed=0) for _ in range(4)]
        with MultiWorkerEngine(replicas, max_delay_ms=2.0) as engine:
            ticket = engine.submit_items(user=3, candidate_items=[1, 2])
            scores = ticket.wait(timeout=1.0)
    """

    def __init__(
        self,
        models: Sequence,
        dtype: str = "float64",
        max_pending: int = 65536,
        max_delay_ms: float = 2.0,
        max_queue_rows: Optional[int] = None,
        max_queue_age_ms: Optional[float] = None,
        degradation: Union[None, DegradationPolicy, Sequence[Optional[DegradationPolicy]]] = None,
    ) -> None:
        models = list(models)
        if not models:
            raise ValueError("MultiWorkerEngine needs at least one model replica")
        if len({id(m) for m in models}) != len(models):
            raise ValueError(
                "model replicas must be distinct objects — each worker "
                "thread owns its replica's caches exclusively"
            )
        for model in models[1:]:
            for attr in ("n_users", "n_items"):
                first = getattr(models[0], attr, None)
                other = getattr(model, attr, None)
                if first is not None and other is not None and first != other:
                    raise ValueError(
                        f"replica {attr} mismatch: {other} vs {first} — all "
                        "workers must serve the same catalog"
                    )
        policies = self._normalize_policies(degradation, len(models))
        self._engines: List[ServingEngine] = [
            ServingEngine(
                model,
                dtype=dtype,
                max_pending=max_pending,
                max_delay_ms=max_delay_ms,
                max_queue_rows=max_queue_rows,
                max_queue_age_ms=max_queue_age_ms,
                degradation=policy,
            )
            for model, policy in zip(models, policies)
        ]

    @staticmethod
    def _normalize_policies(degradation, n_workers):
        if degradation is None:
            return [None] * n_workers
        if isinstance(degradation, DegradationPolicy):
            if degradation.fallback_model is not None and n_workers > 1:
                raise ValueError(
                    "a shared DegradationPolicy cannot carry a fallback_model "
                    "across multiple workers (each worker thread needs its own "
                    "fallback replica) — pass one policy per worker instead"
                )
            return [degradation] * n_workers
        policies = list(degradation)
        if len(policies) != n_workers:
            raise ValueError(
                f"got {len(policies)} degradation policies for {n_workers} workers"
            )
        fallbacks = [
            id(p.fallback_model)
            for p in policies
            if p is not None and p.fallback_model is not None
        ]
        if len(fallbacks) != len(set(fallbacks)):
            raise ValueError(
                "the same fallback_model instance appears in multiple "
                "per-worker policies — fallbacks are worker-owned state"
            )
        return policies

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._engines)

    @property
    def engines(self) -> List[ServingEngine]:
        """The per-worker engines (read-only list; e.g. for weight swaps)."""
        return list(self._engines)

    @property
    def models(self) -> List:
        """The per-worker model replicas, worker order."""
        return [engine.model for engine in self._engines]

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
        """Stop (draining) and drop every replica's serving cache."""
        for engine in self._engines:
            engine.release()

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
        they launch — on one worker's caches.
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
        """Rebuild every worker's serving caches after a weight swap.

        Each refresh runs on its worker's thread between flushes while
        all queues keep accepting submits — a rolling swap that never
        drops or strands a ticket.  Load new weights into every replica
        (``engine.models``) first, then call this.
        """
        for engine in self._engines:
            engine.refresh()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-worker snapshots plus fleet-level aggregate counters."""
        workers = [engine.stats() for engine in self._engines]
        aggregate: Dict[str, float] = {
            "submitted": 0, "served": 0, "flushes": 0, "pending_rows": 0,
            "accepted": 0, "rejected": 0, "shed": 0, "aborted": 0,
            "degraded": 0, "requests": 0, "flat_rows": 0, "unique_pairs": 0,
            "fused_calls": 0, "tape_calls": 0,
        }
        for snap in workers:
            engine_stats, overload, batcher = (
                snap["engine"], snap["overload"], snap["batcher"]
            )
            aggregate["submitted"] += engine_stats["submitted"]
            aggregate["served"] += engine_stats["served"]
            aggregate["flushes"] += engine_stats["flushes"]
            aggregate["pending_rows"] += sum(engine_stats["pending_rows"].values())
            for key in ("accepted", "rejected", "shed", "aborted", "degraded"):
                aggregate[key] += overload[key]
            for key in ("requests", "flat_rows", "unique_pairs",
                        "fused_calls", "tape_calls"):
                aggregate[key] += batcher[key]
        aggregate["degraded_active_workers"] = sum(
            1 for snap in workers if snap["overload"]["degraded_active"]
        )
        aggregate["max_flush_seconds"] = max(
            (snap["engine"]["max_flush_seconds"] for snap in workers), default=0.0
        )
        return {
            "n_workers": self.n_workers,
            "aggregate": aggregate,
            "workers": workers,
        }
