"""Asynchronous serving engine: a worker thread owns the flush clock.

Serving requests arrive concurrently from many submitters and *someone*
must trade latency against batch size.  :class:`ServingEngine` is that
someone — a dedicated worker thread that flushes the shared
:class:`repro.serving.core.RequestQueue` when the first of three
triggers fires:

* **deadline** — the oldest pending request has waited ``max_delay_ms``
  (the latency budget: no request waits longer than one deadline plus
  one flush);
* **size** — a task's pending flat rows reached ``max_pending`` (the
  batch-size budget: planned calls stay bounded no matter the arrival
  rate);
* **drain** — :meth:`drain` / :meth:`stop` asked for the queue to empty
  now (shutdown and checkpoint swaps never strand tickets).

Threading model — the single-scorer invariant
---------------------------------------------
``submit_items`` / ``submit_participants`` are safe from **any**
thread: they validate, enqueue under the engine lock, and return a
:class:`repro.serving.core.PendingScores` ticket whose
:meth:`~repro.serving.core.PendingScores.wait` blocks on an event until
the worker's clock fires.  The worker thread owns the engine's **flush
clock**: only it drains the queue and flushes (asserted in ``_flush``).
It does not own the model: the workers of a
:class:`repro.serving.multi.MultiWorkerEngine` score one model
concurrently under ``no_grad``.  A flush only *reads* the encoder
cache, and the shared caches and counters it writes lock (fold caches,
:meth:`repro.nn.layers.Linear.folded_blocks`; store counters,
:mod:`repro.store.base` — so :meth:`stats` may snapshot them mid-flush).
Only a cache rebuild must not overlap a flush: the first start sets
eval mode and builds the cache before any worker runs (the last stop
restores the mode), and :meth:`refresh` parks every worker on the
model between two flushes while it rebuilds once.

Scores are **bit-identical** to one direct planned call
(``score_item_plan`` / ``score_participant_plan``) over the
:class:`repro.plan.ScoringPlan` of the same co-batched requests: the
flush's :class:`repro.serving.core.ScoringCore` builds that plan, makes
that call under ``no_grad`` and scatters the result.

A flush whose model call raises fails that task's tickets with the
captured exception (submitters see the real error from ``wait()``) and
the worker keeps serving subsequent batches — one poisoned batch never
takes the engine down.

Overload behaviour
------------------
Past saturation an unbounded queue makes latency a function of how long
the overload has lasted.  Three optional mechanisms make the engine fail
*predictably* instead (see :mod:`repro.serving.errors` and
``docs/serving.md``):

* **admission control** — ``max_queue_rows`` bounds total pending flat
  rows; a submit past the budget raises
  :class:`repro.serving.errors.OverloadError` synchronously (no ticket,
  no waiting);
* **load shedding** — ``max_queue_age_ms`` bounds queue wait; the worker
  fails requests that aged past it with
  :class:`repro.serving.errors.DeadlineExceeded` *before* planning them,
  so shed rate — not latency — absorbs the excess;
* **graceful degradation** — a
  :class:`repro.serving.degrade.DegradationPolicy` truncates candidate
  lists to a top-K and/or routes flushes to a cheap fallback model once
  queue depth has stayed above a watermark for N consecutive flushes;
  degraded tickets carry ``degraded=True``.

``stats()["overload"]`` accounts for every path: ``accepted ==`` scored
``+ shed + aborted``, and ``rejected`` submits never created a ticket.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.backend import ArrayBackend, backend_scope, get_backend
from repro.serving.core import PendingScores, RequestQueue, ScoringCore, split_expired
from repro.serving.degrade import DegradationPolicy
from repro.serving.errors import DeadlineExceeded, EngineStopped

__all__ = ["ServingEngine"]


class _ModelGate:
    """What every worker scoring one model shares: its mode and its barrier.

    Any number of flushes may run at once; :meth:`rebuild` waits for
    the flushes in progress to end and holds new ones back until the
    caches are rebuilt, so each worker parks between two flushes while
    its queue keeps admitting.  A stopped or dead worker holds no flush,
    so a rebuild never waits for it.  The first worker to start switches
    the models to eval mode and builds their caches; the last to stop
    restores the mode.
    """

    def __init__(self, cores: List[ScoringCore]) -> None:
        self._cores = cores            # primary (+ fallback) core
        self._cv = threading.Condition()
        self._flushing = 0
        self._rebuilding = False
        self._workers = 0
        self._was_training: list = []

    def attach(self) -> None:
        with self._cv:
            if self._workers == 0:
                models = [core.model for core in self._cores]
                self._was_training = [m for m in models if getattr(m, "training", False)]
                for model in self._was_training:
                    model.eval()  # serve without dropout, like EvalProtocol.run
                try:
                    for core in self._cores:
                        core.prepare()
                except BaseException:
                    self._restore_mode()
                    raise
            self._workers += 1

    def detach(self) -> None:
        with self._cv:
            self._workers -= 1
            if self._workers == 0:
                self._restore_mode()

    def _restore_mode(self) -> None:
        for model in self._was_training:
            model.train()
        self._was_training = []

    @contextmanager
    def flush(self):
        with self._cv:
            while self._rebuilding:
                self._cv.wait()
            self._flushing += 1
        try:
            yield
        finally:
            with self._cv:
                self._flushing -= 1
                self._cv.notify_all()

    def rebuild(self) -> None:
        """Rebuild every core's cache once, with no flush in progress."""
        with self._cv:
            while self._rebuilding:
                self._cv.wait()
            self._rebuilding = True
            while self._flushing:
                self._cv.wait()
        try:
            for core in self._cores:
                core.refresh()
        finally:
            with self._cv:
                self._rebuilding = False
                self._cv.notify_all()


class ServingEngine:
    """Thread-safe serving front-end with a worker-owned flush clock.

    Parameters
    ----------
    model: any :class:`repro.baselines.base.GroupBuyingRecommender`.
    dtype: scoring precision (``"float32"`` for the inference fast path).
    max_pending: flat request rows per task that trigger a size flush.
    max_delay_ms: latency deadline — the oldest pending request is
        flushed at most this many milliseconds after submission (plus
        one flush duration).
    max_queue_rows: admission (depth) budget — total pending flat rows
        beyond which ``submit_*`` raises
        :class:`repro.serving.errors.OverloadError` instead of
        enqueueing.  ``None`` (default) admits everything.
    max_queue_age_ms: shedding (age) budget — requests that waited
        longer than this in the queue are failed with
        :class:`repro.serving.errors.DeadlineExceeded` by the worker
        before planning, instead of being scored late.  ``None``
        (default) never sheds.
    degradation: optional
        :class:`repro.serving.degrade.DegradationPolicy` — under
        sustained queue pressure, truncate candidate lists and/or score
        via a registered fallback model; served tickets carry
        ``degraded=True``.

    The flush thread runs under the array backend of the thread that
    called :meth:`start` (captured once per start), so an enclosing
    ``backend_scope`` — e.g. a :class:`repro.nn.CountingBackend` audit —
    covers every flush instead of dropping at the thread spawn.

    Usage::

        engine = ServingEngine(model, max_delay_ms=2.0)
        with engine:                       # start()/stop() lifecycle
            ticket = engine.submit_items(user=3, candidate_items=[1, 2])
            scores = ticket.wait(timeout=1.0)

    ``stop()`` drains: every pending ticket resolves before the worker
    exits.  ``stop(drain=False)`` instead fails still-pending tickets
    with :class:`repro.serving.errors.EngineStopped` — either way, no
    waiter is ever left to hit its own timeout.
    """

    def __init__(
        self,
        model,
        dtype: str = "float64",
        max_pending: int = 65536,
        max_delay_ms: float = 2.0,
        max_queue_rows: Optional[int] = None,
        max_queue_age_ms: Optional[float] = None,
        degradation: Optional[DegradationPolicy] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if not max_delay_ms > 0:
            raise ValueError(f"max_delay_ms must be > 0, got {max_delay_ms}")
        if max_queue_age_ms is not None and not max_queue_age_ms > 0:
            raise ValueError(
                f"max_queue_age_ms must be > 0, got {max_queue_age_ms}"
            )
        self._worker_backend: Optional[ArrayBackend] = None
        self._core = ScoringCore(model, dtype)
        self.max_pending = max_pending
        self.max_delay_ms = float(max_delay_ms)
        self.max_queue_age_ms = (
            None if max_queue_age_ms is None else float(max_queue_age_ms)
        )
        self.degradation = degradation
        self._fallback_core: Optional[ScoringCore] = None
        if degradation is not None:
            degradation.check_compatible(model)
            if degradation.fallback_model is not None:
                self._fallback_core = ScoringCore(degradation.fallback_model, dtype)
        # A MultiWorkerEngine hands every worker engine 0's gate.
        self._gate = _ModelGate(
            [self._core] + ([self._fallback_core] if self._fallback_core else [])
        )
        self._cv = threading.Condition()
        self._queue = RequestQueue(max_rows=max_queue_rows)
        self._seq = 0              # newest submitted request
        self._served_seq = 0       # newest request a finished flush covered
        self._size_due = False
        self._drain_requested = False
        self._stopping = False
        self._worker: Optional[threading.Thread] = None
        self._worker_error: Optional[BaseException] = None
        self._flush_causes = {"deadline": 0, "size": 0, "drain": 0, "stop": 0}
        self._flush_count = 0
        self._flush_seconds_total = 0.0
        self._max_flush_seconds = 0.0
        # Overload accounting: accepted == scored + shed + aborted, and
        # rejected submits never created a ticket.
        self._accepted = 0         # submits the admission controller let in
        self._shed = 0             # requests failed with DeadlineExceeded
        self._aborted = 0          # requests failed with EngineStopped
        self._degraded_served = 0  # requests resolved by a degraded flush
        self._pressure_streak = 0  # consecutive flushes at/above watermark
        self._degraded_active = False

    @property
    def model(self):
        return self._core.model

    @property
    def dtype(self) -> str:
        return self._core.dtype

    @property
    def backend(self) -> Optional[str]:
        """Name of the array backend the flush thread runs under.

        Captured from the thread calling :meth:`start`; ``None`` before
        the first start.
        """
        if self._worker_backend is None:
            return None
        return self._worker_backend.name

    @property
    def max_queue_rows(self) -> Optional[int]:
        """The admission depth budget (``None`` = admit everything)."""
        return self._queue.max_rows

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingEngine":
        """Spawn the worker thread that owns the flush clock."""
        with self._cv:
            if self._worker is not None and self._worker.is_alive():
                raise RuntimeError("serving engine is already running")
            if self._worker is not None:  # a dead worker never stopped
                self._gate.detach()
                self._worker = None
            self._stopping = False
            self._worker_error = None
            # Capture the starting thread's backend NOW: the worker
            # thread starts at numpy, which would silently drop an
            # enclosing backend_scope (the thread-local does not cross
            # spawns).
            self._worker_backend = get_backend()
            self._gate.attach()
            self._worker = threading.Thread(
                target=self._run_worker, name="repro-serving-engine", daemon=True
            )
            self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the worker, resolving every outstanding ticket (idempotent).

        With ``drain=True`` (default) pending requests are flushed
        first: every outstanding ticket resolves with scores (or with
        its flush's exception) before this returns.  With
        ``drain=False`` still-pending tickets are **failed immediately**
        with :class:`repro.serving.errors.EngineStopped` — the fast path
        out of a saturated queue.  Either way no waiter is left to hit
        its own timeout, and submits arriving after ``stop()`` raise
        :class:`repro.serving.errors.EngineStopped` synchronously.
        """
        with self._cv:
            worker = self._worker
            self._stopping = True
            if not drain and self._queue.has_pending:
                items, participants, last_seq = self._queue.swap()
                self._served_seq = max(self._served_seq, last_seq)
                self._aborted += len(items) + len(participants)
                exc = EngineStopped(
                    "serving engine stopped (drain=False) before this "
                    "request was scored"
                )
                for request in items + participants:
                    request[-2]._fail(exc)
            self._cv.notify_all()
        if worker is not None:
            worker.join()
        with self._cv:
            if self._worker is not None:
                self._gate.detach()
            self._worker = None

    @property
    def running(self) -> bool:
        """Whether the worker is alive and accepting submissions."""
        with self._cv:
            return self._running_locked()

    def _running_locked(self) -> bool:
        return (
            self._worker is not None
            and self._worker.is_alive()
            and not self._stopping
        )

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def release(self) -> None:
        """Stop (draining) and drop the model's serving cache.

        Call before handing the model back to training or analysis code,
        so no float32 serving cache leaks out of serving.  A
        :class:`repro.serving.multi.MultiWorkerEngine` releases once,
        after stopping every worker.
        """
        self.stop()
        self._core.release()
        if self._fallback_core is not None:
            self._fallback_core.release()

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------
    def submit_items(self, user: int, candidate_items: Sequence[int]) -> PendingScores:
        """Queue a Task-A request: rank ``candidate_items`` for ``user``.

        Raises :class:`repro.serving.errors.EngineStopped` when the
        engine is not serving and
        :class:`repro.serving.errors.OverloadError` when the admission
        depth budget is exhausted — both synchronously, before any
        ticket exists.
        """
        candidates = self._core.check_item_request(user, candidate_items)
        ticket = PendingScores()
        with self._cv:
            self._require_running_locked()
            self._queue.admit(candidates.size)
            self._seq += 1
            self._queue.add_items(user, candidates, ticket, self._seq)
            self._note_submit_locked()
        return ticket

    def submit_participants(
        self, user: int, item: int, candidate_users: Sequence[int]
    ) -> PendingScores:
        """Queue a Task-B request: rank ``candidate_users`` for ``(user, item)``.

        Same typed-failure contract as :meth:`submit_items`.
        """
        candidates = self._core.check_participant_request(user, item, candidate_users)
        ticket = PendingScores()
        with self._cv:
            self._require_running_locked()
            self._queue.admit(candidates.size)
            self._seq += 1
            self._queue.add_participants(user, item, candidates, ticket, self._seq)
            self._note_submit_locked()
        return ticket

    def _note_submit_locked(self) -> None:
        self._core.stats["requests"] += 1
        self._accepted += 1
        if self._queue.max_task_rows >= self.max_pending:
            self._size_due = True
        self._cv.notify_all()

    def _require_running_locked(self) -> None:
        if not self._running_locked():
            if self._worker_error is not None:
                raise EngineStopped(
                    "serving engine worker died"
                ) from self._worker_error
            raise EngineStopped("serving engine is not running — call start()")

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
    # Explicit drain / weight swap (any thread)
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every request submitted so far has been flushed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            target = self._seq
            if self._served_seq >= target:
                return
            self._require_running_locked()
            self._drain_requested = True
            self._cv.notify_all()
            while self._served_seq < target:
                if self._worker is None or not self._worker.is_alive():
                    raise EngineStopped(
                        "serving engine worker exited with requests pending"
                    ) from self._worker_error
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(f"drain() timed out after {timeout}s")
                self._cv.wait(0.05 if remaining is None else min(0.05, remaining))

    def refresh(self) -> None:
        """Re-run the encoder after a weight update (checkpoint swap).

        Parks every worker scoring this model (all of a
        :class:`repro.serving.multi.MultiWorkerEngine`'s) between two
        flushes, rebuilds the primary and fallback caches once on the
        calling thread under the backend captured at :meth:`start`, and
        resumes them; queues keep admitting throughout and no ticket is
        dropped.  With no worker running the rebuild simply runs.
        """
        with backend_scope(self._worker_backend or get_backend()):
            self._gate.rebuild()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _due_cause_locked(self) -> Optional[str]:
        """Which flush trigger (if any) fired, in priority order."""
        if not self._queue.has_pending:
            self._drain_requested = False  # nothing left to drain
            return None
        if self._size_due:
            return "size"
        if self._drain_requested:
            return "drain"
        anchored = self._queue.first_enqueued_at
        if anchored is not None and (
            time.monotonic() - anchored
        ) * 1000.0 >= self.max_delay_ms:
            return "deadline"
        return None

    def _poll_timeout_locked(self) -> Optional[float]:
        """Seconds until the deadline trigger could fire (None = idle)."""
        anchored = self._queue.first_enqueued_at
        if anchored is None:
            return None
        remaining = self.max_delay_ms / 1000.0 - (time.monotonic() - anchored)
        return max(remaining, 0.0)

    def _run_worker(self) -> None:
        """Worker entry: install the backend captured at start()."""
        with backend_scope(self._worker_backend):
            self._run()

    def _run(self) -> None:
        try:
            while True:
                with self._cv:
                    while True:
                        cause = self._due_cause_locked()
                        if cause or self._stopping:
                            break
                        self._cv.wait(self._poll_timeout_locked())
                    if not self._queue.has_pending:
                        return  # stopping, and nothing left to flush
                    depth = self._queue.total_rows
                    items, participants, last_seq = self._queue.swap()
                    self._size_due = False
                    self._drain_requested = False
                    degraded = self._update_pressure_locked(depth)
                with self._gate.flush():
                    self._flush(items, participants, last_seq,
                                cause or "stop", degraded)
        except BaseException as exc:  # failsafe: never strand tickets
            with self._cv:
                self._worker_error = exc
                items, participants, last_seq = self._queue.swap()
                self._served_seq = max(self._served_seq, last_seq)
                for request in items + participants:
                    request[-2]._fail(exc)
                self._cv.notify_all()
            raise

    def _update_pressure_locked(self, depth: int) -> bool:
        """Advance the degradation hysteresis with one flush's queue depth.

        Degradation engages after ``trigger_flushes`` consecutive
        flushes drained a queue at/above ``watermark_rows`` and
        disengages on the first shallower flush.
        """
        policy = self.degradation
        if policy is None:
            return False
        if depth >= policy.watermark_rows:
            self._pressure_streak += 1
        else:
            self._pressure_streak = 0
        self._degraded_active = self._pressure_streak >= policy.trigger_flushes
        return self._degraded_active

    def _shed_expired(self, items, participants):
        """Fail requests that aged past ``max_queue_age_ms``; return the rest.

        Runs on the worker *before* planning: a request that already
        outlived its queue-age budget would resolve after its caller
        gave up, so its ticket gets a typed
        :class:`repro.serving.errors.DeadlineExceeded` instead of
        consuming scoring capacity.
        """
        now = time.monotonic()
        items, shed_items = split_expired(items, now, self.max_queue_age_ms)
        participants, shed_parts = split_expired(
            participants, now, self.max_queue_age_ms
        )
        shed = shed_items + shed_parts
        for request in shed:
            age_ms = (now - request[-1]) * 1000.0
            request[-2]._fail(
                DeadlineExceeded(
                    f"request shed after {age_ms:.1f}ms in queue "
                    f"(age budget {self.max_queue_age_ms}ms)",
                    age_ms=age_ms,
                    budget_ms=self.max_queue_age_ms,
                )
            )
        return items, participants, len(shed)

    def _flush(self, items, participants, last_seq: int, cause: str,
               degraded: bool = False) -> None:
        # The single-scorer invariant: ONLY this thread flushes this
        # engine's queue (other engines' workers may score the model).
        assert threading.current_thread() is self._worker, (
            "ServingEngine._flush must run on the engine worker thread"
        )
        started = time.perf_counter()
        items, participants, n_shed = self._shed_expired(items, participants)
        core = self._core
        n_degraded = 0
        if degraded and (items or participants):
            policy = self.degradation
            items, participants = policy.truncate(items, participants)
            for request in items + participants:
                request[-2].degraded = True
            n_degraded = len(items) + len(participants)
            if self._fallback_core is not None:
                core = self._fallback_core
        try:
            core.execute(items, participants)
        except Exception:
            # Tickets already carry the captured exception; the engine
            # keeps serving subsequent batches.
            pass
        duration = time.perf_counter() - started
        with self._cv:
            self._served_seq = max(self._served_seq, last_seq)
            self._flush_causes[cause] += 1
            self._flush_count += 1
            self._flush_seconds_total += duration
            self._max_flush_seconds = max(self._max_flush_seconds, duration)
            self._shed += n_shed
            self._degraded_served += n_degraded
            self._cv.notify_all()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def shard_stats(self) -> Dict[str, dict]:
        """Per-store gather/cache counters (see ``ScoringCore.shard_stats``)."""
        return self._core.shard_stats()

    def stats(self) -> dict:
        """One JSON-serializable snapshot across every serving layer.

        Unifies the engine's clock counters (flush causes, flush
        durations, queue depth), the overload counters
        (accepted/rejected/shed/aborted/degraded plus the live
        degradation state — ``accepted == scored + shed + aborted``),
        the batching core's request/dedup counters (plus the fallback
        core's under ``"fallback"`` when a degradation fallback is
        registered), each store's gather counters, and — for
        :class:`repro.store.LRUCachedStore`-fronted tables — aggregate
        cache hit rates.  Safe to call from any thread while the engine
        serves.
        """
        return {**self._worker_stats(), **self._store_stats()}

    def _worker_stats(self) -> dict:
        """This worker's clock, overload and batching counters."""
        with self._cv:
            flushes = self._flush_count
            engine = {
                "running": self._running_locked(),
                "dtype": self._core.dtype,
                "backend": self.backend,
                "max_pending": self.max_pending,
                "max_delay_ms": self.max_delay_ms,
                "pending_rows": dict(self._queue.pending_rows),
                "submitted": self._seq,
                "served": self._served_seq,
                "flushes": flushes,
                "flush_causes": dict(self._flush_causes),
                "avg_flush_seconds": (
                    self._flush_seconds_total / flushes if flushes else 0.0
                ),
                "max_flush_seconds": self._max_flush_seconds,
            }
            overload = {
                "max_queue_rows": self._queue.max_rows,
                "max_queue_age_ms": self.max_queue_age_ms,
                "accepted": self._accepted,
                "rejected": self._queue.rejected,
                "shed": self._shed,
                "aborted": self._aborted,
                "degraded": self._degraded_served,
                "degraded_active": self._degraded_active,
                "pressure_streak": self._pressure_streak,
            }
            batcher = dict(self._core.stats)
            fallback = (
                dict(self._fallback_core.stats)
                if self._fallback_core is not None
                else None
            )
        out = {"engine": engine, "overload": overload, "batcher": batcher}
        if fallback is not None:
            out["fallback"] = fallback
        return out

    def _store_stats(self) -> dict:
        """The served model's store counters, cache hit rates and bytes."""
        stores = self._core.shard_stats()
        hits = sum(s.get("cache_hits", 0) for s in stores.values())
        misses = sum(s.get("cache_misses", 0) for s in stores.values())
        cache = {
            "stores": sum(1 for s in stores.values() if "cache_hits" in s),
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }

        def tier_bytes(snap: dict) -> int:
            # A wrapper's resident_bytes covers only its own tier; walk
            # the nested inner snapshots so the aggregate counts every
            # tier (LRU payloads + quantised shadow + float master).
            total = snap.get("resident_bytes", 0)
            inner = snap.get("inner")
            return total + (tier_bytes(inner) if inner else 0)

        memory = {
            "resident_bytes": sum(tier_bytes(s) for s in stores.values()),
            "stores": {name: tier_bytes(s) for name, s in stores.items()},
        }
        return {"stores": stores, "cache": cache, "memory": memory}
