"""Serving core: tickets, the pending-request queue, and flush execution.

This module is the *pure* half of the serving layer — it knows nothing
about clocks or threads.  :class:`repro.serving.engine.ServingEngine`
drives it: a dedicated worker thread owns the flush clock (deadline /
size budget / drain) and makes the model calls; the workers of a
:class:`repro.serving.multi.MultiWorkerEngine` share one model and
score it concurrently under ``no_grad``.

Split of responsibilities:

* :class:`PendingScores` — one ticket per submitted request; resolves
  with a score vector (or the flush's exception) via a
  :class:`threading.Event`, so any thread can block in
  :meth:`PendingScores.wait`.
* :class:`RequestQueue` — plain pending-request state (request tuples,
  per-task pending row counts, oldest-enqueue timestamp).  No locks: the
  engine serializes access.
* :class:`ScoringCore` — validation and flush execution: compiles each
  task's drained requests into one :class:`repro.plan.ScoringPlan`,
  runs the planned model call under ``no_grad``/``dtype_scope``, and
  scatters scores back onto the tickets.  A model error inside one
  task's call **fails that task's tickets with the captured exception**
  (instead of orphaning them unresolved) and still executes the other
  task before re-raising — one poisoned batch never strands its
  co-batched neighbours in limbo.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import dtype_scope, no_grad
from repro.plan import ScoringPlan
from repro.serving.errors import OverloadError, TicketTimeout
from repro.store import iter_stores

__all__ = ["PendingScores", "RequestQueue", "ScoringCore", "split_expired"]


class PendingScores:
    """A ticket for one submitted request; resolves at a flush.

    The ticket resolves exactly once — either with the request's score
    vector or, when its flush's model call raised, with that exception
    (re-raised by :attr:`scores` / :meth:`wait`, so the submitter sees
    the real failure instead of a generic "never resolved" error).
    """

    __slots__ = ("_scores", "_error", "_event", "_pad_to", "resolved_at",
                 "degraded")

    def __init__(self) -> None:
        self._scores: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._event = threading.Event()
        self._pad_to: Optional[int] = None
        #: ``time.perf_counter()`` at resolution (latency accounting).
        self.resolved_at: Optional[float] = None
        #: Whether this request was served degraded (candidate list
        #: truncated to the policy's top-K and/or scored by the fallback
        #: model) — see :class:`repro.serving.degrade.DegradationPolicy`.
        self.degraded: bool = False

    @property
    def ready(self) -> bool:
        """Whether the ticket has resolved (with scores or a failure)."""
        return self._event.is_set()

    @property
    def failed(self) -> bool:
        """Whether the ticket's flush failed (``scores`` will raise)."""
        return self._error is not None

    @property
    def error(self) -> Optional[BaseException]:
        """The exception this ticket resolved with, if any.

        ``None`` while pending or after a successful resolution.  Lets
        overload accounting distinguish shed (``DeadlineExceeded``) from
        genuinely failed tickets without re-raising.
        """
        return self._error

    def wait(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until resolution; return the scores.

        Blocks on the ticket's event until the engine worker's clock
        fires (``timeout`` in seconds bounds the wait).  Raises the
        flush's exception if the model call failed, or
        :class:`repro.serving.errors.TicketTimeout` (a typed
        :class:`TimeoutError`) if the deadline passed with the ticket
        still **unresolved** — in which case the ticket stays live and
        may still resolve later.
        """
        self._event.wait(timeout)
        if self._error is not None:
            raise self._error
        if self._scores is None:
            raise TicketTimeout(
                f"scoring ticket unresolved after {timeout}s — the flush "
                "clock has not fired yet (is the engine running?)"
            )
        return self._scores

    @property
    def scores(self) -> np.ndarray:
        """The request's score vector (blocks while still pending)."""
        return self.wait()

    def _resolve(self, scores: np.ndarray) -> None:
        if self._pad_to is not None and scores.shape[0] < self._pad_to:
            # Degraded truncation: the flush scored only the first K
            # candidates.  Pad to the submitted length with -inf so the
            # score vector stays aligned with the caller's candidate
            # list (unscored candidates rank last).
            padded = np.full(self._pad_to, -np.inf, dtype=scores.dtype)
            padded[: scores.shape[0]] = scores
            scores = padded
        self._scores = scores
        self.resolved_at = time.perf_counter()
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        if not self._event.is_set():
            self._error = error
            self.resolved_at = time.perf_counter()
            self._event.set()


class RequestQueue:
    """Pending request tuples plus the bookkeeping a flush policy needs.

    Pure state — the owning engine provides locking.  ``first_enqueued_at``
    is the ``time.monotonic()`` of the oldest pending request (the
    deadline clock's anchor); ``last_seq`` is the submission sequence
    number of the newest (drain targets).

    Every request tuple carries its ``time.monotonic()`` enqueue
    timestamp as the **last** element and its ticket as the
    **second-to-last**, whatever the task — items are
    ``(user, candidates, ticket, enqueued_at)``, participants
    ``(user, item, candidates, ticket, enqueued_at)`` — so age-based
    shedding and ticket resolution index uniformly.

    ``max_rows`` is the optional **admission (depth) budget**: total
    pending flat rows across both tasks beyond which :meth:`admit`
    rejects with :class:`repro.serving.errors.OverloadError` — the
    fail-fast half of overload control (the engine calls it before
    enqueueing, so a rejected submit creates no ticket).
    """

    __slots__ = ("items", "participants", "pending_rows", "first_enqueued_at",
                 "last_seq", "max_rows", "rejected")

    def __init__(self, max_rows: Optional[int] = None) -> None:
        if max_rows is not None and max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self.items: List[tuple] = []          # (user, candidates, ticket, t)
        self.participants: List[tuple] = []   # (user, item, candidates, ticket, t)
        self.pending_rows: Dict[str, int] = {"items": 0, "participants": 0}
        self.first_enqueued_at: Optional[float] = None
        self.last_seq = 0
        self.max_rows = max_rows
        #: Lifetime count of submits the depth budget refused.
        self.rejected = 0

    @property
    def has_pending(self) -> bool:
        return bool(self.items or self.participants)

    @property
    def max_task_rows(self) -> int:
        """Largest per-task pending row count (the size-budget trigger)."""
        return max(self.pending_rows.values())

    @property
    def total_rows(self) -> int:
        """Total pending flat rows across tasks (the depth-budget meter)."""
        return sum(self.pending_rows.values())

    def admit(self, rows: int) -> None:
        """Fail fast if ``rows`` more flat rows would burst the depth budget.

        Raises :class:`repro.serving.errors.OverloadError` (and counts
        the rejection) when ``max_rows`` is set and already met — excess
        load becomes an immediate typed error at submit instead of
        unbounded queueing.  A no-op without a budget.
        """
        if self.max_rows is not None and self.total_rows + rows > self.max_rows:
            self.rejected += 1
            raise OverloadError(
                f"admission rejected: {self.total_rows} pending rows + "
                f"{rows} requested exceed the depth budget of {self.max_rows}",
                pending_rows=self.total_rows,
                budget_rows=self.max_rows,
            )

    def _note(self, task: str, rows: int, seq: int, now: float) -> None:
        self.pending_rows[task] += rows
        self.last_seq = seq
        if self.first_enqueued_at is None:
            self.first_enqueued_at = now

    def add_items(self, user: int, candidates: np.ndarray, ticket: PendingScores,
                  seq: int) -> None:
        now = time.monotonic()
        self.items.append((int(user), candidates, ticket, now))
        self._note("items", candidates.size, seq, now)

    def add_participants(self, user: int, item: int, candidates: np.ndarray,
                         ticket: PendingScores, seq: int) -> None:
        now = time.monotonic()
        self.participants.append((int(user), int(item), candidates, ticket, now))
        self._note("participants", candidates.size, seq, now)

    def swap(self) -> Tuple[List[tuple], List[tuple], int]:
        """Drain the queue: return ``(items, participants, last_seq)``."""
        drained = (self.items, self.participants, self.last_seq)
        self.items, self.participants = [], []
        self.pending_rows = {"items": 0, "participants": 0}
        self.first_enqueued_at = None
        return drained


def split_expired(
    requests: List[tuple], now: float, max_age_ms: Optional[float]
) -> Tuple[List[tuple], List[tuple]]:
    """Partition drained requests into ``(fresh, expired)`` by queue age.

    ``expired`` holds every request whose enqueue timestamp (the tuple's
    last element) is older than ``max_age_ms`` — the load-shedding half
    of overload control: the worker fails these with
    :class:`repro.serving.errors.DeadlineExceeded` *before* planning, so
    a saturated engine spends its capacity on requests whose callers are
    still waiting.  With no budget everything is fresh.
    """
    if max_age_ms is None or not requests:
        return requests, []
    cutoff = now - max_age_ms / 1000.0
    fresh = [req for req in requests if req[-1] >= cutoff]
    if len(fresh) == len(requests):
        return requests, []
    return fresh, [req for req in requests if req[-1] < cutoff]


class ScoringCore:
    """Validation + flush execution over one model (no queue, no clock)."""

    def __init__(self, model, dtype: str = "float64") -> None:
        if dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32|float64, got {dtype!r}")
        self.model = model
        self.dtype = dtype
        self.stats = {
            "requests": 0,
            "flushes": 0,
            "failed_flushes": 0,
            "flat_rows": 0,
            "unique_pairs": 0,
            # Planned model calls this core's flushes made.  Counted
            # here, not read off the model: the model's lifetime counter
            # also moves with every other worker sharing it.
            "tape_calls": 0,
        }

    # ------------------------------------------------------------------
    # Submission-side validation
    # ------------------------------------------------------------------
    def _check_ids(self, kind: str, ids, bound_attr: str) -> np.ndarray:
        """Reject non-integer or out-of-range ids at submit time.

        A malformed id that only exploded inside a flush would fail
        every co-batched ticket; validating here keeps one bad request
        from poisoning its neighbours' flush.  Floats, bools and strings
        are refused rather than cast, which would score a truncated id.
        Returns the ids as ``int64``.
        """
        bound = getattr(self.model, bound_attr, None)
        ids = np.asarray(ids)
        if ids.dtype.kind not in "iu":
            raise ValueError(f"{kind} ids must be integers, got dtype {ids.dtype}")
        low = int(ids.min()) if ids.size else 0
        high = int(ids.max()) if ids.size else -1
        if low < 0 or (bound is not None and high >= bound):
            raise ValueError(
                f"{kind} ids must lie in [0, {bound}), got range [{low}, {high}]"
            )
        return ids.astype(np.int64, copy=False)

    def check_item_request(self, user: int, candidate_items: Sequence[int]) -> np.ndarray:
        """Validate a Task-A request; return the canonical candidate array."""
        candidates = np.asarray(candidate_items).ravel()
        if candidates.size == 0:
            raise ValueError("a scoring request needs at least one candidate")
        self._check_ids("user", [user], "n_users")
        return self._check_ids("item", candidates, "n_items")

    def check_participant_request(
        self, user: int, item: int, candidate_users: Sequence[int]
    ) -> np.ndarray:
        """Validate a Task-B request; return the canonical candidate array."""
        candidates = np.asarray(candidate_users).ravel()
        if candidates.size == 0:
            raise ValueError("a scoring request needs at least one candidate")
        self._check_ids("user", [user], "n_users")
        self._check_ids("item", [item], "n_items")
        return self._check_ids("participant", candidates, "n_users")

    # ------------------------------------------------------------------
    # Flush execution
    # ------------------------------------------------------------------
    def execute(self, items: List[tuple], participants: List[tuple]) -> None:
        """One flush over drained request lists.

        Every ticket in ``items``/``participants`` is resolved — with
        scores on success, with the captured exception if its task's
        model call raised.  One task failing never skips the other; the
        first exception is re-raised after both ran (the engine catches
        it and keeps serving).
        """
        if not items and not participants:
            return
        self.stats["flushes"] += 1
        # Unlike the evaluation protocol, the cached encoder pass is
        # deliberately kept across flushes (recomputing it per flush
        # would defeat serving): under float32 the model therefore holds
        # a reduced-precision cache for as long as it serves — hand the
        # model back to training/analysis via release().  The engine
        # switches the model to eval mode once at start, not per flush:
        # another worker may be mid-flush on the same model.
        error: Optional[BaseException] = None
        with no_grad(), dtype_scope(self.dtype):
            if items:
                error = self._execute_items(items)
            if participants:
                participant_error = self._execute_participants(participants)
                error = error or participant_error
        if error is not None:
            self.stats["failed_flushes"] += 1
            raise error

    def _execute_items(self, requests: List[tuple]) -> Optional[BaseException]:
        # The try spans plan construction, the model call AND the
        # scatter: *any* failure (including a model returning a
        # wrong-length score vector, which only scatter detects) must
        # fail the tickets rather than strand them.  _fail is a no-op
        # on already-resolved tickets, so a scatter that failed midway
        # leaves its resolved prefix intact.
        try:
            users = np.concatenate(
                [np.full(len(cands), user, dtype=np.int64) for user, cands, *_ in requests]
            )
            items = np.concatenate([cands for _, cands, *_ in requests])
            plan = ScoringPlan.from_item_pairs(users, items)
            self.stats["tape_calls"] += 1
            self._scatter(plan, self.model.score_item_plan(plan),
                          [(len(cands), ticket) for _, cands, ticket, *_ in requests])
        except Exception as exc:
            self._fail_tickets([req[-2] for req in requests], exc)
            return exc
        return None

    def _execute_participants(self, requests: List[tuple]) -> Optional[BaseException]:
        try:
            users = np.concatenate(
                [np.full(len(c), user, dtype=np.int64) for user, _, c, *_ in requests]
            )
            items = np.concatenate(
                [np.full(len(c), item, dtype=np.int64) for _, item, c, *_ in requests]
            )
            participants = np.concatenate([c for _, _, c, *_ in requests])
            plan = ScoringPlan.from_triples(users, items, participants)
            self.stats["tape_calls"] += 1
            self._scatter(plan, self.model.score_participant_plan(plan),
                          [(len(c), ticket) for _, _, c, ticket, *_ in requests])
        except Exception as exc:
            self._fail_tickets([req[-2] for req in requests], exc)
            return exc
        return None

    def _fail_tickets(self, tickets: List[PendingScores], exc: BaseException) -> None:
        for ticket in tickets:
            ticket._fail(exc)

    def _scatter(self, plan: ScoringPlan, unique_scores, sizes_and_tickets) -> None:
        self.stats["flat_rows"] += plan.n_flat
        self.stats["unique_pairs"] += plan.n_pairs
        flat = plan.scatter(unique_scores)
        offset = 0
        for size, ticket in sizes_and_tickets:
            # copy: a slice view would pin the whole flush's array alive
            # for as long as any one ticket is retained (and let callers
            # write through into their neighbours' scores).
            ticket._resolve(flat[offset : offset + size].copy())
            offset += size

    # ------------------------------------------------------------------
    # Model lifecycle helpers
    # ------------------------------------------------------------------
    def shard_stats(self) -> Dict[str, dict]:
        """Per-store gather/cache counters of the served model.

        Sharded models answer each flush's planned call with one gather
        per touched shard; the counters (``gathers``, ``shard_touches``,
        ``max_shard_gather_rows`` …, see
        :class:`repro.store.EmbeddingStore`) expose that behaviour —
        ``shard_touches / gathers`` is the effective fan-out per call
        and ``max_shard_gather_rows`` bounds the transient per-shard
        resident rows a flush ever added on top of the shard's owned
        block.  :class:`repro.store.LRUCachedStore`-wrapped tables add
        ``cache_hits``/``cache_misses``/``cache_evictions`` (inner-store
        counters nest under ``"inner"``).  Empty for models without
        store-backed tables.  Safe to call from any thread (counters
        are snapshotted under each store's lock).
        """
        out: Dict[str, dict] = {}
        if hasattr(self.model, "named_modules"):
            for name, store in iter_stores(self.model):
                out[name] = dict(store.stats_snapshot(), n_shards=store.n_shards)
        return out

    def prepare(self) -> None:
        """Build the model's serving cache if it has none yet.

        Every flush reads the cache; building it before any worker
        starts keeps two first flushes from racing on the lazy build.
        """
        if hasattr(self.model, "_bundle"):
            with no_grad(), dtype_scope(self.dtype):
                self.model._bundle()

    def refresh(self) -> None:
        """Re-run the encoder after a weight update (checkpoint swap)."""
        if hasattr(self.model, "invalidate_cache"):
            self.model.invalidate_cache()
        with no_grad(), dtype_scope(self.dtype):
            if hasattr(self.model, "refresh_cache"):
                self.model.refresh_cache()

    def release(self) -> None:
        """Drop the model's serving cache (after the engine stopped)."""
        if hasattr(self.model, "invalidate_cache"):
            self.model.invalidate_cache()
