"""``repro.serving`` — request batching behind the async serving engines.

Coalesces incoming (user, candidates) scoring requests into one
:class:`repro.plan.ScoringPlan` per task and scatters the scores back to
each caller.  Layers:

* :mod:`repro.serving.errors` — the typed failure hierarchy
  (``ServingError`` → ``OverloadError`` / ``DeadlineExceeded`` /
  ``EngineStopped`` / ``TicketTimeout`` / ``ShardUnavailable``);
* :mod:`repro.serving.core` — the pure queue/plan/scatter core
  (tickets, request queue with admission budget, flush execution with
  failure isolation);
* :class:`ServingEngine` — the serving shell: thread-safe submits,
  a worker thread owning the flush clock (deadline / size budget /
  drain), admission control, age-based load shedding, optional
  :class:`DegradationPolicy`, and a unified ``stats()`` snapshot;
* :class:`MultiWorkerEngine` — n worker engines over one model,
  partitioned by ``user % n_workers`` so each worker's queue and plan
  dedup stay local, with fleet-level ``stats()`` / ``drain()`` /
  ``refresh()``.
"""

from repro.serving.core import PendingScores, RequestQueue, ScoringCore
from repro.serving.degrade import DegradationPolicy
from repro.serving.engine import ServingEngine
from repro.serving.errors import (
    DeadlineExceeded,
    EngineStopped,
    OverloadError,
    ServingError,
    ShardUnavailable,
    TicketTimeout,
)
from repro.serving.multi import MultiWorkerEngine

__all__ = [
    "ServingEngine",
    "MultiWorkerEngine",
    "DegradationPolicy",
    "PendingScores",
    "RequestQueue",
    "ScoringCore",
    "ServingError",
    "OverloadError",
    "DeadlineExceeded",
    "EngineStopped",
    "TicketTimeout",
    "ShardUnavailable",
]
