"""Direct planned-call oracle for served scores.

A serving flush compiles its co-batched requests into one
:class:`repro.plan.ScoringPlan` per task, makes one planned model call
under ``no_grad`` and scatters the scores back per request.
:func:`direct_scores` makes that same call without the engine, so a
test can hold served scores to it byte for byte.  Requests are tagged
tuples: ``("a", user, candidate_items)`` for Task A and
``("b", user, item, candidate_users)`` for Task B.

:func:`serve_together` serves requests on an engine whose deadline
never fires, so ``drain()`` puts all of them in one flush.
"""

from __future__ import annotations

import numpy as np

from repro.nn import no_grad
from repro.plan import ScoringPlan
from repro.serving import DeadlineExceeded, EngineStopped, ServingEngine

#: Engine kwargs that park the flush clock: only ``drain()``/``stop()`` flush.
PARKED = dict(max_delay_ms=60_000.0, max_pending=10**6)


def direct_scores(model, requests) -> list:
    """Scores one flush over ``requests`` must return, one array each.

    Per task, one direct planned call over the combined plan of that
    task's requests (concatenated in submit order), scattered back per
    request.
    """
    out = [None] * len(requests)
    with no_grad():
        for task in ("a", "b"):
            picked = [k for k, r in enumerate(requests) if r[0] == task]
            if not picked:
                continue
            cands = [np.asarray(requests[k][-1], dtype=np.int64) for k in picked]
            users = np.concatenate([np.full(len(c), requests[k][1], dtype=np.int64)
                                    for k, c in zip(picked, cands)])
            if task == "a":
                plan = ScoringPlan.from_item_pairs(users, np.concatenate(cands))
                flat = plan.scatter(model.score_item_plan(plan))
            else:
                items = np.concatenate([np.full(len(c), requests[k][2], dtype=np.int64)
                                        for k, c in zip(picked, cands)])
                plan = ScoringPlan.from_triples(users, items, np.concatenate(cands))
                flat = plan.scatter(model.score_participant_plan(plan))
            bounds = np.cumsum([len(c) for c in cands])[:-1]
            for k, scores in zip(picked, np.split(flat, bounds)):
                out[k] = scores
    return out


def submit(engine, request):
    """Submit one tagged request; return its ticket."""
    if request[0] == "a":
        return engine.submit_items(request[1], request[2])
    return engine.submit_participants(request[1], request[2], request[3])


def serve_together(model, requests, **engine_kwargs):
    """Serve ``requests`` in one drained flush; return ``(tickets, stats)``.

    The engine is stopped (its worker gone) before this returns, so the
    caller may touch the model again.
    """
    engine = ServingEngine(model, **{**PARKED, **engine_kwargs})
    with engine:
        tickets = [submit(engine, request) for request in requests]
        engine.drain(timeout=30.0)
    stats = engine.stats()
    assert_conserved(stats, tickets)
    return tickets, stats


def assert_conserved(stats, tickets) -> None:
    """``accepted == scored + shed + aborted`` over an engine's tickets.

    ``tickets`` are every ticket the engine issued; each must have
    resolved.  A ticket counts as scored when a flush resolved it (with
    scores or the flush's model error), as shed on
    :class:`DeadlineExceeded` and as aborted on :class:`EngineStopped`.
    """
    overload = stats["overload"]
    assert all(t.ready for t in tickets), "stranded tickets"
    shed = sum(isinstance(t.error, DeadlineExceeded) for t in tickets)
    aborted = sum(isinstance(t.error, EngineStopped) for t in tickets)
    scored = len(tickets) - shed - aborted
    assert (overload["shed"], overload["aborted"]) == (shed, aborted)
    assert overload["accepted"] == scored + shed + aborted == len(tickets)
