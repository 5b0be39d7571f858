"""Tests for request batching through the serving engine (repro.serving)."""

import threading
import time

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.serving import PendingScores, RequestQueue, ServingEngine, TicketTimeout
from repro.training.checkpoint import restore_model, save_checkpoint

from serving_oracle import (
    PARKED,
    assert_conserved,
    direct_scores,
    serve_together,
    submit,
)


@pytest.fixture()
def engine(tiny_mgbr):
    engine = ServingEngine(tiny_mgbr, **PARKED).start()
    yield engine
    engine.release()  # never leak a serving cache into other tests


class TestServingRoundTrip:
    def test_single_request_round_trip(self, tiny_mgbr, engine, score_matrix):
        candidates = [0, 3, 5, 3]
        ticket = engine.submit_items(2, candidates)
        engine.drain(timeout=10.0)
        scores = ticket.scores
        assert scores.shape == (4,)
        # Duplicate candidates score identically (planned dedup).
        assert scores[1] == scores[3]
        # Agrees with the model's own matrix path.
        engine.stop()
        reference = score_matrix(tiny_mgbr, np.array([2]), np.array([candidates]))[0]
        np.testing.assert_allclose(scores, reference)

    def test_coalesced_requests_resolve_every_ticket(self, engine):
        tickets = [engine.submit_items(u, [0, 1, 2]) for u in (0, 1, 0)]
        t_b = engine.submit_participants(0, 1, [4, 5])
        assert not tickets[0].ready
        engine.drain(timeout=10.0)
        assert all(t.ready for t in tickets) and t_b.ready
        # Identical requests (users 0) received identical score vectors.
        np.testing.assert_array_equal(tickets[0].scores, tickets[2].scores)
        stats = engine.stats()
        assert_conserved(stats, tickets + [t_b])
        assert stats["engine"]["flushes"] == 1
        assert stats["batcher"]["flushes"] == 1
        assert stats["batcher"]["requests"] == 4
        assert stats["batcher"]["unique_pairs"] < stats["batcher"]["flat_rows"]

    def test_max_pending_auto_flush(self, tiny_mgbr):
        # The deadline never fires: reaching the row budget flushes.
        engine = ServingEngine(tiny_mgbr, max_delay_ms=60_000.0, max_pending=4)
        with engine:
            first = engine.submit_items(0, [0, 1])
            second = engine.submit_items(1, [2, 3])  # reaches the cap
            assert first.wait(timeout=10.0).shape == (2,)
            assert second.wait(timeout=10.0).shape == (2,)
            stats = engine.stats()
        engine.release()
        assert_conserved(stats, [first, second])
        assert stats["engine"]["flush_causes"]["size"] == 1

    def test_empty_candidates_rejected(self, engine):
        with pytest.raises(ValueError, match="at least one candidate"):
            engine.submit_items(0, [])
        with pytest.raises(ValueError, match="at least one candidate"):
            engine.submit_participants(0, 1, [])
        assert engine.stats()["overload"]["accepted"] == 0

    def test_out_of_range_ids_rejected_at_submit(self, tiny_dataset, engine):
        n_users, n_items = tiny_dataset.n_users, tiny_dataset.n_items
        bad = [
            # Out of range.
            ("a", -1, [0, 1]),
            ("a", 0, [n_items]),
            ("b", 0, 0, [n_users]),
            ("b", 0, n_items, [1]),
            # Not integers: a cast would truncate and score another id.
            ("a", 2.7, [1, 2]),
            ("a", 2, [1.5, 2.9]),
            ("a", True, [3]),
            ("a", 1, ["3"]),
            ("a", 1, np.array([3.0])),
            ("b", 0, 1.0, [2]),
            ("b", 0, 1, [True]),
        ]
        # A bad id must bounce at submit time, not poison a later flush.
        for request in bad:
            with pytest.raises(ValueError, match="ids must"):
                submit(engine, request)
        # Well-formed neighbours still flush fine afterwards.
        ticket = engine.submit_items(0, np.array([0, 1], dtype=np.int32))
        engine.drain(timeout=10.0)
        assert ticket.scores.shape == (2,)
        assert_conserved(engine.stats(), [ticket])

    def test_float32_serving_and_release(self, tiny_mgbr):
        engine = ServingEngine(tiny_mgbr, dtype="float32", **PARKED).start()
        ticket = engine.submit_items(0, [0, 1, 2])
        engine.drain(timeout=10.0)
        assert ticket.scores.shape == (3,)
        # Serving keeps its reduced-precision cache across flushes...
        assert tiny_mgbr._cached is not None
        assert tiny_mgbr._cached.user.data.dtype == np.float32
        # ...and release() stops the engine and hands the model back clean.
        engine.release()
        assert not engine.running
        assert tiny_mgbr._cached is None

    def test_works_with_baselines(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        (ticket,), _ = serve_together(model, [("b", 0, 1, [2, 3, 2])])
        scores = ticket.scores
        assert scores[0] == scores[2]


class TestServingWithCheckpoints:
    def test_float32_checkpoint_feeds_serving(self, tiny_dataset, tmp_path):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=4)
        path = save_checkpoint(model, tmp_path / "serve", dtype="float32")

        clone = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=9)
        restore_model(clone, path, dtype="float32")
        request = ("a", 0, [0, 1, 2])
        (ticket,), _ = serve_together(clone, [request], dtype="float32")
        (reference,) = direct_scores(model, [request])
        np.testing.assert_allclose(ticket.scores, reference, rtol=1e-5, atol=1e-6)

    def test_refresh_picks_up_new_weights(self, tiny_dataset, tmp_path):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=4)
        other = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=5)
        path = save_checkpoint(other, tmp_path / "swap")

        with ServingEngine(model, **PARKED) as engine:
            first = engine.submit_items(0, [0, 1, 2])
            engine.drain(timeout=10.0)
            restore_model(model, path, strict=True)
            engine.refresh()
            second = engine.submit_items(0, [0, 1, 2])
            engine.drain(timeout=10.0)
        assert_conserved(engine.stats(), [first, second])
        assert not np.allclose(first.scores, second.scores)
        (reference,) = direct_scores(other, [("a", 0, [0, 1, 2])])
        np.testing.assert_array_equal(second.scores, reference)


class TestTicketAndQueue:
    def test_ticket_wait_blocks_on_its_own_event(self):
        ticket = PendingScores()
        timer = threading.Timer(0.05, ticket._resolve, [np.arange(3.0)])
        timer.start()
        np.testing.assert_array_equal(ticket.wait(timeout=10.0), np.arange(3.0))
        timer.join(timeout=10.0)
        assert not timer.is_alive()
        assert ticket.ready and not ticket.failed
        assert ticket.resolved_at is not None

    def test_unresolved_ticket_times_out_then_fails(self):
        ticket = PendingScores()
        with pytest.raises(TicketTimeout):
            ticket.wait(timeout=0.01)
        assert not ticket.ready  # a timeout leaves the ticket live
        ticket._fail(ValueError("boom"))
        assert ticket.ready and ticket.failed
        with pytest.raises(ValueError, match="boom"):
            _ = ticket.scores

    def test_request_tuples_end_with_ticket_and_enqueue_time(self):
        # Shedding and flush instrumentation index requests from the end.
        queue = RequestQueue()
        t_a, t_b = PendingScores(), PendingScores()
        before = time.monotonic()
        queue.add_items(3, np.array([1, 2]), t_a, 1)
        queue.add_participants(4, 5, np.array([6]), t_b, 2)
        assert queue.pending_rows == {"items": 2, "participants": 1}
        items, participants, last_seq = queue.swap()
        assert last_seq == 2 and not queue.has_pending
        (a,), (b,) = items, participants
        assert a[0] == 3 and b[:2] == (4, 5)
        assert a[-2] is t_a and b[-2] is t_b
        assert before <= a[-1] <= b[-1] <= time.monotonic()
