"""Overload-safe serving: admission control, shedding, degradation, multi-worker.

The contract under test (docs/serving.md "Overload behaviour"): past
saturation the engine fails *predictably* — every submit either raises a
typed error synchronously or returns a ticket that resolves with scores
or a typed :class:`repro.serving.ServingError`; no ticket is ever
stranded, and the overload counters account for every request
(``accepted == scored + shed + aborted``, ``rejected`` never ticketed).
"""

import threading
import time

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.serving import (
    DeadlineExceeded,
    DegradationPolicy,
    EngineStopped,
    MultiWorkerEngine,
    OverloadError,
    ServingEngine,
    ServingError,
    TicketTimeout,
)

from serving_oracle import PARKED, assert_conserved, direct_scores, submit

N_USERS, N_ITEMS, DIM = 40, 25, 8


def make_model(seed: int = 0) -> GBMF:
    return GBMF(N_USERS, N_ITEMS, dim=DIM, seed=seed)


class TestErrorHierarchy:
    def test_typed_errors_subclass_serving_error(self):
        for exc in (OverloadError, DeadlineExceeded, EngineStopped, TicketTimeout):
            assert issubclass(exc, ServingError)
            assert issubclass(exc, RuntimeError)  # legacy catch-alls keep working
        assert issubclass(TicketTimeout, TimeoutError)

    def test_overload_error_carries_budget_diagnostics(self):
        exc = OverloadError("full", pending_rows=90, budget_rows=100)
        assert (exc.pending_rows, exc.budget_rows) == (90, 100)

    def test_deadline_exceeded_carries_age(self):
        exc = DeadlineExceeded("late", age_ms=12.5, budget_ms=10.0)
        assert (exc.age_ms, exc.budget_ms) == (12.5, 10.0)


class TestAdmissionControl:
    def test_depth_budget_rejects_at_submit(self):
        with ServingEngine(make_model(), max_queue_rows=10, **PARKED) as engine:
            ok = engine.submit_items(0, [0, 1, 2, 3, 4, 5])        # 6 rows
            with pytest.raises(OverloadError) as exc_info:
                engine.submit_items(1, list(range(5)))             # 6 + 5 > 10
            assert exc_info.value.budget_rows == 10
            assert exc_info.value.pending_rows == 6
            # A submit that still fits is admitted.
            ok2 = engine.submit_items(2, [0, 1, 2, 3])             # 6 + 4 <= 10
            engine.drain(timeout=10.0)
            assert ok.scores.shape == (6,)
            assert ok2.scores.shape == (4,)
            stats = engine.stats()["overload"]
            assert stats["accepted"] == 2
            assert stats["rejected"] == 1
            assert stats["max_queue_rows"] == 10

    def test_budget_frees_up_after_flush(self):
        with ServingEngine(make_model(), max_queue_rows=4, **PARKED) as engine:
            first = engine.submit_items(0, [0, 1, 2, 3])
            with pytest.raises(OverloadError):
                engine.submit_items(1, [0])
            engine.drain(timeout=10.0)
            # The queue drained: the budget admits again.
            ticket = engine.submit_items(1, [0, 1])
            engine.drain(timeout=10.0)
            assert ticket.scores.shape == (2,)
            stats = engine.stats()
        assert_conserved(stats, [first, ticket])
        assert stats["overload"]["rejected"] == 1

    def test_rejected_submit_creates_no_ticket_and_no_seq(self):
        with ServingEngine(make_model(), max_queue_rows=3, **PARKED) as engine:
            engine.submit_items(0, [0, 1, 2])
            with pytest.raises(OverloadError):
                engine.submit_items(1, [3])
            # drain() must not wait for the rejected submit.
            engine.drain(timeout=10.0)
            stats = engine.stats()
            assert stats["engine"]["submitted"] == 1
            assert stats["engine"]["served"] == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            ServingEngine(make_model(), max_queue_rows=0)
        with pytest.raises(ValueError):
            ServingEngine(make_model(), max_queue_age_ms=0.0)


class TestLoadShedding:
    def test_aged_requests_shed_with_deadline_exceeded(self):
        model = make_model()
        with ServingEngine(model, max_queue_age_ms=40.0, **PARKED) as engine:
            stale = [engine.submit_items(u, [0, 1]) for u in range(3)]
            time.sleep(0.08)                     # age past the 40ms budget
            fresh = engine.submit_items(3, [0, 1])
            engine.drain(timeout=10.0)
            for ticket in stale:
                assert ticket.ready and ticket.failed
                assert isinstance(ticket.error, DeadlineExceeded)
                assert ticket.error.age_ms > 40.0
                with pytest.raises(DeadlineExceeded):
                    _ = ticket.scores
            # The fresh co-drained request was planned and scored.
            assert fresh.scores.shape == (2,)
            stats = engine.stats()["overload"]
            assert stats["shed"] == 3
            assert stats["accepted"] == 4

    def test_shedding_counts_participants_too(self):
        with ServingEngine(make_model(), max_queue_age_ms=30.0, **PARKED) as engine:
            t_a = engine.submit_items(0, [0, 1])
            t_b = engine.submit_participants(0, 1, [2, 3])
            time.sleep(0.07)
            engine.drain(timeout=10.0)
            assert isinstance(t_a.error, DeadlineExceeded)
            assert isinstance(t_b.error, DeadlineExceeded)
            assert engine.stats()["overload"]["shed"] == 2

    def test_no_budget_never_sheds(self):
        with ServingEngine(make_model(), **PARKED) as engine:
            ticket = engine.submit_items(0, [0, 1])
            time.sleep(0.05)
            engine.drain(timeout=10.0)
            assert ticket.scores.shape == (2,)
            assert engine.stats()["overload"]["shed"] == 0


class TestTicketTimeout:
    def test_wait_timeout_raises_ticket_timeout_and_ticket_stays_live(self):
        with ServingEngine(make_model(), **PARKED) as engine:
            ticket = engine.submit_items(0, [0, 1])
            with pytest.raises(TicketTimeout):
                ticket.wait(timeout=0.05)
            assert not ticket.ready          # unresolved, not consumed
            engine.drain(timeout=10.0)
            assert ticket.scores.shape == (2,)  # later resolution still works

    def test_ticket_timeout_is_a_timeout_error(self):
        """Legacy ``except TimeoutError`` call-sites must keep working."""
        with ServingEngine(make_model(), **PARKED) as engine:
            ticket = engine.submit_items(0, [0])
            with pytest.raises(TimeoutError):
                ticket.wait(timeout=0.05)
            engine.drain(timeout=10.0)


class TestEngineStopped:
    def test_submit_after_stop_raises_engine_stopped(self):
        engine = ServingEngine(make_model()).start()
        engine.stop()
        with pytest.raises(EngineStopped):
            engine.submit_items(0, [0])
        with pytest.raises(EngineStopped):
            engine.submit_participants(0, 1, [2])

    def test_stop_without_drain_fails_pending_tickets(self):
        engine = ServingEngine(make_model(), **PARKED)
        engine.start()
        tickets = [engine.submit_items(u, [0, 1]) for u in range(3)]
        engine.stop(drain=False)
        for ticket in tickets:
            assert ticket.ready and ticket.failed
            assert isinstance(ticket.error, EngineStopped)
            with pytest.raises(EngineStopped):
                _ = ticket.scores
        assert engine.stats()["overload"]["aborted"] == 3

    def test_stop_with_drain_still_scores(self):
        engine = ServingEngine(make_model(), **PARKED)
        engine.start()
        ticket = engine.submit_items(0, [0, 1, 2])
        engine.stop()
        assert ticket.scores.shape == (3,)
        assert engine.stats()["overload"]["aborted"] == 0

    def test_no_waiter_left_hanging_after_abort(self):
        """A thread blocked in wait() resolves the moment stop() aborts."""
        engine = ServingEngine(make_model(), **PARKED)
        engine.start()
        ticket = engine.submit_items(0, [0, 1])
        seen = {}

        def waiter():
            try:
                ticket.wait(timeout=30.0)
            except ServingError as exc:
                seen["error"] = exc

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        engine.stop(drain=False)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert isinstance(seen["error"], EngineStopped)


class TestDegradation:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(watermark_rows=0, top_k=5)
        with pytest.raises(ValueError):
            DegradationPolicy(watermark_rows=8, trigger_flushes=0, top_k=5)
        with pytest.raises(ValueError):
            DegradationPolicy(watermark_rows=8, top_k=0)
        with pytest.raises(ValueError):
            DegradationPolicy(watermark_rows=8)  # nothing to degrade to

    def test_fallback_catalog_mismatch_rejected_at_construction(self):
        policy = DegradationPolicy(
            watermark_rows=8,
            fallback_model=GBMF(N_USERS + 1, N_ITEMS, dim=DIM, seed=1),
        )
        with pytest.raises(ValueError, match="n_users"):
            ServingEngine(make_model(), degradation=policy)

    def test_fallback_must_not_be_the_primary(self):
        model = make_model()
        with pytest.raises(ValueError, match="different model"):
            ServingEngine(
                model,
                degradation=DegradationPolicy(watermark_rows=8, fallback_model=model),
            )

    def test_topk_truncation_pads_tail_with_neg_inf(self):
        policy = DegradationPolicy(watermark_rows=1, trigger_flushes=1, top_k=2)
        model = make_model()
        with ServingEngine(model, degradation=policy, **PARKED) as engine:
            ticket = engine.submit_items(0, [0, 1, 2, 3, 4])
            engine.drain(timeout=10.0)
            scores = ticket.scores
            assert ticket.degraded
            assert scores.shape == (5,)           # aligned with the request
            assert np.all(np.isfinite(scores[:2]))
            assert np.all(np.isneginf(scores[2:]))  # unscored tail ranks last
            assert engine.stats()["overload"]["degraded"] == 1
        # The scored head matches full-fidelity scoring of those candidates.
        (reference,) = direct_scores(make_model(), [("a", 0, [0, 1])])
        np.testing.assert_array_equal(scores[:2], reference)

    def test_trigger_streak_and_recovery(self):
        policy = DegradationPolicy(watermark_rows=4, trigger_flushes=2, top_k=1)
        with ServingEngine(make_model(), degradation=policy, **PARKED) as engine:
            # Flush 1: deep (streak 1) — not degraded yet.
            first = engine.submit_items(0, [0, 1, 2, 3])
            engine.drain(timeout=10.0)
            assert not first.degraded
            # Flush 2: deep again (streak 2) — degradation engages.
            second = engine.submit_items(1, [0, 1, 2, 3])
            engine.drain(timeout=10.0)
            assert second.degraded
            assert engine.stats()["overload"]["degraded_active"]
            # Flush 3: shallow — instant recovery.
            third = engine.submit_items(2, [0])
            engine.drain(timeout=10.0)
            assert not third.degraded
            stats = engine.stats()["overload"]
            assert not stats["degraded_active"]
            assert stats["pressure_streak"] == 0
            assert stats["degraded"] == 1

    def test_fallback_model_routing(self):
        fallback = make_model(seed=9)
        policy = DegradationPolicy(
            watermark_rows=1, trigger_flushes=1, fallback_model=fallback
        )
        with ServingEngine(make_model(), degradation=policy, **PARKED) as engine:
            ticket = engine.submit_items(3, [0, 1, 2])
            engine.drain(timeout=10.0)
            scores = ticket.scores
            assert ticket.degraded
            stats = engine.stats()
            assert stats["overload"]["degraded"] == 1
            assert stats["fallback"]["flushes"] == 1
        # Degraded scores are the fallback's, bit-identical.
        (reference,) = direct_scores(make_model(seed=9), [("a", 3, [0, 1, 2])])
        np.testing.assert_array_equal(scores, reference)

    def test_undegraded_flushes_stay_on_primary(self):
        fallback = make_model(seed=9)
        policy = DegradationPolicy(
            watermark_rows=10**6, fallback_model=fallback
        )
        with ServingEngine(make_model(), degradation=policy, **PARKED) as engine:
            ticket = engine.submit_items(3, [0, 1, 2])
            engine.drain(timeout=10.0)
            scores = ticket.scores
            assert engine.stats()["fallback"]["flushes"] == 0
        (reference,) = direct_scores(make_model(), [("a", 3, [0, 1, 2])])
        np.testing.assert_array_equal(scores, reference)


class _CountingGBMF(GBMF):
    """GBMF that counts its encoder passes (cache builds)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.encoder_passes = 0

    def compute_embeddings(self):
        self.encoder_passes += 1
        return super().compute_embeddings()


def partition_scores(model, requests, n_workers) -> list:
    """The direct oracle per worker partition: each worker's one flush."""
    out = [None] * len(requests)
    for worker in range(n_workers):
        picked = [k for k, r in enumerate(requests) if r[1] % n_workers == worker]
        scores = direct_scores(model, [requests[k] for k in picked])
        for k, got in zip(picked, scores):
            out[k] = got
    return out


def mixed_requests(seed, n_users, n_items, n=24) -> list:
    rng = np.random.default_rng(seed)
    requests = []
    for k in range(n):
        user = int(rng.integers(n_users))
        if k % 3 == 2:
            requests.append(("b", user, int(rng.integers(n_items)),
                             rng.integers(n_users, size=4).tolist()))
        else:
            requests.append(("a", user, rng.integers(n_items, size=6).tolist()))
    return requests


class TestMultiWorkerEngine:
    def test_construction_validation(self):
        model = make_model()
        with pytest.raises(ValueError, match="n_workers"):
            MultiWorkerEngine(model, 0)
        with pytest.raises(ValueError, match="different model"):
            MultiWorkerEngine(
                model, 2,
                degradation=DegradationPolicy(watermark_rows=8, fallback_model=model),
            )
        with pytest.raises(ValueError, match="n_users"):
            MultiWorkerEngine(
                model, 2,
                degradation=DegradationPolicy(
                    watermark_rows=8,
                    fallback_model=GBMF(N_USERS + 1, N_ITEMS, dim=DIM, seed=0),
                ),
            )

    def test_user_partitioning_is_stable(self):
        engine = MultiWorkerEngine(make_model(), 3)
        assert engine.n_workers == 3
        for user in range(12):
            assert engine.worker_of(user) == user % 3

    def test_requests_land_on_their_users_worker(self):
        with MultiWorkerEngine(make_model(), 2, **PARKED) as engine:
            engine.submit_items(0, [0, 1])        # worker 0
            engine.submit_items(1, [0, 1, 2])     # worker 1
            engine.submit_participants(3, 0, [1])  # initiator 3 -> worker 1
            engine.drain(timeout=10.0)
            stats = engine.stats()
        per_worker = [w["overload"]["accepted"] for w in stats["workers"]]
        assert per_worker == [1, 2]
        assert stats["aggregate"]["accepted"] == 3

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["gbmf-dense", "gbmf-sharded", "mgbr"])
    def test_one_model_matches_direct_oracle(self, kind, n_workers, tiny_dataset,
                                             small_config, closing):
        """Acceptance gate: workers sharing one model serve the direct
        planned call over each worker's partition, byte for byte."""
        from repro.core import MGBR

        n_users, n_items = tiny_dataset.n_users, tiny_dataset.n_items
        if kind == "mgbr":
            model = MGBR(tiny_dataset.train, n_users, n_items, config=small_config)
        else:
            model = closing(GBMF(n_users, n_items, dim=DIM, seed=2,
                                 n_shards=4 if kind == "gbmf-sharded" else 0))
        requests = mixed_requests(13, n_users, n_items)
        with MultiWorkerEngine(model, n_workers, **PARKED) as engine:
            tickets = [submit(engine, request) for request in requests]
            engine.drain(timeout=30.0)
            stats = engine.stats()
        # Parked clocks: each worker served its partition in one flush.
        assert [w["engine"]["flushes"] for w in stats["workers"]] == [1] * n_workers
        for ticket, want in zip(tickets, partition_scores(model, requests, n_workers)):
            assert ticket.scores.dtype == np.float64
            np.testing.assert_array_equal(ticket.scores, want)

    def test_four_workers_bit_identical_to_single_engine(self):
        """Acceptance gate: 4-worker float64 scores == single-engine scores."""
        rng = np.random.default_rng(5)
        requests_a = [
            (int(rng.integers(N_USERS)), rng.integers(N_ITEMS, size=7).tolist())
            for _ in range(40)
        ]
        requests_b = [
            (
                int(rng.integers(N_USERS)),
                int(rng.integers(N_ITEMS)),
                rng.integers(N_USERS, size=5).tolist(),
            )
            for _ in range(20)
        ]
        multi = MultiWorkerEngine(make_model(), 4, max_delay_ms=1.0)
        with multi:
            multi_a = [multi.submit_items(u, c) for u, c in requests_a]
            multi_b = [multi.submit_participants(u, i, c) for u, i, c in requests_b]
            multi.drain(timeout=30.0)
        single = ServingEngine(make_model(), **PARKED)
        with single:
            single_a = [single.submit_items(u, c) for u, c in requests_a]
            single_b = [single.submit_participants(u, i, c) for u, i, c in requests_b]
            single.drain(timeout=30.0)
        for m, s in zip(multi_a, single_a):
            np.testing.assert_array_equal(m.scores, s.scores)
        for m, s in zip(multi_b, single_b):
            np.testing.assert_array_equal(m.scores, s.scores)

    def test_mgbr_bit_identical_per_partition(self, tiny_dataset, small_config):
        """MGBR parity holds per user partition (same batch composition).

        Unlike GBMF's per-pair reductions, MGBR's planned stack runs
        BLAS matmuls whose blocking varies with batch shape, so bitwise
        equality requires comparing against a single engine that
        flushes each worker's partition as its own batch.
        """
        from repro.core import MGBR

        def mk():
            return MGBR(
                tiny_dataset.train,
                tiny_dataset.n_users,
                tiny_dataset.n_items,
                config=small_config,
            )

        rng = np.random.default_rng(11)
        reqs = [
            (
                int(rng.integers(tiny_dataset.n_users)),
                rng.integers(tiny_dataset.n_items, size=5).tolist(),
            )
            for _ in range(12)
        ]
        multi = MultiWorkerEngine(mk(), 3, **PARKED)
        with multi:  # parked clock: each partition co-batches in one flush
            tickets = [multi.submit_items(u, c) for u, c in reqs]
            multi.drain(timeout=30.0)
        reference = {}
        with ServingEngine(mk(), **PARKED) as single:
            for worker in range(3):
                batch = [
                    (idx, single.submit_items(u, c))
                    for idx, (u, c) in enumerate(reqs)
                    if u % 3 == worker
                ]
                single.drain(timeout=30.0)
                for idx, ticket in batch:
                    reference[idx] = ticket.scores
        for idx, ticket in enumerate(tickets):
            np.testing.assert_array_equal(ticket.scores, reference[idx])

    def test_tape_calls_count_each_workers_own_calls(self):
        """Concurrent flushes on one model: each counts only its own calls."""
        barrier = threading.Barrier(4)

        class BarrierGBMF(GBMF):
            def score_item_plan(self, plan):
                barrier.wait(timeout=10.0)  # all four flushes in flight
                return super().score_item_plan(plan)

        model = BarrierGBMF(N_USERS, N_ITEMS, dim=DIM, seed=0)
        before = model.executor_stats()["tape_calls"]
        with MultiWorkerEngine(model, 4, max_delay_ms=1.0) as engine:
            tickets = [engine.submit_items(u, [0, 1, 2]) for u in range(4)]
            engine.drain(timeout=30.0)
            stats = engine.stats()
        assert all(t.scores.shape == (3,) for t in tickets)
        assert [w["batcher"]["tape_calls"] for w in stats["workers"]] == [1] * 4
        assert stats["aggregate"]["tape_calls"] == 4
        assert model.executor_stats()["tape_calls"] - before == 4

    def test_one_policy_with_fallback_serves_every_worker(self):
        policy = DegradationPolicy(watermark_rows=1, trigger_flushes=1,
                                   fallback_model=make_model(seed=9))
        with MultiWorkerEngine(make_model(), 2, degradation=policy,
                               **PARKED) as engine:
            tickets = [engine.submit_items(u, [0, 1, 2]) for u in (0, 1)]
            engine.drain(timeout=10.0)
            stats = engine.stats()
        assert all(t.degraded for t in tickets)
        assert [w["fallback"]["flushes"] for w in stats["workers"]] == [1, 1]
        assert stats["aggregate"]["degraded"] == 2
        reference = direct_scores(make_model(seed=9),
                                  [("a", u, [0, 1, 2]) for u in (0, 1)])
        for ticket, want in zip(tickets, reference):
            np.testing.assert_array_equal(ticket.scores, want)

    def test_overload_error_propagates_from_worker(self):
        with MultiWorkerEngine(make_model(), 2, max_queue_rows=4, **PARKED) as engine:
            engine.submit_items(0, [0, 1, 2, 3])      # fills worker 0's budget
            with pytest.raises(OverloadError):
                engine.submit_items(2, [0])           # same worker: rejected
            # Worker 1 has its own budget and still admits.
            ticket = engine.submit_items(1, [0, 1])
            engine.drain(timeout=10.0)
            assert ticket.scores.shape == (2,)
            assert engine.stats()["aggregate"]["rejected"] == 1

    def test_stop_without_drain_aborts_all_workers(self):
        engine = MultiWorkerEngine(make_model(), 2, **PARKED)
        engine.start()
        tickets = [engine.submit_items(u, [0, 1]) for u in range(4)]
        engine.stop(drain=False)
        assert all(isinstance(t.error, EngineStopped) for t in tickets)
        assert engine.stats()["aggregate"]["aborted"] == 4
        with pytest.raises(EngineStopped):
            engine.submit_items(0, [0])

    def test_refresh_swaps_weights_on_all_workers_without_dropping(self):
        model = _CountingGBMF(N_USERS, N_ITEMS, dim=DIM, seed=0)
        fresh = make_model(seed=7)
        with MultiWorkerEngine(model, 2, max_delay_ms=2.0) as engine:
            before = [
                engine.score_items(u, [0, 1, 2], timeout=10.0) for u in (0, 1)
            ]
            model.load_state_dict(fresh.state_dict())
            passes = model.encoder_passes
            engine.refresh()
            assert model.encoder_passes == passes + 1  # one rebuild, not one per worker
            after = [
                engine.score_items(u, [0, 1, 2], timeout=10.0) for u in (0, 1)
            ]
            stats = engine.stats()
        for b, a in zip(before, after):
            assert not np.allclose(b, a)
        reference = direct_scores(
            make_model(seed=7), [("a", u, [0, 1, 2]) for u in (0, 1)]
        )
        for a, want in zip(after, reference):
            np.testing.assert_array_equal(a, want)
        # No ticket was rejected, shed or aborted across the swap.
        agg = stats["aggregate"]
        assert agg["accepted"] == 4
        assert agg["rejected"] == agg["shed"] == agg["aborted"] == 0

    def test_refresh_under_live_traffic(self):
        """Acceptance gate: a refresh on 2 busy workers rebuilds once,
        strands nothing, and every later request scores the new weights."""
        model = _CountingGBMF(N_USERS, N_ITEMS, dim=DIM, seed=0)
        fresh = make_model(seed=7)
        requests = [("a", u % N_USERS, [u % N_ITEMS, 3, 5]) for u in range(400)]
        tickets, after_refresh = [], []
        refreshed = threading.Event()
        engine = MultiWorkerEngine(model, 2, max_delay_ms=1.0)

        def submitter():
            for request in requests:
                late = refreshed.is_set()  # read before submitting
                ticket = submit(engine, request)
                tickets.append((request, ticket))
                if late:
                    after_refresh.append((request, ticket))
                time.sleep(0.0005)

        with engine:
            thread = threading.Thread(target=submitter)
            thread.start()
            while len(tickets) < 100:
                time.sleep(0.001)
            model.load_state_dict(fresh.state_dict())
            passes = model.encoder_passes
            engine.refresh()
            assert model.encoder_passes == passes + 1
            refreshed.set()
            thread.join()
            engine.drain(timeout=30.0)
            stats = engine.stats()
        assert after_refresh, "the submitter finished before the refresh"
        for worker, snap in enumerate(stats["workers"]):
            assert_conserved(snap, [t for r, t in tickets if r[1] % 2 == worker])
        assert stats["aggregate"]["shed"] == stats["aggregate"]["aborted"] == 0
        for request, ticket in after_refresh:
            (want,) = direct_scores(fresh, [request])
            np.testing.assert_array_equal(ticket.scores, want)

    def test_refresh_parks_workers_between_flushes(self):
        """A rebuild waits for the flush in progress; queues keep admitting."""
        entered, release = threading.Event(), threading.Event()

        class HeldGBMF(_CountingGBMF):
            def score_item_plan(self, plan):
                if plan.users[0] == 0:  # worker 0's flush holds here
                    entered.set()
                    release.wait(timeout=10.0)
                return super().score_item_plan(plan)

        model = HeldGBMF(N_USERS, N_ITEMS, dim=DIM, seed=0)
        with MultiWorkerEngine(model, 2, max_delay_ms=1.0) as engine:
            held = engine.submit_items(0, [0, 1])
            assert entered.wait(timeout=10.0)
            passes = model.encoder_passes
            refresher = threading.Thread(target=engine.refresh)
            refresher.start()
            time.sleep(0.05)
            # Worker 0 is mid-flush: no rebuild yet, and the barrier holds.
            assert refresher.is_alive()
            assert model.encoder_passes == passes
            queued = engine.submit_items(1, [2, 3])  # still admitted
            release.set()
            refresher.join(timeout=10.0)
            assert not refresher.is_alive()
            assert model.encoder_passes == passes + 1
            assert held.wait(timeout=10.0).shape == (2,)
            assert queued.wait(timeout=10.0).shape == (2,)

    def test_refresh_with_workers_stopped_runs_inline(self):
        model = _CountingGBMF(N_USERS, N_ITEMS, dim=DIM, seed=0)
        engine = MultiWorkerEngine(model, 2)
        engine.start()
        engine.stop()
        passes = model.encoder_passes
        engine.refresh()
        assert model.encoder_passes == passes + 1

    def test_start_builds_cache_once(self):
        model = _CountingGBMF(N_USERS, N_ITEMS, dim=DIM, seed=0)
        with MultiWorkerEngine(model, 4, max_delay_ms=1.0) as engine:
            assert model.encoder_passes == 1
            for u in range(8):
                engine.score_items(u, [0, 1], timeout=10.0)
            assert model.encoder_passes == 1

    def test_stress_shared_model_with_refreshes(self):
        """More workers than cores on one LRU-fronted model, a short GIL
        switch interval and refreshes mid-stream: no update is lost."""
        import sys

        from repro.store import cache_hot_rows

        model = make_model()
        caches = cache_hot_rows(model, capacity=6)  # constant evictions
        before = model.executor_stats()["tape_calls"]
        requests = [("a", u % N_USERS, [(u * 7) % N_ITEMS, u % N_ITEMS, 3])
                    if u % 4 else ("b", u % N_USERS, u % N_ITEMS, [u % N_USERS, 1])
                    for u in range(600)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MultiWorkerEngine(model, 4, max_delay_ms=0.5) as engine:
                tickets = []
                for k, request in enumerate(requests):
                    tickets.append(submit(engine, request))
                    if k % 150 == 75:
                        engine.refresh()
                engine.drain(timeout=60.0)
                stats = engine.stats()
        finally:
            sys.setswitchinterval(interval)
        for worker, snap in enumerate(stats["workers"]):
            assert_conserved(snap, [t for r, t in zip(requests, tickets)
                                    if r[1] % 4 == worker])
        agg = stats["aggregate"]
        assert agg["tape_calls"] == model.executor_stats()["tape_calls"] - before
        assert agg["requests"] == len(requests)
        for cache in caches.values():
            row_nbytes = cache.dim * np.dtype(np.float64).itemsize
            assert cache.resident_nbytes() == cache.cached_rows * row_nbytes
        for request, ticket in zip(requests, tickets):
            (want,) = direct_scores(model, [request])
            np.testing.assert_array_equal(ticket.scores, want)

    @pytest.mark.parametrize("n_shards", [0, 4])
    def test_store_memory_reported_once_per_fleet(self, n_shards, closing):
        model = closing(GBMF(N_USERS, N_ITEMS, dim=DIM, seed=0, n_shards=n_shards))
        resident = {}
        for n_workers in (1, 4):
            with MultiWorkerEngine(model, n_workers, **PARKED) as engine:
                for u in range(8):
                    engine.submit_items(u, [0, 1, 2])
                engine.drain(timeout=10.0)
                stats = engine.stats()
            assert all("memory" not in w and "stores" not in w
                       for w in stats["workers"])
            resident[n_workers] = stats["memory"]["resident_bytes"]
        assert resident[1] == resident[4] > 0

    def test_stats_serializable_and_conserving(self):
        import json

        with MultiWorkerEngine(make_model(), 2, **PARKED) as engine:
            for u in range(6):
                engine.submit_items(u, [0, 1, 2])
            engine.drain(timeout=10.0)
            stats = engine.stats()
        json.dumps(stats)
        assert stats["n_workers"] == 2
        assert stats["aggregate"]["accepted"] == 6
        assert stats["aggregate"]["served"] == 6
        assert set(stats) == {"n_workers", "aggregate", "workers", "stores",
                              "cache", "memory"}


class TestOverloadConservation:
    def test_every_submit_resolves_or_rejects_under_pressure(self):
        """Concurrent submitters vs tight budgets: nothing is stranded."""
        model = make_model()
        engine = ServingEngine(
            model,
            max_delay_ms=1.0,
            max_pending=64,
            max_queue_rows=48,
            max_queue_age_ms=20.0,
        )
        tickets, rejected = [], [0]
        lock = threading.Lock()

        def submitter(seed):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                user = int(rng.integers(N_USERS))
                cands = rng.integers(N_ITEMS, size=6).tolist()
                try:
                    ticket = engine.submit_items(user, cands)
                except OverloadError:
                    with lock:
                        rejected[0] += 1
                else:
                    with lock:
                        tickets.append(ticket)

        with engine:
            threads = [threading.Thread(target=submitter, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            engine.drain(timeout=30.0)
            stats = engine.stats()["overload"]

        assert all(t.ready for t in tickets), "stranded tickets"
        scored = sum(1 for t in tickets if not t.failed)
        shed = sum(1 for t in tickets if isinstance(t.error, DeadlineExceeded))
        assert scored + shed == len(tickets)  # only typed outcomes
        assert stats["accepted"] == len(tickets) == 160 - rejected[0]
        assert stats["rejected"] == rejected[0]
        assert stats["shed"] == shed
        assert stats["aborted"] == 0
