"""Tests for the asynchronous serving engine (repro.serving.engine)."""

import json
import threading
import time

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.core import MGBR
from repro.nn import CountingBackend, backend_scope
from repro.serving import MultiWorkerEngine, ServingEngine
from repro.store import cache_hot_rows

from serving_oracle import assert_conserved, direct_scores, serve_together


class _BoomGBMF(GBMF):
    """Task-A planned scoring always fails (failure-isolation tests)."""

    def score_item_plan(self, plan):
        raise ValueError("kaboom: item scorer exploded")


class _WrongShapeGBMF(GBMF):
    """Returns a wrong-length score vector — only the scatter catches it."""

    def score_item_plan(self, plan):
        return np.zeros(plan.n_pairs + 1)


class _DoubleBoomGBMF(_BoomGBMF):
    """Both tasks' planned scoring fails in the same flush."""

    def score_participant_plan(self, plan):
        raise ValueError("kaboom: participant scorer exploded")


@pytest.fixture()
def gbmf(tiny_dataset):
    return GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)


class TestLifecycle:
    def test_submit_before_start_raises(self, gbmf):
        engine = ServingEngine(gbmf)
        with pytest.raises(RuntimeError, match="not running"):
            engine.submit_items(0, [0, 1])

    def test_invalid_options_rejected(self, gbmf):
        with pytest.raises(ValueError):
            ServingEngine(gbmf, dtype="float16")
        with pytest.raises(ValueError):
            ServingEngine(gbmf, max_pending=0)
        with pytest.raises(ValueError):
            ServingEngine(gbmf, max_delay_ms=0.0)

    def test_start_stop_and_restart(self, gbmf):
        engine = ServingEngine(gbmf, max_delay_ms=5.0)
        engine.start()
        with pytest.raises(RuntimeError, match="already running"):
            engine.start()
        assert engine.score_items(0, [0, 1], timeout=5.0).shape == (2,)
        engine.stop()
        assert not engine.running
        engine.stop()  # idempotent
        engine.start()  # restartable
        assert engine.score_items(1, [2], timeout=5.0).shape == (1,)
        engine.stop()

    def test_submit_after_stop_raises(self, gbmf):
        engine = ServingEngine(gbmf).start()
        engine.stop()
        with pytest.raises(RuntimeError, match="not running"):
            engine.submit_items(0, [0])

    def test_context_manager(self, gbmf):
        with ServingEngine(gbmf, max_delay_ms=5.0) as engine:
            assert engine.running
            assert engine.score_items(0, [0, 1, 2], timeout=5.0).shape == (3,)
        assert not engine.running

    def test_submit_validation_matches_batcher(self, tiny_dataset, gbmf):
        with ServingEngine(gbmf) as engine:
            with pytest.raises(ValueError):
                engine.submit_items(0, [])
            with pytest.raises(ValueError):
                engine.submit_items(-1, [0])
            with pytest.raises(ValueError):
                engine.submit_items(0, [tiny_dataset.n_items])
            with pytest.raises(ValueError):
                engine.submit_participants(0, 0, [tiny_dataset.n_users])


class TestFlushClock:
    def test_deadline_triggered_flush(self, gbmf):
        # Size budget unreachable: only the worker's deadline clock can
        # resolve the ticket.
        with ServingEngine(gbmf, max_delay_ms=250.0, max_pending=10**6) as engine:
            started = time.perf_counter()
            ticket = engine.submit_items(0, [0, 1, 2])
            assert not ticket.ready  # the clock has 250ms to go
            scores = ticket.wait(timeout=5.0)
            elapsed = time.perf_counter() - started
            assert scores.shape == (3,)
            assert elapsed >= 0.2  # held until the deadline, not flushed eagerly
            assert engine.stats()["engine"]["flush_causes"]["deadline"] >= 1

    def test_size_budget_flush_beats_deadline(self, gbmf):
        # Deadline unreachable in test time: only the row budget fires.
        with ServingEngine(gbmf, max_delay_ms=60_000.0, max_pending=8) as engine:
            ticket = engine.submit_items(0, list(range(8)))
            scores = ticket.wait(timeout=5.0)
            assert scores.shape == (8,)
            causes = engine.stats()["engine"]["flush_causes"]
            assert causes["size"] >= 1 and causes["deadline"] == 0

    def test_explicit_drain(self, gbmf):
        with ServingEngine(gbmf, max_delay_ms=60_000.0, max_pending=10**6) as engine:
            tickets = [engine.submit_items(u, [0, 1]) for u in range(3)]
            assert not any(t.ready for t in tickets)
            engine.drain(timeout=10.0)
            assert all(t.ready for t in tickets)
            assert engine.stats()["engine"]["flush_causes"]["drain"] >= 1

    def test_stop_with_pending_drains(self, gbmf):
        engine = ServingEngine(gbmf, max_delay_ms=60_000.0, max_pending=10**6)
        engine.start()
        tickets = [engine.submit_items(u, [0, 1, 2]) for u in (0, 1)]
        t_b = engine.submit_participants(0, 1, [2, 3])
        assert not any(t.ready for t in tickets)
        engine.stop()
        assert all(t.ready for t in tickets) and t_b.ready
        assert tickets[0].scores.shape == (3,)
        assert engine.stats()["engine"]["flush_causes"]["stop"] >= 1

    def test_wait_timeout_on_distant_deadline(self, gbmf):
        with ServingEngine(gbmf, max_delay_ms=60_000.0, max_pending=10**6) as engine:
            ticket = engine.submit_items(0, [0])
            with pytest.raises(TimeoutError):
                ticket.wait(timeout=0.05)
            engine.drain(timeout=10.0)
            assert ticket.scores.shape == (1,)


class TestScoreParity:
    def test_mgbr_bit_identical_to_direct_oracle_in_one_flush(self, tiny_mgbr):
        """Acceptance gate: engine == direct planned calls at float64, bitwise.

        The parked engine serves every request in one flush, so its plan
        per task is the oracle's combined plan over the same requests.
        """
        requests = [("a", u, [0, 3, 5, 3, u % 7]) for u in range(6)]
        requests += [("b", u, u % 5, [1, 2, 1, 8 + u]) for u in range(4)]
        tickets, stats = serve_together(tiny_mgbr, requests)
        assert stats["engine"]["flushes"] == 1
        for ticket, want in zip(tickets, direct_scores(tiny_mgbr, requests)):
            assert ticket.scores.dtype == np.float64
            np.testing.assert_array_equal(ticket.scores, want)
        tiny_mgbr.invalidate_cache()

    def test_threaded_submitters_match_serial_replay(self, tiny_dataset):
        """Racing submitters batch arbitrarily; scores must not care."""
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=3)
        n_threads, per_thread = 6, 12
        rng = np.random.default_rng(7)
        plans = {
            t: [
                (
                    int(rng.integers(tiny_dataset.n_users)),
                    rng.integers(tiny_dataset.n_items, size=10).tolist(),
                )
                for _ in range(per_thread)
            ]
            for t in range(n_threads)
        }
        results = {}
        errors = []

        def submitter(tid):
            try:
                out = []
                for user, cands in plans[tid]:
                    out.append(engine.submit_items(user, cands).wait(timeout=30.0))
                results[tid] = out
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        engine = ServingEngine(model, max_delay_ms=1.0)
        with engine:
            threads = [
                threading.Thread(target=submitter, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        stats = engine.stats()
        assert stats["batcher"]["requests"] == n_threads * per_thread

        # GBMF scores each pair on its own, so any co-batching must
        # match the request scored alone.
        for tid, requests in plans.items():
            for k, (user, cands) in enumerate(requests):
                (want,) = direct_scores(model, [("a", user, cands)])
                np.testing.assert_array_equal(results[tid][k], want)


class TestFailureIsolation:
    def test_flush_failure_resolves_tickets_with_error(self, tiny_dataset):
        model = _BoomGBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=4, seed=0)
        (bad, bad2, ok), stats = serve_together(
            model, [("a", 0, [0, 1]), ("a", 1, [2]), ("b", 0, 1, [2, 3])]
        )
        # Failed tickets re-raise the captured model error, not a
        # generic "never resolved" RuntimeError...
        for ticket in (bad, bad2):
            assert ticket.ready and ticket.failed
            with pytest.raises(ValueError, match="kaboom"):
                _ = ticket.scores
        # ...and the co-batched OTHER task still flushed fine.
        assert ok.scores.shape == (2,)
        assert stats["engine"]["flushes"] == 1
        assert stats["batcher"]["failed_flushes"] == 1

    def test_wrong_length_scores_fail_tickets_instead_of_stranding(
        self, tiny_dataset
    ):
        # The error fires inside the scatter (after the model call), a
        # path that must still resolve every ticket with the exception.
        model = _WrongShapeGBMF(tiny_dataset.n_users, tiny_dataset.n_items,
                                dim=4, seed=0)
        with ServingEngine(model, max_delay_ms=5.0) as engine:
            ticket = engine.submit_items(0, [0, 1])
            with pytest.raises(ValueError, match="unique scores"):
                ticket.wait(timeout=5.0)
            assert engine.running  # the worker shrugged it off

    def test_both_tasks_failing_counts_one_failed_flush(self, tiny_dataset):
        model = _DoubleBoomGBMF(tiny_dataset.n_users, tiny_dataset.n_items,
                                dim=4, seed=0)
        (t_a, t_b), stats = serve_together(
            model, [("a", 0, [0, 1]), ("b", 0, 1, [2])]
        )
        assert t_a.failed and t_b.failed
        assert stats["batcher"]["flushes"] == 1
        assert stats["batcher"]["failed_flushes"] == 1

    def test_engine_survives_flush_failure(self, tiny_dataset):
        model = _BoomGBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=4, seed=0)
        with ServingEngine(model, max_delay_ms=5.0) as engine:
            bad = engine.submit_items(0, [0, 1])
            ok = engine.submit_participants(0, 1, [2, 3])
            with pytest.raises(ValueError, match="kaboom"):
                bad.wait(timeout=5.0)
            assert ok.wait(timeout=5.0).shape == (2,)
            # The worker shrugged the error off and keeps serving.
            assert engine.running
            later = engine.submit_participants(1, 0, [3])
            assert later.wait(timeout=5.0).shape == (1,)
            assert engine.stats()["batcher"]["failed_flushes"] == 1


class TestStatsAndStores:
    def test_unified_stats_snapshot(self, tiny_dataset, closing):
        model = closing(GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8,
                             seed=1, n_shards=4))
        caches = cache_hot_rows(model, capacity=32)
        assert set(caches) == {"initiator_table", "participant_table", "item_table"}
        with ServingEngine(model, max_delay_ms=2.0) as engine:
            tickets = [engine.submit_items(u % 3, [0, 1, 2, u % 5]) for u in range(8)]
            engine.drain(timeout=10.0)
            stats = engine.stats()
        # Serializable end to end (the bench embeds it verbatim).
        json.dumps(stats)
        assert_conserved(stats, tickets)
        assert set(stats) == {"engine", "overload", "batcher", "stores", "cache",
                              "memory"}
        assert stats["overload"]["accepted"] == 8
        assert stats["overload"]["rejected"] == 0
        assert stats["overload"]["shed"] == 0
        assert stats["engine"]["flushes"] >= 1
        assert stats["batcher"]["requests"] == 8
        assert stats["batcher"]["flat_rows"] == 32
        for entry in stats["stores"].values():
            assert entry["n_shards"] == 4
            assert "inner" in entry  # LRU wrapper nests the inner counters
        memory = stats["memory"]
        assert set(memory["stores"]) == set(stats["stores"])
        assert memory["resident_bytes"] == sum(memory["stores"].values())
        assert memory["resident_bytes"] > 0  # sharded buffers + cache payloads
        cache = stats["cache"]
        assert cache["stores"] == 3
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_rate"] <= 1.0

    def test_refresh_picks_up_new_weights_while_running(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=4)
        other = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=5)
        with ServingEngine(model, max_delay_ms=2.0) as engine:
            before = engine.score_items(0, [0, 1, 2], timeout=5.0).copy()
            model.load_state_dict(other.state_dict())
            engine.refresh()
            after = engine.score_items(0, [0, 1, 2], timeout=5.0)
            assert not np.allclose(before, after)
        (reference,) = direct_scores(other, [("a", 0, [0, 1, 2])])
        np.testing.assert_array_equal(after, reference)


class TestBackendInheritance:
    """The flush worker runs under the backend of the thread calling start()."""

    def test_worker_inherits_scope_backend(self, tiny_dataset, small_config):
        counting = CountingBackend()
        model = MGBR(tiny_dataset.train, tiny_dataset.n_users,
                     tiny_dataset.n_items, config=small_config)
        engine = ServingEngine(model, max_delay_ms=1.0)
        assert engine.backend is None  # captured at start(), not before
        with backend_scope(counting):
            engine.start()
        try:
            engine.score_items(3, [0, 1, 2, 5], timeout=5.0)
            before = sum(counting.counts.values())
            assert before > 0
            engine.score_participants(3, 1, [4, 5, 6], timeout=5.0)
            stats = engine.stats()
        finally:
            engine.stop()
        assert stats["engine"]["backend"] == "counting"
        assert sum(counting.counts.values()) > before

    def test_multi_worker_start_shares_scope_backend(self, tiny_dataset):
        counting = CountingBackend()
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=3)
        engine = MultiWorkerEngine(model, 2, max_delay_ms=1.0)
        with backend_scope(counting):
            engine.start()
        try:
            for user in range(engine.n_workers):
                engine.score_items(user, [0, 1, 2], timeout=5.0)
            stats = engine.stats()
        finally:
            engine.stop()
        assert [snap["engine"]["backend"] for snap in stats["workers"]] == [
            "counting"
        ] * engine.n_workers
        assert sum(counting.counts.values()) > 0

@pytest.mark.slow
class TestLatencySweep:
    def test_open_loop_latency_respects_deadline_model(self):
        """The bench's steady-state acceptance gate, at test scale."""
        import importlib.util
        from pathlib import Path

        bench_path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "bench_serve_latency.py"
        )
        spec = importlib.util.spec_from_file_location("bench_serve_latency", bench_path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        # Short sweeps on shared CI runners need the wider scheduler
        # slack of the bench's own --smoke gate.
        slack = bench.SMOKE_SLACK_MS
        report = bench.run_benchmark(
            rates=(400.0,), deadlines=(5.0,), n_requests=200, slack_ms=slack
        )
        report["overload_cells"] = bench.run_overload_cells(workers=(2,), slack_ms=slack)
        bench.check_report(report)
        steady = [c for c in report["cells"] if c["steady_state"]]
        assert {c["store"] for c in steady} == {"dense", "sharded", "lru"}
        (overload,) = report["overload_cells"]
        # Overload really overloaded and the budgets dropped the excess.
        assert overload["rejected"] + overload["shed"] > 0
        assert (
            overload["scored"] + overload["shed"] + overload["rejected"]
            == overload["n_requests"]
        )
