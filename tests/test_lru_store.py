"""Tests for the hot-row LRU cache decorator (repro.store.lru).

The cache fronts a shard service (the layout it exists for); every test
that opens shard workers registers them with the ``closing`` fixture.
"""

import threading

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.nn.tensor import dtype_scope, no_grad
from repro.store import DenseStore, LRUCachedStore, cache_hot_rows, make_store


@pytest.fixture()
def table(rng):
    return rng.normal(size=(200, 6))


@pytest.fixture()
def cached(table, closing):
    return LRUCachedStore(closing(make_store(table, 4)), capacity=32)


class TestConstruction:
    def test_rejects_bad_capacity(self, table):
        with pytest.raises(ValueError):
            LRUCachedStore(DenseStore(table), 0)

    def test_refuses_stacked_caches(self, table):
        inner = LRUCachedStore(DenseStore(table), 4)
        with pytest.raises(ValueError, match="stack"):
            LRUCachedStore(inner, 4)

    def test_delegates_layout_and_parameters(self, table, cached):
        assert cached.n_shards == 4
        assert (cached.num_rows, cached.dim) == table.shape
        assert [n for n, _ in cached.named_parameters()] == [
            f"shard{k}" for k in range(4)
        ]
        np.testing.assert_array_equal(cached.logical_state(), table)


class TestGatherSemantics:
    def test_values_bit_identical_to_inner(self, table, cached, rng):
        with no_grad():
            for _ in range(5):
                ids = rng.integers(len(table), size=40)
                np.testing.assert_array_equal(cached.gather(ids).data, table[ids])

    def test_sorted_unique_fast_path(self, table, cached):
        with no_grad():
            ids = np.array([3, 17, 42, 199])
            np.testing.assert_array_equal(cached.gather(ids).data, table[ids])

    def test_grad_gathers_bypass_the_cache(self, table, cached):
        out = cached.gather(np.array([1, 2, 1]))
        assert out.requires_grad
        out.sum().backward()
        snap = cached.stats_snapshot()
        assert snap["cache_hits"] == 0 and snap["cache_misses"] == 0
        # The inner store ran the differentiable gather, so the gradient
        # reached the worker owning rows 1 and 2 (shard 0): row 1 twice,
        # row 2 once, 6 columns -> 6·2² + 6·1² = 30.
        assert snap["inner"]["gathers"] == 1
        sqsums = [p.remote_grad_sqsum() for _, p in cached.inner.named_parameters()]
        assert sqsums == [30.0, None, None, None]

    def test_lru_eviction_order(self, table):
        store = LRUCachedStore(DenseStore(table), capacity=2)
        with no_grad():
            store.gather([0])          # cache: {0}
            store.gather([1])          # cache: {0, 1}
            store.gather([0])          # hit -> 0 becomes most recent
            store.gather([2])          # evicts 1 (the LRU), not 0
            base_hits = store.stats["cache_hits"]
            store.gather([0])          # still resident -> hit
            assert store.stats["cache_hits"] == base_hits + 1
            store.gather([1])          # was evicted -> miss again
        snap = store.stats_snapshot()
        assert snap["cache_evictions"] >= 2
        assert snap["cache_rows"] <= 2

    def test_write_invalidation(self, table, cached):
        with no_grad():
            cached.gather([5])
            cached.assign_rows(np.array([5]), np.zeros((1, table.shape[1])))
            np.testing.assert_array_equal(
                cached.gather([5]).data, np.zeros((1, table.shape[1]))
            )
            cached.load_logical(table * 2.0)
            np.testing.assert_array_equal(cached.gather([5]).data, table[[5]] * 2.0)

    def test_optimizer_style_version_bump_invalidates(self, table):
        # Dense inner store: the test mutates parameter buffers in place,
        # and shard-service rows live in the workers.
        cached = LRUCachedStore(DenseStore(table.copy()), capacity=32)
        with no_grad():
            before = cached.gather([7]).data.copy()
            # An in-place weight update (what Adam.step does) bumps the
            # parameter version; the next gather must re-fetch.
            for _, param in cached.named_parameters():
                param.data[...] = param.data * 3.0
                param.bump_version()
            after = cached.gather([7]).data
        np.testing.assert_array_equal(after, before * 3.0)

    def test_dtype_scope_switch_clears_cache(self, table, cached):
        with no_grad():
            with dtype_scope("float32"):
                row32 = cached.gather([9]).data
                assert row32.dtype == np.float32
            row64 = cached.gather([9]).data
            assert row64.dtype == np.float64
            np.testing.assert_array_equal(row64, table[[9]])


class TestAccounting:
    def test_zipf_stream_hit_and_eviction_accounting(self, table, rng, closing):
        """Exact counter algebra under a skewed id stream."""
        store = LRUCachedStore(closing(make_store(table, 4)), capacity=24)
        expected_lookups = 0
        with no_grad():
            for _ in range(80):
                ids = (rng.zipf(1.5, size=48) - 1) % len(table)
                expected_lookups += len(np.unique(ids))
                np.testing.assert_array_equal(store.gather(ids).data, table[ids])
        snap = store.stats_snapshot()
        # Every unique id of every gather was either a hit or a miss...
        assert snap["cache_hits"] + snap["cache_misses"] == expected_lookups
        # ...every miss inserted one row, every eviction removed one...
        assert snap["cache_misses"] - snap["cache_evictions"] == snap["cache_rows"]
        # ...residency never exceeds capacity, and the Zipf head pays off.
        assert snap["cache_rows"] <= 24
        hit_rate = snap["cache_hits"] / expected_lookups
        assert hit_rate > 0.3, f"Zipf stream should hit the cache, got {hit_rate:.3f}"

    def test_concurrent_readers_keep_counters_consistent(self, table, closing):
        store = LRUCachedStore(closing(make_store(table, 2)), capacity=16)
        per_thread, n_threads = 40, 4
        lookups = [0] * n_threads
        errors = []

        def reader(tid):
            try:
                rng = np.random.default_rng(tid)
                with no_grad():
                    for _ in range(per_thread):
                        ids = rng.integers(len(table), size=12)
                        lookups[tid] += len(np.unique(ids))
                        np.testing.assert_array_equal(
                            store.gather(ids).data, table[ids]
                        )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        snap = store.stats_snapshot()
        assert snap["cache_hits"] + snap["cache_misses"] == sum(lookups)
        assert snap["gathers"] == per_thread * n_threads
        assert snap["cache_rows"] <= 16


    def test_racing_misses_count_row_bytes_once(self, table):
        """Two threads missing the same rows insert them once, bytes exact."""
        barrier = threading.Barrier(2)

        class BarrierStore(DenseStore):
            def gather(self, ids):
                barrier.wait(timeout=10.0)  # both threads have missed
                return super().gather(ids)

        store = LRUCachedStore(BarrierStore(table), capacity=8)
        errors = []

        def reader():
            try:
                with no_grad():
                    store.gather(np.array([1, 2]))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        alone = LRUCachedStore(DenseStore(table), capacity=8)
        with no_grad():
            alone.gather(np.array([1, 2]))
        assert store.stats_snapshot()["cache_misses"] == 4
        assert store.cached_rows == 2
        assert store.resident_nbytes() == alone.resident_nbytes() > 0


class TestModelIntegration:
    def test_cache_hot_rows_wraps_and_is_idempotent(self, tiny_dataset, closing):
        model = closing(GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8,
                             seed=2, n_shards=2))
        wrapped = cache_hot_rows(model, 16)
        assert set(wrapped) == {"initiator_table", "participant_table", "item_table"}
        assert cache_hot_rows(model, 16) == {}  # second pass wraps nothing
        assert all(
            isinstance(store, LRUCachedStore)
            for store in model.embedding_stores().values()
        )

    def test_cached_model_scores_match_uncached(self, tiny_dataset, closing, score_matrix):
        plain = closing(GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8,
                             seed=6, n_shards=2))
        cached = closing(GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8,
                              seed=6, n_shards=2))
        cache_hot_rows(cached, 8)  # tiny capacity -> constant eviction churn
        users = np.array([0, 1, 2, 0])
        cands = np.array([[0, 1, 2], [3, 4, 0], [1, 1, 5], [0, 1, 2]])
        np.testing.assert_array_equal(
            score_matrix(plain, users, cands),
            score_matrix(cached, users, cands),
        )

    def test_checkpoint_state_unchanged_by_wrapping(self, tiny_dataset, closing):
        model = closing(GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8,
                             seed=8, n_shards=2))
        state_before = model.state_dict()
        cache_hot_rows(model, 16)
        state_after = model.state_dict()
        assert set(state_before) == set(state_after)
        for key in state_before:
            np.testing.assert_array_equal(state_before[key], state_after[key])
