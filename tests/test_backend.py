"""Array-backend registry, copy audit, and the CSR scatter cache.

The full op/adjoint conformance battery lives in ``test_nn_tensor.py``
(its autouse fixture re-runs every test under each registered backend);
this module covers what that sweep cannot: the registry contract, the
:class:`repro.nn.CountingBackend` copy accounting the audits rely on,
the zero-copy guarantees of the planned gather path, and the cached CSR
scatter operator behind :func:`repro.nn.tensor._scatter_rows_add`.
"""

import numpy as np
import pytest

from repro.nn import (
    CountingBackend,
    available_backends,
    backend_scope,
    clear_scatter_cache,
    get_backend,
    register_backend,
    scatter_cache_stats,
    take_rows,
    tensor,
)
from repro.nn.tensor import _scatter_rows_add
from repro.store import make_store


@pytest.fixture()
def counting():
    """A fresh instrumented backend activated for the test body."""
    backend = CountingBackend()
    with backend_scope(backend):
        yield backend


class TestRegistry:
    def test_reference_backends_registered(self):
        names = available_backends()
        assert "numpy" in names and "counting" in names

    def test_get_backend_default_is_thread_active(self):
        assert get_backend().name == "numpy"
        with backend_scope("counting"):
            assert get_backend().name == "counting"
        assert get_backend().name == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            get_backend("no-such-backend")

    def test_register_is_idempotent(self):
        before = available_backends()
        register_backend(get_backend("numpy"))
        assert available_backends() == before

    def test_scope_accepts_instance(self):
        backend = CountingBackend()
        with backend_scope(backend):
            assert get_backend() is backend

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with backend_scope("counting"):
                raise RuntimeError("boom")
        assert get_backend().name == "numpy"


class TestCountingSemantics:
    def test_asarray_copy_accounting(self, counting):
        a = np.ones(4, dtype=np.float64)
        counting.asarray(a, np.float64)          # same dtype: no copy
        assert counting.copies == 0
        counting.asarray(a, np.float32)          # cast: one copy
        assert counting.copies == 1
        counting.asarray([1.0, 2.0], np.float64)  # list coercion isn't a copy
        assert counting.copies == 1

    def test_ensure_contiguous_copies_only_views(self, counting):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        counting.ensure_contiguous(a)
        assert counting.copies == 0
        counting.ensure_contiguous(a[:, ::2])    # strided view: one copy
        assert counting.copies == 1

    def test_take_rejects_strided_out(self, counting):
        # A strided target would make NumPy gather into a full-size
        # temporary and copy it back; the backend refuses it.
        a = np.arange(12, dtype=np.float64).reshape(6, 2)
        index = np.array([5, 0, 0, 3])
        with pytest.raises(ValueError, match="C-contiguous"):
            counting.take(a, index, out=np.empty((4, 4))[:, :2])
        out = np.empty((4, 2))
        assert counting.take(a, index, out=out) is out
        np.testing.assert_array_equal(out, a[index])

    def test_reset_zeroes_counters(self, counting):
        counting.asarray(np.ones(2), np.float32)
        counting.matmul(np.ones((2, 2)), np.ones((2, 2)))
        counting.reset()
        assert counting.copies == 0 and counting.counts == {}


class TestPlannedGatherCopyAudit:
    """The planned float64 gather path must not coerce-copy anything."""

    def test_dense_gather_is_zero_copy(self, counting, rng):
        table = tensor(rng.normal(size=(20, 6)))
        counting.reset()
        out = take_rows(table, np.array([3, 1, 3, 7], dtype=np.int64))
        assert out.shape == (4, 6)
        assert counting.copies == 0

    @pytest.mark.parametrize("partition", ["range", "hash"])
    def test_sharded_gather_is_zero_copy(self, counting, rng, partition, closing):
        values = rng.normal(size=(23, 5))
        store = closing(make_store(values, n_shards=3, partition=partition))
        counting.reset()
        ids = np.array([0, 22, 7, 7, 13], dtype=np.int64)
        out = store.gather(ids)
        np.testing.assert_array_equal(out.data, values[ids])
        assert counting.copies == 0

    def test_scatter_matched_dtype_is_zero_copy(self, counting, rng):
        # Contiguous float64 gradient into a float64 accumulator: the
        # ensure_contiguous pre-cast must elide entirely.
        idx = rng.integers(0, 50, size=2048)
        grad = np.ascontiguousarray(rng.normal(size=(2048, 4)))
        counting.reset()
        _scatter_rows_add(idx, grad, 50, np.float64)
        assert counting.copies == 0

    def test_scatter_narrow_grad_copies_once(self, counting, rng):
        idx = rng.integers(0, 50, size=2048)
        grad = rng.normal(size=(2048, 4)).astype(np.float32)
        counting.reset()
        _scatter_rows_add(idx, grad, 50, np.float64)
        assert counting.copies == 1


class TestScatterCache:
    @pytest.fixture(autouse=True)
    def _clean_cache(self):
        clear_scatter_cache()
        yield
        clear_scatter_cache()

    def _idx(self, rng, n=1024, n_rows=40):
        return rng.integers(0, n_rows, size=n)

    def test_same_index_object_hits(self, rng):
        idx = self._idx(rng)
        grad = rng.normal(size=(idx.size, 3))
        first = _scatter_rows_add(idx, grad, 40, np.float64)
        stats = scatter_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = _scatter_rows_add(idx, grad, 40, np.float64)
        stats = scatter_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        np.testing.assert_array_equal(first, second)

    def test_cached_path_matches_add_at(self, rng):
        idx = self._idx(rng)
        for _ in range(2):  # second pass exercises the cached operator
            grad = rng.normal(size=(idx.size, 3))
            reference = np.zeros((40, 3))
            np.add.at(reference, idx, grad)
            np.testing.assert_array_equal(
                _scatter_rows_add(idx, grad, 40, np.float64), reference
            )

    def test_identity_keying_rejects_recycled_ids(self, rng):
        # A different array with the same content must NOT hit: the key
        # is object identity (validated with ``is``), because the cache
        # trusts the caller's array to be the plan's immutable id array.
        idx_a = self._idx(rng)
        idx_b = idx_a.copy()
        grad = rng.normal(size=(idx_a.size, 2))
        _scatter_rows_add(idx_a, grad, 40, np.float64)
        _scatter_rows_add(idx_b, grad, 40, np.float64)
        stats = scatter_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_lru_bound_and_eviction(self, rng):
        from repro.nn.tensor import _SCATTER_CACHE_CAPACITY

        keep = []
        for _ in range(_SCATTER_CACHE_CAPACITY + 8):
            idx = self._idx(rng)
            keep.append(idx)  # keep alive so ids stay distinct
            _scatter_rows_add(idx, np.ones((idx.size, 1)), 40, np.float64)
        stats = scatter_cache_stats()
        assert stats["size"] <= _SCATTER_CACHE_CAPACITY
        assert stats["evictions"] >= 8

    def test_small_scatters_bypass_cache(self, rng):
        idx = rng.integers(0, 8, size=64)  # below the sparse threshold
        _scatter_rows_add(idx, np.ones((64, 2)), 8, np.float64)
        assert scatter_cache_stats()["misses"] == 0
