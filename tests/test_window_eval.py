"""Window-parallel planned evaluation (``repro.eval.windows``).

``EvalProtocol.run`` puts both tasks' unique-pair windows on one work
queue drained by the calling thread plus pool threads.  Under test:

* scores and metrics are bit-identical for widths 1, 2 and 4 across
  dtypes and store layouts, for MGBR's dedup plans and GBMF's identity
  plans alike;
* per-run counters are width-invariant: ``executor_stats()`` counts
  every window's call and ``CountingBackend`` tallies are exact;
* the lazily built model caches are safe under concurrent readers;
* a failing window surfaces from ``run()`` and leaves the runner usable.

The width is forced through the private ``_WIDTH`` module attribute.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.eval.protocol as protocol_module
from repro.baselines.base import EmbeddingBundle
from repro.baselines.gbmf import GBMF
from repro.core import MGBR, MGBRConfig
from repro.core.experts import ExpertBank
from repro.eval import EvalProtocol, windows
from repro.nn import (
    CountingBackend,
    backend_scope,
    get_backend,
    get_default_dtype,
    is_grad_enabled,
)
from repro.nn.layers import Linear
from repro.plan import ScoringPlan
from repro.store.lru import cache_hot_rows

WIDTHS = (1, 2, 4)


def _mgbr(dataset, seed=3, **layout):
    config = MGBRConfig.small(d=8, n_experts=2, mtl_layers=2, seed=seed, **layout)
    return MGBR(dataset.train, dataset.n_users, dataset.n_items, config=config)


def _protocol(dataset, **kwargs):
    # A small chunk size gives every task many windows to spread out.
    base = dict(n_negatives=9, cutoff=10, max_instances=60, chunk_size=64)
    base.update(kwargs)
    return EvalProtocol(dataset, **base)


def _n_windows(protocol, dedup=True):
    task_a, task_b = protocol._candidate_lists()
    plans = (
        ScoringPlan.for_items(task_a["users"], task_a["candidates"], dedup=dedup),
        ScoringPlan.for_participants(
            task_b["users"], task_b["items"], task_b["candidates"], dedup=dedup
        ),
    )
    return sum(-(-plan.n_pairs // protocol.chunk_size) for plan in plans)


def _run_capturing(protocol, model, monkeypatch):
    """``protocol.run(model)`` plus the two score matrices it ranked."""
    matrices = []
    rank = protocol_module.ranks_of_positives

    def capture(scores):
        matrices.append(np.array(scores))
        return rank(scores)

    monkeypatch.setattr(protocol_module, "ranks_of_positives", capture)
    try:
        return protocol.run(model).flat(), matrices
    finally:
        monkeypatch.setattr(protocol_module, "ranks_of_positives", rank)


def _assert_width_invariant(protocol, model, monkeypatch):
    results = {}
    for w in WIDTHS:
        monkeypatch.setattr(windows, "_WIDTH", w)
        results[w] = _run_capturing(protocol, model, monkeypatch)
    metrics_1, matrices_1 = results[1]
    assert len(matrices_1) == 2
    for w in WIDTHS[1:]:
        metrics_w, matrices_w = results[w]
        assert metrics_w == metrics_1
        for ref, got in zip(matrices_1, matrices_w):
            np.testing.assert_array_equal(got, ref)


class TestParity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_mgbr(self, tiny_dataset, monkeypatch, dtype):
        protocol = _protocol(tiny_dataset, dtype=dtype)
        model = _mgbr(tiny_dataset)
        _assert_width_invariant(protocol, model, monkeypatch)

    def test_gbmf(self, tiny_dataset, monkeypatch):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=4)
        _assert_width_invariant(_protocol(tiny_dataset), model, monkeypatch)

    def test_lru_int8_stores(self, tiny_dataset, monkeypatch):
        model = _mgbr(tiny_dataset, embedding_quantize="int8")
        cache_hot_rows(model, capacity=16)
        _assert_width_invariant(_protocol(tiny_dataset), model, monkeypatch)

    def test_process_sharded_store(self, tiny_dataset, monkeypatch, closing):
        model = closing(_mgbr(tiny_dataset, embedding_shards=2))
        _assert_width_invariant(_protocol(tiny_dataset), model, monkeypatch)

    def test_concurrent_runs_share_the_pool(self, tiny_dataset, monkeypatch):
        """Two runs at once oversubscribe the pool; both still finish
        and match their serial results."""
        models = [_mgbr(tiny_dataset), _mgbr(tiny_dataset, seed=5)]
        protocol = _protocol(tiny_dataset)
        monkeypatch.setattr(windows, "_WIDTH", 1)
        serial = [protocol.run(model).flat() for model in models]
        monkeypatch.setattr(windows, "_WIDTH", 2)
        got = [None, None]

        def run(k):
            got[k] = protocol.run(models[k]).flat()

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert got == serial


class TestCounters:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_planned_calls_per_run_equal_windows(self, tiny_dataset, monkeypatch, width):
        monkeypatch.setattr(windows, "_WIDTH", width)
        model = _mgbr(tiny_dataset)
        protocol = _protocol(tiny_dataset)
        protocol.run(model)  # warm: candidate lists, folds
        before = model.executor_stats()["tape_calls"]
        protocol.run(model)
        assert model.executor_stats()["tape_calls"] - before == _n_windows(protocol)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_baseline_planned_calls_per_run_equal_windows(
        self, tiny_dataset, monkeypatch, width
    ):
        """GBMF's identity plans run one planned call per window of
        ``chunk_size`` flat rows."""
        monkeypatch.setattr(windows, "_WIDTH", width)
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=4)
        protocol = _protocol(tiny_dataset)
        before = model.executor_stats()["tape_calls"]
        protocol.run(model)
        calls = model.executor_stats()["tape_calls"] - before
        assert calls == _n_windows(protocol, dedup=False)

    def test_counting_backend_exact_across_widths(self, tiny_dataset, monkeypatch):
        model = _mgbr(tiny_dataset)
        protocol = _protocol(tiny_dataset)
        # Build the fold caches outside the measured runs.
        monkeypatch.setattr(windows, "_WIDTH", 1)
        protocol.run(model)
        tallies = {}
        for width in (1, 2):
            monkeypatch.setattr(windows, "_WIDTH", width)
            counting = CountingBackend()
            with backend_scope(counting):
                protocol.run(model)
            tallies[width] = (dict(counting.counts), counting.copies)
        assert tallies[2] == tallies[1]
        assert tallies[1][0]["matmul"] > 0

    def test_counting_tallies_exact_under_contention(self):
        counting = CountingBackend()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches mid-update
        try:
            _race(8, lambda: [counting.add(1.0, 1.0) for _ in range(5000)])
        finally:
            sys.setswitchinterval(previous)
        assert counting.counts["add"] == 8 * 5000


class TestRunner:
    def test_width_one_runs_serially_on_the_caller(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(windows, "_WIDTH", 1)
        model = _mgbr(tiny_dataset)
        seen = set()
        score = model.score_item_plan

        def recording(plan):
            seen.add(threading.get_ident())
            return score(plan)

        def pool_threads():
            return {t for t in threading.enumerate() if t.name.startswith("repro-window")}

        monkeypatch.setattr(model, "score_item_plan", recording)
        before = pool_threads()
        _protocol(tiny_dataset).run(model)
        assert seen == {threading.get_ident()}
        assert pool_threads() == before

    def test_workers_inherit_caller_scopes(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(windows, "_WIDTH", 4)
        model = _mgbr(tiny_dataset)
        counting = CountingBackend()
        seen = []
        score = model.score_item_plan

        def recording(plan):
            seen.append((is_grad_enabled(), get_default_dtype(), get_backend()))
            return score(plan)

        monkeypatch.setattr(model, "score_item_plan", recording)
        with backend_scope(counting):
            _protocol(tiny_dataset, dtype="float32").run(model)
        assert len(seen) > 1
        assert all(entry == (False, np.dtype(np.float32), counting) for entry in seen)

    @pytest.mark.parametrize("width", (2, 4))
    def test_window_error_surfaces_and_next_run_succeeds(
        self, tiny_dataset, monkeypatch, width
    ):
        monkeypatch.setattr(windows, "_WIDTH", width)
        model = _mgbr(tiny_dataset)
        protocol = _protocol(tiny_dataset)
        expected = protocol.run(model).flat()
        calls = []
        lock = threading.Lock()
        score = model.score_participant_plan

        def flaky(plan):
            with lock:
                calls.append(None)
                failing = len(calls) == 3
            if failing:
                raise RuntimeError("window boom")
            return score(plan)

        monkeypatch.setattr(model, "score_participant_plan", flaky)
        with pytest.raises(RuntimeError, match="window boom"):
            protocol.run(model)
        monkeypatch.setattr(model, "score_participant_plan", score)
        assert protocol.run(model).flat() == expected

    def test_run_windows_propagates_first_error(self, monkeypatch):
        monkeypatch.setattr(windows, "_WIDTH", 2)
        done = []

        def ok():
            done.append(None)

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            windows.run_windows([ok, boom, ok, ok])
        windows.run_windows([ok, ok])
        assert len(done) >= 2


def _race(n_threads, fn):
    """Call ``fn`` from ``n_threads`` threads released together."""
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def body(k):
        barrier.wait()
        results[k] = fn()

    threads = [threading.Thread(target=body, args=(k,)) for k in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    return results


class _SlowCounting(CountingBackend):
    """Counting backend whose fold-build primitive is slow, so every
    racing thread reaches the miss path before the first build ends."""

    def ensure_contiguous(self, arr, dtype=None):
        time.sleep(0.02)
        return super().ensure_contiguous(arr, dtype)


class TestConcurrentCaches:
    N = 8

    def test_linear_fold_built_once(self):
        layer = Linear(6, 4, bias=False, seed=0)
        counting = _SlowCounting()
        blocks = ((0, 3), (3, 6))

        def read():
            with backend_scope(counting):
                return layer.folded_blocks_raw(blocks)

        folds = _race(self.N, read)
        assert counting.counts["ensure_contiguous"] == 1
        assert all(fold is folds[0] for fold in folds)

    def test_stacked_bank_fold_built_once(self):
        bank = ExpertBank(6, 3, 4, seed=0)
        counting = _SlowCounting()
        blocks = ((0, 3), (3, 6))

        def read():
            with backend_scope(counting):
                return bank.stacked_folds_raw(blocks)

        folds = _race(self.N, read)
        # One build folds each of the bank's experts once.
        assert counting.counts["ensure_contiguous"] == bank.n_experts
        assert all(fold is folds[0] for fold in folds)

    def test_mean_participant_built_once(self):
        builds = []

        class SlowTable:
            def mean(self, axis, keepdims):
                builds.append(None)
                time.sleep(0.02)
                return object()

        bundle = EmbeddingBundle(user=None, item=None, participant=SlowTable())
        means = _race(self.N, bundle.mean_participant)
        assert len(builds) == 1
        assert all(mean is means[0] for mean in means)

    def test_cache_hit_path_is_lock_free(self):
        """A warm read never touches the lock (it stays a dict lookup)."""
        import repro.nn.layers as layers_module
        layer = Linear(6, 4, bias=False, seed=0)
        blocks = ((0, 3), (3, 6))
        warm = layer.folded_blocks_raw(blocks)
        with layers_module.FOLD_LOCK:  # a held lock would block a miss
            assert layer.folded_blocks_raw(blocks) is warm
