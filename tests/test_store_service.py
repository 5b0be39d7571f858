"""Cross-process shard service (:class:`repro.store.ProcessShardedStore`).

Covers the PR's acceptance criteria end to end:

* **Bit parity at float64** — dense vs worker processes for GBMF and
  MGBR: eval metrics, planned epoch losses and post-Adam weights are
  identical, because gathers move exact rows and every worker-side
  update mirrors the dense per-row math op for op.
* **Zero-copy adoption** — the planned ``no_grad`` gather hands the
  scoring program a view of the shared result arena (CountingBackend
  audit: no redundant copy between the shm buffer and the scorer).
* **Fault isolation** — a dead worker resolves only the affected
  task's tickets with :class:`repro.serving.errors.ShardUnavailable`;
  co-batched tasks keep scoring (the PR-6 contract).
* **Streaming checkpoints** — ``shard_files=True`` + ``assign_rows``
  reshard N→M without materialising the logical table.
* **Lifecycle hygiene** — workers and shared-memory segments are
  reaped by ``close()``/GC; nothing leaks across tests.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.core import MGBR, MGBRConfig
from repro.eval.protocol import EvalProtocol
from repro.nn import CountingBackend, backend_scope
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import no_grad
from repro.plan import ScoringPlan
from repro.serving import ServingEngine, ShardUnavailable
from repro.store import (
    DenseStore,
    ProcessShardedStore,
    iter_stores,
    make_store,
)
from repro.training import TrainConfig, Trainer
from repro.training.checkpoint import load_checkpoint, restore_model, save_checkpoint

from serving_oracle import direct_scores, serve_together


def _table(rows=67, dim=6, seed=5) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(rows, dim))


def _gbmf(tiny_dataset, n_shards=0):
    return GBMF(
        tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=4,
        n_shards=n_shards,
    )


def _mgbr(tiny_dataset, n_shards=0):
    config = MGBRConfig.small(
        d=8, n_experts=2, mtl_layers=2, aux_negatives=4, train_negatives=3, seed=3,
        embedding_shards=n_shards,
    )
    return MGBR(
        tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items, config=config
    )


def _close_stores(model) -> None:
    for _, store in iter_stores(model):
        if isinstance(store, ProcessShardedStore):
            store.close()


# ---------------------------------------------------------------------------
# Store-level parity and contract
# ---------------------------------------------------------------------------
class TestProcessStoreContract:
    # Shards own contiguous row blocks; the parameter names that layout
    # in the test ids.
    @pytest.mark.parametrize("partition", ["range"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_gather_bitwise_equal_dense(self, partition, n_shards):
        values = _table()
        dense = DenseStore(values.copy())
        with ProcessShardedStore(values.copy(), n_shards) as store:
            for ids in (
                np.array([5, 17, 60, 66, 2, 2, 44], dtype=np.int64),  # unsorted+dups
                np.sort(np.random.default_rng(0).permutation(67)[:32]),  # planned
                np.array([], dtype=np.int64),
            ):
                with no_grad():
                    np.testing.assert_array_equal(
                        store.gather(ids).data, dense.gather(ids).data
                    )

    def test_logical_apis_bitwise_equal(self):
        values = _table()
        with ProcessShardedStore(values.copy(), 3, io_chunk=16) as store:
            np.testing.assert_array_equal(store.logical_state(), values)
            with no_grad():
                np.testing.assert_array_equal(store.all().data, values)
            for k in range(3):
                ids, rows = store.shard_rows(k)
                np.testing.assert_array_equal(rows, values[ids])

    def test_plan_cached_gather_and_mismatch_error(self):
        values = _table()
        with ProcessShardedStore(values.copy(), 2) as store:
            users = np.array([0, 3, 3, 9], dtype=np.int64)
            items = np.array([1, 2, 3, 4], dtype=np.int64)
            plan = ScoringPlan.from_item_pairs(users, items)
            with no_grad():
                out = store.gather(plan.unique_users, plan=plan, role="users")
            np.testing.assert_array_equal(out.data, values[plan.unique_users])
            with pytest.raises(ValueError, match="do not match the plan"):
                store.gather(np.array([0], dtype=np.int64), plan=plan, role="users")

    def test_make_store_service_layouts(self):
        values = _table()
        for n_shards in (1, 3):
            with make_store(values, n_shards) as store:
                assert isinstance(store, ProcessShardedStore)
                assert store.n_shards == n_shards
        assert isinstance(make_store(values, 0), DenseStore)

    def test_training_step_parity_adam_clip(self):
        """3 gather→backward→clip→Adam rounds: weights stay bit-equal."""
        values = _table()
        ids = np.array([5, 17, 60, 66, 2, 2, 44], dtype=np.int64)

        def run(store):
            params = [p for _, p in store.named_parameters()]
            opt = Adam(params, lr=1e-2)
            norms = []
            for _ in range(3):
                opt.zero_grad()
                out = store.gather(ids)
                (out * out).sum().backward()
                norms.append(clip_grad_norm(params, 1.0))
                opt.step()
            return norms, store.logical_state()

        dense_norms, dense_state = run(DenseStore(values.copy()))
        with ProcessShardedStore(values.copy(), 3) as store:
            svc_norms, svc_state = run(store)
        assert dense_norms == svc_norms
        np.testing.assert_array_equal(dense_state, svc_state)

    def test_rebind_dtype(self):
        """Worker buffers shrink to float32; reads round-trip the cast
        rows exactly (gather output dtype follows the global default,
        same as the in-process layouts)."""
        values = _table()
        with ProcessShardedStore(values.copy(), 2) as store:
            store.rebind_dtype(np.float32)
            expected = values.astype(np.float32)
            assert store.logical_state().dtype == np.float32
            np.testing.assert_array_equal(store.logical_state(), expected)
            with no_grad():
                out = store.gather(np.array([3], dtype=np.int64))
            np.testing.assert_array_equal(
                out.data, expected[[3]].astype(np.float64)
            )


# ---------------------------------------------------------------------------
# Stats aggregation
# ---------------------------------------------------------------------------
class TestStats:
    def test_worker_counters_aggregate(self):
        values = _table()
        with ProcessShardedStore(values.copy(), 3) as store:
            with no_grad():
                for _ in range(4):
                    store.gather(np.sort(np.random.default_rng(1).permutation(67)[:20]))
            snap = store.stats_snapshot()
            assert snap["layout"] == "process"
            assert snap["rows_gathered"] == 4 * 20
            # Every gathered row was served by exactly one worker.
            assert snap["worker_rows_served"] == snap["rows_gathered"]
            assert len(snap["workers"]) == 3
            assert sum(w["gathers"] for w in snap["workers"]) >= 3
            for w in snap["workers"]:
                assert w["alive"] and w["errors"] == 0
                assert w["peak_resident_rows"] == (
                    w["resident_rows"] + w["max_rpc_rows"]
                )
            json.dumps(snap)  # the serving stats endpoints re-serialize this

    def test_shard_stats_through_batcher(self, tiny_dataset):
        """One flush over the process layout equals the direct planned
        calls bitwise, and its shard counters reach the engine."""
        model = _gbmf(tiny_dataset, n_shards=2)
        requests = [("a", 1, [0, 1, 2, 3]), ("b", 1, 2, [0, 5, 5, 9]),
                    ("a", 4, [3, 2, 1]), ("b", 4, 0, [1, 2])]
        try:
            served, engine_stats = serve_together(model, requests)
            assert engine_stats["engine"]["flushes"] == 1
            stats = engine_stats["stores"]
            assert set(stats) == {
                "initiator_table", "participant_table", "item_table",
            }
            for entry in stats.values():
                assert entry["n_shards"] == 2
                assert entry["layout"] == "process"
            assert stats["item_table"]["worker_rows_served"] >= 4
            json.dumps(stats)
            for ticket, want in zip(served, direct_scores(model, requests)):
                np.testing.assert_array_equal(ticket.scores, want)
        finally:
            _close_stores(model)


# ---------------------------------------------------------------------------
# Model-level layout parity (the acceptance criterion)
# ---------------------------------------------------------------------------
class TestModelParity:
    def test_gbmf_eval_metrics_bit_identical(self, tiny_dataset):
        protocol = EvalProtocol(tiny_dataset, n_negatives=5, cutoff=5, max_instances=40)
        dense = protocol.run(_gbmf(tiny_dataset)).flat()
        service_model = _gbmf(tiny_dataset, 3)
        try:
            service = protocol.run(service_model).flat()
        finally:
            _close_stores(service_model)
        assert dense == service

    def test_mgbr_eval_metrics_bit_identical(self, tiny_dataset):
        protocol = EvalProtocol(tiny_dataset, n_negatives=5, cutoff=5, max_instances=30)
        dense = protocol.run(_mgbr(tiny_dataset)).flat()
        service_model = _mgbr(tiny_dataset, 2)
        try:
            service = protocol.run(service_model).flat()
        finally:
            _close_stores(service_model)
        assert dense == service

    @pytest.mark.parametrize("build", [_gbmf, _mgbr], ids=["gbmf", "mgbr"])
    def test_planned_training_bit_identical(self, tiny_dataset, build):
        """Two planned epochs: losses AND post-Adam weights match dense
        bit for bit."""

        def run(n_shards):
            model = build(tiny_dataset, n_shards)
            try:
                trainer = Trainer(
                    model, tiny_dataset,
                    TrainConfig(
                        epochs=2, batch_size=16, train_negatives=3, aux_negatives=4,
                        learning_rate=5e-3, seed=0,
                    ),
                )
                losses = [trainer.train_epoch().losses for _ in range(2)]
                return losses, model.state_dict()
            finally:
                _close_stores(model)

        dense_losses, dense_state = run(0)
        svc_losses, svc_state = run(3)
        assert dense_losses == svc_losses
        assert set(dense_state) == set(svc_state)
        for key in dense_state:
            np.testing.assert_array_equal(dense_state[key], svc_state[key])


# ---------------------------------------------------------------------------
# Zero-copy adoption of the shared gather buffer
# ---------------------------------------------------------------------------
class TestCopyAudit:
    def test_planned_gather_adopts_arena_view(self):
        """``no_grad`` gathers return a view of the shm result arena —
        no copy sits between the workers' writes and the planned
        scorer's reads."""
        values = _table()
        with ProcessShardedStore(values.copy(), 3) as store:
            ids = np.sort(np.random.default_rng(2).permutation(67)[:24])
            counting = CountingBackend()
            with backend_scope(counting), no_grad():
                out = store.gather(ids)
            assert counting.copies == 0
            assert np.shares_memory(out.data, store._res_np)
            np.testing.assert_array_equal(out.data, values[ids])

    def test_planned_hot_path_copy_free_through_model(self, tiny_dataset):
        """GBMF's planned scoring over service tables: the only
        copies are the ones the dense layout also makes (none on the
        float64 gather path)."""
        model = _gbmf(tiny_dataset, n_shards=2)
        try:
            users = np.array([0, 3, 5], dtype=np.int64)
            items = np.array([1, 2, 4], dtype=np.int64)
            plan = ScoringPlan.from_item_pairs(users, items)
            counting = CountingBackend()
            with backend_scope(counting), no_grad():
                store = model.initiator_table.store
                before = counting.copies
                store.gather(plan.unique_users, plan=plan, role="users")
                assert counting.copies == before
        finally:
            _close_stores(model)

    def test_recycling_keeps_recent_results_valid(self):
        """The arena never recycles rows under a live recent gather —
        multi-role planned calls (e_u, e_i, e_p) read concurrently."""
        values = _table()
        with ProcessShardedStore(values.copy(), 2) as store:
            with no_grad():
                outs, refs = [], []
                for start in range(0, 60, 10):
                    ids = np.arange(start, start + 10, dtype=np.int64)
                    outs.append(store.gather(ids).data)
                    refs.append(values[ids])
                for out, ref in zip(outs, refs):
                    np.testing.assert_array_equal(out, ref)


    def test_live_result_survives_arena_wraps(self):
        """A returned view stays valid while it is alive, however many
        gathers other readers (concurrent eval windows) issue meanwhile."""
        values = _table(rows=1500, dim=4)

        def churn(store, n):
            for k in range(n):  # 400-row gathers that keep wrapping the arena
                other = np.arange(500 + 30 * k, 900 + 30 * k, dtype=np.int64)
                np.testing.assert_array_equal(store.gather(other).data, values[other])

        with ProcessShardedStore(values.copy(), 2) as store:
            with no_grad():
                churn(store, 20)  # grow the arena to its steady size first
                ids = np.arange(0, 400, dtype=np.int64)
                held = store.gather(ids).data
                churn(store, 20)
                np.testing.assert_array_equal(held, values[ids])


# ---------------------------------------------------------------------------
# Serving fault isolation
# ---------------------------------------------------------------------------
class TestFaultIsolation:
    def test_store_raises_shard_unavailable(self):
        values = _table()
        with ProcessShardedStore(values.copy(), 2, rpc_timeout=5.0) as store:
            store._procs[0].kill()
            store._procs[0].join()
            with pytest.raises(ShardUnavailable) as info:
                with no_grad():
                    store.gather(np.array([0, 40], dtype=np.int64))
            assert info.value.shard == 0
            assert info.value.elapsed_ms >= 0.0
            # Rows owned by the surviving worker keep serving.
            with no_grad():
                out = store.gather(np.array([40, 50], dtype=np.int64))
            np.testing.assert_array_equal(out.data, values[[40, 50]])

    def test_engine_contains_dead_worker_to_one_task(self, tiny_dataset):
        """Task A (items) hits the dead item-table worker and resolves
        with ShardUnavailable; co-batched task B (participants) never
        touches that table and still scores."""
        model = _gbmf(tiny_dataset, n_shards=2)
        try:
            item_store = model.item_table.store
            item_store._procs[0].kill()
            item_store._procs[0].join()
            engine = ServingEngine(
                model, max_delay_ms=60_000.0, max_pending=10**6
            ).start()
            try:
                t_a = engine.submit_items(0, [0, 1, 2])
                t_b = engine.submit_participants(0, 1, [2, 3])
                engine.drain()
                with pytest.raises(ShardUnavailable):
                    t_a.wait(timeout=10.0)
                assert t_b.wait(timeout=10.0).shape == (2,)
                # The engine is still serving: new task-B traffic flows.
                t_b2 = engine.submit_participants(2, 1, [4, 5])
                engine.drain()
                assert t_b2.wait(timeout=10.0).shape == (2,)
            finally:
                engine.stop()
        finally:
            _close_stores(model)


# ---------------------------------------------------------------------------
# Streaming checkpoints and N→M reshard
# ---------------------------------------------------------------------------
class TestServiceCheckpoints:
    def _scores(self, model, users, items):
        with no_grad():
            model.refresh_cache()
            out = np.asarray(model.score_items(users, items).data).copy()
        model.invalidate_cache()
        return out

    @pytest.mark.parametrize("dst_workers", [1, 2, 5])
    def test_per_shard_files_reshard(self, tiny_dataset, tmp_path, dst_workers):
        """Save from 3 workers, restore into M — scores bit-identical,
        logical table never materialised by the save."""
        src = _gbmf(tiny_dataset, n_shards=3)
        dst = _gbmf(tiny_dataset, n_shards=dst_workers)
        try:
            path = save_checkpoint(src, tmp_path / "svc.npz", shard_files=True)
            payload = load_checkpoint(path, assemble_shards=False)
            assert "initiator_table.weight" not in payload["state"]
            assert payload["meta"]["shards"]["item_table.weight"]["n_shards"] == 3
            dst.item_table.store.load_logical(
                dst.item_table.store.logical_state() + 1.0
            )
            restore_model(dst, path)
            users = np.arange(12)
            items = np.arange(12) % tiny_dataset.n_items
            np.testing.assert_array_equal(
                self._scores(src, users, items), self._scores(dst, users, items)
            )
        finally:
            _close_stores(src)
            _close_stores(dst)

    def test_cross_layout_restore(self, tiny_dataset, tmp_path):
        """Per-shard service checkpoints restore into the dense layout."""
        src = _gbmf(tiny_dataset, n_shards=2)
        dst = _gbmf(tiny_dataset)  # dense target
        try:
            path = save_checkpoint(src, tmp_path / "x.npz", shard_files=True)
            restore_model(dst, path)
            users = np.arange(10)
            items = np.arange(10) % tiny_dataset.n_items
            np.testing.assert_array_equal(
                self._scores(src, users, items), self._scores(dst, users, items)
            )
        finally:
            _close_stores(src)

    def test_restores_hash_layout_checkpoint(self, tiny_dataset, tmp_path):
        """Per-shard checkpoints of the retired hash layout still load.

        That layout striped rows ``id % n_shards``, so each shard file
        holds strided ids, and its manifest carried ``"partition":
        "hash"``.  Shard files carry their ids, so a restore needs
        neither: every row must land byte for byte in a dense model and
        in a 2-shard one.
        """
        src = _mgbr(tiny_dataset)
        want = src.state_dict()
        state = dict(want)
        manifest = {}
        for name, _ in iter_stores(src):
            entry = f"{name}.weight"
            table = state.pop(entry)
            files = []
            for k in range(2):
                ids = np.arange(k, len(table), 2)
                files.append(f"hash.{entry}.shard{k}.npz")
                np.savez_compressed(tmp_path / files[-1], ids=ids, rows=table[ids])
            manifest[entry] = {
                "n_shards": 2, "partition": "hash", "rows": int(table.shape[0]),
                "dim": int(table.shape[1]), "files": files,
            }
        assert len(manifest) == 3 and state  # shard files plus a dense payload
        meta = {"model_class": "MGBR", "dtype": "float64", "extra": {}, "shards": manifest}
        np.savez_compressed(
            tmp_path / "hash.npz",
            __checkpoint_meta__=np.bytes_(json.dumps(meta).encode()),
            **state,
        )
        for n_shards in (0, 2):
            dst = _mgbr(tiny_dataset, n_shards)
            try:
                dst.load_state_dict({k: v + 1.0 for k, v in want.items()})
                restore_model(dst, tmp_path / "hash.npz")
                got = dst.state_dict()
                assert set(got) == set(want)
                for key, values in want.items():
                    assert got[key].tobytes() == values.tobytes(), key
            finally:
                _close_stores(dst)

    def test_save_streams_without_materialising(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        src = _gbmf(tiny_dataset, n_shards=2)
        try:
            calls = []
            original = ProcessShardedStore.logical_state
            monkeypatch.setattr(
                ProcessShardedStore, "logical_state",
                lambda self: (calls.append(1), original(self))[1],
            )
            save_checkpoint(src, tmp_path / "stream.npz", shard_files=True)
            assert not calls, "shard_files save materialised a logical table"
        finally:
            _close_stores(src)

    def test_empty_store_reshard_target(self):
        """``empty()`` + ``assign_rows`` is the reshard transport: the
        target never holds more than one source shard's stream chunk."""
        values = _table()
        with ProcessShardedStore(values.copy(), 3, io_chunk=16) as src:
            with ProcessShardedStore.empty(67, 6, n_shards=5, io_chunk=16) as dst:
                for k in range(src.n_shards):
                    ids, rows = src.shard_rows(k)
                    dst.assign_rows(ids, rows)
                np.testing.assert_array_equal(dst.logical_state(), values)
                snap = dst.stats_snapshot()
                for w in snap["workers"]:
                    assert w["max_rpc_rows"] <= 16


# ---------------------------------------------------------------------------
# Lifecycle hygiene
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_close_reaps_workers_and_segments(self):
        store = ProcessShardedStore(_table(), 3)
        procs = list(store._procs)
        names = [shm.name for shm in store._guard.segments]
        assert all(p.is_alive() for p in procs)
        store.close()
        assert store.closed
        assert not any(p.is_alive() for p in procs)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        store.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            store.gather(np.array([0], dtype=np.int64))

    def test_context_manager_closes(self):
        with ProcessShardedStore(_table(), 2) as store:
            procs = list(store._procs)
        assert store.closed and not any(p.is_alive() for p in procs)

    def test_garbage_collection_reaps(self):
        store = ProcessShardedStore(_table(), 2)
        procs = list(store._procs)
        names = [shm.name for shm in store._guard.segments]
        del store
        gc.collect()
        for p in procs:
            p.join(timeout=10.0)
        assert not any(p.is_alive() for p in procs)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_no_leaked_children_after_suite(self):
        """Teardown assertion: every store the module opened was reaped
        (runs last — pytest executes tests in definition order)."""
        gc.collect()
        leaked = [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard")
        ]
        assert not leaked, f"leaked shard workers: {leaked}"
