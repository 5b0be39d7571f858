"""Embedding store layouts: parity, checkpoints, sparse updates.

The contract under test (docs/sharding.md): *storage layout is
unobservable* — a model whose tables are sharded across
``n_shards >= 1`` worker processes (:class:`repro.store
.ProcessShardedStore`, any shard count, range or hash partition)
produces bit-identical scores, losses, gradients and trained weights to
the dense single-table layout at float64, and checkpoints move freely
between layouts (dense ↔ N shards ↔ M shards, single-file or per-shard
files).  Every test that opens shard workers registers them with the
``closing`` fixture, which reaps them at teardown.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.core import MGBR, MGBRConfig
from repro.eval.protocol import EvalProtocol
from repro.nn.layers import Embedding
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import no_grad
from repro.plan import PlannedBatch, ScoringPlan
from repro.serving import ServingEngine
from repro.store import (
    DenseStore,
    Partitioner,
    ProcessShardedStore,
    iter_stores,
    make_store,
)
from repro.training import TrainConfig, Trainer
from repro.training.checkpoint import load_checkpoint, restore_model, save_checkpoint

from serving_oracle import PARKED, direct_scores, serve_together


def _table(rows=23, dim=5, seed=0):
    return np.random.default_rng(seed).normal(size=(rows, dim))


# ---------------------------------------------------------------------------
# Partitioner / shard maps
# ---------------------------------------------------------------------------
class TestPartitioner:
    @pytest.mark.parametrize("kind", ["range", "hash"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7, 40])
    def test_owned_ids_partition_the_id_space(self, kind, n_shards):
        part = Partitioner(23, n_shards, kind)
        owned = [part.owned_ids(k) for k in range(n_shards)]
        assert sorted(np.concatenate(owned).tolist()) == list(range(23))
        for k, ids in enumerate(owned):
            assert len(ids) == part.shard_size(k)
            np.testing.assert_array_equal(part.owner(ids), np.full(len(ids), k))
            # to_local inverts owned_ids: the k-th shard's rows index 0..len-1.
            np.testing.assert_array_equal(part.to_local(ids), np.arange(len(ids)))

    def test_range_shards_balanced(self):
        part = Partitioner(23, 4, "range")
        sizes = [part.shard_size(k) for k in range(4)]
        assert sizes == [6, 6, 6, 5]  # ceil bound: no shard above ceil(23/4)
        assert max(sizes) == -(-23 // 4)

    def test_build_map_groups_by_owner(self):
        part = Partitioner(20, 3, "hash")
        ids = np.array([4, 1, 9, 4, 17, 0])
        smap = part.build_map(ids)
        grouped_logical = []
        for k, local in enumerate(smap.per_shard_local):
            grouped_logical.extend((part.owned_ids(k)[local]).tolist())
        # Reassembling with the inverse permutation restores request order.
        np.testing.assert_array_equal(np.asarray(grouped_logical)[smap.inverse], ids)
        assert smap.shards_touched == 3
        assert smap.max_shard_rows == max(len(l) for l in smap.per_shard_local)

    def test_sorted_unique_ids_are_identity_under_range(self):
        part = Partitioner(50, 4, "range")
        smap = part.build_map(np.array([1, 5, 12, 13, 40, 49]))
        assert smap.identity

    def test_out_of_range_ids_rejected(self):
        part = Partitioner(10, 2)
        with pytest.raises(ValueError, match="ids must lie"):
            part.build_map(np.array([0, 10]))
        with pytest.raises(ValueError, match="ids must lie"):
            part.build_map(np.array([-1]))

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="n_shards"):
            Partitioner(10, 0)
        with pytest.raises(ValueError, match="kind"):
            Partitioner(10, 2, "modulo")


# ---------------------------------------------------------------------------
# Store gather / scatter-add parity
# ---------------------------------------------------------------------------
class TestStoreParity:
    @pytest.mark.parametrize("kind", ["range", "hash"])
    @pytest.mark.parametrize("n_shards", [2, 3, 5, 40])
    def test_gather_values_bitwise_equal_dense(self, kind, n_shards, closing):
        # 40 shards over 23 rows: most workers own no rows at all.
        values = _table()
        dense = DenseStore(values.copy())
        sharded = closing(make_store(values.copy(), n_shards, kind))
        ids = np.array([0, 7, 7, 22, 3, 7, 11])  # duplicates included
        with no_grad():
            np.testing.assert_array_equal(
                sharded.gather(ids).data, dense.gather(ids).data
            )
            np.testing.assert_array_equal(sharded.all().data, dense.all().data)
        assert sharded.logical_state().tolist() == values.tolist()

    def test_empty_gather(self, closing):
        sharded = closing(make_store(_table(), 3))
        with no_grad():
            out = sharded.gather(np.empty(0, dtype=np.int64))
        assert out.shape == (0, 5)

    @pytest.mark.parametrize("kind", ["range", "hash"])
    def test_gather_gradients_bitwise_equal_dense(self, kind, closing):
        values = _table(rows=31, dim=4, seed=3)
        dense = DenseStore(values.copy())
        sharded = closing(make_store(values.copy(), 4, kind))
        ids = np.random.default_rng(7).integers(0, 31, size=600)
        grad = np.random.default_rng(8).normal(size=(600, 4))

        (dense.gather(ids) * grad).sum().backward()
        (sharded.gather(ids) * grad).sum().backward()
        np.testing.assert_array_equal(
            _sgd_unit_step(dense), _sgd_unit_step(sharded)
        )

    @pytest.mark.parametrize("kind", ["range", "hash"])
    def test_all_gradients_bitwise_equal_dense(self, kind, closing):
        values = _table(rows=11, dim=3, seed=5)
        dense = DenseStore(values.copy())
        sharded = closing(make_store(values.copy(), 3, kind))
        grad = np.random.default_rng(9).normal(size=(11, 3))
        (dense.all() * grad).sum().backward()
        (sharded.all() * grad).sum().backward()
        np.testing.assert_array_equal(
            _sgd_unit_step(dense), _sgd_unit_step(sharded)
        )

    def test_touched_rows_recorded_per_shard(self, closing):
        sharded = closing(make_store(_table(rows=12, dim=2), 3))  # 4 rows per shard
        sharded.gather(np.array([0, 1, 5, 5]))
        touched = {
            k: p.touched_rows for k, (_, p) in enumerate(sharded.named_parameters())
        }
        np.testing.assert_array_equal(touched[0], [0, 1])   # rows 0,1 local to shard 0
        np.testing.assert_array_equal(touched[1], [1])      # row 5 local 1 in shard 1
        assert touched[2] is None

    def test_touched_rows_not_recorded_under_no_grad(self, closing):
        sharded = closing(make_store(_table(), 2))
        with no_grad():
            sharded.gather(np.array([1, 2]))
        assert all(p.touched_rows is None for _, p in sharded.named_parameters())

    def test_stats_counters(self, closing):
        sharded = closing(make_store(_table(rows=20, dim=2), 4))
        with no_grad():
            sharded.gather(np.array([0, 6, 19]))
        assert sharded.stats["gathers"] == 1
        assert sharded.stats["rows_gathered"] == 3
        assert sharded.stats["shard_touches"] == 3
        assert sharded.stats["max_shard_gather_rows"] == 1
        assert sharded.resident_rows() == [5, 5, 5, 5]

    def test_make_store_layouts(self, closing):
        """``n_shards`` alone picks the layout: 0 is dense, k >= 1 is a
        k-worker shard service."""
        assert isinstance(make_store(_table(), 0), DenseStore)
        for k in (1, 2):
            store = closing(make_store(_table(), k))
            assert isinstance(store, ProcessShardedStore)
            assert store.n_shards == k and len(store.worker_pids()) == k
        with pytest.raises(ValueError, match="n_shards"):
            make_store(_table(), -1)

    def test_make_store_rejects_removed_spellings(self):
        # quantize=None is the only float spelling, and n_shards alone
        # picks the layout: no config field (so no constructor keyword)
        # selects the shard service.
        with pytest.raises(ValueError, match="quantize"):
            make_store(_table(), quantize="none")
        fields = [f.name for f in dataclasses.fields(MGBRConfig)]
        assert "embedding_shards" in fields
        assert not [name for name in fields if "service" in name]


def _sgd_unit_step(store) -> np.ndarray:
    """The logical table after one ``lr=1`` SGD step (``w - grad``).

    Shard-service gradients live in the workers; one unit step exposes
    them through the logical table with identical arithmetic on every
    layout, so equal results mean bit-equal gradients.
    """
    SGD([p for _, p in store.named_parameters()], lr=1.0).step()
    return store.logical_state()


# ---------------------------------------------------------------------------
# Embedding layer over stores
# ---------------------------------------------------------------------------
class TestEmbeddingDelegation:
    def test_dense_default_keeps_weight_identity(self):
        emb = Embedding(6, 3, seed=0)
        assert emb.all() is emb.weight
        assert isinstance(emb.store, DenseStore)
        assert list(emb.state_dict()) == ["weight"]

    def test_sharded_forward_matches_dense(self, closing):
        dense = Embedding(9, 4, seed=1)
        sharded = closing(Embedding(9, 4, seed=1, n_shards=3))
        idx = np.array([8, 0, 3, 3])
        with no_grad():
            np.testing.assert_array_equal(dense(idx).data, sharded(idx).data)

    def test_sharded_registers_shard_parameters(self, closing):
        emb = closing(Embedding(9, 4, seed=1, n_shards=3))
        names = [name for name, _ in emb.named_parameters()]
        assert names == ["shard0", "shard1", "shard2"]
        # ... but the canonical checkpoint entry stays the logical table.
        state = emb.state_dict()
        assert list(state) == ["weight"] and state["weight"].shape == (9, 4)

    def test_state_roundtrip_across_layouts(self, closing):
        src = closing(Embedding(9, 4, seed=1, n_shards=3))
        dst_dense = Embedding(9, 4, seed=2)
        dst_hash = closing(Embedding(9, 4, seed=3, n_shards=2, partition="hash"))
        dst_dense.load_state_dict(src.state_dict())
        dst_hash.load_state_dict(src.state_dict())
        np.testing.assert_array_equal(
            dst_dense.store.logical_state(), src.store.logical_state()
        )
        np.testing.assert_array_equal(
            dst_hash.store.logical_state(), src.store.logical_state()
        )

    def test_dtype_rebind_applies_to_every_shard(self, closing):
        emb = closing(Embedding(9, 4, seed=1, n_shards=3))
        emb.load_state_dict(emb.state_dict(), dtype=np.float32)
        assert all(
            emb.store.shard_rows(k)[1].dtype == np.float32 for k in range(3)
        )

    def test_store_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="store holds"):
            Embedding(9, 4, store=DenseStore(_table(5, 4)))


# ---------------------------------------------------------------------------
# Plan-driven shard maps
# ---------------------------------------------------------------------------
class TestPlanShardMaps:
    def test_shard_map_cached_per_partitioner(self):
        plan = ScoringPlan.for_items(np.array([1, 2]), np.array([[3, 4], [3, 5]]))
        part = Partitioner(10, 2)
        first = plan.shard_map("users", part)
        assert plan.shard_map("users", part) is first
        # A different layout gets its own map.
        other = plan.shard_map("users", Partitioner(10, 3))
        assert other is not first

    def test_shard_map_roles(self):
        plan = ScoringPlan.from_triples(
            np.array([1, 1, 2]), np.array([0, 0, 1]), np.array([4, 4, 5])
        )
        part = Partitioner(10, 2)
        assert plan.shard_map("participants", part).n_rows == len(
            plan.unique_participants
        )
        assert plan.shard_map("pair_users", part).n_rows == plan.n_pairs
        with pytest.raises(ValueError, match="unknown shard-map role"):
            plan.shard_map("nope", part)

    def test_pair_plan_has_no_participants_role(self):
        plan = ScoringPlan.from_item_pairs(np.array([1]), np.array([2]))
        with pytest.raises(ValueError, match="empty on a pair plan"):
            plan.shard_map("participants", Partitioner(10, 2))

    def test_gather_rejects_ids_diverging_from_plan_role(self, closing):
        """A plan-cached shard map only answers for the plan's own ids."""
        store = closing(make_store(_table(rows=10, dim=2), 2))
        plan = ScoringPlan.from_item_pairs(np.array([1, 2, 3]), np.array([0, 0, 0]))
        with no_grad():
            ok = store.gather(plan.unique_users, plan=plan, role="users")
            assert ok.shape == (3, 2)
            with pytest.raises(ValueError, match="do not match the plan"):
                store.gather(np.array([1, 2]), plan=plan, role="users")

    def test_planned_batch_delegates(self):
        batch = PlannedBatch.build(
            {"pos": (np.array([1, 2]), np.array([3, 4]), None, (2,))}
        )
        part = Partitioner(10, 2)
        assert batch.shard_map("users", part) is batch.plan.shard_map("users", part)


# ---------------------------------------------------------------------------
# Model-level layout parity (the acceptance criterion)
# ---------------------------------------------------------------------------
def _gbmf(tiny_dataset, n_shards=0, partition="range"):
    return GBMF(
        tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=4,
        n_shards=n_shards, partition=partition,
    )


def _mgbr(tiny_dataset, n_shards=0, partition="range"):
    config = MGBRConfig.small(
        d=8, n_experts=2, mtl_layers=2, aux_negatives=4, train_negatives=3, seed=3,
        embedding_shards=n_shards, embedding_partition=partition,
    )
    return MGBR(
        tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items, config=config
    )


class TestLayoutParity:
    @pytest.mark.parametrize("partition", ["range", "hash"])
    def test_gbmf_eval_metrics_bit_identical(self, tiny_dataset, partition, closing):
        protocol = EvalProtocol(tiny_dataset, n_negatives=5, cutoff=5, max_instances=40)
        dense = protocol.run(_gbmf(tiny_dataset)).flat()
        sharded = protocol.run(closing(_gbmf(tiny_dataset, 3, partition))).flat()
        assert dense == sharded

    @pytest.mark.parametrize("partition", ["range", "hash"])
    def test_mgbr_eval_metrics_bit_identical(self, tiny_dataset, partition, closing):
        protocol = EvalProtocol(tiny_dataset, n_negatives=5, cutoff=5, max_instances=30)
        dense = protocol.run(_mgbr(tiny_dataset)).flat()
        sharded = protocol.run(closing(_mgbr(tiny_dataset, 3, partition))).flat()
        assert dense == sharded

    @pytest.mark.parametrize("build", [_gbmf, _mgbr], ids=["gbmf", "mgbr"])
    def test_planned_training_bit_identical(self, tiny_dataset, build, closing):
        """Two epochs of the planned step: losses AND weights match.

        Hash partitioning here (the service tests train range shards):
        the strided gradient split must still be bit-exact.
        """
        def run(n_shards):
            model = closing(build(tiny_dataset, n_shards, "hash"))
            trainer = Trainer(
                model, tiny_dataset,
                TrainConfig(
                    epochs=2, batch_size=16, train_negatives=3, aux_negatives=4,
                    learning_rate=5e-3, seed=0,
                ),
            )
            losses = [trainer.train_epoch().losses for _ in range(2)]
            return losses, model.state_dict()

        dense_losses, dense_state = run(0)
        shard_losses, shard_state = run(3)
        assert dense_losses == shard_losses
        assert set(dense_state) == set(shard_state)
        for key in dense_state:
            np.testing.assert_array_equal(dense_state[key], shard_state[key])

    def test_sharded_gbmf_never_materialises_tables(self, tiny_dataset, closing):
        """Planned scoring touches each shard once and only gathers rows."""
        model = closing(_gbmf(tiny_dataset, n_shards=4))
        users = np.arange(10)
        cands = np.tile(np.arange(8), (10, 1))
        with no_grad():
            model.refresh_cache()
            plan = ScoringPlan.for_items(users, cands)
            planned = plan.scatter(model.score_item_plan(plan))
            flat = model.score_items_matrix(users, cands)
        np.testing.assert_array_equal(planned, flat)
        store = model.initiator_table.store
        assert store.stats["gathers"] >= 1
        # One planned Task-A call = at most one touch per shard.
        assert store.stats["shard_touches"] <= store.stats["gathers"] * store.n_shards
        assert store.stats["max_gather_rows"] <= len(users) * cands.shape[1]

    def test_entity_embeddings_with_stores(self, tiny_dataset, closing):
        model = closing(_gbmf(tiny_dataset, n_shards=3))
        tables = model.entity_embeddings()
        assert tables["initiator"].shape == (tiny_dataset.n_users, 8)


# ---------------------------------------------------------------------------
# Checkpoints across shard counts
# ---------------------------------------------------------------------------
class TestShardCheckpoints:
    def _scores(self, model, users, items):
        with no_grad():
            model.refresh_cache()
            out = np.asarray(model.score_items(users, items).data).copy()
        model.invalidate_cache()
        return out

    @pytest.mark.parametrize("src_shards,dst_shards", [(0, 3), (3, 0), (4, 2), (3, 3)])
    def test_single_file_roundtrip_across_layouts(
        self, tiny_dataset, tmp_path, src_shards, dst_shards, closing
    ):
        """Save with N shards, restore with M — scores bit-identical."""
        src = closing(_gbmf(tiny_dataset, src_shards))
        dst = closing(_gbmf(tiny_dataset, dst_shards))
        # Make dst's weights genuinely different before the restore.
        dst.item_table.store.load_logical(
            dst.item_table.store.logical_state() + 1.0
        )
        path = save_checkpoint(src, tmp_path / "model.npz")
        meta = restore_model(dst, path)
        assert meta["model_class"] == "GBMF"
        users = np.arange(12)
        items = np.arange(12) % tiny_dataset.n_items
        np.testing.assert_array_equal(
            self._scores(src, users, items), self._scores(dst, users, items)
        )

    @pytest.mark.parametrize("dst_shards", [0, 2, 5])
    def test_per_shard_files_roundtrip(self, tiny_dataset, tmp_path, dst_shards, closing):
        """Per-shard files restore into the dense layout (0) and into
        shard services of other worker counts."""
        src = closing(_gbmf(tiny_dataset, n_shards=3))
        path = save_checkpoint(src, tmp_path / "model.npz", shard_files=True)
        # The sharded tables left the main archive into per-shard files.
        payload = load_checkpoint(path, assemble_shards=False)
        assert "initiator_table.weight" not in payload["state"]
        manifest = payload["meta"]["shards"]
        assert manifest["initiator_table.weight"]["n_shards"] == 3
        for spec in manifest.values():
            for file_name in spec["files"]:
                assert (tmp_path / file_name).exists()
        # Default load reassembles the logical tables…
        assembled = load_checkpoint(path)
        np.testing.assert_array_equal(
            assembled["state"]["initiator_table.weight"],
            src.initiator_table.store.logical_state(),
        )
        # …while restore_model streams the shard files into any layout.
        dst = closing(_gbmf(tiny_dataset, n_shards=dst_shards))
        dst.initiator_table.store.load_logical(
            dst.initiator_table.store.logical_state() * 2.0
        )
        restore_model(dst, path)
        users = np.arange(12)
        items = np.arange(12) % tiny_dataset.n_items
        np.testing.assert_array_equal(
            self._scores(src, users, items), self._scores(dst, users, items)
        )

    def test_per_shard_files_float32_restore(self, tiny_dataset, tmp_path, closing):
        src = closing(_gbmf(tiny_dataset, n_shards=3))
        path = save_checkpoint(
            src, tmp_path / "m32.npz", dtype="float32", shard_files=True
        )
        dst = closing(_gbmf(tiny_dataset, n_shards=2))
        restore_model(dst, path, dtype="float32")
        for _, store in iter_stores(dst):
            for shard in range(store.n_shards):
                assert store.shard_rows(shard)[1].dtype == np.float32

    def test_shard_files_save_never_materialises_tables(
        self, tiny_dataset, tmp_path, monkeypatch, closing
    ):
        """The per-shard writer must stream shard buffers directly —
        building a logical table would defeat the memory model on a
        catalog that doesn't fit in RAM."""
        src = closing(_gbmf(tiny_dataset, n_shards=3))
        calls = []
        original = ProcessShardedStore.logical_state
        monkeypatch.setattr(
            ProcessShardedStore, "logical_state",
            lambda self: (calls.append(1), original(self))[1],
        )
        save_checkpoint(src, tmp_path / "stream.npz", shard_files=True)
        assert not calls, "shard_files save materialised a logical table"

    def test_fully_sharded_meta_reports_shard_dtype(self, tiny_dataset, tmp_path, closing):
        """GBMF is table-only: with shard_files=True the main payload is
        empty, and the recorded dtype must come from the shard buffers."""
        src = closing(_gbmf(tiny_dataset, n_shards=3))
        for _, store in iter_stores(src):
            store.rebind_dtype(np.float32)
        path = save_checkpoint(src, tmp_path / "all32.npz", shard_files=True)
        payload = load_checkpoint(path)
        assert payload["meta"]["dtype"] == "float32"
        assert all(v.dtype == np.float32 for v in payload["state"].values())

    def test_strict_restore_catches_missing_store(self, tiny_dataset, tmp_path, closing):
        src = closing(_gbmf(tiny_dataset, n_shards=3))
        path = save_checkpoint(src, tmp_path / "model.npz", shard_files=True)
        wrong = GBMF(tiny_dataset.n_users + 1, tiny_dataset.n_items, dim=8, seed=4)
        with pytest.raises((KeyError, ValueError)):
            restore_model(wrong, path)

    def test_mgbr_checkpoint_across_layouts(self, tiny_dataset, tmp_path, closing):
        src = closing(_mgbr(tiny_dataset, n_shards=3))
        path = save_checkpoint(src, tmp_path / "mgbr.npz", shard_files=True)
        dst = _mgbr(tiny_dataset, n_shards=0)
        restore_model(dst, path)
        protocol = EvalProtocol(tiny_dataset, n_negatives=5, cutoff=5, max_instances=20)
        assert protocol.run(src).flat() == protocol.run(dst).flat()


# ---------------------------------------------------------------------------
# Sparse (lazy-row) optimizer updates
# ---------------------------------------------------------------------------
class TestSparseUpdates:
    def test_lazy_rows_touch_only_gathered_rows(self):
        values = _table(rows=16, dim=3, seed=2)
        store = DenseStore(values.copy())
        params = [p for _, p in store.named_parameters()]
        opt = Adam(params, lr=0.1, lazy_rows=True)
        before = store.logical_state()
        (store.gather(np.array([0, 3, 9])) ** 2).sum().backward()
        opt.step()
        after = store.logical_state()
        changed = np.flatnonzero(np.any(before != after, axis=1))
        np.testing.assert_array_equal(changed, [0, 3, 9])

    def test_first_step_matches_dense_adam_bitwise(self):
        values = _table(rows=16, dim=3, seed=2)
        lazy_store = DenseStore(values.copy())
        dense_store = DenseStore(values.copy())
        lazy = Adam([p for _, p in lazy_store.named_parameters()], lr=0.1, lazy_rows=True)
        dense = Adam([p for _, p in dense_store.named_parameters()], lr=0.1)
        ids = np.array([1, 3, 3, 14])
        for store, opt in ((lazy_store, lazy), (dense_store, dense)):
            (store.gather(ids) ** 2).sum().backward()
            opt.step()
        # From fresh optimizer state the touched rows update identically
        # (untouched rows have zero moments, so dense leaves them be too).
        np.testing.assert_array_equal(
            lazy_store.logical_state(), dense_store.logical_state()
        )

    def test_all_read_forces_dense_update(self):
        store = DenseStore(_table(rows=6, dim=2, seed=1))
        params = [p for _, p in store.named_parameters()]
        opt = Adam(params, lr=0.1, lazy_rows=True)
        (store.all() ** 2).sum().backward()
        assert all(p.touched_rows is True for p in params)
        before = store.logical_state()
        opt.step()
        assert np.all(store.logical_state() != before)

    def test_zero_grad_clears_touched_rows(self):
        store = DenseStore(_table(rows=6, dim=2, seed=1))
        store.gather(np.array([0, 5]))
        for _, p in store.named_parameters():
            p.zero_grad()
            assert p.touched_rows is None

    def test_trainer_with_sparse_updates_takes_lazy_path(self, tiny_dataset, closing):
        """The lazy branch must actually fire during a training epoch.

        Regression: ``model.zero_grad()`` between forward and backward
        used to wipe the touched-row records the forward's gathers made,
        silently degrading every step to the dense update.  Only a
        sharded table gathers rows in training (dense tables read
        ``all()``, which marks every row touched), and its lazy update
        runs inside the shard workers — so the evidence is the weights:
        lazy Adam leaves a row that sits out a step with undecayed
        moments, which dense Adam never does.
        """
        def train(sparse):
            model = closing(_gbmf(tiny_dataset, n_shards=3))
            trainer = Trainer(
                model, tiny_dataset,
                TrainConfig(
                    epochs=1, batch_size=16, train_negatives=3, learning_rate=5e-3,
                    seed=0, sparse_updates=sparse,
                ),
            )
            assert trainer.optimizer.lazy_rows == sparse
            record = trainer.train_epoch()
            assert np.isfinite(record.losses["total"])
            return model.state_dict()

        lazy, dense = train(True), train(False)
        assert any(not np.array_equal(lazy[k], dense[k]) for k in dense), (
            "sparse_updates never reached the lazy row update"
        )


# ---------------------------------------------------------------------------
# Serving through the store
# ---------------------------------------------------------------------------
class TestServingWithShards:
    def test_batcher_flush_matches_dense(self, tiny_dataset, closing):
        """One flush of co-batched Task A and B requests equals the direct
        planned calls bitwise on the dense layout, and the sharded
        layout serves the same bytes."""
        requests = []
        for user in (0, 3, 3, 17):
            cands = [(user * 3 + j) % tiny_dataset.n_items for j in range(6)]
            requests.append(("a", user, cands))
            requests.append(("b", user, user % tiny_dataset.n_items,
                             [(user + 5 * j) % tiny_dataset.n_users for j in range(4)]))
        dense = _gbmf(tiny_dataset)
        assert isinstance(dense.item_table.store, DenseStore)
        served, stats = serve_together(dense, requests)
        assert stats["engine"]["flushes"] == 1
        for ticket, want in zip(served, direct_scores(dense, requests)):
            np.testing.assert_array_equal(ticket.scores, want)
        sharded = closing(_gbmf(tiny_dataset, n_shards=4))
        for ticket, other in zip(served, serve_together(sharded, requests)[0]):
            np.testing.assert_array_equal(ticket.scores, other.scores)

    def test_shard_stats_exposed(self, tiny_dataset, closing):
        sharded = closing(_gbmf(tiny_dataset, n_shards=4))
        with ServingEngine(sharded, **PARKED) as engine:
            engine.submit_items(1, [0, 1, 2, 3])
            engine.drain(timeout=10.0)
            stats = engine.shard_stats()
        assert set(stats) == {"initiator_table", "participant_table", "item_table"}
        assert stats["initiator_table"]["n_shards"] == 4
        assert stats["item_table"]["gathers"] >= 1
        # Dense models have no store-backed tables to report… unless the
        # table *is* a (single-shard) store, which GBMF's dense layout is.
        dense_stats = ServingEngine(_gbmf(tiny_dataset)).shard_stats()
        assert all(entry["n_shards"] == 1 for entry in dense_stats.values())
