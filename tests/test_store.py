"""Embedding store layouts: parity, checkpoints, sparse updates.

The contract under test (docs/sharding.md): *storage layout is
unobservable* — a model whose tables are sharded across
``n_shards >= 1`` worker processes (:class:`repro.store
.ProcessShardedStore`, any shard count) produces bit-identical scores,
losses, gradients and trained weights to the dense single-table layout
at float64, and checkpoints move freely
between layouts (dense ↔ N shards ↔ M shards, single-file or per-shard
files).  Every test that opens shard workers registers them with the
``closing`` fixture, which reaps them at teardown.  Shards own
contiguous row blocks; the ``range`` parameters name that layout in
the test ids.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.core import MGBR, MGBRConfig
from repro.eval.protocol import EvalProtocol
from repro.nn.layers import Embedding
from repro.nn.optim import Adam
from repro.nn.tensor import no_grad
from repro.plan import ScoringPlan
from repro.serving import ServingEngine
from repro.store import (
    DenseStore,
    LRUCachedStore,
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
# Partitioner and id checks
# ---------------------------------------------------------------------------
class TestPartitioner:
    @pytest.mark.parametrize("kind", ["range"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7, 40])
    def test_owned_ids_partition_the_id_space(self, kind, n_shards):
        part = Partitioner(23, n_shards)
        owned = [part.owned_ids(k) for k in range(n_shards)]
        # Contiguous blocks, in shard order.
        assert np.concatenate(owned).tolist() == list(range(23))
        for k, ids in enumerate(owned):
            assert len(ids) == part.shard_size(k)

    def test_range_shards_balanced(self):
        part = Partitioner(23, 4)
        sizes = [part.shard_size(k) for k in range(4)]
        assert sizes == [6, 6, 6, 5]  # ceil bound: no shard above ceil(23/4)
        assert max(sizes) == -(-23 // 4)

    def test_out_of_range_ids_rejected(self, closing):
        """Every layout rejects the same bad ids, in either id order,
        with and without gradients, on reads and writes."""
        cases = [
            (np.array([0, 10]), "ids must lie"),  # sorted, past the end
            (np.array([-1]), "ids must lie"),  # sorted, negative
            (np.array([7, 3, 10, 3]), "ids must lie"),  # unsorted, past the end
            (np.array([4, -1, 2]), "ids must lie"),  # unsorted, negative
            (np.array([[1, 2], [3, 0]]), "1-D"),
        ]
        table = _table(rows=10, dim=2)
        layouts = [
            make_store(table),
            closing(make_store(table, 2)),
            make_store(table, quantize="int8"),
            LRUCachedStore(make_store(table), capacity=4),
        ]
        for store in layouts:
            for ids, message in cases:
                with no_grad(), pytest.raises(ValueError, match=message):
                    store.gather(ids)
                with pytest.raises(ValueError, match=message):
                    store.gather(ids)
                with pytest.raises(ValueError, match=message):
                    store.assign_rows(ids, np.zeros(ids.shape + (2,)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="n_shards"):
            Partitioner(10, 0)


# ---------------------------------------------------------------------------
# Store gather / scatter-add parity
# ---------------------------------------------------------------------------
class TestStoreParity:
    @pytest.mark.parametrize("kind", ["range"])
    @pytest.mark.parametrize("n_shards", [2, 3, 5, 40])
    def test_gather_values_bitwise_equal_dense(self, kind, n_shards, closing):
        # 40 shards over 23 rows: most workers own no rows at all.
        values = _table()
        dense = DenseStore(values.copy())
        sharded = closing(make_store(values.copy(), n_shards))
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

    @pytest.mark.parametrize("kind", ["range"])
    def test_gather_gradients_bitwise_equal_dense(self, kind, closing):
        values = _table(rows=31, dim=4, seed=3)
        dense = DenseStore(values.copy())
        sharded = closing(make_store(values.copy(), 4))
        ids = np.random.default_rng(7).integers(0, 31, size=600)
        grad = np.random.default_rng(8).normal(size=(600, 4))

        (dense.gather(ids) * grad).sum().backward()
        (sharded.gather(ids) * grad).sum().backward()
        np.testing.assert_array_equal(
            _unit_step(dense), _unit_step(sharded)
        )

    @pytest.mark.parametrize("kind", ["range"])
    def test_all_gradients_bitwise_equal_dense(self, kind, closing):
        values = _table(rows=11, dim=3, seed=5)
        dense = DenseStore(values.copy())
        sharded = closing(make_store(values.copy(), 3))
        grad = np.random.default_rng(9).normal(size=(11, 3))
        (dense.all() * grad).sum().backward()
        (sharded.all() * grad).sum().backward()
        np.testing.assert_array_equal(
            _unit_step(dense), _unit_step(sharded)
        )

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


def _unit_step(store) -> np.ndarray:
    """The logical table after one exact ``w - grad`` step.

    Shard-service gradients live in the workers; one unit step exposes
    them through the logical table with identical arithmetic on every
    layout, so equal results mean bit-equal gradients.  The step is a
    first Adam step with ``betas=(0, 0)`` (so ``m = g`` and ``v = g²``)
    and ``lr = eps = 2**60``: for ``|g| < 128``, ``sqrt(v) + eps``
    rounds to exactly ``eps``, so the update ``lr·g / eps`` is exactly
    ``g``.
    """
    params = [p for _, p in store.named_parameters()]
    Adam(params, lr=2.0**60, betas=(0.0, 0.0), eps=2.0**60).step()
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
        dst_two = closing(Embedding(9, 4, seed=3, n_shards=2))
        dst_dense.load_state_dict(src.state_dict())
        dst_two.load_state_dict(src.state_dict())
        np.testing.assert_array_equal(
            dst_dense.store.logical_state(), src.store.logical_state()
        )
        np.testing.assert_array_equal(
            dst_two.store.logical_state(), src.store.logical_state()
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
# Model-level layout parity (the acceptance criterion)
# ---------------------------------------------------------------------------
def _gbmf(tiny_dataset, n_shards=0):
    return GBMF(
        tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=4, n_shards=n_shards,
    )


def _mgbr(tiny_dataset, n_shards=0):
    config = MGBRConfig.small(
        d=8, n_experts=2, mtl_layers=2, aux_negatives=4, train_negatives=3, seed=3,
        embedding_shards=n_shards,
    )
    return MGBR(
        tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items, config=config
    )


class TestLayoutParity:
    @pytest.mark.parametrize("partition", ["range"])
    def test_gbmf_eval_metrics_bit_identical(self, tiny_dataset, partition, closing):
        protocol = EvalProtocol(tiny_dataset, n_negatives=5, cutoff=5, max_instances=40)
        dense = protocol.run(_gbmf(tiny_dataset)).flat()
        sharded = protocol.run(closing(_gbmf(tiny_dataset, 3))).flat()
        assert dense == sharded

    @pytest.mark.parametrize("partition", ["range"])
    def test_mgbr_eval_metrics_bit_identical(self, tiny_dataset, partition, closing):
        protocol = EvalProtocol(tiny_dataset, n_negatives=5, cutoff=5, max_instances=30)
        dense = protocol.run(_mgbr(tiny_dataset)).flat()
        sharded = protocol.run(closing(_mgbr(tiny_dataset, 3))).flat()
        assert dense == sharded

    @pytest.mark.parametrize("build", [_gbmf, _mgbr], ids=["gbmf", "mgbr"])
    def test_planned_training_bit_identical(self, tiny_dataset, build, closing):
        """Two epochs of the planned step: losses AND weights match."""
        def run(n_shards):
            model = closing(build(tiny_dataset, n_shards))
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

    def test_sharded_gbmf_never_materialises_tables(self, tiny_dataset, closing, score_matrix):
        """Planned scoring touches each shard once and only gathers rows."""
        model = closing(_gbmf(tiny_dataset, n_shards=4))
        users = np.arange(10)
        cands = np.tile(np.arange(8), (10, 1))
        with no_grad():
            model.refresh_cache()
            plan = ScoringPlan.for_items(users, cands)
            planned = plan.scatter(model.score_item_plan(plan))
            flat = score_matrix(model, users, cands)
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
