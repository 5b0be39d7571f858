"""Quantised embedding memory tier: codec, wrapper, LRU/process stacking.

The contract under test (docs/quantization.md):

* **Codec** — per-row affine int8 round-trips within ``scale / 2`` per
  element across extreme rows (huge magnitude, denormals, skew), the
  degenerate all-constant/all-zero convention dequantises *exactly*,
  and re-quantising a dequantised row is idempotent.
* **Tier semantics** — grad-enabled reads bypass the shadow to the
  float master (training never sees quantised values); ``no_grad``
  reads dequantise the version-keyed shadow; ``assign_rows`` incremental
  re-quantisation is bit-identical to a full shadow rebuild.
* **Stacking** — LRU caches hold quantised payloads (hits bit-identical
  to misses, no intermediate float allocation), process-sharded workers
  own only quantised buffers (genuine per-worker shrink, inference
  only), and every layout dequantises bit-identically.
* **State** — checkpoints stay canonical float: save from any layout,
  restore into a quantised one (single-file or per-shard streaming).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.core import MGBR, MGBRConfig
from repro.nn import CountingBackend, backend_scope
from repro.nn.layers import Embedding
from repro.nn.tensor import dtype_scope, no_grad
from repro.plan import ScoringPlan
from repro.serving import ServingEngine
from repro.store import (
    DenseStore,
    LRUCachedStore,
    ProcessShardedStore,
    QuantizedStore,
    iter_stores,
    make_store,
    quant_bytes_per_row,
)
from repro.store.quant import dequantize_rows, quantize_rows
from repro.training.checkpoint import restore_model, save_checkpoint

from serving_oracle import direct_scores, serve_together


def _table(rows=41, dim=48, seed=0):
    return np.random.default_rng(seed).normal(size=(rows, dim))


# ---------------------------------------------------------------------------
# Codec properties
# ---------------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize("src_dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", ["int8", "fp16"])
    def test_round_trip_error_bound(self, src_dtype, mode):
        rng = np.random.default_rng(3)
        # fp16 saturates past ~6.5e4, so its "huge" rows stay in range;
        # int8 side scalars are float32, good to ~3e38.
        huge, spread_hi = (1e18, 1e6) if mode == "int8" else (1e4, 6e4)
        rows = []
        rows.append(rng.normal(size=64))                       # plain
        rows.append(rng.normal(size=64) * huge)                # huge magnitude
        rows.append(rng.normal(size=64) * 1e-38)               # (sub)normal range
        rows.append(-np.abs(rng.normal(size=64)) - 5.0)        # negative-skewed
        rows.append(np.concatenate([np.full(63, 1e-6), [spread_hi]]))
        values = np.stack(rows).astype(src_dtype)
        q, scale, zero = quantize_rows(values, mode)
        got = dequantize_rows(q, scale, zero, dtype=np.float64)
        if mode == "int8":
            assert q.dtype == np.int8
            assert scale.dtype == np.float32 and zero.dtype == np.float32
            bound = scale.astype(np.float64) / 2
            err = np.abs(got - values.astype(np.float64)).max(axis=1)
            # scale/2 per element, plus float32 side-scalar rounding slack.
            assert (err <= bound * (1 + 1e-6)).all()
        else:
            assert q.dtype == np.float16
            assert scale is None and zero is None
            np.testing.assert_array_equal(
                got, values.astype(np.float16).astype(np.float64)
            )

    @pytest.mark.parametrize("row", [np.zeros(16), np.full(16, 3.25),
                                     np.full(16, -7.5), np.full(16, 1e-45)])
    def test_degenerate_rows_exact(self, row):
        q, scale, zero = quantize_rows(row[None, :], "int8")
        assert scale[0] == 1.0  # the convention: scale=1, zero=row value
        np.testing.assert_array_equal(q, 0)
        got = dequantize_rows(q, scale, zero, dtype=np.float64)
        np.testing.assert_array_equal(got[0], row.astype(np.float32))

    def test_spread_underflowing_float32_hits_degenerate_path(self):
        # Spread is nonzero in float64 but rounds to scale == 0 in float32.
        row = np.full(8, 0.5) + np.arange(8) * 1e-42
        q, scale, zero = quantize_rows(row[None, :], "int8")
        assert scale[0] == 1.0
        got = dequantize_rows(q, scale, zero, dtype=np.float64)
        np.testing.assert_array_equal(got[0], np.full(8, np.float32(0.5)))

    def test_non_finite_side_values_raise(self):
        bad = np.stack([np.linspace(-1e300, 1e300, 8)])  # range > f32 max
        with pytest.raises(ValueError, match="non-finite"):
            quantize_rows(bad, "int8")

    def test_requantisation_idempotent(self):
        values = _table(rows=20, dim=32, seed=9)
        q, scale, zero = quantize_rows(values, "int8")
        deq = dequantize_rows(q, scale, zero, dtype=np.float64)
        q2, scale2, zero2 = quantize_rows(deq, "int8")
        # Dequantised values span [zero - 127*scale, zero + 127*scale]
        # exactly, so the refreshed grid reproduces the same codes.
        np.testing.assert_array_equal(scale, scale2)
        np.testing.assert_array_equal(zero, zero2)
        np.testing.assert_array_equal(q, q2)

    def test_bytes_per_row(self):
        assert quant_bytes_per_row(64, "int8") == 72
        assert quant_bytes_per_row(64, "fp16") == 128
        assert quant_bytes_per_row(64, None) == 256
        assert quant_bytes_per_row(64, None, float_itemsize=8) == 512
        # The 0.30× int8 gate needs dim >= 40: (dim+8)/(4*dim).
        assert quant_bytes_per_row(64, "int8") / quant_bytes_per_row(64, None) < 0.30

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="quantize"):
            quantize_rows(_table(4, 4), "int4")
        with pytest.raises(ValueError, match="quantize"):
            make_store(_table(4, 4), quantize="int4")


# ---------------------------------------------------------------------------
# QuantizedStore wrapper semantics
# ---------------------------------------------------------------------------
class TestQuantizedStore:
    def test_construction_guards(self):
        store = DenseStore(_table())
        with pytest.raises(ValueError, match="one mode per table"):
            QuantizedStore(QuantizedStore(store, "int8"), "int8")
        with pytest.raises(ValueError, match="on top"):
            QuantizedStore(LRUCachedStore(DenseStore(_table()), 8), "int8")
        with pytest.raises(ValueError, match="mode"):
            QuantizedStore(DenseStore(_table()), None)

    @pytest.mark.parametrize("mode", ["int8", "fp16"])
    def test_no_grad_gather_matches_codec(self, mode):
        values = _table()
        qs = QuantizedStore(DenseStore(values.copy()), mode)
        q, scale, zero = quantize_rows(values, mode)
        ids = np.array([3, 0, 40, 3, 17])
        with no_grad():
            got = qs.gather(ids).data
        want = dequantize_rows(q[ids], None if scale is None else scale[ids],
                               None if zero is None else zero[ids],
                               dtype=np.float64)
        np.testing.assert_array_equal(got, want)

    def test_grad_reads_bypass_to_master(self):
        values = _table()
        qs = QuantizedStore(DenseStore(values.copy()), "int8")
        out = qs.gather(np.arange(10))  # grad enabled by default
        np.testing.assert_array_equal(out.data, values[:10])
        assert out.requires_grad  # the master's differentiable gather
        full = qs.all()
        np.testing.assert_array_equal(full.data, values)
        assert full is qs.inner.all()  # dense master hands out the Parameter

    def test_version_bump_resyncs_shadow(self):
        values = _table()
        qs = QuantizedStore(DenseStore(values.copy()), "int8")
        with no_grad():
            before = qs.gather(np.arange(5)).data.copy()
        # Optimizer-style in-place update: mutate data, bump the version.
        param = qs.named_parameters()[0][1]
        param.data[:] = param.data * 2.0
        param.bump_version()
        with no_grad():
            after = qs.gather(np.arange(5)).data
        np.testing.assert_array_equal(after, before * 2.0)

    @pytest.mark.parametrize("mode", ["int8", "fp16"])
    def test_assign_rows_matches_full_rebuild(self, mode):
        values = _table()
        qs = QuantizedStore(DenseStore(values.copy()), mode)
        new = _table(seed=7)[:4] * 13.0  # fresh scale range per row
        qs.assign_rows([1, 5, 9, 40], new)
        fresh = QuantizedStore(DenseStore(qs.logical_state()), mode)
        with no_grad():
            got = qs.gather(np.arange(41)).data
            want = fresh.gather(np.arange(41)).data
        np.testing.assert_array_equal(got, want)

    def test_assign_requantised_write_is_idempotent(self):
        qs = QuantizedStore(DenseStore(_table()), "int8")
        with no_grad():
            deq = qs.gather(np.arange(41)).data.copy()
        before = (qs._q.copy(), qs._scale.copy(), qs._zero.copy())
        qs.assign_rows(np.arange(41), deq)  # write back what the tier serves
        np.testing.assert_array_equal(qs._q, before[0])
        np.testing.assert_array_equal(qs._scale, before[1])
        np.testing.assert_array_equal(qs._zero, before[2])

    def test_compute_dtype_follows_scope(self):
        values = _table()
        qs = QuantizedStore(DenseStore(values.copy()), "int8")
        with dtype_scope(np.float32), no_grad():
            out32 = qs.gather(np.arange(6)).data
        with no_grad():
            out64 = qs.gather(np.arange(6)).data
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        # Same codes either way; each output dtype runs the shared codec
        # at that precision (side scalars pre-cast, one multiply-add).
        q, scale, zero = quantize_rows(values, "int8")
        np.testing.assert_array_equal(
            out32, dequantize_rows(q[:6], scale[:6], zero[:6], dtype=np.float32)
        )
        np.testing.assert_array_equal(
            out64, dequantize_rows(q[:6], scale[:6], zero[:6], dtype=np.float64)
        )

    def test_checkpoint_state_is_canonical_float(self):
        values = _table()
        qs = QuantizedStore(DenseStore(values.copy()), "int8")
        np.testing.assert_array_equal(qs.logical_state(), values)
        ids0, rows0 = qs.shard_rows(0)
        np.testing.assert_array_equal(rows0, values[ids0])

    def test_stats_report_tier_bytes(self):
        values = _table(rows=50, dim=64)
        qs = QuantizedStore(DenseStore(values.copy()), "int8")
        snap = qs.stats_snapshot()
        assert snap["quant_mode"] == "int8"
        assert snap["resident_bytes"] == 50 * 64 + 50 * 8
        assert snap["inner"]["resident_bytes"] == values.nbytes
        ratio = snap["resident_bytes"] / (50 * 64 * 4)  # vs float32 master
        assert ratio <= 0.30


# ---------------------------------------------------------------------------
# make_store / model thread-through
# ---------------------------------------------------------------------------
class TestThreadThrough:
    def test_make_store_wraps_each_layout(self, closing):
        dense = make_store(_table(), quantize="fp16")
        assert isinstance(dense, QuantizedStore)
        assert isinstance(dense.inner, DenseStore)
        # The sharded layout quantises inside its workers: no wrapper.
        sharded = closing(make_store(_table(), n_shards=3, quantize="int8"))
        assert isinstance(sharded, ProcessShardedStore)
        assert sharded.quantize == "int8" and sharded.n_shards == 3
        plain = make_store(_table())
        assert isinstance(plain, DenseStore)  # quantize=None: no wrapper

    def test_embedding_and_config_knobs(self):
        emb = Embedding(12, 48, seed=0, quantize="int8")
        assert isinstance(emb.store, QuantizedStore)
        cfg = MGBRConfig(d=8, gcn_layers=1, embedding_quantize="fp16")
        with pytest.raises(ValueError, match="embedding_quantize"):
            MGBRConfig(d=8, embedding_quantize="int4")
        assert cfg.embedding_quantize == "fp16"

    def test_mgbr_quantized_scores_close_to_float(self, tiny_dataset, small_config):
        import dataclasses
        qcfg = dataclasses.replace(small_config, embedding_quantize="int8")
        base = MGBR(tiny_dataset.train, tiny_dataset.n_users,
                    tiny_dataset.n_items, config=small_config)
        quant = MGBR(tiny_dataset.train, tiny_dataset.n_users,
                     tiny_dataset.n_items, config=qcfg)
        quant.load_state_dict(base.state_dict())
        stores = list(iter_stores(quant))
        assert stores and all(isinstance(s, QuantizedStore) for _, s in stores)
        request = [("a", 0, [0, 1, 2])]
        (want,) = direct_scores(base, request)
        (got,) = direct_scores(quant, request)
        np.testing.assert_allclose(got, want, atol=0.05)

    def test_gbmf_quantized_routes_scoring_through_store(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=48,
                     seed=4, quantize="int8")
        assert model._sharded  # wrapped stores hand the scoring paths stores
        request = [("a", 0, [0, 1, 2])]
        (ticket,), _ = serve_together(model, request)
        scores = ticket.scores
        assert np.isfinite(scores).all()
        np.testing.assert_array_equal(scores, direct_scores(model, request)[0])
        ref = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=48, seed=4)
        (want,) = direct_scores(ref, request)
        np.testing.assert_allclose(scores, want, atol=1e-2)


# ---------------------------------------------------------------------------
# LRU stacking: quantised payloads
# ---------------------------------------------------------------------------
class TestLRUStacking:
    @pytest.mark.parametrize("mode", ["int8", "fp16"])
    def test_hits_bit_identical_to_misses(self, mode):
        qs = make_store(_table(), quantize=mode)
        lru = LRUCachedStore(qs, capacity=64)
        ids = np.array([5, 1, 5, 30, 1])
        with no_grad():
            miss = lru.gather(ids).data.copy()
            hit = lru.gather(ids).data
            direct = qs.gather(ids).data
        np.testing.assert_array_equal(miss, hit)
        np.testing.assert_array_equal(hit, direct)
        snap = lru.stats_snapshot()
        assert snap["cache_hits"] == 3 and snap["cache_misses"] == 3

    def test_cache_holds_quantised_bytes(self):
        values = _table(rows=40, dim=64)
        lru_q = LRUCachedStore(make_store(values, quantize="int8"), capacity=100)
        lru_f = LRUCachedStore(DenseStore(values.copy()), capacity=100)
        with no_grad():
            lru_q.gather(np.arange(40))
            lru_f.gather(np.arange(40))
        qbytes = lru_q.resident_nbytes()
        fbytes = lru_f.resident_nbytes()
        assert qbytes == 40 * (64 + 8)  # codes + two f32 side scalars/row
        assert fbytes == 40 * 64 * 8    # float64 row copies
        assert qbytes / (40 * 64 * 4) <= 0.30  # the int8 gate vs float32
        # Eviction and invalidation keep the ledger exact.
        with no_grad():
            lru_q.gather([0])
        assert lru_q.resident_nbytes() == 40 * (64 + 8)
        lru_q.assign_rows([0], values[:1])
        assert lru_q.resident_nbytes() == 0

    def test_warm_hit_path_is_allocation_free(self):
        """A warm planned gather dequantises payload rows straight into
        the output block the planned scoring path adopts: the counting backend
        sees zero coercion copies."""
        qs = make_store(_table(rows=60, dim=32, seed=2), quantize="int8")
        lru = LRUCachedStore(qs, capacity=64)
        ids = np.arange(0, 60, 2)  # sorted-unique: the planned fast path
        with no_grad():
            lru.gather(ids)  # warm
            counting = CountingBackend()
            with backend_scope(counting):
                out = lru.gather(ids)
            assert counting.copies == 0
            np.testing.assert_array_equal(out.data, qs.gather(ids).data)

    def test_planned_scoring_copy_free_through_model(self, tiny_dataset):
        from repro.store.lru import cache_hot_rows
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=48,
                     seed=4, quantize="int8")
        cache_hot_rows(model, capacity=64)
        users = np.array([0, 3, 5], dtype=np.int64)
        items = np.array([1, 2, 4], dtype=np.int64)
        plan = ScoringPlan.from_item_pairs(users, items)
        store = model.initiator_table.store
        with no_grad():
            store.gather(plan.unique_users)  # warm
            counting = CountingBackend()
            with backend_scope(counting):
                store.gather(plan.unique_users)
            assert counting.copies == 0

    def test_eviction_accounting_under_quantised_payloads(self):
        lru = LRUCachedStore(make_store(_table(rows=30, dim=16), quantize="int8"),
                             capacity=10)
        with no_grad():
            lru.gather(np.arange(30))
        snap = lru.stats_snapshot()
        assert snap["cache_rows"] == 10
        assert snap["cache_evictions"] == 20
        assert lru.resident_nbytes() == 10 * (16 + 8)


# ---------------------------------------------------------------------------
# Layout parity
# ---------------------------------------------------------------------------
class TestLayoutParity:
    @pytest.mark.parametrize("mode", ["int8", "fp16"])
    def test_all_layouts_dequantise_bit_identically(self, mode, closing):
        values = _table(rows=53, dim=24, seed=11)
        ids = np.random.default_rng(1).integers(0, 53, size=64)
        dense = make_store(values.copy(), quantize=mode)
        sharded = closing(make_store(values.copy(), n_shards=3, quantize=mode))
        lru = LRUCachedStore(make_store(values.copy(), quantize=mode), capacity=64)
        with no_grad():
            want = dense.gather(ids).data
            # The service arena is float64 (the store dtype); the codec
            # output matches the dense tier bit for bit.
            np.testing.assert_array_equal(sharded.gather(ids).data, want)
            np.testing.assert_array_equal(lru.gather(ids).data, want)
            np.testing.assert_array_equal(lru.gather(ids).data, want)  # warm


# ---------------------------------------------------------------------------
# Process-sharded quantisation
# ---------------------------------------------------------------------------
class TestServiceQuantisation:
    def test_worker_resident_bytes_shrink(self):
        values = _table(rows=64, dim=64, seed=3)
        with ProcessShardedStore(values.copy(), 2) as fstore, \
                ProcessShardedStore(values.copy(), 2, quantize="int8") as qstore:
            fsnap = fstore.stats_snapshot()
            qsnap = qstore.stats_snapshot()
            assert qsnap["quant_mode"] == "int8"
            for fw, qw in zip(fsnap["workers"], qsnap["workers"]):
                assert fw["resident_bytes"] == 32 * 64 * 8  # float64 rows
                assert qw["resident_bytes"] == 32 * (64 + 8)
                assert qw["peak_resident_bytes"] >= qw["resident_bytes"]
            # vs a float32 deployment of the same shard: still under 0.30.
            assert qsnap["workers"][0]["resident_bytes"] / (32 * 64 * 4) <= 0.30
            assert qsnap["resident_bytes"] == (
                64 * (64 + 8) + qstore._arena_nbytes()
            )

    def test_training_reads_raise(self):
        with ProcessShardedStore(_table(), 2, quantize="int8") as store:
            with pytest.raises(RuntimeError, match="inference only"):
                store.gather(np.arange(4))
            with pytest.raises(RuntimeError, match="inference only"):
                store.all()
            with no_grad():  # inference reads keep working
                assert store.gather(np.arange(4)).data.shape == (4, 48)
                assert store.all().data.shape == (41, 48)

    def test_assign_requantises_worker_side(self):
        values = _table(rows=30, dim=16, seed=5)
        with ProcessShardedStore(values.copy(), 3, quantize="int8") as store:
            new = np.full((4, 16), 2.5)
            store.assign_rows([0, 10, 20, 29], new)
            with no_grad():
                got = store.gather(np.array([0, 10, 20, 29])).data
            np.testing.assert_array_equal(got, new)  # constant rows: exact
            # Untouched rows keep their original codes.
            ref = make_store(values, quantize="int8")
            with no_grad():
                np.testing.assert_array_equal(
                    store.gather(np.array([1, 15])).data,
                    ref.gather(np.array([1, 15])).data,
                )

    def test_rebind_dtype_is_ack_only_for_quantised_workers(self):
        values = _table()
        with ProcessShardedStore(values.copy(), 2, quantize="fp16") as store:
            store.rebind_dtype(np.float32)  # payloads untouched, arena f32
            assert store._res_np.dtype == np.float32
            with no_grad(), dtype_scope(np.float32):
                out = store.gather(np.arange(5)).data
            q, _, _ = quantize_rows(values[:5], "fp16")
            np.testing.assert_array_equal(
                out, dequantize_rows(q, None, None, dtype=np.float32)
            )

    def test_restore_checkpoint_into_quantised_service(self, tiny_dataset, tmp_path):
        trained = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=48, seed=4)
        path = save_checkpoint(trained, tmp_path / "gbmf.npz", shard_files=True,
                               dtype="float32")
        serving = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=48,
                       seed=9, n_shards=2, quantize="int8")
        try:
            restore_model(serving, path, dtype="float32")
            ref = make_store(
                trained.initiator_table.store.logical_state().astype(np.float32),
                quantize="int8",
            )
            with no_grad(), dtype_scope(np.float32):
                got = serving.initiator_table.store.gather(np.arange(5)).data
                want = ref.gather(np.arange(5)).data
            np.testing.assert_array_equal(got, want)
        finally:
            for _, store in iter_stores(serving):
                store.close()


# ---------------------------------------------------------------------------
# Checkpoints through wrapper tiers
# ---------------------------------------------------------------------------
class TestCheckpoints:
    def test_shard_files_written_through_wrapper_tiers(
        self, tiny_dataset, tmp_path, closing
    ):
        model = closing(GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=48,
                             seed=4, n_shards=3, quantize="int8"))
        from repro.store.lru import cache_hot_rows
        cache_hot_rows(model, capacity=16)
        path = save_checkpoint(model, tmp_path / "wrapped.npz", shard_files=True)
        side = sorted(p.name for p in tmp_path.iterdir() if "shard" in p.name)
        assert len(side) == 9  # 3 tables × 3 shards despite the LRU wrapper
        # Restore into a dense quantised layout: values re-quantise on load.
        target = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=48,
                      seed=9, quantize="int8")
        restore_model(target, path)
        request = [("a", 0, [0, 1, 2])]
        (want,) = direct_scores(model, request)
        (got,) = direct_scores(target, request)
        np.testing.assert_array_equal(got, want)

    def test_round_trip_is_float_exact(self, tmp_path):
        values = _table()
        emb = Embedding(41, 48, seed=0, quantize="int8")
        emb.store.load_logical(values)
        path = save_checkpoint(emb, tmp_path / "emb.npz")
        fresh = Embedding(41, 48, seed=1, quantize="fp16")
        restore_model(fresh, path, strict=False)
        # Canonical float survives a quantised save → quantised load.
        np.testing.assert_array_equal(fresh.store.logical_state(), values)


# ---------------------------------------------------------------------------
# Observability across stores + engine surface
# ---------------------------------------------------------------------------
class TestResidentBytes:
    def test_every_store_reports_resident_bytes(self):
        values = _table(rows=20, dim=16)
        assert DenseStore(values.copy()).stats_snapshot()["resident_bytes"] == (
            20 * 16 * 8
        )
        lru = LRUCachedStore(DenseStore(values.copy()), 8)
        assert lru.stats_snapshot()["resident_bytes"] == 0  # empty cache
        with ProcessShardedStore(values.copy(), 2) as ps:
            snap = ps.stats_snapshot()
            assert snap["resident_bytes"] == 20 * 16 * 8 + ps._arena_nbytes()
            assert snap["arena_bytes"] == ps._arena_nbytes()

    def test_engine_stats_memory_aggregate(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=48,
                     seed=4, quantize="int8")
        with ServingEngine(model, max_delay_ms=2.0) as engine:
            engine.submit_items(0, [0, 1, 2])
            engine.drain(timeout=10.0)
            stats = engine.stats()
        memory = stats["memory"]
        n_users, n_items = tiny_dataset.n_users, tiny_dataset.n_items
        want = {
            "initiator_table": n_users, "participant_table": n_users,
            "item_table": n_items,
        }
        for name, rows in want.items():
            tier = rows * quant_bytes_per_row(48, "int8")
            master = rows * 48 * 8
            assert memory["stores"][name] == tier + master
        assert memory["resident_bytes"] == sum(memory["stores"].values())
