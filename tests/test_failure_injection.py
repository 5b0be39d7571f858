"""Failure-injection tests: corrupted inputs must fail loudly, not drift.

A recommender pipeline has many silent-corruption hazards (NaNs from a
degenerate graph, stale caches after parameter surgery, truncated
checkpoints).  These tests pin the failure behaviour.
"""

import threading

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.core import MGBR, MGBRConfig
from repro.data import DealGroup, GroupBuyingDataset
from repro.graph import normalized_adjacency, edges_to_adjacency
from repro.nn import Adam, tensor
from repro.training import Trainer, TrainConfig, load_checkpoint, restore_model, save_checkpoint

from serving_oracle import assert_conserved


class TestNaNPropagation:
    def test_normalization_never_produces_nan(self):
        # Isolated nodes / zero degrees must not create NaN rows.
        adj = edges_to_adjacency([], 5)  # fully disconnected
        norm = normalized_adjacency(adj, add_self_loops=False)
        assert np.all(np.isfinite(norm.toarray()))

    def test_training_detects_injected_nan(self, tiny_dataset, small_config):
        model = MGBR(tiny_dataset.train, tiny_dataset.n_users,
                     tiny_dataset.n_items, config=small_config)
        # Poison one GCN weight.
        model.encoder.gcn_ui.features.weight.data[0, 0] = np.nan
        emb = model.compute_embeddings()
        assert np.isnan(emb.user.data).any()  # NaN visibly propagates


class TestCheckpointCorruption:
    def test_truncated_file_raises(self, tmp_path, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=4, seed=0)
        path = save_checkpoint(model, tmp_path / "ok")
        data = path.read_bytes()
        bad = tmp_path / "bad.npz"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):
            load_checkpoint(bad)

    def test_wrong_shape_state_rejected(self, tmp_path, tiny_dataset):
        small = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=4, seed=0)
        path = save_checkpoint(small, tmp_path / "small")
        big = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        with pytest.raises(ValueError):
            restore_model(big, path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nowhere.npz")


class TestStaleCaches:
    def test_table_backed_cache_sees_inplace_updates(self, tiny_dataset):
        # MF caches hold *live references* to the embedding tables, so
        # optimizer-style in-place updates flow through without refresh —
        # unlike GCN models whose caches hold computed outputs (covered in
        # test_core_model::test_public_scoring_uses_cache).
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=4, seed=0)
        model.refresh_cache()
        users, items = np.array([0]), np.array([0])
        before = float(model.score_items(users, items).data[0])
        model.initiator_table.weight.data += 10.0
        after = float(model.score_items(users, items).data[0])
        assert after != before

    def test_trainer_invalidates_cache_each_step(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=4, seed=0)
        model.refresh_cache()
        trainer = Trainer(
            model, tiny_dataset,
            TrainConfig(epochs=1, batch_size=64, train_negatives=2, seed=0),
        )
        trainer.train_epoch()
        assert model._cached is None  # last step left no stale cache


class TestDegenerateDatasets:
    def test_single_item_dataset_trains(self):
        # Degenerate but legal: every group buys the same item.
        groups = [DealGroup(u, 0, ((u + 1) % 6,)) for u in range(6)] * 2
        ds = GroupBuyingDataset(n_users=6, n_items=1, train=groups)
        model = GBMF(6, 1, dim=4, seed=0)
        # Task A negative sampling is impossible (no second item):
        with pytest.raises(ValueError):
            Trainer(
                model, ds, TrainConfig(epochs=1, batch_size=4, train_negatives=1, seed=0)
            ).train_epoch()

    def test_group_with_no_participants_is_fine_for_task_a(self):
        groups = [DealGroup(u, u % 3, ()) for u in range(6)] * 2
        ds = GroupBuyingDataset(n_users=6, n_items=3, train=groups)
        from repro.data import extract_task_a, extract_task_b

        assert len(extract_task_a(ds.train)) == 12
        assert len(extract_task_b(ds.train)) == 0  # trainer would reject

    def test_optimizer_survives_zero_gradient_step(self):
        from repro.nn.module import Parameter

        p = Parameter(np.ones(3))
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        (p * tensor(np.zeros(3))).sum().backward()
        opt.step()  # gradient exactly zero: update must stay finite
        assert np.all(np.isfinite(p.data))


class _FlakyItemScorerGBMF(GBMF):
    """Task-A planned scoring explodes on every odd-numbered flush.

    Task-B scoring is untouched, so a mixed flush exercises the engine's
    failure-isolation contract under load: the poisoned task's tickets
    must fail with *this* error while co-batched Task-B tickets resolve.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.item_calls = 0

    def score_item_plan(self, plan):
        self.item_calls += 1
        if self.item_calls % 2 == 0:
            raise ValueError("injected: item scorer died mid-flush")
        return super().score_item_plan(plan)


class TestServingMidFlushFaults:
    def test_concurrent_load_with_mid_flush_model_failure(self):
        """Model raises mid-flush under concurrent submitters.

        Pinned behaviour: every ticket resolves (scores or the *real*
        injected error — never a generic "never resolved"), Task-B
        tickets co-batched with a poisoned Task-A call still score, the
        engine worker survives to serve later flushes, and the overload
        counters stay consistent (nothing shed/aborted/rejected).

        The submitters send two concurrent waves with a ``drain()``
        after each, under a deadline that never fires.  No flush spans
        two waves and each wave holds Task-A requests, so the scorer
        runs at least twice (its second call fails) however the
        threads interleave.
        """
        from repro.serving import ServingEngine

        n_users, n_items = 40, 25
        model = _FlakyItemScorerGBMF(n_users, n_items, dim=8, seed=0)
        engine = ServingEngine(model, max_delay_ms=60_000.0, max_pending=32)
        item_tickets, part_tickets = [], []
        lock = threading.Lock()

        def submitter(rng, wave):
            for k in wave:
                user = int(rng.integers(n_users))
                if k % 2 == 0:
                    t = engine.submit_items(
                        user, rng.integers(n_items, size=4).tolist()
                    )
                    with lock:
                        item_tickets.append(t)
                else:
                    t = engine.submit_participants(
                        user,
                        int(rng.integers(n_items)),
                        rng.integers(n_users, size=4).tolist(),
                    )
                    with lock:
                        part_tickets.append(t)

        rngs = [np.random.default_rng(seed) for seed in range(4)]
        with engine:
            for wave in (range(0, 15), range(15, 30)):
                threads = [
                    threading.Thread(target=submitter, args=(rng, wave))
                    for rng in rngs
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                engine.drain(timeout=30.0)
            stats = engine.stats()

        assert all(t.ready for t in item_tickets + part_tickets), "stranded"
        # Task B never co-fails with the poisoned Task-A scorer.
        for t in part_tickets:
            assert not t.failed
            assert t.scores.shape == (4,)
        # Task-A tickets either scored or carry the injected error.
        scored = [t for t in item_tickets if not t.failed]
        failed = [t for t in item_tickets if t.failed]
        for t in failed:
            with pytest.raises(ValueError, match="injected: item scorer died"):
                _ = t.scores
        assert model.item_calls >= 2  # the fault actually fired
        assert failed, "no flush hit the injected fault"
        assert scored, "no flush survived the injected fault"
        assert_conserved(stats, item_tickets + part_tickets)
        # Counter consistency: all 120 submits admitted, none shed/aborted.
        overload = stats["overload"]
        assert overload["accepted"] == 120
        assert overload["rejected"] == 0
        assert overload["shed"] == 0
        assert overload["aborted"] == 0
        assert stats["engine"]["served"] == 120

    def test_engine_keeps_serving_after_poisoned_flush(self):
        """A failed flush must not kill the worker or poison later ones."""
        from repro.serving import ServingEngine

        model = _FlakyItemScorerGBMF(40, 25, dim=8, seed=0)
        with ServingEngine(model, max_delay_ms=60_000.0) as engine:
            ok_first = engine.submit_items(0, [0, 1])
            engine.drain(timeout=10.0)            # flush 1: scores
            boom = engine.submit_items(1, [0, 1])
            engine.drain(timeout=10.0)            # flush 2: injected failure
            ok_after = engine.submit_items(2, [0, 1])
            engine.drain(timeout=10.0)            # flush 3: recovered
        assert ok_first.scores.shape == (2,)
        with pytest.raises(ValueError, match="injected"):
            _ = boom.scores
        assert ok_after.scores.shape == (2,)
