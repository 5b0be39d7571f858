"""Tests for the ScoringPlan architecture (dedup + factorized scoring).

Covers the plan data structure itself (dedup/scatter invariants under
random duplicate patterns), the factorized expert/gate path's numerical
agreement with the dense stack across every MGBR ablation, metric parity
of the planned evaluation protocol with the historical per-instance loop
for MGBR and every baseline, and the satellite features riding on the
plan: float32 checkpoint export and pre-sampled negative pools.
"""

import numpy as np
import pytest

import repro.eval.protocol as protocol_module
from repro.baselines import GBMF, NGCF
from repro.baselines.base import GroupBuyingRecommender
from repro.core import MGBR, MGBRConfig, PlannedBatch, ScoringPlan
from repro.eval import EvalProtocol
from repro.nn.layers import Linear
from repro.nn.tensor import no_grad, tensor
from repro.training import TrainConfig, Trainer
from repro.training.checkpoint import restore_model, save_checkpoint
from tests.golden_scores import build_model


# ----------------------------------------------------------------------
# Plan construction invariants
# ----------------------------------------------------------------------
class TestPlanInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_item_plan_reconstructs_random_duplicate_patterns(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 40), rng.integers(1, 30)
        # Small id spaces force heavy duplication both within and across rows.
        users = rng.integers(0, 6, size=n)
        cands = rng.integers(0, 8, size=(n, m))
        plan = ScoringPlan.for_items(users, cands)

        # Unique pairs really are unique...
        keys = set(zip(plan.users.tolist(), plan.items.tolist()))
        assert len(keys) == plan.n_pairs
        # ...and scattering the pair ids reconstructs the full request.
        np.testing.assert_array_equal(
            plan.users[plan.scatter_index].reshape(n, m),
            np.repeat(users, m).reshape(n, m),
        )
        np.testing.assert_array_equal(
            plan.items[plan.scatter_index].reshape(n, m), cands
        )
        # Entity gather maps agree with the pair ids.
        np.testing.assert_array_equal(plan.unique_users[plan.user_pos], plan.users)
        np.testing.assert_array_equal(plan.unique_items[plan.item_pos], plan.items)
        assert plan.dedup_ratio >= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_triple_plan_reconstructs_random_duplicate_patterns(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, m = rng.integers(1, 25), rng.integers(1, 20)
        users = rng.integers(0, 5, size=n)
        items = rng.integers(0, 4, size=n)
        cands = rng.integers(0, 7, size=(n, m))
        plan = ScoringPlan.for_participants(users, items, cands)
        triples = set(
            zip(plan.users.tolist(), plan.items.tolist(), plan.participants.tolist())
        )
        assert len(triples) == plan.n_pairs
        flat_u = np.repeat(users, m)
        flat_i = np.repeat(items, m)
        np.testing.assert_array_equal(plan.users[plan.scatter_index], flat_u)
        np.testing.assert_array_equal(plan.items[plan.scatter_index], flat_i)
        np.testing.assert_array_equal(
            plan.participants[plan.scatter_index], cands.ravel()
        )
        np.testing.assert_array_equal(
            plan.unique_participants[plan.part_pos], plan.participants
        )

    def test_scatter_broadcasts_unique_scores(self):
        users = np.array([0, 0, 1])
        cands = np.array([[2, 3], [2, 3], [2, 2]])
        plan = ScoringPlan.for_items(users, cands)
        assert plan.n_pairs == 3  # (0,2), (0,3), (1,2)
        scores = np.arange(plan.n_pairs, dtype=np.float64) + 10.0
        full = plan.scatter(scores)
        assert full.shape == (3, 2)
        # Duplicate requests receive the identical score value.
        assert full[0, 0] == full[1, 0] and full[0, 1] == full[1, 1]
        assert full[2, 0] == full[2, 1]

    def test_identity_plan_keeps_flat_rows_in_order(self):
        users = np.array([0, 0, 1])
        cands = np.array([[2, 3], [2, 3], [2, 2]])
        items_plan = ScoringPlan.for_items(users, cands, dedup=False)
        triple_plan = ScoringPlan.for_participants(
            users, np.array([4, 5, 4]), cands, dedup=False
        )
        for plan in (items_plan, triple_plan):
            assert plan.scatter_index is None
            assert plan.n_pairs == plan.n_flat == 6
            np.testing.assert_array_equal(plan.users, np.repeat(users, 2))
        np.testing.assert_array_equal(items_plan.items, cands.ravel())
        np.testing.assert_array_equal(triple_plan.items, [4, 4, 5, 5, 4, 4])
        np.testing.assert_array_equal(triple_plan.participants, cands.ravel())
        scores = np.arange(6, dtype=np.float64)
        np.testing.assert_array_equal(items_plan.scatter(scores), scores.reshape(3, 2))

    def test_pair_slice_covers_plan_without_rededup(self):
        rng = np.random.default_rng(3)
        plan = ScoringPlan.for_items(
            rng.integers(0, 5, size=20), rng.integers(0, 6, size=(20, 9))
        )
        window = plan.pair_slice(slice(2, 7))
        assert window.n_pairs == min(5, plan.n_pairs - 2)
        np.testing.assert_array_equal(window.users, plan.users[2:7])
        assert window.scatter_index is None  # identity — pairs are unique
        scores = np.arange(window.n_pairs, dtype=np.float64)
        np.testing.assert_array_equal(window.scatter(scores), scores)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScoringPlan.for_items(np.arange(3), np.arange(4))
        with pytest.raises(ValueError):
            ScoringPlan.from_item_pairs(np.arange(3), np.arange(4))
        plan = ScoringPlan.from_item_pairs(np.array([1, 1]), np.array([2, 2]))
        with pytest.raises(ValueError):
            plan.scatter(np.zeros(5))

    def test_negative_ids_rejected(self):
        # A negative id would collide with a valid pair in the dedup key
        # ((1, -1) keys like (0, stride-1)) — must error, never merge.
        with pytest.raises(ValueError):
            ScoringPlan.for_items(np.array([0, 1]), np.array([[5], [-1]]))
        with pytest.raises(ValueError):
            ScoringPlan.from_triples(
                np.array([0]), np.array([-2]), np.array([1])
            )


# ----------------------------------------------------------------------
# PlannedBatch: heterogeneous training segments in one plan
# ----------------------------------------------------------------------
class TestPlannedBatch:
    def _segments(self):
        return {
            "pos": (np.array([0, 1]), np.array([3, 4]), None, (2,)),
            "neg": (
                np.array([0, 0, 1, 1]), np.array([5, 3, 4, 6]), None, (2, 2)
            ),
            "aux": (
                np.array([0, 0, 1, 1]), np.array([3, 3, 4, 4]),
                np.array([2, 7, 2, 7]), (2, 2),
            ),
        }

    def test_mixed_segments_reconstruct_ids(self):
        batch = PlannedBatch.build(self._segments(), sentinel=9)
        plan = batch.plan
        assert plan.is_triple
        # The sentinel fills the pair segments and sorts last among the
        # unique participants.
        assert plan.unique_participants[-1] == 9
        flat_u = batch.scatter(plan.users)
        flat_i = batch.scatter(plan.items)
        flat_p = batch.scatter(plan.participants)
        np.testing.assert_array_equal(batch.take(flat_u, "pos"), [0, 1])
        np.testing.assert_array_equal(batch.take(flat_i, "neg"), [[5, 3], [4, 6]])
        np.testing.assert_array_equal(batch.take(flat_p, "aux"), [[2, 7], [2, 7]])
        np.testing.assert_array_equal(batch.take(flat_p, "pos"), [9, 9])
        # Duplicate (u, i, p) requests collapse: aux repeats (0,3,2) etc.
        assert plan.n_pairs < batch.n_flat

    def test_all_pair_segments_build_pair_plan(self):
        segments = {
            "pos": (np.array([0, 1]), np.array([1, 1]), None, (2,)),
            "neg": (np.array([0, 1]), np.array([2, 2]), None, (2,)),
        }
        batch = PlannedBatch.build(segments)  # no sentinel needed
        assert not batch.plan.is_triple
        assert batch.plan.participants is None

    def test_scatter_and_take_work_on_tensors(self):
        batch = PlannedBatch.build(self._segments(), sentinel=9)
        scores = tensor(
            np.arange(batch.plan.n_pairs, dtype=np.float64), requires_grad=True
        )
        flat = batch.scatter(scores)
        neg = batch.take(flat, "neg")
        assert neg.shape == (2, 2)
        neg.sum().backward()
        # Every unique request referenced by the neg segment got grad 1.
        assert scores.grad is not None and scores.grad.sum() == 4.0
        np.testing.assert_array_equal(
            neg.data, batch.scatter(scores.data.copy())[
                batch.segments["neg"][0]: batch.segments["neg"][0] + 4
            ].reshape(2, 2),
        )

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            PlannedBatch.build({})
        with pytest.raises(ValueError):  # mixed segments without sentinel
            PlannedBatch.build({
                "a": (np.array([0]), np.array([1]), None, (1,)),
                "b": (np.array([0]), np.array([1]), np.array([2]), (1,)),
            })
        with pytest.raises(ValueError):  # length != prod(shape)
            PlannedBatch.build({
                "a": (np.array([0, 1]), np.array([1, 2]), None, (3,)),
            })
        with pytest.raises(ValueError):  # participants shape mismatch
            PlannedBatch.build({
                "a": (np.array([0, 1]), np.array([1, 2]), np.array([3]), (2,)),
            })


# ----------------------------------------------------------------------
# Auto dedup: each model picks its own scoring path
# ----------------------------------------------------------------------
def _flat_items(model, users, cands):
    """Flat reference: every (instance × candidate) row scored directly."""
    scores = model.score_items_from(
        model._bundle(), np.repeat(users, cands.shape[1]), cands.ravel(), raw=True
    )
    return np.asarray(scores.data, dtype=np.float64).reshape(cands.shape)


def _flat_participants(model, users, items, pcands):
    n_list = pcands.shape[1]
    scores = model.score_participants_from(
        model._bundle(), np.repeat(users, n_list), np.repeat(items, n_list),
        pcands.ravel(), raw=True,
    )
    return np.asarray(scores.data, dtype=np.float64).reshape(pcands.shape)


class TestAutoDedup:
    """Every model evaluates through plans; only the joint expert/gate
    stack dedups them and trains on the planned step."""

    @pytest.mark.parametrize(
        "name", ["MGBR", "GBMF", "DeepMF", "NGCF", "DiffNet", "EATNN", "GBGCN"]
    )
    def test_each_model_takes_its_path(self, tiny_dataset, monkeypatch, name):
        model = build_model(name, tiny_dataset, dim=8, seed=2)
        planned = name == "MGBR"
        assert model._plans_scoring is planned

        # Evaluation: every model makes planned calls; MGBR's plans
        # dedup, the baselines' are identity plans over the flat rows.
        plans = []
        candidate_plan = GroupBuyingRecommender._candidate_plan

        def spy_plan(self, *args):
            plans.append(candidate_plan(self, *args))
            return plans[-1]

        monkeypatch.setattr(GroupBuyingRecommender, "_candidate_plan", spy_plan)
        before = model.executor_stats()["tape_calls"]
        EvalProtocol(tiny_dataset, n_negatives=5, cutoff=5, max_instances=10).run(model)
        assert model.executor_stats()["tape_calls"] - before > 0
        assert [plan.is_triple for plan in plans] == [False, True]
        for plan in plans:
            if planned:
                assert plan.scatter_index is not None
            else:
                assert plan.scatter_index is None
                assert plan.n_pairs == plan.n_flat

        # Training: one step takes exactly one of the two loss builders.
        steps = []
        for step in ("_flat_losses", "_planned_losses"):
            original = getattr(Trainer, step)

            def spy(self, *args, _step=step, _original=original):
                steps.append(_step)
                return _original(self, *args)

            monkeypatch.setattr(Trainer, step, spy)
        config = TrainConfig(
            epochs=1, batch_size=16, train_negatives=2, aux_negatives=3,
            learning_rate=5e-3, seed=0,
        )
        trainer = Trainer(model, tiny_dataset, config)
        pair = next(iter(trainer._paired_batches()))
        trainer._step(pair["a"], pair["b"])
        assert steps == ["_planned_losses" if planned else "_flat_losses"]

    def test_protocol_auto_matches_loop_for_both_models(self, tiny_dataset, tiny_mgbr):
        protocol = EvalProtocol(tiny_dataset, n_negatives=9, cutoff=10, max_instances=30)
        gbmf = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=2)
        for model in (gbmf, tiny_mgbr):
            assert protocol.run(model).flat() == (
                protocol.run_per_instance(model).flat()
            )

    def test_matrix_scorer_auto_matches_forced_paths(self, tiny_dataset, tiny_mgbr, score_matrix):
        rng = np.random.default_rng(5)
        users = rng.integers(0, tiny_dataset.n_users, size=7)
        cands = rng.integers(0, tiny_dataset.n_items, size=(7, 5))
        with no_grad():
            tiny_mgbr.refresh_cache()
            auto = score_matrix(tiny_mgbr, users, cands)
            plan = ScoringPlan.for_items(users, cands)
            forced = plan.scatter(tiny_mgbr.score_item_plan(plan))
            flat = _flat_items(tiny_mgbr, users, cands)
        np.testing.assert_array_equal(auto, forced)
        np.testing.assert_allclose(auto, flat, rtol=1e-10, atol=1e-12)


# ----------------------------------------------------------------------
# Joint planned logits: both towers from one mixed plan
# ----------------------------------------------------------------------
class TestJointPlannedLogits:
    def test_joint_matches_flat_scorers_on_mixed_plan(self, tiny_dataset, small_config):
        model = MGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
            config=small_config,
        )
        emb = model.compute_embeddings()
        rng = np.random.default_rng(11)
        u = rng.integers(0, tiny_dataset.n_users, size=6)
        i = rng.integers(0, tiny_dataset.n_items, size=6)
        p = rng.integers(0, tiny_dataset.n_users, size=6)
        batch = PlannedBatch.build(
            {
                "pairs": (u, i, None, (6,)),       # mean-participant slot
                "triples": (u, i, p, (6,)),        # explicit participants
            },
            sentinel=model.mean_participant_id,
        )
        logits_a, logits_b = model.planned_joint_logits(emb, batch.plan)
        flat_a = batch.scatter(logits_a)
        flat_b = batch.scatter(logits_b)
        ref_pairs = model.score_items_from(emb, u, i, raw=True)
        ref_triples_a = model.score_items_from(emb, u, i, participants=p, raw=True)
        ref_b = model.score_participants_from(emb, u, i, p, raw=True)
        np.testing.assert_allclose(
            batch.take(flat_a, "pairs").data, ref_pairs.data, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            batch.take(flat_a, "triples").data, ref_triples_a.data,
            rtol=1e-10, atol=1e-12,
        )
        np.testing.assert_allclose(
            batch.take(flat_b, "triples").data, ref_b.data, rtol=1e-10, atol=1e-12
        )

    def test_gradients_flow_through_joint_plan(self, tiny_dataset, small_config):
        model = MGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
            config=small_config,
        )
        emb = model.compute_embeddings()
        batch = PlannedBatch.build(
            {"pairs": (np.array([0, 1, 0]), np.array([2, 3, 2]), None, (3,))},
            sentinel=model.mean_participant_id,
        )
        logits_a, logits_b = model.planned_joint_logits(emb, batch.plan)
        (batch.scatter(logits_a).sum() + batch.scatter(logits_b).sum()).backward()
        grads = [p.grad is not None for p in model.parameters()]
        # Everything except the final layer's unused shared-gate
        # projection (whose g_s output is discarded) receives gradient —
        # identical to the dense path's coverage.
        assert sum(grads) >= len(grads) - 1
VARIANT_CONFIGS = {
    "full": dict(),
    "compact_first_layer": dict(first_layer_compact=True),
    "no_shared_experts": dict(use_shared_experts=False),
    "no_adjusted_gates": dict(use_adjusted_gates=False),
    "single_layer": dict(mtl_layers=1),
    "no_softmax": dict(gate_softmax=False),
}


class TestFactorizedParity:
    @pytest.mark.parametrize("name", sorted(VARIANT_CONFIGS))
    def test_planned_matches_dense_scores(self, tiny_dataset, name, score_matrix):
        base = dict(d=8, n_experts=2, mtl_layers=2, seed=5)
        base.update(VARIANT_CONFIGS[name])
        config = MGBRConfig.small(**base)
        model = MGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items, config=config
        ).eval()
        rng = np.random.default_rng(7)
        users = rng.integers(0, tiny_dataset.n_users, size=9)
        cands = rng.integers(0, tiny_dataset.n_items, size=(9, 6))
        cands[:, 4] = cands[:, 1]  # forced duplicates
        items = rng.integers(0, tiny_dataset.n_items, size=9)
        pcands = rng.integers(0, tiny_dataset.n_users, size=(9, 6))
        with no_grad():
            model.refresh_cache()
            dense_a = _flat_items(model, users, cands)
            planned_a = score_matrix(model, users, cands)
            dense_b = _flat_participants(model, users, items, pcands)
            planned_b = score_matrix(model, users, pcands, items)
        np.testing.assert_allclose(planned_a, dense_a, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(planned_b, dense_b, rtol=1e-10, atol=1e-12)

    def test_linear_project_blocks_rejects_bias(self):
        layer = Linear(4, 2, bias=True, seed=0)
        with pytest.raises(ValueError):
            layer.project_blocks(tensor(np.zeros((1, 2))), [(0, 2)])

    def test_linear_project_blocks_rejects_mismatched_widths(self):
        layer = Linear(4, 2, bias=False, seed=0)
        x = tensor(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            layer.project_blocks(x, [(0, 3), (3, 4)])  # widths 3 and 1
        with pytest.raises(ValueError):
            layer.project_blocks(x, [(0, 2)])  # width 2 != input width 3

    def test_linear_project_blocks_folds_duplicated_input(self):
        layer = Linear(6, 2, bias=False, seed=1)
        x = np.random.default_rng(0).normal(size=(5, 3))
        full = layer(tensor(np.concatenate([x, x], axis=1)))
        folded = layer.project_blocks(tensor(x), [(0, 3), (3, 6)])
        np.testing.assert_allclose(folded.data, full.data, rtol=1e-12)


# ----------------------------------------------------------------------
# Protocol-level parity: planned run == per-instance reference loop
# ----------------------------------------------------------------------
class TestProtocolParity:
    def test_mgbr_planned_bit_identical_metrics(self, tiny_dataset, tiny_mgbr):
        protocol = EvalProtocol(tiny_dataset, n_negatives=9, cutoff=10, max_instances=40)
        assert tiny_mgbr._plans_scoring  # MGBR evaluates on the planned path
        assert protocol.run(tiny_mgbr).flat() == (
            protocol.run_per_instance(tiny_mgbr).flat()
        )

    def test_mgbr_planned_parity_on_1_99_lists(self, tiny_dataset, tiny_mgbr):
        protocol = EvalProtocol(tiny_dataset, n_negatives=99, cutoff=100, max_instances=10)
        assert protocol.run(tiny_mgbr).flat() == (
            protocol.run_per_instance(tiny_mgbr).flat()
        )

    @pytest.mark.parametrize("n_negatives", [9, 99], ids=["1:9", "1:99"])
    @pytest.mark.parametrize(
        "name", ["GBMF", "DeepMF", "NGCF", "DiffNet", "EATNN", "GBGCN"]
    )
    def test_baseline_identity_plans_match_flat_rows(
        self, tiny_dataset, monkeypatch, name, n_negatives
    ):
        model = build_model(name, tiny_dataset, dim=8, seed=2)
        protocol = EvalProtocol(
            tiny_dataset, n_negatives=n_negatives, cutoff=n_negatives + 1,
            max_instances=30, chunk_size=64,
        )
        matrices = []
        rank = protocol_module.ranks_of_positives

        def capture(scores):
            matrices.append(np.array(scores))
            return rank(scores)

        monkeypatch.setattr(protocol_module, "ranks_of_positives", capture)
        metrics = protocol.run(model).flat()
        assert metrics == protocol.run_per_instance(model).flat()

        task_a, task_b = protocol._candidate_lists()
        with no_grad():
            model.refresh_cache()
            flat_a = _flat_items(model, task_a["users"], task_a["candidates"])
            flat_b = _flat_participants(
                model, task_b["users"], task_b["items"], task_b["candidates"]
            )
        assert len(matrices) == 2
        assert matrices[0].tobytes() == flat_a.tobytes()
        assert matrices[1].tobytes() == flat_b.tobytes()

    def test_chunked_planned_run_matches_single_chunk(self, tiny_dataset, tiny_mgbr):
        kwargs = dict(n_negatives=9, cutoff=10, max_instances=30)
        small = EvalProtocol(tiny_dataset, chunk_size=13, **kwargs).run(tiny_mgbr)
        large = EvalProtocol(tiny_dataset, chunk_size=100_000, **kwargs).run(tiny_mgbr)
        assert small.flat() == large.flat()


# ----------------------------------------------------------------------
# Satellite: float32 checkpoint export
# ----------------------------------------------------------------------
class TestCheckpointDtype:
    def test_float32_round_trip(self, tiny_dataset, small_config, tmp_path, score_matrix):
        model = MGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
            config=small_config,
        )
        path = save_checkpoint(model, tmp_path / "ckpt", dtype="float32")
        meta = restore_model(model, path, dtype="float32")
        assert meta["dtype"] == "float32"
        dtypes = {p.data.dtype for p in model.parameters()}
        assert dtypes == {np.dtype(np.float32)}
        # A float32-weight model still scores (serving path).
        with no_grad():
            model.invalidate_cache()
            scores = score_matrix(model, np.array([0, 1]), np.array([[0, 1], [2, 3]]))
        assert scores.shape == (2, 2)

    def test_default_restore_keeps_float64_training_state(
        self, tiny_dataset, small_config, tmp_path
    ):
        model = MGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
            config=small_config,
        )
        reference = {k: v.copy() for k, v in model.state_dict().items()}
        path = save_checkpoint(model, tmp_path / "ckpt32", dtype="float32")
        restore_model(model, path)  # no dtype: assign into float64 buffers
        for param in model.parameters():
            assert param.data.dtype == np.float64
        # Values round-tripped through float32, so they match at f32 precision.
        for key, value in model.state_dict().items():
            np.testing.assert_allclose(value, reference[key], rtol=1e-6, atol=1e-6)

    def test_invalid_dtype_rejected(self, tiny_dataset, small_config, tmp_path):
        model = MGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
            config=small_config,
        )
        with pytest.raises(ValueError):
            save_checkpoint(model, tmp_path / "bad", dtype="float16")
