"""The planned scoring program: golden scores, returned scores, serving.

Every planned scoring call runs one program on the autograd tape.
Under test:

* at float64 every MGBR ablation variant, every baseline and the small
  MGBR / GBMF profiles (dense and process-sharded tables) score the
  fixed plans of ``tests/golden_scores.py`` to the stored goldens byte
  for byte, and each call counts one ``tape_calls``;
* returned scores and cross-call caches stay put across later calls,
  a dtype switch leaves no stale state, and out-of-range ids raise;
* the serving engines return the direct planned scores and count the
  planned calls each flush made.
"""

import numpy as np
import pytest

from repro.baselines.gbmf import GBMF
from repro.core import MGBR, MGBRConfig
from repro.core.variants import VARIANTS
from repro.eval.protocol import EvalProtocol
from repro.nn import no_grad
from repro.nn.tensor import dtype_scope
from repro.plan import ScoringPlan
from repro.serving.engine import ServingEngine
from repro.serving.multi import MultiWorkerEngine
from tests import golden_scores as golden


# ----------------------------------------------------------------------
# Model builders + plan fixtures
# ----------------------------------------------------------------------
def _mgbr(dataset, shards=0, seed=3):
    config = MGBRConfig.small(
        d=8, n_experts=2, mtl_layers=2, embedding_shards=shards
    )
    return MGBR(dataset.train, dataset.n_users, dataset.n_items,
                config=config, seed=seed)


def _gbmf(dataset, shards=0, seed=3):
    return GBMF(dataset.n_users, dataset.n_items, dim=8, seed=seed,
                n_shards=shards)


def _plans(rng, dataset):
    n_u, n_i = dataset.n_users, dataset.n_items
    users = rng.integers(0, n_u, size=60)
    items = rng.integers(0, n_i, size=60)
    participants = rng.integers(0, n_u, size=60)
    return (
        ScoringPlan.from_item_pairs(users, items),
        ScoringPlan.from_triples(users, items, participants),
    )


def _assert_golden(model, dataset, case, task):
    """``model`` scores the golden plan of ``task`` to the stored bytes,
    in one counted planned call."""
    before = model.executor_stats()["tape_calls"]
    scores = golden.score(model, golden.plans(dataset)[task], task)
    want = golden.expected(case, task)
    assert scores.dtype == want.dtype == np.float64
    assert scores.tobytes() == want.tobytes()
    assert model.executor_stats()["tape_calls"] == before + 1


BASELINES = golden.BASELINES


# ----------------------------------------------------------------------
# Golden scores at float64
# ----------------------------------------------------------------------
class TestBitParity:
    @pytest.mark.parametrize("shards", [0, 2])
    @pytest.mark.parametrize("task", ["items", "participants"])
    def test_mgbr_plan_parity(self, tiny_dataset, shards, task, closing):
        model = closing(_mgbr(tiny_dataset, shards=shards))
        _assert_golden(model, tiny_dataset, "mgbr-small", task)

    @pytest.mark.parametrize("shards", [0, 3])
    @pytest.mark.parametrize("task", ["items", "participants"])
    def test_gbmf_plan_parity(self, tiny_dataset, shards, task, closing):
        model = closing(_gbmf(tiny_dataset, shards=shards))
        _assert_golden(model, tiny_dataset, "gbmf", task)

    @pytest.mark.parametrize("task", ["items", "participants"])
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_variant_plan_parity(self, tiny_dataset, name, task):
        """Every ablation variant scores its goldens bit for bit."""
        model = golden.build_model(name, tiny_dataset, dim=8, seed=3)
        _assert_golden(model, tiny_dataset, f"model/{name}", task)

    @pytest.mark.parametrize("task", ["items", "participants"])
    @pytest.mark.parametrize("name", BASELINES)
    def test_baseline_plan_parity(self, tiny_dataset, name, task):
        """Each baseline's plan scorer (EATNN's own Task-B hook included)."""
        model = golden.build_model(name, tiny_dataset, dim=8, seed=3)
        _assert_golden(model, tiny_dataset, f"model/{name}", task)

    def test_float32_scope_stays_close(self, tiny_dataset):
        model = _mgbr(tiny_dataset)
        plan = golden.plans(tiny_dataset)["items"]
        with dtype_scope("float32"):
            scores = golden.score(model, plan, "items")
        model.invalidate_cache()
        np.testing.assert_allclose(
            scores, golden.expected("mgbr-small", "items"), rtol=1e-5, atol=1e-6
        )


# ----------------------------------------------------------------------
# Returned scores and cross-call state
# ----------------------------------------------------------------------
class TestWorkspaceReuse:
    def test_dtype_switch_invalidates(self, tiny_dataset):
        """A float32 call between two float64 calls leaves no stale
        state behind: the float64 scores still match the goldens."""
        model = _mgbr(tiny_dataset)
        plan = golden.plans(tiny_dataset)["items"]
        want = golden.expected("mgbr-small", "items").tobytes()
        assert golden.score(model, plan, "items").tobytes() == want
        with dtype_scope("float32"):
            assert golden.score(model, plan, "items").tobytes() != want
        model.invalidate_cache()
        assert golden.score(model, plan, "items").tobytes() == want

    def test_results_detached_from_workspace(self, tiny_dataset, rng):
        # The first result must not be overwritten by a later call.
        model = _mgbr(tiny_dataset)
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad():
            first = model.score_item_plan(plan)
            snapshot = first.copy()
            users = rng.integers(0, tiny_dataset.n_users, size=60)
            items = rng.integers(0, tiny_dataset.n_items, size=60)
            model.score_item_plan(ScoringPlan.from_item_pairs(users, items))
        np.testing.assert_array_equal(first, snapshot)

    @pytest.mark.parametrize("build", [_mgbr, _gbmf])
    def test_out_of_range_ids_raise_and_results_stay_put(self, tiny_dataset, build, score_matrix):
        """Entity gathers stay bounds-checked (no silent clipping), and
        returned scores never alias buffers a later call writes."""
        model = build(tiny_dataset)
        n_u, n_i = tiny_dataset.n_users, tiny_dataset.n_items
        users, items = np.array([0, 1, 2]), np.array([[0, 1], [1, 2], [2, 0]])
        with no_grad():
            with pytest.raises(IndexError):
                score_matrix(model, users, np.array([[0, n_i], [1, 2], [2, 0]]))
            with pytest.raises(IndexError):
                score_matrix(model, np.array([0, n_u, 2]), items)
            with pytest.raises(IndexError):
                # n_users itself is the planned mean-participant sentinel.
                score_matrix(
                    model, users, np.array([[0, n_u + 1], [1, 2], [2, 0]]), np.array([0, 1, 2])
                )
            with pytest.raises(IndexError):
                model.score_item_plan(ScoringPlan.from_item_pairs([0, 1], [1, n_i]))
            first = model.score_item_plan(ScoringPlan.from_item_pairs([0, 1, 2], [0, 1, 2]))
            second = model.score_item_plan(ScoringPlan.from_item_pairs([3, 4, 5], [2, 1, 0]))
            kept = first.copy(), second.copy()
            model.score_item_plan(ScoringPlan.from_item_pairs([6, 7, 8], [1, 2, 0]))
        np.testing.assert_array_equal(first, kept[0])
        np.testing.assert_array_equal(second, kept[1])

    def test_cross_call_caches_survive_repeat_runs(self, tiny_dataset, score_matrix):
        """The lazily built mean-participant row outlives the call that
        builds it: later calls must never overwrite it, and repeated
        scoring and evaluation runs agree exactly."""
        model = _mgbr(tiny_dataset)
        users = np.arange(6)
        cands = np.arange(12).reshape(6, 2) % tiny_dataset.n_items
        with no_grad():
            model.refresh_cache()
            bundle = model._bundle()
            first = score_matrix(model, users, cands)
            mean = bundle.mean_participant().data.copy()
            second = score_matrix(model, users, cands)
            assert model._bundle() is bundle
            assert bundle.mean_participant().data.tobytes() == mean.tobytes()
        np.testing.assert_array_equal(first, second)
        protocol = EvalProtocol(
            dataset=tiny_dataset, n_negatives=5, cutoff=5, max_instances=40
        )
        assert protocol.run(model).flat() == protocol.run(model).flat()


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------
def _direct(model, user, items=None, item=None, participants=None):
    with no_grad():
        if participants is None:
            plan = ScoringPlan.from_item_pairs([user] * len(items), items)
            return plan.scatter(model.score_item_plan(plan))
        n = len(participants)
        plan = ScoringPlan.from_triples([user] * n, [item] * n, participants)
        return plan.scatter(model.score_participant_plan(plan))


class TestServingExecutor:
    def test_served_scores_bit_identical(self, tiny_dataset):
        model = _mgbr(tiny_dataset)
        with ServingEngine(model, max_delay_ms=1.0) as engine:
            a = engine.score_items(3, [0, 1, 2, 5], timeout=5.0)
            b = engine.score_participants(3, 1, [4, 5, 6], timeout=5.0)
            stats = engine.stats()
        reference = _mgbr(tiny_dataset)
        np.testing.assert_array_equal(a, _direct(reference, 3, items=[0, 1, 2, 5]))
        np.testing.assert_array_equal(
            b, _direct(reference, 3, item=1, participants=[4, 5, 6])
        )
        assert stats["batcher"]["tape_calls"] == 2

    def test_multi_worker_parity_and_aggregation(self, tiny_dataset):
        model = _mgbr(tiny_dataset, seed=3)
        before = model.executor_stats()["tape_calls"]
        with MultiWorkerEngine(model, 2, max_delay_ms=1.0) as engine:
            scores = [
                engine.score_items(0, [0, 1, 2], timeout=5.0),
                engine.score_items(1, [0, 1, 2], timeout=5.0),
                engine.score_participants(1, 0, [2, 3], timeout=5.0),
            ]
            aggregate = engine.stats()["aggregate"]
        # Each request was scored alone: one planned call apiece.
        assert aggregate["tape_calls"] == 3
        assert model.executor_stats()["tape_calls"] - before == 3
        reference = _mgbr(tiny_dataset, seed=3)
        expected = [
            _direct(reference, 0, items=[0, 1, 2]),
            _direct(reference, 1, items=[0, 1, 2]),
            _direct(reference, 1, item=0, participants=[2, 3]),
        ]
        for got, want in zip(scores, expected):
            np.testing.assert_array_equal(got, want)
