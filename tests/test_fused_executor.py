"""The fused no-tape executor: bit-parity, fallbacks, buffer reuse.

The contract under test (see ``docs/backends.md``): with
``model.executor = "fused"`` every planned scoring call at float64 is
**bit-identical** to the tape — for the MGBR expert/gate stack and the
dot-product baselines, dense or sharded stores, via direct plan calls,
the evaluation protocol and the serving engines — while gradient
recording and unsupported model configurations transparently fall back
to the tape (counted, never wrong).  The model attribute is the only
switch: the protocol and the engines run whatever it selects and never
change it.
"""

import numpy as np
import pytest

from repro.baselines.gbmf import GBMF
from repro.core import MGBR, MGBRConfig
from repro.eval.protocol import EvalProtocol
from repro.executor import EXECUTOR_ENV, VALID_EXECUTORS, resolve_executor
from repro.nn import is_grad_enabled, no_grad
from repro.nn.tensor import dtype_scope
from repro.plan import ScoringPlan
from repro.serving.degrade import DegradationPolicy
from repro.serving.engine import ServingEngine
from repro.serving.multi import MultiWorkerEngine


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------
class TestResolveExecutor:
    def test_valid_modes(self):
        assert resolve_executor("fused") == "fused"
        assert resolve_executor("tape") == "tape"

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            resolve_executor("jit")

    def test_grad_forces_tape(self):
        assert resolve_executor("fused", grad_enabled=True) == "tape"
        assert resolve_executor("auto", grad_enabled=True) == "tape"

    def test_auto_defaults_to_fused(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert resolve_executor("auto") == "fused"

    def test_auto_reads_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "tape")
        assert resolve_executor("auto") == "tape"
        monkeypatch.setenv(EXECUTOR_ENV, "garbage")
        assert resolve_executor("auto") == "fused"

    def test_model_knob_validates(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=4, seed=0)
        with pytest.raises(ValueError):
            model.executor = "jit"
        model.executor = "tape"
        assert model.executor == "tape"
        assert "auto" in VALID_EXECUTORS


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


def _both_executors(model, plan, task):
    """Score ``plan`` fused then on the tape; return both vectors.

    Runs under ``no_grad`` — with recording on, resolution would force
    the tape regardless of the knob (tested separately below).
    """
    scorer = (
        model.score_item_plan if task == "items" else model.score_participant_plan
    )
    with no_grad():
        model.executor = "fused"
        fused = scorer(plan)
        model.executor = "tape"
        tape = scorer(plan)
    model.executor = "auto"
    return fused, tape


# ----------------------------------------------------------------------
# Bit parity at float64
# ----------------------------------------------------------------------
class TestBitParity:
    @pytest.mark.parametrize("shards", [0, 2])
    @pytest.mark.parametrize("task", ["items", "participants"])
    def test_mgbr_plan_parity(self, tiny_dataset, rng, shards, task):
        model = _mgbr(tiny_dataset, shards=shards)
        plan_items, plan_triples = _plans(rng, tiny_dataset)
        plan = plan_items if task == "items" else plan_triples
        fused, tape = _both_executors(model, plan, task)
        np.testing.assert_array_equal(fused, tape)
        stats = model.executor_stats()
        assert stats["fused_calls"] == 1 and stats["tape_calls"] == 1
        assert stats["fallbacks"] == 0

    @pytest.mark.parametrize("shards", [0, 3])
    @pytest.mark.parametrize("task", ["items", "participants"])
    def test_gbmf_plan_parity(self, tiny_dataset, rng, shards, task):
        model = _gbmf(tiny_dataset, shards=shards)
        plan_items, plan_triples = _plans(rng, tiny_dataset)
        plan = plan_items if task == "items" else plan_triples
        fused, tape = _both_executors(model, plan, task)
        np.testing.assert_array_equal(fused, tape)
        assert model.executor_stats()["fallbacks"] == 0

    @pytest.mark.parametrize("build", [_mgbr, _gbmf])
    def test_eval_metrics_executor_invariant(self, tiny_dataset, build):
        model = build(tiny_dataset)
        protocol = EvalProtocol(
            dataset=tiny_dataset, n_negatives=5, cutoff=5, max_instances=40
        )
        results = {}
        for executor in ("fused", "tape"):
            model.executor = executor
            results[executor] = protocol.run(model).flat()
            assert model.executor == executor  # run() left the knob alone
        assert results["fused"] == results["tape"]

    @pytest.mark.parametrize("executor", ["fused", "tape"])
    def test_eval_runs_on_the_model_executor(self, tiny_dataset, executor):
        model = _mgbr(tiny_dataset)
        model.executor = executor
        protocol = EvalProtocol(
            dataset=tiny_dataset, n_negatives=5, cutoff=5, max_instances=40
        )
        before = model.executor_stats()
        protocol.run(model)
        after = model.executor_stats()
        ran = after[f"{executor}_calls"] - before[f"{executor}_calls"]
        other = "tape" if executor == "fused" else "fused"
        assert ran > 0
        assert after[f"{other}_calls"] == before[f"{other}_calls"]
        assert after["fallbacks"] == before["fallbacks"]

    def test_float32_scope_stays_close(self, tiny_dataset, rng):
        model = _mgbr(tiny_dataset)
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad(), dtype_scope("float32"):
            fused, tape = _both_executors(model, plan, "items")
        model.invalidate_cache()
        np.testing.assert_allclose(fused, tape, rtol=1e-5, atol=1e-6)


# ----------------------------------------------------------------------
# Fallback paths
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_grad_recording_routes_to_tape(self, tiny_dataset, rng):
        model = _mgbr(tiny_dataset)
        model.executor = "fused"
        plan, _ = _plans(rng, tiny_dataset)
        assert is_grad_enabled()  # tests run with recording on by default
        model.score_item_plan(plan)
        stats = model.executor_stats()
        assert stats["fused_calls"] == 0
        assert stats["tape_calls"] == 1
        assert stats["fallbacks"] == 0  # resolution, not a mirror gap

    def test_overridden_hook_counts_fallback(self, tiny_dataset, rng):
        class CustomMGBR(MGBR):
            def _score_item_plan(self, emb, plan):
                return super()._score_item_plan(emb, plan)

        config = MGBRConfig.small(d=8, n_experts=2, mtl_layers=2)
        model = CustomMGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
            config=config, seed=3,
        )
        model.executor = "fused"
        plan, triples = _plans(rng, tiny_dataset)
        with no_grad():
            fused_attempt = model.score_item_plan(plan)
            stats = model.executor_stats()
            assert stats["fallbacks"] == 1 and stats["tape_calls"] == 1
            # The untouched participant hook still runs fused.
            model.score_participant_plan(triples)
            assert model.executor_stats()["fused_calls"] == 1
            # And the fallback's scores equal the reference model's tape run.
            reference = _mgbr(tiny_dataset)
            reference.executor = "tape"
            np.testing.assert_array_equal(
                fused_attempt, reference.score_item_plan(plan)
            )

    def test_overridden_baseline_hook_counts_fallback(self, tiny_dataset, rng):
        class CustomGBMF(GBMF):
            def score_items_from(self, emb, users, items, **kwargs):
                return super().score_items_from(emb, users, items, **kwargs)

        model = CustomGBMF(tiny_dataset.n_users, tiny_dataset.n_items,
                           dim=8, seed=3)
        model.executor = "fused"
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad():
            model.score_item_plan(plan)
        stats = model.executor_stats()
        assert stats["fallbacks"] == 1 and stats["fused_calls"] == 0


# ----------------------------------------------------------------------
# Buffer reuse
# ----------------------------------------------------------------------
class TestWorkspaceReuse:
    def test_repeat_flushes_hit_buffers(self, tiny_dataset, rng):
        model = _mgbr(tiny_dataset)
        model.executor = "fused"
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad():
            model.score_item_plan(plan)
            first = model.executor_stats()
            assert first["buffer_misses"] > 0 and first["buffer_hits"] == 0
            model.score_item_plan(plan)
            second = model.executor_stats()
        # Same plan shape → the whole pool is reused, no new allocations.
        assert second["buffer_misses"] == first["buffer_misses"]
        assert second["buffer_hits"] == first["buffer_misses"]
        assert second["invalidations"] == 0

    def test_dtype_switch_invalidates(self, tiny_dataset, rng):
        model = _mgbr(tiny_dataset)
        model.executor = "fused"
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad():
            model.score_item_plan(plan)
            with dtype_scope("float32"):
                model.score_item_plan(plan)
        model.invalidate_cache()
        assert model.executor_stats()["invalidations"] >= 1

    def test_results_detached_from_workspace(self, tiny_dataset, rng):
        # Two flushes reuse the same buffers; the first result must not
        # be overwritten by the second (scores are copied out).
        model = _mgbr(tiny_dataset)
        model.executor = "fused"
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad():
            first = model.score_item_plan(plan)
            snapshot = first.copy()
            users = rng.integers(0, tiny_dataset.n_users, size=60)
            items = rng.integers(0, tiny_dataset.n_items, size=60)
            model.score_item_plan(ScoringPlan.from_item_pairs(users, items))
        np.testing.assert_array_equal(first, snapshot)


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------
class TestServingExecutor:
    def _serve(self, model, executor):
        model.executor = executor
        with ServingEngine(model, max_delay_ms=1.0) as engine:
            a = engine.score_items(3, [0, 1, 2, 5], timeout=5.0)
            b = engine.score_participants(3, 1, [4, 5, 6], timeout=5.0)
            stats = engine.stats()
        return a, b, stats

    def test_served_scores_bit_identical(self, tiny_dataset):
        fused_a, fused_b, fused_stats = self._serve(_mgbr(tiny_dataset), "fused")
        tape_a, tape_b, tape_stats = self._serve(_mgbr(tiny_dataset), "tape")
        np.testing.assert_array_equal(fused_a, tape_a)
        np.testing.assert_array_equal(fused_b, tape_b)
        assert fused_stats["batcher"]["fused_calls"] == 2
        assert fused_stats["batcher"]["tape_calls"] == 0
        assert tape_stats["batcher"]["fused_calls"] == 0
        assert tape_stats["batcher"]["tape_calls"] == 2

    def test_engines_leave_model_executor_alone(self, tiny_dataset):
        modes = ("tape", "fused", "auto")
        models = [_mgbr(tiny_dataset) for _ in modes]
        for model, mode in zip(models, modes):
            model.executor = mode
        fallback = _gbmf(tiny_dataset)
        fallback.executor = "tape"
        ServingEngine(
            models[0],
            degradation=DegradationPolicy(watermark_rows=64, fallback_model=fallback),
        )
        MultiWorkerEngine(models)
        assert [model.executor for model in models] == list(modes)
        assert fallback.executor == "tape"

    def test_multi_worker_parity_and_aggregation(self, tiny_dataset):
        def replicas(executor):
            models = [_mgbr(tiny_dataset, seed=3) for _ in range(2)]
            for model in models:
                model.executor = executor
            return models

        scores = {}
        for executor in ("fused", "tape"):
            with MultiWorkerEngine(replicas(executor), max_delay_ms=1.0) as engine:
                scores[executor] = [
                    engine.score_items(0, [0, 1, 2], timeout=5.0),
                    engine.score_items(1, [0, 1, 2], timeout=5.0),
                    engine.score_participants(1, 0, [2, 3], timeout=5.0),
                ]
                aggregate = engine.stats()["aggregate"]
            key = f"{executor}_calls"
            assert aggregate[key] >= 3
            other = "tape_calls" if executor == "fused" else "fused_calls"
            assert aggregate[other] == 0
        for fused, tape in zip(scores["fused"], scores["tape"]):
            np.testing.assert_array_equal(fused, tape)
