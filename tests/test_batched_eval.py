"""Tests for the batched inference engine (PR: vectorized evaluation).

Covers the batched evaluation protocol's parity with the historical
per-instance loop, the float32 inference fast path, the vectorized
ranking/sampling primitives, and the spmm adjacency caches.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import MGBR, MGBRConfig
from repro.data import NegativeSampler
from repro.eval import EvalProtocol, evaluate_model, rank_of_positive, ranks_of_positives
from repro.graph.gcn import GCN
from repro.nn import (
    dtype_scope,
    get_default_dtype,
    no_grad,
    spmm,
    tensor,
    to_csr,
    zeros,
)
from repro.utils.rng import choice_excluding_batch

from tests.gradcheck import gradcheck


class TestBatchedProtocolParity:
    def test_batched_matches_per_instance_bit_identical(self, tiny_dataset, tiny_mgbr):
        protocol = EvalProtocol(tiny_dataset, n_negatives=9, cutoff=10, max_instances=40)
        batched = protocol.run(tiny_mgbr)
        looped = protocol.run_per_instance(tiny_mgbr)
        assert batched.task_a == looped.task_a
        assert batched.task_b == looped.task_b

    def test_parity_on_1_99_lists(self, tiny_dataset, tiny_mgbr):
        protocol = EvalProtocol(tiny_dataset, n_negatives=99, cutoff=100, max_instances=10)
        assert protocol.run(tiny_mgbr).flat() == protocol.run_per_instance(tiny_mgbr).flat()

    def test_chunk_size_does_not_change_metrics(self, tiny_dataset, tiny_mgbr):
        kwargs = dict(n_negatives=9, cutoff=10, max_instances=30)
        small = EvalProtocol(tiny_dataset, chunk_size=7, **kwargs).run(tiny_mgbr)
        large = EvalProtocol(tiny_dataset, chunk_size=100_000, **kwargs).run(tiny_mgbr)
        assert small.flat() == large.flat()

    def test_float32_matches_float64_within_tolerance(self, tiny_dataset, tiny_mgbr):
        kwargs = dict(n_negatives=9, cutoff=10, max_instances=40)
        f64 = EvalProtocol(tiny_dataset, dtype="float64", **kwargs).run(tiny_mgbr)
        f32 = EvalProtocol(tiny_dataset, dtype="float32", **kwargs).run(tiny_mgbr)
        for key, value in f64.flat().items():
            assert f32.flat()[key] == pytest.approx(value, abs=0.05), key

    def test_float32_does_not_leak_into_cached_bundle(self, tiny_dataset, tiny_mgbr):
        EvalProtocol(tiny_dataset, dtype="float32", max_instances=5).run(tiny_mgbr)
        assert tiny_mgbr._cached is None  # invalidated after the f32 pass
        tiny_mgbr.refresh_cache()
        assert tiny_mgbr._cached.user.data.dtype == np.float64

    def test_invalid_protocol_options_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            EvalProtocol(tiny_dataset, chunk_size=0)
        with pytest.raises(ValueError):
            EvalProtocol(tiny_dataset, dtype="float16")

    def test_evaluate_model_forwards_dtype(self, tiny_dataset, tiny_mgbr):
        out = evaluate_model(
            tiny_mgbr, tiny_dataset, protocols=((9, 10),), max_instances=5,
            dtype="float32",
        )
        assert "@10" in out


class TestMatrixScoring:
    def test_score_items_matrix_matches_flat_logits(self, tiny_dataset, tiny_mgbr, score_matrix):
        rng = np.random.default_rng(0)
        users = rng.integers(0, tiny_dataset.n_users, size=6)
        cands = rng.integers(0, tiny_dataset.n_items, size=(6, 5))
        tiny_mgbr.refresh_cache()
        matrix = score_matrix(tiny_mgbr, users, cands)
        assert matrix.shape == (6, 5)
        bundle = tiny_mgbr._bundle()
        for row in range(6):
            flat = tiny_mgbr.score_items_from(
                bundle, np.full(5, users[row]), cands[row], raw=True
            )
            # BLAS may differ in the last ulp across batch shapes.
            np.testing.assert_allclose(matrix[row], np.asarray(flat.data), rtol=1e-12)

    def test_score_participants_matrix_matches_flat_logits(
        self, tiny_dataset, tiny_mgbr, score_matrix
    ):
        rng = np.random.default_rng(1)
        users = rng.integers(0, tiny_dataset.n_users, size=4)
        items = rng.integers(0, tiny_dataset.n_items, size=4)
        cands = rng.integers(0, tiny_dataset.n_users, size=(4, 7))
        matrix = score_matrix(tiny_mgbr, users, cands, items)
        assert matrix.shape == (4, 7)
        bundle = tiny_mgbr._bundle()
        for row in range(4):
            flat = tiny_mgbr.score_participants_from(
                bundle, np.full(7, users[row]), np.full(7, items[row]), cands[row],
                raw=True,
            )
            np.testing.assert_allclose(matrix[row], np.asarray(flat.data), rtol=1e-12)

    def test_confident_model_survives_float32_sigmoid_saturation(self, tiny_dataset):
        # A confident model's σ-probabilities all round to exactly 1.0
        # under float32, which would tie every candidate and (with the
        # pessimistic tie-break) bury the positive.  The matrix path
        # ranks on raw logits, so metrics must stay perfect.
        from repro.baselines.base import EmbeddingBundle, GroupBuyingRecommender
        from repro.nn import Embedding
        from repro.nn.tensor import Tensor

        class _Confident(GroupBuyingRecommender):
            """Inner-product oracle with huge, saturating logit scale."""

            def __init__(self, dataset):
                super().__init__(dataset.n_users, dataset.n_items)
                self.table = Embedding(2, 2, seed=0)
                rng = np.random.default_rng(5)
                self._user_items = dataset.user_items(("train", "validation", "test"))
                user = np.zeros((dataset.n_users, dataset.n_items))
                for u, items in self._user_items.items():
                    user[u, list(items)] = 1.0
                # Positives get logit 60, negatives logits in [40, 50):
                # all σ-probabilities are exactly 1.0 in float32.
                self._logits = 40.0 + 10.0 * rng.random(user.shape) + 20.0 * user

            def compute_embeddings(self):
                d = self.n_items
                return EmbeddingBundle(
                    user=Tensor(self._logits),
                    item=Tensor(np.eye(d)),
                    participant=Tensor(self._logits[:, :d]),
                )

        model = _Confident(tiny_dataset)
        result = EvalProtocol(tiny_dataset, n_negatives=9, cutoff=10, dtype="float32").run(model)
        assert result.task_a["MRR@10"] == 1.0

    def test_shape_validation(self, tiny_mgbr, score_matrix):
        with pytest.raises(ValueError):
            score_matrix(tiny_mgbr, np.arange(3), np.arange(4))
        with pytest.raises(ValueError):
            score_matrix(
                tiny_mgbr, np.arange(3), np.zeros((3, 4), dtype=np.int64), np.arange(2)
            )


class TestVectorizedRanks:
    def test_matches_scalar_rank(self, rng):
        scores = rng.normal(size=(50, 10))
        ranks = ranks_of_positives(scores)
        for row in range(50):
            assert ranks[row] == rank_of_positive(scores[row], 0)

    def test_tie_convention_is_pessimistic(self):
        scores = np.array([[0.5, 0.5, 0.1], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(ranks_of_positives(scores), [2, 3])

    def test_positive_index_respected(self, rng):
        scores = rng.normal(size=(20, 8))
        ranks = ranks_of_positives(scores, positive_index=3)
        for row in range(20):
            assert ranks[row] == rank_of_positive(scores[row], 3)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ranks_of_positives(rng.normal(size=5))
        with pytest.raises(IndexError):
            ranks_of_positives(rng.normal(size=(3, 4)), positive_index=4)


class TestBatchSampling:
    def test_shapes_and_bounds(self, rng):
        out = choice_excluding_batch(rng, 50, [{1, 2}, set(), {10}], 8)
        assert out.shape == (3, 8)
        assert out.min() >= 0 and out.max() < 50

    def test_exclusions_respected(self, rng):
        excludes = [set(range(0, 20)), {5, 7}, set(range(30, 49))]
        out = choice_excluding_batch(rng, 50, excludes, 200)
        for row, exc in enumerate(excludes):
            assert not set(out[row].tolist()) & exc

    def test_dense_exclusion_fallback(self, rng):
        # >50% excluded forces the exact complement path per row.
        excludes = [set(range(9)), set(range(1, 10))]
        out = choice_excluding_batch(rng, 10, excludes, 40)
        assert set(out[0].tolist()) == {9}
        assert set(out[1].tolist()) == {0}

    def test_nothing_left_raises(self, rng):
        with pytest.raises(ValueError):
            choice_excluding_batch(rng, 3, [set(range(3))], 2)

    def test_empty_batch(self, rng):
        assert choice_excluding_batch(rng, 5, [], 3).shape == (0, 3)

    def test_sampler_batch_extra_exclude(self, tiny_dataset):
        sampler = NegativeSampler(
            tiny_dataset, seed=0, splits=("train", "validation", "test")
        )
        users = np.array([0, 1, 2], dtype=np.int64)
        positives = np.array([3, 4, 5], dtype=np.int64)
        negs = sampler.sample_items_batch(users, 12, extra_exclude=positives)
        for row in range(3):
            assert positives[row] not in negs[row]
            owned = sampler._user_items.get(int(users[row]), set())
            assert not set(negs[row].tolist()) & owned

    def test_candidate_lists_still_exclude_positives(self, tiny_dataset):
        protocol = EvalProtocol(tiny_dataset, n_negatives=9, cutoff=10)
        lists_a, lists_b = protocol._candidate_lists()
        for row in lists_a["candidates"]:
            assert row[0] not in row[1:]
        for row in lists_b["candidates"]:
            assert row[0] not in row[1:]


class TestSpmmCache:
    def test_transpose_cached_per_adjacency(self, rng):
        a = sp.random(6, 5, density=0.5, random_state=0, format="csr")
        x = tensor(rng.normal(size=(5, 3)))
        spmm(a, x)
        cache = getattr(a, "_repro_spmm_cache")
        first = cache[np.dtype(np.float64)]
        spmm(a, x)
        assert cache[np.dtype(np.float64)][1] is first[1]  # same transpose object

    def test_cached_gradient_still_transpose_product(self, rng):
        a = sp.random(4, 3, density=0.6, random_state=2, format="csr")
        x = tensor(rng.normal(size=(3, 2)), requires_grad=True)
        spmm(a, x)  # warm the cache
        out = spmm(a, x)
        g = rng.normal(size=out.shape)
        out.backward(g)
        np.testing.assert_allclose(x.grad, a.toarray().T @ g)

    def test_gradcheck_with_cache(self, rng):
        a = sp.random(6, 5, density=0.5, random_state=1, format="csr")
        x = tensor(rng.normal(size=(5, 4)), requires_grad=True)
        assert gradcheck(lambda t: spmm(a, t), [x])

    def test_to_csr_passthrough_is_identity(self):
        a = sp.random(5, 5, density=0.4, random_state=3, format="csr")
        assert to_csr(a) is a

    def test_to_csr_casts_dtype(self):
        a = sp.identity(3, dtype=np.float32, format="csr")
        assert to_csr(a).dtype == np.float64
        assert to_csr(a, dtype=np.float32) is a

    def test_float32_scope_uses_float32_operands(self, rng):
        a = sp.random(6, 6, density=0.4, random_state=4, format="csr")
        x = tensor(rng.normal(size=(6, 2)))
        with no_grad(), dtype_scope("float32"):
            out = spmm(a, x)
            assert out.data.dtype == np.float32
        cache = getattr(a, "_repro_spmm_cache")
        assert np.dtype(np.float32) in cache


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert tensor([1.0, 2.0]).data.dtype == np.float64

    def test_dtype_scope_casts_and_restores(self):
        with dtype_scope("float32"):
            assert get_default_dtype() == np.float32
            assert tensor([1.0]).data.dtype == np.float32
            assert zeros(2, 3).data.dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with dtype_scope(np.float32):
                raise RuntimeError("boom")
        assert get_default_dtype() == np.float64

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            with dtype_scope("int32"):
                pass  # pragma: no cover

    def test_inference_mode_disables_grad(self):
        with no_grad(), dtype_scope("float32"):
            t = tensor([1.0], requires_grad=True)
            assert not t.requires_grad
            assert t.data.dtype == np.float32

    def test_ops_cast_results_inside_scope(self, rng):
        x = tensor(rng.normal(size=(3, 4)))  # float64 constant
        with dtype_scope(np.float32):
            y = (x * 2.0 + 1.0) @ tensor(rng.normal(size=(4, 2)))
            assert y.data.dtype == np.float32

    def test_parameters_stay_float64_inside_scope(self):
        from repro.nn import Linear

        with no_grad(), dtype_scope("float32"):
            layer = Linear(4, 3, seed=0)
        assert layer.weight.data.dtype == np.float64
        assert layer.weight.requires_grad

    def test_parameter_values_not_truncated_by_scope(self):
        from repro.nn import Parameter

        value = np.array([0.1234567891234567])
        with dtype_scope(np.float32):
            param = Parameter(value)
        assert param.data[0] == value[0]  # no float32 round-trip

    def test_gcn_adjacency_pinned_float64_inside_scope(self):
        adj = sp.random(6, 6, density=0.4, random_state=7, format="csr")
        with no_grad(), dtype_scope("float32"):
            gcn = GCN(6, 3, seed=0, adjacency=adj)
        assert gcn.adjacency.dtype == np.float64

    def test_nan_positive_matches_scalar_convention(self):
        scores = np.array([[np.nan, 0.5, 0.2], [1.0, 0.5, 0.2]])
        ranks = ranks_of_positives(scores)
        assert ranks[0] == rank_of_positive(scores[0], 0) == 1
        assert ranks[1] == 1

    def test_batch_sampler_ignores_out_of_range_exclusions(self, rng):
        # Out-of-range ids must not alias into a neighbour row's key
        # space (row*high+value encoding).
        out = choice_excluding_batch(rng, 10, [{12}, {2}], 500)
        assert set(out[0].tolist()) == set(range(10))  # row 0 unrestricted
        assert 2 not in out[1]

    def test_config_inference_dtype_validated(self):
        with pytest.raises(ValueError):
            MGBRConfig.small(inference_dtype="bfloat16")
        assert MGBRConfig.small(inference_dtype="float32").inference_dtype == "float32"


class TestGCNBoundAdjacency:
    def test_forward_without_argument_matches_explicit(self):
        adj = sp.random(8, 8, density=0.3, random_state=5, format="csr")
        bound = GCN(8, 4, n_layers=2, seed=0, adjacency=adj)
        free = GCN(8, 4, n_layers=2, seed=0)
        np.testing.assert_array_equal(bound().data, free(adj).data)
        np.testing.assert_array_equal(bound().data, bound(adj).data)

    def test_missing_adjacency_raises(self):
        gcn = GCN(5, 3, seed=0)
        with pytest.raises(ValueError):
            gcn()

    def test_bad_shape_rejected_at_construction(self):
        with pytest.raises(ValueError):
            GCN(5, 3, seed=0, adjacency=sp.identity(4, format="csr"))

    def test_oracle_model_uses_default_matrix_path(self, tiny_dataset):
        # A model overriding only the flat scorers inherits the batched
        # path — regression guard for duck-typed custom models.
        from tests.test_eval_protocol import _OracleModel

        result = EvalProtocol(tiny_dataset, n_negatives=9, cutoff=10).run(
            _OracleModel(tiny_dataset)
        )
        assert result.task_a["MRR@10"] == 1.0
        assert result.task_b["MRR@10"] == 1.0
