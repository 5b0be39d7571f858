"""Fused weight-block folds and their parameter-versioned cache.

Under test:

* :meth:`repro.core.experts.ExpertBank.project_blocks` computes the
  whole bank with one stacked matmul (parity against the per-expert
  loop it replaced);
* :meth:`repro.core.experts.ExpertBank.forward` runs one GEMM over the
  cached ``[W_1|…|W_K]``, byte-equal to the per-expert GEMMs, into a
  strided bank slot too, and rebuilds the stacked weight after every
  weight change;
* fold weights are cached across a step's planned calls and invalidated
  by the parameter-version bumps every in-place mutation site performs
  (``optimizer.step``, ``load_state_dict``) — the regression suite
  checks stale reads are impossible through the supported mutation
  paths and that cache reuse can never corrupt gradients.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experts import ExpertBank
from repro.nn.layers import Linear
from repro.nn.optim import SGD, Adam
from repro.nn.gradcheck import gradcheck
from repro.nn.tensor import no_grad, stack, tensor


def _bank(in_dim=6, out_dim=3, n_experts=4, seed=0):
    return ExpertBank(in_dim, out_dim, n_experts, seed=seed)


class TestFusedBankParity:
    def test_stacked_matmul_matches_per_expert_loop(self):
        """The fused bank equals the historical K-matmul loop."""
        bank = _bank()
        x = tensor(np.random.default_rng(0).normal(size=(5, 3)))
        blocks = [(0, 3), (3, 6)]
        fused = bank.project_blocks(x, blocks)
        reference = stack(
            [
                x @ (expert.weight[0:3] + expert.weight[3:6])
                for expert in bank._experts
            ],
            axis=1,
        )
        assert fused.shape == reference.shape == (5, 4, 3)
        np.testing.assert_allclose(fused.data, reference.data, rtol=0, atol=1e-12)

    def test_fused_gradients_match_per_expert_loop(self):
        bank_fused = _bank(seed=7)
        bank_loop = _bank(seed=7)
        x_data = np.random.default_rng(1).normal(size=(4, 3))
        blocks = [(0, 3), (3, 6)]

        bank_fused.project_blocks(tensor(x_data), blocks).sum().backward()
        stack(
            [
                tensor(x_data) @ (expert.weight[0:3] + expert.weight[3:6])
                for expert in bank_loop._experts
            ],
            axis=1,
        ).sum().backward()
        for fused_e, loop_e in zip(bank_fused._experts, bank_loop._experts):
            np.testing.assert_allclose(
                fused_e.weight.grad, loop_e.weight.grad, rtol=0, atol=1e-12
            )

    def test_validation_still_enforced(self):
        bank = _bank()
        with pytest.raises(ValueError, match="block widths"):
            bank.project_blocks(tensor(np.zeros((2, 3))), [(0, 2)])
        with pytest.raises(ValueError, match="at least one"):
            bank.project_blocks(tensor(np.zeros((2, 3))), [])


class TestLinearFoldCache:
    def test_cache_hit_reuses_values(self):
        layer = Linear(6, 2, bias=False, seed=0)
        key = layer.check_blocks(tensor(np.zeros((1, 3))), [(0, 3), (3, 6)])
        first = layer.folded_blocks(key)
        second = layer.folded_blocks(key)
        # Same cached value array, but *distinct* graph nodes (sharing a
        # node across graphs would double-count gradients).
        assert second.data is first.data
        assert second is not first

    @pytest.mark.parametrize(
        "make_optimizer", [lambda p: Adam([p], lr=0.1), lambda p: SGD([p], lr=0.1)],
        ids=["adam", "sgd"],
    )
    def test_optimizer_step_invalidates(self, make_optimizer):
        """The regression the cache must survive: in-place p.data mutation."""
        layer = Linear(6, 2, bias=False, seed=0)
        x = tensor(np.random.default_rng(0).normal(size=(3, 3)))
        blocks = [(0, 3), (3, 6)]
        warm = layer.project_blocks(x, blocks)
        warm.sum().backward()
        make_optimizer(layer.weight).step()
        # Recompute after the step and compare to a cache-free reference
        # built directly from the mutated weights.
        result = layer.project_blocks(x, blocks)
        expected = x.data @ (layer.weight.data[0:3] + layer.weight.data[3:6])
        np.testing.assert_array_equal(result.data, expected)

    def test_load_state_dict_invalidates(self):
        layer = Linear(4, 2, bias=False, seed=0)
        x = tensor(np.ones((1, 2)))
        blocks = [(0, 2), (2, 4)]
        with no_grad():
            before = np.array(layer.project_blocks(x, blocks).data)
            layer.load_state_dict(Linear(4, 2, bias=False, seed=99).state_dict())
            after = layer.project_blocks(x, blocks).data
        expected = x.data @ (layer.weight.data[0:2] + layer.weight.data[2:4])
        np.testing.assert_array_equal(after, expected)
        assert not np.array_equal(before, after)

    def test_bank_cache_invalidates_on_any_expert_step(self):
        bank = _bank()
        x = tensor(np.random.default_rng(2).normal(size=(2, 3)))
        blocks = [(0, 3), (3, 6)]
        bank.project_blocks(x, blocks).sum().backward()
        # Step only ONE expert's weight: the stacked fold (keyed on the
        # tuple of every expert's version) must still rebuild.
        Adam([bank._experts[1].weight], lr=0.5).step()
        result = bank.project_blocks(x, blocks)
        expected = np.stack(
            [
                x.data @ (e.weight.data[0:3] + e.weight.data[3:6])
                for e in bank._experts
            ],
            axis=1,
        )
        np.testing.assert_allclose(result.data, expected, rtol=0, atol=1e-12)

    def test_reuse_within_one_graph_accumulates_once(self):
        """Two planned calls in one step share folds, not gradients."""
        layer = Linear(4, 2, bias=False, seed=3)
        x = tensor(np.random.default_rng(3).normal(size=(2, 2)))
        blocks = [(0, 2), (2, 4)]
        # Same fold used twice in the loss (the "two planned calls" shape).
        loss = (layer.project_blocks(x, blocks) + layer.project_blocks(x, blocks)).sum()
        loss.backward()
        reference = Linear(4, 2, bias=False, seed=3)
        ref_loss = (
            x @ (reference.weight[0:2] + reference.weight[2:4]) * 2.0
        ).sum()
        ref_loss.backward()
        np.testing.assert_allclose(
            layer.weight.grad, reference.weight.grad, rtol=0, atol=1e-12
        )

    def test_sequential_graphs_each_get_fresh_nodes(self):
        """backward on graph 2 must not re-deliver graph 1's gradient."""
        layer = Linear(4, 2, bias=False, seed=5)
        x = tensor(np.ones((1, 2)))
        blocks = [(0, 2), (2, 4)]
        layer.project_blocks(x, blocks).sum().backward()
        first = layer.weight.grad.copy()
        layer.zero_grad()
        layer.project_blocks(x, blocks).sum().backward()
        np.testing.assert_array_equal(layer.weight.grad, first)

    def test_single_block_slice_semantics_unchanged(self):
        layer = Linear(4, 2, bias=False, seed=0)
        x = tensor(np.random.default_rng(4).normal(size=(3, 4)))
        with no_grad():
            np.testing.assert_array_equal(
                layer.project_blocks(x, [(0, 4)]).data, (x @ layer.weight).data
            )

    def test_version_bumps_are_monotonic(self):
        layer = Linear(2, 2, seed=0)
        v0 = layer.weight.version
        opt = Adam([layer.weight], lr=0.1)
        layer.weight.grad = np.ones_like(layer.weight.data)
        opt.step()
        assert layer.weight.version > v0
        layer.load_state_dict(layer.state_dict())
        assert layer.weight.version > v0 + 1


class TestStackedBankForward:
    """``ExpertBank.forward``: one GEMM over the cached ``[W_1|…|W_K]``."""

    @staticmethod
    def _per_expert(bank, x):
        return np.stack([x @ expert.weight.data for expert in bank._experts], axis=1)

    @pytest.mark.parametrize("shape", [(5, 6, 3, 4), (257, 96, 32, 3), (64, 48, 16, 6)])
    def test_value_byte_equal_to_per_expert_loop(self, shape):
        n, in_dim, d, k = shape
        bank = ExpertBank(in_dim, d, k, seed=1)
        x = np.random.default_rng(5).normal(size=(n, in_dim))
        expected = self._per_expert(bank, x).tobytes()
        with no_grad():
            assert bank(tensor(x)).data.tobytes() == expected
            # Into a strided slot range of a wider [a|s|b] buffer.
            buf = np.full((n, 3 * k, d), -1.0)
            out = bank(tensor(x), out=buf[:, k : 2 * k, :])
        assert out.data.base is buf
        assert np.ascontiguousarray(buf[:, k : 2 * k]).tobytes() == expected
        assert np.all(buf[:, :k] == -1.0) and np.all(buf[:, 2 * k :] == -1.0)

    @pytest.mark.parametrize("slot", [False, True])
    def test_gradcheck(self, slot):
        bank = _bank(in_dim=5, out_dim=3, n_experts=3, seed=2)
        x = tensor(np.random.default_rng(6).normal(size=(4, 5)), requires_grad=True)
        weights = [expert.weight for expert in bank._experts]

        def fn(x, *ws):
            # gradcheck perturbs weights in place; bump like any other
            # in-place mutation site so the stacked cache sees it.
            for w in ws:
                w.bump_version()
            out = np.zeros((4, 9, 3))[:, 3:6, :] if slot else None
            return bank(x, out=out)

        assert gradcheck(fn, [x, *weights])

    def test_rebuilt_after_optimizer_step(self):
        bank = _bank(seed=3)
        x = tensor(np.random.default_rng(7).normal(size=(5, 6)))
        bank(x).sum().backward()
        Adam([bank._experts[2].weight], lr=0.5).step()
        assert bank(x).data.tobytes() == self._per_expert(bank, x.data).tobytes()

    def test_rebuilt_after_load_state_dict(self):
        bank = _bank(seed=4)
        x = tensor(np.random.default_rng(8).normal(size=(5, 6)))
        with no_grad():
            before = np.array(bank(x).data)
            bank.load_state_dict(_bank(seed=99).state_dict())
            after = bank(x).data
        assert after.tobytes() == self._per_expert(bank, x.data).tobytes()
        assert not np.array_equal(before, after)
