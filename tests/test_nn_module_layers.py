"""Unit tests for the Module system and the standard layers."""

import numpy as np
import pytest

from repro.nn import MLP, Embedding, Linear, Module, Parameter, tensor
from repro.nn.layers import resolve_activation


class TestModuleRegistration:
    def test_parameters_registered_via_setattr(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.child = Linear(2, 2, seed=0)

        m = M()
        names = dict(m.named_parameters())
        assert "w" in names
        assert "child.weight" in names
        assert "child.bias" in names

    def test_parameters_deduplicated(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                shared = Parameter(np.ones(2))
                self.a = shared
                self.b = shared

        assert len(M().parameters()) == 1

    def test_num_parameters(self):
        layer = Linear(4, 3, seed=0)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_train_eval_recursive(self):
        mlp = MLP(2, [2], 2, seed=0)
        mlp.eval()
        assert all(not m.training for m in mlp.modules())
        mlp.train()
        assert all(m.training for m in mlp.modules())

    def test_zero_grad_clears_all(self):
        layer = Linear(3, 2, seed=0)
        out = layer(tensor(np.ones((4, 3)), requires_grad=True))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestStateDict:
    def test_roundtrip(self):
        src = MLP(4, [5], 2, seed=0)
        dst = MLP(4, [5], 2, seed=99)
        dst.load_state_dict(src.state_dict())
        for (_, a), (_, b) in zip(src.named_parameters(), dst.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_strict_missing_key(self):
        src = Linear(2, 2, seed=0)
        state = src.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            Linear(2, 2, seed=1).load_state_dict(state)

    def test_strict_unexpected_key(self):
        state = Linear(2, 2, seed=0).state_dict()
        state["ghost"] = np.ones(1)
        with pytest.raises(KeyError):
            Linear(2, 2, seed=1).load_state_dict(state)

    def test_non_strict_ignores_extras(self):
        state = Linear(2, 2, seed=0).state_dict()
        state["ghost"] = np.ones(1)
        Linear(2, 2, seed=1).load_state_dict(state, strict=False)

    def test_shape_mismatch_raises(self):
        state = Linear(2, 2, seed=0).state_dict()
        state["weight"] = np.ones((3, 3))
        with pytest.raises(ValueError):
            Linear(2, 2, seed=1).load_state_dict(state, strict=False)


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(4, 6, seed=0)
        out = layer(tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 6)

    def test_no_bias(self):
        layer = Linear(4, 6, bias=False, seed=0)
        assert layer.bias is None
        assert layer.num_parameters() == 24

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_gain_scales_init(self):
        small = Linear(50, 50, seed=0, gain=1.0)
        large = Linear(50, 50, seed=0, gain=4.0)
        assert large.weight.data.std() > 3 * small.weight.data.std()

    def test_deterministic_seed(self):
        a = Linear(3, 3, seed=42)
        b = Linear(3, 3, seed=42)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestEmbedding:
    def test_lookup_matches_table(self, rng):
        emb = Embedding(10, 4, seed=0)
        idx = np.array([2, 7, 2])
        np.testing.assert_array_equal(emb(idx).data, emb.weight.data[idx])

    def test_gradient_scatter(self):
        emb = Embedding(5, 3, seed=0)
        out = emb(np.array([1, 1, 4]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], [2, 2, 2])
        np.testing.assert_allclose(emb.weight.grad[0], [0, 0, 0])

    def test_all_returns_full_table(self):
        emb = Embedding(5, 3, seed=0)
        assert emb.all() is emb.weight

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Embedding(5, 0)


class TestMLP:
    def test_depth_and_shapes(self, rng):
        mlp = MLP(6, [8, 4], 2, seed=0)
        out = mlp(tensor(rng.normal(size=(5, 6))))
        assert out.shape == (5, 2)

    def test_no_hidden(self, rng):
        mlp = MLP(3, [], 1, seed=0)
        assert mlp(tensor(rng.normal(size=(2, 3)))).shape == (2, 1)

    def test_last_layer_linear(self, rng):
        # Output may be negative => no activation applied after last layer.
        mlp = MLP(4, [4], 1, activation="relu", seed=0)
        outs = mlp(tensor(rng.normal(size=(200, 4)))).data
        assert outs.min() < 0

    def test_gradients_reach_all_layers(self, rng):
        mlp = MLP(4, [5, 3], 1, seed=0)
        mlp(tensor(rng.normal(size=(7, 4)))).sum().backward()
        assert all(p.grad is not None for p in mlp.parameters())


class TestActivationsRegistry:
    def test_resolve_by_name(self):
        assert resolve_activation("relu") is not None
        assert resolve_activation("SIGMOID") is not None

    def test_resolve_callable_passthrough(self):
        f = lambda x: x
        assert resolve_activation(f) is f

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            resolve_activation("swishish")
