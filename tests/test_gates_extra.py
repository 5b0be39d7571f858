"""Extra behavioural tests for the gate wiring (Eq. 11 vs Eq. 13).

These pin down the asymmetry between gate A and gate B: which expert
bank each raw-pair attention head lands on.  A regression that swapped
the banks would silently change the architecture, so the wiring is
asserted through gradient flow.
"""

import numpy as np
import pytest

from repro.core.gates import TaskGate
from repro.nn import tensor


def _t(rng, *shape):
    return tensor(rng.normal(size=shape), requires_grad=True)


def _grads_after(gate, rng, own_requires=True, shared_requires=True):
    """Run the gate once; return (own_bank.grad, shared_bank.grad)."""
    own = tensor(np.random.default_rng(0).normal(size=(2, 2, 4)), requires_grad=own_requires)
    shared = tensor(np.random.default_rng(1).normal(size=(2, 2, 4)), requires_grad=shared_requires)
    state = _t(rng, 2, 6)
    e_u, e_i, e_p = _t(rng, 2, 4), _t(rng, 2, 4), _t(rng, 2, 4)
    out = gate(state, own, shared, e_u, e_i, e_p)
    out.sum().backward()
    return own.grad, shared.grad


class TestGateABankWiring:
    def test_gate_a_ui_head_hits_own_bank(self, rng):
        # With alpha > 0 the adjusted section's (u,i) head must attend
        # over the OWN bank for gate A (own_is_ui=True).  Both banks get
        # gradient anyway (generic section covers both), so instead we
        # check the adjusted head parameter shapes exist and are used.
        gate = TaskGate(6, 8, 2, own_is_ui=True, alpha=0.5, seed=0)
        own_grad, shared_grad = _grads_after(gate, rng)
        assert own_grad is not None and np.abs(own_grad).sum() > 0
        assert shared_grad is not None and np.abs(shared_grad).sum() > 0
        # All three adjusted heads received gradient.
        for head in (gate.adjusted.head_ui, gate.adjusted.head_ip, gate.adjusted.head_up):
            assert head.proj.weight.grad is not None

    def test_alpha_scales_adjusted_contribution(self, rng):
        # Doubling alpha doubles the adjusted section's share of the output.
        state = _t(rng, 1, 6)
        own = _t(rng, 1, 2, 4)
        shared = _t(rng, 1, 2, 4)
        e = [_t(rng, 1, 4) for _ in range(3)]
        g_small = TaskGate(6, 8, 2, True, alpha=0.1, seed=3)
        g_large = TaskGate(6, 8, 2, True, alpha=0.2, seed=3)
        out_small = g_small(state, own, shared, *e).data
        out_large = g_large(state, own, shared, *e).data
        # Same seed => same weights; outputs differ only through alpha.
        generic = g_small.generic(
            state, __import__("repro.nn.tensor", fromlist=["concat"]).concat([own, shared], axis=1)
        ).data
        adj_small = out_small - generic
        adj_large = out_large - generic
        np.testing.assert_allclose(adj_large, 2 * adj_small, rtol=1e-8)

    def test_gate_b_mirrored_wiring_runs(self, rng):
        gate = TaskGate(6, 8, 2, own_is_ui=False, alpha=0.3, seed=0)
        own_grad, shared_grad = _grads_after(gate, rng)
        assert own_grad is not None and shared_grad is not None

    @pytest.mark.parametrize("own_is_ui", [True, False], ids=["gate-a", "gate-b"])
    def test_wiring_matches_eq_10_to_13_by_value(self, own_is_ui):
        # Gradient flow cannot tell the banks apart (the generic section
        # reads both), so compare against Eq. 10-13 written out in NumPy.
        rng = np.random.default_rng(7)
        n, k, d, alpha = 5, 2, 4, 0.4
        gate = TaskGate(6, 8, k, own_is_ui=own_is_ui, alpha=alpha, seed=2)
        state = rng.normal(size=(n, 6))
        own, shared = rng.normal(size=(n, k, d)), rng.normal(size=(n, k, d))
        e_u, e_i, e_p = (rng.normal(size=(n, 4)) for _ in range(3))
        out = gate(*(tensor(x) for x in (state, own, shared, e_u, e_i, e_p))).data

        def attend(attention, query, bank):
            z = query @ attention.proj.weight.data
            w = np.exp(z - z.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            return np.einsum("nk,nkd->nd", w, bank)

        adj = gate.adjusted
        ui, ip, up = np.hstack([e_u, e_i]), np.hstack([e_i, e_p]), np.hstack([e_u, e_p])
        # Eq. 10: the generic section attends over [E_own; E_S].
        g1 = attend(gate.generic.attention, state, np.concatenate([own, shared], axis=1))
        if own_is_ui:  # Eq. 11: (u,i) over bank A, (i,p) and (u,p) over bank S.
            banks = (own, shared, shared)
        else:  # Eq. 13: (u,i) over bank S, (i,p) and (u,p) over bank B.
            banks = (shared, own, own)
        g2 = sum(
            attend(head, pair, bank)
            for head, pair, bank in zip((adj.head_ui, adj.head_ip, adj.head_up), (ui, ip, up), banks)
        )
        # Eq. 12.
        np.testing.assert_allclose(out, g1 + alpha * g2, rtol=1e-12)


class TestGateDeterminism:
    def test_same_seed_same_output(self, rng):
        inputs = [np.random.default_rng(5).normal(size=s) for s in
                  [(2, 6), (2, 2, 4), (2, 2, 4), (2, 4), (2, 4), (2, 4)]]

        def run():
            gate = TaskGate(6, 8, 2, True, alpha=0.2, seed=11)
            ts = [tensor(x) for x in inputs]
            return gate(ts[0], ts[1], ts[2], ts[3], ts[4], ts[5]).data

        np.testing.assert_array_equal(run(), run())
