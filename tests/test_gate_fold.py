"""The Eq. 12 fold of a task gate.

``TaskGate`` adds the three adjusted heads' attention weights into the
generic weights and mixes the banks once, instead of running four
``(n, 1, K) @ (n, K, d)`` mixes and adding the results.  Folding
re-associates the float sums, so the oracle is the unfolded four-mix
formula at a tolerance; ``α = 0`` (no fold) and the list-of-banks mix
adjoint are exact.
"""

import numpy as np
import pytest

from repro.core.gates import GateAttention, SharedGate, TaskGate
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat
from tests import golden_scores as golden
from tests.test_live_rows import CASES, _close, _two_steps

N, K, D, STATE, PAIR = 7, 3, 4, 10, 8


def _attend(attention, query, bank, logits):
    """One unfolded mix: ``reshape → batched matmul → reshape``."""
    if logits is None:
        logits = attention.proj(query)
    w = F.softmax(logits, axis=-1) if attention.softmax else logits
    n, k = w.shape
    return (w.reshape(n, 1, k) @ bank).reshape(n, bank.shape[2])


def _unfolded(self, state, own_bank, shared_bank, e_u, e_i, e_p,
              pairs=None, adj_logits=None, generic_logits=None, operand=None):
    """``TaskGate.forward`` as four mixes: ``g_1 + α·(t_ui + t_ip + t_up)``.

    ``operand`` (the layer's joined ``[own | S]`` view) is ignored: the
    reference concatenates the banks itself.
    """
    generic_bank = concat([own_bank, shared_bank], axis=1) if self.shared else own_bank
    out = _attend(self.generic.attention, state, generic_bank, generic_logits)
    if self.adjusted is None:
        return out
    other = shared_bank if self.shared else own_bank
    banks = (own_bank, other, other) if self.own_is_ui else (other, own_bank, own_bank)
    adjusted = self.adjusted
    heads = (adjusted.head_ui, adjusted.head_ip, adjusted.head_up)
    if adj_logits is not None:
        queries = (None,) * 3
    else:
        queries = pairs if pairs is not None else adjusted.build_pairs(e_u, e_i, e_p)
        adj_logits = (None,) * 3
    t_ui, t_ip, t_up = (
        _attend(head, q, bank, l)
        for head, q, bank, l in zip(heads, queries, banks, adj_logits)
    )
    return out + self.alpha * (t_ui + t_ip + t_up)


def _leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _inputs(rng, shared, mode):
    """Leaf inputs for one gate call: banks plus logits or raw queries."""
    slots = 2 * K if shared else K
    x = {"own_bank": _leaf(rng, N, K, D), "shared_bank": _leaf(rng, N, K, D) if shared else None}
    if mode == "logits":
        x.update(
            state=None, e_u=None, e_i=None, e_p=None,
            generic_logits=_leaf(rng, N, slots),
            adj_logits=tuple(_leaf(rng, N, K) for _ in range(3)),
        )
    else:
        x.update(state=_leaf(rng, N, STATE), **{
            name: _leaf(rng, N, PAIR // 2) for name in ("e_u", "e_i", "e_p")
        })
    return x


def _run(gate, forward, x, g):
    """Output and every gradient (inputs, then parameters) of one call."""
    for p in gate.parameters():
        p.zero_grad()
    out = forward(gate, **x)
    out.backward(g)
    leaves = [t for v in x.values() for t in (v if isinstance(v, tuple) else (v,))]
    grads = [t.grad for t in leaves if isinstance(t, Tensor)]
    grads += [p.grad for _, p in sorted(gate.named_parameters())]
    return out.data, grads


def _gate(own_is_ui, shared, softmax, alpha=0.7):
    return TaskGate(STATE, PAIR, K, own_is_ui=own_is_ui, alpha=alpha,
                    softmax=softmax, shared=shared, seed=4)


@pytest.mark.parametrize("mode", ["logits", "query"])
@pytest.mark.parametrize("softmax", [True, False])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("own_is_ui", [True, False], ids=["gate-a", "gate-b"])
def test_fold_matches_four_mixes(own_is_ui, shared, softmax, mode):
    rng = np.random.default_rng(0)
    gate = _gate(own_is_ui, shared, softmax)
    x = _inputs(rng, shared, mode)
    g = rng.normal(size=(N, D))
    got_out, got = _run(gate, TaskGate.forward, x, g)
    want_out, want = _run(gate, _unfolded, x, g)
    np.testing.assert_allclose(got_out, want_out, rtol=1e-12, atol=1e-15)
    assert len(got) == len(want)
    # Every input leaf gets a gradient; ``proj`` weights only when the
    # gate computes its own logits.
    assert sum(a is not None for a in got) == len(got) - 4 * (mode == "logits")
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), i
        if a is not None:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15, err_msg=f"grad {i}")


@pytest.mark.parametrize("mode", ["logits", "query"])
@pytest.mark.parametrize("shared", [True, False])
def test_alpha_zero_is_the_parent_formula_bytes(shared, mode):
    rng = np.random.default_rng(1)
    gate = _gate(True, shared, True, alpha=0.0)
    assert gate.adjusted is None
    x = _inputs(rng, shared, mode)
    g = rng.normal(size=(N, D))
    got_out, got = _run(gate, TaskGate.forward, x, g)
    want_out, want = _run(gate, _unfolded, x, g)
    assert got_out.tobytes() == want_out.tobytes()
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_banks", [1, 2, 3])
def test_list_of_banks_mix_is_concat_plus_matmul_bytes(n_banks):
    rng = np.random.default_rng(2)
    w = rng.normal(size=(N, n_banks * K))
    banks = [rng.normal(size=(N, K, D)) for _ in range(n_banks)]
    g = rng.normal(size=(N, D))

    def run(mix):
        leaves = [Tensor(a, requires_grad=True) for a in [w] + banks]
        out = mix(leaves[0], leaves[1:])
        out.backward(g)
        return [out.data] + [t.grad for t in leaves]

    got = run(GateAttention.mix)
    want = run(lambda wt, bs: (
        wt.reshape(N, 1, n_banks * K) @ concat(bs, axis=1)
    ).reshape(N, D))
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_shared_gate_mixes_the_bank_list_exactly():
    rng = np.random.default_rng(3)
    gate = SharedGate(STATE, K, seed=5)
    state = _leaf(rng, N, STATE)
    banks = [_leaf(rng, N, K, D) for _ in range(3)]
    got = gate(state, *banks).data
    want = _attend(gate.attention, state, concat(banks, axis=1), None).data
    assert got.tobytes() == want.tobytes()


def test_mix_rejects_slot_mismatch():
    w = Tensor(np.ones((2, 5)))
    with pytest.raises(ValueError, match="slots"):
        GateAttention.mix(w, [Tensor(np.ones((2, 3, 4)))])


# ----------------------------------------------------------------------
# A planned training step: folded vs four-mix gates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(CASES))
def test_planned_step_matches_unfolded_step(tiny_dataset, monkeypatch, case):
    name, over = CASES[case]
    losses, grads, state = _two_steps(tiny_dataset, name, over)
    with monkeypatch.context() as patch:
        patch.setattr(TaskGate, "forward", _unfolded)
        ref_losses, ref_grads, ref_state = _two_steps(tiny_dataset, name, over)
    for got, want in zip(losses, ref_losses):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-10, abs=1e-12), key
    for step, (got, want) in enumerate(zip(grads, ref_grads)):
        assert got.keys() == want.keys()
        for key in want:
            _close(got[key], want[key], f"step {step} grad {key}")
    assert state.keys() == ref_state.keys()
    for key in ref_state:
        _close(state[key], ref_state[key], f"post-Adam {key}", atol=1e-10)


# ----------------------------------------------------------------------
# Raw (unsoftmaxed) attention weights fold too
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("task", ["items", "participants"])
def test_fused_fold_bit_parity_without_softmax(tiny_dataset, shared, task):
    """With ``gate_softmax=False`` the folded gates score the stored
    goldens bit for bit."""
    model = golden.CASES[f"raw-gates/{'shared' if shared else 'solo'}"](tiny_dataset)
    scores = golden.score(model, golden.plans(tiny_dataset)[task], task)
    want = golden.expected(f"raw-gates/{'shared' if shared else 'solo'}", task)
    assert scores.tobytes() == want.tobytes()
