"""Fused no-tape execution of MGBR's planned scoring forward.

:func:`fused_planned_scores` re-runs the exact primitive sequence of
``MultiTaskModule.forward_planned`` → ``MTLLayer.forward_planned_first``
→ dense ``MTLLayer.forward`` → gate attention → ``PredictionHead``, but
through a :class:`repro.executor.FusedWorkspace`: raw backend calls into
preallocated buffers, no Tensor graph nodes.  Under ``no_grad`` the tape
versions of these ops allocate a node + closure per primitive purely to
be discarded; eliding them is where the fused speedup comes from (the
BLAS work is identical).

Every helper here is an *op-for-op mirror* of one tape module — same
primitive, same operand arrays (fold weights come through the shared
version-keyed ``folded_blocks_raw`` / ``stacked_folds_raw`` caches),
same association order — which is what makes the float64 output
bit-identical to the tape (asserted in tests/test_fused_executor.py).
When editing the tape modules, update the matching mirror here; the
parity tests catch any drift.

Live heads
----------
A call scores one task, so it reads one tower.  The mirror asks the
same liveness rule as the tape (``MultiTaskModule.live_outputs``) which
gate outputs each layer must produce, and skips every bank, gate,
state concat and adjusted-gate pair logit outside that set — exactly
the ops ``forward_planned`` skips, so the two programs stay op-for-op
mirrors.  A shared layer's live banks share one workspace buffer laid
out ``[a | s | b]`` (or ``[b | s]`` when bank A is dead), which makes
the first task gate's generic bank and the shared gate's bank
zero-copy views.

One mix per task gate
---------------------
The tape folds each task gate's three adjusted-head weights into its
generic weights before mixing (Eq. 12 on the weights, see
:mod:`repro.core.gates`).  :func:`_fold` does the same sums with the
same association order, but adds them in place into slices of the
softmax buffer the call owns, so there is no concatenate and one
``ws.mix`` per task gate, and the output stays bit-identical to the
tape.

Returns ``None`` (caller falls back to the tape) for model
configurations the mirror does not cover: subclassed MTL stacks/layers
or prediction heads with a non-ReLU activation or live dropout.

Parallel execution
------------------
The program itself is serial: one call scores one plan window on one
thread.  Parallelism comes from outside it.  Window-parallel
evaluation (:mod:`repro.eval.windows`) runs several windows at once,
one per worker slot, and ``model._fused_workspace()`` hands each slot
its own workspace.  Each window keeps the serial grid's shapes, and
BLAS picks GEMM kernels by problem shape, so
``(A @ B)[s:e] != A[s:e] @ B`` bitwise for many of this program's
shapes.  Keeping every window whole is therefore what keeps the float64
output identical to the serial pass and to the tape.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.mtl import MTLLayer, MultiTaskModule
from repro.core.prediction import PredictionHead
from repro.executor import FusedWorkspace
from repro.nn import functional as F
from repro.nn.layers import MLP
from repro.nn.tensor import get_default_dtype

__all__ = ["fused_planned_scores"]


def _blocks_key(blocks):
    """The hashable fold-cache key ``check_blocks`` would produce."""
    return tuple((int(start), int(stop)) for start, stop in blocks)


def _head_supported(head) -> bool:
    """Whether the fused head mirror covers this prediction head."""
    if type(head) is not PredictionHead or type(head.mlp) is not MLP:
        return False
    mlp = head.mlp
    if mlp.activation is not F.relu:
        return False
    if mlp.drop is not None and mlp.drop.training:
        return False
    return True


def _proj_linear(ws: FusedWorkspace, linear, x: np.ndarray, key) -> np.ndarray:
    """Mirror of ``Linear.project_blocks``: ``x @ folded_blocks``.

    ``key`` is the precomputed :func:`_blocks_key` (callers hoist it out
    of the per-projection hot path).
    """
    fold = ws.cast(linear.folded_blocks_raw(key))
    return ws.matmul(x, fold)


def _proj_bank(ws: FusedWorkspace, bank, x: np.ndarray, key) -> np.ndarray:
    """Mirror of ``ExpertBank.project_blocks`` → ``(rows, K, d)``."""
    fold = ws.cast(bank.stacked_folds_raw(key))
    out = ws.matmul(x, fold)
    return ws.reshape(out, (x.shape[0], bank.n_experts, bank.out_dim))


def _weights(ws: FusedWorkspace, attention, logits: np.ndarray) -> np.ndarray:
    """Mirror of ``GateAttention.weights`` with precomputed logits."""
    return ws.softmax(logits) if attention.softmax else logits


def _pair_logits(ws, adjusted, e_u, e_i, e_p, user_pos, item_pos, part_pos):
    """Mirror of ``AdjustedGate.pair_logits`` → ``(l_ui, l_ip, l_up)``."""
    v = e_u.shape[-1]
    lo, hi = ((0, v),), ((v, 2 * v),)

    def head_logits(head, x_a, pos_a, x_b, pos_b):
        t = ws.take(_proj_linear(ws, head.proj, x_a, lo), pos_a)
        return ws.add(t, ws.take(_proj_linear(ws, head.proj, x_b, hi), pos_b))

    l_ui = head_logits(adjusted.head_ui, e_u, user_pos, e_i, item_pos)
    l_ip = head_logits(adjusted.head_ip, e_i, item_pos, e_p, part_pos)
    l_up = head_logits(adjusted.head_up, e_u, user_pos, e_p, part_pos)
    return l_ui, l_ip, l_up


def _task_gate(ws, gate, state, own_bank, shared_bank, adj_logits, generic_logits,
               generic_bank=None):
    """Mirror of ``TaskGate.forward`` (planned and dense variants).

    ``generic_bank`` short-circuits the ``[own | shared]`` concatenation
    when the caller already holds the banks contiguously in that order
    (a slice view of the dense layers' combined bank buffer) — the view
    carries the identical values the concat would copy.  The adjusted
    weights fold into the generic weights (:func:`_fold`), so the banks
    are mixed once.
    """
    if generic_bank is None:
        if gate.shared:
            generic_bank = ws.concat([own_bank, shared_bank], axis=1)
        else:
            generic_bank = own_bank
    attention = gate.generic.attention
    if generic_logits is None:
        generic_logits = ws.matmul(state, attention.proj.weight.data)
    weights = _weights(ws, attention, generic_logits)
    if gate.adjusted is not None:
        weights = _fold(ws, gate, weights, adj_logits)
    return ws.mix(weights, generic_bank)


def _fold(ws, gate, weights, adj_logits):
    """Mirror of ``gates._fold``: ``weights[:, span] += α·Σ heads``.

    The sums land in place in ``weights`` (the softmax buffer this call
    owns; a fresh workspace buffer otherwise), with the tape's
    operands and association order.
    """
    adjusted = gate.adjusted
    heads = [
        _weights(ws, head, logits)
        for head, logits in zip(
            (adjusted.head_ui, adjusted.head_ip, adjusted.head_up), adj_logits
        )
    ]
    out = weights if ws.owns(weights) else ws.out(weights.shape)
    scale = ws.scalar(gate.alpha)
    for (start, stop), idx in gate.fold_spans(heads[0].shape[1]):
        part = heads[idx[0]]
        for i in idx[1:]:
            part = ws.add(part, heads[i])
        ws.b.add(weights[:, start:stop], ws.multiply(part, scale), out=out[:, start:stop])
    return out


def _shared_gate(ws, gate, state, bank_a, bank_s, bank_b, logits, bank=None):
    """Mirror of ``SharedGate.forward`` (``bank`` = precomputed concat)."""
    attention = gate.attention
    if bank is None:
        bank = ws.concat([bank_a, bank_s, bank_b], axis=1)
    if logits is None:
        logits = ws.matmul(state, attention.proj.weight.data)
    return ws.mix(_weights(ws, attention, logits), bank)


def _experts(layer):
    """A shared layer's expert banks by name."""
    return {"a": layer.experts_a, "s": layer.experts_s, "b": layer.experts_b}


def _bank_buffer(ws, layer, banks, rows: int):
    """One combined workspace buffer for a shared layer's live banks.

    The layout is ``[a | s | b]`` with dead banks dropped, or ``[b | s]``
    when bank A is dead (a Task-B window), so every live gate's bank
    concatenation is a zero-copy view: the first task gate's ``[own |
    s]`` prefix, and the shared gate's whole ``[a | s | b]``.  Returns
    ``(slices, generic)``: each live bank's slice to write, and the
    gate-name → bank view for the gates that get one.  Values are
    identical to the per-gate concats — the layout only removes copies.
    """
    experts = _experts(layer)
    order = [x for x in ("asb" if "a" in banks else "bs") if x in banks]
    sizes = [experts[x].n_experts for x in order]
    cat = ws.out((rows, sum(sizes), layer.experts_a.out_dim))
    slices, offset = {}, 0
    for name, k in zip(order, sizes):
        slices[name] = cat[:, offset:offset + k]
        offset += k
    generic = {order[0]: cat[:, :sizes[0] + sizes[1]]}
    if len(order) == 3:
        generic["s"] = cat
    return slices, generic


def _first_layer(ws, layer, live, e_u, e_i, e_p, user_pos, item_pos, part_pos, adj):
    """Mirror of ``MTLLayer.forward_planned_first`` for the ``live`` gates.

    Like :func:`_dense_layer`, the shared case lands the live banks in
    one :func:`_bank_buffer` (the per-pair chain's final add writes
    straight into each bank's slice) so the gates' bank concatenations
    are zero-copy views.
    """
    banks = layer.live_banks(live)
    if layer.compact_input:
        folds_task, folds_shared = 1, 1
    elif layer.shared:
        folds_task, folds_shared = 2, 3
    else:
        folds_task, folds_shared = 1, 0
    v = e_u.shape[-1]
    keys_task = [_blocks_key(layer._entity_blocks(v, j, folds_task)) for j in range(3)]

    def per_pair(project, keys, out=None):
        t = ws.take(project(e_u, keys[0]), user_pos)
        t = ws.add(t, ws.take(project(e_i, keys[1]), item_pos))
        tp = ws.take(project(e_p, keys[2]), part_pos)
        if out is None:
            return ws.add(t, tp)
        # Same add, landed in the caller's combined-buffer slice.
        return ws.b.add(t, tp, out=out)

    def bank_proj(bank):
        return lambda x, key: _proj_bank(ws, bank, x, key)

    def gate_proj(attention):
        return lambda x, key: _proj_linear(ws, attention.proj, x, key)

    def gate_logits(name, attention, keys):
        return per_pair(gate_proj(attention), keys) if name in live else None

    logits_a = gate_logits("a", layer.gate_a.generic.attention, keys_task)
    logits_b = gate_logits("b", layer.gate_b.generic.attention, keys_task)
    la, lb = adj
    new_a = new_s = new_b = None
    if layer.shared:
        keys_shared = [
            _blocks_key(layer._entity_blocks(v, j, folds_shared)) for j in range(3)
        ]
        logits_s = gate_logits("s", layer.gate_s.attention, keys_shared)
        experts = _experts(layer)
        keys = {"a": keys_task, "s": keys_shared, "b": keys_task}
        slices, generic = _bank_buffer(ws, layer, banks, user_pos.shape[0])
        bank = {"a": None, "s": None, "b": None}
        for name, out in slices.items():
            bank[name] = per_pair(bank_proj(experts[name]), keys[name], out=out)
        if "a" in live:
            new_a = _task_gate(ws, layer.gate_a, None, bank["a"], bank["s"], la,
                               logits_a, generic_bank=generic.get("a"))
        if "b" in live:
            new_b = _task_gate(ws, layer.gate_b, None, bank["b"], bank["s"], lb,
                               logits_b, generic_bank=generic.get("b"))
        if "s" in live:
            new_s = _shared_gate(ws, layer.gate_s, None, bank["a"], bank["s"],
                                 bank["b"], logits_s, bank=generic["s"])
        return new_a, new_s, new_b
    if "a" in live:
        bank_a = per_pair(bank_proj(layer.experts_a), keys_task)
        new_a = _task_gate(ws, layer.gate_a, None, bank_a, None, la, logits_a)
    if "b" in live:
        bank_b = per_pair(bank_proj(layer.experts_b), keys_task)
        new_b = _task_gate(ws, layer.gate_b, None, bank_b, None, lb, logits_b)
    return new_a, None, new_b


def _dense_bank(ws, bank, state: np.ndarray) -> np.ndarray:
    """Mirror of ``ExpertBank.forward``: per-expert matmuls, stacked.

    Deliberately *not* one stacked GEMM — BLAS re-association would
    break bit parity with the tape's per-expert loop.  The per-expert
    products do land directly in the stacked buffer's slices, which is
    parity-safe (stack is a pure copy).
    """
    return ws.matmul_stack(state, [expert.weight.data for expert in bank._experts])


def _dense_layer(ws, layer, live, g_a, g_s, g_b, adj):
    """Mirror of the dense ``MTLLayer.forward`` (later planned layers).

    The live banks are written into one :func:`_bank_buffer`, so gate
    A's (or, in a Task-B window, gate B's) generic bank and the shared
    gate's bank are zero-copy slice views; only gate B's ``[b | s]``
    next to a live bank A still needs a concatenation.
    """
    la, lb = adj
    banks = layer.live_banks(live)
    new_a = new_s = new_b = None
    if layer.shared:
        if layer.compact_input:
            state_a, state_b, state_s = g_a, g_b, g_s
        else:
            # Bank S is live whenever any gate is.  ``[g_a | g_s]`` is a
            # prefix view of ``[g_a | g_s | g_b]`` — one concat serves
            # both states (GEMMs handle the row stride natively, so the
            # view costs nothing).
            state_s = ws.concat([g_a, g_s, g_b], axis=1)
            state_a = (
                state_s[:, : g_a.shape[1] + g_s.shape[1]] if "a" in banks else None
            )
            state_b = ws.concat([g_b, g_s], axis=1) if "b" in banks else None
        experts = _experts(layer)
        states = {"a": state_a, "s": state_s, "b": state_b}
        dt = ws.dtype
        fast = all(
            states[name].dtype == dt
            and all(x.weight.data.dtype == dt for x in experts[name]._experts)
            for name in banks
        )
        bank = {"a": None, "s": None, "b": None}
        generic = {}
        if fast:
            slices, generic = _bank_buffer(ws, layer, banks, state_s.shape[0])
            for name, out in slices.items():
                bank[name] = ws.matmul_stack(
                    states[name], [x.weight.data for x in experts[name]._experts],
                    out=out,
                )
        else:
            for name in "abs":
                if name in banks:
                    bank[name] = _dense_bank(ws, experts[name], states[name])
        if "a" in live:
            new_a = _task_gate(ws, layer.gate_a, state_a, bank["a"], bank["s"], la,
                               None, generic_bank=generic.get("a"))
        if "b" in live:
            new_b = _task_gate(ws, layer.gate_b, state_b, bank["b"], bank["s"], lb,
                               None, generic_bank=generic.get("b"))
        if "s" in live:
            new_s = _shared_gate(ws, layer.gate_s, state_s, bank["a"], bank["s"],
                                 bank["b"], None, bank=generic.get("s"))
        return new_a, new_s, new_b
    if "a" in live:
        bank_a = _dense_bank(ws, layer.experts_a, g_a)
        new_a = _task_gate(ws, layer.gate_a, g_a, bank_a, None, la, None)
    if "b" in live:
        bank_b = _dense_bank(ws, layer.experts_b, g_b)
        new_b = _task_gate(ws, layer.gate_b, g_b, bank_b, None, lb, None)
    return new_a, None, new_b


def _head(ws, head, g: np.ndarray) -> np.ndarray:
    """Mirror of ``PredictionHead.forward`` (ReLU MLP, dropout inert)."""
    mlp = head.mlp
    x = g
    last = len(mlp._linears) - 1
    for i, layer in enumerate(mlp._linears):
        x = ws.matmul(x, layer.weight.data)
        if layer.bias is not None:
            x = ws.add(x, layer.bias.data)
        if i != last:
            x = ws.relu(x)
    return ws.reshape(x, (x.shape[0],))


def fused_planned_scores(model, emb, plan, task: str) -> Optional[np.ndarray]:
    """Fused unique-request logits for ``plan``, or ``None`` to fall back.

    ``task`` is ``"items"`` (head A) or ``"participants"`` (head B).
    The result lives in workspace buffers — callers must copy before the
    next flush (the public plan scorers do).  Entity gathers go through
    :meth:`repro.core.model.MGBR._planned_entities`, so store statistics,
    LRU caching and plan-cached shard maps behave identically to the
    tape path.
    """
    head = model.head_a if task == "items" else model.head_b
    mtl = model.mtl
    if (
        not _head_supported(head)
        or type(mtl) is not MultiTaskModule
        or any(type(layer) is not MTLLayer for layer in mtl._layers)
    ):
        return None
    ws = model._fused_workspace()
    ws.begin(get_default_dtype())

    e_u_t, e_i_t, e_p_t, part_pos = model._planned_entities(emb, plan)
    e_u, e_i, e_p = e_u_t.data, e_i_t.data, e_p_t.data
    user_pos, item_pos = plan.user_pos, plan.item_pos

    # Adjusted-gate logits for every live gate first — forward_planned's order.
    live = mtl.live_outputs(("a",) if task == "items" else ("b",))
    adj_logits = []
    for layer, out in zip(mtl._layers, live):
        adj_logits.append(
            tuple(
                _pair_logits(ws, gate.adjusted, e_u, e_i, e_p, user_pos, item_pos, part_pos)
                if gate.adjusted is not None and name in out
                else None
                for gate, name in ((layer.gate_a, "a"), (layer.gate_b, "b"))
            )
        )
    g_a, g_s, g_b = _first_layer(
        ws, mtl._layers[0], live[0], e_u, e_i, e_p, user_pos, item_pos, part_pos,
        adj_logits[0],
    )
    for layer, out, logits in zip(mtl._layers[1:], live[1:], adj_logits[1:]):
        g_a, g_s, g_b = _dense_layer(ws, layer, out, g_a, g_s, g_b, logits)
    return _head(ws, head, g_a if task == "items" else g_b)
