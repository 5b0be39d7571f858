"""Gated units of the multi-task learning module (Eq. 10-14).

Each sub-module's gate mixes expert outputs into one embedding.  Task
gates (A and B) combine two sections:

* **Generic section** (Eq. 10): attention weights come from the gate's
  own previous state — ``g^l_{A1} = (g^{l-1}_A || g^{l-1}_S) W_A [E^l_A; E^l_S]``.
  This is the MMoE-style self-gating the paper calls the generic gated
  unit.
* **Adjusted section** (Eq. 11): attention weights come from the *raw
  pair embeddings* of the current sample.  For gate A:
  ``g^l_{A2} = (e_u||e_i) W_{A,ui} E^l_A + (e_i||e_p) W_{A,ip} E^l_S
  + (e_u||e_p) W_{A,up} E^l_S`` — task A's own pair ``(u,i)`` attends
  over A's experts while the ``(i,p)``/``(u,p)`` information arrives via
  the shared bank.  Gate B mirrors this with the banks swapped (Eq. 13).

The two sections mix as ``g^l_A = g^l_{A1} + α_A · g^l_{A2}`` (Eq. 12).
The shared gate S has only a generic section over all three banks
(Eq. 14).  Following the self-attention principle the paper cites, the
attention logits are softmax-normalized (disable with
``gate_softmax=False`` to use raw linear weights).

The Eq. 12 fold
---------------
Every section is an attention-weighted sum over the same two banks
``[E_A; E_S]``, and the gate is linear in the banks, so Eq. 12 holds on
the weights too.  :class:`TaskGate` adds the three adjusted heads'
``(n, K)`` weights into the matching slot spans of the generic
``(n, 2K)`` weights — gate A:
``[w_gen_A + α·w_ui | w_gen_S + α·(w_ip + w_up)]``; gate B:
``[w_gen_B + α·(w_ip + w_up) | w_gen_S + α·w_ui]``; MGBR-M (no bank S):
``w_gen + α·(w_ui + w_ip + w_up)`` — and mixes ``[own | S]`` once,
instead of four ``(n, 1, K) @ (n, K, d)`` mixes plus three adds.  The
fold re-associates the float sums, so the output differs from the
four-mix formula by about one ulp (``α = 0`` skips the fold and is
unchanged).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.nn import functional as F
from repro.nn.backend import get_backend
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, _matmul, concat, gather_add

__all__ = ["GateAttention", "GenericGate", "AdjustedGate", "TaskGate", "SharedGate"]


class GateAttention(Module):
    """One attention head: ``weights(query) × bank``.

    Computes ``softmax(query W) @ bank`` where ``W ∈ (query_dim, K)``
    and ``bank ∈ (batch, K, d)`` → ``(batch, d)``.
    """

    def __init__(self, query_dim: int, n_slots: int, softmax: bool = True, seed=None) -> None:
        super().__init__()
        self.proj = Linear(query_dim, n_slots, bias=False, seed=seed)
        self.softmax = softmax
        self.n_slots = n_slots

    def forward(self, query: Tensor, bank: Tensor, logits: Optional[Tensor] = None) -> Tensor:
        """Attend ``query`` over ``bank`` slots.

        ``logits`` optionally supplies precomputed attention logits (the
        factorized scoring plan assembles them from per-entity partial
        projections, see :meth:`project_blocks`); ``query`` is then
        ignored and may be ``None``.
        """
        if bank.shape[1] != self.n_slots:
            raise ValueError(
                f"bank has {bank.shape[1]} slots, attention expects {self.n_slots}"
            )
        return self.mix(self.weights(query, logits), [bank])

    def weights(self, query: Optional[Tensor], logits: Optional[Tensor] = None) -> Tensor:
        """Attention weights ``(batch, K)``: ``softmax(query W)`` or raw logits."""
        if logits is None:
            logits = self.proj(query)
        return F.softmax(logits, axis=-1) if self.softmax else logits

    @staticmethod
    def mix(weights: Tensor, banks: Sequence[Tensor], operand=None) -> Tensor:
        """``weights (n, ΣK) × [bank_1 | bank_2 | ...] (n, ΣK, d) → (n, d)``.

        The forward is ``(n, 1, ΣK) @ (n, ΣK, d)`` over the banks laid
        side by side.  ``operand`` optionally supplies that ``(n, ΣK, d)``
        array, already joined: :class:`repro.core.mtl.MTLLayer` lays its
        banks out so that a gate's banks are, where it pays, consecutive
        slots of one buffer, and passes that slice.  Without it one bank
        is read as is and several are concatenated.  Either way the operand holds the
        banks' values.  Each bank's route is its own ``wᵀ[slots] @ g``
        outer product (one ``einsum``, see
        :func:`repro.nn.tensor._matmul`): the values the operand's
        gradient slice would hold, but fresh and contiguous.
        """
        b = get_backend()
        if operand is None:
            arrays = [t.data for t in banks]
            operand = arrays[0] if len(arrays) == 1 else b.concatenate(arrays, axis=1)
        n, k = weights.shape
        if operand.shape[1] != k:
            raise ValueError(f"banks have {operand.shape[1]} slots, weights have {k}")
        d = operand.shape[2]
        w3 = b.reshape(weights.data, (n, 1, k))

        def grad_weights(g):
            b = get_backend()
            grad = _matmul(b.reshape(g, (n, 1, d)), b.swapaxes(operand, -1, -2))
            return b.reshape(grad, (n, k))

        def grad_bank(start, stop):
            return lambda g: _matmul(weights.data[:, start:stop, None], g[:, None, :])

        routes, start = [(weights, grad_weights)], 0
        for t in banks:
            routes.append((t, grad_bank(start, start + t.shape[1])))
            start += t.shape[1]
        return Tensor._make(b.reshape(_matmul(w3, operand), (n, d)), *routes)

    def project_blocks(self, x: Tensor, blocks) -> Tensor:
        """Partial attention logits from the given weight-row blocks of ``W``.

        Logit projections distribute over query concatenations exactly
        like expert weights (:meth:`repro.nn.layers.Linear
        .project_blocks`); the planned path computes these once per
        unique entity, gathers per pair, and feeds the summed logits back
        through :meth:`forward`.
        """
        return self.proj.project_blocks(x, blocks)


class GenericGate(Module):
    """Eq. 10's generic section: self-state query over the expert banks."""

    def __init__(self, state_dim: int, n_slots: int, softmax: bool = True, seed=None) -> None:
        super().__init__()
        self.attention = GateAttention(state_dim, n_slots, softmax=softmax, seed=seed)

    def forward(self, state: Tensor, bank: Tensor, logits: Optional[Tensor] = None) -> Tensor:
        """``state`` is the concatenated previous gate outputs (e^l_in).

        ``logits`` optionally carries factorized attention logits; see
        :meth:`GateAttention.forward`.
        """
        return self.attention(state, bank, logits=logits)


class AdjustedGate(Module):
    """Eq. 11/13's adjusted section: raw-pair queries over expert banks.

    Parameters
    ----------
    pair_dim: width of each pair embedding (``e_u||e_i`` etc. = 4d).
    n_experts: ``K`` — each of the three heads attends over one bank.
    """

    def __init__(self, pair_dim: int, n_experts: int, softmax: bool = True, seed=None) -> None:
        super().__init__()
        self.head_ui = GateAttention(pair_dim, n_experts, softmax=softmax, seed=seed)
        self.head_ip = GateAttention(pair_dim, n_experts, softmax=softmax, seed=seed)
        self.head_up = GateAttention(pair_dim, n_experts, softmax=softmax, seed=seed)

    def pair_logits(
        self,
        e_u: Tensor,
        e_i: Tensor,
        e_p: Tensor,
        user_pos,
        item_pos,
        part_pos,
    ):
        """Factorized attention logits for all three heads → ``(l_ui, l_ip, l_up)``.

        ``e_u``/``e_i``/``e_p`` hold one row per *unique* entity and the
        ``*_pos`` arrays map each unique request onto them (see
        :class:`repro.plan.ScoringPlan`).  Each head's query is a
        pair concatenation, so its logits split into two per-entity
        partial projections computed once per unique entity and
        gather-added per request — replacing a ``(rows, 4d)`` query
        build + matmul with ``(unique, 2d)`` matmuls.
        """
        v = e_u.shape[-1]
        lo, hi = [(0, v)], [(v, 2 * v)]

        def logits(head, x_a, pos_a, x_b, pos_b):
            return gather_add(
                [head.project_blocks(x_a, lo), head.project_blocks(x_b, hi)], [pos_a, pos_b]
            )

        return (
            logits(self.head_ui, e_u, user_pos, e_i, item_pos),
            logits(self.head_ip, e_i, item_pos, e_p, part_pos),
            logits(self.head_up, e_u, user_pos, e_p, part_pos),
        )

    @staticmethod
    def build_pairs(e_u: Tensor, e_i: Tensor, e_p: Tensor):
        """Concatenate the three pair features ``(e_u||e_i, e_i||e_p, e_u||e_p)``.

        The pairs depend only on the raw object embeddings, so one
        triple serves every adjusted gate of every MTL layer — the
        multi-task module builds it once per forward instead of paying
        three large concatenations per gate per layer.
        """
        return (
            concat([e_u, e_i], axis=1),
            concat([e_i, e_p], axis=1),
            concat([e_u, e_p], axis=1),
        )

    def weights(self, e_u: Tensor, e_i: Tensor, e_p: Tensor, pairs=None, logits=None):
        """The three heads' attention weights ``(w_ui, w_ip, w_up)``, each ``(n, K)``.

        ``pairs`` optionally supplies precomputed :meth:`build_pairs`
        output (the hot path); ``logits`` optionally supplies fully
        factorized :meth:`pair_logits` output (the planned path), in
        which case the embeddings and pairs are not touched at all.
        """
        heads = (self.head_ui, self.head_ip, self.head_up)
        if logits is not None:
            return tuple(head.weights(None, l) for head, l in zip(heads, logits))
        if pairs is None:
            pairs = self.build_pairs(e_u, e_i, e_p)
        return tuple(head.weights(pair) for head, pair in zip(heads, pairs))

    def forward(
        self,
        e_u: Tensor,
        e_i: Tensor,
        e_p: Tensor,
        bank_ui: Tensor,
        bank_ip: Tensor,
        bank_up: Tensor,
        pairs=None,
        logits=None,
    ) -> Tensor:
        """Sum the three pair-attention terms.

        Which bank each pair attends over differs between gate A and
        gate B; the caller wires them per Eq. 11/13 (:class:`TaskGate`
        folds the weights instead of calling this).  ``pairs`` and
        ``logits`` are as in :meth:`weights`.
        """
        w_ui, w_ip, w_up = self.weights(e_u, e_i, e_p, pairs=pairs, logits=logits)
        mix = GateAttention.mix
        return mix(w_ui, [bank_ui]) + mix(w_ip, [bank_ip]) + mix(w_up, [bank_up])


def _fold(generic: Tensor, heads, spans, alpha: float) -> Tensor:
    """Eq. 12 on the attention weights: ``generic + α·Σ heads``, per slot span.

    ``spans`` is :meth:`TaskGate.fold_spans`: each ``((start, stop),
    idx)`` adds ``α·(heads[idx[0]] + heads[idx[1]] + ...)`` into the
    ``[start, stop)`` slots of ``generic``.  One node: ``generic``'s
    route is the consumed gradient itself and each head's a fresh
    ``α·g[:, start:stop]``.  The routes run generic first, then head by
    head, so the node's parents keep the order ``(generic, *heads)``
    that fixes where the backward sort visits them.
    """
    b = get_backend()
    w = generic.data
    scale = w.dtype.type(alpha)
    value = b.empty(w.shape, dtype=w.dtype)
    for (start, stop), idx in spans:
        part = heads[idx[0]].data
        for i in idx[1:]:
            part = b.add(part, heads[i].data)
        b.add(w[:, start:stop], b.multiply(part, scale), out=value[:, start:stop])

    def head(i, start, stop):
        return heads[i], lambda g: get_backend().multiply(g[:, start:stop], scale)

    return Tensor._make(
        value,
        (generic, lambda g: g),
        *(head(i, *span) for i in range(len(heads)) for span, idx in spans if i in idx),
    )


class TaskGate(Module):
    """A full task gate: generic + α-scaled adjusted section (Eq. 12/13).

    Parameters
    ----------
    state_dim: width of the gate's previous-state concatenation.
    pair_dim: width of the raw pair embeddings (4d).
    n_experts: ``K``.
    own_is_ui: True for gate A (the (u,i) pair attends over the gate's
        *own* bank, the other two pairs over the shared bank), False for
        gate B (reversed wiring).
    alpha: the control coefficient α_A / α_B; 0 disables the adjusted
        section entirely (the MGBR-G ablation).
    shared: whether a shared bank exists (False under MGBR-M — all
        adjusted heads then attend over the gate's own bank).
    """

    def __init__(
        self,
        state_dim: int,
        pair_dim: int,
        n_experts: int,
        own_is_ui: bool,
        alpha: float,
        softmax: bool = True,
        shared: bool = True,
        seed=None,
    ) -> None:
        super().__init__()
        n_slots = 2 * n_experts if shared else n_experts
        self.generic = GenericGate(state_dim, n_slots, softmax=softmax, seed=seed)
        self.alpha = alpha
        self.own_is_ui = own_is_ui
        self.shared = shared
        self.adjusted: Optional[AdjustedGate] = (
            AdjustedGate(pair_dim, n_experts, softmax=softmax, seed=seed)
            if alpha > 0
            else None
        )

    def fold_spans(self, k: int):
        """Eq. 11/13's wiring as ``((start, stop), heads)`` over the generic weights.

        Adjusted heads are numbered ``0 = ui, 1 = ip, 2 = up``; each
        lands on the slots of the bank it attends over.  Gate A sends
        ``ui`` to its own bank (slots ``[0, k)``) and ``ip``/``up`` to
        bank S (``[k, 2k)``), gate B the reverse; without a shared bank
        all three land on the own bank.
        """
        if not self.shared:
            return (((0, k), (0, 1, 2)),)
        own, shared = (0, k), (k, 2 * k)
        if self.own_is_ui:
            return ((own, (0,)), (shared, (1, 2)))
        return ((own, (1, 2)), (shared, (0,)))

    def forward(
        self,
        state: Tensor,
        own_bank: Tensor,
        shared_bank: Optional[Tensor],
        e_u: Tensor,
        e_i: Tensor,
        e_p: Tensor,
        pairs=None,
        adj_logits=None,
        generic_logits=None,
        operand=None,
    ) -> Tensor:
        """Produce ``g^l`` for this task.

        ``state`` is ``g^{l-1}_task || g^{l-1}_S`` (or just the task state
        when no shared bank exists).  ``pairs`` optionally carries the
        precomputed pair features shared across layers and towers.  On
        the planned path ``generic_logits`` / ``adj_logits`` carry
        factorized attention logits, making ``state`` and the raw
        embeddings unnecessary (pass ``None``).  The adjusted weights
        fold into the generic ones (see the module docstring), so the
        banks are mixed once; ``operand`` optionally carries the joined
        ``[own | S]`` array (:meth:`GateAttention.mix`).
        """
        banks = [own_bank]
        if self.shared:
            if shared_bank is None:
                raise ValueError("TaskGate built with shared=True needs a shared bank")
            banks.append(shared_bank)
        weights = self.generic.attention.weights(state, generic_logits)
        if self.adjusted is not None:
            heads = self.adjusted.weights(e_u, e_i, e_p, pairs=pairs, logits=adj_logits)
            spans = self.fold_spans(own_bank.shape[1])
            weights = _fold(weights, heads, spans, self.alpha)
        return GateAttention.mix(weights, banks, operand)


class SharedGate(Module):
    """Gate S (Eq. 14): generic attention over all three expert banks."""

    def __init__(self, state_dim: int, n_experts: int, softmax: bool = True, seed=None) -> None:
        super().__init__()
        self.attention = GateAttention(state_dim, 3 * n_experts, softmax=softmax, seed=seed)

    def forward(
        self,
        state: Tensor,
        bank_a: Tensor,
        bank_s: Tensor,
        bank_b: Tensor,
        logits: Optional[Tensor] = None,
        operand=None,
    ) -> Tensor:
        """``state`` is ``g^{l-1}_A || g^{l-1}_S || g^{l-1}_B``.

        ``logits`` optionally carries factorized attention logits from
        the planned path; ``state`` may then be ``None``.  ``operand``
        optionally carries the joined ``[A | S | B]`` array
        (:meth:`GateAttention.mix`).
        """
        attention = self.attention
        weights = attention.weights(state, logits)
        return attention.mix(weights, [bank_a, bank_s, bank_b], operand)
