"""The multi-task learning module: L layers of experts + gates (Sec. II-D).

Layer topology (Fig. 3 of the paper): each layer holds three expert
banks (A, B, S) and three gates.  Gate states thread through the stack:

* layer-0 state: ``g⁰_A = g⁰_B = g⁰_S = e_u || e_i || e_p`` (Eq. 15);
* layer ``l``: banks read the concatenated previous gate states
  (Eq. 7-9) and gates mix the banks (Eq. 10-14);
* the final layer's ``g^L_A`` / ``g^L_B`` feed the prediction MLPs.

The MGBR-M ablation drops bank S and gate S, collapsing the module into
two independent towers (each task gate then attends only over its own
bank, and the adjusted-gate pair heads land on that bank as well).

Live heads: the last layer's ``g^L_A`` / ``g^L_B`` each feed one
tower and ``g^L_S`` feeds nothing, so a caller reading one head leaves
part of the stack dead.  :meth:`MultiTaskModule.live_outputs` walks
back from the requested heads and names, per layer, the gate outputs
that must be produced; the planned forward skips every bank, gate,
state concat and adjusted-gate pair logit outside that set.  Live
rows carry the rule down to rows: given the unique-request span each
head's losses read (a row-grouped training plan's ``head_rows``),
:meth:`MultiTaskModule.live_rows` names, per layer, the span each bank
and gate runs on, and the planned forward reads narrower spans through
zero-copy row views and sliced ``*_pos`` arrays.

Bank layout: each bank writes its output once, into a slot of a buffer
shared with the banks it is mixed with, so a gate reads its operand as
one slice instead of concatenating (:meth:`MTLLayer._bank_slots`).  A
layer with a live gate S writes ``[a | s | b]``: gate S reads all of it,
gate A its ``[a | s]`` columns, and gate B, whose ``[b | s]`` is not
consecutive there, concatenates.  The last layer (gate S dead) gives
each live task gate its own ``[own | s]`` buffer over its rows; gate B's
rows of bank S are copied into its buffer.

Shape note: the general formulas make the first layer's
expert inputs the *duplicated* concatenation ``g⁰_A || g⁰_S`` (identical
vectors).  ``first_layer_compact=True`` feeds ``g⁰`` once instead,
matching the papers' annotated ``6d``/``9d`` first-layer sizes under its
``e_u ∈ R^d`` reading.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.core.config import MGBRConfig
from repro.core.experts import ExpertBank
from repro.core.gates import AdjustedGate, SharedGate, TaskGate
from repro.nn.backend import get_backend
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat, gather_add, get_default_dtype
from repro.utils.rng import SeedLike, spawn_rngs

__all__ = ["MTLLayer", "MultiTaskModule"]

#: Previous-layer gate outputs each expert bank reads (Eq. 7-9), keyed
#: on whether the layer has a shared bank (MGBR-M drops it).
_BANK_READS = {
    True: {"a": frozenset("as"), "b": frozenset("bs"), "s": frozenset("asb")},
    False: {"a": frozenset("a"), "b": frozenset("b")},
}

# Row spans: ``(start, stop)`` ranges of a plan's unique rows, ``None``
# for all of them (every call without row groups, which so runs exactly
# the unpruned ops).


def _span(start: int, stop: int, n: int):
    return None if (start, stop) == (0, n) else (start, stop)


def _join(spans, n: int):
    """Smallest span covering ``spans`` (the plan's row groups make any
    two of them overlap or touch, so the union is one range); all rows
    when there are none."""
    spans = list(spans)
    if not spans or any(s is None for s in spans):
        return None
    return _span(min(s for s, _ in spans), max(e for _, e in spans), n)


def _meet(spans):
    """Rows every one of ``spans`` covers."""
    spans = [s for s in spans if s is not None]
    if not spans:
        return None
    start = max(s for s, _ in spans)
    return (start, max(start, min(e for _, e in spans)))


def _view(t, have, want):
    """Rows ``want`` of ``t``, whose rows are the span ``have``.

    A zero-copy row slice (a tensor node, or a NumPy view of a ``*_pos``
    array); ``t`` itself when the spans agree.
    """
    if t is None or want == have:
        return t
    start = 0 if have is None else have[0]
    return t[want[0] - start : want[1] - start]


def _copy(mirror) -> None:
    """Write ``mirror = (src, dst)``'s ``src`` into ``dst`` (no-op for ``None``).

    Adding ``-0.0`` returns every float unchanged, signed zeros and NaN
    included, so this is an exact copy through a counted primitive.
    """
    if mirror is not None:
        src, dst = mirror
        get_backend().add(src, src.dtype.type(-0.0), out=dst)


class MTLLayer(Module):
    """One layer of the multi-task module.

    Parameters
    ----------
    task_state_dim: width of each task gate's previous output
        (``6d_view`` at layer 1, expert width afterwards).
    expert_dim: expert/gate output width (the paper's ``d``).
    pair_dim: width of the raw pair embeddings ``e_u||e_i`` (4d).
    n_experts: ``K``.
    shared: include bank S + gate S (False under MGBR-M).
    compact_input: feed the previous state once instead of the
        duplicated concatenation (only meaningful when all previous
        states are identical, i.e. at layer 1).
    alpha_a / alpha_b: adjusted-gate control coefficients.
    """

    def __init__(
        self,
        task_state_dim: int,
        expert_dim: int,
        pair_dim: int,
        n_experts: int,
        shared: bool = True,
        compact_input: bool = False,
        alpha_a: float = 0.1,
        alpha_b: float = 0.1,
        gate_softmax: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rngs = spawn_rngs(seed, 6)
        self.shared = shared
        self.compact_input = compact_input
        if compact_input:
            in_task = task_state_dim
            in_shared = task_state_dim
        else:
            in_task = 2 * task_state_dim if shared else task_state_dim
            in_shared = 3 * task_state_dim
        self.in_task = in_task
        self.in_shared = in_shared

        self.experts_a = ExpertBank(in_task, expert_dim, n_experts, seed=rngs[0])
        self.experts_b = ExpertBank(in_task, expert_dim, n_experts, seed=rngs[1])
        self.gate_a = TaskGate(
            in_task, pair_dim, n_experts, own_is_ui=True, alpha=alpha_a,
            softmax=gate_softmax, shared=shared, seed=rngs[2],
        )
        self.gate_b = TaskGate(
            in_task, pair_dim, n_experts, own_is_ui=False, alpha=alpha_b,
            softmax=gate_softmax, shared=shared, seed=rngs[3],
        )
        if shared:
            self.experts_s = ExpertBank(in_shared, expert_dim, n_experts, seed=rngs[4])
            self.gate_s = SharedGate(in_shared, n_experts, softmax=gate_softmax, seed=rngs[5])
        else:
            self.experts_s = None
            self.gate_s = None

    @property
    def outputs(self) -> FrozenSet[str]:
        """Every gate output this layer can produce (``"s"`` when shared)."""
        return frozenset("asb") if self.shared else frozenset("ab")

    def live_banks(self, live: Iterable[str]) -> FrozenSet[str]:
        """Expert banks the gates in ``live`` mix.

        A task gate X reads bank X, plus bank S when the layer is
        shared; gate S reads all three banks.
        """
        live = frozenset(live)
        if "s" in live:
            return frozenset("asb")
        if self.shared and live:
            return live | {"s"}
        return live

    def _bank_slots(self, banks, live, rows, n_rows):
        """Buffers for the live banks: each bank's slot and each gate's operand.

        Every bank writes its output once, into a slot of a buffer laid
        out so that the gates mixing it read one slice of that buffer
        instead of concatenating.  When gate S is live the layer has one
        buffer ``[a | s | b]``: gate S mixes all of it and gate A its
        ``[a | s]`` columns, while gate B's ``[b | s]`` is not
        consecutive, so gate B concatenates.  Otherwise (the last layer)
        each live task gate gets its own ``[own | s]`` buffer, which it
        reads whole: bank S writes the first one, and gate B's rows of
        it are copied into the second (the ``s′`` columns).  A wider
        ``[a | s | b | s′]`` buffer, which would spare gate B's
        concatenation in every layer, measured slower: its sparser views
        cost the mixes more than the concatenation does.

        ``rows`` is the layer's ``(bank spans, gate spans)``; a buffer
        covers its first bank's span (``n_rows`` rows for bank S, whose
        span holds every other), and each slot and operand the rows of
        its own span.  Returns ``(slots, operands, mirror)``: gates
        without an operand concatenate (:meth:`GateAttention.mix`), and
        ``mirror`` is the ``(s, s′)`` pair to copy once bank S is
        written (``None`` without one).  Without a shared bank every
        gate mixes a single bank: ``({}, {}, None)``.
        """
        if not self.shared:
            return {}, {}, None
        bank_rows, gate_rows = rows
        k, d = self.experts_a.n_experts, self.experts_a.out_dim
        home = bank_rows.get("s")

        def at(span, cover):
            """Rows of ``span`` inside a buffer covering ``cover``."""
            start = 0 if cover is None else cover[0]
            return slice(None) if span is None else slice(span[0] - start, span[1] - start)

        def empty(span, slots):
            n = n_rows if span == home else span[1] - span[0]
            return get_backend().empty((n, slots * k, d), dtype=get_default_dtype())

        if "s" in live:
            buf = empty(home, 3)
            slots = {x: buf[at(bank_rows.get(x), home), i * k : (i + 1) * k]
                     for i, x in enumerate("asb")}
            width = {"a": 2 * k, "s": 3 * k}
            operands = {x: buf[at(gate_rows.get(x), home), : width[x]]
                        for x in live if x in width}
            return slots, operands, None
        slots, operands, mirror = {}, {}, None
        for i, x in enumerate(x for x in "ab" if x in live):
            # Bank S writes the first buffer, which so covers its rows.
            cover = bank_rows.get(x) if i else home
            buf = empty(cover, 2)
            rows_x = at(gate_rows.get(x), cover)
            slots[x] = buf[at(bank_rows.get(x), cover), :k]
            operands[x] = buf[rows_x]
            if i:
                mirror = (slots["s"][at(gate_rows.get(x), home)], buf[rows_x, k:])
            else:
                slots["s"] = buf[:, k:]
        return slots, operands, mirror

    def forward(
        self,
        g_a: Optional[Tensor],
        g_s: Optional[Tensor],
        g_b: Optional[Tensor],
        e_u: Tensor,
        e_i: Tensor,
        e_p: Tensor,
        pairs=None,
        adj_logits=None,
        live: Optional[Iterable[str]] = None,
        rows=None,
        in_rows=None,
    ) -> Tuple[Optional[Tensor], Optional[Tensor], Optional[Tensor]]:
        """Advance the gate states one layer.

        Returns ``(g_a, g_s, g_b)``; ``g_s`` is ``None`` without sharing.
        ``pairs`` optionally carries the precomputed pair features (see
        :meth:`repro.core.gates.AdjustedGate.build_pairs`) so the stack
        concatenates them once instead of per gate per layer.
        ``adj_logits`` optionally carries the two gates' factorized
        adjusted-gate logit triples ``(logits_a, logits_b)`` (the planned
        path); the raw embeddings are then unused and may be ``None``.
        ``live`` names the gate outputs to produce (default: all of
        them, see :meth:`MultiTaskModule.live_outputs`); dead outputs
        come back as ``None`` and the banks, state concats and gates
        only they need are skipped.  Inputs the live banks do not read
        may be ``None``.

        ``rows`` optionally carries this layer's ``(bank spans, gate
        spans)`` (:meth:`MultiTaskModule.live_rows`) and ``in_rows`` the
        spans the inputs cover (the previous layer's gate spans): each
        bank then runs on its own span, reading row views of the gate
        states, and each gate on its span, reading row views of its
        banks.  ``adj_logits`` must already cover the gate spans.
        """
        live = self.outputs if live is None else frozenset(live)
        banks = self.live_banks(live)
        la, lb = adj_logits if adj_logits is not None else (None, None)
        bank_rows, gate_rows = rows if rows is not None else ({}, {})
        in_rows = in_rows or {}
        inputs = {"a": g_a, "s": g_s, "b": g_b}

        # Each bank reads Eq. 10 / 14's state concatenation, or only its
        # own previous state when the input is compact or unshared.
        concats = {"a": "as", "b": "bs", "s": "asb"}

        def state(bank):
            if bank not in banks:
                return None
            names = concats[bank] if self.shared and not self.compact_input else bank
            want = bank_rows.get(bank)
            parts = [_view(inputs[x], in_rows.get(x), want) for x in names]
            return parts[0] if len(parts) == 1 else concat(parts, axis=1)

        state_s, state_b = state("s"), state("b")
        if (
            state_s is not None
            and "a" in banks
            and not self.compact_input
            and not state_s.requires_grad
            and bank_rows.get("a") == bank_rows.get("s")
        ):
            # [g_a | g_s] is a prefix of [g_a | g_s | g_b]: read it as a
            # view.  (Under a graph the view's adjoint would need a
            # full-width gradient buffer, so recording concatenates.)
            state_a = state_s[:, : self.in_task]
        else:
            state_a = state("a")
        n_rows = state_s.shape[0] if state_s is not None else 0
        slots, operands, mirror = self._bank_slots(banks, live, (bank_rows, gate_rows), n_rows)
        bank_a = self.experts_a(state_a, out=slots.get("a")) if "a" in banks else None
        bank_b = self.experts_b(state_b, out=slots.get("b")) if "b" in banks else None
        bank_s = self.experts_s(state_s, out=slots.get("s")) if "s" in banks else None
        _copy(mirror)

        def at(t, bank, gate):
            return _view(t, bank_rows.get(bank), gate_rows.get(gate))

        new_a = new_s = new_b = None
        if "a" in live:
            new_a = self.gate_a(
                at(state_a, "a", "a"), at(bank_a, "a", "a"), at(bank_s, "s", "a"),
                e_u, e_i, e_p, pairs=pairs, adj_logits=la, operand=operands.get("a"),
            )
        if "b" in live:
            new_b = self.gate_b(
                at(state_b, "b", "b"), at(bank_b, "b", "b"), at(bank_s, "s", "b"),
                e_u, e_i, e_p, pairs=pairs, adj_logits=lb, operand=operands.get("b"),
            )
        if "s" in live:
            new_s = self.gate_s(
                at(state_s, "s", "s"),
                at(bank_a, "a", "s"), at(bank_s, "s", "s"), at(bank_b, "b", "s"),
                operand=operands.get("s"),
            )
        return new_a, new_s, new_b

    # ------------------------------------------------------------------
    # Factorized layer-0 (planned scoring path)
    # ------------------------------------------------------------------
    def _entity_blocks(self, view_dim: int, entity: int, folds: int):
        """Weight-row blocks one entity occupies in the concat gate state.

        The layer-0 state is ``folds`` copies of ``g⁰ = e_u||e_i||e_p``;
        entity ``j``'s segment sits at offset ``j·view_dim`` inside each
        copy.  Folding the copies sums their weight blocks, which is
        exactly what the duplicated concatenation computes.
        """
        triple = 3 * view_dim
        off = entity * view_dim
        return [(f * triple + off, f * triple + off + view_dim) for f in range(folds)]

    def forward_planned_first(
        self,
        e_u: Tensor,
        e_i: Tensor,
        e_p: Tensor,
        positions,
        adj_logits=None,
        live: Optional[Iterable[str]] = None,
        rows=None,
    ) -> Tuple[Optional[Tensor], Optional[Tensor], Optional[Tensor]]:
        """Layer-0 forward with ``g⁰`` factorized over unique entities.

        ``e_u``/``e_i``/``e_p`` hold one row per *unique* entity of a
        :class:`repro.plan.ScoringPlan` (gathered upstream — from a
        dense tensor or per-shard from a :class:`repro.store
        .ProcessShardedStore`, the stack is layout-blind); ``positions(span)``
        returns the ``(user_pos, item_pos, part_pos)`` arrays mapping the
        unique requests of a row span (``None``: all of them) onto them.
        Every layer-0 linear (expert
        and generic-gate, Eq. 7-10/14) reads a concatenation of ``g⁰``
        copies, so ``W·[e_u; e_i; e_p] = W_u·e_u + W_i·e_i + W_p·e_p``
        distributes into per-entity partial projections computed once
        per unique entity and gather-added per request — the FLOP cut
        that makes candidate-matrix scoring cheap.  Each bank's partial
        projection is a single stacked matmul over cached fold weights
        (:meth:`repro.core.experts.ExpertBank.project_blocks`), so the
        per-entity work is one GEMM per bank rather than ``K``.
        ``live`` prunes dead banks and gates, and ``rows`` restricts
        each bank and gate to its row span, exactly as in
        :meth:`forward`; a bank or generic-gate logit over a span
        gather-adds through that span's sliced ``*_pos`` arrays.
        """
        live = self.outputs if live is None else frozenset(live)
        banks = self.live_banks(live)
        if rows is None:
            rows = (dict.fromkeys(banks), dict.fromkeys(live))
        bank_rows, gate_rows = rows
        if self.compact_input:
            folds_task, folds_shared = 1, 1
        elif self.shared:
            folds_task, folds_shared = 2, 3
        else:
            folds_task, folds_shared = 1, 0
        v = e_u.shape[-1]
        blocks_task = [self._entity_blocks(v, j, folds_task) for j in range(3)]
        blocks_shared = [self._entity_blocks(v, j, folds_shared) for j in range(3)]

        def per_pair(project, blocks, span, out=None):
            """Partial-project each entity table, then gather-add per request."""
            tables = [project(x, block) for x, block in zip((e_u, e_i, e_p), blocks)]
            return gather_add(tables, positions(span), out=out)

        def live_pair(name, project, blocks, spans, out=None):
            """``per_pair`` over ``spans[name]``; ``None`` when not live."""
            return per_pair(project, blocks, spans[name], out) if name in spans else None

        n_rows = len(positions(bank_rows.get("s"))[0])
        slots, operands, mirror = self._bank_slots(banks, live, rows, n_rows)
        bank_a = live_pair(
            "a", self.experts_a.project_blocks, blocks_task, bank_rows, slots.get("a")
        )
        bank_b = live_pair(
            "b", self.experts_b.project_blocks, blocks_task, bank_rows, slots.get("b")
        )
        logits_a = live_pair(
            "a", self.gate_a.generic.attention.project_blocks, blocks_task, gate_rows
        )
        logits_b = live_pair(
            "b", self.gate_b.generic.attention.project_blocks, blocks_task, gate_rows
        )
        la, lb = adj_logits if adj_logits is not None else (None, None)
        bank_s = logits_s = None
        if self.shared:
            bank_s = live_pair(
                "s", self.experts_s.project_blocks, blocks_shared, bank_rows, slots.get("s")
            )
            logits_s = live_pair(
                "s", self.gate_s.attention.project_blocks, blocks_shared, gate_rows
            )
        _copy(mirror)

        def at(t, bank, gate):
            return _view(t, bank_rows.get(bank), gate_rows.get(gate))

        new_a = new_s = new_b = None
        if "a" in live:
            new_a = self.gate_a(
                None, at(bank_a, "a", "a"), at(bank_s, "s", "a"), None, None, None,
                adj_logits=la, generic_logits=logits_a, operand=operands.get("a"),
            )
        if "b" in live:
            new_b = self.gate_b(
                None, at(bank_b, "b", "b"), at(bank_s, "s", "b"), None, None, None,
                adj_logits=lb, generic_logits=logits_b, operand=operands.get("b"),
            )
        if "s" in live:
            new_s = self.gate_s(
                None, at(bank_a, "a", "s"), at(bank_s, "s", "s"), at(bank_b, "b", "s"),
                logits=logits_s, operand=operands.get("s"),
            )
        return new_a, new_s, new_b


class MultiTaskModule(Module):
    """The full L-layer expert/gate stack mapping ``(e_u,e_i,e_p)`` to
    the task representations ``(g^L_A, g^L_B)``.

    Constructed from an :class:`MGBRConfig`; respects its ablation
    switches (``use_shared_experts``, ``use_adjusted_gates``).
    """

    def __init__(self, config: MGBRConfig, seed: SeedLike = None) -> None:
        super().__init__()
        self.config = config
        shared = config.use_shared_experts
        alpha_a = config.alpha_a if config.use_adjusted_gates else 0.0
        alpha_b = config.alpha_b if config.use_adjusted_gates else 0.0
        pair_dim = 2 * config.view_dim  # e.g. e_u||e_i is 4d wide
        rngs = spawn_rngs(seed, config.mtl_layers)
        self._layers: List[MTLLayer] = []
        for layer_idx in range(config.mtl_layers):
            if layer_idx == 0:
                state_dim = config.triple_dim  # 6d: e_u||e_i||e_p
                compact = config.first_layer_compact
            else:
                state_dim = config.d
                compact = False
            layer = MTLLayer(
                task_state_dim=state_dim,
                expert_dim=config.d,
                pair_dim=pair_dim,
                n_experts=config.n_experts,
                shared=shared,
                compact_input=compact,
                alpha_a=alpha_a,
                alpha_b=alpha_b,
                gate_softmax=config.gate_softmax,
                seed=rngs[layer_idx],
            )
            setattr(self, f"mtl{layer_idx}", layer)
            self._layers.append(layer)

    def forward(self, e_u: Tensor, e_i: Tensor, e_p: Tensor) -> Tuple[Tensor, Tensor]:
        """Run the stack; returns the final ``(g^L_A, g^L_B)``.

        Inputs are per-sample object embeddings, each ``(batch, 2d)``.
        """
        g0 = concat([e_u, e_i, e_p], axis=1)  # Eq. 15
        g_a, g_s, g_b = g0, g0, g0
        if not self.config.use_shared_experts:
            g_s = None
        # The adjusted gates' pair features depend only on the raw
        # embeddings — build them once and share across all layers and
        # both towers (three concats total instead of three per gate).
        pairs = None
        if self.config.use_adjusted_gates and (
            self.config.alpha_a > 0 or self.config.alpha_b > 0
        ):
            pairs = AdjustedGate.build_pairs(e_u, e_i, e_p)
        for layer in self._layers:
            g_a, g_s, g_b = layer(g_a, g_s, g_b, e_u, e_i, e_p, pairs=pairs)
        return g_a, g_b

    def live_outputs(self, heads: Iterable[str]) -> List[FrozenSet[str]]:
        """The gate outputs each layer must produce to serve ``heads``.

        ``heads`` names the towers a caller reads: ``"a"`` (``g^L_A``)
        and/or ``"b"`` (``g^L_B``).  Walking back from them, a layer's
        live gates need their banks (:meth:`MTLLayer.live_banks`), and
        bank A reads the previous layer's ``{a, s}``, bank B ``{b, s}``
        and bank S ``{a, s, b}`` — ``{a}`` / ``{b}`` under MGBR-M.
        Returns one set per layer, first layer first.  The last
        layer's gate S is never live: nothing reads ``g^L_S``.
        """
        live = frozenset(heads)
        if not live or not live <= {"a", "b"}:
            raise ValueError(f"heads must be a non-empty subset of 'ab', got {heads!r}")
        reads = _BANK_READS[self.config.use_shared_experts]
        per_layer = []
        for layer in reversed(self._layers):
            per_layer.append(live)
            live = frozenset().union(*(reads[bank] for bank in layer.live_banks(live)))
        return per_layer[::-1]

    def live_rows(self, live: List[FrozenSet[str]], rows, n: int):
        """Per-layer ``(bank spans, gate spans)`` serving ``rows``.

        ``live`` is :meth:`live_outputs`' answer and ``rows`` maps each
        requested head to the span of the plan's ``n`` unique rows its
        losses read (:attr:`repro.plan.ScoringPlan.head_rows`); a head
        it leaves out is read on every row, so ``rows={}`` gives every
        bank and gate all rows (span ``None``).  Walking back from the
        heads, a bank runs on the union of the spans of the live gates
        mixing it, and a gate output on the union of the spans of the
        next layer's banks reading it.  A live gate nothing reads (only
        ``g^L_S``, when a caller keeps it live) runs on the rows all its
        banks already cover, so it never widens them.  Under the
        default shared stack only the last layer narrows; under MGBR-M
        each tower keeps its head's span throughout.
        """
        reads = _BANK_READS[self.config.use_shared_experts]
        want = {
            head: _span(*rows[head], n) if head in rows else None
            for head in "ab" if head in live[-1]
        }
        per_layer = []
        for layer, out in zip(reversed(self._layers), reversed(live)):
            mixes = {gate: layer.live_banks(gate) for gate in out}
            gate_rows = {gate: want[gate] for gate in out if gate in want}
            bank_rows = {
                bank: _join((gate_rows[g] for g in gate_rows if bank in mixes[g]), n)
                for bank in layer.live_banks(out)
            }
            for gate in out - gate_rows.keys():
                gate_rows[gate] = _meet(bank_rows[b] for b in mixes[gate])
            per_layer.append((bank_rows, gate_rows))
            inputs = frozenset().union(*(reads[bank] for bank in bank_rows))
            want = {
                x: _join((bank_rows[b] for b in bank_rows if x in reads[b]), n)
                for x in inputs
            }
        return per_layer[::-1]

    def forward_planned(
        self,
        e_u: Tensor,
        e_i: Tensor,
        e_p: Tensor,
        user_pos,
        item_pos,
        part_pos,
        heads: Iterable[str] = ("a", "b"),
        rows=None,
    ) -> Tuple[Optional[Tensor], Optional[Tensor]]:
        """Run the stack over a deduplicated scoring plan.

        Inputs are *unique-entity* embedding rows plus the per-request
        gather maps of a :class:`repro.plan.ScoringPlan` (Task A
        passes the single mean-participant row with an all-zero
        ``part_pos``).  Layer 0 — the bulk of the stack's FLOPs, its
        linears being 6d/12d/18d wide — runs factorized per unique
        entity (:meth:`MTLLayer.forward_planned_first`), and every
        adjusted gate's pair logits are likewise assembled from
        per-entity partials, so no ``(requests, 4d)`` pair feature is
        ever materialised.  Later layers run densely over the unique
        requests, which the plan has already collapsed.  Returns
        ``(g^L_A, g^L_B)`` with one row per unique request; numerically
        this matches :meth:`forward` up to float re-association.

        ``heads`` selects the towers to compute; an unrequested one
        comes back as ``None`` and everything only it needs is skipped
        (:meth:`live_outputs`).  The surviving ops are the same
        primitives on the same operands, so a requested tower is
        bit-identical whichever heads are asked for.

        ``rows`` (live rows) optionally maps each head to the span
        ``(start, stop)`` of unique requests its caller reads — the
        ``head_rows`` of a row-grouped training plan.  Each bank, gate
        and adjusted-gate pair logit then runs only on the span its
        readers need (:meth:`live_rows`): pair logits gather through
        sliced ``*_pos`` arrays and gate states and banks are read
        through zero-copy row views, and each returned tower covers its
        head's span only.  Grouping re-associates the GEMMs, so values
        match the unpruned stack to float tolerance.  ``rows=None``
        (evaluation and serving) runs exactly the unpruned ops.

        Every op here (gathers, weight-block partial projections,
        combines) records on the autograd tape, so the same path serves
        both inference (under ``no_grad``) and the planned *training*
        step, where gradients flow back through the ``*_pos`` gather
        maps into the unique-entity embeddings (and, for store-backed
        tables, onward through the per-shard scatter-add).  The fold
        weights behind every ``project_blocks`` call are cached across
        the step's planned calls and evaluation chunks, keyed on
        parameter versions so an optimizer step can never serve stale
        folds (tests/test_fold_cache.py).
        """
        live = self.live_outputs(heads)
        spans = self.live_rows(live, rows or {}, len(user_pos))
        sliced = {None: (user_pos, item_pos, part_pos)}

        def positions(span):
            # One slice per span, so every gather over it shares the
            # index array (and its cached scatter operator).
            if span not in sliced:
                sliced[span] = tuple(
                    _view(pos, None, span) for pos in (user_pos, item_pos, part_pos)
                )
            return sliced[span]

        adj_logits = []
        for layer, out, (_, gate_rows) in zip(self._layers, live, spans):
            logits_for = lambda gate, name: (
                gate.adjusted.pair_logits(e_u, e_i, e_p, *positions(gate_rows[name]))
                if gate.adjusted is not None and name in out
                else None
            )
            adj_logits.append(
                (logits_for(layer.gate_a, "a"), logits_for(layer.gate_b, "b"))
            )
        first = self._layers[0]
        g_a, g_s, g_b = first.forward_planned_first(
            e_u, e_i, e_p, positions,
            adj_logits=adj_logits[0], live=live[0], rows=spans[0],
        )
        for index, layer in enumerate(self._layers[1:], start=1):
            g_a, g_s, g_b = layer(
                g_a, g_s, g_b, None, None, None, adj_logits=adj_logits[index],
                live=live[index], rows=spans[index], in_rows=spans[index - 1][1],
            )
        return g_a, g_b
