"""Live-row pruning of the planned training step.

A training plan built with per-segment ``reads`` orders its unique rows
``[A-only | both | B-only]`` and the joint stack runs each head's
last-layer banks, gates and tower (every layer of a tower under
MGBR-M) only on the rows that head's losses read.  Grouping rows
re-associates the GEMMs and scatter-adds, so the oracle here is a
tolerance, not bytes: the row-pruned step must agree with a step that
computes everything on every row.  The scatter maps themselves are
exact and are checked bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import MGBR, MGBRConfig
from repro.nn import CountingBackend, NumpyBackend, backend_scope
from repro.nn.tensor import Tensor, _scatter_rows_add
from repro.plan import PlannedBatch
from repro.training import TrainConfig, Trainer

_BASE = MGBRConfig.small(d=8, seed=3)

CONFIGS = {
    "default": {},
    "no-shared": {"use_shared_experts": False},
    "no-adjusted": {"use_adjusted_gates": False},
    "layers-1": {"mtl_layers": 1},
    "layers-3": {"mtl_layers": 3},
    "compact": {"first_layer_compact": True},
}

#: (model config, TrainConfig overrides): the stack configurations, plus
#: the auxiliary weightings that change which head reads ``aux_ti``.
CASES = {name: (name, {}) for name in CONFIGS}
CASES["beta_a=0"] = ("default", {"beta_a": 0.0})
CASES["beta_b=0"] = ("default", {"beta_b": 0.0})


def _mgbr(dataset, name):
    config = dataclasses.replace(_BASE, **CONFIGS[name])
    return MGBR(dataset.train, dataset.n_users, dataset.n_items, config=config)


def _trainer(dataset, name, **over):
    config = TrainConfig(
        epochs=1, batch_size=32, learning_rate=5e-3, train_negatives=3,
        aux_negatives=3, seed=0, grad_clip=1.0, **over,
    )
    trainer = Trainer(_mgbr(dataset, name), dataset, config)
    assert trainer._use_planned
    return trainer


def _every_row(self, emb, plan):
    """Both towers on every unique row, cut to each head's rows after."""
    g_a, g_b = self._planned_towers(emb, plan)
    (a0, a1), (b0, b1) = plan.head_rows["a"], plan.head_rows["b"]
    return self.head_a(g_a)[a0:a1], self.head_b(g_b)[b0:b1]


def _two_steps(dataset, name, over):
    trainer = _trainer(dataset, name, **over)
    model = trainer.model
    losses, grads = [], []
    for _, pair in zip(range(2), trainer._paired_batches()):
        losses.append(trainer._step(pair["a"], pair["b"]))
        grads.append({
            key: p.grad.copy() for key, p in model.named_parameters()
            if p.grad is not None
        })
    return losses, grads, model.state_dict()


def _close(got, want, what, atol=1e-14):
    # ``atol`` only covers entries that cancel to ~0 (a bias gradient
    # summing to 1e-17, say), whose relative error is meaningless.
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=atol, err_msg=what)


# ----------------------------------------------------------------------
# The pruned step is the every-row step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(CASES))
def test_row_pruned_step_matches_every_row_step(tiny_dataset, monkeypatch, case):
    name, over = CASES[case]
    losses, grads, state = _two_steps(tiny_dataset, name, over)
    with monkeypatch.context() as patch:
        patch.setattr(MGBR, "planned_joint_logits", _every_row)
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
        # Adam divides by sqrt(v) + 1e-8, so a gradient entry that is
        # float noise (~1e-17) moves its weight by ~lr * 1e-9.
        _close(state[key], ref_state[key], f"post-Adam {key}", atol=1e-10)


# ----------------------------------------------------------------------
# Shape audit: head-only matmuls see only their head's rows
# ----------------------------------------------------------------------
class _MatmulLog(NumpyBackend):
    """Reference numerics; records every matmul's operands' shapes."""

    def __init__(self):
        self.calls = []

    def matmul(self, a, b, out=None):
        self.calls.append((a.shape, b))
        return NumpyBackend.matmul(self, a, b, out=out)


def _dense_weights(model, head):
    """Weights that only ``head`` reads, multiplied per unique request."""
    # Layer 0 projects per unique entity, not per request; of the dense
    # layers, the shared stack narrows the last only, MGBR-M every one.
    layers = model.mtl._layers[1:]
    if model.mtl.config.use_shared_experts:
        layers = layers[-1:]
    weights = []
    for layer in layers:
        bank = layer.experts_a if head == "a" else layer.experts_b
        gate = layer.gate_a if head == "a" else layer.gate_b
        weights += [expert.weight for expert in bank._experts]
        weights.append(gate.generic.attention.proj.weight)
    tower = model.head_a if head == "a" else model.head_b
    weights += [p for key, p in tower.named_parameters() if key.endswith("weight")]
    return weights


@pytest.mark.parametrize("name", ["default", "no-shared", "layers-3"])
def test_head_matmuls_see_only_their_rows(tiny_dataset, monkeypatch, name):
    trainer = _trainer(tiny_dataset, name)
    plans = []
    step_plan = Trainer._step_plan
    monkeypatch.setattr(
        Trainer, "_step_plan",
        lambda self, *args: plans.append(step_plan(self, *args)) or plans[-1],
    )
    log = _MatmulLog()
    pair = next(iter(trainer._paired_batches()))
    with backend_scope(log):
        trainer._step(pair["a"], pair["b"])
    (plan,) = [batch.plan for batch in plans]
    n = plan.n_pairs
    (_, hi_a), (lo_b, _) = plan.head_rows["a"], plan.head_rows["b"]
    assert 0 < n - lo_b < n and 0 < hi_a < n  # both heads are narrower than n
    for head, rows in (("a", hi_a), ("b", n - lo_b)):
        for weight in _dense_weights(trainer.model, head):
            # The forward ``x @ W`` and (unless the output is one wide,
            # a broadcast product) the adjoint ``g @ Wᵀ``.
            seen = [
                shape[-2] for shape, other in log.calls
                if np.may_share_memory(other, weight.data)
            ]
            assert set(seen) == {rows}, (head, weight.shape, seen)


# ----------------------------------------------------------------------
# PlannedBatch row groups
# ----------------------------------------------------------------------
def _segments(rng, beta_a=True, beta_b=True, aux=True, n_users=12, n_items=7):
    """Trainer-shaped segments and reads (sentinel participant = n_users)."""
    b, n, t = 5, 3, 4
    users_a = rng.integers(0, n_users, b)
    users_b = rng.integers(0, n_users, b)
    items_b = rng.integers(0, n_items, b)
    parts_b = rng.integers(0, n_users, b)
    segments = {
        "pos_a": (users_a, rng.integers(0, n_items, b), None, (b,)),
        "neg_a": (np.repeat(users_a, n), rng.integers(0, n_items, b * n), None, (b, n)),
    }
    reads = {"pos_a": "a", "neg_a": "a"}
    if aux:
        if beta_a:
            segments["aux_tp"] = (
                np.repeat(users_b, t), np.repeat(items_b, t),
                rng.integers(0, n_users, b * t), (b, t),
            )
            reads["aux_tp"] = "a"
        segments["aux_ti"] = (
            np.repeat(users_b, t), rng.integers(0, n_items, b * t),
            np.repeat(parts_b, t), (b, t),
        )
        reads["aux_ti"] = "a" * beta_a + "b" * beta_b
    segments["pos_b"] = (users_b, items_b, parts_b, (b,))
    # Negatives drawn from a small pool so some collide with aux_tp rows:
    # a row both heads read without sharing a segment.
    segments["neg_b"] = (
        np.repeat(users_b, n), np.repeat(items_b, n),
        rng.integers(0, 3, b * n), (b, n),
    )
    reads.update(pos_b="b", neg_b="b")
    return segments, reads


GROUPINGS = {
    "full": {},
    "beta_a=0": {"beta_a": False},
    "beta_b=0": {"beta_b": False},
    "no-aux": {"aux": False},
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("grouping", sorted(GROUPINGS))
def test_grouped_segments_match_scatter_then_take(grouping, seed):
    rng = np.random.default_rng(seed)
    segments, reads = _segments(rng, **GROUPINGS[grouping])
    batch = PlannedBatch.build(segments, sentinel=12, reads=reads)
    plan = batch.plan
    n = plan.n_pairs
    (a0, hi_a), (lo_b, b1) = plan.head_rows["a"], plan.head_rows["b"]
    assert a0 == 0 and b1 == n and 0 <= lo_b <= hi_a <= n

    # Every request keeps its ids: the regrouped plan scatters back to
    # exactly the segments it was built from.
    for name, (users, items, parts, _) in segments.items():
        np.testing.assert_array_equal(
            batch.take(batch.scatter(plan.users), name).ravel(), users
        )
        np.testing.assert_array_equal(
            batch.take(batch.scatter(plan.items), name).ravel(), items
        )
        want_p = np.full(len(users), 12) if parts is None else parts
        np.testing.assert_array_equal(
            batch.take(batch.scatter(plan.participants), name).ravel(), want_p
        )

    # Rows sit in their group: [A-only | both | B-only].
    flat_rows = batch.scatter(np.arange(n))
    read_by = {h: np.zeros(n, dtype=bool) for h in "ab"}
    for name in segments:
        rows = batch.take(flat_rows, name).ravel()
        for head in reads[name]:
            read_by[head][rows] = True
    assert (read_by["a"] | read_by["b"]).all()
    both = read_by["a"] & read_by["b"]
    np.testing.assert_array_equal(np.flatnonzero(read_by["a"] & ~both), np.arange(lo_b))
    np.testing.assert_array_equal(np.flatnonzero(both), np.arange(lo_b, hi_a))
    np.testing.assert_array_equal(np.flatnonzero(read_by["b"] & ~both), np.arange(hi_a, n))
    # ... and each group keeps the ungrouped plan's row order.
    ungrouped = PlannedBatch.build(segments, sentinel=12).plan
    rows = np.stack([plan.users, plan.items, plan.participants], axis=1)
    base = np.stack([ungrouped.users, ungrouped.items, ungrouped.participants], axis=1)
    for lo, hi in ((0, lo_b), (lo_b, hi_a), (hi_a, n)):
        group = {tuple(r) for r in rows[lo:hi]}
        np.testing.assert_array_equal(
            rows[lo:hi], base[[tuple(r) in group for r in base]]
        )

    # Each head's per-segment logits are the old scatter-then-take, bitwise.
    scores = rng.normal(size=n)
    full = batch.scatter(scores)
    head_scores = {"a": scores[:hi_a], "b": scores[lo_b:]}
    for name, heads in reads.items():
        for head in heads:
            got = batch.take(batch.scatter(head_scores[head], head), name, head)
            assert got.tobytes() == batch.take(full, name).tobytes(), (name, head)
    stats = batch.stats()
    assert (stats["rows_a_only"], stats["rows_both"], stats["rows_b_only"]) == (
        lo_b, hi_a - lo_b, n - hi_a
    )


def test_groups_can_be_empty():
    rng = np.random.default_rng(0)
    # Without auxiliary segments nothing is read by both heads: pair
    # rows carry the sentinel participant, triple rows a real one.
    segments, reads = _segments(rng, aux=False)
    plan = PlannedBatch.build(segments, sentinel=12, reads=reads).plan
    assert plan.head_rows["a"][1] == plan.head_rows["b"][0]
    # A batch only head A reads leaves head B an empty span at the end.
    only_a = {k: v for k, v in segments.items() if reads[k] == "a"}
    batch = PlannedBatch.build(only_a, sentinel=12, reads={k: "a" for k in only_a})
    n = batch.plan.n_pairs
    assert batch.plan.head_rows == {"a": (0, n), "b": (n, n)}
    assert batch.scatter(np.zeros(0), "b").shape == (0,)


def test_grouped_scatter_backward_matches_ungrouped():
    rng = np.random.default_rng(3)
    segments, reads = _segments(rng)
    batch = PlannedBatch.build(segments, sentinel=12, reads=reads)
    n = batch.plan.n_pairs
    (_, hi_a), (lo_b, _) = batch.plan.head_rows["a"], batch.plan.head_rows["b"]
    values = rng.normal(size=n)
    weights = {name: rng.normal(size=batch.segments[name][1]) for name in segments}

    def grads(grouped):
        scores = {h: Tensor(values.copy(), requires_grad=True) for h in "ab"}
        total = 0.0
        for name, heads in reads.items():
            for head in heads:
                if grouped:
                    span = slice(0, hi_a) if head == "a" else slice(lo_b, n)
                    seg = batch.take(batch.scatter(scores[head][span], head), name, head)
                else:
                    seg = batch.take(batch.scatter(scores[head]), name)
                total = total + (seg * weights[name]).sum()
        total.backward()
        return {h: scores[h].grad for h in "ab"}

    got, want = grads(True), grads(False)
    for head in "ab":
        np.testing.assert_allclose(got[head], want[head], rtol=1e-12, atol=1e-15)


def test_reads_validation():
    rng = np.random.default_rng(0)
    segments, reads = _segments(rng)
    with pytest.raises(ValueError, match="every segment"):
        PlannedBatch.build(segments, sentinel=12, reads={"pos_a": "a"})
    with pytest.raises(ValueError, match="subset"):
        PlannedBatch.build(segments, sentinel=12, reads=dict(reads, pos_a="c"))
    with pytest.raises(ValueError, match="subset"):
        PlannedBatch.build(segments, sentinel=12, reads=dict(reads, pos_a=""))
    ungrouped = PlannedBatch.build(segments, sentinel=12)
    assert ungrouped.plan.head_rows is None and "rows_both" not in ungrouped.stats()
    with pytest.raises(ValueError, match="reads="):
        ungrouped.scatter(np.zeros(ungrouped.plan.n_pairs), "a")


# ----------------------------------------------------------------------
# The slice adjoint
# ----------------------------------------------------------------------
def _add_at_reference(shape, windows):
    """The historical adjoint: one zero-filled ``add.at`` buffer per slice,
    each added into the running gradient."""
    total = None
    for key, g in windows:
        buf = np.zeros(shape)
        np.add.at(buf, key, g)
        total = buf if total is None else total + buf
    return total


def test_slices_share_one_parent_buffer():
    x = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
    y = x * 1.0  # interior parent of every slice
    keys = [slice(0, 2), slice(1, 4), slice(3, 6), (slice(2, 5), slice(1, 2))]
    rng = np.random.default_rng(1)
    ups = [rng.normal(size=y.data[key].shape) for key in keys]
    total = sum(((y[key] * up).sum() for key, up in zip(keys, ups)), Tensor(0.0))
    counting = CountingBackend()
    with backend_scope(counting):
        total.backward()
    assert counting.counts.get("add_at", 0) == 0
    assert counting.counts.get("zeros_like", 0) == 1  # one buffer for four slices
    assert counting.copies == 0
    want = _add_at_reference(y.shape, list(zip(keys, ups)))
    assert x.grad.tobytes() == want.tobytes()


def test_slice_adjoint_normalises_signed_zero():
    """``-0.0`` upstream and in the parent's buffer both come out ``+0.0``,
    as adding a zero-filled buffer did."""
    x = Tensor(np.zeros(3), requires_grad=True)
    x.grad = np.array([-0.0, 1.0, -0.0])
    # ``* -1.0`` turns the upstream +0.0 into a -0.0 adjoint.
    (x[0:2] * -1.0).backward(np.array([0.0, 2.0]))
    assert x.grad.tolist() == [0.0, -1.0, 0.0]
    assert not np.signbit(x.grad[[0, 2]]).any()
    y = Tensor(np.zeros(3), requires_grad=True)
    (y[1:3] * -1.0).backward(np.array([0.0, 0.0]))  # first touch
    assert not np.signbit(y.grad).any()


@pytest.mark.parametrize("n_rows", [40, 1 << 16, (1 << 16) + 1])
def test_scatter_operator_matches_add_at_across_key_widths(n_rows):
    """The scatter operators the sliced ``*_pos`` arrays need are built
    with a 16-bit radix sort up to 65536 rows, an int64 sort beyond."""
    rng = np.random.default_rng(n_rows)
    base = rng.integers(0, n_rows, size=3000)
    base[:2] = n_rows - 1, 0
    for index in (base, base[100:], base[:-700]):  # whole and sliced
        grad = rng.normal(size=(index.size, 2))
        want = np.zeros((n_rows, 2))
        np.add.at(want, index, grad)
        got = _scatter_rows_add(index, grad, n_rows, np.float64)
        assert got.tobytes() == want.tobytes()
