"""The window-parallel planned training step.

A planned step cuts its plan's unique rows into ``ceil(n_pairs / ROWS)``
windows, runs every window's forward and backward on the window pool
through leaves of its own, and sums the windows' leaf gradients in
window order.  These tests shrink ``ROWS`` so that the tiny dataset's
plans span several windows (one of them without any head-B row), then
check that the trained bytes do not depend on the pool width, that no
interior node is shared between two windows' graphs, and that a window
that fails leaves no gradient behind.
"""

import numpy as np
import pytest

import repro.eval.windows as windows_pool
import repro.training.trainer as trainer_module
from repro.core import MGBR
from repro.nn.tensor import Window
from repro.plan import PlannedBatch, ScoringPlan
from repro.training import TrainConfig, Trainer

#: Window height for these tests: the tiny plans hold about 1,600
#: unique rows, so this gives four or five windows.
ROWS = 400


def _config(**kw):
    base = dict(
        epochs=2, batch_size=32, learning_rate=5e-3, train_negatives=3,
        aux_negatives=20, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def _model(dataset, small_config):
    return MGBR(dataset.train, dataset.n_users, dataset.n_items, config=small_config)


@pytest.fixture
def small_windows(monkeypatch):
    monkeypatch.setattr(trainer_module, "ROWS", ROWS)


def _first_plan(trainer):
    pair = next(iter(trainer._paired_batches()))
    draws = trainer._draw_negatives(pair["a"], pair["b"])
    return trainer._step_plan(pair["a"], pair["b"], draws).plan


# ----------------------------------------------------------------------
# The grid
# ----------------------------------------------------------------------
def _grouped_plan(n_a_only, n_both, n_b_only):
    n = n_a_only + n_both + n_b_only
    segments = {
        "a": (np.arange(n_a_only + n_both), np.zeros(n_a_only + n_both), None,
              (n_a_only + n_both,)),
        "b": (np.arange(n_a_only, n), np.zeros(n_both + n_b_only), None,
              (n_both + n_b_only,)),
    }
    return PlannedBatch.build(segments, reads={"a": "a", "b": "b"}).plan


def test_grid_is_equal_windows_with_clipped_head_rows():
    plan = _grouped_plan(7, 5, 3)  # rows: A-only [0, 7), both [7, 12), B-only [12, 15)
    assert plan.head_rows == {"a": (0, 12), "b": (7, 15)}
    windows = plan.windows(4)  # ceil(15 / 4) = 4 windows of ceil(15 / 4) = 4 rows
    assert [w.n_pairs for w in windows] == [4, 4, 4, 3]
    assert [w.head_rows for w in windows] == [
        {"a": (0, 4)},                      # rows 0-3: A only, head B left out
        {"a": (0, 4), "b": (3, 4)},         # rows 4-7
        {"a": (0, 4), "b": (0, 4)},         # rows 8-11
        {"b": (0, 3)},                      # rows 12-14: B only
    ]
    users = np.concatenate([w.users for w in windows])
    assert np.array_equal(users, plan.users)
    assert all(w.scatter_index is None for w in windows)


@pytest.mark.parametrize("n, rows, sizes", [
    (10, 10, [10]), (10, 100, [10]), (11, 10, [6, 5]), (20, 10, [10, 10]),
    (21, 10, [7, 7, 7]),
])
def test_grid_depends_only_on_rows_and_pairs(n, rows, sizes):
    plan = ScoringPlan.from_item_pairs(np.arange(n), np.zeros(n, dtype=np.int64))
    windows = plan.windows(rows)
    assert [w.n_pairs for w in windows] == sizes
    assert all(w.head_rows is None for w in windows)


# ----------------------------------------------------------------------
# Bytes do not depend on the pool width
# ----------------------------------------------------------------------
def _train(dataset, small_config, width, monkeypatch):
    monkeypatch.setattr(windows_pool, "_WIDTH", width)
    model = _model(dataset, small_config)
    trainer = Trainer(model, dataset, _config())
    grid = len(_first_plan(trainer).windows(trainer_module.ROWS))
    history = trainer.fit()
    return grid, [r.losses for r in history.records], model.state_dict()


def test_post_adam_bytes_do_not_depend_on_pool_width(
    tiny_dataset, small_config, small_windows, monkeypatch
):
    grid, losses, state = _train(tiny_dataset, small_config, 1, monkeypatch)
    assert grid >= 2, "the plan must span several windows"
    for width in (2, 4):
        _, got_losses, got_state = _train(tiny_dataset, small_config, width, monkeypatch)
        assert got_losses == losses, f"width {width}"
        assert got_state.keys() == state.keys()
        for key in state:
            assert got_state[key].tobytes() == state[key].tobytes(), f"width {width}: {key}"


def _two_steps(dataset, small_config):
    trainer = Trainer(_model(dataset, small_config), dataset, _config(grad_clip=1.0))
    model = trainer.model
    losses, grads = [], []
    for _, pair in zip(range(2), trainer._paired_batches()):
        losses.append(trainer._step(pair["a"], pair["b"]))
        grads.append({k: p.grad.copy() for k, p in model.named_parameters()
                      if p.grad is not None})
    return losses, grads, model.state_dict()


def test_windowed_step_matches_one_window_step(
    tiny_dataset, small_config, small_windows, monkeypatch
):
    """Cutting the rows into windows re-associates the gradient sums
    only: losses, the first step's leaf gradients and the post-Adam
    weights stay within ``tests/test_live_rows.py``'s tolerances of the
    one-window step.  (The second step's gradients are taken at weights
    that already differ by that much.)"""
    losses, grads, state = _two_steps(tiny_dataset, small_config)
    monkeypatch.setattr(trainer_module, "ROWS", 1 << 30)
    ref_losses, ref_grads, ref_state = _two_steps(tiny_dataset, small_config)
    for got, want in zip(losses, ref_losses):
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-10, abs=1e-12), key
    assert grads[0].keys() == ref_grads[0].keys()
    for key in ref_grads[0]:
        np.testing.assert_allclose(grads[0][key], ref_grads[0][key], rtol=1e-10,
                                   atol=1e-14, err_msg=f"grad {key}")
    for key in ref_state:
        # Adam divides by sqrt(v) + 1e-8, so an entry whose gradient is
        # float noise (~1e-17, a dead unit's bias) moves its weight by up
        # to ~lr * 1e-8 per step whatever the noise is.
        np.testing.assert_allclose(state[key], ref_state[key], rtol=1e-10, atol=1e-9,
                                   err_msg=f"post-Adam {key}")


# ----------------------------------------------------------------------
# Every window has a graph of its own
# ----------------------------------------------------------------------
def _interior(roots):
    """Ids of the interior nodes reachable from ``roots``, and the leaves."""
    interior, leaves, seen, todo = set(), set(), set(), list(roots)
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is None:
            leaves.add(id(node))
        else:
            interior.add(id(node))
            todo.extend(node._parents)
    return interior, leaves


def test_no_interior_node_is_shared_between_windows(
    tiny_dataset, small_config, small_windows, monkeypatch
):
    outputs = []
    joint = MGBR.planned_joint_logits

    def recording(self, emb, plan):
        out = joint(self, emb, plan)
        outputs.append([t for t in out if t is not None])
        return out

    monkeypatch.setattr(MGBR, "planned_joint_logits", recording)
    model = _model(tiny_dataset, small_config)
    trainer = Trainer(model, tiny_dataset, _config())
    pair = next(iter(trainer._paired_batches()))
    trainer._step(pair["a"], pair["b"])
    assert len(outputs) >= 2
    graphs = [_interior(roots) for roots in outputs]
    params = {id(p) for p in model.parameters()}
    for k, (interior, leaves) in enumerate(graphs):
        for j in range(k):
            assert not interior & graphs[j][0], f"windows {j} and {k} share a node"
            # Leaves shared across windows are parameters only: each
            # window reads the encoder outputs and folds through its own.
            assert leaves & graphs[j][1] <= params
    assert all(node.grad is None for roots in outputs for node in roots)


# ----------------------------------------------------------------------
# A failing window
# ----------------------------------------------------------------------
class _Boom(RuntimeError):
    pass


def _failing_after(original, calls):
    state = {"n": 0}

    def fn(*args, **kwargs):
        state["n"] += 1
        if state["n"] == calls:
            raise _Boom("window failed")
        return original(*args, **kwargs)

    return fn


@pytest.mark.parametrize("where", ["forward", "backward"])
@pytest.mark.parametrize("width", [1, 2])
def test_failing_window_reraises_and_leaves_no_gradient(
    tiny_dataset, small_config, small_windows, monkeypatch, where, width
):
    monkeypatch.setattr(windows_pool, "_WIDTH", width)
    model = _model(tiny_dataset, small_config)
    trainer = Trainer(model, tiny_dataset, _config())
    before = model.state_dict()
    pair = next(iter(trainer._paired_batches()))
    with monkeypatch.context() as patch:
        if where == "forward":
            patch.setattr(MGBR, "planned_joint_logits",
                          _failing_after(MGBR.planned_joint_logits, 2))
        else:
            patch.setattr(Window, "backward", _failing_after(Window.backward, 2))
        with pytest.raises(_Boom):
            trainer._step(pair["a"], pair["b"])
    assert all(p.grad is None for p in model.parameters()), "a gradient was half-reduced"
    after = model.state_dict()
    assert all(after[k].tobytes() == before[k].tobytes() for k in before)
    # The pool and the model survive: the next step trains.
    losses = trainer._step(pair["a"], pair["b"])
    assert np.isfinite(losses["total"])


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def test_phase_totals_stay_within_epoch_seconds(tiny_dataset, small_config, small_windows):
    trainer = Trainer(_model(tiny_dataset, small_config), tiny_dataset, _config(epochs=1))
    assert len(_first_plan(trainer).windows(trainer_module.ROWS)) >= 2
    record = trainer.train_epoch()
    assert set(record.phases) == {"sampling", "forward", "backward", "optimizer"}
    assert all(v > 0.0 for v in record.phases.values())
    # Phases are rounded to 4 decimals: allow 5e-5 of rounding each.
    assert sum(record.phases.values()) <= record.seconds + 4 * 5e-5
