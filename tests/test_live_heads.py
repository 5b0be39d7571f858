"""Live-head pruning of the MTL stack.

A single-task scoring call reads one tower, so the planned forward only
computes the gates and expert banks that tower reaches
(:meth:`repro.core.mtl.MultiTaskModule.live_outputs`).  Every surviving
op is the same primitive on the same operands, so the contract under
test is exact: each single-head score equals the matching head of the
full two-tower program bit for bit at float64, on both executors and
across the stack's configurations, and a pruned training step is
byte-identical to an unpruned one.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import MGBR, MGBRConfig
from repro.core.mtl import MTLLayer, MultiTaskModule
from repro.nn import CountingBackend, backend_scope, no_grad
from repro.nn.tensor import dtype_scope
from repro.plan import ScoringPlan
from repro.training import TrainConfig, Trainer

_BASE = MGBRConfig.small(d=8, seed=3)  # the small profile: K = 3, L = 2

CONFIGS = {
    "default": {},
    "no-shared": {"use_shared_experts": False},
    "no-adjusted": {"use_adjusted_gates": False},
    "layers-1": {"mtl_layers": 1},
    "layers-3": {"mtl_layers": 3},
    "compact": {"first_layer_compact": True},
}


def _config(name, **extra):
    return dataclasses.replace(_BASE, **CONFIGS[name], **extra)


def _mgbr(dataset, name):
    return MGBR(dataset.train, dataset.n_users, dataset.n_items, config=_config(name))


@pytest.fixture(scope="module")
def models(tiny_dataset):
    return {name: _mgbr(tiny_dataset, name) for name in CONFIGS}


def _plan(dataset, task):
    rng = np.random.default_rng(5)
    users = rng.integers(0, dataset.n_users, size=70)
    items = rng.integers(0, dataset.n_items, size=70)
    if task == "items":
        return ScoringPlan.from_item_pairs(users, items)
    participants = rng.integers(0, dataset.n_users, size=70)
    return ScoringPlan.from_triples(users, items, participants)


def _single(model, plan, task, executor):
    """One head scored alone on ``executor``."""
    scorer = model.score_item_plan if task == "items" else model.score_participant_plan
    with no_grad():
        model.executor = executor
        try:
            return scorer(plan)
        finally:
            model.executor = "auto"


def _single_and_joint(model, plan, task, executor):
    """One head scored alone on ``executor``, and the joint program's."""
    single = _single(model, plan, task, executor)
    with no_grad():
        logits_a, logits_b = model.planned_joint_logits(model._bundle(), plan)
    joint = (logits_a if task == "items" else logits_b).data
    return single, np.asarray(joint, dtype=np.float64).ravel()


# ----------------------------------------------------------------------
# The liveness rule
# ----------------------------------------------------------------------
def _module(shared, layers):
    config = dataclasses.replace(_BASE, use_shared_experts=shared, mtl_layers=layers)
    return MultiTaskModule(config, seed=0)


ALL, NO_S = frozenset("asb"), frozenset("ab")


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("heads", ["a", "b", "ab"])
def test_live_outputs_shared(layers, heads):
    live = _module(True, layers).live_outputs(heads)
    # The last layer produces exactly the requested heads (never g^L_S);
    # every earlier layer feeds a bank S, which reads all three states.
    assert live == [ALL] * (layers - 1) + [frozenset(heads)]


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("heads", ["a", "b", "ab"])
def test_live_outputs_no_shared_keeps_towers_apart(layers, heads):
    # MGBR-M: two independent towers, so a head's tower is all it needs.
    live = _module(False, layers).live_outputs(heads)
    assert live == [frozenset(heads)] * layers


@pytest.mark.parametrize("heads", ["", "s", "ac", ("a", "s")])
def test_live_outputs_rejects_bad_heads(heads):
    with pytest.raises(ValueError):
        _module(True, 2).live_outputs(heads)


def test_live_banks():
    shared = MTLLayer(6, 4, 8, 2, shared=True, seed=0)
    assert shared.live_banks("a") == frozenset("as")
    assert shared.live_banks("b") == frozenset("bs")
    assert shared.live_banks("ab") == ALL
    assert shared.live_banks("s") == ALL
    assert shared.outputs == ALL
    solo = MTLLayer(6, 4, 8, 2, shared=False, seed=0)
    assert solo.live_banks("a") == frozenset("a")
    assert solo.live_banks("ab") == NO_S
    assert solo.outputs == NO_S


def test_dead_outputs_are_none(tiny_dataset, models):
    model = models["default"]
    plan = _plan(tiny_dataset, "participants")
    e_u, e_i, e_p, part_pos = model._planned_entities(model._bundle(), plan)
    with no_grad():
        g_a, g_b = model.mtl.forward_planned(
            e_u, e_i, e_p, plan.user_pos, plan.item_pos, part_pos, heads="b"
        )
    assert g_a is None and g_b is not None


# ----------------------------------------------------------------------
# Single head == the joint program's head, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("executor", ["fused", "tape"])
@pytest.mark.parametrize("task", ["items", "participants"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_single_head_matches_joint(tiny_dataset, models, name, task, executor):
    model = models[name]
    single, joint = _single_and_joint(model, _plan(tiny_dataset, task), task, executor)
    assert np.array_equal(single, joint)


@pytest.mark.parametrize("task", ["items", "participants"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fused_matches_tape(tiny_dataset, models, name, task):
    model = models[name]
    plan = _plan(tiny_dataset, task)
    fused, _ = _single_and_joint(model, plan, task, "fused")
    tape, _ = _single_and_joint(model, plan, task, "tape")
    assert np.array_equal(fused, tape)
    assert model.executor_stats()["fallbacks"] == 0


@pytest.mark.parametrize("executor", ["fused", "tape"])
@pytest.mark.parametrize("task", ["items", "participants"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_single_head_float32_close(tiny_dataset, models, name, task, executor):
    model = models[name]
    plan = _plan(tiny_dataset, task)
    model.invalidate_cache()
    with dtype_scope("float32"):
        single, joint = _single_and_joint(model, plan, task, executor)
    model.invalidate_cache()
    np.testing.assert_allclose(single, joint, rtol=1e-5, atol=1e-5)


def _everything_live(self, heads):
    return [layer.outputs for layer in self._layers]


def _matmuls(model, plan, task, executor):
    counting = CountingBackend()
    with backend_scope(counting):
        _single(model, plan, task, executor)
    return counting.counts.get("matmul", 0)


@pytest.mark.parametrize("executor", ["fused", "tape"])
@pytest.mark.parametrize("task", ["items", "participants"])
@pytest.mark.parametrize("name", ["default", "no-shared"])
def test_single_head_skips_dead_work(tiny_dataset, models, monkeypatch, name, task,
                                     executor):
    model = models[name]
    plan = _plan(tiny_dataset, task)
    pruned = _matmuls(model, plan, task, executor)
    with monkeypatch.context() as patch:
        patch.setattr(MultiTaskModule, "live_outputs", _everything_live)
        full = _matmuls(model, plan, task, executor)
    assert pruned < full


# ----------------------------------------------------------------------
# Training: pruning the joint step changes no byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["default", "no-shared"])
def test_pruned_step_matches_everything_live(tiny_dataset, monkeypatch, name):
    def step():
        model = _mgbr(tiny_dataset, name)
        config = TrainConfig(
            epochs=1, batch_size=32, learning_rate=5e-3, train_negatives=3,
            aux_negatives=3, seed=0, grad_clip=1.0,
        )
        trainer = Trainer(model, tiny_dataset, config)
        assert trainer._use_planned
        pair = next(iter(trainer._paired_batches()))
        losses = trainer._step(pair["a"], pair["b"])
        grads = {
            key: p.grad.copy() for key, p in model.named_parameters()
            if p.grad is not None
        }
        last = model.mtl._layers[-1]
        if last.gate_s is not None:
            assert all(p.grad is None for p in last.gate_s.parameters())
        return losses, grads, model.state_dict()

    losses, grads, state = step()
    with monkeypatch.context() as patch:
        patch.setattr(MultiTaskModule, "live_outputs", _everything_live)
        ref_losses, ref_grads, ref_state = step()
    assert losses == ref_losses
    assert grads.keys() == ref_grads.keys()
    for key in ref_grads:
        assert grads[key].tobytes() == ref_grads[key].tobytes(), f"grad {key}"
    assert state.keys() == ref_state.keys()
    for key in ref_state:
        assert state[key].tobytes() == ref_state[key].tobytes(), f"post-Adam {key}"
