"""Unit tests for optimizers: convergence, state handling, clipping."""

import numpy as np
import pytest

from repro.nn import Adam, Linear, Parameter, clip_grad_norm, tensor


def _quadratic_steps(opt_cls, steps, **kwargs):
    p = Parameter(np.array([4.0, -2.0, 1.0]))
    opt = opt_cls([p], **kwargs)
    for _ in range(steps):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    return p


class TestAdam:
    def test_converges_on_quadratic(self):
        p = _quadratic_steps(Adam, 300, lr=0.1)
        assert float((p.data**2).sum()) < 1e-5

    def test_default_lr_is_paper_rho(self):
        opt = Adam([Parameter(np.ones(1))])
        assert opt.lr == pytest.approx(2e-4)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], betas=(1.0, 0.9))

    def test_step_counter_advances(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=0.01)
        for _ in range(3):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert opt._step == 3

    def test_weight_decay_applies(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1, weight_decay=10.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert p.data[0] < 1.0


class TestOptimizerBase:
    def test_empty_param_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_zero_grad(self):
        p = Parameter(np.ones(2))
        (p * p).sum().backward()
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_no_clip_when_under(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_invalid_max_norm(self):
        p = Parameter(np.ones(1))
        p.grad = np.ones(1)
        with pytest.raises(ValueError):
            clip_grad_norm([p], max_norm=0.0)

    def test_global_norm_across_params(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        pre = clip_grad_norm([a, b], max_norm=2.5)
        assert pre == pytest.approx(5.0)
        # Both scaled by 1/2.
        np.testing.assert_allclose(a.grad, [1.5])
        np.testing.assert_allclose(b.grad, [2.0])


class TestEndToEndFit:
    def test_linear_regression_recovers_weights(self, rng):
        true_w = np.array([[2.0], [-3.0]])
        x = rng.normal(size=(200, 2))
        y = x @ true_w
        layer = Linear(2, 1, seed=0)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            pred = layer(tensor(x))
            err = pred - tensor(y)
            loss = (err * err).mean()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)
