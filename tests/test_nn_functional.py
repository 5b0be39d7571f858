"""Unit tests for activation/loss functionals: gradients + numerical stability."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import gradcheck, tensor
from repro.nn.tensor import dtype_scope


def _t(rng, *shape):
    return tensor(rng.normal(size=shape), requires_grad=True)


class TestSigmoidFamily:
    def test_sigmoid_gradcheck(self, rng):
        assert gradcheck(F.sigmoid, [_t(rng, 3, 4)])

    def test_sigmoid_extreme_values_stable(self):
        out = F.sigmoid(tensor([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)
        assert np.all(np.isfinite(out.data))

    def test_logsigmoid_gradcheck(self, rng):
        assert gradcheck(F.logsigmoid, [_t(rng, 5)])

    def test_logsigmoid_matches_log_of_sigmoid(self, rng):
        x = tensor(rng.normal(size=10))
        np.testing.assert_allclose(
            F.logsigmoid(x).data, np.log(F.sigmoid(x).data), atol=1e-12
        )

    def test_logsigmoid_no_overflow(self):
        out = F.logsigmoid(tensor([-800.0, 800.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[1], 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data[0], -800.0, rtol=1e-6)

    def test_softplus_gradcheck(self, rng):
        assert gradcheck(F.softplus, [_t(rng, 4)])

    def test_softplus_identity(self):
        # softplus(x) - softplus(-x) == x
        x = np.linspace(-5, 5, 11)
        out = F.softplus(tensor(x)).data - F.softplus(tensor(-x)).data
        np.testing.assert_allclose(out, x, atol=1e-12)


class TestReluFamily:
    def test_relu_gradcheck_away_from_kink(self, rng):
        a = tensor(rng.normal(size=20) + np.sign(rng.normal(size=20)) * 0.5, requires_grad=True)
        assert gradcheck(F.relu, [a])

    def test_relu_values(self):
        out = F.relu(tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_leaky_relu_gradcheck(self, rng):
        a = tensor(rng.normal(size=20) + np.sign(rng.normal(size=20)) * 0.5, requires_grad=True)
        assert gradcheck(lambda x: F.leaky_relu(x, 0.2), [a])

    def test_leaky_relu_negative_slope(self):
        out = F.leaky_relu(tensor([-2.0]), negative_slope=0.1)
        np.testing.assert_allclose(out.data, [-0.2])

    def test_tanh_gradcheck(self, rng):
        assert gradcheck(F.tanh, [_t(rng, 3, 3)])


class TestSoftmax:
    def test_softmax_gradcheck(self, rng):
        assert gradcheck(lambda x: F.softmax(x, axis=-1), [_t(rng, 3, 5)])

    def test_softmax_axis0_gradcheck(self, rng):
        assert gradcheck(lambda x: F.softmax(x, axis=0), [_t(rng, 4, 2)])

    def test_softmax_rows_sum_to_one(self, rng):
        out = F.softmax(tensor(rng.normal(size=(6, 8))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(6))

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(2, 4))
        a = F.softmax(tensor(x)).data
        b = F.softmax(tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_gradcheck(self, rng):
        assert gradcheck(lambda x: F.log_softmax(x, axis=-1), [_t(rng, 3, 4)])

    def test_log_softmax_consistency(self, rng):
        x = tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10
        )


def _row_data(rng, rows, width, dtype):
    """Scaled normals with ±0, ±inf and NaN planted per row.

    Each row's infinities share one sign, so no ``inf - inf`` makes a
    fresh NaN and every NaN in a row is the same ``np.nan``: which NaN
    an add propagates is the CPU's choice, not part of the sum order.
    """
    a = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-8, 8, size=(rows, width))
    sign = np.where(rng.random((rows, 1)) < 0.5, -1.0, 1.0)
    pick = rng.integers(0, 12, size=(rows, width))
    a = np.where(pick == 0, 0.0, a)
    a = np.where(pick == 1, -0.0, a)
    a = np.where(pick == 2, sign * np.inf, a)
    a = np.where((pick == 3) & (np.arange(rows)[:, None] % 4 == 0), np.nan, a)
    a[0] = -0.0
    a[1] = 0.0
    a[2] = 1.0
    a[2, -1] = -1.0
    return a.astype(dtype)


class TestRowSum:
    """``_row_sum`` adds columns in ``np.sum``'s own order, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", range(1, 129))
    def test_matches_numpy_sum_bytes(self, width, dtype):
        a = _row_data(np.random.default_rng(width), 64, width, dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.sum(a, axis=-1, keepdims=True)
            got = F._row_sum(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_mixed_sign_infinities_give_nan(self):
        # inf - inf makes a NaN whose sign bit is the CPU's choice, so
        # only NaN-ness is compared.
        for width in (3, 10):
            row = np.ones((1, width))
            row[0, 0], row[0, -1] = np.inf, -np.inf
            with np.errstate(invalid="ignore"):
                assert np.isnan(F._row_sum(row)).all()

    def test_wide_and_strided_rows_fall_back_to_sum(self):
        rng = np.random.default_rng(0)
        for a in (rng.normal(size=(5, 200)), rng.normal(size=(5, 12))[:, ::2],
                  rng.normal(size=(2, 3, 4))):
            want = np.sum(a, axis=-1, keepdims=True)
            assert F._row_sum(a).tobytes() == want.tobytes()


def _softmax_by_sum(x, g):
    """Softmax forward and backward with the plain ``sum`` normaliser and dot."""
    top = x.max(axis=-1, keepdims=True)
    value = np.exp(x - top)
    value /= value.sum(axis=-1, keepdims=True)
    dot = (g * value).sum(axis=-1, keepdims=True)
    return value, value * (g - dot)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [3, 6, 9, 18])
def test_softmax_bytes_match_sum_formula(k, dtype):
    rng = np.random.default_rng(k)
    x = (rng.normal(size=(257, k)) * 4).astype(dtype)
    g = rng.normal(size=(257, k)).astype(dtype)
    g[::5] = 0.0
    x[3] = -np.inf  # exact zeros in the softmax, so g·value holds -0.0
    x[3, 1] = 0.0
    with dtype_scope(dtype):
        t = tensor(x, requires_grad=True)
        out = F.softmax(t, axis=-1)
        out.backward(g)
    want_value, want_grad = _softmax_by_sum(x, g)
    assert out.data.tobytes() == want_value.tobytes()
    assert t.grad.tobytes() == want_grad.tobytes()


class TestDropout:
    def test_dropout_disabled_in_eval(self, rng):
        x = tensor(rng.normal(size=(10, 10)), requires_grad=True)
        out = F.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_zero_p_is_identity(self, rng):
        x = tensor(rng.normal(size=(4,)), requires_grad=True)
        assert F.dropout(x, 0.0, rng, training=True) is x

    def test_dropout_preserves_expectation(self, rng):
        x = tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_dropout_invalid_p(self, rng):
        with pytest.raises(ValueError):
            F.dropout(tensor([1.0]), 1.0, rng)

    def test_dropout_gradient_masks_match(self, rng):
        x = tensor(np.ones(50), requires_grad=True)
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=True)
        out.sum().backward()
        # Gradient is the same mask/scale applied to ones.
        np.testing.assert_allclose(x.grad, out.data)


class TestLosses:
    def test_bce_matches_manual(self, rng):
        p = tensor(np.array([0.2, 0.9]), requires_grad=True)
        target = np.array([0.0, 1.0])
        loss = F.binary_cross_entropy(p, target)
        manual = -(np.log(0.8) + np.log(0.9)) / 2
        np.testing.assert_allclose(loss.data, manual, rtol=1e-10)

    def test_bce_gradcheck(self, rng):
        p = tensor(rng.uniform(0.1, 0.9, size=6), requires_grad=True)
        target = (rng.random(6) > 0.5).astype(float)
        assert gradcheck(lambda x: F.binary_cross_entropy(x, target), [p])

    def test_mse_gradcheck(self, rng):
        assert gradcheck(lambda x: F.mse_loss(x, np.zeros((3, 2))), [_t(rng, 3, 2)])

    def test_l2_norm(self, rng):
        x = tensor([3.0, 4.0])
        np.testing.assert_allclose(F.l2_norm(x).data, 5.0, rtol=1e-6)
