"""Tests for the gradcheck utility itself (the verifier must be verifiable)."""

import numpy as np
import pytest

from repro.nn import gradcheck, numerical_gradient, tensor


class TestNumericalGradient:
    def test_matches_known_derivative(self, rng):
        x = tensor(rng.normal(size=4), requires_grad=True)
        num = numerical_gradient(lambda t: (t * t).sum(), [x], 0)
        np.testing.assert_allclose(num, 2 * x.data, atol=1e-5)

    def test_second_argument(self, rng):
        a = tensor(rng.normal(size=3), requires_grad=True)
        b = tensor(rng.normal(size=3), requires_grad=True)
        num = numerical_gradient(lambda x, y: (x * y).sum(), [a, b], 1)
        np.testing.assert_allclose(num, a.data, atol=1e-5)


class TestGradcheck:
    def test_passes_for_correct_gradient(self, rng):
        x = tensor(rng.normal(size=(2, 3)), requires_grad=True)
        assert gradcheck(lambda t: (t * 3.0 + 1.0).sum(), [x])

    def test_catches_wrong_gradient(self, rng):
        from repro.nn.tensor import Tensor

        def buggy_double(t):
            # Claims d/dt = 1 while computing 2t.
            return Tensor._make(t.data * 2.0, (t, lambda g: g))  # WRONG: should be 2*g

        x = tensor(rng.normal(size=3), requires_grad=True)
        with pytest.raises(AssertionError, match="gradient mismatch"):
            gradcheck(buggy_double, [x])

    def test_skips_non_grad_inputs(self, rng):
        x = tensor(rng.normal(size=3), requires_grad=True)
        const = tensor(rng.normal(size=3), requires_grad=False)
        assert gradcheck(lambda a, b: (a * b).sum(), [x, const])
