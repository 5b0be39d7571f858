"""Tests for weight-initialisation schemes."""

import numpy as np
import pytest

from repro.nn import init as inits


class TestNormal:
    def test_std_scaling(self, rng):
        values = inits.normal_((2000,), rng, std=2.0)
        assert values.std() == pytest.approx(2.0, rel=0.1)

    def test_zero_mean(self, rng):
        values = inits.normal_((5000,), rng)
        assert abs(values.mean()) < 0.05


class TestXavier:
    def test_uniform_bound(self, rng):
        shape = (64, 32)
        values = inits.xavier_uniform(shape, rng)
        bound = np.sqrt(6.0 / (64 + 32))
        assert values.min() >= -bound and values.max() <= bound

    def test_uniform_gain_scales_bound(self, rng):
        shape = (50, 50)
        small = np.abs(inits.xavier_uniform(shape, rng, gain=1.0)).max()
        large = np.abs(inits.xavier_uniform(shape, rng, gain=4.0)).max()
        assert large > 2.5 * small

    def test_1d_shape_fan(self, rng):
        values = inits.xavier_uniform((100,), rng)
        assert values.shape == (100,)

    def test_empty_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            inits.xavier_uniform((), rng)
