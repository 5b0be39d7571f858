"""Tests for utility modules: RNG plumbing, validation, logging."""

import numpy as np
import pytest

from repro.utils import (
    as_rng,
    check_positive,
    get_logger,
    spawn_rngs,
)
from repro.utils.rng import RngMixin, choice_excluding


class TestAsRng:
    def test_int_seed_deterministic(self):
        a = as_rng(5).integers(0, 100, 10)
        b = as_rng(5).integers(0, 100, 10)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(3)
        assert isinstance(as_rng(seq), np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            as_rng("seed")


class TestSpawn:
    def test_children_independent_of_count(self):
        # Stream k must not depend on how many siblings were spawned.
        three = spawn_rngs(7, 3)
        five = spawn_rngs(7, 5)
        np.testing.assert_array_equal(
            three[1].integers(0, 1000, 5), five[1].integers(0, 1000, 5)
        )

    def test_children_differ(self):
        a, b = spawn_rngs(1, 2)
        assert not np.array_equal(a.integers(0, 1000, 20), b.integers(0, 1000, 20))

    def test_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(0), 2)
        assert len(children) == 2


class TestChoiceExcluding:
    def test_never_returns_excluded(self, rng):
        out = choice_excluding(rng, 20, {3, 7, 11}, 500)
        assert not set(out.tolist()) & {3, 7, 11}
        assert np.all((out >= 0) & (out < 20))

    def test_dense_exclusion_path(self, rng):
        # Excluding >50% of the range switches to the complement draw.
        exclude = set(range(15))
        out = choice_excluding(rng, 20, exclude, 100)
        assert set(out.tolist()) <= {15, 16, 17, 18, 19}

    def test_nothing_left_raises(self, rng):
        with pytest.raises(ValueError):
            choice_excluding(rng, 3, {0, 1, 2}, 1)

    def test_negative_size(self, rng):
        with pytest.raises(ValueError):
            choice_excluding(rng, 10, set(), -1)

    def test_empty_exclusion(self, rng):
        out = choice_excluding(rng, 5, set(), 50)
        assert np.all((out >= 0) & (out < 5))


class TestRngMixin:
    def test_lazy_creation_and_seeding(self):
        class Thing(RngMixin):
            pass

        t = Thing()
        assert isinstance(t.rng, np.random.Generator)
        t.seed(3)
        a = t.rng.integers(0, 100, 5)
        t.seed(3)
        np.testing.assert_array_equal(a, t.rng.integers(0, 100, 5))


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1.0)
        with pytest.raises(ValueError):
            check_positive("x", 0.0)
        check_positive("x", 0.0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)


class TestLogging:
    def test_namespacing(self):
        assert get_logger("training").name == "repro.training"
        assert get_logger().name == "repro"
        assert get_logger("repro.x").name == "repro.x"

    def test_logger_is_singleton_per_name(self):
        assert get_logger("a") is get_logger("a")

