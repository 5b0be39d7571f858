"""Tests for the synthetic Beibei-style generator.

Beyond mechanical checks, these verify the generator produces the
*structural signals* the models rely on (the substitution argument in
:mod:`repro.data.synthetic`): preference-aligned launches/joins and community-driven
social co-occurrence.
"""

import numpy as np
import pytest

from repro.data import SyntheticConfig, generate_dataset, generate_world
from repro.data.synthetic import generate_groups


class TestConfigValidation:
    def test_defaults_valid(self):
        SyntheticConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_users", 0),
            ("n_items", -1),
            ("n_groups", 0),
            ("latent_dim", 0),
            ("max_group_size", 0),
            ("affinity_temperature", 0.0),
            ("social_weight", -0.1),
            ("min_interactions", -1),
            ("candidate_pool", 0),
            ("social_weight", float("nan")),
            ("item_weight", float("inf")),
            ("item_weight", float("nan")),
            ("affinity_temperature", float("nan")),
            ("join_temperature", float("nan")),
        ],
    )
    def test_invalid_fields(self, field, value):
        config = SyntheticConfig(**{field: value})
        with pytest.raises(ValueError):
            config.validate()

    def test_bad_split_ratios(self):
        with pytest.raises(ValueError):
            SyntheticConfig(split_ratios=(1, 2)).validate()


class TestWorld:
    def test_world_shapes(self):
        config = SyntheticConfig(n_users=50, n_items=20)
        world = generate_world(config, seed=0)
        assert world.user_factors.shape == (50, config.latent_dim)
        assert world.item_factors.shape == (20, config.latent_dim)
        assert world.item_popularity.shape == (20,)
        assert world.user_community.shape == (50,)
        np.testing.assert_allclose(world.user_activity.sum(), 1.0)

    def test_determinism(self):
        config = SyntheticConfig(n_users=30, n_items=10)
        a = generate_world(config, seed=5)
        b = generate_world(config, seed=5)
        np.testing.assert_array_equal(a.user_factors, b.user_factors)

    def test_different_seeds_differ(self):
        config = SyntheticConfig(n_users=30, n_items=10)
        a = generate_world(config, seed=5)
        b = generate_world(config, seed=6)
        assert not np.allclose(a.user_factors, b.user_factors)


class TestGroupGeneration:
    def _world(self, **kw):
        config = SyntheticConfig(n_users=60, n_items=25, n_groups=250, **kw)
        return generate_world(config, seed=1)

    def test_group_sizes_within_bounds(self):
        world = self._world(max_group_size=4)
        groups = generate_groups(world, seed=2)
        assert all(1 <= g.size <= 4 for g in groups)

    def test_participants_exclude_initiator(self):
        groups = generate_groups(self._world(), seed=2)
        assert all(g.initiator not in g.participants for g in groups)

    def test_launches_follow_preference(self):
        # Initiators pick items with above-average latent affinity.
        world = self._world()
        groups = generate_groups(world, seed=3)
        users = np.array([g.initiator for g in groups])
        items = np.array([g.item for g in groups])
        chosen = world.affinity(users, items).mean()
        rng = np.random.default_rng(0)
        rand_items = rng.integers(0, 25, size=len(groups))
        random_aff = world.affinity(users, rand_items).mean()
        assert chosen > random_aff + 0.1

    def test_joins_follow_social_communities(self):
        # With a strong social weight participants share the initiator's
        # community far above the 1/n_communities base rate.
        world = self._world(social_weight=3.0)
        groups = generate_groups(world, seed=4)
        same = total = 0
        for g in groups:
            for p in g.participants:
                same += world.user_community[p] == world.user_community[g.initiator]
                total += 1
        base_rate = 1.0 / world.config.n_communities
        assert same / total > 2 * base_rate

    def test_zero_social_weight_removes_community_signal(self):
        world_off = self._world(social_weight=0.0)
        groups = generate_groups(world_off, seed=4)
        same = total = 0
        for g in groups:
            for p in g.participants:
                same += world_off.user_community[p] == world_off.user_community[g.initiator]
                total += 1
        # Communities still correlate with taste (factors are blended), so
        # allow slack above base rate — but far below the strong-social case.
        assert same / total < 0.45


class TestGenerateDataset:
    def test_end_to_end_dataset(self):
        ds = generate_dataset(
            SyntheticConfig(n_users=100, n_items=30, n_groups=400), seed=9
        )
        assert ds.n_users > 0 and ds.n_items > 0
        assert ds.n_groups == len(ds.train) + len(ds.validation) + len(ds.test)
        # 7:3:1 split ordering.
        assert len(ds.train) > len(ds.validation) > len(ds.test)

    def test_min_interactions_enforced(self):
        ds = generate_dataset(
            SyntheticConfig(n_users=100, n_items=30, n_groups=400, min_interactions=5),
            seed=9,
        )
        counts = ds.user_interaction_counts()
        assert min(counts.values()) >= 5

    def test_ids_are_contiguous(self):
        ds = generate_dataset(
            SyntheticConfig(n_users=100, n_items=30, n_groups=400), seed=9
        )
        users = {g.initiator for g in ds.all_groups}
        users |= {p for g in ds.all_groups for p in g.participants}
        items = {g.item for g in ds.all_groups}
        assert users == set(range(ds.n_users))
        assert items == set(range(ds.n_items))

    def test_deterministic(self):
        cfg = SyntheticConfig(n_users=60, n_items=20, n_groups=200)
        a = generate_dataset(cfg, seed=4)
        b = generate_dataset(cfg, seed=4)
        assert a.train == b.train and a.test == b.test
