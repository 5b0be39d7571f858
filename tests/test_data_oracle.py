"""Oracle tests: the fast data pipeline reproduces the reference loops exactly.

``generate_groups`` caches launch CDFs and join columns and replays
``Generator.choice`` instead of calling it; ``filter_min_interactions``
and ``remap_ids`` run in array rounds.  Every dataset, frozen benchmark
reference and golden in the repository rests on these returning exactly
what the plain loops in ``tests/reference_data.py`` return, with the RNG
left in the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_data import (
    reference_filter_min_interactions,
    reference_generate_groups,
    reference_remap_ids,
)
from repro.data import (
    DealGroup,
    GroupBuyingDataset,
    SyntheticConfig,
    filter_min_interactions,
    generate_world,
    load_groups_txt,
    remap_ids,
    split_groups,
    write_groups_txt,
)
from repro.data import synthetic
from repro.data.synthetic import generate_groups

#: ``(config, seeds)``: the perfbench workload, the defaults, the
#: benchmark scale, a sampled launch pool, the shared temperature, no
#: social or item signal, and sizes clipped to ``n_users - 1``.
GRID = {
    "workload": (dict(n_users=1000, n_items=300, n_groups=4000), (7,)),
    "defaults": ({}, (0, 7)),
    "bench": (dict(n_users=150, n_items=50, n_groups=800), (7, 3, 11)),
    "sampled-pool": (dict(n_users=120, n_items=90, n_groups=300, candidate_pool=40), (0, 5, 9)),
    "join-temperature-none": (dict(n_users=150, n_items=50, n_groups=400, join_temperature=None), (0, 2)),
    "no-social": (dict(n_users=150, n_items=50, n_groups=400, social_weight=0.0), (0, 2)),
    "no-item": (dict(n_users=150, n_items=50, n_groups=400, item_weight=0.0), (0, 2)),
    "clipped-sizes": (
        dict(n_users=6, n_items=5, n_groups=300, max_group_size=12, mean_group_size=6.0),
        (0, 4, 8),
    ),
}
CASES = [(name, seed) for name, (_, seeds) in GRID.items() for seed in seeds]

_reference_runs = {}


def _reference(name, seed):
    """Reference groups and final RNG state for one grid case (computed once)."""
    if (name, seed) not in _reference_runs:
        world = generate_world(SyntheticConfig(**GRID[name][0]), seed=seed)
        rng = np.random.default_rng(seed + 1000)
        groups = reference_generate_groups(world, rng)
        _reference_runs[name, seed] = (world, groups, rng.bit_generator.state)
    return _reference_runs[name, seed]


@pytest.mark.parametrize("budget", ["default", "zero"])
@pytest.mark.parametrize("name,seed", CASES)
def test_generate_groups_matches_reference(name, seed, budget, monkeypatch):
    if budget == "zero":
        monkeypatch.setattr(synthetic, "_CACHE_BYTES", 0)
    world, expected, state = _reference(name, seed)
    rng = np.random.default_rng(seed + 1000)
    assert generate_groups(world, rng) == expected
    assert rng.bit_generator.state == state


def test_no_cache_outlives_a_call():
    world, expected, _ = _reference("bench", 7)
    for _ in range(2):
        assert generate_groups(world, np.random.default_rng(1007)) == expected


@pytest.mark.parametrize(
    "config,corrupt,message",
    [
        # The join softmax underflows to fewer non-zero entries than a group needs.
        (
            dict(n_users=150, n_items=50, n_groups=200, join_temperature=1e-5, item_weight=50.0),
            None,
            "Fewer non-zero entries in p than size",
        ),
        (dict(n_users=60, n_items=20, n_groups=50), "nan-popularity", "Probabilities contain NaN"),
    ],
)
def test_generation_errors_match_reference(config, corrupt, message):
    world = generate_world(SyntheticConfig(**config), seed=0)
    if corrupt == "nan-popularity":
        world.item_popularity[3] = np.nan
    for generate in (reference_generate_groups, generate_groups):
        with pytest.raises(ValueError, match=message):
            generate(world, np.random.default_rng(0))


# ----------------------------------------------------------------------
# filter_min_interactions / remap_ids
# ----------------------------------------------------------------------
@st.composite
def group_lists(draw):
    """Random deal groups; ids may sit far above any ``n_users`` passed."""
    n_users = draw(st.integers(2, 16))
    n_items = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1, 1_000_003, 10**12]))
    groups = []
    for _ in range(draw(st.integers(0, 30))):
        members = draw(st.lists(st.integers(0, n_users - 1), min_size=1, max_size=5, unique=True))
        item = draw(st.integers(0, n_items - 1))
        ids = [m * scale for m in members]
        groups.append(DealGroup(ids[0], item * scale, tuple(ids[1:])))
    return groups


@settings(max_examples=150, deadline=None)
@given(group_lists(), st.integers(0, 6))
def test_filter_matches_reference(groups, threshold):
    expected = reference_filter_min_interactions(groups, 16, 6, min_interactions=threshold)
    data, stats = filter_min_interactions(groups, 16, 6, min_interactions=threshold)
    assert (data, stats) == expected
    assert list(data.user_map.items()) == list(expected[0].user_map.items())
    assert list(data.item_map.items()) == list(expected[0].item_map.items())


def test_filter_removing_everything_matches_reference():
    groups = [DealGroup(0, 0, (1,)), DealGroup(2, 1, (3, 4)), DealGroup(5, 0, ())]
    expected = reference_filter_min_interactions(groups, 6, 2, min_interactions=2)
    assert expected[0].groups == []
    assert filter_min_interactions(groups, 6, 2, min_interactions=2) == expected


@settings(max_examples=60, deadline=None)
@given(group_lists())
def test_remap_matches_reference(groups):
    assert remap_ids(groups) == reference_remap_ids(groups)


def test_generated_dataset_filter_matches_reference():
    world, groups, _ = _reference("workload", 7)
    for threshold in (0, 3, 5):
        assert filter_min_interactions(groups, 1000, 300, threshold) == (
            reference_filter_min_interactions(groups, 1000, 300, threshold)
        )


def test_load_groups_txt_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    groups = []
    for _ in range(120):
        members = rng.choice(25, size=int(rng.integers(1, 5)), replace=False) * 7919 + 11
        groups.append(
            DealGroup(int(members[0]), int(rng.integers(8)) * 104729, tuple(members[1:].tolist()))
        )
    path = write_groups_txt(groups, tmp_path / "log.txt", header="oracle round trip")
    loaded = load_groups_txt(path, min_interactions=5, seed=4)

    n_users = 1 + max(max(g.members()) for g in groups)
    n_items = 1 + max(g.item for g in groups)
    data, _ = reference_filter_min_interactions(groups, n_users, n_items, 5)
    assert data.groups
    train, validation, test = split_groups(data.groups, (7, 3, 1), 4)
    expected = GroupBuyingDataset(
        n_users=data.n_users, n_items=data.n_items,
        train=train, validation=validation, test=test, name="log",
    )
    assert loaded == expected
