"""Tests for preprocessing, splits, samples, batching and statistics."""

import numpy as np
import pytest

from repro.data import (
    DealGroup,
    GroupBuyingDataset,
    extract_task_a,
    extract_task_b,
    filter_min_interactions,
    iter_task_a_batches,
    iter_task_b_batches,
    n_batches,
    remap_ids,
    split_groups,
)
from repro.data.statistics import compute_statistics, format_table1


class TestFilter:
    def test_removes_underactive_users_to_fixed_point(self):
        # u0 appears 3x, u1 2x, u2 1x.  With threshold 2, removing u2
        # kills group B, dropping u1 to 1 -> cascade removes u1 too.
        groups = [
            DealGroup(0, 0, (1,)),       # A
            DealGroup(0, 1, (1, 2)),     # B (contains u2)
            DealGroup(0, 2, ()),         # C
        ]
        data, stats = filter_min_interactions(groups, 3, 3, min_interactions=2)
        survivors = {g.initiator for g in data.groups}
        survivors |= {p for g in data.groups for p in g.participants}
        assert stats.rounds >= 2
        # Only u0 can survive, via groups A?? A contains u1 -> removed.
        # Cascade: only group C (u0 alone) remains if u0 still has >=2...
        # it doesn't, so everything is removed.
        assert data.groups == [] or all(u == 0 for u in survivors)

    def test_threshold_zero_keeps_everything(self):
        groups = [DealGroup(0, 0, (1,)), DealGroup(2, 1, ())]
        data, stats = filter_min_interactions(groups, 5, 3, min_interactions=0)
        assert len(data.groups) == 2
        assert stats.groups_removed == 0

    def test_remapping_contiguous(self):
        groups = [DealGroup(10, 7, (20,)), DealGroup(10, 9, (30,)), DealGroup(20, 7, (10,)), DealGroup(30, 9, (10,))]
        data, _ = filter_min_interactions(groups, 31, 10, min_interactions=1)
        users = {g.initiator for g in data.groups} | {
            p for g in data.groups for p in g.participants
        }
        assert users == set(range(data.n_users))

    def test_remap_ids_orders_by_appearance(self):
        groups = [DealGroup(5, 9, (2,))]
        remapped, user_map, item_map = remap_ids(groups)
        assert user_map == {5: 0, 2: 1}
        assert item_map == {9: 0}
        assert remapped[0] == DealGroup(0, 0, (1,))


class TestSplit:
    def test_partition_is_exact(self):
        groups = [DealGroup(i % 5, i % 3, ()) for i in range(110)]
        train, val, test = split_groups(groups, (7, 3, 1), seed=0)
        assert len(train) + len(val) + len(test) == 110
        assert len(val) == 110 * 3 // 11
        assert len(test) == 110 * 1 // 11

    def test_deterministic_given_seed(self):
        groups = [DealGroup(i % 5, i % 3, ()) for i in range(40)]
        a = split_groups(groups, seed=3)
        b = split_groups(groups, seed=3)
        assert a == b

    def test_no_group_duplicated(self):
        groups = [DealGroup(i, 0, ()) for i in range(30)]
        train, val, test = split_groups(groups, seed=1)
        ids = [g.initiator for g in train + val + test]
        assert sorted(ids) == list(range(30))

    def test_invalid_ratios(self):
        with pytest.raises(ValueError):
            split_groups([], (1, 2), seed=0)
        with pytest.raises(ValueError):
            split_groups([], (0, 0, 0), seed=0)


class TestSamples:
    def test_task_a_one_per_group(self, handmade_groups):
        samples = extract_task_a(handmade_groups)
        assert len(samples) == 3
        np.testing.assert_array_equal(samples.users, [0, 0, 3])
        np.testing.assert_array_equal(samples.items, [0, 1, 2])

    def test_task_b_one_per_participant(self, handmade_groups):
        samples = extract_task_b(handmade_groups)
        assert len(samples) == 4
        np.testing.assert_array_equal(samples.participants, [1, 2, 1, 2])
        np.testing.assert_array_equal(samples.group_index, [0, 0, 1, 2])

    def test_mismatched_arrays_rejected(self):
        from repro.data.samples import TaskASamples

        with pytest.raises(ValueError):
            TaskASamples(
                users=np.arange(3), items=np.arange(2), group_index=np.arange(3)
            )


class TestBatching:
    def test_n_batches(self):
        assert n_batches(100, 32) == 4
        assert n_batches(96, 32) == 3
        assert n_batches(100, 32, drop_last=True) == 3

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            n_batches(10, 0)

    def test_task_a_batches_cover_everything(self, handmade_groups):
        samples = extract_task_a(handmade_groups)
        seen = []
        for batch in iter_task_a_batches(samples, batch_size=2, seed=0):
            seen.extend(batch["items"].tolist())
        assert sorted(seen) == [0, 1, 2]

    def test_task_b_batch_fields(self, handmade_groups):
        samples = extract_task_b(handmade_groups)
        batch = next(iter_task_b_batches(samples, batch_size=3, seed=0))
        assert set(batch) == {"index", "users", "items", "participants", "group_index"}
        assert len(batch["users"]) == 3
        np.testing.assert_array_equal(batch["users"], samples.users[batch["index"]])

    def test_shuffle_changes_order_but_not_content(self, handmade_groups):
        samples = extract_task_b(handmade_groups)
        run = lambda s: [
            tuple(b["participants"]) for b in iter_task_b_batches(samples, 2, seed=s)
        ]
        assert sorted(np.concatenate(run(1))) == sorted(np.concatenate(run(2)))

    def test_drop_last(self, handmade_groups):
        samples = extract_task_b(handmade_groups)  # 4 triples
        batches = list(iter_task_b_batches(samples, 3, drop_last=True, seed=0))
        assert len(batches) == 1 and len(batches[0]["users"]) == 3


class TestStatistics:
    def test_table1_numbers(self, handmade_groups):
        ds = GroupBuyingDataset(n_users=4, n_items=3, train=list(handmade_groups))
        stats = compute_statistics(ds)
        assert stats.n_groups == 3
        assert stats.n_task_a_pairs == 3
        assert stats.n_task_b_triples == 4
        assert stats.n_initiators == 2
        assert stats.n_participants == 2
        assert stats.max_group_size == 2

    def test_density_bounds(self, tiny_dataset):
        stats = compute_statistics(tiny_dataset)
        for d in (stats.ui_density, stats.pi_density, stats.up_density):
            assert 0.0 <= d <= 1.0

    def test_format_table1_contains_rows(self, tiny_dataset):
        text = format_table1(compute_statistics(tiny_dataset))
        assert "TABLE I" in text
        assert "user" in text and "item" in text and "deal group" in text
