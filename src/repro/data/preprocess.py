"""Dataset preprocessing: the paper's minimum-interaction filter.

Sec. III-A2: "we first filtered out the users who have less than five
purchase records … then removed each group including the filtered users
(no matter initiator or participant)".  Removing groups can push other
users below the threshold, so the filter iterates to a fixed point.
After filtering, user/item ids are remapped to contiguous ranges.

The filter runs in array rounds, not per-group Python passes.  The
groups are flattened once into a member array (each group's initiator,
then its participants) and a parallel group-id array.  Each round
``bincount``s the members of the surviving groups, flags the users with
``0 < count < min_interactions`` and drops every group with a flagged
member; ``FilterStats.rounds`` counts the last round, which flags
nobody.  Ids are then remapped in order of first appearance (group by
group, initiator before participants).  The dict-based filter in
``tests/reference_data.py`` is the oracle: ``tests/test_data_oracle.py``
checks both return equal data, maps and stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.schema import DealGroup

__all__ = ["FilteredData", "filter_min_interactions", "remap_ids"]


@dataclass
class FilteredData:
    """Output of the filtering pipeline.

    Attributes
    ----------
    groups: surviving deal groups with remapped contiguous ids.
    n_users / n_items: sizes of the remapped id spaces.
    user_map / item_map: original id -> new id for survivors.
    """

    groups: List[DealGroup]
    n_users: int
    n_items: int
    user_map: Dict[int, int]
    item_map: Dict[int, int]


@dataclass
class FilterStats:
    """Bookkeeping about what the filter removed."""

    rounds: int
    users_removed: int
    items_removed: int
    groups_removed: int


def _flatten(groups: Sequence[DealGroup]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Members (each group's initiator, then its participants), member counts and items."""
    n = len(groups)
    sizes = np.fromiter((1 + len(g.participants) for g in groups), np.int64, n)
    members = np.fromiter(
        chain.from_iterable(g.members() for g in groups), np.int64, int(sizes.sum())
    )
    items = np.fromiter((g.item for g in groups), np.int64, n)
    return members, sizes, items


def _first_appearance(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``ids`` in order of first appearance, and each id's rank there."""
    distinct, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return distinct[order], rank[inverse]


def _remap(
    members: np.ndarray, sizes: np.ndarray, items: np.ndarray
) -> Tuple[List[DealGroup], Dict[int, int], Dict[int, int]]:
    users, member_ids = _first_appearance(members)
    item_keys, item_ids = _first_appearance(items)
    flat = member_ids.tolist()
    out: List[DealGroup] = []
    start = 0
    for size, item in zip(sizes.tolist(), item_ids.tolist()):
        out.append(
            DealGroup(
                initiator=flat[start],
                item=item,
                participants=tuple(flat[start + 1:start + size]),
            )
        )
        start += size
    user_map = dict(zip(users.tolist(), range(users.size)))
    item_map = dict(zip(item_keys.tolist(), range(item_keys.size)))
    return out, user_map, item_map


def filter_min_interactions(
    groups: Sequence[DealGroup],
    n_users: int,
    n_items: int,
    min_interactions: int = 5,
) -> Tuple[FilteredData, FilterStats]:
    """Iteratively drop under-active users and every group touching them.

    Parameters
    ----------
    groups: raw deal groups.
    n_users / n_items: original id-space sizes.
    min_interactions: per-user purchase-record threshold (paper uses 5;
        0 disables filtering but still remaps ids).

    Returns
    -------
    (FilteredData, FilterStats)
        Remapped surviving data plus removal statistics.
    """
    members, sizes, items = _flatten(groups)
    users, member_users = np.unique(members, return_inverse=True)
    member_group = np.repeat(np.arange(sizes.size), sizes)
    alive = np.ones(sizes.size, dtype=bool)
    rounds = 0
    while True:
        rounds += 1
        counts = np.bincount(member_users[alive[member_group]], minlength=users.size)
        bad = (counts > 0) & (counts < min_interactions)
        if not bad.any():
            break
        alive[member_group[bad[member_users]]] = False
        if not alive.any():
            break
    remapped, user_map, item_map = _remap(members[alive[member_group]], sizes[alive], items[alive])
    stats = FilterStats(
        rounds=rounds,
        users_removed=n_users - len(user_map),
        items_removed=n_items - len(item_map),
        groups_removed=len(groups) - len(remapped),
    )
    data = FilteredData(
        groups=remapped,
        n_users=len(user_map),
        n_items=len(item_map),
        user_map=user_map,
        item_map=item_map,
    )
    return data, stats


def remap_ids(
    groups: Sequence[DealGroup],
) -> Tuple[List[DealGroup], Dict[int, int], Dict[int, int]]:
    """Relabel users and items with contiguous ids in order of appearance.

    Embedding tables are sized by max id, so gaps left by filtering would
    waste parameters and distort the Table V parameter counts.
    """
    return _remap(*_flatten(groups))
