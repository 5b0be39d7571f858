"""Reference implementations the data-pipeline oracle tests compare against.

``reference_generate_groups`` is the plain per-group loop the synthetic
generator ran before its launch/join distributions were cached: it asks
``Generator.choice`` for every draw and rebuilds every distribution per
group.  ``reference_filter_min_interactions`` and ``reference_remap_ids``
are the dict-based min-interaction filter and first-appearance remap.
The library versions must return equal groups, maps and stats, and leave
the generator's RNG in the same state (``tests/test_data_oracle.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.preprocess import FilteredData, FilterStats
from repro.data.schema import DealGroup
from repro.data.synthetic import SyntheticConfig, SyntheticWorld
from repro.utils.rng import SeedLike, as_rng


def _sample_group_size(config: SyntheticConfig, rng: np.random.Generator) -> int:
    p = 1.0 / max(config.mean_group_size, 1.0)
    size = int(rng.geometric(p))
    return int(np.clip(size, 1, config.max_group_size))


def _softmax(scores: np.ndarray, temperature: float) -> np.ndarray:
    z = scores / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def reference_generate_groups(
    world: SyntheticWorld,
    seed: SeedLike = None,
    n_groups: Optional[int] = None,
) -> List[DealGroup]:
    """Simulate the two-phase group-buying process, one ``choice`` per draw."""
    config = world.config
    rng = as_rng(seed)
    total = n_groups if n_groups is not None else config.n_groups
    users = np.arange(config.n_users)
    items = np.arange(config.n_items)
    groups: List[DealGroup] = []
    for _ in range(total):
        # Phase 1: pick the initiator, then the item they launch.
        initiator = int(rng.choice(users, p=world.user_activity))
        if config.n_items > config.candidate_pool:
            pool = rng.choice(items, size=config.candidate_pool, replace=False)
        else:
            pool = items
        launch_scores = world.affinity(np.full(pool.shape, initiator), pool)
        item = int(rng.choice(pool, p=_softmax(launch_scores, config.affinity_temperature)))

        # Phase 2: draw the participants one by one without replacement.
        size = _sample_group_size(config, rng)
        candidates = np.delete(users, initiator)
        item_scores = world.affinity(candidates, np.full(candidates.shape, item))
        social = world.social_affinity(initiator, candidates)
        join_scores = config.item_weight * item_scores + config.social_weight * social
        join_temp = (
            config.join_temperature
            if config.join_temperature is not None
            else config.affinity_temperature
        )
        probs = _softmax(join_scores, join_temp)
        size = min(size, candidates.size)
        chosen = rng.choice(candidates, size=size, replace=False, p=probs)
        groups.append(
            DealGroup(initiator=initiator, item=item, participants=tuple(int(p) for p in chosen))
        )
    return groups


def _interaction_counts(groups: Sequence[DealGroup]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for g in groups:
        counts[g.initiator] = counts.get(g.initiator, 0) + 1
        for p in g.participants:
            counts[p] = counts.get(p, 0) + 1
    return counts


def reference_filter_min_interactions(
    groups: Sequence[DealGroup],
    n_users: int,
    n_items: int,
    min_interactions: int = 5,
) -> Tuple[FilteredData, FilterStats]:
    """Dict-based fixed-point filter: one Python pass per group per round."""
    current: List[DealGroup] = list(groups)
    rounds = 0
    while True:
        rounds += 1
        counts = _interaction_counts(current)
        bad = {u for u, c in counts.items() if c < min_interactions}
        if not bad:
            break
        current = [
            g
            for g in current
            if g.initiator not in bad and not any(p in bad for p in g.participants)
        ]
        if not current:
            break
    remapped, user_map, item_map = reference_remap_ids(current)
    stats = FilterStats(
        rounds=rounds,
        users_removed=n_users - len(user_map),
        items_removed=n_items - len(item_map),
        groups_removed=len(groups) - len(current),
    )
    data = FilteredData(
        groups=remapped,
        n_users=len(user_map),
        n_items=len(item_map),
        user_map=user_map,
        item_map=item_map,
    )
    return data, stats


def reference_remap_ids(
    groups: Sequence[DealGroup],
) -> Tuple[List[DealGroup], Dict[int, int], Dict[int, int]]:
    """Dict-based contiguous relabelling in order of first appearance."""
    user_map: Dict[int, int] = {}
    item_map: Dict[int, int] = {}

    def uid(u: int) -> int:
        if u not in user_map:
            user_map[u] = len(user_map)
        return user_map[u]

    def iid(i: int) -> int:
        if i not in item_map:
            item_map[i] = len(item_map)
        return item_map[i]

    out = [
        DealGroup(
            initiator=uid(g.initiator),
            item=iid(g.item),
            participants=tuple(uid(p) for p in g.participants),
        )
        for g in groups
    ]
    return out, user_map, item_map
