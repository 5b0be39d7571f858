"""Synthetic Beibei-style group-buying data generator.

The paper evaluates on a proprietary dump of Beibei (125,012 users /
30,516 items / 430,360 deal groups) that is not redistributable and not
reachable offline, so this module *simulates the generative process the
paper describes* (Fig. 1b):

1. **Latent preferences.** Users and items get latent factor vectors;
   a user's affinity for an item is the inner product plus an item
   popularity bias drawn from a Zipf-like long tail (real e-commerce
   catalogues are heavy-tailed).
2. **Phase 1 — launch.** An initiator is drawn from an activity-skewed
   user distribution and launches a group on an item sampled by softmax
   affinity: initiations carry genuine preference signal, which is what
   Task A models must recover.
3. **Phase 2 — join.** Group size is drawn from a truncated geometric
   distribution (most Beibei groups are small).  Each participant is
   sampled by softmax over ``item affinity + social affinity to the
   initiator``, where social affinity comes from latent community
   membership.  Joining therefore mixes *item preference* (G_PI signal)
   with *initiator similarity* (G_UP signal) — exactly the two factors
   MGBR's Task B head and adjusted gates are designed to exploit.

Because every structural signal the models exploit (aligned u-i / p-i
preferences, social co-group structure, popularity skew, role asymmetry)
is present, relative model orderings — the thing our experiments
reproduce — are preserved; absolute metric values of course differ from
the Beibei numbers.

**Speed without moving a bit.**  :func:`generate_groups` returns exactly
the groups, and leaves the RNG in exactly the state, of a plain loop that
calls ``Generator.choice`` for every draw and rebuilds every distribution
per group.  Within one call it builds each distribution once instead:

* the initiator-activity CDF;
* each initiator's launch CDF over all items (when ``n_items <=
  candidate_pool``; a sampled pool is drawn, scored and normalised per
  group as before);
* each item's join column ``item_weight * affinity(all users, item)``
  and each community's ``social_weight * same-community`` column.

A group's join scores are the two columns with the initiator's entry cut
out; candidate ``j`` is user ``j``, or ``j + 1`` past the initiator.
Every float operation keeps its operands and order, so the probabilities
are bit-equal, and :func:`_choice_without_replacement` replays
``Generator.choice``'s sampling loop and its ``ValueError`` checks on
them.  The cached arrays live for one call only and stop growing at
:data:`_CACHE_BYTES` (64 MiB); past it they are rebuilt per group, which
changes the speed but not the output.  ``tests/test_data_oracle.py``
holds this contract against the plain loop in
``tests/reference_data.py``, over a grid of configs and seeds, with the
default budget and with a budget of zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.data.schema import DealGroup, GroupBuyingDataset
from repro.data.split import split_groups
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive

__all__ = ["SyntheticConfig", "SyntheticWorld", "generate_dataset", "generate_world"]


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic group-buying world.

    Attributes
    ----------
    n_users / n_items: entity-space sizes before filtering.
    n_groups: number of deal groups to simulate.
    latent_dim: dimensionality of the latent preference factors.
    n_communities: latent social communities driving join behaviour.
    max_group_size: hard cap on participants per group.
    mean_group_size: mean of the truncated geometric size distribution.
    affinity_temperature: softmax temperature for item selection
        (lower = more deterministic preferences = easier dataset).
    social_weight: how strongly participants prefer groups launched by
        socially-similar initiators (0 removes the social signal).
    item_weight: how strongly participants weigh their own affinity to
        the *item* when joining.  Joining in real group buying depends
        jointly on the item and the initiator (the paper's motivation
        for Task B's ``s(p|u,i)``); with ``item_weight`` dominating,
        models that score participants by user-user similarity alone
        (the tailored baselines) cannot rank joiners well — exactly the
        capability gap Table III measures.
    join_temperature: softmax temperature of the *join* decision only
        (defaults to ``affinity_temperature`` when ``None``).  Joins are
        sharper than launches by default: the joint-information Bayes
        ceiling for Task B must sit well above the user-similarity-only
        ceiling for the task to discriminate between models, while the
        launch softmax stays soft enough to keep the item catalogue
        diverse through the min-interaction filter.
    popularity_zipf: Zipf exponent of the item popularity bias.
    activity_zipf: Zipf exponent of user activity (initiator selection).
    min_interactions: Sec. III-A2 filter — users with fewer total
        purchase records are removed along with their groups.
    split_ratios: train/validation/test ratio (paper: 7:3:1).
    candidate_pool: softmax over all items is exact up to this count;
        above it, the launch step draws its item from a sampled candidate
        pool of this size, O(pool) per group.  The pool bounds only the
        launch: the join step still scores every user, O(n_users) per
        group.
    """

    n_users: int = 600
    n_items: int = 200
    n_groups: int = 2400
    latent_dim: int = 12
    n_communities: int = 8
    max_group_size: int = 8
    mean_group_size: float = 2.5
    affinity_temperature: float = 0.35
    join_temperature: Optional[float] = 0.15
    social_weight: float = 0.6
    item_weight: float = 3.0
    popularity_zipf: float = 0.8
    activity_zipf: float = 0.7
    min_interactions: int = 5
    split_ratios: tuple = (7, 3, 1)
    candidate_pool: int = 512

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        check_positive("n_users", self.n_users)
        check_positive("n_items", self.n_items)
        check_positive("n_groups", self.n_groups)
        check_positive("latent_dim", self.latent_dim)
        check_positive("n_communities", self.n_communities)
        check_positive("max_group_size", self.max_group_size)
        check_positive("mean_group_size", self.mean_group_size)
        check_positive("affinity_temperature", self.affinity_temperature)
        check_positive("candidate_pool", self.candidate_pool)
        for name in ("social_weight", "item_weight"):
            weight = getattr(self, name)
            if not (np.isfinite(weight) and weight >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {weight}")
        if self.join_temperature is not None and not self.join_temperature > 0:
            raise ValueError(
                f"join_temperature must be positive, got {self.join_temperature}"
            )
        if self.min_interactions < 0:
            raise ValueError(f"min_interactions must be >= 0, got {self.min_interactions}")
        if len(self.split_ratios) != 3 or any(r < 0 for r in self.split_ratios):
            raise ValueError(f"split_ratios must be three non-negatives, got {self.split_ratios}")


@dataclass
class SyntheticWorld:
    """Ground-truth latent state behind a synthetic dataset.

    Kept around for analysis: tests use it to verify that the generator's
    observable structure (e.g. community-aligned joins) matches its
    latent state.  Models never see this.
    """

    user_factors: np.ndarray
    item_factors: np.ndarray
    item_popularity: np.ndarray
    user_community: np.ndarray
    user_activity: np.ndarray
    config: SyntheticConfig = field(repr=False, default=None)

    def affinity(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Latent affinity of each (user, item) pair (same-length arrays)."""
        return (
            (self.user_factors[users] * self.item_factors[items]).sum(axis=1)
            + self.item_popularity[items]
        )

    def social_affinity(self, u: int, others: np.ndarray) -> np.ndarray:
        """Social similarity of ``u`` to each user in ``others`` (0/1 community match)."""
        return (self.user_community[others] == self.user_community[u]).astype(np.float64)


def _zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Long-tailed positive weights: shuffled Zipf ranks (sum to 1)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    rng.shuffle(weights)
    return weights / weights.sum()


def generate_world(config: SyntheticConfig, seed: SeedLike = None) -> SyntheticWorld:
    """Draw the latent state (factors, communities, popularity, activity)."""
    config.validate()
    rng = as_rng(seed)
    scale = 1.0 / np.sqrt(config.latent_dim)
    user_factors = rng.normal(0.0, scale, size=(config.n_users, config.latent_dim))
    item_factors = rng.normal(0.0, scale, size=(config.n_items, config.latent_dim))
    # Popularity: standardized log-Zipf weights, so a few items are hot.
    pop = np.log(_zipf_weights(config.n_items, config.popularity_zipf, rng))
    item_popularity = 0.5 * (pop - pop.mean()) / (pop.std() + 1e-12)
    user_community = rng.integers(0, config.n_communities, size=config.n_users)
    # Community members share a preference direction: blend a community
    # centroid into each user's factors so social links predict taste.
    centroids = rng.normal(0.0, scale, size=(config.n_communities, config.latent_dim))
    user_factors = 0.6 * user_factors + 0.4 * centroids[user_community]
    user_activity = _zipf_weights(config.n_users, config.activity_zipf, rng)
    return SyntheticWorld(
        user_factors=user_factors,
        item_factors=item_factors,
        item_popularity=item_popularity,
        user_community=user_community,
        user_activity=user_activity,
        config=config,
    )


def _sample_group_size(config: SyntheticConfig, rng: np.random.Generator) -> int:
    """Truncated geometric group size in ``[1, max_group_size]``."""
    p = 1.0 / max(config.mean_group_size, 1.0)
    size = int(rng.geometric(p))
    return int(min(max(size, 1), config.max_group_size))


def _softmax(scores: np.ndarray, temperature: float) -> np.ndarray:
    z = scores / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


#: Bytes :func:`generate_groups` may hold in launch CDFs and join/social
#: columns during one call; past it, those arrays are rebuilt per group.
_CACHE_BYTES = 64 << 20

#: ``Generator.choice``'s tolerance on ``sum(p) - 1`` for float64 ``p``.
_SUM_ATOL = np.sqrt(np.finfo(np.float64).eps)


def _check_probabilities(p: np.ndarray) -> None:
    """Raise the ``ValueError`` ``Generator.choice`` raises for a bad ``p``."""
    total = p.sum()
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError("Probabilities do not sum to 1")


def _cdf(p: np.ndarray) -> np.ndarray:
    """The normalised CDF ``Generator.choice(a, p=p)`` searches for one draw."""
    _check_probabilities(p)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """One draw from :func:`_cdf` output, as ``Generator.choice`` makes it."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _choice_without_replacement(
    rng: np.random.Generator, p: np.ndarray, size: int
) -> List[int]:
    """Indices ``rng.choice(len(p), size, replace=False, p=p)`` returns.

    Replays ``Generator.choice``'s loop, so the draws, the result and the
    generator state afterwards are the same: draw one uniform per missing
    index, zero the indices already found, search the renormalised CDF
    and keep each round's first occurrences in order.  Overwrites ``p``.
    """
    _check_probabilities(p)
    if np.count_nonzero(p > 0) < size:
        raise ValueError("Fewer non-zero entries in p than size")
    found: List[int] = []
    while len(found) < size:
        x = rng.random(size - len(found))
        if found:
            p[found] = 0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        fresh = dict.fromkeys(cdf.searchsorted(x, side="right").tolist())
        found.extend(fresh)
    return found


class _Cache:
    """Arrays built once per key while they fit in :data:`_CACHE_BYTES`."""

    def __init__(self) -> None:
        self._free = _CACHE_BYTES
        self._arrays: dict = {}

    def get(self, key: tuple, build, *args) -> np.ndarray:
        array = self._arrays.get(key)
        if array is None:
            array = build(*args)
            if array.nbytes <= self._free:
                self._free -= array.nbytes
                self._arrays[key] = array
        return array


def generate_groups(
    world: SyntheticWorld,
    seed: SeedLike = None,
    n_groups: Optional[int] = None,
) -> List[DealGroup]:
    """Simulate the two-phase group-buying process (Fig. 1b of the paper)."""
    config = world.config
    rng = as_rng(seed)
    total = n_groups if n_groups is not None else config.n_groups
    n_users = config.n_users
    items = np.arange(config.n_items)
    sampled_pool = config.n_items > config.candidate_pool
    join_temp = (
        config.join_temperature
        if config.join_temperature is not None
        else config.affinity_temperature
    )
    factors, item_factors = world.user_factors, world.item_factors
    popularity, community = world.item_popularity, world.user_community

    def launch_cdf(initiator: int, pool: np.ndarray = items) -> np.ndarray:
        scores = (factors[initiator] * item_factors[pool]).sum(axis=1) + popularity[pool]
        return _cdf(_softmax(scores, config.affinity_temperature))

    def join_column(item: int) -> np.ndarray:
        affinity = (factors * item_factors[item]).sum(axis=1) + popularity[item]
        return config.item_weight * affinity

    def social_column(circle: int) -> np.ndarray:
        return config.social_weight * (community == circle).astype(np.float64)

    cache = _Cache()
    activity_cdf = _cdf(world.user_activity)
    scores = np.empty(n_users - 1)
    groups: List[DealGroup] = []
    for _ in range(total):
        # Phase 1: pick the initiator, then the item they launch.
        initiator = _draw(rng, activity_cdf)
        if sampled_pool:
            pool = rng.choice(items, size=config.candidate_pool, replace=False)
            item = int(pool[_draw(rng, launch_cdf(initiator, pool))])
        else:
            item = _draw(rng, cache.get(("launch", initiator), launch_cdf, initiator))

        # Phase 2: draw the participants one by one without replacement
        # from every user but the initiator (candidate j is user j, or
        # j + 1 past the initiator).
        size = min(_sample_group_size(config, rng), n_users - 1)
        join = cache.get(("join", item), join_column, item)
        circle = int(community[initiator])
        social = cache.get(("social", circle), social_column, circle)
        np.add(join[:initiator], social[:initiator], out=scores[:initiator])
        np.add(join[initiator + 1:], social[initiator + 1:], out=scores[initiator:])
        # _softmax(scores, join_temp), in place.
        scores /= join_temp
        scores -= scores.max()
        np.exp(scores, out=scores)
        scores /= scores.sum()
        chosen = _choice_without_replacement(rng, scores, size)
        groups.append(
            DealGroup(
                initiator=initiator,
                item=item,
                participants=tuple(j + (j >= initiator) for j in chosen),
            )
        )
    return groups


def generate_dataset(
    config: Optional[SyntheticConfig] = None,
    seed: SeedLike = 0,
    name: str = "synthetic-beibei",
) -> GroupBuyingDataset:
    """End-to-end generation: world → groups → min-5 filter → 7:3:1 split.

    This is the public entry point the examples and benchmarks use.  The
    returned dataset has contiguous remapped ids (the filter may remove
    users/items) and the paper's split ratios applied at the group level.
    """
    from repro.data.preprocess import filter_min_interactions  # local: avoid cycle

    config = config or SyntheticConfig()
    rng = as_rng(seed)
    world = generate_world(config, rng)
    groups = generate_groups(world, rng)
    filtered, _ = filter_min_interactions(
        groups,
        n_users=config.n_users,
        n_items=config.n_items,
        min_interactions=config.min_interactions,
    )
    train, validation, test = split_groups(filtered.groups, config.split_ratios, rng)
    return GroupBuyingDataset(
        n_users=filtered.n_users,
        n_items=filtered.n_items,
        train=train,
        validation=validation,
        test=test,
        name=name,
    )
