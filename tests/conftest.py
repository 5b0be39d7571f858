"""Shared fixtures: tiny deterministic datasets and models.

Everything here is deliberately small — the substrate is NumPy, so tests
use graphs of tens of nodes and a handful of training steps.  Fixtures
are session-scoped where construction is expensive and the object is
treated read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MGBR, MGBRConfig
from repro.data import GroupBuyingDataset, DealGroup, SyntheticConfig, generate_dataset
from repro.store import EmbeddingStore, ProcessShardedStore, iter_stores


@pytest.fixture(scope="session")
def tiny_dataset() -> GroupBuyingDataset:
    """A small synthetic dataset shared by read-only tests."""
    return generate_dataset(
        SyntheticConfig(n_users=80, n_items=30, n_groups=300, min_interactions=3),
        seed=11,
    )


@pytest.fixture(scope="session")
def small_config() -> MGBRConfig:
    """Fast MGBR profile for model construction in tests."""
    return MGBRConfig.small(
        d=8, n_experts=2, mtl_layers=2, aux_negatives=4, train_negatives=3, seed=3
    )


@pytest.fixture(scope="session")
def tiny_mgbr(tiny_dataset, small_config) -> MGBR:
    """An untrained MGBR over the tiny dataset (read-only in tests)."""
    return MGBR(
        tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items, config=small_config
    )


@pytest.fixture()
def handmade_groups():
    """A handcrafted micro-dataset with known structure.

    4 users, 3 items.  User 0 launches items 0 and 1; user 3 launches
    item 2; users 1 and 2 participate.
    """
    return [
        DealGroup(initiator=0, item=0, participants=(1, 2)),
        DealGroup(initiator=0, item=1, participants=(1,)),
        DealGroup(initiator=3, item=2, participants=(2,)),
    ]


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def closing():
    """Register models or stores whose shard worker processes the test
    opens; every :class:`ProcessShardedStore` among them is closed at
    teardown, pass or fail.  ``closing(obj)`` returns ``obj``."""
    owned = []

    def register(obj):
        owned.append(obj)
        return obj

    yield register
    for obj in owned:
        if isinstance(obj, EmbeddingStore):
            stores = [obj]
        else:
            stores = [store for _, store in iter_stores(obj)]
        for store in stores:
            # Look through wrapper tiers (LRU cache) to the layout.
            while store is not None and not isinstance(store, ProcessShardedStore):
                store = getattr(store, "inner", None)
            if store is not None:
                store.close()
