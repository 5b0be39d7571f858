"""Multi-view embedding learning (paper Sec. II-C, Eq. 1-6).

Three GCNs — one per view — produce node embeddings, and each object's
final representation concatenates its two views:

* ``e_u = e_u^UI || e_u^UP``  (initiator: launch behaviour + social)
* ``e_i = e_i^UI || e_i^PI``  (item: launched-as + joined-as signal)
* ``e_p = e_p^PI || e_p^UP``  (participant: join behaviour + social)

The MGBR-D ablation swaps this module for :class:`HINEmbedding`, a
single GCN over the merged heterogeneous graph, where each object's two
view slots both come from its single HIN embedding (keeping downstream
dimensions identical, so only the view split is ablated).
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.base import EmbeddingBundle
from repro.graph.gcn import GCN
from repro.graph.hin import build_hin_adjacency
from repro.graph.views import GraphViews, build_views
from repro.nn.module import Module
from repro.nn.tensor import concat
from repro.utils.rng import SeedLike, spawn_rngs

__all__ = ["MultiViewEmbedding", "HINEmbedding"]


class MultiViewEmbedding(Module):
    """The paper's three-GCN encoder producing ``(e_u, e_i, e_p)``.

    Parameters
    ----------
    views: pre-built normalized adjacencies (:func:`repro.graph.build_views`).
    dim: per-view embedding width ``d``.
    n_layers: GCN depth ``H``.
    feature_std: Gaussian std of the layer-0 features.
    seed: initialisation seed.
    """

    def __init__(
        self,
        views: GraphViews,
        dim: int,
        n_layers: int = 2,
        feature_std: float = 1.0,
        seed: SeedLike = None,
        gain: float = 1.0,
        n_shards: int = 0,
        partition: str = "range",
        quantize=None,
    ) -> None:
        super().__init__()
        self.views = views
        self.dim = dim
        rng_ui, rng_pi, rng_up = spawn_rngs(seed, 3)
        n_bip = views.n_nodes_bipartite
        # Each GCN binds its fixed view adjacency at construction: the
        # CSR canonicalisation (and spmm's transpose cache) happen once,
        # not per forward pass.  ``n_shards``/``partition`` choose the
        # storage layout of each GCN's layer-0 feature table
        # (see repro.store) without touching the propagation math.
        self.gcn_ui = GCN(
            n_bip, dim, n_layers, feature_std=feature_std, seed=rng_ui, gain=gain,
            adjacency=views.a_ui, n_shards=n_shards, partition=partition,
            quantize=quantize,
        )
        self.gcn_pi = GCN(
            n_bip, dim, n_layers, feature_std=feature_std, seed=rng_pi, gain=gain,
            adjacency=views.a_pi, n_shards=n_shards, partition=partition,
            quantize=quantize,
        )
        self.gcn_up = GCN(
            views.n_users, dim, n_layers, feature_std=feature_std, seed=rng_up, gain=gain,
            adjacency=views.a_up, n_shards=n_shards, partition=partition,
            quantize=quantize,
        )

    def forward(self) -> EmbeddingBundle:
        """Run all three GCNs and concatenate per Eq. 4-6.

        Returns an :class:`EmbeddingBundle` whose tensors are ``2d`` wide:
        ``user`` holds every user's initiator-role embedding ``e_u``,
        ``participant`` every user's participant-role embedding ``e_p``.
        """
        n_users = self.views.n_users
        x_ui = self.gcn_ui()     # (|U|+|I|, d)
        x_pi = self.gcn_pi()     # (|U|+|I|, d)
        x_up = self.gcn_up()     # (|U|, d)

        users_ui = x_ui[slice(0, n_users)]
        items_ui = x_ui[slice(n_users, None)]
        users_pi = x_pi[slice(0, n_users)]
        items_pi = x_pi[slice(n_users, None)]

        e_u = concat([users_ui, x_up], axis=1)      # e_u^UI || e_u^UP
        e_i = concat([items_ui, items_pi], axis=1)  # e_i^UI || e_i^PI
        e_p = concat([users_pi, x_up], axis=1)      # e_p^PI || e_p^UP
        return EmbeddingBundle(user=e_u, item=e_i, participant=e_p)

    @classmethod
    def from_groups(
        cls,
        groups: Sequence,
        n_users: int,
        n_items: int,
        dim: int,
        n_layers: int = 2,
        feature_std: float = 1.0,
        seed: SeedLike = None,
        include_participant_edges: bool = False,
        gain: float = 1.0,
        n_shards: int = 0,
        partition: str = "range",
        quantize=None,
    ) -> "MultiViewEmbedding":
        """Convenience constructor building the views from deal groups."""
        views = build_views(
            groups, n_users, n_items, include_participant_edges=include_participant_edges
        )
        return cls(
            views, dim, n_layers, feature_std=feature_std, seed=seed, gain=gain,
            n_shards=n_shards, partition=partition, quantize=quantize,
        )


class HINEmbedding(Module):
    """MGBR-D's encoder: one GCN over the merged heterogeneous graph.

    The HIN contains all three relation types on ``|U|+|I|`` nodes.  To
    keep the downstream multi-task module unchanged (it expects ``2d``
    wide inputs), the single GCN runs at width ``2d`` and each user's
    initiator- and participant-role embeddings are the *same* node
    embedding — precisely the capacity MGBR-D loses.
    """

    def __init__(
        self,
        groups: Sequence,
        n_users: int,
        n_items: int,
        dim: int,
        n_layers: int = 2,
        feature_std: float = 1.0,
        seed: SeedLike = None,
        gain: float = 1.0,
        n_shards: int = 0,
        partition: str = "range",
        quantize=None,
    ) -> None:
        super().__init__()
        self.n_users = n_users
        self.n_items = n_items
        self.adjacency = build_hin_adjacency(groups, n_users, n_items)
        self.gcn = GCN(
            n_users + n_items, 2 * dim, n_layers, feature_std=feature_std, seed=seed,
            gain=gain, adjacency=self.adjacency, n_shards=n_shards, partition=partition,
            quantize=quantize,
        )

    def forward(self) -> EmbeddingBundle:
        """One GCN pass; users serve as both roles, items are item nodes."""
        x = self.gcn()
        users = x[slice(0, self.n_users)]
        items = x[slice(self.n_users, None)]
        return EmbeddingBundle(user=users, item=items, participant=users)
