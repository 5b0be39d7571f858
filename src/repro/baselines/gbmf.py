"""GBMF baseline — the MF variant of GBGCN (Zhang et al., ICDE 2021).

"It directly uses dot-based similarity … to calculate scores of
candidate items and candidate users as MF-based recommendation models"
(paper Sec. III-B).  Users keep *two role embeddings* (initiator /
participant) like GBGCN but without any graph propagation:

* Task A: ``s(i|u) = σ(⟨u_init, i⟩)``
* Task B: ``s(p|u,i) = σ(⟨p_part, u_init⟩)`` — the paper tailors *every*
  baseline's Task-B head to the participant/initiator inner product
  ("we can directly use the distance of p's embedding and u's
  embedding as s(p|u,i)"); GBMF contributes its role-specific tables
  but, like the rest, no item-aware participant scoring.
"""

from __future__ import annotations

from repro.baselines.base import EmbeddingBundle, GroupBuyingRecommender
from repro.nn.layers import Embedding
from repro.store import DenseStore
from repro.utils.rng import SeedLike, spawn_rngs

__all__ = ["GBMF"]


class GBMF(GroupBuyingRecommender):
    """Role-aware matrix factorization for group buying.

    Task A scores ``⟨initiator-role u, item⟩``; Task B falls back to the
    base-class tailoring ``⟨participant-role p, initiator-role u⟩``.

    Parameters
    ----------
    n_users / n_items: entity counts.
    dim: latent factor width.
    seed: initialisation seed.
    n_shards: storage layout of the three tables
        (:mod:`repro.store`); with ``n_shards >= 1`` the rows live in
        that many shard worker processes
        (:class:`repro.store.ProcessShardedStore`), the scoring paths
        gather rows straight from them and no full table is ever
        materialised — scores stay bit-identical to dense because
        gathers copy exact rows.
    quantize: quantised memory tier (``None``/"int8"/"fp16") for the
        three tables — see docs/quantization.md.  Any quantised layout
        hands the scoring paths the stores (like the sharded layout),
        so inference gathers read the compact tier while training
        bypasses it.
    """

    def __init__(
        self,
        n_users: int,
        n_items: int,
        dim: int = 32,
        seed: SeedLike = 0,
        n_shards: int = 0,
        quantize=None,
    ) -> None:
        super().__init__(n_users, n_items)
        rngs = spawn_rngs(seed, 3)
        self.initiator_table = Embedding(
            n_users, dim, seed=rngs[0], n_shards=n_shards, quantize=quantize,
        )
        self.participant_table = Embedding(
            n_users, dim, seed=rngs[1], n_shards=n_shards, quantize=quantize,
        )
        self.item_table = Embedding(
            n_items, dim, seed=rngs[2], n_shards=n_shards, quantize=quantize,
        )
        # Store-backed bundles route scoring through store.gather, which
        # is what lets the quantised tier serve inference reads.
        self._sharded = not isinstance(self.initiator_table.store, DenseStore)

    def compute_embeddings(self) -> EmbeddingBundle:
        """MF has no encoder — the tables are the representations.

        Dense layouts hand the scoring paths the materialised tables
        (the historical behaviour, and ``all()`` is free there);
        sharded layouts hand them the stores, so every score reads only
        the rows its plan touches — one gather per shard per call.
        """
        if self._sharded:
            return EmbeddingBundle(
                user=self.initiator_table.store,
                item=self.item_table.store,
                participant=self.participant_table.store,
            )
        return EmbeddingBundle(
            user=self.initiator_table.all(),
            item=self.item_table.all(),
            participant=self.participant_table.all(),
        )
