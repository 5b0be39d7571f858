"""The MGBR model (paper Sec. II) assembled from its three modules.

Pipeline per scored sample (Fig. 2):

1. **Multi-view embedding learning** — three GCNs (or one HIN GCN under
   MGBR-D) produce ``e_u, e_i, e_p ∈ R^{2d}`` for every entity.
2. **Multi-task learning** — the expert/gate stack maps
   ``e_u || e_i || e_p`` to task representations ``g^L_A, g^L_B``.
3. **Prediction** — ``s(i|u) = σ(MLP_A(g^L_A))`` and
   ``s(p|u,i) = σ(MLP_B(g^L_B))``.

Task A's participant slot: the paper averages *all* users' participant
embeddings (Sec. II-E); the auxiliary losses instead pass the concrete
participant of the triple (Sec. II-G) via ``participants=...``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.base import EmbeddingBundle, GroupBuyingRecommender, bundle_rows
from repro.core.config import MGBRConfig
from repro.core.mtl import MultiTaskModule
from repro.core.prediction import PredictionHead
from repro.core.views import HINEmbedding, MultiViewEmbedding
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat, zeros
from repro.plan import ScoringPlan
from repro.utils.rng import SeedLike, spawn_rngs

__all__ = ["MGBR"]


class MGBR(GroupBuyingRecommender):
    """Multi-task learning based Group Buying Recommendation model.

    Parameters
    ----------
    groups: training deal groups (the graphs are built from these only —
        validation/test interactions never leak into the views).
    n_users / n_items: entity-space sizes.
    config: hyper-parameters; ablation switches select the variants.
    seed: initialisation seed (overrides ``config.seed`` when given).
    """

    def __init__(
        self,
        groups: Sequence,
        n_users: int,
        n_items: int,
        config: Optional[MGBRConfig] = None,
        seed: Optional[SeedLike] = None,
    ) -> None:
        super().__init__(n_users, n_items)
        self.config = config or MGBRConfig()
        root_seed = self.config.seed if seed is None else seed
        rngs = spawn_rngs(root_seed, 4)

        if self.config.use_hin_views:
            self.encoder = HINEmbedding(
                groups, n_users, n_items,
                dim=self.config.d,
                n_layers=self.config.gcn_layers,
                feature_std=self.config.feature_std,
                seed=rngs[0],
                gain=self.config.gcn_gain,
                n_shards=self.config.embedding_shards,
                quantize=self.config.embedding_quantize,
            )
        else:
            self.encoder = MultiViewEmbedding.from_groups(
                groups, n_users, n_items,
                dim=self.config.d,
                n_layers=self.config.gcn_layers,
                feature_std=self.config.feature_std,
                seed=rngs[0],
                include_participant_edges=self.config.include_participant_edges,
                gain=self.config.gcn_gain,
                n_shards=self.config.embedding_shards,
                quantize=self.config.embedding_quantize,
            )
        self.mtl = MultiTaskModule(self.config, seed=rngs[1])
        self.head_a = PredictionHead(self.config.d, self.config.mlp_hidden, seed=rngs[2])
        self.head_b = PredictionHead(self.config.d, self.config.mlp_hidden, seed=rngs[3])

    # ------------------------------------------------------------------
    # Encoder
    # ------------------------------------------------------------------
    def compute_embeddings(self) -> EmbeddingBundle:
        """Run the (multi-view or HIN) GCN encoder over all entities."""
        return self.encoder()

    # ------------------------------------------------------------------
    # Gate forward shared by both heads
    # ------------------------------------------------------------------
    def _gates(
        self,
        emb: EmbeddingBundle,
        users,
        items,
        participants=None,
    ):
        """Gather object embeddings and run the MTL stack.

        ``participants=None`` triggers Task A's convention: ``e_p`` is
        the average of all users' participant-role embeddings.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        e_u = bundle_rows(emb.user, users)
        e_i = bundle_rows(emb.item, items)
        if participants is None:
            mean_p = emb.mean_participant()       # (1, 2d), cached per bundle
            e_p = mean_p + zeros(len(users), 1)   # broadcast to batch
        else:
            e_p = bundle_rows(emb.participant, np.asarray(participants, dtype=np.int64))
        return self.mtl(e_u, e_i, e_p)

    # ------------------------------------------------------------------
    # Scoring (GroupBuyingRecommender interface + aux-loss extensions)
    # ------------------------------------------------------------------
    def score_items_from(
        self,
        emb: EmbeddingBundle,
        users,
        items,
        participants=None,
        raw: bool = False,
    ) -> Tensor:
        """Task A score ``s(i|u)`` (Eq. 16) → ``(batch,)``.

        ``participants`` overrides the averaged ``e_p`` (used by the
        auxiliary losses, Eq. 20's ``s(u,i,p)``); ``raw=True`` returns
        logits instead of σ-probabilities.
        """
        g_a, _ = self._gates(emb, users, items, participants)
        logits = self.head_a(g_a)
        return logits if raw else F.sigmoid(logits)

    def score_participants_from(
        self,
        emb: EmbeddingBundle,
        users,
        items,
        participants,
        raw: bool = False,
    ) -> Tensor:
        """Task B score ``s(p|u,i)`` (Eq. 17) → ``(batch,)``."""
        _, g_b = self._gates(emb, users, items, participants)
        logits = self.head_b(g_b)
        return logits if raw else F.sigmoid(logits)

    # ------------------------------------------------------------------
    # Planned (deduplicated + factorized) scoring
    # ------------------------------------------------------------------
    def _planned_entities(self, emb: EmbeddingBundle, plan: ScoringPlan):
        """Gather a plan's unique-entity rows → ``(e_u, e_i, e_p, part_pos)``.

        The bundle slots are the GCN's output tensors, so these are plain
        row gathers (no embedding store sees them).  The participant slot
        handles all three plan shapes:

        * pair plans (no participant column): Task A's averaged
          participant is a single shared row — the broadcast ``e_p`` of
          the dense path collapses to one entity;
        * pure triple plans: one row per unique participant;
        * mixed plans carrying the :attr:`mean_participant_id` sentinel
          (the trainer's :class:`repro.plan.PlannedBatch` folds Task-A
          pair requests and auxiliary corruption triples together): the
          sentinel sorts last in ``unique_participants``, so its row is
          substituted with the mean-participant embedding.
        """
        e_u = bundle_rows(emb.user, plan.unique_users)
        e_i = bundle_rows(emb.item, plan.unique_items)
        if plan.participants is None:
            e_p = emb.mean_participant()  # (1, 2d), cached across chunks
            part_pos = np.zeros(plan.n_pairs, dtype=np.int64)
        else:
            uniq_p = plan.unique_participants
            part_pos = plan.part_pos
            if len(uniq_p) and uniq_p[-1] == self.mean_participant_id:
                # The sentinel is not an entity row: gather the real ids
                # and append the mean-participant row in its place.
                real = uniq_p[:-1]
                mean_p = emb.mean_participant()
                if len(real):
                    e_p = concat(
                        [bundle_rows(emb.participant, real), mean_p], axis=0
                    )
                else:
                    e_p = mean_p
            else:
                e_p = bundle_rows(emb.participant, uniq_p)
        return e_u, e_i, e_p, part_pos

    def _planned_towers(
        self, emb: EmbeddingBundle, plan: ScoringPlan, heads=("a", "b"), rows=None
    ):
        """Run the factorized stack over a plan → ``(g^L_A, g^L_B)``.

        Layer-0 partial projections are computed once per unique user /
        item / participant (:meth:`repro.core.mtl.MultiTaskModule
        .forward_planned`).  ``heads`` names the towers to compute; an
        unrequested one is ``None`` and the stack skips the banks and
        gates only it reads.  ``rows`` (a plan's ``head_rows``) narrows
        each tower to the unique rows its head's losses read.

        Built entirely from autograd ops — called with a live training
        ``emb`` the towers back-propagate through the gathers and
        partial projections into the encoder.
        """
        e_u, e_i, e_p, part_pos = self._planned_entities(emb, plan)
        return self.mtl.forward_planned(
            e_u, e_i, e_p, plan.user_pos, plan.item_pos, part_pos, heads=heads,
            rows=rows,
        )

    def _score_item_plan(self, emb: EmbeddingBundle, plan: ScoringPlan) -> Tensor:
        """Task-A raw logits for a plan's unique requests (factorized)."""
        g_a, _ = self._planned_towers(emb, plan, heads=("a",))
        return self.head_a(g_a)

    def _score_participant_plan(self, emb: EmbeddingBundle, plan: ScoringPlan) -> Tensor:
        """Task-B raw logits for a plan's unique (u, i, p) requests."""
        _, g_b = self._planned_towers(emb, plan, heads=("b",))
        return self.head_b(g_b)

    def planned_joint_logits(self, emb: EmbeddingBundle, plan: ScoringPlan):
        """Both heads' raw logits over one plan → ``(logits_a, logits_b)``.

        One pass of the expert/gate stack serves both towers, so a trainer
        that folds *both* tasks' positives, negatives and auxiliary
        corruptions into one :class:`repro.plan.PlannedBatch` gets the
        second head's scores for just an extra MLP pass — and the
        item-corrupted triples shared by ``L'_A`` and ``L'_B`` (Eq. 21
        and 24 corrupt the same ``(u, i', p)`` set) are scored once.

        Live rows: a row-grouped plan (``plan.head_rows``, set by
        :meth:`repro.plan.PlannedBatch.build` with ``reads``) runs each
        head's last-layer banks, gates and tower — every layer of it
        under MGBR-M — only on the unique rows that head's losses read,
        so ``logits_a`` covers rows ``head_rows["a"]`` and ``logits_b``
        rows ``head_rows["b"]``; :meth:`repro.plan.PlannedBatch.scatter`
        maps each back to its loss segments.  A head that a row-grouped
        plan leaves out (a window of the step with none of its rows,
        :meth:`repro.plan.ScoringPlan.windows`) is not computed and
        comes back as ``None``.  Any other plan gets one logit per
        unique row from each head.
        """
        rows = plan.head_rows
        heads = ("a", "b") if rows is None else tuple(rows)
        g_a, g_b = self._planned_towers(emb, plan, heads=heads, rows=rows)
        return (
            None if g_a is None else self.head_a(g_a),
            None if g_b is None else self.head_b(g_b),
        )

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    @property
    def supports_aux_losses(self) -> bool:
        """Whether the trainer should attach ``L'_A``/``L'_B`` (Sec. II-G)."""
        return self.config.use_aux_losses
