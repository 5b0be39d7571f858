"""Common interface for all group-buying recommenders.

Every model in this repository — MGBR, its ablation variants, and the six
baselines — implements the same contract so the trainer, the evaluation
protocol and the benchmark harness treat them uniformly:

* :meth:`compute_embeddings` builds the differentiable entity
  representations (one full forward of whatever encoder the model uses);
* :meth:`score_items_from` / :meth:`score_participants_from` score Task A
  pairs and Task B triples *given* those embeddings, so one encoder pass
  is shared across positives, negatives, and both tasks within a
  training step;
* :meth:`score_items` / :meth:`score_participants` are the stateless
  public equivalents used by evaluation (they reuse a cached encoder
  pass created by :meth:`refresh_cache` when available);
* :meth:`score_item_plan` / :meth:`score_participant_plan` are the
  **batched scoring path**: they score one compiled
  :class:`repro.plan.ScoringPlan` — many instances × many candidates —
  against the cached encoder pass, for the evaluation protocol's
  chunked runner and the serving front-end.  :meth:`_candidate_plan`
  picks the plan kind: a model with a joint expert/gate stack dedups
  the request (repeated requests scored once, the result scattered
  back); the others take an identity plan that scores every flat row.
  The ``_score_*_plan`` hooks let models exploit the plan's entity
  structure (MGBR's factorized expert/gate stack does).
  Scoring must therefore be a *pure function* of the id tuple given the
  cached embeddings — which every model here satisfies.

Baselines that were not designed for Task B inherit the paper's
tailoring (Sec. III-B): the participant score is the inner product of
the participant's and the initiator's user embeddings.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from repro.plan import ScoringPlan
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Tensor, take_rows
from repro.store import EmbeddingStore, iter_stores

__all__ = ["EmbeddingBundle", "GroupBuyingRecommender", "bundle_rows", "as_matrix"]

#: Serialises the first build of :meth:`EmbeddingBundle.mean_participant`
#: (concurrent evaluation windows may all miss at once).
_MEAN_LOCK = threading.Lock()

#: Guards the planned-call counters (evaluation windows score concurrently).
_CALLS_LOCK = threading.Lock()

#: A bundle slot: either a materialised tensor (encoder output / dense
#: table) or a sharded/dense :class:`repro.store.EmbeddingStore` whose
#: rows are gathered on demand — the layout serving catalogs beyond one
#: table's worth of RAM.
BundleSource = Union[Tensor, EmbeddingStore]


def bundle_rows(source: BundleSource, index, plan=None, role: Optional[str] = None) -> Tensor:
    """Gather rows from a bundle slot, whatever its storage layout.

    Tensors take the plain :func:`repro.nn.tensor.take_rows` gather;
    embedding stores answer from their shards (touching each shard once
    per call).  ``plan``/``role`` optionally name a
    :class:`repro.plan.ScoringPlan` id array so the store reuses the
    plan's cached per-shard gather map.
    """
    if isinstance(source, EmbeddingStore):
        return source.gather(index, plan=plan, role=role)
    return take_rows(source, np.asarray(index, dtype=np.int64))


def as_matrix(source: BundleSource) -> np.ndarray:
    """A bundle slot's full table as a raw array (analysis/plotting)."""
    if isinstance(source, EmbeddingStore):
        return source.logical_state()
    return np.asarray(source.data)


@dataclass
class EmbeddingBundle:
    """Entity representations produced by one encoder pass.

    Attributes
    ----------
    user:
        ``(|U|, d_u)`` initiator-role user embeddings.
    item:
        ``(|I|, d_i)`` item embeddings.
    participant:
        ``(|U|, d_p)`` participant-role user embeddings; models without
        role separation pass the same tensor as ``user``.

    Each slot is either a tensor or an :class:`repro.store
    .EmbeddingStore` (a table-only model can hand its store straight to
    the scoring paths, which then gather per shard instead of reading a
    materialised table) — read rows via :func:`bundle_rows`.
    """

    user: BundleSource
    item: BundleSource
    participant: BundleSource
    _mean_participant: Optional[Tensor] = field(default=None, repr=False, compare=False)

    def mean_participant(self) -> Tensor:
        """``(1, d_p)`` average of all participant rows, computed once.

        Task A's participant slot (paper Sec. II-E) uses this same
        reduction for every scored request; caching it on the bundle
        keeps the O(|U|·d) pass off the per-chunk hot path (as a shared
        autograd sub-expression its gradient still accumulates
        correctly in training).  A store-backed slot materialises its
        logical table for the reduction — bit-identical to the dense
        mean, since store concatenation reassembles the exact table.

        Safe under concurrent readers: the first build runs under a
        lock, so every thread gets the same tensor."""
        mean = self._mean_participant
        if mean is None:
            with _MEAN_LOCK:
                mean = self._mean_participant
                if mean is None:
                    participant = self.participant
                    if isinstance(participant, EmbeddingStore):
                        participant = participant.all()
                    mean = participant.mean(axis=0, keepdims=True)
                    self._mean_participant = mean
        return mean


class GroupBuyingRecommender(Module):
    """Abstract base: two scoring functions over one embedding pass."""

    #: Whether the trainer should attach the auxiliary losses (Sec. II-G).
    #: Only the MGBR family overrides this.
    supports_aux_losses: bool = False

    def __init__(self, n_users: int, n_items: int) -> None:
        super().__init__()
        if n_users <= 0 or n_items <= 0:
            raise ValueError(f"need positive entity counts, got {n_users}/{n_items}")
        self.n_users = n_users
        self.n_items = n_items
        self._cached: Optional[EmbeddingBundle] = None
        self._tape_calls = 0

    def executor_stats(self) -> Dict[str, int]:
        """Program counters: ``tape_calls`` counts the planned scoring
        calls (:meth:`score_item_plan` / :meth:`score_participant_plan`),
        every one of which runs the tape."""
        return {"tape_calls": self._tape_calls}

    # ------------------------------------------------------------------
    # To be provided by concrete models
    # ------------------------------------------------------------------
    def compute_embeddings(self) -> EmbeddingBundle:
        """One differentiable encoder pass over all entities."""
        raise NotImplementedError

    def score_items_from(
        self, emb: EmbeddingBundle, users, items, raw: bool = False, plan=None
    ) -> Tensor:
        """Task A scores ``s(i|u)`` for paired index arrays → ``(batch,)``.

        Default: the user-item inner product, the standard CF scoring the
        MF-style baselines use.  ``raw=True`` returns the logits (the
        training losses consume these); otherwise σ-probabilities.
        ``plan`` optionally carries the :class:`repro.plan.ScoringPlan`
        the index arrays came from, so store-backed bundles reuse its
        cached per-shard gather maps.
        """
        e_u = bundle_rows(emb.user, users, plan=plan, role="pair_users")
        e_i = bundle_rows(emb.item, items, plan=plan, role="pair_items")
        logits = (e_u * e_i).sum(axis=1)
        return logits if raw else F.sigmoid(logits)

    def score_participants_from(
        self, emb: EmbeddingBundle, users, items, participants, raw: bool = False, plan=None
    ) -> Tensor:
        """Task B scores ``s(p|u,i)`` → ``(batch,)``.

        Default: the paper's baseline tailoring — inner product between
        the participant's and initiator's embeddings (Sec. III-B; the
        item is ignored by models with no Task-B head).
        """
        del items
        e_u = bundle_rows(emb.user, users, plan=plan, role="pair_users")
        e_p = bundle_rows(emb.participant, participants, plan=plan, role="pair_participants")
        logits = (e_u * e_p).sum(axis=1)
        return logits if raw else F.sigmoid(logits)

    # ------------------------------------------------------------------
    # Cached public scoring (evaluation path)
    # ------------------------------------------------------------------
    def refresh_cache(self) -> None:
        """Recompute and store the encoder pass for repeated scoring.

        Call under ``no_grad`` (the evaluation protocol does); training
        code never uses the cache.

        The cache is unsynchronized model state: a rebuild must not overlap
        any scoring.  Concurrent *scoring* against a built cache is safe
        (window-parallel evaluation refreshes first, then fans out; the
        fold caches lock their builds).  The serving engines build the
        cache before their workers start, and ``ServingEngine.refresh()``
        parks every worker between flushes while it rebuilds.
        """
        self._cached = self.compute_embeddings()

    def invalidate_cache(self) -> None:
        """Drop the cached encoder pass (after a parameter update)."""
        self._cached = None

    def _bundle(self) -> EmbeddingBundle:
        if self._cached is None:
            self._cached = self.compute_embeddings()
        return self._cached

    def score_items(self, users, items) -> Tensor:
        """Public Task-A scoring against the cached encoder pass."""
        return self.score_items_from(self._bundle(), users, items)

    def score_participants(self, users, items, participants) -> Tensor:
        """Public Task-B scoring against the cached encoder pass."""
        return self.score_participants_from(self._bundle(), users, items, participants)

    # ------------------------------------------------------------------
    # Planned (deduplicated) scoring — the evaluation/serving/training
    # hot path
    # ------------------------------------------------------------------
    @property
    def mean_participant_id(self) -> int:
        """Sentinel id meaning "the averaged participant slot" in plans.

        One past the last real user id, so it can never collide with an
        entity and — plan ids being sorted — always lands last in a
        plan's ``unique_participants``.  The trainer uses it to fold
        Task-A pair requests (scored with the mean participant, paper
        Sec. II-E) and auxiliary corruption triples (explicit
        participants) into one :class:`repro.plan.PlannedBatch`.
        """
        return self.n_users

    @property
    def _plans_scoring(self) -> bool:
        """Whether this model's candidate plans deduplicate.

        Derived from the model, never set by a caller: a model dedups
        iff it has a joint expert/gate stack (``planned_joint_logits``,
        the MGBR family), whose factorized layer-0 projections make the
        dedup pay.  The baselines' near-free scorers lose more to the
        dedup than they save, so they score identity plans (one pair per
        flat row).  The trainer also reads this rule: the MGBR family
        trains on the planned step, the baselines on the flat one.
        Serving always dedups (its plans merge requests).
        """
        return hasattr(self, "planned_joint_logits")

    def _candidate_plan(self, users, candidates, items=None) -> ScoringPlan:
        """The :class:`ScoringPlan` of one candidate matrix.

        ``items=None`` plans Task A (``(n,)`` users × ``(n, m)`` items),
        otherwise Task B (``(n,)`` (u, i) × ``(n, m)`` participants).
        The plan dedups iff :attr:`_plans_scoring`; the evaluation
        protocol plans through here.
        """
        dedup = self._plans_scoring
        if items is None:
            return ScoringPlan.for_items(users, candidates, dedup=dedup)
        return ScoringPlan.for_participants(users, items, candidates, dedup=dedup)

    def _score_item_plan(self, emb: EmbeddingBundle, plan: ScoringPlan) -> Tensor:
        """Score a plan's unique (u, i) requests → ``(P,)`` tensor.

        The default routes through the flat scorers, so every baseline
        serves planned requests for free; MGBR overrides this with the
        factorized expert/gate path.  Raw logits when the model uses the
        default public ``score_items`` (σ is monotone, and saturated
        probabilities would collapse distinct candidates into ties),
        the model's own score scale otherwise.
        """
        if type(self).score_items is GroupBuyingRecommender.score_items:
            kwargs = (
                {"plan": plan}
                if type(self).score_items_from is GroupBuyingRecommender.score_items_from
                else {}
            )
            return self.score_items_from(emb, plan.users, plan.items, raw=True, **kwargs)
        return self.score_items(plan.users, plan.items)

    def _score_participant_plan(self, emb: EmbeddingBundle, plan: ScoringPlan) -> Tensor:
        """Score a plan's unique (u, i, p) requests → ``(P,)`` tensor."""
        if type(self).score_participants is GroupBuyingRecommender.score_participants:
            kwargs = (
                {"plan": plan}
                if type(self).score_participants_from
                is GroupBuyingRecommender.score_participants_from
                else {}
            )
            return self.score_participants_from(
                emb, plan.users, plan.items, plan.participants, raw=True, **kwargs
            )
        return self.score_participants(plan.users, plan.items, plan.participants)

    def _run_plan(self, plan: ScoringPlan, task: str) -> np.ndarray:
        """Score one plan on its task's hook → ``(P,)`` float64."""
        with _CALLS_LOCK:
            self._tape_calls += 1
        hook = self._score_item_plan if task == "items" else self._score_participant_plan
        return np.asarray(hook(self._bundle(), plan).data, dtype=np.float64).ravel()

    def score_item_plan(self, plan: ScoringPlan) -> np.ndarray:
        """Unique-request Task-A scores for ``plan`` → ``(P,)`` float64.

        Callers (the evaluation protocol's chunked runner, the serving
        front-end) scatter the result back to their request shape with
        :meth:`ScoringPlan.scatter`.  On the default path the values are
        raw logits rather than σ-probabilities: the sigmoid is monotonic
        so ranks are unchanged, but saturated probabilities (σ → exactly
        1.0, common under float32 inference on confident models) would
        collapse distinct candidates into ties.  Models overriding the
        public ``score_items`` keep their own score scale.
        """
        if plan.is_triple:
            raise ValueError("item scoring got a participant (triple) plan")
        return self._run_plan(plan, "items")

    def score_participant_plan(self, plan: ScoringPlan) -> np.ndarray:
        """Unique-request Task-B scores for ``plan`` → ``(P,)`` float64."""
        if not plan.is_triple:
            raise ValueError("participant scoring got an item (pair) plan")
        return self._run_plan(plan, "participants")

    # ------------------------------------------------------------------
    # Case-study hook (Fig. 6)
    # ------------------------------------------------------------------
    def entity_embeddings(self) -> Dict[str, np.ndarray]:
        """Detached role-keyed embedding matrices for analysis/plotting."""
        bundle = self._bundle()
        return {
            "initiator": np.array(as_matrix(bundle.user)),
            "item": np.array(as_matrix(bundle.item)),
            "participant": np.array(as_matrix(bundle.participant)),
        }

    # ------------------------------------------------------------------
    # Storage introspection (serving observability, shard checkpoints)
    # ------------------------------------------------------------------
    def embedding_stores(self) -> Dict[str, "EmbeddingStore"]:
        """``module_path -> store`` for every store-backed table in the tree."""
        return dict(iter_stores(self))
