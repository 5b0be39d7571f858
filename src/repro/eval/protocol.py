"""Candidate-list evaluation protocols (paper Sec. III-A2 / III-D).

For each test instance the model scores a candidate list containing the
one positive and ``n_negatives`` sampled negatives:

* **Task A** — instance is an initiator ``u``; candidates are items.
  Negatives are items ``u`` never bought.
* **Task B** — instance is a pair ``(u, i)``; candidates are users.
  Negatives are users outside the observed participant set ``G_{u,i}``.

The paper computes MRR/NDCG@10 with 1:9 lists and MRR/NDCG@100 with
1:99 lists.  Candidate lists are drawn with a *fixed seed held constant
across models*, so Table III comparisons are paired.

Batched scoring
---------------
:meth:`EvalProtocol.run` is a fully batched matrix program: candidate
lists are built with one vectorised rejection-sampling pass, each
task's (instance × candidate) request is compiled into one plan and
scored in windows of ``chunk_size`` pairs, each window in a single
model call against the model's cached encoder pass (``refresh_cache``
runs the GCN encoder exactly once per evaluation), and the whole score
matrix is ranked at once by
:func:`repro.eval.metrics.ranks_of_positives`.  This is an order of
magnitude faster than the historical per-instance loop, which is kept
as :meth:`EvalProtocol.run_per_instance` for parity testing and
throughput benchmarking.

Planned scoring
---------------
Every model scores through a :class:`repro.plan.ScoringPlan`; the model
picks the plan's kind (``_candidate_plan`` on
:class:`repro.baselines.base.GroupBuyingRecommender`).  A model with a
joint expert/gate stack (the MGBR family) gets a *dedup* plan: repeated
(u, i) / (u, i, p) requests collapse onto unique pairs *globally*
(dedup sees the whole instance set, not one window) and its factorized
stack scores each unique pair once.  The baselines get an *identity*
plan: one pair per flat row in request order, no dedup to pay for,
since their near-free scorers lose more to the dedup than they save.
Either way the model scores ``chunk_size``-pair windows via
``score_item_plan`` / ``score_participant_plan``, and one scatter (a
reshape, for an identity plan) rebuilds the full score matrix.
Duplicate requests receive bit-equal scores on both kinds, so ties (and
therefore metrics) are unaffected.

Both tasks compile their plans first, and then all their windows run
window-parallel on one work queue (:mod:`repro.eval.windows`): the
calling thread plus one pool thread per extra CPU, each scoring into
its own thread's output pool.  The window grid and each window's operands are the
serial loop's, so scores and metrics are bit-identical for any number
of CPUs.

Scoring convention: the batched path ranks *raw logits* (see
:meth:`repro.baselines.base.GroupBuyingRecommender.score_item_plan`),
which orders candidates identically to σ-probabilities except where the
sigmoid saturates to exactly 1.0 and the historical loop collapses
distinct candidates into (pessimistically broken) ties — there the
batched ranking is strictly more faithful.  For non-saturating models
(every test fixture and any un/normally-trained model at float64) the
two paths are bit-identical.

Dtype policy
------------
``dtype="float64"`` (default) scores at full precision — bit-identical
to the per-instance loop.  ``dtype="float32"`` opts into the substrate's
inference fast path (:func:`repro.nn.tensor.dtype_scope`), halving
memory bandwidth on the spmm/matmul hot paths; ranks can differ only
where float32 rounding reorders near-ties, so metrics match float64
within tolerance.  The model's embedding cache is invalidated afterwards
so no float32 tensors leak into training or analysis code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.negative import NegativeSampler
from repro.data.samples import extract_task_a, extract_task_b
from repro.data.schema import GroupBuyingDataset
from repro.eval.metrics import RankingAccumulator, rank_of_positive, ranks_of_positives
from repro.eval.windows import run_windows
from repro.nn.tensor import dtype_scope, no_grad
from repro.utils.rng import SeedLike

__all__ = ["EvalProtocol", "EvalResult", "evaluate_model"]

#: The planned scorer each task's windows call (``"a"`` items, ``"b"``
#: participants).
_PLAN_SCORER = {"a": "score_item_plan", "b": "score_participant_plan"}


@dataclass(frozen=True)
class EvalResult:
    """Metric dictionaries per task and cutoff, e.g. ``task_a["MRR@10"]``."""

    task_a: Dict[str, float]
    task_b: Dict[str, float]

    def flat(self) -> Dict[str, float]:
        """Single dict keyed ``A/MRR@10`` style (handy for history logs)."""
        out = {}
        out.update({f"A/{k}": v for k, v in self.task_a.items()})
        out.update({f"B/{k}": v for k, v in self.task_b.items()})
        return out


@dataclass
class EvalProtocol:
    """A reusable evaluation configuration bound to a dataset.

    Parameters
    ----------
    dataset: evaluation source; candidates drawn against its train split.
    n_negatives: negatives per instance (9 → @10 lists, 99 → @100 lists).
    cutoff: metric truncation depth (10 or 100).
    seed: candidate-list RNG seed — keep identical across compared models.
    split: which split supplies the positive instances.
    max_instances: optional cap (benchmarks subsample for speed).
    chunk_size: plan pairs per model call on the batched path (unique
        requests on a dedup plan, flat (instance × candidate) rows on
        an identity plan).
    dtype: scoring precision — ``"float64"`` (exact) or ``"float32"``
        (inference fast path; see the module docstring).

    :meth:`run` scores under the calling thread's array backend
    (``backend_scope``); window-parallel workers inherit it.
    """

    dataset: GroupBuyingDataset
    n_negatives: int = 9
    cutoff: int = 10
    seed: SeedLike = 123
    split: str = "test"
    max_instances: Optional[int] = None
    chunk_size: int = 4096
    dtype: str = "float64"
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32|float64, got {self.dtype!r}")

    def _groups(self):
        groups = getattr(self.dataset, self.split)
        if not groups:
            raise ValueError(f"split {self.split!r} is empty")
        return groups

    def _candidate_lists(self):
        """Materialise (and cache) the candidate lists for both tasks.

        Returns ``(task_a, task_b)`` where each entry is a dict of parallel
        arrays; candidate column 0 is always the positive.  Negatives for
        the whole instance set are drawn in one batched rejection-sampling
        pass per task (no per-row Python sampling calls).
        """
        key = (self.split, self.n_negatives, repr(self.seed), self.max_instances)
        if key in self._cache:
            return self._cache[key]
        groups = self._groups()
        sampler = NegativeSampler(
            self.dataset, seed=self.seed, splits=("train", "validation", "test")
        )
        task_a = extract_task_a(groups)
        task_b = extract_task_b(groups)

        a_idx = np.arange(len(task_a))
        b_idx = np.arange(len(task_b))
        if self.max_instances is not None:
            a_idx = a_idx[: self.max_instances]
            b_idx = b_idx[: self.max_instances]

        a_users = task_a.users[a_idx]
        a_pos = task_a.items[a_idx]
        # The positive may come from a non-train split, so the sampler's
        # train-interaction exclusion alone cannot guarantee it is absent
        # from the negatives — exclude it explicitly per instance.
        a_negs = sampler.sample_items_batch(
            a_users, self.n_negatives, extra_exclude=a_pos
        )
        a_cands = np.concatenate([a_pos[:, None], a_negs], axis=1)

        b_users = task_b.users[b_idx]
        b_items = task_b.items[b_idx]
        b_pos = task_b.participants[b_idx]
        # Negatives come from U \ G (Sec. III-A2): exclude the *entire*
        # observed participant set of this instance's group — the
        # sampler's train-split G_{u,i} does not know test-split groups.
        b_extra = [
            groups[int(task_b.group_index[row])].participants for row in b_idx
        ]
        b_negs = sampler.sample_participants_batch(
            b_users, b_items, self.n_negatives, extra_exclude=b_extra
        )
        b_cands = np.concatenate([b_pos[:, None], b_negs], axis=1)

        lists = (
            {"users": a_users, "candidates": a_cands},
            {"users": b_users, "items": b_items, "candidates": b_cands},
        )
        self._cache[key] = lists
        return lists

    # ------------------------------------------------------------------
    # Batched scoring path
    # ------------------------------------------------------------------
    def _windows(self, plan, score_chunk, unique: np.ndarray):
        """``chunk_size`` windows over a plan's unique pairs.

        Chunking over *unique pairs* (rather than flat rows) keeps every
        model call bounded while dedup stays global; each window scores
        a sub-plan (entity gather maps rebuilt locally) into its own
        slice of ``unique``.
        """
        def window(sl):
            def score():
                unique[sl] = score_chunk(plan.pair_slice(sl))
            return score

        return [
            window(slice(start, min(start + self.chunk_size, plan.n_pairs)))
            for start in range(0, plan.n_pairs, self.chunk_size)
        ]

    def _score_tasks(self, model, requests):
        """``(n, m)`` score matrices for ``[(task, lists), ...]``.

        ``task`` is ``"a"`` or ``"b"``.  Each task's plan compiles first
        (the model's :meth:`_candidate_plan`); then every window of
        every plan goes onto one work queue
        (:func:`repro.eval.windows.run_windows`) and one scatter per
        task rebuilds its matrix.
        """
        plans, uniques, windows = [], [], []
        for task, lists in requests:
            plan = model._candidate_plan(
                lists["users"], lists["candidates"], lists.get("items")
            )
            unique = np.empty(plan.n_pairs, dtype=np.float64)
            windows += self._windows(plan, getattr(model, _PLAN_SCORER[task]), unique)
            plans.append(plan)
            uniques.append(unique)
        run_windows(windows)
        return [plan.scatter(unique) for plan, unique in zip(plans, uniques)]

    def run(self, model) -> EvalResult:
        """Score both tasks' candidate lists with ``model``, batched.

        The model must implement the :class:`repro.baselines.base
        .GroupBuyingRecommender` scoring interface (models overriding
        only the flat ``score_items``/``score_participants`` inherit the
        plan scorers from the base class).  Runs under ``no_grad``; the
        encoder cache is refreshed once up front, each task is compiled
        into the model's plan, and each window of ``chunk_size`` plan
        pairs is scored with a single model call.
        """
        try:
            with no_grad(), dtype_scope(self.dtype):
                if hasattr(model, "refresh_cache"):
                    model.refresh_cache()
                task_a, task_b = self._candidate_lists()
                scores_a, scores_b = self._score_tasks(
                    model, [("a", task_a), ("b", task_b)]
                )

                acc_a = RankingAccumulator(self.cutoff)
                acc_a.add_ranks(ranks_of_positives(scores_a))

                acc_b = RankingAccumulator(self.cutoff)
                acc_b.add_ranks(ranks_of_positives(scores_b))
        finally:
            if self.dtype != "float64" and hasattr(model, "invalidate_cache"):
                # Drop the reduced-precision encoder pass so later
                # full-precision consumers never see float32 tensors.
                model.invalidate_cache()
        return EvalResult(task_a=acc_a.result(), task_b=acc_b.result())

    def run_per_instance(self, model) -> EvalResult:
        """Historical per-instance evaluation loop (one model call per row).

        Kept as the reference implementation: parity tests assert
        :meth:`run` reproduces it bit-identically at float64, and the
        throughput benchmark measures the speedup against it.  Prefer
        :meth:`run`.
        """
        with no_grad():
            if hasattr(model, "refresh_cache"):
                model.refresh_cache()
            task_a, task_b = self._candidate_lists()
            acc_a = RankingAccumulator(self.cutoff)
            users, cands = task_a["users"], task_a["candidates"]
            n_list = cands.shape[1]
            for row in range(len(users)):
                u_rep = np.full(n_list, users[row], dtype=np.int64)
                scores = model.score_items(u_rep, cands[row])
                acc_a.add(rank_of_positive(np.asarray(scores.data).ravel(), 0))

            acc_b = RankingAccumulator(self.cutoff)
            users, items, cands = (
                task_b["users"],
                task_b["items"],
                task_b["candidates"],
            )
            n_list = cands.shape[1]
            for row in range(len(users)):
                u_rep = np.full(n_list, users[row], dtype=np.int64)
                i_rep = np.full(n_list, items[row], dtype=np.int64)
                scores = model.score_participants(u_rep, i_rep, cands[row])
                acc_b.add(rank_of_positive(np.asarray(scores.data).ravel(), 0))
        return EvalResult(task_a=acc_a.result(), task_b=acc_b.result())


def evaluate_model(
    model,
    dataset: GroupBuyingDataset,
    protocols: Sequence[tuple] = ((9, 10), (99, 100)),
    seed: SeedLike = 123,
    split: str = "test",
    max_instances: Optional[int] = None,
    chunk_size: int = 4096,
    dtype: str = "float64",
) -> Dict[str, EvalResult]:
    """Run the paper's two standard protocols and key results by cutoff.

    Returns e.g. ``{"@10": EvalResult, "@100": EvalResult}``.  ``dtype``
    and ``chunk_size`` forward to :class:`EvalProtocol`.
    """
    out: Dict[str, EvalResult] = {}
    for n_neg, cutoff in protocols:
        protocol = EvalProtocol(
            dataset=dataset,
            n_negatives=n_neg,
            cutoff=cutoff,
            seed=seed,
            split=split,
            max_instances=max_instances,
            chunk_size=chunk_size,
            dtype=dtype,
        )
        out[f"@{cutoff}"] = protocol.run(model)
    return out
