"""Joint two-task trainer implementing the paper's optimisation loop.

Each training step draws one mini-batch of Task-A positives and one of
Task-B positives (both with 1:``train_negatives`` negative sampling,
Sec. III-A2), shares a single encoder pass across both tasks and all
negatives, assembles Eq. 25's objective

    ``L = L_A + β L_B + β_A L'_A + β_B L'_B``

(the auxiliary terms only for models that support them), back-propagates
and takes an Adam step (Sec. II-F).  Early stopping tracks a validation
metric with patience.

Planned optimisation step
-------------------------
A step's scoring requests are massively redundant: every Task-A/B user
is re-encoded ``1 + train_negatives`` times, and the auxiliary losses
(Eq. 21/22/24) repeat each positive triple's ``(u, i)`` / ``(u, p)``
pair ``aux_negatives`` times.  A model with a joint expert/gate stack
(``planned_joint_logits``, the MGBR family — the same
``_plans_scoring`` rule that makes evaluation's plans dedup) trains on
the planned step: all of the step's positive, negative and
auxiliary-corruption requests are compiled into one
:class:`repro.plan.PlannedBatch` — *with
gradients* — scored once through the factorized stack and scattered
back to the loss rows through autograd gathers, so the backward pass
flows through the dedup maps into the encoder.  The Task-A pair
requests ride in the same plan as the explicit-participant corruption
triples via the model's ``mean_participant_id`` sentinel, and the
item-corrupted triples shared by ``L'_A`` and ``L'_B`` are scored once.
The batch also records which head each segment's losses read and
groups the plan's rows by head, so each head's last-layer work runs
only on the rows it is read on (live rows, docs/training.md).
Every other model trains on the flat step, which is also the planned
step's parity oracle: losses match up to float re-association (see
tests/test_training.py's parity suite).

The planned step runs window-parallel: its plan's unique rows are cut
into ``ceil(n_pairs / ROWS)`` windows of equal estimated cost
(:meth:`repro.plan.ScoringPlan.windows`), each scored and
back-propagated on the :mod:`repro.eval.windows` pool through its own
leaves over the step's encoder outputs and weight folds
(:class:`repro.nn.tensor.Window`); one loss reads every window's
logits, and the windows' leaf gradients are summed in window order
before one backward through the encoder.

Each step's wall-clock is split into ``sampling`` / ``forward`` /
``backward`` / ``optimizer`` phases, surfaced per epoch via
:class:`repro.training.history.EpochRecord.phases`.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.baselines.base import EmbeddingBundle
from repro.core.config import MGBRConfig
from repro.core.losses import (
    aux_loss_task_a,
    aux_loss_task_b,
    aux_losses_from_scores,
    bpr_loss,
    total_loss,
)
from repro.data.batching import iter_task_a_batches, iter_task_b_batches
from repro.data.negative import NegativeSampler
from repro.data.samples import extract_task_a, extract_task_b
from repro.data.schema import GroupBuyingDataset
from repro.eval.protocol import EvalProtocol
from repro.eval.windows import run_windows
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor, Window, backward_from, concat, reduce_windows
from repro.plan import PlannedBatch
from repro.training.history import EpochRecord, History
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, spawn_rngs

__all__ = ["TrainConfig", "Trainer"]

logger = get_logger("training")

#: Unique rows per window of the planned step: a step scores its plan in
#: ``ceil(n_pairs / ROWS)`` windows, cut to equal estimated cost
#: (:data:`repro.plan.BOTH_HEADS_COST`; docs/training.md,
#: "Window-parallel step").  A constant, never derived from the CPU
#: count, so the trained bytes do not depend on the host.
ROWS = 6000


def _cat_rows(tensors):
    """The non-``None`` tensors stacked by rows (one is returned as is)."""
    tensors = [t for t in tensors if t is not None]
    return tensors[0] if len(tensors) == 1 else concat(tensors, axis=0)


@dataclass
class TrainConfig:
    """Loop hyper-parameters (model architecture lives in the model).

    Attributes mirror the paper's Table II where applicable:
    ``batch_size`` |B|, ``learning_rate`` ρ, ``train_negatives`` the 1:9
    sampling ratio, ``beta``/``beta_a``/``beta_b`` the loss weights, and
    ``aux_negatives`` |T|.
    """

    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 2e-4
    train_negatives: int = 9
    beta: float = 1.0
    beta_a: float = 0.3
    beta_b: float = 0.3
    aux_negatives: int = 99
    aux_a_mode: str = "literal"
    grad_clip: float = 5.0
    eval_every: int = 0          # 0 disables periodic validation
    eval_max_instances: Optional[int] = 200
    patience: int = 0            # 0 disables early stopping
    monitor: str = "combined"    # validation metric for best/patience;
                                 # "combined" = A/MRR@10 + B/MRR@10 (both
                                 # sub-tasks matter, as in the paper)
    restore_best: bool = False   # reload the best-monitor weights after fit()
    eval_dtype: str = "float64"  # periodic-validation scoring precision;
                                 # "float32" opts into the inference fast
                                 # path (see repro.eval.protocol)
    seed: SeedLike = 0
    verbose: bool = False

    @classmethod
    def from_mgbr(cls, config: MGBRConfig, **overrides) -> "TrainConfig":
        """Derive loop settings from an :class:`MGBRConfig`."""
        base = dict(
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            train_negatives=config.train_negatives,
            beta=config.beta,
            beta_a=config.beta_a,
            beta_b=config.beta_b,
            aux_negatives=config.aux_negatives,
            aux_a_mode=config.aux_a_mode,
            grad_clip=config.grad_clip,
            eval_dtype=config.inference_dtype,
            seed=config.seed,
        )
        base.update(overrides)
        return cls(**base)


class Trainer:
    """Drives joint optimisation of any :class:`GroupBuyingRecommender`.

    Parameters
    ----------
    model: the recommender (MGBR, a variant, or a baseline).
    dataset: supplies the train split, samplers and validation split.
    config: loop hyper-parameters.
    """

    def __init__(
        self,
        model,
        dataset: GroupBuyingDataset,
        config: Optional[TrainConfig] = None,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        rng_sampler, rng_batches = spawn_rngs(self.config.seed, 2)
        self.sampler = NegativeSampler(dataset, seed=rng_sampler)
        self._batch_rng = rng_batches
        self.task_a = extract_task_a(dataset.train)
        self.task_b = extract_task_b(dataset.train)
        if len(self.task_a) == 0 or len(self.task_b) == 0:
            raise ValueError("training split yields no samples for one of the tasks")
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        self.history = History()
        self._epoch = 0
        # The model's planning rule picks the step; tests and the
        # training benchmark clear it to run the flat reference step.
        self._use_planned = getattr(model, "_plans_scoring", False)
        self._phase_totals: Dict[str, float] = {}
        self._validation_protocol: Optional[EvalProtocol] = None
        if self.config.eval_every and dataset.validation:
            self._validation_protocol = EvalProtocol(
                dataset,
                n_negatives=9,
                cutoff=10,
                split="validation",
                max_instances=self.config.eval_max_instances,
                dtype=self.config.eval_dtype,
            )

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _paired_batches(self) -> Iterator[Dict[str, Dict[str, np.ndarray]]]:
        """Zip Task-A and Task-B batches, cycling the shorter stream."""
        cfg = self.config
        n_a = max(1, (len(self.task_a) + cfg.batch_size - 1) // cfg.batch_size)
        n_b = max(1, (len(self.task_b) + cfg.batch_size - 1) // cfg.batch_size)
        steps = max(n_a, n_b)
        gen_a = itertools.cycle(
            iter_task_a_batches(self.task_a, cfg.batch_size, seed=self._batch_rng)
        )
        gen_b = itertools.cycle(
            iter_task_b_batches(self.task_b, cfg.batch_size, seed=self._batch_rng)
        )
        for _ in range(steps):
            yield {"a": next(gen_a), "b": next(gen_b)}

    # ------------------------------------------------------------------
    # One optimisation step
    # ------------------------------------------------------------------
    def _draw_negatives(
        self, batch_a: Dict[str, np.ndarray], batch_b: Dict[str, np.ndarray]
    ) -> Dict[str, Optional[np.ndarray]]:
        """Draw every random id the step needs, in one place.

        The draw order (Task-A negatives, Task-B negatives, item
        corruptions, participant corruptions) matches the historical
        interleaved step, so a fixed seed produces identical batches on
        the flat and planned paths — the basis of the parity tests.
        ``corrupted_*`` are ``None`` when the model takes no auxiliary
        losses.
        """
        cfg = self.config
        neg_items = self.sampler.sample_items_batch(batch_a["users"], cfg.train_negatives)
        users_b, items_b = batch_b["users"], batch_b["items"]
        neg_parts = self.sampler.sample_participants_batch(
            users_b, items_b, cfg.train_negatives
        )
        corrupted_items = corrupted_parts = None
        use_aux = getattr(self.model, "supports_aux_losses", False) and (
            cfg.beta_a > 0 or cfg.beta_b > 0
        )
        if use_aux:
            corrupted_items = self.sampler.corrupt_items(
                users_b, items_b, cfg.aux_negatives
            )
            corrupted_parts = self.sampler.corrupt_participants(
                users_b, items_b, cfg.aux_negatives
            )
        return {
            "neg_items": neg_items,
            "neg_parts": neg_parts,
            "corrupted_items": corrupted_items,
            "corrupted_parts": corrupted_parts,
        }

    def _flat_losses(self, emb, batch_a, batch_b, draws) -> Tuple:
        """The flat step: score every loss row through the model.

        The baselines train on it, and it is the planned step's parity
        oracle for the MGBR family.
        """
        cfg = self.config
        model = self.model

        # --- Task A (Eq. 19, L_A) -------------------------------------
        users_a, items_a = batch_a["users"], batch_a["items"]
        pos_a = model.score_items_from(emb, users_a, items_a, raw=True)
        neg_items = draws["neg_items"]
        neg_a = model.score_items_from(
            emb,
            np.repeat(users_a, cfg.train_negatives),
            neg_items.ravel(),
            raw=True,
        ).reshape(len(users_a), cfg.train_negatives)
        loss_a = bpr_loss(pos_a, neg_a)

        # --- Task B (Eq. 19, L_B) -------------------------------------
        users_b, items_b, parts_b = (
            batch_b["users"],
            batch_b["items"],
            batch_b["participants"],
        )
        pos_b = model.score_participants_from(emb, users_b, items_b, parts_b, raw=True)
        neg_parts = draws["neg_parts"]
        neg_b = model.score_participants_from(
            emb,
            np.repeat(users_b, cfg.train_negatives),
            np.repeat(items_b, cfg.train_negatives),
            neg_parts.ravel(),
            raw=True,
        ).reshape(len(users_b), cfg.train_negatives)
        loss_b = bpr_loss(pos_b, neg_b)

        # --- Auxiliary losses (Sec. II-G) ------------------------------
        aux_a = aux_b = None
        corrupted_items = draws["corrupted_items"]
        if corrupted_items is not None:
            if cfg.beta_a > 0:
                aux_a = aux_loss_task_a(
                    model, emb, users_b, items_b, parts_b,
                    corrupted_items, draws["corrupted_parts"], mode=cfg.aux_a_mode,
                )
            if cfg.beta_b > 0:
                aux_b = aux_loss_task_b(
                    model, emb, users_b, items_b, parts_b, corrupted_items
                )
        return loss_a, loss_b, aux_a, aux_b

    def _step_plan(self, batch_a, batch_b, draws) -> PlannedBatch:
        """Compile every request of one step into one planned batch.

        Shared with benchmarks/bench_train_throughput.py so the reported
        plan statistics describe exactly what the step scores.
        """
        cfg = self.config
        n, t = cfg.train_negatives, cfg.aux_negatives
        users_a, items_a = batch_a["users"], batch_a["items"]
        users_b, items_b, parts_b = (
            batch_b["users"],
            batch_b["items"],
            batch_b["participants"],
        )
        neg_items, neg_parts = draws["neg_items"], draws["neg_parts"]
        corrupted_items = draws["corrupted_items"]
        corrupted_parts = draws["corrupted_parts"]
        segments = {
            "pos_a": (users_a, items_a, None, (len(users_a),)),
            "neg_a": (np.repeat(users_a, n), neg_items.ravel(), None, neg_items.shape),
        }
        reads = {"pos_a": "a", "neg_a": "a"}
        if corrupted_items is not None:
            u_rep = np.repeat(users_b, t)
            p_rep = np.repeat(parts_b, t)
            if cfg.beta_a > 0:
                segments["aux_tp"] = (
                    u_rep, np.repeat(items_b, t),
                    corrupted_parts.ravel(), corrupted_parts.shape,
                )
                reads["aux_tp"] = "a"
            segments["aux_ti"] = (
                u_rep, corrupted_items.ravel(), p_rep, corrupted_items.shape
            )
            # L'_A reads the item corruptions through head A, L'_B
            # through head B (the auxiliary batch needs one of them).
            reads["aux_ti"] = "a" * (cfg.beta_a > 0) + "b" * (cfg.beta_b > 0)
        segments["pos_b"] = (users_b, items_b, parts_b, (len(users_b),))
        segments["neg_b"] = (
            np.repeat(users_b, n), np.repeat(items_b, n),
            neg_parts.ravel(), neg_parts.shape,
        )
        reads.update(pos_b="b", neg_b="b")
        return PlannedBatch.build(
            segments, sentinel=self.model.mean_participant_id, reads=reads
        )

    def _planned_losses(self, emb, batch_a, batch_b, draws) -> Tuple:
        """The deduplicated step: compile, score unique requests, scatter.

        Every request of the step — both tasks' positives and negatives
        plus the auxiliary corruption triples — lands in *one*
        :class:`repro.plan.PlannedBatch`: the expert/gate stack computes
        both task towers anyway, Task-A pair requests ride along via the
        mean-participant sentinel, and the ``(u, i', p)`` bank shared by
        ``L'_A`` and ``L'_B`` (and the Task-B positives shared by
        ``L_B`` and ``L'_B``) is scored once.

        The plan is scored in :data:`ROWS`-row windows on the window
        pool, each reading the encoder outputs, the mean participant and
        the weight folds through leaves of its own.  Returns the four
        losses and the step's remaining backward, to run after
        ``loss.backward()``: every window's backward (on the pool), the
        window-order reduction of their leaf gradients, and one backward
        from the encoder outputs and folds.
        """
        cfg = self.config
        batch = self._step_plan(batch_a, batch_b, draws)
        plans = batch.plan.windows(ROWS)
        windows = [Window() for _ in plans]
        outs = [None] * len(plans)
        mean = emb.mean_participant()

        def forward(k):
            window = windows[k]
            with window:
                bundle = EmbeddingBundle(
                    user=window.input(emb.user),
                    item=window.input(emb.item),
                    participant=window.input(emb.participant),
                    _mean_participant=window.input(mean),
                )
                outs[k] = self.model.planned_joint_logits(bundle, plans[k])

        run_windows([functools.partial(forward, k) for k in range(len(plans))])
        # The loss reads each window's logits through leaves of its own.
        # Each head's logits cover only the unique rows its losses read
        # (the plan's live rows), in row order across the windows; the
        # per-head scatter hands every segment the logits of the head
        # that reads it.
        leaves = [
            [None if t is None else Tensor(t.data, requires_grad=True, dtype=t.data.dtype)
             for t in out]
            for out in outs
        ]
        logits_a = _cat_rows(pair[0] for pair in leaves)
        logits_b = _cat_rows(pair[1] for pair in leaves)
        flat_a = batch.scatter(logits_a, "a")
        flat_b = batch.scatter(logits_b, "b")
        seg_a = lambda name: batch.take(flat_a, name, "a")
        seg_b = lambda name: batch.take(flat_b, name, "b")
        loss_a = bpr_loss(seg_a("pos_a"), seg_a("neg_a"))
        pos_b = seg_b("pos_b")
        loss_b = bpr_loss(pos_b, seg_b("neg_b"))
        aux_a = aux_b = None
        if draws["corrupted_items"] is not None:
            # Both auxiliary losses read the same scattered corruption
            # segments (the (u, i', p) bank is scored once for L'_A and
            # L'_B; listnet's softmax normalizer is built once over that
            # bank).
            want_a, want_b = cfg.beta_a > 0, cfg.beta_b > 0
            aux_a, aux_b = aux_losses_from_scores(
                pos_b,
                seg_a("aux_tp") if want_a else None,
                seg_a("aux_ti") if want_a else None,
                seg_b("aux_ti") if want_b else None,
                mode=cfg.aux_a_mode,
                want_a=want_a,
                want_b=want_b,
            )

        def backward_window(k):
            windows[k].backward([
                (out, leaf.grad) for out, leaf in zip(outs[k], leaves[k])
                if leaf is not None and leaf.grad is not None
            ])

        def backward():
            run_windows([functools.partial(backward_window, k) for k in range(len(plans))])
            backward_from(reduce_windows(windows))

        return (loss_a, loss_b, aux_a, aux_b), backward

    def _step(self, batch_a: Dict[str, np.ndarray], batch_b: Dict[str, np.ndarray]) -> Dict[str, float]:
        cfg = self.config
        model = self.model
        t0 = time.perf_counter()
        draws = self._draw_negatives(batch_a, batch_b)
        t1 = time.perf_counter()
        model.zero_grad()
        emb = model.compute_embeddings()
        if self._use_planned:
            losses, rest = self._planned_losses(emb, batch_a, batch_b, draws)
        else:
            losses, rest = self._flat_losses(emb, batch_a, batch_b, draws), None
        loss_a, loss_b, aux_a, aux_b = losses
        loss = total_loss(loss_a, loss_b, aux_a, aux_b, cfg.beta, cfg.beta_a, cfg.beta_b)
        t2 = time.perf_counter()
        loss.backward()
        if rest is not None:
            rest()
        if cfg.grad_clip > 0:
            clip_grad_norm(model.parameters(), cfg.grad_clip)
        t3 = time.perf_counter()
        self.optimizer.step()
        model.invalidate_cache()
        t4 = time.perf_counter()
        for phase, spent in (
            ("sampling", t1 - t0), ("forward", t2 - t1),
            ("backward", t3 - t2), ("optimizer", t4 - t3),
        ):
            self._phase_totals[phase] = self._phase_totals.get(phase, 0.0) + spent
        return {
            "L_A": float(loss_a.data),
            "L_B": float(loss_b.data),
            "L'_A": float(aux_a.data) if aux_a is not None else 0.0,
            "L'_B": float(aux_b.data) if aux_b is not None else 0.0,
            "total": float(loss.data),
        }

    # ------------------------------------------------------------------
    # Epoch / full loop
    # ------------------------------------------------------------------
    def train_epoch(self) -> EpochRecord:
        """Run one epoch; returns (and records) its :class:`EpochRecord`."""
        started = time.perf_counter()
        totals: Dict[str, float] = {}
        self._phase_totals = {}
        steps = 0
        for pair in self._paired_batches():
            losses = self._step(pair["a"], pair["b"])
            for key, value in losses.items():
                totals[key] = totals.get(key, 0.0) + value
            steps += 1
        self._epoch += 1
        record = EpochRecord(
            epoch=self._epoch,
            losses={k: v / steps for k, v in totals.items()},
            seconds=time.perf_counter() - started,
            phases={k: round(v, 4) for k, v in self._phase_totals.items()},
        )
        if (
            self._validation_protocol is not None
            and self._epoch % self.config.eval_every == 0
        ):
            record.metrics = self._validation_protocol.run(self.model).flat()
        self.history.append(record)
        if self.config.verbose:
            logger.info(record.line())
        return record

    def fit(self) -> History:
        """Train for ``config.epochs`` epochs with optional early stopping.

        With ``restore_best=True`` (and periodic validation enabled) the
        model's parameters are rolled back to the epoch that maximised
        ``config.monitor`` — matching the paper's practice of reporting
        tuned/best results rather than the last epoch.
        """
        cfg = self.config
        best = -np.inf
        best_state = None
        stale = 0
        for _ in range(cfg.epochs):
            record = self.train_epoch()
            value = self._monitor_value(record)
            if value is not None:
                if value > best + 1e-6:
                    best, stale = value, 0
                    if cfg.restore_best:
                        best_state = self.model.state_dict()
                elif cfg.patience:
                    stale += 1
                    if stale >= cfg.patience:
                        if cfg.verbose:
                            logger.info(
                                "early stop at epoch %d (%s stalled at %.4f)",
                                record.epoch, cfg.monitor, best,
                            )
                        break
        if cfg.restore_best and best_state is not None:
            self.model.load_state_dict(best_state)
            self.model.invalidate_cache()
        return self.history

    def _monitor_value(self, record: EpochRecord) -> Optional[float]:
        """Resolve the monitored metric for ``record`` (None if absent)."""
        if not record.metrics:
            return None
        if self.config.monitor == "combined":
            a = record.metrics.get("A/MRR@10")
            b = record.metrics.get("B/MRR@10")
            if a is None or b is None:
                return None
            return a + b
        return record.metrics.get(self.config.monitor)
