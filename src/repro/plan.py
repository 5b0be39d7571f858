"""Scoring plans: dedup + scatter maps for batched candidate scoring.

The batched evaluation/serving request shape is a flattened
(instance × candidate) matrix, and in practice it is massively
redundant: the same user row is replicated across every candidate of an
instance, candidate lists sample items/participants with replacement, and
the same ``(u, i)`` pair recurs across instances.  A
:class:`ScoringPlan` makes that redundancy explicit *before* the model
runs:

* the flat request collapses onto its **unique pairs** (Task A) or
  **unique triples** (Task B) with a ``scatter`` map back to the full
  score matrix — a pure-function scorer only ever evaluates each unique
  request once;
* each unique-pair column further collapses onto its **unique entities**
  (users / items / participants) with per-pair position maps
  (``user_pos`` etc.) — the factorized expert/gate stack
  (:meth:`repro.core.mtl.MultiTaskModule.forward_planned`) computes its
  layer-0 partial projections once per unique entity and combines them
  per pair, cutting real FLOPs rather than just dispatch overhead.

Plans are plain data: NumPy index arrays plus an output shape.  They are
built by the evaluation protocol (through
:meth:`repro.baselines.base.GroupBuyingRecommender._candidate_plan`),
the :mod:`repro.serving` front-end, and —
via :class:`PlannedBatch`, which compiles a training step's
heterogeneous positive/negative/auxiliary-corruption segments into one
plan whose rows are grouped by the head that reads them — the trainer's
planned optimisation step
(:mod:`repro.training.trainer`), whose gathers and scatters run as
autograd ops so gradients flow through the dedup maps.

This module lives at the package root (below every other layer) because
the plan is the contract between them: it depends only on NumPy.  A
plan knows nothing of storage layout: a sharded embedding store splits
whatever id array it is handed across its shards itself
(:class:`repro.store.ProcessShardedStore`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ScoringPlan", "PlannedBatch"]

#: Estimated cost of a unique row both heads read, in rows one head
#: reads: such a row runs both heads' last layers and towers (forward
#: and backward).  :meth:`ScoringPlan.windows` cuts a row-grouped
#: plan into windows of equal cost, not equal rows.  Measured on the
#: ``train-mgbr`` perfbench workload (docs/training.md,
#: "Window-parallel step"); a constant, so the grid, like the trained
#: bytes, depends only on the plan.
BOTH_HEADS_COST = 1.25


def _unique_rows(columns):
    """Row-dedup parallel int columns → (unique columns, first, inverse).

    Uses an arithmetic key (``((u * Si) + i) * Sp + p`` style) when it
    provably fits in int64, falling back to ``np.unique(..., axis=0)``
    for astronomically large id spaces.
    """
    cols = [np.ascontiguousarray(c, dtype=np.int64) for c in columns]
    n = len(cols[0])
    if n and any(int(c.min()) < 0 for c in cols):
        # Negative ids would collide in the arithmetic key below (e.g.
        # (1, -1) keys like (0, stride-1)) and silently merge distinct
        # requests; entity ids are table rows, so reject them outright.
        raise ValueError("scoring-plan ids must be non-negative")
    strides = [int(c.max()) + 1 if n else 1 for c in cols]
    span = 1
    for s in strides:
        span *= s
    if n and span < np.iinfo(np.int64).max:
        key = cols[0]
        for col, stride in zip(cols[1:], strides[1:]):
            key = key * stride + col
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    else:  # pragma: no cover - needs > 9e18 combined id space
        arr = np.stack(cols, axis=1)
        _, first, inverse = np.unique(
            arr, axis=0, return_index=True, return_inverse=True
        )
    return [c[first] for c in cols], first, inverse.ravel()


@dataclass
class ScoringPlan:
    """A deduplicated scoring request plus its scatter map.

    Attributes
    ----------
    out_shape:
        Shape of the full score array the request came from (``(n, m)``
        for candidate matrices, ``(k,)`` for flat pair lists).
    scatter_index:
        ``(prod(out_shape),)`` indices into the unique-pair axis; the
        full score array is ``unique_scores[scatter_index]`` reshaped.
        ``None`` means identity (the pairs already *are* the request —
        :meth:`pair_slice` windows and ``dedup=False`` candidate plans).
    users / items / participants:
        Parallel ``(P,)`` id arrays of the unique requests
        (``participants`` is ``None`` for Task-A item plans).
    unique_users / user_pos (and item / participant analogues):
        The distinct entity ids appearing in the unique requests and,
        per request, the position of its entity inside that distinct
        list — the gather maps the factorized layer-0 projections use.
        Computed lazily: models that only consume the unique pair lists
        (the dot-product baselines) never pay for them.
    head_rows:
        ``{"a": (0, hi_a), "b": (lo_b, n)}`` — the unique-request rows
        each head's losses read, set only by a :class:`PlannedBatch`
        compiled with per-segment ``reads``; ``None`` (every evaluation
        and serving plan) means both heads score every row.
    """

    out_shape: Tuple[int, ...]
    scatter_index: Optional[np.ndarray]
    users: np.ndarray
    items: np.ndarray
    participants: Optional[np.ndarray] = None
    head_rows: Optional[Dict[str, Tuple[int, int]]] = None
    _entity_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_flat(cls, out_shape, columns, dedup: bool = True) -> "ScoringPlan":
        if dedup:
            columns, _, scatter_index = _unique_rows(columns)
        else:  # identity: the flat rows are the pairs, in request order
            scatter_index = None
        return cls(
            out_shape=tuple(out_shape),
            scatter_index=scatter_index,
            users=columns[0],
            items=columns[1],
            participants=columns[2] if len(columns) == 3 else None,
        )

    # ------------------------------------------------------------------
    # Lazy entity gather maps
    # ------------------------------------------------------------------
    def _entity(self, name: str, ids: np.ndarray):
        if name not in self._entity_cache:
            unique, pos = np.unique(ids, return_inverse=True)
            self._entity_cache[name] = (unique, pos.ravel())
        return self._entity_cache[name]

    @property
    def unique_users(self) -> np.ndarray:
        return self._entity("users", self.users)[0]

    @property
    def user_pos(self) -> np.ndarray:
        return self._entity("users", self.users)[1]

    @property
    def unique_items(self) -> np.ndarray:
        return self._entity("items", self.items)[0]

    @property
    def item_pos(self) -> np.ndarray:
        return self._entity("items", self.items)[1]

    @property
    def unique_participants(self) -> Optional[np.ndarray]:
        if self.participants is None:
            return None
        return self._entity("participants", self.participants)[0]

    @property
    def part_pos(self) -> Optional[np.ndarray]:
        if self.participants is None:
            return None
        return self._entity("participants", self.participants)[1]

    @classmethod
    def for_items(cls, users, candidate_items, dedup: bool = True) -> "ScoringPlan":
        """Plan a Task-A candidate matrix: ``(n,)`` users × ``(n, m)`` items.

        ``dedup=False`` builds the identity plan: one pair per flat row
        in request order (``scatter_index=None``, ``n_pairs == n_flat``).
        """
        users = np.asarray(users, dtype=np.int64)
        cands = np.asarray(candidate_items, dtype=np.int64)
        if cands.ndim != 2 or len(users) != cands.shape[0]:
            raise ValueError(
                f"need (n,) users and (n, m) candidates, got {users.shape}/{cands.shape}"
            )
        flat_users = np.repeat(users, cands.shape[1])
        return cls._from_flat(cands.shape, (flat_users, cands.ravel()), dedup)

    @classmethod
    def for_participants(
        cls, users, items, candidate_participants, dedup: bool = True
    ) -> "ScoringPlan":
        """Plan a Task-B candidate matrix: ``(n,)`` (u, i) × ``(n, m)`` users.

        ``dedup`` as in :meth:`for_items`.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        cands = np.asarray(candidate_participants, dtype=np.int64)
        if cands.ndim != 2 or not (len(users) == len(items) == cands.shape[0]):
            raise ValueError(
                "need (n,) users, (n,) items and (n, m) candidates, got "
                f"{users.shape}/{items.shape}/{cands.shape}"
            )
        m = cands.shape[1]
        return cls._from_flat(
            cands.shape,
            (np.repeat(users, m), np.repeat(items, m), cands.ravel()),
            dedup,
        )

    @classmethod
    def from_item_pairs(cls, users, items) -> "ScoringPlan":
        """Plan an explicit flat ``(k,)`` list of (u, i) requests."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape or users.ndim != 1:
            raise ValueError(
                f"need matching 1-D id arrays, got {users.shape}/{items.shape}"
            )
        return cls._from_flat(users.shape, (users, items))

    @classmethod
    def from_triples(cls, users, items, participants) -> "ScoringPlan":
        """Plan an explicit flat ``(k,)`` list of (u, i, p) requests."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        participants = np.asarray(participants, dtype=np.int64)
        if not (users.shape == items.shape == participants.shape) or users.ndim != 1:
            raise ValueError(
                "need matching 1-D id arrays, got "
                f"{users.shape}/{items.shape}/{participants.shape}"
            )
        return cls._from_flat(users.shape, (users, items, participants))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_triple(self) -> bool:
        """Whether this is a Task-B (participant) plan."""
        return self.participants is not None

    @property
    def n_flat(self) -> int:
        """Rows of the original flattened request."""
        return int(np.prod(self.out_shape)) if self.out_shape else 0

    @property
    def n_pairs(self) -> int:
        """Unique requests the model actually scores."""
        return len(self.users)

    @property
    def dedup_ratio(self) -> float:
        """``n_flat / n_pairs`` — 1.0 means no duplicates to exploit."""
        return self.n_flat / max(self.n_pairs, 1)

    def stats(self) -> dict:
        """Summary counters (used by serving observability and benches)."""
        out = {
            "flat": self.n_flat,
            "unique_pairs": self.n_pairs,
            "dedup_ratio": round(self.dedup_ratio, 3),
            "unique_users": len(self.unique_users),
            "unique_items": len(self.unique_items),
        }
        if self.unique_participants is not None:
            out["unique_participants"] = len(self.unique_participants)
        return out

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def pair_slice(self, sl: slice) -> "ScoringPlan":
        """Sub-plan over a slice of the unique-pair axis.

        The evaluation protocol chunks *unique pairs* (not flat rows), so
        cross-instance dedup is global while each model call stays
        bounded.  The window's pairs are unique by construction, so the
        sub-plan scatters 1:1 (identity, ``scatter_index=None``) without
        re-deduplicating; its entity gather maps are (lazily) rebuilt
        local to the window.
        """
        users = self.users[sl]
        return ScoringPlan(
            out_shape=(len(users),),
            scatter_index=None,
            users=users,
            items=self.items[sl],
            participants=None if self.participants is None else self.participants[sl],
        )

    def windows(self, rows: int) -> List["ScoringPlan"]:
        """Cut the unique requests into ``ceil(n_pairs / rows)`` windows.

        A plan without ``head_rows`` is cut into equal windows: window
        ``k`` covers rows ``[k·w, (k+1)·w)`` with ``w = ceil(n_pairs /
        count)`` (the last one may be shorter).  A row-grouped plan
        (``[A-only | both | B-only]``) is cut by estimated cost instead:
        a row both heads read costs :data:`BOTH_HEADS_COST` rows, and cut
        ``k`` falls on the row nearest to ``k / count`` of the plan's
        cost, so every window's cost is within one row's cost of the
        mean.  Either way the grid depends only on the plan and
        ``rows``.  A row-grouped plan's ``head_rows`` are clipped to each
        window, in the window's own row numbers, and a head none of
        whose rows fall in a window is left out of it.
        """
        n = self.n_pairs
        count = max(1, -(-n // rows))
        if self.head_rows is None:
            width = max(1, -(-n // count))
            bounds = [*range(0, max(n, 1), width), n]
        else:
            # Rows [both_lo, both_hi) are read by both heads.
            both_lo = max(start for start, _ in self.head_rows.values())
            both_hi = max(both_lo, min(stop for _, stop in self.head_rows.values()))
            # The cost of rows [0, r) at the four breakpoints; it is
            # linear between them.
            at = np.array([0, both_lo, both_hi, n])
            extra = np.clip(at, both_lo, both_hi) - both_lo
            cost = at + (BOTH_HEADS_COST - 1.0) * extra
            targets = cost[-1] * np.arange(1, count) / count
            cuts = np.rint(np.interp(targets, cost, at)).astype(np.int64)
            bounds = [0, *cuts.tolist(), n]
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            window = self.pair_slice(slice(lo, hi))
            if self.head_rows is not None:
                window.head_rows = {
                    head: (max(start, lo) - lo, min(stop, hi) - lo)
                    for head, (start, stop) in self.head_rows.items()
                    if max(start, lo) < min(stop, hi)
                }
            out.append(window)
        return out

    def scatter(self, unique_scores: np.ndarray) -> np.ndarray:
        """Broadcast unique-request scores back to the full request shape."""
        unique_scores = np.asarray(unique_scores)
        if unique_scores.shape != (self.n_pairs,):
            raise ValueError(
                f"expected ({self.n_pairs},) unique scores, got {unique_scores.shape}"
            )
        if self.scatter_index is None:
            return unique_scores.reshape(self.out_shape)
        return unique_scores[self.scatter_index].reshape(self.out_shape)


def _group_rows(plan: ScoringPlan, windows, reads):
    """Order ``plan``'s unique rows ``[A-only | both | B-only]``.

    ``reads`` maps every segment to the heads its losses read.  A unique
    request is read by the union of its segments' heads; the stable
    sort keeps each group in plan order.  Returns the regrouped plan
    (with ``head_rows`` set) and, per head, the scatter index into that
    head's row range plus each segment's window in the head's flat
    vector.
    """
    if set(reads) != set(windows):
        raise ValueError(
            f"reads must name every segment: got {sorted(reads)}, "
            f"segments {sorted(windows)}"
        )
    n = plan.n_pairs
    read_by = {head: np.zeros(n, dtype=bool) for head in "ab"}
    for name, (offset, shape) in windows.items():
        heads = reads[name]
        if not heads or not set(heads) <= {"a", "b"}:
            raise ValueError(
                f"segment {name!r}: reads must be a non-empty subset of 'ab', "
                f"got {heads!r}"
            )
        rows = plan.scatter_index[offset : offset + _length(shape)]
        for head in heads:
            read_by[head][rows] = True
    group = np.where(read_by["a"], np.where(read_by["b"], 1, 0), 2)
    order = np.argsort(group, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    counts = np.bincount(group, minlength=3)
    lo_b, hi_a = int(counts[0]), int(counts[0] + counts[1])
    head_rows = {"a": (0, hi_a), "b": (lo_b, n)}
    scatter = rank[plan.scatter_index]
    grouped = ScoringPlan(
        out_shape=plan.out_shape,
        scatter_index=scatter,
        users=plan.users[order],
        items=plan.items[order],
        participants=None if plan.participants is None else plan.participants[order],
        head_rows=head_rows,
    )
    head_maps = {}
    for head, (start, _) in head_rows.items():
        parts, local, flat = [], {}, 0
        for name, (offset, shape) in windows.items():
            if head in reads[name]:
                length = _length(shape)
                parts.append(scatter[offset : offset + length] - start)
                local[name] = (flat, shape)
                flat += length
        index = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        head_maps[head] = (index, local)
    return grouped, head_maps


def _length(shape: Tuple[int, ...]) -> int:
    return int(np.prod(shape)) if shape else 1


@dataclass
class PlannedBatch:
    """One :class:`ScoringPlan` compiled from named request *segments*.

    A training step is a heterogeneous bag of scoring requests against
    the same head: Task-A positives and sampled negatives (scored with
    the averaged participant slot), plus the auxiliary corruption triples
    (explicit participants).  A ``PlannedBatch`` concatenates those
    segments into one flat request, compiles it into a single global
    plan — so a ``(u, i, p)`` triple appearing in several loss terms is
    scored exactly once — and remembers each segment's window so the
    scattered scores can be split back into per-loss arrays.

    Segments whose participant column is ``None`` ("score with the
    averaged participant", Task A's convention) are filled with the
    caller's ``sentinel`` id — by convention one past the last real
    participant id (``model.mean_participant_id``), so it can never
    collide with a real entity and, because plan ids sort, always lands
    *last* in ``unique_participants`` where the model can substitute the
    mean-participant row.  When *no* segment carries participants the
    participant column is dropped entirely (a plain pair plan — the
    baseline models' Task-A shape).

    Live rows: built with ``reads`` (segment → the heads whose losses
    read it), the plan's unique rows are ordered ``[A-only | both |
    B-only]``, stable within each group, so head A owns the contiguous
    rows ``[0, hi_a)`` and head B ``[lo_b, n)`` (``plan.head_rows``).
    The joint stack then runs each head's last-layer work on its own
    range only (:meth:`repro.core.model.MGBR.planned_joint_logits`), and
    ``scatter(logits, head)`` / ``take(flat, name, head)`` hand each
    segment the logits of the head it reads.  Without ``reads`` the
    plan carries no row groups and both heads score every row.

    ``scatter``/``take`` are duck-typed over NumPy arrays and
    :class:`repro.nn.tensor.Tensor` (both support fancy indexing,
    slicing and ``reshape``), which keeps this module dependent on NumPy
    alone while the trainer routes *differentiable* scores through the
    same maps.
    """

    plan: ScoringPlan
    segments: Dict[str, Tuple[int, Tuple[int, ...]]]
    #: head -> (index into the head's rows, segment -> window), for the
    #: segments that head reads; empty without row groups.
    head_maps: Dict[str, Tuple[np.ndarray, Dict[str, Tuple[int, Tuple[int, ...]]]]] = field(
        default_factory=dict
    )

    @classmethod
    def build(
        cls,
        segments: Mapping[str, Sequence],
        sentinel: Optional[int] = None,
        reads: Optional[Mapping[str, str]] = None,
    ) -> "PlannedBatch":
        """Compile ordered ``name -> (users, items, participants, shape)``.

        Each value holds parallel 1-D id arrays (``participants`` may be
        ``None``) and the ``shape`` the segment's scores should be
        returned in (``prod(shape)`` must equal the arrays' length —
        callers pre-repeat, e.g. ``np.repeat(users, n_negatives)``).
        ``reads`` optionally maps every segment to the heads its losses
        read (``"a"``, ``"b"`` or ``"ab"``) and groups the plan's rows
        by head (see the class docstring).
        """
        if not segments:
            raise ValueError("PlannedBatch needs at least one segment")
        windows: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
        users_parts, items_parts, part_parts = [], [], []
        offset = 0
        any_participants = any(spec[2] is not None for spec in segments.values())
        for name, (users, items, participants, shape) in segments.items():
            users = np.asarray(users, dtype=np.int64)
            items = np.asarray(items, dtype=np.int64)
            shape = tuple(int(s) for s in shape)
            length = _length(shape)
            if users.ndim != 1 or users.shape != items.shape or len(users) != length:
                raise ValueError(
                    f"segment {name!r}: need 1-D id arrays of length prod{shape}, "
                    f"got users {users.shape} / items {items.shape}"
                )
            if any_participants:
                if participants is None:
                    if sentinel is None:
                        raise ValueError(
                            f"segment {name!r} has no participants but the batch "
                            "mixes in triple segments — pass the mean-participant "
                            "sentinel id"
                        )
                    participants = np.full(length, int(sentinel), dtype=np.int64)
                else:
                    participants = np.asarray(participants, dtype=np.int64)
                    if participants.shape != users.shape:
                        raise ValueError(
                            f"segment {name!r}: participants shape "
                            f"{participants.shape} != users {users.shape}"
                        )
                part_parts.append(participants)
            users_parts.append(users)
            items_parts.append(items)
            windows[name] = (offset, shape)
            offset += length
        users_cat = np.concatenate(users_parts)
        items_cat = np.concatenate(items_parts)
        if any_participants:
            plan = ScoringPlan.from_triples(
                users_cat, items_cat, np.concatenate(part_parts)
            )
        else:
            plan = ScoringPlan.from_item_pairs(users_cat, items_cat)
        if reads is None:
            return cls(plan=plan, segments=windows)
        plan, head_maps = _group_rows(plan, windows, reads)
        return cls(plan=plan, segments=windows, head_maps=head_maps)

    @property
    def n_flat(self) -> int:
        """Total request rows across all segments."""
        return self.plan.n_flat

    def stats(self) -> dict:
        """:meth:`ScoringPlan.stats` plus the row-group sizes, if grouped."""
        out = self.plan.stats()
        if self.plan.head_rows is not None:
            (_, hi_a), (lo_b, n) = self.plan.head_rows["a"], self.plan.head_rows["b"]
            out.update(rows_a_only=lo_b, rows_both=hi_a - lo_b, rows_b_only=n - hi_a)
        return out

    def scatter(self, unique_scores, head: Optional[str] = None):
        """Unique-request scores → a flat per-request score vector.

        Works on plain arrays *and* autograd tensors: the fancy index is
        :class:`repro.nn.tensor.Tensor.__getitem__`'s scatter-add-backward
        gather, so gradients flow from every duplicated loss row back to
        the one score that produced it.

        Without ``head`` the input holds every unique row and the output
        every request row.  With ``head`` (row-grouped batches only) the
        input holds that head's rows (``plan.head_rows[head]``) and the
        output the rows of the segments the head reads, in segment order.
        """
        if head is not None:
            return unique_scores[self._head_map(head)[0]]
        if self.plan.scatter_index is None:
            return unique_scores
        return unique_scores[self.plan.scatter_index]

    def take(self, flat_scores, name: str, head: Optional[str] = None):
        """Slice segment ``name`` out of :meth:`scatter`'s output.

        Returns the segment reshaped to its declared shape; accepts
        arrays or tensors.  Pass the same ``head`` as to :meth:`scatter`.
        """
        windows = self.segments if head is None else self._head_map(head)[1]
        offset, shape = windows[name]
        return flat_scores[offset : offset + _length(shape)].reshape(shape)

    def _head_map(self, head: str):
        try:
            return self.head_maps[head]
        except KeyError:
            raise ValueError(
                f"no rows for head {head!r}: build the batch with reads= to group "
                "its rows by head"
            ) from None
