"""Paired bootstrap significance testing for ranking metrics.

Given two models evaluated on *identical* candidate lists (the protocol
guarantees this), each test instance yields a paired (rank_A, rank_B).
The paired bootstrap resamples instances with replacement and reports
how often model A's mean metric beats model B's — the standard IR-style
significance check for claims like Table III's "MGBR improves Task B by
71.65%".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.eval.metrics import ndcg, reciprocal_rank
from repro.utils.rng import SeedLike, as_rng

__all__ = ["BootstrapResult", "paired_bootstrap", "collect_ranks"]


@dataclass(frozen=True)
class BootstrapResult:
    """Outcome of a paired bootstrap comparison (A vs B)."""

    mean_a: float
    mean_b: float
    delta: float
    p_value: float
    n_instances: int
    n_resamples: int

    @property
    def significant(self) -> bool:
        """Conventional α = 0.05 call on the one-sided test."""
        return self.p_value < 0.05


def paired_bootstrap(
    ranks_a: Sequence[int],
    ranks_b: Sequence[int],
    cutoff: int = 10,
    metric: str = "mrr",
    n_resamples: int = 2000,
    seed: SeedLike = 0,
) -> BootstrapResult:
    """One-sided paired bootstrap: is A's mean metric > B's?

    Parameters
    ----------
    ranks_a / ranks_b: per-instance positive ranks, paired by index.
    cutoff: metric truncation (@10 or @100).
    metric: "mrr" or "ndcg".
    n_resamples: bootstrap iterations.
    seed: resampling RNG.

    Returns
    -------
    BootstrapResult with ``p_value`` = fraction of resamples where A does
    *not* beat B (small = significant superiority of A).
    """
    a = np.asarray(ranks_a, dtype=np.int64)
    b = np.asarray(ranks_b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("ranks must be equal-length non-empty 1-D sequences")
    fns: dict[str, Callable[[int, int], float]] = {"mrr": reciprocal_rank, "ndcg": ndcg}
    if metric not in fns:
        raise ValueError(f"metric must be one of {sorted(fns)}, got {metric!r}")
    fn = fns[metric]
    per_a = np.array([fn(int(r), cutoff) for r in a])
    per_b = np.array([fn(int(r), cutoff) for r in b])

    rng = as_rng(seed)
    n = a.size
    not_better = 0
    for _ in range(n_resamples):
        idx = rng.integers(0, n, n)
        if per_a[idx].mean() <= per_b[idx].mean():
            not_better += 1
    return BootstrapResult(
        mean_a=float(per_a.mean()),
        mean_b=float(per_b.mean()),
        delta=float(per_a.mean() - per_b.mean()),
        p_value=not_better / n_resamples,
        n_instances=n,
        n_resamples=n_resamples,
    )


def collect_ranks(model, protocol, task: str = "a") -> np.ndarray:
    """Per-instance positive ranks of ``model`` under ``protocol``.

    Uses the protocol's batched scoring path (one encoder pass, chunked
    candidate-matrix model calls, vectorised ranking).

    Parameters
    ----------
    model: a GroupBuyingRecommender.
    protocol: an :class:`repro.eval.protocol.EvalProtocol`.
    task: "a" or "b".
    """
    from repro.eval.metrics import ranks_of_positives
    from repro.nn.tensor import dtype_scope, no_grad

    if task not in ("a", "b"):
        raise ValueError(f"task must be 'a' or 'b', got {task!r}")
    try:
        with no_grad(), dtype_scope(protocol.dtype):
            if hasattr(model, "refresh_cache"):
                model.refresh_cache()
            lists_a, lists_b = protocol._candidate_lists()
            lists = lists_a if task == "a" else lists_b
            (scores,) = protocol._score_tasks(model, [(task, lists)])
    finally:
        if protocol.dtype != "float64" and hasattr(model, "invalidate_cache"):
            model.invalidate_cache()
    return ranks_of_positives(scores)
