"""Graceful degradation: trade scoring fidelity for staying alive.

Admission control (depth budget) and load shedding (age budget) convert
excess load into typed errors.  A :class:`DegradationPolicy` adds a
*middle* response between "full fidelity" and "refused": under sustained
queue pressure the engine keeps answering every admitted request, but
cheaper —

* **top-K truncation** — each request's candidate list is cut to its
  first ``top_k`` entries before planning; the unscored tail resolves to
  ``-inf`` so the response stays aligned with the submitted list (the
  tail simply ranks last);
* **fallback routing** — the whole flush is scored by a registered
  cheap baseline (e.g. GBMF instead of the full MGBR expert/gate stack)
  through its own :class:`repro.serving.core.ScoringCore`.

This is the accuracy-vs-cost trade GBGCN ("Group-Buying Recommendation
for Social E-Commerce") makes explicit between full graph convolution
and matrix-factorization scoring — here it is taken *dynamically*, per
flush, driven by queue depth.

Pressure detection is hysteretic in one direction: degradation engages
only after the queue depth has been **at or above** ``watermark_rows``
for ``trigger_flushes`` consecutive flushes (one deep flush after a
burst is normal; a *streak* means the engine is not keeping up), and
disengages on the first flush that drains below the watermark.  Every
ticket served by a degraded flush carries ``degraded=True`` and is
counted in the engine's ``stats()["overload"]["degraded"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["DegradationPolicy"]


@dataclass
class DegradationPolicy:
    """When and how a serving engine degrades under queue pressure.

    Parameters
    ----------
    watermark_rows:
        Queue depth (total pending flat rows, measured as each flush
        drains the queue) at or above which a flush counts as
        "pressured".
    trigger_flushes:
        How many *consecutive* pressured flushes engage degradation
        (``1`` = degrade immediately on a deep queue).
    top_k:
        Truncate each request's candidate list to its first ``top_k``
        candidates while degraded; positions past K resolve to ``-inf``.
        ``None`` disables truncation.
    fallback_model:
        Score degraded flushes with this model (same ``n_users`` /
        ``n_items`` catalog) instead of the primary.  ``None`` disables
        routing.  Like the primary, the fallback is shared by every
        worker of a :class:`repro.serving.multi.MultiWorkerEngine`, which
        starts, refreshes and releases it with the primary; it must not
        also be served by another live engine.

    At least one of ``top_k`` / ``fallback_model`` must be set.
    """

    watermark_rows: int
    trigger_flushes: int = 3
    top_k: Optional[int] = None
    fallback_model: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.watermark_rows < 1:
            raise ValueError(
                f"watermark_rows must be >= 1, got {self.watermark_rows}"
            )
        if self.trigger_flushes < 1:
            raise ValueError(
                f"trigger_flushes must be >= 1, got {self.trigger_flushes}"
            )
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.top_k is None and self.fallback_model is None:
            raise ValueError(
                "a DegradationPolicy needs top_k and/or fallback_model — "
                "otherwise there is nothing to degrade to"
            )

    def check_compatible(self, model) -> None:
        """Reject a fallback whose catalog disagrees with the primary's.

        A fallback with fewer rows would turn valid ids into flush-time
        explosions exactly when the engine is under the most pressure —
        validate at engine construction instead.
        """
        if self.fallback_model is None:
            return
        if self.fallback_model is model:
            raise ValueError("fallback_model must be a different model instance")
        for attr in ("n_users", "n_items"):
            primary = getattr(model, attr, None)
            fallback = getattr(self.fallback_model, attr, None)
            if primary is not None and fallback is not None and primary != fallback:
                raise ValueError(
                    f"fallback_model.{attr}={fallback} does not match the "
                    f"primary model's {attr}={primary}"
                )

    def truncate(self, items, participants):
        """Apply top-K truncation to drained request lists.

        Returns possibly-rewritten ``(items, participants)`` lists:
        requests longer than ``top_k`` get their candidate array cut and
        their ticket's pad-length set so the resolved score vector keeps
        the submitted length (``-inf`` tail).  Tickets are *not* marked
        degraded here — the engine marks every ticket of a degraded
        flush, truncated or not.
        """
        if self.top_k is None:
            return items, participants
        return (
            [self._truncate_one(req, cands_idx=1) for req in items],
            [self._truncate_one(req, cands_idx=2) for req in participants],
        )

    def _truncate_one(self, req: tuple, cands_idx: int):
        cands = req[cands_idx]
        if cands.size <= self.top_k:
            return req
        ticket = req[-2]
        ticket._pad_to = cands.size
        out = list(req)
        out[cands_idx] = cands[: self.top_k]
        return tuple(out)
