"""Training history: loss curves and periodic evaluation snapshots.

A :class:`History` is a list of per-epoch records the trainer appends
to; it renders compact progress lines and answers "best epoch so far"
for early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["EpochRecord", "History"]


@dataclass
class EpochRecord:
    """One epoch's bookkeeping.

    ``phases`` breaks the epoch's wall-clock into the trainer's four
    step phases (``sampling`` / ``forward`` / ``backward`` /
    ``optimizer`` seconds, summed over the epoch's steps) so users and
    the training-throughput benchmark can see where a step's time goes.
    """

    epoch: int
    losses: Dict[str, float]
    metrics: Dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)

    def line(self) -> str:
        """Human-readable one-line summary."""
        parts = [f"epoch {self.epoch:3d}", f"{self.seconds:6.2f}s"]
        if self.phases:
            split = " ".join(f"{k[:3]} {v:.2f}s" for k, v in self.phases.items())
            parts.append(f"[{split}]")
        parts += [f"{k}={v:.4f}" for k, v in self.losses.items()]
        parts += [f"{k}={v:.4f}" for k, v in self.metrics.items()]
        return "  ".join(parts)


@dataclass
class History:
    """Ordered collection of :class:`EpochRecord`."""

    records: List[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        """Add an epoch record (epochs must be monotone)."""
        if self.records and record.epoch <= self.records[-1].epoch:
            raise ValueError(
                f"epoch {record.epoch} not after {self.records[-1].epoch}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def last(self) -> EpochRecord:
        """Most recent record."""
        if not self.records:
            raise IndexError("history is empty")
        return self.records[-1]

    def best_epoch(self, metric: str, maximize: bool = True) -> Optional[EpochRecord]:
        """Record with the best value of ``metric`` (None if never logged)."""
        scored = [r for r in self.records if metric in r.metrics]
        if not scored:
            return None
        key = (lambda r: r.metrics[metric]) if maximize else (lambda r: -r.metrics[metric])
        return max(scored, key=key)

    def loss_curve(self, name: str = "total") -> List[float]:
        """Sequence of one loss component across epochs."""
        return [r.losses[name] for r in self.records if name in r.losses]
