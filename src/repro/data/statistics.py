"""Dataset statistics — regenerates the paper's Table I.

Beyond the three rows the paper reports (user / item / deal group), we
compute the derived quantities the models' behaviour depends on: group
size distribution, interaction density per view, and role-overlap (how
many users act as both initiator and participant), which characterise
the synthetic substitute (``benchmarks/results/table1_dataset.txt``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.data.schema import GroupBuyingDataset

__all__ = ["DatasetStatistics", "compute_statistics", "format_table1"]


@dataclass(frozen=True)
class DatasetStatistics:
    """Summary statistics of a group-buying dataset."""

    n_users: int
    n_items: int
    n_groups: int
    n_task_a_pairs: int
    n_task_b_triples: int
    mean_group_size: float
    max_group_size: int
    n_initiators: int
    n_participants: int
    n_dual_role_users: int
    ui_density: float
    pi_density: float
    up_density: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (stable key order for printing)."""
        return {
            "user": self.n_users,
            "item": self.n_items,
            "deal group": self.n_groups,
            "task A pairs": self.n_task_a_pairs,
            "task B triples": self.n_task_b_triples,
            "mean group size": round(self.mean_group_size, 3),
            "max group size": self.max_group_size,
            "distinct initiators": self.n_initiators,
            "distinct participants": self.n_participants,
            "dual-role users": self.n_dual_role_users,
            "G_UI density": self.ui_density,
            "G_PI density": self.pi_density,
            "G_UP density": self.up_density,
        }


def compute_statistics(dataset: GroupBuyingDataset) -> DatasetStatistics:
    """Compute :class:`DatasetStatistics` over all splits of ``dataset``."""
    groups = dataset.all_groups
    sizes: List[int] = [g.size for g in groups]
    initiators = {g.initiator for g in groups}
    participants = {p for g in groups for p in g.participants}
    ui_edges = {(g.initiator, g.item) for g in groups}
    pi_edges = {(p, g.item) for g in groups for p in g.participants}
    up_edges = {(g.initiator, p) for g in groups for p in g.participants}
    nu, ni = max(dataset.n_users, 1), max(dataset.n_items, 1)
    return DatasetStatistics(
        n_users=dataset.n_users,
        n_items=dataset.n_items,
        n_groups=len(groups),
        n_task_a_pairs=len(groups),
        n_task_b_triples=int(np.sum(sizes)) if sizes else 0,
        mean_group_size=float(np.mean(sizes)) if sizes else 0.0,
        max_group_size=int(np.max(sizes)) if sizes else 0,
        n_initiators=len(initiators),
        n_participants=len(participants),
        n_dual_role_users=len(initiators & participants),
        ui_density=len(ui_edges) / (nu * ni),
        pi_density=len(pi_edges) / (nu * ni),
        up_density=len(up_edges) / (nu * nu),
    )


def format_table1(stats: DatasetStatistics) -> str:
    """Render the statistics as the paper's Table I layout."""
    lines = [
        "TABLE I — STATISTICS OF THE PREPROCESSED EXPERIMENT DATASET",
        f"{'Object':<16}{'Number':>12}",
        f"{'user':<16}{stats.n_users:>12,}",
        f"{'item':<16}{stats.n_items:>12,}",
        f"{'deal group':<16}{stats.n_groups:>12,}",
    ]
    return "\n".join(lines)
