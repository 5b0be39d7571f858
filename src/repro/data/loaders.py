"""Loaders for external group-buying data.

The paper's Beibei dump (github.com/Sweetnow/group-buying-recommendation)
is not redistributable, but users who obtain it — or any other
group-buying log — can bring it in through the plain-text format below
and run every experiment in this repository on real data:

    # comment lines start with '#'
    <initiator_id> \t <item_id> \t <participant_id>,<participant_id>,...

One deal group per line; the participant list may be empty (a launched
group nobody joined).  Ids are non-negative integers below 2**63 and are
remapped to contiguous ranges on load.  :func:`load_groups_txt` applies
the same Sec. III-A2 preprocessing (min-interaction filter, 7:3:1 group
split) as the synthetic pipeline, so downstream code sees an identical
:class:`GroupBuyingDataset`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple, Union

from repro.data.preprocess import filter_min_interactions
from repro.data.schema import DealGroup, GroupBuyingDataset
from repro.data.split import split_groups
from repro.utils.rng import SeedLike

__all__ = ["parse_group_line", "read_groups_txt", "load_groups_txt", "write_groups_txt"]

PathLike = Union[str, Path]


def parse_group_line(line: str, lineno: int = 0) -> DealGroup:
    """Parse one ``initiator \\t item \\t p1,p2,...`` record.

    Raises ``ValueError`` with the line number on malformed input.
    """
    parts = line.rstrip("\n").split("\t")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"line {lineno}: expected 2 or 3 tab-separated fields, got {len(parts)}"
        )
    try:
        initiator = int(parts[0])
        item = int(parts[1])
        participants: Tuple[int, ...] = ()
        if len(parts) == 3 and parts[2].strip():
            participants = tuple(int(p) for p in parts[2].split(",") if p.strip())
    except ValueError as exc:
        raise ValueError(f"line {lineno}: non-integer id ({exc})") from None
    return DealGroup(initiator=initiator, item=item, participants=participants)


def read_groups_txt(path: PathLike) -> List[DealGroup]:
    """Read raw deal groups from a text file (no filtering/remapping)."""
    groups: List[DealGroup] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            groups.append(parse_group_line(line, lineno))
    return groups


def load_groups_txt(
    path: PathLike,
    min_interactions: int = 5,
    split_ratios: Tuple[float, float, float] = (7, 3, 1),
    seed: SeedLike = 0,
    name: str = "",
) -> GroupBuyingDataset:
    """Load + preprocess + split an external group-buying log.

    Mirrors the synthetic pipeline exactly: iterate the min-interaction
    filter to a fixed point, remap ids contiguously, split whole groups
    7:3:1 (Sec. III-A2).
    """
    raw = read_groups_txt(path)
    if not raw:
        raise ValueError(f"{path}: no deal groups found")
    n_users = 1 + max(max((g.initiator, *g.participants), default=0) for g in raw)
    n_items = 1 + max(g.item for g in raw)
    filtered, _ = filter_min_interactions(
        raw, n_users=n_users, n_items=n_items, min_interactions=min_interactions
    )
    if not filtered.groups:
        raise ValueError(
            f"{path}: min_interactions={min_interactions} filtered out every group"
        )
    train, validation, test = split_groups(filtered.groups, split_ratios, seed)
    return GroupBuyingDataset(
        n_users=filtered.n_users,
        n_items=filtered.n_items,
        train=train,
        validation=validation,
        test=test,
        name=name or Path(path).stem,
    )


def write_groups_txt(groups, path: PathLike, header: str = "") -> Path:
    """Write deal groups in the loader's text format (round-trip aid)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for g in groups:
            participants = ",".join(str(p) for p in g.participants)
            handle.write(f"{g.initiator}\t{g.item}\t{participants}\n")
    return path
