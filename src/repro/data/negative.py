"""Negative sampling for training, evaluation and the auxiliary losses.

Three distinct samplers, matching Sec. III-A2 and Sec. II-G:

* **Task A negatives** — for initiator ``u``, draw items ``u`` has *never
  bought* (any role, training split).  Training uses ratio 1:9; the test
  candidate lists use 9 (``@10``) or 99 (``@100``) negatives.
* **Task B negatives** — for a group ``<u, i, G>``, draw users from
  ``U \\ G`` (also excluding ``u`` itself).
* **Auxiliary corruption sets** — for a positive triple ``t=(u,i,p)``,
  ``T_I_t`` corrupts the item (``i' ∈ I\\{i}``) and ``T_P_t`` corrupts the
  participant (``p' ∈ U \\ G_{u,i}``), both of fixed size ``|T|``.

All batch entry points (``*_batch``, ``corrupt_*``) run one vectorised
rejection-sampling pass over the whole batch
(:func:`repro.utils.rng.choice_excluding_batch`) instead of a Python
call per row — this is what makes candidate-list construction and the
training samplers scale.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.schema import GroupBuyingDataset
from repro.utils.rng import SeedLike, as_rng, choice_excluding, choice_excluding_batch

__all__ = ["NegativeSampler"]


class NegativeSampler:
    """Draws all three kinds of negatives against a dataset's training split.

    Parameters
    ----------
    dataset: the source of exclusion sets.
    seed: RNG seed; evaluation protocols pass a fixed seed so candidate
        lists are identical across models.
    splits: which splits feed the exclusion sets.  Training uses just
        ``("train",)``; the evaluation protocol passes all three splits
        because the paper's negatives are "products u has *not* bought"
        over the whole dataset.
    """

    def __init__(
        self,
        dataset: GroupBuyingDataset,
        seed: SeedLike = None,
        splits: Sequence[str] = ("train",),
    ) -> None:
        self.dataset = dataset
        self.rng = as_rng(seed)
        self.n_users = dataset.n_users
        self.n_items = dataset.n_items
        self._user_items: Dict[int, Set[int]] = dataset.user_items(splits)
        self._group_members: Dict[Tuple[int, int], Set[int]] = dataset.group_members(splits)

    def _participant_excludes(self, users, items) -> List[Tuple[int, ...]]:
        """Per-row Task-B base exclusions: ``G_{u,i}`` plus ``u`` itself."""
        members = self._group_members
        return [(*members.get((int(u), int(i)), ()), int(u)) for u, i in zip(users, items)]

    @staticmethod
    def _merge_extra(base: Sequence[Collection[int]], extra) -> List[Collection[int]]:
        """Combine per-row base exclusion sets with optional extras.

        ``extra`` may be ``None``, a ``(rows,)`` array (one extra id per
        row) or a sequence of per-row iterables.  Duplicates are kept:
        :func:`repro.utils.rng.choice_excluding_batch` ignores them.
        """
        if extra is None:
            return list(base)
        return [
            (*b, e) if np.isscalar(e) else (*b, *e) for b, e in zip(base, extra, strict=True)
        ]

    # ------------------------------------------------------------------
    # Task A
    # ------------------------------------------------------------------
    def sample_items(self, user: int, n: int, extra_exclude: Sequence[int] = ()) -> np.ndarray:
        """Items ``user`` never bought (plus ``extra_exclude``), size ``n``."""
        exclude = set(self._user_items.get(int(user), set()))
        exclude.update(int(x) for x in extra_exclude)
        return choice_excluding(self.rng, self.n_items, exclude, n)

    def sample_items_batch(
        self, users: np.ndarray, n: int, extra_exclude: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vector form of :meth:`sample_items` → shape ``(len(users), n)``.

        One batched rejection-sampling pass over all rows; ``extra_exclude``
        optionally adds per-row exclusions (e.g. each row's positive item
        when building evaluation candidate lists).
        """
        base = [self._user_items.get(int(u), set()) for u in users]
        excludes = self._merge_extra(base, extra_exclude)
        return choice_excluding_batch(self.rng, self.n_items, excludes, n)

    # ------------------------------------------------------------------
    # Task B
    # ------------------------------------------------------------------
    def sample_participants(
        self,
        user: int,
        item: int,
        n: int,
        extra_exclude: Sequence[int] = (),
    ) -> np.ndarray:
        """Users outside ``G_{u,i}`` (and not ``u``), size ``n``."""
        exclude = set(self._group_members.get((int(user), int(item)), set()))
        exclude.add(int(user))
        exclude.update(int(x) for x in extra_exclude)
        return choice_excluding(self.rng, self.n_users, exclude, n)

    def sample_participants_batch(
        self,
        users: np.ndarray,
        items: np.ndarray,
        n: int,
        extra_exclude: Optional[Sequence] = None,
    ) -> np.ndarray:
        """Vector form of :meth:`sample_participants` → ``(len(users), n)``.

        ``extra_exclude`` optionally supplies per-row extra exclusions
        (the evaluation protocol passes each instance's full observed
        participant set, which the train-split ``G_{u,i}`` cannot know).
        """
        if len(users) != len(items):
            raise ValueError("users and items must be the same length")
        excludes = self._merge_extra(self._participant_excludes(users, items), extra_exclude)
        return choice_excluding_batch(self.rng, self.n_users, excludes, n)

    # ------------------------------------------------------------------
    # Auxiliary corruption sets (Sec. II-G)
    # ------------------------------------------------------------------
    def corrupt_items(self, users: np.ndarray, items: np.ndarray, size: int) -> np.ndarray:
        """``T_I``: replace the item with any other item, ``(batch, size)``.

        The definition is ``i' ∈ I \\ i`` — only the true item is
        excluded, not the user's other purchases.
        """
        excludes = [(int(item),) for item in items]
        return choice_excluding_batch(self.rng, self.n_items, excludes, size)

    def corrupt_participants(
        self, users: np.ndarray, items: np.ndarray, size: int
    ) -> np.ndarray:
        """``T_P``: replace the participant with ``p' ∈ U \\ G_{u,i}``."""
        excludes = self._participant_excludes(users, items)
        return choice_excluding_batch(self.rng, self.n_users, excludes, size)
