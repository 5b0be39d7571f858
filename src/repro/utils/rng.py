"""Deterministic random-number-generator plumbing.

Every stochastic component in this repository (dataset synthesis, weight
initialisation, negative sampling) accepts either an integer seed
or a :class:`numpy.random.Generator`.  Centralising the coercion here keeps
experiments reproducible: the benchmark harness passes explicit seeds and
each component derives independent child streams via
:func:`numpy.random.SeedSequence.spawn`, so adding a new consumer never
perturbs the draws seen by existing ones.
"""

from __future__ import annotations

import itertools
from typing import Collection, Iterable, List, Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]

__all__ = [
    "SeedLike",
    "as_rng",
    "spawn_rngs",
    "RngMixin",
    "choice_excluding",
    "choice_excluding_batch",
]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS-entropy generator), an ``int`` seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator
        (returned unchanged so callers can share a stream deliberately).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(f"cannot interpret {type(seed).__name__} as an RNG seed")


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``seed``.

    Child streams are stable under insertion: stream ``k`` depends only on
    the root seed and ``k``, never on how many siblings exist.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of RNGs: {n}")
    if isinstance(seed, np.random.Generator):
        # Generators cannot be re-seeded deterministically; derive children
        # from integers drawn off the parent stream instead.
        return [np.random.default_rng(int(seed.integers(2**63))) for _ in range(n)]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(n)]


class RngMixin:
    """Mixin giving a class a lazily-created, seedable ``self.rng``."""

    _rng: Optional[np.random.Generator] = None
    _seed: SeedLike = None

    def seed(self, seed: SeedLike) -> None:
        """Reset the internal generator from ``seed``."""
        self._seed = seed
        self._rng = as_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The component's private generator (created on first access)."""
        if self._rng is None:
            self._rng = as_rng(self._seed)
        return self._rng


def choice_excluding(
    rng: np.random.Generator,
    high: int,
    exclude: Iterable[int],
    size: int,
) -> np.ndarray:
    """Sample ``size`` integers uniformly from ``[0, high)`` avoiding ``exclude``.

    Used by the negative samplers: e.g. draw items a user never bought.
    Rejection sampling is used while the exclusion set is small relative to
    ``high`` (the common recommender-system regime); otherwise we fall back
    to an explicit complement draw, which is exact.
    """
    excluded = set(int(x) for x in exclude)
    n_allowed = high - len(excluded)
    if n_allowed <= 0:
        raise ValueError(
            f"cannot sample from [0, {high}) excluding {len(excluded)} values: nothing left"
        )
    if size < 0:
        raise ValueError(f"negative sample size: {size}")
    # Dense exclusion (>50%): enumerate the complement once.
    if len(excluded) * 2 >= high:
        allowed = np.setdiff1d(np.arange(high), np.fromiter(excluded, dtype=np.int64))
        return rng.choice(allowed, size=size, replace=True)
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        draw = rng.integers(0, high, size=(size - filled) * 2)
        good = draw[~np.isin(draw, np.fromiter(excluded, dtype=np.int64))] if excluded else draw
        take = min(good.size, size - filled)
        out[filled : filled + take] = good[:take]
        filled += take
    return out


def choice_excluding_batch(
    rng: np.random.Generator,
    high: int,
    excludes: Sequence[Collection[int]],
    size: int,
) -> np.ndarray:
    """Batched :func:`choice_excluding` — one row per exclusion set.

    Draws a ``(len(excludes), size)`` matrix where row ``k`` contains
    uniform samples (with replacement, like the scalar form) from
    ``[0, high)`` avoiding ``excludes[k]`` (a set, tuple, list or
    array; duplicates and ids outside ``[0, high)`` exclude nothing
    more).  Every row's exclusions are encoded at once as the keys
    ``row * high + value``: one ``np.unique`` over their concatenation
    gives each row's distinct exclusions as a sorted run, and a
    ``bincount`` of the key rows gives their counts.  Rows whose
    exclusion set covers ≥ half the range take the scalar complement
    draw first, in row order (exact, no rejection); the rest are
    rejection sampled together, each round's candidate keys tested
    against the key array by one ``np.isin``.  Only the dense rows'
    draws loop over rows in Python.  The draws and the generator's
    state match the per-row oracle in ``tests/reference_sampling.py``.
    """
    n_rows = len(excludes)
    if size < 0:
        raise ValueError(f"negative sample size: {size}")
    out = np.empty((n_rows, size), dtype=np.int64)
    if n_rows == 0 or size == 0:
        return out

    lengths = np.fromiter(map(len, excludes), dtype=np.int64, count=n_rows)
    values = np.fromiter(
        itertools.chain.from_iterable(excludes), dtype=np.int64, count=int(lengths.sum())
    )
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    # Out-of-range exclusions are meaningless (nothing to exclude); they
    # must not reach the key encoding, where they would alias into a
    # neighbouring row's key space.
    in_range = (values >= 0) & (values < high)
    keys = np.unique(rows[in_range] * high + values[in_range])
    counts = np.bincount(keys // high, minlength=n_rows)
    empty = np.flatnonzero(counts >= high)
    if empty.size:
        raise ValueError(
            f"cannot sample from [0, {high}) excluding {counts[empty[0]]} values: nothing left"
        )

    # Dense rows (>50% excluded) would stall rejection sampling; give
    # them the exact complement draw instead (rare in recommender data).
    dense = counts * 2 >= high
    starts = np.cumsum(counts) - counts
    for row in np.flatnonzero(dense):
        run = keys[starts[row] : starts[row] + counts[row]] - row * high
        out[row] = choice_excluding(rng, high, run, size)

    todo = np.flatnonzero(~dense)
    while todo.size:
        # Oversample: every pending row has >50% acceptance probability,
        # so 2×size + 8 columns virtually always finish a row per round;
        # the rare unlucky row is redrawn whole next round.  A row's
        # candidate keys fall in its own key range, so only its own
        # exclusions can match them.
        draw = rng.integers(0, high, size=(todo.size, 2 * size + 8))
        ok = ~np.isin(todo[:, None] * high + draw, keys)
        # Each finished row keeps its first ``size`` valid entries.
        rank = np.cumsum(ok, axis=1)
        done = rank[:, -1] >= size
        out[todo[done]] = draw[ok & (rank <= size) & done[:, None]].reshape(-1, size)
        todo = todo[~done]
    return out
