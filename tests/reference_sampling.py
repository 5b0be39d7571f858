"""The per-row negative draw the batched sampler is checked against.

``reference_choice_excluding_batch`` is
:func:`repro.utils.rng.choice_excluding_batch` as it was before its
exclusion keys were built in one pass: every row runs its own
``np.unique`` over its exclusion set.  The library version must give
byte-identical draws, the same ``ValueError`` text and the same RNG
state (``tests/test_sampler_oracle.py``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.utils.rng import choice_excluding


def reference_choice_excluding_batch(
    rng: np.random.Generator,
    high: int,
    excludes: Sequence[Iterable[int]],
    size: int,
) -> np.ndarray:
    """The per-row :func:`repro.utils.rng.choice_excluding_batch`.

    Draws a ``(len(excludes), size)`` matrix where row ``k`` contains
    uniform samples (with replacement, like the scalar form) from
    ``[0, high)`` avoiding ``excludes[k]``.  The whole batch is rejection
    sampled with vectorised NumPy: per-row membership tests are done by
    encoding each excluded pair as the key ``row * high + value`` and
    binary-searching candidate keys against the sorted key array, so the
    cost scales with the total number of exclusions rather than
    ``rows × high``.  Rows whose exclusion set covers ≥ half the range
    fall back to the scalar complement draw (exact, no rejection).
    """
    n_rows = len(excludes)
    if size < 0:
        raise ValueError(f"negative sample size: {size}")
    out = np.empty((n_rows, size), dtype=np.int64)
    if n_rows == 0 or size == 0:
        return out

    exclude_arrays: List[np.ndarray] = []
    dense_rows: List[int] = []
    for row, exc in enumerate(excludes):
        arr = np.unique(np.fromiter((int(x) for x in exc), dtype=np.int64))
        # Out-of-range exclusions are meaningless (nothing to exclude);
        # drop them like the scalar path effectively does — they must not
        # reach the row*high+value key encoding, where they would alias
        # into a neighbouring row's key space.
        arr = arr[(arr >= 0) & (arr < high)]
        if high - arr.size <= 0:
            raise ValueError(
                f"cannot sample from [0, {high}) excluding {arr.size} values: nothing left"
            )
        if arr.size * 2 >= high:
            dense_rows.append(row)
        exclude_arrays.append(arr)

    # Dense rows (>50% excluded) would stall rejection sampling; give
    # them the exact complement draw instead (rare in recommender data).
    for row in dense_rows:
        out[row] = choice_excluding(rng, high, exclude_arrays[row], size)

    dense = set(dense_rows)
    pending = np.asarray(
        [r for r in range(n_rows) if r not in dense], dtype=np.int64
    )
    if pending.size == 0:
        return out

    keys = np.sort(
        np.concatenate(
            [exclude_arrays[r] + r * high for r in pending]
            or [np.empty(0, dtype=np.int64)]
        )
    )

    def _valid(rows: np.ndarray, draw: np.ndarray) -> np.ndarray:
        """Membership mask: True where ``draw`` avoids its row's exclusions."""
        if keys.size == 0:
            return np.ones(draw.shape, dtype=bool)
        probe = rows[:, None] * high + draw
        pos = np.searchsorted(keys, probe)
        hit = (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == probe)
        return ~hit

    todo = pending
    while todo.size:
        # Oversample: every pending row has >50% acceptance probability,
        # so 2×size + 8 columns virtually always finish a row per round;
        # the rare unlucky row is redrawn whole next round.
        draw = rng.integers(0, high, size=(todo.size, 2 * size + 8))
        ok = _valid(todo, draw)
        order = np.argsort(~ok, axis=1, kind="stable")  # valid entries first
        draw_sorted = np.take_along_axis(draw, order, axis=1)
        done = ok.sum(axis=1) >= size
        out[todo[done]] = draw_sorted[done, :size]
        todo = todo[~done]
    return out
