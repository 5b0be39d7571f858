"""Oracle tests: the batched negative draw reproduces the per-row draw exactly.

:func:`repro.utils.rng.choice_excluding_batch` builds every row's
exclusion keys in one pass; ``tests/reference_sampling.py`` keeps the
per-row form it replaced.  Both must give byte-identical draws, raise
the same ``ValueError`` text and leave the generator in the same state,
so every training batch and evaluation candidate list (and every frozen
reference built on them) stays the same.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.negative as negative
from reference_sampling import reference_choice_excluding_batch
from repro.core import MGBR
from repro.eval import EvalProtocol
from repro.training import TrainConfig, Trainer
from repro.utils.rng import choice_excluding_batch


def _outcome(draw, seed, high, excludes, size):
    """``(draw bytes, RNG state)`` or the ``ValueError`` text."""
    rng = np.random.default_rng(seed)
    try:
        out = draw(rng, high, excludes, size)
    except ValueError as exc:
        return "ValueError", str(exc)
    return out.shape, out.tobytes(), rng.bit_generator.state


def _row(kind, values):
    if kind == "set":
        return set(values)
    if kind == "tuple":
        return tuple(values)
    return np.asarray(values, dtype=np.int64)


@st.composite
def _cases(draw):
    high = draw(st.integers(1, 40))
    # Ids outside [0, high), duplicates, empty rows and rows covering
    # half the range or more (the complement draw, or nothing left).
    ids = st.integers(-3, high + 3)
    rows = draw(st.lists(
        st.tuples(st.sampled_from(["set", "tuple", "array"]),
                  st.lists(ids, max_size=2 * high + 2)),
        max_size=8,
    ))
    excludes = [_row(kind, values) for kind, values in rows]
    return high, excludes, draw(st.integers(0, 12)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_batch_draw_matches_per_row_oracle(case):
    high, excludes, size, seed = case
    want = _outcome(reference_choice_excluding_batch, seed, high, excludes, size)
    got = _outcome(choice_excluding_batch, seed, high, excludes, size)
    assert got == want


@pytest.mark.parametrize("high, excludes, size", [
    (10, [set(range(9)), set(range(1, 10)), {3}], 40),  # two dense rows, then rejection
    (10, [{3}, (1, 1, 2, 2, 3, 4, 5), np.arange(12)], 7),  # dense with out-of-range ids
    (6, [(), set(range(6))], 3),  # nothing left on row 1
    (6, [(0, 1, 2, 3, 4, 5, 6, -1)], 3),  # nothing left despite out-of-range ids
    (6, [set(range(6))], 0),  # size 0 draws nothing and checks nothing
    (5, [], 3),
    (50, [{1, 2}, set(), np.array([10, 10])], 8),
])
def test_edge_cases_match_oracle(high, excludes, size):
    for seed in range(3):
        want = _outcome(reference_choice_excluding_batch, seed, high, excludes, size)
        assert _outcome(choice_excluding_batch, seed, high, excludes, size) == want


def test_negative_size_raises_same_text():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError) as want:
        reference_choice_excluding_batch(rng, 5, [{1}], -1)
    with pytest.raises(ValueError) as got:
        choice_excluding_batch(rng, 5, [{1}], -1)
    assert str(got.value) == str(want.value)


def _hash(arrays):
    digest = hashlib.sha256()
    for array in arrays:
        if array is not None:
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _epoch_draws(dataset, small_config):
    model = MGBR(dataset.train, dataset.n_users, dataset.n_items, config=small_config)
    trainer = Trainer(model, dataset, TrainConfig(batch_size=32, train_negatives=3,
                                                  aux_negatives=20, seed=0))
    draws = []
    for pair in trainer._paired_batches():
        step = trainer._draw_negatives(pair["a"], pair["b"])
        draws += [step[key] for key in sorted(step)]
    return _hash(draws)


def _candidate_lists(dataset):
    lists = EvalProtocol(dataset, n_negatives=99, cutoff=100)._candidate_lists()
    return _hash(array for task in lists for _, array in sorted(task.items()))


def test_epoch_draws_and_eval_lists_match_oracle(tiny_dataset, small_config, monkeypatch):
    got = (_epoch_draws(tiny_dataset, small_config), _candidate_lists(tiny_dataset))
    monkeypatch.setattr(negative, "choice_excluding_batch", reference_choice_excluding_batch)
    want = (_epoch_draws(tiny_dataset, small_config), _candidate_lists(tiny_dataset))
    assert got == want
