"""Property-based tests (hypothesis) for the autograd substrate.

These verify algebraic identities of the differentiation engine on
randomly generated shapes and values — complementing the pointwise
finite-difference tests with structural guarantees.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import concat, take_rows, tensor
from repro.nn import functional as F

from tests.gradcheck import gradcheck

_floats = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False, width=64
)


def _matrix(max_rows=4, max_cols=4):
    return st.tuples(
        st.integers(1, max_rows), st.integers(1, max_cols)
    ).flatmap(lambda shape: arrays(np.float64, shape, elements=_floats))


@settings(max_examples=25, deadline=None)
@given(_matrix())
def test_sum_gradient_is_ones(values):
    t = tensor(values, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(values))


@settings(max_examples=25, deadline=None)
@given(_matrix(), st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_scalar_mul_gradient_scales(values, c):
    t = tensor(values, requires_grad=True)
    (t * c).sum().backward()
    np.testing.assert_allclose(t.grad, np.full_like(values, c))


@settings(max_examples=25, deadline=None)
@given(_matrix())
def test_add_self_doubles_gradient(values):
    t = tensor(values, requires_grad=True)
    (t + t).sum().backward()
    np.testing.assert_allclose(t.grad, np.full_like(values, 2.0))


@settings(max_examples=20, deadline=None)
@given(_matrix())
def test_sigmoid_output_in_unit_interval(values):
    out = F.sigmoid(tensor(values)).data
    assert np.all(out > 0) and np.all(out < 1)


@settings(max_examples=20, deadline=None)
@given(_matrix())
def test_softmax_is_distribution(values):
    out = F.softmax(tensor(values), axis=-1).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(values.shape[0]), atol=1e-9)
    assert np.all(out >= 0)


@settings(max_examples=20, deadline=None)
@given(_matrix())
def test_logsigmoid_is_negative(values):
    out = F.logsigmoid(tensor(values)).data
    assert np.all(out <= 0)


@settings(max_examples=15, deadline=None)
@given(_matrix(3, 3))
def test_gradcheck_on_random_composite(values):
    t = tensor(values, requires_grad=True)
    assert gradcheck(lambda x: F.sigmoid(x * 2 + 1).sum() + (x * x).mean(), [t])


@settings(max_examples=20, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(2, 5), st.integers(1, 4)), elements=_floats),
    st.data(),
)
def test_take_rows_gradient_counts_occurrences(values, data):
    n = values.shape[0]
    idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    idx = np.asarray(idx)
    t = tensor(values, requires_grad=True)
    take_rows(t, idx).sum().backward()
    counts = np.bincount(idx, minlength=n).astype(float)
    np.testing.assert_allclose(t.grad, counts[:, None] * np.ones_like(values))


@settings(max_examples=20, deadline=None)
@given(_matrix(), _matrix())
def test_concat_then_split_roundtrip(a, b):
    if a.shape[0] != b.shape[0]:
        a = a[: min(a.shape[0], b.shape[0])]
        b = b[: min(a.shape[0], b.shape[0])]
    ta, tb = tensor(a), tensor(b)
    joined = concat([ta, tb], axis=1)
    np.testing.assert_array_equal(joined.data[:, : a.shape[1]], a)
    np.testing.assert_array_equal(joined.data[:, a.shape[1] :], b)


@settings(max_examples=20, deadline=None)
@given(_matrix())
def test_detach_stops_gradient(values):
    t = tensor(values, requires_grad=True)
    out = (t.detach() * 2).sum()
    assert not out.requires_grad
