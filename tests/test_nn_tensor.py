"""Unit tests for the autograd core: every adjoint vs finite differences.

The autouse fixture below re-runs every test under both array backends
(the :class:`repro.nn.NumpyBackend` reference and the instrumented
:class:`repro.nn.CountingBackend`), so the counting instrument is held
to the reference's values and gradients.
"""

import numpy as np
import pytest

from repro.nn import (
    CountingBackend,
    NumpyBackend,
    Tensor,
    backend_scope,
    concat,
    is_grad_enabled,
    no_grad,
    take_rows,
    tensor,
    zeros,
)
from repro.nn.tensor import dtype_scope, gather_add

from tests.gradcheck import gradcheck


@pytest.fixture(
    autouse=True,
    params=(NumpyBackend(), CountingBackend()),
    ids=lambda backend: backend.name,
)
def active_backend(request):
    """Run every autograd test under each array backend."""
    with backend_scope(request.param):
        yield request.param


def _t(rng, *shape):
    return tensor(rng.normal(size=shape), requires_grad=True)


class TestConstruction:
    def test_tensor_wraps_float64(self, rng):
        t = tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert t.ndim == 2

    def test_zeros(self):
        assert np.all(zeros(2, 3).data == 0)

    def test_item_on_scalar(self):
        assert tensor(3.5).item() == 3.5

    def test_item_requires_scalar(self):
        with pytest.raises(TypeError):
            tensor([1.0, 2.0]).item()

    def test_detach_breaks_graph(self, rng):
        a = _t(rng, 3)
        d = a.detach()
        assert not d.requires_grad

    @pytest.mark.parametrize("scope", ["float32", "float64"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_detach_shares_data_under_any_scope(self, dtype, scope):
        a = Tensor(np.arange(3.0), requires_grad=True, dtype=dtype)
        with dtype_scope(scope):
            d = a.detach()
        assert d.data.dtype == dtype
        assert np.shares_memory(d.data, a.data)
        assert not d.requires_grad

    def test_len_and_repr(self, rng):
        a = _t(rng, 5, 2)
        assert len(a) == 5
        assert "shape=(5, 2)" in repr(a)


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            tensor([1.0]).backward()

    def test_backward_needs_grad_for_nonscalar(self, rng):
        a = _t(rng, 3)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_gradient_accumulates_on_shared_node(self, rng):
        a = _t(rng, 3)
        out = (a * 2 + a * 3).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.full(3, 5.0))

    def test_zero_grad_clears(self, rng):
        a = _t(rng, 2)
        (a * a).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_blocks_graph(self, rng):
        a = _t(rng, 2)
        with no_grad():
            assert not is_grad_enabled()
            out = a * 2
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_diamond_graph_topological_order(self, rng):
        # b and c both depend on a; d on both: grads must not double-fire.
        a = _t(rng, 4)
        b = a * 2
        c = a + 1
        d = (b * c).sum()
        d.backward()
        expected = 2 * (a.data + 1) + 2 * a.data  # d/da of 2a(a+1)
        np.testing.assert_allclose(a.grad, expected)


class TestArithmeticGradients:
    def test_add(self, rng):
        assert gradcheck(lambda x, y: x + y, [_t(rng, 3, 4), _t(rng, 3, 4)])

    def test_add_broadcast_row(self, rng):
        assert gradcheck(lambda x, y: x + y, [_t(rng, 3, 4), _t(rng, 4)])

    def test_add_broadcast_col(self, rng):
        assert gradcheck(lambda x, y: x + y, [_t(rng, 3, 4), _t(rng, 3, 1)])

    def test_add_scalar_constant(self, rng):
        assert gradcheck(lambda x: x + 2.5, [_t(rng, 3)])

    def test_sub_and_rsub(self, rng):
        assert gradcheck(lambda x, y: x - y, [_t(rng, 2, 3), _t(rng, 2, 3)])
        assert gradcheck(lambda x: 1.0 - x, [_t(rng, 4)])

    def test_mul(self, rng):
        assert gradcheck(lambda x, y: x * y, [_t(rng, 3, 4), _t(rng, 3, 4)])

    def test_mul_broadcast(self, rng):
        assert gradcheck(lambda x, y: x * y, [_t(rng, 5, 1), _t(rng, 1, 4)])

    def test_div(self, rng):
        a = _t(rng, 3)
        b = tensor(rng.uniform(1.0, 2.0, size=3), requires_grad=True)
        assert gradcheck(lambda x, y: x / y, [a, b])

    def test_rdiv(self, rng):
        b = tensor(rng.uniform(1.0, 2.0, size=3), requires_grad=True)
        assert gradcheck(lambda y: 2.0 / y, [b])

    def test_neg(self, rng):
        assert gradcheck(lambda x: -x, [_t(rng, 2, 2)])


class TestMatmulGradients:
    def test_2d(self, rng):
        assert gradcheck(lambda x, y: x @ y, [_t(rng, 3, 4), _t(rng, 4, 5)])

    def test_matrix_vector(self, rng):
        assert gradcheck(lambda x, y: x @ y, [_t(rng, 3, 4), _t(rng, 4)])

    def test_vector_matrix(self, rng):
        assert gradcheck(lambda x, y: x @ y, [_t(rng, 4), _t(rng, 4, 3)])

    def test_batched(self, rng):
        assert gradcheck(lambda x, y: x @ y, [_t(rng, 2, 3, 4), _t(rng, 2, 4, 5)])

    def test_batched_broadcast_left(self, rng):
        assert gradcheck(lambda x, y: x @ y, [_t(rng, 3, 4), _t(rng, 2, 4, 5)])

    def test_gate_mix_pattern(self, rng):
        # The (B,1,K) @ (B,K,d) pattern used by all gate attentions.
        w = _t(rng, 2, 1, 3)
        bank = _t(rng, 2, 3, 5)
        assert gradcheck(lambda a, b: a @ b, [w, bank])


class TestElementwiseGradients:
    def test_exp(self, rng):
        assert gradcheck(lambda x: x.exp(), [_t(rng, 3)])

    def test_log(self, rng):
        a = tensor(rng.uniform(0.5, 3.0, size=4), requires_grad=True)
        assert gradcheck(lambda x: x.log(), [a])


class TestReductionGradients:
    def test_sum_all(self, rng):
        assert gradcheck(lambda x: x.sum(), [_t(rng, 3, 4)])

    def test_sum_axis0(self, rng):
        assert gradcheck(lambda x: x.sum(axis=0), [_t(rng, 3, 4)])

    def test_sum_axis1_keepdims(self, rng):
        assert gradcheck(lambda x: x.sum(axis=1, keepdims=True), [_t(rng, 3, 4)])

    def test_sum_negative_axis(self, rng):
        assert gradcheck(lambda x: x.sum(axis=-1), [_t(rng, 2, 3, 4)])

    def test_mean_all_and_axis(self, rng):
        assert gradcheck(lambda x: x.mean(), [_t(rng, 3, 4)])
        assert gradcheck(lambda x: x.mean(axis=0, keepdims=True), [_t(rng, 3, 4)])


class TestShapeOps:
    def test_reshape(self, rng):
        assert gradcheck(lambda x: x.reshape(6, 2), [_t(rng, 3, 4)])

    def test_reshape_tuple_arg(self, rng):
        a = _t(rng, 4)
        assert a.reshape((2, 2)).shape == (2, 2)

    def test_getitem_slice(self, rng):
        assert gradcheck(lambda x: x[1:3], [_t(rng, 5, 2)])

    def test_getitem_fancy_repeated(self, rng):
        idx = np.array([0, 2, 2, 1])
        a = _t(rng, 4, 3)
        out = a[idx]
        out.sum().backward()
        # Row 2 picked twice -> gradient 2.
        np.testing.assert_allclose(a.grad, [[1] * 3, [1] * 3, [2] * 3, [0] * 3])

    def test_getitem_tensor_index(self, rng):
        a = _t(rng, 4, 3)
        idx = tensor([0.0, 3.0])
        assert a[idx].shape == (2, 3)


class TestConcatStack:
    def test_concat_axis1(self, rng):
        assert gradcheck(lambda x, y: concat([x, y], axis=1), [_t(rng, 3, 2), _t(rng, 3, 4)])

    def test_concat_axis0(self, rng):
        assert gradcheck(lambda x, y: concat([x, y], axis=0), [_t(rng, 2, 3), _t(rng, 4, 3)])

    def test_concat_three_way(self, rng):
        parts = [_t(rng, 2, 2), _t(rng, 2, 3), _t(rng, 2, 1)]
        assert gradcheck(lambda *xs: concat(list(xs), axis=1), parts)

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat([])


class TestGatherScatter:
    def test_take_rows_gradcheck(self, rng):
        idx = np.array([0, 2, 2, 4, 1])
        assert gradcheck(lambda x: take_rows(x, idx), [_t(rng, 5, 3)])

    def test_take_rows_values(self, rng):
        a = _t(rng, 4, 2)
        out = take_rows(a, np.array([3, 0]))
        np.testing.assert_allclose(out.data, a.data[[3, 0]])

    @pytest.mark.parametrize("shape_tail", [(), (4,), (3, 5)])
    def test_scatter_rows_add_bit_identical_to_add_at(self, rng, shape_tail):
        # The CSR fast path must be indistinguishable from np.add.at —
        # duplicate indices accumulate in occurrence order — across the
        # small-scatter fallback and the sparse-matmul path, any grad
        # rank, and a narrower grad dtype.
        from repro.nn.tensor import _scatter_rows_add

        for n, dtype in ((37, np.float64), (4096, np.float64), (4096, np.float32)):
            idx = rng.integers(0, 19, size=n)
            grad = rng.normal(size=(n,) + shape_tail).astype(dtype)
            reference = np.zeros((19,) + shape_tail)
            np.add.at(reference, idx, grad)
            fast = _scatter_rows_add(idx, grad, 19, np.float64)
            np.testing.assert_array_equal(fast, reference)

    def test_scatter_rows_add_negative_and_empty_index(self, rng):
        from repro.nn.tensor import _scatter_rows_add

        empty = _scatter_rows_add(np.array([], dtype=np.int64), np.zeros((0, 2)), 3, np.float64)
        np.testing.assert_array_equal(empty, np.zeros((3, 2)))
        # Negative indices alias positive rows of the same buffer; the
        # add.at fallback must resolve them identically.
        idx = np.concatenate([rng.integers(-4, 4, size=600)])
        grad = rng.normal(size=(600, 2))
        reference = np.zeros((4, 2))
        np.add.at(reference, idx, grad)
        np.testing.assert_array_equal(
            _scatter_rows_add(idx, grad, 4, np.float64), reference
        )

    def test_getitem_int_vector_gradient_scatter_adds(self, rng):
        source = tensor(rng.normal(size=(5,)), requires_grad=True)
        idx = np.array([0, 3, 3, 1, 0, 0])
        gathered = source[idx]
        gathered.backward(np.ones(len(idx)))
        np.testing.assert_allclose(source.grad, [3.0, 1.0, 0.0, 2.0, 0.0])


class TestGatherAdd:
    """``gather_add``: the layer-0 per-pair sum of gathered partials."""

    N, K, D = 48, 3, 4

    def _case(self, rng, n_sources, rows=7):
        sources = [_t(rng, rows, self.K, self.D) for _ in range(n_sources)]
        # More pairs than rows, so every index repeats.
        indices = [rng.integers(0, rows, size=self.N) for _ in range(n_sources)]
        return sources, indices

    @staticmethod
    def _chained(sources, indices):
        total = take_rows(sources[0], indices[0])
        for source, index in zip(sources[1:], indices[1:]):
            total = total + take_rows(source, index)
        return total.data

    @pytest.mark.parametrize("n_sources", [1, 2, 3])
    def test_value_matches_chained_take_rows(self, rng, n_sources):
        sources, indices = self._case(rng, n_sources)
        out = gather_add(sources, indices)
        assert out.shape == (self.N, self.K, self.D)
        assert out.data.tobytes() == self._chained(sources, indices).tobytes()

    @pytest.mark.parametrize("n_sources", [1, 2, 3])
    def test_strided_slot_target_is_byte_equal(self, rng, n_sources):
        sources, indices = self._case(rng, n_sources)
        buf = np.full((self.N, 9, self.D), 7.5)
        slot = buf[:, 3:6, :]
        assert not slot.flags.c_contiguous
        out = gather_add(sources, indices, out=slot)
        assert out.data is slot
        expected = self._chained(sources, indices)
        assert np.ascontiguousarray(slot).tobytes() == expected.tobytes()
        # Nothing outside the slot range moved.
        assert np.all(buf[:, :3] == 7.5) and np.all(buf[:, 6:] == 7.5)

    @pytest.mark.parametrize("slot", [False, True])
    @pytest.mark.parametrize("n_sources", [1, 2, 3])
    def test_gradcheck_every_source(self, rng, n_sources, slot):
        sources, indices = self._case(rng, n_sources, rows=4)
        indices = [index[:6] for index in indices]

        def fn(*srcs):
            out = np.zeros((6, 9, self.D))[:, 3:6, :] if slot else None
            return gather_add(srcs, indices, out=out)

        assert gradcheck(fn, sources)

    def test_slot_target_peak_is_two_scratch_buffers(self, rng):
        import tracemalloc

        n, rows = 2048, 64
        sources = [_t(rng, rows, self.K, 16) for _ in range(3)]
        indices = [rng.integers(0, rows, size=n) for _ in range(3)]
        buf = np.zeros((n, 9, 16))
        slot = buf[:, 3:6, :]
        scratch = n * self.K * 16 * buf.itemsize
        # The ``add`` into the strided slot may use the ufunc's fixed
        # buffer; it does not grow with n.
        slack = np.getbufsize() * buf.itemsize + 16 * 1024
        tracemalloc.start()
        try:
            gather_add(sources, indices, out=slot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * scratch + slack, f"peak {peak} B > two {scratch} B buffers"
