"""Unit tests for sparse adjacency products (spmm)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import spmm, tensor, to_csr

from tests.gradcheck import gradcheck


class TestToCsr:
    def test_dense_input(self):
        out = to_csr(np.eye(3))
        assert sp.issparse(out)
        assert out.dtype == np.float64

    def test_sparse_passthrough_format(self):
        coo = sp.random(4, 4, density=0.5, format="coo", random_state=0)
        out = to_csr(coo)
        assert out.format == "csr"

    def test_dtype_upcast(self):
        m = sp.identity(3, dtype=np.float32, format="csr")
        assert to_csr(m).dtype == np.float64


class TestSpmm:
    def test_matches_dense_product(self, rng):
        a = sp.random(6, 5, density=0.4, random_state=0, format="csr")
        x = tensor(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(spmm(a, x).data, a.toarray() @ x.data)

    def test_gradcheck(self, rng):
        a = sp.random(6, 5, density=0.5, random_state=1, format="csr")
        x = tensor(rng.normal(size=(5, 4)), requires_grad=True)
        assert gradcheck(lambda t: spmm(a, t), [x])

    def test_gradient_is_transpose_product(self, rng):
        a = sp.random(4, 3, density=0.6, random_state=2, format="csr")
        x = tensor(rng.normal(size=(3, 2)), requires_grad=True)
        out = spmm(a, x)
        g = rng.normal(size=out.shape)
        out.backward(g)
        np.testing.assert_allclose(x.grad, a.toarray().T @ g)

    def test_dimension_mismatch(self, rng):
        a = sp.identity(4, format="csr")
        with pytest.raises(ValueError):
            spmm(a, tensor(rng.normal(size=(5, 2))))

    def test_non_2d_dense_rejected(self, rng):
        a = sp.identity(3, format="csr")
        with pytest.raises(ValueError):
            spmm(a, tensor(rng.normal(size=3)))

    def test_empty_rows_propagate_zero(self):
        a = sp.csr_matrix((3, 3))  # all-zero adjacency
        x = tensor(np.ones((3, 2)), requires_grad=True)
        out = spmm(a, x)
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_identity_is_noop(self, rng):
        x = tensor(rng.normal(size=(5, 3)))
        out = spmm(sp.identity(5, format="csr"), x)
        np.testing.assert_allclose(out.data, x.data)
