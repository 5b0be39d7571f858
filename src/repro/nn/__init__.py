"""``repro.nn`` — a from-scratch NumPy deep-learning substrate.

The paper's reference implementation is PyTorch; this package provides
the equivalent primitives offline: reverse-mode autograd tensors, stable
activation/loss functionals, a Module system, standard layers, the Adam
optimizer, sparse adjacency products for GCNs, and a finite-difference
gradient checker that the tests use to validate every adjoint.
"""

from repro.nn import functional
from repro.nn.backend import CountingBackend, NumpyBackend, backend_scope, get_backend
from repro.nn.gradcheck import gradcheck, numerical_gradient
from repro.nn.layers import MLP, Embedding, Linear
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.sparse import spmm, to_csr
from repro.nn.tensor import (
    Tensor,
    concat,
    dtype_scope,
    get_default_dtype,
    no_grad,
    is_grad_enabled,
    ones,
    scatter_cache_stats,
    clear_scatter_cache,
    stack,
    take_rows,
    tensor,
    zeros,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "concat",
    "stack",
    "take_rows",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "dtype_scope",
    "NumpyBackend",
    "CountingBackend",
    "get_backend",
    "backend_scope",
    "scatter_cache_stats",
    "clear_scatter_cache",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "MLP",
    "Adam",
    "clip_grad_norm",
    "spmm",
    "to_csr",
    "functional",
    "gradcheck",
    "numerical_gradient",
]
