"""``repro.nn`` — a from-scratch NumPy deep-learning substrate.

The paper's reference implementation is PyTorch; this package provides
the equivalent primitives offline: reverse-mode autograd tensors, stable
activation/loss functionals, a Module system, standard layers, Adam/SGD
optimizers, sparse adjacency products for GCNs, and a finite-difference
gradient checker that the tests use to validate every adjoint.
"""

from repro.nn import functional
from repro.nn.backend import (
    ArrayBackend,
    CountingBackend,
    NumpyBackend,
    available_backends,
    backend_scope,
    get_backend,
    register_backend,
)
from repro.nn.gradcheck import gradcheck, numerical_gradient
from repro.nn.layers import MLP, Dropout, Embedding, Identity, Linear, Sequential
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.nn.sparse import spmm, to_csr
from repro.nn.tensor import (
    Tensor,
    concat,
    dtype_scope,
    get_default_dtype,
    inference_mode,
    no_grad,
    is_grad_enabled,
    ones,
    scatter_cache_stats,
    clear_scatter_cache,
    scatter_rows_sum,
    set_default_dtype,
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
    "scatter_rows_sum",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "dtype_scope",
    "inference_mode",
    "ArrayBackend",
    "NumpyBackend",
    "CountingBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "backend_scope",
    "scatter_cache_stats",
    "clear_scatter_cache",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "MLP",
    "Sequential",
    "Identity",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "spmm",
    "to_csr",
    "functional",
    "gradcheck",
    "numerical_gradient",
]
