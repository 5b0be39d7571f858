"""``repro.nn`` — a from-scratch NumPy deep-learning substrate.

The paper's reference implementation is PyTorch; this package provides
the equivalent primitives offline: reverse-mode autograd tensors, stable
activation/loss functionals, a Module system, standard layers, the Adam
optimizer and sparse adjacency products for GCNs.
"""

from repro.nn import functional
from repro.nn.backend import CountingBackend, NumpyBackend, backend_scope, get_backend
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
    take_rows,
    tensor,
    zeros,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "concat",
    "take_rows",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "dtype_scope",
    "NumpyBackend",
    "CountingBackend",
    "get_backend",
    "backend_scope",
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
]
