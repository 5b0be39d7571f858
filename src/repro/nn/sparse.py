"""Sparse-matrix support for graph convolutions.

The normalized adjacency matrices ``Â`` in Eq. 1-3 are constant (the
graphs are fixed before training), so only the dense right-hand operand
of ``Â @ X`` needs gradient flow.  :func:`spmm` wraps scipy CSR matrices
into the autograd graph with exactly that one-sided adjoint:
``∂L/∂X = Âᵀ (∂L/∂Y)``.

Because each adjacency is fixed for the lifetime of a model, :func:`spmm`
caches the expensive derived operands *on the matrix object itself*: the
CSR transpose (needed by every backward pass) and, per dtype, a cast
copy used by the ``float32`` inference fast path.  Training forward
passes therefore pay the CSR transpose exactly once per adjacency, not
once per layer per view per batch.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.nn.tensor import Tensor, get_default_dtype

__all__ = ["spmm", "to_csr"]

#: Name of the per-adjacency cache attribute ``spmm`` attaches to scipy
#: matrices.  Maps ``np.dtype → (csr_in_dtype, csr_transpose_in_dtype)``.
_CACHE_ATTR = "_repro_spmm_cache"


def to_csr(matrix, dtype=None) -> sp.csr_matrix:
    """Coerce dense/sparse input into canonical CSR of ``dtype``.

    Already-canonical CSR matrices of the requested dtype are returned
    *unchanged* (no copy, no re-coercion), so repeated calls on a fixed
    adjacency are free and any cache attached to the object survives.

    Parameters
    ----------
    matrix: dense array-like or any scipy sparse matrix.
    dtype: target dtype; defaults to the substrate's current default
        dtype (``float64`` outside a ``dtype_scope``).
    """
    target = np.dtype(dtype) if dtype is not None else get_default_dtype()
    if sp.issparse(matrix):
        if isinstance(matrix, sp.csr_matrix) and matrix.dtype == target:
            return matrix
        out = matrix.tocsr()
    else:
        out = sp.csr_matrix(np.asarray(matrix, dtype=target))
    if out.dtype != target:
        out = out.astype(target)
    return out


def _cached_operands(matrix, dtype: np.dtype):
    """Return ``(csr_in_dtype, transpose_in_dtype)`` for a fixed adjacency.

    The pair is memoised on ``matrix`` (the caller-owned object, so the
    cache lives exactly as long as the adjacency).  Objects that reject
    attribute assignment (rare; e.g. slotted wrappers) silently skip
    caching and recompute.
    """
    cache = getattr(matrix, _CACHE_ATTR, None)
    if cache is not None and dtype in cache:
        return cache[dtype]
    cast = to_csr(matrix, dtype)
    pair = (cast, cast.T.tocsr())
    if cache is None:
        cache = {}
        try:
            setattr(matrix, _CACHE_ATTR, cache)
        except AttributeError:  # pragma: no cover - exotic matrix types
            return pair
    cache[dtype] = pair
    return pair


def spmm(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Sparse-dense product ``matrix @ dense`` with gradient to ``dense``.

    Parameters
    ----------
    matrix:
        A fixed (non-trainable) ``(n, m)`` scipy sparse matrix — in this
        library always a normalized adjacency with self-loops.  Its CSR
        form, transpose and dtype casts are cached on the object.
    dense:
        An ``(m, d)`` tensor of node features.  Cast to the current
        default dtype before the product, so a ``float32`` inference
        scope runs the whole propagation at half bandwidth.

    Returns
    -------
    Tensor
        ``(n, d)`` propagated features; backward applies ``matrixᵀ``.
    """
    if dense.ndim != 2:
        raise ValueError(f"spmm expects a 2-D dense operand, got shape {dense.shape}")
    if matrix.shape[1] != dense.shape[0]:
        raise ValueError(
            f"dimension mismatch: sparse {matrix.shape} @ dense {dense.shape}"
        )
    dtype = get_default_dtype()
    csr, csr_t = _cached_operands(matrix, dtype)
    value = csr @ dense.data.astype(dtype, copy=False)
    return Tensor._make(np.asarray(value), (dense, lambda g: csr_t @ g))
