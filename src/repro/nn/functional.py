"""Differentiable activation and loss primitives.

These free functions build on :class:`repro.nn.tensor.Tensor` and provide
numerically-stable implementations of the nonlinearities MGBR's equations
use: the sigmoid ``σ`` appearing throughout Eq. 1-3 and Eq. 16/17, softmax
for gate attention, and the stable log-sigmoid (via softplus) underpinning
the BPR objectives (Eq. 19/24).  Keeping them out of the :class:`Tensor`
class mirrors the ``torch.nn.functional`` layout the paper's reference
code relies on.
"""

from __future__ import annotations

import numpy as np

from repro.nn.backend import get_backend
from repro.nn.tensor import Tensor

__all__ = [
    "sigmoid",
    "logsigmoid",
    "relu",
    "leaky_relu",
    "softmax",
]


def sigmoid(x: Tensor) -> Tensor:
    """Numerically-stable elementwise logistic function ``1/(1+e^-x)``."""
    value = _stable_sigmoid(x.data)
    return Tensor._make(value, (x, lambda g: g * value * (1.0 - value)))


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Stable sigmoid: never exponentiates a positive argument.

    Accumulates in float64 regardless of the input dtype (the caller's
    Tensor wrapper casts back to the scoped dtype), so float32 scoring
    rounds once rather than per branch.
    """
    b = get_backend()
    out = b.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + b.exp(-z[pos]))
    ez = b.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logsigmoid(x: Tensor) -> Tensor:
    """Stable ``log σ(x) = -softplus(-x)``.

    This is the exact form of each BPR summand: Eq. 19 optimises
    ``log σ(s_pos - s_neg)``.
    """
    value = -_stable_softplus(-x.data)
    return Tensor._make(value, (x, lambda g: g * _stable_sigmoid(-x.data)))


def _stable_softplus(z: np.ndarray) -> np.ndarray:
    """Stable ``log(1+e^z) = max(z,0) + log1p(e^{-|z|})``."""
    b = get_backend()
    return b.maximum(z, 0.0) + b.log1p(b.exp(-b.absolute(z)))


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit ``max(x, 0)``."""
    b = get_backend()
    mask = b.greater(x.data, 0)
    return Tensor._make(b.multiply(x.data, mask), (x, lambda g: get_backend().multiply(g, mask)))


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """LeakyReLU, the activation NGCF's propagation layers use."""
    mask = x.data > 0
    scale = np.where(mask, 1.0, negative_slope)
    return Tensor._make(x.data * scale, (x, lambda g: g * scale))


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a, axis=-1, keepdims=True)``, bit for bit, in column passes.

    NumPy reduces a short trailing axis about 3x slower than a few
    whole-column adds (325 against 100 µs at ``(11000, 6)``), so for a
    C-contiguous 2-D ``a`` from 2 to 128 columns (one block of NumPy's
    pairwise sum) this replays NumPy's order with column ``add`` calls:
    the reduction starts from ``+0.0``;
    below 8 columns it folds the columns left to right; from 8 it keeps
    eight strided accumulators, combines them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the tail columns
    left to right.  Other shapes and layouts go to ``sum``.
    """
    b = get_backend()
    width = a.shape[-1] if a.ndim == 2 else 0
    if not 2 <= width <= 128 or not a.flags.c_contiguous:
        return b.sum(a, axis=-1, keepdims=True)
    if width < 8:
        out = b.add(a[:, 0:1], a.dtype.type(0))
        start = 1
    else:
        start = width - width % 8
        acc = a[:, 0:8]
        for i in range(8, start, 8):
            acc = b.add(acc, a[:, i : i + 8])
        c = [acc[:, j : j + 1] for j in range(8)]
        left = b.add(b.add(c[0], c[1]), b.add(c[2], c[3]))
        out = b.add(left, b.add(b.add(c[4], c[5]), b.add(c[6], c[7])))
        # The block's value is added to the reduction's +0.0 start.
        b.add(out, a.dtype.type(0), out=out)
    for j in range(start, width):
        b.add(out, a[:, j : j + 1], out=out)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (shift-stabilised).

    Gate attention weights over expert banks are softmax-normalised so
    each gate output is a convex combination of expert outputs.

    The shift, ``exp`` and normalisation run in place in one fresh
    buffer.  For the gates' ``(n, K)`` logits the row max is a column
    sweep of ``maximum`` rather than ``amax(axis=-1)``, which NumPy
    reduces about 10x slower over a short trailing axis; max is
    order-independent and ``maximum`` propagates NaN like ``amax``, so
    the result is bit-identical.  Float addition is order-dependent, so
    the row sums (the forward normaliser and the backward ``g·value``
    dot) go through :func:`_row_sum`, which adds the columns in NumPy's
    own ``sum`` order.
    """
    b = get_backend()
    data = x.data
    rows = data.ndim == 2 and axis in (-1, 1) and data.shape[1] >= 2
    if rows:
        top = b.maximum(data[:, 0:1], data[:, 1:2])
        for j in range(2, data.shape[1]):
            b.maximum(top, data[:, j : j + 1], out=top)
    else:
        top = b.amax(data, axis=axis, keepdims=True)
    value = b.subtract(data, top)
    b.exp(value, out=value)
    total = _row_sum(value) if rows else b.sum(value, axis=axis, keepdims=True)
    b.divide(value, total, out=value)

    def grad(g: np.ndarray) -> np.ndarray:
        gv = g * value
        dot = _row_sum(gv) if rows else gv.sum(axis=axis, keepdims=True)
        return value * (g - dot)

    return Tensor._make(value, (x, grad))
