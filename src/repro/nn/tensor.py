"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the reproduction: the paper's reference
implementation uses PyTorch, which is unavailable in this offline
environment, so we implement the subset of tensor autograd that MGBR and
the baselines need — dense broadcasting arithmetic, matrix products
(including batched), gather/scatter row indexing for embedding lookups,
reductions, concatenation, and the usual activation functions (the
nonlinearities themselves live in :mod:`repro.nn.functional`).

Design notes
------------
* A :class:`Tensor` wraps an ``np.ndarray`` (``float64`` by default so the
  tests' finite-difference gradient checks are meaningful) plus an
  optional gradient buffer and, on graph nodes, the backward
  :meth:`Tensor._make` built for it.
* The graph is a DAG of tensors; :meth:`Tensor.backward` runs a
  depth-first topological sort and accumulates gradients with ``+=`` so
  shared sub-expressions (e.g. the GCN embeddings feeding three gates)
  receive the sum of their downstream gradients.
* Every op builds its node with :meth:`Tensor._make`, passing one
  route ``(parent, vjp)`` per gradient contribution: ``vjp(g)`` returns
  that parent's share of the node's gradient ``g`` and nothing else.
  The node's one backward, built there, is the tape's only gradient
  router: it walks the routes in order, skips parents that need no
  gradient and ``None`` results, and accumulates the rest.
* Gradient buffers are single-owner: an interior node's ``.grad`` is
  released once its backward has consumed it, and the router lets a
  parent adopt each route's result as its ``.grad`` without a copy,
  unless the same array went to an earlier route of the node (``a + b``).
  Only leaves keep ``.grad`` after :meth:`Tensor.backward`
  (docs/training.md, "Gradient buffers").
* A :class:`Window` runs one slice of a step's graph on its own thread:
  it reads the step's shared nodes through leaves of its own, keeps its
  leaf gradients instead of writing shared ``.grad`` buffers, and
  :func:`reduce_windows` adds them up in window order
  (docs/training.md, "Window-parallel step").
* Broadcasting follows NumPy semantics; :func:`_unbroadcast` folds a
  gradient back onto the operand's original shape by summing the
  broadcast axes.
* :func:`no_grad` disables graph construction, mirroring
  ``torch.no_grad`` — evaluation loops use it to avoid building graphs
  for millions of candidate scores.

Thread-locality
---------------
The grad-enabled flag and the default dtype are **thread-local** (each
thread starts at the ``grad enabled / float64`` defaults).  The serving
engine (:mod:`repro.serving.engine`) runs its flushes under
``no_grad()``/``dtype_scope`` on a dedicated worker thread, and a
trainer concurrently building graphs on the main thread must not see
those scopes; conversely a trainer's scopes never bleed into serving.
Scopes therefore cannot be used to communicate state across threads —
enter them on the thread that does the math.

Dtype policy
------------
The substrate carries a thread-local *default dtype*
(:func:`get_default_dtype`).  It is ``float64`` out of the box — the
finite-difference gradient checker and training both rely on double
precision — but serving-style scoring can opt into ``float32`` to halve
memory bandwidth on the hot ``spmm``/matmul paths: :func:`dtype_scope`
temporarily switches the default dtype, so every tensor created inside
the block (including op results) is cast to it.  The evaluation
protocol's ``dtype="float32"`` fast path enters it inside
:func:`no_grad`.

Gradients always accumulate in the owning tensor's dtype, so training at
the ``float64`` default is bit-for-bit unaffected by the policy's
existence.

Array backends
--------------
Every array primitive (arithmetic, matmuls, transcendentals, reductions,
gathers/scatters) is executed through the thread-local backend of
:mod:`repro.nn.backend` — the tape itself only knows about graph
plumbing (routes, views, :func:`_unbroadcast`).  NumPy is the reference
backend; the instrumented counting backend used by the copy-audit tests
runs the same numerics.

Each thread *starts* at the numpy reference.  The thread-local
selection does **not** cross thread spawns, so code handing work to
other threads captures :func:`repro.nn.backend.get_backend` and
re-enters it with ``backend_scope`` in each worker — window-parallel
evaluation and the serving engine's flush worker both do.  Every
backend is bit-identical to the reference at float64, so ops here never
care which one is active.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from collections import OrderedDict
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import backend as _backend

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "dtype_scope",
    "concat",
    "take_rows",
    "gather_add",
    "Window",
    "shared_input",
    "reduce_windows",
    "backward_from",
]

# Thread-local backend holder (shared with repro.nn.backend); ops read
# ``_B_STATE.backend`` directly to keep the hot path to one attribute load.
_B_STATE = _backend._STATE

ArrayLike = Union[np.ndarray, float, int, Sequence]

_SUPPORTED_DTYPES = (np.float32, np.float64)


class _ThreadState(threading.local):
    """Per-thread autograd mode and default dtype.

    ``threading.local`` re-runs ``__init__`` on first access from each
    new thread, so every thread independently starts at the safe
    defaults (grad enabled, float64) no matter what scopes other
    threads have entered.
    """

    def __init__(self) -> None:
        self.grad_enabled = True
        self.default_dtype = np.dtype(np.float64)
        self.window: Optional["Window"] = None  # the Window running on this thread


_STATE = _ThreadState()


def _coerce_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in tuple(np.dtype(d) for d in _SUPPORTED_DTYPES):
        raise ValueError(
            f"unsupported tensor dtype {dtype!r}; supported: float32, float64"
        )
    return resolved


def get_default_dtype() -> np.dtype:
    """The dtype newly created tensors (and op results) are cast to."""
    return _STATE.default_dtype


@contextlib.contextmanager
def dtype_scope(dtype):
    """Temporarily switch this thread's default tensor dtype."""
    previous = _STATE.default_dtype
    _STATE.default_dtype = _coerce_dtype(dtype)
    try:
        yield
    finally:
        _STATE.default_dtype = previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the autograd tape."""
    return _STATE.grad_enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd graph construction.

    Inside the block every operation produces constant tensors with
    ``requires_grad=False`` and no backward, exactly like
    ``torch.no_grad()``.  Used by evaluation, serving flushes and the
    trainers' embedding pre-computation step.  Thread-local: only the
    entering thread stops recording.
    """
    previous = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


# ----------------------------------------------------------------------
# CSR one-hot scatter-matrix cache
# ----------------------------------------------------------------------
# The planned training path back-propagates through the *same* scatter
# maps (``plan.user_pos`` / ``item_pos`` / ``part_pos`` and the per-shard
# inverses) roughly a dozen times per step, and the maps themselves are
# long-lived plan attributes.  The CSR operator depends only on the
# index array, its length, the row count and the accumulate dtype, so —
# like ``Linear.folded_blocks``'s version key — we key on the identity
# of the index array and revalidate with ``is`` before reuse (the cache
# holds a strong reference, so an id can never be silently recycled).
# Index arrays must not be mutated in place; plan arrays never are.
_SCATTER_CACHE_CAPACITY = 64
_SCATTER_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_SCATTER_CACHE_LOCK = threading.Lock()


def _cached_one_hot(index: np.ndarray, n_rows: int, dtype: np.dtype):
    """The CSR one-hot operator for ``index``, built once per plan/shape."""
    key = (id(index), index.size, n_rows, dtype.str)
    with _SCATTER_CACHE_LOCK:
        entry = _SCATTER_CACHE.get(key)
        if entry is not None and entry[0] is index:
            _SCATTER_CACHE.move_to_end(key)
            return entry[1]
    import scipy.sparse as sp  # deferred: keep the numpy-only core lazy

    # NumPy's stable sort is a radix sort on 16-bit keys: about 10x
    # faster than on int64 here, and the same permutation.
    keys = index.astype(np.uint16) if n_rows <= 1 << 16 else index
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(index, minlength=n_rows)
    indptr = np.empty(n_rows + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    one_hot = sp.csr_matrix(
        (np.ones(index.size, dtype=dtype), order, indptr),
        shape=(n_rows, index.size),
    )
    with _SCATTER_CACHE_LOCK:
        _SCATTER_CACHE[key] = (index, one_hot)
        _SCATTER_CACHE.move_to_end(key)
        while len(_SCATTER_CACHE) > _SCATTER_CACHE_CAPACITY:
            _SCATTER_CACHE.popitem(last=False)
    return one_hot


def _scatter_rows_add(
    index: np.ndarray,
    grad: np.ndarray,
    n_rows: int,
    dtype,
) -> np.ndarray:
    """Fresh ``(n_rows, ...)`` buffer with ``buffer[index] += grad`` applied.

    The adjoint of every row gather (:func:`take_rows`,
    ``Tensor.__getitem__`` with an integer vector, and the scoring plan's
    gather/scatter maps).  Semantically ``np.zeros(...)`` + ``np.add.at``
    — and *bit-identical* to it: the fast path expresses the scatter as
    a sparse one-hot matmul ``M @ grad`` where CSR row ``r`` holds the
    positions ``j`` with ``index[j] == r`` in occurrence order, and
    scipy's CSR·dense kernel accumulates each row's terms sequentially
    left-to-right — the same order ``add.at``'s element loop uses.
    ``np.add.at`` is a per-element indexed loop, 3-7× slower at the
    ``(unique_requests, K·d)`` gradient scatters the planned training
    path back-propagates every step.
    """
    b = _B_STATE.backend
    out_shape = (n_rows,) + grad.shape[1:]
    if index.size == 0:
        return b.zeros(out_shape, dtype=dtype)
    if index.size < 512 or index.min() < 0:
        # Tiny scatters are not worth building a sparse operator for;
        # negative indices alias positive rows, which only add.at's
        # sequential loop resolves.
        out = b.zeros(out_shape, dtype=dtype)
        b.add_at(out, index, grad)
        return out
    one_hot = _cached_one_hot(index, n_rows, np.dtype(dtype))
    # Cast before multiplying: add.at accumulates each element in the
    # output's dtype, so summing in a narrower grad dtype first would
    # round differently.  ``ensure_contiguous`` elides the copy when the
    # gradient already arrives contiguous in the accumulate dtype (the
    # common case the copy-audit tests pin down).
    flat = b.ensure_contiguous(grad, dtype).reshape(index.size, -1)
    return np.asarray(one_hot @ flat).reshape(out_shape)


def _matmul(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``a @ c``, with contraction width 1 run as one ``einsum``.

    A ``(..., m, 1) @ (..., 1, n)`` product is an outer product: every
    output element is the single product ``a[..., i, 0] * c[..., 0, j]``
    added to a zeroed output, exactly as ``matmul`` computes it (so
    ``-0.0`` products come out ``+0.0`` there too, which a broadcast
    ``multiply`` would not give), with the same batch broadcasting and
    no batched GEMM call per matrix.  The gate-mix adjoint
    ``weightsᵀ @ g`` hits this shape on every planned training step.
    """
    b = _B_STATE.backend
    if a.ndim >= 2 and c.ndim >= 2 and a.shape[-1] == 1 and c.shape[-2] == 1:
        return b.einsum("...ki,...id->...kd", a, c)
    return b.matmul(a, c)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes.

    NumPy broadcasting either prepends length-1 axes or stretches existing
    length-1 axes; the adjoint of both is a sum over those axes.
    """
    if grad.shape == shape:
        return grad
    b = _B_STATE.backend
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = b.sum(grad, axis=tuple(range(extra)))
    # Sum over axes that were stretched from 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = b.sum(grad, axis=axes, keepdims=True)
    return b.reshape(grad, shape)


def _route(routes, g: np.ndarray) -> None:
    """The backward of every node: send ``g`` down ``routes`` (see :meth:`Tensor._make`)."""
    handed = []
    for parent, vjp in routes:
        if not parent.requires_grad:
            continue
        grad = vjp(g)
        if grad is None:
            continue
        _holder(parent)._accumulate(grad, owned=not any(grad is h for h in handed))
        handed.append(grad)


def _holder(t: "Tensor") -> "Tensor":
    """The tensor whose ``.grad`` receives ``t``'s gradient: ``t`` itself,
    or, for a leaf during a :meth:`Window.backward`, the window's own
    holder for it (see :class:`Window`)."""
    window = _STATE.window
    if window is None or t._backward is not None:
        return t
    return window._holder(t)


def _propagate(roots: Sequence["Tensor"]) -> None:
    """Run the backward of every node reachable from ``roots``.

    The roots hold their seed gradients already.  One depth-first sort
    over all of them orders every node after everything it feeds, so a
    node shared by several roots runs once, with its gradient complete.
    """
    order: List[Tensor] = []
    seen = set()

    def visit(node: "Tensor") -> None:
        if id(node) in seen or not node.requires_grad:
            return
        seen.add(id(node))
        for parent in node._parents:
            visit(parent)
        order.append(node)

    for root in roots:
        visit(root)
    for node in reversed(order):
        route = node._backward
        if route is not None and node.grad is not None:
            # Interior gradients are released once consumed; the
            # router may hand the buffer on to one parent.
            g, node.grad = node.grad, None
            route(g)


def _gather_route(source: "Tensor", index: np.ndarray):
    """Route of a row gather ``source[index]``: scatter-add ``g`` back."""
    return source, lambda g: _scatter_rows_add(index, g, source.data.shape[0], source.data.dtype)


def _window_route(parent: "Tensor", index: tuple):
    """Route reading one disjoint region ``g[index]`` of the node's gradient."""
    return parent, lambda g: g[index]


def fold_route(weight: "Tensor", blocks, columns: slice = slice(None)):
    """Route of a row-block fold ``Σ weight[start:stop]`` held in ``columns``.

    The adjoint adds ``g[:, columns]`` into every ``[start, stop)`` row
    block of the weight's gradient.  The first fold to reach a weight
    allocates its one zero-filled buffer; every later fold of the same
    weight adds into that buffer in place, after a ``+ 0.0`` pass that
    turns a ``-0.0`` into ``+0.0`` just as adding a fresh zero-filled
    buffer would.  So a weight read through several folds costs one
    buffer, with the bits of one buffer per fold.
    """

    def vjp(g: np.ndarray) -> Optional[np.ndarray]:
        b = _B_STATE.backend
        part = g[:, columns]
        current = _holder(weight).grad
        fresh = current is None
        if fresh:
            current = b.zeros_like(weight.data)
        else:
            b.add(current, 0.0, out=current)
        for start, stop in blocks:
            rows = current[start:stop]
            b.add(rows, part, out=rows)
        return current if fresh else None

    return weight, vjp


class Tensor:
    """A NumPy array with reverse-mode automatic differentiation.

    Attributes
    ----------
    data:
        The underlying ``np.ndarray`` value.
    grad:
        Accumulated gradient of the same shape, or ``None`` before
        :meth:`backward` (or for constants).  Only leaves (tensors
        :meth:`_make` did not build: parameters and user inputs) keep
        it; :meth:`backward` releases interior nodes' gradients.
    requires_grad:
        Whether this tensor participates in differentiation.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
        dtype=None,
    ) -> None:
        if isinstance(data, Tensor):  # pragma: no cover - defensive
            data = data.data
        state = _STATE
        arr = _B_STATE.backend.asarray(
            data, dtype=dtype if dtype is not None else state.default_dtype
        )
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and state.grad_enabled
        self._parents: Tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    def numpy(self) -> np.ndarray:
        """Return the raw value (no copy); do not mutate in place."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a constant tensor sharing this tensor's data (and dtype)."""
        return Tensor(self.data, dtype=self.data.dtype)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        ``owned`` declares that no one else holds or reads ``grad`` (the
        router in :meth:`_make` decides it): on first touch it becomes
        this tensor's buffer with no copy, provided it already has the
        data's shape and dtype and is a writeable C-contiguous array.
        Any other first touch costs one pass, ``grad + 0.0`` into a new
        buffer; later touches add in place.
        """
        b = _B_STATE.backend
        current = self.grad
        if current is not None:
            b.add(current, grad, out=current)
            return
        data = self.data
        # NumPy scalars (0-d op results) report writeable=False and copy.
        if (
            owned
            and grad.shape == data.shape
            and grad.dtype == data.dtype
            and grad.flags.c_contiguous
            and grad.flags.writeable
        ):
            self.grad = grad
        else:
            self.grad = b.add(grad, 0.0, out=b.empty_like(data))

    def zero_grad(self) -> None:
        """Clear the gradient buffer (used by optimizers between steps)."""
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of some downstream scalar with respect to this
            tensor.  Defaults to 1 for scalar tensors (the usual
            ``loss.backward()`` call); required for non-scalars.  It is
            read, never mutated.

        Each interior node's ``.grad`` is released (set to ``None``) as
        soon as its backward has consumed it; leaves accumulate across
        calls until :meth:`zero_grad`.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        b = _B_STATE.backend
        # A caller-supplied gradient is never adopted: the tape mutates
        # the buffers it owns, and the caller may still hold this one.
        owned = grad is None
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            grad = b.ones(self.data.shape, dtype=self.data.dtype)
        grad = b.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = b.broadcast_to(grad, self.data.shape)
        _holder(self)._accumulate(grad, owned=owned)
        _propagate([self])

    @staticmethod
    def _make(data: np.ndarray, *routes: Tuple["Tensor", Callable]) -> "Tensor":
        """Construct a graph node; each route ``(parent, vjp)`` feeds one parent.

        ``vjp(g)`` returns that parent's contribution given the node's
        gradient ``g``, or ``None`` when it has nothing to add.  A parent
        may have several routes; they run in the order given, so the
        order of each parent's contributions is the order of its routes.
        The node's backward is the tape's one gradient router: it skips
        parents that need no gradient, and a parent adopts each result
        as its buffer unless the same array went to an earlier route of
        this node (``a + b``: ``b`` gets a copy of the ``g`` ``a``
        adopted).  The node's parents, which order the backward sort,
        are the routes' parents in order of first appearance.
        """
        out = Tensor(data)
        if _STATE.grad_enabled and any(p.requires_grad for p, _ in routes):
            out.requires_grad = True
            out._parents = tuple(dict.fromkeys(p for p, _ in routes if p.requires_grad))
            out._backward = functools.partial(_route, routes)
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        return Tensor._make(
            _B_STATE.backend.add(self.data, other.data),
            (self, lambda g: _unbroadcast(g, self.data.shape)),
            (other, lambda g: _unbroadcast(g, other.data.shape)),
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(
            _B_STATE.backend.negative(self.data),
            (self, lambda g: _B_STATE.backend.negative(g)),
        )

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        return Tensor._make(
            _B_STATE.backend.multiply(self.data, other.data),
            (
                self,
                lambda g: _unbroadcast(_B_STATE.backend.multiply(g, other.data), self.data.shape),
            ),
            (
                other,
                lambda g: _unbroadcast(_B_STATE.backend.multiply(g, self.data), other.data.shape),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)

        def grad_other(g: np.ndarray) -> np.ndarray:
            b = _B_STATE.backend
            grad = b.divide(b.multiply(b.negative(g), self.data), b.power(other.data, 2))
            return _unbroadcast(grad, other.data.shape)

        return Tensor._make(
            _B_STATE.backend.divide(self.data, other.data),
            (self, lambda g: _unbroadcast(_B_STATE.backend.divide(g, other.data), self.data.shape)),
            (other, grad_other),
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other) / self

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)

        def grad_self(g: np.ndarray) -> np.ndarray:
            b = _B_STATE.backend
            if other.data.ndim == 1:
                # (..., n) @ (n,) -> (...): outer-product adjoint.
                grad = b.multiply(b.expand_dims(g, -1), other.data)
            else:
                grad = _matmul(g, b.swapaxes(other.data, -1, -2))
            if self.data.ndim == 1 and grad.ndim > 1:
                grad = b.sum(grad, axis=tuple(range(grad.ndim - 1)))
            return _unbroadcast(grad, self.data.shape)

        def grad_other(g: np.ndarray) -> np.ndarray:
            b = _B_STATE.backend
            if self.data.ndim == 1:
                grad = b.multiply(b.expand_dims(self.data, -1), b.expand_dims(g, -2))
            elif other.data.ndim == 1:
                grad = _matmul(b.swapaxes(self.data, -1, -2), b.expand_dims(g, -1))[..., 0]
                if grad.ndim > 1:
                    grad = b.sum(grad, axis=tuple(range(grad.ndim - 1)))
            else:
                grad = _matmul(b.swapaxes(self.data, -1, -2), g)
            return _unbroadcast(grad, other.data.shape)

        return Tensor._make(_matmul(self.data, other.data), (self, grad_self), (other, grad_other))

    # ------------------------------------------------------------------
    # Elementwise transcendental functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        value = _B_STATE.backend.exp(self.data)
        return Tensor._make(value, (self, lambda g: _B_STATE.backend.multiply(g, value)))

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        return Tensor._make(
            _B_STATE.backend.log(self.data),
            (self, lambda g: _B_STATE.backend.divide(g, self.data)),
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when ``None``)."""

        def grad(g: np.ndarray) -> np.ndarray:
            b = _B_STATE.backend
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for a in sorted(a % self.data.ndim for a in axes):
                    g = b.expand_dims(g, a)
            # A read-only broadcast view: the first touch copies it.
            return b.broadcast_to(g, self.data.shape)

        return Tensor._make(
            _B_STATE.backend.sum(self.data, axis=axis, keepdims=keepdims), (self, grad)
        )

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis`` (all axes when ``None``)."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view of this tensor."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._make(
            _B_STATE.backend.reshape(self.data, shape),
            (self, lambda g: _B_STATE.backend.reshape(g, self.data.shape)),
        )

    def __getitem__(self, key) -> "Tensor":
        """Slice / fancy-index; gradients scatter-add back into place.

        A 1-D integer-array key (the scoring plan's scatter maps) takes
        the :func:`_scatter_rows_add` fast backward.  A basic slice (a
        ``slice`` or a tuple of them: the training plan's segment
        windows and live-row views) adds its gradient into the parent's
        one gradient buffer, allocated on the first touch; every other
        index expression keeps the general ``np.add.at`` adjoint.
        """
        if isinstance(key, Tensor):
            key = key.data.astype(np.int64)
        value = self.data[key]
        if isinstance(key, np.ndarray) and key.ndim == 1 and np.issubdtype(key.dtype, np.integer):
            return Tensor._make(value, _gather_route(self, key))
        basic = isinstance(key, slice) or (
            isinstance(key, tuple) and all(isinstance(k, slice) for k in key)
        )

        def grad(g: np.ndarray) -> Optional[np.ndarray]:
            b = _B_STATE.backend
            current = _holder(self).grad
            if basic and current is not None:
                # Bit-equal to adding a zero-filled buffer holding ``g``
                # in the slice, ``-0.0 -> +0.0`` normalisation included.
                b.add(current, 0.0, out=current)
                window = current[key]
                b.add(window, g, out=window)
                return None
            buf = b.zeros_like(self.data)
            if basic:
                window = buf[key]
                b.add(window, g, out=window)
            else:
                b.add_at(buf, key, g)
            return buf

        return Tensor._make(value, (self, grad))

    # ------------------------------------------------------------------
    # Convenience constructors on instances
    # ------------------------------------------------------------------
    def zeros_like(self) -> "Tensor":
        """Constant zero tensor with this tensor's shape."""
        return Tensor(_B_STATE.backend.zeros_like(self.data))


def _as_tensor(value: ArrayLike) -> Tensor:
    """Coerce scalars/arrays into constant tensors (no-op for tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def tensor(data: ArrayLike, requires_grad: bool = False, name: str = "") -> Tensor:
    """Create a tensor (the public constructor).

    Parameters
    ----------
    data: array-like initial value (cast to the current default dtype,
        ``float64`` unless inside a :func:`dtype_scope`).
    requires_grad: whether to track operations for differentiation.
    name: optional debugging label.
    """
    return Tensor(data, requires_grad=requires_grad, name=name)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    """Tensor of zeros with the given shape."""
    return Tensor(
        _B_STATE.backend.zeros(shape, dtype=_STATE.default_dtype), requires_grad=requires_grad
    )


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (the paper's ``||`` operator).

    Gradient slices flow back to each operand.  This is the workhorse of
    MGBR: view concatenation (Eq. 4-6), gate inputs (Eq. 7-9) and the
    adjusted-gate pair features (Eq. 11) are all concatenations.
    """
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat() needs at least one tensor")
    value = _B_STATE.backend.concatenate([t.data for t in tensors], axis=axis)
    ax = axis % value.ndim
    offsets = np.cumsum([0] + [t.data.shape[ax] for t in tensors])
    lead = (slice(None),) * ax
    return Tensor._make(
        value,
        *(
            _window_route(t, lead + (slice(int(start), int(stop)),))
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:])
        ),
    )


def take_rows(source: Tensor, index: ArrayLike) -> Tensor:
    """Gather rows ``source[index]`` (embedding lookup).

    ``index`` is a 1-D integer array; the gradient scatter-adds into the
    source rows (via the sort-based :func:`_scatter_rows_add`, bit-equal
    to ``np.add.at``), which makes repeated indices (mini-batches and
    scoring plans hitting the same entity) accumulate correctly.
    """
    idx = np.asarray(index, dtype=np.int64)
    return Tensor._make(_B_STATE.backend.take(source.data, idx), _gather_route(source, idx))


def gather_add(sources: Sequence[Tensor], indices: Sequence[np.ndarray], out=None) -> Tensor:
    """``sources[0][indices[0]] + sources[1][indices[1]] + ...`` as one node.

    The gathers are summed left to right, ``((s0 + s1) + s2)``, so the
    value is bit-identical to chaining :func:`take_rows` and ``+``
    without allocating a fresh array per gather and per add.  ``out``
    optionally names the array to write the sum into (a slot range of a
    combined expert-bank buffer, see :class:`repro.core.mtl.MTLLayer`);
    it must have the result's shape and the default dtype.  A strided
    ``out`` is never a ``take`` target (NumPy would gather into a
    full-size temporary and copy it back): the sum accumulates in a
    contiguous scratch buffer and the last ``add`` writes the slot.  At
    most two n-row scratch buffers are live.  The adjoint scatter-adds
    the one incoming gradient into every source.

    ``indices`` must hold in-range rows — the position maps of a
    :class:`repro.plan.ScoringPlan`, which index the unique entity rows
    the plan gathered (bounds-checked) upstream; the gathers here skip
    the bounds check.
    """
    b = _B_STATE.backend
    indices = [np.asarray(index, dtype=np.int64) for index in indices]
    first = sources[0].data
    n = len(indices[0])
    shape = (n,) + first.shape[1:]
    dtype = _STATE.default_dtype
    if out is None:
        out = b.empty(shape, dtype=dtype)
    acc = out if out.flags.c_contiguous else b.empty(shape, dtype=dtype)
    b.take(first, indices[0], out=acc)
    if len(sources) > 1:
        part = b.empty(shape, dtype=dtype)
        last = len(sources) - 1
        for k in range(1, len(sources)):
            b.take(sources[k].data, indices[k], out=part)
            b.add(acc, part, out=out if k == last else acc)
    elif acc is not out:
        out[...] = acc
    return Tensor._make(out, *map(_gather_route, sources, indices))


# ----------------------------------------------------------------------
# Window-parallel backward
# ----------------------------------------------------------------------
class Window:
    """One window of a window-parallel step.

    A step whose rows are cut into windows builds some nodes once (the
    *shared* nodes: an encoder's outputs, cached weight folds) and runs
    each window's forward and backward on its own thread.  A window
    never puts a shared node in its graph: while it is entered (``with
    window:``), :func:`shared_input` and :meth:`input` hand it a leaf of
    its own over each shared node, so no interior node is reachable from
    two windows.  :meth:`backward` keeps every leaf gradient it produces
    (parameters included) in the window instead of in the leaf's
    ``.grad``, so windows never write one buffer from two threads;
    :func:`reduce_windows` then adds them up in window order, and
    :func:`backward_from` carries the shared nodes' sums on through the
    rest of the graph.
    """

    def __init__(self) -> None:
        #: key -> (this window's leaf, the shared node it stands for)
        self._inputs: "OrderedDict[object, Tuple[Tensor, Tensor]]" = OrderedDict()
        #: id(leaf) -> (leaf, holder of this window's gradient for it)
        self._grads: "OrderedDict[int, Tuple[Tensor, Tensor]]" = OrderedDict()

    def __enter__(self) -> "Window":
        _STATE.window = self
        return self

    def __exit__(self, *exc) -> None:
        _STATE.window = None

    def _input(self, key, build: Callable[[], "Tensor"]) -> "Tensor":
        entry = self._inputs.get(key)
        if entry is None:
            node = build()
            leaf = Tensor(node.data, requires_grad=node.requires_grad, dtype=node.data.dtype)
            entry = self._inputs[key] = (leaf, node)
        return entry[0]

    def input(self, node: "Tensor") -> "Tensor":
        """This window's leaf over the shared ``node``."""
        return self._input(node, lambda: node)

    def _holder(self, leaf: "Tensor") -> "Tensor":
        entry = self._grads.get(id(leaf))
        if entry is None:
            entry = self._grads[id(leaf)] = (leaf, Tensor(leaf.data, dtype=leaf.data.dtype))
        return entry[1]

    def backward(self, roots: Sequence[Tuple["Tensor", np.ndarray]]) -> None:
        """Back-propagate ``(node, gradient)`` roots through this window's graph.

        The gradients are handed over (the window may adopt and add into
        them).  Interior nodes behave as in :meth:`Tensor.backward`;
        every leaf's gradient stays in this window for
        :func:`reduce_windows`.
        """
        with self:
            for node, grad in roots:
                _holder(node)._accumulate(grad, owned=True)
            _propagate([node for node, _ in roots])


def shared_input(key, build: Callable[[], "Tensor"]) -> "Tensor":
    """``build()``, or inside an entered :class:`Window` that window's leaf
    over the one node ``build()`` makes for ``key`` per window.

    Cached weight folds go through here, so a window-parallel step reads
    each fold through a leaf of its own and unfolds it once per step.
    """
    window = _STATE.window
    return build() if window is None else window._input(key, build)


def reduce_windows(windows: Sequence[Window]) -> List["Tensor"]:
    """Add the windows' leaf gradients into their targets, window by window.

    A parameter's gradient lands in its ``.grad``; a window's leaf over a
    shared node lands in that node's ``.grad``.  Each target sums its
    windows' contributions in window order, so the result does not
    depend on which thread ran which window.  Returns the shared nodes,
    in order of first use (the first window's order first), for
    :func:`backward_from`.  Nothing is written until every window has
    finished its backward: call this only once all of them succeeded.
    """
    shared: "OrderedDict[object, Tensor]" = OrderedDict()
    for window in windows:
        targets = {}
        for key, (leaf, node) in window._inputs.items():
            targets[id(leaf)] = shared.setdefault(key, node)
        for leaf, holder in window._grads.values():
            if holder.grad is not None:
                targets.get(id(leaf), leaf)._accumulate(holder.grad, owned=True)
    return list(shared.values())


def backward_from(nodes: Sequence["Tensor"]) -> None:
    """One backward from every node of ``nodes`` that holds a ``.grad``.

    The multi-root form of :meth:`Tensor.backward`: each node's gradient
    was already accumulated (by :func:`reduce_windows`), and every node
    reachable from any of them runs once, after all its consumers.
    """
    _propagate([node for node in nodes if node.requires_grad and node.grad is not None])
