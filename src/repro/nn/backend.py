"""The array backend the autograd substrate computes through.

Every array primitive the tape executes — arithmetic, matmuls,
transcendentals, reductions, gathers/scatters, shape ops — is a method
of the calling thread's active backend, so the
:class:`repro.nn.tensor.Tensor` graph machinery (parents, routes,
``_unbroadcast``) never calls NumPy directly for them.  Two backends
ship:

* :class:`NumpyBackend` — the reference: thin, allocation-transparent
  NumPy calls.  Every thread starts on it.
* :class:`CountingBackend` — the same numerics, but it counts every
  primitive invocation and every *actual* array copy (a cast or layout
  fix that really allocated).  The copy-audit tests and perfbench's
  ``nn.calls.*`` / ``nn.copies`` metrics use it to assert the planned
  gather/scatter hot path performs **zero** redundant copies when dtype
  and layout already match.

The active backend is **thread-local** (like the grad-enabled flag and
the default dtype in :mod:`repro.nn.tensor`): enter
:func:`backend_scope` with a backend instance on the thread that does
the math.  Every fresh thread starts at the reference, so code that
spawns workers (window-parallel evaluation, the serving flush worker)
captures the caller's :func:`get_backend` and re-enters it in each
worker.

Copy elision
------------
:meth:`NumpyBackend.ensure_contiguous` is the sanctioned way to demand
"C-contiguous with this dtype": it returns the input *unchanged* when it
already qualifies and only copies otherwise.  The planned gather path
(store gathers, fold caches, ``_scatter_rows_add``) uses it instead of
unconditional ``ascontiguousarray``/``astype`` calls, which is what the
counting backend's zero-copy assertion pins down.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict

import numpy as np

__all__ = [
    "NumpyBackend",
    "CountingBackend",
    "get_backend",
    "backend_scope",
]


#: The primitives the tape calls on the array layer (and the counting
#: backend instruments); it calls nothing else.
PRIMITIVES = (
    "asarray",
    "ensure_contiguous",
    "empty",
    "zeros",
    "ones",
    "zeros_like",
    "empty_like",
    "add",
    "subtract",
    "negative",
    "multiply",
    "divide",
    "power",
    "matmul",
    "einsum",
    "exp",
    "log",
    "log1p",
    "absolute",
    "maximum",
    "greater",
    "sum",
    "amax",
    "reshape",
    "swapaxes",
    "expand_dims",
    "broadcast_to",
    "concatenate",
    "take",
    "add_at",
)


class NumpyBackend:
    """The reference backend: thin, allocation-transparent NumPy calls.

    ``out=`` parameters follow NumPy rules: when given, the result is
    written in place and the buffer returned.
    """

    name = "numpy"

    # -- creation / coercion -------------------------------------------
    def asarray(self, data, dtype=None):
        return np.asarray(data, dtype=dtype)

    def ensure_contiguous(self, arr, dtype=None):
        arr = np.asarray(arr)
        want = arr.dtype if dtype is None else np.dtype(dtype)
        if arr.dtype == want and arr.flags["C_CONTIGUOUS"]:
            return arr
        return np.ascontiguousarray(arr, dtype=want)

    def empty(self, shape, dtype=None):
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype)

    def ones(self, shape, dtype=None):
        return np.ones(shape, dtype=dtype)

    def zeros_like(self, arr):
        return np.zeros_like(arr)

    def empty_like(self, arr, dtype=None):
        return np.empty_like(arr, dtype=dtype)

    # -- arithmetic -----------------------------------------------------
    def add(self, a, b, out=None):
        return np.add(a, b, out=out) if out is not None else a + b

    def subtract(self, a, b, out=None):
        return np.subtract(a, b, out=out) if out is not None else a - b

    def negative(self, a, out=None):
        return np.negative(a, out=out) if out is not None else -a

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out) if out is not None else a * b

    def divide(self, a, b, out=None):
        return np.divide(a, b, out=out) if out is not None else a / b

    def power(self, a, exponent):
        return a**exponent

    def matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out) if out is not None else a @ b

    def einsum(self, subscripts, *operands):
        return np.einsum(subscripts, *operands)

    # -- transcendental / elementwise ----------------------------------
    def exp(self, a, out=None):
        return np.exp(a, out=out) if out is not None else np.exp(a)

    def log(self, a):
        return np.log(a)

    def log1p(self, a):
        return np.log1p(a)

    def absolute(self, a):
        return np.abs(a)

    def maximum(self, a, b, out=None):
        return np.maximum(a, b, out=out) if out is not None else np.maximum(a, b)

    def greater(self, a, b):
        return a > b

    # -- reductions -----------------------------------------------------
    def sum(self, a, axis=None, keepdims=False, out=None):
        if out is not None:
            return np.sum(a, axis=axis, keepdims=keepdims, out=out)
        return a.sum(axis=axis, keepdims=keepdims)

    def amax(self, a, axis=None, keepdims=False):
        return a.max(axis=axis, keepdims=keepdims)

    # -- shape ----------------------------------------------------------
    def reshape(self, a, shape):
        return a.reshape(shape)

    def swapaxes(self, a, axis0, axis1):
        return np.swapaxes(a, axis0, axis1)

    def expand_dims(self, a, axis):
        return np.expand_dims(a, axis)

    def broadcast_to(self, a, shape):
        return np.broadcast_to(a, shape)

    # -- assembly / indexing -------------------------------------------
    def concatenate(self, arrays, axis=0, out=None):
        if out is not None:
            return np.concatenate(arrays, axis=axis, out=out)
        return np.concatenate(arrays, axis=axis)

    def take(self, a, index, out=None):
        """Row gather ``a[index]`` along axis 0.

        The ``out=`` form assumes **in-range** indices (the planned path
        validates ids at request admission): ``mode="clip"`` skips
        NumPy's bounds-checked buffered gather — about 3x faster — and
        is bit-identical to ``a[index]`` for valid indices.  ``out`` must
        be C-contiguous: for a strided target NumPy gathers into a
        full-size temporary and copies it back, so that raises
        ``ValueError`` instead of silently paying the extra pass.
        """
        if out is not None:
            if not out.flags.c_contiguous:
                raise ValueError("take(out=) needs a C-contiguous target")
            return a.take(index, axis=0, out=out, mode="clip")
        return a[index]

    def add_at(self, a, index, values):
        """In-place unbuffered ``a[index] += values`` (NumPy ``add.at``)."""
        np.add.at(a, index, values)
        return a


class CountingBackend(NumpyBackend):
    """Instrumented reference backend: per-primitive call and copy counts.

    ``counts`` maps primitive name → invocations; ``copies`` counts only
    *actual* allocations performed by the coercion primitives
    (``asarray`` / ``ensure_contiguous`` returning a new array object).
    Numerics are the reference backend's exactly, and the op tests in
    ``tests/test_nn_tensor.py`` run under both.  Tallies are
    lock-guarded, so threads sharing one instance (window-parallel
    evaluation inherits the caller's backend) count exactly.
    """

    name = "counting"

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.copies = 0
        self._lock = threading.Lock()
        for prim in PRIMITIVES:
            base = getattr(NumpyBackend, prim)
            # asarray / ensure_contiguous get dedicated copy-tracking
            # wrappers below; everything else just counts invocations.
            if prim in ("asarray", "ensure_contiguous"):
                continue
            setattr(self, prim, self._counted(prim, base))

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self._note(name)
            return fn(self, *args, **kwargs)

        return wrapper

    def _note(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def _note_copy(self) -> None:
        with self._lock:
            self.copies += 1

    def asarray(self, data, dtype=None):
        self._note("asarray")
        out = NumpyBackend.asarray(self, data, dtype)
        if isinstance(data, np.ndarray) and out is not data:
            self._note_copy()
        return out

    def ensure_contiguous(self, arr, dtype=None):
        self._note("ensure_contiguous")
        out = NumpyBackend.ensure_contiguous(self, arr, dtype)
        if isinstance(arr, np.ndarray) and out is not arr:
            self._note_copy()
        return out

    def reset(self) -> None:
        """Zero all counters (tests call this between phases)."""
        with self._lock:
            self.counts.clear()
            self.copies = 0


# ----------------------------------------------------------------------
# Thread-local selection
# ----------------------------------------------------------------------
_DEFAULT = NumpyBackend()


class _BackendState(threading.local):
    """Per-thread active backend (each thread starts at the reference)."""

    def __init__(self) -> None:
        self.backend: NumpyBackend = _DEFAULT


_STATE = _BackendState()


def get_backend() -> NumpyBackend:
    """The calling thread's active backend."""
    return _STATE.backend


@contextlib.contextmanager
def backend_scope(backend: NumpyBackend):
    """Temporarily switch this thread's active array backend."""
    if not isinstance(backend, NumpyBackend):
        raise TypeError(f"need a backend instance, got {backend!r}")
    previous = _STATE.backend
    _STATE.backend = backend
    try:
        yield backend
    finally:
        _STATE.backend = previous
