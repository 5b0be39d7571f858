"""Copy-free tape backward: ownership, release and parity with the copying tape.

The tape hands a gradient buffer it owns to one parent instead of
copying it, releases interior ``.grad`` once consumed, unfolds every
fold of a weight into one buffer, and runs contraction-width-1 matmuls
as broadcast products.  Every case here is checked against a test-local
*reference tape* — the historical ``zeros_like`` + ``add`` accumulate, a
backward loop that never releases (for one root, a window's roots and
the shared nodes after the window reduction alike), one zero-filled
buffer per fold adjoint, and plain ``matmul`` — which the new tape must
match exactly on every leaf gradient (and, for training, on the
post-Adam weights).
"""

import contextlib
import dataclasses
import importlib

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.core import MGBR
from repro.core.mtl import MTLLayer
from repro.nn import CountingBackend, Tensor, backend_scope, concat, get_backend, tensor
from repro.nn import functional as F
from repro.nn.tensor import _unbroadcast, dtype_scope
from repro.training import TrainConfig, Trainer

_tape = importlib.import_module("repro.nn.tensor")
_layers = importlib.import_module("repro.nn.layers")
_experts = importlib.import_module("repro.core.experts")
_trainer = importlib.import_module("repro.training.trainer")


# ----------------------------------------------------------------------
# The reference (copying) tape
# ----------------------------------------------------------------------
def _reference_accumulate(self, grad, owned=False):
    b = get_backend()
    if self.grad is None:
        self.grad = b.zeros_like(self.data)
    b.add(self.grad, grad, out=self.grad)


def _reference_propagate(roots):
    """Every node's backward, in one sort over all ``roots``; no release.

    Serves :meth:`Tensor.backward` (one root), ``Window.backward`` (a
    window's logits) and ``backward_from`` (the shared nodes the window
    reduction filled).
    """
    order, seen = [], set()

    def visit(node):
        if id(node) in seen or not node.requires_grad:
            return
        seen.add(id(node))
        for parent in node._parents:
            visit(parent)
        order.append(node)

    for root in roots:
        visit(root)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _reference_backward(self, grad=None):
    b = get_backend()
    if grad is None:
        grad = b.ones(self.data.shape, dtype=self.data.dtype)
    grad = b.asarray(grad, dtype=self.data.dtype)
    if grad.shape != self.data.shape:
        grad = b.broadcast_to(grad, self.data.shape).copy()
    self._accumulate(grad)
    _reference_propagate([self])


def _reference_fold_route(weight, blocks, columns=slice(None)):
    """The historical fold adjoint: a zero-filled buffer per fold."""

    def vjp(g):
        grad = get_backend().zeros_like(weight.data)
        for start, stop in blocks:
            grad[start:stop] += g[:, columns]
        return grad

    return weight, vjp


@contextlib.contextmanager
def reference_tape():
    """Swap in the copying tape for the duration of the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tensor, "_accumulate", _reference_accumulate)
        mp.setattr(Tensor, "backward", _reference_backward)
        mp.setattr(_tape, "_propagate", _reference_propagate)
        mp.setattr(_tape, "_matmul", lambda a, c: get_backend().matmul(a, c))
        for module in (_layers, _experts):
            mp.setattr(module, "fold_route", _reference_fold_route)
        yield


def _interior_nodes(root):
    """Every reachable node with a backward closure (root included)."""
    out, seen, stack_ = [], set(), [root]
    while stack_:
        node = stack_.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            out.append(node)
        stack_.extend(node._parents)
    return out


# ----------------------------------------------------------------------
# Aliasing / ownership cases
# ----------------------------------------------------------------------
def _leaves(seed, *shapes, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [
        Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype) for shape in shapes
    ]


def _case_self_add(xs):
    (x,) = xs
    return [((x + x) * 3.0).sum()]


def _case_self_mul(xs):
    (x,) = xs
    return [(x * x).sum()]


def _case_diamond(xs):
    x, w = xs
    a = x * w
    b = a.exp()
    c = F.sigmoid(a)
    return [(b + c).sum()]


def _case_concat_rows(xs):
    (x,) = xs
    return [(concat([x, x], axis=0) * 2.0).sum()]


def _case_concat_cols(xs):
    x, w = xs
    y = concat([x, x, w], axis=-1)
    return [(y * y).sum()]


def _case_view_chain(xs):
    x, w = xs
    y = x.reshape(6, 4)[::-1].reshape(2, 12)[:, ::-1].reshape(24)
    return [(y * w.reshape(24)).sum()]


def _case_nonleaf_add(xs):
    x, w = xs
    return [((x * 2.0) + w.exp()).sum() * 0.5]


def _case_add_reuses_operand(xs):
    # ``s`` must hand its gradient to ``p1`` or ``p2``, not both: ``p1``
    # already holds a buffer and adds into it in place.
    x, y, z = xs
    p1, p2 = x * 2.0, y * 3.0
    return [(((p1 + p2) + p1) * z).sum()]


def _case_broadcast_add(xs):
    x, b = xs
    return [((x + b) * (b + x)).sum()]


def _case_two_passes(xs):
    x, w = xs
    return [(x * w).sum(), ((x + w).exp() * x).sum()]


def _case_matmul_chain(xs):
    x, w = xs
    h = x @ w
    gate = F.softmax(h, axis=-1)
    return [(gate.reshape(4, 1, 3) @ h.reshape(4, 3, 1)).sum()]


_CASES = {
    "x+x": (_case_self_add, [(3, 4)]),
    "x*x": (_case_self_mul, [(3, 4)]),
    "diamond": (_case_diamond, [(3, 4), (3, 4)]),
    "concat[x,x]-rows": (_case_concat_rows, [(3, 4)]),
    "concat[x,x,w]-cols": (_case_concat_cols, [(3, 4), (3, 2)]),
    "view-chain-to-leaf": (_case_view_chain, [(2, 3, 4), (4, 6)]),
    "nonleaf+nonleaf": (_case_nonleaf_add, [(3, 4), (3, 4)]),
    "add-reuses-operand": (_case_add_reuses_operand, [(3, 4), (3, 4), (3, 4)]),
    "broadcast-add": (_case_broadcast_add, [(3, 4), (1, 4)]),
    "two-passes-shared-leaves": (_case_two_passes, [(3, 4), (3, 4)]),
    "matmul-k1-chain": (_case_matmul_chain, [(4, 5), (5, 3)]),
}


def _run_case(build, shapes, reference, dtype=np.float64):
    xs = _leaves(0, *shapes, dtype=dtype)
    roots = build(xs)
    if reference:
        with reference_tape():
            for root in roots:
                root.backward()
    else:
        for root in roots:
            root.backward()
    return xs, roots


@pytest.mark.parametrize("name", sorted(_CASES))
def test_leaf_grads_match_reference_tape(name):
    build, shapes = _CASES[name]
    got, roots = _run_case(build, shapes, reference=False)
    want, _ = _run_case(build, shapes, reference=True)
    for leaf, ref in zip(got, want):
        assert leaf.grad is not None
        assert leaf.grad.dtype == leaf.data.dtype
        assert np.array_equal(leaf.grad, ref.grad), name
    for root in roots:
        assert all(node.grad is None for node in _interior_nodes(root)), name


def test_repeated_backward_sends_each_pass_once():
    """Released interior grads cannot be re-sent by a second pass (the
    copying tape kept ``y.grad`` and gave ``x`` 2 + 6 here)."""
    (x,) = _leaves(0, (2,))
    loss = (x * 2.0).sum()
    loss.backward()
    loss.backward()
    assert np.array_equal(x.grad, np.full(2, 4.0))


def test_leaf_adopts_owned_buffer_without_copy():
    """An owned, well-formed buffer becomes the leaf's .grad as is."""
    (x,) = _leaves(0, (3, 4))
    buf = np.ones((3, 4))
    x._accumulate(buf, owned=True)
    assert x.grad is buf
    x._accumulate(np.ones((3, 4)), owned=True)  # later touch: in place
    assert x.grad is buf and np.all(buf == 2.0)


def _read_only_ones():
    buf = np.ones((3, 4))
    buf.flags.writeable = False
    return buf


@pytest.mark.parametrize(
    "make, owned",
    [
        (lambda: np.ones((3, 4)), False),
        (lambda: np.ones((4, 3)).T, True),
        (lambda: np.broadcast_to(np.ones(4), (3, 4)), True),
        (_read_only_ones, True),
        (lambda: np.ones((3, 4), dtype=np.float32), True),
        (lambda: np.ones(4), True),
    ],
    ids=["unowned", "non-contiguous", "broadcast-view", "read-only", "dtype",
         "broadcast-shape"],
)
def test_first_touch_copies_unadoptable_buffers(make, owned):
    (x,) = _leaves(0, (3, 4))
    buf = make()
    x._accumulate(buf, owned=owned)
    assert x.grad is not buf and not np.shares_memory(x.grad, buf)
    assert x.grad.dtype == np.float64 and x.grad.flags.c_contiguous
    assert np.array_equal(x.grad, np.broadcast_to(buf, (3, 4)))


def test_first_touch_copy_normalises_signed_zero():
    """The one-pass copy is ``grad + 0.0``: bit-equal to zeros + grad."""
    (x,) = _leaves(0, (2,))
    x._accumulate(np.array([-0.0, 1.0]))
    assert not np.signbit(x.grad[0])


@pytest.mark.parametrize("root_is_leaf", [False, True])
def test_caller_grad_is_never_mutated_or_adopted(root_is_leaf):
    x, w = _leaves(1, (3, 4), (3, 4))
    root = x if root_is_leaf else (x.reshape(12) + w.reshape(12)).reshape(3, 4)
    upstream = np.random.default_rng(5).normal(size=(3, 4))
    frozen = upstream.copy()
    root.backward(upstream)
    root.backward(upstream)
    assert np.array_equal(upstream, frozen)
    for leaf in (x, w) if not root_is_leaf else (x,):
        assert not np.shares_memory(leaf.grad, upstream)
        assert np.array_equal(leaf.grad, 2.0 * frozen)


def test_read_only_broadcast_root_grad():
    x, w = _leaves(2, (3, 4), (3, 4))
    root = x * w + x
    upstream = np.broadcast_to(np.arange(4.0), (3, 4))
    root.backward(upstream)
    with reference_tape():
        x_ref, w_ref = _leaves(2, (3, 4), (3, 4))
        (x_ref * w_ref + x_ref).backward(upstream)
    assert np.array_equal(x.grad, x_ref.grad)
    assert np.array_equal(w.grad, w_ref.grad)


def test_float32_leaf_with_float64_incoming_grad():
    """A float64 adjoint into a float32 leaf is cast, never adopted."""
    (x,) = _leaves(3, (3, 4), dtype=np.float32)
    (w,) = _leaves(4, (3, 4))
    roots = [(x * w).sum(), (x + w).sum()]
    for root in roots:
        root.backward()
    x_ref = Tensor(x.data, requires_grad=True, dtype=np.float32)
    w_ref = Tensor(w.data, requires_grad=True)
    with reference_tape():
        for root in [(x_ref * w_ref).sum(), (x_ref + w_ref).sum()]:
            root.backward()
    assert x.grad.dtype == np.float32 and w.grad.dtype == np.float64
    assert np.array_equal(x.grad, x_ref.grad)
    assert np.array_equal(w.grad, w_ref.grad)


def test_backward_does_not_copy_under_counting_backend():
    """First touches allocate with empty_like, never zeros_like."""
    x, w = _leaves(6, (8, 3, 1), (8, 1, 5))
    counting = CountingBackend()
    with backend_scope(counting):
        ((x @ w).exp() + x).sum().backward()
    assert counting.copies == 0
    assert counting.counts.get("zeros_like", 0) == 0
    # Only the sum's read-only broadcast is copied; every other first
    # touch (x's reduction, w's product, the exp adjoint) is adopted.
    assert counting.counts["empty_like"] == 1


# ----------------------------------------------------------------------
# Contraction width 1 as a broadcast product
# ----------------------------------------------------------------------
_K1_SHAPES = {
    # name: (self shape, other shape); contraction width 1 forward.
    "2d-outer": ((5, 1), (1, 4)),
    "batched-outer": ((3, 5, 1), (3, 1, 4)),
    "broadcast-self": ((3, 5, 1), (1, 4)),
    "broadcast-other": ((5, 1), (3, 1, 4)),
    "broadcast-both": ((2, 1, 5, 1), (3, 1, 4)),
    # Adjoint-side k=1: grad_self contracts other.shape[-1] == 1 ...
    "adjoint-self": ((3, 5, 4), (3, 4, 1)),
    "adjoint-self-2d": ((5, 4), (4, 1)),
    # ... and grad_other contracts self.shape[-2] == 1 (the gate mix).
    "adjoint-other": ((3, 1, 4), (3, 4, 6)),
    "adjoint-other-2d": ((1, 4), (4, 6)),
    "adjoint-other-broadcast": ((3, 1, 4), (4, 6)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_K1_SHAPES))
def test_k1_matmul_matches_numpy(name, dtype):
    shape_a, shape_c = _K1_SHAPES[name]
    rng = np.random.default_rng(7)
    with dtype_scope(dtype):
        a = tensor(rng.normal(size=shape_a), requires_grad=True)
        c = tensor(rng.normal(size=shape_c), requires_grad=True)
        out = a @ c
        expected = np.matmul(a.data, c.data)
        assert out.data.dtype == expected.dtype == dtype
        assert out.shape == expected.shape
        assert np.array_equal(out.data, expected)
        upstream = rng.normal(size=expected.shape).astype(dtype)
        out.backward(upstream)
    grad_a = np.matmul(upstream, np.swapaxes(c.data, -1, -2))
    grad_c = np.matmul(np.swapaxes(a.data, -1, -2), upstream)
    assert np.array_equal(a.grad, _unbroadcast(grad_a, shape_a))
    assert np.array_equal(c.grad, _unbroadcast(grad_c, shape_c))


def _zero_bearing(rng, shape):
    """Normals with a third of the entries set to +0.0 or -0.0."""
    x = rng.normal(size=shape)
    pick = rng.integers(0, 6, size=shape)
    return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_K1_SHAPES))
def test_k1_matmul_bytes_match_numpy_with_signed_zeros(name, dtype):
    """``array_equal`` calls -0.0 and +0.0 equal; the bytes do not.  A
    product with a zero factor is +0.0 in ``matmul`` (it adds the product
    to a zeroed output) whatever the factors' signs."""
    shape_a, shape_c = _K1_SHAPES[name]
    rng = np.random.default_rng(9)
    with dtype_scope(dtype):
        a = tensor(_zero_bearing(rng, shape_a), requires_grad=True)
        c = tensor(_zero_bearing(rng, shape_c), requires_grad=True)
        out = a @ c
        expected = np.matmul(a.data, c.data)
        assert out.data.tobytes() == expected.tobytes()
        upstream = _zero_bearing(rng, expected.shape).astype(dtype)
        out.backward(upstream)
    # The root adopts ``upstream + 0.0`` (the tape's first-touch copy).
    upstream = upstream + dtype(0.0)
    grad_a = _unbroadcast(np.matmul(upstream, np.swapaxes(c.data, -1, -2)), shape_a)
    grad_c = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), upstream), shape_c)
    assert a.grad.tobytes() == grad_a.tobytes()
    assert c.grad.tobytes() == grad_c.tobytes()


def test_k1_dispatch_skips_gemm():
    rng = np.random.default_rng(8)
    w = tensor(rng.normal(size=(6, 1, 3)), requires_grad=True)
    bank = tensor(rng.normal(size=(6, 3, 4)), requires_grad=True)
    counting = CountingBackend()
    with backend_scope(counting):
        (w @ bank).sum().backward()
    # Forward and grad_self contract over 3 and 4; grad_other is k=1.
    assert counting.counts["matmul"] == 2
    assert counting.counts["einsum"] == 1


def test_mismatched_k1_shapes_still_raise():
    a = tensor(np.ones((3, 1)))  # would broadcast against (3, 4)
    c = tensor(np.ones((3, 4)))
    with pytest.raises(ValueError):
        a @ c


# ----------------------------------------------------------------------
# Oracle: training steps, new tape vs reference tape (the MGBR models
# take the planned step, GBMF its flat step)
# ----------------------------------------------------------------------
def _mgbr(dataset, config, **over):
    return MGBR(
        dataset.train, dataset.n_users, dataset.n_items,
        config=dataclasses.replace(config, **over),
    )


_MODELS = {
    "MGBR": lambda ds, cfg: _mgbr(ds, cfg),
    "GBMF": lambda ds, cfg: GBMF(ds.n_users, ds.n_items, dim=8, seed=0),
    "MGBR-int8": lambda ds, cfg: _mgbr(ds, cfg, embedding_quantize="int8"),
}


def _three_steps(model, dataset):
    config = TrainConfig(
        epochs=1, batch_size=32, learning_rate=5e-3, train_negatives=3,
        aux_negatives=3, seed=0, grad_clip=1.0,
    )
    trainer = Trainer(model, dataset, config)
    grads, losses = [], []
    for _, pair in zip(range(3), trainer._paired_batches()):
        losses.append(trainer._step(pair["a"], pair["b"]))
        grads.append({
            name: p.grad.copy() for name, p in model.named_parameters()
            if p.grad is not None
        })
    return losses, grads, model.state_dict()


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_planned_steps_match_reference_tape(name, tiny_dataset, small_config):
    build = _MODELS[name]
    losses, grads, state = _three_steps(build(tiny_dataset, small_config), tiny_dataset)
    with reference_tape():
        ref_losses, ref_grads, ref_state = _three_steps(
            build(tiny_dataset, small_config), tiny_dataset
        )
    assert losses == ref_losses
    for step, (got, want) in enumerate(zip(grads, ref_grads)):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), f"step {step} grad {key}"
    assert state.keys() == ref_state.keys()
    for key in ref_state:
        assert state[key].tobytes() == ref_state[key].tobytes(), f"post-Adam {key}"


def test_windowed_steps_match_reference_tape(tiny_dataset, small_config, monkeypatch):
    """The same oracle over a step cut into several windows: each
    window's backward, the window-order reduction and the backward from
    the shared nodes through the encoder all match the copying tape."""
    monkeypatch.setattr(_trainer, "ROWS", 60)
    windows = []
    monkeypatch.setattr(
        _trainer, "reduce_windows",
        lambda ws, _reduce=_trainer.reduce_windows: windows.append(len(ws)) or _reduce(ws),
    )
    build = _MODELS["MGBR"]
    losses, grads, state = _three_steps(build(tiny_dataset, small_config), tiny_dataset)
    assert min(windows) >= 2
    with reference_tape():
        ref_losses, ref_grads, ref_state = _three_steps(
            build(tiny_dataset, small_config), tiny_dataset
        )
    assert losses == ref_losses
    for step, (got, want) in enumerate(zip(grads, ref_grads)):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), f"step {step} grad {key}"
    for key in ref_state:
        assert state[key].tobytes() == ref_state[key].tobytes(), f"post-Adam {key}"


# ----------------------------------------------------------------------
# Oracle: the bank layout moves no bit of a training step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_bank_layout_matches_concatenating_layout(layers, tiny_dataset, small_config, monkeypatch):
    """Slot buffers, the last layer's per-gate ``[own | s]`` buffers and
    their ``s′`` copy change where the banks live, not the step: every
    gradient and the post-Adam weights match, byte for byte, a layout
    where each bank has its own buffer and every mix concatenates."""
    build = lambda: _mgbr(tiny_dataset, small_config, mtl_layers=layers)
    mirrors = []
    bank_slots = MTLLayer._bank_slots

    def recording(self, *args):
        slots, operands, mirror = bank_slots(self, *args)
        mirrors.append(mirror is not None)
        return slots, operands, mirror

    monkeypatch.setattr(MTLLayer, "_bank_slots", recording)
    losses, grads, state = _three_steps(build(), tiny_dataset)
    assert any(mirrors), "no step ran gates A and B in one layer without gate S"
    monkeypatch.setattr(MTLLayer, "_bank_slots", lambda self, *args: ({}, {}, None))
    ref_losses, ref_grads, ref_state = _three_steps(build(), tiny_dataset)
    assert losses == ref_losses
    for step, (got, want) in enumerate(zip(grads, ref_grads)):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), f"step {step} grad {key}"
    for key in ref_state:
        assert state[key].tobytes() == ref_state[key].tobytes(), f"post-Adam {key}"
