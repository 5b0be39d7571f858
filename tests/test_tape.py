"""Every node the tape builds: gradients, ownership and completeness.

Each case below builds one ``Tensor._make`` node (the ``site``) from
float64 leaves and is checked three ways:

* ``gradcheck``: the node's routes against central finite differences;
* ownership: after two backward passes (the second adds into the
  buffers the first left behind), no array the forward captured has
  changed (operands' data, saved values, cached folds, anything a route
  closes over), and no leaf's ``.grad`` shares memory with another
  leaf's or with a captured array;
* completeness: an ``ast`` scan of ``src/repro`` lists every function
  that calls ``Tensor._make``; each must have a case here or a written
  exemption.  The same scan keeps gradient buffers private to
  ``repro.nn.tensor``: no other module passes ``owned=`` or calls
  ``._accumulate(``.
"""

import ast
import functools
import itertools
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core.experts import ExpertBank
from repro.core.gates import GateAttention, TaskGate, _fold
from repro.nn import Tensor, concat, gradcheck, stack, take_rows
from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.sparse import spmm
from repro.nn.tensor import gather_add, scatter_rows_sum

SRC = Path(repro.__file__).resolve().parent

#: ``_make`` sites without a case, and why.
EXEMPT = {
    "store.service:ProcessShardedStore.gather": (
        "ships gradients to shard worker processes; covered by the dense-vs-service "
        "parity tests in tests/test_store_service.py"
    ),
    "store.service:ProcessShardedStore.all": (
        "ships gradients to shard worker processes; covered by the dense-vs-service "
        "parity tests in tests/test_store_service.py"
    ),
}


def _leaf(rng, *shape, low=None):
    """A float64 leaf: normal values, or magnitudes in ``[low, low + 1]``
    with random signs when ``low`` is given (away from kinks and poles)."""
    if low is None:
        data = rng.normal(size=shape)
    else:
        data = rng.uniform(low, low + 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    return Tensor(data, requires_grad=True, dtype=np.float64)


def _positive(rng, *shape):
    return Tensor(rng.uniform(0.5, 2.0, size=shape), requires_grad=True, dtype=np.float64)


def _bumped(fn, params):
    """``fn`` with every fold-cache key invalidated first: gradcheck
    perturbs weights in place, which does not bump their versions."""

    def wrapped(*inputs):
        for p in params:
            p.bump_version()
        return fn(*inputs)

    return wrapped


# ----------------------------------------------------------------------
# Cases: (site, id, build(rng) -> (fn, inputs))
# ----------------------------------------------------------------------
def _bank_case(rng, slot):
    bank = ExpertBank(4, 2, 3, seed=0)
    weights = [e.weight for e in bank._experts]
    if slot:
        # A slot range of a combined bank buffer: a strided ``out``.
        fn = lambda x, *ws: bank.forward(x, out=np.empty((5, 9, 2))[:, 3:6])
    else:
        fn = lambda x, *ws: bank.forward(x)
    return _bumped(fn, weights), [_leaf(rng, 5, 4), *weights]


def _stacked_folds_case(rng):
    bank = ExpertBank(6, 2, 3, seed=0)
    weights = [e.weight for e in bank._experts]
    blocks = ((0, 2), (2, 4), (4, 6))
    return _bumped(lambda *ws: bank._stacked_folds(blocks), weights), weights


def _folded_blocks_case(rng):
    layer = Linear(6, 3, bias=False, seed=0)
    blocks = ((0, 2), (4, 6))
    return _bumped(lambda w: layer.folded_blocks(blocks), [layer.weight]), [layer.weight]


def _mix_case(rng, n_banks, joined):
    banks = [_leaf(rng, 4, 3, 2) for _ in range(n_banks)]
    weights = _leaf(rng, 4, 3 * n_banks)

    def fn(w, *bs):
        operand = np.concatenate([b.data for b in bs], axis=1) if joined else None
        return GateAttention.mix(w, list(bs), operand=operand)

    return fn, [weights, *banks]


def _fold_case(rng, shared, own_is_ui):
    k = 3
    gate = TaskGate(4, 4, k, own_is_ui=own_is_ui, alpha=0.3, shared=shared, seed=0)
    spans = gate.fold_spans(k)
    generic = _leaf(rng, 5, 2 * k if shared else k)
    heads = [_leaf(rng, 5, k) for _ in range(3)]
    return lambda g, *hs: _fold(g, list(hs), spans, 0.3), [generic, *heads]


def _spmm_case(rng):
    matrix = sp.random(5, 4, density=0.5, random_state=0, format="csr")
    return lambda x: spmm(matrix, x), [_leaf(rng, 4, 3)]


def _gather_add_case(rng, n, strided):
    sources = [_leaf(rng, 4, 3), _leaf(rng, 6, 3), _leaf(rng, 5, 3)]
    indices = [rng.integers(0, len(s.data), size=n) for s in sources]
    if strided:
        fn = lambda *ss: gather_add(list(ss), indices, out=np.empty((n, 9))[:, 3:6])
    else:
        fn = lambda *ss: gather_add(list(ss), indices)
    return fn, sources


def _op(fn, *shapes, make=_leaf):
    """Build ``fn`` over fresh leaves of the given shapes."""
    return lambda rng: (fn, [make(rng, *shape) for shape in shapes])


def _away_from_zero(rng, *shape):
    return _leaf(rng, *shape, low=0.1)


_ROWS = np.array([0, 2, 2, 1, 3, 0])
_BIG_ROWS = np.random.default_rng(3).integers(0, 4, size=600)  # CSR scatter path
_MASK = np.array([True, False, True, True])
_T = "nn.tensor:Tensor."
_F = "nn.functional:"

CASES = [
    # -- arithmetic ----------------------------------------------------
    (_T + "__add__", "same-shape", _op(lambda a, b: a + b, (3, 4), (3, 4))),
    (_T + "__add__", "broadcast", _op(lambda a, b: a + b, (3, 4), (4,))),
    (_T + "__add__", "both-stretched", _op(lambda a, b: a + b, (3, 1), (1, 4))),
    (_T + "__add__", "self", _op(lambda a: a + a, (3, 4))),
    (_T + "__add__", "constant", _op(lambda a: 2.0 - a, (3, 4))),
    (_T + "__neg__", "neg", _op(lambda a: -a, (3, 4))),
    (_T + "__mul__", "broadcast", _op(lambda a, b: a * b, (3, 4), (3, 1))),
    (_T + "__mul__", "self", _op(lambda a: a * a, (3, 4))),
    (
        _T + "__truediv__",
        "broadcast",
        lambda r: (lambda a, b: a / b, [_leaf(r, 3, 4), _positive(r, 4)]),
    ),
    (_T + "__truediv__", "reflected", _op(lambda a: 1.0 / a, (3, 4), make=_positive)),
    (_T + "__pow__", "cube", _op(lambda a: a**3, (3, 4))),
    (_T + "__pow__", "root", _op(lambda a: a**0.5, (3, 4), make=_positive)),
    (_T + "__matmul__", "2d", _op(lambda a, b: a @ b, (3, 4), (4, 2))),
    (_T + "__matmul__", "batched", _op(lambda a, b: a @ b, (2, 3, 4), (4, 2))),
    (_T + "__matmul__", "vector-left", _op(lambda a, b: a @ b, (4,), (4, 2))),
    (_T + "__matmul__", "vector-right", _op(lambda a, b: a @ b, (2, 3, 4), (4,))),
    (_T + "__matmul__", "k1", _op(lambda a, b: a @ b, (2, 3, 1), (2, 1, 4))),
    # -- elementwise ---------------------------------------------------
    (_T + "exp", "exp", _op(lambda a: a.exp(), (3, 4))),
    (_T + "log", "log", _op(lambda a: a.log(), (3, 4), make=_positive)),
    (_T + "sqrt", "sqrt", _op(lambda a: a.sqrt(), (3, 4), make=_positive)),
    (_T + "abs", "abs", _op(lambda a: a.abs(), (3, 4), make=_away_from_zero)),
    (_T + "clip", "clip", _op(lambda a: a.clip(-0.5, 0.5), (3, 4), make=_away_from_zero)),
    # -- reductions ----------------------------------------------------
    (_T + "sum", "all", _op(lambda a: a.sum(), (3, 4))),
    (_T + "sum", "axes", _op(lambda a: a.sum(axis=(0, 2)), (2, 3, 4))),
    (_T + "sum", "keepdims", _op(lambda a: a.sum(axis=1, keepdims=True), (3, 4))),
    (_T + "max", "all", _op(lambda a: a.max(), (3, 4))),
    (_T + "max", "axis", _op(lambda a: a.max(axis=1), (3, 4))),
    (_T + "max", "keepdims", _op(lambda a: a.max(axis=0, keepdims=True), (3, 4))),
    # -- shape and indexing --------------------------------------------
    (_T + "reshape", "reshape", _op(lambda a: a.reshape(4, 3), (3, 4))),
    (_T + "transpose", "transpose", _op(lambda a: a.transpose(0, 2), (2, 3, 4))),
    (_T + "__getitem__", "int-vector", _op(lambda a: a[_ROWS], (4, 3))),
    (_T + "__getitem__", "tensor-key", _op(lambda a: a[Tensor(_ROWS)], (4, 3))),
    (_T + "__getitem__", "int-vector-csr", _op(lambda a: a[_BIG_ROWS], (4, 3))),
    (_T + "__getitem__", "basic-slice", _op(lambda a: a[1:3], (4, 3))),
    (_T + "__getitem__", "basic-tuple", _op(lambda a: a[:, 1:3], (4, 3))),
    # The second window adds into the buffer the first one allocated.
    (_T + "__getitem__", "basic-overlap", _op(lambda a: a[0:3] * a[1:4], (4, 3))),
    (_T + "__getitem__", "fancy", _op(lambda a: a[:, [0, 2, 2]], (4, 3))),
    (_T + "__getitem__", "mask", _op(lambda a: a[_MASK], (4, 3))),
    ("nn.tensor:concat", "repeated", _op(lambda a, b: concat([a, b, a], axis=1), (3, 2), (3, 4))),
    ("nn.tensor:concat", "rows", _op(lambda a, b: concat([a, b], axis=0), (2, 3), (4, 3))),
    ("nn.tensor:stack", "repeated", _op(lambda a, b: stack([a, b, a], axis=1), (3, 2), (3, 2))),
    ("nn.tensor:stack", "last-axis", _op(lambda a, b: stack([a, b], axis=-1), (3, 2), (3, 2))),
    ("nn.tensor:take_rows", "repeats", _op(lambda a: take_rows(a, _ROWS), (4, 3))),
    ("nn.tensor:take_rows", "csr", _op(lambda a: take_rows(a, _BIG_ROWS), (4, 3))),
    ("nn.tensor:gather_add", "fresh", lambda r: _gather_add_case(r, 7, False)),
    ("nn.tensor:gather_add", "strided-out", lambda r: _gather_add_case(r, 7, True)),
    ("nn.tensor:gather_add", "csr", lambda r: _gather_add_case(r, 600, False)),
    ("nn.tensor:scatter_rows_sum", "small", _op(lambda a: scatter_rows_sum(a, _ROWS, 5), (6, 3))),
    # -- functional ----------------------------------------------------
    (_F + "sigmoid", "sigmoid", _op(F.sigmoid, (3, 4))),
    (_F + "logsigmoid", "logsigmoid", _op(F.logsigmoid, (3, 4))),
    (_F + "softplus", "softplus", _op(F.softplus, (3, 4))),
    (_F + "relu", "relu", _op(F.relu, (3, 4), make=_away_from_zero)),
    (_F + "leaky_relu", "leaky_relu", _op(F.leaky_relu, (3, 4), make=_away_from_zero)),
    (_F + "tanh", "tanh", _op(F.tanh, (3, 4))),
    (_F + "softmax", "rows", _op(F.softmax, (3, 6))),
    (_F + "softmax", "axis1-3d", _op(lambda a: F.softmax(a, axis=1), (2, 3, 4))),
    (_F + "log_softmax", "log_softmax", _op(F.log_softmax, (3, 4))),
    (_F + "dropout", "dropout", _op(lambda a: F.dropout(a, 0.4, np.random.default_rng(0)), (3, 4))),
    ("nn.sparse:spmm", "spmm", _spmm_case),
    ("nn.layers:Linear.folded_blocks", "blocks", _folded_blocks_case),
    # -- MGBR's experts and gates --------------------------------------
    ("core.experts:ExpertBank.forward", "fresh", lambda r: _bank_case(r, False)),
    ("core.experts:ExpertBank.forward", "slot", lambda r: _bank_case(r, True)),
    ("core.experts:ExpertBank._stacked_folds", "blocks", _stacked_folds_case),
    ("core.gates:GateAttention.mix", "one-bank", lambda r: _mix_case(r, 1, False)),
    ("core.gates:GateAttention.mix", "two-banks", lambda r: _mix_case(r, 2, False)),
    ("core.gates:GateAttention.mix", "joined-operand", lambda r: _mix_case(r, 2, True)),
    ("core.gates:_fold", "gate-a", lambda r: _fold_case(r, True, True)),
    ("core.gates:_fold", "gate-b", lambda r: _fold_case(r, True, False)),
    ("core.gates:_fold", "no-shared-bank", lambda r: _fold_case(r, False, True)),
]

_IDS = [f"{site.split(':')[1]}-{name}" for site, name, _ in CASES]


@pytest.mark.parametrize("site, name, build", CASES, ids=_IDS)
def test_gradcheck(site, name, build):
    fn, inputs = build(np.random.default_rng(0))
    assert gradcheck(fn, inputs)


# ----------------------------------------------------------------------
# Ownership
# ----------------------------------------------------------------------
def _nodes(root):
    out, seen, todo = [], set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            todo.extend(node._parents)
    return out


def _captured(root):
    """Every array the graph under ``root`` holds: node values, and
    whatever each node's backward closes over (routes included)."""
    arrays, seen = [], set()

    def add(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, Tensor):
            arrays.append(obj.data)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                add(item)
        elif isinstance(obj, functools.partial):
            add(obj.func)
            add(obj.args)
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    add(cell.cell_contents)
                except ValueError:  # an unassigned cell
                    pass

    for node in _nodes(root):
        add(node)
        if node._backward is not None:
            add(node._backward)
    return arrays


@pytest.mark.parametrize("site, name, build", CASES, ids=_IDS)
def test_backward_mutates_no_captured_array(site, name, build):
    rng = np.random.default_rng(1)
    fn, inputs = build(rng)
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    loss = (out * Tensor(rng.normal(size=out.shape))).sum()
    captured = _captured(loss)
    before = [a.copy() for a in captured]
    loss.backward()
    loss.backward()  # adds into every buffer the first pass left behind
    for a, b in zip(captured, before):
        assert a.tobytes() == b.tobytes(), "backward mutated an array the forward captured"
    leaves = [t for t in inputs if t.grad is not None]
    assert leaves, "no gradient reached the inputs"
    for x, y in itertools.combinations(leaves, 2):
        assert not np.shares_memory(x.grad, y.grad)
    for x in leaves:
        assert not any(np.shares_memory(x.grad, a) for a in captured)


# ----------------------------------------------------------------------
# Completeness: the ast scan of src/repro
# ----------------------------------------------------------------------
def _is_make(call):
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "_make"
        and isinstance(func.value, ast.Name)
        and func.value.id == "Tensor"
    )


def _scan():
    """``(sites, misuse)``: the functions calling ``Tensor._make``, as
    ``module:qualname``, and every breach of the routing rule."""
    sites, misuse = set(), []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tape = module == "nn.tensor"

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                if isinstance(child, ast.Call):
                    where = f"{module}:{'.'.join(scope)} (line {child.lineno})"
                    if _is_make(child):
                        sites.add(f"{module}:{'.'.join(scope)}")
                        routes = child.args[1:]
                        if child.keywords or not routes or not all(
                            isinstance(a, (ast.Starred, ast.Call))
                            or (isinstance(a, ast.Tuple) and len(a.elts) == 2)
                            for a in routes
                        ):
                            misuse.append(f"{where}: Tensor._make takes (parent, vjp) routes")
                    if not tape and any(k.arg == "owned" for k in child.keywords):
                        misuse.append(f"{where}: passes owned=")
                    if (
                        not tape
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "_accumulate"
                    ):
                        misuse.append(f"{where}: calls ._accumulate(")
                visit(child, inner)

        visit(ast.parse(path.read_text()), ())
    return sites, misuse


def test_every_node_site_has_a_case():
    sites, _ = _scan()
    covered = {site for site, _, _ in CASES}
    assert sites - covered - set(EXEMPT) == set(), "node builders without a tape case"
    assert covered <= sites, "cases name sites that no longer build nodes"
    assert set(EXEMPT) <= sites, "exemptions name sites that no longer build nodes"


def test_gradient_buffers_stay_in_the_tape():
    _, misuse = _scan()
    assert misuse == []
