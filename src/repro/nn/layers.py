"""Standard neural layers built on the autograd substrate.

These are the building blocks the paper's architecture composes:
``Linear`` (every ``W`` in Eq. 1-14), ``MLP`` (the prediction heads of
Eq. 16/17), ``Embedding`` (layer-0 node features and the MF baselines),
and ``Dropout``.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init as inits
from repro.nn.backend import get_backend
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, fold_route, shared_input
from repro.utils.rng import SeedLike, as_rng

#: Serialises fold-cache *builds* (``Linear.folded_blocks_raw``,
#: ``ExpertBank.stacked_folds_raw``).  Hits stay a plain dict lookup;
#: only a miss takes the lock and re-checks, so concurrent scorers build
#: each fold exactly once and all read the same array object.
FOLD_LOCK = threading.Lock()

if False:  # pragma: no cover - import-time cycle guard (nn -> store -> nn);
    # Embedding imports repro.store lazily at construction instead.
    from repro.store import EmbeddingStore  # noqa: F401

__all__ = ["Linear", "Embedding", "Dropout", "MLP", "Sequential", "Identity"]

Activation = Callable[[Tensor], Tensor]

_ACTIVATIONS = {
    "sigmoid": F.sigmoid,
    "relu": F.relu,
    "leaky_relu": F.leaky_relu,
    "tanh": F.tanh,
    "identity": lambda x: x,
    "none": lambda x: x,
}


def resolve_activation(activation) -> Activation:
    """Map an activation name (or callable) to a callable."""
    if callable(activation):
        return activation
    try:
        return _ACTIVATIONS[str(activation).lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown activation {activation!r}; known: {sorted(_ACTIVATIONS)}"
        ) from exc


class Identity(Module):
    """No-op module, useful as a placeholder in ablations."""

    def forward(self, x: Tensor) -> Tensor:
        """Return the input unchanged."""
        return x


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-initialised ``W``.

    Parameters
    ----------
    in_features / out_features: matrix dimensions (``W ∈ R^{in×out}``).
    bias: include the additive bias term.
    seed: RNG for initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: SeedLike = None,
        gain: float = 1.0,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"Linear dims must be positive, got {in_features}x{out_features}"
            )
        rng = as_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            inits.xavier_uniform((in_features, out_features), rng, gain=gain), "weight"
        )
        self.bias = Parameter(np.zeros(out_features), "bias") if bias else None
        self._fold_cache = {}  # blocks -> (weight version, folded ndarray)

    def forward(self, x: Tensor) -> Tensor:
        """Apply the affine map to the trailing dimension of ``x``."""
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def check_blocks(self, x: Tensor, blocks: Sequence[Sequence[int]]) -> Tuple[Tuple[int, int], ...]:
        """Validate a ``project_blocks`` request; return a hashable key."""
        if self.bias is not None:
            raise ValueError("project_blocks() requires a bias-free Linear")
        if not blocks:
            raise ValueError("project_blocks() needs at least one (start, stop) block")
        widths = {stop - start for start, stop in blocks}
        if len(widths) != 1 or widths != {x.shape[-1]}:
            # Checked up front: Tensor addition broadcasts, so unequal
            # blocks would otherwise sum into a wrong (but well-shaped)
            # partial projection instead of failing.
            raise ValueError(
                f"block widths {sorted(stop - start for start, stop in blocks)} "
                f"must all equal the input width {x.shape[-1]}"
            )
        return tuple((int(start), int(stop)) for start, stop in blocks)

    def folded_blocks(self, blocks: Tuple[Tuple[int, int], ...]) -> Tensor:
        """The summed weight-row blocks as a differentiable tensor, cached.

        The fold values (``W[s0:e0] + W[s1:e1] + …``) are cached per
        block set and keyed on :attr:`repro.nn.module.Parameter.version`
        — the optimizer's in-place ``step()`` (and any state-dict load)
        bumps the version, so a planned call after a weight update can
        never read stale folds, while the calls *within* one step (and
        every chunk of an evaluation sweep) reuse the fold for free.

        Each call returns a *fresh* graph node over the cached values
        whose backward adds the incoming gradient into every block of
        the weight's gradient (:func:`repro.nn.tensor.fold_route`):
        nodes are never shared between forward graphs, so reuse cannot
        double-count gradients and a cached node can never carry a
        stale ``.grad`` into a later backward pass.  Inside a
        :class:`repro.nn.tensor.Window` the call returns the window's
        leaf over one such node per step instead
        (:func:`repro.nn.tensor.shared_input`).

        Concurrent readers are safe: a cache miss builds the fold under
        :data:`FOLD_LOCK` and re-checks first, so window-parallel
        evaluation threads build each fold once and share the array.
        Weight *updates* still need the single-writer discipline of
        training (no scoring while the optimizer steps).
        """
        weight = self.weight
        return shared_input(
            (weight, blocks),
            lambda: Tensor._make(self.folded_blocks_raw(blocks), fold_route(weight, blocks)),
        )

    def folded_blocks_raw(self, blocks: Tuple[Tuple[int, int], ...]) -> np.ndarray:
        """The cached fold values as a raw array (no graph node).

        Shares the version-keyed cache with :meth:`folded_blocks`, so
        every planned call in a step (and every evaluation window) reads
        the identical cached array.  Callers must not mutate the
        returned array.
        """
        weight = self.weight
        entry = self._fold_cache.get(blocks)
        if entry is None or entry[0] != weight.version:
            with FOLD_LOCK:
                entry = self._fold_cache.get(blocks)
                if entry is None or entry[0] != weight.version:
                    folded = get_backend().ensure_contiguous(
                        weight.data[blocks[0][0] : blocks[0][1]]
                    )
                    for start, stop in blocks[1:]:
                        folded = folded + weight.data[start:stop]
                    entry = (weight.version, folded)
                    self._fold_cache[blocks] = entry
        return entry[1]

    def project_blocks(self, x: Tensor, blocks: Sequence[Sequence[int]]) -> Tensor:
        """Apply the *sum* of weight-row blocks to ``x`` — a partial map.

        When this layer's input is a concatenation ``[a; b; c]`` (possibly
        with repeated segments), ``x W = a W_a + b W_b + c W_c`` where
        ``W_s`` are row blocks of ``W``.  ``project_blocks(a, [(s, e)])``
        computes one such per-segment partial projection; passing several
        ``(start, stop)`` blocks folds segments that receive the *same*
        input (e.g. the duplicated ``g⁰ || g⁰`` layer-0 gate state) into
        a single matmul.  The factorized scoring plan computes these
        partials once per unique entity instead of once per flat request
        row.  Only valid for bias-free layers — a bias cannot be split
        across partial sums unambiguously.  Fold weights are cached via
        :meth:`folded_blocks` (invalidated by parameter-version bumps).
        """
        return x @ self.folded_blocks(self.check_blocks(x, blocks))


class Embedding(Module):
    """Learnable lookup table ``(num_embeddings, dim)``.

    The paper's layer-0 GCN features ``X⁰`` are exactly such a table,
    initialised from a standard Gaussian (Sec. II-C2).

    Storage is delegated to a :class:`repro.store.EmbeddingStore`: the
    default :class:`repro.store.DenseStore` keeps the historical single
    ``weight`` parameter (``emb.weight`` / ``emb.all()`` behave exactly
    as before), while ``n_shards >= 1`` partitions the *same* initial
    values across that many worker processes
    (:class:`repro.store.ProcessShardedStore`) whose per-shard
    parameters register here as ``shard0..shardN-1``.
    ``quantize="int8"|"fp16"`` adds the quantised memory tier on either
    layout (:class:`repro.store.QuantizedStore` over dense, worker-side
    quantisation on the service — see docs/quantization.md).  Checkpoint
    state is canonical either way — one logical ``weight`` table — so a
    model saved under any layout restores under any other (see
    ``Module.state_dict``).
    """

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        seed: SeedLike = None,
        std: float = 0.1,
        store: Optional["EmbeddingStore"] = None,
        n_shards: int = 0,
        partition: str = "range",
        quantize: Optional[str] = None,
    ) -> None:
        super().__init__()
        from repro.store import make_store  # deferred: breaks the nn<->store cycle

        if num_embeddings <= 0 or dim <= 0:
            raise ValueError(
                f"Embedding dims must be positive, got {num_embeddings}x{dim}"
            )
        self.num_embeddings = num_embeddings
        self.dim = dim
        if store is None:
            rng = as_rng(seed)
            store = make_store(
                inits.normal_((num_embeddings, dim), rng, std=std),
                n_shards=n_shards,
                partition=partition,
                quantize=quantize,
            )
        if (store.num_rows, store.dim) != (num_embeddings, dim):
            raise ValueError(
                f"store holds a ({store.num_rows}, {store.dim}) table, "
                f"embedding expects ({num_embeddings}, {dim})"
            )
        self.store = store
        for name, param in store.named_parameters():
            setattr(self, name, param)

    def forward(self, index) -> Tensor:
        """Gather rows for integer ``index`` (1-D array-like)."""
        return self.store.gather(np.asarray(index, dtype=np.int64))

    def all(self) -> Tensor:
        """The full logical table as a tensor (input to full-graph GCNs)."""
        return self.store.all()

    # ------------------------------------------------------------------
    # Canonical (layout-independent) checkpoint state
    # ------------------------------------------------------------------
    def _state_names(self) -> List[str]:
        return ["weight"]

    def _state_items(self, exclude=()):
        if "weight" in set(exclude):
            return {}
        return {"weight": self.store.logical_state()}

    def _load_state_items(self, entries, dtype=None) -> None:
        for name, values in entries.items():
            if name != "weight":  # pragma: no cover - filtered upstream
                raise KeyError(f"unexpected embedding state entry {name!r}")
            self.store.load_logical(np.asarray(values), dtype)


class Dropout(Module):
    """Inverted dropout active only in training mode."""

    def __init__(self, p: float = 0.5, seed: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
        self.p = p
        self._rng = as_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        """Randomly zero elements of ``x`` when training."""
        return F.dropout(x, self.p, self._rng, training=self.training)


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layer_list: List[Module] = []
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
            self._layer_list.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        """Chain the layers left to right."""
        for layer in self._layer_list:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._layer_list)

    def __len__(self) -> int:
        return len(self._layer_list)


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes.

    ``MLP(d_in, [h1, h2], 1)`` builds ``d_in→h1→h2→1`` with the hidden
    activation between layers and no activation after the last layer
    (Eq. 16/17 apply the sigmoid outside the MLP).
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        activation="relu",
        dropout: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = as_rng(seed)
        self.activation = resolve_activation(activation)
        dims = [in_features, *hidden, out_features]
        self._linears: List[Linear] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layer = Linear(d_in, d_out, seed=rng)
            setattr(self, f"fc{i}", layer)
            self._linears.append(layer)
        self.drop: Optional[Dropout] = Dropout(dropout, seed=rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        """Run the stack; hidden activations (and dropout) between layers."""
        last = len(self._linears) - 1
        for i, layer in enumerate(self._linears):
            x = layer(x)
            if i != last:
                x = self.activation(x)
                if self.drop is not None:
                    x = self.drop(x)
        return x
