"""Graph convolutional network stack (paper Eq. 1-3).

Each layer computes ``X^l = σ(Â X^{l-1} W^{l-1})`` where ``σ`` is the
sigmoid (the paper's stated activation), ``Â`` is a fixed normalized
adjacency, and ``X⁰`` is a learnable Gaussian-initialised node-feature
table.  The stack returns the H-th layer output, which Eq. 4-6
concatenate across views.

The adjacency is fixed for the lifetime of the model, so :class:`GCN`
accepts it at construction, canonicalises it to CSR exactly once, and
thereafter propagates without per-call conversion (``forward()`` with no
argument).  Passing an explicit adjacency to ``forward`` remains
supported for ad-hoc use, e.g. evaluating the same weights on a
perturbed graph.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.nn import functional as F
from repro.nn.layers import Embedding, Linear, resolve_activation
from repro.nn.module import Module
from repro.nn.sparse import spmm, to_csr
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, as_rng

__all__ = ["GCNLayer", "GCN"]


class GCNLayer(Module):
    """One propagation step ``σ(Â X W)``.

    Parameters
    ----------
    in_dim / out_dim: feature dimensions of ``W ∈ R^{in×out}``.
    activation: nonlinearity; the paper uses sigmoid.
    bias: whether ``W`` carries a bias (paper's Eq. 1-3 has none).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation="sigmoid",
        bias: bool = False,
        seed: SeedLike = None,
        gain: float = 1.0,
    ) -> None:
        super().__init__()
        self.linear = Linear(in_dim, out_dim, bias=bias, seed=seed, gain=gain)
        self.activation = resolve_activation(activation)

    def forward(self, adjacency: sp.spmatrix, features: Tensor) -> Tensor:
        """Propagate ``features`` one hop over ``adjacency``."""
        return self.activation(self.linear(spmm(adjacency, features)))


class GCN(Module):
    """An H-layer GCN over one fixed graph with learnable layer-0 features.

    This is one of MGBR's three per-view encoders.  ``forward()``
    re-derives embeddings from the current parameters (needed during
    training so gradients reach ``X⁰`` and every ``W^l``).

    Parameters
    ----------
    n_nodes: number of graph nodes (rows of ``X⁰``).
    dim: embedding width ``d`` (constant across layers, as in the paper).
    n_layers: ``H`` in the paper (Table II uses 2).
    activation: per-layer nonlinearity (paper: sigmoid).
    feature_std: std-dev of the Gaussian layer-0 initialisation.
    adjacency: the fixed graph to propagate over; canonicalised to CSR
        once here, so ``forward()`` needs no argument and pays no
        per-call conversion.  Omit it to keep the legacy call style
        ``gcn(adjacency)``.
    """

    def __init__(
        self,
        n_nodes: int,
        dim: int,
        n_layers: int = 2,
        activation="sigmoid",
        feature_std: float = 0.1,
        seed: SeedLike = None,
        gain: float = 1.0,
        adjacency: Optional[sp.spmatrix] = None,
        n_shards: int = 0,
        quantize: Optional[str] = None,
    ) -> None:
        super().__init__()
        if n_layers < 1:
            raise ValueError(f"GCN needs at least one layer, got {n_layers}")
        rng = as_rng(seed)
        self.n_nodes = n_nodes
        self.dim = dim
        self.n_layers = n_layers
        self.adjacency = None if adjacency is None else self._check_adjacency(adjacency)
        # ``n_shards``/``quantize`` pick the feature table's storage
        # layout (repro.store); propagation reads the logical table via
        # ``features.all()`` either way, so the math is layout-blind.
        self.features = Embedding(
            n_nodes, dim, seed=rng, std=feature_std,
            n_shards=n_shards, quantize=quantize,
        )
        self._layers: List[GCNLayer] = []
        for layer_idx in range(n_layers):
            layer = GCNLayer(dim, dim, activation=activation, seed=rng, gain=gain)
            setattr(self, f"gcn{layer_idx}", layer)
            self._layers.append(layer)

    def _check_adjacency(self, adjacency: sp.spmatrix) -> sp.csr_matrix:
        if adjacency.shape != (self.n_nodes, self.n_nodes):
            raise ValueError(
                f"adjacency shape {adjacency.shape} does not match n_nodes={self.n_nodes}"
            )
        # Pin to float64 regardless of any active dtype scope — the
        # stored adjacency is model state; spmm casts per-use instead.
        return to_csr(adjacency, dtype=np.float64)

    def _resolve_adjacency(self, adjacency: Optional[sp.spmatrix]) -> sp.spmatrix:
        if adjacency is None:
            if self.adjacency is None:
                raise ValueError(
                    "GCN was built without an adjacency; pass one to forward()"
                )
            return self.adjacency
        return self._check_adjacency(adjacency)

    def forward(self, adjacency: Optional[sp.spmatrix] = None) -> Tensor:
        """Return the final-layer node embeddings ``X^H``.

        Uses the adjacency bound at construction when called with no
        argument (the fast path — no conversion, cached ``spmm``
        operands).
        """
        adjacency = self._resolve_adjacency(adjacency)
        x = self.features.all()
        for layer in self._layers:
            x = layer(adjacency, x)
        return x
