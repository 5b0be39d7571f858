"""Expert networks of the multi-task learning module (Eq. 7-9).

Each of the three sub-modules (A = Task A, B = Task B, S = shared) owns
``K`` expert networks per layer.  An expert is a single linear map:

* ``e^l_{Ai} = (g^{l-1}_A || g^{l-1}_S) W^l_{Ai}``   (Eq. 7)
* ``e^l_{Bi} = (g^{l-1}_B || g^{l-1}_S) W^l_{Bi}``   (Eq. 8)
* ``e^l_{Si} = (g^{l-1}_A || g^{l-1}_S || g^{l-1}_B) W^l_{Si}``  (Eq. 9)

The bank's forward takes the already-concatenated gate state and returns
the stacked expert outputs ``E^l ∈ (batch, K, d)`` which the gates
attend over.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.backend import get_backend
from repro.nn.layers import FOLD_LOCK, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, _matmul, fold_route, get_default_dtype, shared_input
from repro.utils.rng import SeedLike, as_rng

__all__ = ["ExpertBank"]


class ExpertBank(Module):
    """``K`` parallel linear experts sharing an input, stacked on output.

    Parameters
    ----------
    in_dim: width of the concatenated gate state feeding the experts.
    out_dim: expert output width ``d`` (all experts share it).
    n_experts: ``K`` (Table II uses 6).
    seed: initialisation RNG.
    """

    def __init__(self, in_dim: int, out_dim: int, n_experts: int, seed: SeedLike = None) -> None:
        super().__init__()
        if n_experts < 1:
            raise ValueError(f"need at least one expert, got {n_experts}")
        rng = as_rng(seed)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.n_experts = n_experts
        self._experts: List[Linear] = []
        for k in range(n_experts):
            expert = Linear(in_dim, out_dim, bias=False, seed=rng)
            setattr(self, f"expert{k}", expert)
            self._experts.append(expert)
        self._bank_fold_cache = {}  # blocks -> (expert versions, stacked ndarray)

    def forward(self, gate_state: Tensor, out=None) -> Tensor:
        """Apply every expert to ``gate_state`` → ``(batch, K, d)``.

        ``gate_state`` is the concatenation the relevant equation calls
        for (A/B: two gates; S: three gates).  The bank is one GEMM
        ``x @ [W_1|…|W_K]`` written straight into ``out`` — a slot range
        of the layer's combined bank buffer, in the default dtype, or a
        fresh buffer — through its ``(batch, K·d)`` view, so there is no
        per-expert result and no stack copy.  Each output column is the
        same dot product as in a per-expert GEMM, so the value keeps the
        per-expert bits (``tests/golden_scores.npz`` guards this per BLAS
        build).  The column-stacked weight comes from the version-keyed
        fold cache.  The routes stay per expert, last to first: each
        sends its ``g[:, k] Wₖᵀ`` into the state's gradient and
        ``stateᵀ g[:, k]`` into its weight, the order the per-expert
        graph ran them in; a stacked dX would re-associate its sum.
        """
        if gate_state.shape[-1] != self.in_dim:
            raise ValueError(
                f"expert bank expects input width {self.in_dim}, got {gate_state.shape[-1]}"
            )
        b = get_backend()
        x = gate_state.data
        weights = [expert.weight for expert in self._experts]
        n, width = x.shape[0], self.n_experts * self.out_dim
        if out is None:
            out = b.empty((n, self.n_experts, self.out_dim), dtype=get_default_dtype())
        flat = b.reshape(out, (n, width))
        assert flat.base is (out if out.base is None else out.base), "slot must reshape to a view"
        b.matmul(x, self.stacked_folds_raw(((0, self.in_dim),)), out=flat)

        def expert(k):
            w = weights[k]
            return (
                (gate_state, lambda g: _matmul(g[:, k, :], get_backend().swapaxes(w.data, -1, -2))),
                (w, lambda g: _matmul(get_backend().swapaxes(x, -1, -2), g[:, k, :])),
            )

        return Tensor._make(out, *(r for k in reversed(range(len(weights))) for r in expert(k)))

    def project_blocks(self, x: Tensor, blocks) -> Tensor:
        """Per-entity partial bank: every expert's weight-row blocks on ``x``.

        ``blocks`` selects (and sums) the rows of each expert weight that
        multiply one segment of the concatenated gate state (see
        :meth:`repro.nn.layers.Linear.project_blocks`).  Returns
        ``(rows, K, d)`` — the contribution of this segment to the full
        expert bank; the scoring plan computes it once per unique entity
        and gathers per pair, which is where the layer-0 FLOP cut comes
        from (Eq. 7-9 distribute over the concatenation).

        The ``K`` per-expert folds are stacked column-wise into one
        ``(width, K·d)`` weight so the whole bank is a *single* matmul
        (ROADMAP "Planned-step follow-ons": one stacked GEMM per bank
        instead of ``K`` thin ones, and one fused scatter on the way
        back); results match the per-expert loop up to BLAS
        re-association (see tests/test_fold_cache.py's parity test).
        """
        key = self._experts[0].check_blocks(x, blocks)
        return (x @ self._stacked_folds(key)).reshape(x.shape[0], self.n_experts, self.out_dim)

    def _stacked_folds(self, blocks) -> Tensor:
        """Column-stacked fold weights ``(width, K·d)``, cached like
        :meth:`repro.nn.layers.Linear.folded_blocks`.

        Values are cached per block set keyed on the tuple of expert
        weight versions (any optimizer step or state load bumps them);
        every call returns a fresh graph node whose backward slices the
        ``(width, K·d)`` gradient into per-expert columns and adds each
        into that expert's weight blocks, so cached values can never be
        stale and cached nodes are never shared between graphs (inside
        a :class:`repro.nn.tensor.Window`, the window's leaf over one
        such node per step).
        """
        d = self.out_dim
        return shared_input(
            (self, blocks),
            lambda: Tensor._make(
                self.stacked_folds_raw(blocks),
                *(
                    fold_route(expert.weight, blocks, slice(k * d, (k + 1) * d))
                    for k, expert in enumerate(self._experts)
                ),
            ),
        )

    def stacked_folds_raw(self, blocks) -> np.ndarray:
        """The cached ``(width, K·d)`` stacked fold as a raw array.

        Shares the version-keyed cache with :meth:`_stacked_folds`.
        Callers must not mutate the result.
        A miss builds under :data:`repro.nn.layers.FOLD_LOCK`, so
        concurrent readers build each fold once and share it.
        """
        versions = tuple(expert.weight.version for expert in self._experts)
        entry = self._bank_fold_cache.get(blocks)
        if entry is None or entry[0] != versions:
            with FOLD_LOCK:
                entry = self._bank_fold_cache.get(blocks)
                if entry is None or entry[0] != versions:
                    backend = get_backend()
                    folds = []
                    for expert in self._experts:
                        folded = backend.ensure_contiguous(
                            expert.weight.data[blocks[0][0] : blocks[0][1]]
                        )
                        for start, stop in blocks[1:]:
                            folded = folded + expert.weight.data[start:stop]
                        folds.append(folded)
                    entry = (versions, np.concatenate(folds, axis=1))
                    self._bank_fold_cache[blocks] = entry
        return entry[1]
