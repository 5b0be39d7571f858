"""MGBR hyper-parameter configuration (paper Table II).

The defaults reproduce Table II exactly:

====== ======= ==================================================
Param  Value   Comment
====== ======= ==================================================
d       128    embedding dimension
H       2      number of GCN layers
K       6      number of expert networks in each layer
L       2      layer number of experts and gates
|T|     99     negative sampling size in the auxiliary losses
α_A     0.1    control coefficient of Eq. 12
α_B     0.1    control coefficient of Eq. 13
β       1      control coefficient of L_B in Eq. 25
β_A     0.3    control coefficient of L'_A in Eq. 25
β_B     0.3    control coefficient of L'_B in Eq. 25
ρ       0.0002 learning rate
|B|     64     batch size
====== ======= ==================================================

:meth:`MGBRConfig.small` gives a scaled-down profile for tests and the
benchmark harness (NumPy substrate).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["MGBRConfig"]


@dataclass
class MGBRConfig:
    """All MGBR hyper-parameters, in the paper's notation.

    Attributes beyond Table II:

    ``mlp_hidden``      hidden widths of the prediction MLPs (Eq. 16/17);
                        the paper does not specify them — default is
                        ``(d, d // 2)``.
    ``gate_softmax``    softmax-normalize gate attention weights (the
                        "principle of self-attention" the paper cites).
    ``first_layer_compact``
                        feed ``g⁰`` once at layer 1 instead of the
                        duplicated concatenation — see the shape note in
                        :mod:`repro.core.mtl`.
    ``use_shared_experts``  disable for the MGBR-M ablation.
    ``use_aux_losses``      disable for the MGBR-R ablation.
    ``use_hin_views``       enable for the MGBR-D ablation (one HIN GCN
                            instead of three per-view GCNs).
    ``aux_a_mode``      "literal" implements Eq. 21 exactly;
                        "listnet" softmax-normalizes the candidate list
                        first (the ListNet reading the equation cites).
    ``grad_clip``       global-norm gradient clip (0 disables).
    """

    # --- Table II ----------------------------------------------------
    d: int = 128
    gcn_layers: int = 2          # H
    n_experts: int = 6           # K
    mtl_layers: int = 2          # L
    aux_negatives: int = 99      # |T|
    alpha_a: float = 0.1
    alpha_b: float = 0.1
    beta: float = 1.0
    beta_a: float = 0.3
    beta_b: float = 0.3
    learning_rate: float = 2e-4
    batch_size: int = 64

    # --- architecture details not pinned down by the paper ------------
    mlp_hidden: Optional[Tuple[int, ...]] = None
    gate_softmax: bool = True
    first_layer_compact: bool = False
    feature_std: float = 1.0     # paper: X⁰ ~ Gaussian(0, 1)
    gcn_gain: float = 3.0        # Xavier gain of the GCN weights; >1 keeps the
                                 # sigmoid layers out of their flat region at
                                 # small d
    train_negatives: int = 9     # 1:9 positive:negative training ratio

    # --- ablation switches --------------------------------------------
    use_shared_experts: bool = True   # False => MGBR-M
    use_aux_losses: bool = True       # False => MGBR-R
    use_adjusted_gates: bool = True   # False => MGBR-G (α := 0)
    use_hin_views: bool = False       # True  => MGBR-D
    include_participant_edges: bool = False  # footnote-1 variant

    # --- training mechanics --------------------------------------------
    aux_a_mode: str = "literal"
    grad_clip: float = 5.0
    seed: int = 0

    # --- serving / evaluation ------------------------------------------
    #: Scoring precision of candidate-list evaluation and serving-style
    #: inference.  Training and gradcheck always run float64; "float32"
    #: opts evaluation into the substrate's half-bandwidth fast path
    #: (see repro.nn.tensor.dtype_scope / repro.eval.protocol).
    inference_dtype: str = "float64"

    # --- storage layout -------------------------------------------------
    #: Shard count for every layer-0 embedding table (the GCN feature
    #: tables).  0 keeps the dense single-table layout; >= 1 partitions
    #: each table across that many shard worker *processes*
    #: (:class:`repro.store.ProcessShardedStore`, rows gathered over
    #: shared-memory buffers) — scores, losses and trained weights are
    #: bit-identical to dense at float64 for any count, so the knob is
    #: purely a memory-layout decision.
    embedding_shards: int = 0
    #: Row-to-shard assignment: "range" (contiguous blocks) or "hash"
    #: (modulo striping); see :class:`repro.store.Partitioner`.
    embedding_partition: str = "range"
    #: Quantised embedding memory tier: ``None`` (float rows), "int8"
    #: (per-row affine codes + scale/zero side arrays, ~4× rows per
    #: byte) or "fp16" (~2×).  Training bypasses the tier (the dense
    #: layout keeps a float master; a quantised sharded layout is
    #: inference-only).  See docs/quantization.md.
    embedding_quantize: Optional[str] = None

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise ValueError(f"embedding dim d must be positive, got {self.d}")
        if self.gcn_layers < 1:
            raise ValueError(f"H must be >= 1, got {self.gcn_layers}")
        if self.n_experts < 1:
            raise ValueError(f"K must be >= 1, got {self.n_experts}")
        if self.mtl_layers < 1:
            raise ValueError(f"L must be >= 1, got {self.mtl_layers}")
        if self.aux_negatives < 1:
            raise ValueError(f"|T| must be >= 1, got {self.aux_negatives}")
        for name in ("alpha_a", "alpha_b"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        for name in ("beta", "beta_a", "beta_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.aux_a_mode not in ("literal", "listnet"):
            raise ValueError(f"aux_a_mode must be literal|listnet, got {self.aux_a_mode!r}")
        if self.inference_dtype not in ("float32", "float64"):
            raise ValueError(
                f"inference_dtype must be float32|float64, got {self.inference_dtype!r}"
            )
        if self.embedding_shards < 0:
            raise ValueError(
                f"embedding_shards must be >= 0, got {self.embedding_shards}"
            )
        if self.embedding_partition not in ("range", "hash"):
            raise ValueError(
                f"embedding_partition must be range|hash, got {self.embedding_partition!r}"
            )
        if self.embedding_quantize not in (None, "int8", "fp16"):
            raise ValueError(
                f"embedding_quantize must be None|int8|fp16, "
                f"got {self.embedding_quantize!r}"
            )
        if self.mlp_hidden is None:
            self.mlp_hidden = (self.d, max(self.d // 2, 1))

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, **overrides) -> "MGBRConfig":
        """Exact Table II settings (embedding dim 128 etc.)."""
        return cls(**overrides)

    @classmethod
    def small(cls, **overrides) -> "MGBRConfig":
        """Scaled-down profile for tests/benches on the NumPy substrate."""
        base = dict(
            d=16,
            gcn_layers=2,
            n_experts=3,
            mtl_layers=2,
            aux_negatives=8,
            train_negatives=4,
            batch_size=32,
            learning_rate=5e-3,
            mlp_hidden=(16,),
        )
        base.update(overrides)
        return cls(**base)

    def replace(self, **overrides) -> "MGBRConfig":
        """Return a copy with ``overrides`` applied (dataclasses.replace)."""
        return dataclasses.replace(self, **overrides)

    @property
    def view_dim(self) -> int:
        """Width of each per-object embedding after view concatenation (2d)."""
        return 2 * self.d

    @property
    def triple_dim(self) -> int:
        """Width of ``e_u || e_i || e_p`` — the MTL layer-0 input (6d)."""
        return 3 * self.view_dim
