"""MGBR reproduction: Group Buying Recommendation Based on Multi-task Learning.

This package is a complete, self-contained reproduction of

    Zhai, Liu, Yang, Xiao.
    "Group Buying Recommendation Model Based on Multi-task Learning."
    ICDE 2023 (arXiv:2211.14247).

Layout
------
``repro.nn``        NumPy autograd + layers + optimizers (PyTorch substitute)
``repro.graph``     the three interaction views, normalized adjacencies, GCNs
``repro.data``      synthetic Beibei-style group-buying data + samplers
``repro.eval``      MRR/NDCG protocols (1:9 and 1:99) + PCA case study
``repro.core``      the MGBR model: multi-view embeddings, expert networks,
                    adjusted gates, prediction heads, all four losses,
                    and the paper's five ablation variants
``repro.baselines`` DeepMF, NGCF, DiffNet, EATNN, GBGCN, GBMF
``repro.plan``      scoring plans: dedup and scatter maps for batched
                    candidate scoring
``repro.store``     embedding storage layouts: dense tables, row-range
                    sharded stores served by worker processes, LRU and
                    quantised tiers
``repro.serving``   async serving engines that batch scoring requests
                    into one plan per flush
``repro.training``  joint two-task trainer, checkpoints, histories
``repro.analysis``  parameter counts, epoch timing, hyper-parameter sweeps
``repro.utils``     seeded RNG handling, loggers, argument validation
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
