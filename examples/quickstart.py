#!/usr/bin/env python3
"""Quickstart: train MGBR on a synthetic group-buying dataset.

This is the 5-minute tour of the library's public API:

1. generate a Beibei-style synthetic dataset (two-phase group buying),
2. build the MGBR model from its config,
3. train jointly on both sub-tasks with the paper's Eq. 25 objective,
4. evaluate with the paper's MRR@10 / NDCG@10 protocol.

Run:  python examples/quickstart.py
"""

import os

# The training step runs its windows on one thread per CPU, and a
# threaded BLAS competes with them for the cores (docs/training.md,
# "Window-parallel step").  The setting acts only before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from repro.core import MGBR, MGBRConfig
from repro.data import SyntheticConfig, compute_statistics, format_table1, generate_dataset
from repro.eval import evaluate_model
from repro.training import TrainConfig, Trainer

# ----------------------------------------------------------------------
# 1. Data: simulate the two-phase process of Fig. 1(b) — initiators
#    launch groups on preferred items; participants join by item taste
#    plus social affinity to the initiator.
# ----------------------------------------------------------------------
dataset = generate_dataset(
    SyntheticConfig(n_users=300, n_items=100, n_groups=1200),
    seed=7,
)
print(format_table1(compute_statistics(dataset)))
print()

# ----------------------------------------------------------------------
# 2. Model: the `small()` profile scales Table II down for the NumPy
#    substrate; swap in MGBRConfig.paper() to get d=128, K=6, |T|=99.
# ----------------------------------------------------------------------
config = MGBRConfig.small(d=16, learning_rate=5e-3, seed=0)
model = MGBR(dataset.train, dataset.n_users, dataset.n_items, config=config)
print(f"MGBR with {model.num_parameters():,} parameters "
      f"(d={config.d}, K={config.n_experts}, L={config.mtl_layers})")

# ----------------------------------------------------------------------
# 3. Train: BPR on both tasks + the two auxiliary losses (Eq. 25).
# ----------------------------------------------------------------------
trainer = Trainer(model, dataset, TrainConfig.from_mgbr(config, epochs=10, verbose=True))
history = trainer.fit()
print(f"\nfinal epoch losses: { {k: round(v, 4) for k, v in history.last().losses.items()} }")

# ----------------------------------------------------------------------
# 4. Evaluate: 1:9 candidate lists, MRR@10 / NDCG@10, both sub-tasks.
# ----------------------------------------------------------------------
result = evaluate_model(model, dataset, protocols=((9, 10),), max_instances=300)["@10"]
print("\nTask A (recommend an item for an initiator):")
for metric, value in result.task_a.items():
    print(f"  {metric:10s} {value:.4f}")
print("Task B (recommend a participant for a group):")
for metric, value in result.task_b.items():
    print(f"  {metric:10s} {value:.4f}")
