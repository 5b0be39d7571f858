#!/usr/bin/env python3
"""Compare MGBR against all six baselines on both sub-tasks.

A scaled-down live version of the paper's Table III: every model trains
with the same budget on the same synthetic dataset and is evaluated on
identical candidate lists.  Expected shape (paper Sec. III-E): MGBR wins
both tasks, with a much larger margin on Task B, because no baseline has
an item-aware participant-scoring head.

Run:  python examples/compare_baselines.py  [--epochs 20]
"""

import os

# The training step runs its windows on one thread per CPU, and a
# threaded BLAS competes with them for the cores (docs/training.md,
# "Window-parallel step").  The setting acts only before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import time

from repro.baselines import EATNN, GBGCN, GBMF, NGCF, DeepMF, DiffNet
from repro.core import MGBR, MGBRConfig
from repro.data import SyntheticConfig, generate_dataset
from repro.eval import evaluate_model
from repro.training import TrainConfig, Trainer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--dim", type=int, default=16)
    args = parser.parse_args()

    dataset = generate_dataset(
        SyntheticConfig(n_users=250, n_items=80, n_groups=1000), seed=7
    )
    print(f"dataset: {dataset.n_users} users / {dataset.n_items} items / "
          f"{dataset.n_groups} deal groups\n")

    mgbr_config = MGBRConfig.small(
        d=args.dim, learning_rate=5e-3, gcn_gain=10.0, aux_a_mode="listnet", seed=0
    )
    models = {
        "DeepMF": DeepMF(dataset.n_users, dataset.n_items, dim=args.dim, seed=1),
        "NGCF": NGCF(dataset.train, dataset.n_users, dataset.n_items, dim=args.dim, seed=1),
        "DiffNet": DiffNet(dataset.train, dataset.n_users, dataset.n_items, dim=args.dim, seed=1),
        "EATNN": EATNN(dataset.n_users, dataset.n_items, dim=args.dim, seed=1),
        "GBGCN": GBGCN(dataset.train, dataset.n_users, dataset.n_items, dim=args.dim, seed=1),
        "GBMF": GBMF(dataset.n_users, dataset.n_items, dim=args.dim, seed=1),
        "MGBR": MGBR(dataset.train, dataset.n_users, dataset.n_items, config=mgbr_config),
    }

    baseline_tc = TrainConfig(
        epochs=args.epochs, batch_size=32, learning_rate=5e-3, train_negatives=9,
        eval_every=5, restore_best=True, eval_max_instances=100, seed=0,
    )
    mgbr_tc = TrainConfig.from_mgbr(
        mgbr_config, epochs=args.epochs,
        eval_every=5, restore_best=True, eval_max_instances=100,
    )

    header = f"{'Model':10s} {'A MRR@10':>9s} {'A NDCG@10':>10s} {'B MRR@10':>9s} {'B NDCG@10':>10s} {'time':>7s}"
    print(header)
    print("-" * len(header))
    for name, model in models.items():
        started = time.perf_counter()
        Trainer(model, dataset, mgbr_tc if name == "MGBR" else baseline_tc).fit()
        result = evaluate_model(model, dataset, protocols=((9, 10),), max_instances=300)["@10"]
        elapsed = time.perf_counter() - started
        print(f"{name:10s} {result.task_a['MRR@10']:9.4f} {result.task_a['NDCG@10']:10.4f} "
              f"{result.task_b['MRR@10']:9.4f} {result.task_b['NDCG@10']:10.4f} {elapsed:6.1f}s")


if __name__ == "__main__":
    main()
