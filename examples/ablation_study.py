#!/usr/bin/env python3
"""Ablation study — a live, scaled-down version of the paper's Table IV.

Trains all five ablated variants plus full MGBR with identical budgets
and prints both tasks' metrics with the relative drop versus MGBR.
Expected shape (paper Sec. III-F): removing the shared experts (-M)
hurts most, the auxiliary losses (-R) and adjusted gates (-G) follow,
the single-HIN encoder (-D) sits in between, and -G's Task-B drop
exceeds its Task-A drop.

Run:  python examples/ablation_study.py  [--epochs 20]
"""

import os

# The training step runs its windows on one thread per CPU, and a
# threaded BLAS competes with them for the cores (docs/training.md,
# "Window-parallel step").  The setting acts only before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse

from repro.core import MGBRConfig, VARIANTS, build_variant
from repro.data import SyntheticConfig, generate_dataset
from repro.eval import evaluate_model
from repro.training import TrainConfig, Trainer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=20)
    args = parser.parse_args()

    dataset = generate_dataset(
        SyntheticConfig(n_users=250, n_items=80, n_groups=1000), seed=7
    )
    base = MGBRConfig.small(
        d=16, learning_rate=5e-3, gcn_gain=10.0, aux_a_mode="listnet", seed=0
    )

    scores = {}
    for name in VARIANTS:
        config = base.replace(**VARIANTS[name])
        model = build_variant(name, dataset.train, dataset.n_users,
                              dataset.n_items, base=base)
        tc = TrainConfig.from_mgbr(
            config, epochs=args.epochs,
            eval_every=5, restore_best=True, eval_max_instances=100,
        )
        Trainer(model, dataset, tc).fit()
        result = evaluate_model(model, dataset, protocols=((9, 10),), max_instances=300)["@10"]
        scores[name] = result
        print(f"trained {name}")

    full = scores["MGBR"]
    print(f"\n{'Variant':10s} {'A MRR@10':>9s} {'drop':>8s} {'B MRR@10':>9s} {'drop':>8s}")
    for name, result in scores.items():
        def drop(task: str) -> str:
            ours = result.task_a if task == "A" else result.task_b
            ref = full.task_a if task == "A" else full.task_b
            if name == "MGBR":
                return "-"
            return f"{100 * (ours['MRR@10'] - ref['MRR@10']) / ref['MRR@10']:+.1f}%"

        print(f"{name:10s} {result.task_a['MRR@10']:9.4f} {drop('A'):>8s} "
              f"{result.task_b['MRR@10']:9.4f} {drop('B'):>8s}")


if __name__ == "__main__":
    main()
