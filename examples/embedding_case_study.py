#!/usr/bin/env python3
"""Embedding case study — the analysis behind the paper's Fig. 6.

Trains full MGBR and the MGBR-M-R ablation on the same dataset, projects
the learned embeddings of a handful of deal groups to 2-D with PCA and
prints (a) an ASCII scatter of the projected points and (b) the
within/between-group dispersion ratio.  The paper's claim: with shared
experts + auxiliary losses, the members of one group cluster much more
tightly (lower ratio) than without them.

Run:  python examples/embedding_case_study.py  [--epochs 12]
"""

import os

# The training step runs its windows on one thread per CPU, and a
# threaded BLAS competes with them for the cores (docs/training.md,
# "Window-parallel step").  The setting acts only before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse

import numpy as np

from repro.core import MGBRConfig, build_variant
from repro.data import SyntheticConfig, generate_dataset
from repro.eval import run_case_study
from repro.training import TrainConfig, Trainer


def ascii_scatter(points: np.ndarray, labels: np.ndarray, width: int = 56, height: int = 18) -> str:
    """Render labelled 2-D points as a terminal scatter plot."""
    glyphs = "ABCDEFGH"
    x, y = points[:, 0], points[:, 1]
    grid = [[" "] * width for _ in range(height)]
    span = lambda v: (v - v.min()) / (v.max() - v.min() + 1e-12)
    for px, py, label in zip(span(x), span(y), labels):
        col = min(int(px * (width - 1)), width - 1)
        row = min(int((1 - py) * (height - 1)), height - 1)
        grid[row][col] = glyphs[int(label) % len(glyphs)]
    border = "+" + "-" * width + "+"
    return "\n".join([border] + ["|" + "".join(r) + "|" for r in grid] + [border])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--groups", type=int, default=6, help="groups to visualise")
    args = parser.parse_args()

    dataset = generate_dataset(
        SyntheticConfig(n_users=250, n_items=80, n_groups=1000), seed=7
    )
    base = MGBRConfig.small(d=16, learning_rate=5e-3, gcn_gain=10.0, seed=0)

    ratios = {}
    for name in ("MGBR", "MGBR-M-R"):
        model = build_variant(name, dataset.train, dataset.n_users, dataset.n_items, base=base)
        Trainer(model, dataset, TrainConfig.from_mgbr(base, epochs=args.epochs)).fit()
        model.refresh_cache()
        study = run_case_study(model, dataset.train, n_groups=args.groups, seed=3)
        ratios[name] = study.dispersion_ratio
        print(f"\n=== {name} ===  (letters = groups; initiator+item+participants share one letter)")
        print(ascii_scatter(study.points, study.labels))
        print(f"dispersion ratio (within-group / between-group): {study.dispersion_ratio:.3f}")
        print(f"PCA explained variance: {study.explained_variance.round(3)}")

    print("\nPaper's Fig. 6 claim: full MGBR clusters each group more tightly.")
    verdict = "CONFIRMED" if ratios["MGBR"] < ratios["MGBR-M-R"] else "NOT REPRODUCED"
    print(f"MGBR ratio {ratios['MGBR']:.3f} vs MGBR-M-R ratio {ratios['MGBR-M-R']:.3f} -> {verdict}")


if __name__ == "__main__":
    main()
