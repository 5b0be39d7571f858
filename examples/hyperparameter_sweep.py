#!/usr/bin/env python3
"""Hyper-parameter sensitivity sweeps — live versions of Figs. 4 and 5.

Sweeps the tied auxiliary-loss weights β_A = β_B (Fig. 4) and the tied
adjusted-gate coefficients α_A = α_B (Fig. 5), retraining MGBR per point
and printing ASCII curves of MRR@10 for both sub-tasks.  The paper's
finding: an interior optimum — β ≈ 0.3, α ≈ 0.1 — with degradation on
both sides.

Run:  python examples/hyperparameter_sweep.py  [--epochs 8]
"""

import os

# The training step runs its windows on one thread per CPU, and a
# threaded BLAS competes with them for the cores (docs/training.md,
# "Window-parallel step").  The setting acts only before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse

from repro.analysis import aux_weight_sweep, gate_coefficient_sweep
from repro.core import MGBRConfig
from repro.data import SyntheticConfig, generate_dataset


def ascii_curve(xs, ys, label: str, width: int = 40) -> str:
    """One bar row per sweep point, bar length ∝ metric value."""
    lines = [label]
    top = max(ys) + 1e-12
    for x, y in zip(xs, ys):
        bar = "#" * int(round(width * y / top))
        marker = "  <- best" if y == max(ys) else ""
        lines.append(f"  {x:>5.2f} | {bar:<{width}} {y:.4f}{marker}")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()

    dataset = generate_dataset(
        SyntheticConfig(n_users=200, n_items=60, n_groups=800), seed=7
    )
    base = MGBRConfig.small(d=16, learning_rate=5e-3, gcn_gain=10.0, seed=0)

    print("=== Fig. 4: auxiliary-loss weight sweep (β_A = β_B) ===")
    fig4 = aux_weight_sweep(dataset, base, epochs=args.epochs, eval_max_instances=150)
    for task in ("A", "B"):
        print(ascii_curve(fig4.values(), fig4.series(f"{task}/MRR@10"), f"Task {task} MRR@10"))
    print(f"best β by Task B MRR@10: {fig4.best('B/MRR@10').value}")

    print("\n=== Fig. 5: adjusted-gate coefficient sweep (α_A = α_B) ===")
    fig5 = gate_coefficient_sweep(dataset, base, epochs=args.epochs, eval_max_instances=150)
    for task in ("A", "B"):
        print(ascii_curve(fig5.values(), fig5.series(f"{task}/MRR@10"), f"Task {task} MRR@10"))
    print(f"best α by Task B MRR@10: {fig5.best('B/MRR@10').value}")


if __name__ == "__main__":
    main()
